"""Scattering matrices of symmetric potentials.

Conventions: plane-wave amplitudes are read off the solution at the support
edges,

    psi(x) = A e^{ikx} + B e^{-ikx}   (x <= -a)
    psi(x) = C e^{ikx} + D e^{-ikx}   (x >= +a)

and the scattering matrix maps incoming to outgoing, (B, C)^T = S (A, D)^T.
For a symmetric potential S is symmetric with equal diagonal entries, and
unitary whenever the potential is real; ``SMatrix`` holds s11 and s12, and
its ``channels`` are the even and odd eigenvalues s11 + s12 and s11 - s12.

S is read off the even and odd solutions u+ and u-, started at x = 0 from
(1, 0) and (0, 1) and carried to x = a by fourth-order Magnus cells (see
propagate), exact where V is constant.  Each is a parity channel, and
outside the support its amplitudes give its entry of ``channels``,
e^{-2ika} (u' + iku) / (iku - u') at x = a.  The test suite holds
an independent route as its oracle (tests/helpers.py): it carries two
solutions across [-a, a] one cell at a time and solves the linear
relations B = s11 A + s12 D, C = s12 A + s11 D from their amplitudes.
"""

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import PreconditionViolated, _check_finite, wavenumber_from_energy
from .potential import EvaluatedPotential, SquareWell, validate
from .propagate import _endpoint_maps


@dataclass(frozen=True)
class SMatrix:
    """Symmetric S = [[s11, s12], [s12, s11]] at wavenumber k of a potential on [-a, a].

    A symmetric potential has s22 = s11 and s21 = s12, so the record holds
    those two entries only and cannot hold an asymmetric S.
    """

    s11: complex
    s12: complex
    k: float
    a: float

    @property
    def channels(self) -> tuple[complex, complex]:
        """The even and odd channel eigenvalues (s11 + s12, s11 - s12) of S."""
        return self.s11 + self.s12, self.s11 - self.s12

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s12, self.s11]])

    def unitarity_residual(self) -> float:
        return float(unitarity_residuals([self])[0])


def unitarity_residuals(matrices: Sequence[SMatrix]) -> np.ndarray:
    """max |S^H S - I| of each matrix, from one stacked product; empty for no matrices."""
    s = np.array([[[m.s11, m.s12], [m.s12, m.s11]] for m in matrices], dtype=complex).reshape(-1, 2, 2)
    return np.max(np.abs(np.conj(np.swapaxes(s, 1, 2)) @ s - np.eye(2)), axis=(1, 2))


def _from_channels(m, k: float, a: float) -> SMatrix:
    """S from the map m = [[u+, u-], [u+', u-']] of the even and odd solutions at x = a.

    With D = iku - u', the channel eigenvalues e^{-2ika} (iku + u') / D
    combine, by the Wronskian u+ u-' - u+' u- = 1, into

        s11 = -e^{-2ika} (u+' u-' + k^2 u+ u-) / (D+ D-),
        s12 = -ik e^{-2ika} / (D+ D-),

    with no cancellation.  |D|^2 = k^2 u^2 + u'^2 never vanishes, and each
    factor is divided by its own D, so no product overflows.
    """
    (u_even, u_odd), (du_even, du_odd) = m
    d_even, d_odd = complex(-du_even, k * u_even), complex(-du_odd, k * u_odd)
    phase = cmath.exp(-2j * k * a)
    s11 = -phase * (du_even / d_even * (du_odd / d_odd) + k * k * (u_even / d_even) * (u_odd / d_odd))
    s12 = -1j * k * phase / d_even / d_odd
    return SMatrix(s11=s11, s12=s12, k=k, a=a)


def smatrix_via_transfer(
    pot: EvaluatedPotential, energy: float | Sequence[float], steps: int = 4096
) -> SMatrix | list[SMatrix]:
    """Propagate the even and odd solutions across [0, a] and read S off them.

    steps counts the steps of [-a, a]; the half interval is crossed in
    ceil(steps / 4) Magnus cells.  A sequence of energies is
    propagated in one batch and gives the list of matrices in the same
    order; each equals the one for its energy alone.
    """
    energies = [energy] if np.ndim(energy) == 0 else energy
    (matrices,) = _smatrices([pot], energies, steps)
    return matrices[0] if np.ndim(energy) == 0 else matrices


def _smatrices(pots: Sequence[EvaluatedPotential], energies: Sequence[float], steps: int) -> list[list[SMatrix]]:
    """S of each potential at each energy, from one scan of their (potential, energy) rows.

    The potentials share one support.  Each matrix equals
    smatrix_via_transfer of its potential and energy alone, bit for bit.
    """
    maps = _endpoint_maps(pots, energies, steps)  # refuses every energy that is not finite and positive
    return [
        [_from_channels(m, math.sqrt(e), pot.a) for m, e in zip(pot_maps, energies)]
        for pot, pot_maps in zip(pots, maps.tolist())
    ]


def analytic_square_well(v0: float, a: float, energy: float) -> SMatrix:
    """Closed-form scattering matrix of the square well.

    With k = sqrt(E) and l = sqrt(E + v0),

        s_off  = e^{-2ika} / (cos 2la - i (k^2 + l^2)/(2kl) sin 2la)
        s_diag = s_off * i (l^2 - k^2)/(2kl) sin 2la.

    The v0 = 0 limit is the free matrix [[0, 1], [1, 0]].
    """
    _check_finite(v0=v0, a=a)
    if v0 < 0.0:
        raise PreconditionViolated(f"well depth v0 must be >= 0, got {v0}")
    if not a > 0.0:
        raise PreconditionViolated(f"half-width a must be positive, got {a}")
    k = wavenumber_from_energy(energy)
    l = np.sqrt(energy + v0)
    two_la = 2.0 * l * a
    common = np.exp(-2j * k * a) / (
        np.cos(two_la) - 1j * ((k * k + l * l) / (2.0 * k * l)) * np.sin(two_la)
    )
    diag = common * 1j * ((l * l - k * k) / (2.0 * k * l)) * np.sin(two_la)
    return SMatrix(s11=complex(diag), s12=complex(common), k=k, a=a)


def analytic_delta(alpha: float, energy: float) -> SMatrix:
    """Closed-form scattering matrix of the attractive point interaction.

    beta = alpha / (2k) in natural units, and

        S = 1/(1 - i beta) [[i beta, 1], [1, i beta]].

    The support is a point, so the matrix carries a = 0.
    """
    _check_finite(alpha=alpha)
    if not alpha > 0.0:
        raise PreconditionViolated(f"delta strength must be positive, got {alpha}")
    k = wavenumber_from_energy(energy)
    beta = alpha / (2.0 * k)
    denom = 1.0 - 1j * beta
    diag = 1j * beta / denom
    off = 1.0 / denom
    return SMatrix(s11=diag, s12=off, k=k, a=0.0)


def delta_as_well_limit(alpha: float, energy: float, eps: float, steps: int = 4096) -> SMatrix:
    """Numeric delta scattering via a thin deep well of the same weight.

    The well SquareWell(alpha / (2 eps), eps) integrates to weight alpha; its
    scattering matrix converges to the point-interaction one at rate O(eps).
    """
    if not 0.0 < eps <= 0.1:
        raise PreconditionViolated(f"eps must lie in (0, 0.1], got {eps}")
    if not alpha > 0.0:
        raise PreconditionViolated(f"delta strength must be positive, got {alpha}")
    pot = validate(SquareWell(v0=alpha / (2.0 * eps), a=eps))
    return smatrix_via_transfer(pot, energy, steps=steps)
