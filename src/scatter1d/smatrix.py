"""Scattering matrices of symmetric potentials.

Conventions: plane-wave amplitudes are read off the solution at the support
edges,

    psi(x) = A e^{ikx} + B e^{-ikx}   (x <= -a)
    psi(x) = C e^{ikx} + D e^{-ikx}   (x >= +a)

and the scattering matrix maps incoming to outgoing, (B, C)^T = S (A, D)^T.
For a symmetric potential S is symmetric with equal diagonal entries, and
unitary whenever the potential is real.

Two independent routes produce S.  The production route reads S off the
even and odd solutions u+ and u-, started at x = 0 from (1, 0) and (0, 1)
and carried to x = a by fourth-order Magnus cells (see propagate), exact
where V is constant.  Each is a parity channel, and outside the support
its amplitudes give the channel eigenvalue e^{-2ika} (u' + iku) / (iku - u')
of S at x = a.  The second route solves the linear relations
B = s11 A + s12 D, C = s12 A + s11 D directly from amplitude quads of one or
two solutions on [-a, a], with parity imposed by construction; a single
quad determines S only when its incoming amplitudes are not
parity-degenerate (|A| != |D|), which is exactly the condition under which
the closed single-solution formula is usable.
"""

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import PreconditionViolated, SingularSystem, _check_finite, wavenumber_from_energy
from .potential import EvaluatedPotential, SquareWell, validate
from .propagate import BoundaryData, _endpoint_maps

#: Relative threshold below which amplitude quads cannot be inverted.
SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class AmplitudeQuad:
    """Plane-wave amplitudes (A, B, C, D) of one solution.

    in_left/in_right are the incoming amplitudes A and D; out_left/out_right
    are the outgoing B and C.  For a real potential the flux balance
    |A|^2 + |D|^2 = |B|^2 + |C|^2 holds.
    """

    in_left: complex
    out_left: complex
    out_right: complex
    in_right: complex


@dataclass(frozen=True)
class SMatrix:
    """Scattering matrix entries at wavenumber k of a potential supported on [-a, a]."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex
    k: float
    a: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s21, self.s22]])

    def unitarity_residual(self) -> float:
        s = self.as_matrix()
        return float(np.max(np.abs(s.conj().T @ s - np.eye(2))))


def amplitudes_from_boundary(bd: BoundaryData, k: float, a: float) -> AmplitudeQuad:
    """Read plane-wave amplitudes off boundary values of a solution."""
    _check_finite(k=k, a=a)
    if not k > 0.0:
        raise PreconditionViolated(f"wavenumber must be positive, got {k}")
    if not a > 0.0:
        raise PreconditionViolated(f"half-width must be positive, got {a}")
    ik = 1j * k
    phase = np.exp(1j * k * a)
    A = 0.5 * phase * (bd.psi_left + bd.dpsi_left / ik)
    B = 0.5 / phase * (bd.psi_left - bd.dpsi_left / ik)
    C = 0.5 / phase * (bd.psi_right + bd.dpsi_right / ik)
    D = 0.5 * phase * (bd.psi_right - bd.dpsi_right / ik)
    return AmplitudeQuad(in_left=A, out_left=B, out_right=C, in_right=D)


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
    return SMatrix(s11=s11, s12=s12, s21=s12, s22=s11, k=k, a=a)


def smatrix_via_transfer(
    pot: EvaluatedPotential, energy: float | Sequence[float], steps: int = 4096
) -> SMatrix | list[SMatrix]:
    """Production route: propagate the even and odd solutions across [0, a] and read S off them.

    steps counts the steps of [-a, a]; the half interval is crossed in
    ceil(steps / 4) Magnus cells.  A sequence of energies is
    propagated in one batch and gives the list of matrices in the same
    order; each equals the one for its energy alone.
    """
    energies = [energy] if np.ndim(energy) == 0 else energy
    maps = _endpoint_maps(pot, energies, steps)  # refuses every energy that is not finite and positive
    matrices = [_from_channels(m, math.sqrt(e), pot.a) for m, e in zip(maps.tolist(), energies)]
    return matrices[0] if np.ndim(energy) == 0 else matrices


def smatrix_from_amplitudes(quads, k: float, a: float) -> SMatrix:
    """Solve for S from the amplitude quads of one or two solutions.

    Each quad contributes the two relations

        out_left  = s11 in_left  + s12 in_right
        out_right = s12 in_left  + s11 in_right

    so parity symmetry holds by construction.  The best-conditioned pair of
    relations is solved exactly; with a single quad that system is singular
    precisely when |A^2 - D^2| vanishes against |A|^2 + |D|^2, in which case
    SingularSystem is raised.
    """
    if isinstance(quads, AmplitudeQuad):
        quads = [quads]
    quads = list(quads)
    if not 1 <= len(quads) <= 2:
        raise PreconditionViolated(f"need one or two quads, got {len(quads)}")

    rows = []
    rhs = []
    for q in quads:
        rows.append((complex(q.in_left), complex(q.in_right)))
        rhs.append(complex(q.out_left))
        rows.append((complex(q.in_right), complex(q.in_left)))
        rhs.append(complex(q.out_right))

    best = None
    for i, j in combinations(range(len(rows)), 2):
        det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
        scale = abs(rows[i][0]) ** 2 + abs(rows[i][1]) ** 2
        scale = max(scale, abs(rows[j][0]) ** 2 + abs(rows[j][1]) ** 2)
        if best is None or abs(det) > abs(best[0]):
            best = (det, scale, i, j)

    det, scale, i, j = best
    if abs(det) < SINGULAR_RTOL * scale:
        raise SingularSystem(
            "amplitude quads are parity degenerate and do not determine S "
            f"(|det| = {abs(det):.3e} against scale {scale:.3e})"
        )
    s11 = (rhs[i] * rows[j][1] - rhs[j] * rows[i][1]) / det
    s12 = (rows[i][0] * rhs[j] - rows[j][0] * rhs[i]) / det
    return SMatrix(s11=s11, s12=s12, s21=s12, s22=s11, k=k, a=a)


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
    return SMatrix(
        s11=complex(diag), s12=complex(common), s21=complex(common), s22=complex(diag),
        k=k, a=a,
    )


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
    return SMatrix(s11=diag, s12=off, s21=off, s22=diag, k=k, a=0.0)


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
