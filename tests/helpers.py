"""Shared oracles and fixtures for the test suite.

The sine-kernel oracle here discretizes the kernel on the full interval
[-pi t, pi t] instead of the parity-split half-interval forms used by the
library, so the two spectra are computed along genuinely different routes
before being compared.
"""

import subprocess
import sys

import numpy as np

from scatter1d.potential import Sampled, validate
from scatter1d.propagate import integrate
from scatter1d.smatrix import SMatrix


def full_interval_sine_eigs(t: float, order: int) -> np.ndarray:
    """Nystrom eigenvalues of sin(x - y) / (pi (x - y)) on [-pi t, pi t].

    Gauss-Legendre nodes are mapped onto the symmetric interval and the
    kernel matrix is symmetrized with sqrt-weight scaling.  Returns the
    eigenvalues sorted descending.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = np.pi * t
    x = half * nodes
    w = half * weights
    diff = x[:, None] - x[None, :]
    kern = np.sinc(diff / np.pi) / np.pi
    sw = np.sqrt(w)
    sym = sw[:, None] * kern * sw[None, :]
    eigs = np.linalg.eigvalsh(sym)[::-1]
    return eigs


def arc_coefficient_quadrature(alpha: float, m: int) -> float:
    """Fourier coefficient of the arc indicator by adaptive quadrature.

    The symbol is 1 on (alpha, 2 pi - alpha) and 0 on the complementary arc;
    c_m = (1 / 2 pi) integral f(theta) e^{-i m theta} dtheta.  The sine part
    cancels by symmetry about theta = pi, leaving a cosine-weighted integral
    handled by the oscillatory rule.
    """
    from scipy.integrate import quad

    val, _ = quad(
        lambda theta: 1.0,
        alpha,
        2.0 * np.pi - alpha,
        weight="cos",
        wvar=float(m),
        limit=200,
    )
    return val / (2.0 * np.pi)


def arc_toeplitz_logdet_lu(alpha: float, n: int, digits: int):
    """log det of the n x n arc-symbol Toeplitz section by mpmath LU.

    Builds the full matrix from the closed-form coefficients and takes the
    determinant with no use of the Toeplitz structure, as an O(n^3) oracle
    for the library's recursion.
    """
    import mpmath as mp

    with mp.workdps(digits):
        a = mp.mpf(alpha)
        col = [1 - a / mp.pi] + [-mp.sin(m * a) / (mp.pi * m) for m in range(1, n)]
        matrix = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                matrix[i, j] = col[abs(i - j)]
        return mp.log(mp.det(matrix))


def analytic_square_barrier(height: float, a: float, energy: float) -> SMatrix:
    """Closed-form scattering matrix of the flat barrier V = height on [-a, a].

    The square-well formula of scatter1d.smatrix.analytic_square_well, with
    the interior wavenumber l = sqrt(E - V) complex above the energy:

        s_off  = e^{-2ika} / (cos 2la - i (k^2 + l^2)/(2kl) sin 2la)
        s_diag = s_off * i (l^2 - k^2)/(2kl) sin 2la.
    """
    k = np.sqrt(energy)
    l = np.sqrt(complex(energy - height))
    two_la = 2.0 * l * a
    off = np.exp(-2j * k * a) / (np.cos(two_la) - 1j * ((k * k + l * l) / (2.0 * k * l)) * np.sin(two_la))
    diag = off * 1j * ((l * l - k * k) / (2.0 * k * l)) * np.sin(two_la)
    return SMatrix(s11=complex(diag), s12=complex(off), s21=complex(off), s22=complex(diag), k=k, a=a)


def flat_barrier(height: float, a: float = 1.0) -> Sampled:
    """The barrier V = height tabulated on 257 nodes over [-a, a]."""
    return Sampled(a=a, x=np.linspace(-a, a, 257), v=np.full(257, height))


def random_smooth_sampled(rng: np.random.Generator, n: int = 257) -> Sampled:
    """Random smooth symmetric potential from mirrored Gaussian bumps."""
    a = float(rng.uniform(0.6, 1.4))
    x = np.linspace(-a, a, n)
    v = np.zeros(n)
    for _ in range(3):
        depth = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.25, 0.8) * a
        center = rng.uniform(0.0, 0.6) * a
        v += depth * (
            np.exp(-(((x - center) / width) ** 2))
            + np.exp(-(((x + center) / width) ** 2))
        )
    v = 0.5 * (v + v[::-1])
    return Sampled(a=a, x=x, v=v)


def smooth_order_errors(steps) -> list[float]:
    """Errors of psi(+a) from integrate at each step count, on a smooth V.

    V = -20 (1 - x^2)^3 on [-1, 1] at E = 1, from (psi, psi')(-1) = (1, 0),
    against a 131072-step solve.  V is tabulated on that solve's nodes, so
    every step count that divides 131072 reads exact values of the smooth
    V; a coarser table would make the reference solve a piecewise-linear V
    instead.
    """
    reference = 2**17
    x = np.linspace(-1.0, 1.0, reference + 1)
    pot = validate(Sampled(a=1.0, x=x, v=-20.0 * (1.0 - x * x) ** 3))
    exact = integrate(pot, 1.0, 1.0, 0.0, steps=reference).psi[-1]
    return [abs(integrate(pot, 1.0, 1.0, 0.0, steps=n).psi[-1] - exact) for n in steps]


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run the command line interface in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "scatter1d.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
