"""Shared oracles and fixtures for the test suite.

The sine-kernel oracle here discretizes the kernel on the full interval
[-pi t, pi t] instead of the parity-split half-interval forms used by the
library, so the two spectra are computed along genuinely different routes
before being compared.
"""

import subprocess
import sys

import numpy as np

from scatter1d.potential import Sampled


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


def numerov_recurrence(pot, energy: float, psi0: float, dpsi0: float, steps: int) -> np.ndarray:
    """psi on steps + 1 nodes over [-a, a] by the three-term Numerov recurrence.

    With g = V - E and f = 1 - h^2 g / 12, each loop iteration solves

        f[i+1] psi[i+1] = (2 + 5 h^2 g[i] / 6) psi[i] - f[i-1] psi[i-1],

    starting from the library's fifth-order Taylor value of psi[1].  Its
    rounding grows with the step count, so it is a reference only to well
    above double precision.
    """
    h = 2.0 * pot.a / steps
    g = [float(v) - energy for v in pot(np.linspace(-pot.a, pot.a, steps + 1))]
    f = [1.0 - h * h * gi / 12.0 for gi in g]
    gp = (-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)
    gpp = (2 * g[0] - 5 * g[1] + 4 * g[2] - g[3]) / (h * h)
    psi = [
        psi0,
        psi0
        + h * dpsi0
        + 0.5 * h * h * g[0] * psi0
        + (h**3 / 6.0) * (gp * psi0 + g[0] * dpsi0)
        + (h**4 / 24.0) * ((gpp + g[0] * g[0]) * psi0 + 2 * gp * dpsi0),
    ]
    for i in range(1, steps):
        psi.append(((2.0 + 5.0 * h * h * g[i] / 6.0) * psi[i] - f[i - 1] * psi[i - 1]) / f[i + 1])
    return np.array(psi)


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run the command line interface in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "scatter1d.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
