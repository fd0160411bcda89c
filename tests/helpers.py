"""Shared oracles and fixtures for the test suite.

The sine-kernel oracle here discretizes the kernel on the full interval
[-pi t, pi t] instead of the parity-split half-interval forms used by the
library, so the two spectra are computed along genuinely different routes
before being compared.  The S-matrix oracle does the same for the
library's channel route on [0, a]: it carries two solutions across
[-a, a] one cell at a time and solves for S from their amplitudes.
"""

import math
import subprocess
import sys
from itertools import accumulate, combinations
from operator import mul

import numpy as np

import scatter1d.propagate as propagate
from scatter1d.potential import Sampled, validate
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


def nystrom_log_dets_mp(t: float, order: int, digits: int) -> tuple:
    """(even, odd) log det(1 - K_pm) at t from an mpmath Nystrom rule.

    The library's half-interval rule carried out in mpmath: Gauss-Legendre
    nodes of the given order found by Newton's method on P_order, the kernels
    (sinc(x - y) +- sinc(x + y)) / pi on [0, pi t] with sqrt-weight scaling,
    and an LU determinant, all at the given digits.  No double rounding
    enters, so two orders differ only by their quadrature error.
    """
    import mpmath as mp

    with mp.workdps(digits + 10):
        nodes, weights = [], []
        for i in range(1, order + 1):
            x = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (order + mp.mpf(0.5)))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < mp.mpf(10) ** -(digits + 8):
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        half = mp.pi * t / 2
        x = [half * (node + 1) for node in nodes]
        root_w = [mp.sqrt(half * weight) for weight in weights]

        def sinc(u):
            return mp.sin(u) / u if u else mp.mpf(1)

        log_dets = []
        for sign in (1, -1):
            matrix = mp.matrix(order)
            for i in range(order):
                for j in range(order):
                    kernel = (sinc(x[i] - x[j]) + sign * sinc(x[i] + x[j])) / mp.pi
                    matrix[i, j] = (i == j) - root_w[i] * kernel * root_w[j]
            log_dets.append(mp.log(mp.det(matrix)))
        return tuple(log_dets)


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


def levinson_durbin_logdets(alpha: float, sizes, digits: int) -> dict:
    """log det T_m as an mpf for every m in sizes, by Levinson-Durbin.

    The classical recursion (Levinson 1947; Durbin 1960) on Python ints
    scaled by 2**bits, from a column of mpmath sines at that precision: an
    oracle for the library's split recursion and its rotated column.  Step
    k finds the reflection coefficient kappa of the order-k predictor; the
    prediction error err_k = err_{k-1} (1 - kappa^2) is the k-th pivot, so
    det T_m is the product of the first m pivots.
    """
    import mpmath as mp

    n = max(sizes)
    bits = math.ceil(digits * math.log2(10.0))
    with mp.workprec(bits + 16):
        a = mp.mpf(alpha)
        coefficients = [1 - a / mp.pi] + [-mp.sin(m * a) / (mp.pi * m) for m in range(1, n)]
        col = [int(mp.nint(mp.ldexp(c, bits))) for c in coefficients]
    err, pred, pivots = col[0], [], [col[0]]
    for k in range(1, n):
        kappa = -((col[k] << bits) + sum(map(mul, pred, col[k - 1:0:-1]))) // err
        pred = [p + (kappa * q >> bits) for p, q in zip(pred, reversed(pred))]
        pred.append(kappa)
        err -= err * kappa * kappa >> 2 * bits
        assert err > 0, f"Levinson-Durbin lost positivity at step {k}"
        pivots.append(err)
    with mp.workdps(digits):
        dets = list(accumulate(map(mp.mpf, pivots), mul))
        return {m: mp.log(dets[m - 1]) - m * bits * mp.ln2 for m in set(sizes)}


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
    return SMatrix(s11=complex(diag), s12=complex(off), k=k, a=a)


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


def smooth_order_errors(endpoint_maps, steps) -> list[float]:
    """Errors of the maps (psi, psi')(0) -> (psi, psi')(a) at each step count, on a smooth V.

    endpoint_maps(pots, energies, steps) is the kernel under test, with
    the library's signature.  The error is the largest entry error of its
    map for V = -20 (1 - x^2)^3 on [-1, 1] at E = 1, against a 131072-step
    solve.  V is tabulated on that solve's nodes, so every step count that
    divides 131072 reads exact values of the smooth V; a coarser table
    would make the reference solve a piecewise-linear V instead.
    """
    reference = 2**17
    x = np.linspace(-1.0, 1.0, reference + 1)
    pot = validate(Sampled(a=1.0, x=x, v=-20.0 * (1.0 - x * x) ** 3))
    exact = endpoint_maps([pot], [1.0], reference)[0, 0]
    return [float(np.max(np.abs(endpoint_maps([pot], [1.0], n)[0, 0] - exact))) for n in steps]


def cell_states(pot, energy: float, start: float, cells: int) -> np.ndarray:
    """(psi, psi') of the solutions from (1, 0) and (0, 1) at x = start, on the cell nodes of [start, a].

    Shape (cells + 1, 2, 2): node, then (psi, psi'), then solution.  The
    states are stepped from node to node in a plain loop over the library's
    cell matrices, so their rounding grows with the number of cells, and
    no pairwise product of the library is used.
    """
    m = propagate._cell_matrices(propagate._cells([pot], start, cells), np.array([float(energy)]))
    states = [np.eye(2)]
    for cell in m[:, 0].T.reshape(-1, 2, 2):
        states.append(cell @ states[-1])
    return np.array(states)


class SingularQuads(Exception):
    """Amplitude quads that do not determine S."""


def amplitudes(left, right, k: float, a: float) -> tuple:
    """Plane-wave amplitudes (A, B, C, D) of a solution with (psi, psi') = left at -a and right at a."""
    ik, phase = 1j * k, np.exp(1j * k * a)
    return (
        0.5 * phase * (left[0] + left[1] / ik),
        0.5 / phase * (left[0] - left[1] / ik),
        0.5 / phase * (right[0] + right[1] / ik),
        0.5 * phase * (right[0] - right[1] / ik),
    )


def smatrix_from_quads(quads, k: float, a: float) -> SMatrix:
    """S from the amplitude quads (A, B, C, D) of one or two solutions.

    Each quad gives the relations B = s11 A + s12 D and C = s12 A + s11 D,
    so parity holds by construction.  The pair of relations with the
    largest determinant is solved exactly.  SingularQuads is raised when
    that determinant falls below 1e-12 of the larger squared row norm;
    with a single quad, exactly when |A^2 - D^2| vanishes against
    |A|^2 + |D|^2.
    """
    rows = [row for A, B, C, D in quads for row in ((A, D, B), (D, A, C))]
    (a1, d1, b1), (a2, d2, b2) = max(combinations(rows, 2), key=lambda r: abs(r[0][0] * r[1][1] - r[0][1] * r[1][0]))
    det = a1 * d2 - d1 * a2
    if abs(det) < 1e-12 * max(abs(a1) ** 2 + abs(d1) ** 2, abs(a2) ** 2 + abs(d2) ** 2):
        raise SingularQuads(f"amplitude quads are parity degenerate (|det| = {abs(det):.3e})")
    s11, s12 = (b1 * d2 - b2 * d1) / det, (a1 * b2 - a2 * b1) / det
    return SMatrix(s11=s11, s12=s12, k=k, a=a)


def amplitude_route(pot, energy: float, steps: int = 4096) -> SMatrix:
    """S from the amplitudes of the fundamental pair on the steps // 2 cells of [-a, a]."""
    k = math.sqrt(energy)
    states = cell_states(pot, energy, -pot.a, steps // 2)
    return smatrix_from_quads([amplitudes(states[0, :, j], states[-1, :, j], k, pot.a) for j in (0, 1)], k, pot.a)


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run the command line interface in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "scatter1d.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
