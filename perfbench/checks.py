"""Correctness checks of scatter1d command output, computed apart from scatter1d.

Nothing here imports scatter1d: every reference value comes from a closed
form, an ODE solver or a dense determinant written for the benchmark, and
no stored copy of earlier output is consulted.  Each ``check_*`` function
takes the argv of one operation and the text it printed, and returns None
when the output passes or a one-line reason when it does not; a comparison
with NaN fails.  Output that cannot be parsed raises.  Tolerances
and where they come from are listed in README.md.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

FREE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: energy_sweep: square-well rows against the closed form.
WELL_TOL = 1e-6
#: energy_sweep: sampled rows against DOP853 on the same interpolant.
SAMPLED_TOL = 1e-6
#: counterexample: the rebuilt perturbed potential against the free matrix at E.
SAME_S_TOL = 1e-6
#: counterexample: the same potential must move away from the free matrix at E + 0.5.
APART_MIN = 1e-4
APART_SHIFT = 0.5
SEPARATION_MIN = 5e-3
BOUNDARY_TOL = 1e-12
BASELINE_V_TOL = 1e-6
#: fredholm_sweep: full-interval Nystrom log det, and its order.
FREDHOLM_TOL = 1e-6
FREDHOLM_ORDER = 400
#: toeplitz_table: dense mpmath LU determinant, its digits and largest n.
TOEPLITZ_TOL = 1e-11
TOEPLITZ_DIGITS = 100
TOEPLITZ_LU_MAX_N = 48
#: Tolerance on columns that restate a closed form (grids, asymptotics).
CLOSED_FORM_TOL = 1e-9

ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _floats(text: str, sep: str = ",") -> list[float]:
    return [float(part) for part in text.split(sep)]


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def smatrix_from_endpoint_map(m: np.ndarray, k: float, a: float) -> np.ndarray:
    """Full 2x2 S from the map (psi, psi')(-a) -> (psi, psi')(+a).

    psi = A e^{ikx} + B e^{-ikx} left of the support and C e^{ikx} + D e^{-ikx}
    right of it; S maps the incoming (A, D) to the outgoing (B, C).
    """
    e = np.exp(1j * k * a)
    left = np.array([[1 / e, e], [1j * k / e, -1j * k * e]])
    right = np.array([[e, 1 / e], [1j * k * e, -1j * k / e]])
    t = np.linalg.solve(right, m @ left)
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    return np.array([[-t[1, 0], 1.0], [det, t[0, 1]]]) / t[1, 1]


def well_endpoint_map(v0: float, a: float, energy: float) -> np.ndarray:
    """Endpoint map of psi'' = -(E + v0) psi across [-a, a], in closed form."""
    l = math.sqrt(energy + v0)
    c, s = math.cos(2 * l * a), math.sin(2 * l * a)
    return np.array([[c, s / l], [-l * s, c]])


def ode_endpoint_maps(potential, energies, breakpoints) -> np.ndarray:
    """Endpoint maps at each energy by DOP853, restarted at every breakpoint.

    Between breakpoints potential(x) must be smooth, so that the solver's
    error control holds.
    """
    from scipy.integrate import solve_ivp

    energies = np.asarray(energies, dtype=float)
    count = energies.size
    y = np.zeros((4, count))
    y[0] = 1.0
    y[3] = 1.0

    def rhs(x, flat):
        u = flat.reshape(4, count)
        g = potential(x) - energies
        return np.concatenate([u[1], g * u[0], u[3], g * u[2]])

    flat = y.ravel()
    for x0, x1 in zip(breakpoints[:-1], breakpoints[1:]):
        sol = solve_ivp(rhs, (x0, x1), flat, method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference ODE failed on [{x0}, {x1}]: {sol.message}")
        flat = sol.y[:, -1]
    u = flat.reshape(4, count)
    return np.stack([np.array([[u[0, i], u[2, i]], [u[1, i], u[3, i]]]) for i in range(count)])


def read_sampled_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip() != "x,V":
            raise ValueError(f"{path} has no x,V header")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1]


def _smatrix_rows(argv: list[str], text: str):
    """Energies and full S matrices of an ``smatrix --energy-grid`` JSON report."""
    rows = json.loads(text)["results"]
    start, stop, count = _floats(_flag(argv, "--energy-grid"))
    grid = np.linspace(start, stop, int(count))
    energies = np.array([row["energy"] for row in rows])
    if energies.shape != grid.shape or not np.max(np.abs(energies - grid)) <= CLOSED_FORM_TOL:
        return None, None, f"energies {energies.tolist()[:3]}... are not the requested grid"
    mats = np.array([
        [[_complex(r["s11"]), _complex(r["s12"])], [_complex(r["s21"]), _complex(r["s22"])]]
        for r in rows
    ])
    return energies, mats, None


def check_energy_sweep(argv: list[str], text: str, ode_energies=()) -> str | None:
    """Well rows against the closed form; the rows at ``ode_energies`` (indices
    into the grid) of a sampled potential against DOP853 on its interpolant."""
    energies, mats, error = _smatrix_rows(argv, text)
    if error:
        return error
    if "--well" in argv:
        v0, a = _floats(_flag(argv, "--well"))
        ref = np.array([
            smatrix_from_endpoint_map(well_endpoint_map(v0, a, e), math.sqrt(e), a)
            for e in energies
        ])
        gap = float(np.max(np.abs(mats - ref)))
        return None if gap <= WELL_TOL else f"well S off the closed form by {gap:.3e}"
    if not len(ode_energies):
        return None
    x, v = read_sampled_csv(_flag(argv, "--sampled"))
    a = float(x[-1])
    picked = energies[list(ode_energies)]
    maps = ode_endpoint_maps(lambda s: np.interp(s, x, v), picked, x)
    ref = np.array([smatrix_from_endpoint_map(m, math.sqrt(e), a) for m, e in zip(maps, picked)])
    gap = float(np.max(np.abs(mats[list(ode_energies)] - ref)))
    return None if gap <= SAMPLED_TOL else f"sampled S off DOP853 by {gap:.3e}"


def counterexample_potential(q: float, eps: float, a: float, c: float):
    """V = E + psi''/psi for psi = cos(qx) + eps (x^2-a^2)^2 + c x^2 (x^2-a^2)^2."""

    def potential(x):
        w = x * x - a * a
        psi = np.cos(q * x) + eps * w * w + c * x * x * w * w
        d2 = (
            -q * q * np.cos(q * x)
            + 4 * eps * (3 * x * x - a * a)
            + c * (30 * x**4 - 24 * a * a * x * x + 2 * a**4)
        )
        return q * q + d2 / psi

    return potential


def check_counterexample(argv: list[str], text: str) -> str | None:
    report = json.loads(text)
    q, eps, a = (float(_flag(argv, flag)) for flag in ("--q", "--eps", "--a"))
    energy = q * q
    if not abs(report["energy"] - energy) <= CLOSED_FORM_TOL * energy:
        return f"energy {report['energy']} is not q^2 = {energy}"
    if not report["separation"] > SEPARATION_MIN:
        return f"separation {report['separation']:.3e} is not above {SEPARATION_MIN}"
    if not abs(report["boundary_residual"]) <= BOUNDARY_TOL:
        return f"boundary residual {report['boundary_residual']:.3e} is above {BOUNDARY_TOL}"
    if not abs(report["baseline_max_abs_v"]) <= BASELINE_V_TOL:
        return f"baseline potential reaches {report['baseline_max_abs_v']:.3e}, not 0"
    potential = counterexample_potential(q, eps, a, float(report["odd_coefficient"]))
    at = (energy, energy + APART_SHIFT)
    maps = ode_endpoint_maps(potential, at, [-a, a])
    gaps = [
        float(np.max(np.abs(smatrix_from_endpoint_map(m, math.sqrt(e), a) - FREE)))
        for m, e in zip(maps, at)
    ]
    if not gaps[0] <= SAME_S_TOL:
        return f"rebuilt perturbed potential misses the free S at E by {gaps[0]:.3e}"
    if not gaps[1] > APART_MIN:
        return f"rebuilt perturbed potential is within {gaps[1]:.3e} of the free S at E + {APART_SHIFT}"
    return None


def full_interval_log_det(t: float, order: int = FREDHOLM_ORDER) -> float:
    """log det(1 - K) of sin(x-y)/(pi(x-y)) on [-pi t, pi t] by Gauss-Legendre Nystrom."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = math.pi * t * nodes
    root_w = np.sqrt(math.pi * t * weights)
    kernel = np.sinc((x[:, None] - x[None, :]) / math.pi) / math.pi
    eigs = np.linalg.eigvalsh(root_w[:, None] * kernel * root_w[None, :])
    return float(np.sum(np.log1p(-eigs[eigs > 1e-16])))


def sine_kernel_asymptotic(sign: int, t: float) -> float:
    """Large-interval closed form of log det(1 - K_pm), upper sign even."""
    tau = math.pi * t
    return (
        -tau * tau / 4 - sign * tau / 2 - math.log(tau) / 8
        + (1 / 24 + sign / 4) * math.log(2) + 1.5 * zeta_prime_minus_one()
    )


@functools.cache
def zeta_prime_minus_one() -> float:
    import mpmath as mp

    return float(mp.zeta(-1, derivative=1))


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_fredholm(argv: list[str], text: str) -> str | None:
    rows = _csv_rows(text)
    start, stop, step = _floats(_flag(argv, "--t"), ":")
    grid = start + step * np.arange(int(round((stop - start) / step)) + 1)
    t = np.array([float(row["t"]) for row in rows])
    if t.shape != grid.shape or not np.max(np.abs(t - grid)) <= CLOSED_FORM_TOL:
        return f"t column {t.tolist()} is not the requested grid"
    for row in rows:
        ti = float(row["t"])
        plus, minus = float(row["logf_plus"]), float(row["logf_minus"])
        gap = abs(plus + minus - full_interval_log_det(ti))
        if not gap <= FREDHOLM_TOL:
            return f"logf_plus + logf_minus off the full-interval Nystrom log det by {gap:.3e} at t = {ti}"
        for sign, logf, column in ((1, plus, "asym_residual_plus"), (-1, minus, "asym_residual_minus")):
            gap = abs(logf - sine_kernel_asymptotic(sign, ti) - float(row[column]))
            if not gap <= CLOSED_FORM_TOL:
                return f"{column} off logf minus the closed form by {gap:.3e} at t = {ti}"
    return None


def toeplitz_lu_log_det(alpha: float, n: int, digits: int = TOEPLITZ_DIGITS) -> float:
    """log det of the arc-symbol Toeplitz section by dense mpmath LU."""
    import mpmath as mp

    with mp.workdps(digits):
        a = mp.mpf(alpha)
        col = [1 - a / mp.pi] + [-mp.sin(m * a) / (mp.pi * m) for m in range(1, n)]
        matrix = mp.matrix([[col[abs(i - j)] for j in range(n)] for i in range(n)])
        return float(mp.log(mp.det(matrix)))


def toeplitz_asymptotic(alpha: float, n: int) -> float:
    return (
        n * n * math.log(math.cos(alpha / 2)) - math.log(n * math.sin(alpha / 2)) / 4
        + math.log(2) / 12 + 3 * zeta_prime_minus_one()
    )


def check_toeplitz(argv: list[str], text: str, lu_n: int | None = None) -> str | None:
    """Columns against the closed forms, the section of size ``lu_n`` against
    a dense LU determinant, and n^2 residual settling as n doubles."""
    rows = _csv_rows(text)
    alpha = float(_flag(argv, "--alpha"))
    sizes = [int(part) for part in _flag(argv, "--n").split(",")]
    if [int(row["n"]) for row in rows] != sizes:
        return f"rows are for n = {[row['n'] for row in rows]}, not {sizes}"
    scaled = []
    for row in rows:
        n, log_det = int(row["n"]), float(row["log_det"])
        gap = abs(float(row["asymptotic"]) - toeplitz_asymptotic(alpha, n))
        if not gap <= CLOSED_FORM_TOL * max(1.0, n * n):
            return f"asymptotic column off the closed form by {gap:.3e} at n = {n}"
        residual = float(row["residual"])
        if not abs(residual - (log_det - float(row["asymptotic"]))) <= CLOSED_FORM_TOL:
            return f"residual is not log_det - asymptotic at n = {n}"
        if n == lu_n:
            gap = abs(log_det - toeplitz_lu_log_det(alpha, n))
            if not gap <= TOEPLITZ_TOL:
                return f"log_det off the dense LU determinant by {gap:.3e} at n = {n}"
        scaled.append(n * n * residual)
    steps = np.abs(np.diff(scaled))
    if steps.size >= 2 and not steps[-1] < 0.5 * steps[-2]:
        return f"n^2 residual does not settle: last changes {steps[-2]:.3e}, {steps[-1]:.3e}"
    return None
