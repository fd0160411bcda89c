"""Sine-kernel spectra on a finite interval and the objects built from them.

The integral kernel sin(x - y) / (pi (x - y)) restricted to [-pi t, pi t]
splits into even and odd channels on [0, pi t]:

    K_pm(x, y) = (1/pi) * (sinc(x - y) +- sinc(x + y)),   sinc(u) = sin(u)/u.

Everything here derives from the eigenvalues of those two kernels:

* ``fredholm_log_det`` gives log det(1 - K_pm) = sum log(1 - lambda_n),
* ``asymptotic_log_det`` gives the large-interval closed form,
* ``gelfand_levitan_potential`` reconstructs the comparison potentials
  W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on tau = pi t,
* ``phase_shift`` / ``jost_forms`` give the exact scattering data of the
  limiting -1/(4 tau^2)-type potentials,
* ``marchenko_residual`` measures how far the determinant is from its
  large-tau factorized replacement (it must tend to zero).

Convention: the upper sign is the even channel throughout, i.e. F_plus and
W_plus pair with the eigenvalues lambda_0, lambda_2, ... of K_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    ZETA_PRIME_MINUS_ONE,
    EigenvalueAtOne,
    NonPositiveK,
    NonUniformGrid,
    PreconditionViolated,
    QuadOrderTooSmall,
    ScatterError,
    TauTooSmall,
    TTooLarge,
)

PARITY_EVEN = "even"
PARITY_ODD = "odd"

# Beyond t = 6 the top eigenvalues sit within double-precision distance of 1
# and log(1 - lambda) has no digits left.
T_MAX = 6.0
MIN_QUAD_ORDER = 64
#: Kernel assembly and the eigensolver hold about 64 bytes times the order
#: squared at once (peak RSS of a fredholm run: 31 MB at order 64, 97 MB at
#: 1024, 292 MB at 2048), and their time grows with the cube of the order.
MAX_QUAD_ORDER = 1024

#: Default Gauss-Legendre order.  Against an mpmath Nystrom reference,
#: measured up to t = 2.9 (and at t = 4.5 in ROADMAP), the quadrature has
#: converged here and the remaining error is rounding from forming I - K,
#: which grows with the order: the even-channel error at t = 2.9 is 2.8e-9
#: at this order and about eight times that at five times the order.  The
#: top eigenvalue reaches EIG_ONE_TOL of 1 from t = 5.3 on at this order.
QUAD_ORDER = 64

EIG_CLIP_TOL = 1e-10
EIG_TRUNCATE = 1e-16
EIG_ONE_TOL = 1e-13

MAX_GRID_SPACING = 0.05
MIN_GRID_POINTS = 5
#: Smallest k that phase_shift accepts.  The tolerance of its identity
#: check grows as 1e-12 / k near the pole of tan, and a flipped branch
#: leaves a residual of 2; at this k the tolerance is 1.
PHASE_K_MIN = 1e-12

_SINC_TAYLOR_CUTOFF = 1e-6

# Additive constant in the factorized large-tau form of log F_pm.
_ALPHA0 = math.log(2.0) / 24.0 + 1.5 * ZETA_PRIME_MINUS_ONE


def _check_positive(name: str, value: float, error=PreconditionViolated) -> None:
    """Refuse a non-finite value with PreconditionViolated and a non-positive one with error."""
    if not math.isfinite(value):
        raise PreconditionViolated(f"{name} must be finite, got {value}")
    if not value > 0.0:
        raise error(f"{name} must be positive, got {value}")


def _parity_sign(parity: str) -> int:
    if parity == PARITY_EVEN:
        return 1
    if parity == PARITY_ODD:
        return -1
    raise PreconditionViolated(f"parity must be 'even' or 'odd', got {parity!r}")


@dataclass(frozen=True)
class KernelSpec:
    """One parity channel of the sine kernel on [0, pi t]."""

    parity: str
    t: float
    quad_order: int

    def __post_init__(self) -> None:
        _parity_sign(self.parity)
        _check_positive("t", self.t)
        if self.t > T_MAX:
            raise TTooLarge(
                f"t = {self.t} exceeds {T_MAX}; eigenvalues too close to 1 "
                "for double precision"
            )
        if self.quad_order < MIN_QUAD_ORDER:
            raise QuadOrderTooSmall(
                f"quad_order must be >= {MIN_QUAD_ORDER}, got {self.quad_order}"
            )
        if self.quad_order > MAX_QUAD_ORDER:
            raise PreconditionViolated(
                f"quad_order must be <= {MAX_QUAD_ORDER}, got {self.quad_order}"
            )


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(u)/u with the removable singularity filled by its Taylor series."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, u)
    direct = np.sin(safe) / safe
    u2 = u * u
    taylor = 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return np.where(small, taylor, direct)


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], kept per order.

    numpy's leggauss solves an order x order eigenproblem of its own, which
    costs as much as the kernel's; the nodes depend on the order only.
    """
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def sine_kernel_eigs(spec: KernelSpec) -> np.ndarray:
    """Eigenvalues of one parity kernel, descending, clipped to [0, 1].

    Nystrom discretization: Gauss-Legendre nodes x_i, weights w_i on
    [0, pi t], symmetric matrix sqrt(w_i) K(x_i, x_j) sqrt(w_j).  Raw
    eigenvalues may stray outside [0, 1] by quadrature rounding only; any
    excursion beyond EIG_CLIP_TOL is an error, smaller ones are clipped.
    """
    length = math.pi * spec.t
    nodes, weights = _gauss_legendre(spec.quad_order)
    x = 0.5 * length * (nodes + 1.0)
    w = 0.5 * length * weights

    diff = x[:, None] - x[None, :]
    summ = x[:, None] + x[None, :]
    sign = _parity_sign(spec.parity)
    kernel = (_sinc(diff) + sign * _sinc(summ)) / math.pi

    root_w = np.sqrt(w)
    sym = root_w[:, None] * kernel * root_w[None, :]
    sym = 0.5 * (sym + sym.T)

    eigs = np.linalg.eigvalsh(sym)[::-1]
    low, high = eigs[-1], eigs[0]
    if low < -EIG_CLIP_TOL or high > 1.0 + EIG_CLIP_TOL:
        raise ScatterError(
            f"eigenvalues escape [0, 1] beyond tolerance: min {low:.3e}, "
            f"max {high:.3e} (parity {spec.parity}, t {spec.t}, "
            f"quad_order {spec.quad_order})"
        )
    return np.clip(eigs, 0.0, 1.0)


@dataclass
class SineKernelSpectrum:
    """Both parity spectra at one t, plus their interleaved merge.

    merged[2j] is even_eigs[j] and merged[2j+1] is odd_eigs[j]; the merged
    sequence is descending up to quadrature error.
    """

    t: float
    even_eigs: np.ndarray
    odd_eigs: np.ndarray
    merged: np.ndarray


def sine_kernel_spectrum(t: float, quad_order: int) -> SineKernelSpectrum:
    even = sine_kernel_eigs(KernelSpec(PARITY_EVEN, t, quad_order))
    odd = sine_kernel_eigs(KernelSpec(PARITY_ODD, t, quad_order))
    merged = np.empty(even.size + odd.size)
    merged[0::2] = even
    merged[1::2] = odd
    return SineKernelSpectrum(t=t, even_eigs=even, odd_eigs=odd, merged=merged)


def fredholm_log_det(parity: str, t: float, quad_order: int) -> float:
    """log of the Fredholm determinant det(1 - K) for one parity channel.

    Terms with lambda < 1e-16 contribute nothing at double precision and
    are dropped.  log1p keeps full accuracy across the whole range of
    retained eigenvalues.
    """
    eigs = sine_kernel_eigs(KernelSpec(parity, t, quad_order))
    if eigs.size and eigs[0] >= 1.0 - EIG_ONE_TOL:
        raise EigenvalueAtOne(
            f"top eigenvalue {float(eigs[0])!r} is within {EIG_ONE_TOL} of 1 at "
            f"t = {t}; the determinant underflows double precision"
        )
    kept = eigs[eigs >= EIG_TRUNCATE]
    return float(np.sum(np.log1p(-kept)))


def asymptotic_log_det(parity: str, t: float) -> float:
    """Large-interval closed form for log det(1 - K_pm) at tau = pi t."""
    _check_positive("t", t)
    sign = _parity_sign(parity)
    tau = math.pi * t
    return (
        -tau * tau / 4.0
        - sign * tau / 2.0
        - math.log(tau) / 8.0
        + (1.0 / 24.0 + sign / 4.0) * math.log(2.0)
        + 1.5 * ZETA_PRIME_MINUS_ONE
    )


def _validated_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < MIN_GRID_POINTS:
        raise PreconditionViolated(
            f"t grid needs at least {MIN_GRID_POINTS} points in one dimension"
        )
    steps = np.diff(grid)
    if not np.all(steps > 0.0):
        raise PreconditionViolated("t grid must be strictly increasing")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * max(1.0, h):
        raise NonUniformGrid("t grid spacing varies beyond 1e-9")
    if h > MAX_GRID_SPACING * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"t grid spacing {h} exceeds {MAX_GRID_SPACING}"
        )
    if not (grid[0] > 0.0):
        raise PreconditionViolated("t grid must start above 0")
    if grid[-1] > T_MAX:
        raise TTooLarge(f"t grid reaches {grid[-1]}, beyond {T_MAX}")
    return grid


def _second_difference(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central second difference on a uniform grid; endpoints dropped."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (spacing * spacing)


def gelfand_levitan_potential(
    parity: str, t_grid: np.ndarray, quad_order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on tau = pi t.

    Returns (tau, w) on the interior of the grid; both endpoints are lost
    to the central difference stencil.  Expected behavior: w approaches
    -1/(4 tau^2) for large tau.
    """
    grid = _validated_grid(t_grid)
    logf = np.array([fredholm_log_det(parity, t, quad_order) for t in grid])
    h_tau = math.pi * float(grid[1] - grid[0])
    w = -2.0 * _second_difference(logf, h_tau) - 1.0
    tau = math.pi * grid[1:-1]
    return tau, w


@dataclass(frozen=True)
class PhaseShift:
    """Exact phase shifts of the limiting reconstructed potentials.

    eta_even = -arctan(1/k)/2 and eta_odd = +arctan(1/k)/2, so the two
    channels cancel: eta_even + eta_odd = 0.
    """

    k: float
    eta_even: float
    eta_odd: float


def phase_shift(k: float) -> PhaseShift:
    _check_positive("k", k, NonPositiveK)
    if k < PHASE_K_MIN:
        raise PreconditionViolated(
            f"k = {k} is below {PHASE_K_MIN:g}, where the phase identity "
            "cannot tell the two branches apart"
        )
    eta = 0.5 * math.atan(1.0 / k)
    shift = PhaseShift(k=k, eta_even=-eta, eta_odd=eta)
    # k tan(2 eta) = -+1 must hold to rounding; anything larger means a
    # broken branch choice.  For small k, 2 eta sits next to a pole of tan,
    # which turns the rounding of eta into a residual of about eps / k.
    if not abs(k * math.tan(2.0 * shift.eta_even) + 1.0) <= 1e-12 * max(1.0, 1.0 / k):
        raise ScatterError(f"phase identity violated at k = {k}")
    return shift


@dataclass(frozen=True)
class JostClosedForms:
    """Closed-form Jost data for the limiting potentials at wavenumber k.

    a_odd = (k/(k+i))^(1/2) and exp(i eta_even) = ((k-i)/(k+i))^(1/4),
    both on the principal branch; for k > 0 the argument of the quarter
    root reproduces eta_even.
    """

    k: float
    a_odd: complex
    exp_ieta_even: complex


def jost_forms(k: float) -> JostClosedForms:
    _check_positive("k", k, NonPositiveK)
    a_odd = complex(k / (k + 1j)) ** 0.5
    exp_ieta_even = complex((k - 1j) / (k + 1j)) ** 0.25
    forms = JostClosedForms(k=k, a_odd=a_odd, exp_ieta_even=exp_ieta_even)
    expected_mod = (k * k / (k * k + 1.0)) ** 0.25
    if abs(abs(forms.a_odd) - expected_mod) > 1e-12:
        raise ScatterError(f"|a_odd| off the closed form at k = {k}")
    eta_even = -0.5 * math.atan(1.0 / k)
    if abs(np.angle(forms.exp_ieta_even) - eta_even) > 1e-12:
        raise ScatterError(f"branch of exp(i eta_even) broken at k = {k}")
    return forms


def _marchenko_from_logf(parity: str, tau: float, logf: float) -> float:
    sign = _parity_sign(parity)
    return (
        logf
        + tau * tau / 4.0
        + sign * tau / 2.0
        + math.log(abs(tau + sign * 0.5)) / 8.0
        - sign * math.log(2.0) / 4.0
        - _ALPHA0
    )


def marchenko_residual(parity: str, t: float, quad_order: int) -> float:
    """log of the ratio between det(1 - K_pm) and its large-tau replacement.

    Tends to 0 as tau grows.  The odd-channel replacement involves
    log(tau - 1/2) and only makes sense for tau > 1/2.
    """
    tau = math.pi * t
    if parity == PARITY_ODD and tau <= 0.5:
        raise TauTooSmall(
            f"odd-channel residual needs tau > 1/2, got tau = {tau}"
        )
    _parity_sign(parity)
    logf = fredholm_log_det(parity, t, quad_order)
    return _marchenko_from_logf(parity, tau, logf)


@dataclass
class FredholmReport:
    """Grid sweep of both channels: determinants, asymptotics, potentials.

    w_plus / w_minus are NaN at both endpoints (lost to the stencil);
    marchenko_minus is NaN where tau <= 1/2.
    """

    t_grid: np.ndarray
    logf_plus: np.ndarray
    logf_minus: np.ndarray
    asym_residual_plus: np.ndarray
    asym_residual_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    marchenko_plus: np.ndarray
    marchenko_minus: np.ndarray


def fredholm_report(t_grid: np.ndarray, quad_order: int) -> FredholmReport:
    grid = _validated_grid(t_grid)
    h_tau = math.pi * float(grid[1] - grid[0])
    tau = math.pi * grid

    columns: dict[str, np.ndarray] = {}
    for parity, tag in ((PARITY_EVEN, "plus"), (PARITY_ODD, "minus")):
        logf = np.array([fredholm_log_det(parity, t, quad_order) for t in grid])
        asym = np.array([asymptotic_log_det(parity, t) for t in grid])
        w = np.full(grid.size, np.nan)
        w[1:-1] = -2.0 * _second_difference(logf, h_tau) - 1.0
        marchenko = np.full(grid.size, np.nan)
        for i in range(grid.size):
            if parity == PARITY_ODD and tau[i] <= 0.5:
                continue
            marchenko[i] = _marchenko_from_logf(parity, float(tau[i]), float(logf[i]))
        columns[f"logf_{tag}"] = logf
        columns[f"asym_residual_{tag}"] = logf - asym
        columns[f"w_{tag}"] = w
        columns[f"marchenko_{tag}"] = marchenko

    return FredholmReport(t_grid=grid, **columns)
