"""Sine-kernel spectra on a finite interval and the objects built from them.

The integral kernel sin(x - y) / (pi (x - y)) restricted to [-pi t, pi t]
splits into even and odd channels on [0, pi t]:

    K_pm(x, y) = (1/pi) * (sinc(x - y) +- sinc(x + y)),   sinc(u) = sin(u)/u.

Everything here derives from the eigenvalues of those two kernels:

* ``fredholm_log_dets`` gives log det(1 - K_pm) = sum log(1 - lambda_n)
  for both channels at once,
* ``asymptotic_log_det`` gives the large-interval closed form,
* ``fredholm_report`` sweeps both channels over a t grid and reconstructs
  the comparison potentials W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on
  tau = pi t,
* ``phase_shift`` / ``jost_forms`` give the exact scattering data of the
  limiting -1/(4 tau^2)-type potentials,
* ``marchenko_residual`` measures how far the determinant is from its
  large-tau factorized replacement (it must tend to zero).

Every eigenvalue comes from one Nystrom table per t: the QUAD_ORDER
Gauss-Legendre nodes x_i and weights w_i on [0, pi t], sqrt(w_i), and the
matrices sinc(x_i - x_j) and sinc(x_i + x_j).  The order is fixed: it has
converged for every t up to T_MAX, and a higher one only adds rounding
and cost.
Both channels' kernels are formed from the same table.
``sine_kernel_spectrum`` is the one function that builds it, and
``fredholm_log_dets``, ``fredholm_report`` (at each t of its grid),
``marchenko_residual`` and szego's cross-check read their log dets off
that spectrum.  The log det of a channel is sum log1p(-lambda) over its
eigenvalues, so a pair refuses as soon as either channel does (the even
one, from t = 5.3 on).
One large-tau (Widom) form backs both ``asymptotic_log_det`` and the
Marchenko replacement.

Convention: the upper sign is the even channel throughout, i.e. F_plus and
W_plus pair with the eigenvalues lambda_0, lambda_2, ... of K_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    ZETA_PRIME_MINUS_ONE,
    EigenvalueAtOne,
    NonPositiveK,
    PreconditionViolated,
    ScatterError,
    TauTooSmall,
    TTooLarge,
    _check_positive,
)
from .potential import _uniform_step

PARITY_EVEN = "even"
PARITY_ODD = "odd"

# Beyond t = 6 the top eigenvalues sit within double-precision distance of 1
# and log(1 - lambda) has no digits left.
T_MAX = 6.0

#: The one Gauss-Legendre order of every Nystrom table, the smallest that
#: has converged.  The rule converges exponentially for this kernel: an
#: mpmath Nystrom rule of this order agrees with order 80 to 8e-25 at
#: t = T_MAX, 3e-34 at t = 4.5 and 7e-48 at t = 2.9, far below the double
#: route's own rounding.  That rounding, from forming I - K, only grows with
#: the order: against the order-80 reference the even channel at t = 2.9 is
#: off by 6.3e-11 here, 2.7e-9 at order 64, 9.0e-9 at 96 and 5.5e-8 at 600.
#: The top eigenvalue reaches EIG_ONE_TOL of 1 from t = 5.3 on.
QUAD_ORDER = 32

EIG_CLIP_TOL = 1e-10
EIG_TRUNCATE = 1e-16
EIG_ONE_TOL = 1e-13

MAX_GRID_SPACING = 0.05
#: Smallest t spacing.  w is a central second difference of log F, whose
#: rounding error grows like eps |log F| / h_tau^2: at t = 1 the even w
#: reads -0.018226 at this spacing and -0.018269, -0.015315 at 1e-5, 1e-6.
MIN_GRID_SPACING = 1e-4
MIN_GRID_POINTS = 5
#: Smallest k that phase_shift accepts.  The tolerance of its identity
#: check grows as 1e-12 / k near the pole of tan, and a flipped branch
#: leaves a residual of 2; at this k the tolerance is 1.
PHASE_K_MIN = 1e-12

_SINC_TAYLOR_CUTOFF = 1e-6


def _parity_sign(parity: str) -> int:
    if parity == PARITY_EVEN:
        return 1
    if parity == PARITY_ODD:
        return -1
    raise PreconditionViolated(f"parity must be 'even' or 'odd', got {parity!r}")


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(u)/u with the removable singularity filled by its Taylor series.

    The series is evaluated only on the entries below the cutoff: in a
    Nystrom table, the diagonal of sinc(x - y), and more only at very small t.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_TAYLOR_CUTOFF
    out = np.sin(u)
    np.divide(out, u, out=out, where=~small)
    u2 = u[small] * u[small]
    out[small] = 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return out


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order QUAD_ORDER on [-1, 1].

    Formed on first use and kept: numpy's leggauss solves an eigenproblem as
    large as the kernel's, and importing this module should not pay for it.
    """
    nodes, weights = leggauss(QUAD_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _nystrom_table(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(w), sinc(x - y) and sinc(x + y) on the Gauss-Legendre nodes of [0, pi t].

    Both parity kernels are (sinc(x - y) +- sinc(x + y)) / pi on these
    nodes, so one table serves both channels at t.
    """
    _check_positive("t", t)
    if t > T_MAX:
        raise TTooLarge(f"t = {t} exceeds {T_MAX}; eigenvalues too close to 1 for double precision")
    half_length = 0.5 * (math.pi * t)
    nodes, weights = _gauss_legendre()
    x = half_length * (nodes + 1.0)
    return np.sqrt(half_length * weights), _sinc(x[:, None] - x[None, :]), _sinc(x[:, None] + x[None, :])


def _channel_eigs(table: tuple[np.ndarray, np.ndarray, np.ndarray], parity: str, t: float) -> np.ndarray:
    """Eigenvalues of one parity kernel from the table at t, descending, clipped to [0, 1].

    Nystrom discretization: the symmetric matrix sqrt(w_i) K(x_i, x_j)
    sqrt(w_j).  Raw eigenvalues may stray outside [0, 1] by quadrature
    rounding only; any excursion beyond EIG_CLIP_TOL is an error, smaller
    ones are clipped.
    """
    root_w, sinc_diff, sinc_sum = table
    kernel = (sinc_diff + _parity_sign(parity) * sinc_sum) / math.pi
    sym = root_w[:, None] * kernel * root_w[None, :]
    sym = 0.5 * (sym + sym.T)

    eigs = np.linalg.eigvalsh(sym)[::-1]
    if eigs[-1] < -EIG_CLIP_TOL or eigs[0] > 1.0 + EIG_CLIP_TOL:
        raise ScatterError(
            f"eigenvalues escape [0, 1] beyond tolerance: min {eigs[-1]:.3e}, "
            f"max {eigs[0]:.3e} (parity {parity}, t {t}, quad_order {root_w.size})"
        )
    return np.clip(eigs, 0.0, 1.0)


def _log_det(eigs: np.ndarray, t: float) -> float:
    """sum log(1 - lambda) over one channel's eigenvalues at t.

    Terms with lambda < EIG_TRUNCATE contribute nothing at double precision
    and are dropped.  log1p keeps full accuracy across the whole range of
    retained eigenvalues.
    """
    if eigs.size and eigs[0] >= 1.0 - EIG_ONE_TOL:
        raise EigenvalueAtOne(
            f"top eigenvalue {float(eigs[0])!r} is within {EIG_ONE_TOL} of 1 at "
            f"t = {t}; the determinant underflows double precision"
        )
    kept = eigs[eigs >= EIG_TRUNCATE]
    return float(np.sum(np.log1p(-kept)))


@dataclass
class SineKernelSpectrum:
    """Both parity spectra at one t.

    merged interleaves them: merged[2j] is even_eigs[j] and merged[2j+1]
    is odd_eigs[j], a sequence descending up to quadrature error.
    """

    t: float
    even_eigs: np.ndarray
    odd_eigs: np.ndarray

    @property
    def merged(self) -> np.ndarray:
        return np.stack((self.even_eigs, self.odd_eigs), axis=1).ravel()


def sine_kernel_spectrum(t: float) -> SineKernelSpectrum:
    """Even and odd spectra of the sine kernel at one t, from one table."""
    table = _nystrom_table(t)
    return SineKernelSpectrum(t, *(_channel_eigs(table, parity, t) for parity in (PARITY_EVEN, PARITY_ODD)))


def fredholm_log_dets(t: float) -> tuple[float, float]:
    """(even, odd) log of the Fredholm determinant det(1 - K_pm) at t.

    Both are read off one sine_kernel_spectrum; see _log_det for how the
    eigenvalues are summed.  EigenvalueAtOne from either channel refuses
    the pair.
    """
    spectrum = sine_kernel_spectrum(t)
    return _log_det(spectrum.even_eigs, t), _log_det(spectrum.odd_eigs, t)


def _large_tau(sign: int, tau, log_term):
    """Widom's large-tau form of log det(1 - K_pm), with log_term for log tau.

    Takes floats or arrays.  The Marchenko replacement is the same form with
    log|tau +- 1/2| in place of log tau; see _marchenko.
    """
    return (
        -tau * tau / 4.0
        - sign * tau / 2.0
        - log_term / 8.0
        + (1.0 / 24.0 + sign / 4.0) * math.log(2.0)
        + 1.5 * ZETA_PRIME_MINUS_ONE
    )


def _marchenko(sign: int, tau, logf):
    """logf less its large-tau replacement, for floats or arrays alike.

    The report's column and marchenko_residual both come from here, so they
    agree bit for bit.
    """
    return logf - _large_tau(sign, tau, np.log(tau + 0.5 * sign))


def asymptotic_log_det(parity: str, t: float) -> float:
    """Large-interval closed form for log det(1 - K_pm) at tau = pi t."""
    _check_positive("t", t)
    tau = math.pi * t
    return _large_tau(_parity_sign(parity), tau, math.log(tau))


def _validated_grid(t_grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < MIN_GRID_POINTS:
        raise PreconditionViolated(
            f"t grid needs at least {MIN_GRID_POINTS} points in one dimension"
        )
    h = _uniform_step(grid, "t grid")
    if h > MAX_GRID_SPACING * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"t grid spacing {h} exceeds {MAX_GRID_SPACING}"
        )
    # The tolerance covers the rounding of a spacing formed at t up to T_MAX.
    if h < MIN_GRID_SPACING * (1.0 - 1e-9):
        raise PreconditionViolated(
            f"t grid spacing {h} is below {MIN_GRID_SPACING}, where w is rounding noise"
        )
    if not (grid[0] > 0.0):
        raise PreconditionViolated("t grid must start above 0")
    if grid[-1] > T_MAX:
        raise TTooLarge(f"t grid reaches {grid[-1]}, beyond {T_MAX}")
    return grid


def _channel(parity: str, grid: np.ndarray, logf: np.ndarray) -> dict[str, np.ndarray]:
    """One channel's report columns from its log dets on a validated t grid.

    w is NaN at both endpoints, lost to the central second difference, and
    marchenko is NaN where the odd replacement needs tau > 1/2.
    """
    sign = _parity_sign(parity)
    h_tau = math.pi * float(grid[1] - grid[0])
    w = np.full(grid.size, np.nan)
    w[1:-1] = -2.0 * (logf[2:] - 2.0 * logf[1:-1] + logf[:-2]) / (h_tau * h_tau) - 1.0
    defined = math.pi * grid + 0.5 * sign > 0.0
    tau = math.pi * grid[defined]
    marchenko = np.full(grid.size, np.nan)
    marchenko[defined] = _marchenko(sign, tau, logf[defined])
    asym = np.array([asymptotic_log_det(parity, t) for t in grid])
    return {"logf": logf, "asym_residual": logf - asym, "w": w, "marchenko": marchenko}


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
    """Exact even and odd phase shifts at wavenumber k > 0, identity-checked."""
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
    """Closed-form Jost data at wavenumber k > 0, modulus- and branch-checked."""
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


def marchenko_residual(parity: str, t: float) -> float:
    """log of the ratio between det(1 - K_pm) and its large-tau replacement.

    Tends to 0 as tau grows.  The odd-channel replacement involves
    log(tau - 1/2) and only makes sense for tau > 1/2.  The log det comes
    from fredholm_log_dets, so either parity refuses where the pair does.
    """
    tau = math.pi * t
    if parity == PARITY_ODD and tau <= 0.5:
        raise TauTooSmall(
            f"odd-channel residual needs tau > 1/2, got tau = {tau}"
        )
    sign = _parity_sign(parity)  # refused before t
    logf = fredholm_log_dets(t)[parity == PARITY_ODD]
    return float(_marchenko(sign, tau, logf))


@dataclass
class FredholmReport:
    """Grid sweep of both channels: determinants, asymptotics, potentials.

    w_plus / w_minus reconstruct W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on
    tau = pi t, which approaches -1/(4 tau^2) for large tau.  They are NaN
    at both endpoints (lost to the central difference stencil);
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


def fredholm_report(t_grid: np.ndarray) -> FredholmReport:
    """Both channels of the sweep on one uniform t grid; see FredholmReport.

    One fredholm_log_dets call per t gives both channels.
    """
    grid = _validated_grid(t_grid)
    logf = np.array([fredholm_log_dets(t) for t in grid]).T
    columns: dict[str, np.ndarray] = {}
    for (parity, tag), row in zip(((PARITY_EVEN, "plus"), (PARITY_ODD, "minus")), logf):
        for name, column in _channel(parity, grid, row).items():
            columns[f"{name}_{tag}"] = column
    return FredholmReport(t_grid=grid, **columns)
