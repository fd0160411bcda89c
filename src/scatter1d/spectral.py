"""Sine-kernel spectra on a finite interval and the objects built from them.

The integral kernel sin(x - y) / (pi (x - y)) restricted to [-pi t, pi t]
splits into even and odd channels on [0, pi t]:

    K_pm(x, y) = (1/pi) * (sinc(x - y) +- sinc(x + y)),   sinc(u) = sin(u)/u.

Each channel quantity here is a pair, the even channel first and the odd
one second, and SIGNS = (+1, -1) is the sign each channel puts into its
formulas:

* ``sine_kernel_spectrum`` gives both channels' eigenvalues as the rows of
  one array,
* ``fredholm_log_dets`` gives log det(1 - K_pm) = sum log(1 - lambda_n),
* ``asymptotic_log_dets`` gives the large-interval closed forms,
* ``marchenko_residuals`` measures how far each determinant is from its
  large-tau factorized replacement (both must tend to zero),
* ``fredholm_report`` sweeps a t grid and reconstructs the comparison
  potentials W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on tau = pi t,
* ``phase_shift`` / ``jost_forms`` give the exact scattering data of the
  limiting -1/(4 tau^2)-type potentials.

Every eigenvalue at t comes from one Nystrom table: the QUAD_ORDER
Gauss-Legendre nodes x_i and weights w_i on [0, pi t], sqrt(w_i), and the
matrices sinc(x_i - x_j) and sinc(x_i + x_j).  The order is fixed: it has
converged for every t up to T_MAX, and a higher one only adds rounding
and cost.  The t values are independent, so besides the channel axis
there is a t axis: ``_spectra`` forms the tables of several t values and
both channels' matrices of each as one stack and diagonalizes it with one
eigvalsh call.  ``fredholm_report`` walks its grid in blocks of
SPECTRA_BLOCK t values, one eigvalsh call per block;
``sine_kernel_spectrum`` is the stack of one t, and
``fredholm_log_dets``, ``marchenko_residuals`` and szego's cross-check
read their log dets off it.  Every elementwise step is the same at every
stack size, so a t gets the same bits in a block as alone.  The log det
of a channel is sum log1p(-lambda) over its eigenvalues, and a pair
refuses as soon as either channel does (the even one from t = 5.3 on; the
odd Marchenko replacement for tau <= 1/2); a block refuses for its first
failing t in grid order, as that t alone would.  One large-tau (Widom)
form backs both ``asymptotic_log_dets`` and the Marchenko replacement.

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

#: Most t values in one _spectra stack, so that a fredholm grid goes
#: through in blocks.  A stack holds about 40 KiB per t at its peak (16 KiB
#: per t for each (2, QUAD_ORDER, QUAD_ORDER) array), so the
#: MAX_GRID_POINTS t values of the longest grid in one stack would take
#: gigabytes.  On 5-, 41- and 401-point grids, blocks of 8 were as fast as
#: any other size; from 16 up, each block's arrays cross glibc's heap-trim
#: threshold, and a 401-point report paid about 3200 minor page faults.
SPECTRA_BLOCK = 8

_SINC_TAYLOR_CUTOFF = 1e-6

#: The channel axis of every pair: the sign of sinc(x + y) in K_pm and of
#: the channel's terms in its large-tau forms, even row first.
SIGNS = np.array([1.0, -1.0])
SIGNS.flags.writeable = False


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(u)/u with the removable singularity filled by its Taylor series.

    The series is evaluated only on the entries below the cutoff: in a
    Nystrom table, the diagonal of sinc(x - y), and more only at very small t.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SINC_TAYLOR_CUTOFF
    out = np.sin(u)
    if not small.any():
        out /= u
        return out
    np.divide(out, u, out=out, where=~small)
    u_small = u[small]
    u2 = u_small * u_small
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


def _spectra(ts) -> tuple[np.ndarray, ScatterError | None]:
    """Clipped spectra of K_plus and K_minus at each t of ts, as a (T, 2, QUAD_ORDER) stack.

    The only function that forms a Nystrom table.  Each t gets the
    Gauss-Legendre nodes x_i of [0, pi t], sqrt(w_i), and its sinc(x - y)
    and sinc(x + y) tables, formed for all of ts by one _sinc call each;
    the symmetric matrices sqrt(w_i) K_pm(x_i, x_j) sqrt(w_j) of every t
    and channel go to one eigvalsh call.  The matrix stack holds the
    channel axis first, so the signs and the sinc(x - y) tables broadcast
    along its leading axis, which numpy does without an iteration buffer.
    Each row descends.  Raw eigenvalues may stray outside [0, 1] by
    quadrature rounding only: the first t whose rows stray beyond
    EIG_CLIP_TOL ends the stack, which then holds the t values before it,
    and its refusal comes back in place of None.  Smaller strays are
    clipped.  The caller raises the refusal after any of its own that an
    earlier t calls for.
    """
    half_length = 0.5 * (math.pi * np.asarray(ts, dtype=float))[:, None]
    nodes, weights = _gauss_legendre()
    x = half_length * (nodes + 1.0)
    root_w = np.sqrt(half_length * weights)
    diff, total = _sinc(x[:, :, None] - x[:, None, :]), _sinc(x[:, :, None] + x[:, None, :])
    # sqrt(w_i) K_pm(x_i, x_j) sqrt(w_j), formed in place.
    sym = SIGNS[:, None, None, None] * total
    sym += diff
    sym /= math.pi
    sym *= root_w[:, :, None]
    sym *= root_w[:, None, :]
    del diff, total  # before the averaged copy, to lower the peak
    # eigvalsh reads one triangle, so both are averaged into it first.  A
    # plain copy of the transpose: as an operand of the sum, numpy would
    # read it through a 64 KiB iteration buffer.
    avg = sym.swapaxes(-1, -2).copy()
    avg += sym
    avg *= 0.5

    eigs = np.linalg.eigvalsh(avg)[..., ::-1].swapaxes(0, 1)
    refusal = None
    # The extremes of the whole stack first, as they are cheap; then the first t that strays.
    if eigs[..., -1].min() < -EIG_CLIP_TOL or eigs[..., 0].max() > 1.0 + EIG_CLIP_TOL:
        stray = (eigs[..., -1].min(axis=1) < -EIG_CLIP_TOL) | (eigs[..., 0].max(axis=1) > 1.0 + EIG_CLIP_TOL)
        first = int(stray.argmax())
        refusal = ScatterError(
            f"eigenvalues escape [0, 1] beyond tolerance: min {eigs[first].min():.3e}, "
            f"max {eigs[first].max():.3e} (t {ts[first]}, quad_order {QUAD_ORDER})"
        )
        eigs = eigs[:first]
    return eigs.clip(0.0, 1.0), refusal


def sine_kernel_spectrum(t: float) -> np.ndarray:
    """Eigenvalues of K_plus and K_minus at t as the rows of one (2, QUAD_ORDER) array.

    Nystrom discretization on the Gauss-Legendre nodes x_i of [0, pi t]:
    the one-t stack of _spectra, whose rows descend.  Any raw eigenvalue
    beyond EIG_CLIP_TOL outside [0, 1], in either row, is an error;
    smaller excursions are clipped.  spectrum.T.ravel() interleaves the
    rows into one sequence, descending up to quadrature error.
    """
    _check_positive("t", t)
    if t > T_MAX:
        raise TTooLarge(f"t = {t} exceeds {T_MAX}; eigenvalues too close to 1 for double precision")
    spectra, refusal = _spectra([t])
    if refusal is not None:
        raise refusal
    return spectra[0]


def _log_dets(spectra: np.ndarray, ts) -> list[list[float]]:
    """sum log(1 - lambda) over each row of a (T, 2, QUAD_ORDER) stack, as T (even, odd) pairs.

    The first t in order, even channel before odd, whose top eigenvalue lies
    within EIG_ONE_TOL of 1 refuses the stack.  Terms with lambda <
    EIG_TRUNCATE contribute nothing at double precision and are dropped;
    the rows descend, so the kept terms are a prefix of each row, summed
    from one log1p over the stack.  log1p keeps full accuracy across the
    whole range of retained eigenvalues.
    """
    top = spectra[..., 0]
    if top.max(initial=0.0) >= 1.0 - EIG_ONE_TOL:
        first, channel = np.unravel_index(np.argmax(top >= 1.0 - EIG_ONE_TOL), top.shape)
        raise EigenvalueAtOne(
            f"top eigenvalue {float(top[first, channel])!r} is within {EIG_ONE_TOL} of 1 at "
            f"t = {ts[first]}; the determinant underflows double precision"
        )
    terms = np.log1p(-spectra)
    kept = (spectra >= EIG_TRUNCATE).sum(axis=-1).tolist()
    return [[float(row[:k].sum()) for row, k in zip(rows, counts)] for rows, counts in zip(terms, kept)]


def fredholm_log_dets(t: float) -> tuple[float, float]:
    """(even, odd) log of the Fredholm determinant det(1 - K_pm) at t.

    Both are read off one sine_kernel_spectrum; see _log_dets for how the
    eigenvalues are summed.  EigenvalueAtOne from either channel refuses
    the pair.
    """
    even, odd = _log_dets(sine_kernel_spectrum(t)[None], [t])[0]
    return even, odd


def _large_tau(sign, tau, log_term):
    """Widom's large-tau form of log det(1 - K_pm), with log_term for log tau.

    sign is SIGNS, shaped to broadcast against tau.  Takes floats or
    arrays.  The Marchenko replacement is the same form with log|tau +- 1/2|
    in place of log tau; see _marchenko.
    """
    return (
        -tau * tau / 4.0
        - sign * tau / 2.0
        - log_term / 8.0
        + (1.0 / 24.0 + sign / 4.0) * math.log(2.0)
        + 1.5 * ZETA_PRIME_MINUS_ONE
    )


def _marchenko(sign, tau, logf):
    """logf less its large-tau replacement, for floats or arrays alike.

    The report's columns and marchenko_residuals both come from here, so
    they agree bit for bit.
    """
    return logf - _large_tau(sign, tau, np.log(tau + 0.5 * sign))


def asymptotic_log_dets(t: float) -> tuple[float, float]:
    """(even, odd) large-interval closed forms for log det(1 - K_pm) at tau = pi t."""
    _check_positive("t", t)
    tau = math.pi * t
    even, odd = _large_tau(SIGNS, tau, math.log(tau)).tolist()
    return even, odd


def marchenko_residuals(t: float) -> tuple[float, float]:
    """(even, odd) log of the ratio between det(1 - K_pm) and its large-tau replacement.

    Both tend to 0 as tau = pi t grows.  The odd replacement involves
    log(tau - 1/2), so the pair refuses for tau <= 1/2, as it refuses
    wherever fredholm_log_dets does.  fredholm_report keeps the even value
    there in its marchenko_plus column.
    """
    _check_positive("t", t)
    tau = math.pi * t
    if tau <= 0.5:
        raise TauTooSmall(
            f"odd-channel residual needs tau > 1/2, got tau = {tau}"
        )
    even, odd = _marchenko(SIGNS, tau, np.array(fredholm_log_dets(t))).tolist()
    return even, odd


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


def fredholm_report(t_grid: np.ndarray) -> dict[str, np.ndarray]:
    """Both channels of the sweep on one uniform t grid, as columns in output order.

    The columns are t, then logf, asym_residual (logf less
    asymptotic_log_dets), w and marchenko, each as _plus (even) and _minus
    (odd).  w_pm reconstructs W_pm(tau) = -2 (d/dtau)^2 log F_pm - 1 on
    tau = pi t, which approaches -1/(4 tau^2) for large tau; it is NaN at
    both endpoints, lost to the central difference stencil.  marchenko_minus
    is NaN where tau <= 1/2.  The grid goes to _spectra in blocks of
    SPECTRA_BLOCK t values, one eigvalsh call each, and a t refuses as
    fredholm_log_dets(t) would, the first one in grid order first.
    """
    grid = _validated_grid(t_grid)
    pairs = []
    for start in range(0, grid.size, SPECTRA_BLOCK):
        block = grid[start:start + SPECTRA_BLOCK]
        spectra, refusal = _spectra(block)
        pairs += _log_dets(spectra, block)
        if refusal is not None:
            raise refusal
    logf = np.array(pairs).T
    sign, tau = SIGNS[:, None], math.pi * grid
    # asymptotic_log_dets over the grid: its math.log, which np.log does not match in every last bit.
    asym = _large_tau(sign, tau, np.array([math.log(x) for x in tau.tolist()]))
    h_tau = math.pi * float(grid[1] - grid[0])
    w = np.full(logf.shape, np.nan)
    w[:, 1:-1] = -2.0 * (logf[:, 2:] - 2.0 * logf[:, 1:-1] + logf[:, :-2]) / (h_tau * h_tau) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # the log where tau + sign/2 <= 0
        marchenko = np.where(tau + 0.5 * sign > 0.0, _marchenko(sign, tau, logf), np.nan)
    columns = {"t": grid}
    for name, pair in (("logf", logf), ("asym_residual", logf - asym), ("w", w), ("marchenko", marchenko)):
        columns[f"{name}_plus"], columns[f"{name}_minus"] = pair
    return columns
