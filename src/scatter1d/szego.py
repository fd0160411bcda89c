"""Toeplitz determinants for the arc-indicator symbol.

The symbol is the indicator of the arc [alpha, 2 pi - alpha] on the unit
circle.  Its Fourier coefficients have the closed form

    c_0 = 1 - alpha/pi,    c_m = -sin(m alpha) / (pi m)   (m != 0),

and the n x n Toeplitz matrix built from them is a section of an
orthogonal projection: symmetric, eigenvalues strictly inside (0, 1), so
it is positive definite with log det < 0.  ``toeplitz_logdet`` compares
the exact log determinant against the large-n closed form

    n^2 log cos(alpha/2) - (1/4) log(n sin(alpha/2)) + (1/12) log 2
        + 3 zeta'(-1),

and ``szego_limit_check`` ties the discrete determinant to the continuum
sine-kernel determinant, the sum of both parity channels of
``spectral.fredholm_log_dets``, via the coupling alpha * n = 2 pi t.

Precision: I - T_n is Slepian's prolate matrix, so the smallest
eigenvalue of T_n is one minus its largest and decays at the rate Slepian
(1978, Bell Syst. Tech. J. 57) gives,

    -log10 lambda_min ~ n log10((1 + sin(alpha/2)) / (1 - sin(alpha/2))),

an estimate one to two digits above the true value.  Every log
determinant comes from one route: the split Levinson recursion (Delsarte &
Genin 1986, IEEE Trans. ASSP 34), O(n^2) operations on Python integers
scaled by a power of two, with as many digits as the estimate at the
largest requested n plus a margin.  It carries symmetric polynomials, so
it makes about half the products of the Levinson-Durbin recursion, and its
pivots follow from e_k = 2 tau_k - tau_k^2 / e_{k-1}, the prediction-error
update e_k = e_{k-1} (1 - kappa_k^2) written with tau_k = e_{k-1} (1 -
kappa_k).  Fixed point holds absolute precision, and that suffices: a
Cholesky pivot of a symmetric positive-definite matrix is never below
lambda_min.  One pass at the largest n gives every smaller log determinant
as a prefix product of its pivots, and the values are accepted only if a
re-run at ten more digits agrees to 1e-12 at every requested n.  Both passes
round one first column, built in integers 32 bits finer than the re-run:
mpmath gives cos alpha, sin alpha, 1/pi and 1 - alpha/pi, and each sin(m
alpha) follows by rotating the previous one through alpha.

alpha = 0 is accepted as the identity symbol (the matrix is exactly the
identity); the asymptotic formula has no meaning there and both log_det
and asymptotic are reported as 0.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, mul

from .core import (
    ZETA_PRIME_MINUS_ONE,
    NotPositiveDefinite,
    PreconditionViolated,
)
from .spectral import QUAD_ORDER, asymptotic_log_dets, fredholm_log_dets

MAX_N = 512

#: Absolute tolerance on the log determinant.
LOGDET_TOL = 1e-12
#: Working digits of the recursion beyond the -log10 lambda_min estimate.
EXTRA_DIGITS = 25
#: Further digits of the a-posteriori re-run of the recursion.
RECHECK_DIGITS = 10
#: Largest -log10 lambda_min estimate the recursion takes on; at
#: n = MAX_N (alpha = 2.126) both passes take 1.9 to 2.8 s on one core of a
#: shared 2-vCPU x86-64 host with CPython 3.11.
MAX_CONDITION_DIGITS = 600.0


@dataclass(frozen=True)
class ArcSymbol:
    """Indicator of the arc [alpha, 2 pi - alpha]; alpha = 0 is identity."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < math.pi):
            raise PreconditionViolated(
                f"alpha must lie in [0, pi), got {self.alpha}"
            )


@dataclass(frozen=True)
class ToeplitzResult:
    n: int
    alpha: float
    log_det: float
    asymptotic: float
    residual: float


def _condition_digits(alpha: float, n: int) -> float:
    # Slepian's rate for -log10 lambda_min; see the module docstring.  As
    # (1 + s) / (1 - s) = ((1 + s) / cos(alpha/2))^2, it needs no 1 - s,
    # which rounds to 0 where alpha is within 2e-8 of pi.
    s = math.sin(0.5 * alpha)
    return 2.0 * n * math.log10((1.0 + s) / math.cos(0.5 * alpha))


def _bits(digits: int) -> int:
    return math.ceil(digits * math.log2(10.0))


def _arc_column(alpha: float, n: int, scale: int) -> list[int]:
    """c_0 .. c_{n-1} as Python ints scaled by 2**scale.

    mpmath supplies cos alpha, sin alpha, 1/pi and 1 - alpha/pi; each
    sin(m alpha) then comes from rotating (cos, sin)((m - 1) alpha) by
    alpha in integers.  Every rotation adds at most a few units at 2**-scale,
    so the error of sin(m alpha) grows at most linearly in m (up to 225
    units, 8 bits, at n = MAX_N), and c_m divides it by pi m: each entry
    comes within about one unit of 2**-scale.
    """
    import mpmath as mp

    with mp.workprec(scale + 16):  # guard bits for the rounding to ints
        a = mp.mpf(alpha)
        cos_a, sin_a, inv_pi, c_0 = (
            int(mp.nint(mp.ldexp(v, scale))) for v in (mp.cos(a), mp.sin(a), 1 / mp.pi, 1 - a / mp.pi)
        )
    col, c, s = [c_0], 1 << scale, 0
    for m in range(1, n):
        c, s = (c * cos_a - s * sin_a) >> scale, (s * cos_a + c * sin_a) >> scale
        col.append(-(s * inv_pi) // m >> scale)
    return col


def _split_levinson_logdets(column: list[int], scale: int, sizes, digits: int) -> dict:
    """log det T_m as an mpf for every m in sizes, from one recursion.

    column holds c_0 .. c_{n-1} scaled by 2**scale (see _arc_column); it is
    rounded to bits holding ``digits`` decimal digits, and the split Levinson
    recursion (Delsarte & Genin 1986) runs to the largest m on those ints.
    Its symmetric polynomials p_k, kept as their first k//2 + 1
    coefficients, obey

        p_0 = 2,  p_1 = 1 + z,  p_{k+1} = (1 + z) p_k - (tau_k / tau_{k-1}) z p_{k-1},

    with tau_k = sum_i c_i p_{k,i} and tau_0 = c_0.  Since tau_k =
    e_{k-1} (1 - kappa_k) for the reflection coefficient kappa_k, the
    pivots are e_0 = c_0 and e_k = e_{k-1} (1 - kappa_k^2) = 2 tau_k -
    tau_k^2 / e_{k-1}, and det T_m is the product of the first m.  A pivot
    that is not positive means the section is not positive definite at this
    precision; e_k > 0 also makes tau_k > 0, so no division meets a zero.
    """
    import mpmath as mp

    n = max(sizes)
    bits = _bits(digits)
    shift = scale - bits
    col = [(c + (1 << (shift - 1))) >> shift for c in column]
    one = 1 << bits
    err = tau_prev = col[0]  # e_0 and tau_0
    pivots = [err]
    prev, poly = [2 * one], [one]  # p_0 and p_1
    for k in range(1, n):
        if err <= 0:  # e_{k-1} > 0 also makes tau_{k-1} > 0
            break
        # Folded column c_i + c_{k-i}, i <= k // 2; an even k's middle c_{k/2} once.
        fold = map(add, col, col[k:k // 2:-1] + [0])
        tau = sum(map(mul, poly, fold)) >> bits
        err = 2 * tau - tau * tau // err
        pivots.append(err)
        ratio = (tau << bits) // tau_prev
        # p_{k+1,i} = p_{k,i} + p_{k,i-1} - ratio p_{k-1,i-1} for i up to
        # (k + 1) // 2, where zip stops at the end of prev; an odd k's
        # p_{k,(k+1)/2} is its last kept coefficient again.
        prev, poly = poly, [one] + [
            a + b - (ratio * q >> bits) for a, b, q in zip(poly[1:] + poly[-1:], poly, prev)
        ]
        tau_prev = tau
    if err <= 0:
        raise NotPositiveDefinite(
            f"split Levinson recursion lost positivity at step {len(pivots) - 1} "
            f"of n = {n} with {digits} digits"
        )
    return _log_products(pivots, bits, sizes, digits)


def _log_products(pivots: list[int], bits: int, sizes, digits: int) -> dict:
    """log of the product of the first m pivots, each scaled by 2**bits, for every m in sizes.

    One running Python-int product, its mantissa cut back to bits + 64 bits
    after each pivot and the shift kept as a binary exponent, so each of the
    m cuts is off by at most 2**-(bits + 64) relative: below the rounding of
    an mpf product at ``digits`` decimal digits.  mpmath takes one log per
    size.
    """
    import mpmath as mp

    keep, wanted = bits + 64, set(sizes)
    man, exp, logs = 1, 0, {}
    with mp.workdps(digits):
        for m, pivot in enumerate(pivots, 1):
            man *= pivot
            cut = man.bit_length() - keep
            if cut > 0:
                man >>= cut
                exp += cut
            if m in wanted:
                logs[m] = mp.log(mp.mpf((man, exp))) - m * bits * mp.ln2
    return logs


def _result(alpha: float, n: int, log_det: float) -> ToeplitzResult:
    asymptotic = 0.0
    if alpha != 0.0:
        asymptotic = (
            n * n * math.log(math.cos(0.5 * alpha))
            - 0.25 * math.log(n * math.sin(0.5 * alpha))
            + math.log(2.0) / 12.0
            + 3.0 * ZETA_PRIME_MINUS_ONE
        )
    return ToeplitzResult(
        n=n, alpha=alpha, log_det=log_det, asymptotic=asymptotic, residual=log_det - asymptotic
    )


def toeplitz_logdet(
    symbol: ArcSymbol, n: int | Sequence[int]
) -> ToeplitzResult | list[ToeplitzResult]:
    """Exact log determinant of the n x n arc-symbol Toeplitz matrix.

    residual = log_det - asymptotic; it shrinks as n grows at fixed alpha.
    A sequence of sizes gives the list of results in the same order,
    duplicates kept, all from one recursion at the largest size, re-run at
    RECHECK_DIGITS more digits.
    """
    single = isinstance(n, numbers.Integral)
    sizes = [n] if single else list(n)
    out_of_range = [m for m in sizes if not 1 <= m <= MAX_N]
    if out_of_range or not sizes:
        raise PreconditionViolated(f"n must lie in [1, {MAX_N}], got {out_of_range[0] if out_of_range else n}")
    alpha = symbol.alpha
    log_dets = dict.fromkeys(sizes, 0.0)
    if alpha != 0.0:
        estimate = _condition_digits(alpha, max(sizes))
        if estimate > MAX_CONDITION_DIGITS:
            raise NotPositiveDefinite(
                f"smallest eigenvalue needs about {estimate:.0f} digits at "
                f"n = {max(sizes)}, alpha = {alpha}; beyond supported precision"
            )
        digits = math.ceil(estimate) + EXTRA_DIGITS
        # One column, 32 bits past the re-run's, serves both passes.
        scale = _bits(digits + RECHECK_DIGITS) + 32
        column = _arc_column(alpha, max(sizes), scale)
        log_dets = _split_levinson_logdets(column, scale, sizes, digits)
        check = _split_levinson_logdets(column, scale, sizes, digits + RECHECK_DIGITS)
        for m, value in log_dets.items():
            gap = abs(value - check[m])
            if gap > LOGDET_TOL:
                raise NotPositiveDefinite(
                    f"log det at n = {m}, alpha = {alpha} moved by {float(gap):.3e} "
                    f"between {digits} and {digits + RECHECK_DIGITS} digits"
                )
    results = [_result(alpha, m, float(log_dets[m])) for m in sizes]
    return results[0] if single else results


@dataclass(frozen=True)
class SzegoCrossCheck:
    """Discrete-vs-continuum comparison at the coupling alpha n = 2 pi t.

    quad_order records the Gauss-Legendre order of the sine-kernel side,
    which is always spectral.QUAD_ORDER.
    """

    alpha: float
    n: int
    t: float
    quad_order: int
    log_det: float
    fredholm_total: float
    continuum_asymptotic: float
    gap_fredholm: float
    gap_continuum: float


def szego_limit_check(n: int, t: float) -> SzegoCrossCheck:
    """Compare the Toeplitz log determinant with the sine-kernel route.

    The n x n section is taken at the coupling alpha = 2 pi t / n.
    The full-interval determinant factorizes over parity, so the continuum
    reference is the sum of the pair fredholm_log_dets(t), and its
    closed-form asymptotic is the sum of the pair asymptotic_log_dets(t),
    -(pi t)^2/2 - (1/4) log(pi t) + (1/12) log 2 + 3 zeta'(-1).
    """
    if not (0.5 <= t <= 3.0):
        raise PreconditionViolated(f"t must lie in [0.5, 3], got {t}")
    if not 1 <= n <= MAX_N:  # checked before n divides 2 pi t
        raise PreconditionViolated(f"n must lie in [1, {MAX_N}], got {n}")

    alpha = 2.0 * math.pi * t / n
    result = toeplitz_logdet(ArcSymbol(alpha), n)
    fredholm_total = sum(fredholm_log_dets(t))
    continuum = sum(asymptotic_log_dets(t))
    return SzegoCrossCheck(
        alpha=alpha,
        n=n,
        t=t,
        quad_order=QUAD_ORDER,
        log_det=result.log_det,
        fredholm_total=fredholm_total,
        continuum_asymptotic=continuum,
        gap_fredholm=result.log_det - fredholm_total,
        gap_continuum=result.log_det - continuum,
    )
