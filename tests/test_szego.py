"""Arc-symbol Toeplitz determinants and the continuum cross-check."""

import math

import mpmath as mp
import numpy as np
import pytest

from helpers import arc_coefficient_quadrature, arc_toeplitz_logdet_lu, levinson_durbin_logdets
from scatter1d import szego
from scatter1d.core import NotPositiveDefinite, PreconditionViolated
from scatter1d.spectral import QUAD_ORDER, asymptotic_log_dets
from scatter1d.szego import (
    ArcSymbol,
    SzegoCrossCheck,
    _arc_column,
    _bits,
    _condition_digits,
    _split_levinson_logdets,
    szego_limit_check,
    toeplitz_logdet,
)


class TestArcCoefficient:
    @pytest.mark.parametrize("alpha", [0.3, 1.1, math.pi / 2, 2.9])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 16, 64])
    def test_matches_quadrature_oracle(self, alpha, m):
        scale = 80
        closed = _arc_column(alpha, m + 1, scale)[m] / 2**scale
        quad = arc_coefficient_quadrature(alpha, m)
        assert abs(closed - quad) < 1e-12

    def test_symbol_guard(self):
        with pytest.raises(PreconditionViolated):
            ArcSymbol(alpha=-0.1)
        with pytest.raises(PreconditionViolated):
            ArcSymbol(alpha=math.pi)
        ArcSymbol(alpha=0.0)


def split_logdets(alpha, sizes, digits):
    """The library's pass at ``digits``, on a column 32 bits finer."""
    scale = _bits(digits) + 32
    return _split_levinson_logdets(_arc_column(alpha, max(sizes), scale), scale, sizes, digits)


class TestArcColumn:
    @pytest.mark.parametrize("alpha", [1e-8, 0.3, 2.9, 3.1])
    def test_rotated_column_matches_mpmath_sines(self, alpha):
        # Both passes of a table at MAX_N round one rotated column; each
        # entry must land within one unit of mpmath's own sine at the
        # pass's bits.  Past the wall the digits are capped at the largest
        # the recursion takes on.
        import mpmath as mp

        estimate = min(_condition_digits(alpha, szego.MAX_N), szego.MAX_CONDITION_DIGITS)
        digits = math.ceil(estimate) + szego.EXTRA_DIGITS
        scale = _bits(digits + szego.RECHECK_DIGITS) + 32
        column = _arc_column(alpha, szego.MAX_N, scale)
        assert len(column) == szego.MAX_N
        for bits in (_bits(digits), _bits(digits + szego.RECHECK_DIGITS)):
            shift = scale - bits
            with mp.workprec(bits + 16):
                a = mp.mpf(alpha)
                exact = [1 - a / mp.pi] + [
                    -mp.sin(m * a) / (mp.pi * m) for m in range(1, szego.MAX_N)
                ]
                reference = [int(mp.nint(mp.ldexp(c, bits))) for c in exact]
            rounded = [(c + (1 << (shift - 1))) >> shift for c in column]
            worst = max(abs(r - c) for r, c in zip(reference, rounded))
            assert worst <= 1, f"column off by {worst} units at {bits} bits"


class TestToeplitzLogDet:
    def test_one_by_one_is_exact(self):
        for alpha in (0.3, 0.7, 2.0):
            r = toeplitz_logdet(ArcSymbol(alpha), 1)
            assert abs(r.log_det - math.log(1.0 - alpha / math.pi)) < 1e-14

    def test_identity_symbol_is_exact(self):
        r = toeplitz_logdet(ArcSymbol(0.0), 50)
        assert r.log_det == 0.0
        assert r.asymptotic == 0.0
        assert r.residual == 0.0
        table = toeplitz_logdet(ArcSymbol(0.0), [4, 2])
        assert [(t.n, t.log_det, t.residual) for t in table] == [(4, 0.0, 0.0), (2, 0.0, 0.0)]

    def test_near_identity_symbol_stays_tiny(self):
        r = toeplitz_logdet(ArcSymbol(1e-8), 64)
        assert abs(r.log_det) < 1e-5

    def test_log_det_decreases_with_n(self):
        vals = [toeplitz_logdet(ArcSymbol(math.pi / 2), n).log_det for n in (1, 2, 4, 8, 16)]
        for a, b in zip(vals, vals[1:]):
            assert b < a

    def test_frozen_residuals_at_right_angle(self):
        # residual = log_det - asymptotic at alpha = pi/2.  Each value is the
        # Levinson recursion at 300 digits, which agrees with a 150-digit
        # mpmath Cholesky to far below the tolerance; none comes from a
        # double-precision run, whose result depends on the BLAS in use.
        frozen = {
            8: 2.578822e-4,
            16: 6.1826865e-5,
            32: 1.530747e-5,
            64: 3.817728e-6,
        }
        for n, ref in frozen.items():
            r = toeplitz_logdet(ArcSymbol(math.pi / 2), n)
            assert abs(r.residual - ref) < 1e-9

    @pytest.mark.parametrize(
        "alpha, n, ref",
        [
            # lambda_min ~ 1e-13: double precision gives the wrong sign.
            (1.0, 32, 8.7450207e-5),
            # lambda_min ~ 1e-17: double-precision Cholesky can break down.
            (1.0, 40, 5.586239e-5),
            # lambda_min ~ 1e-96: fewer working digits leave errors ~1e-7.
            (math.pi / 2, 128, 9.5386355e-7),
        ],
    )
    def test_residuals_match_300_digit_recomputation(self, alpha, n, ref):
        r = toeplitz_logdet(ArcSymbol(alpha), n)
        assert abs(r.residual - ref) < 1e-9

    def test_residual_shrinks_from_32_to_64(self):
        r32 = toeplitz_logdet(ArcSymbol(math.pi / 2), 32)
        r64 = toeplitz_logdet(ArcSymbol(math.pi / 2), 64)
        assert abs(r64.residual) < abs(r32.residual)
        assert abs(r64.residual) <= 0.1

    @pytest.mark.parametrize(
        "alpha, n",
        [
            (0.7, 12), (math.pi / 2, 16), (2.0, 20), (0.5, 16), (1e-8, 64),
            # The split recursion's start: p_0 = 2 and p_1 = 1 + z.
            (0.7, 1), (2.0, 2), (math.pi / 2, 3),
        ],
    )
    def test_levinson_recursion_matches_dense_determinant(self, alpha, n):
        # At 60 digits both sides keep more than 30 digits past lambda_min.
        levinson = split_logdets(alpha, [n], 60)[n]
        dense = arc_toeplitz_logdet_lu(alpha, n, 60)
        assert abs(levinson - dense) < 1e-25

    @pytest.mark.parametrize(
        "alpha, sizes",
        [(0.3, [256, 512]), (1.0, [256, 512]), (math.pi / 2, [256, 512]), (2.0, [256])],
    )
    def test_split_recursion_matches_levinson_durbin(self, alpha, sizes):
        # The classical recursion on a column of mpmath sines is an
        # independent route to the same pivots; at the library's digits
        # for the largest n both keep 25 digits past lambda_min.
        digits = math.ceil(_condition_digits(alpha, max(sizes))) + szego.EXTRA_DIGITS
        split = split_logdets(alpha, sizes, digits)
        classical = levinson_durbin_logdets(alpha, sizes, digits)
        for n in sizes:
            assert abs(split[n] - classical[n]) < 1e-20

    def test_lost_positivity_is_refused_before_any_division(self):
        # c_0 + c_1 = 0 makes tau_1 = 0, the divisor of the next step: the
        # recursion must refuse, not divide by zero.
        scale = _bits(30) + 32
        for c_1 in (-1.0, -1.5):
            column = [1 << scale, int(c_1 * (1 << scale)), 0, 0]
            with pytest.raises(NotPositiveDefinite, match="lost positivity at step 1"):
                _split_levinson_logdets(column, scale, [4], 30)
        with pytest.raises(NotPositiveDefinite, match="lost positivity at step 0"):
            _split_levinson_logdets([0, 0, 0], scale, [3], 30)

    @pytest.mark.parametrize("alpha, sizes", [(1.0, [8, 64, 128]), (math.pi / 2, [16, 256]), (0.05, [8, 128])])
    def test_log_products_match_an_mpmath_product_at_twice_the_digits(self, monkeypatch, alpha, sizes):
        # The tail cuts its running integer product back to bits + 64 bits;
        # the reference multiplies the same pivots as mpf at twice the
        # digits.  What is left is the rounding of the log at ``digits``.
        calls = []
        log_products = szego._log_products

        def recorded(pivots, bits, sizes, digits):
            logs = log_products(pivots, bits, sizes, digits)
            calls.append((pivots, bits, digits, logs))
            return logs

        monkeypatch.setattr(szego, "_log_products", recorded)
        toeplitz_logdet(ArcSymbol(alpha), sizes)
        assert len(calls) == 2  # the pass and its re-run
        for pivots, bits, digits, logs in calls:
            assert sorted(logs) == sorted(sizes)
            with mp.workdps(2 * digits):
                for m in sizes:
                    reference = mp.log(mp.fprod(mp.mpf(p) for p in pivots[:m])) - m * bits * mp.ln2
                    assert abs(logs[m] - reference) <= mp.mpf(10) ** -digits * (abs(reference) + m * bits)

    @pytest.mark.parametrize("alpha", [0.2, 1.0, math.pi / 2, 2.2])
    def test_table_equals_single_calls(self, alpha):
        # The table takes the digits of its largest n; each single call
        # takes its own, fewer.
        sizes = [8, 13, 16, 32, 64, 100, 128]
        table = toeplitz_logdet(ArcSymbol(alpha), sizes)
        assert [r.n for r in table] == sizes
        for r in table:
            single = toeplitz_logdet(ArcSymbol(alpha), r.n)
            assert abs(r.log_det - single.log_det) <= 1e-13
            assert abs(r.residual - single.residual) <= 1e-13

    def test_table_keeps_order_and_duplicates(self):
        table = toeplitz_logdet(ArcSymbol(1.0), (64, 8, 64))
        assert [r.n for r in table] == [64, 8, 64]
        assert table[0] == table[2]
        assert table[1] == toeplitz_logdet(ArcSymbol(1.0), 8)

    def test_precision_wall_raises(self):
        with pytest.raises(NotPositiveDefinite):
            toeplitz_logdet(ArcSymbol(3.1), 512)

    @pytest.mark.parametrize("extra, message", [(-40, "lost positivity"), (0, "moved by")])
    def test_too_few_digits_are_refused(self, monkeypatch, extra, message):
        # Without the margin past the lambda_min estimate, a pivot goes
        # non-positive or the +10-digit re-run disagrees; both refuse.
        monkeypatch.setattr(szego, "EXTRA_DIGITS", extra)
        with pytest.raises(NotPositiveDefinite, match=message):
            toeplitz_logdet(ArcSymbol(math.pi / 2), [8, 64])

    def test_alpha_next_to_pi_is_answered_or_refused(self):
        # sin(alpha/2) rounds to 1 here, and the lambda_min estimate used to
        # divide by 1 - sin(alpha/2) = 0.  Reference: mpmath at 50 digits.
        alpha = math.nextafter(math.pi, 0.0)
        assert abs(toeplitz_logdet(ArcSymbol(alpha), 1).log_det + 36.251689356234869) < 1e-12
        with pytest.raises(NotPositiveDefinite, match="beyond supported precision"):
            toeplitz_logdet(ArcSymbol(alpha), 64)

    def test_table_past_the_wall_raises(self):
        with pytest.raises(NotPositiveDefinite):
            toeplitz_logdet(ArcSymbol(3.1), [8, 512])

    def test_n_guards(self):
        with pytest.raises(PreconditionViolated):
            toeplitz_logdet(ArcSymbol(1.0), 0)
        with pytest.raises(PreconditionViolated):
            toeplitz_logdet(ArcSymbol(1.0), 513)
        with pytest.raises(PreconditionViolated):
            toeplitz_logdet(ArcSymbol(1.0), [8, 513])
        with pytest.raises(PreconditionViolated):
            toeplitz_logdet(ArcSymbol(1.0), [])

    @pytest.mark.parametrize("n, bad", [(0, 0), ([8, 0], 0), ([600, 8], 600), ([8, 16, 513, -1], 513)])
    def test_n_guard_names_the_first_size_out_of_range(self, n, bad):
        with pytest.raises(PreconditionViolated, match=rf"^n must lie in \[1, 512\], got {bad}$"):
            toeplitz_logdet(ArcSymbol(1.0), n)


class TestSzegoLimitCheck:
    def test_t_range_guard(self):
        n, t = 16, 0.25
        with pytest.raises(PreconditionViolated):
            szego_limit_check(n=n, t=t)

    @pytest.mark.parametrize("n", [0, -4, 513])
    def test_n_range_guard(self, n):
        with pytest.raises(PreconditionViolated, match="n must lie in"):
            szego_limit_check(n=n, t=1.0)

    def test_gap_fields_are_consistent(self):
        t, n = 1.0, 16
        chk = szego_limit_check(n=n, t=t)
        assert isinstance(chk, SzegoCrossCheck)
        assert chk.quad_order == QUAD_ORDER
        assert chk.gap_fredholm == chk.log_det - chk.fredholm_total
        assert chk.gap_continuum == chk.log_det - chk.continuum_asymptotic
        # The continuum closed form is the parity factorisation of the
        # sine-kernel asymptotics, like fredholm_total.
        even, odd = asymptotic_log_dets(t)
        assert chk.continuum_asymptotic == even + odd

    def test_refining_alpha_quarters_the_gap(self):
        # At fixed t the discrete-to-continuum gap scales like alpha^2, so
        # doubling n (halving alpha) divides it by about four.
        t = 2.0
        coarse = szego_limit_check(64, t)
        fine = szego_limit_check(128, t)
        ratio = abs(coarse.gap_fredholm) / abs(fine.gap_fredholm)
        assert 3.3 <= ratio <= 4.7, f"gap ratio {ratio}"

    def test_gap_grows_with_t_at_fixed_alpha(self):
        # Walking up the coupling at fixed alpha = pi/8 makes the gap
        # larger, not smaller: refinement happens in alpha, not in t.
        low = szego_limit_check(16, 1.0)
        high = szego_limit_check(32, 2.0)
        assert abs(high.gap_fredholm) > abs(low.gap_fredholm)
        assert abs(low.gap_fredholm + 0.030595) < 1e-3
        assert abs(high.gap_fredholm + 0.126583) < 1e-3

    def test_fredholm_total_tracks_continuum_asymptotic(self):
        t, n = 3.0, 48
        chk = szego_limit_check(n=n, t=t)
        assert abs(chk.fredholm_total - chk.continuum_asymptotic) < 0.02
