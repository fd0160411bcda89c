"""Sine-kernel spectra, Fredholm determinants, and inverse-spectral forms."""

import math
import re

import numpy as np
import pytest

import scatter1d.spectral as spectral
from helpers import full_interval_sine_eigs, nystrom_log_dets_mp
from scatter1d.core import (
    EigenvalueAtOne,
    NonFiniteSample,
    NonPositiveK,
    NonUniformGrid,
    PreconditionViolated,
    ScatterError,
    TauTooSmall,
    TTooLarge,
    ZETA_PRIME_MINUS_ONE,
)
from scatter1d.spectral import (
    EIG_ONE_TOL,
    PARITY_EVEN,
    PARITY_ODD,
    QUAD_ORDER,
    T_MAX,
    _sinc,
    asymptotic_log_det,
    fredholm_log_dets,
    fredholm_report,
    jost_forms,
    marchenko_residual,
    phase_shift,
    sine_kernel_spectrum,
)
from scatter1d.szego import szego_limit_check


class TestKernelSpec:
    def test_guards(self):
        with pytest.raises(PreconditionViolated, match="parity"):
            marchenko_residual("both", 1.0)
        # The parity is refused before t is looked at.
        with pytest.raises(PreconditionViolated, match="parity"):
            marchenko_residual("both", 7.0)
        for call in (sine_kernel_spectrum, fredholm_log_dets, lambda t: marchenko_residual(PARITY_EVEN, t)):
            with pytest.raises(PreconditionViolated):
                call(0.0)
            with pytest.raises(TTooLarge):
                call(7.0)


class TestSinc:
    def test_matches_library_sinc_away_from_zero(self):
        u = np.array([0.5, 1.0, 3.14, 10.0])
        np.testing.assert_allclose(_sinc(u), np.sinc(u / np.pi), rtol=1e-14)

    def test_taylor_region_is_smooth_and_exact(self):
        u = np.array([0.0, 1e-9, 1e-7])
        vals = _sinc(u)
        assert vals[0] == 1.0
        np.testing.assert_allclose(vals, 1.0 - u * u / 6.0, rtol=0, atol=1e-16)


class TestSpectrum:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_eigenvalues_live_in_the_unit_interval(self, t):
        spec = sine_kernel_spectrum(t)
        for eigs in (spec.even_eigs, spec.odd_eigs):
            assert np.all(eigs >= 0.0)
            assert np.all(eigs <= 1.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_merged_spectrum_is_descending(self, t):
        spec = sine_kernel_spectrum(t)
        assert np.all(np.diff(spec.merged) <= 1e-10)
        np.testing.assert_array_equal(spec.merged[0::2], spec.even_eigs)
        np.testing.assert_array_equal(spec.merged[1::2], spec.odd_eigs)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_parity_union_matches_full_interval_oracle(self, t):
        # The library splits the kernel by parity on [0, pi t]; the oracle
        # diagonalizes the untouched kernel on [-pi t, pi t].
        spec = sine_kernel_spectrum(t)
        oracle = full_interval_sine_eigs(t, 400)
        keep = 40
        diff = np.max(np.abs(spec.merged[:keep] - oracle[:keep]))
        assert diff < 1e-10, f"t={t}: union off the oracle by {diff}"

    def test_small_t_rank_one_limit(self):
        # As t -> 0 the top even eigenvalue approaches 2t and everything
        # else is negligible.
        t = 0.005
        eigs = sine_kernel_spectrum(t).even_eigs
        assert abs(eigs[0] / (2.0 * t) - 1.0) < 0.01
        assert eigs[1] < 1e-6


class TestOneTablePerT:
    """Both channels at one t come from one Nystrom table: two sinc calls."""

    @pytest.fixture
    def sinc_calls(self, monkeypatch):
        calls = []

        def counting_sinc(u):
            calls.append(u.shape)
            return _sinc(u)

        monkeypatch.setattr(spectral, "_sinc", counting_sinc)
        return calls

    def test_report_builds_one_table_per_t(self, sinc_calls):
        grid = np.arange(1.0, 1.1 + 0.0125, 0.025)
        fredholm_report(grid)
        assert grid.size == 5
        assert sinc_calls == [(QUAD_ORDER, QUAD_ORDER)] * (2 * grid.size)

    def test_spectrum_builds_one_table(self, sinc_calls):
        sine_kernel_spectrum(1.0)
        assert sinc_calls == [(QUAD_ORDER, QUAD_ORDER)] * 2

    def test_szego_cross_check_builds_one_table(self, sinc_calls):
        szego_limit_check(8, 1.0)
        assert sinc_calls == [(QUAD_ORDER, QUAD_ORDER)] * 2

    def test_log_dets_build_one_table(self, sinc_calls):
        fredholm_log_dets(1.0)
        assert sinc_calls == [(QUAD_ORDER, QUAD_ORDER)] * 2

    def test_marchenko_residual_builds_one_table(self, sinc_calls):
        marchenko_residual(PARITY_ODD, 1.0)
        assert sinc_calls == [(QUAD_ORDER, QUAD_ORDER)] * 2


class TestGaussLegendreNodes:
    def test_nodes_are_computed_once_per_order(self, monkeypatch):
        calls = []

        def counting_leggauss(order):
            calls.append(order)
            return np.polynomial.legendre.leggauss(order)

        monkeypatch.setattr(spectral, "leggauss", counting_leggauss)
        spectral._gauss_legendre.cache_clear()
        first = sine_kernel_spectrum(1.0).even_eigs
        again = sine_kernel_spectrum(1.0).even_eigs
        sine_kernel_spectrum(2.0)
        fredholm_log_dets(2.0)
        marchenko_residual(PARITY_ODD, 2.0)
        fredholm_report(np.arange(1.0, 1.1 + 0.0125, 0.025))
        assert calls == [spectral.QUAD_ORDER]
        assert np.array_equal(first, again)

    def test_cached_nodes_are_read_only(self):
        nodes, weights = spectral._gauss_legendre()
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


# log det(1 - K) from an mpmath Nystrom rule: m = 80 Gauss-Legendre nodes
# found by Newton's method on P_m, the kernel and an LU determinant, all at
# 60 digits.  The same rule at m = 60 and 50 digits agrees to 3e-45.
# Each t maps to its (even, odd) pair.
MPMATH_LOG_DETS = {
    1.0: (-4.2459977592150111718, -1.4097590865489303671),
    2.0: (-13.296505797963183495, -7.3398529043016329358),
    2.9: (-25.634988429150586871, -16.857176895999712844),
}


class TestFredholmLogDets:
    @pytest.mark.parametrize("t", sorted(MPMATH_LOG_DETS))
    def test_default_order_matches_mpmath_reference(self, t):
        # The error is rounding in forming I - K, which grows with t; at
        # t = 2.9 it is 6.3e-11 in the even channel.
        tolerance = 1e-10 if t <= 2.0 else 1e-8
        for value, reference in zip(fredholm_log_dets(t), MPMATH_LOG_DETS[t], strict=True):
            assert abs(value - reference) < tolerance

    def test_split_product_equals_full_determinant(self):
        t = 1.0
        split = sum(fredholm_log_dets(t))
        oracle = full_interval_sine_eigs(t, 400)
        full = float(np.sum(np.log1p(-oracle[oracle >= 1e-16])))
        assert abs(split - full) < 1e-8

    def test_small_t_limit_is_weakly_attenuating(self):
        val = fredholm_log_dets(0.001)[0]
        assert -0.01 < val < 0.0

    @pytest.mark.parametrize("t", [5.3, 5.5, 6.0])
    def test_eigenvalue_at_one_refuses_the_pair_when_t_is_deep(self, t):
        # The even channel refuses; the message prints its top eigenvalue
        # as a plain float, which may have clipped to 1.0.  marchenko_residual
        # reads the pair, so the odd residual, whose log det is off by up to
        # 7.1e-3 here, refuses too.
        def top_eigenvalue(error):
            match = re.search(r"top eigenvalue (\S+) is within", str(error.value))
            return float(match.group(1))

        with pytest.raises(EigenvalueAtOne) as error:
            fredholm_log_dets(t)
        assert 1.0 - EIG_ONE_TOL <= top_eigenvalue(error) <= 1.0
        for parity in (PARITY_EVEN, PARITY_ODD):
            with pytest.raises(EigenvalueAtOne) as error:
                marchenko_residual(parity, t)
            assert 1.0 - EIG_ONE_TOL <= top_eigenvalue(error) <= 1.0

    def test_deepest_supported_t_works_at_the_default_order(self):
        assert all(math.isfinite(val) for val in fredholm_log_dets(5.0))

    def test_quadrature_order_has_converged_at_t_max(self):
        # The same Nystrom rule in mpmath, so no double rounding enters: at
        # 40 digits, orders QUAD_ORDER and QUAD_ORDER + 16 agree to 7.7e-25
        # at T_MAX in both channels.  An order too low to converge fails
        # here instead of printing values that are silently wrong.
        coarse = nystrom_log_dets_mp(T_MAX, QUAD_ORDER, 40)
        fine = nystrom_log_dets_mp(T_MAX, QUAD_ORDER + 16, 40)
        for low, high in zip(coarse, fine, strict=True):
            assert abs(low - high) <= 1e-20


class TestAsymptoticLogDet:
    def test_frozen_values_at_t_one(self):
        assert abs(asymptotic_log_det(PARITY_EVEN, 1.0) - (-4.2272524506857705)) < 1e-12
        assert abs(asymptotic_log_det(PARITY_ODD, 1.0) - (-1.4322333873759496)) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_parity_gap_is_linear_in_tau(self, t):
        # even minus odd collapses to -pi t + log(2)/2 exactly.
        gap = asymptotic_log_det(PARITY_EVEN, t) - asymptotic_log_det(PARITY_ODD, t)
        assert abs(gap - (-math.pi * t + 0.5 * math.log(2.0))) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_parity_sum_matches_full_interval_form(self, t):
        tau = math.pi * t
        expect = (
            -tau * tau / 2.0
            - math.log(tau) / 4.0
            + math.log(2.0) / 12.0
            + 3.0 * ZETA_PRIME_MINUS_ONE
        )
        total = asymptotic_log_det(PARITY_EVEN, t) + asymptotic_log_det(PARITY_ODD, t)
        assert abs(total - expect) < 1e-12

    def test_residual_against_quadrature_shrinks_with_t(self):
        pairs = {t: fredholm_log_dets(t) for t in (1.0, 2.0)}
        for i, parity in enumerate((PARITY_EVEN, PARITY_ODD)):
            res = [abs(pairs[t][i] - asymptotic_log_det(parity, t)) for t in (1.0, 2.0)]
            assert res[1] < res[0]
            assert res[1] < 0.05


class TestReconstructedPotential:
    """The report's w columns; the grid rules belong to fredholm_report."""

    GRID = np.arange(2.2, 2.9 + 0.0125, 0.025)

    def test_reconstructed_potential_tail(self):
        # W(tau) ~ -1/(4 tau^2): the scaled combination W * 4 tau^2 sits
        # near -1 at tau ~ 8.  Values frozen at quadrature order 200, checked
        # at QUAD_ORDER, which gives -0.88429 and -1.14103.
        report = fredholm_report(self.GRID)
        tau = math.pi * self.GRID
        i = int(np.argmin(np.abs(tau[1:-1] - 8.0))) + 1
        for w, ref in ((report.w_plus, -0.884311), (report.w_minus, -1.141033)):
            scaled = w[i] * 4.0 * tau[i] ** 2
            assert abs(scaled + 1.0) <= 0.2
            assert abs(scaled - ref) < 5e-3

    def test_stencil_recovers_symbolic_tail_from_asymptotics(self):
        # Feeding the closed-form log determinant through the same stencil
        # must land on -1/(4 tau^2) up to stencil truncation alone.
        for parity in (PARITY_EVEN, PARITY_ODD):
            logf = np.array([asymptotic_log_det(parity, t) for t in self.GRID])
            h_tau = math.pi * (self.GRID[1] - self.GRID[0])
            second = (logf[2:] - 2.0 * logf[1:-1] + logf[:-2]) / (h_tau * h_tau)
            w = -2.0 * second - 1.0
            tau = math.pi * self.GRID[1:-1]
            assert np.max(np.abs(w + 0.25 / tau**2)) < 1e-6

    def test_interior_alignment(self):
        # The stencil loses exactly the two endpoints, in both channels.
        report = fredholm_report(self.GRID)
        for w in (report.w_plus, report.w_minus):
            assert w.shape == self.GRID.shape
            assert np.isnan(w[0]) and np.isnan(w[-1])
            assert np.all(np.isfinite(w[1:-1]))

    @pytest.mark.parametrize(
        "grid, error, message",
        [
            (np.array([1.0, 1.1, 1.2]), PreconditionViolated, "at least 5 points"),
            (np.arange(1.0, 2.0, 0.1), PreconditionViolated, "exceeds 0.05"),
            (1.0 + 1e-5 * np.arange(5), PreconditionViolated, "below 0.0001, where w is rounding noise"),
            (np.array([1.0, 1.02, 1.05, 1.07, 1.1]), NonUniformGrid, "t grid spacing is not uniform"),
            (np.linspace(1.1, 1.0, 5), NonUniformGrid, "strictly increasing"),
            (np.array([1.0, 1.025, np.nan, 1.075, 1.1]), NonFiniteSample, "t grid"),
            (np.arange(5.9, 6.2, 0.025), TTooLarge, "beyond 6.0"),
        ],
        ids=["few-points", "wide", "narrow", "non-uniform", "decreasing", "nan", "beyond-t-max"],
    )
    def test_grid_guards(self, grid, error, message):
        with pytest.raises(error, match=message):
            fredholm_report(grid)

    def test_spacing_at_the_rounding_floor_is_accepted(self):
        # At t = 1 the even w reads -0.018226 at h = 1e-4 but -0.018269 and
        # -0.015315 at 1e-5 and 1e-6: below the floor it is rounding noise.
        # The floor itself is accepted, also where t is large and the
        # spacing formed from it rounds below 1e-4.
        w = fredholm_report(1.0 + 1e-4 * np.arange(5)).w_plus
        assert abs(w[2] + 0.018226) < 5e-6
        w = fredholm_report(5.2 + 1e-4 * np.arange(5)).w_plus
        assert np.all(np.isfinite(w[1:-1]))


class TestPhaseShift:
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
    def test_tangent_identities(self, k):
        shift = phase_shift(k)
        assert abs(k * math.tan(2.0 * shift.eta_even) + 1.0) < 1e-12
        assert abs(k * math.tan(2.0 * shift.eta_odd) - 1.0) < 1e-12
        assert abs(shift.eta_even + shift.eta_odd) < 1e-15

    def test_reference_value(self):
        assert abs(phase_shift(1.0).eta_even + math.pi / 8.0) < 1e-15

    @pytest.mark.parametrize("k", [1e-6, 1e-9])
    def test_small_k_passes_its_own_identity_check(self, k):
        # 2 eta_even sits next to a pole of tan, so the identity residual
        # is rounding of size eps / k, not a broken branch.
        shift = phase_shift(k)
        assert abs(shift.eta_even + math.pi / 4.0) < 2.0 * k

    def test_rejects_nonpositive_k(self):
        with pytest.raises(NonPositiveK):
            phase_shift(0.0)
        with pytest.raises(NonPositiveK):
            phase_shift(-1.0)

    @pytest.mark.parametrize("k", [1e-13, 1e-300])
    def test_refuses_k_where_the_branches_look_alike(self, k):
        with pytest.raises(PreconditionViolated, match="below"):
            phase_shift(k)

    @pytest.mark.parametrize("k", [spectral.PHASE_K_MIN, 1e-9, 1.0, 1e6])
    def test_identity_check_catches_a_flipped_branch(self, monkeypatch, k):
        shift = spectral.PhaseShift
        flipped = lambda k, eta_even, eta_odd: shift(k, eta_odd, eta_even)
        monkeypatch.setattr(spectral, "PhaseShift", flipped)
        with pytest.raises(ScatterError, match="phase identity violated"):
            phase_shift(k)


class TestJostForms:
    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
    def test_branch_and_modulus(self, k):
        forms = jost_forms(k)
        assert abs(forms.a_odd**2 - k / (k + 1j)) < 1e-14
        assert abs(forms.exp_ieta_even**4 - (k - 1j) / (k + 1j)) < 1e-14
        assert abs(abs(forms.exp_ieta_even) - 1.0) < 1e-14

    @pytest.mark.parametrize("k", [0.1, 1.0, 10.0, 100.0])
    def test_argument_reproduces_even_phase(self, k):
        forms = jost_forms(k)
        eta = phase_shift(k).eta_even
        assert abs(np.angle(forms.exp_ieta_even) - eta) < 1e-12

    def test_reference_modulus_at_unit_k(self):
        assert abs(abs(jost_forms(1.0).a_odd) - 0.5**0.25) < 1e-14

    def test_rejects_nonpositive_k(self):
        with pytest.raises(NonPositiveK):
            jost_forms(0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_closed_forms_refuse_non_finite_input(bad):
    # Unchecked, k = inf fails the phase identity with a bare ScatterError,
    # gives NaN Jost forms, and t = inf gives a log det of -inf.
    for call in (phase_shift, jost_forms, lambda t: asymptotic_log_det(PARITY_EVEN, t)):
        with pytest.raises(PreconditionViolated, match=f"must be finite, got {bad}"):
            call(bad)


class TestMarchenko:
    def test_even_residual_is_small_and_decreasing(self):
        vals = [marchenko_residual(PARITY_EVEN, t) for t in (1.5, 2.0, 2.5, 3.0)]
        assert abs(vals[-1]) <= 0.02
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_residual_decreases_too(self):
        vals = [marchenko_residual(PARITY_ODD, t) for t in (1.5, 2.0, 2.5, 3.0)]
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_channel_rejects_small_tau(self):
        with pytest.raises(TauTooSmall):
            marchenko_residual(PARITY_ODD, 0.15)
        # The even channel has no such restriction.
        assert math.isfinite(marchenko_residual(PARITY_EVEN, 0.15))


class TestFredholmReport:
    def test_shapes_and_nan_policy(self):
        grid = np.arange(0.1, 0.5 + 0.0125, 0.025)
        report = fredholm_report(grid)
        n = grid.size
        for arr in (
            report.logf_plus,
            report.logf_minus,
            report.asym_residual_plus,
            report.asym_residual_minus,
            report.w_plus,
            report.w_minus,
            report.marchenko_plus,
            report.marchenko_minus,
        ):
            assert arr.shape == (n,)
        # The stencil loses both endpoints.
        assert np.isnan(report.w_plus[0]) and np.isnan(report.w_plus[-1])
        assert np.all(np.isfinite(report.w_plus[1:-1]))
        # The odd-channel replacement only exists for tau > 1/2.
        expect_nan = math.pi * grid <= 0.5
        np.testing.assert_array_equal(np.isnan(report.marchenko_minus), expect_nan)
        assert np.all(np.isfinite(report.marchenko_plus))

    @staticmethod
    def _assert_report_matches_pointwise_calls(start):
        # Every column comes from one sweep and must equal, bit for bit, what
        # the public pointwise functions give on the same grid.
        grid = np.arange(start, start + 0.2 + 0.0125, 0.025)
        report = fredholm_report(grid)
        pairs = [fredholm_log_dets(t) for t in grid.tolist()]
        for channel, (parity, tag) in enumerate(((PARITY_EVEN, "plus"), (PARITY_ODD, "minus"))):
            logf = getattr(report, f"logf_{tag}")
            marchenko = getattr(report, f"marchenko_{tag}")
            for i, t in enumerate(grid.tolist()):
                assert logf[i] == pairs[i][channel]
                assert getattr(report, f"asym_residual_{tag}")[i] == (
                    logf[i] - asymptotic_log_det(parity, t)
                )
                if parity == PARITY_ODD and math.pi * t <= 0.5:
                    assert np.isnan(marchenko[i])
                    with pytest.raises(TauTooSmall):
                        marchenko_residual(parity, t)
                else:
                    assert marchenko[i] == marchenko_residual(parity, t)

    def test_report_matches_pointwise_calls(self):
        self._assert_report_matches_pointwise_calls(1.0)

    def test_report_matches_pointwise_calls_across_odd_threshold(self):
        # This grid crosses tau = 1/2, where the odd replacement starts.
        self._assert_report_matches_pointwise_calls(0.1)
