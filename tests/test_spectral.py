"""Sine-kernel spectra, Fredholm determinants, and inverse-spectral forms."""

import math

import numpy as np
import pytest

import scatter1d.spectral as spectral
from helpers import full_interval_sine_eigs
from scatter1d.core import (
    EigenvalueAtOne,
    NonPositiveK,
    NonUniformGrid,
    PreconditionViolated,
    QuadOrderTooSmall,
    ScatterError,
    TauTooSmall,
    TTooLarge,
    ZETA_PRIME_MINUS_ONE,
)
from scatter1d.spectral import (
    PARITY_EVEN,
    PARITY_ODD,
    KernelSpec,
    _sinc,
    asymptotic_log_det,
    fredholm_log_det,
    fredholm_report,
    gelfand_levitan_potential,
    jost_forms,
    marchenko_residual,
    phase_shift,
    sine_kernel_eigs,
    sine_kernel_spectrum,
)


class TestKernelSpec:
    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            KernelSpec("both", 1.0, 128)
        with pytest.raises(PreconditionViolated):
            KernelSpec(PARITY_EVEN, 0.0, 128)
        with pytest.raises(TTooLarge):
            KernelSpec(PARITY_EVEN, 7.0, 128)
        with pytest.raises(QuadOrderTooSmall):
            KernelSpec(PARITY_EVEN, 1.0, 32)

    def test_quadrature_order_is_capped(self):
        # Only the refusal is exercised: memory grows with the order squared.
        KernelSpec(PARITY_EVEN, 1.0, spectral.MAX_QUAD_ORDER)
        with pytest.raises(PreconditionViolated, match=str(spectral.MAX_QUAD_ORDER)) as info:
            KernelSpec(PARITY_EVEN, 1.0, spectral.MAX_QUAD_ORDER + 1)
        assert not isinstance(info.value, QuadOrderTooSmall)


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
        spec = sine_kernel_spectrum(t, 200)
        for eigs in (spec.even_eigs, spec.odd_eigs):
            assert np.all(eigs >= 0.0)
            assert np.all(eigs <= 1.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_merged_spectrum_is_descending(self, t):
        spec = sine_kernel_spectrum(t, 200)
        assert np.all(np.diff(spec.merged) <= 1e-10)
        np.testing.assert_array_equal(spec.merged[0::2], spec.even_eigs)
        np.testing.assert_array_equal(spec.merged[1::2], spec.odd_eigs)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_parity_union_matches_full_interval_oracle(self, t):
        # The library splits the kernel by parity on [0, pi t]; the oracle
        # diagonalizes the untouched kernel on [-pi t, pi t].
        spec = sine_kernel_spectrum(t, 200)
        oracle = full_interval_sine_eigs(t, 400)
        keep = 40
        diff = np.max(np.abs(spec.merged[:keep] - oracle[:keep]))
        assert diff < 1e-10, f"t={t}: union off the oracle by {diff}"

    def test_small_t_rank_one_limit(self):
        # As t -> 0 the top even eigenvalue approaches 2t and everything
        # else is negligible.
        t = 0.005
        eigs = sine_kernel_eigs(KernelSpec(PARITY_EVEN, t, 64))
        assert abs(eigs[0] / (2.0 * t) - 1.0) < 0.01
        assert eigs[1] < 1e-6


class TestGaussLegendreNodes:
    def test_nodes_are_computed_once_per_order(self, monkeypatch):
        calls = []

        def counting_leggauss(order):
            calls.append(order)
            return np.polynomial.legendre.leggauss(order)

        monkeypatch.setattr(spectral, "leggauss", counting_leggauss)
        spectral._gauss_legendre.cache_clear()
        first = sine_kernel_eigs(KernelSpec(PARITY_EVEN, 1.0, 97))
        again = sine_kernel_eigs(KernelSpec(PARITY_EVEN, 1.0, 97))
        sine_kernel_eigs(KernelSpec(PARITY_ODD, 2.0, 97))
        assert calls == [97]
        assert np.array_equal(first, again)

    def test_cached_nodes_are_read_only(self):
        nodes, weights = spectral._gauss_legendre(64)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


# log det(1 - K) from an mpmath Nystrom rule: m = 80 Gauss-Legendre nodes
# found by Newton's method on P_m, the kernel and an LU determinant, all at
# 60 digits.  The same rule at m = 60 and 50 digits agrees to 3e-45.
MPMATH_LOG_DETS = {
    (1.0, PARITY_EVEN): -4.2459977592150111718,
    (1.0, PARITY_ODD): -1.4097590865489303671,
    (2.0, PARITY_EVEN): -13.296505797963183495,
    (2.0, PARITY_ODD): -7.3398529043016329358,
    (2.9, PARITY_EVEN): -25.634988429150586871,
    (2.9, PARITY_ODD): -16.857176895999712844,
}


class TestFredholmLogDet:
    @pytest.mark.parametrize("t, parity", sorted(MPMATH_LOG_DETS))
    def test_default_order_matches_mpmath_reference(self, t, parity):
        # The error is rounding in forming I - K, which grows with t and
        # with the order; at t = 2.9 the default order gives 2.8e-9.
        tolerance = 1e-10 if t <= 2.0 else 1e-8
        value = fredholm_log_det(parity, t, spectral.QUAD_ORDER)
        assert abs(value - MPMATH_LOG_DETS[t, parity]) < tolerance

    def test_quadrature_doubling_is_converged(self):
        for parity in (PARITY_EVEN, PARITY_ODD):
            a = fredholm_log_det(parity, 1.0, 150)
            b = fredholm_log_det(parity, 1.0, 300)
            assert abs(a - b) < 1e-9

    def test_split_product_equals_full_determinant(self):
        t = 1.0
        split = fredholm_log_det(PARITY_EVEN, t, 200) + fredholm_log_det(
            PARITY_ODD, t, 200
        )
        oracle = full_interval_sine_eigs(t, 400)
        full = float(np.sum(np.log1p(-oracle[oracle >= 1e-16])))
        assert abs(split - full) < 1e-8

    def test_small_t_limit_is_weakly_attenuating(self):
        val = fredholm_log_det(PARITY_EVEN, 0.001, 64)
        assert -0.01 < val < 0.0

    def test_eigenvalue_at_one_raises_when_t_is_deep(self):
        # The message prints the eigenvalue as a plain float.
        with pytest.raises(EigenvalueAtOne, match=r"top eigenvalue 0\.9999"):
            fredholm_log_det(PARITY_EVEN, 5.5, 300)

    def test_deepest_supported_t_still_works(self):
        val = fredholm_log_det(PARITY_EVEN, 5.0, 300)
        assert math.isfinite(val)

    def test_deepest_supported_t_works_at_the_default_order(self):
        val = fredholm_log_det(PARITY_EVEN, 5.0, spectral.QUAD_ORDER)
        assert math.isfinite(val)


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
        for parity in (PARITY_EVEN, PARITY_ODD):
            res = [
                abs(fredholm_log_det(parity, t, 200) - asymptotic_log_det(parity, t))
                for t in (1.0, 2.0)
            ]
            assert res[1] < res[0]
            assert res[1] < 0.05


class TestGelfandLevitan:
    GRID = np.arange(2.2, 2.9 + 0.0125, 0.025)

    def test_reconstructed_potential_tail(self):
        # W(tau) ~ -1/(4 tau^2): the scaled combination W * 4 tau^2 sits
        # near -1 at tau ~ 8.  Values frozen at quad_order=200.
        frozen = {PARITY_EVEN: -0.884311, PARITY_ODD: -1.141033}
        for parity, ref in frozen.items():
            tau, w = gelfand_levitan_potential(parity, self.GRID, 200)
            i = int(np.argmin(np.abs(tau - 8.0)))
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
        tau, w = gelfand_levitan_potential(PARITY_EVEN, self.GRID, 150)
        assert tau.size == self.GRID.size - 2
        assert w.size == tau.size
        np.testing.assert_allclose(tau, math.pi * self.GRID[1:-1], rtol=1e-15)

    def test_grid_guards(self):
        with pytest.raises(PreconditionViolated):
            gelfand_levitan_potential(PARITY_EVEN, np.array([1.0, 1.1, 1.2]), 150)
        with pytest.raises(PreconditionViolated):
            gelfand_levitan_potential(PARITY_EVEN, np.arange(1.0, 2.0, 0.1), 150)
        bad = np.array([1.0, 1.02, 1.05, 1.07, 1.1])
        with pytest.raises(NonUniformGrid):
            gelfand_levitan_potential(PARITY_EVEN, bad, 150)
        with pytest.raises(TTooLarge):
            gelfand_levitan_potential(
                PARITY_EVEN, np.arange(5.9, 6.2, 0.025), 150
            )


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
        vals = [marchenko_residual(PARITY_EVEN, t, 300) for t in (1.5, 2.0, 2.5, 3.0)]
        assert abs(vals[-1]) <= 0.02
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_residual_decreases_too(self):
        vals = [marchenko_residual(PARITY_ODD, t, 300) for t in (1.5, 2.0, 2.5, 3.0)]
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_channel_rejects_small_tau(self):
        with pytest.raises(TauTooSmall):
            marchenko_residual(PARITY_ODD, 0.15, 128)
        # The even channel has no such restriction.
        assert math.isfinite(marchenko_residual(PARITY_EVEN, 0.15, 128))


class TestFredholmReport:
    def test_shapes_and_nan_policy(self):
        grid = np.arange(0.1, 0.5 + 0.0125, 0.025)
        report = fredholm_report(grid, 96)
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

    def test_report_matches_pointwise_calls(self):
        grid = np.arange(1.0, 1.2 + 0.0125, 0.025)
        report = fredholm_report(grid, 96)
        for i, t in enumerate(grid):
            assert report.logf_plus[i] == fredholm_log_det(PARITY_EVEN, float(t), 96)
            assert report.logf_minus[i] == fredholm_log_det(PARITY_ODD, float(t), 96)
