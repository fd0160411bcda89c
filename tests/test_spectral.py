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
    EIG_CLIP_TOL,
    EIG_ONE_TOL,
    QUAD_ORDER,
    SPECTRA_BLOCK,
    T_MAX,
    _sinc,
    asymptotic_log_dets,
    fredholm_log_dets,
    fredholm_report,
    jost_forms,
    marchenko_residuals,
    phase_shift,
    sine_kernel_spectrum,
)
from scatter1d.szego import szego_limit_check


def _ladder(stack, top=1.0):
    """What eigvalsh gives for stack, with every row replaced by an ascending 0..top ladder.

    The stack holds the channel axis first: (2, T, m, m) gives (2, T, m).
    """
    return np.broadcast_to(np.linspace(0.0, top, QUAD_ORDER), stack.shape[:-1]).copy()


@pytest.fixture
def patch_eigvalsh(monkeypatch):
    """Sets numpy's eigvalsh to a replacement, once the cached Gauss-Legendre
    nodes, whose leggauss calls eigvalsh too, have been formed."""
    spectral._gauss_legendre()
    return lambda replacement: monkeypatch.setattr(np.linalg, "eigvalsh", replacement)


class TestKernelSpec:
    def test_guards(self):
        # t itself is checked before the Marchenko pair's tau > 1/2.
        for call in (sine_kernel_spectrum, fredholm_log_dets, marchenko_residuals):
            with pytest.raises(PreconditionViolated, match="t must be positive, got 0.0"):
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
        assert spec.shape == (2, QUAD_ORDER)
        assert np.all(spec >= 0.0)
        assert np.all(spec <= 1.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_merged_spectrum_is_descending(self, t):
        # Even row first: the interleaved sequence starts with lambda_0 of K_plus.
        spec = sine_kernel_spectrum(t)
        merged = spec.T.ravel()
        assert np.all(np.diff(merged) <= 1e-10)
        np.testing.assert_array_equal(merged[0::2], spec[0])
        np.testing.assert_array_equal(merged[1::2], spec[1])

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_parity_union_matches_full_interval_oracle(self, t):
        # The library splits the kernel by parity on [0, pi t]; the oracle
        # diagonalizes the untouched kernel on [-pi t, pi t].
        spec = sine_kernel_spectrum(t)
        oracle = full_interval_sine_eigs(t, 400)
        keep = 40
        diff = np.max(np.abs(spec.T.ravel()[:keep] - oracle[:keep]))
        assert diff < 1e-10, f"t={t}: union off the oracle by {diff}"

    def test_small_t_rank_one_limit(self):
        # As t -> 0 the top even eigenvalue approaches 2t and everything
        # else is negligible.
        t = 0.005
        eigs = sine_kernel_spectrum(t)[0]
        assert abs(eigs[0] / (2.0 * t) - 1.0) < 0.01
        assert eigs[1] < 1e-6

    @pytest.mark.parametrize("row", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("stray", [1.0 + 2.0 * EIG_CLIP_TOL, -2.0 * EIG_CLIP_TOL], ids=["above", "below"])
    def test_eigenvalues_beyond_the_clip_tolerance_are_refused(self, patch_eigvalsh, row, stray):
        # Quadrature rounding keeps raw eigenvalues within EIG_CLIP_TOL of
        # [0, 1]; a stray of twice that in either row, at any t of a stack,
        # is refused, not clipped.  Here it sits at the third t of a report's
        # block, or at the one t of a spectrum.
        def stray_eigvalsh(stack):
            eigs = _ladder(stack, top=0.5)
            eigs[row, min(2, stack.shape[1] - 1), -1 if stray > 0.5 else 0] = stray
            return eigs

        patch_eigvalsh(stray_eigvalsh)
        with pytest.raises(ScatterError, match=r"eigenvalues escape \[0, 1\] beyond tolerance"):
            sine_kernel_spectrum(1.0)
        grid = 1.0 + 0.025 * np.arange(5)
        with pytest.raises(ScatterError, match=rf"beyond tolerance: .* \(t {re.escape(str(grid[2]))}, quad_order"):
            fredholm_report(grid)

    def test_eigenvalues_within_the_clip_tolerance_are_clipped(self, patch_eigvalsh):
        def rounded_eigvalsh(stack):
            eigs = _ladder(stack)
            eigs[..., 0], eigs[..., -1] = -0.5 * EIG_CLIP_TOL, 1.0 + 0.5 * EIG_CLIP_TOL
            return eigs

        patch_eigvalsh(rounded_eigvalsh)
        spec = sine_kernel_spectrum(1.0)
        np.testing.assert_array_equal(spec[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(spec[:, -1], [0.0, 0.0])
        spectra, refusal = spectral._spectra(1.0 + 0.025 * np.arange(5))
        assert refusal is None
        assert spectra.shape == (5, 2, QUAD_ORDER)
        np.testing.assert_array_equal(spectra[..., 0], 1.0)
        np.testing.assert_array_equal(spectra[..., -1], 0.0)


class TestOneTablePerT:
    """Each t has its own Nystrom table, formed in stacks of at most
    SPECTRA_BLOCK t values: two sinc calls and one eigvalsh call per stack,
    on both channels' matrices, the channel axis first."""

    @staticmethod
    def stack(size):
        return (2, size, QUAD_ORDER, QUAD_ORDER)

    @pytest.fixture
    def sinc_calls(self, monkeypatch):
        calls = []

        def counting_sinc(u):
            calls.append(u.shape)
            return _sinc(u)

        monkeypatch.setattr(spectral, "_sinc", counting_sinc)
        return calls

    @pytest.fixture
    def eigvalsh_calls(self, patch_eigvalsh):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a):
            calls.append(a.shape)
            return eigvalsh(a)

        patch_eigvalsh(counting_eigvalsh)
        return calls

    @pytest.mark.parametrize("blocks", [[5], [SPECTRA_BLOCK, SPECTRA_BLOCK, 3]], ids=["one", "three"])
    def test_report_builds_one_stack_per_block(self, sinc_calls, eigvalsh_calls, blocks):
        grid = 1.0 + 0.025 * np.arange(sum(blocks))
        fredholm_report(grid)
        assert sinc_calls == [(size, QUAD_ORDER, QUAD_ORDER) for size in blocks for _ in range(2)]
        assert eigvalsh_calls == [self.stack(size) for size in blocks]

    @pytest.mark.parametrize(
        "call",
        [
            sine_kernel_spectrum,
            fredholm_log_dets,
            marchenko_residuals,
            lambda t: szego_limit_check(8, t),
        ],
        ids=["spectrum", "log_dets", "marchenko_residuals", "szego_cross_check"],
    )
    def test_one_t_builds_one_table(self, sinc_calls, eigvalsh_calls, call):
        call(1.0)
        assert sinc_calls == [(1, QUAD_ORDER, QUAD_ORDER)] * 2
        assert eigvalsh_calls == [self.stack(1)]


class TestStackedSpectra:
    """A stack of t values gives, bit for bit, what one-t calls give."""

    @pytest.mark.parametrize("size", [1, SPECTRA_BLOCK - 1, SPECTRA_BLOCK, SPECTRA_BLOCK + 1, 41])
    def test_stack_equals_one_t_calls(self, size):
        # From t = 1e-3 to 5.25; the one-t stack takes 5.25.
        ts = np.linspace(5.25, 1e-3, size)[::-1]
        spectra, refusal = spectral._spectra(ts)
        assert refusal is None
        np.testing.assert_array_equal(spectra, [sine_kernel_spectrum(t) for t in ts.tolist()])
        assert spectral._log_dets(spectra, ts) == [list(fredholm_log_dets(t)) for t in ts.tolist()]

    @pytest.mark.parametrize("size", [SPECTRA_BLOCK - 1, SPECTRA_BLOCK, SPECTRA_BLOCK + 1, 41])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_report_columns_equal_one_t_calls(self, size, end):
        # Grids at spacing 0.05 that start at t = 1e-3 or end at 5.25.
        start = 1e-3 if end == "first" else 5.25 - 0.05 * (size - 1)
        grid = start + 0.05 * np.arange(size)
        report = fredholm_report(grid)
        logf = np.array([fredholm_log_dets(t) for t in grid.tolist()]).T
        asym = np.array([asymptotic_log_dets(t) for t in grid.tolist()]).T
        np.testing.assert_array_equal([report["logf_plus"], report["logf_minus"]], logf)
        np.testing.assert_array_equal([report["asym_residual_plus"], report["asym_residual_minus"]], logf - asym)


class TestRefusalOrder:
    """A report refuses for its first failing t in grid order, as one t
    refuses: a clip excursion first, then the even EigenvalueAtOne, then the
    odd one.  The faults go into the second block of the grid."""

    GRID = 1.0 + 0.025 * np.arange(2 * SPECTRA_BLOCK + 3)
    AT_ONE = 1.0 - 0.5 * EIG_ONE_TOL

    @pytest.fixture
    def faulty_block(self, patch_eigvalsh):
        """Puts (t index in the block, row, value) faults into the second eigvalsh call."""
        eigvalsh = np.linalg.eigvalsh

        def install(faults):
            calls = []

            def faulty_eigvalsh(stack):
                eigs = eigvalsh(stack)
                calls.append(stack.shape)
                if len(calls) == 2:
                    for index, row, value in faults:
                        eigs[row, index, -1 if value > 0.5 else 0] = value
                return eigs

            patch_eigvalsh(faulty_eigvalsh)

        return install

    def grid_t(self, index):
        return re.escape(str(self.GRID[SPECTRA_BLOCK + index]))

    def test_eigenvalue_at_one_before_a_later_excursion_wins(self, faulty_block):
        faulty_block([(0, 0, self.AT_ONE), (2, 1, -2.0 * EIG_CLIP_TOL)])
        with pytest.raises(EigenvalueAtOne, match=rf"^top eigenvalue {self.AT_ONE!r} .* at t = {self.grid_t(0)};"):
            fredholm_report(self.GRID)

    def test_excursion_before_a_later_eigenvalue_at_one_wins(self, faulty_block):
        faulty_block([(0, 1, 1.0 + 2.0 * EIG_CLIP_TOL), (2, 0, self.AT_ONE)])
        with pytest.raises(ScatterError, match=rf"beyond tolerance: .* \(t {self.grid_t(0)}, quad_order"):
            fredholm_report(self.GRID)

    def test_excursion_wins_at_its_own_t(self, faulty_block):
        faulty_block([(1, 0, self.AT_ONE), (1, 1, -2.0 * EIG_CLIP_TOL)])
        with pytest.raises(ScatterError, match=rf"beyond tolerance: .* \(t {self.grid_t(1)}, quad_order"):
            fredholm_report(self.GRID)

    def test_even_channel_wins_at_its_own_t(self, faulty_block):
        odd = 1.0 - 0.25 * EIG_ONE_TOL
        faulty_block([(1, 1, odd), (1, 0, self.AT_ONE), (3, 0, odd)])
        with pytest.raises(EigenvalueAtOne, match=rf"^top eigenvalue {self.AT_ONE!r} .* at t = {self.grid_t(1)};"):
            fredholm_report(self.GRID)

    def test_odd_channel_at_an_earlier_t_wins(self, faulty_block):
        odd = 1.0 - 0.25 * EIG_ONE_TOL
        faulty_block([(1, 0, self.AT_ONE), (0, 1, odd)])
        with pytest.raises(EigenvalueAtOne, match=rf"^top eigenvalue {odd!r} .* at t = {self.grid_t(0)};"):
            fredholm_report(self.GRID)


class TestGaussLegendreNodes:
    def test_nodes_are_computed_once_per_order(self, monkeypatch):
        calls = []

        def counting_leggauss(order):
            calls.append(order)
            return np.polynomial.legendre.leggauss(order)

        monkeypatch.setattr(spectral, "leggauss", counting_leggauss)
        spectral._gauss_legendre.cache_clear()
        first = sine_kernel_spectrum(1.0)
        again = sine_kernel_spectrum(1.0)
        sine_kernel_spectrum(2.0)
        fredholm_log_dets(2.0)
        marchenko_residuals(2.0)
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
        # as a plain float, which may have clipped to 1.0.  marchenko_residuals
        # reads the pair, so it refuses too, odd residual and all, although
        # the odd log det alone (off by up to 7.1e-3 here) has no eigenvalue
        # at 1.
        def top_eigenvalue(error):
            match = re.search(r"top eigenvalue (\S+) is within", str(error.value))
            return float(match.group(1))

        with pytest.raises(EigenvalueAtOne) as error:
            fredholm_log_dets(t)
        assert 1.0 - EIG_ONE_TOL <= top_eigenvalue(error) <= 1.0
        with pytest.raises(EigenvalueAtOne) as error:
            marchenko_residuals(t)
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
        even, odd = asymptotic_log_dets(1.0)
        assert abs(even - (-4.2272524506857705)) < 1e-12
        assert abs(odd - (-1.4322333873759496)) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_parity_gap_is_linear_in_tau(self, t):
        # even minus odd collapses to -pi t + log(2)/2 exactly.
        even, odd = asymptotic_log_dets(t)
        gap = even - odd
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
        total = sum(asymptotic_log_dets(t))
        assert abs(total - expect) < 1e-12

    def test_residual_against_quadrature_shrinks_with_t(self):
        res = np.abs([np.subtract(fredholm_log_dets(t), asymptotic_log_dets(t)) for t in (1.0, 2.0)])
        assert np.all(res[1] < res[0])
        assert np.all(res[1] < 0.05)


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
        for w, ref in ((report["w_plus"], -0.884311), (report["w_minus"], -1.141033)):
            scaled = w[i] * 4.0 * tau[i] ** 2
            assert abs(scaled + 1.0) <= 0.2
            assert abs(scaled - ref) < 5e-3

    def test_stencil_recovers_symbolic_tail_from_asymptotics(self):
        # Feeding the closed-form log determinant through the same stencil
        # must land on -1/(4 tau^2) up to stencil truncation alone.
        logf = np.array([asymptotic_log_dets(t) for t in self.GRID]).T
        h_tau = math.pi * (self.GRID[1] - self.GRID[0])
        second = (logf[:, 2:] - 2.0 * logf[:, 1:-1] + logf[:, :-2]) / (h_tau * h_tau)
        w = -2.0 * second - 1.0
        tau = math.pi * self.GRID[1:-1]
        assert np.max(np.abs(w + 0.25 / tau**2)) < 1e-6

    def test_interior_alignment(self):
        # The stencil loses exactly the two endpoints, in both channels.
        report = fredholm_report(self.GRID)
        for w in (report["w_plus"], report["w_minus"]):
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
        w = fredholm_report(1.0 + 1e-4 * np.arange(5))["w_plus"]
        assert abs(w[2] + 0.018226) < 5e-6
        w = fredholm_report(5.2 + 1e-4 * np.arange(5))["w_plus"]
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
    for call in (phase_shift, jost_forms, asymptotic_log_dets):
        with pytest.raises(PreconditionViolated, match=f"must be finite, got {bad}"):
            call(bad)


class TestMarchenko:
    def test_even_residual_is_small_and_decreasing(self):
        vals = [marchenko_residuals(t)[0] for t in (1.5, 2.0, 2.5, 3.0)]
        assert abs(vals[-1]) <= 0.02
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_residual_decreases_too(self):
        vals = [marchenko_residuals(t)[1] for t in (1.5, 2.0, 2.5, 3.0)]
        for a, b in zip(vals, vals[1:]):
            assert abs(b) < abs(a)

    def test_odd_channel_rejects_small_tau(self):
        # The pair refuses as soon as its odd channel does.
        with pytest.raises(TauTooSmall):
            marchenko_residuals(0.15)
        # The even channel has no such restriction: the report keeps it.
        report = fredholm_report(0.15 + 0.025 * np.arange(5))
        assert math.isfinite(report["marchenko_plus"][0])
        assert math.isnan(report["marchenko_minus"][0])


class TestFredholmReport:
    def test_shapes_and_nan_policy(self):
        grid = np.arange(0.1, 0.5 + 0.0125, 0.025)
        report = fredholm_report(grid)
        # The columns in the order the CLI writes them.
        assert list(report) == [
            "t",
            "logf_plus",
            "logf_minus",
            "asym_residual_plus",
            "asym_residual_minus",
            "w_plus",
            "w_minus",
            "marchenko_plus",
            "marchenko_minus",
        ]
        np.testing.assert_array_equal(report["t"], grid)
        for column in report.values():
            assert column.shape == grid.shape
        # The stencil loses both endpoints.
        assert np.isnan(report["w_plus"][0]) and np.isnan(report["w_plus"][-1])
        assert np.all(np.isfinite(report["w_plus"][1:-1]))
        # The odd-channel replacement only exists for tau > 1/2.
        expect_nan = math.pi * grid <= 0.5
        np.testing.assert_array_equal(np.isnan(report["marchenko_minus"]), expect_nan)
        assert np.all(np.isfinite(report["marchenko_plus"]))

    @staticmethod
    def _assert_report_matches_pointwise_calls(start):
        # Every column comes from one sweep and must equal, bit for bit, what
        # the public pointwise pair functions give on the same grid.
        grid = np.arange(start, start + 0.2 + 0.0125, 0.025)
        report = fredholm_report(grid)
        for i, t in enumerate(grid.tolist()):
            pair = {
                name: (report[f"{name}_plus"][i], report[f"{name}_minus"][i])
                for name in ("logf", "asym_residual", "marchenko")
            }
            logf, asym = fredholm_log_dets(t), asymptotic_log_dets(t)
            assert report["t"][i] == t
            assert pair["logf"] == logf
            assert pair["asym_residual"] == (logf[0] - asym[0], logf[1] - asym[1])
            tau = math.pi * t
            if tau <= 0.5:
                with pytest.raises(TauTooSmall):
                    marchenko_residuals(t)
                assert np.isnan(pair["marchenko"][1])
                # Only the even replacement is defined: it is the even
                # asymptotic form with log(tau + 1/2) for log tau.
                closed_form = (math.log(tau + 0.5) - math.log(tau)) / 8.0
                assert abs(pair["marchenko"][0] - pair["asym_residual"][0] - closed_form) < 1e-14
            else:
                assert pair["marchenko"] == marchenko_residuals(t)

    def test_report_matches_pointwise_calls(self):
        self._assert_report_matches_pointwise_calls(1.0)

    def test_report_matches_pointwise_calls_across_odd_threshold(self):
        # This grid crosses tau = 1/2, where the odd replacement starts.
        self._assert_report_matches_pointwise_calls(0.1)
