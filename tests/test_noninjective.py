"""Potential recovery and the equal-boundary-data counterexample."""

import math
import warnings

import numpy as np
import pytest

import scatter1d.noninjective as noninjective
from scatter1d.core import (
    AllMasked,
    ComplexWavefunction,
    NodeCollision,
    NonFiniteSample,
    NonUniformGrid,
    OddChannelUnmatched,
    PreconditionViolated,
)
from scatter1d.noninjective import (
    build_counterexample,
    bump_values,
    recover_potential,
    tuning_bump_values,
    verify_same_smatrix,
)
from scatter1d.potential import Sampled, validate
from scatter1d.propagate import SCAN_STEPS, integrate


@pytest.fixture(scope="module")
def pair():
    return build_counterexample(q=1.0, eps=0.01, a=1.0)


@pytest.fixture(scope="module")
def single_bump_pair():
    return build_counterexample(q=1.0, eps=0.01, a=1.0, single_bump=True)


def make_trace(psi_func, n=257, a=1.0):
    grid = np.linspace(-a, a, n)
    return grid, psi_func(grid)


class TestBump:
    def test_smooth_bump_vanishes_to_first_order_at_edges(self):
        x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        f, fp, fpp = bump_values(1.0, 0.01, x)
        assert f[0] == 0.0 and f[-1] == 0.0
        assert fp[0] == 0.0 and fp[-1] == 0.0
        assert np.all(f[1:-1] > 0.0)
        # f'' = 4 eps (3 x^2 - a^2): 8 eps a^2 at the edges, -4 eps a^2 at 0.
        assert np.allclose(fpp, [0.08, -0.01, -0.04, -0.01, 0.08], rtol=0.0, atol=1e-16)

    def test_tuning_bump_is_edge_flat_and_even(self):
        x = np.linspace(-1.0, 1.0, 9)
        g, gp, gpp = tuning_bump_values(1.0, x)
        assert g[0] == 0.0 and g[-1] == 0.0
        assert gp[0] == 0.0 and gp[-1] == 0.0
        assert np.array_equal(g, g[::-1])
        assert np.array_equal(gp, -gp[::-1])
        assert np.array_equal(gpp, gpp[::-1])
        # Both derivatives are the analytic ones: compare with differences.
        h = 1e-6
        up, down = tuning_bump_values(1.0, x + h), tuning_bump_values(1.0, x - h)
        assert np.max(np.abs((up[0] - down[0]) / (2 * h) - gp)) < 1e-8
        assert np.max(np.abs((up[1] - down[1]) / (2 * h) - gpp)) < 1e-7


class TestRecoverPotential:
    def test_constant_potential_from_sine(self):
        # sin(x) solves psi'' = -psi, so the recovered V is E - 1 and the
        # node at the origin is masked and interpolation-filled.
        energy = 2.0
        rec = recover_potential(*make_trace(np.sin), energy)
        assert rec.mask.sum() == 1
        assert rec.mask[rec.x.size // 2]
        assert np.max(np.abs(rec.values - (energy - 1.0))) < 1e-6

    def test_cosh_gives_constant_barrier(self):
        energy = 1.0
        rec = recover_potential(*make_trace(np.cosh), energy)
        assert not rec.mask.any()
        assert np.max(np.abs(rec.values - (energy + 1.0))) < 1e-6

    def test_complex_trace_with_tiny_imag_is_accepted(self):
        rec = recover_potential(*make_trace(lambda x: np.cos(x) + 0j), 1.0)
        assert np.max(np.abs(rec.values)) < 1e-6

    def test_complex_trace_rejected(self):
        trace = make_trace(lambda x: np.cos(x) + 1e-6j * np.sin(x))
        with pytest.raises(ComplexWavefunction):
            recover_potential(*trace, 1.0)

    def test_all_masked(self):
        trace = make_trace(lambda x: np.zeros_like(x))
        with pytest.raises(AllMasked):
            recover_potential(*trace, 1.0)
        trace = make_trace(np.cos)
        with pytest.raises(AllMasked):
            recover_potential(*trace, 1.0, node_tol=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_trace_value_is_refused(self, bad):
        grid, psi = make_trace(np.cos)
        psi[100] = bad
        with pytest.raises(NonFiniteSample, match="NaN or infinite"):
            recover_potential(grid, psi, 1.0)

    @pytest.mark.parametrize("node_tol", [0.0, -1.0, np.nan])
    def test_node_tol_must_be_positive(self, node_tol):
        # With no positive threshold the node of sin at the origin would be
        # divided by and come back as NaN.
        with pytest.raises(PreconditionViolated, match="node_tol must be"):
            recover_potential(*make_trace(np.sin, n=9), 1.0, node_tol=node_tol)

    def test_exact_zero_is_masked_when_the_threshold_underflows(self):
        # node_tol * max|psi| rounds to 0 here, so only the exact-zero test
        # keeps the node at the origin out of the division.
        grid, psi = make_trace(lambda x: 1e-10 * np.sin(x))
        assert 5e-324 * np.max(np.abs(psi)) == 0.0
        rec = recover_potential(grid, psi, 2.0, node_tol=5e-324)
        assert np.flatnonzero(rec.mask).tolist() == [grid.size // 2]
        assert np.max(np.abs(rec.values - 1.0)) < 1e-6

    def test_needs_six_points(self):
        trace = make_trace(np.cos, n=5)
        with pytest.raises(PreconditionViolated, match="at least 6 rows, got 5"):
            recover_potential(*trace, 1.0)

    def test_non_uniform_grid_is_refused(self):
        # The stencil assumes one spacing; on this grid it read V(0) = 20.75
        # for a cos trace at E = 1, where V = 0 is exact.
        grid = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5, 0.6])
        with pytest.raises(NonUniformGrid, match="spacing is not uniform"):
            recover_potential(grid, np.cos(grid), 1.0)

    def test_spacing_tolerance_is_relative(self):
        # A step error of 1e-11 at h = 1e-3 is 1e-8 of the spacing: the
        # stencil divides it by h^2, so it is refused although it lies
        # below 1e-9 in absolute terms.
        grid = np.linspace(0.0, 1.0, 1001)
        grid[500] += 1e-11
        with pytest.raises(NonUniformGrid):
            recover_potential(grid, np.cos(grid), 1.0)

    def test_grid_and_trace_lengths_must_agree(self):
        grid = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(PreconditionViolated, match="equal length"):
            recover_potential(grid, np.cos(np.linspace(-1.0, 1.0, 11)), 1.0)

    def test_non_finite_grid_node_is_refused(self):
        grid, psi = make_trace(np.cos)
        grid[100] = np.nan
        with pytest.raises(NonFiniteSample, match="trace grid"):
            recover_potential(grid, psi, 1.0)

    def test_decreasing_grid_is_refused(self):
        grid, psi = make_trace(np.cos)
        with pytest.raises(NonUniformGrid, match="strictly increasing"):
            recover_potential(grid[::-1], psi, 1.0)


class TestBuildCounterexample:
    def test_boundary_data_is_identical(self, pair):
        assert pair.boundary_residual == 0.0
        assert pair.energy == 1.0

    def test_baseline_recovers_the_zero_potential(self, pair):
        # V0 = E + (-E psi0) / psi0, which is exactly 0 at E = 1.
        assert np.max(np.abs(pair.baseline.v)) == 0.0

    def test_separation_matches_edge_closed_form(self, single_bump_pair):
        # The difference peaks at the edges where it equals
        # f''(a) / cos(q a) = 8 eps a^2 / cos(q a).
        expect = 8.0 * 0.01 / math.cos(1.0)
        assert single_bump_pair.separation > 5e-3
        assert abs(single_bump_pair.separation - expect) < 1e-5

    def test_tuning_amplitude_and_separation(self, pair):
        # The Newton root for q = 1, eps = 0.01, a = 1; the tuning bump adds
        # c g''(a) / cos(q a) = 8 c a^4 / cos(q a) to the edge gap.
        assert abs(pair.odd_coefficient + 0.049571) < 1e-5
        expect = 8.0 * (0.01 + pair.odd_coefficient) / math.cos(1.0)
        assert abs(pair.separation - abs(expect)) < 1e-4

    def test_recovered_potentials_are_exactly_symmetric(self, pair):
        # Every wave and second derivative is formed on a mirrored grid from
        # even closed forms, so both tables are even bitwise and the strict
        # symmetry validation passes with no margin used.
        for pot in (pair.baseline, pair.perturbed):
            v = pot.v
            assert np.max(np.abs(v - v[::-1])) == 0.0
            validate(Sampled(a=pair.a, x=pot.x, v=v))

    def test_forward_solve_reproduces_the_wavefunction(self, pair):
        # Integrating the recovered baseline potential from the original
        # initial data must return cos(q x) on the whole grid.
        pot = pair.baseline
        trace = integrate(
            pot,
            pair.energy,
            psi0=float(np.cos(-pair.q * pair.a)),
            dpsi0=float(-pair.q * np.sin(-pair.q * pair.a)),
            steps=pot.x.size - 1,
        )
        assert np.max(np.abs(trace.psi - np.cos(pair.q * trace.grid))) < 1e-6

    def test_perturbed_value_at_origin(self, single_bump_pair):
        # psi(0) = 1 + eps and psi''(0) = -1 - 4 eps at q = a = 1, so
        # V(0) = 1 - 1.04 / 1.01 up to the rounding of forming it.
        mid = single_bump_pair.perturbed.x.size // 2
        expect = 1.0 - 1.04 / 1.01
        assert abs(single_bump_pair.perturbed.v[mid] - expect) < 1e-14

    @pytest.mark.parametrize("steps", [16384, 65536])
    def test_refining_steps_does_not_lose_digits(self, steps):
        # V is formed from the closed-form psi'', so no h^-2 rounding grows
        # with the step count: the full matrices stay at rounding level.
        pair = build_counterexample(q=1.0, eps=0.01, a=1.0, steps=steps)
        assert pair.comparison.max_entry_diff <= 1e-12

    @pytest.mark.parametrize(
        "q, eps, a",
        [(1.0, 0.01, 1.0), (1.446832, 0.04, 1.0), (0.5, 0.01, 1.3)],
    )
    def test_tuning_amplitude_matches_an_independent_root(self, q, eps, a):
        # Equal boundary data leave the odd channel to the integral of
        # psi^-2, which for cos(q x) on [0, a] is tan(q a) / q.
        from scipy.integrate import quad
        from scipy.optimize import brentq

        def gap(c):
            def wave(x):
                w = x * x - a * a
                return math.cos(q * x) + eps * w * w + c * x * x * w * w

            return quad(lambda x: wave(x) ** -2, 0.0, a, epsabs=0.0, epsrel=1e-13)[0] - math.tan(q * a) / q

        root = brentq(gap, -10 * eps, 0.0, xtol=1e-15, rtol=1e-14)
        pair = build_counterexample(q=q, eps=eps, a=a)
        assert abs(pair.odd_coefficient - root) <= 1e-8 * abs(root)

    @pytest.mark.parametrize("q, a, steps", [(1.0, 0.7, 4096), (0.5, 1.3, 4096), (1.0, 1.0, 4092)])
    def test_grids_that_are_not_powers_of_two_answer(self, q, a, steps):
        # The grid is mirrored from [0, a], so both potentials are exactly
        # even on any support and any step count divisible by 4.
        cmp = build_counterexample(q=q, eps=0.01, a=a, steps=steps).comparison
        assert max(cmp.max_entry_diff, cmp.even_channel_diff, cmp.odd_channel_diff) <= 1e-9

    def test_node_collision(self):
        with pytest.raises(NodeCollision):
            build_counterexample(q=1.0, eps=-1.0, a=1.0)

    def test_sign_change_between_nodes_is_a_node_collision(self):
        # cos(0.6 x) - 1.2 (x^2 - 1)^2 crosses zero between grid points, so
        # |psi| stays above the node tolerance on every node.
        with pytest.raises(NodeCollision):
            build_counterexample(q=0.6, eps=-1.2, a=1.0, single_bump=True)

    def test_newton_steps_back_from_a_node(self, monkeypatch):
        # From c = 0 the first Newton step overshoots to a wave with a
        # node; pulled back halfway, the search still reaches the root.
        verdicts = []
        node_free = noninjective._node_free
        monkeypatch.setattr(
            noninjective, "_node_free", lambda psi: verdicts.append(node_free(psi)) or verdicts[-1]
        )
        pair = build_counterexample(q=0.43, eps=0.082, a=2.0)
        assert False in verdicts
        assert pair.comparison.odd_channel_diff < 1e-9

    def test_unconverged_odd_channel_search_raises(self, monkeypatch):
        monkeypatch.setattr(noninjective, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(OddChannelUnmatched):
            build_counterexample(q=1.0, eps=0.01, a=1.0)

    def test_forward_solved_odd_gap_is_checked_after_the_fact(self, monkeypatch):
        # The default pair's odd channels agree to about 1.7e-13.
        monkeypatch.setattr(noninjective, "ODD_CHANNEL_TOL", 1e-14)
        with pytest.raises(OddChannelUnmatched, match="forward-solved"):
            build_counterexample(q=1.0, eps=0.01, a=1.0)

    def test_nearly_nodal_tuned_wave_is_refused(self):
        # The integral match lands near c = 143, where the wave almost
        # touches zero and the potential table no longer carries the odd
        # channel: the forward solves disagree by about 3e-2.
        with pytest.raises(OddChannelUnmatched, match="forward-solved"):
            build_counterexample(q=0.1413, eps=-0.06, a=2.0)

    @pytest.mark.parametrize(
        "q, eps", [(1.0, np.nan), (1.0, np.inf), (1.0, -np.inf), (np.nan, 0.01)]
    )
    def test_non_finite_parameters_are_refused_before_any_arithmetic(self, q, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="must be finite"):
                build_counterexample(q=q, eps=eps, a=1.0)

    @pytest.mark.parametrize("a", [1e-60, 1e-54])
    def test_vanishing_tuning_slope_is_refused(self, a):
        # The tuning bump x^2 (x^2 - a^2)^2 underflows to 0 on every node, so
        # the Newton slope J'(0) is 0 and dividing by it would raise
        # ZeroDivisionError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OddChannelUnmatched, match="underflows"):
                build_counterexample(q=1.0, eps=0.01, a=a)

    def test_tiny_supports_still_answer_where_the_slope_survives(self):
        # At a = 1e-53 the bump is subnormal, not 0, so the tuned pair
        # answers; a single-bump pair never takes the slope.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_counterexample(q=1.0, eps=0.01, a=1e-53).odd_coefficient == 0.0
            single = build_counterexample(q=1.0, eps=0.01, a=1e-60, single_bump=True)
        assert single.odd_coefficient == 0.0

    @pytest.mark.parametrize("a", [1e52, 1e80, 1e300])
    def test_overflowing_tuning_bump_is_refused_before_any_arithmetic(self, a):
        # a^6, the scale of the tuning bump, overflows from a = 2.3e51 on;
        # unguarded, numpy warns of the overflow, and 2.0 * a**4 raises
        # OverflowError from a = 1.2e77 on.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="too large"):
                build_counterexample(q=1.0 / a, eps=0.01, a=a)

    @pytest.mark.parametrize(
        "eps, a, q",
        [
            (1e308, 1.0, 1.0),  # 4 eps overflows
            (-4.5e307, 1.0, 1.0),
            (2.3e307, 1.0, 1.0),  # f'' = 8 eps a^2 at the edges overflows
            (1e300, 1e3, 1e-3),  # f = eps a^4 at 0 overflows
        ],
    )
    def test_overflowing_bump_is_refused_before_any_arithmetic(self, eps, a, q):
        # Unguarded, numpy warned of the overflow (and of inf * 0 = NaN)
        # before a NodeCollision refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for single_bump in (True, False):
                with pytest.raises(PreconditionViolated, match="bump eps"):
                    build_counterexample(q=q, eps=eps, a=a, single_bump=single_bump)

    def test_largest_bumps_short_of_overflow_are_not_refused_for_it(self):
        # At a = 1e-155 the bump underflows, so an eps whose 4 eps is finite
        # still answers; at a = 1, 2.2e307 (8 eps finite) goes on to the
        # node check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = build_counterexample(q=1e152, eps=4.4e307, a=1e-155, single_bump=True)
            with pytest.raises(NodeCollision):
                build_counterexample(q=1.0, eps=2.2e307, a=1.0, single_bump=True)
        assert pair.comparison.max_entry_diff == 0.0

    @pytest.mark.parametrize("q", [1.4e154, 1e155, 1e200])
    def test_overflowing_energy_is_refused_before_any_arithmetic(self, q):
        # E = q^2 = inf made energy + d2psi0 / psi0 = inf - inf, which numpy
        # warned of before validate refused the NaN.  q = 1e154 answers.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="q\\^2 overflows"):
                build_counterexample(q=q, eps=0.01, a=1.0 / q, single_bump=True)
            assert build_counterexample(q=1e154, eps=0.01, a=1e-154, single_bump=True).energy == 1e308

    def test_parameter_guards(self):
        with pytest.raises(PreconditionViolated):
            build_counterexample(q=1.6, eps=0.01, a=1.0)
        with pytest.raises(PreconditionViolated):
            build_counterexample(q=0.0, eps=0.01, a=1.0)
        with pytest.raises(PreconditionViolated):
            build_counterexample(q=1.0, eps=0.01, a=-1.0)
        with pytest.raises(PreconditionViolated):
            build_counterexample(q=1.0, eps=0.01, a=1.0, steps=32)
        # Refused before any grid is allocated.
        with pytest.raises(PreconditionViolated, match=str(SCAN_STEPS)):
            build_counterexample(q=1.0, eps=0.01, a=1.0, steps=SCAN_STEPS + 1)
        with pytest.raises(PreconditionViolated, match="divisible by 4"):
            build_counterexample(q=1.0, eps=0.01, a=1.0, steps=4094)


class TestVerifySameSMatrix:
    def test_even_channel_agrees_at_construction_energy(self, pair):
        cmp = verify_same_smatrix(pair, steps=4096)
        assert cmp.energy == 1.0
        assert cmp.even_channel_diff < 1e-6

    def test_odd_channel_separates_the_pair(self, single_bump_pair):
        # A single bump pins even boundary data only; the odd channel
        # difference is a genuine observable gap, not noise.
        cmp = verify_same_smatrix(single_bump_pair, steps=4096)
        assert abs(cmp.odd_channel_diff - 0.0277094) < 1e-4
        # Entry differences are half the channel gap up to even-channel noise.
        assert abs(cmp.max_entry_diff - 0.5 * cmp.odd_channel_diff) < 1e-8

    def test_tuned_pair_agrees_in_both_channels(self, pair):
        # At its own step count the odd phase was matched to 1e-9; a finer
        # forward solve leaves only discretization error.
        same = verify_same_smatrix(pair, steps=4096)
        assert same.odd_channel_diff < 1e-8
        finer = verify_same_smatrix(pair, steps=8192)
        assert finer.max_entry_diff < 1e-6

    def test_even_channel_forward_solve_matches_closed_form(self, pair):
        # Identical even boundary data fixes sigma_even = s11 + s12 through
        # the logarithmic derivative L = psi'(a) / psi(a) = -q tan(q a).
        cmp = verify_same_smatrix(pair, steps=4096)
        k = 1.0
        L = -math.tan(1.0)
        sigma = -np.exp(-2j * k) * (L + 1j * k) / (L - 1j * k)
        for s in (cmp.s_baseline, cmp.s_perturbed):
            assert abs((s.s11 + s.s12) - sigma) < 1e-6

    def test_shifted_energy_separates_both_channels(self, pair):
        cmp = verify_same_smatrix(pair, steps=4096, energy=1.5)
        assert cmp.max_entry_diff > 1e-4
        assert cmp.even_channel_diff > 1e-4

    def test_build_comparison_equals_a_fresh_solve(self, pair, single_bump_pair):
        # The construction hands over the matrices of its own solves; they
        # must be exactly those of a forward solve at its steps and energy.
        for built in (pair, single_bump_pair):
            assert built.comparison == verify_same_smatrix(built, steps=4096)

    @pytest.mark.parametrize("single_bump", [False, True])
    def test_build_solves_no_potential_twice(self, monkeypatch, single_bump):
        import scatter1d.noninjective as module

        solved = []
        forward = module.smatrix_via_transfer

        def recording(pot, energy, steps):
            solved.append(pot.v.tobytes())
            return forward(pot, energy, steps=steps)

        def refused(*args, **kwargs):
            raise AssertionError("the construction differentiates no wave numerically")

        monkeypatch.setattr(module, "smatrix_via_transfer", recording)
        monkeypatch.setattr(module, "recover_potential", refused)
        monkeypatch.setattr(module, "_stencil_d2", refused)
        build_counterexample(q=1.0, eps=0.01, a=1.0, steps=1024, single_bump=single_bump)
        assert len(set(solved)) == len(solved)
        assert len(solved) == 2

    def test_default_steps_are_the_pairs_own(self):
        built = build_counterexample(q=1.0, eps=0.01, a=1.0, steps=1024)
        assert verify_same_smatrix(built) == built.comparison

    def test_both_matrices_stay_unitary(self, pair):
        cmp = verify_same_smatrix(pair, steps=4096)
        assert cmp.s_baseline.unitarity_residual() < 1e-8
        assert cmp.s_perturbed.unitarity_residual() < 1e-8
