"""Potential recovery and the equal-boundary-data counterexample."""

import math

import numpy as np
import pytest

import scatter1d.noninjective as noninjective
from scatter1d.core import (
    AllMasked,
    ComplexWavefunction,
    NodeCollision,
    OddChannelUnmatched,
    PreconditionViolated,
)
from scatter1d.noninjective import (
    BUMP_KINKED,
    BUMP_SMOOTH,
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
        f, fp = bump_values(BUMP_SMOOTH, 1.0, 0.01, x)
        assert f[0] == 0.0 and f[-1] == 0.0
        assert fp[0] == 0.0 and fp[-1] == 0.0
        assert np.all(f[1:-1] > 0.0)

    def test_kinked_bump_edge_conditions_and_kink(self):
        x = np.linspace(-1.0, 1.0, 9)
        f, fp = bump_values(BUMP_KINKED, 1.0, 0.01, x)
        assert f[0] == 0.0 and f[-1] == 0.0
        assert fp[0] == 0.0 and fp[-1] == 0.0
        # One-sided derivative limits at the origin disagree in sign.
        eps_x = np.array([-1e-8, 1e-8])
        _, fp_near = bump_values(BUMP_KINKED, 1.0, 0.01, eps_x)
        assert fp_near[0] > 0.0 > fp_near[1]

    def test_unknown_shape_rejected(self):
        with pytest.raises(PreconditionViolated):
            bump_values("boxy", 1.0, 0.01, np.zeros(3))

    def test_tuning_bump_is_edge_flat_and_even(self):
        x = np.linspace(-1.0, 1.0, 9)
        g, gp = tuning_bump_values(1.0, x)
        assert g[0] == 0.0 and g[-1] == 0.0
        assert gp[0] == 0.0 and gp[-1] == 0.0
        assert np.array_equal(g, g[::-1])
        assert np.array_equal(gp, -gp[::-1])
        # The derivative is the analytic one: compare with a difference.
        h = 1e-6
        fd = (tuning_bump_values(1.0, x + h)[0] - tuning_bump_values(1.0, x - h)[0]) / (2 * h)
        assert np.max(np.abs(fd - gp)) < 1e-8


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

    def test_needs_six_points(self):
        trace = make_trace(np.cos, n=5)
        with pytest.raises(PreconditionViolated):
            recover_potential(*trace, 1.0)


class TestBuildCounterexample:
    def test_boundary_data_is_identical(self, pair):
        assert pair.boundary_residual == 0.0
        assert not pair.has_kink
        assert pair.energy == 1.0

    def test_baseline_recovers_the_zero_potential(self, pair):
        assert np.max(np.abs(pair.baseline.values)) < 1e-7

    def test_separation_matches_edge_closed_form(self, single_bump_pair):
        # The difference peaks at the edges where it equals
        # f''(a) / cos(q a) = 8 eps a^2 / cos(q a).
        expect = 8.0 * 0.01 / math.cos(1.0)
        assert single_bump_pair.separation > 5e-3
        assert abs(single_bump_pair.separation - expect) < 1e-5

    def test_tuning_amplitude_and_separation(self, pair):
        # The secant root for q = 1, eps = 0.01, a = 1; the tuning bump adds
        # c g''(a) / cos(q a) = 8 c a^4 / cos(q a) to the edge gap.
        assert abs(pair.odd_coefficient + 0.049571) < 1e-5
        expect = 8.0 * (0.01 + pair.odd_coefficient) / math.cos(1.0)
        assert abs(pair.separation - abs(expect)) < 1e-4

    def test_recovered_potentials_are_exactly_symmetric(self, pair):
        # The recovery stencil preserves evenness bitwise, so the strict
        # symmetry validation accepts both potentials with no margin used.
        for rec in (pair.baseline, pair.perturbed):
            v = rec.values
            assert np.max(np.abs(v - v[::-1])) == 0.0
            validate(Sampled(a=pair.a, x=rec.x, v=v))

    def test_forward_solve_reproduces_the_wavefunction(self, pair):
        # Integrating the recovered baseline potential from the original
        # initial data must return cos(q x) on the whole grid.
        rec = pair.baseline
        pot = validate(Sampled(a=pair.a, x=rec.x, v=rec.values))
        trace = integrate(
            pot,
            pair.energy,
            psi0=float(np.cos(-pair.q * pair.a)),
            dpsi0=float(-pair.q * np.sin(-pair.q * pair.a)),
            steps=rec.x.size - 1,
        )
        assert np.max(np.abs(trace.psi - np.cos(pair.q * trace.grid))) < 1e-6

    def test_perturbed_value_at_origin(self, single_bump_pair):
        mid = single_bump_pair.perturbed.x.size // 2
        expect = 1.0 - 1.04 / 1.01
        assert abs(single_bump_pair.perturbed.values[mid] - expect) < 1e-6

    def test_kinked_bump_warns_and_flags(self):
        with pytest.warns(RuntimeWarning):
            kinked = build_counterexample(q=1.0, eps=0.01, a=1.0, bump=BUMP_KINKED)
        assert kinked.has_kink
        assert kinked.boundary_residual == 0.0

    def test_node_collision(self):
        with pytest.raises(NodeCollision):
            build_counterexample(q=1.0, eps=-1.0, a=1.0)

    def test_unconverged_odd_channel_search_raises(self, monkeypatch):
        monkeypatch.setattr(noninjective, "MAX_SECANT_STEPS", 1)
        with pytest.raises(OddChannelUnmatched):
            build_counterexample(q=1.0, eps=0.01, a=1.0)

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
        forward = module._forward_smatrix

        def recording(rec, a, energy, steps):
            solved.append(rec.values.tobytes())
            return forward(rec, a, energy, steps)

        monkeypatch.setattr(module, "_forward_smatrix", recording)
        build_counterexample(q=1.0, eps=0.01, a=1.0, steps=1024, single_bump=single_bump)
        assert len(set(solved)) == len(solved)
        if single_bump:
            assert len(solved) == 2

    def test_both_matrices_stay_unitary(self, pair):
        cmp = verify_same_smatrix(pair, steps=4096)
        assert cmp.s_baseline.unitarity_residual() < 1e-8
        assert cmp.s_perturbed.unitarity_residual() < 1e-8
