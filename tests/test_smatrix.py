"""Scattering matrix routes, closed forms, barriers, and degeneracy guards."""

import warnings

import numpy as np
import pytest

import scatter1d.propagate as propagate
from helpers import analytic_square_barrier, flat_barrier
from scatter1d.core import NonPositiveEnergy, Overflow, PreconditionViolated, SingularSystem
from scatter1d.potential import Sampled, SquareWell, validate
from scatter1d.propagate import BoundaryData, fundamental_pair, integrate
from scatter1d.smatrix import (
    AmplitudeQuad,
    amplitudes_from_boundary,
    analytic_delta,
    analytic_square_well,
    delta_as_well_limit,
    smatrix_from_amplitudes,
    smatrix_via_transfer,
)

FREE_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture(scope="module")
def gaussian_pot():
    x = np.linspace(-1.0, 1.0, 257)
    return validate(Sampled(a=1.0, x=x, v=-2.0 * np.exp(-8.0 * x * x)))


def quads_from_pair(pot, energy, steps=4096):
    k = np.sqrt(energy)
    u1, u2 = fundamental_pair(pot, energy, steps=steps)
    return [
        amplitudes_from_boundary(u.boundary_data(), float(k), pot.a) for u in (u1, u2)
    ]


class TestFreeAndAnalytic:
    def test_free_potential_gives_pure_transmission(self):
        pot = validate(SquareWell(v0=0.0, a=1.0))
        s = smatrix_via_transfer(pot, 1.0)
        assert np.max(np.abs(s.as_matrix() - FREE_MATRIX)) < 1e-8

    def test_analytic_free_limit_is_exact(self):
        s = analytic_square_well(v0=0.0, a=1.0, energy=1.0)
        assert np.max(np.abs(s.as_matrix() - FREE_MATRIX)) < 1e-15

    def test_analytic_depth_continuity_at_zero(self):
        s = analytic_square_well(v0=1e-9, a=1.0, energy=1.0)
        assert np.max(np.abs(s.as_matrix() - FREE_MATRIX)) < 1e-8

    @pytest.mark.parametrize("v0,a,energy", [(2.0, 1.0, 1.0), (10.0, 0.5, 0.25)])
    def test_numeric_matches_closed_form(self, v0, a, energy):
        pot = validate(SquareWell(v0=v0, a=a))
        s_num = smatrix_via_transfer(pot, energy)
        s_ref = analytic_square_well(v0, a, energy)
        assert np.max(np.abs(s_num.as_matrix() - s_ref.as_matrix())) < 1e-6
        assert s_num.unitarity_residual() < 1e-8

    @pytest.mark.parametrize("v0", [0.5, 2.0, 6.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_closed_form_at_default_steps(self, v0, a):
        # Each Magnus cell is exact on the well, so the worst entry gap,
        # 2.1e-13 at 4096 steps, is rounding in the scan.
        pot = validate(SquareWell(v0=v0, a=a))
        gap = max(
            np.max(np.abs(
                smatrix_via_transfer(pot, energy).as_matrix()
                - analytic_square_well(v0, a, energy).as_matrix()
            ))
            for energy in np.linspace(0.1, 9.0, 25)
        )
        assert gap <= 1e-11

    def test_transmission_resonance(self):
        # 2 l a = pi makes the well transparent: the diagonal vanishes and
        # the off-diagonal is a pure phase.
        a, energy = 1.0, 1.0
        v0 = (np.pi / 2.0) ** 2 - energy
        s_ref = analytic_square_well(v0, a, energy)
        assert abs(s_ref.s11) < 1e-15
        assert abs(abs(s_ref.s12) - 1.0) < 1e-15
        pot = validate(SquareWell(v0=v0, a=a))
        s_num = smatrix_via_transfer(pot, energy)
        assert abs(s_num.s11) < 1e-9

    def test_closed_form_guards(self):
        with pytest.raises(PreconditionViolated):
            analytic_square_well(v0=-1.0, a=1.0, energy=1.0)
        with pytest.raises(PreconditionViolated):
            analytic_square_well(v0=1.0, a=0.0, energy=1.0)
        for v0, a in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf)):
            with pytest.raises(PreconditionViolated, match="must be finite"):
                analytic_square_well(v0=v0, a=a, energy=1.0)

    def test_metadata_fields(self):
        s = analytic_square_well(v0=2.0, a=1.5, energy=4.0)
        assert s.k == 2.0
        assert s.a == 1.5


class TestAmplitudes:
    def test_right_moving_plane_wave(self):
        k, a = 1.3, 1.0
        bd = BoundaryData(
            psi_left=np.exp(-1j * k * a),
            dpsi_left=1j * k * np.exp(-1j * k * a),
            psi_right=np.exp(1j * k * a),
            dpsi_right=1j * k * np.exp(1j * k * a),
        )
        q = amplitudes_from_boundary(bd, k, a)
        assert abs(q.in_left - 1.0) < 1e-14
        assert abs(q.out_left) < 1e-14
        assert abs(q.out_right - 1.0) < 1e-14
        assert abs(q.in_right) < 1e-14

    def test_standing_cosine_splits_evenly(self):
        k, a = 0.8, 1.0
        bd = BoundaryData(
            psi_left=np.cos(k * a),
            dpsi_left=k * np.sin(k * a),
            psi_right=np.cos(k * a),
            dpsi_right=-k * np.sin(k * a),
        )
        q = amplitudes_from_boundary(bd, k, a)
        for val in (q.in_left, q.out_left, q.out_right, q.in_right):
            assert abs(val - 0.5) < 1e-14

    def test_guards(self):
        bd = BoundaryData(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(PreconditionViolated):
            amplitudes_from_boundary(bd, 0.0, 1.0)
        with pytest.raises(PreconditionViolated):
            amplitudes_from_boundary(bd, 1.0, 0.0)
        for k, a in ((np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf)):
            with pytest.raises(PreconditionViolated, match="must be finite"):
                amplitudes_from_boundary(bd, k, a)


class TestTransferRoute:
    @pytest.mark.parametrize("v0,energy", [(0.5, 0.25), (2.0, 1.0), (10.0, 4.0)])
    def test_unit_determinant(self, v0, energy):
        # The map's determinant is the Wronskian of the even and odd
        # solutions, which S takes to be 1.
        pot = validate(SquareWell(v0=v0, a=1.0))
        (m,) = propagate._endpoint_maps(pot, [energy], 4096)
        assert abs(np.linalg.det(m) - 1.0) < 1e-10

    @pytest.mark.parametrize("height", [10.0, 100.0, 900.0, 2e4, 1e5])
    def test_flat_barrier_matches_the_closed_form(self, height):
        # s12 falls as e^{-2 sqrt(V - E) a}, to 2.7e-277 at V = 1e5, and is
        # read off the channel solutions with no cancellation.
        s = smatrix_via_transfer(validate(flat_barrier(height)), 1.0)
        ref = analytic_square_barrier(height, 1.0, 1.0)
        assert abs(s.s12 - ref.s12) <= 1e-10 * abs(ref.s12)
        assert s.unitarity_residual() <= 1e-12


class TestAmplitudeRoute:
    def test_two_quad_route_matches_transfer(self):
        for v0, a, energy in ((0.5, 1.0, 0.25), (2.0, 0.7, 1.0), (10.0, 1.3, 4.0)):
            pot = validate(SquareWell(v0=v0, a=a))
            s_t = smatrix_via_transfer(pot, energy)
            s_q = smatrix_from_amplitudes(
                quads_from_pair(pot, energy), float(np.sqrt(energy)), a
            )
            assert np.max(np.abs(s_t.as_matrix() - s_q.as_matrix())) < 1e-10

    def test_single_generic_quad_suffices(self):
        # A complex left-incident solution has |A| != |D| and pins S alone.
        pot = validate(SquareWell(v0=2.0, a=1.0))
        energy = 1.0
        k = 1.0
        trace = integrate(pot, energy, psi0=complex(1.0), dpsi0=1j * k)
        quad = amplitudes_from_boundary(trace.boundary_data(), k, pot.a)
        s_q = smatrix_from_amplitudes(quad, k, pot.a)
        s_t = smatrix_via_transfer(pot, energy)
        assert np.max(np.abs(s_t.as_matrix() - s_q.as_matrix())) < 1e-9

    def test_singular_exactly_at_parity_degeneracy(self):
        # The single-quad system is singular iff |A^2 - D^2| falls below
        # 1e-12 (|A|^2 + |D|^2).
        def build(in_left, in_right):
            return AmplitudeQuad(
                in_left=in_left, out_left=0.3, out_right=0.7, in_right=in_right
            )

        with pytest.raises(SingularSystem):
            smatrix_from_amplitudes(build(1.0, 1.0), 1.0, 1.0)
        with pytest.raises(SingularSystem):
            smatrix_from_amplitudes(build(1.0, -1.0), 1.0, 1.0)
        # |A^2 - D^2| ~ 6e-13 below the 2e-12 threshold: still singular.
        with pytest.raises(SingularSystem):
            smatrix_from_amplitudes(build(1.0, 1.0 + 3e-13), 1.0, 1.0)
        # |A^2 - D^2| ~ 6e-12 above the threshold: solvable.
        smatrix_from_amplitudes(build(1.0, 1.0 + 3e-12), 1.0, 1.0)
        # Equal moduli with A^2 != D^2 is not degenerate.
        smatrix_from_amplitudes(build(1.0, 1.0j), 1.0, 1.0)

    def test_quad_count_guard(self):
        q = AmplitudeQuad(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(PreconditionViolated):
            smatrix_from_amplitudes([q, q, q], 1.0, 1.0)


class TestDelta:
    def test_closed_form_unitarity_and_ratio(self):
        for energy in (0.25, 1.0, 9.0):
            s = analytic_delta(2.0, energy)
            assert s.unitarity_residual() < 1e-15
            beta = 2.0 / (2.0 * np.sqrt(energy))
            assert abs(s.s11 / s.s12 - 1j * beta) < 1e-15
            assert s.a == 0.0

    def test_thin_well_limit(self):
        s_ref = analytic_delta(2.0, 1.0)
        s_eps = delta_as_well_limit(2.0, 1.0, eps=1e-3)
        assert np.max(np.abs(s_eps.as_matrix() - s_ref.as_matrix())) < 1e-3

    def test_first_order_convergence_rate(self):
        s_ref = analytic_delta(2.0, 1.0).as_matrix()
        err = {}
        for eps in (1e-2, 1e-3):
            s = delta_as_well_limit(2.0, 1.0, eps=eps)
            err[eps] = np.max(np.abs(s.as_matrix() - s_ref))
        ratio = err[1e-2] / err[1e-3]
        assert 5.0 <= ratio <= 20.0, f"convergence ratio {ratio}"

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            analytic_delta(0.0, 1.0)
        with pytest.raises(PreconditionViolated, match="alpha must be finite"):
            analytic_delta(np.inf, 1.0)
        with pytest.raises(PreconditionViolated):
            delta_as_well_limit(2.0, 1.0, eps=0.0)
        with pytest.raises(PreconditionViolated):
            delta_as_well_limit(2.0, 1.0, eps=0.2)


class TestGoldenGaussianWell:
    # V(x) = -2 exp(-8 x^2) tabulated on 257 nodes over [-1, 1]; values
    # frozen from a run cross-checked against an independent adaptive
    # Runge-Kutta integration (agreement 5e-8) and against step halving.
    GOLDEN = {
        0.5: (-0.3510275808022236 + 0.4483023590255693j, 0.6472591579547717 + 0.5068137871565137j),
        1.0: (-0.2038056351552395 + 0.36410003013729564j, 0.7930063272860859 + 0.4438866927687998j),
        2.0: (-0.10258062474957745 + 0.25444508944028665j, 0.8918789494338102 + 0.3595648084039281j),
    }

    @pytest.mark.parametrize("energy", sorted(GOLDEN))
    def test_frozen_entries(self, gaussian_pot, energy):
        s = smatrix_via_transfer(gaussian_pot, energy, steps=4096)
        s11_ref, s12_ref = self.GOLDEN[energy]
        assert abs(s.s11 - s11_ref) < 2e-7
        assert abs(s.s12 - s12_ref) < 2e-7
        assert s.unitarity_residual() < 1e-10


class TestEnergyBatch:
    ENERGIES = [0.25, 0.5, 1.0, 2.0, 4.5, 9.0]

    # 2**16 steps puts two energies in each scan, so the list spans three.
    @pytest.mark.parametrize("steps", [4096, 2**16])
    @pytest.mark.parametrize("kind", ["well", "gaussian"])
    def test_batch_equals_scalar_calls(self, gaussian_pot, kind, steps):
        pot = validate(SquareWell(v0=2.0, a=1.0)) if kind == "well" else gaussian_pot
        batch = smatrix_via_transfer(pot, self.ENERGIES, steps=steps)
        assert batch == [smatrix_via_transfer(pot, e, steps=steps) for e in self.ENERGIES]

    def test_array_of_energies(self, gaussian_pot):
        batch = smatrix_via_transfer(gaussian_pot, np.array(self.ENERGIES), steps=512)
        assert [s.k for s in batch] == [np.sqrt(e) for e in self.ENERGIES]

    @pytest.mark.parametrize("empty", [[], (), np.array([])], ids=["list", "tuple", "array"])
    def test_empty_energy_list_gives_empty_list(self, gaussian_pot, empty):
        assert smatrix_via_transfer(gaussian_pot, empty, steps=512) == []

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_energy_in_batch(self, bad):
        pot = validate(SquareWell(v0=2.0, a=1.0))
        with pytest.raises(NonPositiveEnergy):
            smatrix_via_transfer(pot, [1.0, bad, 2.0])

    def test_overflow_in_batch_without_numpy_warnings(self):
        # The flat barrier of TestTransferRoute, past the Overflow edge.
        barrier = validate(flat_barrier(1.0e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="too deep in a classically forbidden region"):
                smatrix_via_transfer(barrier, [1.0, 2.0])
