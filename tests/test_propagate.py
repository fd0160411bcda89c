"""Numerov integration: accuracy, order, conservation, and guards."""

import warnings

import numpy as np
import pytest

from helpers import numerov_recurrence
from scatter1d.core import NonPositiveEnergy, Overflow, PreconditionViolated
from scatter1d.potential import Delta, Sampled, SquareWell, validate
from scatter1d.propagate import fundamental_pair, integrate

FREE = validate(SquareWell(v0=0.0, a=1.0))
WELL = validate(SquareWell(v0=2.0, a=1.0))


def test_free_plane_wave_reaches_exp_2i():
    k = 1.0
    trace = integrate(FREE, energy=k * k, psi0=complex(1.0), dpsi0=1j * k)
    exact = np.exp(2j * k)
    assert abs(trace.psi[-1] - exact) < 1e-8
    assert abs(trace.dpsi[-1] - 1j * k * exact) < 1e-8


def test_free_wave_matches_exponential_everywhere():
    k = 1.5
    trace = integrate(FREE, energy=k * k, psi0=complex(1.0), dpsi0=1j * k)
    exact = np.exp(1j * k * (trace.grid + 1.0))
    assert np.max(np.abs(trace.psi - exact)) < 1e-8
    assert np.max(np.abs(trace.dpsi - 1j * k * exact)) < 1e-8


def test_well_interior_cosine():
    # With (psi, psi')(-a) = (1, 0) the solution inside the well is
    # cos(l (x + a)) where l^2 = E + v0.
    l = np.sqrt(3.0)
    trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0)
    assert abs(trace.psi[-1] - np.cos(2.0 * l)) < 1e-8
    assert abs(trace.dpsi[-1] + l * np.sin(2.0 * l)) < 1e-8


def test_real_data_keeps_real_dtype():
    trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0)
    assert not np.iscomplexobj(trace.psi)
    trace_c = integrate(WELL, energy=1.0, psi0=complex(1.0), dpsi0=0.0)
    assert np.iscomplexobj(trace_c.psi)


def test_grid_endpoints_are_exact():
    trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=256)
    assert trace.grid[0] == -1.0
    assert trace.grid[-1] == 1.0
    assert trace.grid.size == 257
    assert trace.energy == 1.0


def test_boundary_data_fields():
    trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0)
    bd = trace.boundary_data()
    assert bd.psi_left == complex(trace.psi[0])
    assert bd.dpsi_right == complex(trace.dpsi[-1])


def test_linearity_of_the_propagation_map():
    alpha = 0.7 - 0.2j
    beta = 1.1 + 0.4j
    t1 = integrate(WELL, energy=2.0, psi0=complex(1.0), dpsi0=complex(0.0), steps=512)
    t2 = integrate(WELL, energy=2.0, psi0=complex(0.0), dpsi0=complex(1.0), steps=512)
    tc = integrate(WELL, energy=2.0, psi0=alpha, dpsi0=beta, steps=512)
    combo = alpha * t1.psi + beta * t2.psi
    assert np.max(np.abs(tc.psi - combo)) < 1e-10


def test_wronskian_is_one_along_the_grid():
    for pot, energy in ((FREE, 1.0), (WELL, 1.0), (validate(SquareWell(10.0, 1.0)), 0.5)):
        u1, u2 = fundamental_pair(pot, energy)
        wronskian = u1.psi * u2.dpsi - u1.dpsi * u2.psi
        assert np.max(np.abs(wronskian - 1.0)) < 1e-8


def test_fourth_order_convergence():
    # Halving the step divides the endpoint error by about 16.
    exact = np.cos(2.0 * np.sqrt(3.0))
    errs = []
    for steps in (128, 256, 512):
        trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=steps)
        errs.append(abs(trace.psi[-1] - exact))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 8.0 <= ratio <= 32.0, f"convergence ratio {ratio}"


@pytest.mark.parametrize("steps", [65, 97, 100, 1001])
def test_step_counts_that_are_not_powers_of_two(steps):
    # The prefix-product scan pairs steps up; odd lengths leave one over at
    # each level of the recursion.
    exact = np.cos(2.0 * np.sqrt(3.0))
    u1, u2 = fundamental_pair(WELL, 1.0, steps=steps)
    assert abs(u1.psi[-1] - exact) < 1e-7
    wronskian = u1.psi * u2.dpsi - u1.dpsi * u2.psi
    assert np.max(np.abs(wronskian - 1.0)) < 1e-5


@pytest.mark.parametrize("psi0,dpsi0", [(1.0, 0.0), (0.0, 1.0), (0.3, -1.2)])
def test_scan_matches_the_three_term_recurrence(psi0, dpsi0):
    # Same arithmetic in exact terms; the loop's rounding grows like
    # steps^2 eps, which sets the tolerance.
    steps = 1000
    x = np.linspace(-1.0, 1.0, 257)
    pot = validate(Sampled(a=1.0, x=x, v=-2.0 * np.exp(-8.0 * x * x)))
    trace = integrate(pot, energy=1.5, psi0=psi0, dpsi0=dpsi0, steps=steps)
    reference = numerov_recurrence(pot, 1.5, psi0, dpsi0, steps)
    assert np.max(np.abs(trace.psi - reference)) < steps * steps * np.finfo(float).eps


def test_smooth_sampled_matches_well():
    # A sampled tabulation of the well reproduces the analytic interior.
    x = np.linspace(-1.0, 1.0, 513)
    pot = validate(Sampled(a=1.0, x=x, v=np.full(513, -2.0)))
    trace = integrate(pot, energy=1.0, psi0=1.0, dpsi0=0.0)
    assert abs(trace.psi[-1] - np.cos(2.0 * np.sqrt(3.0))) < 1e-8


def test_overflow_in_a_deep_forbidden_region():
    n = 257
    x = np.linspace(-1.0, 1.0, n)
    barrier = validate(Sampled(a=1.0, x=x, v=np.full(n, 4.0e4)))
    with pytest.raises(Overflow):
        integrate(barrier, energy=1.0, psi0=1.0, dpsi0=0.0)


def test_overflow_message_and_no_numpy_warnings():
    # The scan overflows to inf and nan on this barrier; numpy must not warn.
    n = 257
    x = np.linspace(-1.0, 1.0, n)
    barrier = validate(Sampled(a=1.0, x=x, v=np.full(n, 1.0e6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match=r"exceeds 1e\+150; the energy is too deep"):
            integrate(barrier, energy=1.0, psi0=1.0, dpsi0=0.0)


def test_moderate_barrier_tunnels_without_overflow():
    n = 257
    x = np.linspace(-1.0, 1.0, n)
    barrier = validate(Sampled(a=1.0, x=x, v=np.full(n, 25.0)))
    trace = integrate(barrier, energy=1.0, psi0=1.0, dpsi0=0.0)
    assert np.all(np.isfinite(trace.psi))


def test_guards():
    with pytest.raises(PreconditionViolated):
        integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=32)
    with pytest.raises(NonPositiveEnergy):
        integrate(WELL, energy=0.0, psi0=1.0, dpsi0=0.0)
    with pytest.raises(NonPositiveEnergy):
        integrate(WELL, energy=-1.0, psi0=1.0, dpsi0=0.0)
    with pytest.raises(PreconditionViolated):
        integrate(validate(Delta(alpha=1.0)), energy=1.0, psi0=1.0, dpsi0=0.0)
