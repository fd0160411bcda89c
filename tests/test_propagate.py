"""Numerov integration: accuracy, order, conservation, and guards."""

import math
import warnings

import numpy as np
import pytest

import scatter1d.propagate as propagate
from helpers import numerov_recurrence
from scatter1d.core import NonPositiveEnergy, Overflow, PreconditionViolated
from scatter1d.potential import Delta, Sampled, SquareWell, validate
from scatter1d.propagate import SCAN_STEPS, fundamental_pair, integrate

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


def test_steps_beyond_one_scan_are_refused():
    # Only the refusal is exercised: a huge step count would allocate GBs.
    with pytest.raises(PreconditionViolated, match=str(SCAN_STEPS)):
        integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=SCAN_STEPS + 1)
    with pytest.raises(PreconditionViolated):
        propagate._endpoint_maps(WELL, [1.0], SCAN_STEPS + 1)
    with pytest.raises(PreconditionViolated):
        propagate._endpoint_maps(WELL, [1.0], 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_energy_is_refused(bad):
    with pytest.raises(PreconditionViolated, match="energy must be finite"):
        integrate(WELL, energy=bad, psi0=1.0, dpsi0=0.0)


def _full_scan_endpoints(pot, energies, steps):
    """Endpoint maps read off the full traces, one block of energies at a time."""
    maps = []
    block = SCAN_STEPS // steps
    for start in range(0, len(energies), block):
        _, psi, dpsi = propagate._fundamental_traces(pot, energies[start : start + block], steps)
        maps.append(np.stack([psi[..., -1], dpsi[..., -1]]).transpose(2, 0, 1))
    return np.concatenate(maps)


def _random_gaussian(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    x = np.linspace(-a, a, 257)
    v = rng.uniform(-20.0, 20.0) * np.exp(-rng.uniform(1.0, 5.0) * (x / a) ** 2)
    return validate(Sampled(a=a, x=x, v=0.5 * (v + v[::-1]))), rng


def test_scan_tail_equals_the_last_four_prefixes():
    rng = np.random.default_rng(3)
    for length in list(range(1, 40)) + [64, 127, 1000]:
        m = rng.normal(size=(4, 3, length))
        full = m.copy()
        propagate._scan(full)
        np.testing.assert_array_equal(propagate._scan_tail(m), full[..., -4:], err_msg=f"{length}")


@pytest.mark.parametrize("steps", [64, 65, 67, 127, 4096])
def test_endpoint_maps_equal_the_full_scan_bit_for_bit(steps):
    pot, rng = _random_gaussian(steps)
    energies = list(rng.uniform(0.1, 30.0, 5))
    maps = propagate._endpoint_maps(pot, energies, steps)
    np.testing.assert_array_equal(maps, _full_scan_endpoints(pot, energies, steps))


def test_endpoint_maps_across_scan_blocks():
    # 70 energies at 4096 steps fill two scans of 32 and part of a third.
    pot, rng = _random_gaussian(7)
    energies = list(rng.uniform(0.1, 30.0, 70))
    maps = propagate._endpoint_maps(pot, energies, 4096)
    np.testing.assert_array_equal(maps, _full_scan_endpoints(pot, energies, 4096))


def _flat_barrier(height):
    x = np.linspace(-1.0, 1.0, 257)
    return validate(Sampled(a=1.0, x=x, v=np.full(257, height)))


def _forbid(name):
    def forbidden(*args):
        raise AssertionError(f"{name} must not run here")

    return forbidden


@pytest.mark.parametrize(
    "height, path",
    [
        # Bound about e^194 against a peak of e^19: only the last prefixes.
        (100.0, "tail"),
        # Bound about e^1490 is past the limit, while the peak is e^59 and
        # below MAX_MAGNITUDE: the full traces are formed and pass the check.
        (900.0, "full"),
    ],
)
def test_growth_bound_picks_the_path_without_changing_the_maps(monkeypatch, height, path):
    barrier = _flat_barrier(height)
    _, h, m = propagate._step_matrices(barrier, [1.0, 2.0], 4096)
    limit = math.log(propagate.MAX_MAGNITUDE / 2)
    assert (propagate._log_growth_bound(m, h) < limit) == (path == "tail")
    expected = _full_scan_endpoints(barrier, [1.0, 2.0], 4096)
    skipped = "_traces" if path == "tail" else "_scan_tail"
    monkeypatch.setattr(propagate, skipped, _forbid(skipped))
    np.testing.assert_array_equal(propagate._endpoint_maps(barrier, [1.0, 2.0], 4096), expected)


def test_growth_bound_holds_on_barriers():
    # The bound is an upper bound on log max |psi|, and at most the
    # 2 a max |V - E| it stands for (a = 1, E = 1 here).
    for height in (25.0, 100.0, 900.0, 28900.0):
        barrier = _flat_barrier(height)
        _, h, m = propagate._step_matrices(barrier, [1.0], 4096)
        bound = propagate._log_growth_bound(m, h)
        _, psi, _ = propagate._fundamental_traces(barrier, [1.0], 4096)
        peak = math.log(np.max(np.abs(psi)))
        assert peak <= bound <= 2.0 * (height - 1.0)


def test_growth_bound_is_not_finite_for_non_finite_steps():
    # A NaN sample never reaches the scan through validate, but the bound
    # must still send such data to the full traces and their exact check.
    _, h, m = propagate._step_matrices(WELL, [1.0], 64)
    m[2, 0, 5] = np.nan
    assert not propagate._log_growth_bound(m, h) < math.inf
