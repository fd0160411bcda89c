"""Magnus integration: accuracy, order, conservation, and guards."""

import math
import warnings

import numpy as np
import pytest

import scatter1d.propagate as propagate
from helpers import flat_barrier, smooth_order_errors
from scatter1d.core import NonPositiveEnergy, Overflow, PreconditionViolated
from scatter1d.potential import Sampled, SquareWell, validate
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
    # Halving the step divides the endpoint error on a smooth V by about 16.
    errs = smooth_order_errors((128, 256, 512))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 8.0 <= ratio <= 32.0, f"convergence ratio {ratio}"
    # Each Magnus step is the exact propagator where V is constant, so the
    # well leaves rounding only.
    exact = np.cos(2.0 * np.sqrt(3.0))
    for steps in (128, 256, 512):
        trace = integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=steps)
        assert abs(trace.psi[-1] - exact) <= 1e-13


@pytest.mark.parametrize("steps", [130, 194, 100, 2002])
def test_step_counts_that_are_not_powers_of_two(steps):
    # The prefix-product scan pairs cells of two steps up; odd cell counts
    # leave one over at each level.
    exact = np.cos(2.0 * np.sqrt(3.0))
    u1, u2 = fundamental_pair(WELL, 1.0, steps=steps)
    assert abs(u1.psi[-1] - exact) < 1e-7
    wronskian = u1.psi * u2.dpsi - u1.dpsi * u2.psi
    assert np.max(np.abs(wronskian - 1.0)) < 1e-5


@pytest.mark.parametrize("psi0,dpsi0", [(1.0, 0.0), (0.0, 1.0), (0.3, -1.2)])
def test_scan_matches_the_three_term_recurrence(psi0, dpsi0):
    # The reference steps the state (psi, psi') from node to node in a
    # Python loop, by the same cell and half-cell matrices; the loop's
    # rounding grows with the number of cells.
    steps = 1000
    x = np.linspace(-1.0, 1.0, 257)
    pot = validate(Sampled(a=1.0, x=x, v=-2.0 * np.exp(-8.0 * x * x)))
    trace = integrate(pot, energy=1.5, psi0=psi0, dpsi0=dpsi0, steps=steps)
    _, cells, halves = propagate._nodes(pot, -pot.a, steps // 2)
    energies = np.array([1.5])
    m = propagate._cell_matrices(cells, energies)[:, 0].T.reshape(-1, 2, 2)
    half = propagate._cell_matrices(halves, energies)[:, 0].T.reshape(-1, 2, 2)
    state = np.array([psi0, dpsi0])
    reference = [state]
    for cell, first_half in zip(m, half):
        reference += [first_half @ state, cell @ state]
        state = reference[-1]
    reference = np.array(reference)
    assert np.max(np.abs(trace.psi - reference[:, 0])) < steps * np.finfo(float).eps
    assert np.max(np.abs(trace.dpsi - reference[:, 1])) < steps * np.finfo(float).eps


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


def test_steps_beyond_one_scan_are_refused():
    # Only the refusal is exercised: a huge step count would allocate GBs.
    with pytest.raises(PreconditionViolated, match=str(SCAN_STEPS)):
        integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=SCAN_STEPS + 1)
    with pytest.raises(PreconditionViolated):
        propagate._endpoint_maps(WELL, [1.0], SCAN_STEPS + 1)
    with pytest.raises(PreconditionViolated):
        propagate._endpoint_maps(WELL, [1.0], 0)


def test_odd_step_counts_are_refused():
    # A cell spans two steps.
    for steps in (65, 4095):
        with pytest.raises(PreconditionViolated, match=f"be even, got {steps}"):
            integrate(WELL, energy=1.0, psi0=1.0, dpsi0=0.0, steps=steps)
        with pytest.raises(PreconditionViolated, match="even"):
            propagate._endpoint_maps(WELL, [1.0], steps)


def test_energy_past_the_former_numerov_edge_keeps_the_closed_form():
    # h^2 (E - min V) = 6.01 at 4096 steps, past the edge 6 where a Numerov
    # step is unstable.  Each Magnus step is exact on the well; the scaled
    # map error on [0, a] is rounding, which grows with the phase l a
    # (about 5e3).
    energy = 6.01 * (4096 / 2.0) ** 2 - 2.0
    l = math.sqrt(energy + 2.0)
    for steps in (4096, 4100):
        (m,) = propagate._endpoint_maps(WELL, [energy], steps)
        c, s = math.cos(l), math.sin(l)
        scaled = m * np.array([[1.0, l], [1.0 / l, 1.0]])
        assert np.max(np.abs(scaled - [[c, s], [-s, c]])) < 1e-11
    assert np.all(np.isfinite(propagate._endpoint_maps(WELL, [1e12], 4096)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_energy_is_refused(bad):
    with pytest.raises(PreconditionViolated, match="energy must be finite"):
        integrate(WELL, energy=bad, psi0=1.0, dpsi0=0.0)


def _half_scan(pot, energies, steps):
    """Cell matrices, half-cell Omega parts and energies of the [0, a] scan that _endpoint_maps takes."""
    _, cells, halves = propagate._nodes(pot, 0.0, -(-steps // 4))
    energies = np.asarray(energies, dtype=float)
    return propagate._cell_matrices(cells, energies), halves, energies


def _half_traces(pot, energies, steps):
    """psi and dpsi of the even and odd solutions on [0, a]."""
    return propagate._traces(*_half_scan(pot, energies, steps))


def _full_scan_endpoints(pot, energies, steps):
    """Maps (psi, psi')(0) -> (psi, psi')(a) from the half-interval traces' last node, block by block."""
    maps = []
    block = SCAN_STEPS // steps
    for start in range(0, len(energies), block):
        psi, dpsi = _half_traces(pot, energies[start : start + block], steps)
        maps.append(np.stack([psi[..., -1], dpsi[..., -1]]).transpose(2, 0, 1))
    return np.concatenate(maps)


def _random_gaussian(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    x = np.linspace(-a, a, 257)
    v = rng.uniform(-20.0, 20.0) * np.exp(-rng.uniform(1.0, 5.0) * (x / a) ** 2)
    return validate(Sampled(a=a, x=x, v=0.5 * (v + v[::-1]))), rng


def test_product_equals_the_last_prefix_bit_for_bit():
    rng = np.random.default_rng(3)
    for length in list(range(1, 41)) + [64, 127, 1000, 1024]:
        m = rng.normal(size=(4, 3, length))
        np.testing.assert_array_equal(
            propagate._product(m), propagate._prefixes(m)[..., -1], err_msg=str(length)
        )


def test_prefixes_match_sequential_products():
    rng = np.random.default_rng(4)
    for length in (1, 2, 3, 7, 64, 129):
        # Near-identity factors keep the products of order one.
        m = np.eye(2).reshape(4, 1, 1) + 0.1 * rng.normal(size=(4, 3, length))
        p = propagate._prefixes(m)
        product = np.broadcast_to(np.eye(2), (3, 2, 2))
        for k in range(length):
            product = m[:, :, k].T.reshape(3, 2, 2) @ product
            expected = product.reshape(3, 4).T
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(p[:, :, k], expected, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("steps", [64, 130, 134, 254, 4096])
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


@pytest.mark.parametrize(
    "height, path",
    [
        # The cases an a-priori growth bound once split: at V = 100 it took
        # only the last prefix ("tail"), at V = 900 it fell back to the full
        # traces ("full").  Both now take the one product of the 1024 cells,
        # and the maps keep their bits.
        (100.0, "tail"),
        (900.0, "full"),
    ],
)
def test_growth_bound_picks_the_path_without_changing_the_maps(monkeypatch, height, path):
    barrier = validate(flat_barrier(height))
    expected = _full_scan_endpoints(barrier, [1.0, 2.0], 4096)
    lengths = []
    product = propagate._product

    def spy(m):
        lengths.append(m.shape[-1])
        return product(m)

    def forbidden(*args):
        raise AssertionError("the endpoint maps formed a full scan")

    monkeypatch.setattr(propagate, "_product", spy)
    monkeypatch.setattr(propagate, "_prefixes", forbidden)
    monkeypatch.setattr(propagate, "_traces", forbidden)
    np.testing.assert_array_equal(propagate._endpoint_maps(barrier, [1.0, 2.0], 4096), expected)
    assert lengths == [1024]


def test_endpoint_maps_on_barriers_are_the_last_node_or_refused(monkeypatch):
    # Tall barriers grow the odd and even solutions like e^{a sqrt(V - E)}.
    # Up to MAX_MAGNITUDE at x = a, the map is the last node of the [0, a]
    # traces, whatever the nodes inside; past it, the map is refused.  Any
    # full scan the endpoint maps formed would fail the test.

    def forbidden(*args):
        raise AssertionError("the endpoint maps formed a full scan")

    answered = refused = 0
    for height in (100.0, 400.0, 900.0, 1e4, 1e5):
        for a in (0.5, 1.0, 2.0):
            barrier = validate(flat_barrier(height, a))
            for steps in (66, 1026, 4096):
                m, _, _ = _half_scan(barrier, [1.0, 2.0], steps)
                with np.errstate(all="ignore"):
                    last = propagate._prefixes(m)[..., -1]
                with monkeypatch.context() as patch:
                    patch.setattr(propagate, "_prefixes", forbidden)
                    patch.setattr(propagate, "_traces", forbidden)
                    if np.all(np.isfinite(last)) and np.max(np.abs(last[:2])) <= propagate.MAX_MAGNITUDE:
                        maps = propagate._endpoint_maps(barrier, [1.0, 2.0], steps)
                        np.testing.assert_array_equal(maps, last.T.reshape(-1, 2, 2))
                        answered += 1
                    else:
                        with pytest.raises(Overflow):
                            propagate._endpoint_maps(barrier, [1.0, 2.0], steps)
                        refused += 1
    assert answered and refused


def _peaks(psi):
    """Largest |psi| on the cell nodes, and on every node."""
    return np.max(np.abs(psi[..., ::2])), np.max(np.abs(psi))


def test_overflow_check_reads_the_midpoints(monkeypatch):
    # Here the second solution, sin(l (x + a)) / l on [-a, a] and sin(l x) / l
    # on [0, a], peaks at a midpoint of both grids.  With the limit between
    # its largest cell-node and midpoint values, the traces refuse, while
    # the endpoint maps, which check only x = a, return the traces' last
    # node.  With the limit below |psi(a)|, the endpoint maps refuse too.
    pot = validate(SquareWell(v0=0.45, a=2.0))
    _, psi, _ = propagate._fundamental_traces(pot, [0.5], 66)
    nodes, everywhere = _peaks(psi)
    assert everywhere > nodes
    monkeypatch.setattr(propagate, "MAX_MAGNITUDE", 0.5 * (nodes + everywhere))
    with pytest.raises(Overflow):
        propagate._fundamental_traces(pot, [0.5], 66)
    monkeypatch.undo()
    psi, dpsi = _half_traces(pot, [0.5], 66)
    nodes, everywhere = _peaks(psi)
    assert everywhere > nodes
    monkeypatch.setattr(propagate, "MAX_MAGNITUDE", 0.5 * (nodes + everywhere))
    with pytest.raises(Overflow):
        propagate._traces(*_half_scan(pot, [0.5], 66))
    (m,) = propagate._endpoint_maps(pot, [0.5], 66)
    np.testing.assert_array_equal(m, [psi[:, 0, -1], dpsi[:, 0, -1]])
    monkeypatch.setattr(propagate, "MAX_MAGNITUDE", 0.5 * np.max(np.abs(psi[..., -1])))
    with pytest.raises(Overflow, match="too deep in a classically forbidden region"):
        propagate._endpoint_maps(pot, [0.5], 66)
