"""Magnus integration: accuracy, order, conservation, and guards."""

import math

import numpy as np
import pytest

import scatter1d.propagate as propagate
from helpers import cell_states, flat_barrier, smooth_order_errors
from scatter1d.core import NonPositiveEnergy, Overflow, PreconditionViolated
from scatter1d.potential import Sampled, SquareWell, validate
from scatter1d.propagate import SCAN_STEPS
from scatter1d.smatrix import smatrix_via_transfer

FREE = validate(SquareWell(v0=0.0, a=1.0))
WELL = validate(SquareWell(v0=2.0, a=1.0))


def _well_map(l, a=1.0):
    """The exact map (psi, psi')(0) -> (psi, psi')(a) where V - E = -l^2."""
    c, s = math.cos(l * a), math.sin(l * a)
    return np.array([[c, s / l], [-l * s, c]])


def test_free_plane_wave_reaches_exp_ik():
    k = 1.0
    (m,) = propagate._endpoint_maps([FREE], [k * k], 4096)[0]
    exact = np.exp(1j * k)
    assert np.max(np.abs(m @ [1.0, 1j * k] - exact * np.array([1.0, 1j * k]))) < 1e-8


def test_free_wave_matches_exponential_on_every_cell_node():
    k = 1.5
    states = cell_states(FREE, k * k, -1.0, 2048) @ [1.0, 1j * k]
    exact = np.exp(1j * k * (np.linspace(-1.0, 1.0, 2049) + 1.0))
    assert np.max(np.abs(states[:, 0] - exact)) < 1e-8
    assert np.max(np.abs(states[:, 1] - 1j * k * exact)) < 1e-8


def test_well_interior_cosine():
    # With (psi, psi')(-a) = (1, 0) the solution inside the well is
    # cos(l (x + a)) where l^2 = E + v0, on every cell node of [-a, a].
    l = np.sqrt(3.0)
    x = np.linspace(-1.0, 1.0, 2049)
    states = cell_states(WELL, 1.0, -1.0, 2048)[:, :, 0]
    assert np.max(np.abs(states[:, 0] - np.cos(l * (x + 1.0)))) < 1e-8
    assert np.max(np.abs(states[:, 1] + l * np.sin(l * (x + 1.0)))) < 1e-8


def test_real_data_keeps_real_dtype():
    # A real V at real energies gives real maps; S alone is complex.
    assert propagate._endpoint_maps([WELL], [1.0, 2.0], 4096).dtype == np.float64
    assert cell_states(WELL, 1.0, -1.0, 64).dtype == np.float64


def test_grid_endpoints_are_exact():
    # The scan reads V on the 2 * cells + 1 nodes of [0, a], evenly spaced,
    # the first exactly at x = 0 and the last exactly at x = a.
    well = validate(SquareWell(v0=2.0, a=0.7))
    grids = []

    class Spy:
        a = well.a

        def __call__(self, x):
            grids.append(x)
            return well(x)

    maps = propagate._endpoint_maps([Spy()], [1.0], 256)
    np.testing.assert_array_equal(maps, propagate._endpoint_maps([well], [1.0], 256))
    (grid,) = grids
    assert grid.size == 2 * 64 + 1
    assert grid[0] == 0.0
    assert grid[-1] == 0.7
    np.testing.assert_allclose(np.diff(grid), 0.7 / 128, rtol=1e-12)


def test_linearity_of_the_propagation_map():
    # For a symmetric V the cells of [-a, 0] mirror those of [0, a]: a
    # mirrored cell has d -> -d, so its matrix is R M^-1 R with
    # R = diag(1, -1).  The map of [-a, a], stepped cell by cell, is then
    # the map M of [0, a] times R M^-1 R, where M^-1 = [[m22, -m12],
    # [-m21, m11]] since det M = 1.
    x = np.linspace(-1.0, 1.0, 257)
    gaussian = validate(Sampled(a=1.0, x=x, v=-2.0 * np.exp(-8.0 * x * x)))
    for pot in (WELL, validate(flat_barrier(25.0)), gaussian):
        for energy in (0.5, 1.5, 9.0):
            (m,) = propagate._endpoint_maps([pot], [energy], 4096)[0]
            (m11, m12), (m21, m22) = m
            full = cell_states(pot, energy, -pot.a, 2048)[-1]
            mirror = m @ np.array([[m22, m12], [m21, m11]])
            assert np.max(np.abs(full - mirror)) <= 1e-10 * np.max(np.abs(full))


def test_wronskian_is_one_along_the_grid():
    # Each cell matrix has determinant 1: along the cell nodes of [-a, a],
    # and for the endpoint map of [0, a].
    for pot, energy in ((FREE, 1.0), (WELL, 1.0), (validate(SquareWell(10.0, 1.0)), 0.5)):
        assert np.max(np.abs(np.linalg.det(cell_states(pot, energy, -1.0, 2048)) - 1.0)) < 1e-8
        assert abs(np.linalg.det(propagate._endpoint_maps([pot], [energy], 4096)[0, 0]) - 1.0) < 1e-8


def test_fourth_order_convergence():
    # Halving the step divides the endpoint error on a smooth V by about 16.
    errs = smooth_order_errors(propagate._endpoint_maps, (128, 256, 512))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 8.0 <= ratio <= 32.0, f"convergence ratio {ratio}"
    # Each Magnus step is the exact propagator where V is constant, so the
    # well leaves rounding only.
    for steps in (128, 256, 512):
        (m,) = propagate._endpoint_maps([WELL], [1.0], steps)[0]
        assert np.max(np.abs(m - _well_map(math.sqrt(3.0)))) <= 1e-13


@pytest.mark.parametrize("steps", [130, 194, 100, 2002])
def test_step_counts_that_are_not_powers_of_two(steps):
    # These cross [0, a] in 33, 49, 25 and 501 cells: the pairwise product
    # leaves one cell over at some levels.
    (m,) = propagate._endpoint_maps([WELL], [1.0], steps)[0]
    assert np.max(np.abs(m - _well_map(math.sqrt(3.0)))) < 1e-7
    assert abs(np.linalg.det(m) - 1.0) < 1e-5


def _three_term_recurrence(m, psi0, dpsi0):
    """psi on the nodes of the cells m (shape (cells, 2, 2)), from (psi0, dpsi0), carrying psi alone.

    With y_{n+1} = M_n y_n and det M_n = 1, eliminating psi' gives
    psi_{n+1} = a_n psi_n + (b_n / b_{n-1}) (d_{n-1} psi_n - psi_{n-1}).
    """
    psi = [psi0, m[0, 0, 0] * psi0 + m[0, 0, 1] * dpsi0]
    for prev, cell in zip(m, m[1:]):
        psi.append(cell[0, 0] * psi[-1] + cell[0, 1] / prev[0, 1] * (prev[1, 1] * psi[-1] - psi[-2]))
    return np.array(psi)


@pytest.mark.parametrize("psi0,dpsi0", [(1.0, 0.0), (0.0, 1.0), (0.3, -1.2)])
def test_scan_matches_the_three_term_recurrence(psi0, dpsi0):
    # The oracle's psi on every cell node of [-a, a], and psi(a) of the
    # map of [0, a] applied to (psi0, dpsi0), against the recurrence over
    # the same cells; both roundings grow with the number of cells.
    steps = 1000
    x = np.linspace(-1.0, 1.0, 257)
    pot = validate(Sampled(a=1.0, x=x, v=-2.0 * np.exp(-8.0 * x * x)))
    energies = np.array([1.5])
    for start, cells in ((-1.0, steps // 2), (0.0, -(-steps // 4))):
        m = propagate._cell_matrices(propagate._cells([pot], start, cells), energies)[:, 0].T.reshape(-1, 2, 2)
        reference = _three_term_recurrence(m, psi0, dpsi0)
        states = cell_states(pot, 1.5, start, cells) @ [psi0, dpsi0]
        assert np.max(np.abs(states[:, 0] - reference)) < steps * np.finfo(float).eps
    (m,) = propagate._endpoint_maps([pot], [1.5], steps)[0]
    assert abs((m @ [psi0, dpsi0])[0] - reference[-1]) < steps * np.finfo(float).eps


def test_smooth_sampled_matches_well():
    # A sampled tabulation of the well reproduces the analytic interior.
    x = np.linspace(-1.0, 1.0, 513)
    pot = validate(Sampled(a=1.0, x=x, v=np.full(513, -2.0)))
    (m,) = propagate._endpoint_maps([pot], [1.0], 4096)[0]
    assert np.max(np.abs(m - _well_map(math.sqrt(3.0)))) < 1e-8


def test_overflow_in_a_deep_forbidden_region():
    # psi(a) = cosh(sqrt(V - E) a) = 2.347e274 is finite here, but past
    # MAX_MAGNITUDE.
    with pytest.raises(Overflow, match=r"wavefunction magnitude 2\.347e\+274 exceeds 1e\+150"):
        smatrix_via_transfer(validate(flat_barrier(4.0e5)), 1.0)


def test_overflow_check_reads_x_equals_a(monkeypatch):
    # The odd solution sin(l x) / l of this well peaks inside [0, a].  With
    # the limit between |psi(a)| and that peak, the endpoint maps, which
    # check only x = a, answer; with the limit below |psi(a)|, they refuse.
    pot = validate(SquareWell(v0=0.45, a=2.0))
    psi = cell_states(pot, 0.5, 0.0, 17)[:, 0]
    (m,) = propagate._endpoint_maps([pot], [0.5], 66)[0]
    edge, inside = np.max(np.abs(m[0])), np.max(np.abs(psi))
    assert inside > edge
    monkeypatch.setattr(propagate, "MAX_MAGNITUDE", 0.5 * (edge + inside))
    np.testing.assert_array_equal(propagate._endpoint_maps([pot], [0.5], 66)[0, 0], m)
    monkeypatch.setattr(propagate, "MAX_MAGNITUDE", 0.5 * edge)
    with pytest.raises(Overflow, match="too deep in a classically forbidden region"):
        propagate._endpoint_maps([pot], [0.5], 66)


def test_moderate_barrier_tunnels_without_overflow():
    maps = propagate._endpoint_maps([validate(flat_barrier(25.0))], [1.0], 4096)
    assert np.all(np.isfinite(maps))


def test_guards():
    with pytest.raises(PreconditionViolated, match="got 32"):
        smatrix_via_transfer(WELL, 1.0, steps=32)
    with pytest.raises(NonPositiveEnergy):
        smatrix_via_transfer(WELL, 0.0)
    with pytest.raises(NonPositiveEnergy):
        smatrix_via_transfer(WELL, -1.0)


def test_steps_beyond_one_scan_are_refused():
    # Only the refusal is exercised: a huge step count would allocate GBs.
    with pytest.raises(PreconditionViolated, match=str(SCAN_STEPS)):
        smatrix_via_transfer(WELL, 1.0, steps=SCAN_STEPS + 2)
    with pytest.raises(PreconditionViolated, match=str(SCAN_STEPS)):
        propagate._endpoint_maps([WELL], [1.0], SCAN_STEPS + 1)
    with pytest.raises(PreconditionViolated):
        propagate._endpoint_maps([WELL], [1.0], 0)


def test_odd_step_counts_are_refused():
    # A cell spans two steps.
    for steps in (65, 4095):
        with pytest.raises(PreconditionViolated, match=f"be even, got {steps}"):
            smatrix_via_transfer(WELL, 1.0, steps=steps)
        with pytest.raises(PreconditionViolated, match="even"):
            propagate._endpoint_maps([WELL], [1.0], steps)


def test_energy_past_the_former_numerov_edge_keeps_the_closed_form():
    # h^2 (E - min V) = 6.01 at 4096 steps, past the edge 6 where a Numerov
    # step is unstable.  Each Magnus step is exact on the well; the scaled
    # map error on [0, a] is rounding, which grows with the phase l a
    # (about 5e3).
    energy = 6.01 * (4096 / 2.0) ** 2 - 2.0
    l = math.sqrt(energy + 2.0)
    for steps in (4096, 4100):
        (m,) = propagate._endpoint_maps([WELL], [energy], steps)[0]
        c, s = math.cos(l), math.sin(l)
        scaled = m * np.array([[1.0, l], [1.0 / l, 1.0]])
        assert np.max(np.abs(scaled - [[c, s], [-s, c]])) < 1e-11
    assert np.all(np.isfinite(propagate._endpoint_maps([WELL], [1e12], 4096)[0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_energy_is_refused(bad):
    with pytest.raises(PreconditionViolated, match="energy must be finite"):
        smatrix_via_transfer(WELL, bad)


def _sequential_maps(pot, energies, steps):
    """Maps (psi, psi')(0) -> (psi, psi')(a) on the cells of _endpoint_maps, by sequential products."""
    return np.array([cell_states(pot, energy, 0.0, -(-steps // 4))[-1] for energy in energies])


def _random_gaussian(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.5, 2.0))
    x = np.linspace(-a, a, 257)
    v = rng.uniform(-20.0, 20.0) * np.exp(-rng.uniform(1.0, 5.0) * (x / a) ** 2)
    return validate(Sampled(a=a, x=x, v=0.5 * (v + v[::-1]))), rng


def _mul_by_entries(left, right, out):
    """l_i1 r_1j + l_i2 r_2j with one multiply and one add per entry: the formula _mul must keep the bits of."""
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        np.multiply(left[i], right[j], out=out[i + j])
        out[i + j] += left[i + 1] * right[j + 2]
    return out


@pytest.mark.parametrize("rows", [(1,), (3,), (2, 5)])
@pytest.mark.parametrize("length", [1, 2, 7, 999, 1024, 1025])
def test_mul_keeps_the_bits_of_the_entry_formula(rows, length):
    rng = np.random.default_rng(length)
    shape = (4, *rows, length)
    # Entries spread over many binades, none zero, so that any change of
    # rounding shows in the bits.
    m = rng.normal(size=shape) * np.exp(rng.normal(scale=10.0, size=shape))
    operands = [
        (m[..., 1::2], m[..., :-1:2]),  # the adjacent pairs of _pairs
        (np.ascontiguousarray(m[..., -1]), m[..., 0]),  # a set-aside matrix of _product
    ]
    for left, right in operands:
        expected = _mul_by_entries(left, right, np.empty(left.shape))
        got = propagate._mul(left, right, np.empty(left.shape))
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_product_matches_sequential_products():
    rng = np.random.default_rng(4)
    for length in list(range(1, 41)) + [64, 127, 129, 1000, 1024]:
        # Near-identity factors keep the products of order one.
        m = np.eye(2).reshape(4, 1, 1) + 0.1 * rng.normal(size=(4, 3, length))
        product = np.broadcast_to(np.eye(2), (3, 2, 2))
        for k in range(length):
            product = m[:, :, k].T.reshape(3, 2, 2) @ product
        expected = product.reshape(3, 4).T
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(propagate._product(m), expected, rtol=0, atol=1e-12 * scale, err_msg=str(length))


@pytest.mark.parametrize("steps", [64, 130, 134, 254, 1000, 4096])
def test_endpoint_maps_match_sequential_products(steps):
    # The reference steps the state (psi, psi') from node to node in a
    # Python loop, by the same cell matrices; the loop's rounding grows
    # with the number of cells.
    pot, rng = _random_gaussian(steps)
    energies = list(rng.uniform(0.1, 30.0, 5))
    maps = propagate._endpoint_maps([pot], energies, steps)[0]
    expected = _sequential_maps(pot, energies, steps)
    scale = np.max(np.abs(expected), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(maps - expected) <= steps * np.finfo(float).eps * scale)


def test_endpoint_maps_across_scan_blocks():
    # 70 energies at 4096 steps fill two scans of 32 and part of a third;
    # each row keeps the bits of a scan of its own.
    pot, rng = _random_gaussian(7)
    energies = list(rng.uniform(0.1, 30.0, 70))
    maps = propagate._endpoint_maps([pot], energies, 4096)[0]
    np.testing.assert_array_equal(maps, [propagate._endpoint_maps([pot], [e], 4096)[0, 0] for e in energies])


@pytest.mark.parametrize("steps", [SCAN_STEPS // 16, SCAN_STEPS // 4, SCAN_STEPS])
def test_scan_rows_of_several_potentials_equal_their_own_scans(monkeypatch, steps):
    # Five energies of three potentials of one support make 15 rows: one
    # block of 15 at 16 rows per block, blocks of 4 and 1 per potential at 4,
    # and 15 blocks of one row at SCAN_STEPS.
    x = np.linspace(-1.0, 1.0, 257)
    pots = [WELL, validate(flat_barrier(5.0)), validate(Sampled(a=1.0, x=x, v=-8.0 * np.exp(-4.0 * x * x)))]
    energies = [0.3, 1.0, 2.5, 7.0, 30.0]
    alone = np.stack([propagate._endpoint_maps([pot], energies, steps)[0] for pot in pots])
    rows = []
    cell_matrices = propagate._cell_matrices

    def spy(omega, energies):
        m = cell_matrices(omega, energies)
        rows.append(m.shape[1])
        return m

    monkeypatch.setattr(propagate, "_cell_matrices", spy)
    np.testing.assert_array_equal(propagate._endpoint_maps(pots, energies, steps), alone)
    assert rows == {SCAN_STEPS // 16: [15], SCAN_STEPS // 4: [4, 1] * 3, SCAN_STEPS: [1] * 15}[steps]


def test_potentials_scanned_together_share_one_support():
    with pytest.raises(PreconditionViolated, match="one support"):
        propagate._endpoint_maps([WELL, validate(SquareWell(v0=2.0, a=2.0))], [1.0], 4096)


@pytest.mark.parametrize("height", [100.0, 900.0])
def test_endpoint_maps_take_one_product_of_the_cells(monkeypatch, height):
    # Whatever the growth across the barrier, the scan forms one product
    # of the 1024 cells of [0, a], which matches the sequential one.
    barrier = validate(flat_barrier(height))
    lengths = []
    product = propagate._product

    def spy(m):
        lengths.append(m.shape[-1])
        return product(m)

    monkeypatch.setattr(propagate, "_product", spy)
    maps = propagate._endpoint_maps([barrier], [1.0, 2.0], 4096)[0]
    assert lengths == [1024]
    expected = _sequential_maps(barrier, [1.0, 2.0], 4096)
    assert np.all(np.abs(maps - expected) <= 1e-12 * np.max(np.abs(expected), axis=(1, 2), keepdims=True))


def test_endpoint_maps_on_barriers_are_the_product_or_refused():
    # Tall barriers grow the odd and even solutions like e^{a sqrt(V - E)}.
    # Up to MAX_MAGNITUDE at x = a, the map is the product of the [0, a]
    # cells; past it, the map is refused.
    answered = refused = 0
    for height in (100.0, 400.0, 900.0, 1e4, 1e5):
        for a in (0.5, 1.0, 2.0):
            barrier = validate(flat_barrier(height, a))
            for steps in (66, 1026, 4096):
                omega = propagate._cells([barrier], 0.0, -(-steps // 4))
                with np.errstate(all="ignore"):
                    last = propagate._product(propagate._cell_matrices(omega, np.array([1.0, 2.0])))
                if np.all(np.isfinite(last)) and np.max(np.abs(last[:2])) <= propagate.MAX_MAGNITUDE:
                    maps = propagate._endpoint_maps([barrier], [1.0, 2.0], steps)[0]
                    np.testing.assert_array_equal(maps, last.T.reshape(-1, 2, 2))
                    answered += 1
                else:
                    with pytest.raises(Overflow):
                        propagate._endpoint_maps([barrier], [1.0, 2.0], steps)
                    refused += 1
    assert answered and refused
