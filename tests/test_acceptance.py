"""Acceptance suite: every numbered criterion in one labeled test.

Each test prints a single [criterion NN] PASS/FAIL line with the measured
numbers, then asserts.  Criterion 4 is the paper's claim: two different
symmetric potentials with one S-matrix at the construction energy.  Its
line reports the even and odd channel gaps separately, since equal
boundary data pins the even channel and the tuning bump pins the odd one.
"""

import math
import time

import numpy as np
import pytest

import scatter1d.propagate as propagate
from helpers import (
    SingularQuads,
    amplitude_route,
    cell_states,
    full_interval_sine_eigs,
    random_smooth_sampled,
    run_cli,
    smatrix_from_quads,
    smooth_order_errors,
)
from scatter1d.core import AsymmetricPotential, TauTooSmall
from scatter1d.noninjective import build_counterexample, verify_same_smatrix
from scatter1d.potential import Sampled, SquareWell, validate
from scatter1d.smatrix import (
    analytic_delta,
    analytic_square_well,
    delta_as_well_limit,
    smatrix_via_transfer,
)
from scatter1d.spectral import (
    PARITY_EVEN,
    PARITY_ODD,
    asymptotic_log_det,
    fredholm_log_dets,
    fredholm_report,
    jost_forms,
    marchenko_residual,
    phase_shift,
    sine_kernel_spectrum,
)
from scatter1d.szego import ArcSymbol, toeplitz_logdet

WELL_GRID = [
    (v0, a, energy)
    for v0 in (0.5, 2.0, 10.0)
    for a in (0.5, 1.0)
    for energy in (0.25, 1.0, 4.0)
]


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_analytic_square_well_grid():
    start = time.perf_counter()
    worst = 0.0
    for v0, a, energy in WELL_GRID:
        pot = validate(SquareWell(v0=v0, a=a))
        num = smatrix_via_transfer(pot, energy, steps=4096)
        ref = analytic_square_well(v0, a, energy)
        worst = max(worst, float(np.max(np.abs(num.as_matrix() - ref.as_matrix()))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"max entrywise gap {worst:.3e} (limit 1e-6) over 18 wells in {elapsed:.2f}s",
    )


def test_criterion_02_unitarity_and_parity():
    # Parity holds by construction on the channel route, so the second
    # clause is its gap to the amplitude route on [-a, a] of the test
    # oracle, which imposes parity in a different way.
    start = time.perf_counter()
    worst_unitarity = 0.0
    worst_route_gap = 0.0
    rng = np.random.default_rng(20260816)
    wells = [(validate(SquareWell(v0=v0, a=a)), energy) for v0, a, energy in WELL_GRID]
    for pot, energy in wells + [
        (validate(random_smooth_sampled(rng)), float(rng.uniform(0.3, 5.0))) for _ in range(50)
    ]:
        s = smatrix_via_transfer(pot, energy)
        worst_unitarity = max(worst_unitarity, s.unitarity_residual())
        gap = np.abs(amplitude_route(pot, energy).as_matrix() - s.as_matrix())
        worst_route_gap = max(worst_route_gap, float(np.max(gap)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_unitarity <= 1e-8 and worst_route_gap <= 1e-8 and elapsed < 30.0,
        f"unitarity {worst_unitarity:.3e}, gap to the full-interval amplitude route "
        f"{worst_route_gap:.3e} (limits 1e-8) over 68 potentials in {elapsed:.2f}s",
    )


def test_criterion_03_delta_limit():
    start = time.perf_counter()
    ref = analytic_delta(2.0, 1.0).as_matrix()
    err = {
        eps: float(np.max(np.abs(delta_as_well_limit(2.0, 1.0, eps=eps).as_matrix() - ref)))
        for eps in (1e-2, 1e-3)
    }
    ratio = err[1e-2] / err[1e-3]
    elapsed = time.perf_counter() - start
    report(
        3,
        err[1e-3] <= 1e-3 and 5.0 <= ratio <= 20.0 and elapsed < 5.0,
        f"entrywise gap {err[1e-3]:.3e} at eps 1e-3 (limit 1e-3), "
        f"first-order ratio {ratio:.2f} (window [5, 20]) in {elapsed:.2f}s",
    )


def test_criterion_04_noninjectivity_at_one_energy():
    start = time.perf_counter()
    pair = build_counterexample(q=1.0, eps=0.01, a=1.0)
    at_energy = verify_same_smatrix(pair, steps=8192)
    shifted = verify_same_smatrix(pair, steps=8192, energy=pair.energy + 0.5)
    elapsed = time.perf_counter() - start
    separated = pair.separation > 5e-3
    shifted_differs = shifted.max_entry_diff > 1e-4
    same_at_energy = at_energy.max_entry_diff <= 1e-6
    report(
        4,
        separated and same_at_energy and shifted_differs and elapsed < 10.0,
        f"separation {pair.separation:.4f} (> 5e-3), full-matrix gap at the "
        f"construction energy {at_energy.max_entry_diff:.3e} against the 1e-6 "
        f"clause [even channel {at_energy.even_channel_diff:.1e}, pinned by the "
        f"boundary data; odd channel {at_energy.odd_channel_diff:.1e}, pinned by "
        f"the tuning bump c = {pair.odd_coefficient:.6f}], "
        f"gap at E+0.5 {shifted.max_entry_diff:.3e} (> 1e-4) in {elapsed:.2f}s",
    )


def test_criterion_05_amplitude_route_equivalence_and_degeneracy():
    start = time.perf_counter()
    rng = np.random.default_rng(8161)
    worst = 0.0
    for _ in range(50):
        pot = validate(random_smooth_sampled(rng))
        energy = float(rng.uniform(0.3, 5.0))
        s_quad = amplitude_route(pot, energy)
        s_transfer = smatrix_via_transfer(pot, energy)
        worst = max(
            worst, float(np.max(np.abs(s_quad.as_matrix() - s_transfer.as_matrix())))
        )

    def singular(in_left, in_right):
        try:
            smatrix_from_quads([(in_left, 0.3, 0.7, in_right)], 1.0, 1.0)
            return False
        except SingularQuads:
            return True

    # |A^2 - D^2| below / above 1e-12 (|A|^2 + |D|^2) on each side.
    degeneracy_ok = (
        singular(1.0, 1.0)
        and singular(1.0, -1.0)
        and singular(1.0, 1.0 + 3e-13)
        and not singular(1.0, 1.0 + 3e-12)
        and not singular(1.0, 1.0j)
    )
    elapsed = time.perf_counter() - start
    report(
        5,
        worst <= 1e-9 and degeneracy_ok and elapsed < 30.0,
        f"two-solution vs channel-route gap {worst:.3e} (limit 1e-9) on 50 random "
        f"potentials, single-solution degeneracy threshold exact on both sides: "
        f"{degeneracy_ok}, in {elapsed:.2f}s",
    )


def test_criterion_06_sine_kernel_spectrum():
    start = time.perf_counter()
    in_range = True
    descending = True
    worst_union = 0.0
    worst_tail = 0.0
    for t in (0.5, 1.0, 2.0):
        spec = sine_kernel_spectrum(t)
        for eigs in (spec.even_eigs, spec.odd_eigs):
            in_range &= bool(np.all(eigs >= 0.0) and np.all(eigs <= 1.0))
        descending &= bool(np.all(np.diff(spec.merged) <= 1e-10))
        oracle = full_interval_sine_eigs(t, 600)
        # The union holds 2 QUAD_ORDER eigenvalues, all compared; the
        # oracle's next ones, up to index 100, must be negligible, so that
        # no eigenvalue of that size is missing from the union.
        count = spec.merged.size
        keep = 100
        worst_union = max(worst_union, float(np.max(np.abs(spec.merged - oracle[:count]))))
        worst_tail = max(worst_tail, float(np.max(oracle[count:keep], initial=0.0)))
    elapsed = time.perf_counter() - start
    report(
        6,
        in_range and descending and worst_union <= 1e-10 and worst_tail <= 1e-10 and elapsed < 20.0,
        f"eigenvalues in [0,1]: {in_range}, merged descending: {descending}, "
        f"parity union vs full-interval oracle {worst_union:.3e}, oracle "
        f"beyond the union {worst_tail:.3e} (limit 1e-10) in {elapsed:.2f}s",
    )


def test_criterion_07_widom_asymptotics():
    start = time.perf_counter()
    ts = (1.0, 1.5, 2.0, 2.5, 3.0)
    pairs = [fredholm_log_dets(t) for t in ts]
    residual = {
        parity: [abs(pair[i] - asymptotic_log_det(parity, t)) for t, pair in zip(ts, pairs)]
        for i, parity in enumerate((PARITY_EVEN, PARITY_ODD))
    }
    small_at_3 = all(residual[p][-1] <= 0.01 for p in residual)
    monotone = all(
        b < a for vals in residual.values() for a, b in zip(vals, vals[1:])
    )
    elapsed = time.perf_counter() - start
    report(
        7,
        small_at_3 and monotone and elapsed < 60.0,
        f"residual at t=3: even {residual[PARITY_EVEN][-1]:.3e}, odd "
        f"{residual[PARITY_ODD][-1]:.3e} (limit 0.01), monotone over five t "
        f"values: {monotone}, in {elapsed:.2f}s",
    )


def test_criterion_08_reconstructed_potential_asymptote():
    start = time.perf_counter()
    grid = np.arange(2.2, 2.9 + 0.0125, 0.025)
    sweep = fredholm_report(grid)
    tau = math.pi * grid
    i = int(np.argmin(np.abs(tau[1:-1] - 8.0))) + 1
    scaled = {
        PARITY_EVEN: sweep.w_plus[i] * 4.0 * tau[i] ** 2,
        PARITY_ODD: sweep.w_minus[i] * 4.0 * tau[i] ** 2,
    }
    tail_ok = all(abs(val + 1.0) <= 0.2 for val in scaled.values())

    worst_symbolic = 0.0
    h_tau = math.pi * (grid[1] - grid[0])
    for parity in (PARITY_EVEN, PARITY_ODD):
        logf = np.array([asymptotic_log_det(parity, t) for t in grid])
        second = (logf[2:] - 2.0 * logf[1:-1] + logf[:-2]) / (h_tau * h_tau)
        w = -2.0 * second - 1.0
        tau = math.pi * grid[1:-1]
        worst_symbolic = max(worst_symbolic, float(np.max(np.abs(w + 0.25 / tau**2))))
    elapsed = time.perf_counter() - start
    report(
        8,
        tail_ok and worst_symbolic <= 1e-3 and elapsed < 60.0,
        f"W*4tau^2 at tau~8: even {scaled[PARITY_EVEN]:.4f}, odd "
        f"{scaled[PARITY_ODD]:.4f} (within 0.2 of -1), stencil on the closed "
        f"form off -1/(4 tau^2) by {worst_symbolic:.3e} (limit 1e-3) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_09_phase_shift_identities():
    worst_identity = 0.0
    worst_branch = 0.0
    for k in (0.1, 1.0, 10.0, 100.0):
        shift = phase_shift(k)
        worst_identity = max(
            worst_identity,
            abs(k * math.tan(2.0 * shift.eta_even) + 1.0),
            abs(k * math.tan(2.0 * shift.eta_odd) - 1.0),
        )
        forms = jost_forms(k)
        worst_branch = max(
            worst_branch, abs(float(np.angle(forms.exp_ieta_even)) - shift.eta_even)
        )
    report(
        9,
        worst_identity <= 1e-12 and worst_branch <= 1e-12,
        f"k tan(2 eta) identity residual {worst_identity:.3e}, closed-form "
        f"argument vs eta_even {worst_branch:.3e} (limits 1e-12)",
    )


def test_criterion_10_marchenko_rearrangement():
    even = [marchenko_residual(PARITY_EVEN, t) for t in (1.5, 2.0, 2.5, 3.0)]
    odd = [marchenko_residual(PARITY_ODD, t) for t in (1.5, 2.0, 2.5, 3.0)]
    monotone = all(
        abs(b) < abs(a) for vals in (even, odd) for a, b in zip(vals, vals[1:])
    )
    try:
        marchenko_residual(PARITY_ODD, 0.15)
        rejects = False
    except TauTooSmall:
        rejects = True
    report(
        10,
        abs(even[-1]) <= 0.02 and monotone and rejects,
        f"|even residual| at t=3 {abs(even[-1]):.3e} (limit 0.02), decreasing "
        f"over four t values: {monotone}, odd channel rejects tau <= 1/2: {rejects}",
    )


def test_criterion_11_toeplitz_second_order_asymptotics():
    start = time.perf_counter()
    r32 = toeplitz_logdet(ArcSymbol(math.pi / 2), 32)
    r64 = toeplitz_logdet(ArcSymbol(math.pi / 2), 64)
    shrinking = abs(r64.residual) < abs(r32.residual)
    trivial_one = max(
        abs(toeplitz_logdet(ArcSymbol(alpha), 1).log_det - math.log(1.0 - alpha / math.pi))
        for alpha in (0.3, 1.0, 2.5)
    )
    identity = toeplitz_logdet(ArcSymbol(0.0), 64)
    identity_exact = identity.log_det == 0.0 and identity.residual == 0.0
    elapsed = time.perf_counter() - start
    report(
        11,
        shrinking
        and abs(r64.residual) <= 0.1
        and trivial_one <= 1e-14
        and identity_exact
        and elapsed < 10.0,
        f"residual n=32 {r32.residual:.3e} -> n=64 {r64.residual:.3e} "
        f"(limit 0.1, shrinking: {shrinking}), 1x1 gap {trivial_one:.2e} "
        f"(limit 1e-14), identity symbol exact: {identity_exact}, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_12_property_suite():
    # Order of convergence on a smooth V and exactness where V is constant,
    # both of the maps (psi, psi')(0) -> (psi, psi')(a) that S is read from.
    errs = smooth_order_errors(propagate._endpoint_maps, (128, 256, 512))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    well = validate(SquareWell(v0=2.0, a=1.0))
    l = math.sqrt(3.0)
    exact = np.array([[math.cos(l), math.sin(l) / l], [-l * math.sin(l), math.cos(l)]])
    well_err = max(
        float(np.max(np.abs(propagate._endpoint_maps([well], [1.0], steps)[0, 0] - exact)))
        for steps in (128, 256, 512)
    )
    order_ok = all(8.0 <= r <= 32.0 for r in ratios) and well_err <= 1e-13

    # Wronskian conservation along the cell nodes of [-a, a].
    states = cell_states(validate(SquareWell(v0=10.0, a=1.0)), 0.5, -1.0, 2048)
    wronskian_dev = float(np.max(np.abs(np.linalg.det(states) - 1.0)))

    # Symmetry validation rejects antisymmetric data.
    x = np.linspace(-1.0, 1.0, 9)
    try:
        validate(Sampled(a=1.0, x=x, v=x.copy()))
        rejects_antisymmetric = False
    except AsymmetricPotential:
        rejects_antisymmetric = True

    # CLI determinism.
    args = ("smatrix", "--well", "2,1", "--energy-grid", "0.5,2,4", "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    deterministic = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    report(
        12,
        order_ok and wronskian_dev <= 1e-8 and rejects_antisymmetric and deterministic,
        f"convergence ratios {[f'{r:.1f}' for r in ratios]} (window [8, 32]), "
        f"well error {well_err:.1e} (limit 1e-13), "
        f"Wronskian drift {wronskian_dev:.3e} (limit 1e-8), antisymmetric "
        f"input rejected: {rejects_antisymmetric}, CLI reruns byte-identical: "
        f"{deterministic}",
    )
