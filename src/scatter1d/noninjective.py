"""Energy-local potential recovery and the non-injectivity construction.

A node-free real solution psi at energy E determines the potential pointwise
through V(x) = E + psi''(x) / psi(x).  Starting from the node-free baseline
psi0 = cos(q x) with q a < pi/2, adding the smooth bump
f = eps (x^2 - a^2)^2, which vanishes to first order at both edges,
produces a second wavefunction psi0 + f with identical boundary data whose
recovered potential differs in the interior.  Both recovered potentials are
symmetric, so each has a well-defined scattering matrix at E, and
``verify_same_smatrix`` forward-solves both and compares.

Identical boundary data of the even solution fixes the even reflection
eigenvalue s11 + s12 at E.  The odd solution feels the bump through its
reduction-of-order integral, so a single bump leaves the odd eigenvalue
s11 - s12 different.  The default construction therefore adds a second
edge-flat even bump c x^2 (x^2 - a^2)^2 and chooses c by a secant search
on the odd eigenvalue's phase, so that both channels, and with them the
full 2x2 matrices, agree at E.  ``single_bump=True`` keeps the one-bump
deformation, which matches the even channel only; the comparison reports
both channel gaps separately so either case is visible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AllMasked,
    ComplexWavefunction,
    NodeCollision,
    NonFiniteSample,
    OddChannelUnmatched,
    PreconditionViolated,
)
from .potential import MIN_TRACE_POINTS, Sampled, validate
from .propagate import check_steps
from .smatrix import SMatrix, smatrix_via_transfer

#: Points where |psi| falls below node_tol * max|psi| are masked.
DEFAULT_NODE_TOL = 1e-6

IMAG_RTOL = 1e-12

#: The odd-channel match stops once the phase of the perturbed odd
#: eigenvalue relative to the baseline's is below this, in radians: above
#: the phase's rounding noise (about 1e-11 at 4096 steps), below the
#: discretization error of the forward solve (about 1e-7).
ODD_PHASE_TOL = 1e-9
#: Secant steps allowed for the odd-channel match.
MAX_SECANT_STEPS = 20


def bump_values(a: float, eps: float, x: np.ndarray):
    """Values and derivative of the bump f = eps (x^2 - a^2)^2 on the grid.

    Even, twice differentiable everywhere, and flat at both edges, so it
    leaves the boundary data of the wave it deforms unchanged.
    """
    f = eps * (x * x - a * a) ** 2
    fp = 4.0 * eps * x * (x * x - a * a)
    return f, fp


def tuning_bump_values(a: float, x: np.ndarray):
    """Values and derivative of the unit tuning bump x^2 (x^2 - a^2)^2.

    Even and flat at both edges like the main bump, so any multiple of it
    leaves the boundary data unchanged.
    """
    w = x * x - a * a
    return x * x * w * w, 2.0 * x * w * (3.0 * x * x - a * a)


def _stencil_d2(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order second derivative, one-sided at the edges.

    The interior stencil sums mirror neighbours pairwise so that an exactly
    even input produces an exactly even output; a left-to-right evaluation
    order would leak summation rounding into a spurious asymmetry that the
    strict potential validation downstream does not tolerate.
    """
    if values.size < MIN_TRACE_POINTS:
        raise PreconditionViolated(f"need at least {MIN_TRACE_POINTS} grid points, got {values.size}")
    # Reductions below must see one memory layout: numpy picks the dot
    # accumulation order by stride, and a layout mismatch between the two
    # edges breaks the exact mirror symmetry of the output.
    values = np.ascontiguousarray(values)
    out = np.empty_like(values)
    near = values[1:-3] + values[3:-1]
    far = values[:-4] + values[4:]
    out[2:-2] = (16.0 * near - far - 30.0 * values[2:-2]) / (12 * h * h)
    left = np.array([45, -154, 214, -156, 61, -10]) / (12 * h * h)
    nextleft = np.array([10, -15, -4, 14, -6, 1]) / (12 * h * h)
    head = values[:6]
    tail = np.ascontiguousarray(values[-6:][::-1])
    out[0] = left @ head
    out[1] = nextleft @ head
    out[-1] = left @ tail
    out[-2] = nextleft @ tail
    return out


@dataclass
class RecoveredPotential:
    """Pointwise recovered potential with the node mask.

    values at masked points are filled by linear interpolation from the
    unmasked neighbours so forward solvers see finite data everywhere.
    """

    x: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    node_tol: float


def recover_potential(
    grid: np.ndarray, psi: np.ndarray, energy: float, node_tol: float = DEFAULT_NODE_TOL
) -> RecoveredPotential:
    """Recover V(x) = E + psi'' / psi from a real node-free-enough trace.

    grid is the uniform grid of the trace and psi its values there.
    Raises NonFiniteSample when a value of psi is NaN or infinite.
    """
    psi = np.asarray(psi)
    if not np.all(np.isfinite(psi)):
        raise NonFiniteSample("wavefunction trace holds a NaN or infinite value")
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0:
        raise AllMasked("wavefunction is identically zero")
    if np.iscomplexobj(psi):
        if float(np.max(np.abs(psi.imag))) > IMAG_RTOL * peak:
            raise ComplexWavefunction(
                "potential recovery needs a real trace; imaginary part exceeds 1e-12 relative"
            )
        psi = psi.real
    grid = np.asarray(grid, dtype=float)
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    d2 = _stencil_d2(psi, h)

    mask = np.abs(psi) < node_tol * peak
    if mask.all():
        raise AllMasked("every grid point is within node_tol of a node")
    values = np.empty_like(psi)
    ok = ~mask
    values[ok] = energy + d2[ok] / psi[ok]
    if mask.any():
        values[mask] = np.interp(grid[mask], grid[ok], values[ok])
    return RecoveredPotential(x=grid, values=values, mask=mask, node_tol=node_tol)


@dataclass
class SMatrixComparison:
    """Forward-solved scattering matrices of both recovered potentials.

    even/odd channel entries are the parity reflection eigenvalues
    s11 + s12 and s11 - s12.  Equal boundary data fixes the even channel
    and the default construction tunes the odd channel, so at the
    construction energy both gaps, and max_entry_diff, measure numerics
    only.  For a single-bump pair odd_channel_diff is a genuine gap between
    the two matrices.
    """

    energy: float
    s_baseline: SMatrix
    s_perturbed: SMatrix
    max_entry_diff: float
    even_channel_diff: float
    odd_channel_diff: float


def _compare(energy: float, sb: SMatrix, sp: SMatrix) -> SMatrixComparison:
    diff = float(np.max(np.abs(sb.as_matrix() - sp.as_matrix())))
    even = abs((sb.s11 + sb.s12) - (sp.s11 + sp.s12))
    odd = abs((sb.s11 - sb.s12) - (sp.s11 - sp.s12))
    return SMatrixComparison(
        energy=float(energy),
        s_baseline=sb,
        s_perturbed=sp,
        max_entry_diff=diff,
        even_channel_diff=float(even),
        odd_channel_diff=float(odd),
    )


@dataclass
class CounterexamplePair:
    """Two wavefunctions with identical boundary data, different potentials.

    baseline and perturbed are the potentials recovered from cos(qx) and
    from the deformed wave.  separation is the sup-norm distance between
    them; it converges with the step count, because the bump is smooth.
    odd_coefficient is the amplitude c of the tuning bump in the perturbed
    wave; it is 0 for a single-bump pair.  comparison holds the two
    forward-solved scattering matrices at the construction's energy and
    steps.
    """

    baseline: RecoveredPotential
    perturbed: RecoveredPotential
    energy: float
    separation: float
    q: float
    eps: float
    a: float
    boundary_residual: float
    odd_coefficient: float
    comparison: SMatrixComparison


def _recover_perturbed(grid, psi, energy: float) -> RecoveredPotential:
    peak = float(np.max(np.abs(psi)))
    if peak == 0.0 or np.min(np.abs(psi)) < DEFAULT_NODE_TOL * peak:
        raise NodeCollision("perturbed wavefunction develops a node; reduce |eps|")
    return recover_potential(grid, psi, energy)


def _forward_smatrix(rec: RecoveredPotential, a: float, energy: float, steps: int) -> SMatrix:
    pot = validate(Sampled(a=a, x=rec.x, v=rec.values))
    return smatrix_via_transfer(pot, energy, steps=steps)


def _match_odd_channel(
    base: RecoveredPotential, psi, g, a, energy, steps, first_step, search: bool
):
    """Tuning-bump amplitude c that gives psi + c g the baseline's odd channel.

    The phase of (s11 - s12)_perturbed / (s11 - s12)_baseline at E is close
    to linear in c, so a secant search from c = 0 and c = first_step needs
    only a few forward solves; without search, c = 0.  Returns c, the
    potential recovered from psi + c g, and the scattering matrices of the
    baseline and of that potential.
    """
    s_base = _forward_smatrix(base, a, energy, steps)
    target = s_base.s11 - s_base.s12

    def solve(c: float):
        rec = _recover_perturbed(base.x, psi + c * g, energy)
        s = _forward_smatrix(rec, a, energy, steps)
        return float(np.angle((s.s11 - s.s12) / target)), rec, s

    c0, (p0, rec, s) = 0.0, solve(0.0)
    if not search or abs(p0) <= ODD_PHASE_TOL:
        return 0.0, rec, s_base, s
    c1, p1 = first_step, p0
    for _ in range(MAX_SECANT_STEPS):
        p1, rec, s = solve(c1)
        if abs(p1) <= ODD_PHASE_TOL:
            return c1, rec, s_base, s
        if p1 == p0:
            break
        c0, p0, c1 = c1, p1, c1 - p1 * (c1 - c0) / (p1 - p0)
    raise OddChannelUnmatched(
        f"no tuning-bump amplitude matches the odd channel at E = {energy}; "
        f"the secant search ended at c = {c1} with phase {p1:.3e}"
    )


def build_counterexample(
    q: float,
    eps: float,
    a: float,
    steps: int = 4096,
    single_bump: bool = False,
) -> CounterexamplePair:
    """Construct the pair (cos(qx), deformed wave) and recover both potentials.

    The deformed wave is cos(qx) + f + c g, with f the bump
    eps (x^2 - a^2)^2 and g the tuning bump x^2 (x^2 - a^2)^2.  By default c
    is found by a secant search at ``steps`` integration steps so that both
    reflection eigenvalues of the two recovered potentials agree at E;
    ``single_bump=True`` sets c = 0, which matches the even channel only.
    The construction energy is E = q^2, making the recovered baseline
    potential identically zero.  Requires q a < pi/2 so the baseline is
    node-free on [-a, a].  Raises NodeCollision if a deformed wave develops
    a node and OddChannelUnmatched if the search finds no amplitude.  The
    pair's comparison reuses the forward solves of the construction, so it
    equals verify_same_smatrix(pair, steps) without solving again.
    """
    if not (q > 0.0 and a > 0.0):
        raise PreconditionViolated("q and a must be positive")
    if not q * a < math.pi / 2:
        raise PreconditionViolated(
            f"need q*a < pi/2 for a node-free baseline, got q*a = {q * a}"
        )
    check_steps(steps)
    energy = q * q
    grid = np.linspace(-a, a, steps + 1)
    psi0 = np.cos(q * grid)
    dpsi0 = -q * np.sin(q * grid)
    f, fp = bump_values(a, eps, grid)
    g, gp = tuning_bump_values(a, grid)

    base = recover_potential(grid, psi0, energy)
    coefficient, pert, s_base, s_pert = _match_odd_channel(
        base, psi0 + f, g, a, energy, steps, eps, search=not single_bump
    )
    psi = psi0 + f + coefficient * g
    dpsi = dpsi0 + fp + coefficient * gp

    boundary_residual = max(
        abs(psi0[0] - psi[0]),
        abs(psi0[-1] - psi[-1]),
        abs(dpsi0[0] - dpsi[0]),
        abs(dpsi0[-1] - dpsi[-1]),
    )
    separation = float(np.max(np.abs(pert.values - base.values)))
    return CounterexamplePair(
        baseline=base,
        perturbed=pert,
        energy=energy,
        separation=separation,
        q=q,
        eps=eps,
        a=a,
        boundary_residual=float(boundary_residual),
        odd_coefficient=float(coefficient),
        comparison=_compare(energy, s_base, s_pert),
    )


def verify_same_smatrix(
    pair: CounterexamplePair, steps: int = 8192, energy: float | None = None
) -> SMatrixComparison:
    """Forward-solve both recovered potentials and compare scattering data.

    Both wavefunctions are even and the recovery stencil preserves evenness
    exactly, so both recovered potentials pass the strict symmetry
    validation as they are.
    """
    if energy is None:
        energy = pair.energy
    sb, sp = (
        _forward_smatrix(rec, pair.a, energy, steps)
        for rec in (pair.baseline, pair.perturbed)
    )
    return _compare(energy, sb, sp)
