"""Energy-local potential recovery and the non-injectivity construction.

A node-free real solution psi at energy E determines the potential pointwise
through V(x) = E + psi''(x) / psi(x).  Starting from the node-free baseline
psi0 = cos(q x) with q a < pi/2, adding the smooth bump
f = eps (x^2 - a^2)^2, which vanishes to first order at both edges,
produces a second wavefunction psi0 + f with identical boundary data whose
potential differs in the interior.  Every wave of the construction is a
closed form, so both potentials are formed from the waves' exact second
derivatives on the construction grid, with no numerical differentiation,
and held as the validated tables that the forward solver reads.  Both are
exactly even, so each has a well-defined scattering matrix at E, and
``verify_same_smatrix`` forward-solves both and compares.

Identical boundary data of the even solution fixes the even reflection
eigenvalue at E, the first of ``SMatrix.channels``.  The odd solution feels
the bump through its reduction-of-order integral: for V = E + psi''/psi it
is psi(x) * integral_0^x psi^-2, so with psi and psi' fixed at +-a the odd
eigenvalue depends on the wave only through I = integral of
psi^-2 over the support, and a single bump leaves it different.  The
default construction therefore adds a second edge-flat even bump
c x^2 (x^2 - a^2)^2 and chooses c by Newton's method on I with Simpson's
rule, with no forward solve, so that both channels, and with them the
full 2x2 matrices, agree at E.  The two potentials are then forward-solved
once each, both in one scan, and the odd channels are checked to agree
after the fact.
``single_bump=True`` keeps the one-bump deformation, which matches the
even channel only; the comparison reports both channel gaps separately so
either case is visible.

``recover_potential`` reads V off a sampled trace on a uniform grid
instead, with a fourth-order stencil for psi''; the ``recover`` subcommand
is its caller.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AllMasked,
    ComplexWavefunction,
    IdenticalPotentials,
    NodeCollision,
    NonFiniteSample,
    OddChannelUnmatched,
    PreconditionViolated,
    _check_finite,
    _check_positive,
)
from .potential import MIN_TRACE_POINTS, EvaluatedPotential, Sampled, _uniform_step, validate
from .propagate import check_steps
from .smatrix import SMatrix, _smatrices

#: Points where |psi| falls below node_tol * max|psi| are masked.
DEFAULT_NODE_TOL = 1e-6

IMAG_RTOL = 1e-12

#: Largest gap between the odd channels of the two matrices a tuned pair may
#: show when both potentials are forward-solved at the construction steps.
#: The Simpson match leaves at most about 7e-11 over the benchmark's
#: counterexample lists, so this is well clear of working pairs.
ODD_CHANNEL_TOL = 1e-8
#: Newton iterations allowed for the odd-channel match, step-backs from a
#: node included.
MAX_NEWTON_STEPS = 20
#: Newton stops once a step moves c by less than this times 1 + |c|.
NEWTON_RTOL = 1e-12
#: A separation within this many units of rounding (machine epsilon
#: times max(|E|, max |V|)) of zero is the rounding of E + psi''/psi.
SEPARATION_ULPS = 4


def bump_values(a: float, eps: float, x: np.ndarray):
    """Values and first and second derivatives of the bump f = eps (x^2 - a^2)^2.

    Even, smooth, and flat at both edges, so it leaves the boundary data of
    the wave it deforms unchanged.
    """
    f = eps * (x * x - a * a) ** 2
    fp = 4.0 * eps * x * (x * x - a * a)
    fpp = 4.0 * eps * (3.0 * x * x - a * a)
    return f, fp, fpp


def tuning_bump_values(a: float, x: np.ndarray):
    """Values and first and second derivatives of the unit tuning bump x^2 (x^2 - a^2)^2.

    Even and flat at both edges like the main bump, so any multiple of it
    leaves the boundary data unchanged.
    """
    w = x * x - a * a
    gpp = (30.0 * x * x - 24.0 * a * a) * x * x + 2.0 * a**4
    return x * x * w * w, 2.0 * x * w * (3.0 * x * x - a * a), gpp


def _stencil_d2(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order second derivative on a uniform grid of spacing h, one-sided at the edges.

    values needs at least MIN_TRACE_POINTS entries, which the edge stencils
    read; ``recover_potential``, its caller, checks that with the grid.

    The interior stencil sums mirror neighbours pairwise so that an exactly
    even input produces an exactly even output; a left-to-right evaluation
    order would leak summation rounding into a spurious asymmetry, and a
    table recovered from an even trace would then fail the strict symmetry
    check of ``validate`` when read back as a sampled potential.
    """
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
    Raises PreconditionViolated unless node_tol is finite and positive and
    grid and psi are 1d arrays of equal length with at least
    MIN_TRACE_POINTS points; NonUniformGrid unless the grid strictly
    increases with spacing uniform to GRID_RTOL relative; and
    NonFiniteSample when a node or a value of psi is NaN or infinite.  Exact
    zeros of psi are masked whatever node_tol * max|psi| rounds to.
    """
    _check_positive("node_tol", node_tol)
    grid, psi = np.asarray(grid, dtype=float), np.asarray(psi)
    if grid.ndim != 1 or grid.shape != psi.shape:
        raise PreconditionViolated("grid and psi must be 1d arrays of equal length")
    if grid.size < MIN_TRACE_POINTS:
        raise PreconditionViolated(f"a trace needs at least {MIN_TRACE_POINTS} rows, got {grid.size}")
    h = _uniform_step(grid, "trace grid")
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
    d2 = _stencil_d2(psi, h)

    mask = (np.abs(psi) < node_tol * peak) | (psi == 0)
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
    """Forward-solved scattering matrices of the two potentials of a pair.

    even/odd channel gaps are those between the parity reflection
    eigenvalues, ``SMatrix.channels``.  Equal boundary data fixes the even
    channel and the default construction tunes the odd channel, so at the
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


def _compare(base: EvaluatedPotential, pert: EvaluatedPotential, energy: float, steps: int) -> SMatrixComparison:
    """Forward-solve both potentials at one energy and step count, in one scan, and compare."""
    (sb,), (sp,) = _smatrices([base, pert], [energy], steps)
    diff = float(np.max(np.abs(sb.as_matrix() - sp.as_matrix())))
    even, odd = (abs(b - p) for b, p in zip(sb.channels, sp.channels))
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

    baseline and perturbed are the validated potentials E + psi''/psi of
    cos(qx) and of the deformed wave, tables on the construction grid.
    separation is the sup-norm distance between them; it converges with
    the step count, because the bump is smooth.
    odd_coefficient is the amplitude c of the tuning bump in the perturbed
    wave; it is 0 for a single-bump pair.  comparison holds the two
    forward-solved scattering matrices at the construction's energy and
    steps.
    """

    baseline: EvaluatedPotential
    perturbed: EvaluatedPotential
    energy: float
    separation: float
    q: float
    eps: float
    a: float
    boundary_residual: float
    odd_coefficient: float
    comparison: SMatrixComparison


def _node_free(psi: np.ndarray) -> bool:
    """Whether psi stays above DEFAULT_NODE_TOL of its peak on every node.

    The baseline cos(q x) is positive on the support, so the test is
    signed: a sign change that falls between two nodes fails it as well.
    """
    return bool(np.min(psi) > DEFAULT_NODE_TOL * np.max(np.abs(psi)))


def _match_odd_channel(psi0: np.ndarray, p: np.ndarray, g: np.ndarray) -> float:
    """Tuning-bump amplitude c that gives p + c g the odd channel of psi0.

    With the boundary data fixed, the odd channel depends only on the
    integral of psi^-2 over the support, so c is the root of
    J(c) = S[(p + c g)^-2] - S[psi0^-2], with S the Simpson rule on the
    construction grid, one dot with the weights (1, 4, 2, ..., 4, 1) (its
    factor h / 3 cancels in the Newton step).
    Where p + c g has no node, J is convex and decreasing in c (g >= 0),
    so the root is unique and Newton's method, J'(c) = -2 S[g (p + c g)^-3],
    finds it from c = 0.  An iterate that gives the wave a node is pulled
    back halfway toward the last c without one.  Raises NodeCollision when
    p itself has a node, and OddChannelUnmatched when MAX_NEWTON_STEPS
    iterations do not converge or when J'(c) underflows to 0 (a tuning bump
    below about 1e-320 on every node, as at a <= 1e-54), before dividing by it.
    """
    weights = np.tile([2.0, 4.0], p.size // 2 + 1)[: p.size]
    weights[0] = weights[-1] = 1.0
    target = float(weights @ psi0**-2.0)
    c = good = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        psi = p + c * g
        if not _node_free(psi):
            if c == good:
                raise NodeCollision("perturbed wavefunction develops a node; reduce |eps|")
            c = 0.5 * (c + good)
            continue
        good = c
        inverse = 1.0 / psi
        inverse_sq = inverse * inverse
        slope = -2.0 * float(weights @ (g * inverse_sq * inverse))
        if slope == 0.0:
            raise OddChannelUnmatched(f"g psi^-3 underflows to 0 at c = {c}, so the tuning bump cannot move the odd channel")
        step = (float(weights @ inverse_sq) - target) / slope
        c -= step
        if abs(step) <= NEWTON_RTOL * (1.0 + abs(c)):
            return c
    raise OddChannelUnmatched(f"no tuning-bump amplitude matches the odd channel; Newton ended at c = {c}")


def build_counterexample(
    q: float,
    eps: float,
    a: float,
    steps: int = 4096,
    single_bump: bool = False,
) -> CounterexamplePair:
    """Construct the pair (cos(qx), deformed wave) and both potentials.

    The deformed wave is cos(qx) + f + c g, with f the bump
    eps (x^2 - a^2)^2 and g the tuning bump x^2 (x^2 - a^2)^2, on a grid
    of steps + 1 nodes mirrored from [0, a], so every wave is exactly even.
    By default c matches the integrals of psi^-2 of the two waves (see
    _match_odd_channel), so both reflection eigenvalues of the two
    potentials agree at E; ``single_bump=True`` sets c = 0, which matches
    the even channel only.  Each potential is E + psi''/psi with psi'' in
    closed form (psi0'' = -E psi0 and the bumps' own second derivatives).
    The construction energy is E = q^2, making the baseline potential zero
    up to rounding.  Requires q a < pi/2 so the baseline is node-free on
    [-a, a], and steps divisible by 4, so the forward solves on [0, a]
    read the potentials at their nodes.  Both potentials are forward-solved
    once at ``steps``, in one scan, and the pair's comparison holds those
    matrices, so it equals verify_same_smatrix(pair).  Raises
    NodeCollision if a deformed wave develops a node; IdenticalPotentials,
    before the forward solves, if the two potential tables are equal up to
    the rounding of E + psi''/psi, that is, if their separation is at most
    SEPARATION_ULPS times machine epsilon times max(|E|, max |V|) (eps = 0;
    eps = 1e-17 with the default q and a, a separation of 2.2e-16, while
    eps = 1e-15 gives 6.3e-14 and answers); and OddChannelUnmatched if the
    search does not converge or the forward-solved odd channels of a tuned
    pair differ by more than ODD_CHANNEL_TOL.  Non-finite q, eps or a
    are refused with PreconditionViolated before any arithmetic, and so are an
    a whose sixth power, the scale of the tuning bump, overflows (a above
    about 2.3e51), an eps whose bump overflows (its largest terms are 4 eps,
    f'' = 8 eps a^2 at the edges and f = eps a^4 at 0), and a q whose
    energy q^2 overflows.
    """
    _check_positive("q", q)
    _check_positive("a", a)
    _check_finite(eps=eps)
    if not math.isfinite(a * a * a * a * a * a):  # products overflow to inf where a**6 would raise
        raise PreconditionViolated(f"a = {a} is too large: the tuning bump x^2 (x^2 - a^2)^2 overflows")
    if not math.isfinite(4.0 * eps * max(1.0, 2.0 * a * a, a**4 / 4.0)):
        raise PreconditionViolated(f"eps = {eps} is too large for a = {a}: the bump eps (x^2 - a^2)^2 overflows")
    if not math.isfinite(q * q):
        raise PreconditionViolated(f"q = {q} is too large: the energy q^2 overflows")
    if not q * a < math.pi / 2:
        raise PreconditionViolated(f"need q*a < pi/2 for a node-free baseline, got q*a = {q * a}")
    check_steps(steps)
    if steps % 4:
        raise PreconditionViolated(f"steps must be divisible by 4, got {steps}")
    energy = q * q
    half = np.linspace(0.0, a, steps // 2 + 1)
    grid = np.concatenate((-half[:0:-1], half))
    psi0 = np.cos(q * np.abs(grid))
    d2psi0 = -energy * psi0
    f, fp, fpp = bump_values(a, eps, grid)
    g, gp, gpp = tuning_bump_values(a, grid)

    coefficient = 0.0 if single_bump else _match_odd_channel(psi0, psi0 + f, g)
    psi = psi0 + f + coefficient * g
    if not _node_free(psi):
        raise NodeCollision("perturbed wavefunction develops a node; reduce |eps|")
    base = validate(Sampled(a, grid, energy + d2psi0 / psi0))
    pert = validate(Sampled(a, grid, energy + (d2psi0 + fpp + coefficient * gpp) / psi))
    separation = float(np.max(np.abs(pert.v - base.v)))
    rounding = SEPARATION_ULPS * np.finfo(float).eps * max(energy, np.max(np.abs(base.v)), np.max(np.abs(pert.v)))
    if separation <= rounding:
        raise IdenticalPotentials(
            f"the bump at eps = {eps}, a = {a} moves the potential by at most {separation:.3e}, within the "
            f"rounding ({rounding:.3e}) of E + psi''/psi: the two tables are the same"
        )
    comparison = _compare(base, pert, energy, steps)
    if not (single_bump or comparison.odd_channel_diff <= ODD_CHANNEL_TOL):
        raise OddChannelUnmatched(
            f"the forward-solved odd channels differ by {comparison.odd_channel_diff:.3e} at c = {coefficient}"
        )

    boundary_residual = max(max(abs(f[i] + coefficient * g[i]), abs(fp[i] + coefficient * gp[i])) for i in (0, -1))
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
        comparison=comparison,
    )


def verify_same_smatrix(
    pair: CounterexamplePair, steps: int | None = None, energy: float | None = None
) -> SMatrixComparison:
    """Forward-solve both potentials of the pair and compare scattering data.

    steps defaults to the pair's own step count, at which the solves read
    the potentials at their nodes; other step counts also read their
    piecewise-linear interpolant between nodes, which adds an error of its
    own.  energy defaults to the construction energy.  The pair holds both
    potentials already validated, so they go to the solver as they are, in
    one scan, which refuses two supports that differ with
    PreconditionViolated.
    """
    if steps is None:
        steps = pair.baseline.x.size - 1
    if energy is None:
        energy = pair.energy
    return _compare(pair.baseline, pair.perturbed, energy, steps)
