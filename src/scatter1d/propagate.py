"""Numerov integration of psi'' = (V - E) psi across [-a, a].

The three-term Numerov recurrence is fourth-order accurate for smooth
potentials and exploits the absence of a first-derivative term.  With
g = V - E and f = 1 - h^2 g / 12 it reads

    f[i+2] psi[i+2] = (2 + 5 h^2 g[i+1] / 6) psi[i+1] - f[i] psi[i].

Each step is written as a 2x2 matrix acting on the value-difference state
(psi[i], (psi[i+1] - psi[i]) / h),

    [[1, h],
     [h (g[i] + 10 g[i+1] + g[i+2]) / (12 f[i+2]),
      (1 + h^2 (10 g[i+1] + g[i+2]) / 12) / f[i+2]]],

and the whole trace is the sequence of prefix products of these matrices.
One pairwise scan computes the last few or all of them for a block of
energies at once, with both fundamental initial data as the two columns,
so rounding grows with the depth of the scan's tree rather than with the
step count.  The state (psi, psi') at -a enters through a first matrix
built from a fifth-order Taylor step whose g derivatives are taken from
one-sided differences of the tabulated g, keeping the global order at four
without requiring derivatives of V.

First derivatives along the trace are recovered by fourth-order five-point
stencils, one-sided at the two points nearest each edge, evaluated on the
differences the scan carries.  Any initial data, complex included, is a
combination of the fundamental pair.

The S-matrix needs only the map (psi, psi')(-a) -> (psi, psi')(+a), and
psi(+a) and the edge stencil read only the last four prefixes.  The
endpoint maps therefore ask the scan for just those four, which carry the
same bits as the full trace's.  The full trace's overflow check is replaced
by an a-priori bound on the solution's growth, and the full trace is still
formed and checked wherever that bound cannot rule overflow out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Overflow, PreconditionViolated, wavenumber_from_energy
from .potential import EvaluatedPotential

#: Solutions beyond this magnitude are deep in a classically forbidden
#: region at the chosen energy and no longer trustworthy.
MAX_MAGNITUDE = 1e150

MIN_STEPS = 64

#: Integration steps, summed over energies, propagated in one scan: 32
#: energies at the default 4096 steps.  Longer energy lists go through in
#: blocks of this size, which bounds the memory held at once to about 15 MB
#: and is no slower per energy than larger blocks.  It is also the largest
#: step count accepted, so a single energy stays within that bound.
SCAN_STEPS = 2**17


@dataclass(frozen=True)
class BoundaryData:
    """Wavefunction and derivative at the two edges of the support."""

    psi_left: complex
    dpsi_left: complex
    psi_right: complex
    dpsi_right: complex


@dataclass
class WaveTrace:
    """Solution values on the integration grid.

    grid endpoints are exactly -a and +a; psi and dpsi share the grid shape.
    """

    grid: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    energy: float

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(
            psi_left=complex(self.psi[0]),
            dpsi_left=complex(self.dpsi[0]),
            psi_right=complex(self.psi[-1]),
            dpsi_right=complex(self.dpsi[-1]),
        )


def _derivative(diff: np.ndarray) -> np.ndarray:
    """Fourth-order first derivative along the last axis of a trace.

    diff[..., j] is the difference quotient (psi[j+1] - psi[j]) / h.  The
    centered five-point stencil inside and the one-sided five-point
    stencils at the two points nearest each edge are written in these
    differences, so no two nearly equal values of psi are subtracted.  The
    right edge applies the left-edge stencils to the reversed differences.
    """
    out = np.empty(diff.shape[:-1] + (diff.shape[-1] + 1,))
    out[..., 2:-2] = (7 * (diff[..., 1:-2] + diff[..., 2:-1]) - diff[..., :-3] - diff[..., 3:]) / 12
    for edge, inner, d in ((0, 1, diff), (-1, -2, diff[..., ::-1])):
        out[..., edge] = (25 * d[..., 0] - 23 * d[..., 1] + 13 * d[..., 2] - 3 * d[..., 3]) / 12
        out[..., inner] = (3 * d[..., 0] + 13 * d[..., 1] - 5 * d[..., 2] + d[..., 3]) / 12
    return out


def _taylor_start(g: np.ndarray, h: float):
    """(psi[1] - psi[0]) / h per unit psi(-a) and per unit psi'(-a).

    A fifth-order Taylor step that uses psi'' = g psi and one-sided
    difference estimates for g' and g'', so only tabulated g values are
    needed; g runs along the last axis.
    """
    g0 = g[..., 0]
    gp = (-3 * g[..., 0] + 4 * g[..., 1] - g[..., 2]) / (2 * h)
    gpp = (2 * g[..., 0] - 5 * g[..., 1] + 4 * g[..., 2] - g[..., 3]) / (h * h)
    per_psi = 0.5 * h * g0 + (h * h / 6.0) * gp + (h**3 / 24.0) * (gpp + g0 * g0)
    per_dpsi = 1.0 + (h * h / 6.0) * g0 + (h**3 / 12.0) * gp
    return per_psi, per_dpsi


def _mul(left, right):
    """Products of two stacks of 2x2 matrices given entrywise as (m11, m12, m21, m22)."""
    l11, l12, l21, l22 = left
    r11, r12, r21, r22 = right
    return l11 * r11 + l12 * r21, l11 * r12 + l12 * r22, l21 * r11 + l22 * r21, l21 * r12 + l22 * r22


def _prefixes(m: np.ndarray, count: int) -> np.ndarray:
    """The last count of the prefix products M_k ... M_1 M_0 along the last axis.

    m[0..3] hold the entries (m11, m12, m21, m22) of the matrices M_k, and
    the result holds those of the prefixes.  Adjacent pairs are multiplied
    and the pair sequence is scanned recursively: prefix k >= 1 is pair
    prefix (k - 1) // 2, times M_k when k is even, so each level asks the
    next for about half as many prefixes as it returns.  Rounding grows
    with the depth of this tree, not with the length, and a prefix has the
    same bits whatever count is.
    """
    n = m.shape[-1]
    first = n - count
    out = m[..., first:].copy()
    if n < 2:
        return out
    pairs = _prefixes(np.array(_mul(m[..., 1::2], m[..., :-1:2])), n // 2 - max(first - 1, 0) // 2)
    skipped = n // 2 - pairs.shape[-1]  # pair prefixes not formed, before pairs[..., 0]
    # Odd k: pair prefix (k - 1) // 2.  Even k >= 2: M_k times pair prefix
    # k // 2 - 1.  Prefix 0 is M_0 as copied.
    odd = first | 1
    out[..., odd - first :: 2] = pairs[..., (odd - 1) // 2 - skipped :]
    even = max(first + first % 2, 2)
    evens = out[..., even - first :: 2]
    below = even // 2 - 1 - skipped
    evens[...] = _mul(evens, pairs[..., below : below + evens.shape[-1]])
    return out


def check_steps(steps: int) -> None:
    """Refuse a step count outside [MIN_STEPS, SCAN_STEPS]."""
    if not MIN_STEPS <= steps <= SCAN_STEPS:
        raise PreconditionViolated(f"steps must lie in [{MIN_STEPS}, {SCAN_STEPS}], got {steps}")


def _check(pot: EvaluatedPotential, energies, steps: int) -> None:
    """Refuse what no scan can propagate, before anything is allocated."""
    if pot.is_delta:
        raise PreconditionViolated("delta potentials have no interior to integrate")
    check_steps(steps)
    for energy in energies:
        wavenumber_from_energy(energy)  # raises unless E is finite and positive


def _step_matrices(pot: EvaluatedPotential, energies, steps: int):
    """Grid, spacing h and the step matrices of one scan.

    The matrices have shape (4, len(energies), steps), entries m[0..3] =
    (m11, m12, m21, m22) of one matrix per state: matrix 0 maps (psi,
    psi')(-a) to state 0 and matrix i + 1 is the Numerov step from state i,
    so the two columns of the prefix products are the states of the
    fundamental pair.

    Raises PreconditionViolated when h^2 (E - V) reaches 6 at a grid point:
    past that edge the Numerov recurrence is unstable, and its solutions
    grow geometrically where the true ones oscillate.
    """
    grid = np.linspace(-pot.a, pot.a, steps + 1)
    h = (2.0 * pot.a) / steps
    v = pot(grid)
    energies = np.asarray(energies, dtype=float)
    _check_stability(float(energies.max()), float(v.min()), pot.a, steps)
    g = v - energies[:, None]
    m = np.empty((4, g.shape[0], steps))
    m[0] = 1.0
    m[1] = h
    m[1, :, 0] = 0.0
    with np.errstate(all="ignore"):
        m[2, :, 0], m[3, :, 0] = _taylor_start(g, h)
        inv = 1.0 / (1.0 - (h * h / 12.0) * g[:, 2:])
        m[2, :, 1:] = (h / 12.0) * (g[:, :-2] + 10.0 * g[:, 1:-1] + g[:, 2:]) * inv
        m[3, :, 1:] = (1.0 + (h * h / 12.0) * (10.0 * g[:, 1:-1] + g[:, 2:])) * inv
    return grid, h, m


def _check_stability(energy: float, v_min: float, a: float, steps: int) -> None:
    """Refuse a step count at which h^2 (E - V) reaches Numerov's edge of 6."""
    depth = energy - v_min
    if ((2.0 * a) / steps) ** 2 * depth < 6.0:
        return
    needed = math.floor(2.0 * a * math.sqrt(depth / 6.0)) + 1
    while ((2.0 * a) / needed) ** 2 * depth >= 6.0:  # rounding at the edge
        needed += 1
    raise PreconditionViolated(
        f"energy {energy} at {steps} steps puts h^2 (E - min V) at "
        f"{((2.0 * a) / steps) ** 2 * depth:.4g}, past the Numerov stability edge 6; "
        f"it needs at least {needed} steps"
        + (f", more than the {SCAN_STEPS} allowed" if needed > SCAN_STEPS else "")
    )


def _traces(m: np.ndarray, h: float, count: int):
    """psi and dpsi on the last count + 1 grid points, from the step matrices.

    The last two dpsi values are the full trace's whatever count is; the
    others are only when count is the step count.  Raises Overflow when a
    solution magnitude there leaves the trustworthy range.
    """
    with np.errstate(all="ignore"):
        p = _prefixes(m, count)
        psi = np.empty((2, p.shape[1], count + 1))
        psi[..., :-1] = p[:2]
        psi[..., -1] = p[:2, :, -1] + h * p[2:, :, -1]
        peak = np.max(np.abs(psi))
        if not np.isfinite(peak) or peak > MAX_MAGNITUDE:
            raise Overflow(
                f"wavefunction magnitude {peak:.3e} exceeds {MAX_MAGNITUDE:.0e}; "
                "the energy is too deep in a classically forbidden region"
            )
        return psi, _derivative(p[2:])


def _fundamental_traces(pot: EvaluatedPotential, energies, steps: int):
    """Grid, psi and dpsi of the fundamental pair at every energy, from one scan.

    psi and dpsi have shape (2, len(energies), steps + 1); index 0 is the
    solution with (psi, psi')(-a) = (1, 0) and index 1 the one with (0, 1).
    Raises Overflow when a solution magnitude leaves the trustworthy range.
    """
    _check(pot, energies, steps)
    grid, h, m = _step_matrices(pot, energies, steps)
    return (grid, *_traces(m, h, steps))


def _log_growth_bound(m: np.ndarray, h: float) -> float:
    """An upper bound on log |psi| over the whole trace of every energy.

    Each psi value is an entry of the first row of a product P of step
    matrices, and psi(+a) adds h times its second row.  Every step matrix
    has max-row-sum norm at most R = max(1 + h, max |m21| + max |m22|),
    which is at least 1, so |psi| <= (1 + h) R^steps.  The bound is at
    most about 2 a max |V - E|.  NaN or inf when an entry is not finite.
    """
    with np.errstate(all="ignore"):
        row = np.max(np.abs(m[2]), axis=-1) + np.max(np.abs(m[3]), axis=-1)
        norm = np.maximum(1.0 + h, row)
        return float(np.max(m.shape[-1] * np.log(norm) + np.log1p(h)))


def _endpoint_maps(pot: EvaluatedPotential, energies, steps: int) -> np.ndarray:
    """Maps (psi, psi')(-a) -> (psi, psi')(+a) at each energy, read off the scan.

    Shape (len(energies), 2, 2); the columns are the fundamental pair.
    psi(+a) and the one-sided stencil for psi'(+a) read only the last four
    prefixes of the scan.  Where the growth bound rules out Overflow only
    those are formed; elsewhere the full traces are formed and checked, so
    Overflow is raised exactly where _fundamental_traces raises it.  Either
    way the maps carry the bits of the full traces.
    """
    _check(pot, energies, steps)
    block = SCAN_STEPS // steps
    maps = np.empty((len(energies), 2, 2))
    for start in range(0, len(energies), block):
        _, h, m = _step_matrices(pot, energies[start : start + block], steps)
        # The factor 2 covers rounding in the scan and in the bound itself.
        count = 4 if _log_growth_bound(m, h) < math.log(MAX_MAGNITUDE / 2) else steps
        psi, dpsi = _traces(m, h, count)
        maps[start : start + block] = np.stack([psi[..., -1], dpsi[..., -1]]).transpose(2, 0, 1)
    return maps


def integrate(
    pot: EvaluatedPotential,
    energy: float,
    psi0: complex,
    dpsi0: complex,
    steps: int = 4096,
) -> WaveTrace:
    """Propagate initial data (psi, psi')(-a) to +a on steps+1 grid points.

    The trace is psi0 u1 + dpsi0 u2 of the fundamental pair, so the map is
    linear in (psi0, dpsi0) and complex data takes the same path as real
    data.  Raises Overflow when the solution magnitude leaves the
    trustworthy range.
    """
    u1, u2 = fundamental_pair(pot, energy, steps=steps)
    return WaveTrace(
        grid=u1.grid,
        psi=psi0 * u1.psi + dpsi0 * u2.psi,
        dpsi=psi0 * u1.dpsi + dpsi0 * u2.dpsi,
        energy=u1.energy,
    )


def fundamental_pair(
    pot: EvaluatedPotential, energy: float, steps: int = 4096
) -> tuple[WaveTrace, WaveTrace]:
    """Two solutions with (psi, psi')(-a) = (1, 0) and (0, 1).

    Their Wronskian u1 u2' - u1' u2 equals 1 along the whole grid up to the
    integrator's accuracy, which is the conservation check used in tests.
    """
    grid, psi, dpsi = _fundamental_traces(pot, [energy], steps)
    return tuple(
        WaveTrace(grid=grid, psi=psi[j, 0], dpsi=dpsi[j, 0], energy=float(energy)) for j in (0, 1)
    )
