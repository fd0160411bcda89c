"""Magnus integration of psi'' = (V - E) psi across [-a, a] or [0, a].

The state y = (psi, psi') obeys y' = A y with A = [[0, 1], [g, 0]] and
g = V - E.  The grid's intervals, an even number, are paired into cells of
width H = 2h, and each cell is crossed by the fourth-order Magnus step
(Iserles & Norsett 1999, Proc. R. Soc. A 455), which reads V only at the
cell's three nodes, where g takes the values g0, gm and g1:

    Omega = H/6 (A0 + 4 Am + A1) + H^2/12 [A1, A0] = [[d, H], [H s, -d]],
    s = (g0 + 4 gm + g1) / 6,   d = H^2 (g0 - g1) / 12.

Omega is traceless, so its exponential is closed form,

    exp(Omega) = cos w I + (sin w / w) Omega,   w^2 = -(d^2 + H^2 s),

with cosh and sinh where d^2 + H^2 s > 0.  The step is exact for constant
V, its error falls as the energy grows (Iserles 2002, BIT 42), and no step
count makes it unstable.

The states at the cell nodes are the prefix products of the cell matrices.
One pairwise scan computes the last or all of them for a block of energies
at once, with both fundamental initial data as the two columns, so
rounding grows with the depth of the scan's tree rather than with the step
count.  A full trace fills each cell's midpoint with a half-cell step from
the cell's first node, whose quarter-point g is the quadratic through the
cell's three nodes, (3 g0 + 6 gm - g1) / 8.  Any initial data, complex
included, is a combination of the fundamental pair.

For a symmetric V the S-matrix needs only the map (psi, psi')(0) ->
(psi, psi')(a), whose columns are the even and odd solutions: the product
of a scan's cell matrices over [0, a], with the bits of the full trace's
last node.  The endpoint maps form that product alone and check the
values S is read from, psi at x = a; full traces check psi on every node
and midpoint.
"""

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
#: blocks of this size, which bounds the array memory held at once to about
#: 2 MB for endpoint maps, which cross [0, a] only, and 12 MB for full
#: traces, and is no slower per energy than larger blocks.  It is also the
#: largest step count accepted, so a single energy stays within that bound.
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


def _mul(left, right, out):
    """Write into out the products of two stacks of 2x2 matrices, entrywise (m11, m12, m21, m22).

    Entry (i, j) of a product is l_i1 r_1j + l_i2 r_2j; out must not
    overlap left or right.  Returns out.
    """
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        np.multiply(left[i], right[j], out=out[i + j])
        out[i + j] += left[i + 1] * right[j + 2]
    return out


def _pairs(m: np.ndarray) -> np.ndarray:
    """The products M_{2j+1} M_{2j} of adjacent pairs along the last axis; an odd last M is left out."""
    return _mul(m[..., 1::2], m[..., :-1:2], np.empty(m.shape[:-1] + (m.shape[-1] // 2,)))


def _prefixes(m: np.ndarray) -> np.ndarray:
    """All prefix products M_k ... M_1 M_0 along the last axis.

    m[0..3] hold the entries (m11, m12, m21, m22) of the matrices M_k, and
    the result holds those of the prefixes.  Adjacent pairs are multiplied
    and their prefixes formed the same way: prefix k >= 1 is pair prefix
    (k - 1) // 2, times M_k when k is even.  Rounding grows with the depth
    of this tree, not with the length.
    """
    if (n := m.shape[-1]) == 1:
        return m
    pairs = _prefixes(_pairs(m))
    out = m.copy()  # prefix 0 is M_0
    out[..., 1::2] = pairs
    _mul(m[..., 2::2], pairs[..., : (n - 1) // 2], out[..., 2::2])
    return out


def _product(m: np.ndarray) -> np.ndarray:
    """The product M_{n-1} ... M_1 M_0 of the n matrices along the last axis.

    Adjacent pairs are multiplied level by level.  A level of odd length
    sets its last matrix aside, and the set-aside matrices multiply the
    coarsest level's single matrix on the left at the end, the finest
    last.  That is how _prefixes forms its last prefix, so the two agree
    bit for bit, while no level but the current one is kept.
    """
    aside = []
    while (n := m.shape[-1]) > 1:
        if n % 2:
            aside.append(m[..., -1].copy())
        m = _pairs(m)
    p = m[..., 0]
    for left in reversed(aside):
        p = _mul(left, p, np.empty_like(p))
    return p


def check_steps(steps: int) -> None:
    """Refuse a step count that is odd or outside [MIN_STEPS, SCAN_STEPS]."""
    if not (MIN_STEPS <= steps <= SCAN_STEPS and steps % 2 == 0):
        raise PreconditionViolated(f"steps must lie in [{MIN_STEPS}, {SCAN_STEPS}] and be even, got {steps}")


def _check(pot: EvaluatedPotential, energies, steps: int) -> np.ndarray:
    """Refuse what no scan can propagate, before anything is allocated.

    Returns the energies as an array.
    """
    check_steps(steps)
    for energy in energies:
        wavenumber_from_energy(energy)  # raises unless E is finite and positive
    return np.asarray(energies, dtype=float)


def _omega(v0: np.ndarray, vm: np.ndarray, v1: np.ndarray, width: float):
    """The energy-free parts (s + E, d, H) of Omega for cells of width H.

    v0, vm and v1 hold V at the cells' first, middle and last points.
    """
    return (v0 + 4.0 * vm + v1) / 6.0, (width * width / 12.0) * (v0 - v1), width


def _cells(pot: EvaluatedPotential, start: float, cells: int):
    """Grid of [start, a] with 2 cells + 1 nodes, V on it, and the Omega parts of its cells."""
    grid = np.linspace(start, pot.a, 2 * cells + 1)
    v = pot(grid)
    return grid, v, _omega(v[:-1:2], v[1::2], v[2::2], (pot.a - start) / cells)


def _nodes(pot: EvaluatedPotential, start: float, cells: int):
    """Grid of [start, a], and the Omega parts of its cells and of their first halves.

    A half cell reads V at its cell's first node, at the quarter point, by
    the quadratic through the cell's three nodes, and at the middle node.
    Only full traces read the halves.
    """
    grid, v, omega = _cells(pot, start, cells)
    v0, vm, v1 = v[:-1:2], v[1::2], v[2::2]
    return grid, omega, _omega(v0, (3.0 * v0 + 6.0 * vm - v1) / 8.0, vm, 0.5 * omega[2])


def _cell_matrices(omega, energies: np.ndarray) -> np.ndarray:
    """exp(Omega) of every cell at every energy, shape (4, len(energies), cells).

    The entries (m11, m12, m21, m22) are written into the result's own rows
    as they are formed.
    """
    sv, d, width = omega
    m = np.empty((4, energies.size, sv.size))
    s = np.subtract(sv, energies[:, None], out=m[2])
    q2 = np.multiply(s, width * width, out=m[3])
    q2 += d * d
    up = q2 > 0.0
    w = np.sqrt(np.abs(q2))
    np.maximum(w, np.finfo(float).tiny, out=w)  # sin w / w is 1 at w = 0
    np.cos(w, out=m[0], where=~up)
    np.cosh(w, out=m[0], where=up)
    np.sin(w, out=m[1], where=~up)
    np.sinh(w, out=m[1], where=up)
    m[1] /= w
    sigma_d = np.multiply(m[1], d, out=w)
    np.subtract(m[0], sigma_d, out=m[3])
    m[0] += sigma_d
    m[1] *= width
    m[2] *= m[1]
    return m


def _refuse_overflow(peak: float) -> None:
    """Raise Overflow unless peak, a largest |psi|, is at most MAX_MAGNITUDE (NaN is not)."""
    if not peak <= MAX_MAGNITUDE:
        raise Overflow(
            f"wavefunction magnitude {peak:.3e} exceeds {MAX_MAGNITUDE:.0e}; "
            "the energy is too deep in a classically forbidden region"
        )


def _traces(m: np.ndarray, halves, energies: np.ndarray):
    """psi and dpsi of the fundamental pair on every grid node, from the cell matrices.

    Both have shape (2, len(energies), 2 cells + 1); index 0 is the
    solution with (psi, psi') = (1, 0) at the grid's start and index 1 the
    one with (0, 1).  Raises Overflow when a solution magnitude leaves the
    trustworthy range.
    """
    psi, dpsi = np.empty((2, 2, energies.size, 2 * m.shape[-1] + 1))
    psi[..., 0], dpsi[..., 0] = [[1.0], [0.0]], [[0.0], [1.0]]
    p = _prefixes(m)
    psi[..., 2::2], dpsi[..., 2::2] = p[:2], p[2:]
    half = _cell_matrices(halves, energies)
    u, du = psi[..., :-1:2], dpsi[..., :-1:2]
    psi[..., 1::2] = half[0] * u + half[1] * du
    dpsi[..., 1::2] = half[2] * u + half[3] * du
    _refuse_overflow(np.max(np.abs(psi)))
    return psi, dpsi


@np.errstate(all="ignore")
def _fundamental_traces(pot: EvaluatedPotential, energies, steps: int):
    """Grid, psi and dpsi of the fundamental pair at every energy, from one scan.

    psi and dpsi have shape (2, len(energies), steps + 1), as _traces returns
    them.  Raises Overflow when a solution magnitude leaves the trustworthy
    range.
    """
    energies = _check(pot, energies, steps)
    grid, cells, halves = _nodes(pot, -pot.a, steps // 2)
    return (grid, *_traces(_cell_matrices(cells, energies), halves, energies))


@np.errstate(all="ignore")
def _endpoint_maps(pot: EvaluatedPotential, energies, steps: int) -> np.ndarray:
    """Maps (psi, psi')(0) -> (psi, psi')(a) at each energy, the product of one scan of [0, a].

    Shape (len(energies), 2, 2); the columns are the even and odd solutions.
    The scan takes ceil(steps / 4) cells, so its cells are those of steps
    on [-a, a] whenever 4 divides steps.  Only the product of the cells is
    formed, with the bits of the full traces' last node.  Raises Overflow
    when an entry of a map is not finite or |psi| at x = a, the value S is
    read from, leaves the trustworthy range; the nodes inside [0, a] are
    not checked.
    """
    energies = _check(pot, energies, steps)
    *_, cells = _cells(pot, 0.0, -(-steps // 4))
    block = SCAN_STEPS // steps
    maps = np.empty((energies.size, 2, 2))
    for start in range(0, energies.size, block):
        m = _cell_matrices(cells, energies[start : start + block])
        maps[start : start + block] = _product(m).T.reshape(-1, 2, 2)
    _refuse_overflow(np.max(np.abs(maps[:, 0]), initial=0.0) if np.all(np.isfinite(maps)) else np.inf)
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

    Their Wronskian u1 u2' - u1' u2 equals 1 along the whole grid up to
    rounding, which is the conservation check used in tests.
    """
    grid, psi, dpsi = _fundamental_traces(pot, [energy], steps)
    return tuple(
        WaveTrace(grid=grid, psi=psi[j, 0], dpsi=dpsi[j, 0], energy=float(energy)) for j in (0, 1)
    )
