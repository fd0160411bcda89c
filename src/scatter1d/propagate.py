"""Magnus integration of psi'' = (V - E) psi across [0, a].

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

The map (psi, psi')(0) -> (psi, psi')(a) is the product of the cell
matrices over [0, a], and its columns are the even and odd solutions, from
which smatrix reads S.  One pairwise product forms it for a block of rows
at once, with both fundamental initial data as the two columns, so
rounding grows with the depth of the product's tree rather than with the
step count.  A row is a (potential, energy) pair: the potentials of one
scan share their support, so the counterexample's two potentials at one
energy take one scan, as do the energies of one potential.  Each level of
the tree multiplies the adjacent pairs of every row with one einsum.  The
endpoint maps check the values S is read from, psi at x = a.
"""

import numpy as np

from .core import Overflow, PreconditionViolated, wavenumber_from_energy

#: Solutions beyond this magnitude are deep in a classically forbidden
#: region at the chosen energy and no longer trustworthy.
MAX_MAGNITUDE = 1e150

MIN_STEPS = 64

#: Integration steps, summed over the (potential, energy) rows of a scan,
#: propagated at once: 32 rows at the default 4096 steps, such as one
#: potential at 32 energies or a counterexample pair at one.  More rows go
#: through in blocks of this size, which bounds the array memory held at
#: once to about 2 MB, and is no slower per row than larger blocks.  It is
#: also the largest step count accepted, so a single row stays within that
#: bound.
SCAN_STEPS = 2**17


def _mul(left, right, out):
    """Write into out the products of two stacks of 2x2 matrices, entrywise (m11, m12, m21, m22).

    Entry (i, j) of a product is l_i1 r_1j + l_i2 r_2j.  One einsum over
    (2, 2, ...) views of the stacks forms both products and adds them into
    out, with the bits of that formula (save that a sum of two negative
    zeros comes out as +0), and allocates no temporary.  out must not
    overlap left or right.  Returns out.
    """
    left, right, pair = (x.reshape(2, 2, *x.shape[1:]) for x in (left, right, out))
    np.einsum("ik...,kj...->ij...", left, right, out=pair)
    return out


def _pairs(m: np.ndarray) -> np.ndarray:
    """The products M_{2j+1} M_{2j} of adjacent pairs along the last axis; an odd last M is left out."""
    return _mul(m[..., 1::2], m[..., :-1:2], np.empty(m.shape[:-1] + (m.shape[-1] // 2,)))


def _product(m: np.ndarray) -> np.ndarray:
    """The product M_{n-1} ... M_1 M_0 of the n matrices along the last axis.

    m[0..3] hold the entries (m11, m12, m21, m22) of the matrices M_k.
    Adjacent pairs are multiplied level by level, so rounding grows with
    the depth of this tree, not with n.  A level of odd length sets its
    last matrix aside, and the set-aside matrices multiply the coarsest
    level's single matrix on the left at the end, the finest last.  No
    level but the current one is kept.
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


def _cells(pots, start: float, cells: int):
    """The energy-free parts (s + E, d, H) of Omega for the cells of width H that tile [start, a].

    The potentials share the support [-a, a], and each cell reads V at its
    first, middle and last points.  s + E and d have one row per potential.
    """
    a = pots[0].a
    if any(pot.a != a for pot in pots):
        raise PreconditionViolated(f"potentials scanned together need one support, got a = {[pot.a for pot in pots]}")
    grid = np.linspace(start, a, 2 * cells + 1)
    v = np.stack([pot(grid) for pot in pots])
    v0, vm, v1 = v[:, :-1:2], v[:, 1::2], v[:, 2::2]
    width = (a - start) / cells
    return (v0 + 4.0 * vm + v1) / 6.0, (width * width / 12.0) * (v0 - v1), width


def _cell_matrices(omega, energies: np.ndarray) -> np.ndarray:
    """exp(Omega) of every cell in every (potential, energy) row, shape (4, rows, cells).

    omega holds one row of Omega parts per potential, and the rows of the
    result run over the energies of the first potential, then of the next.
    The entries (m11, m12, m21, m22) are written into the result's own
    arrays as they are formed.
    """
    # An energy axis after each potential's row; the width is one number.
    sv, d, width = (part[:, None] if np.ndim(part) else part for part in omega)
    m = np.empty((4, sv.shape[0], energies.size, sv.shape[-1]))
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
    return m.reshape(4, -1, m.shape[-1])


def _refuse_overflow(peak: float) -> None:
    """Raise Overflow unless peak, a largest |psi|, is at most MAX_MAGNITUDE (NaN is not)."""
    if not peak <= MAX_MAGNITUDE:
        raise Overflow(
            f"wavefunction magnitude {peak:.3e} exceeds {MAX_MAGNITUDE:.0e}; "
            "the energy is too deep in a classically forbidden region"
        )


@np.errstate(all="ignore")
def _endpoint_maps(pots, energies, steps: int) -> np.ndarray:
    """Maps (psi, psi')(0) -> (psi, psi')(a) of each potential at each energy, from one scan of [0, a].

    Shape (len(pots), len(energies), 2, 2); the columns are the even and odd
    solutions.  The potentials share one support, and the scan's rows are
    their (potential, energy) pairs, in blocks of at most SCAN_STEPS // steps
    rows: as many potentials at all energies as fit, or else the energies of
    one potential in runs of that length.  Each row keeps the bits it has in
    a scan of its own.  The scan takes ceil(steps / 4) cells, so its cells
    are those of steps on [-a, a] whenever 4 divides steps.  Only the
    product of the cells is formed.  Before anything is allocated, a step
    count that check_steps refuses and an energy that is not finite and
    positive raise PreconditionViolated (NonPositiveEnergy for E <= 0).
    Raises Overflow, for the first potential in order that needs it, when
    an entry of its maps is not finite or |psi| at x = a, the value S is
    read from, leaves the trustworthy range; the nodes inside [0, a] are
    not checked.
    """
    check_steps(steps)
    for energy in energies:
        wavenumber_from_energy(energy)  # raises unless E is finite and positive
    energies = np.asarray(energies, dtype=float)
    sv, d, width = _cells(pots, 0.0, -(-steps // 4))
    rows = SCAN_STEPS // steps
    group = max(1, rows // max(1, energies.size))  # potentials per block
    maps = np.empty((len(pots), energies.size, 2, 2))
    for p in range(0, len(pots), group):
        for e in range(0, energies.size, rows):
            block = maps[p : p + group, e : e + rows]
            m = _cell_matrices((sv[p : p + group], d[p : p + group], width), energies[e : e + rows])
            block[...] = _product(m).T.reshape(block.shape)
    for pot_maps in maps:
        finite = np.all(np.isfinite(pot_maps))
        _refuse_overflow(np.max(np.abs(pot_maps[:, 0]), initial=0.0) if finite else np.inf)
    return maps
