"""Symmetric potentials compactly supported on [-a, a].

Two specs describe a potential:

* ``SquareWell(v0, a)``: constant value -v0 on [-a, a], zero outside.
* ``Sampled(a, x, v)``: values on a uniform symmetric grid over [-a, a],
  evaluated between nodes by linear interpolation.

``validate`` runs the symmetry, finiteness, and grid checks and returns an
``EvaluatedPotential``: a read-only copy of the table, with the well as its
three nodes -a, 0, a.  Everything that integrates a potential consumes the
evaluated form, so the checks run exactly once.  The point interaction has
no pointwise values and is not a potential here; ``smatrix.analytic_delta``
is its closed form.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    AsymmetricPotential,
    NonFiniteSample,
    NonUniformGrid,
    PreconditionViolated,
    _check_finite,
)

#: Relative tolerance for the V(x) = V(-x) check on sampled values.
SYMMETRY_RTOL = 1e-12

#: Relative tolerance on grid spacing uniformity.
GRID_RTOL = 1e-9

#: Fewest points of a wavefunction trace: the one-sided second-derivative
#: stencils of potential recovery read six.
MIN_TRACE_POINTS = 6


@dataclass(frozen=True)
class SquareWell:
    """Constant well of depth v0 > 0 (v0 = 0 is the free limit)."""

    v0: float
    a: float


@dataclass
class Sampled:
    """Tabulated potential on a uniform grid spanning [-a, a].

    The grid must hold an odd number of points so the origin is a node.
    """

    a: float
    x: np.ndarray
    v: np.ndarray


PotentialSpec = SquareWell | Sampled


@dataclass(frozen=True, eq=False)
class EvaluatedPotential:
    """Validated, pointwise-evaluable potential: a read-only table on [-a, a].

    Calling it returns V(x), interpolated linearly between the nodes on the
    closed interval [-a, a], and V = 0 outside.
    """

    a: float
    x: np.ndarray
    v: np.ndarray

    def __call__(self, x):
        out = np.where(np.abs(x) <= self.a, np.interp(x, self.x, self.v), 0.0)
        return float(out) if np.isscalar(x) else out


def _read_only(values) -> np.ndarray:
    table = np.array(values, dtype=float)
    table.flags.writeable = False
    return table


def _uniform_step(x: np.ndarray, what: str) -> float:
    """Spacing h of a finite, strictly increasing grid uniform to GRID_RTOL * h.

    Raises NonFiniteSample for a NaN or infinite node and NonUniformGrid
    for a grid that does not strictly increase or whose steps stray from
    h; ``what`` names the grid in the messages.  h is formed without
    overflow on spans near the float maximum.
    """
    if not np.all(np.isfinite(x)):
        raise NonFiniteSample(f"{what} contains non-finite values")
    steps = np.diff(x)
    if not np.all(steps > 0.0):
        raise NonUniformGrid(f"{what} must be strictly increasing")
    h = x[-1] / (x.size - 1) - x[0] / (x.size - 1)
    if np.max(np.abs(steps - h)) > GRID_RTOL * h:
        raise NonUniformGrid(f"{what} spacing is not uniform to 1e-9 relative")
    return float(h)


def validate(spec: PotentialSpec) -> EvaluatedPotential:
    """Check a potential spec and return its evaluator.

    Raises AsymmetricPotential, NonFiniteSample, or NonUniformGrid for bad
    sampled data and PreconditionViolated for bad or non-finite parameters.
    The evaluator holds its own copy of the table, so later edits of the
    spec's arrays do not reach it.
    """
    if isinstance(spec, SquareWell):
        _check_finite(v0=spec.v0)
        if spec.v0 < 0.0:
            raise PreconditionViolated(f"well depth v0 must be >= 0, got {spec.v0}")
        spec = Sampled(spec.a, np.array([-spec.a, 0.0, spec.a]), np.full(3, -float(spec.v0)))
    if not isinstance(spec, Sampled):
        raise PreconditionViolated(f"unknown potential spec {spec!r}")

    x, v = _read_only(spec.x), _read_only(spec.v)
    if x.ndim != 1 or x.shape != v.shape:
        raise PreconditionViolated("x and v must be 1d arrays of equal length")
    n = x.size
    if n < 3 or n % 2 == 0:
        raise PreconditionViolated(f"need an odd number of samples >= 3, got {n}")
    _check_finite(a=spec.a)
    if not spec.a > 0.0:
        raise PreconditionViolated(f"half-width a must be positive, got {spec.a}")
    _uniform_step(x, "grid")
    if not np.all(np.isfinite(v)):
        raise NonFiniteSample("potential samples contain non-finite values")
    tol_a = GRID_RTOL * max(1.0, spec.a)
    if abs(x[0] + spec.a) > tol_a or abs(x[-1] - spec.a) > tol_a:
        raise NonUniformGrid(
            f"grid must span exactly [-a, a], got [{x[0]}, {x[-1]}] for a={spec.a}"
        )
    scale = max(1.0, float(np.max(np.abs(v))))
    asym = float(np.max(np.abs(v - v[::-1])))
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricPotential(
            f"sampled values break V(x) = V(-x): max deviation {asym:.3e}"
        )
    return EvaluatedPotential(float(spec.a), x, v)


def _read_two_columns(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Both columns of a two-column CSV file that starts with ``header``.

    A row of another length is refused, with its line number, before any
    cell is read, and so is a file with no rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise PreconditionViolated(f"expected header {header!r}, got {first!r}")
        rows = [(number, line.split(",")) for number, line in enumerate(map(str.strip, fh), 2) if line]
    for number, row in rows:
        if len(row) != 2:
            raise PreconditionViolated(f"every row must hold exactly two columns; line {number} holds {len(row)}")
    if not rows:
        raise PreconditionViolated("every row must hold exactly two columns")
    try:
        data = np.array([row for _, row in rows], dtype=float)  # numpy's cast reads each cell as float() does
    except ValueError as exc:
        raise PreconditionViolated(f"malformed CSV row: {exc}") from None
    return data[:, 0], data[:, 1]


def load_sampled_csv(path) -> Sampled:
    """Read a sampled potential from a two-column CSV with header ``x,V``."""
    x, v = _read_two_columns(path, "x,V")
    return Sampled(a=float(x[-1]), x=x, v=v)


def load_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a wavefunction trace (x, psi) from a CSV with header ``x,psi``.

    Only the file's format is checked here; ``recover_potential`` checks the
    grid where it differentiates on it.
    """
    return _read_two_columns(path, "x,psi")
