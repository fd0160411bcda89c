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


def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not np.isfinite(value):
            raise PreconditionViolated(f"{name} must be finite, got {value}")


def _read_only(values) -> np.ndarray:
    table = np.array(values, dtype=float)
    table.flags.writeable = False
    return table


def validate(spec: PotentialSpec) -> EvaluatedPotential:
    """Check a potential spec and return its evaluator.

    Raises AsymmetricPotential, NonFiniteSample, or NonUniformGrid for bad
    sampled data and PreconditionViolated for bad or non-finite parameters.
    The evaluator holds its own copy of the table, so later edits of the
    spec's arrays do not reach it.
    """
    if isinstance(spec, SquareWell):
        _check_finite(v0=spec.v0, a=spec.a)
        if not spec.a > 0.0:
            raise PreconditionViolated(f"half-width a must be positive, got {spec.a}")
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
    if not np.all(np.isfinite(x)):
        raise NonFiniteSample("grid contains non-finite values")
    if not np.all(np.isfinite(v)):
        raise NonFiniteSample("potential samples contain non-finite values")
    h = x[-1] / (n - 1) - x[0] / (n - 1)  # no overflow on supports near the float maximum
    if not h > 0.0:
        raise NonUniformGrid("grid must be strictly increasing")
    if np.max(np.abs(np.diff(x) - h)) > GRID_RTOL * h:
        raise NonUniformGrid("grid spacing is not uniform to 1e-9 relative")
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


def sample_analytic(spec: PotentialSpec, n: int) -> Sampled:
    """Tabulate a square well on an odd uniform grid over [-a, a]."""
    if not isinstance(spec, SquareWell):
        raise PreconditionViolated("only analytic (square well) specs can be sampled")
    if n < 3 or n % 2 == 0:
        raise PreconditionViolated(f"need an odd sample count >= 3, got {n}")
    x = np.linspace(-spec.a, spec.a, n)
    v = np.full(n, -float(spec.v0))
    return Sampled(a=spec.a, x=x, v=v)


def _read_two_columns(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Both columns of a two-column CSV file that starts with ``header``."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise PreconditionViolated(f"expected header {header!r}, got {first!r}")
        rows = [line.strip() for line in fh if line.strip()]
    try:
        data = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    except ValueError as exc:
        raise PreconditionViolated(f"malformed CSV row: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise PreconditionViolated("every row must hold exactly two columns")
    return data[:, 0], data[:, 1]


def load_sampled_csv(path) -> Sampled:
    """Read a sampled potential from a two-column CSV with header ``x,V``."""
    x, v = _read_two_columns(path, "x,V")
    if abs(x[0] + x[-1]) > GRID_RTOL * max(1.0, abs(x[-1])):
        raise NonUniformGrid("grid endpoints are not symmetric about the origin")
    return Sampled(a=float(x[-1]), x=x, v=v)


def load_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a wavefunction trace (x, psi) from a CSV with header ``x,psi``.

    The grid needs at least MIN_TRACE_POINTS points, strictly increasing,
    with spacing uniform to 1e-9 relative (absolute below unit spacing).
    """
    x, psi = _read_two_columns(path, "x,psi")
    if x.size < MIN_TRACE_POINTS:
        raise PreconditionViolated(f"a trace needs at least {MIN_TRACE_POINTS} rows, got {x.size}")
    steps = np.diff(x)
    if not np.all(steps > 0.0):
        raise NonUniformGrid("trace grid must be strictly increasing")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > GRID_RTOL * max(1.0, h):
        raise NonUniformGrid("trace grid spacing varies beyond 1e-9")
    return x, psi
