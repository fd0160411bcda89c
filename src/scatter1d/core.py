"""Shared conventions, constants, and the error taxonomy.

Natural units are used everywhere: hbar = 1 and 2m = 1, so the stationary
wave equation on the interaction region reads psi'' = (V - E) psi and the
exterior wavenumber of a scattering state is k = sqrt(E).

All reals are double precision.  The one exception is the Toeplitz
determinant (see :mod:`scatter1d.szego`), which runs its recursion in
integer fixed point at the digits the section needs; its public surface
still takes and returns doubles.
"""

import math

#: Derivative of the Riemann zeta function at -1.  Equal to
#: 1/12 - log(A) with A the Glaisher-Kinkelin constant; verified against two
#: independent high-precision evaluations (see tests) before freezing.
ZETA_PRIME_MINUS_ONE = -0.16542114370045094

PI = math.pi


class ScatterError(Exception):
    """Base class for every error this package raises deliberately."""


class PreconditionViolated(ScatterError, ValueError):
    """An operation was called outside its documented domain."""


class NonPositiveEnergy(PreconditionViolated):
    """Scattering quantities need E > 0."""


class AsymmetricPotential(ScatterError):
    """Sampled potential values break the required V(x) = V(-x) symmetry."""


class NonFiniteSample(ScatterError):
    """A potential sample is NaN or infinite."""


class NonUniformGrid(ScatterError):
    """Sampled potential grid is not uniform over [-a, a]."""


class DeltaNotSamplable(ScatterError):
    """A delta potential has no pointwise values to tabulate."""


class Overflow(ScatterError):
    """Wavefunction magnitude left the trustworthy range during integration."""


class SingularSystem(ScatterError):
    """Amplitude quads do not determine the scattering matrix."""


class ComplexWavefunction(ScatterError):
    """Potential recovery needs a real wavefunction trace."""


class AllMasked(ScatterError):
    """Every grid point sits too close to a wavefunction node."""


class NodeCollision(ScatterError):
    """A perturbed wavefunction developed a node inside the support."""


class OddChannelUnmatched(ScatterError):
    """No tuning-bump amplitude gives the counterexample's odd channel."""


class TTooLarge(PreconditionViolated):
    """Interval parameter t beyond the double-precision ceiling."""


class QuadOrderTooSmall(PreconditionViolated):
    """Quadrature order below the supported minimum."""


class EigenvalueAtOne(ScatterError):
    """A kernel eigenvalue reached 1 within double precision."""


class NonPositiveK(PreconditionViolated):
    """Phase-shift closed forms need k > 0."""


class TauTooSmall(PreconditionViolated):
    """Odd-case tail identity is only defined for tau > 1/2."""


class NotPositiveDefinite(ScatterError):
    """Toeplitz section is not numerically positive definite."""


def wavenumber_from_energy(energy: float) -> float:
    """Exterior wavenumber k = sqrt(E) of a scattering state.

    Raises PreconditionViolated for a non-finite E and NonPositiveEnergy
    unless E > 0; bound states and threshold are out of scope.
    """
    if not math.isfinite(energy):
        raise PreconditionViolated(f"energy must be finite, got {energy}")
    if not energy > 0.0:
        raise NonPositiveEnergy(f"energy must be positive, got {energy}")
    return math.sqrt(energy)
