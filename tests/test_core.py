"""Constants, wavenumber conversion, and the exception hierarchy."""

import math

import mpmath
import pytest

from scatter1d.core import (
    ZETA_PRIME_MINUS_ONE,
    AllMasked,
    AsymmetricPotential,
    ComplexWavefunction,
    EigenvalueAtOne,
    NodeCollision,
    NonFiniteSample,
    NonPositiveEnergy,
    NonPositiveK,
    NonUniformGrid,
    NotPositiveDefinite,
    Overflow,
    PreconditionViolated,
    ScatterError,
    SingularSystem,
    TauTooSmall,
    TTooLarge,
    wavenumber_from_energy,
)


def test_wavenumber_square_root():
    assert wavenumber_from_energy(4.0) == 2.0
    assert wavenumber_from_energy(1.0) == 1.0
    assert abs(wavenumber_from_energy(2.0) - math.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_wavenumber_rejects_nonpositive_energy(bad):
    with pytest.raises(NonPositiveEnergy):
        wavenumber_from_energy(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_wavenumber_rejects_non_finite_energy(bad):
    with pytest.raises(PreconditionViolated, match="energy must be finite"):
        wavenumber_from_energy(bad)


def test_zeta_prime_at_minus_one():
    mpmath.mp.dps = 30
    exact = mpmath.zeta(-1, derivative=1)
    assert abs(ZETA_PRIME_MINUS_ONE - float(exact)) < 1e-16


def test_every_error_is_a_scatter_error():
    for exc in (
        PreconditionViolated,
        NonPositiveEnergy,
        AsymmetricPotential,
        NonFiniteSample,
        NonUniformGrid,
            Overflow,
        SingularSystem,
        ComplexWavefunction,
        AllMasked,
        NodeCollision,
        TTooLarge,
        EigenvalueAtOne,
        NonPositiveK,
        TauTooSmall,
        NotPositiveDefinite,
    ):
        assert issubclass(exc, ScatterError)


def test_precondition_errors_are_value_errors():
    # Bad-argument failures double as ValueError so callers can catch either.
    for exc in (
        PreconditionViolated,
        NonPositiveEnergy,
        TTooLarge,
        NonPositiveK,
        TauTooSmall,
    ):
        assert issubclass(exc, ValueError)


def test_catching_the_root_covers_a_raise():
    with pytest.raises(ScatterError):
        wavenumber_from_energy(-2.0)
