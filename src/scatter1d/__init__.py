"""Scattering matrices of symmetric short-range 1D potentials.

Forward solvers (S-matrices from the even and odd solutions on [0, a] by
fourth-order Magnus propagation of a validated potential table,
amplitude-quad solves, closed forms for the square well and the point
interaction), a fixed-energy non-injectivity counterexample, sine-kernel
Fredholm determinants with their large-interval asymptotics and
reconstructed comparison potentials, and arc-symbol Toeplitz determinants.
Every potential, square wells included, is validated into one read-only
table; the point interaction has no pointwise values and is reached only
through its closed form.
Units: hbar = 1, 2m = 1, so psi'' = (V - E) psi and k = sqrt(E).
"""

from .core import (
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
    OddChannelUnmatched,
    Overflow,
    PreconditionViolated,
    QuadOrderTooSmall,
    ScatterError,
    SingularSystem,
    TauTooSmall,
    TTooLarge,
    wavenumber_from_energy,
)
from .noninjective import (
    CounterexamplePair,
    RecoveredPotential,
    SMatrixComparison,
    build_counterexample,
    bump_values,
    recover_potential,
    verify_same_smatrix,
)
from .potential import (
    EvaluatedPotential,
    Sampled,
    SquareWell,
    load_sampled_csv,
    load_trace_csv,
    validate,
)
from .propagate import BoundaryData, WaveTrace, fundamental_pair, integrate
from .smatrix import (
    AmplitudeQuad,
    SMatrix,
    amplitudes_from_boundary,
    analytic_delta,
    analytic_square_well,
    delta_as_well_limit,
    smatrix_from_amplitudes,
    smatrix_via_transfer,
)
from .spectral import (
    FredholmReport,
    JostClosedForms,
    KernelSpec,
    PhaseShift,
    SineKernelSpectrum,
    asymptotic_log_det,
    fredholm_log_det,
    fredholm_report,
    gelfand_levitan_potential,
    jost_forms,
    marchenko_residual,
    phase_shift,
    sine_kernel_eigs,
    sine_kernel_spectrum,
)
from .szego import (
    ArcSymbol,
    SzegoCrossCheck,
    ToeplitzResult,
    szego_limit_check,
    toeplitz_logdet,
)

__version__ = "0.1.0"

__all__ = [
    "ZETA_PRIME_MINUS_ONE",
    "AllMasked",
    "AmplitudeQuad",
    "ArcSymbol",
    "AsymmetricPotential",
    "BoundaryData",
    "ComplexWavefunction",
    "CounterexamplePair",
    "EigenvalueAtOne",
    "EvaluatedPotential",
    "FredholmReport",
    "JostClosedForms",
    "KernelSpec",
    "NodeCollision",
    "NonFiniteSample",
    "NonPositiveEnergy",
    "NonPositiveK",
    "NonUniformGrid",
    "NotPositiveDefinite",
    "OddChannelUnmatched",
    "Overflow",
    "PhaseShift",
    "PreconditionViolated",
    "QuadOrderTooSmall",
    "RecoveredPotential",
    "Sampled",
    "ScatterError",
    "SineKernelSpectrum",
    "SingularSystem",
    "SMatrix",
    "SMatrixComparison",
    "SquareWell",
    "SzegoCrossCheck",
    "TauTooSmall",
    "ToeplitzResult",
    "TTooLarge",
    "WaveTrace",
    "amplitudes_from_boundary",
    "analytic_delta",
    "analytic_square_well",
    "asymptotic_log_det",
    "build_counterexample",
    "bump_values",
    "delta_as_well_limit",
    "fredholm_log_det",
    "fredholm_report",
    "fundamental_pair",
    "gelfand_levitan_potential",
    "integrate",
    "jost_forms",
    "load_sampled_csv",
    "load_trace_csv",
    "marchenko_residual",
    "phase_shift",
    "recover_potential",
    "sine_kernel_eigs",
    "sine_kernel_spectrum",
    "smatrix_from_amplitudes",
    "smatrix_via_transfer",
    "szego_limit_check",
    "toeplitz_logdet",
    "validate",
    "verify_same_smatrix",
    "wavenumber_from_energy",
]
