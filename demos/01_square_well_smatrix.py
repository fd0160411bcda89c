"""
Square well scattering, numeric against closed form
====================================================

Builds the 2x2 scattering matrix of a finite square well two ways: by
propagating the even and odd solutions from the centre to the edge of the
support and reading S off them there, and from the textbook closed form.  Inside the well V is
constant, where each Magnus step of the integrator is the exact
propagator, so the two agree to rounding, and both stay unitary.
"""

import numpy as np

from scatter1d.potential import SquareWell, validate
from scatter1d.smatrix import analytic_square_well, smatrix_via_transfer

pot = validate(SquareWell(v0=2.0, a=1.0))

print("square well v0=2, a=1")
print(f"{'E':>6} {'|S_num - S_exact|':>18} {'unitarity':>12} {'|t|^2':>8} {'|r|^2':>8}")
energies = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
# A sequence of energies is propagated in one batch.
for energy, num in zip(energies, smatrix_via_transfer(pot, energies, steps=4096)):
    ref = analytic_square_well(2.0, 1.0, energy)
    gap = np.max(np.abs(num.as_matrix() - ref.as_matrix()))
    transmission = abs(num.s12) ** 2
    reflection = abs(num.s11) ** 2
    print(
        f"{energy:6.2f} {gap:18.3e} {num.unitarity_residual():12.3e}"
        f" {transmission:8.4f} {reflection:8.4f}"
    )

# A well is transparent when half a wavelength fits its width exactly.
# v0 = pi^2/4 - 1 puts that resonance at E = 1.
resonant = smatrix_via_transfer(validate(SquareWell(v0=np.pi**2 / 4 - 1, a=1.0)), 1.0)
print(f"\nresonant well: |t|^2 = {abs(resonant.s12)**2:.12f} (expected 1)")
print(f"reflection amplitude: {abs(resonant.s11):.3e} (expected 0)")
