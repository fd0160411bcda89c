"""Scattering matrices of symmetric short-range 1D potentials.

Every public name is imported from its module; the package root
re-exports nothing, so importing one module loads only what it uses.

- ``scatter1d.core``: units, constants, wavenumber_from_energy and the
  ScatterError taxonomy.
- ``scatter1d.potential``: square wells and sampled tables, validated
  into one read-only table, and the CSV readers.
- ``scatter1d.propagate``: fourth-order Magnus propagation of
  (psi, psi') across the support.
- ``scatter1d.smatrix``: S-matrices from the even and odd solutions on
  [0, a], and closed forms for the square well and the point
  interaction.
- ``scatter1d.noninjective``: the fixed-energy two-potentials-one-S-matrix
  counterexample and stencil recovery of V from a sampled wave.
- ``scatter1d.spectral``: sine-kernel Fredholm determinants of both
  parity channels, their large-interval asymptotics, reconstructed
  potentials and phase shifts.
- ``scatter1d.szego``: arc-symbol Toeplitz determinants and the Szego
  cross-check.
- ``scatter1d.cli``: the ``scatter1d`` command.

Units: hbar = 1, 2m = 1, so psi'' = (V - E) psi and k = sqrt(E).
"""

__version__ = "0.1.0"
