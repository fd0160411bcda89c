"""
Two potentials, one scattering matrix
=====================================

Fixed-energy scattering data does not determine a symmetric potential.
This script builds the counterexample: deform an even standing wave
psi = cos(qx) by a bump eps*(x^2 - a^2)^2 that is flat at the edges, then
read both deformed and undeformed waves back into potentials via
V = E + psi''/psi.  Every wave here is a closed form, so psi'' is exact
too and no derivative is taken numerically.  The two potentials are far
apart in supremum norm, yet their even-channel scattering at E = q^2 is
identical because the boundary data of psi never changed.

The odd channel needs more: the second, linearly independent solution
is psi(x) times the integral of psi^-2 from 0 to x, so it feels the bump
through that reduction-of-order integral.  A second edge-flat bump
c*x^2*(x^2 - a^2)^2, with c chosen so that the integral of psi^-2 over
the support is the undeformed one, pins that channel too, so the full
2x2 matrices agree.  The single-bump pair at the end shows what is left
without it.

The potentials are tables on the construction grid.  The construction
forward-solves them at its own step count, where the solver reads them at
their nodes, and keeps that comparison; the one away from the
construction energy forward-solves them again at the same step count.
"""

from scatter1d.noninjective import build_counterexample, verify_same_smatrix

pair = build_counterexample(q=1.0, eps=0.01, a=1.0)
print(f"construction energy E = {pair.energy}")
print(f"tuning bump amplitude c = {pair.odd_coefficient:.6f}")
print(f"sup-norm separation of the two potentials: {pair.separation:.6f}")
print(f"boundary residual of the deformed wave: {pair.boundary_residual:.1e}")

at_energy = pair.comparison
print("\nscattering comparison at the construction energy:")
print(f"  even channel gap: {at_energy.even_channel_diff:.3e}  (boundary data)")
print(f"  odd channel gap:  {at_energy.odd_channel_diff:.3e}  (tuning bump)")
print(f"  max matrix entry: {at_energy.max_entry_diff:.3e}")

shifted = verify_same_smatrix(pair, energy=pair.energy + 0.5)
print("\naway from the construction energy (E + 0.5) both channels move:")
print(f"  even channel gap: {shifted.even_channel_diff:.3e}")
print(f"  odd channel gap:  {shifted.odd_channel_diff:.3e}")

# Without the tuning bump only the even channel is pinned.
single = build_counterexample(q=1.0, eps=0.01, a=1.0, single_bump=True)
split = single.comparison
print("\nsingle-bump pair at the construction energy:")
print(f"  even channel gap: {split.even_channel_diff:.3e}  (identical)")
print(f"  odd channel gap:  {split.odd_channel_diff:.3e}  (genuinely different)")


# The bump is smooth, so the separation is a property of the pair rather
# than of the grid: it holds still as the step count grows.  With psi''
# exact, refining the grid leaves the matrix gap at rounding level too.
print("\nthe tuned pair against the step count:")
for steps in (1024, 4096, 16384, 65536):
    tuned = build_counterexample(q=1.0, eps=0.01, a=1.0, steps=steps)
    gap = tuned.comparison.max_entry_diff
    print(f"  steps {steps:5d}: separation {tuned.separation:.6f}, max matrix entry gap {gap:.1e}")
