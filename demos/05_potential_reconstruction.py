"""
Potentials reconstructed from determinant data
==============================================

Treating each parity determinant as inverse-scattering input, the
reconstructed potential is W(tau) = -2 (d/dtau)^2 log F - 1 on tau = pi t;
one sweep over a t grid gives both channels.
Both channels approach the universal tail -1/(4 tau^2), so the scaled
product W * 4 tau^2 should flatten toward -1.  The second check compares
each determinant against its rearranged large-tau replacement; that
residual decays to zero and its odd-channel form only exists for
tau > 1/2.
"""

import numpy as np

from scatter1d.core import TauTooSmall
from scatter1d.spectral import fredholm_report, marchenko_residuals

grid = np.arange(2.2, 2.9 + 0.0125, 0.025)
print("scaled reconstructed potential W * 4 tau^2 (target -1):")
print(f"{'tau':>7} {'even':>10} {'odd':>10}")
# The stencil loses both endpoints, where w is NaN.
sweep = fredholm_report(grid)
tau = np.pi * grid
for i in range(1, grid.size - 1, 5):
    print(f"{tau[i]:7.3f} {sweep['w_plus'][i] * 4 * tau[i]**2:10.4f}"
          f" {sweep['w_minus'][i] * 4 * tau[i]**2:10.4f}")

print(f"\n{'t':>5} {'|even residual|':>16} {'|odd residual|':>16}")
for t in (1.0, 1.5, 2.0, 2.5, 3.0):
    even, odd = marchenko_residuals(t)
    print(f"{t:5.1f} {abs(even):16.3e} {abs(odd):16.3e}")

# Below tau = 1/2 the odd-channel replacement takes the log of a
# non-positive number and the library refuses the pair outright.
try:
    marchenko_residuals(0.15)
except TauTooSmall as exc:
    print(f"\nodd channel at t=0.15: rejected ({exc})")
