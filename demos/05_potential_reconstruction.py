"""
Potentials reconstructed from determinant data
==============================================

Treating each parity determinant as inverse-scattering input, the
reconstructed potential is W(tau) = -2 (d/dtau)^2 log F - 1 on tau = pi t.
Both channels approach the universal tail -1/(4 tau^2), so the scaled
product W * 4 tau^2 should flatten toward -1.  The second check compares
each determinant against its rearranged large-tau replacement; that
residual decays to zero and its odd-channel form only exists for
tau > 1/2.
"""

import numpy as np

from scatter1d.core import TauTooSmall
from scatter1d.spectral import (
    PARITY_EVEN,
    PARITY_ODD,
    gelfand_levitan_potential,
    marchenko_residual,
)

grid = np.arange(2.2, 2.9 + 0.0125, 0.025)
print("scaled reconstructed potential W * 4 tau^2 (target -1):")
print(f"{'tau':>7} {'even':>10} {'odd':>10}")
tau_e, w_even = gelfand_levitan_potential(PARITY_EVEN, grid)
tau_o, w_odd = gelfand_levitan_potential(PARITY_ODD, grid)
for i in range(0, tau_e.size, 5):
    print(f"{tau_e[i]:7.3f} {w_even[i] * 4 * tau_e[i]**2:10.4f}"
          f" {w_odd[i] * 4 * tau_o[i]**2:10.4f}")

print(f"\n{'t':>5} {'|even residual|':>16} {'|odd residual|':>16}")
for t in (1.0, 1.5, 2.0, 2.5, 3.0):
    even = abs(marchenko_residual(PARITY_EVEN, t))
    odd = abs(marchenko_residual(PARITY_ODD, t))
    print(f"{t:5.1f} {even:16.3e} {odd:16.3e}")

# Below tau = 1/2 the odd-channel replacement takes the log of a
# non-positive number and the library refuses it outright.
try:
    marchenko_residual(PARITY_ODD, 0.15)
except TauTooSmall as exc:
    print(f"\nodd channel at t=0.15: rejected ({exc})")
