"""
Toeplitz determinants of an arc indicator
=========================================

The symbol equal to 1 on an arc of the circle and 0 on the complement
gap produces Toeplitz sections whose log-determinants follow a
second-order asymptotic in n.  The sections become numerically singular
very fast: the smallest eigenvalue decays at Slepian's rate,
((1 - sin(alpha/2)) / (1 + sin(alpha/2)))^n, far past what double
precision can hold.  The log determinant therefore comes from the
split Levinson recursion in integer fixed point, with as many digits as
the largest section needs, checked by a re-run at ten more digits.  Its
symmetric polynomials halve the products of the classical recursion, and
the first column it reads is built once in integers, each sin(m alpha)
rotated from the last.  One pass at the largest n yields the whole table
below.

The same determinant, through the discretization coupling alpha*n =
2 pi t, approximates the product of both parity sine-kernel
determinants.  ``szego_limit_check(n, t)`` takes the section at that
alpha; the cross-check below shows the gap shrinking as the arc refines
at fixed t.
"""

import math

from scatter1d.szego import ArcSymbol, szego_limit_check, toeplitz_logdet

alpha = math.pi / 2
print(f"arc half-gap alpha = pi/2, symbol vanishes on ({alpha:.3f}, {2*math.pi - alpha:.3f})")
print(f"{'n':>4} {'log det':>14} {'asymptotic':>14} {'residual':>12}")
for result in toeplitz_logdet(ArcSymbol(alpha), [4, 8, 16, 32, 64, 128]):
    print(f"{result.n:4d} {result.log_det:14.6f} {result.asymptotic:14.6f}"
          f" {result.residual:12.3e}")

print("\ndeterminant vs parity-split Fredholm product at fixed t=2:")
print(f"{'n':>5} {'alpha':>9} {'log det':>12} {'fredholm total':>15} {'gap':>10}")
for n in (64, 128, 256):
    check = szego_limit_check(n=n, t=2.0)
    print(f"{n:5d} {check.alpha:9.5f} {check.log_det:12.6f}"
          f" {check.fredholm_total:15.6f} {check.gap_fredholm:10.5f}")
