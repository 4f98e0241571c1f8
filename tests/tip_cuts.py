"""The tip block's cut as the solver's rule picks it, restated for tests.

The flat run of tip rows below the first watched point ends at an old cut
J0 (rows 1 ... J0-1). The rule keeps the highest cut J <= J0 whose sine
transform length 2J numpy's pocketfft plans directly: the length is below
50, or its largest prime factor squared does not exceed it.
"""

import math


def largest_prime_factor(n: int) -> int:
    return max(p for p in range(2, n + 1)
               if n % p == 0
               and all(p % d for d in range(2, math.isqrt(p) + 1)))


def direct_length(n: int) -> bool:
    return n < 50 or largest_prime_factor(n) ** 2 <= n


def rule_cut(old_cut: int) -> int:
    cut = old_cut
    while not direct_length(2 * cut):
        cut -= 1
    return cut


def cut_row(grid, z: float) -> int:
    """Cut J whose tip block's top row, J-1, is the grid point nearest z."""
    return round((z - grid.z_min) / grid.dz) + 1


def rule_cut_nm(grid, old_top_nm: float) -> float:
    """z (nm) of the tip block's top row under the rule, when the old cut's
    top row is the grid point nearest old_top_nm."""
    return float(grid.z[rule_cut(cut_row(grid, old_top_nm)) - 1])
