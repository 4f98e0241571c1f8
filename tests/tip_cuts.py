"""The mode blocks as the solver's rule places them, restated for tests.

A block is the longest run of rows start ... stop0-1 that share one level
and one laser coefficient among the rows it may take. The rule keeps the
highest stop <= stop0 whose sine transform length 2(stop - start + 1)
numpy's pocketfft plans directly: the length is below 50, or its largest
prime factor squared does not exceed it. The tip block starts at row 1,
so its length is 2J with J = stop, its cut.
"""

import math


def largest_prime_factor(n: int) -> int:
    return max(p for p in range(2, n + 1)
               if n % p == 0
               and all(p % d for d in range(2, math.isqrt(p) + 1)))


def direct_length(n: int) -> bool:
    return n < 50 or largest_prime_factor(n) ** 2 <= n


def rule_stop(start: int, old_stop: int) -> int:
    stop = old_stop
    while not direct_length(2 * (stop - start + 1)):
        stop -= 1
    return stop


def rule_cut(old_cut: int) -> int:
    return rule_stop(1, old_cut)


def row(grid, z: float) -> int:
    """Index of the grid point nearest z."""
    return round((z - grid.z_min) / grid.dz)


def cut_row(grid, z: float) -> int:
    """Cut J whose tip block's top row, J-1, is the grid point nearest z."""
    return row(grid, z) + 1


def rule_cut_nm(grid, old_top_nm: float) -> float:
    """z (nm) of the tip block's top row under the rule, when the old cut's
    top row is the grid point nearest old_top_nm."""
    return float(grid.z[rule_cut(cut_row(grid, old_top_nm)) - 1])


def rule_top_nm(grid, start: int, old_stop: int) -> float:
    """z (nm) of the top row of the block of rows start ... old_stop-1
    under the rule."""
    return float(grid.z[rule_stop(start, old_stop) - 1])
