"""Fibonacci numbers and the rank bijection for path independent sets.

``rank(n, members)`` assigns each independent set of the path on vertices
1..n a position in 1..f(n+2).  It is Zeckendorf's representation in
disguise: vertex v carries the weight f(v+1), and

    rank(n, I) = 1 + sum(f(v+1) for v in I).

An independent set has no two adjacent vertices, so the weights it sums
are non-consecutive Fibonacci numbers and every rank - 1 in 0..f(n+2)-1
has exactly one such sum.  The rank does not depend on n beyond the range
check, and both directions admit n only while f(n+2) lies within the
ceiling, n <= 62.  ``unrank`` is greedy Zeckendorf decoding: from vertex n
down, take v whenever f(v+1) still fits into the remainder.

The same bijection works on whole tables of sets held as bitmasks (bit
v-1 stands for vertex v): :func:`unrank_masks` lists the masks of ranks
1..f(n+2) in order, and :func:`rank_masks` ranks an array of masks.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "FIB_CEILING",
    "FibCeilingError",
    "fib",
    "rank",
    "rank_masks",
    "unrank",
    "unrank_masks",
]

# f(64) ~ 1.06e13 already dwarfs anything enumerable; requests past the
# ceiling get a clear error instead of a runaway computation.
FIB_CEILING = 64


def _fib_table(size: int) -> tuple[int, ...]:
    table = [0, 1]
    while len(table) < size:
        table.append(table[-1] + table[-2])
    return tuple(table)


# built whole at import and never mutated, so concurrent callers need no lock
_table = _fib_table(FIB_CEILING + 1)


class FibCeilingError(ValueError):
    """Fibonacci index beyond the configured ceiling."""


def fib(n: int) -> int:
    """The n-th Fibonacci number: f(0)=0, f(1)=1, f(n)=f(n-1)+f(n-2)."""
    if n < 0:
        raise ValueError("Fibonacci index must be non-negative")
    if n > FIB_CEILING:
        raise FibCeilingError(f"Fibonacci index {n} exceeds ceiling {FIB_CEILING}")
    return _table[n]


def _independent_set(n: int, members: Iterable[int]) -> frozenset[int]:
    # the members as a frozenset, once checked to be an independent set of
    # the path on 1..n; the one independence check, shared with toggle_path
    if n < 1:
        raise ValueError("n must be at least 1")
    s = frozenset(members)
    for v in s:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range for path on 1..{n}")
        if v + 1 in s:
            raise ValueError(f"set is not independent: {v} and {v + 1} are adjacent")
    return s


def rank(n: int, members: Iterable[int]) -> int:
    """The index in 1..f(n+2) of an independent set of the path on 1..n.

    Like :func:`unrank`, it admits only the paths whose f(n+2) lies within
    the ceiling, and raises :class:`FibCeilingError` past it."""
    s = _independent_set(n, members)
    fib(n + 2)  # the range's ceiling check, the one unrank makes
    return 1 + sum(fib(v + 1) for v in s)


def unrank(n: int, idx: int) -> frozenset[int]:
    """The independent set of the path on 1..n whose rank is ``idx``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= idx <= fib(n + 2):
        raise ValueError(f"index {idx} out of range 1..{fib(n + 2)}")
    members = []
    r, v = idx - 1, n
    while r:
        weight = fib(v + 1)
        if r >= weight:
            # now r < f(v), so vertex v-1 cannot be taken
            members.append(v)
            r -= weight
            v -= 2
        else:
            v -= 1
    return frozenset(members)


def unrank_masks(n: int) -> np.ndarray:
    """The bitmasks of the sets of rank 1..f(n+2) on the path on 1..n, in order.

    Ranks 1..f(n+1) are the sets without vertex n; adding vertex n to the
    sets of the path on 1..n-2 gives the remaining f(n) ranks, in order.
    """
    import numpy as np
    if n < 1:
        raise ValueError("n must be at least 1")
    shorter, masks = np.zeros(1, dtype=np.int64), np.array([0, 1], dtype=np.int64)
    for m in range(2, n + 1):
        shorter, masks = masks, np.concatenate([masks, shorter | (1 << (m - 1))])
    return masks


def rank_masks(masks: np.ndarray) -> np.ndarray:
    """The ranks of an array of independent-set bitmasks: 1 + sum of f(v+1)
    over the set bits.  Independence is not checked."""
    import numpy as np
    ranks = np.ones(masks.shape, dtype=np.int64)
    for v in range(1, int(masks.max(initial=0)).bit_length() + 1):
        ranks += ((masks >> (v - 1)) & 1) * fib(v + 1)
    return ranks
