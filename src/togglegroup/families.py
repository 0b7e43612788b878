"""The Fibonacci-indexed involution families and the toggle bridge.

``block_swap(n)`` exchanges {1..f(n)} with {f(n+1)+1..f(n+2)} pointwise.
``generator(k, n)`` is defined by recursion on n: the last two members are
the block swap and the previous family's last member, and earlier members
combine their two predecessors on disjoint blocks.  ``toggle_permutation``
builds the same permutations a second way, by conjugating the vertex
toggles through the rank bijection; the two constructions agreeing is the
heart of the verified results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fibindex import fib, rank_masks, unrank_masks
from .graphs import toggle_path_masks
from .perms import DegreeMismatchError, Permutation

__all__ = [
    "DiagonalSubgroupSpec",
    "block_swap",
    "diagonal_embed",
    "family",
    "generator",
    "prime_family",
    "toggle_permutation",
]


# memo for generator(k, n); entries are immutable Permutations, so reads
# may be shared freely.  Threads that miss the same key at once each compute
# it and store equal values, so a race only recomputes an identical value
_memo: dict[tuple[int, int], Permutation] = {}


def block_swap(n: int) -> Permutation:
    """The involution (1, f(n+1)+1)(2, f(n+1)+2)...(f(n), f(n+2)) in S_f(n+2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    low, shift, degree = fib(n), fib(n + 1), fib(n + 2)
    img = list(range(1, degree + 1))
    for i in range(1, low + 1):
        img[i - 1] = shift + i
        img[shift + i - 1] = i
    return Permutation(img)


def generator(k: int, n: int) -> Permutation:
    """The k-th family member at size n, an involution in S_f(n+2).

    Recursion: the n-th member is the block swap, the (n-1)-th is the
    previous family's member extended, and for k <= n-2 the member is the
    size n-1 member times the size n-2 member conjugated into the top
    block.  Results are memoized per (k, n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    key = (k, n)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    if k == n:
        t = block_swap(n)
    elif k == n - 1:
        t = generator(n - 1, n - 1).extend(fib(n + 2))
    else:
        degree = fib(n + 2)
        left = generator(k, n - 1).extend(degree)
        right = generator(k, n - 2).extend(degree).conjugate(block_swap(n))
        t = left * right
    _memo[key] = t
    return t


def family(n: int) -> tuple[Permutation, ...]:
    """All n family members at size n, ascending k; each acts on 1..f(n+2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(generator(k, n) for k in range(1, n + 1))


def prime_family(n: int) -> tuple[Permutation, ...]:
    """The members with k <= n-2, ascending k; defined for n >= 3."""
    if n < 3:
        raise ValueError("the reduced family needs n >= 3")
    return tuple(generator(k, n) for k in range(1, n - 1))


@dataclass(frozen=True)
class DiagonalSubgroupSpec:
    """Membership test for the diagonal copy of S_f(n) inside S_f(n+2).

    A member acts on {1..f(n)}, repeats that action shifted by f(n+1) on
    the top block, and fixes the middle block {f(n)+1..f(n+1)} pointwise.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("diagonal subgroup needs n >= 3")

    @property
    def degree(self) -> int:
        return fib(self.n + 2)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"element of degree {g.degree} does not act on 1..{self.degree}"
            )
        low, shift = fib(self.n), fib(self.n + 1)
        for i in range(1, low + 1):
            gi = g.apply(i)
            if gi > low:
                return False
            if g.apply(i + shift) != gi + shift:
                return False
        return all(g.apply(i) == i for i in range(low + 1, shift + 1))


def diagonal_embed(n: int, t: Permutation) -> Permutation:
    """Embed t of degree f(n) into S_f(n+2) as t * swap t swap^-1.

    The image satisfies :meth:`DiagonalSubgroupSpec.contains`, and the map
    is an injective homomorphism.
    """
    if n < 3:
        raise ValueError("diagonal embedding needs n >= 3")
    if t.degree != fib(n):
        raise DegreeMismatchError(
            f"expected degree {fib(n)} for the low block, got {t.degree}"
        )
    wide = t.extend(fib(n + 2))
    return wide * wide.conjugate(block_swap(n))


def toggle_permutation(n: int, k: int) -> Permutation:
    """The permutation of ranks induced by the vertex-k toggle on the path.

    Sends the rank of I to the rank of the toggled set.  Built from the
    toggle and the rank bijection only, independently of
    :func:`generator`, so equality of the two is a real check: the whole
    table of sets of rank 1..f(n+2) is toggled at once and ranked again.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    return Permutation(rank_masks(toggle_path_masks(k, unrank_masks(n))).tolist())
