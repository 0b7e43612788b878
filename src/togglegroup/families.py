"""The Fibonacci-indexed involution families and the toggle bridge.

``generator(k, n)`` is the paper's t_k at size n, an involution of
1..f(n+2), defined by recursion on n.  At size k it is the block swap,
which exchanges {1..f(k)} with {f(k+1)+1..f(k+2)} pointwise, and at size
k-1 it is taken to be the identity.  At each larger size m it is t_k at
m-1 times t_k at m-2 conjugated into the top block.  The two factors move
disjoint blocks, so the product is a concatenation of image tables: the
table at m-1, then the table at m-2 shifted by f(m+1).  Every member, and
``block_swap(n)`` as the member with k = n, is built afresh from that one
recursion on arrays; nothing is kept between calls.  The diagonal copy
of S_f(n) is the same top-block step applied to one t of degree f(n):
``diagonal_embed`` writes its table, and ``DiagonalSubgroupSpec.contains``
asks whether g is the embedding of its own action on the low block.

``toggle_permutation`` builds the same permutations a second way, by
conjugating the vertex toggles through the rank bijection; the two
constructions agreeing is the heart of the verified results.
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


def _member_row(k: int, n: int) -> np.ndarray:
    import numpy as np
    # the 0-based image table of member k at size n >= k, filled in place:
    # the block swap at size k, then the identity at size k-1 shifted into
    # the top block of size k+1, then for each size m >= k+2 the table at
    # m-2, a prefix of the table at m-1, shifted into the top block of m
    row = np.arange(fib(n + 2))
    low, shift = fib(k), fib(k + 1)
    row[:low] += shift
    row[shift : shift + low] -= shift
    for m in range(k + 2, n + 1):
        row[fib(m + 1) : fib(m + 2)] = row[: fib(m)] + fib(m + 1)
    return row


def block_swap(n: int) -> Permutation:
    """The involution (1, f(n+1)+1)(2, f(n+1)+2)...(f(n), f(n+2)) in S_f(n+2),
    which is the member with k = n."""
    return generator(n, n)


def generator(k: int, n: int) -> Permutation:
    """The k-th family member at size n, an involution in S_f(n+2), built
    afresh on each call by the recursion in the module docstring."""
    if k not in _family_ks(n):
        raise ValueError(f"k must be in 1..{n}")
    return Permutation._from_raw(tuple(_member_row(k, n).tolist()))


def _family_ks(n: int) -> range:
    # the k of every member at size n
    if n < 1:
        raise ValueError("n must be at least 1")
    return range(1, n + 1)


def _prime_family_ks(n: int) -> range:
    # the k of every reduced-family member at size n
    if n < 3:
        raise ValueError("the reduced family needs n >= 3")
    return range(1, n - 1)


def family(n: int) -> tuple[Permutation, ...]:
    """All n family members at size n, ascending k; each acts on 1..f(n+2)."""
    return tuple(generator(k, n) for k in _family_ks(n))


def prime_family(n: int) -> tuple[Permutation, ...]:
    """The members with k <= n-2, ascending k; defined for n >= 3."""
    return tuple(generator(k, n) for k in _prime_family_ks(n))


@dataclass(frozen=True)
class DiagonalSubgroupSpec:
    """Membership in the diagonal copy of S_f(n) inside S_f(n+2): g is a
    member when it is the :func:`diagonal_embed` of its own low action."""

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
        # only a g that keeps the low block acts there as a member of S_f(n)
        head = g._img[: fib(self.n)]
        return max(head) < len(head) and g == diagonal_embed(self.n, Permutation._from_raw(head))


def diagonal_embed(n: int, t: Permutation) -> Permutation:
    """Embed t of degree f(n) into S_f(n+2) as t * swap t swap^-1, the
    recursion's top-block step applied to one t, written as one table: t on
    the low block, the middle block fixed, t shifted by f(n+1) on the top.
    The map is an injective homomorphism."""
    if n < 3:
        raise ValueError("diagonal embedding needs n >= 3")
    low, shift = fib(n), fib(n + 1)
    if t.degree != low:
        raise DegreeMismatchError(f"expected degree {low} for the low block, got {t.degree}")
    img = t._img
    return Permutation._from_raw(img + tuple(range(low, shift)) + tuple([x + shift for x in img]))


def _toggle_table(k: int, masks: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    # the ranks of the sets ``masks`` toggled at vertex k, from the sets' own
    # ``ranks`` (0- or 1-based alike).  A rank is 1 + the sum of f(v+1) over
    # the set's vertices and toggle k changes bit k-1 alone, so the toggled
    # mask minus the set's is 0 or ±2^(k-1), and the toggled set's rank is
    # the set's own plus f(k+1) times that change in bit k-1: rank_masks of
    # the toggled masks, in one pass over the table instead of one per bit plane
    return ranks + fib(k + 1) * ((toggle_path_masks(k, masks) - masks) >> (k - 1))


def toggle_permutation(n: int, k: int) -> Permutation:
    """The permutation of ranks induced by the vertex-k toggle on the path.

    Sends the rank of I to the rank of the toggled set.  Built from the
    toggle and the rank bijection only, independently of
    :func:`generator`, so equality of the two is a real check: the whole
    table of sets of rank 1..f(n+2) is ranked, toggled at once, and goes
    through the validating constructor.
    """
    if k not in _family_ks(n):
        raise ValueError(f"k must be in 1..{n}")
    masks = unrank_masks(n)
    table = _toggle_table(k, masks, rank_masks(masks))
    return Permutation(table.tolist())
