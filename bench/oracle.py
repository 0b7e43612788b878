"""Reference answers for the benchmark, computed without the togglegroup package.

Nothing here imports the package, so a wrong answer from it cannot be
confirmed by its own code.  Independent sets of the path on 1..n are ranked
by Zeckendorf's form, rank(I) = 1 + sum of f(v+1) over v in I, and unranked
by greedy Zeckendorf decoding.  Group orders come from closed forms: the
family at size n generates all of S_f(n+2), and the reduced family
generates diag(S_f(n)) x Sym(middle block), of order f(n)! * f(n-1)!.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

_fibs = [0, 1]


def fib(n: int) -> int:
    while len(_fibs) <= n:
        _fibs.append(_fibs[-1] + _fibs[-2])
    return _fibs[n]


def rank(members: Iterable[int]) -> int:
    return 1 + sum(fib(v + 1) for v in members)


def unrank(n: int, idx: int) -> frozenset[int]:
    rest = idx - 1
    members = set()
    for v in range(n, 0, -1):
        if fib(v + 1) <= rest:
            members.add(v)
            rest -= fib(v + 1)
    if rest:
        raise ValueError(f"rank {idx} is out of range for the path on 1..{n}")
    return frozenset(members)


def toggle(k: int, members: frozenset[int]) -> frozenset[int]:
    if k in members:
        return members - {k}
    if k - 1 in members or k + 1 in members:
        return members
    return members | {k}


def set_text(members: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(members)) + "}"


def cycle_text(images: Sequence[int]) -> str:
    """Canonical cycle text of a 1-based image list: each cycle starts at its
    smallest point, cycles ascend by first point, fixed points are left out."""
    seen = set()
    parts = []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start - 1]
        while x != start:
            seen.add(x)
            cycle.append(x)
            x = images[x - 1]
        parts.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def parse_cycle_text(text: str, degree: int) -> list[int]:
    images = list(range(1, degree + 1))
    if text == "()":
        return images
    for chunk in text[1:-1].split(")("):
        cycle = [int(v) for v in chunk.split(",")]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return images


def toggle_images(n: int, k: int) -> list[int]:
    """Images of the permutation of ranks induced by the vertex-k toggle."""
    return [rank(toggle(k, unrank(n, idx))) for idx in range(1, fib(n + 2) + 1)]


def block_swap_images(n: int) -> list[int]:
    low, shift = fib(n), fib(n + 1)
    images = list(range(1, fib(n + 2) + 1))
    for i in range(1, low + 1):
        images[i - 1], images[shift + i - 1] = shift + i, i
    return images


def diagonal_images(n: int, low_images: Sequence[int]) -> list[int]:
    """t acting on the low block 1..f(n), the same t shifted by f(n+1) on the
    top block, and the middle block fixed."""
    shift = fib(n + 1)
    images = list(range(1, fib(n + 2) + 1))
    for i, x in enumerate(low_images, start=1):
        images[i - 1] = x
        images[shift + i - 1] = shift + x
    return images


def is_diagonal(n: int, images: Sequence[int]) -> bool:
    low = list(images[: fib(n)])
    return sorted(low) == list(range(1, fib(n) + 1)) and list(images) == diagonal_images(n, low)


def family_order(n: int) -> int:
    return math.factorial(fib(n + 2))


def reduced_family_order(n: int) -> int:
    return math.factorial(fib(n)) * math.factorial(fib(n - 1))


def expected_reports(max_n: int, claims: Sequence[str]) -> dict[tuple[str, Optional[int]], str]:
    """(claim id, n) -> verdict for a full-profile run whose sizes stay inside
    the profile's bounds.  diagonal-generation is known false from n = 4 on."""
    first_n = {"diagonal-generation": 3, "three-cycles": 4}
    out: dict[tuple[str, Optional[int]], str] = {}
    for claim in claims:
        if claim == "golden-cases":
            out[(claim, None)] = "pass"
            continue
        for n in range(first_n.get(claim, 1), max_n + 1):
            known_false = claim == "diagonal-generation" and n >= 4
            out[(claim, n)] = "fail" if known_false else "pass"
    return out
