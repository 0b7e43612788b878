"""Independent sets of the path on 1..n and the toggle involution.

Toggling vertex k of an independent set removes k when it is present,
adds it when neither neighbour k-1 nor k+1 is present, and otherwise
leaves the set unchanged.  One set at a time is a frozenset of its
vertices; a whole table of sets is an int64 array of bitmasks (bit v-1
for vertex v), toggled at once by :func:`toggle_path_masks`, and each
mask is written in the canonical set text by ``_mask_text``.
"""

from __future__ import annotations

import gc
from typing import Iterable

from .fibindex import _independent_set
from .perms import _is_decimal

__all__ = [
    "enumerate_independent_sets",
    "format_set_text",
    "parse_set_text",
    "toggle_path",
    "toggle_path_masks",
]


def _path_sets_in_rank_order(n: int) -> list[frozenset[int]]:
    # the independent sets of the path on 1..m in rank order: first those
    # without vertex m (the sets of 1..m-1), then those of 1..m-2 with m added.
    # The frozensets hold only ints and form no cycles, yet millions of new
    # containers trigger cyclic GC passes that rescan every set built so far
    # (several times the build's own time at n = 30); the collector is paused
    enabled = gc.isenabled()
    gc.disable()
    try:
        shorter, sets = [frozenset()], [frozenset(), frozenset({1})]
        for m in range(2, n + 1):
            shorter, sets = sets, sets + [s | {m} for s in shorter]
        return sets
    finally:
        if enabled:
            gc.enable()


def enumerate_independent_sets(n: int) -> list[frozenset[int]]:
    """All independent sets of the path on 1..n, each exactly once, in rank
    order: the set of rank j is at position j - 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _path_sets_in_rank_order(n)


def _toggle_path_members(k: int, members: frozenset[int]) -> frozenset[int]:
    # the path toggle on bare members; vertices outside 1..n never occur
    if k in members:
        return members - {k}
    if k - 1 in members or k + 1 in members:
        return members
    return members | {k}


def toggle_path_masks(k: int, masks: np.ndarray) -> np.ndarray:
    """The toggle at vertex k applied to an array of independent-set
    bitmasks of a path: a set holding k loses it, a set holding a
    neighbour of k is unchanged, and any other set gains k."""
    import numpy as np
    bit, neighbours = 1 << (k - 1), (5 << k) >> 2  # bits k-2 and k: vertices k-1, k+1
    return masks ^ np.where(masks & neighbours, 0, bit)


def toggle_path(n: int, k: int, members: Iterable[int]) -> frozenset[int]:
    """The toggle at vertex k on an independent set of the path on 1..n.

    ``members`` is checked as :func:`rank` checks it, so outside input may
    be passed as it is read.
    """
    members = _independent_set(n, members)
    if not 1 <= k <= n:
        raise ValueError(f"vertex {k} out of range for path on 1..{n}")
    return _toggle_path_members(k, members)


def format_set_text(members: Iterable[int]) -> str:
    """Canonical set text: ``{}`` or ``{v1,v2,...}`` ascending, no spaces."""
    return "{" + ",".join(map(str, sorted(members))) + "}"


def _mask_text(mask: int) -> str:
    # bit v-1 stands for vertex v; the loop visits only the set bits, lowest first
    vertices = []
    while mask > 0:
        vertices.append((mask & -mask).bit_length())
        mask &= mask - 1
    return format_set_text(vertices)


def parse_set_text(text: str) -> frozenset[int]:
    """Parse the canonical set text format (strict: ascending, no spaces)."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"set text must be braced: {text!r}")
    inner = text[1:-1]
    if inner == "":
        return frozenset()
    members = []
    for part in inner.split(","):
        # no leading zeros: each set has exactly one text
        if not _is_decimal(part) or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"bad vertex {part!r} in set text {text!r}")
        members.append(int(part))
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ValueError(f"vertices must be strictly ascending in {text!r}")
    if members and members[0] < 1:
        raise ValueError("vertices are 1-based")
    return frozenset(members)
