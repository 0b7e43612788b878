"""Simple graphs, independent sets, and the toggle involution.

Toggling a vertex v either removes it from an independent set, adds it when
the result stays independent, or leaves the set unchanged.  The path graph
on vertices 1..n (edges between consecutive integers) gets a dedicated
:class:`PathGraph` type whose independent sets enumerate in rank order,
and a whole-table toggle on bitmasks (bit v-1 for vertex v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "IndependentSet",
    "PathGraph",
    "SimpleGraph",
    "enumerate_independent_sets",
    "format_graph_text",
    "format_set_text",
    "is_independent",
    "parse_graph_text",
    "parse_set_text",
    "path_graph",
    "toggle",
    "toggle_path",
    "toggle_path_masks",
]


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 1..vertex_count.

    Edges are stored as (u, v) pairs with u < v; no loops, no duplicates.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.vertex_count):
                raise ValueError(f"edge {e} is not a sorted pair of vertices in range")

    @classmethod
    def from_edges(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build from unordered pairs; normalizes orientation, rejects loops."""
        edges = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edges.add((min(u, v), max(u, v)))
        return cls(vertex_count, frozenset(edges))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        if not 1 <= v <= self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        return frozenset(
            b if a == v else a for a, b in self.edges if v in (a, b)
        )


@dataclass(frozen=True)
class PathGraph:
    """The path on vertices 1..n: edges {i, i+1}.  Knows its own structure,
    so independent sets enumerate in rank order."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("path graph needs at least one vertex")

    @property
    def vertex_count(self) -> int:
        return self.n

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return abs(u - v) == 1

    def to_simple(self) -> SimpleGraph:
        return path_graph(self.n)


Graph = Union[SimpleGraph, PathGraph]


@dataclass(frozen=True)
class IndependentSet:
    """A vertex subset with no adjacent pair, tied to its ambient graph."""

    graph: Graph
    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        pair = _adjacent_pair(self.graph, members)
        if pair is not None:
            raise ValueError("set is not independent: {} and {} are adjacent".format(*pair))

    @classmethod
    def _trusted(cls, graph: Graph, members: frozenset[int]) -> "IndependentSet":
        # for values produced by operations that preserve independence by
        # construction (enumeration, toggling); skips revalidation
        value = object.__new__(cls)
        object.__setattr__(value, "graph", graph)
        object.__setattr__(value, "members", members)
        return value

    def __str__(self) -> str:
        return format_set_text(self.members)


def path_graph(n: int) -> SimpleGraph:
    """The path on 1..n as a plain simple graph (n-1 consecutive edges)."""
    if n < 1:
        raise ValueError("path graph needs at least one vertex")
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(1, n)))


def _adjacent_pair(g: Graph, members: frozenset[int]) -> Optional[tuple[int, int]]:
    # the first pair u < v of members joined by an edge of g, or None;
    # raises on a vertex outside g
    n = g.vertex_count
    for v in members:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range for graph on 1..{n}")
    return next(
        ((u, v) for v in members for u in members if u < v and g.has_edge(u, v)), None
    )


def is_independent(g: Graph, members: Iterable[int]) -> bool:
    """Whether no edge of g has both endpoints in ``members``."""
    return _adjacent_pair(g, frozenset(members)) is None


def _path_sets_in_rank_order(n: int) -> list[frozenset[int]]:
    # the independent sets of the path on 1..m in rank order: first those
    # without vertex m (the sets of 1..m-1), then those of 1..m-2 with m added
    shorter, sets = [frozenset()], [frozenset(), frozenset({1})]
    for m in range(2, n + 1):
        shorter, sets = sets, sets + [s | {m} for s in shorter]
    return sets


def enumerate_independent_sets(g: Graph) -> list[IndependentSet]:
    """All independent sets of g, each exactly once.

    For :class:`PathGraph` the list is in rank order (position j holds the
    set of rank j); for a general :class:`SimpleGraph` it is ordered by
    (size, lexicographic members).
    """
    if isinstance(g, PathGraph):
        return [IndependentSet._trusted(g, s) for s in _path_sets_in_rank_order(g.n)]
    found: list[frozenset[int]] = [frozenset()]
    neighbor_sets = {v: g.neighbors(v) for v in range(1, g.vertex_count + 1)}
    for v in range(1, g.vertex_count + 1):
        found.extend([s | {v} for s in found if not (neighbor_sets[v] & s)])
    found.sort(key=lambda s: (len(s), sorted(s)))
    return [IndependentSet._trusted(g, s) for s in found]


def _toggle_members(g: Graph, v: int, members: frozenset[int]) -> frozenset[int]:
    if v in members:
        return members - {v}
    if any(g.has_edge(v, u) for u in members):
        return members
    return members | {v}


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
    bit, neighbours = 1 << (k - 1), (5 << k) >> 2  # bits k-2 and k: vertices k-1, k+1
    return masks ^ np.where(masks & neighbours, 0, bit)


def toggle(g: Graph, v: int, independent: IndependentSet) -> IndependentSet:
    """Apply the toggle at vertex v: remove v if present, add it if the
    result stays independent, otherwise return the set unchanged."""
    if independent.graph != g:
        raise ValueError("independent set belongs to a different graph")
    if not 1 <= v <= g.vertex_count:
        raise ValueError(f"vertex {v} out of range for graph on 1..{g.vertex_count}")
    return IndependentSet._trusted(g, _toggle_members(g, v, independent.members))


def toggle_path(n: int, k: int, independent: IndependentSet) -> IndependentSet:
    """The toggle at vertex k on independent sets of the path on 1..n.

    Accepts sets anchored on either :class:`PathGraph` or the equivalent
    plain :func:`path_graph` and keeps the caller's ambient.
    """
    if not 1 <= k <= n:
        raise ValueError(f"vertex {k} out of range for path on 1..{n}")
    g = independent.graph
    on_path = (isinstance(g, PathGraph) and g.n == n) or (
        isinstance(g, SimpleGraph) and g == path_graph(n)
    )
    if not on_path:
        raise ValueError(f"independent set does not live on the path on 1..{n}")
    return IndependentSet._trusted(g, _toggle_path_members(k, independent.members))


def _is_decimal(text: str) -> bool:
    # str.isdigit alone also admits digits such as '٣' and '²'
    return text.isascii() and text.isdigit()


def format_set_text(members: Iterable[int]) -> str:
    """Canonical set text: ``{}`` or ``{v1,v2,...}`` ascending, no spaces."""
    return "{" + ",".join(map(str, sorted(members))) + "}"


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


def format_graph_text(g: SimpleGraph) -> str:
    """Graph file format: first line the vertex count, then one edge per line."""
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> SimpleGraph:
    """Parse the graph file format produced by :func:`format_graph_text`."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty graph text")
    if not _is_decimal(lines[0]):
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}")
    n = int(lines[0])
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(map(_is_decimal, parts)):
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge {u} {v} out of range for {n} vertices")
        pairs.append((u, v))
    return SimpleGraph.from_edges(n, pairs)
