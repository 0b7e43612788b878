"""Exact permutation arithmetic on {1..m} with canonical cycle-notation I/O.

Composition is right-to-left everywhere: ``(g * h)(x) == g(h(x))``.  Points
are 1-based in all public signatures and in cycle text.  Permutations of
different degrees never coerce silently: composing them raises
:class:`DegreeMismatchError`.

``g * h`` is one C-level gather, ``operator.itemgetter(*h)`` applied to
g's image table, which builds the product's tuple without a Python-level
call per point.

:func:`format_cycles` writes the canonical text in one pass over the image
table, with no intermediate decomposition: each 2-cycle, the whole of an
involution such as a family member or the block swap, is one f-string, and
the cycles are joined once.  :meth:`Permutation.cycles` stays the public
decomposition, and the text it gives is the formatter's test reference.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, Sequence

__all__ = [
    "CycleParseError",
    "DegreeMismatchError",
    "Permutation",
    "format_cycles",
    "parse_cycles",
]


def _is_decimal(text: str) -> bool:
    # ASCII digits only: str.isdigit alone also admits digits such as '٣'
    # and '²'.  The one digit rule of every text parser in the package
    return text.isascii() and text.isdigit()


class DegreeMismatchError(ValueError):
    """Operands act on domains of different sizes."""


class CycleParseError(ValueError):
    """Malformed cycle text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Permutation:
    """A bijection of {1..m} stored as an image table.

    Values are immutable and hashable.  ``g * h`` is the function
    composition g∘h, so ``(g * h).apply(x) == g.apply(h.apply(x))``.
    """

    __slots__ = ("_img",)

    _img: tuple[int, ...]  # 0-based: _img[i] is the image of point i+1, minus 1

    def __init__(self, images: Sequence[int]) -> None:
        m = len(images)
        if m == 0:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"images are not a bijection of 1..{m}")
        img = tuple([x - 1 for x in images])
        # a float equal to an integer passes the check above and breaks every
        # later lookup.  A sum of ints is an int, and one float (or Fraction,
        # or numpy number) among them makes it another type
        if type(sum(img)) is not int:
            try:
                img = tuple([index(x) for x in img])  # numpy integers convert
            except TypeError:
                raise ValueError("images must be integers") from None
        self._img = img

    @classmethod
    def _from_raw(cls, img: tuple[int, ...]) -> "Permutation":
        # trusted 0-based image table, no validation
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        if m < 1:
            raise ValueError("degree must be at least 1")
        return cls._from_raw(tuple(range(m)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles of 1-based points."""
        if degree < 1:
            raise ValueError("degree must be at least 1")
        img = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            if len(cycle) < 2:
                raise ValueError("cycles need at least two points")
            for v in cycle:
                if not 1 <= v <= degree:
                    raise ValueError(f"point {v} out of range for degree {degree}")
                if v in seen:
                    raise ValueError(f"point {v} appears twice")
                seen.add(v)
            for a, b in zip(cycle, cycle[1:]):
                img[a - 1] = b - 1
            img[cycle[-1] - 1] = cycle[0] - 1
        return cls._from_raw(tuple(img))

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple[int, ...]:
        """The 1-based image table: ``images[i-1]`` is the image of point i."""
        return tuple([x + 1 for x in self._img])

    def apply(self, x: int) -> int:
        if not 1 <= x <= len(self._img):
            raise ValueError(f"point {x} out of range for degree {len(self._img)}")
        return self._img[x - 1] + 1

    __call__ = apply

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self._img, other._img
        if len(a) != len(b):
            raise DegreeMismatchError(
                f"cannot compose degree {len(a)} with degree {len(b)}"
            )
        # one C-level gather; with a single index itemgetter returns the
        # bare entry, so degree 1 builds its tuple itself
        return Permutation._from_raw(itemgetter(*b)(a) if len(b) > 1 else (a[b[0]],))

    def inverse(self) -> "Permutation":
        img = self._img
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        return Permutation._from_raw(tuple(out))

    def parity(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        # a cycle of length l is a product of l-1 transpositions, so the
        # parity is that of the degree minus the number of cycles, fixed
        # points included; one scan counts the cycles
        img = self._img
        seen = bytearray(len(img))
        cycles = 0
        for s in range(len(img)):
            if seen[s]:
                continue
            # s is the smallest point of its cycle, so the scan never
            # comes back to it
            cycles += 1
            j = img[s]
            while j != s:
                seen[j] = 1
                j = img[j]
        return 1 if (len(img) - cycles) % 2 == 0 else -1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The canonical cycle decomposition: the cycles of length >= 2,
        1-based, each beginning at its smallest point, sorted by first point."""
        img = self._img
        seen = bytearray(len(img))
        out = []
        for s in range(len(img)):
            if seen[s] or img[s] == s:
                continue
            cycle = [s + 1]
            seen[s] = 1
            j = img[s]
            while j != s:
                seen[j] = 1
                cycle.append(j + 1)
                j = img[j]
            out.append(tuple(cycle))
        # scanning from the smallest unseen point makes each cycle start at
        # its minimum and orders cycles by first element already
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"<Permutation {self} deg={len(self._img)}>"


def format_cycles(g: Permutation) -> str:
    """Canonical cycle text; fixed points omitted, identity is ``()``.

    The text of :meth:`Permutation.cycles`, written in one pass over the
    image table: a 2-cycle is one f-string and a longer cycle one join.
    """
    img = g._img
    seen = bytearray(len(img))
    parts = []
    # walking from the smallest unseen point starts each cycle at its
    # minimum and orders the cycles by first point, as cycles() does
    for s, x in enumerate(img):
        if seen[s] or x == s:
            continue
        if img[x] == s:
            parts.append(f"{s + 1},{x + 1}")
            seen[x] = 1
            continue
        cycle = [s + 1]
        while x != s:
            seen[x] = 1
            cycle.append(x + 1)
            x = img[x]
        parts.append(",".join(map(str, cycle)))
    if not parts:
        return "()"
    return "(" + ")(".join(parts) + ")"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1,2)(4,5)`` into a permutation of 1..degree.

    Grammar: ``perm := "()" | cycle+`` with ``cycle := "(" int ("," int)+ ")"``;
    whitespace between tokens is ignored.  Raises :class:`CycleParseError`
    with the offending position on malformed text, out-of-range points, or
    repeated points.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(0)
    if i >= n:
        raise CycleParseError("empty permutation text", i)

    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    saw_empty = False
    while i < n:
        if text[i] != "(":
            raise CycleParseError("expected '('", i)
        open_pos = i
        i = skip_ws(i + 1)
        if i < n and text[i] == ")":
            if cycles or saw_empty:
                raise CycleParseError("'()' must stand alone", open_pos)
            saw_empty = True
            i = skip_ws(i + 1)
            continue
        if saw_empty:
            raise CycleParseError("'()' must stand alone", open_pos)
        points: list[int] = []
        while True:
            j = i
            while j < n and _is_decimal(text[j]):
                j += 1
            if j == i:
                raise CycleParseError("expected an integer", i)
            v = int(text[i:j])
            if v < 1 or v > degree:
                raise CycleParseError(f"point {v} out of range for degree {degree}", i)
            if v in seen:
                raise CycleParseError(f"repeated point {v}", i)
            seen.add(v)
            points.append(v)
            i = skip_ws(j)
            if i < n and text[i] == ",":
                i = skip_ws(i + 1)
                continue
            if i < n and text[i] == ")":
                i = skip_ws(i + 1)
                break
            raise CycleParseError("expected ',' or ')'", i)
        if len(points) < 2:
            raise CycleParseError("cycle needs at least two points", open_pos)
        cycles.append(tuple(points))

    if saw_empty:
        return Permutation.identity(degree)
    return Permutation.from_cycles(cycles, degree)
