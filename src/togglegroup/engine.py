"""Exact subgroup computations from a generating set.

A :class:`StabilizerChain` answers order and membership for the group a
generating set spans.  The order the engine proves before it builds, orbit
by orbit, picks the one phase a build runs, and each phase rests on
exactly one argument:

* with a proved order the chain keeps the proof, and ``contains`` reads
  membership from it in O(degree), each condition a C-level gather (an
  ``operator.itemgetter``): g fixes every point outside the orbits, maps
  the first orbit of each class onto itself, acts on the class's other
  orbits as on the first, through the listings that pair their points,
  and has a sign vector over the classes in the span of the proof's GF(2)
  basis.  These elements form a group of the proved order that holds
  every generator, which is checked, so it is the group; no transversal
  is stored;
* without one (an orbit of degree 2..7, or one whose action is not
  giant), the verified build is plain deterministic incremental
  Schreier-Sims: distribute the generators along the base, then sift
  Schreier generators level by level until every one reduces to the
  identity.  Witnessing every Schreier generator is its only stopping
  rule; it never counts.

The order is proved when every orbit's action contains its alternating
group, as :func:`jordan_certificate` shows for each orbit up to
equivalence of actions.  The derived group is then the product of those
alternating groups, by Goursat's lemma for simple factors (the argument
is in ``_proof``), and the signs of the generators give the rest:
degree! or degree!/2 for a transitive group, f(n)! * f(n-1)! for the
paper's reduced family at n >= 7.  A proved chain's base, basic orbits and
strong generators are laid out from the proof on first read.  Orders are
plain Python ints, which are arbitrary precision.

The paper's claim that the family generates all of S_degree needs no
chain at all: :func:`jordan_certificate` proves that generators contain
A_degree from their transitivity and one product with a long prime
cycle, in O(degree) memory, where the degree-377 chain's transversals
take about 215 MB.  Its walk composes raw image tuples, each step one
C-level gather (an ``operator.itemgetter`` of the generator's table, made
once per generator), and reads each product only for its one cycle longer
than half the degree, with a scan that stops once at most half the points
are left unseen; it never builds a cycle decomposition.  It can only ever
prove a group large, so callers keep the chain for membership and for
every order it leaves open.

The verified build's image tables are numpy arrays (composition is fancy
indexing), and numpy is imported by the methods that build them, not by
the module; the public surface speaks
:class:`~togglegroup.perms.Permutation` values only.  Each transversal is
stored once, as the inverses of its coset representatives: sifting only
ever strips a representative, and a new representative's inverse is a
product of stored inverses.  The transversal's dict is also the basic
orbit's only record: its keys are the orbit points in discovery order.
The build only sees the groups a proof leaves open, which for the paper's
families are small: degree 2..21 (the family at n <= 3, the reduced
family at n <= 6).  A numpy call costs microseconds where a scalar read
costs about a hundred nanoseconds, so the loops around the compositions
read single points (``ndarray.item``) and test orbit membership on the
transversal's keys, a sift looks at one base image per level, and whole
tables are compared as bytes.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .perms import DegreeMismatchError, Permutation

__all__ = [
    "JordanCertificate",
    "StabilizerChain",
    "build_chain",
    "jordan_certificate",
    "orbit",
]

# the Jordan walk's seed, and the most generators it multiplies in; the
# family's walks end after 21-134 steps for n = 4..12
_JORDAN_SEED = 0x5EED
_JORDAN_STEP_LIMIT = 1000


def _invert(a: np.ndarray) -> np.ndarray:
    import numpy as np
    out = np.empty_like(a)
    out[a] = np.arange(len(a), dtype=a.dtype)
    return out


class StabilizerChain:
    """Base and strong generating set for the group a generating set spans.

    Level i stabilizes the first i base points; its basic orbit is the
    orbit of base point i under the level's strong generators.  A verified
    chain keeps a transversal per level, a proved chain its proof.  It is
    never mutated once built but for the layout a proved chain sets on its
    first read, alike at every read, so reads need no synchronization.
    """

    # -- construction ------------------------------------------------------

    def __init__(self, generators: Iterable[Permutation], degree: int) -> None:
        if degree < 1:
            raise ValueError("degree must be at least 1")
        generators = list(generators)
        # the proof picks the phase; it also checks the degrees
        self._proved = _proof(generators, degree)
        self.degree = degree
        # the distinct inputs other than the identity, in input order
        ident = tuple(range(degree))
        self._inputs = [r for r in dict.fromkeys(g._img for g in generators) if r != ident]
        if self._proved is not None:
            self._index(*self._proved)
            return
        import numpy as np
        self._ident = np.arange(degree, dtype=np.intp)
        self._ident_bytes = self._ident.tobytes()
        self._base: list[int] = []            # 0-based base points
        self._gens: list[list[np.ndarray]] = []   # strong generators per level
        self._invs: list[list[np.ndarray]] = []
        # orbit point p -> inverse of the representative sending the base
        # point to p, so the stored table sends p back to the base point.
        # The keys are the basic orbit, in discovery order
        self._tinv: list[dict[int, np.ndarray]] = []
        # pending (orbit point, generator index) Schreier pairs per level
        self._work: list[deque[tuple[int, int]]] = []
        # the verified build: level i holds the generators fixing the first
        # i base points.  A generator joins every level up to the first whose
        # base point it moves, opening that level when it fixes them all
        for r in (np.array(img, dtype=np.intp) for img in self._inputs):
            d = next((i for i, b in enumerate(self._base) if r.item(b) != b), None)
            if d is None:
                d = len(self._base)
                self._append_level(r)
            inv = _invert(r)
            for i in range(d + 1):
                self._add_generator(i, r, inv)
        for i in range(len(self._base)):
            self._extend_orbit(i)
        # the chain is certified once every Schreier generator is witnessed
        i = len(self._base) - 1
        while i >= 0:
            found = self._first_unwitnessed(i)
            if found is None:
                i -= 1
                continue
            residue, j = found
            if j == len(self._base):
                self._append_level(residue)
            rinv = _invert(residue)
            for level in range(i + 1, j + 1):
                self._add_generator(level, residue, rinv)
                self._extend_orbit(level, len(self._gens[level]) - 1)
            i = j
        self._work = []  # construction is done; queues are spent
        self._order = math.prod(map(len, self._tinv))

    def _index(self, order: int, classes: list, basis: list[int]) -> None:
        # per class: a gather of its first orbit, each point's position on
        # it (None off it), and a gather and listing per other orbit.  A
        # basis of full rank spans every sign vector, so it is then dropped
        self._order, self._laid = order, None
        moved = {p for orbits in classes for o in orbits for p in o}
        self._fixed = tuple(p for p in range(self.degree) if p not in moved)
        self._classes = []
        for first, *others in classes:
            position = dict(zip(first, range(len(first))))
            where = [position.get(p) for p in range(self.degree)]
            self._classes.append((itemgetter(*first), where, [(itemgetter(*o), o) for o in others]))
        self._basis = basis if len(basis) < len(classes) else None
        if not all(map(self._has, self._inputs)):
            raise RuntimeError("a generator lies outside the group its proof describes")

    def _append_level(self, r: np.ndarray) -> None:
        import numpy as np
        # the new base point is the first point that table r moves
        base_point = int(np.nonzero(r != self._ident)[0][0])
        self._base.append(base_point)
        self._gens.append([])
        self._invs.append([])
        self._tinv.append({base_point: self._ident})
        self._work.append(deque())

    def _add_generator(self, i: int, r: np.ndarray, inv: np.ndarray) -> None:
        # every (existing orbit point, new generator) pair needs a Schreier
        # check; pairs with orbit points not yet discovered are queued by
        # _extend_orbit when the points appear
        gi = len(self._gens[i])
        self._gens[i].append(r)
        self._invs[i].append(inv)
        self._work[i].extend((p, gi) for p in self._tinv[i])

    def _extend_orbit(self, i: int, first: int = 0) -> None:
        # close the basic orbit under the level's generators; existing
        # transversal entries are kept, new points appended in scan order,
        # in rounds, generator by generator.  The orbit is already closed
        # under the generators before index first, so the first round scans
        # only the others.  The representative at s(p) is s composed after
        # the one at p, so its inverse is the inverse at p composed after
        # s^-1; each new point queues a pair per generator
        tinv = self._tinv[i]
        gens, invs = self._gens[i], self._invs[i]
        work = self._work[i]
        chunk = list(tinv)
        while chunk:
            found = []
            for s, si in zip(gens[first:], invs[first:]):
                for p in chunk:
                    x = s.item(p)
                    if x not in tinv:
                        tinv[x] = tinv[p][si]
                        work.extend((x, gi) for gi in range(len(gens)))
                        found.append(x)
            chunk, first = found, 0

    def _first_unwitnessed(self, i):
        import numpy as np
        # first pending Schreier generator of level i that does not sift to
        # the identity through the deeper levels, or None; a failing pair
        # stays queued so it is re-checked after the deeper levels grow.
        # With s the generator and u the representative at p, s*u sends the
        # base point to x = s(p); it is witnessed when it is the stored
        # representative at x, which is tested on the inverses.  Otherwise
        # the Schreier generator u_x^-1 * s * u is the table at x composed
        # after s*u, the inverse of su_inv, which one scatter forms without
        # inverting
        work = self._work[i]
        tinv = self._tinv[i]
        gens, invs = self._gens[i], self._invs[i]
        while work:
            p, gi = work[0]
            tx = tinv[gens[gi].item(p)]
            su_inv = tinv[p][invs[gi]]
            if su_inv.tobytes() == tx.tobytes():
                work.popleft()
                continue
            h = np.empty_like(tx)
            h[su_inv] = tx
            residue, j = self._sift_raw(h, i + 1)
            if residue.tobytes() == self._ident_bytes:
                work.popleft()
                continue
            return residue, j
        return None

    def _sift_raw(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        # strip transversal representatives from level start on; returns the
        # residue and the level where it left the orbit, or the base length
        base, tinv = self._base, self._tinv
        for level in range(start, len(base)):
            b = base[level]
            x = g.item(b)
            if x == b:
                continue
            iu = tinv[level].get(x)
            if iu is None:
                return g, level
            g = iu[g]
        return g, len(base)

    def _has(self, img: tuple[int, ...]) -> bool:
        if self._proved is None:
            import numpy as np
            residue, _ = self._sift_raw(np.array(img, dtype=np.intp), 0)
            return residue.tobytes() == self._ident_bytes
        # the proof's conditions, in the module docstring's order; at holds
        # the positions of the images of a class's first orbit
        if tuple(map(img.__getitem__, self._fixed)) != self._fixed:
            return False
        signs = 0
        for c, (first, where, others) in enumerate(self._classes):
            at = itemgetter(*first(img))(where)
            if None in at:
                return False
            copy = itemgetter(*at)
            for images, listing in others:
                if images(img) != copy(listing):
                    return False
            if self._basis is not None and Permutation._from_raw(at).parity() < 0:
                signs |= 1 << c
        for b in self._basis or ():
            signs = min(signs, signs ^ b)
        return not signs

    def _layout(self) -> tuple[list[int], list, list[tuple[int, ...]]]:
        # the base points and basic orbits (0-based, in discovery order) and
        # the strong generators' tables; a proof lays them out on first read.
        # A class of degree a gets levels i < a-2, base point position i of
        # its first orbit, basic orbit positions i..a-1; each basis vector
        # gets a level on the last two positions of its leading class.  The
        # strong generators are the inputs, then each class's 3-cycles (i,
        # i+1, i+2) and each vector's swap of the last two positions, on
        # every orbit of its classes
        if self._proved is None:
            strong = dict.fromkeys(tuple(r.tolist()) for gens in self._gens for r in gens)
            return self._base, self._tinv, list(strong)
        if self._laid is None:
            _, classes, basis = self._proved
            base, orbits = [], []
            strong = dict.fromkeys(self._inputs)
            for orbs in classes:
                first = orbs[0]
                for i in range(len(first) - 2):
                    base.append(first[i])
                    orbits.append(first[i:])
                    img = list(range(self.degree))
                    for o in orbs:
                        img[o[i]], img[o[i + 1]], img[o[i + 2]] = o[i + 1], o[i + 2], o[i]
                    strong[tuple(img)] = None
            for v in basis:
                img = list(range(self.degree))
                for c, orbs in enumerate(classes):
                    for o in orbs if v >> c & 1 else ():
                        img[o[-2]], img[o[-1]] = o[-1], o[-2]
                first = classes[v.bit_length() - 1][0]
                base.append(first[-2])
                orbits.append(first[-2:])
                strong[tuple(img)] = None
            self._laid = base, orbits, list(strong)
        return self._laid

    # -- queries -----------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        """The base points, 1-based."""
        return tuple(b + 1 for b in self._layout()[0])

    def basic_orbit_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self._layout()[1]))

    def strong_generators(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._from_raw, self._layout()[2]))

    def order(self) -> int:
        """Exact group order, proved or the product of the basic orbit sizes."""
        return self._order

    def contains(self, g: Permutation) -> bool:
        """Membership, by the proof's conditions or by sifting."""
        if g.degree != self.degree:
            raise DegreeMismatchError(
                f"element of degree {g.degree} cannot lie in a group on 1..{self.degree}"
            )
        return self._has(g._img)

    def is_full_symmetric(self) -> bool:
        """Whether the group is all of S_degree: its order is degree!."""
        return self.order() == math.factorial(self.degree)

    def first_missing_three_cycle(self) -> Permutation | None:
        """The first 3-cycle (i,i+1,i+2), by ascending i, that is not a
        member, or None when the group holds them all."""
        m = self.degree
        for i in range(m - 2):
            img = (*range(i), i + 1, i + 2, i, *range(i + 3, m))
            if not self._has(img):
                return Permutation._from_raw(img)
        return None

    def __repr__(self) -> str:
        return (
            f"<StabilizerChain deg={self.degree} base={self.base} "
            f"order={self.order()}>"
        )


def build_chain(generators: Sequence[Permutation], degree: int) -> StabilizerChain:
    """Deterministic stabilizer chain for the group the generators span.

    The empty generating set gives the trivial group, and a fixed input
    order always rebuilds the identical chain.  One phase builds it.  When
    the engine proves the order orbit by orbit (every orbit's action
    certified by :func:`jordan_certificate`), the chain keeps that proof,
    and its base points are laid out orbit by orbit in position order.
    Otherwise the verified Schreier-Sims build runs, and each base point
    is the smallest point moved at its level.
    """
    return StabilizerChain(generators, degree)


def orbit(generators: Sequence[Permutation], point: int) -> frozenset[int]:
    """The orbit of a 1-based point under the group the generators span,
    by breadth-first closure."""
    gens = list(generators)
    if gens:
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError("generators act on different domains")
        if not 1 <= point <= degree:
            raise ValueError(f"point {point} out of range for degree {degree}")
    elif point < 1:
        raise ValueError("points are 1-based")
    raws = [g._img for g in gens]
    start = point - 1
    seen = {start}
    queue = [start]
    k = 0
    while k < len(queue):
        p = queue[k]
        k += 1
        for r in raws:
            x = r[p]
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return frozenset(p + 1 for p in seen)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _check_degrees(gens: list[Permutation], degree: int) -> None:
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator of degree {g.degree} does not act on 1..{degree}")


def _has_jordan_prime(m: int) -> bool:
    # a prime p with m/2 < p <= m-3; there is none at degrees 1..7
    return any(_is_prime(p) for p in range(m // 2 + 1, m - 2))


@dataclass(frozen=True)
class JordanCertificate:
    """A chain-free proof that a transitive group on 1..m contains A_m.

    ``word`` lists 1-based generator indices, and its product
    ``generators[word[0]-1] * generators[word[1]-1] * ...`` has a cycle of
    the prime length ``p``, m/2 < p <= m-3.  ``odd_generator`` is the
    1-based index of the first odd generator, which makes the group all of
    S_m, or None when every generator is even.
    """

    p: int
    word: tuple[int, ...]
    odd_generator: Optional[int]


def jordan_certificate(
    generators: Sequence[Permutation], degree: int
) -> Optional[JordanCertificate]:
    """Certify that the generators span A_degree or S_degree, or None.

    A transitive group G of degree m that contains a p-cycle with p prime
    and m/2 < p <= m-3 is primitive: a block system with blocks of size
    1 < b < m has fewer than p blocks, so the p-cycle fixes each block and
    its support lies in one of them, but b <= m/2 < p.  By Jordan's
    theorem (Wielandt, *Finite Permutation Groups*, Thm 13.9) G then
    contains A_m.

    Transitivity is the orbit of point 1.  For the p-cycle, a fixed-seed
    walk multiplies in one generator at a time, at most
    ``_JORDAN_STEP_LIMIT`` of them, and stops at the first product with a
    cycle of prime length p in that range.  Every other cycle of the
    product is shorter than m - p < p, so prime to p, and the product's
    power to the lcm of the other lengths is a p-cycle of G.

    A product is a raw image tuple, and only its one cycle longer than
    m/2, if it has one, is read: the scan follows cycles from the smallest
    unseen point and stops as soon as at most m/2 points are left unseen,
    since no such cycle fits among them.  So a product whose long cycle
    holds point 1 costs one pass along that cycle.

    None means only that nothing was certified: the generators are not
    transitive, no prime lies in the range (as at degrees 2, 3 and 5), or
    the walk found no such product.  The walk is deterministic, so the
    same generators always give the same certificate.
    """
    gens = list(generators)
    _check_degrees(gens, degree)
    if not _has_jordan_prime(degree):
        return None
    if len(orbit(gens, 1)) != degree:
        return None
    rng = random.Random(_JORDAN_SEED)
    # steps[i](product) is product * gens[i], one C-level gather; the
    # degree is at least 8 here, so each gather returns a tuple
    steps = [itemgetter(*g._img) for g in gens]
    product = tuple(range(degree))
    word = []
    for _ in range(_JORDAN_STEP_LIMIT):
        i = rng.randrange(len(gens))
        product = steps[i](product)
        word.append(i + 1)
        p = _long_cycle(product)
        if p and p <= degree - 3 and _is_prime(p):
            odd = next((k + 1 for k, g in enumerate(gens) if g.parity() < 0), None)
            return JordanCertificate(p, tuple(word), odd)
    return None


def _long_cycle(img: tuple[int, ...]) -> int:
    # the length of the one cycle longer than half the degree, or 0.  The
    # scan stops once at most half the points are left unseen, since no
    # such cycle fits among them; a fixed point of degree 1 is no cycle
    m = len(img)
    seen = bytearray(m)
    left = m
    for s in range(m):
        if seen[s]:
            continue
        j, length = img[s], 1
        while j != s:
            seen[j] = 1
            j = img[j]
            length += 1
        if 2 * length > m > 1:
            return length
        left -= length
        if 2 * left <= m:
            return 0
    return 0


def _intertwined(raws: list[tuple[int, ...]], a: list[int], b: list[int]) -> Optional[list]:
    # orbit b listed as the images of a's points (0-based) under a bijection
    # that commutes with every generator, or None.  The group is transitive
    # on a, so such a map is fixed by the image of a[0]; a map that closes
    # over a without contradiction is onto b, an orbit of the same size
    images = (_carries(raws, a[0], y) for y in b) if len(a) == len(b) else ()
    image = next(filter(None, images), None)
    return None if image is None else [image[x] for x in a]


def _carries(raws: list[tuple[int, ...]], x0: int, y0: int) -> Optional[dict[int, int]]:
    # carry x0 -> y0 along the generators, x -> y giving r[x] -> r[y]; the
    # image of every point reached, or None as soon as one gets two images
    image = {x0: y0}
    queue = [x0]
    for x in queue:  # the loop reaches the points appended during it
        y = image[x]
        for r in raws:
            gx, gy = r[x], r[y]
            known = image.get(gx)
            if known is None:
                image[gx] = gy
                queue.append(gx)
            elif known != gy:
                return None
    return image


def _proved_order(generators: Sequence[Permutation], degree: int) -> Optional[int]:
    """The order :func:`_proof` proves, or None."""
    proof = _proof(generators, degree)
    return proof and proof[0]


def _proof(generators: Sequence[Permutation], degree: int) -> Optional[tuple]:
    """The order of the group the generators span, its classes of orbits
    and its sign basis, proved orbit by orbit without a chain; or None when
    some orbit's action is not certified.

    The domain splits into the group's orbits; fixed points are skipped.
    An orbit whose action is equivalent to an earlier one's (a bijection
    between them commutes with every generator) joins that one's class.
    One orbit of each class, under the restricted generators, must get a
    :func:`jordan_certificate`, so its image G_i is A_a or S_a; the first
    class that gets none ends the proof, and orbits of a degree with no
    prime in range end it before any walk.

    Then |G| = prod(a_i!/2) * 2^r over the classes, where r is the GF(2)
    rank of the generators' sign vectors (the sign of each generator on
    each class).  G acts faithfully on one orbit per class, since the
    others copy its action.  Every certified degree is at least 8, so each
    A_a is simple, each of its automorphisms is conjugation by an element
    of S_a, and its centralizer in S_a is trivial.  The derived group G'
    projects onto every A_a, so it is a subdirect product of simple
    groups, hence a product of diagonals.  A diagonal between two classes
    would be the graph of an isomorphism A_a -> A_b, conjugation by a
    bijection phi; G normalizes G', and the trivial centralizer then makes
    phi commute with the action of every element of G.  The two orbits
    would be equivalent, but classes are not, so G' = prod A_a, and G/G'
    is the span of the sign vectors.  With one class on the whole domain
    this is degree!, or degree!/2 when every generator is even.  A class
    lists its 0-based orbits, the first sorted and the others through their
    bijection with it; the basis vectors are bit masks over the classes.
    """
    gens = list(generators)
    _check_degrees(gens, degree)
    raws = [g._img for g in gens]
    # the orbits by smallest point, in one breadth-first pass over the domain
    orbits: list[list[int]] = []
    seen = bytearray(degree)
    for start in range(degree):
        if not seen[start]:
            seen[start] = 1
            points = [start]
            for p in points:  # the loop reaches the points appended during it
                for r in raws:
                    if not seen[r[p]]:
                        seen[r[p]] = 1
                        points.append(r[p])
            if len(points) > 1:
                orbits.append(sorted(points))
    if not all(_has_jordan_prime(len(o)) for o in orbits):
        return None
    classes: list[list[list[int]]] = []
    signs = [0] * len(gens)  # per generator, bit i is its sign on class i
    order = 1
    for points in orbits:
        for c in classes:
            listing = _intertwined(raws, c[0], points)
            if listing is not None:
                c.append(listing)
                break
        else:
            index = {p: i for i, p in enumerate(points)}
            restricted = [
                Permutation._from_raw(tuple(index[r[p]] for p in points)) for r in raws
            ]
            if jordan_certificate(restricted, len(points)) is None:
                return None
            for k, g in enumerate(restricted):
                if g.parity() < 0:
                    signs[k] |= 1 << len(classes)
            classes.append([points])
            order *= math.factorial(len(points)) // 2
    # an elimination basis over GF(2): each vector keeps a leading bit that
    # the later ones have cleared
    basis: list[int] = []
    for v in signs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return order * 2 ** len(basis), classes, basis
