import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import brute_force_closure, extend, random_permutation

from togglegroup import (
    DegreeMismatchError,
    Permutation,
    StabilizerChain,
    build_chain,
    fib,
    format_cycles,
    jordan_certificate,
    orbit,
    parse_cycles,
)
from togglegroup import engine
from togglegroup.engine import _proved_order
from togglegroup.families import family, prime_family


def gens(*texts, degree):
    return [parse_cycles(t, degree) for t in texts]


def _basic_orbits(chain):
    # per level, the basic orbit (1-based, in discovery order): the keys of
    # the level's transversal
    return tuple(tuple(p + 1 for p in tinv) for tinv in chain._tinv)


def _validate(chain):
    """Re-check a chain's structural invariants; raises ValueError on damage."""
    base = chain._base
    if len(set(base)) != len(base):
        raise ValueError("base points are not distinct")
    for i, b in enumerate(base):
        for r in chain._gens[i]:
            if any(r[base[j]] != base[j] for j in range(i)):
                raise ValueError(f"level {i} generator moves an earlier base point")
        for p, u in chain._tinv[i].items():
            if not np.array_equal(np.sort(u), chain._ident):
                raise ValueError(f"transversal entry at level {i} is not a bijection")
            if u[p] != b:
                raise ValueError(f"transversal entry at level {i} misses its point")


class TestBuildChain:
    def test_trivial_group(self):
        chain = build_chain([], 3)
        assert chain.order() == 1
        assert chain.base == ()
        assert chain.contains(Permutation.identity(3))
        assert not chain.contains(parse_cycles("(1,2)", 3))

    def test_family_2_gives_s3(self):
        chain = build_chain(gens("(1,2)", "(1,3)", degree=3), 3)
        assert chain.order() == 6

    def test_reduced_family_3_has_order_two(self):
        chain = build_chain(gens("(1,2)(4,5)", degree=5), 5)
        assert chain.order() == 2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            build_chain([parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 3)], 3)

    def test_identity_generators_collapse(self):
        chain = build_chain([Permutation.identity(4)] * 3, 4)
        assert chain.order() == 1

    def test_base_points_are_smallest_moved(self):
        chain = build_chain(gens("(2,3)", degree=4), 4)
        assert chain.base == (2,)

    def test_determinism(self):
        generators = family(6)
        first = build_chain(generators, 21)
        second = build_chain(generators, 21)
        assert first.base == second.base
        assert _basic_orbits(first) == _basic_orbits(second)
        assert [g.images for g in first.strong_generators()] == [
            g.images for g in second.strong_generators()
        ]


class TestOrder:
    def test_family_3_generates_s5(self):
        assert build_chain(family(3), 5).order() == 120

    def test_family_4_order_matches_brute_force(self):
        generators = family(4)
        chain = build_chain(generators, 8)
        assert chain.order() == 40320
        assert chain.order() == len(brute_force_closure(generators))

    def test_order_divides_degree_factorial(self):
        rng = random.Random(11)
        for _ in range(20):
            degree = rng.randint(2, 9)
            generators = [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))]
            assert math.factorial(degree) % build_chain(generators, degree).order() == 0

    def test_rebuild_from_strong_generators_preserves_order(self):
        rng = random.Random(5)
        for _ in range(10):
            degree = rng.randint(2, 9)
            generators = [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))]
            chain = build_chain(generators, degree)
            rebuilt = build_chain(list(chain.strong_generators()), degree)
            assert rebuilt.order() == chain.order()

    def test_orbit_sizes_divide_order(self):
        rng = random.Random(13)
        for _ in range(10):
            degree = rng.randint(2, 9)
            generators = [random_permutation(rng, degree) for _ in range(2)]
            chain = build_chain(generators, degree)
            for size in chain.basic_orbit_sizes():
                assert chain.order() % size == 0


class TestContains:
    def test_generator_is_member(self):
        chain = build_chain(gens("(1,2)(4,5)", degree=5), 5)
        assert chain.contains(parse_cycles("(1,2)(4,5)", 5))

    def test_halfway_element_is_not(self):
        chain = build_chain(gens("(1,2)(4,5)", degree=5), 5)
        assert not chain.contains(parse_cycles("(1,2)", 5))

    def test_three_cycle_in_family_4(self):
        chain = build_chain(family(4), 8)
        assert chain.contains(parse_cycles("(1,2,3)", 8))

    def test_degree_mismatch(self):
        chain = build_chain(gens("(1,2)", degree=2), 2)
        with pytest.raises(DegreeMismatchError):
            chain.contains(parse_cycles("(1,2)", 3))

    def test_agrees_with_brute_force_closure(self):
        rng = random.Random(23)
        for _ in range(12):
            degree = rng.randint(2, 8)
            generators = [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))]
            closure = brute_force_closure(generators)
            chain = build_chain(generators, degree)
            assert chain.order() == len(closure)
            for g in list(closure)[:200]:
                assert chain.contains(g)
            for _ in range(200):
                probe = random_permutation(rng, degree)
                assert chain.contains(probe) == (probe in closure)


class TestOrbit:
    def test_family_1(self):
        assert orbit(gens("(1,2)", degree=2), 1) == frozenset({1, 2})

    def test_empty_generators(self):
        assert orbit([], 4) == frozenset({4})

    def test_reduced_family_fixes_middle(self):
        assert orbit(gens("(1,2)(4,5)", degree=5), 3) == frozenset({3})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            orbit(gens("(1,2)", degree=2), 3)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(DegreeMismatchError):
            orbit([parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 3)], 1)


class TestFullSymmetric:
    def test_family_2(self):
        assert build_chain(gens("(1,2)", "(1,3)", degree=3), 3).is_full_symmetric()

    def test_single_transposition_is_not(self):
        assert not build_chain(gens("(1,2)", degree=3), 3).is_full_symmetric()

    def test_family_4(self):
        assert build_chain(family(4), 8).is_full_symmetric()

    def test_alternating_is_not(self):
        generators = gens("(1,2,3)", "(1,2,3,4,5)", degree=5)  # A_5, order 60
        chain = build_chain(generators, 5)
        assert chain.order() == 60
        assert not chain.is_full_symmetric()

    def test_degree_one(self):
        assert build_chain([], 1).is_full_symmetric()


class TestContainsAlternating:
    """The group contains the alternating group exactly when no consecutive
    3-cycle is missing: those 3-cycles generate it."""

    def test_family_4(self):
        assert build_chain(family(4), 8).first_missing_three_cycle() is None

    def test_order_two_group_does_not(self):
        chain = build_chain(gens("(1,2)", degree=3), 3)
        assert format_cycles(chain.first_missing_three_cycle()) == "(1,2,3)"

    def test_family_3(self):
        assert build_chain(family(3), 5).first_missing_three_cycle() is None

    def test_alternating_group_itself(self):
        generators = gens("(1,2,3)", "(1,2,3,4,5)", degree=5)
        assert build_chain(generators, 5).first_missing_three_cycle() is None

    def test_first_missing_three_cycle(self):
        chain = build_chain(gens("(1,2,3)", degree=6), 6)
        assert format_cycles(chain.first_missing_three_cycle()) == "(2,3,4)"
        assert build_chain(family(4), 8).first_missing_three_cycle() is None


class TestLargeFamilies:
    def test_family_8_is_full_symmetric_on_55(self):
        chain = build_chain(family(8), 55)
        _validate(chain)
        assert chain.is_full_symmetric()
        assert chain.order() == math.factorial(55)

    def test_reduced_family_8_structure(self):
        chain = build_chain(list(prime_family(8)), 55)
        _validate(chain)
        # diagonal action on the end blocks times full action on the middle
        assert chain.order() == math.factorial(21) * math.factorial(13)

    def test_validate_catches_a_corrupt_transversal(self):
        chain = build_chain(family(5), 13)
        _validate(chain)
        level, table = 1, chain._tinv[1]
        p = next(q for q in table if q != chain._base[level])
        good = table[p]
        # a table that is no bijection
        table[p] = good.copy()
        table[p][table[p] == chain._base[level]] = p
        with pytest.raises(ValueError, match="not a bijection"):
            _validate(chain)
        # a bijection that does not send p back to the base point
        swapped = good.copy()
        q = next(q for q in range(13) if q != p)
        swapped[[p, q]] = swapped[[q, p]]
        table[p] = swapped
        with pytest.raises(ValueError, match="misses its point"):
            _validate(chain)
        table[p] = good
        _validate(chain)


def _raise(*args):
    raise AssertionError("this phase must not run")


class TestPhaseChoice:
    """The proved order picks the one phase a build runs: the chain is
    written from the proof when every orbit's action is certified, and the
    verified build runs otherwise.  (The first test's name predates the
    written chains; it is kept so that its test id stays the same.)"""

    def test_certified_groups_run_only_the_boost(self, monkeypatch):
        monkeypatch.setattr(StabilizerChain, "_first_unwitnessed", _raise)
        assert build_chain(family(7), 34).order() == math.factorial(34)
        # every generator is even, so the proved order is that of A_13
        alternating = gens("(1,2,3)", "(1,2,3,4,5,6,7,8,9,10,11,12,13)", degree=13)
        assert build_chain(alternating, 13).order() == math.factorial(13) // 2
        # intransitive: the low and the top blocks act alike, the middle
        # block on its own
        chain = build_chain(prime_family(8), 55)
        _validate(chain)
        assert chain.order() == math.factorial(21) * math.factorial(13)

    def test_uncertified_groups_run_only_the_verified_build(self, monkeypatch):
        monkeypatch.setattr(StabilizerChain, "_write", _raise)
        # the middle block has degree 5, with no prime in (5/2, 2]
        assert build_chain(prime_family(6), 21).order() == math.factorial(8) * math.factorial(5)
        assert build_chain(family(3), 5).order() == 120
        # intransitive, with a dihedral orbit beside a giant one
        dihedral = [extend(g, 21) for g in _reflected_cycle(13)]
        giant = gens("(14,15)", "(14,15,16,17,18,19,20,21)", degree=21)
        assert build_chain(dihedral + giant, 21).order() == 26 * math.factorial(8)


class TestWrittenChainCheck:
    """A proved group's chain is written from its proof and returned only
    once every generator sifts through it to the identity: a proof whose
    structure disagrees with the generators raises instead."""

    @pytest.mark.parametrize("n", range(7, 11))
    def test_a_rotated_intertwining_map_raises(self, n, monkeypatch):
        intertwined = engine._intertwined

        def rotated(*args):
            listing = intertwined(*args)
            return listing and listing[1:] + listing[:1]

        monkeypatch.setattr(engine, "_intertwined", rotated)
        with pytest.raises(RuntimeError, match="outside the group"):
            build_chain(prime_family(n), fib(n + 2))

    @pytest.mark.parametrize("n", range(7, 11))
    def test_a_dropped_sign_vector_raises(self, n, monkeypatch):
        proof = engine._proof

        def dropped(*args):
            order, classes, basis = proof(*args)
            return order // 2, classes, basis[:-1]

        monkeypatch.setattr(engine, "_proof", dropped)
        with pytest.raises(RuntimeError, match="outside the group"):
            build_chain(prime_family(n), fib(n + 2))


class TestProvedOrder:
    @pytest.mark.parametrize("n", range(7, 13))
    def test_reduced_family_is_both_blocks_full(self, n):
        # diag(S_f(n)) on the low and top blocks times S_f(n-1) in the middle
        expected = math.factorial(fib(n)) * math.factorial(fib(n - 1))
        assert _proved_order(prime_family(n), fib(n + 2)) == expected

    @pytest.mark.parametrize("n", range(3, 7))
    def test_an_orbit_of_degree_at_most_5_leaves_it_open(self, n):
        assert _proved_order(prime_family(n), fib(n + 2)) is None

    def test_one_orbit_gives_the_jordan_target(self):
        assert _proved_order(family(6), 21) == math.factorial(21)
        alternating = gens("(1,2,3)", "(1,2,3,4,5,6,7,8,9,10,11,12,13)", degree=13)
        assert _proved_order(alternating, 13) == math.factorial(13) // 2

    def test_no_moved_point_is_the_trivial_group(self):
        assert _proved_order([], 4) == 1
        assert _proved_order([Permutation.identity(4)], 4) == 1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            _proved_order(family(4), 13)


def _chain_digest(generator_sets):
    h = hashlib.sha256()
    for generators, degree in generator_sets:
        chain = build_chain(list(generators), degree)
        strong = tuple(g.images for g in chain.strong_generators())
        h.update(repr((chain.base, _basic_orbits(chain), strong)).encode())
    return h.hexdigest()


def _transversal_digest(generator_sets):
    # each chain validated, then every (level, orbit point, stored inverse
    # table) in discovery order, the table as little-endian int64 bytes
    h = hashlib.sha256()
    for generators, degree in generator_sets:
        chain = build_chain(list(generators), degree)
        _validate(chain)
        for level, tinv in enumerate(chain._tinv):
            for point, inverse in tinv.items():
                h.update(repr((level, point)).encode())
                h.update(np.asarray(inverse, dtype="<i8").tobytes())
    return h.hexdigest()


class TestPinnedChains:
    """A chain is a deterministic function of the generator order.  These
    SHA-256 digests of (base, basic orbits in discovery order, strong
    generator images) pin the chains of the family for n <= 12 and of the
    reduced family for n <= 10, so a change to how the engine builds or
    stores a chain shows here unless it rebuilds the very same chains."""

    def test_family_chains(self):
        digest = _chain_digest((family(n), fib(n + 2)) for n in range(1, 11))
        assert digest == "50a1df70362723cb6eaaf7f6bbcc383acb4f63089b0f9b4f53442242f3b3fefa"

    def test_reduced_family_chains(self):
        digest = _chain_digest((prime_family(n), fib(n + 2)) for n in range(3, 11))
        assert digest == "94d0d646a94a38e823b65a4cae0bb8f9ecaa8412af285cb9beccae1a467abbf8"

    def test_large_family_chains(self):
        # degrees 233 and 377, the largest full-symmetric chains
        digest = _chain_digest((family(n), fib(n + 2)) for n in (11, 12))
        assert digest == "22569d861987ae676d130975b7da53a61b111bc6fe856e77d3e0b718f6fa09c0"

    def test_unproved_chains(self):
        # the groups whose order is not proved, so the verified
        # Schreier-Sims build makes their chains
        sets = [(family(n), fib(n + 2)) for n in range(1, 4)]
        sets += [(prime_family(n), fib(n + 2)) for n in range(3, 7)]
        for generators, degree in sets:
            assert _proved_order(generators, degree) is None
        digest = _chain_digest(sets)
        assert digest == "1818c2250d6de174144becdf4d23c50b89f88b0e65a9b2ede3c284f17c8c6a24"

    def test_written_transversals(self):
        # the chains written from a proof, down to every stored inverse
        # table, which the digests above do not read
        digest = _transversal_digest((prime_family(n), fib(n + 2)) for n in range(7, 11))
        assert digest == "edc3dc0f276fc7922c750182d1ac29e17515684fe99dd67f11463bd63ce8ff27"
        digest = _transversal_digest((family(n), fib(n + 2)) for n in range(4, 11))
        assert digest == "287ed8cff519b71b9482cfcf5f30976607f8bed42c961468353441511bab52d8"


def _power(g, e):
    result = Permutation.identity(g.degree)
    while e:
        if e & 1:
            result = result * g
        g = g * g
        e >>= 1
    return result


def _recheck(certificate, generators, degree):
    """Re-derive a certificate's claims from its record alone."""
    p = certificate.p
    assert p >= 2 and all(p % d for d in range(2, p))
    assert degree < 2 * p and p <= degree - 3
    assert orbit(generators, 1) == frozenset(range(1, degree + 1))
    product = Permutation.identity(degree)
    for i in certificate.word:
        product = product * generators[i - 1]
    others = [len(c) for c in product.cycles() if len(c) != p]
    assert [len(c) for c in _power(product, math.lcm(*others)).cycles()] == [p]
    parities = [g.parity() for g in generators]
    if certificate.odd_generator is None:
        assert -1 not in parities
    else:
        assert parities.index(-1) + 1 == certificate.odd_generator


def _reflected_cycle(degree):
    # the dihedral group: an m-cycle and the reflection x -> -x, which keeps
    # the residue classes mod every divisor of m as blocks
    cycle = Permutation([i % degree + 1 for i in range(1, degree + 1)])
    reflection = Permutation([(-i) % degree + 1 for i in range(degree)])
    return [cycle, reflection]


def _wreath_7_by_3():
    # S_7 wr S_3 on 21 points, the blocks {1..7}, {8..14}, {15..21}
    within = gens("(1,2)", "(1,2,3,4,5,6,7)", degree=21)
    across = [
        Permutation.from_cycles([(i, i + 7) for i in range(1, 8)], 21),
        Permutation.from_cycles([(i, i + 7, i + 14) for i in range(1, 8)], 21),
    ]
    return within + across


class TestJordanCertificate:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_family_is_certified_and_rechecked(self, n):
        generators, degree = family(n), fib(n + 2)
        certificate = jordan_certificate(generators, degree)
        assert certificate is not None and certificate.odd_generator is not None
        _recheck(certificate, generators, degree)

    def test_deterministic(self):
        assert jordan_certificate(family(8), 55) == jordan_certificate(family(8), 55)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_block_preserving_families_are_not_certified(self, n):
        # the reduced family keeps its three blocks; without the block swap
        # the family keeps the low and the top blocks apart
        assert jordan_certificate(prime_family(n), fib(n + 2)) is None
        assert jordan_certificate(family(n)[:-1], fib(n + 2)) is None

    @pytest.mark.parametrize(
        "generators, degree",
        [(_reflected_cycle(21), 21), (_reflected_cycle(55), 55), (_wreath_7_by_3(), 21)],
        ids=["dihedral-21", "dihedral-55", "wreath-7-by-3"],
    )
    def test_transitive_imprimitive_groups_are_not_certified(self, generators, degree):
        assert orbit(generators, 1) == frozenset(range(1, degree + 1))
        assert jordan_certificate(generators, degree) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_prime_in_range_at_degrees_2_3_5(self, n):
        assert jordan_certificate(family(n), fib(n + 2)) is None

    def test_s5_is_not_certified(self):
        assert jordan_certificate(gens("(1,2)", "(1,2,3,4,5)", degree=5), 5) is None

    def test_even_generators_give_no_odd_generator(self):
        # (1,2,3) and a 13-cycle generate A_13
        generators = [
            parse_cycles("(1,2,3)", 13),
            Permutation.from_cycles([tuple(range(1, 14))], 13),
        ]
        certificate = jordan_certificate(generators, 13)
        assert certificate is not None and certificate.odd_generator is None
        _recheck(certificate, generators, 13)
        assert build_chain(generators, 13).order() == math.factorial(13) // 2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatchError):
            jordan_certificate(family(4), 13)

    def test_family_certificates_are_pinned(self):
        # the walk's steps, words and primes for n = 4..16, up to degree
        # 2584; a change to how the walk composes or scans its products
        # shows here unless it takes the very same steps
        h = hashlib.sha256()
        for n in range(4, 17):
            c = jordan_certificate(family(n), fib(n + 2))
            h.update(repr((n, c.p, c.word, c.odd_generator)).encode())
        assert h.hexdigest() == "aba59f5a0da693aa13d7ad1e495d533a76931ef1de325db67aa712714bf0aa0b"


def _longest_cycle_over_half(g):
    # the reference: the longest cycle from the full decomposition
    p = max(map(len, g.cycles()), default=0)
    return p if 2 * p > g.degree else 0


class TestLongCycle:
    """``_long_cycle`` reads the walk's one cycle longer than half the
    degree, with a scan that stops once no such cycle can remain."""

    @given(st.integers(1, 40).flatmap(lambda m: st.permutations(range(1, m + 1))))
    def test_matches_the_cycle_decomposition(self, images):
        g = Permutation(images)
        assert engine._long_cycle(g._img) == _longest_cycle_over_half(g)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 55])
    def test_identity_has_none(self, m):
        assert engine._long_cycle(Permutation.identity(m)._img) == 0

    @pytest.mark.parametrize("m", [2, 3, 8, 55])
    def test_full_cycle(self, m):
        g = Permutation.from_cycles([tuple(range(1, m + 1))], m)
        assert engine._long_cycle(g._img) == m

    @pytest.mark.parametrize("m", [4, 8, 54])
    def test_two_halves_give_none(self, m):
        half = m // 2
        g = Permutation.from_cycles([tuple(range(1, half + 1)), tuple(range(half + 1, m + 1))], m)
        assert engine._long_cycle(g._img) == 0

    def test_long_cycle_after_a_short_one(self):
        # the scan meets the 9-cycle after a 2-cycle, with 9 of the 11
        # points still unseen
        g = parse_cycles("(1,2)(3,4,5,6,7,8,9,10,11)", 11)
        assert engine._long_cycle(g._img) == 9
