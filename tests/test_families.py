import itertools
import random

import pytest
from conftest import conjugate, extend, support

from togglegroup import (
    DegreeMismatchError,
    DiagonalSubgroupSpec,
    Permutation,
    block_swap,
    diagonal_embed,
    enumerate_independent_sets,
    family,
    fib,
    format_cycles,
    generator,
    parse_cycles,
    prime_family,
    rank,
    toggle_path,
    toggle_permutation,
    unrank,
)
from togglegroup import families
from togglegroup.fibindex import rank_masks, unrank_masks
from togglegroup.graphs import _toggle_path_members, toggle_path_masks


class TestBlockSwap:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, "(1,2)"), (2, "(1,3)"), (3, "(1,4)(2,5)"), (4, "(1,6)(2,7)(3,8)")],
    )
    def test_known_values(self, n, expected):
        assert format_cycles(block_swap(n)) == expected

    def test_moves_exactly_the_two_end_blocks(self):
        for n in range(1, 13):
            swap = block_swap(n)
            assert len(support(swap)) == 2 * fib(n)
            middle = set(range(fib(n) + 1, fib(n + 1) + 1))
            assert support(swap).isdisjoint(middle)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            block_swap(0)


class TestGenerators:
    def test_family_values_match_worked_cases(self):
        assert [format_cycles(t) for t in family(1)] == ["(1,2)"]
        assert [format_cycles(t) for t in family(2)] == ["(1,2)", "(1,3)"]
        assert [format_cycles(t) for t in family(3)] == [
            "(1,2)(4,5)", "(1,3)", "(1,4)(2,5)",
        ]
        assert [format_cycles(t) for t in family(4)] == [
            "(1,2)(4,5)(6,7)", "(1,3)(6,8)", "(1,4)(2,5)", "(1,6)(2,7)(3,8)",
        ]

    def test_prime_family_values(self):
        assert [format_cycles(t) for t in prime_family(3)] == ["(1,2)(4,5)"]
        assert [format_cycles(t) for t in prime_family(4)] == [
            "(1,2)(4,5)(6,7)", "(1,3)(6,8)",
        ]

    def test_deep_member_from_recursion(self):
        # t(1,5) unwinds to t(1,4) times t(1,3) conjugated into the top block
        assert format_cycles(generator(1, 5)) == "(1,2)(4,5)(6,7)(9,10)(12,13)"

    @pytest.mark.parametrize("n", [-1, 0])
    def test_family_needs_one(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            family(n)

    def test_prime_family_needs_three(self):
        with pytest.raises(ValueError):
            prime_family(2)

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            generator(0, 3)
        with pytest.raises(ValueError):
            generator(4, 3)

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 7), (3, 7), (6, 7), (7, 7), (2, 12)])
    def test_members_hold_plain_ints(self, k, n):
        # members are built from numpy rows and enter Permutation unchecked:
        # a row passed without tolist() would hold numpy integers
        assert {type(x) for x in generator(k, n).images} == {int}

    def test_family_degree_field(self):
        assert all(t.degree == fib(7) == 13 for t in family(5))

    def test_members_are_involutions_up_to_20(self):
        for n in range(1, 21):
            ident = Permutation.identity(fib(n + 2))
            for t in family(n):
                assert t * t == ident

    def test_last_two_members(self):
        for n in range(2, 15):
            fam = family(n)
            assert fam[n - 1] == block_swap(n)
            assert fam[n - 2] == extend(generator(n - 1, n - 1), fib(n + 2))

    def test_recursion_factors_have_disjoint_support(self):
        for n in range(3, 21):
            degree = fib(n + 2)
            swap = block_swap(n)
            for k in range(1, n - 1):
                left = extend(generator(k, n - 1), degree)
                right = conjugate(extend(generator(k, n - 2), degree), swap)
                assert support(left).isdisjoint(support(right))
                assert left * right == right * left == generator(k, n)

    def test_members_preserve_the_blocks(self):
        # below the top index: no point crosses between the low+middle block
        # and the top block, and the second-to-last member fixes the top block
        for n in range(2, 15):
            low_mid = set(range(1, fib(n + 1) + 1))
            top = set(range(fib(n + 1) + 1, fib(n + 2) + 1))
            for k in range(1, n):
                t = generator(k, n)
                assert all((t.apply(i) in low_mid) == (i in low_mid) for i in low_mid | top)
            assert all(generator(n - 1, n).apply(i) == i for i in top)


def _lows(n):
    # every t in S_f(n) at n = 3, 4, and 20 seeded t at each larger n
    if n <= 4:
        return [Permutation(list(p)) for p in itertools.permutations(range(1, fib(n) + 1))]
    rng = random.Random(n)
    lows = []
    for _ in range(20):
        images = list(range(1, fib(n) + 1))
        rng.shuffle(images)
        lows.append(Permutation(images))
    return lows


class TestDiagonalSubgroup:
    def test_reduced_member_is_diagonal_at_three(self):
        spec = DiagonalSubgroupSpec(3)
        assert spec.contains(parse_cycles("(1,2)(4,5)", 5))

    def test_violations(self):
        spec = DiagonalSubgroupSpec(3)
        assert not spec.contains(parse_cycles("(1,2)", 5))
        assert not spec.contains(parse_cycles("(3,4)", 5))

    def test_identity_is_diagonal(self):
        assert DiagonalSubgroupSpec(3).contains(Permutation.identity(5))

    def test_needs_n_three(self):
        with pytest.raises(ValueError):
            DiagonalSubgroupSpec(2)

    def test_degree_checked(self):
        with pytest.raises(DegreeMismatchError):
            DiagonalSubgroupSpec(3).contains(Permutation.identity(6))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_contains_each_embedding(self, n):
        spec = DiagonalSubgroupSpec(n)
        assert all(spec.contains(diagonal_embed(n, t)) for t in _lows(n))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rejects_a_low_point_sent_into_the_middle(self, n):
        # the top block still repeats the low action, so only the low block
        # leaving itself is wrong
        low, degree = fib(n), fib(n + 2)
        into_middle = Permutation.from_cycles([(1, low + 1)], degree)
        spec = DiagonalSubgroupSpec(n)
        assert not any(spec.contains(into_middle * diagonal_embed(n, t)) for t in _lows(n))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rejects_two_top_points_swapped(self, n):
        shift, degree = fib(n + 1), fib(n + 2)
        top_swap = Permutation.from_cycles([(shift + 1, shift + 2)], degree)
        spec = DiagonalSubgroupSpec(n)
        assert not any(spec.contains(diagonal_embed(n, t) * top_swap) for t in _lows(n))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_rejects_two_middle_points_swapped(self, n):
        low, degree = fib(n), fib(n + 2)
        middle_swap = Permutation.from_cycles([(low + 1, low + 2)], degree)
        assert not DiagonalSubgroupSpec(n).contains(middle_swap)


class TestDiagonalEmbed:
    def test_worked_images(self):
        assert format_cycles(diagonal_embed(3, parse_cycles("(1,2)", 2))) == "(1,2)(4,5)"
        assert format_cycles(diagonal_embed(4, parse_cycles("(1,3)", 3))) == "(1,3)(6,8)"

    def test_identity_maps_to_identity(self):
        assert diagonal_embed(3, Permutation.identity(2)) == Permutation.identity(5)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_is_the_papers_product(self, n):
        # the recursion's top-block step applied to one t: t * swap t swap^-1
        swap = block_swap(n)
        for t in _lows(n):
            wide = extend(t, fib(n + 2))
            assert diagonal_embed(n, t) == wide * conjugate(wide, swap)

    def test_image_is_diagonal(self):
        rng = random.Random(2)
        for n in range(3, 9):
            spec = DiagonalSubgroupSpec(n)
            for _ in range(20):
                images = list(range(1, fib(n) + 1))
                rng.shuffle(images)
                assert spec.contains(diagonal_embed(n, Permutation(images)))

    def test_homomorphism_on_sampled_pairs(self):
        rng = random.Random(3)
        for n in (3, 4, 5, 6):
            for _ in range(25):
                a = list(range(1, fib(n) + 1))
                b = list(range(1, fib(n) + 1))
                rng.shuffle(a)
                rng.shuffle(b)
                g, h = Permutation(a), Permutation(b)
                assert diagonal_embed(n, g * h) == diagonal_embed(n, g) * diagonal_embed(n, h)

    def test_injective_on_small_case(self):
        images = {
            diagonal_embed(3, Permutation(list(p)))
            for p in itertools.permutations(range(1, 3))
        }
        assert len(images) == 2

    def test_wrong_degree_rejected(self):
        with pytest.raises(DegreeMismatchError):
            diagonal_embed(3, Permutation.identity(3))

    def test_equals_family_member_exactly_at_k_n_minus_2(self):
        # the embedding reproduces generator(n-2, n) but not earlier members
        for n in range(4, 10):
            assert diagonal_embed(n, generator(n - 2, n - 2)) == generator(n - 2, n)
        assert diagonal_embed(4, generator(1, 2)) != generator(1, 4)


class TestTogglePermutation:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 2, "(1,3)"), (1, 1, "(1,2)"), (4, 4, "(1,6)(2,7)(3,8)")],
    )
    def test_known_values(self, n, k, expected):
        assert format_cycles(toggle_permutation(n, k)) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", range(1, 7))
    def test_builds_without_a_warning(self, k):
        # outside pytest a numpy warning, such as one for a division by a
        # rank change of 0, would reach every command's standard error
        assert toggle_permutation(6, k) == generator(k, 6)

    def test_row_by_row_against_enumeration(self):
        # direct toggling of each enumerated set, no rank calls
        n, k = 4, 4
        sets = enumerate_independent_sets(n)
        perm = toggle_permutation(n, k)
        position = {s: i + 1 for i, s in enumerate(sets)}
        for i, s in enumerate(sets):
            assert perm.apply(i + 1) == position[toggle_path(n, k, s)]

    def test_matches_recursive_members_up_to_20(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert toggle_permutation(n, k) == generator(k, n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_bit_plane_formula(self, n):
        # the reference ranks every toggled set over all of its bit planes;
        # toggle_permutation adds one vertex weight to the sets' own ranks
        masks = unrank_masks(n)
        for k in range(1, n + 1):
            reference = rank_masks(toggle_path_masks(k, masks)).tolist()
            assert toggle_permutation(n, k).images == tuple(reference)

    def test_matches_scalar_route_up_to_14(self):
        # one set at a time through unrank, the frozenset toggle and rank
        for n in range(1, 15):
            for k in range(1, n + 1):
                scalar = [
                    rank(n, _toggle_path_members(k, unrank(n, idx)))
                    for idx in range(1, fib(n + 2) + 1)
                ]
                assert toggle_permutation(n, k).images == tuple(scalar)
                moves = {image - idx for idx, image in enumerate(scalar, start=1)}
                assert moves <= {0, fib(k + 1), -fib(k + 1)}

    def test_independent_of_the_recursion(self, monkeypatch):
        def refuse(k, n):
            raise AssertionError("toggle_permutation called generator()")

        monkeypatch.setattr(families, "generator", refuse)
        assert format_cycles(toggle_permutation(4, 1)) == "(1,2)(4,5)(6,7)"
        assert toggle_permutation(9, 5).degree == fib(11)

    def test_k_range(self):
        with pytest.raises(ValueError):
            toggle_permutation(3, 0)
        with pytest.raises(ValueError):
            toggle_permutation(3, 4)


class TestToggleGroupOrder:
    def test_toggle_group_is_whole_symmetric_group_up_to_8(self):
        # chains over the toggle-induced permutations and over the recursive
        # members reach the same full symmetric group
        import math

        from togglegroup import build_chain

        for n in range(1, 9):
            degree = fib(n + 2)
            toggles = [toggle_permutation(n, k) for k in range(1, n + 1)]
            toggle_chain = build_chain(toggles, degree)
            member_chain = build_chain(family(n), degree)
            assert toggle_chain.order() == member_chain.order() == math.factorial(degree)


class TestIntertwiningIdentity:
    def test_rank_after_toggle_equals_member_after_rank(self):
        for n in range(1, 9):
            fam = family(n)
            for s in enumerate_independent_sets(n):
                idx = rank(n, s)
                for k in range(1, n + 1):
                    assert rank(n, toggle_path(n, k, s)) == fam[k - 1].apply(idx)

    def test_example_traces(self):
        # n=1: the lone toggle swaps the two sets
        assert rank(1, toggle_path(1, 1, frozenset())) == 2 == generator(1, 1).apply(1)
        assert rank(1, toggle_path(1, 1, frozenset({1}))) == 1 == generator(1, 1).apply(2)
        # n=2, k=2: swaps ranks 1 and 3, fixes 2
        table = [
            (frozenset(), 3),
            (frozenset({1}), 2),
            (frozenset({2}), 1),
        ]
        for members, expected in table:
            assert rank(2, toggle_path(2, 2, members)) == expected
            assert generator(2, 2).apply(rank(2, members)) == expected
