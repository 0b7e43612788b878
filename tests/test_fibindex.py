import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from togglegroup import (
    FIB_CEILING,
    FibCeilingError,
    fib,
    rank,
    rank_masks,
    unrank,
    unrank_masks,
)
from togglegroup.graphs import _toggle_path_members

# the CLI's range for index/unindex/toggle
MAX_CLI_N = 60


@st.composite
def ranked_sets(draw):
    """A path size n and a rank in 1..f(n+2)."""
    n = draw(st.integers(1, MAX_CLI_N))
    return n, draw(st.integers(1, fib(n + 2)))


def recursive_rank(n, members):
    # literal recursive definition, as an independent oracle for the
    # iterative production code
    members = frozenset(members)
    if n == 1:
        return 1 if not members else 2
    if n == 2:
        return {frozenset(): 1, frozenset({1}): 2, frozenset({2}): 3}[members]
    if n in members:
        return recursive_rank(n - 2, members - {n}) + fib(n + 1)
    return recursive_rank(n - 1, members)


def all_independent_sets(n):
    # brute force: every subset of 1..n with no adjacent pair
    out = []
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if all(b - a > 1 for a, b in zip(combo, combo[1:])):
                out.append(frozenset(combo))
    return out


class TestFib:
    def test_base_values(self):
        assert fib(0) == 0
        assert fib(1) == 1

    def test_small_values(self):
        assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_degrees_from_worked_sizes(self):
        assert fib(5) == 5
        assert fib(6) == 8

    def test_ceiling(self):
        fib(FIB_CEILING)
        with pytest.raises(FibCeilingError):
            fib(FIB_CEILING + 1)

    def test_table_follows_the_recurrence_up_to_the_ceiling(self):
        expected = [0, 1]
        while len(expected) <= FIB_CEILING:
            expected.append(expected[-1] + expected[-2])
        assert [fib(i) for i in range(FIB_CEILING + 1)] == expected
        with pytest.raises(FibCeilingError, match=r"^Fibonacci index 65 exceeds ceiling 64$"):
            fib(65)
        with pytest.raises(ValueError, match=r"^Fibonacci index must be non-negative$"):
            fib(-1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_consecutive_never_both_even(self):
        values = [fib(i) for i in range(FIB_CEILING + 1)]
        assert not any(a % 2 == 0 and b % 2 == 0 for a, b in zip(values, values[1:]))

    def test_even_exactly_at_multiples_of_three(self):
        for i in range(FIB_CEILING + 1):
            assert (fib(i) % 2 == 0) == (i % 3 == 0)


class TestRank:
    @pytest.mark.parametrize(
        "n,members,expected",
        [
            (1, frozenset(), 1),
            (1, {1}, 2),
            (2, {2}, 3),
            (3, {1, 3}, 5),
            (4, {2, 4}, 8),
            (4, {1, 4}, 7),
            (7, frozenset(), 1),
        ],
    )
    def test_known_values(self, n, members, expected):
        assert rank(n, members) == expected

    def test_matches_recursive_definition_exhaustively(self):
        for n in range(1, 13):
            for s in all_independent_sets(n):
                assert rank(n, s) == recursive_rank(n, s)

    def test_bijection_up_to_25(self):
        for n in range(1, 26):
            count = fib(n + 2)
            seen = {rank(n, unrank(n, idx)) for idx in range(1, count + 1)}
            assert seen == set(range(1, count + 1))

    def test_exhaustive_bijection_small(self):
        for n in range(1, 13):
            sets = all_independent_sets(n)
            ranks = sorted(rank(n, s) for s in sets)
            assert ranks == list(range(1, fib(n + 2) + 1))

    def test_rejects_dependent_set(self):
        with pytest.raises(ValueError):
            rank(4, {2, 3})

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            rank(3, {4})

    def test_rejects_paths_past_the_fibonacci_ceiling(self):
        # the same bound as unrank: f(n+2) must lie within the ceiling
        for n, members in ((63, {63}), (63, ()), (70, {1})):
            with pytest.raises(FibCeilingError) as raised:
                rank(n, members)
            assert str(raised.value) == f"Fibonacci index {n + 2} exceeds ceiling 64"
        with pytest.raises(FibCeilingError, match=r"^Fibonacci index 65 exceeds ceiling 64$"):
            unrank(63, 1)
        assert rank(62, {62}) == 1 + fib(63)

    def test_monotone_nesting(self):
        # a small rank means the set lives in a shorter path with equal rank
        for n in range(2, 12):
            for s in all_independent_sets(n):
                r = rank(n, s)
                for k in range(1, n):
                    if r <= fib(k + 2):
                        assert s <= set(range(1, k + 1))
                        assert rank(k, s) == r


class TestUnrank:
    @pytest.mark.parametrize(
        "n,idx,expected",
        [
            (4, 6, {4}),
            (3, 1, frozenset()),
            (5, 13, {1, 3, 5}),
            (1, 2, {1}),
        ],
    )
    def test_known_values(self, n, idx, expected):
        assert unrank(n, idx) == frozenset(expected)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            unrank(3, 0)
        with pytest.raises(ValueError):
            unrank(3, fib(5) + 1)

    def test_inverse_of_rank_exhaustively(self):
        for n in range(1, 13):
            for s in all_independent_sets(n):
                assert unrank(n, rank(n, s)) == s

    @pytest.mark.parametrize("n", [FIB_CEILING - 3, FIB_CEILING - 2])
    def test_round_trips_at_the_fibonacci_ceiling(self, n):
        # the two longest paths whose f(n+2) sets the ceiling admits; decoding
        # a set that holds n or n-1 must read no weight past f(n+1)
        for idx in (fib(n + 2), fib(n + 1) + 1, fib(n + 1)):
            members = unrank(n, idx)
            assert max(members) >= n - 1
            assert rank(n, members) == idx


class TestZeckendorf:
    @given(ranked_sets())
    def test_unrank_inverts_rank(self, case):
        n, idx = case
        members = unrank(n, idx)
        assert all(b - a > 1 for a, b in itertools.pairwise(sorted(members)))
        assert rank(n, members) == idx

    @given(ranked_sets(), st.integers(0, 20))
    def test_rank_does_not_depend_on_n(self, case, extra):
        n, idx = case
        m = min(n + extra, MAX_CLI_N)
        assert rank(m, unrank(n, idx)) == idx
        assert unrank(m, idx) == unrank(n, idx)

    @given(ranked_sets(), st.data())
    def test_toggle_moves_rank_by_one_weight(self, case, data):
        n, idx = case
        k = data.draw(st.integers(1, n))
        moved = rank(n, _toggle_path_members(k, unrank(n, idx))) - idx
        assert moved in (0, fib(k + 1), -fib(k + 1))

    def test_mask_table_ranks_in_order(self):
        for n in range(1, 26):
            masks = unrank_masks(n)
            assert masks.dtype == np.int64
            np.testing.assert_array_equal(rank_masks(masks), np.arange(1, fib(n + 2) + 1))

    def test_mask_table_matches_unrank(self):
        for n in range(1, 13):
            masks = unrank_masks(n).tolist()
            for idx in range(1, fib(n + 2) + 1):
                members = unrank(n, idx)
                assert masks[idx - 1] == sum(1 << (v - 1) for v in members)

    def test_rank_masks_at_the_cli_range(self):
        # the widest mask the CLI can name: the odd vertices up to 59
        members = frozenset(range(1, MAX_CLI_N, 2))
        mask = sum(1 << (v - 1) for v in members)
        assert rank_masks(np.array([mask])).tolist() == [rank(MAX_CLI_N, members)]

    def test_rank_masks_agrees_with_rank_up_to_the_ceiling(self):
        # vertex 63 is the last whose weight f(64) the ceiling admits, and
        # its bit is the highest an int64 mask holds below the sign
        vertices = range(1, FIB_CEILING)
        masks = np.array([1 << (v - 1) for v in vertices], dtype=np.int64)
        # rank admits paths up to n = 62 only, so vertex 63's reference is
        # 1 + its weight, the sum rank makes for every other vertex
        expected = [rank(v, {v}) for v in vertices[:-1]] + [1 + fib(FIB_CEILING)]
        assert rank_masks(masks).tolist() == expected


def shifted_ranks(n):
    """The ranks of I and of I with vertex n added, over every set I of the
    path on 1..n-2, read from the mask table."""
    inner = unrank_masks(n - 2)
    return rank_masks(inner), rank_masks(inner | (1 << (n - 1)))


class TestDropEndVertex:
    def test_result_lives_two_vertices_down(self):
        # {1,3,5} without its end vertex is {1,3}, rank 5 in the n=3 table
        assert unrank(3, 5) == frozenset({1, 3})
        assert rank(5, {1, 3, 5}) - fib(6) == rank(3, {1, 3}) == 5


class TestShiftIdentity:
    """rank(I + {n}) == rank(I) + f(n+1) for every set I of the path on 1..n-2."""

    def test_small_cases(self):
        for n in (3, 4):
            plain, shifted = shifted_ranks(n)
            np.testing.assert_array_equal(shifted, plain + fib(n + 1))
            # the shifted sets are exactly the ranks above f(n+1)
            np.testing.assert_array_equal(shifted, np.arange(fib(n + 1) + 1, fib(n + 2) + 1))

    def test_worked_instance(self):
        assert rank(4, {2, 4}) == rank(4, {2}) + fib(5)

    def test_range_3_to_20(self):
        for n in range(3, 21):
            plain, shifted = shifted_ranks(n)
            np.testing.assert_array_equal(shifted, plain + fib(n + 1))
