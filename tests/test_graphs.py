import itertools

import numpy as np
import pytest

from togglegroup import (
    enumerate_independent_sets,
    fib,
    format_set_text,
    parse_set_text,
    rank,
    toggle_path,
    toggle_path_masks,
    unrank_masks,
)


def brute_force_independent_sets(n):
    # every vertex subset of the path on 1..n with no two consecutive members
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if all(b - a > 1 for a, b in zip(combo, combo[1:])):
                out.append(frozenset(combo))
    return out


def mask_members(mask):
    # bit v-1 stands for vertex v
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


class TestGraphs:
    def test_path_graph_rejects_zero(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                enumerate_independent_sets(n)
            with pytest.raises(ValueError, match="n must be at least 1"):
                toggle_path(n, 1, frozenset())


class TestIndependence:
    def test_examples(self):
        # toggle_path accepts exactly the independent sets
        assert toggle_path(4, 2, {1, 3}) == frozenset({1, 3})
        assert toggle_path(4, 1, set()) == frozenset({1})
        with pytest.raises(ValueError, match="1 and 2 are adjacent"):
            toggle_path(4, 4, {1, 2})

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="vertex 5 out of range for path on 1..3"):
            toggle_path(3, 1, {5})

    def test_toggle_path_checks_members_as_rank_does(self):
        for members in ({2, 3}, {0}, {5}, {7, 8, 9, 10}, {1, 3, 4}):
            with pytest.raises(ValueError) as by_rank:
                rank(4, members)
            with pytest.raises(ValueError) as by_toggle:
                toggle_path(4, 1, members)
            assert str(by_toggle.value) == str(by_rank.value)


class TestEnumeration:
    def test_path_counts(self):
        assert len(enumerate_independent_sets(1)) == 2
        assert len(enumerate_independent_sets(2)) == 3

    def test_path_rank_order_for_a4(self):
        got = [format_set_text(s) for s in enumerate_independent_sets(4)]
        assert got == ["{}", "{1}", "{2}", "{3}", "{1,3}", "{4}", "{1,4}", "{2,4}"]

    def test_path_count_is_fibonacci_up_to_30(self):
        for n in range(1, 21):
            assert len(enumerate_independent_sets(n)) == fib(n + 2)
        sets_30 = enumerate_independent_sets(30)
        assert len(sets_30) == fib(32)
        assert len(set(sets_30)) == fib(32)

    def test_path_matches_brute_force(self):
        for n in range(1, 10):
            got = enumerate_independent_sets(n)
            assert all(type(s) is frozenset for s in got)
            assert len(got) == len(set(got))
            assert set(got) == set(brute_force_independent_sets(n))

    def test_rank_order_matches_the_mask_table(self):
        for n in range(1, 13):
            masks = unrank_masks(n).tolist()
            assert enumerate_independent_sets(n) == [mask_members(m) for m in masks]


class TestToggle:
    def test_add_case(self):
        assert toggle_path(1, 1, frozenset()) == frozenset({1})

    def test_remove_case(self):
        assert toggle_path(2, 2, frozenset({2})) == frozenset()

    def test_blocked_case(self):
        before = frozenset({1, 4})
        assert toggle_path(4, 2, before) == before

    def test_toggle_path_examples(self):
        assert toggle_path(2, 1, frozenset({2})) == frozenset({2})
        assert toggle_path(4, 4, frozenset({2})) == frozenset({2, 4})
        assert toggle_path(3, 3, frozenset({1, 3})) == frozenset({1})
        # any iterable of members, answered as a frozenset
        assert toggle_path(4, 4, [2]) == frozenset({2, 4})
        assert type(toggle_path(4, 1, (3,))) is frozenset

    def test_matches_mask_toggle(self):
        # one set at a time against the whole-table toggle on bitmasks
        for n in range(1, 11):
            masks = unrank_masks(n)
            sets = [mask_members(m) for m in masks.tolist()]
            for k in range(1, n + 1):
                toggled = [mask_members(m) for m in toggle_path_masks(k, masks).tolist()]
                assert [toggle_path(n, k, s) for s in sets] == toggled

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="vertex 4 out of range for path on 1..3"):
            toggle_path(3, 4, frozenset())
        with pytest.raises(ValueError, match="vertex 0 out of range"):
            toggle_path(3, 0, frozenset())

    def test_involution_on_sampled_graphs(self):
        for n in range(1, 9):
            for independent in enumerate_independent_sets(n):
                for v in range(1, n + 1):
                    once = toggle_path(n, v, independent)
                    rank(n, once)  # raises unless once is independent
                    assert toggle_path(n, v, once) == independent


class TestReduceToEmpty:
    """Toggling the members in ascending order empties a set: each step
    is a removal."""

    def test_ascending_order_and_fold(self):
        state = frozenset({1, 3})
        for v in sorted(state):
            before = state
            state = toggle_path(3, v, state)
            assert state == before - {v}
        assert state == frozenset()

    def test_empty_set(self):
        state = frozenset()
        for v in sorted(state):
            state = toggle_path(2, v, state)
        assert state == frozenset()

    def test_folds_to_empty_everywhere(self):
        for n in (1, 4, 6, 9):
            for independent in enumerate_independent_sets(n):
                state = independent
                for v in sorted(independent):
                    state = toggle_path(n, v, state)
                assert state == frozenset()


class TestSetText:
    def test_round_trip(self):
        assert format_set_text(frozenset()) == "{}"
        assert format_set_text({3, 1}) == "{1,3}"
        assert parse_set_text("{1,3}") == frozenset({1, 3})
        assert parse_set_text("{}") == frozenset()

    @pytest.mark.parametrize(
        "text",
        ["", "{1,3", "1,3}", "{3,1}", "{1,,3}", "{a}", "{1, 3}", "{٣}", "{1,²}", "{01}", "{1,007}"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_set_text(text)

    def test_zero_messages(self):
        with pytest.raises(ValueError, match="vertices are 1-based"):
            parse_set_text("{0}")
        with pytest.raises(ValueError, match="bad vertex '01'"):
            parse_set_text("{01}")
