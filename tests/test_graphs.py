import itertools
import random

import pytest

from togglegroup import (
    IndependentSet,
    PathGraph,
    SimpleGraph,
    enumerate_independent_sets,
    fib,
    format_graph_text,
    format_set_text,
    is_independent,
    parse_graph_text,
    parse_set_text,
    path_graph,
    toggle,
    toggle_path,
)


def brute_force_independent_sets(g):
    n = g.vertex_count
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                out.append(frozenset(combo))
    return out


def random_graph(rng, n, p=0.4):
    pairs = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, pairs)


class TestGraphs:
    def test_path_graph_edges(self):
        assert path_graph(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
        assert path_graph(1).edges == frozenset()
        assert path_graph(2).edges == frozenset({(1, 2)})

    def test_path_graph_rejects_zero(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            PathGraph(0)

    def test_simple_graph_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(2, 2)])
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(1, 4)}))

    def test_from_edges_normalizes_orientation(self):
        g = SimpleGraph.from_edges(3, [(3, 1), (1, 3)])
        assert g.edges == frozenset({(1, 3)})

    def test_path_graph_matches_path_type(self):
        pg = PathGraph(6)
        simple = pg.to_simple()
        for u in range(1, 7):
            for v in range(1, 7):
                if u != v:
                    assert pg.has_edge(u, v) == simple.has_edge(u, v)


class TestIndependence:
    def test_examples(self):
        a4 = path_graph(4)
        assert is_independent(a4, {1, 3})
        assert not is_independent(a4, {1, 2})
        assert is_independent(a4, set())

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            is_independent(path_graph(3), {5})

    def test_independent_set_type_validates(self):
        with pytest.raises(ValueError):
            IndependentSet(PathGraph(4), frozenset({2, 3}))
        with pytest.raises(ValueError):
            IndependentSet(PathGraph(4), frozenset({0}))


class TestEnumeration:
    def test_path_counts(self):
        assert len(enumerate_independent_sets(PathGraph(1))) == 2
        assert len(enumerate_independent_sets(PathGraph(2))) == 3

    def test_path_rank_order_for_a4(self):
        got = [str(s) for s in enumerate_independent_sets(PathGraph(4))]
        assert got == ["{}", "{1}", "{2}", "{3}", "{1,3}", "{4}", "{1,4}", "{2,4}"]

    def test_path_count_is_fibonacci_up_to_30(self):
        for n in range(1, 21):
            assert len(enumerate_independent_sets(PathGraph(n))) == fib(n + 2)
        sets_30 = enumerate_independent_sets(PathGraph(30))
        assert len(sets_30) == fib(32)
        assert len({s.members for s in sets_30}) == fib(32)

    def test_general_graph_ordering(self):
        square = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        got = [sorted(s.members) for s in enumerate_independent_sets(square)]
        assert got == [[], [1], [2], [3], [4], [1, 3], [2, 4]]

    def test_general_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9))
            got = [s.members for s in enumerate_independent_sets(g)]
            assert len(got) == len(set(got))
            assert set(got) == set(brute_force_independent_sets(g))

    def test_path_graph_as_simple_uses_general_order(self):
        got = [sorted(s.members) for s in enumerate_independent_sets(path_graph(4))]
        assert got == [[], [1], [2], [3], [4], [1, 3], [1, 4], [2, 4]]


class TestToggle:
    def test_add_case(self):
        before = IndependentSet(PathGraph(1), frozenset())
        assert toggle(PathGraph(1), 1, before).members == frozenset({1})

    def test_remove_case(self):
        before = IndependentSet(PathGraph(2), frozenset({2}))
        assert toggle(PathGraph(2), 2, before).members == frozenset()

    def test_blocked_case(self):
        before = IndependentSet(PathGraph(4), frozenset({1, 4}))
        assert toggle(PathGraph(4), 2, before) == before

    def test_toggle_path_examples(self):
        i2 = IndependentSet(PathGraph(2), frozenset({2}))
        assert toggle_path(2, 1, i2).members == frozenset({2})
        i4 = IndependentSet(PathGraph(4), frozenset({2}))
        assert toggle_path(4, 4, i4).members == frozenset({2, 4})
        i3 = IndependentSet(PathGraph(3), frozenset({1, 3}))
        assert toggle_path(3, 3, i3).members == frozenset({1})

    def test_matches_general_toggle_on_plain_path(self):
        simple = path_graph(5)
        pg = PathGraph(5)
        for independent in enumerate_independent_sets(pg):
            plain = IndependentSet(simple, independent.members)
            for v in range(1, 6):
                assert (
                    toggle(pg, v, independent).members
                    == toggle(simple, v, plain).members
                )

    def test_out_of_range_vertex(self):
        independent = IndependentSet(PathGraph(3), frozenset())
        with pytest.raises(ValueError):
            toggle_path(3, 4, independent)
        with pytest.raises(ValueError):
            toggle(PathGraph(3), 0, independent)

    def test_cross_graph_rejected(self):
        independent = IndependentSet(PathGraph(3), frozenset({1}))
        with pytest.raises(ValueError):
            toggle(PathGraph(4), 1, independent)
        with pytest.raises(ValueError):
            toggle_path(4, 1, independent)
        square = SimpleGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(ValueError):
            toggle_path(4, 1, IndependentSet(square, frozenset({1})))

    def test_accepts_plain_path_graph_ambient(self):
        independent = IndependentSet(path_graph(4), frozenset({2}))
        result = toggle_path(4, 4, independent)
        assert result.members == frozenset({2, 4})
        assert result.graph == path_graph(4)

    def test_involution_on_sampled_graphs(self):
        rng = random.Random(7)
        graphs = [PathGraph(n) for n in range(1, 9)]
        graphs += [random_graph(rng, rng.randint(1, 12)) for _ in range(12)]
        for g in graphs:
            for independent in enumerate_independent_sets(g):
                for v in range(1, g.vertex_count + 1):
                    once = toggle(g, v, independent)
                    assert is_independent(g, once.members)
                    assert toggle(g, v, once) == independent


class TestReduceToEmpty:
    """Toggling the members in ascending order empties a set: each step
    is a removal."""

    def test_ascending_order_and_fold(self):
        g = path_graph(3)
        state = IndependentSet(g, frozenset({1, 3}))
        for v in sorted(state.members):
            before = state.members
            state = toggle(g, v, state)
            assert state.members == before - {v}
        assert state.members == frozenset()

    def test_empty_set(self):
        g = path_graph(2)
        state = IndependentSet(g, frozenset())
        for v in sorted(state.members):
            state = toggle(g, v, state)
        assert state.members == frozenset()

    def test_folds_to_empty_everywhere(self):
        rng = random.Random(3)
        graphs = [PathGraph(n) for n in (1, 4, 6)]
        graphs += [random_graph(rng, 8) for _ in range(5)]
        for g in graphs:
            for independent in enumerate_independent_sets(g):
                state = independent
                for v in sorted(independent.members):
                    state = toggle(g, v, state)
                assert state.members == frozenset()


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


class TestGraphText:
    def test_round_trip(self):
        g = SimpleGraph.from_edges(4, [(1, 2), (3, 4), (2, 4)])
        assert parse_graph_text(format_graph_text(g)) == g

    def test_format_shape(self):
        g = SimpleGraph.from_edges(3, [(2, 3), (1, 2)])
        assert format_graph_text(g) == "3\n1 2\n2 3\n"

    def test_vertex_only_graph(self):
        assert parse_graph_text("5\n") == SimpleGraph(5, frozenset())

    @pytest.mark.parametrize(
        "text", ["", "x", "3\n1", "3\n1 4", "3\n0 2", "3\n1 2 3", "٣\n1 2\n", "3\n1 ٢\n"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_graph_text(text)
