import numpy as np
import pytest
from hypothesis import given, strategies as st

from togglegroup import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    format_cycles,
    parse_cycles,
)


def perm(text, degree):
    return parse_cycles(text, degree)


@st.composite
def near_permutations(draw):
    """An image table of 1..m, possibly with one entry replaced by 0, m + 1
    or a duplicate; m = 0 gives the empty table."""
    m = draw(st.integers(0, 12))
    images = draw(st.permutations(range(1, m + 1)))
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        images[i] = draw(st.sampled_from([0, m + 1, images[(i + 1) % m]]))
    return images


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(3).images == (1, 2, 3)
        assert Permutation.identity(1).images == (1,)
        assert Permutation.identity(5).apply(4) == 4

    def test_identity_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)

    def test_images_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])
        with pytest.raises(ValueError):
            Permutation([])

    @given(st.one_of(near_permutations(), st.lists(st.integers(-1, 13), max_size=12)))
    def test_validation_matches_the_sorted_rule(self, images):
        m = len(images)
        if m and sorted(images) == list(range(1, m + 1)):
            assert Permutation(images).images == tuple(images)
            assert Permutation(tuple(images)).images == tuple(images)
            return
        message = "degree must be at least 1" if m == 0 else f"images are not a bijection of 1..{m}"
        with pytest.raises(ValueError) as raised:
            Permutation(images)
        assert str(raised.value) == message

    def test_images_must_be_integers(self):
        # a float equal to an integer passes the bijection check, so the type is checked
        for images in ([2.0, 1.0], [1, 2.0]):
            with pytest.raises(ValueError) as raised:
                Permutation(images)
            assert str(raised.value) == "images must be integers"

    def test_numpy_integer_images_are_integers(self):
        g = Permutation(np.array([2, 1, 3]))
        assert g == Permutation([2, 1, 3])
        assert str(g) == "(1,2)"
        assert all(type(x) is int for x in g.images)

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([(1, 2), (2, 3)], 3)


class TestCompose:
    def test_example_conjugation_chain(self):
        # (2,3) = t_{1,3} (1,3) t_{1,3}^{-1} with t_{1,3} = (1,2)(4,5)
        t13 = perm("(1,2)(4,5)", 5)
        result = t13 * perm("(1,3)", 5) * t13.inverse()
        assert format_cycles(result) == "(2,3)"

    def test_identity_is_neutral(self):
        g = perm("(1,4,2)", 6)
        assert g * Permutation.identity(6) == g
        assert Permutation.identity(6) * g == g

    def test_involution_squares_to_identity(self):
        assert perm("(1,2)", 2) * perm("(1,2)", 2) == Permutation.identity(2)

    def test_right_to_left_convention(self):
        g = perm("(1,2)", 3)
        h = perm("(2,3)", 3)
        assert (g * h).apply(3) == g.apply(h.apply(3))
        assert (g * h).images != (h * g).images

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            perm("(1,2)", 2) * perm("(1,2)", 3)

    def test_degree_one_product_is_a_table(self):
        # a one-point gather returns the bare entry, not a tuple
        e = Permutation.identity(1)
        assert (e * e)._img == (0,)

    def test_degree_two_products(self):
        s, e = perm("(1,2)", 2), Permutation.identity(2)
        assert [(s * e)._img, (e * s)._img, (s * s)._img] == [(1, 0), (1, 0), (0, 1)]


class TestInverseConjugateParity:
    def test_transposition_self_inverse(self):
        assert perm("(1,2)", 2).inverse() == perm("(1,2)", 2)

    def test_three_cycle_reverses(self):
        assert perm("(1,2,3)", 3).inverse() == perm("(1,3,2)", 3)

    def test_identity_inverse(self):
        assert Permutation.identity(8).inverse() == Permutation.identity(8)

    def test_parity_values(self):
        assert perm("(1,2)", 2).parity() == -1
        assert Permutation.identity(7).parity() == 1
        assert perm("(1,6)(2,7)(3,8)", 8).parity() == -1
        assert perm("(1,2,3)", 3).parity() == 1


class TestCycleText:
    def test_parse_example_generator(self):
        assert parse_cycles("(1,2)(4,5)", 5).images == (2, 1, 3, 5, 4)

    def test_parse_identity_token(self):
        assert parse_cycles("()", 3) == Permutation.identity(3)

    def test_canonical_reordering(self):
        assert format_cycles(parse_cycles("(4,5)(1,2)", 5)) == "(1,2)(4,5)"
        assert format_cycles(parse_cycles("(2,3,1)", 3)) == "(1,2,3)"

    def test_identity_formats_as_unit(self):
        assert format_cycles(Permutation.identity(9)) == "()"

    def test_whitespace_between_tokens(self):
        assert parse_cycles(" ( 1 , 2 ) ( 4 , 5 ) ", 5) == parse_cycles("(1,2)(4,5)", 5)

    @pytest.mark.parametrize(
        "text",
        ["", "(1)", "(1,2", "1,2)", "(1,,2)", "(1,2)x", "()x", "() (1,2)", "(1,2)()",
         "(0,1)", "(1,²)", "(1,٣)"],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(CycleParseError):
            parse_cycles(text, 5)

    def test_out_of_range_point_with_position(self):
        with pytest.raises(CycleParseError) as exc:
            parse_cycles("(1,7)", 5)
        assert exc.value.position == 3

    def test_non_ascii_digit_with_position(self):
        with pytest.raises(CycleParseError) as exc:
            parse_cycles("(1,²)", 3)
        assert exc.value.position == 3

    def test_repeated_point_rejected(self):
        with pytest.raises(CycleParseError):
            parse_cycles("(1,2)(2,3)", 5)

    def test_cycle_form_canonical_invariants(self):
        g = perm("(6,2)(5,3)", 6)
        assert g.cycles() == ((2, 6), (3, 5))
        assert Permutation.from_cycles(g.cycles(), 6) == g
        assert Permutation.identity(4).cycles() == ()


@st.composite
def permutations(draw, max_degree=10):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(1, degree + 1))))
    return Permutation(images)


@st.composite
def cycle_products(draw, max_degree=200):
    """Disjoint cycles cut from a shuffled 1..m, m <= max_degree, with a
    drawn cap on their length: a cap of 2 gives products of 2-cycles and
    fixed points, like the family's involutions, a larger cap mixes
    2-cycles with longer cycles."""
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    points = draw(st.permutations(list(range(1, degree + 1))))
    longest = draw(st.sampled_from([2, 3, 6, degree]))
    cycles, i = [], 0
    while i < degree:
        length = draw(st.integers(min_value=1, max_value=longest))
        cycles.append(points[i : i + length])
        i += length
    return Permutation.from_cycles([c for c in cycles if len(c) > 1], degree)


def text_of_cycles(g):
    # the cycle text written from the canonical decomposition, cycle by cycle
    cycles = g.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


@st.composite
def permutation_pairs(draw, max_degree=10):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    first = draw(st.permutations(list(range(1, degree + 1))))
    second = draw(st.permutations(list(range(1, degree + 1))))
    return Permutation(first), Permutation(second)


class TestProperties:
    @given(permutation_pairs(max_degree=400))
    def test_compose_matches_pointwise_application(self, pair):
        # up to degree 400, as large as the Jordan walk's degree 377
        g, h = pair
        gh = g * h
        assert all(gh.apply(x) == g.apply(h.apply(x)) for x in range(1, g.degree + 1))

    @given(permutations())
    def test_inverse_law(self, g):
        assert g.inverse() * g == Permutation.identity(g.degree)
        assert g * g.inverse() == Permutation.identity(g.degree)

    @given(permutation_pairs())
    def test_parity_is_multiplicative(self, pair):
        g, h = pair
        assert (g * h).parity() == g.parity() * h.parity()

    @given(st.one_of(permutations(max_degree=200), cycle_products()))
    def test_parity_counts_the_transpositions_of_the_cycles(self, g):
        # the reference: a cycle of length l is l-1 transpositions
        expected = 1 if sum(len(c) - 1 for c in g.cycles()) % 2 == 0 else -1
        assert g.parity() == expected

    @given(permutations())
    def test_cycle_text_round_trip(self, g):
        assert parse_cycles(format_cycles(g), g.degree) == g


class TestFormatCycles:
    """format_cycles writes the text in one pass over the image table; the
    text of the decomposition that cycles() returns is its reference."""

    @given(st.one_of(permutations(max_degree=200), cycle_products()))
    def test_equals_the_text_of_the_decomposition(self, g):
        assert format_cycles(g) == text_of_cycles(g)

    @given(cycle_products())
    def test_round_trip(self, g):
        assert parse_cycles(format_cycles(g), g.degree) == g

    @pytest.mark.parametrize(
        "text, degree",
        [("(1,3)(2,5,4)(6,7)", 8), ("(1,4,2)(3,6)", 6), ("(1,2)(3,4)", 5), ("(2,9)", 9)],
    )
    def test_pairs_between_longer_cycles(self, text, degree):
        assert format_cycles(parse_cycles(text, degree)) == text
