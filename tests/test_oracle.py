"""The engine against an outside oracle: sympy's exact permutation groups.

Orders and membership from :func:`build_chain`, and the verdicts of
:func:`jordan_certificate`, are compared with sympy's deterministic
Schreier-Sims (``PermutationGroup.order`` and ``contains``), never with
its Monte-Carlo tests.  Both libraries read the same 0-based image
tables; sympy composes left to right, which changes no order and no
membership.  The module skips where sympy is not installed.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from togglegroup import Permutation, build_chain, fib, jordan_certificate
from togglegroup.families import family, prime_family

combinatorics = pytest.importorskip("sympy.combinatorics")


def to_sympy(g):
    return combinatorics.Permutation([x - 1 for x in g.images])


def sympy_group(generators, degree):
    # the identity keeps the empty generating set on 1..degree
    identity = combinatorics.Permutation(list(range(degree)))
    return combinatorics.PermutationGroup([identity] + [to_sympy(g) for g in generators])


def tables(degree, max_size):
    return st.lists(
        st.permutations(range(1, degree + 1)).map(Permutation), max_size=max_size
    )


@st.composite
def generating_sets(draw):
    degree = draw(st.integers(1, 8))
    generators = draw(tables(degree, 4))
    probes = draw(tables(degree, 3))
    word = draw(st.lists(st.integers(0, max(len(generators) - 1, 0)), max_size=6))
    return degree, generators, probes, word


@settings(deadline=None, max_examples=60)
@given(generating_sets())
def test_order_and_membership_match_sympy(case):
    degree, generators, probes, word = case
    chain = build_chain(generators, degree)
    group = sympy_group(generators, degree)
    assert chain.order() == group.order()
    product = Permutation.identity(degree)
    for i in word if generators else ():
        product = product * generators[i]
    assert chain.contains(product) and group.contains(to_sympy(product))
    for g in probes:
        assert chain.contains(g) == group.contains(to_sympy(g))


@pytest.mark.parametrize("n", range(1, 8))
def test_family_orders_match_sympy(n):
    degree = fib(n + 2)
    generators = family(n)
    assert build_chain(generators, degree).order() == sympy_group(generators, degree).order()


@pytest.mark.parametrize("n", range(3, 9))
def test_reduced_family_orders_match_sympy(n):
    degree = fib(n + 2)
    generators = prime_family(n)
    assert build_chain(generators, degree).order() == sympy_group(generators, degree).order()


# degrees with a prime p, m/2 < p <= m-3, that also have block systems
_JORDAN_DEGREES = (8, 9, 10, 12)


def _block_preserving(degree, blocks, outer, inner):
    # point r + blocks*j (block r, offset j) goes to outer[r] + blocks*inner[r][j],
    # so the residues mod blocks are a block system
    images = [0] * degree
    for r in range(blocks):
        for j in range(degree // blocks):
            images[r + blocks * j] = outer[r] + blocks * inner[r][j] + 1
    return Permutation(images)


@st.composite
def imprimitive_groups(draw):
    degree = draw(st.sampled_from(_JORDAN_DEGREES))
    blocks = draw(st.sampled_from([d for d in range(2, degree) if degree % d == 0]))
    size = degree // blocks
    # the degree-cycle x -> x+1 moves residue r to r+1: it keeps the blocks
    # and makes the group transitive
    generators = [Permutation([(x + 1) % degree + 1 for x in range(degree)])]
    for _ in range(draw(st.integers(0, 3))):
        outer = draw(st.permutations(range(blocks)))
        inner = [draw(st.permutations(range(size))) for _ in range(blocks)]
        generators.append(_block_preserving(degree, blocks, outer, inner))
    return degree, draw(st.permutations(generators))


@settings(deadline=None, max_examples=25)
@given(imprimitive_groups())
def test_transitive_imprimitive_groups_get_no_certificate(case):
    degree, generators = case
    group = sympy_group(generators, degree)
    assert group.is_transitive() and not group.is_primitive(randomized=False)
    assert jordan_certificate(generators, degree) is None
    # so the chain comes from the verified build alone
    assert build_chain(generators, degree).order() == group.order()


def test_s3_wreath_s3_gets_no_certificate():
    within = [Permutation([2, 1, 3, 4, 5, 6, 7, 8, 9]), Permutation([2, 3, 1, 4, 5, 6, 7, 8, 9])]
    across = [Permutation([4, 5, 6, 7, 8, 9, 1, 2, 3]), Permutation([4, 5, 6, 1, 2, 3, 7, 8, 9])]
    group = sympy_group(within + across, 9)
    assert group.order() == math.factorial(3) ** 3 * math.factorial(3)
    assert group.is_transitive() and not group.is_primitive(randomized=False)
    assert jordan_certificate(within + across, 9) is None


@st.composite
def transitive_sets(draw):
    degree = draw(st.sampled_from(_JORDAN_DEGREES))
    cycle = Permutation([(x + 1) % degree + 1 for x in range(degree)])
    return degree, [cycle] + draw(tables(degree, 2))


@settings(deadline=None, max_examples=25)
@given(transitive_sets())
def test_each_certificate_has_the_order_it_claims(case):
    degree, generators = case
    certificate = jordan_certificate(generators, degree)
    if certificate is None:
        return
    expected = math.factorial(degree)
    if certificate.odd_generator is None:
        expected //= 2
    assert sympy_group(generators, degree).order() == expected
    # the boost counts to the same order
    assert build_chain(generators, degree).order() == expected
