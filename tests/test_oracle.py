"""The engine against an outside oracle: sympy's exact permutation groups.

Orders and membership from :func:`build_chain`, the verdicts of
:func:`jordan_certificate` and the orders the engine proves orbit by
orbit are compared with sympy's deterministic
Schreier-Sims (``PermutationGroup.order`` and ``contains``), never with
its Monte-Carlo tests.  Both libraries read the same 0-based image
tables; sympy composes left to right, which changes no order and no
membership.  The module skips where sympy is not installed.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from togglegroup import Permutation, build_chain, fib, jordan_certificate
from togglegroup.engine import _proved_order
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
    # the chain written from the proof has the same order
    assert build_chain(generators, degree).order() == expected


def _giant_pair(m, alternating):
    # two 0-based tables on range(m): a transposition and an m-cycle span
    # S_m; (1,2,3) and a cycle of odd length through 2..m (and 1 when m is
    # odd) span A_m
    if not alternating:
        return [1, 0] + list(range(2, m)), [(x + 1) % m for x in range(m)]
    start = 1 - m % 2
    cycle = list(range(m))
    for x in range(start, m):
        cycle[x] = x + 1 if x + 1 < m else start
    return [1, 2, 0] + list(range(3, m)), cycle


def _on_blocks(place, a, x, y):
    # x acts on positions 0..a-1 and y on the next len(y), each position
    # sent to its point by place; the remaining points are fixed
    images = list(range(1, len(place) + 1))
    for i, xi in enumerate(x):
        images[place[i]] = place[xi] + 1
    for i, yi in enumerate(y):
        images[place[a + i]] = place[a + yi] + 1
    return Permutation(images)


@st.composite
def giant_orbit_sets(draw):
    """Generators with two orbits of degree 8..12, giant on each, and up to
    two fixed points: a direct product, a product whose generators move
    both orbits at once, or a diagonal twisted by a relabeling."""
    kind = draw(st.sampled_from(["product", "coupled", "twisted"]))
    a = draw(st.integers(8, 12))
    b = a if kind == "twisted" else draw(st.integers(8, 12))
    xs = _giant_pair(a, draw(st.booleans()))
    if kind == "twisted":
        relabel = draw(st.permutations(range(a)))
        ys = []
        for x in xs:
            y = [0] * a
            for i, xi in enumerate(x):
                y[relabel[i]] = relabel[xi]
            ys.append(y)
    else:
        ys = _giant_pair(b, draw(st.booleans()))
    if kind == "product":
        pairs = [(x, range(b)) for x in xs] + [(range(a), y) for y in ys]
    elif kind == "coupled":
        pairs = [(xs[0], ys[1]), (xs[1], ys[0])]
    else:
        pairs = list(zip(xs, ys))
    degree = a + b + draw(st.integers(0, 2))
    place = draw(st.permutations(range(degree)))
    return degree, [_on_blocks(place, a, x, y) for x, y in pairs]


@settings(deadline=None, max_examples=40)
@given(giant_orbit_sets(), st.randoms(use_true_random=False))
def test_multi_orbit_orders_match_sympy(case, rng):
    degree, generators = case
    group = sympy_group(generators, degree)
    expected = group.order()
    assert _proved_order(generators, degree) == expected
    chain = build_chain(generators, degree)
    assert chain.order() == expected
    # random words are members; the same words times a transposition, and
    # random permutations, are members exactly when sympy says so
    for _ in range(4):
        word = Permutation.identity(degree)
        for _ in range(rng.randint(1, 12)):
            word = word * rng.choice(generators)
        assert chain.contains(word) and group.contains(to_sympy(word))
        swap = Permutation.from_cycles([tuple(rng.sample(range(1, degree + 1), 2))], degree)
        probe = Permutation(rng.sample(range(1, degree + 1), degree))
        for g in (word * swap, probe):
            assert chain.contains(g) == group.contains(to_sympy(g))


@pytest.mark.parametrize("a, b", [(8, 9), (9, 11), (10, 12)])
def test_diagonal_sign_pairs_halve_the_product(a, b):
    # fault injection: every generator is even on both orbits or odd on
    # both, so the signs span only the diagonal of (Z/2)^2
    (ta, ca), (tb, cb) = _giant_pair(a, False), _giant_pair(b, False)
    if a % 2 != b % 2:  # the two cycles differ in sign
        cb = [cb[x] for x in tb]
    place = list(range(a + b))
    generators = [_on_blocks(place, a, ta, tb), _on_blocks(place, a, ca, cb)]
    for g in generators:
        assert g.parity() == 1
    expected = math.factorial(a) * math.factorial(b) // 2
    assert sympy_group(generators, a + b).order() == expected
    assert _proved_order(generators, a + b) == expected
    assert build_chain(generators, a + b).order() == expected
