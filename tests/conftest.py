"""Shared test helpers: brute-force oracles kept independent of the library
internals they check, and the seams through which a faulty family reaches
``verify``."""

from __future__ import annotations

import random

import numpy as np

from togglegroup import Permutation, verify


def inject_family(monkeypatch, members) -> None:
    """Make ``members`` the family that ``verify`` reads: the path checks'
    ``_member_row`` and the chain claims' ``family``."""
    monkeypatch.setattr(verify, "_member_row", lambda k, n: np.array(members[k - 1].images) - 1)
    monkeypatch.setattr(verify, "family", lambda n: tuple(members))


def brute_force_closure(generators, cap=10**6):
    """All products of the generators, by breadth-first closure.

    In a finite group closure under right multiplication by generators
    already yields the generated subgroup (inverses are powers).  Raises
    if the closure exceeds ``cap`` elements.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    ident = Permutation.identity(gens[0].degree)
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for s in gens:
            y = x * s
            if y not in seen:
                if len(seen) >= cap:
                    raise RuntimeError(f"closure exceeded {cap} elements")
                seen.add(y)
                queue.append(y)
    return seen


def random_permutation(rng: random.Random, degree: int) -> Permutation:
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(images)


def extend(g: Permutation, degree: int) -> Permutation:
    """g in S_degree, fixing the points above its own degree."""
    return Permutation(g.images + tuple(range(g.degree + 1, degree + 1)))


def conjugate(g: Permutation, by: Permutation) -> Permutation:
    """``by * g * by⁻¹``: g with each cycle entry relabelled by ``by``."""
    return by * g * by.inverse()


def support(g: Permutation) -> frozenset[int]:
    """The points g moves."""
    return frozenset(x for x, y in enumerate(g.images, 1) if x != y)
