"""Acceptance suite: one test per criterion, each timed against its budget
and printing a pass line when it completes (run with ``pytest -s`` to see
them).

Criterion 3 pins down the group the reduced families generate for
n = 3..8: exactly diag(S_f(n)) x Sym(middle block {f(n)+1..f(n+1)}), of
order f(n)!*f(n-1)!.  Every reduced member preserves that structure (the
upper bound) and the chain reaches that order (the lower bound).  At n = 3
the middle block is a single point, so the group is the diagonal copy of
S_f(n) itself; from n = 4 on it is strictly larger, because on P_4 toggling
vertex 1 swaps {3} (rank 4) with {1,3} (rank 5), both in the middle block
{4,5}, so the member (1,2)(4,5)(6,7) moves a block that every diagonal
element fixes.  The ``diagonal-generation`` verifier must therefore pass at
n = 3 and report that very kind of counterexample for n = 4..8.
"""

import math
import random
import time

from conftest import brute_force_closure, inject_family, random_permutation

from togglegroup import (
    DiagonalSubgroupSpec,
    Permutation,
    block_swap,
    build_chain,
    enumerate_independent_sets,
    family,
    fib,
    format_cycles,
    format_set_text,
    parse_cycles,
    prime_family,
    verify_count_and_transitivity,
    verify_coxeter_relations,
    verify_diagonal_generation,
    verify_intertwining,
    verify_symmetric_generation,
)


class budget:
    """Assert the block stays within its runtime budget, then report."""

    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s budget "
                f"({elapsed:.1f}s)"
            )
            print(f"[ACCEPTANCE] criterion {self.number} ({self.label}): PASS in {elapsed:.2f}s")
        return False


def test_criterion_1_golden_values():
    with budget(1, "worked examples byte-exact", 1.0):
        assert [format_cycles(t) for t in family(1)] == ["(1,2)"]
        assert [format_cycles(t) for t in family(2)] == ["(1,2)", "(1,3)"]
        assert [format_cycles(t) for t in family(3)] == [
            "(1,2)(4,5)", "(1,3)", "(1,4)(2,5)",
        ]
        assert [format_cycles(t) for t in prime_family(3)] == ["(1,2)(4,5)"]
        assert [format_cycles(t) for t in family(4)] == [
            "(1,2)(4,5)(6,7)", "(1,3)(6,8)", "(1,4)(2,5)", "(1,6)(2,7)(3,8)",
        ]
        assert [format_cycles(t) for t in prime_family(4)] == [
            "(1,2)(4,5)(6,7)", "(1,3)(6,8)",
        ]
        assert [format_cycles(block_swap(n)) for n in (1, 2, 3, 4)] == [
            "(1,2)", "(1,3)", "(1,4)(2,5)", "(1,6)(2,7)(3,8)",
        ]
        tables = {
            1: ["{}", "{1}"],
            2: ["{}", "{1}", "{2}"],
            3: ["{}", "{1}", "{2}", "{3}", "{1,3}"],
            4: ["{}", "{1}", "{2}", "{3}", "{1,3}", "{4}", "{1,4}", "{2,4}"],
        }
        for n, expected in tables.items():
            got = [format_set_text(s) for s in enumerate_independent_sets(n)]
            assert got == expected


def test_criterion_2_full_symmetric_groups():
    with budget(2, "families generate full symmetric groups, n=1..8", 30.0):
        for n in range(1, 9):
            degree = fib(n + 2)
            chain = build_chain(family(n), degree)
            assert chain.is_full_symmetric(), f"family at n={n} misses S_{degree}"
        assert build_chain(family(3), 5).order() == 120
        assert build_chain(family(4), 8).order() == 40320


def test_criterion_3_reduced_families_generate_diagonal():
    label = "reduced families generate diag(S_f(n)) x Sym(middle block), n=3..8"
    with budget(3, label, 30.0):
        for n in range(3, 9):
            degree, low, shift = fib(n + 2), fib(n), fib(n + 1)
            low_block = set(range(1, low + 1))
            middle_block = set(range(low + 1, shift + 1))
            top_block = set(range(shift + 1, degree + 1))
            members = list(prime_family(n))
            # upper bound: each member preserves the three blocks and acts on
            # the top block as on the low block, shifted by f(n+1)
            for g in members:
                for block in (low_block, middle_block, top_block):
                    assert {g.apply(i) for i in block} == block, (
                        f"{format_cycles(g)} at n={n} does not preserve a block"
                    )
                for i in low_block:
                    assert g.apply(i + shift) == g.apply(i) + shift, (
                        f"{format_cycles(g)} at n={n} is not diagonal on the end blocks"
                    )
            # lower bound: the chain reaches the order of that whole subgroup
            chain = build_chain(members, degree)
            expected = math.factorial(low) * math.factorial(fib(n - 1))
            assert chain.order() == expected, (
                f"reduced family at n={n} has order {chain.order()}, "
                f"not f(n)!*f(n-1)! = {expected}"
            )
            report = verify_diagonal_generation(n)
            if n == 3:
                assert report.passed, report.text_line()
                continue
            assert report.status == "fail", (
                f"diagonal-generation passed at n={n}, but the generated group "
                f"has order f(n)!*f(n-1)! > f(n)!"
            )
            witness = parse_cycles(report.counterexample["generator"], degree)
            assert not DiagonalSubgroupSpec(n).contains(witness)
            assert chain.contains(witness)
        # a second route to the order, sharing no code with the engine
        for n in (4, 5):
            closure = brute_force_closure(list(prime_family(n)), cap=10**4)
            assert len(closure) == math.factorial(fib(n)) * math.factorial(fib(n - 1))


def test_criterion_4_intertwining_identity():
    with budget(4, "toggles mirror the recursive members through ranks, n<=12", 10.0):
        for n in range(1, 13):
            report = verify_intertwining(n)
            assert report.passed, report.text_line()


def test_criterion_5_coxeter_relations():
    with budget(5, "involution, commutation and braid-power relations, n<=10", 10.0):
        for n in range(1, 11):
            report = verify_coxeter_relations(n)
            assert report.passed, report.text_line()


def test_criterion_6_counting_and_transitivity():
    with budget(6, "Fibonacci counts n<=25 and one-orbit toggling n<=15", 60.0):
        for n in range(1, 16):
            report = verify_count_and_transitivity(n)
            assert report.passed, report.text_line()
        for n in range(16, 26):
            assert len(enumerate_independent_sets(n)) == fib(n + 2)


def test_criterion_7_engine_against_brute_force():
    with budget(7, "chain order and membership vs closure oracle", 60.0):
        rng = random.Random(20260811)
        instances = []
        for _ in range(20):
            degree = rng.randint(2, 8)
            instances.append(
                (degree, [random_permutation(rng, degree) for _ in range(rng.randint(1, 3))])
            )
        # two full-size instances so the oracle sees closures near 8!
        instances.append((8, [parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)]))
        instances.append((8, family(4)))
        for degree, generators in instances:
            closure = brute_force_closure(generators, cap=10**5)
            chain = build_chain(generators, degree)
            assert chain.order() == len(closure)
            members = sorted(closure, key=lambda g: g.images)
            for _ in range(500):
                probe = members[rng.randrange(len(members))]
                assert chain.contains(probe)
            for _ in range(500):
                probe = random_permutation(rng, degree)
                assert chain.contains(probe) == (probe in closure)


def _entry_swaps(g: Permutation, degree: int):
    """All single-entry replacements inside one cycle of g."""
    cycles = [list(c) for c in g.cycles()]
    support = {v for c in cycles for v in c}
    for ci, cycle in enumerate(cycles):
        for pos in range(len(cycle)):
            for replacement in range(1, degree + 1):
                if replacement in support:
                    continue
                patched = [list(c) for c in cycles]
                patched[ci][pos] = replacement
                yield Permutation.from_cycles(patched, degree)


def test_criterion_8_negative_controls(monkeypatch):
    with budget(8, "any single-entry fault in the n=3 family is caught", 5.0):
        base = family(3)
        perturbations = 0
        gen_check_failed_somewhere = False
        for i, original in enumerate(base):
            for fault in _entry_swaps(original, 5):
                assert fault != original
                members = list(base)
                members[i] = fault
                inject_family(monkeypatch, members)
                reports = [verify_intertwining(3), verify_symmetric_generation(3)]
                failing = [r for r in reports if r.status == "fail"]
                assert failing, f"fault {format_cycles(fault)} at k={i + 1} went unnoticed"
                assert all(r.counterexample is not None for r in failing)
                if any(r.claim_id == "symmetric-generation" for r in failing):
                    gen_check_failed_somewhere = True
                perturbations += 1
        assert perturbations >= 10
        # at least one fault breaks generation itself, not just the mirroring
        assert gen_check_failed_somewhere
