import inspect
import itertools
import json
import math

import numpy as np
import pytest

from conftest import inject_family
from togglegroup import (
    Permutation,
    VerificationReport,
    all_claim_ids,
    fib,
    family,
    format_cycles,
    parse_cycles,
    verify_all,
    verify_count_and_transitivity,
    verify_coxeter_relations,
    verify_diagonal_generation,
    verify_golden_cases,
    verify_intertwining,
    verify_symmetric_generation,
    verify_three_cycles,
)


@pytest.fixture
def chain_degrees(monkeypatch):
    """The degree of every chain verify builds while the test runs."""
    from togglegroup import verify

    degrees = []
    real_build = verify.build_chain

    def counting_build(generators, degree):
        degrees.append(degree)
        return real_build(generators, degree)

    monkeypatch.setattr(verify, "build_chain", counting_build)
    return degrees


def alternating_13():
    # (1,2,3) and a 13-cycle generate A_13, and neither is odd
    return (parse_cycles("(1,2,3)", 13), Permutation.from_cycles([tuple(range(1, 14))], 13))


def perturbed_family_3():
    # swap the 3 in (1,3) for a 2: the group then fixes point 3 entirely
    members = list(family(3))
    members[1] = parse_cycles("(1,2)", 5)
    return members


def inject_toggles(monkeypatch, members):
    # the toggle tables verify reads become the members' 0-based image tables
    from togglegroup import verify

    monkeypatch.setattr(
        verify, "_toggle_tables", lambda n: (np.array(p.images) - 1 for p in members)
    )


def drop_last_toggle_table(monkeypatch):
    # the toggle tables verify reads end one table early
    from togglegroup import verify

    real = verify._toggle_tables
    monkeypatch.setattr(verify, "_toggle_tables", lambda n: itertools.islice(real(n), n - 1))


def add_vertex(k, masks, real):
    # toggles 2..5 always add their vertex, so a set without it can go to a
    # rank past f(n+2)
    return masks | (1 << (k - 1)) if 2 <= k <= 5 else real(k, masks)


def inject_toggle_masks(monkeypatch, toggle):
    # the toggle tables are built from toggle(k, masks, real toggle)
    from togglegroup import families

    real = families.toggle_path_masks
    monkeypatch.setattr(families, "toggle_path_masks", lambda k, masks: toggle(k, masks, real))


class TestSignatures:
    def test_every_verifier_takes_the_size_alone(self):
        # faults go in through verify's module names, never through arguments
        from togglegroup import verify

        giant = {verify_symmetric_generation, verify_three_cycles}
        for name in verify.__all__:
            fn = getattr(verify, name)
            if not name.startswith("verify_") or fn is verify_all:
                continue
            params = inspect.signature(fn).parameters
            if fn is verify_golden_cases:
                assert list(params) == [], name
                continue
            assert [(p.name, p.kind) for p in params.values()] == [
                ("n", inspect.Parameter.POSITIONAL_OR_KEYWORD),
                *([("_certificate", inspect.Parameter.KEYWORD_ONLY)] if fn in giant else []),
            ], name


class TestReportType:
    def test_failing_report_needs_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 1, "fail", "no payload")

    def test_status_vocabulary(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 1, "ok", "bad status")

    def test_json_dict_omits_empty_counterexample(self):
        report = VerificationReport("x", 1, "pass", "fine")
        assert "counterexample" not in report.json_dict()
        assert json.dumps(report.json_dict())

    def test_text_line_carries_counterexample(self):
        report = VerificationReport("x", 2, "fail", "broke", {"k": 1})
        assert "counterexample" in report.text_line()
        assert "k=1" in report.text_line()


class TestIntertwining:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_passes(self, n):
        report = verify_intertwining(n)
        assert report.status == "pass"
        assert report.n == n

    def test_injected_fault_fails_with_counterexample(self, monkeypatch):
        inject_family(monkeypatch, perturbed_family_3())
        report = verify_intertwining(3)
        assert report.status == "fail"
        assert report.text_line() == (
            "   FAIL intertwining n=3: toggle at k=2 disagrees with the family member"
            " [counterexample: expected=3, got=2, index=1, k=2, set={}]"
        )

    @staticmethod
    def report_with_member(monkeypatch, n, k, fault):
        # verify_intertwining(n) with member k's row passed through fault
        from togglegroup import verify

        real_row = verify._member_row
        monkeypatch.setattr(
            verify, "_member_row", lambda j, m: fault(real_row(j, m)) if j == k else real_row(j, m)
        )
        return verify_intertwining(n)

    def test_member_of_another_degree_fails_whole(self, monkeypatch):
        # member 1 at n = 3 gains a fixed point: it agrees on all 5 ranks
        report = self.report_with_member(monkeypatch, 3, 1, lambda row: np.append(row, len(row)))
        assert report.text_line() == (
            "   FAIL intertwining n=3: induced permutation differs from the family member"
            " at k=1 [counterexample: induced_degree=5, k=1, member_degree=6]"
        )

    def test_member_too_short_fails_whole(self, monkeypatch):
        # member 2 at n = 4 loses its last entry: the 7 entries it has agree
        report = self.report_with_member(monkeypatch, 4, 2, lambda row: row[:-1])
        assert report.text_line() == (
            "   FAIL intertwining n=4: induced permutation differs from the family member"
            " at k=2 [counterexample: induced_degree=8, k=2, member_degree=7]"
        )

    def test_short_toggle_tables_fail_at_the_first_missing_k(self, monkeypatch):
        # 3 tables at n = 4 must not pass as 4 toggles checked
        drop_last_toggle_table(monkeypatch)
        assert verify_intertwining(4).text_line() == (
            "   FAIL intertwining n=4: toggle at k=4 has no table [counterexample: k=4]"
        )

    def test_family_route_builds_no_permutation(self, monkeypatch):
        # the members are compared as image tables, one k at a time
        def refuse(*args):
            raise AssertionError("a Permutation was built")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(Permutation, "_from_raw", classmethod(refuse))
        assert verify_intertwining(9).passed

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_family_route_checks_every_member(self, monkeypatch, k):
        from togglegroup import verify

        real_row = verify._member_row

        def faulty_row(j, n):
            # the member at j = k swaps the images of ranks 1 and 2
            row = real_row(j, n)
            if j == k:
                row[[0, 1]] = row[[1, 0]]
            return row

        monkeypatch.setattr(verify, "_member_row", faulty_row)
        report = verify_intertwining(5)
        assert report.status == "fail"
        assert (report.counterexample["k"], report.counterexample["index"]) == (k, 1)


class TestSymmetricGeneration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_passes(self, n):
        assert verify_symmetric_generation(n).status == "pass"

    def test_injected_fault_fails(self, monkeypatch):
        inject_family(monkeypatch, perturbed_family_3())
        report = verify_symmetric_generation(3)
        assert report.status == "fail"
        # the perturbed set fixes point 3, so some adjacent swap is missing
        assert "missing" in report.counterexample
        assert report.text_line() == (
            "   FAIL symmetric-generation n=3: generated group is a proper subgroup"
            " [counterexample: expected=120, missing=(2,3), order=8]"
        )

    def test_single_transposition_fails(self, monkeypatch):
        inject_family(monkeypatch, [parse_cycles("(1,2)", 5)])
        report = verify_symmetric_generation(3)
        assert report.status == "fail"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_certificate_and_chain_give_the_same_reports(self, n, monkeypatch, chain_degrees):
        from togglegroup import verify

        def reports():
            return [verify_symmetric_generation(n)] + ([verify_three_cycles(n)] if n >= 4 else [])

        by_certificate = reports()
        # from n = 4 on, the certificate decides both claims
        assert chain_degrees == ([] if n >= 4 else [fib(n + 2)])
        # with no certificate, each claim reads its own family chain
        monkeypatch.setattr(verify, "jordan_certificate", lambda generators, degree: None)
        chain_degrees.clear()
        assert reports() == by_certificate
        assert chain_degrees == [fib(n + 2)] * len(by_certificate)

    def test_even_generators_fail_through_the_chain(self, monkeypatch, chain_degrees):
        # the certificate proves A_13 but has no odd generator, so the chain
        # decides symmetric-generation; three-cycles passes on A_13
        from togglegroup import verify

        monkeypatch.setattr(verify, "family", lambda n: alternating_13())
        report = verify_symmetric_generation(5)
        assert chain_degrees == [13]
        assert report.status == "fail"
        assert report.counterexample == {
            "order": str(math.factorial(13) // 2),
            "expected": str(math.factorial(13)),
            "missing": "(1,2)",
        }
        assert verify_three_cycles(5).text_line() == (
            "   PASS three-cycles n=5: all 11 consecutive 3-cycles are members"
        )


class TestDiagonalGeneration:
    def test_passes_at_three(self):
        report = verify_diagonal_generation(3)
        assert report.status == "pass"

    def test_fails_at_four_with_offending_generator(self):
        # the k=1 member moves the middle block, so the generated group is
        # strictly larger than the diagonal subgroup
        report = verify_diagonal_generation(4)
        assert report.status == "fail"
        assert report.text_line() == (
            "   FAIL diagonal-generation n=4: a strong generator leaves the diagonal"
            " subgroup [counterexample: generator=(1,2)(4,5)(6,7)]"
        )

    def test_fails_on_the_inputs_without_a_chain(self, monkeypatch):
        # the first strong generator of the chain that leaves the diagonal
        # subgroup is the first input that does, generator(1, n)
        from togglegroup import DiagonalSubgroupSpec, build_chain, fib, generator, prime_family
        from togglegroup import verify

        for n in range(4, 8):
            spec = DiagonalSubgroupSpec(n)
            chain = build_chain(list(prime_family(n)), fib(n + 2))
            leaving = [g for g in chain.strong_generators() if not spec.contains(g)]
            assert leaving[0] == generator(1, n)

        def refuse(*args, **kwargs):
            raise AssertionError("build_chain called")

        monkeypatch.setattr(verify, "build_chain", refuse)
        for n in range(4, 11):
            report = verify_diagonal_generation(n)
            assert (report.status, report.details) == (
                "fail", "a strong generator leaves the diagonal subgroup"
            )
            assert report.counterexample == {"generator": format_cycles(generator(1, n))}

    def test_checks_the_reduced_family_one_member_at_a_time(self, monkeypatch):
        # the family is never built whole: from n = 4 on the first member
        # fails and is the only one built, and at n = 3 the one member
        # that passes is the chain's input
        from togglegroup import generator
        from togglegroup import verify

        def whole_family(n):
            raise AssertionError("the whole reduced family was built")

        built, chain_inputs = [], []
        real_build_chain = verify.build_chain

        def counting_generator(k, n):
            built.append((k, n))
            return generator(k, n)

        def recording_build_chain(generators, degree):
            chain_inputs.append(list(generators))
            return real_build_chain(generators, degree)

        monkeypatch.setattr(verify, "prime_family", whole_family)
        monkeypatch.setattr(verify, "generator", counting_generator)
        monkeypatch.setattr(verify, "build_chain", recording_build_chain)
        for n in range(4, 11):
            built.clear()
            assert verify_diagonal_generation(n).counterexample == {
                "generator": format_cycles(generator(1, n))
            }
            assert built == [(1, n)]
        built.clear()
        assert verify_diagonal_generation(3).status == "pass"
        assert built == [(1, 3)]
        assert chain_inputs == [[generator(1, 3)]]

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_fails_above_four(self, n):
        assert verify_diagonal_generation(n).status == "fail"

    def test_diagonal_subgroup_is_contained(self):
        # check (c) in isolation: embedded elements all sift, at any n
        from togglegroup import DiagonalSubgroupSpec, build_chain, diagonal_embed, fib, prime_family
        import random

        for n in (4, 5, 6):
            chain = build_chain(list(prime_family(n)), fib(n + 2))
            spec = DiagonalSubgroupSpec(n)
            rng = random.Random(n)
            for _ in range(50):
                images = list(range(1, fib(n) + 1))
                rng.shuffle(images)
                member = diagonal_embed(n, Permutation(images))
                assert spec.contains(member)
                assert chain.contains(member)

    def test_needs_n_three(self):
        with pytest.raises(ValueError):
            verify_diagonal_generation(2)


class TestThreeCycles:
    @pytest.mark.parametrize("n", [4, 5])
    def test_passes(self, n):
        assert verify_three_cycles(n).status == "pass"

    def test_negative_control(self, monkeypatch):
        inject_family(monkeypatch, [parse_cycles("(1,2)", 8)])
        report = verify_three_cycles(4)
        assert report.status == "fail"
        assert report.counterexample == {"cycle": "(1,2,3)"}
        assert report.text_line() == (
            "   FAIL three-cycles n=4: a consecutive 3-cycle is missing"
            " [counterexample: cycle=(1,2,3)]"
        )

    def test_needs_n_four(self):
        with pytest.raises(ValueError):
            verify_three_cycles(3)


class TestCoxeterRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_passes(self, n):
        assert verify_coxeter_relations(n).status == "pass"

    def test_injected_fault_fails(self, monkeypatch):
        members = [parse_cycles("(1,2,3)", 5), parse_cycles("(1,3)", 5), parse_cycles("(1,4)(2,5)", 5)]
        inject_toggles(monkeypatch, members)
        report = verify_coxeter_relations(3)
        assert report.status == "fail"
        assert report.counterexample == {"k": 1}

    @pytest.mark.parametrize(
        "cycles,line",
        [
            (
                ("(1,2)", "(1,3)", "(2,3)"),
                "distant toggles do not commute [counterexample: k=1, k2=3]",
            ),
            (
                ("(1,2)(3,4)", "(2,3)(4,5)", "()"),
                "(toggle_k toggle_k+1)^6 is not the identity [counterexample: k=1]",
            ),
        ],
    )
    def test_each_relation_fails_with_its_own_line(self, monkeypatch, cycles, line):
        inject_toggles(monkeypatch, [parse_cycles(text, 5) for text in cycles])
        report = verify_coxeter_relations(3)
        assert report.text_line() == "   FAIL coxeter-relations n=3: " + line

    def test_toggle_that_leaves_the_ranks_fails_as_no_involution(self, monkeypatch):
        # p[p] would read past the end of toggle 2's table
        inject_toggle_masks(monkeypatch, add_vertex)
        assert verify_coxeter_relations(5).text_line() == (
            "   FAIL coxeter-relations n=5: a toggle is not an involution [counterexample: k=2]"
        )

    def test_short_toggle_tables_fail_at_the_first_missing_k(self, monkeypatch):
        # the relations are never read off a table that is not there
        drop_last_toggle_table(monkeypatch)
        assert verify_coxeter_relations(4).text_line() == (
            "   FAIL coxeter-relations n=4: toggle at k=4 has no table [counterexample: k=4]"
        )


class TestToggleTables:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_weight_delta_equals_ranking_the_toggled_sets(self, n):
        # the shipped tables add one vertex weight per entry; the reference
        # ranks every toggled set over all of its bit planes
        from togglegroup import verify
        from togglegroup.fibindex import rank_masks, unrank_masks
        from togglegroup.graphs import toggle_path_masks

        masks = unrank_masks(n)
        tables = list(verify._toggle_tables(n))
        assert len(tables) == n
        for k, table in enumerate(tables, start=1):
            reference = rank_masks(toggle_path_masks(k, masks)) - 1
            assert table.dtype == reference.dtype
            assert np.array_equal(table, reference)


class TestCountAndTransitivity:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 3), (4, 8), (20, 17711)])
    def test_passes_with_expected_counts(self, n, count):
        from togglegroup import fib

        report = verify_count_and_transitivity(n)
        assert report.status == "pass"
        assert fib(n + 2) == count
        assert str(count) in report.details

    def test_stuck_toggle_fails_with_the_first_unreached_set(self, monkeypatch):
        from togglegroup import families

        toggle_path_masks = families.toggle_path_masks
        monkeypatch.setattr(
            families, "toggle_path_masks",
            lambda k, masks: masks if k == 1 else toggle_path_masks(k, masks),
        )
        assert verify_count_and_transitivity(6).text_line() == (
            "   FAIL count-transitivity n=6: toggles do not reach every independent"
            " set [counterexample: expected=21, missing={1}, reached=13]"
        )

    @pytest.mark.parametrize(
        "toggle,line",
        [
            # {3,5}, rank 12, goes to 12 + f(3) = 14
            (
                add_vertex,
                "toggle at k=2 leaves the ranks 1..13 [counterexample: image=14, k=2, set={3,5}]",
            ),
            # toggle 1 always takes 1 off the mask: {} goes to rank 0, which
            # the walk would read as the last set
            (
                lambda k, masks, real: masks - 1 if k == 1 else real(k, masks),
                "toggle at k=1 leaves the ranks 1..13 [counterexample: image=0, k=1, set={}]",
            ),
        ],
        ids=["above", "below"],
    )
    def test_toggle_that_leaves_the_ranks_fails(self, monkeypatch, toggle, line):
        inject_toggle_masks(monkeypatch, toggle)
        assert verify_count_and_transitivity(5).text_line() == (
            "   FAIL count-transitivity n=5: " + line
        )

    def test_enumeration_out_of_rank_order_fails(self, monkeypatch):
        # the walk reads position i as rank i+1; {1} and {2} swapped would
        # still be 21 distinct sets, all reachable
        from togglegroup import verify

        unrank_masks = verify.unrank_masks

        def swapped(n):
            masks = unrank_masks(n)
            masks[[1, 2]] = masks[[2, 1]]
            return masks

        monkeypatch.setattr(verify, "unrank_masks", swapped)
        assert verify_count_and_transitivity(6).text_line() == (
            "   FAIL count-transitivity n=6: enumeration is not the independent sets"
            " in rank order [counterexample: index=2, rank=3, set={2}]"
        )

    def test_repeated_set_fails_as_a_repeat(self, monkeypatch):
        from togglegroup import verify

        unrank_masks = verify.unrank_masks

        def repeated(n):
            masks = unrank_masks(n)
            masks[5] = masks[4]
            return masks

        monkeypatch.setattr(verify, "unrank_masks", repeated)
        assert verify_count_and_transitivity(6).text_line() == (
            "   FAIL count-transitivity n=6: enumeration repeats a set [counterexample: count=21]"
        )

    def test_dependent_set_at_its_rank_fails(self, monkeypatch):
        # {1,2} has the rank of {3}, 1 + f(2) + f(3) = 4; walking from it as
        # if it were {3} would reach all five positions
        from togglegroup import verify

        monkeypatch.setattr(
            verify, "unrank_masks", lambda n: np.array([0b000, 0b001, 0b010, 0b011, 0b101])
        )
        assert verify_count_and_transitivity(3).text_line() == (
            "   FAIL count-transitivity n=3: enumeration is not the independent sets"
            " in rank order [counterexample: index=4, rank=4, set={1,2}]"
        )


class TestGoldenCases:
    def test_passes(self):
        assert verify_golden_cases().status == "pass"

    def test_a_stuck_toggle_on_the_mask_route_fails_alone(self, monkeypatch):
        # the members still agree with the traces; the masks alone are wrong
        from togglegroup import verify

        toggle_path_masks = verify.toggle_path_masks
        monkeypatch.setattr(
            verify, "toggle_path_masks",
            lambda k, masks: masks if k == 1 else toggle_path_masks(k, masks),
        )
        assert verify_golden_cases().text_line() == (
            "   FAIL golden-cases: small-size toggle trace mismatch [counterexample:"
            " expected=2, k=1, member=2, n=1, set={}, toggled=1]"
        )

    def test_a_wrong_member_on_the_member_route_fails_alone(self, monkeypatch):
        # the toggled masks still agree with the traces; the member alone is
        # the identity
        from togglegroup import verify

        monkeypatch.setattr(verify, "generator", lambda k, n: Permutation.identity(fib(n + 2)))
        assert verify_golden_cases().text_line() == (
            "   FAIL golden-cases: small-size toggle trace mismatch [counterexample:"
            " expected=2, k=1, member=1, n=1, set={}, toggled=2]"
        )

    def test_a_wrong_family_at_n_1_fails(self, monkeypatch):
        # the block swap at n = 1 is still right; only the family is not
        from togglegroup import verify

        real_family = verify.family
        monkeypatch.setattr(
            verify, "family",
            lambda n: (Permutation.identity(2),) if n == 1 else real_family(n),
        )
        assert verify_golden_cases().text_line() == (
            "   FAIL golden-cases: family at n=1 is off [counterexample:"
            " expected=['(1,2)'], got=['()'], n=1]"
        )


class TestVerifyAll:
    def test_quick_at_four_matches_reality(self):
        reports = verify_all(4, profile="quick")
        by_claim = {}
        for r in reports:
            by_claim.setdefault(r.claim_id, []).append(r)
        assert set(by_claim) == set(all_claim_ids())
        failing = [r for r in reports if r.status == "fail"]
        # the one true defect: the reduced family at n=4 overshoots the
        # diagonal subgroup
        assert [(r.claim_id, r.n) for r in failing] == [("diagonal-generation", 4)]
        assert not any(r.status == "skipped" for r in reports)

    def test_reports_sorted(self):
        reports = verify_all(3, profile="quick")
        keys = [(r.claim_id, r.n if r.n is not None else 0) for r in reports]
        assert keys == sorted(keys)

    def test_quick_profile_skips_beyond_enumeration_cap(self):
        reports = verify_all(15, profile="quick")
        skipped = {(r.claim_id, r.n) for r in reports if r.status == "skipped"}
        # f(17) = 1597 > 1000: every enumeration-bound check at n=15 skips
        assert ("intertwining", 15) in skipped
        assert ("count-transitivity", 15) in skipped
        assert ("coxeter-relations", 15) in skipped
        # chain-bound checks stop beyond degree 55 (n=8) in the quick profile
        assert ("symmetric-generation", 9) in skipped
        assert ("symmetric-generation", 8) not in skipped

    def test_claim_filter(self):
        reports = verify_all(6, profile="quick", claims=["intertwining"])
        assert {r.claim_id for r in reports} == {"intertwining"}
        assert [r.n for r in reports] == list(range(1, 7))

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            verify_all(3, claims=["nonsense"])

    def test_determinism(self):
        first = verify_all(4, profile="quick")
        second = verify_all(4, profile="quick")
        assert [(r.claim_id, r.n, r.status, r.details) for r in first] == [
            (r.claim_id, r.n, r.status, r.details) for r in second
        ]

    def test_family_chains_only_below_the_jordan_range(self, monkeypatch, chain_degrees):
        # the Jordan certificate decides both chain claims from n = 4
        # (degree 8) on; the chain route gives the same reports at every n
        # up to 12
        from togglegroup import verify

        claims = ["symmetric-generation", "three-cycles"]
        reports = verify_all(12, "full", claims)
        assert chain_degrees == [2, 3, 5]
        monkeypatch.setattr(verify, "jordan_certificate", lambda generators, degree: None)
        expected = []
        for n in range(1, 13):
            expected.append(verify_symmetric_generation(n))
            if n >= 4:
                expected.append(verify_three_cycles(n))
        assert reports == sorted(expected, key=lambda r: (r.claim_id, r.n))

    def test_family_certificate_once_per_n(self, monkeypatch):
        from togglegroup import verify

        degrees = []
        real_certificate = verify.jordan_certificate

        def counting_certificate(generators, degree):
            degrees.append(degree)
            return real_certificate(generators, degree)

        monkeypatch.setattr(verify, "jordan_certificate", counting_certificate)
        verify_all(12, "full", ["symmetric-generation", "three-cycles"])
        assert degrees == [fib(n + 2) for n in range(1, 13)]

    def test_engineered_failure_is_caught(self, monkeypatch):
        # at least one verifier must flip on an injected fault
        inject_family(monkeypatch, perturbed_family_3())
        outcomes = [verify_intertwining(3).status, verify_symmetric_generation(3).status]
        assert "fail" in outcomes
