"""Machine checks for the toggle-group results, with structured reports.

Each verifier checks one claim exhaustively at a given size and returns a
:class:`VerificationReport`; a failing report always carries a concrete
counterexample.  ``verify_all`` runs every applicable check up to a size
bound under a resource profile; checks that would blow the profile's
bounds come back ``skipped``, never silently passed.

Every verifier takes the size alone; a fault goes in by rebinding a
module-level name it looks up (``_member_row``, ``_toggle_tables``,
``family``, ``jordan_certificate``), so it meets the checks a real run does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .engine import StabilizerChain, build_chain, jordan_certificate
from .families import (
    DiagonalSubgroupSpec,
    _member_row,
    _prime_family_ks,
    _toggle_table,
    block_swap,
    diagonal_embed,
    family,
    generator,
    prime_family,
)
from .fibindex import fib, rank, rank_masks, unrank, unrank_masks
from .graphs import _mask_text, format_set_text, toggle_path_masks
from .perms import Permutation, format_cycles

__all__ = [
    "FULL_CHAIN_DEGREE_CAP",
    "FULL_ENUMERATION_CAP",
    "QUICK_CHAIN_DEGREE_CAP",
    "QUICK_ENUMERATION_CAP",
    "VerificationReport",
    "all_claim_ids",
    "verify_all",
    "verify_count_and_transitivity",
    "verify_coxeter_relations",
    "verify_diagonal_generation",
    "verify_golden_cases",
    "verify_intertwining",
    "verify_symmetric_generation",
    "verify_three_cycles",
]

# quick keeps everything interactive; full covers the documented desk scale
QUICK_ENUMERATION_CAP = 1000
FULL_ENUMERATION_CAP = 1_000_000
QUICK_CHAIN_DEGREE_CAP = 55
FULL_CHAIN_DEGREE_CAP = 377

_STATUSES = ("pass", "fail", "skipped")

# random diagonal elements that diagonal-generation sifts into its chain
_DIAGONAL_SAMPLES = 100

# a giant claim's _certificate when its caller has not computed the family's
# certificate; None is a computed result, "not certified"
_UNSET = object()


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim check at one size."""

    claim_id: str
    n: Optional[int]
    status: str
    details: str
    counterexample: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}")
        if self.status == "fail" and self.counterexample is None:
            raise ValueError("failing reports must carry a counterexample")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def text_line(self) -> str:
        where = f" n={self.n}" if self.n is not None else ""
        line = f"{self.status.upper():>7} {self.claim_id}{where}: {self.details}"
        if self.counterexample is not None:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.counterexample.items()))
            line += f" [counterexample: {pairs}]"
        return line

    def json_dict(self) -> dict:
        out: dict = {
            "claim_id": self.claim_id,
            "n": self.n,
            "status": self.status,
            "details": self.details,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _passed(claim_id: str, n: Optional[int], details: str) -> VerificationReport:
    return VerificationReport(claim_id, n, "pass", details)


def _failed(claim_id: str, n: Optional[int], details: str, counterexample: dict) -> VerificationReport:
    return VerificationReport(claim_id, n, "fail", details, counterexample)


def _toggle_tables(n: int) -> Iterator[np.ndarray]:
    # the 0-based image table of each toggle on rank positions, k = 1..n.
    # The tables go straight from the bitmasks, not through the validating
    # Permutation constructor, so an entry may lie outside 0..f(n+2)-1 until
    # a check proves otherwise: intertwining compares it with a member's
    # entry, and coxeter-relations checks the range before squaring a table
    masks = unrank_masks(n)
    base = rank_masks(masks) - 1
    return (_toggle_table(k, masks, base) for k in range(1, n + 1))


def _no_table(claim: str, n: int, k: int) -> VerificationReport:
    # the report of a claim whose _toggle_tables ended before toggle k
    return _failed(claim, n, f"toggle at k={k} has no table", {"k": k})


def _first_out_of_range(table: np.ndarray, count: int) -> Optional[int]:
    # the first position of a 0-based table whose entry is not a position
    # 0..count-1, or None; a table in range costs one min and one max
    if table.min() >= 0 and table.max() < count:
        return None
    return int(np.flatnonzero((table < 0) | (table >= count))[0])


def verify_intertwining(n: int) -> VerificationReport:
    """rank(toggle_k(I)) == member_k(rank(I)) for every k and every I.

    Exhaustive over all f(n+2) independent sets and all n toggles: for each
    k the toggle's table of ranks is compared image by image with the
    member, and the first disagreement in k-then-rank order is the
    counterexample.  A member that agrees on every rank it has but acts on
    another degree fails with the two degrees.  The family's members are
    built one k at a time, as image tables.
    """
    claim = "intertwining"
    if n < 1:
        raise ValueError("n must be at least 1")
    count = fib(n + 2)
    tables = iter(_toggle_tables(n))
    for k in range(1, n + 1):
        table = next(tables, None)
        if table is None:
            return _no_table(claim, n, k)
        row = _member_row(k, n)
        got = row[:count]
        expected = table[: len(got)]
        mismatches = np.flatnonzero(expected != got)
        if mismatches.size:
            i = int(mismatches[0])
            return _failed(
                claim,
                n,
                f"toggle at k={k} disagrees with the family member",
                {
                    "k": k,
                    "set": format_set_text(unrank(n, i + 1)),
                    "index": i + 1,
                    "expected": int(expected[i]) + 1,
                    "got": int(got[i]) + 1,
                },
            )
        if len(row) != count:
            return _failed(
                claim,
                n,
                f"induced permutation differs from the family member at k={k}",
                {"k": k, "induced_degree": count, "member_degree": len(row)},
            )
    return _passed(
        claim, n,
        f"checked {n * count} toggle/rank pairs; induced permutations equal the members",
    )


def _family_chain(n: int, certificate: object, symmetric: bool) -> Optional[StabilizerChain]:
    # the family chain to read at size n: None when the family's Jordan
    # certificate proves A_f(n+2) (and has an odd generator, for S_f(n+2),
    # if symmetric)
    degree = fib(n + 2)
    if certificate is _UNSET:
        certificate = jordan_certificate(family(n), degree)
    if certificate is not None and (certificate.odd_generator or not symmetric):
        return None
    return build_chain(family(n), degree)


def verify_symmetric_generation(n: int, *, _certificate: object = _UNSET) -> VerificationReport:
    """The family at size n generates all of S_f(n+2).

    It passes on a Jordan certificate with an odd generator, else reads the
    family chain.  ``_certificate`` is the family's certificate when
    :func:`verify_all` has computed it already.
    """
    claim = "symmetric-generation"
    if n < 1:
        raise ValueError("n must be at least 1")
    degree = fib(n + 2)
    chain = _family_chain(n, _certificate, symmetric=True)
    if chain is None or chain.is_full_symmetric():
        return _passed(claim, n, f"group order is {degree}! = {math.factorial(degree)}")
    counter: dict = {"order": str(chain.order()), "expected": str(math.factorial(degree))}
    for i in range(1, degree):
        swap = Permutation.from_cycles([(i, i + 1)], degree)
        if not chain.contains(swap):
            counter["missing"] = format_cycles(swap)
            break
    return _failed(claim, n, "generated group is a proper subgroup", counter)


def verify_diagonal_generation(n: int) -> VerificationReport:
    """Check the claim that the reduced family generates exactly the
    diagonal copy of S_f(n).

    The claim holds only at n = 3.  From n = 4 on the members with
    k < n-2 move the middle block {f(n)+1..f(n+1)}, the generated group is
    diag(S_f(n)) x Sym(middle block) of order f(n)!*f(n-1)!, and the check
    fails with the first member that leaves the diagonal subgroup.  Unless
    the members generate the whole symmetric group, that is also the first
    such strong generator of their chain, whose first level starts from
    the non-identity members in order, so the report names the same
    element without building the chain.
    The claim is tested three ways: every member satisfies the diagonal
    membership conditions (so every element of the group does), the order
    is exactly f(n)!, and sampled diagonal elements all sift into the
    chain, which is only built once the members pass.
    """
    claim = "diagonal-generation"
    if n < 3:
        raise ValueError("n must be at least 3")
    degree = fib(n + 2)
    spec = DiagonalSubgroupSpec(n)
    inside = []
    # the reduced family one member at a time: from n = 4 on the first
    # member fails, and the family's rows are never all held
    for g in (generator(k, n) for k in _prime_family_ks(n)):
        if not spec.contains(g):
            return _failed(
                claim, n, "a strong generator leaves the diagonal subgroup",
                {"generator": format_cycles(g)},
            )
        inside.append(g)
    chain = build_chain(inside, degree)
    expected = math.factorial(fib(n))
    got = chain.order()
    if got != expected:
        return _failed(
            claim, n, f"order is not {fib(n)}!",
            {"order": str(got), "expected": str(expected)},
        )
    rng = random.Random(1000 + n)
    low = fib(n)
    for _ in range(_DIAGONAL_SAMPLES):
        images = list(range(1, low + 1))
        rng.shuffle(images)
        member = diagonal_embed(n, Permutation(images))
        if not chain.contains(member):
            return _failed(
                claim, n, "a diagonal element is missing from the group",
                {"element": format_cycles(member)},
            )
    return _passed(
        claim, n,
        f"order {fib(n)}! confirmed, strong generators diagonal, "
        f"{_DIAGONAL_SAMPLES} samples sift",
    )


def verify_three_cycles(n: int, *, _certificate: object = _UNSET) -> VerificationReport:
    """The generated group contains every consecutive 3-cycle (i,i+1,i+2).

    Any Jordan certificate passes it, as A_f(n+2) holds every 3-cycle.
    ``_certificate`` is as for :func:`verify_symmetric_generation`.
    """
    claim = "three-cycles"
    if n < 4:
        raise ValueError("n must be at least 4")
    chain = _family_chain(n, _certificate, symmetric=False)
    missing = None if chain is None else chain.first_missing_three_cycle()
    if missing is not None:
        return _failed(
            claim, n, "a consecutive 3-cycle is missing",
            {"cycle": format_cycles(missing)},
        )
    return _passed(claim, n, f"all {fib(n + 2) - 2} consecutive 3-cycles are members")


def verify_coxeter_relations(n: int) -> VerificationReport:
    """Toggle relations on ranks: involutions, distant pairs commute, and
    adjacent products have order dividing 6."""
    claim = "coxeter-relations"
    if n < 1:
        raise ValueError("n must be at least 1")
    # 0-based image tables, on which the table of p * q is p[q]; p[p] is
    # read only once p's entries are known to be positions
    tables = list(_toggle_tables(n))
    count = fib(n + 2)
    ident = np.arange(count)
    if len(tables) < n:
        return _no_table(claim, n, len(tables) + 1)
    for k in range(1, n + 1):
        p = tables[k - 1]
        in_range = p.shape == ident.shape and _first_out_of_range(p, count) is None
        if not in_range or (p[p] != ident).any():
            return _failed(claim, n, "a toggle is not an involution", {"k": k})
    for k in range(1, n + 1):
        for k2 in range(k + 2, n + 1):
            a, b = tables[k - 1], tables[k2 - 1]
            if (a[b] != b[a]).any():
                return _failed(
                    claim, n, "distant toggles do not commute", {"k": k, "k2": k2}
                )
    for k in range(1, n):
        ab = tables[k - 1][tables[k]]
        cube = ab[ab[ab]]
        if (cube[cube] != ident).any():
            return _failed(
                claim, n, "(toggle_k toggle_k+1)^6 is not the identity", {"k": k}
            )
    return _passed(claim, n, "involution, commutation and sixth-power relations hold")


def verify_count_and_transitivity(n: int) -> VerificationReport:
    """There are f(n+2) independent sets and the toggles connect them all."""
    claim = "count-transitivity"
    if n < 1:
        raise ValueError("n must be at least 1")
    masks = unrank_masks(n)
    expected = fib(n + 2)
    if len(masks) != expected:
        return _failed(
            claim, n, "independent-set count is off",
            {"count": len(masks), "expected": expected},
        )
    # the walk reads position i as the set of rank i+1, which holds when the
    # sets are independent and ranked 1..f(n+2) in order: each table entry
    # is then the position of the toggled set itself
    base = rank_masks(masks) - 1
    wrong = np.flatnonzero((base != np.arange(expected)) | ((masks & masks >> 1) != 0))
    if wrong.size:
        # sets in rank order are distinct, so only a failing enumeration
        # pays for the sort that tells a repeat
        if np.unique(masks).size != len(masks):
            return _failed(claim, n, "enumeration repeats a set", {"count": len(masks)})
        i = int(wrong[0])
        return _failed(
            claim, n, "enumeration is not the independent sets in rank order",
            {"index": i + 1, "rank": int(base[i]) + 1, "set": _mask_text(int(masks[i]))},
        )
    tables = [_toggle_table(k, masks, base) for k in range(1, n + 1)]
    for k, table in enumerate(tables, start=1):
        i = _first_out_of_range(table, expected)
        if i is not None:
            return _failed(
                claim, n, f"toggle at k={k} leaves the ranks 1..{expected}",
                {"k": k, "set": _mask_text(int(masks[i])), "image": int(table[i]) + 1},
            )
    # breadth-first search from the empty set (position 0) over positions,
    # a whole frontier per step, marking each reached position once
    seen = np.zeros(expected, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        before = seen.copy()
        for table in tables:
            seen[table[frontier]] = True
        frontier = np.flatnonzero(seen & ~before)
    reached = int(np.count_nonzero(seen))
    if reached != expected:
        missing = int(np.flatnonzero(~seen)[0]) + 1
        return _failed(
            claim, n, "toggles do not reach every independent set",
            {
                "reached": reached,
                "expected": expected,
                "missing": format_set_text(unrank(n, missing)),
            },
        )
    return _passed(claim, n, f"{expected} sets, all reachable from the empty set")


# the last member of each family is the block swap
_GOLDEN_FAMILIES = {
    1: ("(1,2)",),
    2: ("(1,2)", "(1,3)"),
    3: ("(1,2)(4,5)", "(1,3)", "(1,4)(2,5)"),
    4: ("(1,2)(4,5)(6,7)", "(1,3)(6,8)", "(1,4)(2,5)", "(1,6)(2,7)(3,8)"),
}

_GOLDEN_PRIME_FAMILIES = {
    3: ("(1,2)(4,5)",),
    4: ("(1,2)(4,5)(6,7)", "(1,3)(6,8)"),
}

_GOLDEN_INDEX_TABLES = {
    1: (("{}", 1), ("{1}", 2)),
    2: (("{}", 1), ("{1}", 2), ("{2}", 3)),
    3: (("{}", 1), ("{1}", 2), ("{2}", 3), ("{3}", 4), ("{1,3}", 5)),
    4: (
        ("{}", 1), ("{1}", 2), ("{2}", 3), ("{3}", 4),
        ("{1,3}", 5), ("{4}", 6), ("{1,4}", 7), ("{2,4}", 8),
    ),
}

# (n, k, set text, rank before, rank after) -- the full small-size traces
_GOLDEN_TOGGLE_TRACES = (
    (1, 1, "{}", 1, 2),
    (1, 1, "{1}", 2, 1),
    (2, 1, "{}", 1, 2),
    (2, 1, "{1}", 2, 1),
    (2, 1, "{2}", 3, 3),
    (2, 2, "{}", 1, 3),
    (2, 2, "{1}", 2, 2),
    (2, 2, "{2}", 3, 1),
)


def verify_golden_cases() -> VerificationReport:
    """The hand-computable small cases, byte-exact in canonical text."""
    claim = "golden-cases"
    for n, members in _GOLDEN_FAMILIES.items():
        expected, got = members[-1], format_cycles(block_swap(n))
        if got != expected:
            return _failed(
                claim, None, f"block swap at n={n} is off",
                {"n": n, "expected": expected, "got": got},
            )
    for what, build, goldens in (
        ("family", family, _GOLDEN_FAMILIES),
        ("reduced family", prime_family, _GOLDEN_PRIME_FAMILIES),
    ):
        for n, expected_members in goldens.items():
            got_members = tuple(format_cycles(t) for t in build(n))
            if got_members != expected_members:
                return _failed(
                    claim, None, f"{what} at n={n} is off",
                    {"n": n, "expected": list(expected_members), "got": list(got_members)},
                )
    for n, table in _GOLDEN_INDEX_TABLES.items():
        got_table = tuple(
            (_mask_text(mask), i + 1) for i, mask in enumerate(unrank_masks(n).tolist())
        )
        if got_table != table:
            return _failed(
                claim, None, f"rank table at n={n} is off",
                {"n": n, "expected": list(table), "got": list(got_table)},
            )
        for text, idx in table:
            if rank(n, unrank(n, idx)) != idx:
                return _failed(
                    claim, None, "rank does not invert unrank",
                    {"n": n, "index": idx},
                )
    for n, k, text, before, after in _GOLDEN_TOGGLE_TRACES:
        mask = unrank_masks(n)[before - 1 : before]
        if _mask_text(int(mask[0])) != text:
            return _failed(
                claim, None, "trace set does not sit at its rank",
                {"n": n, "set": text, "rank": before},
            )
        got_after = int(rank_masks(toggle_path_masks(k, mask))[0])
        t_after = generator(k, n).apply(before)
        if got_after != after or t_after != after:
            return _failed(
                claim, None, "small-size toggle trace mismatch",
                {
                    "n": n, "k": k, "set": text,
                    "expected": after, "toggled": got_after, "member": t_after,
                },
            )
    return _passed(claim, None, "block swaps, families, rank tables and traces all match")


def all_claim_ids() -> tuple[str, ...]:
    return (
        "count-transitivity",
        "coxeter-relations",
        "diagonal-generation",
        "golden-cases",
        "intertwining",
        "symmetric-generation",
        "three-cycles",
    )


def verify_all(
    max_n: int,
    profile: str = "quick",
    claims: Optional[Sequence[str]] = None,
) -> list[VerificationReport]:
    """Run every applicable verifier for each n up to max_n.

    The quick profile bounds exhaustive enumerations at f(n+2) <= 1000 and
    stabilizer chains at degree 55; the full profile raises those to 10^6
    and 377.  Checks beyond a bound report ``skipped``.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    if claims is not None:
        unknown = set(claims) - set(all_claim_ids())
        if unknown:
            raise ValueError(f"unknown claim ids: {sorted(unknown)}")
    enum_cap = QUICK_ENUMERATION_CAP if profile == "quick" else FULL_ENUMERATION_CAP
    chain_cap = QUICK_CHAIN_DEGREE_CAP if profile == "quick" else FULL_CHAIN_DEGREE_CAP

    def wanted(claim_id: str) -> bool:
        return claims is None or claim_id in claims

    def run(claim_id: str, cap: int, bound: str, verify) -> None:
        # at the loop's current n: run a wanted claim, or report it skipped
        # past the profile's bound.  Each verifier is looked up when its
        # lambda runs, so a module name rebound after import (by a tracer,
        # say) is the one called
        if wanted(claim_id):
            reports.append(verify() if degree <= cap else VerificationReport(
                claim_id, n, "skipped", f"degree {degree} exceeds the {profile} {bound} bound {cap}"
            ))

    reports: list[VerificationReport] = []
    if wanted("golden-cases"):
        reports.append(verify_golden_cases())
    for n in range(1, max_n + 1):
        degree = fib(n + 2)
        certificate = _UNSET
        if degree <= chain_cap and (wanted("symmetric-generation") or wanted("three-cycles")):
            # one walk per n, read by both giant claims
            certificate = jordan_certificate(family(n), degree)
        run("intertwining", enum_cap, "enumeration", lambda: verify_intertwining(n))
        run("coxeter-relations", enum_cap, "enumeration", lambda: verify_coxeter_relations(n))
        run("count-transitivity", enum_cap, "enumeration",
            lambda: verify_count_and_transitivity(n))
        run("symmetric-generation", chain_cap, "chain",
            lambda: verify_symmetric_generation(n, _certificate=certificate))
        if n >= 3:
            run("diagonal-generation", chain_cap, "chain", lambda: verify_diagonal_generation(n))
        if n >= 4:
            run("three-cycles", chain_cap, "chain",
                lambda: verify_three_cycles(n, _certificate=certificate))
    reports.sort(key=lambda r: (r.claim_id, r.n if r.n is not None else 0))
    return reports
