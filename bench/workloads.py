"""The four benchmark workloads and the answer checks behind ``failed``.

Each workload calls the package through its public API and times each of
those calls, and nothing else.  Every answer is checked
against :mod:`oracle`: a CLI reply, a chain's order, a membership verdict,
or one report of a ``verify_all`` call.  An answer that is missing because
its call raised, or that the oracle rejects, counts as failed; the workload
carries on.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns
from typing import Callable

import togglegroup as tg
from togglegroup import cli

import oracle

PATH_SWEEP_CLAIMS = ["golden-cases", "intertwining", "coxeter-relations", "count-transitivity"]
CHAIN_GIANT_CLAIMS = ["symmetric-generation", "three-cycles"]

SUBGROUP_SIZES = range(4, 11)
SUBGROUP_SAMPLES = 20
CLI_REQUESTS = 2000

_RAISED = object()


class Run:
    """Per-call start times and latencies, and the answers attempted and failed."""

    def __init__(self) -> None:
        self.starts_ns: list[int] = []
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, label: str, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def op(self, label: str, fn: Callable, *args, answers: int = 1):
        """One timed call whose reply holds ``answers`` answers to check;
        returns the reply, or _RAISED."""
        self.attempted += answers
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        except Exception as exc:  # the reply is missing: its answers failed
            self.fail(label, f"raised {exc!r}", answers)
            return _RAISED
        finally:
            self.latencies_ns.append(perf_counter_ns() - t0)
            self.starts_ns.append(t0)

    def expect(self, label: str, ok: bool, why: str) -> None:
        if not ok:
            self.fail(label, why)

    def verify(self, max_n: int, claims: list[str]) -> None:
        """One verify_all request; each report it should return is one answer."""
        expected = oracle.expected_reports(max_n, claims)
        reports = self.op(
            f"verify_all({max_n}, {claims})", tg.verify_all, max_n, "full", claims,
            answers=len(expected),
        )
        if reports is _RAISED:
            return
        for r in reports:
            key = (r.claim_id, r.n)
            status = expected.pop(key, None)
            if status is None:
                self.attempted += 1
                self.fail("verify_all", f"unexpected report {key}")
            else:
                self.expect(f"{key}", _report_ok(r, status), f"{r.status}: {r.details}")
        for key in expected:
            self.fail("verify_all", f"missing report {key}")


def _report_ok(report, status: str) -> bool:
    if report.status != status:
        return False
    if status == "fail":
        # the counterexample must really leave the diagonal subgroup
        n = report.n
        text = (report.counterexample or {}).get("generator")
        return text is not None and not oracle.is_diagonal(
            n, oracle.parse_cycle_text(text, oracle.fib(n + 2))
        )
    if report.claim_id == "symmetric-generation":
        return report.details.endswith(f" = {oracle.family_order(report.n)}")
    return True


def path_sweep(rng: random.Random, run: Run) -> dict:
    run.verify(18, PATH_SWEEP_CLAIMS)
    return {"max_n": 18, "claims": PATH_SWEEP_CLAIMS, "max_sets": oracle.fib(20)}


def chain_giant(rng: random.Random, run: Run) -> dict:
    run.verify(12, CHAIN_GIANT_CLAIMS)
    return {"max_n": 12, "claims": CHAIN_GIANT_CLAIMS, "max_degree": oracle.fib(14)}


def chain_subgroup(rng: random.Random, run: Run) -> dict:
    for n in SUBGROUP_SIZES:
        degree, low, middle_end = oracle.fib(n + 2), oracle.fib(n), oracle.fib(n + 1)

        def build() -> tuple:
            chain = tg.build_chain(list(tg.prime_family(n)), degree)
            return chain, chain.order()

        label = f"reduced family n={n}"
        built = run.op(label, build)
        if built is _RAISED:
            run.attempted += 2 * SUBGROUP_SAMPLES
            run.fail(label, "no chain to read", 2 * SUBGROUP_SAMPLES)
            continue
        chain, order = built
        run.expect(label, order == oracle.reduced_family_order(n), f"order {order}")
        for _ in range(SUBGROUP_SAMPLES):
            images = rng.sample(range(1, low + 1), low)
            label = f"diagonal member n={n} {images}"
            got = run.op(label, _embed_and_sift, chain, n, images)
            if got is not _RAISED:
                member, inside = got
                run.expect(
                    label,
                    inside and list(member.images) == oracle.diagonal_images(n, images),
                    f"sifted {inside}, images {member.images}",
                )
        for _ in range(SUBGROUP_SAMPLES):
            a, b = rng.randint(1, low), rng.randint(low + 1, middle_end)
            label = f"transposition n={n} ({a},{b})"
            inside = run.op(label, _sift_transposition, chain, degree, a, b)
            if inside is not _RAISED:
                run.expect(label, inside is False, "a block-mixing transposition sifted")
    run.verify(10, ["diagonal-generation"])
    return {
        "sizes": [SUBGROUP_SIZES.start, SUBGROUP_SIZES.stop - 1],
        "samples": SUBGROUP_SAMPLES,
        "verify_max_n": 10,
    }


def _embed_and_sift(chain, n: int, images: list[int]) -> tuple:
    member = tg.diagonal_embed(n, tg.Permutation(images))
    return member, chain.contains(member)


def _sift_transposition(chain, degree: int, a: int, b: int) -> bool:
    return chain.contains(tg.Permutation.from_cycles([(a, b)], degree))


def _random_set(rng: random.Random, n: int) -> frozenset[int]:
    return oracle.unrank(n, rng.randint(1, oracle.fib(n + 2)))


def cli_request(rng: random.Random) -> tuple[list[str], list[str]]:
    """A seeded CLI request and the lines of text the oracle expects.

    The seven commands are equally likely, n is uniform over each command's
    range, and every request uses the default options and text output.
    """
    command = rng.choice(
        ["index", "unindex", "toggle", "toggle-perm", "generators", "hat-t", "order"]
    )
    if command in ("index", "unindex", "toggle"):
        n = rng.randint(1, 60)
    elif command in ("toggle-perm", "generators"):
        n = rng.randint(1, 10)
    elif command == "hat-t":
        n = rng.randint(1, 15)
    else:
        n = rng.randint(1, 6)
    argv = [command, "--n", str(n)]
    if command == "index":
        members = _random_set(rng, n)
        argv += ["--set", oracle.set_text(members)]
        answer = [str(oracle.rank(members))]
    elif command == "unindex":
        idx = rng.randint(1, oracle.fib(n + 2))
        argv += ["--idx", str(idx)]
        answer = [oracle.set_text(oracle.unrank(n, idx))]
    elif command == "toggle":
        k, members = rng.randint(1, n), _random_set(rng, n)
        argv += ["--k", str(k), "--set", oracle.set_text(members)]
        answer = [oracle.set_text(oracle.toggle(k, members))]
    elif command == "toggle-perm":
        k = rng.randint(1, n)
        argv += ["--k", str(k)]
        answer = [oracle.cycle_text(oracle.toggle_images(n, k))]
    elif command == "generators":
        # the family members are the toggle-induced permutations
        answer = [oracle.cycle_text(oracle.toggle_images(n, k)) for k in range(1, n + 1)]
    elif command == "hat-t":
        answer = [oracle.cycle_text(oracle.block_swap_images(n))]
    else:
        answer = [str(oracle.family_order(n))]
    return argv, answer


def cli_queries(rng: random.Random, run: Run) -> dict:
    requests = [cli_request(rng) for _ in range(CLI_REQUESTS)]
    for argv, want in requests:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run.op(" ".join(argv), cli.main, argv)
        if code is _RAISED:
            continue
        got = out.getvalue().splitlines()
        run.expect(
            " ".join(argv),
            code == 0 and got == want and not err.getvalue(),
            f"exit {code}, stdout {out.getvalue()[:200]!r}, stderr {err.getvalue()[:200]!r}",
        )
    return {"requests": CLI_REQUESTS}


WORKLOADS = {
    "path-sweep": path_sweep,
    "chain-giant": chain_giant,
    "chain-subgroup": chain_subgroup,
    "cli-queries": cli_queries,
}
