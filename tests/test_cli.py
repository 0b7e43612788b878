import argparse
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import togglegroup
from togglegroup import cli, fib, format_cycles, generator
from togglegroup.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_rank_order_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "1 {}", "2 {1}", "3 {2}", "4 {3}",
            "5 {1,3}", "6 {4}", "7 {1,4}", "8 {2,4}",
        ]

    def test_json_round_trips_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows == [
            {"index": 1, "set": "{}"},
            {"index": 2, "set": "{1}"},
            {"index": 3, "set": "{2}"},
            {"index": 4, "set": "{3}"},
            {"index": 5, "set": "{1,3}"},
        ]

    def test_resource_bound(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "40")
        assert code == EXIT_RESOURCE
        assert "resource bound" in err

    @pytest.mark.parametrize("n", range(1, 13))
    def test_json_is_the_compact_sorted_dump(self, capsys, n):
        # the rows are written a slice at a time, in the bytes the whole
        # listing's dump would give
        rows = [
            {"index": i, "set": togglegroup.format_set_text(s)}
            for i, s in enumerate(togglegroup.enumerate_independent_sets(n), start=1)
        ]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        got = run(capsys, "enumerate", "--n", str(n), "--format", "json")
        assert got == (EXIT_OK, text + "\n", "")

    @pytest.mark.parametrize("n, code", [("0", EXIT_USAGE), ("40", EXIT_RESOURCE)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rejected_n_prints_nothing(self, capsys, n, code, fmt):
        # the request is checked before the first byte is written
        got, out, err = run(capsys, "enumerate", "--n", n, "--format", fmt)
        assert (got, out) == (code, "")
        assert err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rows_are_printed_as_each_set_is_formatted(self, monkeypatch, fmt):
        # in text, when the set of rank j is formatted the j-1 rows before it
        # are printed already; in JSON, every whole slice before its own
        out = io.StringIO()
        printed = []
        real_mask_text = cli._mask_text

        def recording_mask_text(mask):
            printed.append(out.getvalue())
            return real_mask_text(mask)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "_mask_text", recording_mask_text)
        monkeypatch.setattr(cli, "_ENUMERATE_SLICE", 3)
        assert main(["enumerate", "--n", "5", "--format", fmt]) == EXIT_OK
        sets = [togglegroup.format_set_text(s) for s in togglegroup.enumerate_independent_sets(5)]
        if fmt == "text":
            lines = [f"{i} {text}\n" for i, text in enumerate(sets, start=1)]
            expected = ["".join(lines[:j]) for j in range(13)]
        else:
            rows = [
                json.dumps({"index": i, "set": text}, separators=(",", ":"))
                for i, text in enumerate(sets, start=1)
            ]
            expected = ["[" + ",".join(rows[: j - j % 3]) for j in range(13)]
        assert printed == expected


class TestIndexing:
    def test_index(self, capsys):
        code, out, _ = run(capsys, "index", "--n", "4", "--set", "{1,4}")
        assert code == EXIT_OK
        assert out == "7\n"

    def test_unindex(self, capsys):
        code, out, _ = run(capsys, "unindex", "--n", "4", "--idx", "6")
        assert code == EXIT_OK
        assert out == "{4}\n"

    def test_index_json(self, capsys):
        code, out, _ = run(capsys, "index", "--n", "4", "--set", "{1,4}", "--format", "json")
        assert json.loads(out) == {"index": 7}

    def test_bad_set_text_is_usage_error(self, capsys):
        code, _, err = run(capsys, "index", "--n", "4", "--set", "{4,1}")
        assert code == EXIT_USAGE
        assert err

    def test_dependent_set_rejected(self, capsys):
        code, _, _ = run(capsys, "index", "--n", "4", "--set", "{1,2}")
        assert code == EXIT_USAGE

    def test_idx_out_of_range(self, capsys):
        code, _, _ = run(capsys, "unindex", "--n", "3", "--idx", "6")
        assert code == EXIT_USAGE

    def test_n_at_the_fibonacci_ceiling_is_ranked(self, capsys):
        # f(64) is the last Fibonacci number the package computes
        assert run(capsys, "index", "--n", "62", "--set", "{}") == (EXIT_OK, "1\n", "")

    def test_n_past_the_fibonacci_ceiling_is_a_resource_bound(self, capsys):
        assert run(capsys, "index", "--n", "63", "--set", "{}") == (
            EXIT_RESOURCE, "", "resource bound: Fibonacci index 65 exceeds ceiling 64\n"
        )


class TestToggle:
    def test_add(self, capsys):
        code, out, _ = run(capsys, "toggle", "--n", "4", "--k", "4", "--set", "{2}")
        assert code == EXIT_OK
        assert out == "{2,4}\n"

    def test_blocked(self, capsys):
        code, out, _ = run(capsys, "toggle", "--n", "2", "--k", "1", "--set", "{2}")
        assert out == "{2}\n"

    def test_k_out_of_range(self, capsys):
        code, _, _ = run(capsys, "toggle", "--n", "2", "--k", "5", "--set", "{}")
        assert code == EXIT_USAGE

    def test_set_is_checked_as_index_checks_it(self, capsys):
        message = "error: vertex 5 out of range for path on 1..3\n"
        assert run(capsys, "index", "--n", "3", "--set", "{5}") == (EXIT_USAGE, "", message)
        assert run(capsys, "toggle", "--n", "3", "--k", "1", "--set", "{5}") == (
            EXIT_USAGE, "", message
        )


class TestGenerators:
    def test_family_listing(self, capsys):
        code, out, _ = run(capsys, "generators", "--n", "3")
        assert code == EXIT_OK
        assert out.splitlines() == ["(1,2)(4,5)", "(1,3)", "(1,4)(2,5)"]

    def test_prime_listing(self, capsys):
        code, out, _ = run(capsys, "generators", "--n", "4", "--prime")
        assert out.splitlines() == ["(1,2)(4,5)(6,7)", "(1,3)(6,8)"]

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "generators", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["degree"] == 5
        assert payload["members"] == ["(1,2)(4,5)", "(1,3)", "(1,4)(2,5)"]

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("prime", [False, True])
    def test_json_is_the_compact_sorted_dump(self, capsys, n, prime):
        # the members are written one at a time, in the bytes the whole
        # payload's dump would give; a reduced family below n = 3 prints nothing
        argv = ["generators", "--n", str(n), "--format", "json"] + ["--prime"] * prime
        if prime and n < 3:
            expected = (EXIT_USAGE, "", "error: the reduced family needs n >= 3\n")
        else:
            members = togglegroup.prime_family(n) if prime else togglegroup.family(n)
            payload = {
                "n": n, "degree": fib(n + 2), "prime": prime,
                "members": [format_cycles(g) for g in members],
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            expected = (EXIT_OK, text + "\n", "")
        assert run(capsys, *argv) == expected

    def test_json_is_printed_as_each_member_is_formatted(self, monkeypatch):
        # when member k is built, the payload's head and the k-1 members
        # before it are printed already
        out = io.StringIO()
        printed = []
        real_generator = cli.generator

        def recording_generator(k, n):
            printed.append(out.getvalue())
            return real_generator(k, n)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "generator", recording_generator)
        assert main(["generators", "--n", "6", "--format", "json"]) == EXIT_OK
        members = [json.dumps(format_cycles(g)) for g in togglegroup.family(6)]
        head = '{"degree":21,"members":['
        assert printed == [head + ",".join(members[:k]) for k in range(6)]

    def test_block_swap_command(self, capsys):
        code, out, _ = run(capsys, "hat-t", "--n", "4")
        assert out == "(1,6)(2,7)(3,8)\n"

    def test_toggle_perm_command(self, capsys):
        code, out, _ = run(capsys, "toggle-perm", "--n", "2", "--k", "2")
        assert out == "(1,3)\n"

    @pytest.mark.parametrize("n", ["-1", "0", "1", "2"])
    def test_prime_listing_needs_n_at_least_3(self, capsys, n):
        assert run(capsys, "generators", "--n", n, "--prime") == (
            EXIT_USAGE, "", "error: the reduced family needs n >= 3\n"
        )

    @pytest.mark.parametrize("prime, count", [((), 9), (("--prime",), 7)])
    def test_listing_builds_one_member_at_a_time(self, capsys, monkeypatch, prime, count):
        # the whole family is never held: each member is built by the
        # generator, formatted and dropped
        from togglegroup import cli

        def whole_family(n):
            raise AssertionError("the whole family was built")

        built = []
        real_generator = cli.generator

        def counting_generator(k, n):
            built.append(k)
            return real_generator(k, n)

        monkeypatch.setattr(cli, "family", whole_family)
        monkeypatch.setattr(cli, "prime_family", whole_family)
        monkeypatch.setattr(cli, "generator", counting_generator)
        code, out, _ = run(capsys, "generators", "--n", "9", *prime)
        assert code == EXIT_OK
        assert built == list(range(1, count + 1))
        assert out.splitlines() == [format_cycles(generator(k, 9)) for k in built]

    def test_text_is_printed_as_each_member_is_formatted(self, monkeypatch):
        # when member k is built, the k-1 members before it are printed
        # already; no member's text waits for the others
        out = io.StringIO()
        printed = []
        real_generator = cli.generator

        def counting_generator(k, n):
            printed.append(out.getvalue().count("\n"))
            return real_generator(k, n)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "generator", counting_generator)
        assert main(["generators", "--n", "6"]) == EXIT_OK
        assert printed == [0, 1, 2, 3, 4, 5]
        assert out.getvalue().splitlines() == [format_cycles(g) for g in togglegroup.family(6)]


# SHA-256 over json.dumps([exit code, stdout, stderr]) of each command line
# in turn, taken before the cycle text was written in one pass
CYCLE_TEXT_PINS = (
    ("hat-t --n {}", range(1, 19), "fcc33cc8cb753e907a249537793bf242cb53e9993d7e3ff80c6d197dc83a871e"),
    ("generators --n {}", range(1, 13), "53ceb83f91eb0c8d6a7396a86084f80622faa6f598de4cb3cb3689c74d16d981"),
    ("generators --prime --n {}", range(3, 13), "2ae3fd48ce040c76fe8bde683f0565eeb63de3c3165c1e7b76d60c6ead8aff1a"),
    ("toggle-perm --n 10 --k {}", range(1, 11), "4c6a5717b835923b293f35198b34f279552fba66a685987b8c56da36024f0866"),
)


class TestCycleTextPins:
    @pytest.mark.parametrize(
        "command, values, digest", CYCLE_TEXT_PINS, ids=[c for c, _, _ in CYCLE_TEXT_PINS]
    )
    def test_output_is_unchanged(self, capsys, command, values, digest):
        h = hashlib.sha256()
        for value in values:
            h.update(json.dumps(list(run(capsys, *command.format(value).split()))).encode())
        assert h.hexdigest() == digest


class TestOrder:
    def test_family_order(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "4")
        assert code == EXIT_OK
        assert out == "40320\n"

    def test_prime_order(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "3", "--prime")
        assert out == "2\n"

    def test_toggles_order_matches_family(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "5", "--toggles")
        assert out == "6227020800\n"  # 13!

    def test_order_as_json_string(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "4", "--format", "json")
        assert json.loads(out) == {"order": "40320"}

    @pytest.mark.parametrize("n", ["-1", "0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("order",),
            ("order", "--toggles"),
            ("generators",),
            ("enumerate",),
            ("hat-t",),
            ("index", "--set", "{}"),
            ("unindex", "--idx", "1"),
            ("toggle", "--k", "1", "--set", "{}"),
            ("toggle-perm", "--k", "1"),
        ],
    )
    def test_n_below_one_is_usage_error(self, capsys, argv, n):
        assert run(capsys, *argv, "--n", n) == (EXIT_USAGE, "", "error: n must be at least 1\n")

    def test_prime_and_toggles_exclusive(self, capsys):
        code, _, _ = run(capsys, "order", "--n", "4", "--prime", "--toggles")
        assert code == EXIT_USAGE

    def test_family_order_reads_the_certificate(self, capsys, monkeypatch):
        # the Jordan certificate proves S_377 with no chain; the reduced
        # family at n = 4 has orbits of degrees 3 and 2, with no prime in
        # range, so its order still comes from the chain
        from togglegroup import cli

        built = []
        real_build = cli.build_chain

        def counting_build(generators, degree):
            built.append(degree)
            return real_build(generators, degree)

        monkeypatch.setattr(cli, "build_chain", counting_build)
        assert run(capsys, "order", "--n", "12") == (EXIT_OK, f"{math.factorial(377)}\n", "")
        assert built == []
        assert run(capsys, "order", "--n", "4", "--prime") == (EXIT_OK, "12\n", "")
        assert built == [8]

    def test_reduced_family_order_is_proved_without_a_chain(self, capsys, monkeypatch):
        # the low and top blocks act alike, as S_89, the middle block as
        # S_55, and the sign pairs span both factors' signs
        from togglegroup import cli

        def no_chain(generators, degree):
            raise AssertionError("no chain is needed")

        monkeypatch.setattr(cli, "build_chain", no_chain)
        expected = math.factorial(89) * math.factorial(55)
        assert run(capsys, "order", "--n", "11", "--prime") == (EXIT_OK, f"{expected}\n", "")


class TestVerify:
    def test_quick_run_reports_and_fails_on_known_defect(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--profile", "quick")
        # the reduced family at n=4 genuinely overshoots its target subgroup
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL diagonal-generation n=4" in out
        assert out.strip().splitlines()[-1] == "19 passed, 1 failed, 0 skipped"

    def test_all_green_below_the_defect(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--profile", "quick")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_quick_run_with_skips_exits_clean(self, capsys):
        # only the full profile promises completeness; a quick skip is no failure
        code, out, _ = run(capsys, "verify", "--max-n", "10", "--claim", "three-cycles")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "5 passed, 0 failed, 2 skipped"

    def test_full_run_without_skips_exits_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--profile", "full")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "14 passed, 0 failed, 0 skipped"

    def test_max_n_at_the_fibonacci_ceiling_is_accepted(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "62", "--claim", "golden-cases")
        assert (code, err) == (EXIT_OK, "")
        assert out.strip().splitlines()[-1] == "1 passed, 0 failed, 0 skipped"

    def test_max_n_past_the_fibonacci_ceiling_is_a_resource_bound(self, capsys):
        assert run(capsys, "verify", "--max-n", "63") == (
            EXIT_RESOURCE, "", "resource bound: max-n 63 exceeds the Fibonacci ceiling\n"
        )

    def test_claim_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--claim", "intertwining")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 7  # six reports plus the summary
        assert all("intertwining" in line for line in lines[:-1])

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "verify", "--max-n", "3", "--claim", "bogus")
        assert code == EXIT_USAGE
        assert "valid" in err

    def test_empty_claim_is_unknown(self, capsys):
        # an empty --claim names no claim; it does not stand for every claim
        code, out, err = run(capsys, "verify", "--max-n", "3", "--claim", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("unknown claim ''; valid: ")

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert all(r["status"] == "pass" for r in payload["reports"])

    def test_full_profile_with_skips_reports_resource_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "13", "--profile", "full",
            "--claim", "symmetric-generation",
        )
        # degree 610 exceeds the full chain bound, so n=13 skips
        assert code == EXIT_RESOURCE
        assert "SKIPPED symmetric-generation n=13" in out


class TestUsageAndDeterminism:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(capsys, "enumerate", "--n", "3", "--bogus")[0] == EXIT_USAGE

    def test_non_integer_n(self, capsys):
        assert run(capsys, "enumerate", "--n", "x")[0] == EXIT_USAGE

    def test_zero_n(self, capsys):
        assert run(capsys, "enumerate", "--n", "0")[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("toggle", "--n", "4", "--k", "٤", "--set", "{2}"),
            ("verify", "--max-n", "３"),
            ("hat-t", "--n", "+4"),
            ("hat-t", "--n", " 4"),
            ("unindex", "--n", "٣", "--idx", "1_0"),
            ("unindex", "--n", "3", "--idx", "1_0"),
        ],
    )
    def test_integers_are_ascii_digits(self, capsys, argv):
        # int() would read each of these; the options take ASCII digits only
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "invalid int value" in err

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "verify", "--max-n", "3", "--format", "json")
        second = run(capsys, "verify", "--max-n", "3", "--format", "json")
        assert first == second
        third = run(capsys, "enumerate", "--n", "6")
        fourth = run(capsys, "enumerate", "--n", "6")
        assert third == fourth

    def test_quick_verify_is_quick(self, capsys):
        import time

        start = time.perf_counter()
        code, _, _ = run(capsys, "verify", "--max-n", "4", "--profile", "quick")
        assert time.perf_counter() - start < 5.0
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL)


def fresh_process(*argv):
    """The same command line in a new interpreter."""
    src = str(Path(togglegroup.__file__).resolve().parent.parent)
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "togglegroup.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


class TestParserReuse:
    """main parses with one parser per process; a call must not see what an
    earlier call in the same process did."""

    def test_usage_error_then_valid_call(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        bad = ("order", "--n", "x")
        good = ("index", "--n", "4", "--set", "{1,4}")
        in_process = [run(capsys, *bad), run(capsys, *good)]
        assert in_process[0][0] == EXIT_USAGE
        assert in_process[1] == (EXIT_OK, "7\n", "")
        assert in_process == [fresh_process(*bad), fresh_process(*good)]

    @pytest.mark.parametrize("argv", [("--help",), ("order", "--help")])
    def test_help_is_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        first = run(capsys, *argv)
        assert first[0] == EXIT_OK and first[1]
        assert run(capsys, *argv) == first
        assert fresh_process(*argv) == first


# Well-formed requests: the command's own parser reads them
WELL_FORMED_ARGVS = (
    ("enumerate", "--n", "4"),
    ("index", "--n", "40", "--set", "{1,3,17}"),
    ("unindex", "--n", "6", "--idx", "11"),
    ("toggle", "--n", "6", "--k", "3", "--set", "{1,5}"),
    ("generators", "--n", "4"),
    ("generators", "--n", "4", "--prime", "--format", "json"),
    ("hat-t", "--n", "3"),
    ("toggle-perm", "--n", "5", "--k", "2"),
    ("order", "--n", "4"),
    ("order", "--n", "4", "--toggles"),
    ("order", "--n", "5", "--prime"),
    ("order", "--n", "-1"),
    ("verify", "--max-n", "3", "--format", "json"),
    ("verify", "--max-n", "3", "--profile", "quick", "--claim", "intertwining"),
    ("order", "--n=3"),
    ("index", "--set={1,4}", "--n=4"),
    ("order", "--n", "3", "--pri"),
    ("verify", "--max", "3", "--cl", "golden-cases"),
    ("order", "--n", "3", "--n", "4"),
    ("index", "--n", "4", "--set", "{1}", "--set", "{1,4}"),
    ("order", "--n", "3", "--format", "text", "--format", "json"),
    ("generators", "--format", "json", "--n", "3"),
    ("verify", "--max-n", "2", "--claim", "bogus"),
)

# requests that end in the top-level parser's usage, help or error, or in
# a command parser's
MALFORMED_ARGVS = (
    (),
    ("--help",),
    ("-h",),
    ("order", "--help"),
    ("order", "--help", "--n", "x"),
    ("order", "--n", "3", "-h"),
    ("order", "--n", "3", "--bogus"),
    ("order", "--n", "3", "extra"),
    ("enumerate", "--n", "3", "--prime"),
    ("order", "--n"),
    ("order",),
    ("index", "--n", "4"),
    ("order", "--n", "x"),
    ("toggle", "--n", "4", "--k", "٤", "--set", "{2}"),
    ("--", "order", "--n", "3"),
    ("order", "--", "--n", "3"),
    ("order", "--n", "3", "--"),
    ("bogus", "--n", "3"),
    ("ord", "--n", "3"),
    ("--format", "json", "order", "--n", "3"),
    ("--n", "3", "order"),
    ("order", "--n", "3", "--prime", "--toggles"),
    ("verify", "--max-n", "3", "--profile", "slow"),
    ("verify", "--max-n", "2", "--claim"),
    ("order", "--n", "3", "order", "--n", "4"),
)


def full_parse(argv):
    """The route every request took before: one parse by a fresh top-level
    parser, which picks the command's parser and hands it the rest."""
    return build_parser().parse_args(argv)


class TestDispatch:
    """A request that starts with a command name is parsed by that
    command's parser alone; what it prints and returns is what the full
    parse gives."""

    @pytest.mark.parametrize(
        "argv", WELL_FORMED_ARGVS + MALFORMED_ARGVS, ids=lambda argv: " ".join(argv) or "(none)"
    )
    def test_same_result_as_the_full_parse(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "_parse", full_parse)
        assert run(capsys, *argv) == got

    @pytest.mark.parametrize("argv", WELL_FORMED_ARGVS, ids=" ".join)
    def test_same_namespace_as_the_full_parse(self, argv):
        assert cli._parse(list(argv)) == full_parse(list(argv))

    def test_well_formed_requests_skip_the_top_level_parse(self, capsys, monkeypatch):
        real_parse_args = argparse.ArgumentParser.parse_args

        def parse_args(parser, *args, **kwargs):
            if parser.prog == "togglegroup":
                raise AssertionError("the top-level parser parsed a well-formed request")
            return real_parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        assert run(capsys, "index", "--n", "4", "--set", "{1,4}") == (EXIT_OK, "7\n", "")
        assert run(capsys, "order", "--n", "4") == (EXIT_OK, "40320\n", "")
        assert run(capsys, "generators", "--n", "3") == (
            EXIT_OK, "(1,2)(4,5)\n(1,3)\n(1,4)(2,5)\n", ""
        )

    def test_leftovers_are_reported_by_the_top_level_parser(self, capsys):
        code, out, err = run(capsys, "order", "--n", "3", "--bogus")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == "togglegroup: error: unrecognized arguments: --bogus"


# SHA-256 of json.dumps([exit code, stdout, stderr]) for each command line,
# taken when the pins were added.  A mismatch is an output change: the
# text, the JSON or the exit code differs from what was printed before.
OUTPUT_PINS = (
    ("verify --max-n 12 --profile full", 1, "8566e6fd033342619ec0dc14b2d821e12a337813ff73f12f9f689342a7d4c8da"),
    ("verify --max-n 10 --profile full --format json", 1, "d9498a0b6ec7314e747387dc3911bc42680ba3c1c28103c191c36e74060287b4"),
    ("verify --max-n 4", 1, "f148c4ac36d3e4387b527d5545074395f0bde7a158216b73edfcc8c015d28cab"),
    ("verify --max-n 4 --format json", 1, "cb3316c05f9836c72e61613e68e7368b115b1018847471b6f79534fe5c5f7dee"),
    ("enumerate --n 5", 0, "effb33b24c4f91ab40ff53b63c8345f256ffa09aa4352c23b5e5c63b89b1cff7"),
    ("enumerate --n 5 --format json", 0, "139fbf371aee2d23408b7cb1df889531de7044bd3284fb2faeb1e22a00a8a361"),
    ("index --n 6 --set {1,3,6}", 0, "599c374f3b906b39ffa0a02c441cb595d9ed3466209dced059ebc1be81557374"),
    ("index --n 6 --set {1,3,6} --format json", 0, "acf8772000730f285fd3ee0be035fc7eb2ad846a7eb1d240bfc2be6a7f2d0218"),
    ("unindex --n 6 --idx 11", 0, "1fc74a9a41d270b0063643de8f97a3bd52e1d25c6be91b037fe1f5fc2cca40a2"),
    ("unindex --n 6 --idx 11 --format json", 0, "abd67529fa141e416b49dd460d1d2f60753b58902bb9048f9f39bc78777a60b5"),
    ("toggle --n 6 --k 3 --set {1,5}", 0, "69afeeb87de30a2699cb238c96080c34a612994738a19f4c004480e8460efb38"),
    ("toggle --n 6 --k 3 --set {1,5} --format json", 0, "7753f26d49eda2cf3a17250ee93a0b57e34508136f54bbc7935db09a0e1937cf"),
    ("generators --n 5", 0, "08abb484c5a100cd440d707a6a8363891c9da9ee26ffdd46d1290366fb83c5b4"),
    ("generators --n 5 --format json", 0, "5cba92c6cc54b8f7aaccfcb38ec4f968851daa9619b8fcdd8249e6a853055874"),
    ("generators --n 5 --prime", 0, "aec3d4d5c89ec6ee23336f6c75e6d65d6c589ac1fa37fd04bc1a5880ebd8a83f"),
    ("generators --n 5 --prime --format json", 0, "a22454981e3550245527729c1f47130a7b540cfce45b43d5963bb607e405390d"),
    ("hat-t --n 5", 0, "e72ce48b5ca2273754bf07fec8c450adc7850c02dbbf6a9d1b865e9b5b6ae962"),
    ("hat-t --n 5 --format json", 0, "35dfcf6d61cd4d114582ba118dbcc212d3468564731708ff5e3d2d101d0fd6fe"),
    ("toggle-perm --n 5 --k 2", 0, "c3a32491bea5f6b5ff1dab4ef4ad73d671d11df0c18406c3d35dd7eada13aa9b"),
    ("toggle-perm --n 5 --k 2 --format json", 0, "24f74ed402a3a6f7553a092b5fc6729919b25d9e106338947625f2bb31fefbeb"),
    ("order --n 0", 2, "61031727cce6a3e7d18f732bd0a561406635d201a5d79c0a6298fc92de71308c"),
    ("order --n 0 --prime", 2, "fe9b2f535fbda4487172943d35c49d49ca34b73bbf0cf71653b38c8a9b0cd13e"),
    ("order --n 0 --toggles", 2, "61031727cce6a3e7d18f732bd0a561406635d201a5d79c0a6298fc92de71308c"),
    ("order --n 1", 0, "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5"),
    ("order --n 1 --prime", 2, "fe9b2f535fbda4487172943d35c49d49ca34b73bbf0cf71653b38c8a9b0cd13e"),
    ("order --n 1 --toggles", 0, "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5"),
    ("order --n 2", 0, "d031547bdabb3351c707fa46cdaf9c2a8912b5c6a60ea7dddafbe10e0c5cc001"),
    ("order --n 2 --prime", 2, "fe9b2f535fbda4487172943d35c49d49ca34b73bbf0cf71653b38c8a9b0cd13e"),
    ("order --n 2 --toggles", 0, "d031547bdabb3351c707fa46cdaf9c2a8912b5c6a60ea7dddafbe10e0c5cc001"),
    ("order --n 3", 0, "a3ee6936fb292ac0fa1d84153386534b8e8c5359e0fd26a4ea00df56934b4bbc"),
    ("order --n 3 --prime", 0, "d6ea1868d5b7a7f089632625413bac304384306c4fc85dea49289e3dcbdc56e5"),
    ("order --n 3 --toggles", 0, "a3ee6936fb292ac0fa1d84153386534b8e8c5359e0fd26a4ea00df56934b4bbc"),
    ("order --n 4", 0, "6dc3d4bfb1c2bd2ee2e121e2ff6633a6865346f51db2ad48611465cd2240c2f2"),
    ("order --n 4 --prime", 0, "62dc9ed5681ed0576e8060dd77cef22fe76086a0cacb09291d1798bbac0f29e9"),
    ("order --n 4 --toggles", 0, "6dc3d4bfb1c2bd2ee2e121e2ff6633a6865346f51db2ad48611465cd2240c2f2"),
    ("order --n 5", 0, "e83a933776f1a58db18ed7819337d51d64b51c28795dfadf954e92a9319b0359"),
    ("order --n 5 --prime", 0, "ae356f8ccd67ac68ea58d9db6af965c18d7798aa1694403769213df1dd9ed24c"),
    ("order --n 5 --toggles", 0, "e83a933776f1a58db18ed7819337d51d64b51c28795dfadf954e92a9319b0359"),
    ("order --n 6", 0, "a8e84eb0a4bf1bad8efd22df0c31ead16654458a7e5601281e7a4217c600d8fe"),
    ("order --n 6 --prime", 0, "53261c46f878467846cdff3d3ce2d435fdb66677df0f45124c873b97bcd5813b"),
    ("order --n 6 --toggles", 0, "a8e84eb0a4bf1bad8efd22df0c31ead16654458a7e5601281e7a4217c600d8fe"),
    ("order --n 6 --toggles --format json", 0, "53ef7576543804d2a8ad597ffdc18dddda657f8367c93b907f17b7b859c85362"),
    ("index --n 4 --set {2,3}", 2, "9f04a848204286e4b474643aaef32196fd732e34da5b7e0c29c35855d9f76194"),
    ("enumerate --n 40", 3, "c7a724602de20db33944408a15a78a4ecc238b4dc31c91fc1072c34dba3f157b"),
    ("order --n 13", 3, "12ea43edc024ed7e9642a0ad6834e049d701bad3f4083e2e8b77ac4fdc001dec"),
    ("unindex --n 4 --idx 9", 2, "9950607f237dae942c297a793be4ce95e8ff98771e21c2b039233f57eb616bfa"),
    ("index --n 4 --set {1,1}", 2, "6df203e3f92353bff8c568f08dc0a10e5b04d2d6bc761b3327f8d18c4a739899"),
)


class TestOutputPins:
    @pytest.mark.parametrize(
        "command, code, digest", OUTPUT_PINS, ids=[c for c, _, _ in OUTPUT_PINS]
    )
    def test_output_is_unchanged(self, capsys, command, code, digest):
        got = run(capsys, *command.split())
        assert got[0] == code
        assert hashlib.sha256(json.dumps(list(got)).encode()).hexdigest() == digest


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    # each "$ togglegroup ..." line of README's command-line block, as argv,
    # with the lines printed under it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ togglegroup "):
            examples.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line.strip() and examples:
            examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


class TestReadme:
    def test_every_command_has_an_example(self):
        commands = {argv[0] for argv, _ in README_EXAMPLES}
        assert commands == set(cli._parsers()[1])

    @pytest.mark.parametrize(
        "argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
    )
    def test_example_prints_what_the_readme_shows(self, capsys, argv, expected):
        # an elided example ("...") is compared on the lines around the gap
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        lines, stripped = out.splitlines(), [line.strip() for line in expected]
        if "..." in stripped:
            gap = stripped.index("...")
            tail = expected[gap + 1 :]
            assert lines[:gap] == expected[:gap]
            assert lines[len(lines) - len(tail) :] == tail
        else:
            assert lines == expected
