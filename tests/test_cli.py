import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import togglegroup
from togglegroup.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFY_FAIL, main


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

    def test_block_swap_command(self, capsys):
        code, out, _ = run(capsys, "hat-t", "--n", "4")
        assert out == "(1,6)(2,7)(3,8)\n"

    def test_toggle_perm_command(self, capsys):
        code, out, _ = run(capsys, "toggle-perm", "--n", "2", "--k", "2")
        assert out == "(1,3)\n"


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

    def test_prime_and_toggles_exclusive(self, capsys):
        code, _, _ = run(capsys, "order", "--n", "4", "--prime", "--toggles")
        assert code == EXIT_USAGE


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
