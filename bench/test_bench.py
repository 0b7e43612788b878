"""Checks of the benchmark itself; run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_oracle_matches_hand_computed_ranks_and_toggles():
    sets = ["{}", "{1}", "{2}", "{3}", "{1,3}", "{4}", "{1,4}", "{2,4}"]
    assert [oracle.set_text(oracle.unrank(4, i)) for i in range(1, 9)] == sets
    assert oracle.cycle_text(oracle.toggle_images(2, 2)) == "(1,3)"
    assert oracle.cycle_text(oracle.block_swap_images(4)) == "(1,6)(2,7)(3,8)"
    assert oracle.reduced_family_order(4) == 12


def test_a_wrong_rank_is_counted_as_failed_and_the_run_finishes():
    result = _bench("--workload", "cli-queries", "--seed", "1", "--trace", "0",
                    "--inject-fault", "rank")
    assert result["attempted"] >= 2000
    assert result["failed"] > 0
    assert result["correct"] is False
    assert result["metrics"]["correct_share"]["value"] < 1


def test_traced_counts_repeat_exactly():
    runs = [_bench("--workload", "cli-queries", "--seed", "7", "--trace", "1") for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] != "s"}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 2000
