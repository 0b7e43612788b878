"""Process start-up times: commands and the package import, as fresh processes.

    python tools/startup.py ROOT [ROOT ...]

Each ROOT is a checkout; its ``src`` goes on PYTHONPATH.  Every command
below, and ``import togglegroup`` on its own, runs as a new interpreter,
timed from just before the process starts to just after it exits.  The
command runs through ``togglegroup.cli.main`` as the console script does.
Each is timed RUNS times with BLAS pinned to one thread
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1) and RUNS times with those variables unset.  The roots take turns
within each round, in reversed order on odd rounds, so a drift in the
host's speed falls on all of them alike.  One untimed run per root and
case first writes the bytecode caches the timed runs then read.

Standard output is one JSON object: per root, the median seconds of each
case, pinned and unpinned, with its runs, and each case's exit code and
the SHA-256 of its standard output.  ``same_output`` says whether every
root printed the same bytes and exit code for each case.  A timed run
whose output or exit code differs from its root's untimed run ends the
tool with exit 1.  No time is asserted.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 9
COMMANDS = (
    ("index", "--n", "10", "--set", "{1,3}"),
    ("unindex", "--n", "10", "--idx", "50"),
    ("toggle", "--n", "10", "--k", "2", "--set", "{1,3}"),
    ("order", "--n", "12"),
    ("verify", "--max-n", "12", "--profile", "full"),
)
CONSOLE_SCRIPT = "import sys; from togglegroup.cli import main; sys.exit(main())"
CASES = {
    **{" ".join(argv): ["-c", CONSOLE_SCRIPT, *argv] for argv in COMMANDS},
    "import togglegroup": ["-c", "import togglegroup"],
}
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env(root: Path, pinned: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(root / "src")
    if pinned:
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    return env


def _run(root: Path, argv: list[str], pinned: bool) -> tuple[float, int, str]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=root, env=_env(root, pinned),
                          capture_output=True, timeout=600)
    took = time.perf_counter() - t0
    return took, done.returncode, hashlib.sha256(done.stdout).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="+", type=Path, help="checkouts to time")
    roots = [root.resolve() for root in parser.parse_args(argv).roots]
    for root in roots:
        if not (root / "src" / "togglegroup" / "__init__.py").is_file():
            print(f"no togglegroup package under {root / 'src'}", file=sys.stderr)
            return 2

    modes = {"pinned": True, "unpinned": False}
    times = {(r, m, c): [] for r in roots for m in modes for c in CASES}
    outcome = {}
    for root in roots:
        for case, case_argv in CASES.items():
            outcome[root, case] = _run(root, case_argv, True)[1:]
    for i in range(RUNS):
        for mode, pinned in modes.items():
            for case, case_argv in CASES.items():
                for root in roots if i % 2 == 0 else roots[::-1]:
                    took, *result = _run(root, case_argv, pinned)
                    times[root, mode, case].append(took)
                    if tuple(result) != outcome[root, case]:
                        print(f"{case} under {root} changed its output or exit code",
                              file=sys.stderr)
                        return 1

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": RUNS,
        "same_output": {
            case: len({outcome[root, case] for root in roots}) == 1 for case in CASES
        },
        "roots": {
            str(root): {
                **{
                    mode: {
                        case: {
                            "median_s": round(statistics.median(times[root, mode, case]), 4),
                            "runs_s": [round(t, 4) for t in times[root, mode, case]],
                        }
                        for case in CASES
                    }
                    for mode in modes
                },
                "outputs": {
                    case: {"exit": outcome[root, case][0], "stdout_sha256": outcome[root, case][1]}
                    for case in CASES
                },
            }
            for root in roots
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
