"""The togglegroup benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload path-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Each repetition of the workload runs in a fresh single-threaded
interpreter (``worker.py``).  At least three repetitions run, and more
while another one is expected to finish within ``--seconds``.  ``wall_s``
is the mean over repetitions of the time spent inside the package's calls;
the latency percentiles are taken over every request of every repetition.

The host is shared, and its speed drifts by tens of percent over seconds
to minutes.  So every time measured in a repetition, except ``setup_s``,
is rescaled to a reference host speed: multiplied by ``REFERENCE_PROBE_S``
over the mean time of a fixed loop (``worker.SpeedProbe``) timed just
before, every half second during, and just after that repetition's
workload.  The raw times and the probe times are kept in the record.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics.  With ``--trace 1`` untraced and traced repetitions
alternate, and it reports per-layer self time and call counts, the engine's
chain counters and the tracing overhead (traced minus untraced ``wall_s``).
Either way the full record, with the environment and each repetition,
goes to ``bench/out/``; a traced run also leaves its spans there.

Workloads (``workloads.py`` has the sizes):
  path-sweep      exhaustive toggle/rank checks up to n = 18; bulk path layer
  chain-giant     full-symmetric chains up to degree 377; the engine's shortcut
  chain-subgroup  reduced-family chains, membership reads, diagonal-generation
  cli-queries     2000 seeded single CLI requests, run in-process
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("path-sweep", "chain-giant", "chain-subgroup", "cli-queries")
SETUP_PROBES = 7
MIN_REPETITIONS = 3
TIME_LIMIT_S = 170  # the whole run, repetitions included, ends before this
# a probe's typical time on the 2-core Xeon VM the bounds were set on;
# reported times are in seconds of a host that runs the probe in this long
REFERENCE_PROBE_S = 0.025

# the time from a fresh interpreter to a finished import; CLOCK_MONOTONIC is
# shared by all processes, so the child's reading compares with the parent's
PROBE = "import time, togglegroup; t = time.monotonic(); import numpy; print(t, numpy.__version__)"


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _child(argv: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting " + " ".join(argv))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def measure_setup(deadline: float) -> tuple[list[float], str]:
    samples, numpy_version = [], ""
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        ready, numpy_version = _child(["-c", PROBE], deadline).split()
        samples.append(float(ready) - t0)
    return samples, numpy_version


def repetition(args, traced: bool, deadline: float) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(int(traced))]
    if traced:
        argv += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
    if args.inject_fault:
        argv += ["--inject-fault", args.inject_fault]
    rep = json.loads(_child(argv, deadline).splitlines()[-1])
    rep["raw_wall_s"] = sum(rep["latencies_s"])
    rep["speed"] = REFERENCE_PROBE_S / statistics.fmean(rep["probe_s"])
    rep["latencies_s"] = [t * rep["speed"] for t in rep["latencies_s"]]
    rep["wall_s"] = rep["raw_wall_s"] * rep["speed"]
    if traced:
        rep["layers"] = {name: value * rep["speed"] if name.endswith("_s") else value
                         for name, value in rep["layers"].items()}
    return rep


def end_to_end(workload: str, plain: list[dict]) -> dict:
    """wall_s over repetitions, and latency percentiles over requests.

    A cli-queries user waits on each call, so each call is a request.  The
    other workloads are one verification job each: the user waits on the
    whole repetition, so that is the request.
    """
    walls = [r["wall_s"] for r in plain]
    if workload == "cli-queries":
        requests = [t for r in plain for t in r["latencies_s"]]
    else:
        requests = walls
    cuts = statistics.quantiles(requests, n=100, method="inclusive")
    return {
        "wall_s": statistics.fmean(walls),
        "req_p50_ms": cuts[49] * 1e3,
        "req_p99_ms": cuts[98] * 1e3,
    }


def _git_revision() -> str:
    # the checkout need not be a git repository; never look above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(rep: dict) -> dict:
    # a repetition as recorded: its latencies reduced to a count
    return {k: v for k, v in rep.items() if k != "latencies_s"} | {
        "calls": len(rep["latencies_s"]),
    }


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-fault", choices=("rank",),
                        help="make rank answer off by one, to show the checks catch it")
    args = parser.parse_args()
    if not (SRC / "togglegroup" / "__init__.py").is_file():
        print(f"no togglegroup package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    setup, numpy_version = measure_setup(deadline)
    plain: list[dict] = []
    traced: list[dict] = []
    # untraced and traced repetitions alternate in a traced run
    minimum = 1 if args.trace else MIN_REPETITIONS
    while True:
        plain.append(repetition(args, False, deadline))
        if args.trace:
            traced.append(repetition(args, True, deadline))
        elapsed = time.monotonic() - start
        if len(plain) >= minimum and elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name, first in layers[0].items():
            is_time = name.endswith("_s")
            value = statistics.median(m[name] for m in layers) if is_time else first
            metrics[name] = {"value": value, "unit": "s" if is_time else "count"}
        metrics["engine.transversal_bytes_computed"]["unit"] = "bytes"
        metrics["trace.overhead_s"] = {
            "value": _median(traced, "wall_s") - _median(plain, "wall_s"), "unit": "s",
        }
        counts_repeat = all(
            m[name] == layers[0][name] for m in layers for name in m if not name.endswith("_s")
        )
    else:
        timed = end_to_end(args.workload, plain)
        metrics = {
            "wall_s": {"value": timed["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
            "correct_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "req_p50_ms": {"value": timed["req_p50_ms"], "unit": "ms"},
            "req_p99_ms": {"value": timed["req_p99_ms"], "unit": "ms"},
        }
        counts_repeat = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_revision": _git_revision(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "threads_pinned": 1,
        },
        "sizes": reps[0]["sizes"],
        "setup_s_samples": setup,
        "repetitions": [_summary(r) for r in plain],
        "traced_repetitions": [_summary(r) for r in traced],
        "counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": str(path.relative_to(ROOT)), **record["environment"],
                      "sizes": record["sizes"], "repetitions": len(reps)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
