"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` with the package on PYTHONPATH; prints one JSON object.
A fresh interpreter per repetition keeps peak RSS and the package's module
memos (``families._memo``, ``fibindex._table``) from carrying over.
A fixed loop that calls nothing in the package (a probe) is timed now and
then as a reading of the host's speed: a few times just before and just
after the workload, and, in an untraced repetition, every half second
during it.  A probe inside a call is taken out of that call's time.

    python3 bench/worker.py --workload path-sweep --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
from bisect import bisect_right
from time import perf_counter_ns

import tracer
import workloads


def _inject_rank_fault() -> None:
    # a deliberately wrong answer, to show that the checks catch one
    rank = tracer.fibindex.rank
    tracer.rebind(tracer.fibindex, "rank", lambda n, members: rank(n, members) + 1)


PROBE_LOOPS = 250_000  # one probe takes about 25 ms on the reference host
PROBES_AROUND = 4  # probes just before, and again just after, the workload
PROBE_EVERY_S = 0.5


class SpeedProbe:
    """Times a fixed pure-Python loop, with no GC-tracked objects and no
    package calls, before, during (on SIGALRM) and after the workload."""

    def __init__(self) -> None:
        self.probes_ns: list[tuple[int, int]] = []  # (start, duration)

    def probe(self, *_signal) -> None:
        t0 = perf_counter_ns()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.probes_ns.append((t0, perf_counter_ns() - t0))

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self.probe()

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def without_probes(self, starts_ns: list[int], latencies_ns: list[int]) -> list[int]:
        """Each call's time less the probes run inside it.  A Python signal
        handler runs between two bytecodes, so a probe lies wholly inside
        one call or outside all of them."""
        out = list(latencies_ns)
        for start, took in self.probes_ns:
            i = bisect_right(starts_ns, start) - 1
            if i >= 0 and start < starts_ns[i] + latencies_ns[i]:
                out[i] -= took
        return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced repetition writes its spans (.npz)")
    parser.add_argument("--inject-fault", choices=("rank",))
    args = parser.parse_args()

    if args.inject_fault == "rank":
        _inject_rank_fault()
    run = workloads.Run()
    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()
    speed = SpeedProbe()
    speed.around()
    if spans is None:  # a traced call's spans would hold the probes
        speed.arm()
    try:
        sizes = workloads.WORKLOADS[args.workload](random.Random(args.seed), run)
    finally:
        speed.disarm()
    speed.around()

    latencies_ns = speed.without_probes(run.starts_ns, run.latencies_ns)
    out = {
        "latencies_s": [t / 1e9 for t in latencies_ns],
        "probe_s": [took / 1e9 for _, took in speed.probes_ns],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "sizes": sizes,
    }
    if spans is not None:
        out["layers"] = spans.layer_metrics()
        out["spans"] = len(spans.starts)
        if args.spans:
            spans.save(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
