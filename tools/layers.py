"""In-process times of the chain layers: the Jordan walk, the proof, the
proved and the verified chain builds, and membership.

    python tools/layers.py ROOT [ROOT ...]

Each ROOT is a checkout; its ``src`` goes on PYTHONPATH.  A round starts one
fresh interpreter per root, and the roots take turns, in reversed order on
odd rounds, so a drift in the host's speed falls on all of them alike.  The
child builds every input first, untimed, then times each case REPEATS times
after one untimed call.  The cases:

* ``walk n=4`` .. ``walk n=16``: ``jordan_certificate(family(n), f(n+2))``;
* ``proof n=7`` .. ``proof n=10``: ``_proof`` on ``prime_family(n)``;
* ``proved chain n=7`` .. ``proved chain n=10``:
  ``build_chain(prime_family(n))``, a chain that keeps its proof;
* ``verified family n=1`` .. ``n=3`` and ``verified prime n=4`` .. ``n=6``:
  the verified Schreier-Sims builds;
* ``contains 20 diagonal n=10`` and ``contains 20 transpositions n=10``:
  ``contains`` on the chain of ``prime_family(10)``, for 20 seeded members
  of the diagonal subgroup and for 20 seeded transpositions of a low and a
  middle point, which are not members.

Standard output is one JSON object: per root and case the median
milliseconds over every timed call of every round, with each round's own
median.  ``same_results`` says whether every root got the same results (a
SHA-256 over each case's return values) for each case.  BLAS is pinned to
one thread.  No time is asserted.  Standard library only; the children
import the package from their root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 5
REPEATS = 5
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the child: prints {case: [seconds per timed call, ..., result digest]}
CHILD = r"""
import hashlib, json, random, sys, time
from togglegroup import Permutation, build_chain, diagonal_embed, fib, jordan_certificate
from togglegroup.engine import _proof
from togglegroup.families import family, prime_family

repeats = int(sys.argv[1])

def chain_summary(chain):
    return chain.base, chain.basic_orbit_sizes(), chain.order()

cases = {}
for n in range(4, 17):
    cases[f"walk n={n}"] = (jordan_certificate, (family(n), fib(n + 2)), repr)
for n in range(7, 11):
    cases[f"proof n={n}"] = (_proof, (prime_family(n), fib(n + 2)), repr)
for n in range(7, 11):
    cases[f"proved chain n={n}"] = (build_chain, (prime_family(n), fib(n + 2)), chain_summary)
for n in range(1, 4):
    cases[f"verified family n={n}"] = (build_chain, (family(n), fib(n + 2)), chain_summary)
for n in range(4, 7):
    cases[f"verified prime n={n}"] = (build_chain, (prime_family(n), fib(n + 2)), chain_summary)

rng = random.Random(10)
chain = build_chain(prime_family(10), fib(12))
members = [diagonal_embed(10, Permutation(rng.sample(range(1, fib(10) + 1), fib(10))))
           for _ in range(20)]
swaps = [Permutation.from_cycles([(rng.randint(1, fib(10)), rng.randint(fib(10) + 1, fib(11)))], fib(12))
         for _ in range(20)]
cases["contains 20 diagonal n=10"] = (lambda: [chain.contains(g) for g in members], (), repr)
cases["contains 20 transpositions n=10"] = (lambda: [chain.contains(g) for g in swaps], (), repr)

out = {}
for case, (func, args, summary) in cases.items():
    digest = hashlib.sha256(str(summary(func(*args))).encode()).hexdigest()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - t0)
    out[case] = times + [digest]
print(json.dumps(out))
"""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    return env


def _child(root: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(REPEATS)], cwd=root,
                          env=_env(root), capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"the child under {root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="+", type=Path, help="checkouts to time")
    roots = [root.resolve() for root in parser.parse_args(argv).roots]
    for root in roots:
        if not (root / "src" / "togglegroup" / "__init__.py").is_file():
            print(f"no togglegroup package under {root / 'src'}", file=sys.stderr)
            return 2

    rounds = {root: [] for root in roots}
    for i in range(ROUNDS):
        for root in roots if i % 2 == 0 else roots[::-1]:
            rounds[root].append(_child(root))
    cases = list(rounds[roots[0]][0])
    digests = {(root, case): {r[case][-1] for r in rounds[root]} for root in roots for case in cases}

    def ms(seconds):
        return round(1e3 * seconds, 4)

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "same_results": {
            case: len(set().union(*(digests[root, case] for root in roots))) == 1
            for case in cases
        },
        "roots": {
            str(root): {
                case: {
                    "median_ms": ms(statistics.median(t for r in rounds[root] for t in r[case][:-1])),
                    "round_medians_ms": [ms(statistics.median(r[case][:-1])) for r in rounds[root]],
                }
                for case in cases
            }
            for root in roots
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
