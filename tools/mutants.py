"""Mutation testing of one togglegroup module against its tests.

Each mutant changes one operator or constant of ``src/togglegroup/<module>.py``:

- a comparison to its neighbour (``<`` and ``<=``, ``>`` and ``>=``) or its
  negation (``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``+`` and ``-``, ``*`` and ``//``, and a bit operator (``&`` and ``|``,
  ``^`` to ``|``, ``<<`` and ``>>``), in expressions and augmented
  assignments alike;
- ``and`` and ``or``;
- an int constant to itself plus 1 (never a bool);
- a ``not`` dropped.

Annotations are never mutated: every module starts with ``from __future__
import annotations``, so a changed annotation changes nothing.  Docstrings
hold no operator or int constant, so no mutant touches one.

Every mutant runs the module's fixed test files (``TESTS``) with ``-x`` in a
copy of the checkout, under a time limit.  A mutant those files miss is run
again on the whole Tier-1 suite, and it survives only if that passes too.
A survivor whose line and edit appear in ``EQUIVALENT`` is written down with
the reason it cannot change behaviour; every other survivor wants a test.

A run runs every mutant and fills its module's entry of ``MUTANTS.json``
with the SHA-256 of the module source it mutated, the killed, survived and
timed-out counts, and each survivor's line and edit.

Usage, from the root of the checkout (opt-in; not part of Tier-1 or CI):

    python tools/mutants.py families
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "togglegroup")

# the test files each module's mutants run first
TESTS = {
    "cli": ("tests/test_cli.py",),
    "engine": ("tests/test_engine.py", "tests/test_oracle.py"),
    "families": ("tests/test_families.py",),
    "fibindex": ("tests/test_fibindex.py",),
    "graphs": ("tests/test_graphs.py", "tests/test_fibindex.py", "tests/test_cli.py"),
    "perms": ("tests/test_perms.py",),
    "verify": ("tests/test_verify.py", "tests/test_acceptance.py"),
}

TIER1 = ("--continue-on-collection-errors",)
TIMEOUT_S = 120  # per pytest run; a mutant that hangs counts as timed out
# Address space per pytest run.  The whole Tier-1 suite peaks at 1.8 GB
# (VmPeak, Python 3.11, 2-core VM), while the families.py mutant that turns
# `row[: fib(m)] + fib(m + 1)` into `-` passed 7 GB within a minute, long
# before TIMEOUT_S.  BLAS runs one thread, so the figure does not grow with
# the core count.
MAX_MB = 3072

# (module, stripped source line, column, edit): why the survivor is equivalent
EQUIVALENT = {
    (
        "families",
        "return max(head) < len(head) and g == diagonal_embed(self.n, Permutation._from_raw(head))",
        15,
        "`<` -> `<=`",
    ): "<= also admits a g that sends a low point to f(n)+1; every embedding fixes "
    "f(n)+1, so g still differs from the embedding of its low table",
    ("fibindex", "while len(table) < size:", 10, "`<` -> `<=`"):
    "the table gains f(65), which no call reads: fib raises past FIB_CEILING "
    "before it indexes the table",
    ("fibindex", "_table = _fib_table(FIB_CEILING + 1)", 34, "1 -> 2"):
    "the table gains f(65), which no call reads: fib raises past FIB_CEILING "
    "before it indexes the table",
    (
        "fibindex",
        "for v in range(1, int(masks.max(initial=0)).bit_length() + 1):",
        44,
        "0 -> 1",
    ): "the maximum differs only when every mask is 0 or there is none; the one "
    "extra pass, at v = 1, adds f(2) times bit 0, which is 0 in every mask",
    ("perms", "out = [0] * len(img)", 15, "0 -> 1"):
    "the image table is a bijection, so the loop writes every slot of out "
    "before it is read",
    ("perms", "cycles += 1", 12, "`+` -> `-`"):
    "parity reads the count mod 2 only, and -c is c mod 2",
    ("perms", "return 1 if (len(img) - cycles) % 2 == 0 else -1", 21, "`-` -> `+`"):
    "m - c and m + c differ by 2c, so they have the same parity",
    ("perms", "seen[s] = 1", 22, "1 -> 2"):
    "the seen marks are only tested for truth, and 2 is as true as 1",
    ("perms", "seen[j] = 1", 26, "1 -> 2"):
    "the seen marks are only tested for truth, and 2 is as true as 1",
    ("perms", "seen[x] = 1", 22, "1 -> 2"):
    "the seen marks are only tested for truth, and 2 is as true as 1",
}

_COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_TEXT = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.BitAnd: "&",
    ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or",
}


def _nodes(tree: ast.AST) -> list[ast.AST]:
    # every node outside the annotations, in ast.walk's fixed order
    annotations = set()
    for node in ast.walk(tree):
        roots = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        for root in roots:
            if root is not None:
                annotations.update(id(n) for n in ast.walk(root))
    return [node for node in ast.walk(tree) if id(node) not in annotations]


def _edits(node: ast.AST) -> list[tuple[int, str]]:
    # (slot, edit text) of each mutant of one node; the slot is the compared
    # operator's index for a comparison and 0 otherwise
    if isinstance(node, ast.Compare):
        return [
            (i, f"`{_TEXT[type(op)]}` -> `{_TEXT[_COMPARE[type(op)]]}`")
            for i, op in enumerate(node.ops)
        ]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINARY:
        return [(0, f"`{_TEXT[type(node.op)]}` -> `{_TEXT[_BINARY[type(node.op)]]}`")]
    if isinstance(node, ast.BoolOp):
        return [(0, f"`{_TEXT[type(node.op)]}` -> `{_TEXT[_BOOL[type(node.op)]]}`")]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [(0, f"{node.value} -> {node.value + 1}")]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [(0, "drop `not`")]
    return []


def mutants(source: str) -> list[tuple[int, int, int, int, str]]:
    """(line, column, node index, slot, edit) of every mutant of ``source``,
    in source order; the column is the mutated node's."""
    return sorted(
        (node.lineno, node.col_offset, index, slot, edit)
        for index, node in enumerate(_nodes(ast.parse(source)))
        for slot, edit in _edits(node)
    )


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.AST) -> None:
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        if node is self.target:
            return self.visit(node.operand)
        return self.generic_visit(node)


def mutate(source: str, index: int, slot: int) -> str:
    """``source`` with mutant (index, slot) applied, as unparsed text."""
    tree = ast.parse(source)
    node = _nodes(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = _COMPARE[type(node.ops[slot])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _BINARY[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        node.op = _BOOL[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        tree = _DropNot(node).visit(tree)
    return ast.unparse(tree)


def _pytest(checkout: Path, args: tuple[str, ...]) -> str:
    # "passed", "failed" or "timed out": one pytest run in the copy.  No
    # bytecode is written, so a mutant of the same size as the last one in
    # the same second is never read from a stale cache
    env = dict(
        os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
    )

    def bound_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MAX_MB * 2**20, MAX_MB * 2**20))

    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(
            command, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, preexec_fn=bound_memory,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", choices=sorted(TESTS))
    args = parser.parse_args(argv)

    relative = PACKAGE / f"{args.module}.py"
    source = (ROOT / relative).read_text()
    lines = source.splitlines()
    chosen = mutants(source)

    tests = TESTS[args.module]
    started = time.monotonic()
    counts = {"killed": 0, "survived": 0, "timed_out": 0}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        checkout = Path(scratch, "checkout")
        shutil.copytree(
            ROOT, checkout,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = checkout / relative
        # the unparsed but unmutated module must pass, or no mutant means anything
        target.write_text(ast.unparse(ast.parse(source)))
        if _pytest(checkout, tests) != "passed":
            print(f"the unmutated {relative} fails {' '.join(tests)}", file=sys.stderr)
            return 1
        for number, (line, column, index, slot, edit) in enumerate(chosen, start=1):
            target.write_text(mutate(source, index, slot))
            outcome = _pytest(checkout, tests)
            if outcome == "passed":
                outcome = _pytest(checkout, TIER1)
            text = lines[line - 1].strip()
            if outcome == "passed":
                counts["survived"] += 1
                survivors.append({
                    "line": line,
                    "column": column,
                    "source": text,
                    "edit": edit,
                    "equivalent": EQUIVALENT.get((args.module, text, column, edit)),
                })
            else:
                counts["killed" if outcome == "failed" else "timed_out"] += 1
            print(f"[{number}/{len(chosen)}] {relative}:{line}:{column}: {edit}: {outcome}", flush=True)

    report = {
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "python": sys.version.split()[0],
        "tests": list(tests),
        "timeout_s": TIMEOUT_S,
        "mutants": len(chosen),
        **counts,
        "equivalent": sum(s["equivalent"] is not None for s in survivors),
        "elapsed_s": round(time.monotonic() - started, 1),
        "survivors": survivors,
    }
    # one entry per module: a run replaces its own module's entry and keeps
    # the others; the hash says which source each entry measured
    path = ROOT / "MUTANTS.json"
    runs = json.loads(path.read_text()) if path.exists() else {}
    runs[args.module] = report
    path.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")
    print(f"{counts['killed']} killed, {counts['survived']} survived "
          f"({report['equivalent']} equivalent), {counts['timed_out']} timed out: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
