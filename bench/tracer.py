"""Spans around the calls into each togglegroup module, recorded from outside.

The package imports names with ``from .x import name``, so a call is only
seen if the name is replaced where the caller looks it up.  ``rebind``
swaps every module-level binding of a function across the package, and
sets methods on their class.  A module's own global is replaced as well,
so recursion (``families.generator``) and calls within a module
(``graphs.toggle_path`` into ``_toggle_path_members``) nest their spans.

Spans are kept in flat arrays while the workload runs: name, parent, start
and end in nanoseconds.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Optional

import numpy as np

import togglegroup
from togglegroup import cli, engine, families, fibindex, graphs, perms, verify

MODULES = (togglegroup, cli, engine, families, fibindex, graphs, perms, verify)

CLAIM_FUNCTIONS = {
    "count-transitivity": "verify_count_and_transitivity",
    "coxeter-relations": "verify_coxeter_relations",
    "diagonal-generation": "verify_diagonal_generation",
    "golden-cases": "verify_golden_cases",
    "intertwining": "verify_intertwining",
    "symmetric-generation": "verify_symmetric_generation",
    "three-cycles": "verify_three_cycles",
}

# (layer metric, owner, attribute, counts calls).  graphs.toggle_path always
# ends in one _toggle_path_members call, so only the latter counts a toggle.
TARGETS = (
    ("cli.main", cli, "main", True),
    *((f"verify.{claim}", verify, fn, True) for claim, fn in CLAIM_FUNCTIONS.items()),
    ("families.toggle_permutation", families, "toggle_permutation", True),
    ("families.generator", families, "generator", True),
    ("families.diagonal_embed", families, "diagonal_embed", True),
    ("fibindex.rank", fibindex, "rank", True),
    ("fibindex.unrank", fibindex, "unrank", True),
    ("graphs.path_sets", graphs, "_path_sets_in_rank_order", True),
    ("graphs.toggle", graphs, "_toggle_path_members", True),
    ("graphs.toggle", graphs, "toggle_path", False),
    ("graphs.parse_set_text", graphs, "parse_set_text", True),
    ("perms.compose", perms.Permutation, "__mul__", True),
    ("perms.construct", perms.Permutation, "__init__", True),
    ("perms.format_cycles", perms, "format_cycles", True),
    ("engine.build_chain", engine, "build_chain", True),
    ("engine.contains", engine.StabilizerChain, "contains", True),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# the span of the tracer's own work, outside every layer
TRACER_SPAN, TRACER_ID = "trace", 0

CHAIN_COUNTERS = (
    "engine.base_len",
    "engine.strong_gens",
    "engine.orbit_points",
    "engine.transversal_bytes_computed",
)


def rebind(owner, attr: str, replacement: Callable) -> None:
    """Replace ``owner.attr`` everywhere the package looks it up."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self) -> None:
        self.span_names: list[str] = [TRACER_SPAN]
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.chain_counters = dict.fromkeys(CHAIN_COUNTERS, 0)
        self._stack = [-1]  # open spans; -1 stands for the workload itself

    def install(self) -> None:
        for layer, owner, attr, counts_calls in TARGETS:
            span_name = layer if counts_calls else f"{layer}:{attr}"
            after = self._count_chain if layer == "engine.build_chain" else None
            rebind(owner, attr, self.wrap(span_name, getattr(owner, attr), after))

    def wrap(self, span_name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        name_id = len(self.span_names)
        self.span_names.append(span_name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                # the tracer's own reads get a span of their own, so that
                # they are not counted in the caller's self time
                j = len(starts)
                name_ids.append(TRACER_ID)
                parents.append(stack[-1])
                ends.append(0)
                starts.append(clock())
                try:
                    after(result)
                finally:
                    ends[j] = clock()
            return result

        return traced

    def _count_chain(self, chain) -> None:
        # read from the chain's public surface; transversal bytes are computed
        # (two int64 arrays plus a byte copy per orbit point), not measured
        orbit_points = sum(chain.basic_orbit_sizes())
        c = self.chain_counters
        c["engine.base_len"] += len(chain.base)
        c["engine.strong_gens"] += len(chain.strong_generators())
        c["engine.orbit_points"] += orbit_points
        c["engine.transversal_bytes_computed"] = max(
            c["engine.transversal_bytes_computed"], 3 * 8 * chain.degree * orbit_points
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.uint16),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: self seconds and, where the layer counts them, calls."""
        spans = self.arrays()
        n_names = len(self.span_names)
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        nested = spans["parent"] >= 0
        child = np.bincount(
            spans["parent"][nested], weights=duration[nested], minlength=len(duration)
        )
        self_ns = np.bincount(spans["name_id"], weights=duration - child, minlength=n_names)
        calls = np.bincount(spans["name_id"], minlength=n_names)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name_id, span_name in enumerate(self.span_names):
            if name_id == TRACER_ID:
                continue
            layer = span_name.split(":")[0]
            out[f"{layer}.self_s"] += float(self_ns[name_id]) / 1e9
            if ":" not in span_name:
                out[f"{layer}.calls"] += int(calls[name_id])
        out.update(self.chain_counters)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.span_names), **self.arrays())
