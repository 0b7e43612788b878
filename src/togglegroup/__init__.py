"""Toggle group of path-graph independent sets.

The library provides exact permutation arithmetic, a deterministic
stabilizer-chain engine for orders and membership, independent sets of
simple graphs with the toggle involution, the Fibonacci rank bijection for
path graphs, the recursively defined generator families that mirror the
toggles under that bijection, and a verification harness that machine
checks the whole picture at desk scale.
"""

from .engine import StabilizerChain, build_chain, orbit
from .families import (
    DiagonalSubgroupSpec,
    GeneratorFamily,
    block_swap,
    diagonal_embed,
    family,
    generator,
    prime_family,
    toggle_permutation,
)
from .fibindex import (
    FIB_CEILING,
    FibCeilingError,
    fib,
    rank,
    rank_masks,
    unrank,
    unrank_masks,
)
from .graphs import (
    IndependentSet,
    PathGraph,
    SimpleGraph,
    enumerate_independent_sets,
    format_graph_text,
    format_set_text,
    is_independent,
    parse_graph_text,
    parse_set_text,
    path_graph,
    toggle,
    toggle_path,
    toggle_path_masks,
)
from .perms import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    format_cycles,
    parse_cycles,
)
from .verify import (
    VerificationReport,
    all_claim_ids,
    verify_all,
    verify_count_and_transitivity,
    verify_coxeter_relations,
    verify_diagonal_generation,
    verify_golden_cases,
    verify_intertwining,
    verify_symmetric_generation,
    verify_three_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "CycleParseError",
    "DegreeMismatchError",
    "DiagonalSubgroupSpec",
    "FIB_CEILING",
    "FibCeilingError",
    "GeneratorFamily",
    "IndependentSet",
    "PathGraph",
    "Permutation",
    "SimpleGraph",
    "StabilizerChain",
    "VerificationReport",
    "all_claim_ids",
    "block_swap",
    "build_chain",
    "diagonal_embed",
    "enumerate_independent_sets",
    "family",
    "fib",
    "format_cycles",
    "format_graph_text",
    "format_set_text",
    "generator",
    "is_independent",
    "orbit",
    "parse_cycles",
    "parse_graph_text",
    "parse_set_text",
    "path_graph",
    "prime_family",
    "rank",
    "rank_masks",
    "toggle",
    "toggle_path",
    "toggle_path_masks",
    "toggle_permutation",
    "unrank",
    "unrank_masks",
    "verify_all",
    "verify_count_and_transitivity",
    "verify_coxeter_relations",
    "verify_diagonal_generation",
    "verify_golden_cases",
    "verify_intertwining",
    "verify_symmetric_generation",
    "verify_three_cycles",
]
