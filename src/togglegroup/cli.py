"""Command-line front end.

Subcommands cover enumeration, rank lookups, toggling, the generator
families, exact group orders and the verification harness.  Exit codes:
0 success (or all claims passed), 1 verification failure, 2 usage error,
3 resource bound exceeded.

``_emit`` is the one writer, and it streams.  Text is printed line by line
as it is made; ``enumerate`` hands over a slice's lines joined, one print
per slice.  JSON is the payload's compact sorted dump; ``enumerate``
and ``generators`` hand over the items of its one empty list in pieces,
each printed as it is made, so neither holds its whole answer.

A request whose first argument is a command name is parsed by that
command's own parser, built once per process with the top-level parser.
The top-level parse would only pick that parser by name and hand it the
rest.  Every other request (no arguments, ``-h``, an unknown command, a
leading ``--``), and one with arguments left over, takes the full parse,
so usage, help and errors are the full parser's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, Optional, Sequence

from .engine import _proved_order, build_chain
from .families import (
    _family_ks,
    _prime_family_ks,
    block_swap,
    family,
    generator,
    prime_family,
    toggle_permutation,
)
from .fibindex import FIB_CEILING, FibCeilingError, fib, rank, unrank, unrank_masks
from .graphs import _mask_text, format_set_text, parse_set_text, toggle_path
from .perms import _is_decimal, format_cycles
# the CLI materializes permutations and enumerations, and builds chains,
# up to the full verification profile's bounds
from .verify import FULL_CHAIN_DEGREE_CAP, FULL_ENUMERATION_CAP, all_claim_ids, verify_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_ENUMERATE_SLICE = 4096  # sets listed per slice of enumerate's masks
_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class ResourceBoundError(RuntimeError):
    """Request exceeds the configured resource bounds."""


def _set_count(n: int) -> int:
    # f(n+2), the number of independent sets; past the Fibonacci ceiling it
    # is a resource bound.  n < 1 is left to the library's own message
    return fib(max(n, 0) + 2)


def _check_materializable(n: int) -> int:
    degree = _set_count(n)
    if degree > FULL_ENUMERATION_CAP:
        raise ResourceBoundError(
            f"degree {degree} exceeds the materialization bound {FULL_ENUMERATION_CAP}"
        )
    return degree


def _integer(text: str) -> int:
    # the package's one digit rule, where type=int would take whatever int()
    # takes: a plus sign, spaces, underscores and digits such as '٣'.  A
    # leading minus stays, so that n < 1 meets the library's own message
    if not _is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _emit(args: argparse.Namespace, text_lines: Iterable[str], payload, item_lists=None) -> None:
    # the one writer (see the module docstring): item_lists fill the payload's
    # one empty list, each non-empty list printed as the inside of its own dump
    if args.format == "text":
        for line in text_lines:
            print(line)
    elif item_lists is None:
        print(_dumps(payload))
    else:
        head, _, tail = _dumps(payload).partition("[]")
        print(head + "[", end="")
        for i, items in enumerate(item_lists):
            print("," * (i > 0) + _dumps(items)[1:-1], end="")
        print("]" + tail)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_materializable(args.n)
    # a slice of the rank-ordered masks at a time, its text written as it is
    # printed, one print per slice: the listing is never held whole, as sets
    # or as text
    masks, size = unrank_masks(args.n), _ENUMERATE_SLICE
    slices = (enumerate(masks[i : i + size].tolist(), i + 1) for i in range(0, len(masks), size))
    lines = ("\n".join(f"{idx} {_mask_text(mask)}" for idx, mask in rows) for rows in slices)
    items = ([{"index": idx, "set": _mask_text(mask)} for idx, mask in rows] for rows in slices)
    _emit(args, lines, [], items)
    return EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    _set_count(args.n)
    idx = rank(args.n, parse_set_text(args.set))
    _emit(args, [str(idx)], {"index": idx})
    return EXIT_OK


def _cmd_unindex(args: argparse.Namespace) -> int:
    _set_count(args.n)
    text = format_set_text(unrank(args.n, args.idx))
    _emit(args, [text], {"set": text})
    return EXIT_OK


def _cmd_toggle(args: argparse.Namespace) -> int:
    _set_count(args.n)
    text = format_set_text(toggle_path(args.n, args.k, parse_set_text(args.set)))
    _emit(args, [text], {"set": text})
    return EXIT_OK


def _cmd_generators(args: argparse.Namespace) -> int:
    degree = _check_materializable(args.n)
    # one member at a time, its text printed as it is formatted (in JSON as a
    # list of one): at n = 26 the whole family's image tables take hundreds of MB
    ks = _prime_family_ks(args.n) if args.prime else _family_ks(args.n)
    members = (format_cycles(generator(k, args.n)) for k in ks)
    payload = {"n": args.n, "degree": degree, "prime": bool(args.prime), "members": []}
    _emit(args, members, payload, ([text] for text in members))
    return EXIT_OK


def _cmd_hat_t(args: argparse.Namespace) -> int:
    _check_materializable(args.n)
    text = format_cycles(block_swap(args.n))
    _emit(args, [text], {"permutation": text})
    return EXIT_OK


def _cmd_toggle_perm(args: argparse.Namespace) -> int:
    _check_materializable(args.n)
    text = format_cycles(toggle_permutation(args.n, args.k))
    _emit(args, [text], {"permutation": text})
    return EXIT_OK


def _cmd_order(args: argparse.Namespace) -> int:
    degree = _check_materializable(args.n)
    if degree > FULL_CHAIN_DEGREE_CAP:
        raise ResourceBoundError(f"degree {degree} exceeds the chain bound {FULL_CHAIN_DEGREE_CAP}")
    if args.prime:
        generators = prime_family(args.n)
    elif args.toggles:
        # _family_ks rejects n < 1, as family does
        generators = [toggle_permutation(args.n, k) for k in _family_ks(args.n)]
    else:
        generators = family(args.n)
    # a chain only where the engine cannot prove the order orbit by orbit
    order = _proved_order(generators, degree)
    if order is None:
        order = build_chain(generators, degree).order()
    _emit(args, [str(order)], {"order": str(order)})
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n + 2 > FIB_CEILING:
        raise ResourceBoundError(f"max-n {args.max_n} exceeds the Fibonacci ceiling")
    claims = None if args.claim is None else [args.claim]
    if claims and claims[0] not in all_claim_ids():
        valid = ", ".join(all_claim_ids())
        print(f"unknown claim {claims[0]!r}; valid: {valid}", file=sys.stderr)
        return EXIT_USAGE
    reports = verify_all(args.max_n, profile=args.profile, claims=claims)
    counts = {s: sum(r.status == s for r in reports) for s in ("pass", "fail", "skipped")}
    summary = f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    _emit(
        args,
        [r.text_line() for r in reports] + [summary],
        {"reports": [r.json_dict() for r in reports], "summary": counts},
    )
    if counts["fail"]:
        return EXIT_VERIFY_FAIL
    if counts["skipped"] and args.profile == "full":
        # the full profile promises completeness; a skip means a bound bit
        return EXIT_RESOURCE
    return EXIT_OK


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the top-level parser, and its subparsers by command name as the
    # subparsers action holds them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="togglegroup",
        description=(
            "Independent sets of the path on 1..n, their toggles, the "
            "Fibonacci-indexed generator families and the verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    with_n = argparse.ArgumentParser(add_help=False, parents=[common])
    with_n.add_argument("--n", type=_integer, required=True)

    def add(name, func, help_text, parent=with_n):
        p = sub.add_parser(name, parents=[parent], help=help_text)
        p.set_defaults(func=func)
        return p

    add("enumerate", _cmd_enumerate, "list independent sets in rank order")

    p = add("index", _cmd_index, "rank of an independent set")
    p.add_argument("--set", required=True, help='set text like "{1,3}"')

    p = add("unindex", _cmd_unindex, "independent set at a rank")
    p.add_argument("--idx", type=_integer, required=True)

    p = add("toggle", _cmd_toggle, "toggle vertex k in an independent set")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--set", required=True)

    p = add("generators", _cmd_generators, "print the generator family")
    p.add_argument("--prime", action="store_true", help="only members with k <= n-2")

    add("hat-t", _cmd_hat_t, "print the block-swap involution")

    p = add("toggle-perm", _cmd_toggle_perm, "permutation of ranks induced by a toggle")
    p.add_argument("--k", type=_integer, required=True)

    p = add("order", _cmd_order, "exact order of the generated group")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--prime", action="store_true", help="reduced family")
    which.add_argument("--toggles", action="store_true", help="toggle-induced permutations")

    p = add("verify", _cmd_verify, "run the verification harness", common)
    p.add_argument("--max-n", type=_integer, required=True, dest="max_n")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--claim", help="restrict to one claim id")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with one subparser per command."""
    return _build_parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # built once per process: parsing does not change the parsers, and
    # building them costs more than most commands
    return _build_parsers()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    # the command's own parser first, as the module docstring says; it sets
    # the command as the subparsers action would
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ResourceBoundError, FibCeilingError) as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
