"""Fuzzing the two text parsers and the command line.

Each parser may only reject input with its documented error, and what it
accepts is written in ASCII digits and its own punctuation; the set parser
accepts only the canonical text of a set.  The command
line may only return an exit code, never raise, and rejects n < 1; its
integer options take ASCII digits and an optional leading minus only.
"""

import contextlib
import io
import re

from hypothesis import example, given, settings, strategies as st

from togglegroup import (
    CycleParseError,
    all_claim_ids,
    format_set_text,
    parse_cycles,
    parse_set_text,
)
from togglegroup.cli import main

# the parsers' own characters, mixed with lookalikes: digits that are not
# ASCII, a sign, a letter and other whitespace
_NOISE = ["²", "٣", "１", "-", "x", "\t", "\n"]


def texts(alphabet: str):
    return st.lists(st.sampled_from(list(alphabet) + _NOISE), max_size=12).map("".join)


@given(texts("(), 0123456789"), st.integers(1, 12))
@example("(1,²)", 3)
@example("(1,٣)", 3)
def test_parse_cycles_raises_only_cycle_parse_error(text, degree):
    try:
        parse_cycles(text, degree)
    except CycleParseError:
        return
    assert set(text) <= set("(),0123456789 \t\n")


@given(texts("{},0123456789"))
@example("{٣}")
@example("{01}")
def test_parse_set_text_raises_only_value_error(text):
    try:
        members = parse_set_text(text)
    except ValueError:
        return
    # only the canonical text of a set is accepted
    assert text == format_set_text(members)


# the options each subcommand takes besides --n (--max-n for verify)
_OPTIONS = {
    "enumerate": (),
    "index": ("--set",),
    "unindex": ("--idx",),
    "toggle": ("--k", "--set"),
    "generators": ("--prime",),
    "hat-t": (),
    "toggle-perm": ("--k",),
    "order": ("--prime", "--toggles"),
    "verify": ("--profile", "--claim"),
}

_VALUES = {
    "--set": texts("{},0123456789"),
    "--k": st.integers(-1, 9).map(str),
    "--idx": st.integers(-1, 60).map(str),
    "--profile": st.sampled_from(["quick", "full"]),
    "--claim": st.sampled_from(all_claim_ids() + ("bogus",)),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    n = draw(st.integers(-3, 8))
    argv = [command, "--max-n" if command == "verify" else "--n", str(n)]
    for option in _OPTIONS[command]:
        if draw(st.booleans()):
            argv.append(option)
            if option in _VALUES:
                argv.append(draw(_VALUES[option]))
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.integers(0, 9)) == 0:  # now and then a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--k", "1", "--bogus"])))
    return n, argv


@settings(deadline=None)
@given(command_lines())
@example((0, ["order", "--n", "0"]))
@example((-1, ["generators", "--n", "-1"]))
def test_cli_returns_an_exit_code(case):
    n, argv = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if n < 1:
        assert code == 2


# a valid command line per integer option, and where that option's value sits
_INTEGER_SLOTS = (
    (("toggle", "--n", "4", "--k", "4", "--set", "{2}"), (2, 4)),
    (("unindex", "--n", "3", "--idx", "1"), (2, 4)),
    (("hat-t", "--n", "4"), (2,)),
    (("verify", "--max-n", "1"), (2,)),
)


@st.composite
def malformed_integers(draw):
    argv, slots = draw(st.sampled_from(_INTEGER_SLOTS))
    text = draw(
        st.lists(st.sampled_from(list("0123456789+ _") + _NOISE), max_size=6)
        .map("".join)
        .filter(lambda t: not re.fullmatch(r"-?[0-9]+", t))
    )
    argv = list(argv)
    argv[draw(st.sampled_from(slots))] = text
    return argv


@settings(deadline=None)
@given(malformed_integers())
@example(["toggle", "--n", "4", "--k", "٤", "--set", "{2}"])
@example(["verify", "--max-n", "３"])
@example(["hat-t", "--n", "+4"])
@example(["hat-t", "--n", " 4"])
@example(["unindex", "--n", "٣", "--idx", "1_0"])
def test_cli_integers_follow_the_digit_rule(argv):
    # int() reads every one of these; the command line rejects them
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 2
