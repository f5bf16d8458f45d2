"""`tt0.cli` reads a well-formed command line itself and hands every other
one to argparse.  This module enumerates command lines, a command followed
by up to three tokens of an alphabet, and lists each one that the reader
accepts but that argparse parses to other fields, or on which argparse
prints anything.  It needs no pytest, so that a child process under any
interpreter can run it:

    PYTHONPATH=src python3.X tests/reader_check.py   # the small alphabet
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

COMMANDS = ["check", "elab", "nf", "extract", "run", "meta"]

# Operands, values `int()` reads as argparse does, values it refuses, full
# option spellings, and spellings only argparse reads: abbreviations, `=`,
# `--`, help, a lone `-`, negative numbers and unknown options.
ALPHABET = [
    "f.tt0", "g.tt0", "", "3", " 7", "1_0", "abc", "check",
    "-1", "-", "--", "-h", "--help", "-x",
    "--json", "--no-color", "--def", "--main", "--fuel",
    "--js", "--fu", "--de", "--json=1", "--fuel=3", "--def=x",
]  # fmt: skip
SMALL = [
    "f.tt0", "g.tt0", "3", "abc", "-1", "--", "-h",
    "--json", "--def", "--main", "--fuel", "--fu",
]  # fmt: skip


def command_lines(alphabet: list[str], most: int = 3):
    for command in COMMANDS:
        for n in range(most + 1):
            for rest in itertools.product(alphabet, repeat=n):
                yield [command, *rest]


def disagreements(alphabet: list[str]) -> tuple[int, list]:
    """How many command lines the reader accepts, and `[argv, reader's
    fields, argparse's fields or None, what argparse printed]` for each of
    them on which argparse disagrees."""
    from tt0.cli import _read, build_parser

    parser = build_parser()
    accepted, wrong = 0, []
    for argv in command_lines(alphabet):
        args = _read(argv)
        if args is None:
            continue
        accepted += 1
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                want = vars(parser.parse_args(argv))
        except SystemExit:
            want = None
        if vars(args) != want or printed.getvalue():
            wrong.append([argv, vars(args), want, printed.getvalue()])
    return accepted, wrong


if __name__ == "__main__":
    print(json.dumps(disagreements(SMALL)))
