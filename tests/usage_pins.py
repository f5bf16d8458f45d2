"""What `tt0` prints for the command lines that argparse reads: help,
usage errors, and the spellings only argparse accepts.

`tests/usage_pins.json` holds, for each Python version it was recorded
under, the exit code, stdout and stderr of `cli.main` for every command
line in `ARGVS`, run from the repository root with `COLUMNS=80` (argparse
wraps help to the terminal's width) and without `TT0_FUEL`.
`tests/test_usage_pins.py` checks them.  This module needs no pytest, so
that a child process under any interpreter can run it:

    PYTHONPATH=src python3.X tests/usage_pins.py           # print the outputs
    PYTHONPATH=src python3.X tests/usage_pins.py --write   # record them as pins

A change that alters this text on purpose records the pins again under
each interpreter, and the diff of `tests/usage_pins.json` is then the
exact change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
PINS = TESTS / "usage_pins.json"

FILE = "corpus/identity.tt0"
COMMANDS = ["check", "elab", "nf", "extract", "run", "meta"]
ARGVS = [
    [],
    ["--help"],
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    ["frobnicate", FILE],
    ["check"],
    ["run", "--json"],
    ["nf", FILE],
    ["nf", FILE, "--def"],
    ["extract", FILE],
    ["extract", FILE, "--def", "id", "--main"],
    ["extract", FILE, "--def=id"],
    ["run", FILE, "--fuel", "abc"],
    ["run", FILE, "--fuel=3"],
    ["run", FILE, "--fu", "3"],
    ["run", FILE, "--fuel", "-1"],
    ["run", FILE, "--fuel", "0", "--fuel", "1"],
    ["check", FILE, "--js"],
    ["check", FILE, "--json", "--json"],
    ["check", "--", FILE],
    ["check", FILE, "extra.tt0"],
    ["check", FILE, "-x"],
    ["check", "-"],
    ["check", "-1"],
]


def outputs() -> list[list]:
    """`[argv, exit code, stdout, stderr]` for every command line, run from
    the repository root; the caller sets `COLUMNS` and unsets `TT0_FUEL`."""
    from tt0.cli import main

    results = []
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        results.append([argv, code, out.getvalue(), err.getvalue()])
    return results


def pinned() -> dict[str, list[list]]:
    """The pins, by the `platform.python_version()` they were recorded under."""
    return json.loads(PINS.read_text(encoding="utf-8"))


def main() -> None:
    os.chdir(REPO)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("TT0_FUEL", None)
    if "--write" not in sys.argv[1:]:
        print(json.dumps([platform.python_version(), outputs()]))
        return
    pins = pinned() if PINS.exists() else {}
    pins[platform.python_version()] = outputs()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
