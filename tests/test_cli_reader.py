"""`tt0.cli` reads a well-formed command line itself and hands every other
one to argparse.  Wherever the reader accepts a command line, argparse
parses it to the same fields and prints nothing: over the enumeration of
`tests/reader_check.py` in this interpreter, and over its small alphabet
in a child process under every declared interpreter that
`tests/test_interpreters.py` finds."""

from __future__ import annotations

import json
import os
import subprocess

import pytest
import reader_check
from test_interpreters import VERSIONS, interpreter

from conftest import REPO
from tt0.cli import _read, build_parser


def test_the_reader_agrees_with_argparse():
    accepted, wrong = reader_check.disagreements(reader_check.ALPHABET)
    assert wrong == []
    # Of 97 656 command lines; fewer would leave more of them to argparse.
    assert accepted == 768


@pytest.mark.parametrize("version", VERSIONS)
def test_the_reader_agrees_with_argparse_under_every_interpreter(version):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} starts")
    proc = subprocess.run(
        [python, "tests/reader_check.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [152, []]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "f.tt0", "--json"],
        ["elab", "--no-color", "f.tt0"],
        ["nf", "f.tt0", "--def", "plus"],
        ["extract", "--def", "id", "f.tt0"],
        ["extract", "f.tt0", "--main", "--json"],
        ["run", "f.tt0", "--fuel", "7", "--json"],
        ["run", "f.tt0"],
        ["meta", "f.tt0", "--json", "--no-color"],
    ],
    ids=" ".join,
)
def test_the_reader_reads_the_usual_command_lines(argv):
    args = _read(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))
