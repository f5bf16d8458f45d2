"""Every declared interpreter prints what the tier-1 interpreter prints.

For each of `python3.10` … `python3.13`, one child process runs `check`,
`elab`, `meta` and `run`, each with `--json`, over every corpus file, good
and bad, and reports each command's stdout, stderr and exit code.  They
must be identical to those of the same child run under the interpreter
running the tests.  An interpreter is the `python3.X` on `PATH` when its
`-c pass` succeeds; otherwise the first that starts of the installed
`3.X.*/bin/python3.X` beside the running interpreter's prefix, as pyenv
lays out its versions (its shim for a version not selected does not
start).  A version with no interpreter that starts is skipped.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REPO, bad_corpus_files, corpus_files

VERSIONS = ["3.10", "3.11", "3.12", "3.13"]
COMMANDS = ["check", "elab", "meta", "run"]

CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, "src")
from tt0.cli import main
results = []
for command in %r:
    for path in sys.argv[1:]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--json"])
        results.append([command, path, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
""" % (COMMANDS,)


FILES = [str(p.relative_to(REPO)) for p in corpus_files() + bad_corpus_files()]


def run_child(python: str) -> list:
    proc = subprocess.run(
        [python, "-c", CHILD, *FILES],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def interpreter(version: str) -> str | None:
    """The first interpreter of a version that starts: on `PATH`, then installed."""
    installed = Path(sys.base_prefix).parent.glob(f"{version}.*/bin/python{version}")
    for python in (shutil.which(f"python{version}"), *sorted(installed)):
        if python and subprocess.run([python, "-c", "pass"], capture_output=True).returncode == 0:
            return str(python)
    return None


@pytest.fixture(scope="module")
def reference() -> list:
    return run_child(sys.executable)


@pytest.mark.parametrize("version", VERSIONS)
def test_corpus_output_matches_the_tier1_interpreter(version, reference):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} starts")
    results = run_child(python)
    assert len(results) == len(reference) == len(COMMANDS) * len(FILES)
    for got, want in zip(results, reference):
        assert got == want, got[:2]
