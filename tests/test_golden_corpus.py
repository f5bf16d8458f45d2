"""Byte-for-byte snapshots of the command line over the whole corpus.

For every corpus file (good and bad) the snapshot holds the exit code,
stdout and stderr of `tt0 check|elab|run|meta`, of `tt0 extract --main`,
and of `tt0 extract --def NAME` and `tt0 nf --def NAME` for every
declaration the file declares, each plain and with `--json`.  `cli.main`
runs in process from the repository root, so diagnostics name files by
their relative path.

The snapshots live in `tests/golden/`, one JSON file per corpus file.  A
change that alters CLI output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden_corpus.py

and the diff of `tests/golden/` is then the exact behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

COMMANDS = ("check", "elab", "run", "meta")


def corpus_paths() -> list[str]:
    """Corpus files relative to the repository root, good files first."""
    files = sorted((REPO / "corpus").glob("*.tt0")) + sorted(
        (REPO / "corpus" / "bad").glob("*.tt0")
    )
    return [p.relative_to(REPO).as_posix() for p in files]


def argvs_for(path: str) -> list[list[str]]:
    from tt0.diagnostics import Diagnostic
    from tt0.surface import parse_module_text

    argvs = [[cmd, path, *json_flag] for cmd in COMMANDS for json_flag in ([], ["--json"])]
    argvs += [["extract", path, "--main"], ["extract", path, "--main", "--json"]]
    try:
        decls = parse_module_text((REPO / path).read_text(), path).decls
    except Diagnostic:
        decls = ()
    for d in decls:
        for cmd in ("extract", "nf"):
            argvs += [[cmd, path, "--def", d.name], [cmd, path, "--def", d.name, "--json"]]
    return argvs


def run_cli(argv: list[str]) -> dict:
    from tt0.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_file(path: str) -> Path:
    return GOLDEN / (Path(path).relative_to("corpus").with_suffix(".json"))


@pytest.mark.parametrize("path", corpus_paths())
def test_cli_output_matches_snapshot(path, monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("TT0_FUEL", raising=False)
    expected = json.loads(golden_file(path).read_text())
    assert [rec["argv"] for rec in expected] == argvs_for(path)
    for rec in expected:
        assert run_cli(rec["argv"]) == rec, " ".join(rec["argv"])


def regenerate() -> None:
    os.chdir(REPO)
    os.environ.pop("TT0_FUEL", None)
    for path in corpus_paths():
        target = golden_file(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        records = [run_cli(argv) for argv in argvs_for(path)]
        target.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    regenerate()
