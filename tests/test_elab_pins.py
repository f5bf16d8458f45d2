"""Snapshots of `tt0 elab` over the modules of `conftest.PINNED_MODULES`.

`tests/elab_pins.json` holds, for each module, the plain output and the
`--json` output (parsed) of `tt0 elab`.  A change that alters them on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_elab_pins.py

and the diff of `tests/elab_pins.json` is then the exact change.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import PINNED_MODULES
from tt0.cli import main

TESTS = Path(__file__).resolve().parent
PINS = TESTS / "elab_pins.json"


def elab_output(source: str, directory: Path) -> dict:
    path = directory / "module.tt0"
    path.write_text(source)
    out = {}
    for key, argv in (("elab", []), ("elab_json", ["--json"])):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["elab", str(path), *argv]) == 0
        text = stdout.getvalue()
        out[key] = json.loads(text) if argv else text
    return out


@pytest.mark.parametrize("name", sorted(PINNED_MODULES))
def test_elab_output_matches_pin(name, tmp_path):
    expected = json.loads(PINS.read_text())[name]
    assert expected["source"] == PINNED_MODULES[name]
    assert elab_output(expected["source"], tmp_path) == {
        "elab": expected["elab"],
        "elab_json": expected["elab_json"],
    }


def regenerate() -> None:
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in sorted(PINNED_MODULES.items()):
            pins[name] = {"source": source, **elab_output(source, Path(tmp))}
    PINS.write_text(json.dumps(pins, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    regenerate()
