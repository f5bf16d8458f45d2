"""The help, usage and error text of `tt0`, pinned in `tests/usage_pins.py`:
in this interpreter, and in a child process under every declared one that
`tests/test_interpreters.py` finds.  A Python version with no pins is
skipped."""

from __future__ import annotations

import json
import os
import platform
import subprocess

import pytest
import usage_pins
from test_interpreters import VERSIONS, interpreter

from conftest import REPO
from tt0.cli import main

CHILD = "import sys; sys.path[:0] = ['src', 'tests']; import usage_pins; usage_pins.main()"


def pins_for(version: str) -> list[list]:
    pins = usage_pins.pinned()
    if version not in pins:
        pytest.skip(f"no usage pins for Python {version}")
    return pins[version]


@pytest.mark.parametrize(
    "index, argv", enumerate(usage_pins.ARGVS), ids=lambda a: " ".join(a) if isinstance(a, list) else ""
)
def test_usage_text_matches_the_pin(index, argv, capsys, monkeypatch):
    pin = pins_for(platform.python_version())[index]
    assert pin[0] == argv
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TT0_FUEL", raising=False)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert [argv, code, out, err] == pin


@pytest.mark.parametrize("version", VERSIONS)
def test_usage_text_matches_the_pins_under_every_interpreter(version):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} starts")
    proc = subprocess.run(
        [python, "-c", CHILD],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    full_version, results = json.loads(proc.stdout)
    assert results == pins_for(full_version)
