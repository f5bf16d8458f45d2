"""The text of both term printers, pinned in `tests/printer_pins.py`: in
this interpreter, and in a child process under every declared one that
`tests/test_interpreters.py` finds."""

from __future__ import annotations

import os
import subprocess

import printer_pins
import pytest
from test_interpreters import VERSIONS, interpreter

from conftest import REPO

CHILD = "import sys; sys.path[:0] = ['src', 'tests']; import printer_pins; printer_pins.main()"


@pytest.mark.parametrize("key", sorted(printer_pins.PINNED))
def test_printer_text_is_pinned(key):
    printer_pins.check(key)


@pytest.mark.parametrize("version", VERSIONS)
def test_printer_pins_hold_under_every_interpreter(version):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} starts")
    proc = subprocess.run(
        [python, "-c", CHILD],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{key} ok" for key in sorted(printer_pins.PINNED)]
