"""What every record class does, pinned in `tests/record_pins.py`: in this
interpreter, and in a child process under every declared one that
`tests/test_interpreters.py` finds."""

from __future__ import annotations

import os
import subprocess

import pytest
import record_pins
from test_interpreters import VERSIONS, interpreter

from conftest import REPO

CHILD = "import sys; sys.path[:0] = ['src', 'tests']; import record_pins; record_pins.main()"


def test_every_record_class_is_pinned():
    assert sorted(record_pins.record_classes()) == sorted(record_pins.PINNED)
    assert set(record_pins.DEFAULTS) <= set(record_pins.PINNED)


@pytest.mark.parametrize("key", sorted(record_pins.PINNED))
def test_record_behaviour_is_pinned(key):
    record_pins.check(key)


@pytest.mark.parametrize("version", VERSIONS)
def test_record_pins_hold_under_every_interpreter(version):
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
    assert proc.stdout.splitlines() == [f"{key} ok" for key in sorted(record_pins.PINNED)]
