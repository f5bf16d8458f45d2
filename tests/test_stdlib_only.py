"""tt0 needs nothing beyond the Python standard library (README), and only
`tt0.cli` writes output."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

from conftest import REPO

MODULES = sorted((REPO / "src" / "tt0").glob("*.py"))


def absolute_imports(path) -> list[str]:
    """The top-level name of each absolute import in a module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_module_imports_only_the_standard_library():
    assert MODULES
    outside = {
        f"{path.name}: {name}"
        for path in MODULES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


STREAMS = {"stdout", "stderr"}


def output_writes(path) -> list[str]:
    """Where a module calls `print` or names `sys.stdout` or `sys.stderr`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                found.append(f"{path.name}:{node.lineno}: print")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "sys" and node.attr in STREAMS:
                found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if STREAMS & {alias.name for alias in node.names}:
                found.append(f"{path.name}:{node.lineno}: from sys import")
    return found


def test_only_the_driver_writes_output():
    # Each command returns its result, and `cli.main` writes it once.
    writes = {path.name: output_writes(path) for path in MODULES}
    assert writes.pop("cli.py")
    assert not [w for ws in writes.values() for w in ws]


def test_importing_the_cli_does_not_import_dataclasses():
    # Record classes are built by `tt0.record`; the `dataclasses` decorator
    # cost most of the import time.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    script = "import sys, tt0.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_command_imports_no_json_package():
    # `tt0.jsontext` quotes strings with the C function of `_json` that
    # `json.encoder` itself uses, and no command decodes JSON.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    script = """\
import contextlib, io, sys
from tt0.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    print(main(["check", sys.argv[1], "--json"]), file=sys.stderr)
print(sorted(m for m in sys.modules if m.split(".")[0] == "json"), file=sys.stderr)
"""
    path = REPO / "corpus" / "mult.tt0"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr == "0\n[]\n"


def test_a_well_formed_command_line_imports_no_argparse():
    # The driver reads such a command line itself; argparse, which writes
    # help, usage and error text, and the modules it loads come on demand.
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    script = """\
import contextlib, io, sys
from tt0.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    print(main(["check", sys.argv[1], "--json"]), file=sys.stderr)
print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)), file=sys.stderr)
print(main(["--help"]), file=sys.stderr)
"""
    path = REPO / "corpus" / "mult.tt0"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr == "0\n[]\n0\n"
    assert proc.stdout.startswith("usage: tt0 ")
