"""The benchmark's tracer patches tt0 functions by module and name, so a
rename of one of them must fail here, not only in a traced benchmark run."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys

from conftest import CORPUS, REPO

LAYERS = ("cli", "surface", "elab", "unify", "core", "translate", "extract")


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_check_of_a_corpus_file(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = load_tracer()
    saved = {n: m for n, m in sys.modules.items() if n == "tt0" or n.startswith("tt0.")}
    try:
        # Fresh modules, as the benchmark imports them before every pass.
        for name in saved:
            del sys.modules[name]
        importlib.import_module("tt0.cli")
        tt0 = {name: sys.modules[f"tt0.{name}"] for name in LAYERS}
        originals = {name: vars(m).copy() for name, m in tt0.items()}
        t = tracer.Tracer(tt0)
        t.install()
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tt0["cli"].main(["check", str(CORPUS / "id_insert.tt0"), "--json"])
        finally:
            t.uninstall()
        assert code == 0, out.getvalue()
        totals = t.totals()
        for metric in ("surface.tokens", "elab.decls", "core.kernel_check_calls",
                       "core.term_nodes", "unify.unify_calls"):
            assert totals[metric] > 0, metric
        for name, m in tt0.items():
            assert vars(m) == originals[name], name
    finally:
        for name in [n for n in sys.modules if n == "tt0" or n.startswith("tt0.")]:
            del sys.modules[name]
        sys.modules.update(saved)
