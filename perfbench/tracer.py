"""Per-layer tracing of tt0 from outside the package.

Each traced function is replaced, for the length of a traced pass, in the
module its callers look it up in: `tt0.elab.unify` rather than
`tt0.unify.unify`, `tt0.core.kernel_check` (which the elaborator, the
unifier and the translations all reach as `co.kernel_check`), and so on.
While a wrapped call runs, the original is put back under its name, so
the layer's own recursion runs unwrapped and only the outermost call into
the layer is recorded.  Spans nest: a span's self time is its duration
minus the time of the spans opened inside it.  Time spent counting nodes
for the count metrics is charged to no layer.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# name -> unit, in the order the traced run reports them.
METRICS = {
    "surface.parse_s": "s",
    "surface.tokens": "count",
    "elab.elaborate_s": "s",
    "elab.zonk_s": "s",
    "elab.close_s": "s",
    "elab.decls": "count",
    "unify.fresh_meta_s": "s",
    "unify.metas": "count",
    "unify.unify_calls": "count",
    "unify.unify_s": "s",
    "unify.solve_s": "s",
    "unify.solutions": "count",
    "core.kernel_check_calls": "count",
    "core.kernel_s": "s",
    "core.term_nodes": "count",
    "translate.sweep_s": "s",
    "translate.decls": "count",
    "extract.extract_s": "s",
    "extract.target_nodes": "count",
    "extract.eval_s": "s",
    "extract.result_nodes": "count",
    "cli.self_s": "s",
}


def count_nodes(root: Any, base: type) -> int:
    """Nodes of a tree of frozen dataclasses whose node classes derive from
    `base`.  Iterative: numerals are chains tens of thousands deep."""
    n = 0
    todo = [root]
    while todo:
        t = todo.pop()
        n += 1
        todo.extend(v for v in vars(t).values() if isinstance(v, base))
    return n


class Tracer:
    """Per-layer times and counts of one traced pass: `install` before the
    pass, clear `values` before each operation and read `totals()` after
    it, `uninstall` after the pass."""

    def __init__(self, tt0: dict[str, ModuleType]):
        self.tt0 = tt0
        self.values: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    def totals(self) -> dict[str, float]:
        return {name: self.values[name] for name in METRICS}

    def install(self) -> None:
        cli, surface, elab = self.tt0["cli"], self.tt0["surface"], self.tt0["elab"]
        unify, core = self.tt0["unify"], self.tt0["core"]
        translate, extract = self.tt0["translate"], self.tt0["extract"]
        term, target = core.Term, extract.Target

        def decl_nodes(result: Any) -> None:
            self.values["elab.decls"] += len(result.decls)
            if result.ok:
                trees = [t for d in result.decls for t in (d.ty, d.body)]
                if result.main is not None:
                    trees.append(result.main[0])
                self.values["core.term_nodes"] += sum(count_nodes(t, term) for t in trees)

        self._wrap(cli, "main", "cli.self_s", self_time=True)
        self._wrap(surface, "parse_module_text", "surface.parse_s")
        self._wrap(surface, "tokenize", None,
                   after=lambda r: self._add("surface.tokens", len(r)))
        self._wrap(cli, "elaborate_text", "elab.elaborate_s", self_time=True,
                   after=decl_nodes)
        self._wrap(elab, "zonk", "elab.zonk_s")
        self._wrap(cli, "closed_main", "elab.close_s")
        self._wrap(cli, "closed_definition", "elab.close_s")
        self._wrap(elab, "fresh_meta", "unify.fresh_meta_s", calls="unify.metas")
        self._wrap(elab, "unify", "unify.unify_s", self_time=True,
                   calls="unify.unify_calls")
        self._wrap(unify, "solve", "unify.solve_s", self_time=True,
                   after=lambda r: self._add("unify.solutions", 1))
        self._wrap(core, "kernel_check", "core.kernel_s",
                   calls="core.kernel_check_calls")
        self._wrap(translate, "sweep", "translate.sweep_s",
                   after=lambda r: self._add("translate.decls", len(r)))
        self._wrap(extract, "extract", "extract.extract_s",
                   after=lambda r: self._add("extract.target_nodes", count_nodes(r, target)))
        self._wrap(extract, "eval_target", "extract.eval_s",
                   after=lambda r: self._add("extract.result_nodes", count_nodes(r, target)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    def _wrap(
        self,
        owner: ModuleType,
        attr: str,
        metric: str | None,
        self_time: bool = False,
        calls: str | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        values, open_spans = self.values, self._open

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            setattr(owner, attr, original)
            if calls is not None:
                values[calls] += 1
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = open_spans.pop()
                setattr(owner, attr, wrapper)
                if metric is not None:
                    values[metric] += elapsed - children if self_time else elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                b0 = perf_counter()
                after(result)
                if open_spans:
                    open_spans[-1] += perf_counter() - b0
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
