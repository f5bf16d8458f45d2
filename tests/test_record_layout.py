"""The layout of every record class in `tt0`: a slot for each field it
declares, and no instance `__dict__` or `__weakref__`.  `vars(record)` is a
view of the fields, which the benchmark's tracer reads to count nodes."""

from __future__ import annotations

import importlib
import pkgutil
import tracemalloc

import pytest
from record_pins import PINNED
from test_tracer_names import load_tracer

import tt0
from tt0 import core as co
from tt0.elab import closed_definition, closed_main
from tt0.extract import Target, extract
from tt0.record import Record


def record_classes() -> list[type]:
    """Every subclass of `Record` defined in a module of `tt0`."""
    for m in pkgutil.iter_modules(tt0.__path__):
        if m.name != "__main__":
            importlib.import_module(f"tt0.{m.name}")
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        subclasses = [c for c in cls.__subclasses__() if c.__module__.startswith("tt0.")]
        out += [c for c in subclasses if c not in out]
        todo += subclasses
    return sorted(out, key=lambda c: f"{c.__module__}.{c.__qualname__}")


CLASSES = record_classes()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_fields_are_slots_and_instances_have_no_dict(cls):
    assert cls.__dictoffset__ == 0 and cls.__weakrefoffset__ == 0
    declared = tuple(vars(cls).get("__annotations__", ()))
    assert vars(cls)["__slots__"] == declared
    inherited = tuple(f for base in cls.__bases__ for f in base.__match_args__)
    assert cls.__match_args__ == inherited + declared


def test_the_walk_finds_the_pinned_classes():
    assert sorted(f"{c.__module__[4:]}.{c.__qualname__}" for c in CLASSES) == sorted(PINNED)


def test_a_node_with_two_children_is_small():
    n = 1000
    nodes: list = [None] * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            nodes[i] = co.App(co.OMEGA, co.EXPL, co.Var(0), co.Var(1))
        size = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert size <= 160, size


def walk(root: Record, base: type) -> int:
    """The nodes of a tree whose node classes derive from `base`, found
    through `__match_args__`."""
    n, todo = 0, [root]
    while todo:
        t = todo.pop()
        n += 1
        todo += [v for f in t.__match_args__ if isinstance(v := getattr(t, f), base)]
    return n


def test_tracer_counts_the_nodes_of_every_corpus_term_and_target(corpus):
    count_nodes = load_tracer().count_nodes
    terms, targets = [], []
    for result in corpus.values():
        terms += [t for d in result.decls for t in (d.ty, d.body)]
        targets += [extract(co.Context(), closed_definition(result, d.name)) for d in result.decls]
        if result.main is not None:
            terms.append(result.main[0])
            targets.append(extract(co.Context(), closed_main(result)))
    for trees, base in ((terms, co.Term), (targets, Target)):
        counts = [count_nodes(t, base) for t in trees]
        assert counts == [walk(t, base) for t in trees]
        assert max(counts) > 10
