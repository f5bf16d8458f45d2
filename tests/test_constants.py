"""Constants in core NbE: conversion and unification on every ordered pair of
a few constant, successor and variable values, and readback of each
constant term."""

from __future__ import annotations

import pytest

from tt0 import core as co
from tt0.core import conv, evaluate, quote
from tt0.diagnostics import UnifyError
from tt0.unify import MetaStore, unify

X = co.vvar(0)  # a rigid variable; every pair is compared at depth 1

VALUES = {
    "U": co.Univ(),
    "Nat": co.NatTy(),
    "Bool": co.BoolTy(),
    "0": co.Lit(0),
    "3": co.Lit(3),
    "4": co.Lit(4),
    "true": co.TrueTm(),
    "false": co.FalseTm(),
    "succ x": co.VSucc(X),
    "x": X,
}

CONSTANTS = [
    co.Univ(), co.NatTy(), co.BoolTy(), co.Lit(0), co.Lit(3), co.Lit(4),
    co.TrueTm(), co.FalseTm(),
]

HEADS_DIFFER = ("mismatch", "terms have different head constructors")

# Row a against column b, in the order of VALUES: "=" where `conv` answers
# yes and `unify` returns, "h" where `conv` answers no and `unify` raises
# HEADS_DIFFER.
GRID = """
    = h h h h h h h h h
    h = h h h h h h h h
    h h = h h h h h h h
    h h h = h h h h h h
    h h h h = h h h h h
    h h h h h = h h h h
    h h h h h h = h h h
    h h h h h h h = h h
    h h h h h h h h = h
    h h h h h h h h h =
"""

PAIRS = [
    (a, b, cell)
    for a, row in zip(VALUES, GRID.split("\n")[1:-1])
    for b, cell in zip(VALUES, row.split())
]


@pytest.mark.parametrize(
    "a, b, cell", PAIRS, ids=[f"{a} ~ {b}" for a, b, _ in PAIRS]
)
def test_conv_and_unify_on_each_pair(a: str, b: str, cell: str):
    va, vb = VALUES[a], VALUES[b]
    assert conv(MetaStore(), 1, va, vb) is (cell == "=")
    if cell == "=":
        unify(MetaStore(), 1, va, vb, ("x",).__getitem__)
    else:
        with pytest.raises(UnifyError) as e:
            unify(MetaStore(), 1, va, vb, ("x",).__getitem__)
        assert (e.value.reason, e.value.message) == HEADS_DIFFER


@pytest.mark.parametrize("c", CONSTANTS, ids=repr)
def test_quote_of_evaluate_gives_back_each_constant(c: co.Term):
    assert quote(MetaStore(), 0, evaluate((), c)) == c
    assert quote(MetaStore(), 1, evaluate((X,), c)) == c
