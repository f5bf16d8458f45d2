"""The walkers of `core`, `unify` and `extract` branch on the exact class of
a node (`type(x) is C`), so the order of their arms and the class tree they
dispatch on are pinned here.

The first part pins, for `conv` and for `unify`, the outcome on each pair of
value classes where the order of the arms decides it: λ-η before pair-η in
both, flexible metas solved before pair-η in `unify`, and a successor
against zero that is a mismatch of heads.  The second part checks that
dispatch by `is` sees every node: no class it names has a subclass."""

from __future__ import annotations

import pytest

from tt0 import core as co
from tt0 import extract as ex
from tt0.core import Closure, Context, Icit, Lit, Mode, NatTy, VPair, VSucc, conv, evaluate
from tt0.diagnostics import InternalError, UnifyError
from tt0.unify import MetaStore, fresh_meta, unify

W, Z0 = Mode.OMEGA, Mode.ZERO
EX, IM = Icit.EXPL, Icit.IMPL

NAT_TO_NAT = co.VPi("n", W, EX, NatTy(), Closure((), NatTy()))
NAT_X_NAT = co.VSigma("a", W, NatTy(), Closure((), NatTy()))
# f : Nat -> Nat, x : Nat, y : Nat
CTX = Context().bind("f", W, NAT_TO_NAT).bind("x", W, NatTy()).bind("y", W, NatTy())
F, X, Y = co.vvar(0), co.vvar(1), co.vvar(2)
LAM_ID = co.VLam("z", W, EX, Closure((), co.Var(0)))  # λz. z
LAM_F = evaluate(CTX.env, co.Lam("z", W, EX, co.App(W, EX, co.Var(3), co.Var(0))))  # λz. f z
PAIR = VPair(W, Lit(0), Lit(0))


def pi(mode: Mode, icit: Icit) -> co.VPi:
    return co.VPi("a", mode, icit, NatTy(), Closure((), NatTy()))


def outcome(run) -> tuple:
    """What a call gives: its result, a `UnifyError`'s reason and message, or
    an `InternalError`'s message."""
    try:
        return ("ok", run())
    except UnifyError as e:
        return ("UnifyError", e.reason, e.message)
    except InternalError as e:
        return ("InternalError", e.message.split(" value ")[0])


def both(store_of, a, b) -> tuple[tuple, tuple]:
    """The outcomes of `conv` and of `unify` on `a` and `b` at the depth of
    `CTX`, each with a store of its own from `store_of`."""
    c = outcome(lambda: conv(store_of(), CTX.depth, a, b))
    u = outcome(lambda: unify(store_of(), CTX.depth, a, b, CTX.name))
    return c, u


HEADS_DIFFER = ("UnifyError", "mismatch", "terms have different head constructors")
NOT_A_FUNCTION = ("InternalError", "applying a non-function")


@pytest.mark.parametrize(
    "a, b, conv_gives, unify_gives",
    [
        # λ-η comes first: the pair is applied, not the lambda projected.
        (LAM_ID, PAIR, NOT_A_FUNCTION, NOT_A_FUNCTION),
        (PAIR, LAM_ID, NOT_A_FUNCTION, NOT_A_FUNCTION),
        # A lambda against a neutral, by η.
        (LAM_F, F, ("ok", True), ("ok", None)),
        (F, LAM_F, ("ok", True), ("ok", None)),
        (LAM_ID, F, ("ok", False), ("UnifyError", "mismatch", "variables 'z' and 'f' differ")),
        (F, LAM_ID, ("ok", False), ("UnifyError", "mismatch", "variables 'f' and 'z' differ")),
        # Formers of different classes, modes or implicitness.
        (pi(W, EX), co.VSigma("a", W, NatTy(), Closure((), NatTy())), ("ok", False), HEADS_DIFFER),
        (NAT_X_NAT, pi(W, EX), ("ok", False), HEADS_DIFFER),
        (
            pi(Z0, EX),
            pi(W, EX),
            ("ok", False),
            ("UnifyError", "mismatch", "function type modes differ (Π₀ vs Πω)"),
        ),
        (
            pi(W, EX),
            pi(W, IM),
            ("ok", False),
            ("UnifyError", "mismatch", "function type implicitness differs"),
        ),
        # A successor against zero shares no successor: the heads differ.
        (VSucc(X), Lit(0), ("ok", False), HEADS_DIFFER),
        (Lit(0), VSucc(X), ("ok", False), HEADS_DIFFER),
        # Two rigid neutrals with different heads.
        (X, Y, ("ok", False), ("UnifyError", "mismatch", "variables 'x' and 'y' differ")),
        (
            co.vapp(F, W, EX, X),
            co.vapp(F, W, EX, Y),
            ("ok", False),
            ("UnifyError", "mismatch", "variables 'x' and 'y' differ"),
        ),
    ],
)
def test_rigid_pairs_of_classes(a, b, conv_gives, unify_gives):
    assert both(MetaStore, a, b) == (conv_gives, unify_gives)


@pytest.mark.parametrize("meta_first", [True, False])
def test_a_pair_against_a_flexible_meta_solves_it_before_pair_eta(meta_first):
    def run(compare):
        store = MetaStore()
        m = evaluate((), fresh_meta(store, Context(), NAT_X_NAT))
        args = (m, PAIR) if meta_first else (PAIR, m)
        return outcome(lambda: compare(store, 0, *args)), store.lookup(0).solution_closed

    # `conv` solves nothing: pair-η projects the meta, and the projection
    # differs from zero.  `unify` solves the meta with the pair itself, where
    # pair-η first would have met a projection spine, not a pattern.
    assert run(conv) == (("ok", False), None)
    assert run(unify) == (("ok", None), co.Pair(W, Lit(0), Lit(0)))


def test_two_flexible_metas_neither_a_pattern():
    # ?0 0 against ?1 1: neither spine is a variable, so neither side solves.
    def run(compare):
        store = MetaStore()
        m1, m2 = (evaluate((), fresh_meta(store, Context(), NAT_TO_NAT)) for _ in range(2))
        a, b = co.vapp(m1, W, EX, Lit(0)), co.vapp(m2, W, EX, Lit(1))
        return outcome(lambda: compare(store, 0, a, b)), [e.solved for e in store]

    assert run(conv) == (("ok", False), [False, False])
    assert run(unify) == (
        (
            "UnifyError",
            "non-pattern",
            "non-pattern spine: metavariable applied to a non-variable",
        ),
        [False, False],
    )


# ---------------------------------------------------------------------------
# Dispatch by `is` is sound


def descendants(cls: type) -> set[type]:
    out, todo = set(), [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.add(sub)
                todo.append(sub)
    return out


# The classes the walkers test with `type(x) is C`: every record class of
# terms, values, spine items, neutral heads and target terms.
DISPATCHED = (
    (descendants(co.Term) | descendants(co.Value) | descendants(ex.Target)) - {co.Constant}
) | {co.SApp, co.SFst, co.SSnd, co.SNatElim, co.SBoolElim, co.VarH, co.MetaH, co.Closure}


def test_no_dispatched_class_has_a_subclass():
    assert {c: c.__subclasses__() for c in DISPATCHED if c.__subclasses__()} == {}


def test_the_constant_leaves_are_the_rows_of_the_constant_table():
    # `Constant` is the one class with subclasses; a walker reaches a
    # constant through `type(t) in _CONSTANT_ROWS`.
    assert descendants(co.Constant) == set(co._CONSTANT_ROWS)


V0 = co.Var(0)
ONE_OF_EACH_TERM = [
    V0,
    co.Lam("x", W, EX, V0),
    co.App(W, EX, V0, V0),
    co.Pi("x", Z0, IM, V0, V0),
    co.Sigma("x", W, V0, V0),
    co.Pair(W, V0, V0),
    co.Fst(W, V0),
    co.Snd(Z0, V0),
    co.Succ(V0),
    co.NatElim(V0, V0, V0, V0),
    co.BoolElim(V0, V0, V0, V0),
    co.Let("x", V0, V0, V0),
    co.Meta(0, (W, None)),
    *(const for const, _, _ in co.CONSTANTS.values()),
    Lit(7),
]


def test_every_term_class_comes_back_itself_from_an_identity_map():
    term_classes = descendants(co.Term) - {co.Constant}
    assert {type(t) for t in ONE_OF_EACH_TERM} == term_classes
    for t in ONE_OF_EACH_TERM:
        assert co.map_subterms(t, lambda u, depth: u) is t, t
