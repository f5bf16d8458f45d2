"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a PASS line on success so a verbose run doubles as the
acceptance report:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import pytest

from conftest import CORPUS, corpus_files
from tt0 import core as co
from tt0.cli import main as cli_main
from tt0.core import Context, NatTy, kernel_check, normal_form
from tt0.diagnostics import UnifyError
from tt0.elab import close_over_signature, closed_definition, elaborate_text
from tt0.extract import (
    TApp,
    TLam,
    TLit,
    TVar,
    alpha_eq,
    as_numeral,
    eval_target,
    extract,
)
from tt0.surface import Icit, Mode
from tt0.translate import strip_modes
from tt0.unify import MetaStore, fresh_meta, invert, solve, unify

W, Z0 = Mode.OMEGA, Mode.ZERO
EX = Icit.EXPL


def _passed(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def core_nat(k: int) -> co.Term:
    return co.Lit(k)


def read_core_numeral(t: co.Term) -> int:
    assert isinstance(t, co.Lit), "not a numeral"
    return t.n


def is_simple_fn(ty: co.Value, mode: Mode) -> bool:
    return (
        isinstance(ty, co.VPi)
        and ty.mode is mode
        and ty.icit is Icit.EXPL
        and ty.dom == NatTy()
        and ty.cod.apply(co.vvar(0)) == NatTy()
    )


def closed_type(result, name: str) -> co.Term:
    lvl = next(i for i, d in enumerate(result.decls) if d.name == name)
    return close_over_signature(result, result.decls[lvl].ty, lvl)


def test_acceptance_1_kernel_independence(corpus):
    files = corpus_files()
    assert len(files) >= 25
    # The required variety is present.
    for required in (
        "identity",  # mode-polymorphic identity
        "vec_pair",  # list-vs-vec encoding through an erased-length pair
        "fin_pair",  # bounded-number-style nested pairs
        "plus",
        "mult",  # arithmetic through natural recursion
        "bools",  # boolean elimination
        "id_insert",
        "twice",  # implicit arguments exercising metavariables
    ):
        assert required in corpus, required
    checked = 0
    for name, result in corpus.items():
        assert result.ok, name
        assert result.store.unsolved() == [], name
        # The kernel re-checks the zonked output with no meta store.
        sig = Context()
        for d in result.decls:
            kernel_check(None, sig.erased(), d.ty, co.Univ())
            kernel_check(None, sig, d.body, d.ty_value)
            sig = sig.define(d.name, W, d.ty_value, d.body_value)
            checked += 1
        if result.main is not None:
            kernel_check(None, sig, result.main[0], result.main[1])
    assert checked > 0
    _passed(1, "kernel independence")


def test_acceptance_2_canonicity(corpus):
    programs = 0
    for name, result in corpus.items():
        for d in result.decls:
            if d.ty_value != NatTy():
                continue
            closed = closed_definition(result, d.name)
            semantic = read_core_numeral(normal_form(result.store, (), closed))
            extracted = eval_target(extract(Context(), closed))
            assert as_numeral(extracted) == semantic, f"{name}.{d.name}"
            programs += 1
    assert programs >= 10
    # plus 2 3 = 5 specifically:
    five = closed_definition(corpus["plus"], "five")
    assert read_core_numeral(normal_form(corpus["plus"].store, (), five)) == 5
    assert as_numeral(eval_target(extract(Context(), five))) == 5
    _passed(2, f"canonicity over {programs} numeric programs")


def test_acceptance_3_tracking(corpus):
    # Successor, constant, partially applied addition, recursion-defined
    # double, and a composition; plus anything else of type Nat -> Nat.
    required = [
        ("tracking_fns", "succ1"),
        ("tracking_fns", "c9"),
        ("plus", "plusTwo"),
        ("double", "double"),
        ("compose", "succTwice"),
    ]
    fns: list[tuple[str, str]] = list(required)
    for name, result in corpus.items():
        for d in result.decls:
            key = (name, d.name)
            if key not in fns and is_simple_fn(d.ty_value, W):
                fns.append(key)
    assert len(fns) >= 5
    for mod, fname in fns:
        result = corpus[mod]
        closed = closed_definition(result, fname)
        target_fn = extract(Context(), closed)
        for k in range(11):
            applied_core = co.App(W, EX, closed, core_nat(k))
            semantic = read_core_numeral(
                normal_form(result.store, (), applied_core)
            )
            got = eval_target(TApp(target_fn, TLit(k)))
            assert got == TLit(semantic), f"{mod}.{fname} at {k}"
    _passed(3, f"tracking over {len(fns)} functions x 11 inputs")


def test_acceptance_4_non_interference(corpus):
    fns = []
    for name, result in corpus.items():
        for d in result.decls:
            if is_simple_fn(d.ty_value, Z0):
                fns.append((name, d.name))
    assert len(fns) >= 5
    erased_args = [core_nat(0), core_nat(1), core_nat(5)]
    for mod, fname in fns:
        result = corpus[mod]
        closed = closed_definition(result, fname)
        fn_extract = extract(Context(), closed)
        constant = as_numeral(eval_target(fn_extract))
        assert constant is not None, f"{mod}.{fname} not a fixed numeral"
        for x in erased_args:
            applied = co.App(Z0, EX, closed, x)
            assert alpha_eq(extract(Context(), applied), fn_extract)
            # The evaluated application never varies with the erased
            # argument either, on both evaluators.
            assert read_core_numeral(
                normal_form(result.store, (), applied)
            ) == constant
            wrapped = co.Let(
                "f", closed_type(result, fname), closed, co.App(Z0, EX, co.Var(0), x)
            )
            kernel_check(result.store, Context(), wrapped, NatTy())
            assert as_numeral(eval_target(extract(Context(), wrapped))) == constant
    _passed(4, f"non-interference over {len(fns)} erased functions x 3 arguments")


def test_acceptance_5_identity_extraction():
    r = elaborate_text("let id : {A :0 U} -> A -> A = \\{A} x. x;")
    assert r.ok
    target = extract(Context(), closed_definition(r, "id"))
    assert alpha_eq(target, TLam("x", TVar(0)))
    _passed(5, "identity extraction")


def test_acceptance_6_meta_theory_sweep(capsys):
    for path in corpus_files():
        assert cli_main(["meta", str(path)]) == 0, path.name
    capsys.readouterr()
    # Stripping identifies the two function types; conversion does not.
    pi0 = co.Pi("x", Z0, EX, co.NatTy(), co.NatTy())
    piw = co.Pi("x", W, EX, co.NatTy(), co.NatTy())
    assert strip_modes(pi0) == strip_modes(piw)
    store = MetaStore()
    assert not co.conv(store, 0, co.evaluate((), pi0), co.evaluate((), piw))
    _passed(6, "zeroing and stripping over the whole corpus")


def test_acceptance_7_unification_regressions(corpus):
    # (a) A solution that would read an erased variable at runtime is a
    #     mode error, never a silent acceptance.
    src = (CORPUS / "bad" / "bad_meta_mode.tt0").read_text()
    r = elaborate_text(src, "bad_meta_mode.tt0")
    assert not r.ok
    assert any(
        "erased variable" in e.message and "runtime" in e.message for e in r.errors
    )
    # (b) Non-linear and non-pattern spines are rejected.
    store = MetaStore()
    ctx = Context().bind("x", W, NatTy()).bind("y", W, NatTy())
    m = fresh_meta(store, ctx, NatTy())
    entries = store.lookup(0).entries
    x = co.vvar(0)
    nonlinear = co.evaluate((x, x), m)
    with pytest.raises(UnifyError) as e1:
        invert(entries, nonlinear.spine, store, ctx.depth, ctx.name)
    assert e1.value.reason == "non-linear"
    with pytest.raises(UnifyError) as e2:
        invert(entries, (co.SFst(W),), store, ctx.depth, ctx.name)
    assert e2.value.reason == "non-pattern"
    with pytest.raises(UnifyError) as e3:
        solve(store, ctx.depth, 0, co.evaluate((x, co.Lit(0)), m).spine, x)
    assert e3.value.reason == "non-pattern"
    # (c) Every committed solution kernel-checks in its captured context.
    solutions = 0
    for result in corpus.values():
        for entry in result.store:
            assert entry.solved
            kernel_check(
                result.store,
                Context(flag=entry.flag),
                entry.solution_closed,
                entry.closed_ty_value,
            )
            solutions += 1
    assert solutions > 0
    _passed(7, f"unification regressions; {solutions} solutions re-checked")


def test_acceptance_8_eliminator_mode_rule(corpus):
    rejected = []
    for fname in ("bad_scrutinee.tt0", "bad_boolelim.tt0"):
        src = (CORPUS / "bad" / fname).read_text()
        r = elaborate_text(src, fname)
        assert not r.ok, fname
        assert any("erased variable" in e.message for e in r.errors), fname
        rejected.append(fname)
    # The same eliminations are accepted in erased positions.
    assert "erased_scrutinee_ok" in corpus
    assert corpus["erased_scrutinee_ok"].ok
    # Elimination of erased data computed at the type level really ran:
    used = corpus["erased_scrutinee_ok"].decl("used")
    assert used.ty_value == NatTy()
    _passed(8, "eliminator scrutinee mode rule")


def test_unify_success_implies_conv(corpus):
    # Sanity companion to criterion 7: unification success entails
    # convertibility after solving.
    store = MetaStore()
    ctx = Context().bind("x", W, NatTy())
    m = fresh_meta(store, ctx, NatTy())
    mv = co.evaluate(ctx.env, m)
    rhs = co.VSucc(co.vvar(0))
    unify(store, ctx.depth, mv, rhs, ctx.name)
    assert co.conv(store, ctx.depth, co.force(store, mv), rhs)
