from __future__ import annotations

import json
from typing import get_type_hints

import pytest

from tt0 import core as co
from tt0 import translate
from tt0.core import (
    App,
    Context,
    Lam,
    NatElim,
    NatTy,
    Pi,
    Lit,
    Succ,
    Var,
    VLam,
    VSucc,
    conv,
    evaluate,
    force,
    kernel_check,
    kernel_infer,
    normal_form,
    quote,
    Thunk,
)
from tt0.diagnostics import KernelError
from tt0.elab import elaborate_text
from tt0.extract import TLam, TVar, pp_target
from tt0.jsontext import TAGS, to_json
from tt0.surface import Icit, Mode
from tt0.unify import MetaStore, fresh_meta, unify

W, Z0 = Mode.OMEGA, Mode.ZERO
EX = Icit.EXPL


def lam(body, mode=W):
    return Lam("x", mode, EX, body)


def app(fn, arg, mode=W):
    return App(mode, EX, fn, arg)


def nat(k: int) -> co.Term:
    return Lit(k)


# Hand-rolled beta reduction over a tiny first-order fragment, used as an
# oracle independent of the NbE evaluator.
def beta_oracle_natelim(zcase: int, succ_steps: int, scrut: int) -> int:
    acc = zcase
    for _ in range(scrut):
        acc = acc + succ_steps
    return acc


class TestEvaluate:
    def test_beta(self):
        v = evaluate((), app(lam(Var(0)), Lit(0)))
        assert v == Lit(0)

    def test_natelim_identity_by_recursion(self):
        # natElim with zcase zero and scase (\k ih. succ ih) rebuilds its
        # argument; expected value computed by the hand reduction oracle.
        scase = Lam("k", W, EX, Lam("ih", W, EX, Succ(Var(0))))
        motive = Lam("k", W, EX, NatTy())
        t = NatElim(motive, Lit(0), scase, nat(2))
        expected = beta_oracle_natelim(0, 1, 2)
        assert expected == 2
        assert evaluate((), t) == Lit(2)

    def test_constructors(self):
        assert evaluate((), nat(2)) == Lit(2)

    def test_let_substitutes(self):
        t = co.Let("y", NatTy(), nat(1), Succ(Var(0)))
        assert evaluate((), t) == Lit(2)

    def test_natelim_over_literal_unfolds_like_a_successor_chain(self):
        # natElim P z s (succ p) = s p (natElim P z s p), with s, z and x
        # variables: over 3 the step case meets 0, 1, 2 from the inside
        # out, as over succ (succ (succ x)) it meets x, succ x, succ (succ x).
        s, z, x = co.vvar(0), co.vvar(1), co.vvar(2)
        motive = evaluate((), lam(NatTy()))

        def unfolded(preds, base):
            for p in preds:
                base = co.vapp(co.vapp(s, W, EX, p), W, EX, base)
            return base

        assert co.vnatelim(motive, z, s, Lit(3)) == unfolded(
            [Lit(0), Lit(1), Lit(2)], z
        )
        stuck = co.VNeutral(co.VarH(2), (co.SNatElim(motive, z, s),))
        assert co.vnatelim(motive, z, s, VSucc(VSucc(VSucc(x)))) == unfolded(
            [x, VSucc(x), VSucc(VSucc(x))], stuck
        )

    def test_successor_of_literal_folds(self):
        assert evaluate((), Succ(nat(41))) == Lit(42)
        assert co.succ(nat(41)) == nat(42)


PRELUDE = (
    "let id : {A :0 U} -> A -> A = \\{A} x. x;\n"
    "let plus : Nat -> Nat -> Nat = \\m n.\n"
    "  natElim (\\k. Nat) n (\\k ih. succ ih) m;\n"
    "let mult : Nat -> Nat -> Nat = \\m n.\n"
    "  natElim (\\k. Nat) zero (\\k ih. plus n ih) m;\n"
)


@pytest.fixture
def natelim_calls(monkeypatch):
    """The argument tuples of every call of `core.vnatelim`, in order."""
    calls = []
    real = co.vnatelim

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(co, "vnatelim", counted)
    return calls


class TestCallByNeed:
    def test_definition_links_to_the_thunk_below(self):
        a = co.definition((), nat(1))
        b = co.definition((a,), Succ(Var(0)))
        assert b.below is a
        assert co.definition((a, Lit(0)), Var(0)).below is None
        assert Thunk((a,), Var(0)).below is None  # an argument is never linked

    def test_forcing_a_definition_forces_the_ones_below_first(self):
        a = co.definition((), nat(1))
        b = co.definition((a,), Succ(Var(0)))
        c = co.definition((a, b), Succ(Var(0)))
        assert c.force() == Lit(3)
        assert (a.value, b.value) == (Lit(1), Lit(2))
        for th in (a, b, c):
            assert th.env is th.term is th.below is None

    def test_let_value_is_not_computed_unless_read(self, natelim_calls):
        plus3 = NatElim(lam(NatTy()), Lit(0), lam(lam(Succ(Var(0)))), nat(3))
        t = co.Let("y", NatTy(), plus3, nat(5))
        assert evaluate((), t) == Lit(5)
        assert natelim_calls == []

    def test_chain_elaborates_and_sweeps_without_computing_values(self, natelim_calls):
        links = "".join(
            f"let d{i} : Nat = id (plus d{i - 1} 1);\n" for i in range(1, 65)
        )
        r = elaborate_text(PRELUDE + "let d0 : Nat = 0;\n" + links)
        assert r.ok, [e.message for e in r.errors]
        assert all(row.zeroing_ok and row.stripping_ok for row in translate.sweep(r))
        assert natelim_calls == []
        assert quote(r.store, 0, r.decl("d64").body_value) == Lit(64)
        assert natelim_calls

    def test_codomain_argument_is_not_computed(self, natelim_calls):
        r = elaborate_text(PRELUDE + "main = id (mult 30 30);\n")
        assert r.ok, [e.message for e in r.errors]
        assert natelim_calls == []

    def test_meta_under_a_local_let_does_not_compute_its_value(self, natelim_calls):
        r = elaborate_text(PRELUDE + "main = let x : Nat = mult 30 30 in id x;\n")
        assert r.ok, [e.message for e in r.errors]
        assert natelim_calls == []

    def test_definition_value_is_computed_once(self, natelim_calls):
        r = elaborate_text(PRELUDE + "let p : Nat = plus 3 4;\n")
        assert r.ok, [e.message for e in r.errors]
        assert natelim_calls == []
        first = r.decl("p").body_value
        assert first == Lit(7)
        calls = len(natelim_calls)
        assert calls > 0
        second = r.decl("p").body_value
        assert second is first
        assert len(natelim_calls) == calls


class TestForce:
    def test_non_neutral_unchanged(self):
        store = MetaStore()
        assert force(store, Lit(0)) == Lit(0)

    def test_unsolved_meta_unchanged(self):
        store = MetaStore()
        m = fresh_meta(store, Context(), NatTy())
        v = evaluate((), m)
        assert force(store, v) is v

    def test_solved_meta_replays_spine(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        m = fresh_meta(store, ctx, NatTy())  # ?m applied to x
        mv = evaluate(ctx.env, m)
        # Solve ?m := \x. x by unifying against the bound variable.
        unify(store, ctx.depth, mv, co.vvar(0), ctx.name)
        replayed = force(store, evaluate((Lit(1),), m))
        assert replayed == Lit(1)


class TestQuote:
    def test_quote_zero(self):
        assert quote(MetaStore(), 0, Lit(0)) == Lit(0)

    def test_quote_identity_lambda(self):
        v = evaluate((), lam(Var(0)))
        assert quote(MetaStore(), 0, v) == lam(Var(0))

    def test_quote_neutral_application(self):
        v = co.vapp(co.vvar(0), W, EX, Lit(0))
        assert quote(MetaStore(), 1, v) == app(Var(0), Lit(0))

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_quote_eval_idempotent_on_numerals(self, k):
        store = MetaStore()
        once = normal_form(store, (), nat(k))
        assert normal_form(store, (), once) == once


CONSTANTS = [
    co.Univ(), NatTy(), co.BoolTy(), Lit(0), Lit(3), co.TrueTm(), co.FalseTm()
]


class TestConstant:
    """A former without subterms is its own value."""

    @pytest.mark.parametrize("c", CONSTANTS, ids=repr)
    def test_evaluate_and_quote_return_the_constant_itself(self, c):
        assert evaluate((), c) is c and evaluate((co.vvar(0),), c) is c
        assert quote(MetaStore(), 0, c) is c and quote(MetaStore(), 1, c) is c

    def test_the_formers_without_subterms_are_the_constants_and_the_leaves(self):
        # So a new nullary former is a Constant and gets no value copy.
        terms = [cls for cls in TAGS if issubclass(cls, co.Term)]
        assert any(cls.__match_args__ for cls in terms)
        nullary = {
            cls
            for cls in terms
            if co.Term not in (get_type_hints(cls)[f] for f in cls.__match_args__)
        }
        constants = set(co.Constant.__subclasses__())
        assert constants and nullary == constants | {co.Var, co.Meta}


class TestConv:
    def test_pi_modes_distinguished(self):
        store = MetaStore()
        pi0 = evaluate((), Pi("x", Z0, EX, NatTy(), NatTy()))
        piw = evaluate((), Pi("x", W, EX, NatTy(), NatTy()))
        assert not conv(store, 0, pi0, piw)
        assert conv(store, 0, pi0, pi0)

    def test_eta_for_functions(self):
        store = MetaStore()
        # \x. f x vs f, with f a variable of function type
        f = co.vvar(0)
        eta = VLam("x", W, EX, co.Closure((f,), app(Var(1), Var(0))))
        assert conv(store, 1, eta, f)

    def test_beta_equality(self):
        store = MetaStore()
        assert conv(store, 0, evaluate((), app(lam(Var(0)), Lit(0))), Lit(0))

    def test_successor_against_literal(self):
        # succ ?n is convertible with a literal k exactly when ?n := k - 1.
        store = MetaStore()
        m = fresh_meta(store, Context(), NatTy())
        unify(store, 0, evaluate((), m), Lit(4))
        sn = evaluate((), Succ(m))
        assert sn == VSucc(evaluate((), m))  # evaluation does not read the store
        assert conv(store, 0, sn, Lit(5)) and conv(store, 0, Lit(5), sn)
        for k in (0, 1, 4, 6):
            assert not conv(store, 0, sn, Lit(k))
        assert not conv(store, 1, VSucc(co.vvar(0)), Lit(1))

    def test_eta_for_pairs(self):
        store = MetaStore()
        p = co.vvar(0)
        eta = co.VPair(W, co.vfst(W, p), co.vsnd(W, p))
        assert conv(store, 1, eta, p)

    def test_eta_for_functions_in_both_orientations(self):
        f, g = co.vvar(0), co.vvar(1)
        eta = VLam("x", W, EX, co.Closure((f,), app(Var(1), Var(0))))
        assert conv(None, 2, eta, f) and conv(None, 2, f, eta)
        assert not conv(None, 2, eta, g) and not conv(None, 2, g, eta)
        # The neutral is applied at the lambda's mode.
        eta0 = VLam("x", Z0, EX, co.Closure((f,), app(Var(1), Var(0))))
        assert not conv(None, 2, eta0, f) and not conv(None, 2, f, eta0)

    def test_lambda_modes_distinguished(self):
        lam0 = evaluate((), lam(Var(0), Z0))
        lamw = evaluate((), lam(Var(0), W))
        assert not conv(None, 0, lam0, lamw) and not conv(None, 0, lamw, lam0)

    def test_lambda_implicitness_is_not_compared(self):
        impl = evaluate((), Lam("x", W, Icit.IMPL, Var(0)))
        expl = evaluate((), lam(Var(0)))
        assert conv(None, 0, impl, expl) and conv(None, 0, expl, impl)

    def test_eta_for_pairs_in_both_orientations(self):
        p, q = co.vvar(0), co.vvar(1)
        for mode in (W, Z0):
            eta = co.VPair(mode, co.vfst(mode, p), co.vsnd(mode, p))
            assert conv(None, 2, eta, p) and conv(None, 2, p, eta)
            assert not conv(None, 2, eta, q) and not conv(None, 2, q, eta)
        # The neutral is projected at the pair's mode.
        eta0 = co.VPair(Z0, co.vfst(W, p), co.vsnd(W, p))
        assert not conv(None, 2, eta0, p) and not conv(None, 2, p, eta0)

    def test_pi_implicitness_distinguished(self):
        impl = evaluate((), Pi("x", W, Icit.IMPL, NatTy(), NatTy()))
        expl = evaluate((), Pi("x", W, EX, NatTy(), NatTy()))
        assert not conv(None, 0, impl, expl) and not conv(None, 0, expl, impl)

    def test_sigma_modes_distinguished(self):
        sig0 = evaluate((), co.Sigma("x", Z0, NatTy(), NatTy()))
        sigw = evaluate((), co.Sigma("x", W, NatTy(), NatTy()))
        assert not conv(None, 0, sig0, sigw) and not conv(None, 0, sigw, sig0)
        assert conv(None, 0, sig0, evaluate((), co.Sigma("y", Z0, NatTy(), NatTy())))

    def test_pi_against_sigma(self):
        pi = evaluate((), Pi("x", W, EX, NatTy(), NatTy()))
        sigma = evaluate((), co.Sigma("x", W, NatTy(), NatTy()))
        assert not conv(None, 0, pi, sigma) and not conv(None, 0, sigma, pi)

    def test_binder_congruence_compares_domain_and_codomain(self):
        for former in (lambda a, b: Pi("x", W, EX, a, b), lambda a, b: co.Sigma("x", W, a, b)):
            base = evaluate((), former(NatTy(), Var(0)))
            other_dom = evaluate((), former(co.BoolTy(), Var(0)))
            other_cod = evaluate((), former(NatTy(), NatTy()))
            assert conv(None, 0, base, evaluate((), former(NatTy(), Var(0))))
            assert not conv(None, 0, base, other_dom) and not conv(None, 0, other_dom, base)
            assert not conv(None, 0, base, other_cod) and not conv(None, 0, other_cod, base)


def nat_fn_ty():
    return co.VPi("x", W, EX, NatTy(), co.Closure((), NatTy()))


# For each eliminator: well-typed parts (motive, two cases, scrutinee),
# an ill-typed replacement for each part, the kernel's message when that
# part is the first ill-typed one, and the type of the well-typed term.
# The `boolElim` motive is Nat at true and Bool at false, so that an
# ill-typed case names the case.
KERNEL_ELIMS = {
    NatElim: (
        (lam(co.BoolTy()), co.FalseTm(), lam(lam(Var(0))), Lit(0)),
        (Lit(0), Lit(0), co.TrueTm(), co.TrueTm()),
        (
            "type mismatch: expected Π (n : Nat). U, got Nat",
            "type mismatch: expected Bool, got Nat",
            "type mismatch: expected Π (k : Nat). Π (ih : Bool). Bool, got Bool",
            "type mismatch: expected Nat, got Bool",
        ),
        co.BoolTy(),
    ),
    co.BoolElim: (
        (
            lam(co.BoolElim(lam(co.Univ()), NatTy(), co.BoolTy(), Var(0))),
            Lit(0),
            co.TrueTm(),
            co.TrueTm(),
        ),
        (Lit(0), co.TrueTm(), Lit(0), lam(Var(0))),
        (
            "type mismatch: expected Π (b : Bool). U, got Nat",
            "type mismatch: expected Nat, got Bool",
            "type mismatch: expected Bool, got Nat",
            "lambda checked against a non-function type Bool",
        ),
        NatTy(),
    ),
}


class TestKernel:
    def test_erased_variable_rejected_at_runtime(self):
        ctx = Context().bind("x", Z0, NatTy())
        with pytest.raises(KernelError, match="erased variable"):
            kernel_infer(MetaStore(), ctx, Var(0))

    def test_erased_variable_usable_under_marker(self):
        ctx = Context().bind("x", Z0, NatTy()).erased()
        assert kernel_infer(MetaStore(), ctx, Var(0)) == NatTy()

    def test_erased_domain_constant_function(self):
        store = MetaStore()
        ty = evaluate((), Pi("x", Z0, EX, NatTy(), NatTy()))
        kernel_check(store, Context(), Lam("x", Z0, EX, Lit(0)), ty)

    def test_lambda_mode_must_match(self):
        store = MetaStore()
        ty = evaluate((), Pi("x", Z0, EX, NatTy(), NatTy()))
        with pytest.raises(KernelError, match="mode"):
            kernel_check(store, Context(), Lam("x", W, EX, Lit(0)), ty)

    def test_type_mismatch_reports_both_types(self):
        store = MetaStore()
        with pytest.raises(KernelError, match="expected .*Bool.*got .*Nat"):
            kernel_check(store, Context(), Lit(0), co.BoolTy())

    def test_successor_against_literal_in_a_type(self):
        # v : F (succ ?n) checks against F k only at k = ?n + 1.
        store = MetaStore()
        m = fresh_meta(store, Context(), NatTy())
        unify(store, 0, evaluate((), m), Lit(2))
        fam = evaluate((), Pi("k", W, EX, NatTy(), co.Univ()))

        def in_f(n: co.Value) -> co.Value:
            return co.vapp(co.vvar(0), W, EX, n)

        ctx = Context().bind("F", Z0, fam).bind("v", W, in_f(evaluate((), Succ(m))))
        kernel_check(store, ctx, Var(0), in_f(Lit(3)))
        for k in (0, 2, 4):
            with pytest.raises(KernelError, match="type mismatch"):
                kernel_check(store, ctx, Var(0), in_f(Lit(k)))

    def test_meta_whose_capture_holds_a_let(self):
        # ?m : F (succ a) in (c := 1, a : Nat) under the signature F, with
        # mask (let, ω): its type is read where it occurs.
        store = MetaStore()
        fam = evaluate((), Pi("k", W, EX, NatTy(), co.Univ()))
        ctx = Context().declare("F", fam).define("c", W, NatTy(), Lit(1))
        ctx = ctx.bind("a", W, NatTy())
        ty = co.vapp(co.vvar(0), W, EX, co.vsucc(co.vvar(2)))
        m = fresh_meta(store, ctx, ty)
        assert m == co.Meta(0, (None, W))
        kernel_check(store, ctx, m, ty)
        with pytest.raises(KernelError) as err:
            kernel_check(store, ctx, m, co.BoolTy())
        assert err.value.message == "type mismatch: expected Bool, got F (succ a)"

    def test_type_code_rejected_at_runtime(self):
        with pytest.raises(KernelError, match="type code"):
            kernel_infer(MetaStore(), Context(), NatTy())
        kernel_check(MetaStore(), Context().erased(), NatTy(), co.Univ())

    def test_scrutinee_checked_at_ambient_flag(self):
        store = MetaStore()
        motive = Lam("k", W, EX, NatTy())
        scase = Lam("k", W, EX, Lam("ih", W, EX, Succ(Var(0))))
        ctx = Context().bind("n", Z0, NatTy())
        t = NatElim(motive, Lit(0), scase, Var(0))
        with pytest.raises(KernelError, match="erased variable"):
            kernel_infer(store, ctx, t)
        assert kernel_infer(store, ctx.erased(), t) == NatTy()

    def test_erased_first_projection(self):
        store = MetaStore()
        sig = evaluate((), co.Sigma("n", Z0, NatTy(), NatTy()))
        ctx = Context().bind("p", W, sig)
        with pytest.raises(KernelError, match="erased first projection"):
            kernel_infer(store, ctx, co.Fst(Z0, Var(0)))
        assert kernel_infer(store, ctx.erased(), co.Fst(Z0, Var(0))) == NatTy()
        assert kernel_infer(store, ctx, co.Snd(Z0, Var(0))) == NatTy()

    def test_application_mode_annotation_verified(self):
        # The recorded application mode must agree with the function type.
        store = MetaStore()
        f_ty = evaluate((), Pi("x", Z0, EX, NatTy(), NatTy()))
        ctx = Context().bind("f", W, f_ty)
        with pytest.raises(KernelError, match="annotation"):
            kernel_infer(store, ctx, app(Var(0), Lit(0), mode=W))
        assert kernel_infer(store, ctx, app(Var(0), Lit(0), mode=Z0)) == NatTy()

    def test_projection_mode_annotation_verified(self):
        store = MetaStore()
        sig = evaluate((), co.Sigma("n", W, NatTy(), NatTy()))
        ctx = Context().bind("p", W, sig)
        with pytest.raises(KernelError, match="mode"):
            kernel_infer(store, ctx, co.Snd(Z0, Var(0)))
        assert kernel_infer(store, ctx, co.Snd(W, Var(0))) == NatTy()

    def test_pair_mode_annotation_verified(self):
        store = MetaStore()
        sig0 = evaluate((), co.Sigma("n", Z0, NatTy(), NatTy()))
        with pytest.raises(KernelError, match="mode"):
            kernel_check(store, Context(), co.Pair(W, Lit(0), Lit(0)), sig0)
        kernel_check(store, Context(), co.Pair(Z0, Lit(0), Lit(0)), sig0)

    @pytest.mark.parametrize(
        "t, message",
        [
            (co.Fst(W, Lit(0)), "first projection of a non-pair"),
            (co.Snd(W, Lit(0)), "second projection of a non-pair"),
        ],
    )
    def test_projection_of_a_non_pair(self, t, message):
        with pytest.raises(KernelError) as e:
            kernel_infer(None, Context(), t)
        assert e.value.message == message

    @pytest.mark.parametrize("elim, i", [(e, i) for e in KERNEL_ELIMS for i in range(4)])
    def test_eliminator_parts_checked_in_order(self, elim, i):
        # Parts 0..i-1 are well typed and parts i.. are not: the message
        # names part i, so it also pins the order of the checks.
        good, bad, messages, result = KERNEL_ELIMS[elim]
        t = elim(*good[:i], *bad[i:])
        with pytest.raises(KernelError) as e:
            kernel_infer(None, Context(), t)
        assert e.value.message == messages[i]
        assert kernel_infer(None, Context(), elim(*good)) == result

    @pytest.mark.parametrize("infer", [True, False])
    @pytest.mark.parametrize(
        "ty, defn, message",
        [
            (Lit(0), co.TrueTm(), "type mismatch: expected U, got Nat"),
            (NatTy(), co.TrueTm(), "type mismatch: expected Nat, got Bool"),
        ],
    )
    def test_ill_typed_let(self, infer, ty, defn, message):
        t = co.Let("x", ty, defn, Var(0))
        with pytest.raises(KernelError) as e:
            if infer:
                kernel_infer(None, Context(), t)
            else:
                kernel_check(None, Context(), t, NatTy())
        assert e.value.message == message


IM = Icit.IMPL
PI0 = Pi("x", Z0, EX, NatTy(), NatTy())
PIW = Pi("x", W, EX, NatTy(), NatTy())
SIGMA0 = co.Sigma("n", Z0, NatTy(), NatTy())
SIGMAW = co.Sigma("n", W, NatTy(), NatTy())


def bound(*entries: tuple[str, Mode, co.Term]) -> Context:
    """A context of binders, each type a closed term evaluated at the empty
    environment."""
    ctx = Context()
    for name, mode, ty in entries:
        ctx = ctx.bind(name, mode, evaluate((), ty))
    return ctx


# Every `KernelError` message of `kernel_check`, `kernel_infer` and
# `_require_erased`, word for word: (context, term, expected type or None
# to infer, message).
KERNEL_MESSAGES = [
    (bound(("x", Z0, NatTy())), Var(0), None, "erased variable 'x' used at runtime"),
    (bound(("x", Z0, NatTy())), Var(0), NatTy(), "erased variable 'x' used at runtime"),
    (bound(("n", W, NatTy())), app(Var(0), Lit(0)), None, "application of a non-function"),
    (
        bound(("f", W, PI0)),
        app(Var(0), Lit(0)),
        None,
        "application annotation ω/explicit does not match function type 0/explicit",
    ),
    (
        bound(("f", W, PIW)),
        App(W, IM, Var(0), Lit(0)),
        None,
        "application annotation ω/implicit does not match function type ω/explicit",
    ),
    (
        Context(),
        PIW,
        None,
        "dependent function type is a type code and cannot be used at runtime",
    ),
    (
        Context(),
        SIGMAW,
        co.Univ(),
        "dependent pair type is a type code and cannot be used at runtime",
    ),
    (Context(), co.Univ(), None, "the universe is a type code and cannot be used at runtime"),
    (Context(), NatTy(), co.Univ(), "the Nat type is a type code and cannot be used at runtime"),
    (Context(), co.BoolTy(), None, "the Bool type is a type code and cannot be used at runtime"),
    (Context(), co.Fst(W, Lit(0)), None, "first projection of a non-pair"),
    (Context(), co.Snd(W, Lit(0)), None, "second projection of a non-pair"),
    (
        bound(("p", W, SIGMAW)),
        co.Snd(Z0, Var(0)),
        None,
        "projection mode does not match pair type",
    ),
    (
        bound(("p", W, SIGMAW)),
        co.Fst(Z0, Var(0)),
        NatTy(),
        "projection mode does not match pair type",
    ),
    (
        bound(("p", W, SIGMA0)),
        co.Fst(Z0, Var(0)),
        None,
        "erased first projection used at runtime",
    ),
    (Context(), lam(Var(0)), None, "cannot infer a type for an unannotated introduction"),
    (
        Context(),
        co.Pair(W, Lit(0), Lit(0)),
        None,
        "cannot infer a type for an unannotated introduction",
    ),
    (
        Context(),
        Lam("x", W, EX, Lit(0)),
        PI0,
        "lambda mode ω does not match function type mode 0",
    ),
    (
        Context(),
        Lam("x", Z0, EX, Lit(0)),
        PIW,
        "lambda mode 0 does not match function type mode ω",
    ),
    (
        Context(),
        Lam("x", W, IM, Lit(0)),
        PIW,
        "lambda implicitness does not match function type",
    ),
    (Context(), lam(Var(0)), NatTy(), "lambda checked against a non-function type Nat"),
    (
        Context(),
        co.Pair(W, Lit(0), Lit(0)),
        SIGMA0,
        "pair mode does not match pair type mode",
    ),
    (
        Context(),
        co.Pair(W, Lit(0), Lit(0)),
        PIW,
        "pair checked against a non-pair type Π (x : Nat). Nat",
    ),
    (Context(), Lit(0), co.BoolTy(), "type mismatch: expected Bool, got Nat"),
    (
        bound(("A", Z0, co.Univ())).bind("a", W, co.vvar(0)),
        Var(0),
        NatTy(),
        "type mismatch: expected Nat, got A",
    ),
]


@pytest.mark.parametrize("make_store", [lambda: None, MetaStore], ids=["no store", "store"])
@pytest.mark.parametrize("ctx, t, expected, message", KERNEL_MESSAGES)
def test_kernel_message(make_store, ctx, t, expected, message):
    with pytest.raises(KernelError) as e:
        if expected is None:
            kernel_infer(make_store(), ctx, t)
        else:
            kernel_check(make_store(), ctx, t, evaluate((), expected))
    assert e.value.message == message


# The other constant of each declaration type that the test below uses.
OTHER_TYPE = {NatTy(): co.BoolTy(), co.BoolTy(): NatTy()}


def test_kernel_mismatch_on_corpus_bodies(corpus):
    # A body of type Nat or Bool checked against the other type, or U,
    # fails with both types named, however the body is built.
    checked = 0
    for result in corpus.values():
        for i, d in enumerate(result.decls):
            if d.ty not in OTHER_TYPE:
                continue
            for wrong in (OTHER_TYPE[d.ty], co.Univ()):
                with pytest.raises(KernelError) as e:
                    kernel_check(None, result.sig.prefix(i), d.body, wrong)
                assert e.value.message == (
                    f"type mismatch: expected {co.pp(wrong)}, got {co.pp(d.ty)}"
                )
            checked += 1
    assert checked > 20


def test_conv_without_store_separates_constants():
    for a in CONSTANTS:
        for b in CONSTANTS:
            assert conv(None, 0, a, b) == (a == b)
    assert not conv(None, 0, Lit(3), Lit(4))


class TestPrinting:
    def test_nested_binders_of_one_name(self):
        # Each binder takes one prime more than the binder around it, in the
        # core printer and the target printer alike.
        names = ["x" + "'" * i for i in range(300)]
        core, target = Var(0), TVar(0)
        for _ in names:
            core, target = Lam("x", W, EX, core), TLam("x", target)
        assert co.pp(core) == "".join(f"λ {x}. " for x in names) + names[-1]
        assert pp_target(target) == "".join(f"\\{x}. " for x in names) + names[-1]

    def test_literal_prints_as_successor_chain(self):
        assert co.pp(Lit(0)) == "zero"
        assert co.pp(Lit(2)) == "succ (succ zero)"
        assert co.pp(app(Var(0), Lit(1)), ("f",)) == "f (succ zero)"
        assert co.pp(Succ(Var(0)), ("x",)) == "succ x"
        two = {"tag": "succ", "arg": {"tag": "succ", "arg": {"tag": "zero"}}}
        assert json.loads(to_json(Lit(2))) == two


class TestJson:
    def test_metas_encode_with_id_and_mask(self):
        # No golden run reaches this former: elaboration solves every meta.
        meta = co.Meta(3)
        masked = co.Meta(3, (None, Mode.ZERO))
        # Compare text, so that key order is pinned too.
        assert to_json(meta) == '{"tag": "Meta", "id": 3, "mask": []}'
        assert to_json(masked) == '{"tag": "Meta", "id": 3, "mask": [null, "0"]}'


class TestCorpusInvariants:
    def test_weakening_by_marker(self, corpus):
        # Every judgment accepted without the marker is accepted with it.
        for result in corpus.values():
            sig = Context()
            for d in result.decls:
                kernel_check(result.store, sig.erased(), d.ty, co.Univ())
                kernel_check(result.store, sig.erased(), d.body, d.ty_value)
                sig = sig.define(d.name, W, d.ty_value, d.body_value)

    def test_kernel_nbe_coherence(self, corpus):
        # Normal forms re-check at the original type.
        for result in corpus.values():
            sig = Context()
            for d in result.decls:
                nf = quote(result.store, sig.depth, d.body_value)
                kernel_check(result.store, sig, nf, d.ty_value)
                sig = sig.define(d.name, W, d.ty_value, d.body_value)

    def test_quote_eval_idempotent(self, corpus):
        for result in corpus.values():
            sig = Context()
            for d in result.decls:
                once = quote(result.store, sig.depth, d.body_value)
                twice = normal_form(result.store, sig.env, once)
                assert once == twice, d.name
                sig = sig.define(d.name, W, d.ty_value, d.body_value)

    def test_conv_reflexive_and_symmetric(self, corpus):
        for result in corpus.values():
            values = [(d.body_value, d.ty_value) for d in result.decls]
            depth = len(result.decls)
            for v, _ in values:
                assert conv(result.store, depth, v, v)
            nat_values = [v for v, ty in values if ty == NatTy()]
            for a in nat_values:
                for b in nat_values:
                    assert conv(result.store, depth, a, b) == conv(
                        result.store, depth, b, a
                    )

    def test_mode_separation_audit(self, corpus):
        # Structural audit, independent of the kernel: an erased-mode
        # variable may only occur where the checking flag is forced on.
        for name, result in corpus.items():
            for lvl, d in enumerate(result.decls):
                prefix = [W] * lvl
                _audit(d.ty, prefix, True)
                _audit(d.body, prefix, False)


def _audit(t: co.Term, modes: list[Mode], erased: bool) -> None:
    match t:
        case Var(ix):
            mode = modes[len(modes) - 1 - ix]
            assert mode is W or erased, "erased variable at a runtime position"
        case Lam(_, mode, _, body):
            _audit(body, modes + [mode], erased)
        case App(mode, _, fn, arg):
            _audit(fn, modes, erased)
            _audit(arg, modes, erased or mode is Z0)
        case Pi(_, mode, _, dom, cod):
            assert erased, "type code at a runtime position"
            _audit(dom, modes, True)
            _audit(cod, modes + [mode], True)
        case co.Sigma(_, mode, fst_ty, snd_ty):
            assert erased, "type code at a runtime position"
            _audit(fst_ty, modes, True)
            _audit(snd_ty, modes + [mode], True)
        case co.Pair(mode, fst, snd):
            _audit(fst, modes, erased or mode is Z0)
            _audit(snd, modes, erased)
        case co.Fst(mode, pair):
            assert mode is W or erased, "erased projection at a runtime position"
            _audit(pair, modes, erased)
        case co.Snd(_, pair):
            _audit(pair, modes, erased)
        case Succ(arg):
            _audit(arg, modes, erased)
        case NatElim(motive, zcase, scase, scrut):
            _audit(motive, modes, True)
            _audit(zcase, modes, erased)
            _audit(scase, modes, erased)
            _audit(scrut, modes, erased)
        case co.BoolElim(motive, tcase, fcase, scrut):
            _audit(motive, modes, True)
            _audit(tcase, modes, erased)
            _audit(fcase, modes, erased)
            _audit(scrut, modes, erased)
        case co.Let(_, ty, defn, body):
            _audit(ty, modes, True)
            _audit(defn, modes, erased)
            _audit(body, modes + [W], erased)
        case co.Univ() | co.NatTy() | co.BoolTy():
            assert erased, "type code at a runtime position"
        case _:
            pass
