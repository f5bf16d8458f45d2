from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tt0 import core as co
from tt0.core import Context, NatTy, evaluate, kernel_check, normal_form
from tt0.diagnostics import ElabError
from tt0.elab import ElabState, check, check_erased, elaborate_text, infer, zonk
from tt0.surface import Icit, Mode, parse_term_text
from tt0.unify import MetaStore

W, Z0 = Mode.OMEGA, Mode.ZERO
EX, IM = Icit.EXPL, Icit.IMPL


def term(src: str):
    return parse_term_text(src)


def vty(src: str, st_: ElabState | None = None, ctx: Context | None = None):
    st_ = st_ or ElabState()
    ctx = ctx or Context()
    t = check_erased(st_, ctx, term(src), co.Univ())
    return evaluate(ctx.env, t)


class TestCheck:
    def test_lambda_against_runtime_function(self):
        st_ = ElabState()
        t = check(st_, Context(), term("\\x. x"), vty("Nat -> Nat", st_))
        assert t == co.Lam("x", W, EX, co.Var(0))

    def test_identity_against_erased_implicit_pi(self):
        st_ = ElabState()
        t = check(st_, Context(), term("\\{A} x. x"), vty("{A :0 U} -> A -> A", st_))
        assert t == co.Lam("A", Z0, IM, co.Lam("x", W, EX, co.Var(0)))

    def test_erased_variable_at_runtime_is_an_error(self):
        st_ = ElabState()
        ctx = Context().bind("x", Z0, NatTy())
        with pytest.raises(ElabError, match="erased variable"):
            check(st_, ctx, term("x"), NatTy())

    def test_check_erased_gives_access(self):
        st_ = ElabState()
        ctx = Context().bind("x", Z0, NatTy())
        assert ctx.flag is False
        t = check_erased(st_, ctx, term("x"), NatTy())
        assert t == co.Var(0)

    def test_check_erased_lambda_against_erased_pi(self):
        st_ = ElabState()
        t = check_erased(
            st_, Context(), term("\\x. x"), vty("(x :0 Nat) -> Nat", st_)
        )
        assert t == co.Lam("x", Z0, EX, co.Var(0))

    def test_check_erased_allows_elimination_of_erased_scrutinee(self):
        st_ = ElabState()
        ctx = Context().bind("n", Z0, NatTy())
        src = "natElim (\\k. Nat) zero (\\k ih. succ ih) n"
        with pytest.raises(ElabError):
            check(st_, ctx, term(src), NatTy())
        t = check_erased(st_, ctx, term(src), NatTy())
        assert isinstance(t, co.NatElim)


class TestInfer:
    def test_explicit_implicit_application(self):
        src = """
let id : {A :0 U} -> A -> A = \\{A} x. x;
let one : Nat = id {Nat} zero;
"""
        r = elaborate_text(src)
        assert r.ok
        body = r.decl("one").body
        assert body == co.App(
            W, EX, co.App(Z0, IM, co.Var(0), co.NatTy()), co.Lit(0)
        )

    def test_inserted_meta_solved_to_nat(self):
        # `id zero` inserts a metavariable for A; the recheck oracle then
        # confirms the zonked application carries the solution Nat.
        src = """
let id : {A :0 U} -> A -> A = \\{A} x. x;
let one : Nat = id zero;
"""
        r = elaborate_text(src)
        assert r.ok
        body = r.decl("one").body
        assert body == co.App(
            W, EX, co.App(Z0, IM, co.Var(0), co.NatTy()), co.Lit(0)
        )
        sig = Context().define(
            "id", W, r.decls[0].ty_value, r.decls[0].body_value
        )
        kernel_check(r.store, sig, body, NatTy())

    def test_erased_first_projection_rejected(self):
        st_ = ElabState()
        sig_ty = vty("(n :0 Nat) * Nat", st_)
        ctx = Context().bind("p", W, sig_ty)
        with pytest.raises(ElabError, match="erased"):
            infer(st_, ctx, term("fst p"))
        t, ty = infer(st_, ctx.erased(), term("fst p"))
        assert t == co.Fst(Z0, co.Var(0))
        assert ty == NatTy()

    def test_unbound_name(self):
        with pytest.raises(ElabError, match="unbound"):
            infer(ElabState(), Context(), term("ghost"))

    def test_applying_non_function(self):
        with pytest.raises(ElabError, match="non-function"):
            infer(ElabState(), Context(), term("zero zero"))


class TestModules:
    def test_identity_module_clean(self):
        r = elaborate_text("let id : {A :0 U} -> A -> A = \\{A} x. x;")
        assert r.ok
        assert len(r.store.unsolved()) == 0

    def test_type_mismatch_lambda_vs_nat(self):
        r = elaborate_text("let f : Nat = \\x. x;")
        assert not r.ok
        assert any("mismatch" in e.message for e in r.errors)

    def test_type_hole_solved_by_body(self):
        r = elaborate_text("let g : _ = zero;")
        assert r.ok
        assert r.decl("g").ty == co.NatTy()

    def test_unsolved_meta_reported_with_context(self):
        r = elaborate_text("let f : (A :0 U) -> Nat = \\A. _;")
        assert not r.ok
        msg = r.errors[0].message
        assert "unsolved metavariable" in msg
        assert "A" in msg

    def test_failed_declaration_becomes_opaque(self):
        src = """
let bad : Nat = true;
let uses : Nat -> Nat = \\x. x;
"""
        r = elaborate_text(src)
        assert not r.ok
        assert len(r.errors) == 1  # the later declaration still elaborates

    def test_determinism(self):
        src = """
let id : {A :0 U} -> A -> A = \\{A} x. x;
let twice : {A :0 U} -> (A -> A) -> A -> A = \\f x. f (f x);
let n : Nat = twice (\\k. succ k) (id zero);
"""
        a = elaborate_text(src)
        b = elaborate_text(src)
        assert a.ok and b.ok
        assert [(d.name, d.ty, d.body) for d in a.decls] == [
            (d.name, d.ty, d.body) for d in b.decls
        ]

    def test_determinism_over_corpus(self, corpus):
        from conftest import CORPUS

        for name, first in corpus.items():
            path = CORPUS / f"{name}.tt0"
            again = elaborate_text(path.read_text(), str(path))
            assert again.ok
            assert [(d.name, d.ty, d.body) for d in first.decls] == [
                (d.name, d.ty, d.body) for d in again.decls
            ]
            assert len(first.store) == len(again.store)
            for e1, e2 in zip(first.store, again.store):
                assert e1.solution_closed == e2.solution_closed

    def test_numeral_literal_equals_expansion(self):
        a = elaborate_text("let n : Nat = 3;")
        b = elaborate_text("let n : Nat = succ (succ (succ zero));")
        assert a.ok and b.ok
        assert a.decl("n").body == b.decl("n").body


class TestSoundness:
    def test_every_zonked_definition_kernel_checks(self, corpus):
        # The master invariant: elaboration output is independently
        # accepted by the kernel.
        for name, result in corpus.items():
            sig = Context()
            for d in result.decls:
                kernel_check(result.store, sig.erased(), d.ty, co.Univ())
                kernel_check(result.store, sig, d.body, d.ty_value)
                sig = sig.define(d.name, W, d.ty_value, d.body_value)
            if result.main is not None:
                kernel_check(result.store, sig, result.main[0], result.main[1])

    def test_no_metas_left_in_zonked_terms(self, corpus):
        def no_metas(t: co.Term) -> int:
            """The number of proper subterms of `t`, all free of metas."""
            assert not isinstance(t, (co.Meta, co.InsertedMeta))
            children = [getattr(t, f) for f in t.__match_args__]
            return sum(1 + no_metas(v) for v in children if isinstance(v, co.Term))

        visited = 0
        for result in corpus.values():
            for d in result.decls:
                visited += no_metas(d.ty) + no_metas(d.body)
        assert visited > 0

    def test_zonk_is_identity_on_meta_free_terms(self):
        r = elaborate_text("let f : Nat -> Nat = \\x. succ x;")
        assert r.ok
        store = MetaStore()
        assert zonk(store, r.decl("f").body) == r.decl("f").body

    def test_closing_drops_unused_declarations(self):
        from tt0.elab import closed_definition

        src = """
let a : Nat = 1;
let b : Nat = 2;
let c : Nat = succ a;
let d : Nat -> Nat = \\x. succ c;
"""
        r = elaborate_text(src)
        assert r.ok
        closed = closed_definition(r, "d")
        # b is not referenced and must not appear in the closed form.
        assert isinstance(closed, co.Let) and closed.name == "a"
        assert isinstance(closed.body, co.Let) and closed.body.name == "c"
        kernel_check(r.store, Context(), closed, r.decl("d").ty_value)
        applied = co.App(W, Icit.EXPL, closed, co.Lit(0))
        assert normal_form(r.store, (), applied) == co.Lit(3)

    def test_zonk_of_nested_meta_solutions(self):
        # ?f x = succ (?b x) is solved before ?b; the bare ?b inside ?f's
        # solution must zonk to the closed solution, not the open body.
        from tt0.unify import fresh_meta, unify

        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        b = fresh_meta(store, ctx, NatTy())
        f = fresh_meta(store, ctx, NatTy())
        bv = evaluate(ctx.env, b)
        fv = evaluate(ctx.env, f)
        unify(store, ctx.depth, fv, co.VSucc(bv), ctx.names)
        unify(store, ctx.depth, bv, co.vvar(0), ctx.names)
        zonked = zonk(store, f)
        kernel_check(store, ctx, zonked, NatTy())
        assert normal_form(store, ctx.env, zonked) == co.Succ(co.Var(0))


# A generator of closed, well-typed Nat-valued surface programs.  Used to
# check that elaboration succeeds under both flags and that the two
# evaluators (core NbE and the extracted target) agree.
def nat_term(depth: int):
    if depth <= 0:
        return st.sampled_from(["zero", "1", "2"])
    sub = nat_term(depth - 1)
    return st.one_of(
        sub,
        sub.map(lambda a: f"(succ {a})"),
        st.tuples(sub, sub).map(lambda ab: f"((\\x. {ab[0]}) {ab[1]})"),
        st.tuples(sub, sub).map(
            lambda ab: f"((\\(e :0 Nat). {ab[0]}) {ab[1]})"
        ),
        st.tuples(sub, sub).map(
            lambda ab: f"(let y : Nat = {ab[0]} in (succ y))"
        ),
        st.tuples(sub, sub).map(
            lambda ab: f"(let p : (w :0 Nat) * Nat = ({ab[0]}, {ab[1]}) in snd p)"
        ),
        st.tuples(sub, sub, st.booleans()).map(
            lambda t: f"(boolElim (\\b. Nat) {t[0]} {t[1]} {'true' if t[2] else 'false'})"
        ),
        sub.map(
            lambda a: f"(natElim (\\k. Nat) zero (\\k ih. succ ih) {a})"
        ),
    )


class TestErasurePhaseSoundness:
    @settings(max_examples=60, deadline=None)
    @given(nat_term(3))
    def test_well_moded_terms_elaborate_under_both_flags(self, src):
        st_ = ElabState()
        t_runtime = check(st_, Context(), term(src), NatTy())
        st2 = ElabState()
        t_erased = check(st2, Context(flag=True), term(src), NatTy())
        kernel_check(st_.store, Context(), t_runtime, NatTy())
        kernel_check(st2.store, Context(flag=True), t_erased, NatTy())

    @settings(max_examples=60, deadline=None)
    @given(nat_term(3))
    def test_numeral_value_matches_direct_count(self, src):
        st_ = ElabState()
        t = check(st_, Context(), term(src), NatTy())
        v = normal_form(st_.store, (), t)
        assert isinstance(v, co.Lit)

    @settings(max_examples=100, deadline=None)
    @given(nat_term(3))
    def test_core_and_target_evaluation_agree(self, src):
        from tt0.extract import as_numeral, eval_target, extract

        st_ = ElabState()
        t = check(st_, Context(), term(src), NatTy())
        kernel_check(st_.store, Context(), t, NatTy())
        core_v = normal_form(st_.store, (), t)
        assert isinstance(core_v, co.Lit)
        assert as_numeral(eval_target(extract(Context(), t))) == core_v.n
