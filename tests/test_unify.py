from __future__ import annotations

import pytest

from tt0 import core as co
from tt0.core import Context, Lit, NatTy, VSucc, conv, evaluate, force, kernel_check
from tt0.diagnostics import InternalError, KernelError, UnifyError
from tt0.elab import elaborate_text
from tt0.surface import Icit, Mode
from tt0.unify import (
    MetaStore,
    PartialRenaming,
    fresh_meta,
    invert,
    rename,
    solve,
    unify,
)

W, Z0 = Mode.OMEGA, Mode.ZERO
EX = Icit.EXPL


def flex(store: MetaStore, ctx: Context, ty) -> co.Value:
    return evaluate(ctx.env, fresh_meta(store, ctx, ty))


class TestFreshMeta:
    def test_empty_context_bare_meta(self):
        store = MetaStore()
        t = fresh_meta(store, Context(), NatTy())
        assert t == co.Meta(0)
        assert store.lookup(0).entries == ()

    def test_bound_context_inserted_meta(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        t = fresh_meta(store, ctx, NatTy())
        assert t == co.Meta(0, (W,))

    def test_capture_records_mode_and_flag(self):
        store = MetaStore()
        ctx = Context().bind("x", Z0, NatTy()).erased()
        fresh_meta(store, ctx, NatTy())
        entry = store.lookup(0)
        assert entry.flag is True
        assert entry.entries[0].mode is Z0

    def test_defined_entries_not_in_mask(self):
        store = MetaStore()
        ctx = Context().define("d", W, NatTy(), Lit(0)).bind("x", W, NatTy())
        t = fresh_meta(store, ctx, NatTy())
        assert t == co.Meta(0, (None, W))

    def test_mask_covers_only_the_captured_entries(self):
        # Below two top-level declarations the mask is the one binder's, and
        # the meta is applied to that binder only.
        store = MetaStore()
        sig = Context().declare("a", NatTy(), Lit(0)).declare("b", NatTy())
        ctx = sig.bind("x", W, NatTy())
        t = fresh_meta(store, ctx, NatTy())
        assert t == co.Meta(0, (W,))
        assert evaluate(ctx.env, t) == co.VNeutral(co.MetaH(0), (co.SApp(W, EX, co.vvar(2)),))
        kernel_check(store, ctx, t, NatTy())

    def test_kernel_refuses_a_mask_that_disagrees_with_the_depth(self):
        store = MetaStore()
        ctx = Context().declare("a", NatTy()).bind("x", W, NatTy())
        t = fresh_meta(store, ctx, NatTy())
        for at, u in ((ctx.bind("y", W, NatTy()), t), (ctx, co.Meta(0, (W, W)))):
            with pytest.raises(InternalError, match="mask length"):
                kernel_check(store, at, u, NatTy())

    def test_kernel_without_a_store_refuses_a_meta(self):
        store = MetaStore()
        t = fresh_meta(store, Context(), NatTy())
        kernel_check(store, Context(), t, NatTy())
        with pytest.raises(InternalError, match="without a store"):
            kernel_check(None, Context(), t, NatTy())


class TestUnify:
    def test_ground(self):
        unify(MetaStore(), 0, Lit(0), Lit(0))

    def test_pi_mode_mismatch(self):
        store = MetaStore()
        pi0 = evaluate((), co.Pi("x", Z0, EX, co.NatTy(), co.NatTy()))
        piw = evaluate((), co.Pi("x", W, EX, co.NatTy(), co.NatTy()))
        with pytest.raises(UnifyError, match="mode"):
            unify(store, 0, pi0, piw)

    def test_solve_pair_and_recheck(self):
        # ?m x y = (x, y)  solves to \x. \y. (x, y)
        store = MetaStore()
        sig_ty = evaluate((), co.Sigma("a", W, co.NatTy(), co.NatTy()))
        ctx = Context().bind("x", W, NatTy()).bind("y", W, NatTy())
        mv = flex(store, ctx, sig_ty)
        rhs = co.VPair(W, co.vvar(0), co.vvar(1))
        unify(store, ctx.depth, mv, rhs, ctx.name)
        entry = store.lookup(0)
        assert entry.solution_closed == co.Lam(
            "x", W, EX, co.Lam("y", W, EX, co.Pair(W, co.Var(1), co.Var(0)))
        )
        kernel_check(store, Context(), entry.solution_closed, entry.closed_ty_value)
        assert conv(store, ctx.depth, force(store, mv), rhs)

    def test_post_unification_convertibility(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        mv = flex(store, ctx, NatTy())
        rhs = VSucc(co.vvar(0))
        unify(store, ctx.depth, mv, rhs, ctx.name)
        assert conv(store, ctx.depth, force(store, mv), rhs)

    def test_succ_of_meta_against_literal_solves_predecessor(self):
        # succ ?m =?= 5 solves ?m := 4, from either side.
        for swap in (False, True):
            store = MetaStore()
            lhs, rhs = VSucc(flex(store, Context(), NatTy())), Lit(5)
            unify(store, 0, *((rhs, lhs) if swap else (lhs, rhs)))
            assert store.lookup(0).solution_closed == co.Lit(4)
            assert force(store, evaluate((), co.Meta(0))) == Lit(4)

    def test_literal_mismatches(self):
        store = MetaStore()
        m = flex(store, Context(), NatTy())
        for a, b in [(Lit(2), Lit(3)), (VSucc(m), Lit(0)), (VSucc(VSucc(m)), Lit(1))]:
            with pytest.raises(UnifyError, match="different head constructors"):
                unify(store, 0, a, b)
        assert not store.lookup(0).solved

    def test_flex_flex_distinct_solves_one_side(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        m1 = flex(store, ctx, NatTy())
        m2 = flex(store, ctx, NatTy())
        unify(store, ctx.depth, m1, m2, ctx.name)
        assert store.lookup(0).solved or store.lookup(1).solved

    def test_eta_for_pairs_against_a_rigid_neutral(self):
        p, q = co.vvar(0), co.vvar(1)
        eta = co.VPair(W, co.vfst(W, p), co.vsnd(W, p))
        unify(MetaStore(), 2, eta, p)
        unify(MetaStore(), 2, p, eta)
        for a, b, message in ((eta, q, "#0 and #1"), (q, eta, "#1 and #0")):
            with pytest.raises(UnifyError, match=f"variables {message} differ"):
                unify(MetaStore(), 2, a, b)
        # The neutral is projected at the pair's mode.
        eta0 = co.VPair(Z0, co.vfst(W, p), co.vsnd(W, p))
        for a, b in ((eta0, p), (p, eta0)):
            with pytest.raises(UnifyError, match="projection modes differ"):
                unify(MetaStore(), 2, a, b)

    def test_eta_for_pairs_solves_a_meta_inside_a_component(self):
        store = MetaStore()
        ctx = Context().bind("p", W, co.VSigma("a", W, NatTy(), co.Closure((), NatTy())))
        m = flex(store, ctx, NatTy())
        pair = co.VPair(W, co.vfst(W, co.vvar(0)), m)
        unify(store, ctx.depth, co.vvar(0), pair, ctx.name)
        assert conv(store, ctx.depth, force(store, m), co.vsnd(W, co.vvar(0)))

    def test_spine_mismatch_same_meta(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy()).bind("y", W, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        v1 = evaluate((co.vvar(0), co.vvar(1)), m)
        v2 = evaluate((co.vvar(1), co.vvar(0)), m)
        with pytest.raises(UnifyError, match="variables"):
            unify(store, ctx.depth, v1, v2, ctx.name)


def spine_of(v: co.Value) -> tuple[co.SpineItem, ...]:
    assert isinstance(v, co.VNeutral)
    return v.spine


class TestInvert:
    def setup_method(self):
        self.store = MetaStore()
        self.ctx = Context().bind("x", W, NatTy()).bind("y", W, NatTy())
        self.meta = fresh_meta(self.store, self.ctx, NatTy())
        self.entries = self.store.lookup(0).entries

    def test_distinct_variables(self):
        v = evaluate(self.ctx.env, self.meta)
        pren, binders = invert(
            self.entries, spine_of(v), self.store, self.ctx.depth, self.ctx.name
        )
        assert pren.map == {0: (0, W), 1: (1, W)}
        assert binders == []  # none beyond the capture

    def test_captured_let_and_an_argument_beyond_the_capture(self):
        store = MetaStore()
        ctx = Context().define("d", W, NatTy(), Lit(0)).bind("x", W, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        assert m == co.Meta(0, (None, W))
        outer = ctx.bind("z", W, NatTy())
        v = co.vapp(evaluate(ctx.env, m), W, EX, co.vvar(2))
        pren, layout = invert(store.lookup(0).entries, spine_of(v), store, outer.depth, outer.name)
        # The let takes level 0 of the solution, x level 1 and z level 2.
        assert pren.dom == 3
        assert pren.map == {1: (1, W), 2: (2, W)}
        assert layout[-1] == ("z", W)

    def test_non_linear(self):
        x = co.vvar(0)
        v = evaluate((x, x), self.meta)
        with pytest.raises(UnifyError, match="non-linear"):
            invert(self.entries, spine_of(v), self.store, self.ctx.depth)

    def test_non_pattern_projection(self):
        spine = (co.SFst(W),)
        with pytest.raises(UnifyError, match="non-pattern"):
            invert((), spine, self.store, 1)

    def test_non_pattern_constant_argument(self):
        v = evaluate((Lit(0), co.vvar(1)), self.meta)
        with pytest.raises(UnifyError, match="non-pattern"):
            invert(self.entries, spine_of(v), self.store, self.ctx.depth)


class TestRename:
    def test_occurs_check(self):
        store = MetaStore()
        m = fresh_meta(store, Context(), NatTy())
        pren = PartialRenaming(dom=0, cod=0, map={})
        rhs = VSucc(evaluate((), m))
        with pytest.raises(UnifyError, match="occurs"):
            rename(store, 0, pren, rhs)

    def test_scope_check(self):
        store = MetaStore()
        fresh_meta(store, Context(), NatTy())
        pren = PartialRenaming(dom=0, cod=1, map={})
        with pytest.raises(UnifyError, match="scope"):
            rename(store, 0, pren, co.vvar(0), name_of=("y",).__getitem__)

    def test_mode_check_blocks_erased_variable_at_runtime(self):
        # Meta captured outside the erased fragment must not use z :0 Nat
        # at a runtime position of its solution.
        store = MetaStore()
        ctx = Context().bind("z", Z0, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        entry = store.lookup(0)
        assert entry.flag is False
        spine = spine_of(evaluate(ctx.env, m))
        with pytest.raises(UnifyError) as e:
            solve(store, ctx.depth, 0, spine, VSucc(co.vvar(0)), ctx.name)
        assert e.value.reason == "mode"
        assert "'z'" in e.value.message

    def test_same_solution_allowed_under_marker(self):
        store = MetaStore()
        ctx = Context().bind("z", Z0, NatTy()).erased()
        m = fresh_meta(store, ctx, NatTy())
        spine = spine_of(evaluate(ctx.env, m))
        solve(store, ctx.depth, 0, spine, VSucc(co.vvar(0)), ctx.name)
        assert store.lookup(0).solution_closed == co.Lam(
            "z", Z0, EX, co.Succ(co.Var(0))
        )

    def test_erased_positions_exempt_from_mode_check(self):
        # The erased variable may appear inside an erased argument of the
        # solution even when the meta itself is a runtime meta.
        store = MetaStore()
        fn_ty = evaluate((), co.Pi("a", Z0, EX, co.NatTy(), co.NatTy()))
        ctx = Context().bind("f", W, fn_ty).bind("z", Z0, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        spine = spine_of(evaluate(ctx.env, m))
        rhs = co.vapp(co.vvar(0), Z0, EX, co.vvar(1))  # f z, argument erased
        solve(store, ctx.depth, 0, spine, rhs, ctx.name)
        assert store.lookup(0).solved


OUTSIDE = "at a runtime position, but the metavariable lives outside the erased fragment"


def refusal(store: MetaStore, ctx: Context, ty: co.Value, rhs: co.Value) -> tuple[str, str]:
    """Solve a fresh meta of type `ty` in `ctx` with `rhs`; return the
    reason and message of the refusal."""
    m = fresh_meta(store, ctx, ty)
    spine = spine_of(evaluate(ctx.env, m))
    with pytest.raises(UnifyError) as e:
        solve(store, ctx.depth, 0, spine, rhs, ctx.name)
    return e.value.reason, e.value.message


class TestRenameRefusals:
    """The exact reason and message of each refusal of a solution."""

    def test_type_code_for_runtime_meta_of_type_universe(self):
        got = refusal(MetaStore(), Context(), co.Univ(), NatTy())
        assert got == ("mode", f"solution would place the Nat type {OUTSIDE}")

    def test_erased_first_projection_at_runtime(self):
        pair_ty = evaluate((), co.Sigma("a", Z0, co.NatTy(), co.NatTy()))
        ctx = Context().bind("p", W, pair_ty)
        got = refusal(MetaStore(), ctx, NatTy(), co.vfst(Z0, co.vvar(0)))
        assert got == ("mode", f"solution would use an erased first projection {OUTSIDE}")

    def test_erased_binder_of_the_solution_is_named_by_level(self):
        fn_ty = evaluate((), co.Pi("x", Z0, EX, co.NatTy(), co.NatTy()))
        rhs = evaluate((), co.Lam("x", Z0, EX, co.Var(0)))
        got = refusal(MetaStore(), Context(), fn_ty, rhs)
        assert got == ("mode", f"solution would use erased variable #0 {OUTSIDE}")

    def test_erased_variable_of_the_context_is_named(self):
        ctx = Context().bind("z", Z0, NatTy())
        got = refusal(MetaStore(), ctx, NatTy(), VSucc(co.vvar(0)))
        assert got == ("mode", f"solution would use erased variable 'z' {OUTSIDE}")

    def test_erased_variable_inside_motive_is_accepted(self):
        # ?m A c n = natElim (\k. A) c (\k ih. ih) n, with A :0 U.
        store = MetaStore()
        ctx = (
            Context()
            .bind("A", Z0, co.Univ())
            .bind("c", W, co.vvar(0))
            .bind("n", W, NatTy())
        )
        m = fresh_meta(store, ctx, co.vvar(0))
        body = co.NatElim(
            co.Lam("k", W, EX, co.Var(3)),
            co.Var(1),
            co.Lam("k", W, EX, co.Lam("ih", W, EX, co.Var(0))),
            co.Var(0),
        )
        spine = spine_of(evaluate(ctx.env, m))
        solve(store, ctx.depth, 0, spine, evaluate(ctx.env, body), ctx.name)
        assert store.lookup(0).solution_body == body

    def test_occurs_check_inside_spine_argument(self):
        # ?m f = f (?m f)
        store = MetaStore()
        fn_ty = evaluate((), co.Pi("a", W, EX, co.NatTy(), co.NatTy()))
        ctx = Context().bind("f", W, fn_ty)
        m = fresh_meta(store, ctx, NatTy())
        mv = evaluate(ctx.env, m)
        rhs = co.vapp(co.vvar(0), W, EX, mv)
        with pytest.raises(UnifyError) as e:
            solve(store, ctx.depth, 0, spine_of(mv), rhs, ctx.name)
        assert (e.value.reason, e.value.message) == (
            "occurs",
            "occurs check: ?0 appears in its own solution",
        )

    def test_head_scope_error_before_argument_mode_error(self):
        # ?m z = g z, where g is not in ?m's scope and z :0 Nat is erased.
        store = MetaStore()
        fn_ty = evaluate((), co.Pi("a", W, EX, co.NatTy(), co.NatTy()))
        ctx = Context().bind("g", W, fn_ty).bind("z", Z0, NatTy())
        m = fresh_meta(store, Context().bind("z", Z0, NatTy()), NatTy())
        spine = spine_of(evaluate((co.vvar(1),), m))
        rhs = co.vapp(co.vvar(0), W, EX, co.vvar(1))
        with pytest.raises(UnifyError) as e:
            solve(store, ctx.depth, 0, spine, rhs, ctx.name)
        assert (e.value.reason, e.value.message) == (
            "scope",
            "variable 'g' is not in scope for the solution of ?0",
        )


class TestSolve:
    def test_succ_solution(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        solve(store, 1, 0, spine_of(evaluate(ctx.env, m)), VSucc(co.vvar(0)), ("x",).__getitem__)
        assert store.lookup(0).solution_closed == co.Lam(
            "x", W, EX, co.Succ(co.Var(0))
        )
        assert store.lookup(0).solution_body == co.Succ(co.Var(0))

    def test_type_meta_solution(self):
        store = MetaStore()
        ctx = Context().erased()
        fresh_meta(store, ctx, co.Univ())
        solve(store, 0, 0, (), NatTy())
        assert store.lookup(0).solution_closed == co.NatTy()

    def test_scope_error_names_variable(self):
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy()).bind("y", W, NatTy())
        m = fresh_meta(store, Context().bind("x", W, NatTy()), NatTy())
        v = evaluate((co.vvar(0),), m)
        with pytest.raises(UnifyError, match="scope.*y|y.*scope"):
            solve(store, ctx.depth, 0, spine_of(v), co.vvar(1), ctx.name)

    def test_kernel_refusal_of_solution_is_internal_error(self, monkeypatch):
        def refuse(*args):
            raise KernelError("refused")

        store = MetaStore()
        fresh_meta(store, Context().erased(), co.Univ())
        monkeypatch.setattr(co, "kernel_check", refuse)
        with pytest.raises(InternalError, match=r"ill-typed solution for \?0: refused"):
            solve(store, 0, 0, (), NatTy())
        assert not store.lookup(0).solved

    def test_stack_overflow_in_recheck_is_not_an_ill_typed_solution(self, monkeypatch):
        def overflow(*args):
            raise RecursionError("maximum recursion depth exceeded")

        store = MetaStore()
        fresh_meta(store, Context().erased(), co.Univ())
        monkeypatch.setattr(co, "kernel_check", overflow)
        with pytest.raises(RecursionError):
            solve(store, 0, 0, (), NatTy())
        assert not store.lookup(0).solved

    def test_solution_with_defined_prefix_uses_let(self):
        store = MetaStore()
        ctx = Context().define("d", W, NatTy(), Lit(1))
        fresh_meta(store, ctx, NatTy())
        solve(store, ctx.depth, 0, (), Lit(1))
        sol = store.lookup(0).solution_closed
        assert isinstance(sol, co.Let)
        assert store.lookup(0).solution_body == co.Lit(1)
        kernel_check(store, Context(), sol, store.lookup(0).closed_ty_value)

    def test_extra_spine_arguments_become_lambdas(self):
        # A meta of function type applied under a binder: ?m x = succ x.
        store = MetaStore()
        fn_ty = evaluate((), co.Pi("a", W, EX, co.NatTy(), co.NatTy()))
        m = fresh_meta(store, Context(), fn_ty)
        mv = co.vapp(evaluate((), m), W, EX, co.vvar(0))
        unify(store, 1, mv, VSucc(co.vvar(0)), ("x",).__getitem__)
        entry = store.lookup(0)
        assert entry.solution_closed == co.Lam("x", W, EX, co.Succ(co.Var(0)))
        kernel_check(store, Context(), entry.solution_closed, entry.closed_ty_value)


class TestSolutionSoundness:
    def test_every_committed_solution_kernel_checks(self, corpus):
        total = 0
        for result in corpus.values():
            for entry in result.store:
                assert entry.solved
                kernel_check(
                    result.store,
                    Context(flag=entry.flag),
                    entry.solution_closed,
                    entry.closed_ty_value,
                )
                total += 1
        assert total > 0


ID = "let id : {A :0 U} -> A -> A = \\{A} x. x;\n"


LEAVES = (co.Constant, co.Var, co.Meta)


def subterms(t: co.Term) -> list[co.Term]:
    """`t` and every term below it; only a leaf has none below it."""
    out = [t]
    for name in t.__match_args__:
        child = getattr(t, name)
        if isinstance(child, co.Term):
            out += subterms(child)
    assert len(out) > 1 or isinstance(t, LEAVES), t
    return out


class TestTopLevelSignature:
    def test_chain_metas_capture_no_declarations(self):
        n = 12
        src = ID + (
            "let plus : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;\n"
            "let d0 : Nat = 0;\n"
        ) + "".join(f"let d{i} : Nat = id (plus d{i - 1} 1);\n" for i in range(1, n + 1))
        r = elaborate_text(src)
        assert r.ok
        top_names = {d.name for d in r.decls}
        assert len(r.store) == n
        for entry in r.store:
            assert entry.entries == ()
            assert not any(
                isinstance(u, co.Let) and u.name in top_names
                for u in subterms(entry.solution_closed)
            )
            assert not any(
                isinstance(u, co.Let) and u.name in top_names
                for u in subterms(entry.ty)
            )
        # Solutions are zonked into the bodies, which are not leaves.
        below = [u for d in r.decls for u in subterms(d.body)]
        assert len(below) > len(r.decls)
        assert not any(isinstance(u, co.Let) and u.name in top_names for u in below)

    def test_failed_declaration_stays_opaque_in_solutions(self):
        # B's body fails, so B is an opaque name; `id b` then solves A := B,
        # a solution that refers to the signature.
        r = elaborate_text(ID + "let B : U = zero;\nlet f : B -> B = \\b. id b;\n")
        assert [d.name for d in r.decls] == ["id", "f"]
        assert len(r.errors) == 1
        assert "type mismatch" in r.errors[0].message
        assert r.errors[0].span.start_line == 2
        entry = r.store.lookup(0)
        assert entry.solution_closed == co.Lam("b", W, EX, co.Var(1))
        kernel_check(r.store, entry.sig, entry.solution_closed, entry.closed_ty_value)


class TestRenameAgainstQuote:
    def test_identity_renaming_is_readback(self, corpus):
        # Every declaration value, renamed identically with nothing refused,
        # is its read-back term.
        total = 0
        for result in corpus.values():
            for depth, d in enumerate(result.decls):
                pren = PartialRenaming(
                    dom=depth,
                    cod=depth,
                    map={lvl: (lvl, W) for lvl in range(depth)},
                    allow_erased=True,
                    top=depth,
                )
                for v in (d.ty_value, d.body_value):
                    assert rename(result.store, -1, pren, v) == co.quote(result.store, depth, v)
                    total += 1
        assert total > 0

    def test_deep_succ_chain_over_a_variable(self):
        # `rename` and the kernel's check of the solution walk the chain in
        # loops; `tests/test_large_numerals.py` solves it at the default
        # recursion limit, in a fresh interpreter.
        store = MetaStore()
        ctx = Context().bind("x", W, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        rhs = co.vvar(0)
        for _ in range(40_000):
            rhs = VSucc(rhs)
        # Checked outside the handler, so that a failure report does not
        # walk a traceback of a hundred thousand frames.
        overflowed = False
        try:
            solve(store, ctx.depth, 0, spine_of(evaluate(ctx.env, m)), rhs, ctx.name)
        except RecursionError:
            overflowed = True
        assert not overflowed, "solving a 40 000-deep succ chain overflowed the stack"
        body = store.lookup(0).solution_body
        for _ in range(40_000):
            assert isinstance(body, co.Succ)
            body = body.arg
        assert body == co.Var(0)


class TestAgreementWithConv:
    def test_conv_and_unify_agree_on_corpus_values_of_one_type(self, corpus):
        # Meta-free values of one type, at the module's depth: the types of
        # a module's declarations (all in U), and its Nat-valued bodies.
        # Both orders of every pair.  (Two pairs of different modes are
        # never values of one type: `conv` compares them by eta, while
        # `unify` reports that the pair modes differ.)
        outcomes = []
        for result in corpus.values():
            depth = result.sig.depth
            types = [d.ty_value for d in result.decls]
            nats = [d.body_value for d in result.decls if d.ty_value == NatTy()]
            for values in (types, nats):
                for a in values:
                    for b in values:
                        try:
                            unify(MetaStore(), depth, a, b)
                            unified = True
                        except UnifyError:
                            unified = False
                        assert conv(None, depth, a, b) is unified, (a, b)
                        outcomes.append(unified)
        assert outcomes.count(False) > 100 and outcomes.count(True) > 100
