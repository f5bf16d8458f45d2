from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PINNED_MODULES, corpus_files
from surface_printer import pp_term
from tt0 import cli
from tt0 import core as co
from tt0 import extract as ex
from tt0 import surface as sf
from tt0 import translate
from tt0.core import Context, NatTy, evaluate, kernel_check, normal_form
from tt0.diagnostics import ElabError, InternalError, KernelError, UnifyError
from tt0.elab import check, check_erased, closed_main, elaborate_text, infer, zonk
from tt0.surface import Icit, Mode, parse_term_text
from tt0.unify import MetaStore, fresh_meta, unify

W, Z0 = Mode.OMEGA, Mode.ZERO
EX, IM = Icit.EXPL, Icit.IMPL


def term(src: str):
    return parse_term_text(src)


def vty(src: str, store: MetaStore | None = None, ctx: Context | None = None):
    store = MetaStore() if store is None else store
    ctx = ctx or Context()
    t = check_erased(store, ctx, term(src), co.Univ())
    return evaluate(ctx.env, t)


class TestCheck:
    def test_lambda_against_runtime_function(self):
        store = MetaStore()
        t = check(store, Context(), term("\\x. x"), vty("Nat -> Nat", store))
        assert t == co.Lam("x", W, EX, co.Var(0))

    def test_identity_against_erased_implicit_pi(self):
        store = MetaStore()
        t = check(store, Context(), term("\\{A} x. x"), vty("{A :0 U} -> A -> A", store))
        assert t == co.Lam("A", Z0, IM, co.Lam("x", W, EX, co.Var(0)))

    def test_erased_variable_at_runtime_is_an_error(self):
        store = MetaStore()
        ctx = Context().bind("x", Z0, NatTy())
        with pytest.raises(ElabError, match="erased variable"):
            check(store, ctx, term("x"), NatTy())

    def test_check_erased_gives_access(self):
        store = MetaStore()
        ctx = Context().bind("x", Z0, NatTy())
        assert ctx.flag is False
        t = check_erased(store, ctx, term("x"), NatTy())
        assert t == co.Var(0)

    def test_check_erased_lambda_against_erased_pi(self):
        store = MetaStore()
        t = check_erased(
            store, Context(), term("\\x. x"), vty("(x :0 Nat) -> Nat", store)
        )
        assert t == co.Lam("x", Z0, EX, co.Var(0))

    def test_check_erased_allows_elimination_of_erased_scrutinee(self):
        store = MetaStore()
        ctx = Context().bind("n", Z0, NatTy())
        src = "natElim (\\k. Nat) zero (\\k ih. succ ih) n"
        with pytest.raises(ElabError):
            check(store, ctx, term(src), NatTy())
        t = check_erased(store, ctx, term(src), NatTy())
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
        store = MetaStore()
        sig_ty = vty("(n :0 Nat) * Nat", store)
        ctx = Context().bind("p", W, sig_ty)
        with pytest.raises(ElabError, match="erased"):
            infer(store, ctx, term("fst p"))
        t, ty = infer(store, ctx.erased(), term("fst p"))
        assert t == co.Fst(Z0, co.Var(0))
        assert ty == NatTy()

    def test_unbound_name(self):
        with pytest.raises(ElabError, match="unbound"):
            infer(MetaStore(), Context(), term("ghost"))

    def test_applying_non_function(self):
        with pytest.raises(ElabError, match="non-function"):
            infer(MetaStore(), Context(), term("zero zero"))


# The target constant each runtime constant of `core.CONSTANTS` runs to.
TARGET_CONSTANTS = {"zero": ex.TLit(0), "true": ex.TTrue(), "false": ex.TFalse()}


@pytest.mark.parametrize("keyword", list(co.CONSTANTS))
def test_base_constant_in_every_layer(keyword):
    const, ty, code = co.CONSTANTS[keyword]
    parsed = term(keyword)
    assert parsed == sf.SConst(parsed.span, keyword)
    assert pp_term(parsed) == keyword
    assert co.pp(const) == keyword
    assert infer(MetaStore(), Context().erased(), parsed) == (const, ty)
    assert co.kernel_infer(MetaStore(), Context().erased(), const) == ty
    r = elaborate_text(f"main = {keyword};")
    if code is None:
        assert r.ok, [e.message for e in r.errors]
        assert co.kernel_infer(r.store, Context(), const) == ty
        target = ex.extract(Context(), closed_main(r))
        assert ex.eval_target(target) == TARGET_CONSTANTS[keyword]
        return
    message = f"{code} is a type code and can only appear in erased positions"
    assert [e.message for e in r.errors] == [message]
    with pytest.raises(KernelError, match=f"^{code} is a type code"):
        co.kernel_infer(MetaStore(), Context(), const)


MISMATCH = "type mismatch: expected {}, got {} (terms have different head constructors)"

# For each eliminator: well-typed parts (motive, two cases, scrutinee), an
# ill-typed replacement for each part, and the types of the mismatch when
# that part is the first ill-typed one.  The `boolElim` motive is Nat at
# true and Bool at false, so that an ill-typed case names the case.
ELAB_ELIMS = {
    "natElim": (
        ("(\\k. Bool)", "false", "(\\k ih. ih)", "zero"),
        ("zero", "zero", "true", "true"),
        (
            ("Π (n : Nat). U", "Nat"),
            ("Bool", "Nat"),
            ("Π (k : Nat). Π (ih : Bool). Bool", "Bool"),
            ("Nat", "Bool"),
        ),
    ),
    "boolElim": (
        ("(\\b. boolElim (\\c. U) Nat Bool b)", "zero", "true", "true"),
        ("zero", "true", "zero", "zero"),
        (("Π (b : Bool). U", "Nat"), ("Nat", "Bool"), ("Bool", "Nat"), ("Bool", "Nat")),
    ),
}


def located_errors(src: str) -> list[tuple[str, int, int]]:
    """The message, first column and last column of each error of `src`."""
    return [(e.message, e.span.start_col, e.span.end_col) for e in elaborate_text(src).errors]


@pytest.mark.parametrize("keyword, i", [(k, i) for k in ELAB_ELIMS for i in range(4)])
def test_eliminator_parts_checked_in_order(keyword, i):
    # Parts 0..i-1 are well typed and parts i.. are not: the error is at
    # part i, so it also pins the order of the checks.
    good, bad, types = ELAB_ELIMS[keyword]
    head = f"main = {keyword} " + "".join(f"{p} " for p in good[:i])
    src = head + " ".join(bad[i:]) + ";"
    col = len(head) + 1
    assert located_errors(src) == [(MISMATCH.format(*types[i]), col, col + len(bad[i]) - 1)]
    assert elaborate_text(f"main = {keyword} {' '.join(good)};").ok


@pytest.mark.parametrize("word, arg, ty", [("fst", "zero", "Nat"), ("snd", "true", "Bool")])
def test_projection_of_a_non_pair(word, arg, ty):
    src = f"main = {word} {arg};"
    assert located_errors(src) == [(f"projecting from a non-pair of type {ty}", 8, 15)]


@pytest.mark.parametrize("head", ["let f : Nat = ", "main = "])
@pytest.mark.parametrize(
    "ann, bad, types", [("zero", "zero", ("U", "Nat")), ("Nat", "true", ("Nat", "Bool"))]
)
def test_ill_typed_let(head, ann, bad, types):
    # A declaration's body is checked and `main` is inferred.  The
    # definition `true` is ill typed too, so an ill-typed annotation shows
    # that it is checked first.
    src = f"{head}let x : {ann} = true in x;"
    col = src.index(f" {bad} ") + 2
    assert located_errors(src) == [(MISMATCH.format(*types), col, col + len(bad) - 1)]


OUTSIDE = "at a runtime position, but the metavariable lives outside the erased fragment"


@pytest.mark.parametrize(
    "src, message, col",
    [
        (
            "let g : Nat -> Nat = \\a. _ a;",
            "type mismatch: expected Nat, got ?3 a a "
            "(non-linear spine: variable 'a' occurs twice)",
            26,
        ),
        (
            "let g : Nat -> Nat = \\a. (\\(h : _). h a) (\\z. succ z);",
            "type mismatch: expected Π (x : ?1 a h). ?2 a h x, got ?0 a "
            "(variable 'h' is not in scope for the solution of ?0)",
            37,
        ),
        (
            "let f : (x :0 U) -> (y :0 U) -> x -> y = \\x y a. a;",
            "type mismatch: expected y, got x (variables 'x' and 'y' differ)",
            50,
        ),
        (
            "let use : {n : Nat} -> (F :0 Nat -> U) -> (p :0 F n) -> Nat = \\{n} F p. n;\n"
            "let f : (F :0 Nat -> U) -> (z :0 Nat) -> (p :0 F z) -> Nat = \\F z p. use F p;",
            "type mismatch: expected F (?0 F z p), got F z "
            f"(solution would use erased variable 'z' {OUTSIDE})",
            76,
        ),
    ],
)
def test_unifier_messages_name_context_variables(src, message, col):
    # Each unifier message that names a variable reads the name from the
    # context of the failed unification.
    [(got, start, _)] = located_errors(src)
    assert (got, start) == (message, col)


@pytest.mark.parametrize(
    "src, message, line, cols",
    [
        ("main = \\{x}. x;", "cannot infer a type for an implicit lambda", 1, (8, 14)),
        (
            "let f : Nat -> Nat = \\x. x;\nmain = f {zero};",
            "unexpected implicit argument to an explicit function",
            2,
            (8, 15),
        ),
        ("main = zero zero;", "applying a non-function of type Nat", 1, (8, 11)),
        (
            "main = (zero, zero);",
            "cannot infer a type for a pair; annotate the enclosing binding",
            1,
            (8, 19),
        ),
        (
            "let f : (F :0 U -> U) -> F ((x :0 Nat) -> Nat) -> F (Nat -> Nat) = \\F y. y;",
            "type mismatch: expected F (Nat → Nat), got F (Π₀ (x : Nat). Nat) "
            "(function type modes differ (Π₀ vs Πω))",
            1,
            (74, 74),
        ),
        (
            "let f : (F :0 U -> U) -> F (Nat -> Nat) -> F ({x : Nat} -> Nat) = \\F y. y;",
            "type mismatch: expected F (Π {x : Nat}. Nat), got F (Nat → Nat) "
            "(function type implicitness differs)",
            1,
            (73, 73),
        ),
        (
            "let f : (F :0 U -> U) -> F ((x :0 Nat) * Nat) -> F (Nat * Nat) = \\F y. y;",
            "type mismatch: expected F (Nat * Nat), got F ((x : Nat) *₀ Nat) "
            "(pair type modes differ (*₀ vs *ω))",
            1,
            (72, 72),
        ),
        (
            "let f : (h :0 (A :0 U) -> A) -> (x : h U) -> h (U -> U) Nat = \\h x. x;",
            "type mismatch: expected h (U → U) Nat, got h U "
            "(eliminations applied to the same head differ)",
            1,
            (69, 69),
        ),
    ],
)
def test_elaborator_message_and_location(src, message, line, cols):
    [e] = elaborate_text(src).errors
    assert (e.message, e.span.start_line, (e.span.start_col, e.span.end_col)) == (
        message,
        line,
        cols,
    )


def test_explicit_application_of_an_implicit_function_inserts_the_argument():
    # `insert_implicits` strips every leading implicit Pi before an explicit
    # argument is checked, so an explicit argument never meets an implicit
    # function type and only an implicit argument can mismatch.
    r = elaborate_text("let f : {A :0 U} -> A -> A = \\{A} x. x;\nmain = f zero;")
    assert r.ok
    assert r.main[0] == co.App(W, EX, co.App(Z0, IM, co.Var(0), NatTy()), co.Lit(0))


_H = co.Var(0)  # `h`, the only entry below `x`


@pytest.mark.parametrize(
    "got, expected, shown, reason",
    [
        (
            co.App(W, EX, _H, co.Lam("y", Z0, EX, co.Lit(0))),
            co.App(W, EX, _H, co.Lam("y", W, EX, co.Lit(0))),
            ("h (λ y. zero)", "h (λ₀ y. zero)"),
            "lambda modes differ",
        ),
        (
            co.App(W, EX, _H, co.Pair(Z0, co.Lit(0), co.Lit(0))),
            co.App(W, EX, _H, co.Pair(W, co.Lit(0), co.Lit(0))),
            ("h (zero, zero)", "h (zero, zero)₀"),
            "pair modes differ",
        ),
        (
            co.App(Z0, EX, _H, co.Lit(0)),
            co.App(W, EX, _H, co.Lit(0)),
            ("h zero", "h zero"),
            "application modes differ",
        ),
        (
            co.Fst(Z0, _H),
            co.Fst(W, _H),
            ("fst h", "fst₀ h"),
            "projection modes differ",
        ),
        (
            co.App(W, EX, _H, co.Lit(0)),
            co.Fst(W, _H),
            ("fst h", "h zero"),
            "eliminations applied to the same head differ",
        ),
    ],
)
def test_unifier_reason_reaches_the_mismatch_message(got, expected, shown, reason):
    # Neutral types with the same head `h`, ill-typed where no source
    # program can build them, checked through the elaborator's `check`.
    ctx = Context().bind("h", Z0, co.Univ())
    x = ctx.bind("x", W, evaluate(ctx.env, got))
    t = term("x")
    with pytest.raises(ElabError) as e:
        check(MetaStore(), x, t, evaluate(ctx.env, expected))
    assert (e.value.message, e.value.span) == (
        f"type mismatch: expected {shown[0]}, got {shown[1]} ({reason})",
        t.span,
    )


def test_solution_binder_named_by_the_binder_unify_entered(tmp_path, capsys):
    # `?m F` against `λ z. succ z` goes under the lambda, so `?m F z = succ
    # z` and inversion names the solution's binder after the one entered.
    path = tmp_path / "pin.tt0"
    path.write_text("let pin : {F :0 ((Nat -> Nat) -> U)} -> F (\\z. succ z) -> F _ = \\y. y;\n")
    assert cli.main(["elab", str(path)]) == 0
    assert capsys.readouterr().out == (
        "let pin : Π₀ {F : (Nat → Nat) → U}. F (λ z. succ z) → F (λ z. succ z)\n"
        "  = λ₀ {F}. λ y. y\n"
    )


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


class TestNameResolution:
    def test_local_shadows_top_level_name(self):
        r = elaborate_text("let x : Bool = true; let f : Nat -> Nat = \\x. x;")
        assert r.ok
        assert r.decl("f").body == co.Lam("x", W, EX, co.Var(0))
        ctx = Context().declare("x", co.BoolTy(), co.TrueTm()).bind("x", W, NatTy())
        ix, entry = ctx.lookup("x")
        assert (ix, entry.ty) == (0, NatTy())

    def test_inner_local_shadows_outer_local(self):
        r = elaborate_text("let f : Bool -> Nat -> Nat = \\x. \\x. x;")
        assert r.ok
        assert r.decl("f").body == co.Lam("x", W, EX, co.Lam("x", W, EX, co.Var(0)))
        ctx = Context().bind("x", W, co.BoolTy()).bind("y", W, NatTy()).bind("x", W, NatTy())
        assert ctx.lookup("x")[0] == 0
        assert ctx.lookup("y")[0] == 1
        assert ctx.lookup("z") is None

    def test_top_level_name_found_under_locals(self):
        ctx = Context().declare("a", NatTy(), co.Lit(3)).declare("b", co.BoolTy())
        ctx = ctx.bind("x", W, NatTy()).define("y", W, NatTy(), co.Lit(1))
        assert ctx.lookup("a")[0] == 3
        assert ctx.lookup("b")[0] == 2
        assert ctx.lookup("a")[1].ty == NatTy()
        assert ctx.names == ("a", "b", "x", "y")

    def test_declaration_after_a_meta_is_outside_its_scope(self):
        store = MetaStore()
        sig = Context().declare("a", NatTy())
        m = fresh_meta(store, sig, NatTy())
        sig = sig.declare("b", NatTy())
        entry = store.lookup(0)
        assert entry.sig.depth == 1 and entry.sig.names == ("a",)
        assert entry.sig.lookup("b") is None
        with pytest.raises(UnifyError, match="'b' is not in scope"):
            unify(store, sig.depth, evaluate(sig.env, m), co.vvar(1), sig.name)
        assert not entry.solved
        unify(store, sig.depth, evaluate(sig.env, m), co.vvar(0), sig.name)
        assert entry.solution_closed == co.Var(0)

    def test_declare_needs_a_context_that_sees_the_whole_signature(self):
        sig = Context().declare("a", NatTy())
        longer = sig.declare("b", NatTy(), co.Lit(2))
        with pytest.raises(InternalError, match="inside the signature"):
            sig.declare("c", NatTy())  # sees `a` but not `b`
        with pytest.raises(InternalError, match="inside the signature"):
            longer.bind("x", W, NatTy()).declare("c", NatTy())
        assert longer.declare("c", NatTy()).names == ("a", "b", "c")
        assert longer.prefix(1).names == ("a",) and longer.prefix(1).lookup("b") is None
        # Contexts made without a signature start tables of their own.
        assert Context().declare("a", co.BoolTy()).lookup("a")[1].ty == co.BoolTy()
        assert Context().names == () and Context().lookup("a") is None

    def test_top_level_reference_under_nested_binders(self, capsys, tmp_path):
        src = "let a : Nat = 3;\nlet f : Nat -> Bool -> Nat = \\x. \\b. a;\nmain = f 1 true;\n"
        r = elaborate_text(src)
        assert r.ok
        f = r.decl("f")
        assert f.body == co.Lam("x", W, EX, co.Lam("b", W, EX, co.Var(2)))
        sig = Context().declare("a", NatTy(), co.Lit(3))
        kernel_check(r.store, sig, f.body, f.ty_value)
        path = tmp_path / "nested.tt0"
        path.write_text(src)
        assert cli.main(["elab", str(path)]) == 0
        assert "\n  = λ x. λ b. a\n" in capsys.readouterr().out



class TestNamesOnDemand:
    """Names are built for a message or for output, never on the way to a
    result: the hot path does not slide back to building them."""

    def test_no_names_built_for_good_modules(self, monkeypatch, capsys):
        calls = []
        names = Context.names
        monkeypatch.setattr(Context, "names", property(lambda c: calls.append(1) or names.fget(c)))
        for path in corpus_files():
            result = elaborate_text(path.read_text(), str(path))  # with the kernel's re-check
            assert all(r.zeroing_ok and r.stripping_ok for r in translate.sweep(result))
            if result.main is not None:
                ex.eval_target(ex.extract(Context(), closed_main(result)))
            for command in ("meta", "run"):
                cli.main([command, str(path), "--json"])
            assert calls == [], path.name
            # `check` prints each type, with the names built once.
            cli.main(["check", str(path), "--json"])
            assert len(calls) == 1, path.name
            calls.clear()
        capsys.readouterr()

    def test_one_neutral_per_level(self):
        assert all(co.vvar(k) is co.vvar(k) for k in range(50))
        assert co.vvar(7) == co.VNeutral(co.VarH(7))
        assert Context().bind("x", W, NatTy()).env[0] is co.vvar(0)


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
            """The number of proper subterms of `t`, all free of metas and of
            `let m<digits>` wrappers around a solution."""
            assert not isinstance(t, co.Meta)
            assert not (isinstance(t, co.Let) and re.fullmatch(r"m\d+", t.name)), co.pp(t)
            children = [getattr(t, f) for f in t.__match_args__]
            return sum(1 + no_metas(v) for v in children if isinstance(v, co.Term))

        pinned = [elaborate_text(src) for src in PINNED_MODULES.values()]
        visited = 0
        for result in [*corpus.values(), *pinned]:
            assert result.ok
            for d in result.decls:
                visited += no_metas(d.ty) + no_metas(d.body)
            if result.main is not None:
                visited += no_metas(result.main[0])
        assert visited > 0

    def test_zonk_is_identity_on_meta_free_terms(self):
        r = elaborate_text("let f : Nat -> Nat = \\x. succ x;")
        assert r.ok
        store = MetaStore()
        assert zonk(store, r.decl("f").body, 0) == r.decl("f").body

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

    def test_closing_shares_what_thinning_leaves_unchanged(self):
        src = "let a : Nat = 1;\nlet b : Nat = 2;\nlet c : Nat = succ a;\nmain = succ c;"
        r = elaborate_text(src)
        closed = closed_main(r)  # let a = 1 in let c = succ a in succ c
        # Dropping `b` renumbers `a` in `c`; `c` in main keeps its index.
        assert closed.body.defn == co.Succ(co.Var(0)) != r.decl("c").body
        assert closed.body.body is r.main[0]

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
        unify(store, ctx.depth, fv, co.VSucc(bv), ctx.name)
        unify(store, ctx.depth, bv, co.vvar(0), ctx.name)
        zonked = zonk(store, f, ctx.depth)
        kernel_check(store, ctx, zonked, NatTy())
        assert normal_form(store, ctx.env, zonked) == co.Succ(co.Var(0))

    def test_zonk_applies_a_bare_solution_to_its_spine(self):
        # ?m := λ y. Nat under one binder; `quote` reads ?m back bare, applied
        # to the binder, and zonk reads the solution back applied to it.
        store = MetaStore()
        ctx = Context().bind("y", W, NatTy())
        m = fresh_meta(store, ctx.erased(), co.Univ())
        unify(store, ctx.depth, evaluate(ctx.env, m), NatTy(), ctx.name)
        bare = co.App(W, EX, co.Meta(m.mid), co.Var(0))
        zonked = zonk(store, bare, ctx.depth)
        assert zonked == NatTy()
        kernel_check(None, ctx.erased(), zonked, co.Univ())


def subterms(t: co.Term):
    """Every node of `t`, once per occurrence, iteratively."""
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        todo.extend(v for v in vars(u).values() if isinstance(v, co.Term))


# The child of each binding former that its binder scopes over.
BINDER_FIELDS = {co.Lam: "body", co.Pi: "cod", co.Sigma: "snd_ty", co.Let: "body"}


def rebuild(t: co.Term, f, depth: int) -> co.Term:
    """`t` with `f(child, depth + k)` for each child, as a new node unless
    `t` has no children."""
    fields = t.__match_args__
    if not any(isinstance(getattr(t, k), co.Term) for k in fields):
        return t
    args = [
        f(v, depth + (BINDER_FIELDS.get(type(t)) == k)) if isinstance(v, co.Term) else v
        for k, v in ((k, getattr(t, k)) for k in fields)
    ]
    return co.succ(*args) if type(t) is co.Succ else type(t)(*args)


def reference_zonk(store: MetaStore, t: co.Term, depth: int) -> co.Term:
    """`zonk` as a full rebuild: a new node for every node with children."""

    def go(u: co.Term, d: int) -> co.Term:
        spine = []
        while type(u) is co.App:
            spine.append(u)
            u = u.fn
        entry = store.lookup(u.mid) if type(u) is co.Meta else None
        if entry is None or entry.solution_body is None:
            head = rebuild(u, go, d)
        elif len(u.mask) == len(entry.entries):
            head = go(entry.solution_body, d)
        else:
            return co.normal_form(store, tuple(map(co.vvar, range(d))), spine[0] if spine else u)
        for app in reversed(spine):
            head = co.App(app.mode, app.icit, head, go(app.arg, d))
        return head

    return go(t, depth)


def zonked_terms(result):
    """Each zonked type, body and main of a module, with its depth."""
    for i, d in enumerate(result.decls):
        yield i, d.ty
        yield i, d.body
    if result.main is not None:
        yield len(result.decls), result.main[0]


class TestSharing:
    def test_meta_free_corpus_terms_come_back_as_they_are(self, corpus):
        seen = 0
        for result in corpus.values():
            for depth, t in zonked_terms(result):
                assert zonk(result.store, t, depth) is t
                for u in subterms(t):
                    assert co.map_subterms(u, lambda v, _: v) is u
                    seen += 1
        assert seen > 900

    def test_zonk_copies_only_the_paths_to_metas(self, monkeypatch):
        # Every zonk of elaborating the corpus equals the full rebuild, and
        # the nodes it allocates (those of its output that are neither
        # nodes of its input nor of a solution) are no more than the nodes
        # of its input with a meta at or below them.
        calls = []

        def recording(store, t, depth):
            out = zonk(store, t, depth)
            calls.append((store, t, depth, out))
            return out

        monkeypatch.setattr("tt0.elab.zonk", recording)
        for path in corpus_files():
            assert elaborate_text(path.read_text(), str(path)).ok
        allocated = holding = 0
        for store, t, depth, out in calls:
            assert out == reference_zonk(store, t, depth)
            solutions = [e.solution_body for e in store if e.solution_body is not None]
            shared = {id(u) for s in [t, *solutions] for u in subterms(s)}
            allocated += len({id(u) for u in subterms(out)} - shared)
            metas: dict[int, bool] = {}

            def has_meta(u: co.Term) -> bool:
                if id(u) not in metas:
                    kids = [v for v in vars(u).values() if isinstance(v, co.Term)]
                    metas[id(u)] = type(u) is co.Meta or any(map(has_meta, kids))
                return metas[id(u)]

            has_meta(t)
            holding += sum(metas.values())
        assert len(calls) > 200
        assert 0 < allocated <= holding


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
        store = MetaStore()
        t_runtime = check(store, Context(), term(src), NatTy())
        store2 = MetaStore()
        t_erased = check(store2, Context(flag=True), term(src), NatTy())
        kernel_check(store, Context(), t_runtime, NatTy())
        kernel_check(store2, Context(flag=True), t_erased, NatTy())

    @settings(max_examples=60, deadline=None)
    @given(nat_term(3))
    def test_numeral_value_matches_direct_count(self, src):
        store = MetaStore()
        t = check(store, Context(), term(src), NatTy())
        v = normal_form(store, (), t)
        assert isinstance(v, co.Lit)

    @settings(max_examples=100, deadline=None)
    @given(nat_term(3))
    def test_core_and_target_evaluation_agree(self, src):
        from tt0.extract import as_numeral, eval_target, extract

        store = MetaStore()
        t = check(store, Context(), term(src), NatTy())
        kernel_check(store, Context(), t, NatTy())
        core_v = normal_form(store, (), t)
        assert isinstance(core_v, co.Lit)
        assert as_numeral(eval_target(extract(Context(), t))) == core_v.n
