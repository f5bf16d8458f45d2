from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO
from tt0 import core as co
from tt0.core import Context, NatTy
from tt0.diagnostics import InternalError
from tt0.elab import closed_definition, closed_main, elaborate_text
from tt0.extract import (
    FuelExhausted,
    StuckTerm,
    Target,
    TApp,
    TFalse,
    TFst,
    TIf,
    TLam,
    TLet,
    TNatRec,
    TLit,
    TPair,
    TSnd,
    TSucc,
    TTrue,
    TVar,
    alpha_eq,
    as_numeral,
    eval_target,
    extract,
    extract_at,
    pp_target,
    target_from_json,
)
from tt0.jsontext import TAGS, to_json
from tt0.surface import Icit, Mode

W, Z0 = Mode.OMEGA, Mode.ZERO
EX = Icit.EXPL


def nat(k: int) -> co.Term:
    return co.Lit(k)


class TestExtract:
    def test_identity_with_erased_type_argument(self):
        t = co.Lam("A", Z0, Icit.IMPL, co.Lam("x", W, EX, co.Var(0)))
        assert extract(Context(), t) == TLam("x", TVar(0))

    def test_erased_pair_keeps_second_component(self):
        t = co.Pair(Z0, nat(3), nat(5))
        assert extract(Context(), t) == TLit(5)

    def test_erased_domain_constant(self):
        t = co.Lam("n", Z0, EX, nat(7))
        assert extract(Context(), t) == TLit(7)

    def test_erased_application_drops_argument(self):
        f = co.Lam("n", Z0, EX, nat(7))
        t = co.App(Z0, EX, f, nat(9))
        assert alpha_eq(extract(Context(), t), extract(Context(), f))

    def test_snd_of_erased_pair_is_identity(self):
        ctx = Context().bind("p", W, NatTy())  # type irrelevant to extraction
        assert extract(ctx, co.Snd(Z0, co.Var(0))) == TVar(0)

    def test_marker_context_refused(self):
        with pytest.raises(InternalError):
            extract(Context(flag=True), co.Lit(0))


class TestRuntimeIndex:
    def test_runtime_binder_skips_erased(self):
        modes = (W, Z0, W)  # x, n, y  (oldest first)
        assert extract_at(modes, co.Var(0)) == TVar(0)  # y
        assert extract_at(modes, co.Var(2)) == TVar(1)  # x, with n skipped

    def test_erased_binder_has_no_index(self):
        with pytest.raises(InternalError, match="erased variable"):
            extract_at((W, Z0, W), co.Var(1))

    def test_var_through_mixed_binders(self):
        # \x. \0n. \y. x  ~>  \x. \y. x
        t = co.Lam(
            "x", W, EX, co.Lam("n", Z0, EX, co.Lam("y", W, EX, co.Var(2)))
        )
        assert extract_at((), t) == TLam("x", TLam("y", TVar(1)))


class TestEvalTarget:
    def test_beta(self):
        assert eval_target(TApp(TLam("x", TVar(0)), TLit(0))) == TLit(0)

    def test_natrec_addition(self):
        # natrec 2 (\_ r. succ r) 3 adds three successors to two.
        s = TLam("k", TLam("r", TSucc(TVar(0))))
        t = TNatRec(TLit(2), s, TLit(3))
        assert eval_target(t) == TLit(5)

    def test_stuck_projection(self):
        with pytest.raises(StuckTerm):
            eval_target(TFst(TLit(0)))

    def test_fuel_exhaustion(self):
        omega = TLam("x", TApp(TVar(0), TVar(0)))
        with pytest.raises(FuelExhausted):
            eval_target(TApp(omega, omega), fuel=100)

    def test_let_substitutes(self):
        t = TLet("x", TLit(2), TSucc(TVar(0)))
        assert eval_target(t) == TLit(3)

    def test_normalises_under_binders(self):
        t = TLam("x", TApp(TLam("y", TVar(0)), TLit(0)))
        assert eval_target(t) == TLam("x", TLit(0))

    def test_if_branches(self):
        from tt0.extract import TFalse, TIf, TTrue

        assert eval_target(TIf(TTrue(), TLit(1), TLit(2))) == TLit(1)
        assert eval_target(TIf(TFalse(), TLit(1), TLit(2))) == TLit(2)


POW2 = (
    "let plus : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;\n"
    "main = natElim (\\k. Nat) 1 (\\k ih. plus ih ih) {n};\n"
)


class TestCallByNeed:
    # `plus ih ih` uses the induction hypothesis twice; normal order, which
    # substitutes it, reduced it twice: 203, 1 019 and 4 859 steps.
    @pytest.mark.parametrize("n, steps, normal_order", [(4, 71, 203), (6, 227, 1019), (8, 815, 4859)])
    def test_duplicated_argument_is_evaluated_once(self, n, steps, normal_order):
        result = elaborate_text(POW2.format(n=n))
        t = extract(Context(), closed_main(result))
        assert eval_target(t, fuel=steps) == TLit(2**n)
        with pytest.raises(FuelExhausted):
            eval_target(t, fuel=steps - 1)
        assert steps < normal_order

    def test_deep_terms_at_default_recursion_limit(self):
        # Compared by walking: record equality recurses once per level.
        script = textwrap.dedent(
            """
            import sys
            from tt0.extract import TApp, TLam, TLit, TSucc, TVar, as_numeral, eval_target

            assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
            n = 50_000
            t = TLit(0)
            for _ in range(n):  # (\\x. succ x) ((\\x. succ x) (... zero))
                t = TApp(TLam("x", TSucc(TVar(0))), t)
            assert as_numeral(eval_target(t)) == n
            t = TVar(0)
            for _ in range(n):
                t = TSucc(t)
            t, k = eval_target(TLam("x", t)).body, 0
            while isinstance(t, TSucc):
                t, k = t.arg, k + 1
            assert (t, k) == (TVar(0), n), (t, k)
            print("ok")
            """
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "ok\n"

    def test_errors_print_the_redex_read_back(self):
        omega = TLam("x", TApp(TVar(0), TVar(0)))
        cases = [
            (TFst(TLit(0)), None, "stuck term: first projection of a non-pair: fst zero"),
            (
                TApp(TLam("f", TApp(TVar(0), TLit(1))), TLit(0)),
                None,
                "stuck term: applying a non-function: zero (succ zero)",
            ),
            (TApp(omega, omega), 100, "fuel exhausted while reducing (\\x. x x) (\\x. x x)"),
            (
                TApp(TLam("y", TLet("z", TVar(0), TVar(0))), TLit(2)),
                1,
                "fuel exhausted while reducing let z = succ (succ zero) in z",
            ),
        ]
        for t, fuel, message in cases:
            with pytest.raises((StuckTerm, FuelExhausted)) as e:
                eval_target(t, fuel)
            assert str(e.value) == message

    def test_negative_fuel_allows_no_step(self):
        t = TApp(TLam("x", TVar(0)), TLit(0))
        for fuel in (0, -1, -5):
            with pytest.raises(FuelExhausted):
                eval_target(t, fuel)
        assert eval_target(TLit(3), -1) == TLit(3)


class TestNumerals:
    def test_natrec_on_literal_costs_what_a_successor_chain_costs(self):
        s = TLam("k", TLam("r", TSucc(TVar(0))))
        for scrut in (TLit(3), TSucc(TSucc(TSucc(TLit(0))))):
            t = TNatRec(TLit(2), s, scrut)
            assert eval_target(t, fuel=10) == TLit(5)
            with pytest.raises(FuelExhausted):
                eval_target(t, fuel=9)

    def test_successor_of_literal_folds_in_normal_forms(self):
        assert eval_target(TSucc(TSucc(TLit(40)))) == TLit(42)
        assert eval_target(TLam("x", TSucc(TVar(0)))) == TLam("x", TSucc(TVar(0)))

    def test_numeral_zero(self):
        assert extract(Context(), co.Lit(0)) == TLit(0)
        assert as_numeral(TLit(0)) == 0

    def test_as_numeral_one(self):
        assert as_numeral(TSucc(TLit(0))) == 1

    def test_non_numeral(self):
        assert as_numeral(TLam("x", TVar(0))) is None

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_round_trip(self, k):
        assert as_numeral(TLit(k)) == k


class TestAlphaEq:
    def test_binder_names_ignored(self):
        assert alpha_eq(TLam("x", TVar(0)), TLam("y", TVar(0)))

    def test_distinct_terms(self):
        assert not alpha_eq(TLit(0), TLit(1))

    def test_let_not_identified_with_its_inlining(self):
        lt = TLet("x", TLit(0), TSucc(TVar(0)))
        assert not alpha_eq(lt, TLit(1))

    def test_deep_chains_at_the_default_recursion_limit(self):
        # Record `==` recurses in C, one level per node: two 10 000-deep
        # chains overflow the default limit.  The comparison loops.
        def chain(bottom: Target) -> Target:
            for _ in range(100_000):
                bottom = TSucc(bottom)
            return bottom

        pairs = [
            (chain(TVar(0)), chain(TVar(0)), True),
            (chain(TVar(0)), chain(TVar(1)), False),
            (chain(TVar(0)), chain(TLit(0)), False),
            (chain(TLam("x", TVar(0))), chain(TLam("y", TVar(0))), True),
            (chain(TLet("x", TLit(1), TVar(0))), chain(TLet("y", TLit(1), TVar(0))), True),
        ]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            answers = [alpha_eq(a, b) for a, b, _ in pairs]
        finally:
            sys.setrecursionlimit(limit)
        assert answers == [expected for _, _, expected in pairs]

    def test_agrees_with_record_equality_on_the_corpus(self, corpus):
        targets = [
            extract(Context(), closed_main(r)) for r in corpus.values() if r.main is not None
        ]
        targets += [eval_target(t) for t in targets]
        assert len(targets) > 50
        for a in targets:
            for b in targets:
                assert alpha_eq(a, b) == (a == b)


class TestJson:
    def test_round_trip_on_corpus_extractions(self, corpus):
        for result in corpus.values():
            if result.main is None:
                continue
            t = extract(Context(), closed_main(result))
            assert target_from_json(json.loads(to_json(t))) == t


    def test_every_target_former_round_trips(self):
        formers = [
            TVar(0), TLam("x", TVar(0)), TApp(TVar(0), TVar(1)), TPair(TTrue(), TFalse()),
            TFst(TVar(0)), TSnd(TVar(0)), TLit(3), TSucc(TVar(0)),
            TNatRec(TLit(0), TVar(0), TVar(1)), TTrue(), TFalse(),
            TIf(TVar(0), TTrue(), TFalse()), TLet("y", TLit(1), TVar(0)),
        ]
        concrete = {c for c in TAGS if issubclass(c, Target)}
        assert {type(t) for t in formers} == concrete == set(Target.__subclasses__())
        for t in formers:
            assert target_from_json(json.loads(to_json(t))) == t

    def test_text_is_what_json_dumps_writes_on_corpus_terms(self, corpus):
        # The writer's spacing, key order and escaping are those of
        # `json.dumps` of the object it encodes.
        terms: list[object] = []
        for result in corpus.values():
            for d in result.decls:
                closed = closed_definition(result, d.name)
                nf = co.normal_form(result.store, (), closed)
                terms += [d.ty, d.body, nf, extract(Context(), closed)]
            if result.main is not None:
                target = extract(Context(), closed_main(result))
                terms += [result.main[0], target, eval_target(target)]
        assert len(terms) > 200
        for t in terms:
            text = to_json(t)
            assert text == json.dumps(json.loads(text)), t

    def test_text_of_edge_cases(self):
        zero = '{"tag": "zero"}'
        two = '{"tag": "succ", "arg": {"tag": "succ", "arg": ' + zero + "}}"
        var = '{"tag": "Var", "ix": 0}'
        cases = [
            (co.Lit(0), zero),
            (co.Lit(3), '{"tag": "succ", "arg": ' + two + "}"),
            (
                co.App(W, Icit.EXPL, co.Var(0), co.Lit(2)),
                f'{{"tag": "App", "mode": "w", "implicit": false, "fn": {var}, '
                f'"arg": {two}}}',
            ),
            (TApp(TVar(0), TLit(2)), f'{{"tag": "App", "fn": {var}, "arg": {two}}}'),
            (TPair(TLit(2), TLit(0)), f'{{"tag": "Pair", "fst": {two}, "snd": {zero}}}'),
            (co.Succ(co.Var(0)), f'{{"tag": "succ", "arg": {var}}}'),
            (TSucc(TVar(0)), f'{{"tag": "succ", "arg": {var}}}'),
            (
                co.Meta(4, (None, Z0, W)),
                '{"tag": "Meta", "id": 4, "mask": [null, "0", "w"]}',
            ),
            (co.Meta(0), '{"tag": "Meta", "id": 0, "mask": []}'),
        ]
        for t, text in cases:
            assert to_json(t) == text
            assert json.dumps(json.loads(text)) == text


class TestCorpusTotality:
    def test_extraction_total_on_runtime_definitions(self, corpus):
        # No kernel-checked, marker-free, zonked definition makes the
        # extractor hit an unreachable branch.
        count = 0
        for result in corpus.values():
            for d in result.decls:
                closed = closed_definition(result, d.name)
                extract(Context(), closed)
                count += 1
            if result.main is not None:
                extract(Context(), closed_main(result))
        assert count >= 25

    def test_erased_pairs_extract_to_their_second_component(self, corpus):
        found = 0
        for result in corpus.values():
            for lvl, d in enumerate(result.decls):
                found += _check_pairs(d.body, [W] * lvl)
        assert found > 0


def _check_pairs(t: co.Term, modes: list[Mode]) -> int:
    """Assert extract(Pair(0, a, b)) == extract(b) for every erased pair in
    a runtime position; returns the number of pairs checked."""
    found = 0
    erased_children: tuple[co.Term, ...] = ()
    match t:
        case co.Pair(mode, fst, snd):
            if mode is Z0:
                try:
                    lhs = extract_at(tuple(modes), t)
                except InternalError:
                    lhs = None
                if lhs is not None:
                    assert lhs == extract_at(tuple(modes), snd)
                    found += 1
            erased_children = (fst,) if mode is Z0 else ()
    binder_kids: list[tuple[co.Term, Mode]] = []
    plain_kids: list[co.Term] = []
    match t:
        case co.Lam(_, mode, _, body):
            binder_kids.append((body, mode))
        case co.App(_, _, fn, arg):
            plain_kids += [fn, arg]
        case co.Pair(_, fst, snd):
            plain_kids += [fst, snd]
        case co.Fst(_, p) | co.Snd(_, p) | co.Succ(p):
            plain_kids.append(p)
        case co.NatElim(m, z, s, n):
            plain_kids += [m, z, s, n]
        case co.BoolElim(m, a, b, c):
            plain_kids += [m, a, b, c]
        case co.Let(_, ty, d, b):
            plain_kids += [ty, d]
            binder_kids.append((b, W))
        case co.Pi(_, mode, _, dom, cod):
            plain_kids.append(dom)
            binder_kids.append((cod, mode))
        case co.Sigma(_, mode, fst_ty, snd_ty):
            plain_kids.append(fst_ty)
            binder_kids.append((snd_ty, mode))
    for kid in plain_kids:
        if kid not in erased_children:
            found += _check_pairs(kid, modes)
    for kid, mode in binder_kids:
        found += _check_pairs(kid, modes + [mode])
    return found


class TestPrinting:
    def test_printed_syntax(self):
        t = TLet(
            "f",
            TLam("x", TSucc(TVar(0))),
            TApp(TVar(0), TNatRec(TLit(0), TLam("k", TLam("r", TVar(0))), TLit(1))),
        )
        s = pp_target(t)
        assert s == "let f = \\x. succ x in f (natrec zero (\\k. \\r. r) (succ zero))"

    def test_literal_prints_and_encodes_as_successor_chain(self):
        assert pp_target(TApp(TVar(0), TLit(2)), ("f",)) == "f (succ (succ zero))"
        two = {"tag": "succ", "arg": {"tag": "succ", "arg": {"tag": "zero"}}}
        assert json.loads(to_json(TLit(2))) == two
        assert target_from_json(two) == TLit(2)
