from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tt0.surface as sf
from conftest import corpus_files
from tt0.core import CONSTANTS
from tt0.diagnostics import LexError, ParseError, SourceSpan
from tt0.surface import (
    Icit,
    Mode,
    SPi,
    SSigma,
    parse_module_text,
    parse_term_text,
    pp_module,
    pp_term,
    tokenize,
)


def kinds(source: str) -> list[str]:
    return [t.kind for t in tokenize(source)]


# Pieces that concatenate to lexable text: every `-` is part of `->` or `--`.
TOKEN_ALPHABET = [
    " ", "\t", "\r", "\n", "-- c", "->", ":0", ":", "(", ")", "{", "}", "\\", ".",
    "*", ",", ";", "=", "_", "0", "7", "42", "x", "y'", "a_1", "let", "in",
    "zero", "succ", "Nat", "natElim", "main",
]


class TestTokenize:
    def test_mode_annotated_binder(self):
        assert kinds("(x :0 Nat) -> Nat") == [
            "(", "ident", ":0", "Nat", ")", "->", "Nat", "eof",
        ]

    def test_empty_input(self):
        assert kinds("") == ["eof"]

    def test_unsupported_glyph_position(self):
        with pytest.raises(LexError) as e:
            tokenize("λx. x")
        assert e.value.span.start_line == 1
        assert e.value.span.start_col == 1

    def test_comments_are_skipped(self):
        assert kinds("-- a comment\nzero") == ["zero", "eof"]

    def test_spans_are_one_based(self):
        toks = tokenize("let x")
        assert (toks[0].span.start_line, toks[0].span.start_col) == (1, 1)
        assert (toks[1].span.start_line, toks[1].span.start_col) == (1, 5)

    def test_arrow_not_split(self):
        assert kinds("a->b") == ["ident", "->", "ident", "eof"]

    def test_erased_colon_needs_a_lone_zero(self):
        toks = tokenize("x :05")
        assert [(t.kind, t.text, t.value) for t in toks] == [
            ("ident", "x", None), (":", ":", None), ("number", "05", 5), ("eof", "", None),
        ]

    def test_identifier_characters(self):
        toks = tokenize("x'1_")
        assert [(t.kind, t.text) for t in toks] == [("ident", "x'1_"), ("eof", "")]

    def test_keyword_prefixes_are_identifiers(self):
        assert kinds("lets zero' Natural") == ["ident", "ident", "ident", "eof"]

    def test_double_dash_starts_a_comment(self):
        assert kinds("a--b") == ["ident", "eof"]
        assert kinds("a--b\nc") == ["ident", "ident", "eof"]

    def test_lone_dash_is_illegal_at_its_column(self):
        with pytest.raises(LexError, match="illegal character '-'") as e:
            tokenize("a - b")
        assert (e.value.span.start_line, e.value.span.start_col) == (1, 3)

    def test_tab_and_carriage_return_are_one_column(self):
        toks = tokenize("\tx\r y")
        assert [(t.span.start_col, t.span.end_col) for t in toks] == [
            (2, 2), (5, 5), (6, 6),
        ]
        with pytest.raises(LexError, match="illegal character 'λ'") as e:
            tokenize("a\t\rλ")
        span = e.value.span
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (1, 4, 1, 4)
        with pytest.raises(LexError) as e:
            tokenize("\tx\r\nλ")
        assert (e.value.span.start_line, e.value.span.start_col) == (2, 1)

    def test_span_of_overlong_literal(self):
        with pytest.raises(LexError, match=r"number literal too long \(4301 digits\)") as e:
            tokenize("x =\n  " + "1" * 4301 + " y")
        span = e.value.span
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (
            2, 3, 2, 4303,
        )

    @given(pieces=st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_token_text_is_the_slice_its_span_names(self, pieces):
        source = "".join(pieces)
        lines = source.split("\n")
        toks = tokenize(source)
        assert toks[-1].kind == "eof"
        previous = (1, 0)
        for t in toks[:-1]:
            s = t.span
            assert s.start_line == s.end_line
            assert lines[s.start_line - 1][s.start_col - 1 : s.end_col] == t.text
            assert (s.start_line, s.start_col) > previous
            previous = (s.end_line, s.end_col)


class TestParse:
    def test_identity_declaration(self):
        m = parse_module_text("let id : {A :0 U} -> A -> A = \\{A} x. x;")
        assert len(m.decls) == 1
        decl = m.decls[0]
        assert decl.name == "id"
        assert isinstance(decl.ty, SPi)
        assert decl.ty.mode is Mode.ZERO
        assert decl.ty.icit is Icit.IMPL

    def test_erased_sigma(self):
        t = parse_term_text("(n :0 Nat) * Nat")
        assert isinstance(t, SSigma)
        assert t.name == "n"
        assert t.mode is Mode.ZERO

    def test_missing_expression(self):
        with pytest.raises(ParseError) as e:
            parse_module_text("let x : Nat = ;")
        assert e.value.span is not None
        assert e.value.span.start_col == 15

    def test_end_of_input_after_trailing_comment(self):
        # The end of input is where the text ends, also after a comment that
        # no newline closes.
        for src, where in [
            ("let x : Nat = -- trailing", (1, 26)),
            ("let x : Nat = -- trailing\n", (2, 1)),
        ]:
            with pytest.raises(ParseError, match="unexpected end of input") as e:
                parse_module_text(src)
            assert (e.value.span.start_line, e.value.span.start_col) == where

    def test_arrow_right_associative(self):
        t = parse_term_text("Nat -> Nat -> Nat")
        assert isinstance(t, SPi)
        assert isinstance(t.cod, SPi)

    def test_star_binds_tighter_than_arrow(self):
        t = parse_term_text("Nat * Nat -> Nat")
        assert isinstance(t, SPi)
        assert isinstance(t.dom, SSigma)

    def test_application_left_associative(self):
        assert parse_term_text("f a b") == parse_term_text("(f a) b")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_module_text("let x : Nat = zero; let x : Nat = zero;")

    def test_main_must_be_last(self):
        with pytest.raises(ParseError):
            parse_module_text("main = zero; let x : Nat = zero;")

    def test_parse_error_span_inside_input(self):
        for src in ["let", "let x", "let x : Nat = (zero", "\\. x"]:
            with pytest.raises(ParseError) as e:
                parse_module_text(src)
            span = e.value.span
            assert span is not None
            lines = src.splitlines() or [""]
            assert 1 <= span.start_line <= len(lines) + 1

    def test_nesting_past_the_stack_is_located_parse_error(self):
        n = 50_000
        with pytest.raises(ParseError, match="term nested too deeply") as e:
            parse_term_text("(" * n + "zero" + ")" * n)
        span = e.value.span
        assert span is not None
        assert span.start_line == 1 and 1 < span.start_col <= n


class TestRoundTrip:
    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
    def test_print_parse_round_trip(self, path):
        module = parse_module_text(path.read_text(), str(path))
        printed = pp_module(module)
        reparsed = parse_module_text(printed, str(path))
        assert reparsed == module

    def test_term_round_trip_examples(self):
        for src in [
            "\\{A} x. x",
            "(x :0 Nat) -> Nat",
            "{A :0 U} -> A -> A",
            "(k : Nat) * (w :0 Nat) * Nat",
            "natElim (\\k. Nat) n (\\k ih. succ ih) m",
            "let y : Nat = succ zero in succ y",
            "f {zero} (succ zero)",
            "fst (snd p)",
            "boolElim (\\x. Bool) b false a",
            "(x : Nat) -> (Nat -> Nat) -> Nat * Bool",
            "((n :0 Nat) * Nat) -> Nat",
            "\\(x : Nat * Nat) {y :0 U}. fst x",
        ]:
            t = parse_term_text(src)
            assert parse_term_text(pp_term(t)) == t

    def test_lambda_and_let_codomains_round_trip(self):
        for src in [
            "(x : Nat) -> (\\y. y)",
            "Nat -> (let y : Nat = x in y)",
        ]:
            t = parse_term_text(src)
            assert isinstance(t, sf.SPi)
            assert parse_term_text(pp_term(t)) == t

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_term_round_trip(self, data):
        t = data.draw(surface_terms(3))
        assert parse_term_text(pp_term(t)) == t


DUMMY = SourceSpan("<gen>", 1, 1, 1, 1)


def surface_terms(depth: int) -> st.SearchStrategy:
    names = st.sampled_from(["x", "y", "f"])
    modes = st.sampled_from([Mode.OMEGA, Mode.ZERO])
    leaves = st.one_of(
        names.map(lambda n: sf.SVar(DUMMY, n)),
        st.sampled_from(list(CONSTANTS)).map(lambda kw: sf.SConst(DUMMY, kw)),
        st.just(sf.SHole(DUMMY)),
        st.integers(0, 9).map(lambda k: sf.SNum(DUMMY, k)),
    )

    def extend(sub: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            sub,
            st.tuples(sub, sub).map(lambda ab: sf.SApp(DUMMY, ab[0], ab[1])),
            st.tuples(sub, sub).map(
                lambda ab: sf.SApp(DUMMY, ab[0], ab[1], Icit.IMPL)
            ),
            st.tuples(names, sub).map(
                lambda nb: sf.SLam(DUMMY, nb[0], None, None, Icit.EXPL, nb[1])
            ),
            st.tuples(names, modes, sub, sub).map(
                lambda q: sf.SLam(DUMMY, q[0], q[1], q[2], Icit.EXPL, q[3])
            ),
            st.tuples(names, modes, st.sampled_from([Icit.EXPL, Icit.IMPL]), sub, sub).map(
                lambda q: sf.SPi(DUMMY, q[0], q[1], q[2], q[3], q[4])
            ),
            st.tuples(sub, sub).map(
                lambda ab: sf.SPi(DUMMY, "_", Mode.OMEGA, Icit.EXPL, ab[0], ab[1])
            ),
            st.tuples(names, modes, sub, sub).map(
                lambda q: sf.SSigma(DUMMY, q[0], q[1], q[2], q[3])
            ),
            st.tuples(sub, sub).map(
                lambda ab: sf.SSigma(DUMMY, "_", Mode.OMEGA, ab[0], ab[1])
            ),
            st.tuples(sub, sub).map(lambda ab: sf.SPair(DUMMY, ab[0], ab[1])),
            sub.map(lambda a: sf.SFst(DUMMY, a)),
            sub.map(lambda a: sf.SSnd(DUMMY, a)),
            sub.map(lambda a: sf.SSucc(DUMMY, a)),
            st.tuples(names, sub, sub, sub).map(
                lambda q: sf.SLet(DUMMY, q[0], q[1], q[2], q[3])
            ),
            st.tuples(sub, sub, sub, sub).map(
                lambda q: sf.SNatElim(DUMMY, *q)
            ),
            st.tuples(sub, sub, sub, sub).map(
                lambda q: sf.SBoolElim(DUMMY, *q)
            ),
        )

    out = leaves
    for _ in range(depth):
        out = extend(out)
    return out
