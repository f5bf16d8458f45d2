"""Surface syntax for `.tt0` files: lexer and parser.

Binders carry an erasure mode: `(x : A) -> B` is a runtime function,
`(x :0 A) -> B` an erased-domain one, `{x : A} -> B` / `{x :0 A} -> B` the
implicit variants, and `(x :0 A) * B` an erased-first-component pair type.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

from .core import CONSTANTS, Icit, Mode  # Icit and Mode are re-exported
from .diagnostics import LexError, ParseError, Source, Span
from .record import Record


# ---------------------------------------------------------------------------
# Tokens


class Token(Record):
    kind: str  # keyword, punctuation symbol, "ident", "number", "eof"
    text: str
    start: int  # offsets of the text in the source, as in a `Span`
    end: int
    value: int | None = None  # set for number tokens


# White space and `--` comments are the unnamed alternatives; `bad` is any
# other character.  Classes are ASCII, so `λ` is illegal.
_TOKEN = re.compile(
    r"[ \t\r\n]+|--[^\n]*"
    r"|(?P<number>[0-9]+)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_']*)"
    r"|(?P<punct>:0(?![0-9])|->|[(){}\\.:*,;=_])"
    r"|(?P<bad>.)"
)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Split source text into tokens, ending with an `eof` token at the end
    of the input.  Raises LexError on an illegal character or a number
    literal too long to convert."""
    toks: list[Token] = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        text = m.group()
        start, end = m.span()
        if kind == "number":
            try:
                value = int(text)
            except ValueError:  # past Python's limit on int() of a string
                message = f"number literal too long ({len(text)} digits)"
                raise LexError(message, Source(source, filename).span(start, end)) from None
            toks.append(Token("number", text, start, end, value))
        elif kind == "bad":
            raise LexError(f"illegal character {text!r}", Source(source, filename).span(start, end))
        elif kind == "word" and text not in KEYWORDS:
            toks.append(Token("ident", text, start, end))
        else:
            toks.append(Token(text, text, start, end))
    toks.append(Token("eof", "", len(source), len(source)))
    return toks


# ---------------------------------------------------------------------------
# Surface AST.  A node's span runs from the start of its first token to the
# end of its last.  Spans never participate in equality: two parses of the
# same text are `==` even if whitespace differs.


class Surface(Record, uncompared=("span",), unshown=("span",)):
    span: Span


class SVar(Surface):
    name: str = ""


class SLam(Surface):
    name: str = ""
    mode: Mode | None = None
    ann: Surface | None = None
    icit: Icit = Icit.EXPL
    body: Surface | None = None


class SApp(Surface):
    fn: Surface | None = None
    arg: Surface | None = None
    icit: Icit = Icit.EXPL


class SPi(Surface):
    name: str = "_"
    mode: Mode = Mode.OMEGA
    icit: Icit = Icit.EXPL
    dom: Surface | None = None
    cod: Surface | None = None


class SSigma(Surface):
    name: str = "_"
    mode: Mode = Mode.OMEGA
    fst_ty: Surface | None = None
    snd_ty: Surface | None = None


class SPair(Surface):
    fst: Surface | None = None
    snd: Surface | None = None


class SFst(Surface):
    arg: Surface | None = None


class SSnd(Surface):
    arg: Surface | None = None


class SLet(Surface):
    name: str = ""
    ty: Surface | None = None
    defn: Surface | None = None
    body: Surface | None = None


class SConst(Surface):
    keyword: str = ""  # a key of `core.CONSTANTS`


class SNum(Surface):
    value: int = 0


class SSucc(Surface):
    arg: Surface | None = None


class SNatElim(Surface):
    motive: Surface | None = None
    zcase: Surface | None = None
    scase: Surface | None = None
    scrut: Surface | None = None


class SBoolElim(Surface):
    motive: Surface | None = None
    tcase: Surface | None = None
    fcase: Surface | None = None
    scrut: Surface | None = None


class SHole(Surface):
    pass


class Decl(Record, uncompared=("span",), unshown=("span",)):
    span: Span
    name: str = ""
    ty: Surface | None = None
    body: Surface | None = None


class Module(Record, uncompared=("source",), unshown=("source",)):
    source: Source  # locates the spans of the module's nodes
    decls: tuple[Decl, ...] = ()
    main: Surface | None = None


# ---------------------------------------------------------------------------
# Vocabulary.  An atom named by a keyword is `_`, a constant of `core.CONSTANTS`,
# or a prefix former whose arguments, each an atom, are its fields in order.

_PREFIXES: dict[str, type[Surface]] = {
    "succ": SSucc, "fst": SFst, "snd": SSnd, "natElim": SNatElim, "boolElim": SBoolElim,
}

KEYWORDS = frozenset({"let", "in", "main", "_", *CONSTANTS, *_PREFIXES})

_ATOM_STARTERS = frozenset({"ident", "number", "(", "_", *CONSTANTS, *_PREFIXES})


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token], source: Source):
        self.toks = tokens
        self.source = source
        self.pos = 0

    # Every token is checked before it is consumed, and only a whole term
    # consumes `eof`, so `pos` stays on the list without a bounds guard.
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, t: Token, expected: tuple[str, ...] = ()) -> ParseError:
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        return ParseError(message, self.source.span(t.start, t.end))

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise self.error(f"unexpected {describe(t)}", t, (kind,))
        return self.next()

    # -- module -------------------------------------------------------------

    def module(self) -> Module:
        decls: list[Decl] = []
        names: set[str] = set()
        main: Surface | None = None
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind == "main":
                self.next()
                self.expect("=")
                main = self.term()
                self.expect(";")
                trailing = self.peek()
                if trailing.kind != "eof":
                    message = f"unexpected {describe(trailing)} after main expression"
                    raise self.error(message, trailing, ("eof",))
                break
            if t.kind != "let":
                raise self.error(f"unexpected {describe(t)}", t, ("let", "main"))
            self.next()
            name = self.binder_name()
            self.expect(":")
            ty = self.term()
            self.expect("=")
            body = self.term()
            end = self.expect(";")
            if name.text in names:
                raise self.error(f"duplicate declaration {name.text!r}", name)
            names.add(name.text)
            decls.append(Decl((name.start, end.end), name.text, ty, body))
        return Module(self.source, tuple(decls), main)

    def binder_name(self) -> Token:
        t = self.peek()
        if t.kind in ("ident", "_"):
            return self.next()
        raise self.error(f"unexpected {describe(t)}", t, ("identifier",))

    # -- terms --------------------------------------------------------------

    def term(self) -> Surface:
        t = self.peek()
        if t.kind == "\\":
            return self.lam()
        if t.kind == "let":
            return self.let_in()
        return self.fun()

    def lam(self) -> Surface:
        start = self.expect("\\").start
        binders: list[tuple[Token, Mode | None, Surface | None, Icit]] = []
        while self.peek().kind != ".":
            binders.append(self.lam_binder())
        if not binders:
            raise self.error("lambda needs at least one binder", self.peek())
        self.expect(".")
        body = self.term()
        for name, mode, ann, icit in reversed(binders):
            body = SLam((start, body.span[1]), name.text, mode, ann, icit, body)
        return body

    def lam_binder(self) -> tuple[Token, Mode | None, Surface | None, Icit]:
        t = self.peek()
        if t.kind in ("ident", "_"):
            return self.next(), None, None, Icit.EXPL
        if t.kind in ("(", "{"):
            close = ")" if t.kind == "(" else "}"
            icit = Icit.EXPL if t.kind == "(" else Icit.IMPL
            self.next()
            name = self.binder_name()
            mode: Mode | None = None
            ann: Surface | None = None
            if self.peek().kind in (":", ":0"):
                mode = Mode.ZERO if self.next().kind == ":0" else Mode.OMEGA
                ann = self.term()
            elif icit is Icit.EXPL:
                message = "parenthesised lambda binder needs a type annotation"
                raise self.error(message, self.peek(), (":", ":0"))
            self.expect(close)
            return name, mode, ann, icit
        raise self.error(f"unexpected {describe(t)} in lambda binder", t, ("identifier", "(", "{"))

    def let_in(self) -> Surface:
        start = self.expect("let").start
        name = self.binder_name()
        self.expect(":")
        ty = self.term()
        self.expect("=")
        defn = self.term()
        self.expect("in")
        body = self.term()
        return SLet((start, body.span[1]), name.text, ty, defn, body)

    def binder_group_ahead(self) -> bool:
        # `( x :` / `( x :0` / `{ x :` ... opens a Pi or Sigma binder.
        toks, i = self.toks, self.pos
        if toks[i].kind not in ("(", "{") or toks[i + 1].kind not in ("ident", "_"):
            return False
        return toks[i + 2].kind in (":", ":0")

    def fun(self) -> Surface:
        if self.binder_group_ahead():
            return self.binder_form()
        lhs = self.sigma()
        if self.peek().kind == "->":
            self.next()
            cod = self.fun()
            return SPi((lhs.span[0], cod.span[1]), "_", Mode.OMEGA, Icit.EXPL, lhs, cod)
        return lhs

    def binder_form(self) -> Surface:
        opener = self.next()
        icit = Icit.EXPL if opener.kind == "(" else Icit.IMPL
        close = ")" if opener.kind == "(" else "}"
        name = self.binder_name()
        mode = Mode.ZERO if self.next().kind == ":0" else Mode.OMEGA
        dom = self.term()
        self.expect(close)
        t = self.peek()
        if t.kind == "->":
            self.next()
            cod = self.fun()
            return SPi((opener.start, cod.span[1]), name.text, mode, icit, dom, cod)
        if t.kind == "*" and icit is Icit.EXPL:
            self.next()
            snd = self.sigma_component()
            sig = SSigma((opener.start, snd.span[1]), name.text, mode, dom, snd)
            if self.peek().kind == "->":
                self.next()
                cod = self.fun()
                return SPi((opener.start, cod.span[1]), "_", Mode.OMEGA, Icit.EXPL, sig, cod)
            return sig
        expected = ("->",) if icit is Icit.IMPL else ("->", "*")
        raise self.error(f"unexpected {describe(t)} after binder", t, expected)

    def sigma(self) -> Surface:
        lhs = self.app()
        if self.peek().kind == "*":
            self.next()
            snd = self.sigma_component()
            return SSigma((lhs.span[0], snd.span[1]), "_", Mode.OMEGA, lhs, snd)
        return lhs

    def sigma_component(self) -> Surface:
        # The right operand of `*` may itself be a binder form, so that
        # `(k : Nat) * (w :0 Nat) * Nat` nests to the right.
        if self.binder_group_ahead():
            return self.binder_form()
        return self.sigma()

    def app(self) -> Surface:
        head = self.atom()
        # A binder group ends the application: it opens a Pi or Sigma type.
        while not self.binder_group_ahead():
            t = self.peek()
            if t.kind == "{":
                self.next()
                arg = self.term()
                end = self.expect("}")
                head = SApp((head.span[0], end.end), head, arg, Icit.IMPL)
            elif t.kind in _ATOM_STARTERS:
                arg = self.atom()
                head = SApp((head.span[0], arg.span[1]), head, arg, Icit.EXPL)
            else:
                break
        return head

    def atom(self) -> Surface:
        t = self.peek()
        if t.kind in CONSTANTS:
            self.next()
            return SConst((t.start, t.end), t.kind)
        if t.kind == "_":
            self.next()
            return SHole((t.start, t.end))
        if t.kind in _PREFIXES:
            self.next()
            cls = _PREFIXES[t.kind]
            arity = len(cls.__match_args__) - 1  # the fields after the span
            # A loop, not a comprehension: a comprehension's frame would
            # halve how deep `succ (…)` may nest.
            args: list[Surface] = []
            while len(args) < arity:
                args.append(self.atom())
            return cls((t.start, args[-1].span[1]), *args)
        if t.kind == "ident":
            self.next()
            return SVar((t.start, t.end), t.text)
        if t.kind == "number":
            self.next()
            assert t.value is not None
            return SNum((t.start, t.end), t.value)
        if t.kind == "(":
            self.next()
            inner = self.term()
            if self.peek().kind == ",":
                self.next()
                snd = self.term()
                end = self.expect(")")
                return SPair((t.start, end.end), inner, snd)
            self.expect(")")
            return inner
        raise self.error(f"unexpected {describe(t)}", t, ("term",))


def describe(t: Token) -> str:
    return "end of input" if t.kind == "eof" else f"{t.text!r}"


_T = TypeVar("_T")


def _parse(source: str, filename: str, start: Callable[[_Parser], _T]) -> _T:
    # The parser recurses at least once per nesting level, so the
    # recursion limit bounds how deep a term may nest: 16 664 `succ (…)`
    # levels under the limit of 100 000 that `tt0.cli.main` sets (Python
    # 3.11).  Deeper input is reported where the parser stood.
    p = _Parser(tokenize(source, filename), Source(source, filename))
    try:
        return start(p)
    except RecursionError:
        raise p.error("term nested too deeply", p.peek()) from None


def parse_module_text(source: str, filename: str = "<input>") -> Module:
    return _parse(source, filename, _Parser.module)


def parse_term_text(source: str, filename: str = "<input>") -> Surface:
    def whole_term(p: _Parser) -> Surface:
        t = p.term()
        p.expect("eof")
        return t

    return _parse(source, filename, whole_term)
