"""Surface syntax for `.tt0` files: lexer, parser and printer.

Binders carry an erasure mode: `(x : A) -> B` is a runtime function,
`(x :0 A) -> B` an erased-domain one, `{x : A} -> B` / `{x :0 A} -> B` the
implicit variants, and `(x :0 A) * B` an erased-first-component pair type.
"""

from __future__ import annotations

import re
from typing import Callable, TypeVar

from .core import CONSTANTS, Icit, Mode, _wrap  # Icit and Mode are re-exported
from .diagnostics import LexError, ParseError, SourceSpan
from .record import Record


# ---------------------------------------------------------------------------
# Tokens


class Token(Record):
    kind: str  # keyword, punctuation symbol, "ident", "number", "eof"
    text: str
    span: SourceSpan
    value: int | None = None  # set for number tokens


# White space and `--` comments are the unnamed alternatives; `bad` is any
# other character.  Classes are ASCII, so `λ` is illegal.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|--[^\n]*"
    r"|(?P<number>[0-9]+)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_']*)"
    r"|(?P<punct>:0(?![0-9])|->|[(){}\\.:*,;=_])"
    r"|(?P<bad>.)"
)


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Split source text into tokens, ending with an `eof` token at the end
    of the input.  Lines and columns count from 1; a tab or a carriage return
    is one column.  Raises LexError on an illegal character or a number
    literal too long to convert."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        where = SourceSpan(filename, line, col, line, col + len(text) - 1)
        if kind == "number":
            try:
                value = int(text)
            except ValueError:  # past Python's limit on int() of a string
                message = f"number literal too long ({len(text)} digits)"
                raise LexError(message, where) from None
            toks.append(Token("number", text, where, value))
        elif kind == "bad":
            raise LexError(f"illegal character {text!r}", where)
        elif kind == "word" and text not in KEYWORDS:
            toks.append(Token("ident", text, where))
        else:
            toks.append(Token(text, text, where))
    col = len(source) - line_start + 1
    toks.append(Token("eof", "", SourceSpan(filename, line, col, line, col)))
    return toks


# ---------------------------------------------------------------------------
# Surface AST.  Spans never participate in equality: two parses of the same
# text are `==` even if whitespace differs.


class Surface(Record, uncompared=("span",), unshown=("span",)):
    span: SourceSpan


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
    span: SourceSpan
    name: str = ""
    ty: Surface | None = None
    body: Surface | None = None


class Module(Record, uncompared=("span",), unshown=("span",)):
    span: SourceSpan
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
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {describe(t)}", t.span, expected=(kind,))
        return self.next()

    # -- module -------------------------------------------------------------

    def module(self) -> Module:
        start = self.peek().span
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
                    raise ParseError(
                        f"unexpected {describe(trailing)} after main expression",
                        trailing.span,
                        expected=("eof",),
                    )
                break
            if t.kind != "let":
                raise ParseError(
                    f"unexpected {describe(t)}", t.span, expected=("let", "main")
                )
            self.next()
            name = self.binder_name()
            self.expect(":")
            ty = self.term()
            self.expect("=")
            body = self.term()
            end = self.expect(";")
            if name.text in names:
                raise ParseError(f"duplicate declaration {name.text!r}", name.span)
            names.add(name.text)
            decls.append(
                Decl(name.span.merge(end.span), name.text, ty, body)
            )
        end_span = self.peek().span
        return Module(start.merge(end_span), tuple(decls), main)

    def binder_name(self) -> Token:
        t = self.peek()
        if t.kind in ("ident", "_"):
            return self.next()
        raise ParseError(f"unexpected {describe(t)}", t.span, expected=("identifier",))

    # -- terms --------------------------------------------------------------

    def term(self) -> Surface:
        t = self.peek()
        if t.kind == "\\":
            return self.lam()
        if t.kind == "let":
            return self.let_in()
        return self.fun()

    def lam(self) -> Surface:
        start = self.expect("\\").span
        binders: list[tuple[Token, Mode | None, Surface | None, Icit]] = []
        while self.peek().kind != ".":
            binders.append(self.lam_binder())
        if not binders:
            raise ParseError("lambda needs at least one binder", self.peek().span)
        self.expect(".")
        body = self.term()
        for name, mode, ann, icit in reversed(binders):
            body = SLam(start.merge(body.span), name.text, mode, ann, icit, body)
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
                raise ParseError(
                    "parenthesised lambda binder needs a type annotation",
                    self.peek().span,
                    expected=(":", ":0"),
                )
            self.expect(close)
            return name, mode, ann, icit
        raise ParseError(
            f"unexpected {describe(t)} in lambda binder",
            t.span,
            expected=("identifier", "(", "{"),
        )

    def let_in(self) -> Surface:
        start = self.expect("let").span
        name = self.binder_name()
        self.expect(":")
        ty = self.term()
        self.expect("=")
        defn = self.term()
        self.expect("in")
        body = self.term()
        return SLet(start.merge(body.span), name.text, ty, defn, body)

    def binder_group_ahead(self) -> bool:
        # `( x :` / `( x :0` / `{ x :` ... opens a Pi or Sigma binder.
        return self.peek().kind in ("(", "{") and self.peek(1).kind in (
            "ident",
            "_",
        ) and self.peek(2).kind in (":", ":0")

    def fun(self) -> Surface:
        if self.binder_group_ahead():
            return self.binder_form()
        lhs = self.sigma()
        if self.peek().kind == "->":
            self.next()
            cod = self.fun()
            return SPi(lhs.span.merge(cod.span), "_", Mode.OMEGA, Icit.EXPL, lhs, cod)
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
            return SPi(opener.span.merge(cod.span), name.text, mode, icit, dom, cod)
        if t.kind == "*" and icit is Icit.EXPL:
            self.next()
            snd = self.sigma_component()
            sig = SSigma(opener.span.merge(snd.span), name.text, mode, dom, snd)
            if self.peek().kind == "->":
                self.next()
                cod = self.fun()
                return SPi(sig.span.merge(cod.span), "_", Mode.OMEGA, Icit.EXPL, sig, cod)
            return sig
        raise ParseError(
            f"unexpected {describe(t)} after binder",
            t.span,
            expected=("->",) if icit is Icit.IMPL else ("->", "*"),
        )

    def sigma(self) -> Surface:
        lhs = self.app()
        if self.peek().kind == "*":
            self.next()
            snd = self.sigma_component()
            return SSigma(lhs.span.merge(snd.span), "_", Mode.OMEGA, lhs, snd)
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
                head = SApp(head.span.merge(end.span), head, arg, Icit.IMPL)
            elif t.kind in _ATOM_STARTERS:
                arg = self.atom()
                head = SApp(head.span.merge(arg.span), head, arg, Icit.EXPL)
            else:
                break
        return head

    def atom(self) -> Surface:
        t = self.peek()
        if t.kind in CONSTANTS:
            self.next()
            return SConst(t.span, t.kind)
        if t.kind == "_":
            self.next()
            return SHole(t.span)
        if t.kind in _PREFIXES:
            self.next()
            cls = _PREFIXES[t.kind]
            arity = len(cls.__match_args__) - 1  # the fields after the span
            # A loop, not a comprehension: a comprehension's frame would
            # halve how deep `succ (…)` may nest.
            args: list[Surface] = []
            while len(args) < arity:
                args.append(self.atom())
            return cls(t.span.merge(args[-1].span), *args)
        if t.kind == "ident":
            self.next()
            return SVar(t.span, t.text)
        if t.kind == "number":
            self.next()
            assert t.value is not None
            return SNum(t.span, t.value)
        if t.kind == "(":
            self.next()
            inner = self.term()
            if self.peek().kind == ",":
                self.next()
                snd = self.term()
                end = self.expect(")")
                return SPair(t.span.merge(end.span), inner, snd)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {describe(t)}", t.span, expected=("term",))


def describe(t: Token) -> str:
    return "end of input" if t.kind == "eof" else f"{t.text!r}"


_T = TypeVar("_T")


def _parse(tokens: list[Token], start: Callable[[_Parser], _T]) -> _T:
    # The parser recurses at least once per nesting level, so the
    # recursion limit bounds how deep a term may nest: about 16 000
    # `succ (…)` levels under the limit of 100 000 that `tt0.cli.main`
    # sets.  Deeper input is reported where the parser stood.
    p = _Parser(tokens)
    try:
        return start(p)
    except RecursionError:
        raise ParseError("term nested too deeply", p.peek().span) from None


def parse_module(tokens: list[Token]) -> Module:
    return _parse(tokens, _Parser.module)


def parse_module_text(source: str, filename: str = "<input>") -> Module:
    return parse_module(tokenize(source, filename))


def parse_term_text(source: str, filename: str = "<input>") -> Surface:
    def whole_term(p: _Parser) -> Surface:
        t = p.term()
        p.expect("eof")
        return t

    return _parse(tokenize(source, filename), whole_term)


# ---------------------------------------------------------------------------
# Printer.  Printing a module and re-parsing it yields an equal Module.


_PREFIX_NAMES = {cls: keyword for keyword, cls in _PREFIXES.items()}


def _binder(x: str, mode: Mode | None, ty: Surface, icit: Icit = Icit.EXPL) -> str:
    text = f"{x} {':0' if mode is Mode.ZERO else ':'} {pp_term(ty, 0)}"
    return f"{{{text}}}" if icit is Icit.IMPL else f"({text})"


def pp_term(t: Surface, prec: int = 0) -> str:
    # prec levels: 0 term (lambda/let/pi), 1 sigma, 2 application, 3 atom
    cls = type(t)
    if cls in _PREFIX_NAMES:
        parts = [_PREFIX_NAMES[cls]]
        for f in cls.__match_args__[1:]:
            parts.append(pp_term(getattr(t, f), 3))
        return _wrap(" ".join(parts), prec, 2)
    match t:
        case SConst(keyword=kw):
            return kw
        case SHole():
            return "_"
        case SVar(name=x):
            return x
        case SNum(value=v):
            return str(v)
        case SApp(fn=f, arg=a, icit=icit):
            if icit is Icit.IMPL:
                return _wrap(f"{pp_term(f, 2)} {{{pp_term(a, 0)}}}", prec, 2)
            return _wrap(f"{pp_term(f, 2)} {pp_term(a, 3)}", prec, 2)
        case SPair(fst=a, snd=b):
            return f"({pp_term(a, 0)}, {pp_term(b, 0)})"
        case SLam(name=x, mode=mode, ann=ann, icit=icit, body=b):
            if ann is not None:
                binder = _binder(x, mode, ann, icit)
            elif icit is Icit.IMPL:
                binder = f"{{{x}}}"
            else:
                binder = x
            return _wrap(f"\\{binder}. {pp_term(b, 0)}", prec, 0)
        case SLet(name=x, ty=ty, defn=d, body=b):
            return _wrap(
                f"let {x} : {pp_term(ty, 0)} = {pp_term(d, 0)} in {pp_term(b, 0)}",
                prec,
                0,
            )
        case SPi(name=x, mode=mode, icit=icit, dom=dom, cod=cod):
            # The parser reads a codomain as a function type, so a lambda or
            # a let there needs parentheses.
            cod_s = pp_term(cod, 1 if isinstance(cod, (SLam, SLet)) else 0)
            if icit is Icit.EXPL and x == "_" and mode is Mode.OMEGA:
                return _wrap(f"{pp_term(dom, 1)} -> {cod_s}", prec, 0)
            return _wrap(f"{_binder(x, mode, dom, icit)} -> {cod_s}", prec, 0)
        case SSigma(name=x, mode=mode, fst_ty=a, snd_ty=b):
            if x == "_" and mode is Mode.OMEGA:
                return _wrap(f"{pp_term(a, 2)} * {pp_term(b, 1)}", prec, 1)
            return _wrap(f"{_binder(x, mode, a)} * {pp_term(b, 1)}", prec, 1)
    raise AssertionError(f"unhandled surface node {t!r}")


def pp_module(m: Module) -> str:
    lines = [
        f"let {d.name} : {pp_term(d.ty, 0)} = {pp_term(d.body, 0)};" for d in m.decls
    ]
    if m.main is not None:
        lines.append(f"main = {pp_term(m.main, 0)};")
    return "\n".join(lines) + "\n"
