"""Surface syntax for `.tt0` files: lexer and parser.

Binders carry an erasure mode: `(x : A) -> B` is a runtime function,
`(x :0 A) -> B` an erased-domain one, `{x : A} -> B` / `{x :0 A} -> B` the
implicit variants, and `(x :0 A) * B` an erased-first-component pair type.

`tokenize` splits a source into parallel lists of token kinds, texts and
offset pairs, and the parser reads them by index.  Indexing or iterating
the sequence it returns builds `Token` records.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import Callable, TypeVar

from .core import CONSTANTS, EXPL, IMPL, OMEGA, ZERO, Icit, Mode  # Icit and Mode are re-exported
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


class Tokens(Sequence[Token]):
    """The tokens of a source, `eof` last: token `i` has kind `kinds[i]`,
    text `texts[i]` and offsets `spans[i]`; `values` maps the index of each
    number token to its value."""

    def __init__(self, kinds: list[str], texts: list[str], spans: list[Span], values: dict):
        self.kinds, self.texts, self.spans, self.values = kinds, texts, spans, values

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i):  # an index gives a Token, a slice a list of them
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        kind = self.kinds[i]
        return Token(kind, self.texts[i], *self.spans[i], self.values.get(i % len(self)))


# Each match is the white space and `--` comments before a token, then the
# token in the group for its kind: a number, a word (a keyword or an
# `ident`), a punctuation symbol, or `bad`, any other character.  The empty
# alternative at `\Z` is `eof`.  Classes are ASCII, so `λ` is illegal.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*)*)"
    r"(?:([0-9]+)|([A-Za-z][A-Za-z0-9_']*)|(:0(?![0-9])|->|[(){}\\.:*,;=_])|\Z|(.))"
)


def tokenize(source: str, filename: str = "<input>") -> Tokens:
    """Split source text into tokens, ending with an `eof` token at the end
    of the input.  Raises LexError on an illegal character or a number
    literal too long to convert."""
    kinds: list[str] = []
    texts: list[str] = []
    spans: list[Span] = []
    values: dict[int, int] = {}
    end = 0
    for space, number, word, punct, bad in _TOKEN.findall(source):
        start = end + len(space)
        if punct:
            kind = text = punct
        elif word:
            kind, text = word if word in KEYWORDS else "ident", word
        elif number:
            kind, text = "number", number
            try:
                values[len(kinds)] = int(number)
            except ValueError:  # past Python's limit on int() of a string
                message = f"number literal too long ({len(number)} digits)"
                span = Source(source, filename).span(start, start + len(number))
                raise LexError(message, span) from None
        elif bad:
            span = Source(source, filename).span(start, start + 1)
            raise LexError(f"illegal character {bad!r}", span)
        else:  # `\Z`, where findall may add an empty match
            break
        end = start + len(text)
        kinds.append(kind)
        texts.append(text)
        spans.append((start, end))
    kinds.append("eof")
    texts.append("")
    spans.append((len(source), len(source)))
    return Tokens(kinds, texts, spans, values)


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
    icit: Icit = EXPL
    body: Surface | None = None


class SApp(Surface):
    fn: Surface | None = None
    arg: Surface | None = None
    icit: Icit = EXPL


class SPi(Surface):
    name: str = "_"
    mode: Mode = OMEGA
    icit: Icit = EXPL
    dom: Surface | None = None
    cod: Surface | None = None


class SSigma(Surface):
    name: str = "_"
    mode: Mode = OMEGA
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
    def __init__(self, tokens: Tokens, source: Source):
        self.kinds, self.texts, self.spans = tokens.kinds, tokens.texts, tokens.spans
        self.values = tokens.values
        self.source = source
        self.pos = 0  # the index of the next token

    # Every token is checked before it is consumed, and only a whole term
    # consumes `eof`, so `pos` stays on the lists without a bounds guard.
    def error(self, message: str, i: int, expected: tuple[str, ...] = ()) -> ParseError:
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        return ParseError(message, self.source.span(*self.spans[i]))

    def unexpected(self, i: int, expected: tuple[str, ...], where: str = "") -> ParseError:
        what = "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])
        return self.error(f"unexpected {what}{where}", i, expected)

    def expect(self, kind: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.unexpected(i, (kind,))
        self.pos = i + 1
        return i

    # -- module -------------------------------------------------------------

    def module(self) -> Module:
        kinds, texts, spans = self.kinds, self.texts, self.spans
        decls: list[Decl] = []
        names: set[str] = set()
        main: Surface | None = None
        while kinds[self.pos] != "eof":
            kind = kinds[self.pos]
            if kind == "main":
                self.pos += 1
                self.expect("=")
                main = self.term()
                self.expect(";")
                if kinds[self.pos] != "eof":
                    raise self.unexpected(self.pos, ("eof",), " after main expression")
                break
            if kind != "let":
                raise self.unexpected(self.pos, ("let", "main"))
            self.pos += 1
            name = self.binder_name()
            self.expect(":")
            ty = self.term()
            self.expect("=")
            body = self.term()
            end = self.expect(";")
            if texts[name] in names:
                raise self.error(f"duplicate declaration {texts[name]!r}", name)
            names.add(texts[name])
            decls.append(Decl((spans[name][0], spans[end][1]), texts[name], ty, body))
        return Module(self.source, tuple(decls), main)

    def binder_name(self) -> int:
        i = self.pos
        if self.kinds[i] not in ("ident", "_"):
            raise self.unexpected(i, ("identifier",))
        self.pos = i + 1
        return i

    # -- terms --------------------------------------------------------------

    def term(self) -> Surface:
        kind = self.kinds[self.pos]
        if kind == "\\":
            return self.lam()
        if kind == "let":
            return self.let_in()
        return self.fun()

    def lam(self) -> Surface:
        start = self.spans[self.expect("\\")][0]
        binders: list[tuple[str, Mode | None, Surface | None, Icit]] = []
        while self.kinds[self.pos] != ".":
            binders.append(self.lam_binder())
        if not binders:
            raise self.error("lambda needs at least one binder", self.pos)
        self.pos += 1
        body = self.term()
        for name, mode, ann, icit in reversed(binders):
            body = SLam((start, body.span[1]), name, mode, ann, icit, body)
        return body

    def lam_binder(self) -> tuple[str, Mode | None, Surface | None, Icit]:
        i = self.pos
        kind = self.kinds[i]
        if kind in ("ident", "_"):
            self.pos = i + 1
            return self.texts[i], None, None, EXPL
        if kind in ("(", "{"):
            close = ")" if kind == "(" else "}"
            icit = EXPL if kind == "(" else IMPL
            self.pos = i + 1
            name = self.texts[self.binder_name()]
            mode: Mode | None = None
            ann: Surface | None = None
            kind = self.kinds[self.pos]
            if kind in (":", ":0"):
                self.pos += 1
                mode = ZERO if kind == ":0" else OMEGA
                ann = self.term()
            elif icit is EXPL:
                message = "parenthesised lambda binder needs a type annotation"
                raise self.error(message, self.pos, (":", ":0"))
            self.expect(close)
            return name, mode, ann, icit
        raise self.unexpected(i, ("identifier", "(", "{"), " in lambda binder")

    def let_in(self) -> Surface:
        start = self.spans[self.expect("let")][0]
        name = self.texts[self.binder_name()]
        self.expect(":")
        ty = self.term()
        self.expect("=")
        defn = self.term()
        self.expect("in")
        body = self.term()
        return SLet((start, body.span[1]), name, ty, defn, body)

    def binder_group_ahead(self) -> bool:
        # `( x :` / `( x :0` / `{ x :` ... opens a Pi or Sigma binder.
        kinds, i = self.kinds, self.pos
        if kinds[i] not in ("(", "{") or kinds[i + 1] not in ("ident", "_"):
            return False
        return kinds[i + 2] in (":", ":0")

    def fun(self) -> Surface:
        if self.binder_group_ahead():
            return self.binder_form()
        lhs = self.sigma()
        if self.kinds[self.pos] == "->":
            self.pos += 1
            cod = self.fun()
            return SPi((lhs.span[0], cod.span[1]), "_", OMEGA, EXPL, lhs, cod)
        return lhs

    def binder_form(self) -> Surface:
        # The opener, the name and the colon, as `binder_group_ahead` found.
        i = self.pos
        start = self.spans[i][0]
        icit = EXPL if self.kinds[i] == "(" else IMPL
        close = ")" if icit is EXPL else "}"
        name = self.texts[i + 1]
        mode = ZERO if self.kinds[i + 2] == ":0" else OMEGA
        self.pos = i + 3
        dom = self.term()
        self.expect(close)
        kind = self.kinds[self.pos]
        if kind == "->":
            self.pos += 1
            cod = self.fun()
            return SPi((start, cod.span[1]), name, mode, icit, dom, cod)
        if kind == "*" and icit is EXPL:
            self.pos += 1
            snd = self.sigma_component()
            sig = SSigma((start, snd.span[1]), name, mode, dom, snd)
            if self.kinds[self.pos] == "->":
                self.pos += 1
                cod = self.fun()
                return SPi((start, cod.span[1]), "_", OMEGA, EXPL, sig, cod)
            return sig
        expected = ("->",) if icit is IMPL else ("->", "*")
        raise self.unexpected(self.pos, expected, " after binder")

    def sigma(self) -> Surface:
        lhs = self.app()
        if self.kinds[self.pos] == "*":
            self.pos += 1
            snd = self.sigma_component()
            return SSigma((lhs.span[0], snd.span[1]), "_", OMEGA, lhs, snd)
        return lhs

    def sigma_component(self) -> Surface:
        # The right operand of `*` may itself be a binder form, so that
        # `(k : Nat) * (w :0 Nat) * Nat` nests to the right.
        if self.binder_group_ahead():
            return self.binder_form()
        return self.sigma()

    def app(self) -> Surface:
        kinds = self.kinds
        head = self.atom()
        # A binder group ends the application: it opens a Pi or Sigma type.
        while not self.binder_group_ahead():
            kind = kinds[self.pos]
            if kind == "{":
                self.pos += 1
                arg = self.term()
                end = self.spans[self.expect("}")][1]
                head = SApp((head.span[0], end), head, arg, IMPL)
            elif kind in _ATOM_STARTERS:
                arg = self.atom()
                head = SApp((head.span[0], arg.span[1]), head, arg, EXPL)
            else:
                break
        return head

    def atom(self) -> Surface:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ident":
            self.pos = i + 1
            return SVar(self.spans[i], self.texts[i])
        if kind in CONSTANTS:
            self.pos = i + 1
            return SConst(self.spans[i], kind)
        if kind == "_":
            self.pos = i + 1
            return SHole(self.spans[i])
        if kind in _PREFIXES:
            self.pos = i + 1
            cls = _PREFIXES[kind]
            arity = len(cls.__match_args__) - 1  # the fields after the span
            # A loop, not a comprehension: a comprehension's frame would
            # halve how deep `succ (…)` may nest.
            args: list[Surface] = []
            while len(args) < arity:
                args.append(self.atom())
            return cls((self.spans[i][0], args[-1].span[1]), *args)
        if kind == "number":
            self.pos = i + 1
            return SNum(self.spans[i], self.values[i])
        if kind == "(":
            self.pos = i + 1
            inner = self.term()
            if self.kinds[self.pos] == ",":
                self.pos += 1
                snd = self.term()
                end = self.spans[self.expect(")")][1]
                return SPair((self.spans[i][0], end), inner, snd)
            self.expect(")")
            return inner
        raise self.unexpected(i, ("term",))


_T = TypeVar("_T")


def _parse(source: str, filename: str, start: Callable[[_Parser], _T]) -> _T:
    # The parser takes six frames per `succ (…)` level and five per pair of
    # parentheses, so the recursion limit bounds how deep a term may nest:
    # 164 and 197 levels at the default limit of 1 000, 16 664 and 19 997
    # under the limit of 100 000 that `tt0.cli.main` sets (Python 3.11).
    # Deeper input is reported where the parser stood.
    p = _Parser(tokenize(source, filename), Source(source, filename))
    try:
        return start(p)
    except RecursionError:
        raise p.error("term nested too deeply", p.pos) from None


def parse_module_text(source: str, filename: str = "<input>") -> Module:
    return _parse(source, filename, _Parser.module)


def parse_term_text(source: str, filename: str = "<input>") -> Surface:
    def whole_term(p: _Parser) -> Surface:
        t = p.term()
        p.expect("eof")
        return t

    return _parse(source, filename, whole_term)
