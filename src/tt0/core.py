"""Core calculus: mode-annotated terms, NbE values, conversion, kernel.

Terms use de Bruijn indices, values use de Bruijn levels.  A former with no
subterms (U, Nat, Bool, a literal, true, false) is a `Constant`: one class
that is both a term and its own value.  The table `CONSTANTS` names each
base constant once, with its keyword, its type and whether it is a type
code; the parser, printers, elaborator, kernel and unifier all read it.
The table `ELIMINATORS` states the typing rule of `natElim` and `boolElim`
once, for the elaborator and the kernel.  Eliminations (App/Pair/Fst/Snd)
record the mode of the Pi/Sigma they interact with; the extraction pass
consumes those annotations.

The erasure marker is represented by one boolean flag on the context: a
judgment checked with the flag set is an erased judgment, and erased
resources (mode-0 variables, type codes, erased projections) are usable
exactly when the flag is set.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable

from .diagnostics import InternalError, KernelError
from .record import Record

if TYPE_CHECKING:
    from .unify import MetaStore


class Mode(enum.Enum):
    """Erasure mode of a binder or argument: erased (0) or runtime (omega)."""

    ZERO = "0"
    OMEGA = "w"

    def __str__(self) -> str:
        return "0" if self is ZERO else "ω"


class Icit(enum.Enum):
    EXPL = "explicit"
    IMPL = "implicit"


# The members as plain names: a global reads faster than an enum attribute.
ZERO, OMEGA = Mode.ZERO, Mode.OMEGA
EXPL, IMPL = Icit.EXPL, Icit.IMPL


# ---------------------------------------------------------------------------
# Terms


class Term(Record):
    pass


class Value(Record):
    pass


class Constant(Term, Value):
    """A former without subterms: it evaluates and reads back to itself."""


class Var(Term):
    ix: int


class Lam(Term, uncompared=("name",)):
    name: str
    mode: Mode
    icit: Icit
    body: Term


class App(Term):
    mode: Mode
    icit: Icit
    fn: Term
    arg: Term


class Pi(Term, uncompared=("name",)):
    name: str
    mode: Mode
    icit: Icit
    dom: Term
    cod: Term


class Sigma(Term, uncompared=("name",)):
    name: str
    mode: Mode
    fst_ty: Term
    snd_ty: Term


class Pair(Term):
    mode: Mode
    fst: Term
    snd: Term


class Fst(Term):
    mode: Mode
    pair: Term


class Snd(Term):
    mode: Mode
    pair: Term


class Univ(Constant):
    pass


class NatTy(Constant):
    pass


class Lit(Constant):
    """The numeral n, held as an integer; `Lit(0)` is zero."""

    n: int


class Succ(Term):
    """The successor of a term that is not a literal (see `succ`)."""

    arg: Term


def succ(t: Term, k: int = 1) -> Term:
    """The `k`-th successor of a term, folded when the term is a literal."""
    if type(t) is Lit:
        return Lit(t.n + k)
    for _ in range(k):
        t = Succ(t)
    return t


class NatElim(Term):
    motive: Term
    zcase: Term
    scase: Term
    scrut: Term


class BoolTy(Constant):
    pass


class TrueTm(Constant):
    pass


class FalseTm(Constant):
    pass


class BoolElim(Term):
    motive: Term
    tcase: Term
    fcase: Term
    scrut: Term


# The base constants by keyword: each constant, its type, and the name it
# goes by as a type code (None for a runtime constant).
CONSTANTS: dict[str, tuple[Constant, Constant, str | None]] = {
    "U": (Univ(), Univ(), "the universe"),
    "Nat": (NatTy(), Univ(), "the Nat type"),
    "Bool": (BoolTy(), Univ(), "the Bool type"),
    "zero": (Lit(0), NatTy(), None),
    "true": (TrueTm(), BoolTy(), None),
    "false": (FalseTm(), BoolTy(), None),
}

# The same rows by class, with the keyword in place of the constant.  `Lit`
# gets the row of `zero`, whose type every literal shares.
_CONSTANT_ROWS = {type(c): (kw, ty, code) for kw, (c, ty, code) in CONSTANTS.items()}


class Let(Term, uncompared=("name",)):
    name: str
    ty: Term
    defn: Term
    body: Term


class Meta(Term):
    """A metavariable applied to the bound entries it captured.

    mask[i] is the mode of the meta's i-th captured entry, None for a
    captured `let`; the mask covers the last len(mask) entries of the
    context where the meta occurs.  An empty mask is a bare occurrence: the
    solution closed over the signature.
    """

    mid: int
    mask: tuple[Mode | None, ...] = ()


def map_subterms(t: Term, f: Callable[[Term, int], Term], depth: int = 0) -> Term:
    """Rebuild `t` with `f(child, depth + k)` in place of each immediate
    subterm, where `k` is the number of binders `t` puts around that child;
    `t` itself when every child comes back as it was (`is`)."""
    tt = type(t)
    if tt is App:
        g, a = f(t.fn, depth), f(t.arg, depth)
        return t if g is t.fn and a is t.arg else App(t.mode, t.icit, g, a)
    if tt is Var or tt in _CONSTANT_ROWS or tt is Meta:
        return t
    if tt is Lam:
        b = f(t.body, depth + 1)
        return t if b is t.body else Lam(t.name, t.mode, t.icit, b)
    if tt is Pi:
        a, b = f(t.dom, depth), f(t.cod, depth + 1)
        return t if a is t.dom and b is t.cod else Pi(t.name, t.mode, t.icit, a, b)
    if tt is Sigma:
        a, b = f(t.fst_ty, depth), f(t.snd_ty, depth + 1)
        return t if a is t.fst_ty and b is t.snd_ty else Sigma(t.name, t.mode, a, b)
    if tt is Pair:
        a, b = f(t.fst, depth), f(t.snd, depth)
        return t if a is t.fst and b is t.snd else Pair(t.mode, a, b)
    if tt is Fst or tt is Snd:
        a = f(t.pair, depth)
        return t if a is t.pair else tt(t.mode, a)
    if tt is Succ:
        a = f(t.arg, depth)
        return t if a is t.arg else succ(a)
    if tt is Let:
        a, b, c = f(t.ty, depth), f(t.defn, depth), f(t.body, depth + 1)
        return t if a is t.ty and b is t.defn and c is t.body else Let(t.name, a, b, c)
    # NatElim and BoolElim: four subterms, none under a binder
    old = [getattr(t, k) for k in tt.__match_args__]
    new = [f(u, depth) for u in old]
    return t if all(x is y for x, y in zip(new, old)) else tt(*new)


# ---------------------------------------------------------------------------
# Values


Env = tuple["Value | Thunk", ...]


class Thunk:
    """A term delayed in its environment until forced, then its value.

    Only environments hold thunks, and `evaluate` forces one where a
    variable reads it, so `quote`, `conv`, `unify` and the kernel never
    meet one.  A definition's thunk links to the thunk directly below it in
    its environment (see `definition`).  Forcing follows those links down
    to the oldest unforced thunk and evaluates the pending thunks oldest
    first, in a loop, so a chain of definitions is forced without one
    Python call per link.
    """

    __slots__ = ("env", "term", "below", "value")

    def __init__(self, env: Env, term: Term, below: Thunk | None = None):
        self.env, self.term, self.below = env, term, below
        self.value: Value | None = None

    def force(self) -> Value:
        if self.value is None:
            pending = []
            th = self
            while th is not None and th.value is None:
                pending.append(th)
                th = th.below
            for th in reversed(pending):
                th.value = evaluate(th.env, th.term)
                th.env = th.term = th.below = None
        return self.value


def definition(env: Env, term: Term) -> Thunk:
    """The delayed value of a definition: `term` in `env`, linked to the
    entry directly below it when that entry is a thunk."""
    below = env[-1] if env and type(env[-1]) is Thunk else None
    return Thunk(env, term, below)


def entry_value(entry: Value | Thunk) -> Value:
    """The value of an environment entry, forced if it is a thunk."""
    return entry.force() if type(entry) is Thunk else entry


class Closure(Record):
    env: Env
    body: Term

    def apply(self, arg: Value | Thunk) -> Value:
        return evaluate(self.env + (arg,), self.body)


class VLam(Value, uncompared=("name",)):
    name: str
    mode: Mode
    icit: Icit
    clos: Closure


class VPi(Value, uncompared=("name",)):
    name: str
    mode: Mode
    icit: Icit
    dom: Value
    cod: Closure


class VSigma(Value, uncompared=("name",)):
    name: str
    mode: Mode
    fst_ty: Value
    snd_ty: Closure


class VPair(Value):
    mode: Mode
    fst: Value
    snd: Value


class VSucc(Value):
    """The successor of a value that is not a literal (see `vsucc`)."""

    arg: Value


# The classes of natural-number values other than neutrals.
_NATS = (VSucc, Lit)


def vsucc(v: Value) -> Value:
    return Lit(v.n + 1) if type(v) is Lit else VSucc(v)


def vpred(v: Value) -> Value | None:
    """The predecessor of a successor value; None for zero and neutrals."""
    if type(v) is VSucc:
        return v.arg
    return Lit(v.n - 1) if type(v) is Lit and v.n > 0 else None


def strip_succs(store: "MetaStore | None", a: Value, b: Value) -> tuple[Value, Value] | None:
    """`a` and `b` past the successors they share, each step forced when a
    store is given; None when they share none.  It stops at identical values
    and at two literals, which compare at once.  One loop: the length of a
    chain costs no stack."""
    rest = None
    while (x := vpred(a)) is not None and (y := vpred(b)) is not None:
        a, b = rest = (x, y) if store is None else (force(store, x), force(store, y))
        if a is b or VSucc not in (type(a), type(b)):
            break
    return rest


class VarH(Record):
    lvl: int


class MetaH(Record):
    mid: int


class SApp(Record):
    mode: Mode
    icit: Icit
    arg: Value


class SFst(Record):
    mode: Mode


class SSnd(Record):
    mode: Mode


class SNatElim(Record):
    motive: Value
    zcase: Value
    scase: Value


class SBoolElim(Record):
    motive: Value
    tcase: Value
    fcase: Value


SpineItem = SApp | SFst | SSnd | SNatElim | SBoolElim


class VNeutral(Value):
    head: VarH | MetaH
    spine: tuple[SpineItem, ...] = ()


# The neutral of each level, shared: values are immutable.
_VARS: list[VNeutral] = []


def vvar(lvl: int) -> VNeutral:
    try:
        return _VARS[lvl]
    except IndexError:
        _VARS.extend(VNeutral(VarH(k)) for k in range(len(_VARS), lvl + 1))
        return _VARS[lvl]


# ---------------------------------------------------------------------------
# Evaluation.  Pure in the meta store: unsolved and solved metas alike
# evaluate to flexible neutrals; `force` consults the store.  Call-by-need
# for definitions: a `let` binds a thunk of its value.  Here and below a
# walker branches on the exact class of a node (`type(t) is C`: no node
# class has subclasses but `Constant`, whose leaves are the keys of
# `_CONSTANT_ROWS`), its most frequent classes first, and reads the fields
# it needs as attributes.  An application whose head evaluates to a lambda
# is a β-step done in place.


def evaluate(env: Env, t: Term) -> Value:
    tt = type(t)
    if tt is Var:
        v = env[len(env) - 1 - t.ix]
        return v.force() if type(v) is Thunk else v
    if tt is App:
        fn, arg = evaluate(env, t.fn), evaluate(env, t.arg)
        if type(fn) is VLam:  # β
            return evaluate(fn.clos.env + (arg,), fn.clos.body)
        return vapp(fn, t.mode, t.icit, arg)
    if tt is Lam:
        return VLam(t.name, t.mode, t.icit, Closure(env, t.body))
    if tt in _CONSTANT_ROWS:
        return t
    if tt is Pi:
        return VPi(t.name, t.mode, t.icit, evaluate(env, t.dom), Closure(env, t.cod))
    if tt is Meta:  # applied to the captured binders
        mask = t.mask
        args = enumerate(mask, len(env) - len(mask))
        spine = tuple(SApp(m, EXPL, entry_value(env[i])) for i, m in args if m is not None)
        return VNeutral(MetaH(t.mid), spine)
    if tt is Let:
        return evaluate(env + (definition(env, t.defn),), t.body)
    if tt is Succ:
        return vsucc(evaluate(env, t.arg))
    if tt is Sigma:
        return VSigma(t.name, t.mode, evaluate(env, t.fst_ty), Closure(env, t.snd_ty))
    if tt is Pair:
        return VPair(t.mode, evaluate(env, t.fst), evaluate(env, t.snd))
    if tt is Fst or tt is Snd:
        return (vfst if tt is Fst else vsnd)(t.mode, evaluate(env, t.pair))
    if tt is NatElim or tt is BoolElim:
        args = [evaluate(env, getattr(t, k)) for k in tt.__match_args__]
        return (vnatelim if tt is NatElim else vboolelim)(*args)
    raise AssertionError(f"unhandled term {t!r}")


def vapp(fn: Value, mode: Mode, icit: Icit, arg: Value) -> Value:
    if type(fn) is VLam:
        return evaluate(fn.clos.env + (arg,), fn.clos.body)
    if type(fn) is VNeutral:
        return VNeutral(fn.head, fn.spine + (SApp(mode, icit, arg),))
    raise InternalError(f"applying a non-function value {fn!r}")


def vfst(mode: Mode, v: Value) -> Value:
    if type(v) is VPair:
        return v.fst
    if type(v) is VNeutral:
        return VNeutral(v.head, v.spine + (SFst(mode),))
    raise InternalError(f"first projection of a non-pair value {v!r}")


def vsnd(mode: Mode, v: Value) -> Value:
    if type(v) is VPair:
        return v.snd
    if type(v) is VNeutral:
        return VNeutral(v.head, v.spine + (SSnd(mode),))
    raise InternalError(f"second projection of a non-pair value {v!r}")


def vnatelim(motive: Value, zcase: Value, scase: Value, scrut: Value) -> Value:
    # The scrutinee is successors of a base, and a literal k is k successors
    # of zero: the step case applies from the base upwards, in one loop.
    chain: list[Value] = []  # the predecessor under each successor, outermost first
    while type(scrut) is VSucc:
        chain.append(scrut.arg)
        scrut = scrut.arg
    if type(scrut) is Lit:
        ih, below = zcase, map(Lit, range(scrut.n))
    elif type(scrut) is VNeutral:
        ih, below = VNeutral(scrut.head, scrut.spine + (SNatElim(motive, zcase, scase),)), ()
    else:
        raise InternalError(f"natural-number elimination of {scrut!r}")
    for pred in itertools.chain(below, reversed(chain)):
        ih = _nat_step(scase, pred, ih)
    return ih


def _nat_step(scase: Value, pred: Value, ih: Value) -> Value:
    return vapp(vapp(scase, OMEGA, EXPL, pred), OMEGA, EXPL, ih)


def vboolelim(motive: Value, tcase: Value, fcase: Value, scrut: Value) -> Value:
    if type(scrut) is TrueTm:
        return tcase
    if type(scrut) is FalseTm:
        return fcase
    if type(scrut) is VNeutral:
        return VNeutral(scrut.head, scrut.spine + (SBoolElim(motive, tcase, fcase),))
    raise InternalError(f"boolean elimination of {scrut!r}")


def apply_spine(v: Value, spine: tuple[SpineItem, ...]) -> Value:
    for item in spine:
        ti = type(item)
        if ti is SApp:
            v = vapp(v, item.mode, item.icit, item.arg)
        elif ti is SFst or ti is SSnd:
            v = (vfst if ti is SFst else vsnd)(item.mode, v)
        else:
            elim = vnatelim if ti is SNatElim else vboolelim
            v = elim(*[getattr(item, k) for k in ti.__match_args__], v)
    return v


def force(store: "MetaStore", v: Value) -> Value:
    """Unfold solved metavariables at the head of a flexible neutral."""
    while type(v) is VNeutral and type(v.head) is MetaH:
        sol = store.lookup(v.head.mid).solution_value
        if sol is None:
            return v
        v = apply_spine(sol, v.spine)
    return v


# ---------------------------------------------------------------------------
# Readback


def quote(store: "MetaStore", depth: int, v: Value) -> Term:
    v = force(store, v)
    tv = type(v)
    if tv is VNeutral:
        head = v.head
        t = Var(depth - 1 - head.lvl) if type(head) is VarH else Meta(head.mid)
        for item in v.spine:
            t = _quote_spine_item(store, depth, t, item)
        return t
    if tv in _CONSTANT_ROWS:
        return v
    if tv is VLam:
        return Lam(v.name, v.mode, v.icit, quote(store, depth + 1, v.clos.apply(vvar(depth))))
    if tv is VPi:
        dom = quote(store, depth, v.dom)
        return Pi(v.name, v.mode, v.icit, dom, quote(store, depth + 1, v.cod.apply(vvar(depth))))
    if tv is VSucc:
        # Counted in a loop; the base may be a meta solved to a literal.
        k = 0
        while type(v) is VSucc:
            v, k = force(store, v.arg), k + 1
        return succ(quote(store, depth, v), k)
    if tv is VSigma:
        fst_ty = quote(store, depth, v.fst_ty)
        return Sigma(v.name, v.mode, fst_ty, quote(store, depth + 1, v.snd_ty.apply(vvar(depth))))
    if tv is VPair:
        return Pair(v.mode, quote(store, depth, v.fst), quote(store, depth, v.snd))
    raise AssertionError(f"unhandled value {v!r}")


def _quote_spine_item(store: "MetaStore", depth: int, t: Term, item: SpineItem) -> Term:
    ti = type(item)
    if ti is SApp:
        return App(item.mode, item.icit, t, quote(store, depth, item.arg))
    if ti is SFst or ti is SSnd:
        return (Fst if ti is SFst else Snd)(item.mode, t)
    if ti is SNatElim or ti is SBoolElim:
        elim = NatElim if ti is SNatElim else BoolElim
        return elim(*[quote(store, depth, getattr(item, k)) for k in ti.__match_args__], t)
    raise AssertionError(f"unhandled spine item {item!r}")


def normal_form(store: "MetaStore", env: Env, t: Term) -> Term:
    return quote(store, len(env), evaluate(env, t))


# ---------------------------------------------------------------------------
# Conversion checking (rigid only; metavariable solving lives in unify).
# Arms on disjoint pairs of classes may come in any order; of the arms that
# take a class on either side, λ-η comes before pair-η, so a lambda against
# a pair applies the pair.


def conv(store: "MetaStore | None", depth: int, a: Value, b: Value) -> bool:
    if a is b:
        return True
    if store is not None:
        a, b = force(store, a), force(store, b)
    ta, tb = type(a), type(b)
    if ta is VNeutral and tb is VNeutral:
        if a.head != b.head or len(a.spine) != len(b.spine):
            return False
        return all(_conv_spine_item(store, depth, x, y) for x, y in zip(a.spine, b.spine))
    if ta in _CONSTANT_ROWS and tb in _CONSTANT_ROWS:
        return a == b
    if ta is tb and (ta is VPi or ta is VSigma):
        # Only a function type has an implicitness to compare.
        if a.mode is not b.mode or ta is VPi and a.icit is not b.icit:
            return False
        x = vvar(depth)
        if ta is VPi:
            return conv(store, depth, a.dom, b.dom) and conv(
                store, depth + 1, a.cod.apply(x), b.cod.apply(x)
            )
        return conv(store, depth, a.fst_ty, b.fst_ty) and conv(
            store, depth + 1, a.snd_ty.apply(x), b.snd_ty.apply(x)
        )
    if ta is VLam or tb is VLam:
        # Both sides applied to a fresh variable as the first lambda binds
        # it (eta for a side that is not a lambda).
        lam = a if ta is VLam else b
        if tb is VLam and b.mode is not lam.mode:
            return False
        x, mode, icit = vvar(depth), lam.mode, lam.icit
        return conv(store, depth + 1, vapp(a, mode, icit, x), vapp(b, mode, icit, x))
    if ta is VPair or tb is VPair:
        # Both sides projected at the first pair's mode (eta for a side that
        # is not a pair); after the lambda arm.
        mode = (a if ta is VPair else b).mode
        return conv(store, depth, vfst(mode, a), vfst(mode, b)) and conv(
            store, depth, vsnd(mode, a), vsnd(mode, b)
        )
    if ta in _NATS and tb in _NATS:
        # succ x against succ y, or against a literal k > 0 as k - 1.
        rest = strip_succs(store, a, b)
        return rest is not None and conv(store, depth, *rest)
    return False


def _conv_spine_item(store: "MetaStore", depth: int, a: SpineItem, b: SpineItem) -> bool:
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is SApp:
        return a.mode is b.mode and conv(store, depth, a.arg, b.arg)
    if ta is SFst or ta is SSnd:
        return a.mode is b.mode
    # the motives and the cases, in order
    return all(conv(store, depth, getattr(a, k), getattr(b, k)) for k in ta.__match_args__)


# ---------------------------------------------------------------------------
# Contexts


class CtxEntry(Record):
    name: str
    mode: Mode
    ty: Value
    defined: bool  # let-bound or top-level definition, not a lambda binder


class Signature:
    """The append-only table of a module's top-level declarations: their
    entries and a dict from each name to its level.  Every context of a
    module shares one table and sees a prefix of it.  Names are unique: the
    parser refuses a duplicate declaration."""

    def __init__(self) -> None:
        self.entries: list[CtxEntry] = []
        self.levels: dict[str, int] = {}


# The signature of a context made without one.  It stays empty: the first
# `declare` into such a context starts a table of its own.
_NO_DECLS = Signature()


class Context(Record):
    """A typing context: the first `top` entries of a signature, the local
    entries above them (binders and `let`s), the evaluation environment of
    both, and the erased flag that represents the presence of the erasure
    marker."""

    sig: Signature = _NO_DECLS
    local: tuple[CtxEntry, ...] = ()
    env: Env = ()
    flag: bool = False

    @property
    def depth(self) -> int:
        return len(self.env)

    @property
    def top(self) -> int:
        return len(self.env) - len(self.local)

    @property
    def names(self) -> tuple[str, ...]:
        """The name of every entry, oldest first, built for a message or output."""
        return tuple(e.name for e in (*self.sig.entries[: self.top], *self.local))

    def show(self, store: "MetaStore | None", v: Value) -> str:
        """A value at this depth as text, for a message."""
        return pp(quote(store, self.depth, v), self.names)

    def entry(self, lvl: int) -> CtxEntry:
        """The entry at de Bruijn level `lvl`."""
        return self.sig.entries[lvl] if lvl < self.top else self.local[lvl - len(self.env)]

    def name(self, lvl: int) -> str:
        return self.entry(lvl).name

    def bind(self, name: str, mode: Mode, ty: Value) -> Context:
        env = self.env
        local = self.local + (CtxEntry(name, mode, ty, False),)
        return Context(self.sig, local, env + (vvar(len(env)),), self.flag)

    def define(self, name: str, mode: Mode, ty: Value, value: Value | Thunk) -> Context:
        local = self.local + (CtxEntry(name, mode, ty, True),)
        return Context(self.sig, local, self.env + (value,), self.flag)

    def declare(
        self, name: str, ty: Value, value: Value | Thunk | None = None
    ) -> Context:
        """Append a top-level declaration, opaque when `value` is None, to
        the signature of a context that sees all of it and has no locals."""
        sig = Signature() if self.sig is _NO_DECLS else self.sig
        lvl = len(self.env)
        if self.local or lvl != len(sig.entries):
            raise InternalError("declaration added to a context inside the signature")
        sig.entries.append(CtxEntry(name, OMEGA, ty, value is not None))
        sig.levels[name] = lvl
        value = vvar(lvl) if value is None else value
        return Context(sig, (), self.env + (value,), self.flag)

    def prefix(self, k: int) -> Context:
        """The first `k` top-level declarations, with this context's flag."""
        return Context(self.sig, (), self.env[:k], self.flag)

    def erased(self) -> Context:
        if self.flag:
            return self
        return Context(self.sig, self.local, self.env, True)

    def lookup(self, name: str) -> tuple[int, CtxEntry] | None:
        """Innermost entry with the given name, as (de Bruijn index, entry)."""
        for ix, entry in enumerate(reversed(self.local)):
            if entry.name == name:
                return ix, entry
        # A top-level name, if this context sees its declaration.
        lvl = self.sig.levels.get(name, self.top)
        if lvl < self.top:
            return len(self.env) - 1 - lvl, self.sig.entries[lvl]
        return None


# ---------------------------------------------------------------------------
# Kernel typechecker.
#
# The judgment is "ctx (with flag) |- t : A as a runtime term".  Erased
# judgments are the same check with the flag set.  Positions that consume
# erased data (type annotations, domains and codomains, motives, arguments
# of mode-0 applications, first components of mode-0 pairs) recurse with
# the flag forced on.  Type codes themselves (U, Nat, Bool, Pi, Sigma) are
# erased resources and demand the flag, as do mode-0 variables and mode-0
# first projections.  The kernel reads the meta store only at a meta, and
# forces a type only when given a store: zonked output is checked with none.


# Type of the successor case, Pi (k : Nat). P k -> P (succ k), evaluated in
# an environment holding the motive value.
_NAT_SUCC_CASE_TY = Pi(
    "k",
    OMEGA,
    EXPL,
    NatTy(),
    Pi(
        "ih",
        OMEGA,
        EXPL,
        App(OMEGA, EXPL, Var(1), Var(0)),
        App(OMEGA, EXPL, Var(2), Succ(Var(1))),
    ),
)


def motive_app(motive: Value, scrut: Value) -> Value:
    return vapp(motive, OMEGA, EXPL, scrut)


# The eliminators by class: the motive's type, the scrutinee's type, and
# the types of the two cases given the motive's value.  A motive binds a
# runtime variable: families over a runtime domain and over an erased one
# are interchangeable (the binder is only ever used inside types), and the
# runtime choice keeps mode stripping syntax-preserving.
ELIMINATORS: dict[type, tuple[Value, Constant, Callable[[Value], tuple[Value, Value]]]] = {
    NatElim: (
        VPi("n", OMEGA, EXPL, NatTy(), Closure((), Univ())),
        NatTy(),
        lambda p: (motive_app(p, Lit(0)), evaluate((p,), _NAT_SUCC_CASE_TY)),
    ),
    BoolElim: (
        VPi("b", OMEGA, EXPL, BoolTy(), Closure((), Univ())),
        BoolTy(),
        lambda p: (motive_app(p, TrueTm()), motive_app(p, FalseTm())),
    ),
}


def kernel_infer(store: "MetaStore | None", ctx: Context, t: Term) -> Value:
    tt = type(t)
    if tt is Var:
        if not 0 <= t.ix < len(ctx.env):
            raise InternalError(f"variable index {t.ix} out of scope at depth {ctx.depth}")
        entry = ctx.entry(len(ctx.env) - 1 - t.ix)
        if entry.mode is ZERO and not ctx.flag:
            raise KernelError(f"erased variable {entry.name!r} used at runtime")
        return entry.ty
    if tt is App:
        mode, icit = t.mode, t.icit
        fn_ty = kernel_infer(store, ctx, t.fn)
        if store is not None:
            fn_ty = force(store, fn_ty)
        if type(fn_ty) is not VPi:
            raise KernelError("application of a non-function")
        if fn_ty.mode is not mode or fn_ty.icit is not icit:
            raise KernelError(
                f"application annotation {mode}/{icit.value} does not match "
                f"function type {fn_ty.mode}/{fn_ty.icit.value}"
            )
        kernel_check(store, ctx.erased() if mode is ZERO else ctx, t.arg, fn_ty.dom)
        return fn_ty.cod.apply(Thunk(ctx.env, t.arg))
    if tt in _CONSTANT_ROWS:
        _, ty, code = _CONSTANT_ROWS[tt]
        if code is not None:
            _require_erased(ctx, code)
        return ty
    if tt is Pi or tt is Sigma:
        pi = tt is Pi
        _require_erased(ctx, "dependent function type" if pi else "dependent pair type")
        dom, cod = (t.dom, t.cod) if pi else (t.fst_ty, t.snd_ty)
        kernel_check(store, ctx.erased(), dom, Univ())
        dom_v = evaluate(ctx.env, dom)
        kernel_check(store, ctx.bind(t.name, t.mode, dom_v).erased(), cod, Univ())
        return Univ()
    if tt is Meta:
        if store is None:
            raise InternalError(f"metavariable ?{t.mid} reached the kernel without a store")
        entry, mask = store.lookup(t.mid), t.mask
        if not mask:
            return entry.closed_ty_value
        if entry.sig.depth + len(mask) != ctx.depth:
            raise InternalError(
                f"meta mask length {len(mask)} != depth {ctx.depth} - {entry.sig.depth}"
            )
        return evaluate(ctx.env, entry.ty)  # the capture is the context's tail
    if tt is Let:
        return kernel_infer(store, _let_body_ctx(store, ctx, t), t.body)
    if tt is Succ:  # a chain in one loop: its length costs no stack
        while type(t) is Succ:
            t = t.arg
        kernel_check(store, ctx, t, NatTy())
        return NatTy()
    if tt is NatElim or tt is BoolElim:
        motive_ty, scrut_ty, case_tys = ELIMINATORS[tt]
        motive, a, b, scrut = [getattr(t, k) for k in tt.__match_args__]
        kernel_check(store, ctx.erased(), motive, motive_ty)
        motive_v = evaluate(ctx.env, motive)
        a_ty, b_ty = case_tys(motive_v)
        kernel_check(store, ctx, a, a_ty)
        kernel_check(store, ctx, b, b_ty)
        kernel_check(store, ctx, scrut, scrut_ty)
        return motive_app(motive_v, evaluate(ctx.env, scrut))
    if tt is Fst or tt is Snd:
        mode, first = t.mode, tt is Fst
        pair_ty = kernel_infer(store, ctx, t.pair)
        if store is not None:
            pair_ty = force(store, pair_ty)
        if type(pair_ty) is not VSigma:
            raise KernelError(f"{'first' if first else 'second'} projection of a non-pair")
        if pair_ty.mode is not mode:
            raise KernelError("projection mode does not match pair type")
        if not first:
            return pair_ty.snd_ty.apply(Thunk(ctx.env, Fst(mode, t.pair)))
        if mode is ZERO and not ctx.flag:
            raise KernelError("erased first projection used at runtime")
        return pair_ty.fst_ty
    if tt is Lam or tt is Pair:
        raise KernelError("cannot infer a type for an unannotated introduction")
    raise AssertionError(f"unhandled term {t!r}")


def kernel_check(store: "MetaStore | None", ctx: Context, t: Term, expected: Value) -> None:
    if store is not None:
        expected = force(store, expected)
    if type(t) is Lam:
        if type(expected) is not VPi:
            what = ctx.show(store, expected)
            raise KernelError(f"lambda checked against a non-function type {what}")
        if t.mode is not expected.mode:
            raise KernelError(
                f"lambda mode {t.mode} does not match function type mode {expected.mode}"
            )
        if t.icit is not expected.icit:
            raise KernelError("lambda implicitness does not match function type")
        inner = ctx.bind(t.name, t.mode, expected.dom)
        kernel_check(store, inner, t.body, expected.cod.apply(vvar(len(ctx.env))))
    elif type(t) is Pair:
        if type(expected) is not VSigma:
            raise KernelError(f"pair checked against a non-pair type {ctx.show(store, expected)}")
        if t.mode is not expected.mode:
            raise KernelError("pair mode does not match pair type mode")
        fst_ctx = ctx.erased() if t.mode is ZERO else ctx
        kernel_check(store, fst_ctx, t.fst, expected.fst_ty)
        kernel_check(store, ctx, t.snd, expected.snd_ty.apply(Thunk(ctx.env, t.fst)))
    elif type(t) is Let:
        kernel_check(store, _let_body_ctx(store, ctx, t), t.body, expected)
    else:
        got = kernel_infer(store, ctx, t)
        if got is not expected and not conv(store, len(ctx.env), got, expected):
            exp_s, got_s = ctx.show(store, expected), ctx.show(store, got)
            raise KernelError(f"type mismatch: expected {exp_s}, got {got_s}")


def _let_body_ctx(store: "MetaStore | None", ctx: Context, t: Let) -> Context:
    """Check a `let`'s annotation and definition; the context of its body."""
    kernel_check(store, ctx.erased(), t.ty, Univ())
    ty_v = evaluate(ctx.env, t.ty)
    kernel_check(store, ctx, t.defn, ty_v)
    return ctx.define(t.name, OMEGA, ty_v, definition(ctx.env, t.defn))


def _require_erased(ctx: Context, what: str) -> None:
    if not ctx.flag:
        raise KernelError(f"{what} is a type code and cannot be used at runtime")


# ---------------------------------------------------------------------------
# Pretty-printing


def _mark(mode: Mode) -> str:
    """The subscript on an erased binder, projection or pair."""
    return "₀" if mode is ZERO else ""


def _fresh(name: str, names: tuple[str, ...]) -> str:
    if name == "_":
        return name
    while name in names:
        name += "'"
    return name


def pp(t: Term, names: tuple[str, ...] = (), prec: int = 0) -> str:
    """Print a core term with named binders and explicit mode marks."""
    # prec: 0 lowest (lambda/let/pi), 1 sigma, 2 application, 3 atom
    tt = type(t)
    if tt is Var:
        return names[len(names) - 1 - t.ix] if 0 <= t.ix < len(names) else f"@{t.ix}"
    if tt is App:
        if t.icit is IMPL:
            return _wrap(f"{pp(t.fn, names, 2)} {{{pp(t.arg, names, 0)}}}", prec, 2)
        return _wrap(f"{pp(t.fn, names, 2)} {pp(t.arg, names, 3)}", prec, 2)
    if tt is Meta:
        mask = t.mask
        args = [pp(Var(len(mask) - 1 - i), names) for i, m in enumerate(mask) if m is not None]
        return f"?{t.mid}[{', '.join(args)}]" if args else f"?{t.mid}"
    if tt is Lit:
        return succ_chain(t.n, prec, 2)
    if tt in _CONSTANT_ROWS:
        return _CONSTANT_ROWS[tt][0]
    if tt is Succ:
        k = 0
        while type(t) is Succ:
            t, k = t.arg, k + 1
        return succ_chain(k, prec, 2, pp(t, names, 3))
    if tt is Fst or tt is Snd:
        word = "fst" if tt is Fst else "snd"
        return _wrap(f"{word}{_mark(t.mode)} {pp(t.pair, names, 3)}", prec, 2)
    if tt is NatElim or tt is BoolElim:
        parts = " ".join(pp(getattr(t, k), names, 3) for k in tt.__match_args__)
        return _wrap(f"{'natElim' if tt is NatElim else 'boolElim'} {parts}", prec, 2)
    if tt is Pair:
        return f"({pp(t.fst, names, 0)}, {pp(t.snd, names, 0)}){_mark(t.mode)}"
    # Lam, Pi, Sigma and Let bind a name
    x = _fresh(t.name, names)
    inner = names + (x,)
    if tt is Lam:
        binder = f"{{{x}}}" if t.icit is IMPL else x
        return _wrap(f"λ{_mark(t.mode)} {binder}. {pp(t.body, inner, 0)}", prec, 0)
    if tt is Pi:
        if t.icit is EXPL and t.name == "_" and t.mode is OMEGA:
            return _wrap(f"{pp(t.dom, names, 1)} → {pp(t.cod, inner, 0)}", prec, 0)
        open_, close = ("{", "}") if t.icit is IMPL else ("(", ")")
        dom = pp(t.dom, names, 0)
        return _wrap(f"Π{_mark(t.mode)} {open_}{x} : {dom}{close}. {pp(t.cod, inner, 0)}", prec, 0)
    if tt is Sigma:
        lhs = pp(t.fst_ty, names, 2) if t.name == "_" else f"({x} : {pp(t.fst_ty, names, 0)})"
        return _wrap(f"{lhs} *{_mark(t.mode)} {pp(t.snd_ty, inner, 1)}", prec, 0)
    if tt is Let:
        ty, defn = pp(t.ty, names, 0), pp(t.defn, names, 0)
        return _wrap(f"let {x} : {ty} = {defn} in {pp(t.body, inner, 0)}", prec, 0)
    raise AssertionError(f"unhandled term {t!r}")


def succ_chain(n: int, prec: int, at: int, base: str = "zero") -> str:
    """The text `succ (succ (... base))` of n successors of `base` (an atom),
    built without recursion: `succ u` binds at precedence `at`, so it is
    parenthesised as an argument and where `prec` is above `at`."""
    if n == 0:
        return base
    text = "succ " + "(succ " * (n - 1) + base + ")" * (n - 1)
    return _wrap(text, prec, at)


def _wrap(s: str, prec: int, at: int) -> str:
    return f"({s})" if prec > at else s
