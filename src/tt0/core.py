"""Core calculus: mode-annotated terms, NbE values, conversion, kernel.

Terms use de Bruijn indices, values use de Bruijn levels.  A former with no
subterms (U, Nat, Bool, a literal, true, false) is a `Constant`: one class
that is both a term and its own value.  The table `CONSTANTS` names each
base constant once, with its keyword, its type and whether it is a type
code; the parser, printers, elaborator, kernel and unifier all read it.
Eliminations (App/Pair/Fst/Snd) record the mode of the Pi/Sigma they
interact with; the extraction pass consumes those annotations.

The erasure marker is represented by one boolean flag on the context: a
judgment checked with the flag set is an erased judgment, and erased
resources (mode-0 variables, type codes, erased projections) are usable
exactly when the flag is set.
"""

from __future__ import annotations

import enum
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
        return "0" if self is Mode.ZERO else "ω"


class Icit(enum.Enum):
    EXPL = "explicit"
    IMPL = "implicit"


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


def succ(t: Term) -> Term:
    """The successor of a term, folded when the term is a literal."""
    return Lit(t.n + 1) if isinstance(t, Lit) else Succ(t)


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
    subterm, where `k` is the number of binders `t` puts around that child."""
    inner = depth + 1
    match t:
        case Lam(name, mode, icit, body):
            return Lam(name, mode, icit, f(body, inner))
        case App(mode, icit, fn, arg):
            return App(mode, icit, f(fn, depth), f(arg, depth))
        case Pi(name, mode, icit, dom, cod):
            return Pi(name, mode, icit, f(dom, depth), f(cod, inner))
        case Sigma(name, mode, fst_ty, snd_ty):
            return Sigma(name, mode, f(fst_ty, depth), f(snd_ty, inner))
        case Pair(mode, fst, snd):
            return Pair(mode, f(fst, depth), f(snd, depth))
        case Fst(mode, pair) | Snd(mode, pair):
            return type(t)(mode, f(pair, depth))
        case Succ(arg):
            return succ(f(arg, depth))
        case NatElim(motive, a, b, scrut) | BoolElim(motive, a, b, scrut):
            return type(t)(*(f(u, depth) for u in (motive, a, b, scrut)))
        case Let(name, ty, defn, body):
            return Let(name, f(ty, depth), f(defn, depth), f(body, inner))
    return t


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


def vsucc(v: Value) -> Value:
    return Lit(v.n + 1) if isinstance(v, Lit) else VSucc(v)


def vpred(v: Value) -> Value | None:
    """The predecessor of a successor value; None for zero and neutrals."""
    match v:
        case Lit(n) if n > 0:
            return Lit(n - 1)
        case VSucc(arg):
            return arg
    return None


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


def vvar(lvl: int) -> VNeutral:
    return VNeutral(VarH(lvl))


def is_flex(v: Value) -> bool:
    return isinstance(v, VNeutral) and isinstance(v.head, MetaH)


# ---------------------------------------------------------------------------
# Evaluation.  Pure in the meta store: unsolved and solved metas alike
# evaluate to flexible neutrals; `force` consults the store.  Call-by-need
# for definitions: a `let` binds a thunk of its value.


def evaluate(env: Env, t: Term) -> Value:
    match t:
        case Var(ix):
            return entry_value(env[len(env) - 1 - ix])
        case Lam(name, mode, icit, body):
            return VLam(name, mode, icit, Closure(env, body))
        case App(mode, icit, fn, arg):
            return vapp(evaluate(env, fn), mode, icit, evaluate(env, arg))
        case Pi(name, mode, icit, dom, cod):
            return VPi(name, mode, icit, evaluate(env, dom), Closure(env, cod))
        case Sigma(name, mode, fst_ty, snd_ty):
            return VSigma(name, mode, evaluate(env, fst_ty), Closure(env, snd_ty))
        case Pair(mode, fst, snd):
            return VPair(mode, evaluate(env, fst), evaluate(env, snd))
        case Fst(mode, pair):
            return vfst(mode, evaluate(env, pair))
        case Snd(mode, pair):
            return vsnd(mode, evaluate(env, pair))
        case Constant():
            return t
        case Succ(arg):
            return vsucc(evaluate(env, arg))
        case NatElim(motive, zcase, scase, scrut):
            return vnatelim(
                evaluate(env, motive),
                evaluate(env, zcase),
                evaluate(env, scase),
                evaluate(env, scrut),
            )
        case BoolElim(motive, tcase, fcase, scrut):
            return vboolelim(
                evaluate(env, motive),
                evaluate(env, tcase),
                evaluate(env, fcase),
                evaluate(env, scrut),
            )
        case Let(_, _, defn, body):
            return evaluate(env + (definition(env, defn),), body)
        case Meta(mid, mask):
            v: Value = VNeutral(MetaH(mid))
            for i, m in enumerate(mask, len(env) - len(mask)):
                if m is not None:
                    v = vapp(v, m, Icit.EXPL, entry_value(env[i]))
            return v
    raise AssertionError(f"unhandled term {t!r}")


def vapp(fn: Value, mode: Mode, icit: Icit, arg: Value) -> Value:
    match fn:
        case VLam(_, _, _, clos):
            return clos.apply(arg)
        case VNeutral(head, spine):
            return VNeutral(head, spine + (SApp(mode, icit, arg),))
    raise InternalError(f"applying a non-function value {fn!r}")


def vfst(mode: Mode, v: Value) -> Value:
    match v:
        case VPair(_, fst, _):
            return fst
        case VNeutral(head, spine):
            return VNeutral(head, spine + (SFst(mode),))
    raise InternalError(f"first projection of a non-pair value {v!r}")


def vsnd(mode: Mode, v: Value) -> Value:
    match v:
        case VPair(_, _, snd):
            return snd
        case VNeutral(head, spine):
            return VNeutral(head, spine + (SSnd(mode),))
    raise InternalError(f"second projection of a non-pair value {v!r}")


def vnatelim(motive: Value, zcase: Value, scase: Value, scrut: Value) -> Value:
    match scrut:
        case Lit(k):
            # The step case from the base upwards, as the VSucc case below
            # would apply it to a chain of k successors.
            ih = zcase
            for i in range(k):
                ih = _nat_step(scase, Lit(i), ih)
            return ih
        case VSucc(pred):
            return _nat_step(scase, pred, vnatelim(motive, zcase, scase, pred))
        case VNeutral(head, spine):
            return VNeutral(head, spine + (SNatElim(motive, zcase, scase),))
    raise InternalError(f"natural-number elimination of {scrut!r}")


def _nat_step(scase: Value, pred: Value, ih: Value) -> Value:
    return vapp(vapp(scase, Mode.OMEGA, Icit.EXPL, pred), Mode.OMEGA, Icit.EXPL, ih)


def vboolelim(motive: Value, tcase: Value, fcase: Value, scrut: Value) -> Value:
    match scrut:
        case TrueTm():
            return tcase
        case FalseTm():
            return fcase
        case VNeutral(head, spine):
            return VNeutral(head, spine + (SBoolElim(motive, tcase, fcase),))
    raise InternalError(f"boolean elimination of {scrut!r}")


def apply_spine(v: Value, spine: tuple[SpineItem, ...]) -> Value:
    for item in spine:
        match item:
            case SApp(mode, icit, arg):
                v = vapp(v, mode, icit, arg)
            case SFst(mode):
                v = vfst(mode, v)
            case SSnd(mode):
                v = vsnd(mode, v)
            case SNatElim(motive, zcase, scase):
                v = vnatelim(motive, zcase, scase, v)
            case SBoolElim(motive, tcase, fcase):
                v = vboolelim(motive, tcase, fcase, v)
    return v


def force(store: "MetaStore", v: Value) -> Value:
    """Unfold solved metavariables at the head of a flexible neutral."""
    while isinstance(v, VNeutral) and isinstance(v.head, MetaH):
        sol = store.lookup(v.head.mid).solution_value
        if sol is None:
            return v
        v = apply_spine(sol, v.spine)
    return v


# ---------------------------------------------------------------------------
# Readback


def quote(store: "MetaStore", depth: int, v: Value) -> Term:
    v = force(store, v)
    match v:
        case VLam(name, mode, icit, clos):
            return Lam(name, mode, icit, quote(store, depth + 1, clos.apply(vvar(depth))))
        case VPi(name, mode, icit, dom, cod):
            return Pi(
                name,
                mode,
                icit,
                quote(store, depth, dom),
                quote(store, depth + 1, cod.apply(vvar(depth))),
            )
        case VSigma(name, mode, fst_ty, snd_ty):
            return Sigma(
                name,
                mode,
                quote(store, depth, fst_ty),
                quote(store, depth + 1, snd_ty.apply(vvar(depth))),
            )
        case VPair(mode, fst, snd):
            return Pair(mode, quote(store, depth, fst), quote(store, depth, snd))
        case Constant():
            return v
        case VSucc(arg):
            # The argument may be a meta solved to a literal.
            return succ(quote(store, depth, arg))
        case VNeutral(head, spine):
            t: Term
            if isinstance(head, VarH):
                t = Var(depth - 1 - head.lvl)
            else:
                t = Meta(head.mid)
            for item in spine:
                t = _quote_spine_item(store, depth, t, item)
            return t
    raise AssertionError(f"unhandled value {v!r}")


def _quote_spine_item(store: "MetaStore", depth: int, t: Term, item: SpineItem) -> Term:
    match item:
        case SApp(mode, icit, arg):
            return App(mode, icit, t, quote(store, depth, arg))
        case SFst(mode):
            return Fst(mode, t)
        case SSnd(mode):
            return Snd(mode, t)
        case SNatElim(motive, a, b) | SBoolElim(motive, a, b):
            elim = NatElim if type(item) is SNatElim else BoolElim
            return elim(*(quote(store, depth, u) for u in (motive, a, b)), t)
    raise AssertionError(f"unhandled spine item {item!r}")


def normal_form(store: "MetaStore", env: Env, t: Term) -> Term:
    return quote(store, len(env), evaluate(env, t))


# ---------------------------------------------------------------------------
# Conversion checking (rigid only; metavariable solving lives in unify)


def conv(store: "MetaStore", depth: int, a: Value, b: Value) -> bool:
    a = force(store, a)
    b = force(store, b)
    match a, b:
        case VLam(_, mode, _, clos), VLam(_, mode2, _, clos2):
            if mode is not mode2:
                return False
            x = vvar(depth)
            return conv(store, depth + 1, clos.apply(x), clos2.apply(x))
        case VLam(_, mode, icit, clos), _:
            x = vvar(depth)
            return conv(store, depth + 1, clos.apply(x), vapp(b, mode, icit, x))
        case _, VLam(_, mode, icit, clos):
            x = vvar(depth)
            return conv(store, depth + 1, vapp(a, mode, icit, x), clos.apply(x))
        case VPair(mode, fst, snd), _:
            return conv(store, depth, fst, vfst(mode, b)) and conv(
                store, depth, snd, vsnd(mode, b)
            )
        case _, VPair(mode, fst, snd):
            return conv(store, depth, vfst(mode, a), fst) and conv(
                store, depth, vsnd(mode, a), snd
            )
        case VPi(_, mode, icit, dom, cod), VPi(_, mode2, icit2, dom2, cod2):
            if mode is not mode2 or icit is not icit2:
                return False
            if not conv(store, depth, dom, dom2):
                return False
            x = vvar(depth)
            return conv(store, depth + 1, cod.apply(x), cod2.apply(x))
        case VSigma(_, mode, fst_ty, snd_ty), VSigma(_, mode2, fst2, snd2):
            if mode is not mode2:
                return False
            if not conv(store, depth, fst_ty, fst2):
                return False
            x = vvar(depth)
            return conv(store, depth + 1, snd_ty.apply(x), snd2.apply(x))
        case Constant(), Constant():
            return a == b
        case VSucc() | Lit(), VSucc() | Lit():
            # succ x against succ y, or against a literal k > 0 as k - 1.
            x, y = vpred(a), vpred(b)
            return x is not None and y is not None and conv(store, depth, x, y)
        case VNeutral(h1, s1), VNeutral(h2, s2):
            if h1 != h2 or len(s1) != len(s2):
                return False
            return all(
                _conv_spine_item(store, depth, i1, i2) for i1, i2 in zip(s1, s2)
            )
    return False


def _conv_spine_item(
    store: "MetaStore", depth: int, a: SpineItem, b: SpineItem
) -> bool:
    match a, b:
        case SApp(mode, _, arg), SApp(mode2, _, arg2):
            return mode is mode2 and conv(store, depth, arg, arg2)
        case (SFst(mode), SFst(mode2)) | (SSnd(mode), SSnd(mode2)):
            return mode is mode2
        case (SNatElim(p, x, y), SNatElim(p2, x2, y2)) | (
            SBoolElim(p, x, y), SBoolElim(p2, x2, y2)
        ):
            return (
                conv(store, depth, p, p2)
                and conv(store, depth, x, x2)
                and conv(store, depth, y, y2)
            )
    return False


# ---------------------------------------------------------------------------
# Contexts


class CtxEntry(Record):
    name: str
    mode: Mode
    ty: Value
    defined: bool  # let-bound or top-level definition, not a lambda binder


class Signature:
    """The append-only table of a module's top-level declarations: their
    entries, their names and a dict from each name to its level.  Every
    context of a module shares one table and sees a prefix of it.  Names
    are unique: the parser refuses a duplicate declaration.  `names` is a
    tuple, so a context that sees the whole table reads it without a copy."""

    def __init__(self) -> None:
        self.entries: list[CtxEntry] = []
        self.names: tuple[str, ...] = ()
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
        return self.sig.names[: self.top] + tuple(e.name for e in self.local)

    def entry(self, lvl: int) -> CtxEntry:
        """The entry at de Bruijn level `lvl`."""
        return self.sig.entries[lvl] if lvl < self.top else self.local[lvl - len(self.env)]

    def bind(self, name: str, mode: Mode, ty: Value) -> Context:
        entry = CtxEntry(name, mode, ty, defined=False)
        env = self.env
        return Context(self.sig, self.local + (entry,), env + (vvar(len(env)),), self.flag)

    def define(self, name: str, mode: Mode, ty: Value, value: Value | Thunk) -> Context:
        entry = CtxEntry(name, mode, ty, defined=True)
        return Context(self.sig, self.local + (entry,), self.env + (value,), self.flag)

    def declare(
        self, name: str, ty: Value, value: Value | Thunk | None = None
    ) -> Context:
        """Append a top-level declaration, opaque when `value` is None, to
        the signature of a context that sees all of it and has no locals."""
        sig = Signature() if self.sig is _NO_DECLS else self.sig
        lvl = len(self.env)
        if self.local or lvl != len(sig.entries):
            raise InternalError("declaration added to a context inside the signature")
        sig.entries.append(CtxEntry(name, Mode.OMEGA, ty, defined=value is not None))
        sig.names += (name,)
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
# first projections.  The kernel reads the meta store only at a meta, so
# zonked output, which holds none, is checked with no store.


# Eliminator motives bind a runtime variable: families over a runtime
# domain and over an erased one are interchangeable (the binder is only
# ever used inside types), and the runtime choice keeps mode stripping
# syntax-preserving.
NAT_MOTIVE_TY = VPi("n", Mode.OMEGA, Icit.EXPL, NatTy(), Closure((), Univ()))
BOOL_MOTIVE_TY = VPi("b", Mode.OMEGA, Icit.EXPL, BoolTy(), Closure((), Univ()))

# Type of the successor case, Pi (k : Nat). P k -> P (succ k), evaluated in
# an environment holding the motive value.
_NAT_SUCC_CASE_TY = Pi(
    "k",
    Mode.OMEGA,
    Icit.EXPL,
    NatTy(),
    Pi(
        "ih",
        Mode.OMEGA,
        Icit.EXPL,
        App(Mode.OMEGA, Icit.EXPL, Var(1), Var(0)),
        App(Mode.OMEGA, Icit.EXPL, Var(2), Succ(Var(1))),
    ),
)


def nat_succ_case_type(motive: Value) -> Value:
    return evaluate((motive,), _NAT_SUCC_CASE_TY)


def motive_app(motive: Value, scrut: Value) -> Value:
    return vapp(motive, Mode.OMEGA, Icit.EXPL, scrut)


def kernel_infer(store: "MetaStore | None", ctx: Context, t: Term) -> Value:
    match t:
        case Var(ix):
            if not 0 <= ix < ctx.depth:
                raise InternalError(f"variable index {ix} out of scope at depth {ctx.depth}")
            entry = ctx.entry(ctx.depth - 1 - ix)
            if entry.mode is Mode.ZERO and not ctx.flag:
                raise KernelError(
                    f"erased variable {entry.name!r} used at runtime"
                )
            return entry.ty
        case App(mode, icit, fn, arg):
            fn_ty = force(store, kernel_infer(store, ctx, fn))
            if not isinstance(fn_ty, VPi):
                raise KernelError("application of a non-function")
            if fn_ty.mode is not mode or fn_ty.icit is not icit:
                raise KernelError(
                    f"application annotation {mode}/{icit.value} does not match "
                    f"function type {fn_ty.mode}/{fn_ty.icit.value}"
                )
            arg_ctx = ctx.erased() if mode is Mode.ZERO else ctx
            kernel_check(store, arg_ctx, arg, fn_ty.dom)
            return fn_ty.cod.apply(Thunk(ctx.env, arg))
        case Pi(name, mode, _, dom, cod) | Sigma(name, mode, dom, cod):
            _require_erased(
                ctx, "dependent function type" if type(t) is Pi else "dependent pair type"
            )
            kernel_check(store, ctx.erased(), dom, Univ())
            dom_v = evaluate(ctx.env, dom)
            kernel_check(store, ctx.bind(name, mode, dom_v).erased(), cod, Univ())
            return Univ()
        case Constant():
            _, ty, code = _CONSTANT_ROWS[type(t)]
            if code is not None:
                _require_erased(ctx, code)
            return ty
        case Succ(arg):
            kernel_check(store, ctx, arg, NatTy())
            return NatTy()
        case NatElim(motive, zcase, scase, scrut):
            kernel_check(store, ctx.erased(), motive, NAT_MOTIVE_TY)
            motive_v = evaluate(ctx.env, motive)
            kernel_check(store, ctx, zcase, motive_app(motive_v, Lit(0)))
            kernel_check(store, ctx, scase, nat_succ_case_type(motive_v))
            kernel_check(store, ctx, scrut, NatTy())
            return motive_app(motive_v, evaluate(ctx.env, scrut))
        case BoolElim(motive, tcase, fcase, scrut):
            kernel_check(store, ctx.erased(), motive, BOOL_MOTIVE_TY)
            motive_v = evaluate(ctx.env, motive)
            kernel_check(store, ctx, tcase, motive_app(motive_v, TrueTm()))
            kernel_check(store, ctx, fcase, motive_app(motive_v, FalseTm()))
            kernel_check(store, ctx, scrut, BoolTy())
            return motive_app(motive_v, evaluate(ctx.env, scrut))
        case Fst(mode, pair):
            pair_ty = force(store, kernel_infer(store, ctx, pair))
            if not isinstance(pair_ty, VSigma):
                raise KernelError("first projection of a non-pair")
            if pair_ty.mode is not mode:
                raise KernelError("projection mode does not match pair type")
            if mode is Mode.ZERO and not ctx.flag:
                raise KernelError("erased first projection used at runtime")
            return pair_ty.fst_ty
        case Snd(mode, pair):
            pair_ty = force(store, kernel_infer(store, ctx, pair))
            if not isinstance(pair_ty, VSigma):
                raise KernelError("second projection of a non-pair")
            if pair_ty.mode is not mode:
                raise KernelError("projection mode does not match pair type")
            return pair_ty.snd_ty.apply(Thunk(ctx.env, Fst(mode, pair)))
        case Let(name, ty, defn, body):
            kernel_check(store, ctx.erased(), ty, Univ())
            ty_v = evaluate(ctx.env, ty)
            kernel_check(store, ctx, defn, ty_v)
            inner = ctx.define(name, Mode.OMEGA, ty_v, definition(ctx.env, defn))
            return kernel_infer(store, inner, body)
        case Meta(mid, mask):
            if store is None:
                raise InternalError(f"metavariable ?{mid} reached the kernel without a store")
            entry = store.lookup(mid)
            if mask and entry.sig.depth + len(mask) != ctx.depth:
                raise InternalError(
                    f"meta mask length {len(mask)} != depth {ctx.depth} - {entry.sig.depth}"
                )
            ty = entry.closed_ty_value
            for i, m in enumerate(mask, ctx.depth - len(mask)):
                if m is None:
                    continue
                ty = force(store, ty)
                if not isinstance(ty, VPi):
                    raise InternalError("meta over-applied")
                ty = ty.cod.apply(ctx.env[i])
            return ty
        case Lam() | Pair():
            raise KernelError("cannot infer a type for an unannotated introduction")
    raise AssertionError(f"unhandled term {t!r}")


def kernel_check(store: "MetaStore | None", ctx: Context, t: Term, expected: Value) -> None:
    expected = force(store, expected)
    match t, expected:
        case Lam(name, mode, icit, body), VPi(_, pmode, picit, dom, cod):
            if mode is not pmode:
                raise KernelError(
                    f"lambda mode {mode} does not match function type mode {pmode}"
                )
            if icit is not picit:
                raise KernelError("lambda implicitness does not match function type")
            inner = ctx.bind(name, mode, dom)
            kernel_check(store, inner, body, cod.apply(vvar(ctx.depth)))
            return
        case Lam(), _:
            raise KernelError(
                f"lambda checked against a non-function type "
                f"{pp(quote(store, ctx.depth, expected), ctx.names)}"
            )
        case Pair(mode, fst, snd), VSigma(_, smode, fst_ty, snd_ty):
            if mode is not smode:
                raise KernelError("pair mode does not match pair type mode")
            fst_ctx = ctx.erased() if mode is Mode.ZERO else ctx
            kernel_check(store, fst_ctx, fst, fst_ty)
            kernel_check(store, ctx, snd, snd_ty.apply(Thunk(ctx.env, fst)))
            return
        case Pair(), _:
            raise KernelError(
                f"pair checked against a non-pair type "
                f"{pp(quote(store, ctx.depth, expected), ctx.names)}"
            )
        case Let(name, ty, defn, body), _:
            kernel_check(store, ctx.erased(), ty, Univ())
            ty_v = evaluate(ctx.env, ty)
            kernel_check(store, ctx, defn, ty_v)
            inner = ctx.define(name, Mode.OMEGA, ty_v, definition(ctx.env, defn))
            kernel_check(store, inner, body, expected)
            return
        case _:
            got = kernel_infer(store, ctx, t)
            if not conv(store, ctx.depth, got, expected):
                raise KernelError(
                    "type mismatch: expected "
                    f"{pp(quote(store, ctx.depth, expected), ctx.names)}, got "
                    f"{pp(quote(store, ctx.depth, got), ctx.names)}"
                )


def _require_erased(ctx: Context, what: str) -> None:
    if not ctx.flag:
        raise KernelError(f"{what} is a type code and cannot be used at runtime")


# ---------------------------------------------------------------------------
# Pretty-printing


def _mark(mode: Mode) -> str:
    """The subscript on an erased binder, projection or pair."""
    return "₀" if mode is Mode.ZERO else ""


def _fresh(name: str, names: tuple[str, ...]) -> str:
    if name == "_":
        return name
    while name in names:
        name += "'"
    return name


def pp(t: Term, names: tuple[str, ...] = (), prec: int = 0) -> str:
    """Print a core term with named binders and explicit mode marks."""
    # prec: 0 lowest (lambda/let/pi), 1 sigma, 2 application, 3 atom
    match t:
        case Var(ix):
            if 0 <= ix < len(names):
                return names[len(names) - 1 - ix]
            return f"@{ix}"
        case Meta(mid, mask):
            args = [pp(Var(len(mask) - 1 - i), names) for i, m in enumerate(mask) if m is not None]
            return f"?{mid}[{', '.join(args)}]" if args else f"?{mid}"
        case Lit(n):
            return succ_chain(n, prec, 2)
        case Constant():
            return _CONSTANT_ROWS[type(t)][0]
        case Succ(arg):
            return _wrap(f"succ {pp(arg, names, 3)}", prec, 2)
        case Fst(mode, pair) | Snd(mode, pair):
            word = "fst" if type(t) is Fst else "snd"
            return _wrap(f"{word}{_mark(mode)} {pp(pair, names, 3)}", prec, 2)
        case NatElim(motive, a, b, c) | BoolElim(motive, a, b, c):
            word = "natElim" if type(t) is NatElim else "boolElim"
            parts = " ".join(pp(u, names, 3) for u in (motive, a, b, c))
            return _wrap(f"{word} {parts}", prec, 2)
        case App(_, icit, fn, arg):
            if icit is Icit.IMPL:
                return _wrap(f"{pp(fn, names, 2)} {{{pp(arg, names, 0)}}}", prec, 2)
            return _wrap(f"{pp(fn, names, 2)} {pp(arg, names, 3)}", prec, 2)
        case Lam(name, mode, icit, body):
            x = _fresh(name, names)
            binder = f"{{{x}}}" if icit is Icit.IMPL else x
            return _wrap(f"λ{_mark(mode)} {binder}. {pp(body, names + (x,), 0)}", prec, 0)
        case Pi(name, mode, icit, dom, cod):
            x = _fresh(name, names)
            if icit is Icit.EXPL and name == "_" and mode is Mode.OMEGA:
                return _wrap(
                    f"{pp(dom, names, 1)} → {pp(cod, names + (x,), 0)}", prec, 0
                )
            open_, close = ("{", "}") if icit is Icit.IMPL else ("(", ")")
            return _wrap(
                f"Π{_mark(mode)} {open_}{x} : {pp(dom, names, 0)}{close}. "
                f"{pp(cod, names + (x,), 0)}",
                prec,
                0,
            )
        case Sigma(name, mode, fst_ty, snd_ty):
            x = _fresh(name, names)
            if name == "_":
                lhs = pp(fst_ty, names, 2)
            else:
                lhs = f"({x} : {pp(fst_ty, names, 0)})"
            return _wrap(f"{lhs} *{_mark(mode)} {pp(snd_ty, names + (x,), 1)}", prec, 0)
        case Pair(mode, fst, snd):
            return f"({pp(fst, names, 0)}, {pp(snd, names, 0)}){_mark(mode)}"
        case Let(name, ty, defn, body):
            x = _fresh(name, names)
            return _wrap(
                f"let {x} : {pp(ty, names, 0)} = {pp(defn, names, 0)} in "
                f"{pp(body, names + (x,), 0)}",
                prec,
                0,
            )
    raise AssertionError(f"unhandled term {t!r}")


def succ_chain(n: int, prec: int, at: int) -> str:
    """The text `succ (succ (... zero))` of the numeral n, built without
    recursion: `succ u` binds at precedence `at`, so it is parenthesised as
    an argument and where `prec` is above `at`."""
    if n == 0:
        return "zero"
    text = "succ " + "(succ " * (n - 1) + "zero" + ")" * (n - 1)
    return _wrap(text, prec, at)


def _wrap(s: str, prec: int, at: int) -> str:
    return f"({s})" if prec > at else s
