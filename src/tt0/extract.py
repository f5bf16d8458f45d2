"""Extraction of runtime terms to an untyped lambda target, plus a fueled
normal-order evaluator for that target.

Extraction drops everything erased: mode-0 binders and arguments, first
components of mode-0 pairs, motives, and type annotations.  It is defined
only on kernel-checked runtime terms in contexts without the erasure
marker; encountering erased-only syntax at a runtime position is an
internal error, not a user-facing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core as co
from .core import Context, Term, _fresh, _wrap
from .diagnostics import Diagnostic, InternalError
from .surface import Mode


@dataclass(frozen=True)
class Target:
    pass


@dataclass(frozen=True)
class TVar(Target):
    ix: int


@dataclass(frozen=True)
class TLam(Target):
    name: str = field(compare=False)
    body: Target


@dataclass(frozen=True)
class TApp(Target):
    fn: Target
    arg: Target


@dataclass(frozen=True)
class TPair(Target):
    fst: Target
    snd: Target


@dataclass(frozen=True)
class TFst(Target):
    arg: Target


@dataclass(frozen=True)
class TSnd(Target):
    arg: Target


@dataclass(frozen=True)
class TLit(Target):
    """The numeral n, held as an integer; `TLit(0)` is zero."""

    n: int


@dataclass(frozen=True)
class TSucc(Target):
    """The successor of a term; a normal form never has one over a literal."""

    arg: Target


def tsucc(t: Target) -> Target:
    """The successor of a target term, folded when it is a literal."""
    return TLit(t.n + 1) if isinstance(t, TLit) else TSucc(t)


@dataclass(frozen=True)
class TNatRec(Target):
    zcase: Target
    scase: Target
    scrut: Target


@dataclass(frozen=True)
class TTrue(Target):
    pass


@dataclass(frozen=True)
class TFalse(Target):
    pass


@dataclass(frozen=True)
class TIf(Target):
    cond: Target
    then: Target
    els: Target


@dataclass(frozen=True)
class TLet(Target):
    name: str = field(compare=False)
    defn: Target
    body: Target


# ---------------------------------------------------------------------------
# Extraction


def runtime_index(modes: tuple[Mode, ...], level: int) -> int:
    """Target index of the binder at `level`: the number of runtime binders
    introduced after it."""
    if modes[level] is not Mode.OMEGA:
        raise InternalError("erased binder has no runtime index")
    return sum(1 for m in modes[level + 1 :] if m is Mode.OMEGA)


def extract_at(modes: tuple[Mode, ...], t: Term) -> Target:
    match t:
        case co.Var(ix):
            level = len(modes) - 1 - ix
            if modes[level] is Mode.ZERO:
                raise InternalError("erased variable at a runtime position")
            return TVar(runtime_index(modes, level))
        case co.Lam(name, Mode.OMEGA, _, body):
            return TLam(name, extract_at(modes + (Mode.OMEGA,), body))
        case co.Lam(_, Mode.ZERO, _, body):
            return extract_at(modes + (Mode.ZERO,), body)
        case co.App(Mode.OMEGA, _, fn, arg):
            return TApp(extract_at(modes, fn), extract_at(modes, arg))
        case co.App(Mode.ZERO, _, fn, _):
            return extract_at(modes, fn)
        case co.Pair(Mode.OMEGA, fst, snd):
            return TPair(extract_at(modes, fst), extract_at(modes, snd))
        case co.Pair(Mode.ZERO, _, snd):
            return extract_at(modes, snd)
        case co.Fst(Mode.OMEGA, pair):
            return TFst(extract_at(modes, pair))
        case co.Snd(Mode.OMEGA, pair):
            return TSnd(extract_at(modes, pair))
        case co.Snd(Mode.ZERO, pair):
            return extract_at(modes, pair)
        case co.Lit(n):
            return TLit(n)
        case co.Succ(arg):
            return TSucc(extract_at(modes, arg))
        case co.TrueTm():
            return TTrue()
        case co.FalseTm():
            return TFalse()
        case co.NatElim(_, zcase, scase, scrut):
            return TNatRec(
                extract_at(modes, zcase),
                extract_at(modes, scase),
                extract_at(modes, scrut),
            )
        case co.BoolElim(_, tcase, fcase, scrut):
            return TIf(
                extract_at(modes, scrut),
                extract_at(modes, tcase),
                extract_at(modes, fcase),
            )
        case co.Let(name, _, defn, body):
            return TLet(
                name, extract_at(modes, defn), extract_at(modes + (Mode.OMEGA,), body)
            )
        case co.Fst(Mode.ZERO, _):
            raise InternalError("erased first projection at a runtime position")
        case co.Univ() | co.NatTy() | co.BoolTy() | co.Pi() | co.Sigma():
            raise InternalError("type code at a runtime position")
        case co.Meta() | co.InsertedMeta():
            raise InternalError("metavariable in a term being extracted")
    raise AssertionError(f"unhandled term {t!r}")


def extract(ctx: Context, t: Term) -> Target:
    """Extract a kernel-checked runtime term.  The context must not carry
    the erasure marker: there is nothing to run in an erased context."""
    if ctx.flag:
        raise InternalError("cannot extract in a context under the erasure marker")
    return extract_at(tuple(e.mode for e in ctx.entries), t)


# ---------------------------------------------------------------------------
# Numerals


def as_numeral(t: Target) -> int | None:
    k = 0
    while isinstance(t, TSucc):
        k += 1
        t = t.arg
    return k + t.n if isinstance(t, TLit) else None


def alpha_eq(a: Target, b: Target) -> bool:
    """Alpha equivalence: structural equality of the de Bruijn trees (binder
    names do not compare)."""
    return a == b


# ---------------------------------------------------------------------------
# Normal-order evaluation with fuel


class FuelExhausted(Diagnostic):
    def __init__(self, redex: Target):
        super().__init__(f"fuel exhausted while reducing {pp_target(redex)}")
        self.redex = redex


class StuckTerm(Diagnostic):
    def __init__(self, message: str, term: Target):
        super().__init__(f"stuck term: {message}: {pp_target(term)}")
        self.term = term


def _shift(t: Target, by: int, cutoff: int = 0) -> Target:
    if by == 0:
        return t
    match t:
        case TVar(ix):
            return TVar(ix + by) if ix >= cutoff else t
        case TLam(name, body):
            return TLam(name, _shift(body, by, cutoff + 1))
        case TApp(fn, arg):
            return TApp(_shift(fn, by, cutoff), _shift(arg, by, cutoff))
        case TPair(fst, snd):
            return TPair(_shift(fst, by, cutoff), _shift(snd, by, cutoff))
        case TFst(arg):
            return TFst(_shift(arg, by, cutoff))
        case TSnd(arg):
            return TSnd(_shift(arg, by, cutoff))
        case TSucc(arg):
            return TSucc(_shift(arg, by, cutoff))
        case TNatRec(z, s, n):
            return TNatRec(
                _shift(z, by, cutoff), _shift(s, by, cutoff), _shift(n, by, cutoff)
            )
        case TIf(c, a, b):
            return TIf(
                _shift(c, by, cutoff), _shift(a, by, cutoff), _shift(b, by, cutoff)
            )
        case TLet(name, d, body):
            return TLet(name, _shift(d, by, cutoff), _shift(body, by, cutoff + 1))
        case _:
            return t


def _subst(t: Target, arg: Target, depth: int = 0) -> Target:
    """Substitute `arg` for index `depth` in t, lowering the indices above."""
    match t:
        case TVar(ix):
            if ix == depth:
                return _shift(arg, depth)
            return TVar(ix - 1) if ix > depth else t
        case TLam(name, body):
            return TLam(name, _subst(body, arg, depth + 1))
        case TApp(fn, a):
            return TApp(_subst(fn, arg, depth), _subst(a, arg, depth))
        case TPair(fst, snd):
            return TPair(_subst(fst, arg, depth), _subst(snd, arg, depth))
        case TFst(a):
            return TFst(_subst(a, arg, depth))
        case TSnd(a):
            return TSnd(_subst(a, arg, depth))
        case TSucc(a):
            return TSucc(_subst(a, arg, depth))
        case TNatRec(z, s, n):
            return TNatRec(
                _subst(z, arg, depth), _subst(s, arg, depth), _subst(n, arg, depth)
            )
        case TIf(c, a, b):
            return TIf(
                _subst(c, arg, depth), _subst(a, arg, depth), _subst(b, arg, depth)
            )
        case TLet(name, d, body):
            return TLet(name, _subst(d, arg, depth), _subst(body, arg, depth + 1))
        case _:
            return t


class _Fuel:
    def __init__(self, amount: int | None):
        self.left = amount

    def spend(self, redex: Target) -> None:
        if self.left is None:
            return
        if self.left <= 0:
            raise FuelExhausted(redex)
        self.left -= 1


_CONSTRUCTORS = (TLam, TPair, TLit, TSucc, TTrue, TFalse)


def _whnf(t: Target, fuel: _Fuel) -> Target:
    while True:
        match t:
            case TApp(fn, arg):
                fn = _whnf(fn, fuel)
                if isinstance(fn, TLam):
                    fuel.spend(t)
                    t = _subst(fn.body, arg)
                elif isinstance(fn, _CONSTRUCTORS):
                    raise StuckTerm("applying a non-function", TApp(fn, arg))
                else:
                    return TApp(fn, arg)
            case TLet(_, d, body):
                fuel.spend(t)
                t = _subst(body, d)
            case TFst(arg):
                arg = _whnf(arg, fuel)
                if isinstance(arg, TPair):
                    fuel.spend(t)
                    t = arg.fst
                elif isinstance(arg, _CONSTRUCTORS):
                    raise StuckTerm("first projection of a non-pair", TFst(arg))
                else:
                    return TFst(arg)
            case TSnd(arg):
                arg = _whnf(arg, fuel)
                if isinstance(arg, TPair):
                    fuel.spend(t)
                    t = arg.snd
                elif isinstance(arg, _CONSTRUCTORS):
                    raise StuckTerm("second projection of a non-pair", TSnd(arg))
                else:
                    return TSnd(arg)
            case TNatRec(z, s, n):
                n = _whnf(n, fuel)
                if n == TLit(0):
                    fuel.spend(t)
                    t = z
                elif isinstance(n, (TLit, TSucc)):
                    fuel.spend(t)
                    pred = TLit(n.n - 1) if isinstance(n, TLit) else n.arg
                    t = TApp(TApp(s, pred), TNatRec(z, s, pred))
                elif isinstance(n, _CONSTRUCTORS):
                    raise StuckTerm(
                        "natural recursion on a non-number", TNatRec(z, s, n)
                    )
                else:
                    return TNatRec(z, s, n)
            case TIf(c, a, b):
                c = _whnf(c, fuel)
                if isinstance(c, TTrue):
                    fuel.spend(t)
                    t = a
                elif isinstance(c, TFalse):
                    fuel.spend(t)
                    t = b
                elif isinstance(c, _CONSTRUCTORS):
                    raise StuckTerm("conditional on a non-boolean", TIf(c, a, b))
                else:
                    return TIf(c, a, b)
            case _:
                return t


def _nf(t: Target, fuel: _Fuel) -> Target:
    t = _whnf(t, fuel)
    match t:
        case TLam(name, body):
            return TLam(name, _nf(body, fuel))
        case TApp(fn, arg):
            return TApp(_nf(fn, fuel), _nf(arg, fuel))
        case TPair(fst, snd):
            return TPair(_nf(fst, fuel), _nf(snd, fuel))
        case TFst(arg):
            return TFst(_nf(arg, fuel))
        case TSnd(arg):
            return TSnd(_nf(arg, fuel))
        case TSucc(arg):
            return tsucc(_nf(arg, fuel))
        case TNatRec(z, s, n):
            return TNatRec(_nf(z, fuel), _nf(s, fuel), _nf(n, fuel))
        case TIf(c, a, b):
            return TIf(_nf(c, fuel), _nf(a, fuel), _nf(b, fuel))
        case _:
            return t


DEFAULT_FUEL = 1_000_000


def eval_target(t: Target, fuel: int | None = DEFAULT_FUEL) -> Target:
    """Normal-order beta normalisation with primitive reduction steps; each
    rewrite costs one unit of fuel.  `fuel=None` means unbounded."""
    return _nf(t, _Fuel(fuel))


# ---------------------------------------------------------------------------
# Printing and JSON


def pp_target(t: Target, names: tuple[str, ...] = (), prec: int = 0) -> str:
    # prec: 0 lowest (lambda, let), 1 application, 2 atom
    match t:
        case TVar(ix):
            if 0 <= ix < len(names):
                return names[len(names) - 1 - ix]
            return f"@{ix}"
        case TLit(n):
            return co.succ_chain(n, prec, 1)
        case TTrue():
            return "true"
        case TFalse():
            return "false"
        case TLam(name, body):
            x = _fresh(name, names)
            return _wrap(f"\\{x}. {pp_target(body, names + (x,), 0)}", prec, 0)
        case TApp(fn, arg):
            return _wrap(
                f"{pp_target(fn, names, 1)} {pp_target(arg, names, 2)}", prec, 1
            )
        case TPair(fst, snd):
            return f"({pp_target(fst, names, 0)}, {pp_target(snd, names, 0)})"
        case TFst(arg):
            return _wrap(f"fst {pp_target(arg, names, 2)}", prec, 1)
        case TSnd(arg):
            return _wrap(f"snd {pp_target(arg, names, 2)}", prec, 1)
        case TSucc(arg):
            return _wrap(f"succ {pp_target(arg, names, 2)}", prec, 1)
        case TNatRec(z, s, n):
            parts = " ".join(pp_target(u, names, 2) for u in (z, s, n))
            return _wrap(f"natrec {parts}", prec, 1)
        case TIf(c, a, b):
            parts = " ".join(pp_target(u, names, 2) for u in (c, a, b))
            return _wrap(f"if {parts}", prec, 1)
        case TLet(name, d, body):
            x = _fresh(name, names)
            return _wrap(
                f"let {x} = {pp_target(d, names, 0)} in "
                f"{pp_target(body, names + (x,), 0)}",
                prec,
                0,
            )
    raise AssertionError(f"unhandled target term {t!r}")


co.JSON_TAGS.update({
    TVar: "Var", TLam: "Lam", TApp: "App", TPair: "Pair", TFst: "Fst", TSnd: "Snd",
    TLit: "zero", TSucc: "succ", TNatRec: "natrec", TTrue: "true", TFalse: "false",
    TIf: "if", TLet: "let",
})

target_to_json = co.to_json


def target_from_json(d: dict) -> Target:
    """The target term whose JSON object `target_to_json` wrote, built
    without recursion.  `succ` of a literal folds to a literal."""
    classes = {
        tag: (c, [k for _, k in co._json_fields(c)])
        for c, tag in co.JSON_TAGS.items()
        if issubclass(c, Target)
    }
    order, todo = [], [d]
    while todo:  # every object before the objects inside it
        order.append(todo.pop())
        todo += [v for v in order[-1].values() if isinstance(v, dict)]
    built: dict[int, Target] = {}
    for d in reversed(order):
        if d["tag"] not in classes:
            raise ValueError(f"unknown target tag {d['tag']!r}")
        cls, keys = classes[d["tag"]]
        if cls is TLit:
            built[id(d)] = TLit(0)
            continue
        args = [built[id(d[k])] if isinstance(d[k], dict) else d[k] for k in keys]
        built[id(d)] = tsucc(*args) if cls is TSucc else cls(*args)
    return built[id(order[0])]
