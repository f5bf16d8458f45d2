"""Extraction of runtime terms to an untyped lambda target, plus a fueled
call-by-need evaluator for that target.

Extraction drops everything erased: mode-0 binders and arguments, first
components of mode-0 pairs, motives, and type annotations.  It is defined
only on kernel-checked runtime terms in contexts without the erasure
marker; encountering erased-only syntax at a runtime position is an
internal error, not a user-facing one.
"""

from __future__ import annotations

from . import core as co
from . import jsontext
from .core import Context, Mode, Term, _fresh, _wrap
from .diagnostics import Diagnostic, InternalError
from .record import Record


class Target(Record):
    pass


class TVar(Target):
    ix: int


class TLam(Target, uncompared=("name",)):
    name: str
    body: Target


class TApp(Target):
    fn: Target
    arg: Target


class TPair(Target):
    fst: Target
    snd: Target


class TFst(Target):
    arg: Target


class TSnd(Target):
    arg: Target


class TLit(Target):
    """The numeral n, held as an integer; `TLit(0)` is zero."""

    n: int


class TSucc(Target):
    """The successor of a term; a normal form never has one over a literal."""

    arg: Target


def tsucc(t: Target) -> Target:
    """The successor of a target term, folded when it is a literal."""
    return TLit(t.n + 1) if isinstance(t, TLit) else TSucc(t)


class TNatRec(Target):
    zcase: Target
    scase: Target
    scrut: Target


class TTrue(Target):
    pass


class TFalse(Target):
    pass


class TIf(Target):
    cond: Target
    then: Target
    els: Target


class TLet(Target, uncompared=("name",)):
    name: str
    defn: Target
    body: Target


# ---------------------------------------------------------------------------
# Extraction


def extract_at(modes: tuple[Mode, ...], t: Term) -> Target:
    """Extract `t` under binders of the given modes, oldest first."""
    levels, n = [], 0
    for m in modes:
        levels.append(n if m is Mode.OMEGA else None)
        n += m is Mode.OMEGA
    return _extract(levels, n, t)


def _extract(levels: list[int | None], n: int, t: Term) -> Target:
    """Extract `t` under binders whose runtime levels are `levels` (None for
    an erased one), `n` of them runtime.  `_under` pushes a binder on the
    list for the extraction of its scope, so one list serves every depth."""
    match t:
        case co.Var(ix):
            level = levels[len(levels) - 1 - ix]
            if level is None:
                raise InternalError("erased variable at a runtime position")
            return TVar(n - 1 - level)
        case co.Lam(name, mode, _, body):
            body_t = _under(levels, n, mode is Mode.OMEGA, body)
            return TLam(name, body_t) if mode is Mode.OMEGA else body_t
        case co.App(Mode.OMEGA, _, fn, arg):
            return TApp(_extract(levels, n, fn), _extract(levels, n, arg))
        case co.App(Mode.ZERO, _, fn, _):
            return _extract(levels, n, fn)
        case co.Pair(Mode.OMEGA, fst, snd):
            return TPair(_extract(levels, n, fst), _extract(levels, n, snd))
        case co.Pair(Mode.ZERO, _, snd):
            return _extract(levels, n, snd)
        case co.Fst(Mode.OMEGA, pair):
            return TFst(_extract(levels, n, pair))
        case co.Snd(Mode.OMEGA, pair):
            return TSnd(_extract(levels, n, pair))
        case co.Snd(Mode.ZERO, pair):
            return _extract(levels, n, pair)
        case co.Lit(k):
            return TLit(k)
        case co.Succ(arg):
            return TSucc(_extract(levels, n, arg))
        case co.TrueTm():
            return TTrue()
        case co.FalseTm():
            return TFalse()
        case co.NatElim(_, zcase, scase, scrut):
            return TNatRec(
                _extract(levels, n, zcase),
                _extract(levels, n, scase),
                _extract(levels, n, scrut),
            )
        case co.BoolElim(_, tcase, fcase, scrut):
            return TIf(
                _extract(levels, n, scrut),
                _extract(levels, n, tcase),
                _extract(levels, n, fcase),
            )
        case co.Let(name, _, defn, body):
            return TLet(name, _extract(levels, n, defn), _under(levels, n, True, body))
        case co.Fst(Mode.ZERO, _):
            raise InternalError("erased first projection at a runtime position")
        case co.Constant() | co.Pi() | co.Sigma():
            raise InternalError("type code at a runtime position")
        case co.Meta():
            raise InternalError("metavariable in a term being extracted")
    raise AssertionError(f"unhandled term {t!r}")


def _under(levels: list[int | None], n: int, runtime: bool, body: Term) -> Target:
    """Extract `body` under one more binder, runtime or erased."""
    levels.append(n if runtime else None)
    target = _extract(levels, n + runtime, body)
    levels.pop()
    return target


def extract(ctx: Context, t: Term) -> Target:
    """Extract a kernel-checked runtime term.  The context must not carry
    the erasure marker: there is nothing to run in an erased context."""
    if ctx.flag:
        raise InternalError("cannot extract in a context under the erasure marker")
    return extract_at(tuple(ctx.entry(lvl).mode for lvl in range(ctx.depth)), t)


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
# Call-by-need evaluation with fuel


class FuelExhausted(Diagnostic):
    def __init__(self, redex: Target):
        super().__init__(f"fuel exhausted while reducing {pp_target(redex)}")
        self.redex = redex


class StuckTerm(Diagnostic):
    def __init__(self, message: str, term: Target):
        super().__init__(f"stuck term: {message}: {pp_target(term)}")
        self.term = term


class _Thunk:
    """A term delayed in its environment until forced, then its value."""

    __slots__ = ("env", "term", "value")

    def __init__(self, env: tuple[list, int] | None, term: Target | None, value=None):
        self.env, self.term, self.value = env, term, value


# Values: `TLit`, `TTrue` and `TFalse` stand for themselves; the others hold
# thunks.  `_Ne(level, None)` is a variable bound by readback, and
# `_Ne(head, frame)` an elimination frame stuck on its head.  These are
# slotted classes, not records: the machine needs no `==`, hash or repr.
class _Clo:
    __slots__ = ("env", "lam")
    def __init__(self, env: tuple[list, int], lam: TLam):
        self.env, self.lam = env, lam


class _Pair:
    __slots__ = ("fst", "snd")
    def __init__(self, fst: _Thunk, snd: _Thunk):
        self.fst, self.snd = fst, snd


class _Succ:
    __slots__ = ("arg",)
    def __init__(self, arg: _Thunk):
        self.arg = arg


class _Ne:
    __slots__ = ("head", "frame")
    def __init__(self, head: object, frame: tuple | None):
        self.head, self.frame = head, frame


def _extend(env: tuple[list, int], th: _Thunk) -> tuple[list, int]:
    """`env` with `th` bound innermost.  An environment is a list and its
    length: the list is shared while each extension appends to it, and
    copied only when an environment that is not its whole list extends,
    so extending costs O(1), not the O(n) of copying a tuple."""
    items, n = env
    items = items if len(items) == n else items[:n]
    items.append(th)
    return items, n + 1


def _delay(env: tuple[list, int], t: Target) -> _Thunk:
    """`t` in `env`, unevaluated: a variable shares the thunk it names."""
    if type(t) is TVar:
        return env[0][env[1] - 1 - t.ix]
    if type(t) is TLam:
        return _Thunk(None, None, _Clo(env, t))
    return _Thunk(None, None, t) if type(t) in (TLit, TTrue, TFalse) else _Thunk(env, t)


# The successor case of `natrec z s pred`, in the environment (z, s, pred).
_STEP = TApp(TApp(TVar(1), TVar(0)), TNatRec(TVar(2), TVar(1), TVar(0)))
# The values each frame eliminates, and what is stuck on any other value.
_ELIMINATES = {
    TApp: ((_Clo,), "applying a non-function"),
    TFst: ((_Pair,), "first projection of a non-pair"),
    TSnd: ((_Pair,), "second projection of a non-pair"),
    TNatRec: ((_Succ, TLit), "natural recursion on a non-number"),
    TIf: ((TTrue, TFalse), "conditional on a non-boolean"),
}


class _Machine:
    """A lazy Krivine-style machine (Sestoft's): a control term, its
    environment of thunks, and an explicit stack of frames: `(TApp, arg)`,
    `(TFst,)`, `(TSnd,)`, `(TNatRec, zcase, scase)`, `(TIf, then, else)`
    of thunks, and a thunk to update.  Each β, `let` and ι step spends one
    unit of fuel; `left` below 0 means unbounded, and negative fuel none."""

    def __init__(self, fuel: int | None):
        self.left = -1 if fuel is None else max(fuel, 0)

    def force(self, th: _Thunk, depth: int) -> object:
        """The weak head value of a thunk, written back into it; `depth`
        is the number of binders readback has gone under."""
        if th.value is not None:
            return th.value
        left, stack = self.left, [th]
        env, t = th.env, th.term
        while True:
            tt = type(t)
            if tt is TVar:
                th = env[0][env[1] - 1 - t.ix]
                if th.value is None:
                    stack.append(th)
                    env, t = th.env, th.term
                    continue
                v = th.value
            elif tt is TApp:
                stack.append((TApp, _delay(env, t.arg)))
                t = t.fn
                continue
            elif tt is TLet:
                if left == 0:
                    raise FuelExhausted(self.quote(_Thunk(env, t), depth, False))
                left -= 1
                env, t = _extend(env, _delay(env, t.defn)), t.body
                continue
            elif tt is TFst or tt is TSnd:
                stack.append((tt,))
                t = t.arg
                continue
            elif tt is TNatRec or tt is TIf:
                a, b, t = (t.zcase, t.scase, t.scrut) if tt is TNatRec else (t.then, t.els, t.cond)
                stack.append((tt, _delay(env, a), _delay(env, b)))
                continue
            elif tt is TLam:
                v = _Clo(env, t)
            elif tt is TPair:
                v = _Pair(_delay(env, t.fst), _delay(env, t.snd))
            elif tt is TSucc:
                v = _Succ(_delay(env, t.arg))
            else:
                v = t
            while True:  # return v to the frames on the stack
                f = stack.pop()
                if type(f) is _Thunk:
                    f.env = f.term = None
                    f.value = v
                    if stack:
                        continue
                    self.left = left
                    return v
                tag, tv = f[0], type(v)
                if tv is _Ne:
                    v = _Ne(v, f)
                    continue
                accepts, stuck = _ELIMINATES[tag]
                if left == 0 or tv not in accepts:
                    redex = self.quote(_Thunk(None, None, _Ne(v, f)), depth, False)
                    raise FuelExhausted(redex) if tv in accepts else StuckTerm(stuck, redex)
                left -= 1
                if tag is TApp:
                    env, t = _extend(v.env, f[1]), v.lam.body
                    break
                if tv is _Succ or tv is TLit and v.n > 0:
                    pred = v.arg if tv is _Succ else _Thunk(None, None, TLit(v.n - 1))
                    env, t = ([f[1], f[2], pred], 3), _STEP
                elif tag is TFst or tag is TSnd:
                    env, t = ([v.fst if tag is TFst else v.snd], 1), TVar(0)
                else:  # natrec at zero, or a conditional
                    env, t = ([f[2] if tv is TFalse else f[1]], 1), TVar(0)
                break

    def quote(self, th: _Thunk, depth: int, force: bool = True) -> Target:
        """Read a thunk back as a target term, under `depth` binders, with
        an explicit stack of work.  With `force` off nothing is evaluated:
        thunks not yet forced are read back as their terms."""
        out: list[Target] = []
        todo: list = [(depth, th)]
        while todo:
            d, x = todo.pop()
            if type(d) is not int:  # build a node from the last x results
                args = out[len(out) - x :]
                del out[len(out) - x :]
                out.append(d(*args))
                continue
            if force:
                v = self.force(x, d)
            elif x.value is not None:
                v = x.value
            else:  # its term, with the same environment (never a variable)
                t, env, var = x.term, x.env, _Thunk(None, None, _Ne(d, None))
                kids = [k for k in t.__match_args__ if isinstance(getattr(t, k), Target)]
                todo.append((lambda *ks, t=t, kids=kids: t.replace(**dict(zip(kids, ks))), len(kids)))
                for k in reversed(kids):  # only `TLam` and `TLet` have a body
                    under = k == "body"
                    todo.append((d + under, _delay(_extend(env, var) if under else env, getattr(t, k))))
                continue
            tv = type(v)
            if tv is _Clo:
                todo.append((lambda b, name=v.lam.name: TLam(name, b), 1))
                var = _Thunk(None, None, _Ne(d, None))
                todo.append((d + 1, _delay(_extend(v.env, var), v.lam.body)))
            elif tv is _Pair:
                todo += [(TPair, 2), (d, v.snd), (d, v.fst)]
            elif tv is _Succ:
                todo += [(tsucc, 1), (d, v.arg)]
            elif tv is not _Ne or v.frame is None:
                out.append(v if tv is not _Ne else TVar(d - 1 - v.head))
            else:  # the head, then the frame's thunks
                f = v.frame
                build = f[0] if f[0] is not TNatRec else lambda n, z, s: TNatRec(z, s, n)
                todo += [(build, len(f)), *((d, th) for th in reversed(f[1:]))]
                todo.append((d, _Thunk(None, None, v.head)))
        return out[0]


DEFAULT_FUEL = 1_000_000


def eval_target(t: Target, fuel: int | None = DEFAULT_FUEL) -> Target:
    """Call-by-need evaluation to normal form: weak head evaluation of the
    closed term `t` by `_Machine`, then readback under binders.  Each β,
    `let` and ι step costs one unit of fuel; `fuel=None` means unbounded."""
    return _Machine(fuel).quote(_Thunk(([], 0), t), 0)


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


jsontext.TAGS.update({
    TVar: "Var", TLam: "Lam", TApp: "App", TPair: "Pair", TFst: "Fst", TSnd: "Snd",
    TLit: "zero", TSucc: "succ", TNatRec: "natrec", TTrue: "true", TFalse: "false",
    TIf: "if", TLet: "let",
})


def target_from_json(d: dict) -> Target:
    """The target term of the JSON object `json.loads` reads from the text
    `jsontext.to_json` wrote, built without recursion.  `succ` of a literal
    folds to a literal."""
    classes = {
        tag: (c, [k for _, k in jsontext.fields(c)])
        for c, tag in jsontext.TAGS.items()
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
