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
from .core import OMEGA, ZERO, Context, Mode, Term, _fresh, _wrap
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


def tsucc(t: Target, k: int = 1) -> Target:
    """The `k`-th successor of a target term, folded when it is a literal."""
    if isinstance(t, TLit):
        return TLit(t.n + k)
    for _ in range(k):
        t = TSucc(t)
    return t


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
        levels.append(n if m is OMEGA else None)
        n += m is OMEGA
    return _extract(levels, n, t)


def _extract(levels: list[int | None], n: int, t: Term) -> Target:
    """Extract `t` under binders whose runtime levels are `levels` (None for
    an erased one), `n` of them runtime.  `_under` pushes a binder on the
    list for the extraction of its scope, so one list serves every depth."""
    tt = type(t)
    if tt is co.Var:
        level = levels[len(levels) - 1 - t.ix]
        if level is None:
            raise InternalError("erased variable at a runtime position")
        return TVar(n - 1 - level)
    if tt is co.App:
        fn = _extract(levels, n, t.fn)
        return TApp(fn, _extract(levels, n, t.arg)) if t.mode is OMEGA else fn
    if tt is co.Lam:
        body_t = _under(levels, n, t.mode is OMEGA, t.body)
        return TLam(t.name, body_t) if t.mode is OMEGA else body_t
    if tt is co.Lit:
        return TLit(t.n)
    if tt is co.Let:
        return TLet(t.name, _extract(levels, n, t.defn), _under(levels, n, True, t.body))
    if tt is co.Succ:
        return TSucc(_extract(levels, n, t.arg))
    if tt is co.NatElim or tt is co.BoolElim:
        a, b, scrut = [_extract(levels, n, getattr(t, k)) for k in tt.__match_args__[1:]]
        return TNatRec(a, b, scrut) if tt is co.NatElim else TIf(scrut, a, b)
    if tt is co.TrueTm or tt is co.FalseTm:
        return TTrue() if tt is co.TrueTm else TFalse()
    if tt is co.Pair:
        if t.mode is ZERO:
            return _extract(levels, n, t.snd)
        return TPair(_extract(levels, n, t.fst), _extract(levels, n, t.snd))
    if tt is co.Fst or tt is co.Snd:
        if t.mode is OMEGA:
            return (TFst if tt is co.Fst else TSnd)(_extract(levels, n, t.pair))
        if tt is co.Snd:
            return _extract(levels, n, t.pair)
        raise InternalError("erased first projection at a runtime position")
    if tt in co._CONSTANT_ROWS or tt is co.Pi or tt is co.Sigma:
        raise InternalError("type code at a runtime position")
    if tt is co.Meta:
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
    names do not compare), on an explicit stack, so that how deep a tree
    may be is bounded by memory."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a.__class__ is not b.__class__:
            return False
        for f in a._compared:
            x, y = getattr(a, f), getattr(b, f)
            if isinstance(x, Target):
                todo.append((x, y))
            elif x != y:
                return False
    return True


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


_NATREC = TNatRec(TVar(2), TVar(1), TVar(0))  # in the environment (z, s, pred)
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
    of thunks, and a thunk to update.  An ι-step on `succ pred` pushes
    `(TApp, natrec z s pred)` and `(TApp, pred)`, then goes on with `s`.
    Each β, `let` and ι step spends one unit of fuel; `left` below 0
    means unbounded, and negative fuel none."""

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
                if tv is _Succ or tv is TLit and v.n > 0:  # s pred (natrec z s pred)
                    pred = v.arg if tv is _Succ else _Thunk(None, None, TLit(v.n - 1))
                    stack += (TApp, _Thunk(([f[1], f[2], pred], 3), _NATREC)), (TApp, pred)
                    th = f[2]
                elif tag is TFst or tag is TSnd:
                    th = v.fst if tag is TFst else v.snd
                else:  # natrec at zero, or a conditional
                    th = f[2] if tv is TFalse else f[1]
                if th.value is None:  # continue with the chosen thunk
                    stack.append(th)
                    env, t = th.env, th.term
                    break
                v = th.value

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
            elif tv is _Succ:  # the chain in one loop, built at its base
                k = 0
                while type(v) is _Succ:
                    x, k = v.arg, k + 1
                    v = self.force(x, d) if force else x.value
                todo += [(lambda b, k=k: tsucc(b, k), 1), (d, x)]
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
    """The text of a target term, on an explicit stack of work, so that how
    deep a term may be is bounded by memory.  Each node pushes the pieces of
    its text in order, strings and the parts still to print, so the text is
    joined once at the end."""
    # prec: 0 lowest (lambda, let), 1 application, 2 atom
    out: list[str] = []
    todo: list = [(t, names, prec)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, names, prec = item
        tt = type(t)
        if tt is TVar:
            out.append(names[len(names) - 1 - t.ix] if 0 <= t.ix < len(names) else f"@{t.ix}")
            continue
        if tt is TLit:
            out.append(co.succ_chain(t.n, prec, 1))
            continue
        if tt is TTrue or tt is TFalse:
            out.append("true" if tt is TTrue else "false")
            continue
        if tt is TApp:
            at, seq = 1, [(t.fn, names, 1), " ", (t.arg, names, 2)]
        elif tt is TLam or tt is TLet:
            x = _fresh(t.name, names)
            body = (t.body, names + (x,), 0)
            if tt is TLam:
                at, seq = 0, [f"\\{x}. ", body]
            else:
                at, seq = 0, [f"let {x} = ", (t.defn, names, 0), " in ", body]
        elif tt is TPair:
            at, seq = 2, ["(", (t.fst, names, 0), ", ", (t.snd, names, 0), ")"]
        elif tt is TSucc:  # a chain in one loop, as `core.pp` prints one
            k = 0
            while type(t) is TSucc:
                t, k = t.arg, k + 1
            at, seq = 1, ["succ " + "(succ " * (k - 1), (t, names, 2), ")" * (k - 1)]
        elif tt is TFst or tt is TSnd:
            at, seq = 1, ["fst " if tt is TFst else "snd ", (t.arg, names, 2)]
        elif tt is TNatRec or tt is TIf:  # a keyword and three atoms
            at, seq = 1, ["natrec" if tt is TNatRec else "if"]
            for k in tt.__match_args__:
                seq += (" ", (getattr(t, k), names, 2))
        else:
            raise AssertionError(f"unhandled target term {t!r}")
        if prec > at:
            seq = ["(", *seq, ")"]
        todo += reversed(seq)
    return "".join(out)


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
