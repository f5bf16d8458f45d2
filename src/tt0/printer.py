"""The text of core and target terms: one loop on an explicit stack of work,
so how deep a term may be is bounded by memory, not by the Python stack.
`tt0.core` binds the core printer `pp` for the kernel's messages."""

from __future__ import annotations

from .core import _CONSTANT_ROWS, EXPL, IMPL, OMEGA, ZERO, App, BoolElim, Fst, Lam, Let, Lit
from .core import Meta, NatElim, Pair, Pi, Sigma, Snd, Succ, Term, Var


def show(t: object, names: tuple[str, ...], prec: int, pieces) -> str:
    """The text of `t` at precedence `prec` with `names` in scope, innermost
    last.  `pieces(t, name, fresh)` gives a leaf's text, or the node's
    precedence (higher binds tighter) and its pieces: strings, `(child, prec)`,
    and `[x, child, prec]` for a child under the binder `x`."""
    def split(x: str) -> tuple[str, int]:  # `x''` is ("x", 2): no prime tried rehashes `x`
        base = x.rstrip("'")
        return base, len(x) - len(base)

    scope = list(names)
    outer = set(names)  # these never leave scope
    counts: dict[tuple[str, int], int] = {}  # the split names of the binders in scope

    def name(ix: int) -> str:  # the variable of de Bruijn index `ix`
        return scope[-1 - ix] if 0 <= ix < len(scope) else f"@{ix}"

    def fresh(x: str) -> str:  # `x` primed until no name in scope is `x`; `_` stays
        base, primes = split(x)
        while x != "_" and (counts.get((base, primes)) or base + "'" * primes in outer):
            primes += 1
        return base + "'" * primes

    out: list[str] = []
    todo: list = [(t, prec)]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
        elif kind is tuple:
            got = pieces(item[0], name, fresh)
            if type(got) is str:
                out.append(got)
                continue
            at, seq = got
            if item[1] > at:
                out.append("(")
                todo.append(")")
            todo += reversed(seq)
        elif kind is list:  # enter a binder's scope, and leave it after its child
            x, child, prec = item
            scope.append(x)
            counts[split(x)] = counts.get(split(x), 0) + 1
            todo += (None, (child, prec))
        else:
            counts[split(scope.pop())] -= 1
    return "".join(out)


def pp(t: Term, names: tuple[str, ...] = (), prec: int = 0) -> str:
    """Print a core term with named binders and explicit mode marks."""
    return show(t, names, prec, _core_pieces)


def _core_pieces(t: Term, name, fresh):
    # prec: 0 lowest (lambda/let/pi), 1 sigma, 2 application, 3 atom
    tt = type(t)
    if tt is Var:
        return name(t.ix)
    if tt is App:
        if t.icit is IMPL:
            return 2, [(t.fn, 2), " {", (t.arg, 0), "}"]
        return 2, [(t.fn, 2), " ", (t.arg, 3)]
    if tt is Succ or tt is Lit:  # `succ t` on a literal prints as one literal more
        k = 0
        while type(t) is Succ:
            t, k = t.arg, k + 1
        k, base = (k + t.n, "zero") if type(t) is Lit else (k, (t, 3))
        return (2, ["succ " + "(succ " * (k - 1), base, ")" * (k - 1)]) if k else "zero"
    if tt in _CONSTANT_ROWS:
        return _CONSTANT_ROWS[tt][0]
    if tt is Meta:
        args = [name(len(t.mask) - 1 - i) for i, m in enumerate(t.mask) if m is not None]
        return f"?{t.mid}[{', '.join(args)}]" if args else f"?{t.mid}"
    if tt is NatElim or tt is BoolElim:
        seq = ["natElim" if tt is NatElim else "boolElim"]
        for k in tt.__match_args__:
            seq += (" ", (getattr(t, k), 3))
        return 2, seq
    mark = "₀" if getattr(t, "mode", None) is ZERO else ""  # on an erased former
    if tt is Fst or tt is Snd:
        return 2, [f"{'fst' if tt is Fst else 'snd'}{mark} ", (t.pair, 3)]
    if tt is Pair:
        return 3, ["(", (t.fst, 0), ", ", (t.snd, 0), f"){mark}"]
    x = fresh(t.name)  # Lam, Pi, Sigma and Let bind a name
    if tt is Pi:
        if t.icit is EXPL and t.name == "_" and t.mode is OMEGA:
            return 0, [(t.dom, 1), " → ", [x, t.cod, 0]]
        open_, close = ("{", "}") if t.icit is IMPL else ("(", ")")
        return 0, [f"Π{mark} {open_}{x} : ", (t.dom, 0), f"{close}. ", [x, t.cod, 0]]
    if tt is Lam:
        return 0, [f"λ{mark} {{{x}}}. " if t.icit is IMPL else f"λ{mark} {x}. ", [x, t.body, 0]]
    if tt is Sigma:
        lhs = [(t.fst_ty, 2)] if t.name == "_" else [f"({x} : ", (t.fst_ty, 0), ")"]
        return 0, [*lhs, f" *{mark} ", [x, t.snd_ty, 1]]
    if tt is Let:
        return 0, [f"let {x} : ", (t.ty, 0), " = ", (t.defn, 0), " in ", [x, t.body, 0]]
    raise AssertionError(f"unhandled term {t!r}")
