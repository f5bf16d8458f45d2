"""The surface printer: `.tt0` text for a surface term or module.

Printing a module and re-parsing it yields an equal `Module`; the round-trip
tests of `test_surface.py` rely on it.  No `tt0` command prints surface
syntax, so the printer lives with the tests.
"""

from __future__ import annotations

from tt0.core import _wrap
from tt0.surface import (
    _PREFIXES,
    Icit,
    Mode,
    Module,
    SApp,
    SConst,
    SHole,
    SLam,
    SLet,
    SNum,
    SPair,
    SPi,
    SSigma,
    Surface,
    SVar,
)

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
