"""Pins of what every record class does, checkable without pytest.

`check(key)` builds one instance of the record class `key` of `MODULES`,
its fields 1, 2, … in order, and checks it against the tables below: its
`repr`, its `hash`, `vars`, `replace`, assignment and deletion, and the
field defaults.  `main()` checks every class and prints one line for each,
so that `tests/test_record_pins.py` can run it in a child process under
every declared interpreter:

    python -c "import sys; sys.path[:0] = ['src', 'tests']; import record_pins; record_pins.main()"
"""

from __future__ import annotations

import importlib
import inspect

from tt0.core import _NO_DECLS
from tt0.surface import Icit, Mode

MODULES = ["diagnostics", "surface", "core", "unify", "elab", "translate", "extract"]

# The `repr` of each class's instance and the values of its compared
# fields, whose tuple its `hash` is; a record with no compared field
# hashes its class.
PINNED = {
    "core.App": ("App(mode=1, icit=2, fn=3, arg=4)", (1, 2, 3, 4)),
    "core.BoolElim": ("BoolElim(motive=1, tcase=2, fcase=3, scrut=4)", (1, 2, 3, 4)),
    "core.BoolTy": ("BoolTy()", ()),
    "core.Closure": ("Closure(env=1, body=2)", (1, 2)),
    "core.Constant": ("Constant()", ()),
    "core.Context": ("Context(sig=1, local=2, env=3, flag=4)", (1, 2, 3, 4)),
    "core.CtxEntry": ("CtxEntry(name=1, mode=2, ty=3, defined=4)", (1, 2, 3, 4)),
    "core.FalseTm": ("FalseTm()", ()),
    "core.Fst": ("Fst(mode=1, pair=2)", (1, 2)),
    "core.Lam": ("Lam(name=1, mode=2, icit=3, body=4)", (2, 3, 4)),
    "core.Let": ("Let(name=1, ty=2, defn=3, body=4)", (2, 3, 4)),
    "core.Lit": ("Lit(n=1)", (1,)),
    "core.Meta": ("Meta(mid=1, mask=2)", (1, 2)),
    "core.MetaH": ("MetaH(mid=1)", (1,)),
    "core.NatElim": ("NatElim(motive=1, zcase=2, scase=3, scrut=4)", (1, 2, 3, 4)),
    "core.NatTy": ("NatTy()", ()),
    "core.Pair": ("Pair(mode=1, fst=2, snd=3)", (1, 2, 3)),
    "core.Pi": ("Pi(name=1, mode=2, icit=3, dom=4, cod=5)", (2, 3, 4, 5)),
    "core.SApp": ("SApp(mode=1, icit=2, arg=3)", (1, 2, 3)),
    "core.SBoolElim": ("SBoolElim(motive=1, tcase=2, fcase=3)", (1, 2, 3)),
    "core.SFst": ("SFst(mode=1)", (1,)),
    "core.SNatElim": ("SNatElim(motive=1, zcase=2, scase=3)", (1, 2, 3)),
    "core.SSnd": ("SSnd(mode=1)", (1,)),
    "core.Sigma": ("Sigma(name=1, mode=2, fst_ty=3, snd_ty=4)", (2, 3, 4)),
    "core.Snd": ("Snd(mode=1, pair=2)", (1, 2)),
    "core.Succ": ("Succ(arg=1)", (1,)),
    "core.Term": ("Term()", ()),
    "core.TrueTm": ("TrueTm()", ()),
    "core.Univ": ("Univ()", ()),
    "core.VLam": ("VLam(name=1, mode=2, icit=3, clos=4)", (2, 3, 4)),
    "core.VNeutral": ("VNeutral(head=1, spine=2)", (1, 2)),
    "core.VPair": ("VPair(mode=1, fst=2, snd=3)", (1, 2, 3)),
    "core.VPi": ("VPi(name=1, mode=2, icit=3, dom=4, cod=5)", (2, 3, 4, 5)),
    "core.VSigma": ("VSigma(name=1, mode=2, fst_ty=3, snd_ty=4)", (2, 3, 4)),
    "core.VSucc": ("VSucc(arg=1)", (1,)),
    "core.Value": ("Value()", ()),
    "core.Var": ("Var(ix=1)", (1,)),
    "core.VarH": ("VarH(lvl=1)", (1,)),
    "diagnostics.SourceSpan": (
        "SourceSpan(file=1, start_line=2, start_col=3, end_line=4, end_col=5)",
        (1, 2, 3, 4, 5),
    ),
    "elab.DeclInfo": (
        "DeclInfo(name=1, span=2, ty=3, body=4, ty_value=5, body_thunk=6)",
        (1, 2, 3, 4, 5, 6),
    ),
    "elab.ElabResult": ("ElabResult(decls=1, main=2, store=3, sig=4, errors=5)", (1, 2, 3, 4, 5)),
    "extract.TApp": ("TApp(fn=1, arg=2)", (1, 2)),
    "extract.TFalse": ("TFalse()", ()),
    "extract.TFst": ("TFst(arg=1)", (1,)),
    "extract.TIf": ("TIf(cond=1, then=2, els=3)", (1, 2, 3)),
    "extract.TLam": ("TLam(name=1, body=2)", (2,)),
    "extract.TLet": ("TLet(name=1, defn=2, body=3)", (2, 3)),
    "extract.TLit": ("TLit(n=1)", (1,)),
    "extract.TNatRec": ("TNatRec(zcase=1, scase=2, scrut=3)", (1, 2, 3)),
    "extract.TPair": ("TPair(fst=1, snd=2)", (1, 2)),
    "extract.TSnd": ("TSnd(arg=1)", (1,)),
    "extract.TSucc": ("TSucc(arg=1)", (1,)),
    "extract.TTrue": ("TTrue()", ()),
    "extract.TVar": ("TVar(ix=1)", (1,)),
    "extract.Target": ("Target()", ()),
    "surface.Decl": ("Decl(name=2, ty=3, body=4)", (2, 3, 4)),
    "surface.Module": ("Module(decls=2, main=3)", (2, 3)),
    "surface.SApp": ("SApp(fn=2, arg=3, icit=4)", (2, 3, 4)),
    "surface.SBoolElim": ("SBoolElim(motive=2, tcase=3, fcase=4, scrut=5)", (2, 3, 4, 5)),
    "surface.SConst": ("SConst(keyword=2)", (2,)),
    "surface.SFst": ("SFst(arg=2)", (2,)),
    "surface.SHole": ("SHole()", ()),
    "surface.SLam": ("SLam(name=2, mode=3, ann=4, icit=5, body=6)", (2, 3, 4, 5, 6)),
    "surface.SLet": ("SLet(name=2, ty=3, defn=4, body=5)", (2, 3, 4, 5)),
    "surface.SNatElim": ("SNatElim(motive=2, zcase=3, scase=4, scrut=5)", (2, 3, 4, 5)),
    "surface.SNum": ("SNum(value=2)", (2,)),
    "surface.SPair": ("SPair(fst=2, snd=3)", (2, 3)),
    "surface.SPi": ("SPi(name=2, mode=3, icit=4, dom=5, cod=6)", (2, 3, 4, 5, 6)),
    "surface.SSigma": ("SSigma(name=2, mode=3, fst_ty=4, snd_ty=5)", (2, 3, 4, 5)),
    "surface.SSnd": ("SSnd(arg=2)", (2,)),
    "surface.SSucc": ("SSucc(arg=2)", (2,)),
    "surface.SVar": ("SVar(name=2)", (2,)),
    "surface.Surface": ("Surface()", ()),
    "surface.Token": ("Token(kind=1, text=2, start=3, end=4, value=5)", (1, 2, 3, 4, 5)),
    "translate.SweepRow": ("SweepRow(name=1, zeroing_ok=2, stripping_ok=3)", (1, 2, 3)),
    "unify.CapturedEntry": ("CapturedEntry(name=1, mode=2, ty=3, defn=4)", (1, 2, 3, 4)),
    "unify.MetaEntry": (
        "MetaEntry(mid=1, sig=2, entries=3, ty=4, closed_ty_value=5, span=6,"
        " solution_closed=7, solution_body=8, solution_value=9)",
        (1, 2, 3, 4, 5, 6, 7, 8, 9),
    ),
    "unify.PartialRenaming": (
        "PartialRenaming(dom=1, cod=2, map=3, allow_erased=4, top=5)",
        (1, 2, 3, 4, 5),
    ),
}

# The records that accept assignment; they are unhashable.
MUTABLE = {"unify.MetaEntry", "unify.PartialRenaming", "elab.ElabResult"}

# Every field default, by class and field.
DEFAULTS = {
    "core.Context": {"sig": _NO_DECLS, "local": (), "env": (), "flag": False},
    "core.Meta": {"mask": ()},
    "core.VNeutral": {"spine": ()},
    "surface.Decl": {"name": "", "ty": None, "body": None},
    "surface.Module": {"decls": (), "main": None},
    "surface.SApp": {"fn": None, "arg": None, "icit": Icit.EXPL},
    "surface.SBoolElim": {"motive": None, "tcase": None, "fcase": None, "scrut": None},
    "surface.SConst": {"keyword": ""},
    "surface.SFst": {"arg": None},
    "surface.SLam": {"name": "", "mode": None, "ann": None, "icit": Icit.EXPL, "body": None},
    "surface.SLet": {"name": "", "ty": None, "defn": None, "body": None},
    "surface.SNatElim": {"motive": None, "zcase": None, "scase": None, "scrut": None},
    "surface.SNum": {"value": 0},
    "surface.SPair": {"fst": None, "snd": None},
    "surface.SPi": {"name": "_", "mode": Mode.OMEGA, "icit": Icit.EXPL, "dom": None, "cod": None},
    "surface.SSigma": {"name": "_", "mode": Mode.OMEGA, "fst_ty": None, "snd_ty": None},
    "surface.SSnd": {"arg": None},
    "surface.SSucc": {"arg": None},
    "surface.SVar": {"name": ""},
    "surface.Token": {"value": None},
    "unify.MetaEntry": {
        "span": None, "solution_closed": None, "solution_body": None, "solution_value": None
    },
    "unify.PartialRenaming": {"allow_erased": False, "top": 0},
}


def record_classes() -> dict[str, type]:
    """Every record class defined in `MODULES`, by `module.Class`."""
    out = {}
    for m in MODULES:
        mod = importlib.import_module(f"tt0.{m}")
        for name, cls in vars(mod).items():
            defined_here = inspect.isclass(cls) and cls.__module__ == mod.__name__
            if defined_here and hasattr(cls, "__match_args__"):
                out[f"{m}.{name}"] = cls
    return out


def _raises(message: str, f, *args) -> None:
    try:
        f(*args)
    except AttributeError as e:
        assert str(e) == message, (message, str(e))
    else:
        raise AssertionError(f"no AttributeError({message!r})")


def check(key: str) -> None:
    cls = record_classes()[key]
    shown, compared = PINNED[key]
    fields = cls.__match_args__
    r = cls(*range(1, len(fields) + 1))
    assert repr(r) == shown, repr(r)
    if key in MUTABLE:
        assert cls.__hash__ is None
    else:
        assert hash(r) == hash(compared if compared else cls), key
    assert vars(r) == {f: getattr(r, f) for f in fields}
    copy = r.replace()
    assert type(copy) is cls and copy == r and repr(copy) == repr(r)
    assert key in MUTABLE or hash(copy) == hash(r)
    if key in MUTABLE:
        for i, f in enumerate(fields):
            setattr(r, f, -i)
            assert getattr(r, f) == -i and vars(r)[f] == -i, f
    else:
        for f in [*fields, "extra"]:
            _raises(f"cannot assign to field {f!r}", setattr, r, f, 0)
        for f in fields:
            _raises(f"cannot delete field {f!r}", delattr, r, f)
        assert repr(r) == shown
    defaults = DEFAULTS.get(key, {})
    required = [f for f in fields if f not in defaults]
    r = cls(*range(1, len(required) + 1))
    assert {f: getattr(r, f) for f in defaults} == defaults


def main() -> None:
    for key in sorted(record_classes()):
        check(key)
        print(key, "ok")


if __name__ == "__main__":
    main()
