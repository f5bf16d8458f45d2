"""The record classes of every module: their fields, which of them `==`,
`hash` and `repr` read, and which records are frozen."""

from __future__ import annotations

import builtins
import importlib
import inspect

import pytest

from tt0 import core as co
from tt0 import extract as ex
from tt0 import surface as sf
from tt0.record import Record
from tt0.surface import Icit, Mode
from tt0.unify import MetaEntry

MODULES = ["diagnostics", "surface", "core", "unify", "elab", "translate", "extract"]

# The fields of each record class in constructor and `__match_args__` order.
# A plain name is compared, hashed and shown; `name*` is shown but neither
# compared nor hashed; `name-` is none of these.
RECORDS = {
    "diagnostics.SourceSpan": "file start_line start_col end_line end_col",
    "surface.Token": "kind text start end value",
    "surface.Surface": "span-",
    "surface.SVar": "span- name",
    "surface.SLam": "span- name mode ann icit body",
    "surface.SApp": "span- fn arg icit",
    "surface.SPi": "span- name mode icit dom cod",
    "surface.SSigma": "span- name mode fst_ty snd_ty",
    "surface.SPair": "span- fst snd",
    "surface.SFst": "span- arg",
    "surface.SSnd": "span- arg",
    "surface.SLet": "span- name ty defn body",
    "surface.SConst": "span- keyword",
    "surface.SNum": "span- value",
    "surface.SSucc": "span- arg",
    "surface.SNatElim": "span- motive zcase scase scrut",
    "surface.SBoolElim": "span- motive tcase fcase scrut",
    "surface.SHole": "span-",
    "surface.Decl": "span- name ty body",
    "surface.Module": "source- decls main",
    "core.Term": "",
    "core.Value": "",
    "core.Constant": "",
    "core.Var": "ix",
    "core.Lam": "name* mode icit body",
    "core.App": "mode icit fn arg",
    "core.Pi": "name* mode icit dom cod",
    "core.Sigma": "name* mode fst_ty snd_ty",
    "core.Pair": "mode fst snd",
    "core.Fst": "mode pair",
    "core.Snd": "mode pair",
    "core.Univ": "",
    "core.NatTy": "",
    "core.Lit": "n",
    "core.Succ": "arg",
    "core.NatElim": "motive zcase scase scrut",
    "core.BoolTy": "",
    "core.TrueTm": "",
    "core.FalseTm": "",
    "core.BoolElim": "motive tcase fcase scrut",
    "core.Let": "name* ty defn body",
    "core.Meta": "mid mask",
    "core.Closure": "env body",
    "core.VLam": "name* mode icit clos",
    "core.VPi": "name* mode icit dom cod",
    "core.VSigma": "name* mode fst_ty snd_ty",
    "core.VPair": "mode fst snd",
    "core.VSucc": "arg",
    "core.VarH": "lvl",
    "core.MetaH": "mid",
    "core.SApp": "mode icit arg",
    "core.SFst": "mode",
    "core.SSnd": "mode",
    "core.SNatElim": "motive zcase scase",
    "core.SBoolElim": "motive tcase fcase",
    "core.VNeutral": "head spine",
    "core.CtxEntry": "name mode ty defined",
    "core.Context": "sig local env flag",
    "unify.CapturedEntry": "name mode ty defn",
    "unify.MetaEntry": "mid sig entries ty closed_ty_value span"
    " solution_closed solution_body solution_value",
    "unify.PartialRenaming": "dom cod map allow_erased top",
    "elab.DeclInfo": "name span ty body ty_value body_thunk",
    "elab.ElabResult": "decls main store sig errors",
    "translate.SweepRow": "name zeroing_ok stripping_ok",
    "extract.Target": "",
    "extract.TVar": "ix",
    "extract.TLam": "name* body",
    "extract.TApp": "fn arg",
    "extract.TPair": "fst snd",
    "extract.TFst": "arg",
    "extract.TSnd": "arg",
    "extract.TLit": "n",
    "extract.TSucc": "arg",
    "extract.TNatRec": "zcase scase scrut",
    "extract.TTrue": "",
    "extract.TFalse": "",
    "extract.TIf": "cond then els",
    "extract.TLet": "name* defn body",
}

MUTABLE = {"unify.MetaEntry", "unify.PartialRenaming", "elab.ElabResult"}

# The surface node of each base constant is an `SConst` whose keyword is the
# constant's; it is pinned, as that record with the keyword fixed, under the
# name of the node.
CONSTANT_NODES = {
    "surface.SUniv": "U",
    "surface.SNatTy": "Nat",
    "surface.SBoolTy": "Bool",
    "surface.SZero": "zero",
    "surface.STrue": "true",
    "surface.SFalse": "false",
}

PINS = sorted([*RECORDS, *CONSTANT_NODES])


def record_classes() -> dict[str, type]:
    out = {}
    for m in MODULES:
        mod = importlib.import_module(f"tt0.{m}")
        for name, cls in vars(mod).items():
            defined_here = inspect.isclass(cls) and cls.__module__ == mod.__name__
            if defined_here and hasattr(cls, "__match_args__"):
                out[f"{m}.{name}"] = cls
    return out


def spec(key: str) -> tuple[list[str], list[str], list[str]]:
    """(fields, compared fields, shown fields) of a class in `RECORDS`."""
    marked = RECORDS[key].split()
    fields = [f.rstrip("*-") for f in marked]
    shown = [f.rstrip("*") for f in marked if not f.endswith("-")]
    return fields, [f for f in marked if f in fields], shown


def pinned(key: str) -> tuple[str, dict[str, str]]:
    """The `RECORDS` key of a pin in `PINS`, and the field values it fixes."""
    if key in CONSTANT_NODES:
        return "surface.SConst", {"keyword": CONSTANT_NODES[key]}
    return key, {}


def test_every_record_class_is_listed():
    assert sorted(record_classes()) == sorted(RECORDS)
    assert sorted(CONSTANT_NODES.values()) == sorted(co.CONSTANTS)


@pytest.mark.parametrize("key", PINS)
def test_match_args_are_the_fields_in_order(key):
    rec, fixed = pinned(key)
    assert record_classes()[rec].__match_args__ == tuple(spec(rec)[0])
    if fixed:
        match sf.parse_term_text(fixed["keyword"]):
            case sf.SConst(_, keyword):
                assert keyword == fixed["keyword"]
            case other:
                pytest.fail(f"{fixed['keyword']} parsed to {other!r}")


@pytest.mark.parametrize("key", PINS)
def test_eq_hash_and_repr_read_the_listed_fields(key):
    key, fixed = pinned(key)
    cls = record_classes()[key]
    fields, compared, shown = spec(key)
    values = [fixed.get(f, object()) for f in fields]
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != object()
    for i, f in enumerate(fields):
        other = cls(*values[:i], object(), *values[i + 1 :])
        assert (a == other) is (f not in compared), f
    got = dict(zip(fields, values))
    assert repr(a) == f"{cls.__qualname__}(" + ", ".join(f"{f}={got[f]!r}" for f in shown) + ")"
    if key in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif compared:
        assert hash(a) == hash(tuple(got[f] for f in compared))
    else:
        assert hash(a) == hash(cls)


@pytest.mark.parametrize("key", PINS)
def test_frozen_records_refuse_assignment(key):
    key, fixed = pinned(key)
    cls = record_classes()[key]
    fields = spec(key)[0]
    a = cls(*[fixed.get(f, object()) for f in fields])
    if key in MUTABLE:
        for f in fields:
            setattr(a, f, 1)
            assert getattr(a, f) == 1
        return
    for f in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, f, 1)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(a, f)


def test_records_without_fields_hash_apart():
    constants = [
        co.Univ(), co.NatTy(), co.BoolTy(), co.TrueTm(), co.FalseTm(), ex.TTrue(), ex.TFalse()
    ]
    assert len({hash(c) for c in constants}) == len(constants)
    assert len(set(constants)) == len(constants)
    assert hash(co.Univ()) == hash(co.Univ()) and co.Univ() in set(constants)


def test_binder_names_and_spans_affect_neither_eq_nor_hash():
    body = co.Var(0)
    pairs = [
        (co.Lam("x", Mode.OMEGA, Icit.EXPL, body), co.Lam("y", Mode.OMEGA, Icit.EXPL, body)),
        (co.Let("x", co.NatTy(), co.Lit(1), body), co.Let("y", co.NatTy(), co.Lit(1), body)),
        (ex.TLam("x", ex.TVar(0)), ex.TLam("y", ex.TVar(0))),
        (
            sf.parse_module_text("let f : Nat = 1;", "a.tt0"),
            sf.parse_module_text("\n\nlet  f :  Nat =   1 ;", "b.tt0"),
        ),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert co.Lam("x", Mode.ZERO, Icit.EXPL, body) != co.Lam("x", Mode.OMEGA, Icit.EXPL, body)
    assert sf.SVar((0, 1), "x") != sf.SVar((0, 1), "y")


def test_repr_of_core_value_target_and_surface_nodes():
    app = co.App(Mode.OMEGA, Icit.EXPL, co.Var(0), co.Lit(2))
    assert repr(co.Lam("x", Mode.ZERO, Icit.IMPL, app)) == (
        "Lam(name='x', mode=<Mode.ZERO: '0'>, icit=<Icit.IMPL: 'implicit'>, body=App("
        "mode=<Mode.OMEGA: 'w'>, icit=<Icit.EXPL: 'explicit'>, fn=Var(ix=0), arg=Lit(n=2)))"
    )
    pi = co.Pi("A", Mode.ZERO, Icit.EXPL, co.Univ(), co.Meta(1, (None, Mode.OMEGA)))
    assert repr(pi) == (
        "Pi(name='A', mode=<Mode.ZERO: '0'>, icit=<Icit.EXPL: 'explicit'>, dom=Univ(), "
        "cod=Meta(mid=1, mask=(None, <Mode.OMEGA: 'w'>)))"
    )
    spine = (co.SApp(Mode.OMEGA, Icit.EXPL, co.TrueTm()), co.SFst(Mode.ZERO))
    assert repr(co.VNeutral(co.VarH(0), spine)) == (
        "VNeutral(head=VarH(lvl=0), spine=(SApp(mode=<Mode.OMEGA: 'w'>, "
        "icit=<Icit.EXPL: 'explicit'>, arg=TrueTm()), SFst(mode=<Mode.ZERO: '0'>)))"
    )
    lam = co.VLam("y", Mode.OMEGA, Icit.EXPL, co.Closure((co.Lit(1),), co.Var(1)))
    assert repr(lam) == (
        "VLam(name='y', mode=<Mode.OMEGA: 'w'>, icit=<Icit.EXPL: 'explicit'>, "
        "clos=Closure(env=(Lit(n=1),), body=Var(ix=1)))"
    )
    t = ex.TLet("x", ex.TLit(3), ex.TApp(ex.TLam("y", ex.TVar(0)), ex.TSucc(ex.TVar(0))))
    assert repr(t) == (
        "TLet(name='x', defn=TLit(n=3), body=TApp(fn=TLam(name='y', body=TVar(ix=0)), "
        "arg=TSucc(arg=TVar(ix=0))))"
    )
    m = sf.parse_module_text("let f : Nat -> Nat = \\x. succ x; main = f 2;", "m.tt0")
    assert repr(m) == (
        "Module(decls=(Decl(name='f', ty=SPi(name='_', mode=<Mode.OMEGA: 'w'>, "
        "icit=<Icit.EXPL: 'explicit'>, dom=SConst(keyword='Nat'), "
        "cod=SConst(keyword='Nat')), body=SLam(name='x', "
        "mode=None, ann=None, icit=<Icit.EXPL: 'explicit'>, body=SSucc(arg=SVar(name='x'))))"
        ",), main=SApp(fn=SVar(name='f'), arg=SNum(value=2), icit=<Icit.EXPL: 'explicit'>))"
    )
    assert repr(sf.tokenize("12")[0]) == "Token(kind='number', text='12', start=0, end=2, value=12)"


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_init_signature_lists_the_fields_with_their_defaults(key):
    cls = record_classes()[key]
    fields = spec(key)[0]
    if not fields:
        assert cls.__init__ is object.__init__
        return
    params = list(inspect.signature(cls.__init__).parameters.values())
    assert [p.name for p in params] == ["self", *fields]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
    assert list(defaults) == fields[len(fields) - len(defaults) :]


def test_defaults_are_the_class_attributes():
    assert str(inspect.signature(sf.Token.__init__)) == (
        "(self, kind, text, start, end, value=None)"
    )
    assert str(inspect.signature(sf.SPi.__init__)).startswith("(self, span, name='_', mode=")


def test_constructor_errors_name_the_class():
    with pytest.raises(TypeError) as info:
        co.App(1)
    assert str(info.value) == (
        "App.__init__() missing 3 required positional arguments: 'icit', 'fn', and 'arg'"
    )
    with pytest.raises(TypeError) as info:
        co.Var(0, 1)
    assert str(info.value) == "Var.__init__() takes 2 positional arguments but 3 were given"
    with pytest.raises(TypeError) as info:
        co.Var(ix=0, lvl=1)
    assert str(info.value) == "Var.__init__() got an unexpected keyword argument 'lvl'"


def test_keyword_construction_and_replace():
    tok = sf.Token(kind="number", end=2, text="12", start=0)
    assert tok == sf.Token("number", "12", 0, 2) and tok.value is None
    assert tok.replace(value=12) == sf.Token("number", "12", 0, 2, 12)
    assert tok.value is None
    app = co.App(Mode.OMEGA, Icit.EXPL, co.Var(0), co.Lit(1))
    assert app.replace(arg=co.Lit(2)) == co.App(Mode.OMEGA, Icit.EXPL, co.Var(0), co.Lit(2))
    assert vars(app) == {"mode": Mode.OMEGA, "icit": Icit.EXPL, "fn": co.Var(0), "arg": co.Lit(1)}
    entry = MetaEntry(mid=3, sig=None, entries=(), ty=co.NatTy(), closed_ty_value=co.NatTy())
    assert (entry.mid, entry.span, entry.solution_value) == (3, None, None)
    solved = entry.replace(solution_value=co.Lit(1))
    assert solved.solution_value == co.Lit(1) and entry.solution_value is None


def test_every_class_has_code_of_its_own():
    """The inline caches of attribute loads live in the code object."""
    for method in ("__init__", "__eq__", "__hash__"):
        codes = [
            vars(cls)[method].__code__
            for cls in record_classes().values()
            if getattr(vars(cls).get(method), "__code__", None)
        ]
        assert len({id(c) for c in codes}) == len(codes), method


def test_a_record_class_with_a_field_count_seen_before_compiles_nothing(monkeypatch):
    calls = []
    with monkeypatch.context() as m:
        for name in ("exec", "compile"):
            real = getattr(builtins, name)
            m.setattr(builtins, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))

        class P(Record, uncompared=("b",)):
            a: int
            b: int = 2

    assert calls == []
    assert P(1) == P(1, 3) != P(2) and hash(P(1)) == hash((1,))
    assert vars(P(b=4, a=1)) == {"a": 1, "b": 4}
    assert str(inspect.signature(P.__init__)) == "(self, a, b=2)"
    assert P.__init__.__qualname__.endswith("<locals>.P.__init__")


@pytest.mark.parametrize("name", ["self", "other", "d", "_0", "_1", "_12"])
def test_a_field_named_like_a_local_of_the_methods_is_refused(name):
    with pytest.raises(TypeError, match=repr(name)):
        type("P", (Record,), {"__annotations__": {"c": "int", name: "int"}})
