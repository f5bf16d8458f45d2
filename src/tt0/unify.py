"""Pattern unification for metavariables, with erasure-aware renaming.

There is a single kind of metavariable (runtime).  Each meta captures the
local part of its creation context (the binders and `let`s above the
module's top-level declarations), including the erased flag; its type and
solution live in the signature of the declarations before it.  Candidate
solutions are built by spine inversion followed by a renaming pass that
performs the occurs check, the scope check, and a mode check: a variable
bound at mode 0 may appear at a runtime position of a solution only if the
meta was created with the erased flag set.  Every committed solution is
re-checked by the kernel before it is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core as co
from .core import (
    Closure,
    Context,
    Term,
    Value,
    VNeutral,
    evaluate,
    force,
    quote,
    vvar,
)
from .diagnostics import InternalError, SourceSpan, UnifyError
from .surface import Icit, Mode


@dataclass(frozen=True)
class CapturedEntry:
    name: str
    mode: Mode
    ty: Term  # under the signature and the preceding captured entries
    defn: Term | None  # set for let-bound entries


@dataclass
class MetaEntry:
    mid: int
    sig: Context  # the top-level prefix of the creation context, with its flag
    entries: tuple[CapturedEntry, ...]  # the local entries above that prefix
    ty: Term  # codomain, under the signature and the captured entries
    closed_ty: Term  # under the signature
    closed_ty_value: Value
    span: SourceSpan | None = None
    solution_closed: Term | None = None  # lambda/let closure over the capture
    solution_body: Term | None = None  # same, under the captured entries
    solution_value: Value | None = None

    @property
    def flag(self) -> bool:
        return self.sig.flag

    @property
    def solved(self) -> bool:
        return self.solution_closed is not None


class MetaStore:
    """The mutable store of metavariables owned by one elaboration session."""

    def __init__(self) -> None:
        self._entries: list[MetaEntry] = []

    def lookup(self, mid: int) -> MetaEntry:
        return self._entries[mid]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def unsolved(self) -> list[MetaEntry]:
        return [e for e in self._entries if not e.solved]

    def fresh(self, entry: MetaEntry) -> MetaEntry:
        assert entry.mid == len(self._entries)
        self._entries.append(entry)
        return entry


def capture_context(store: MetaStore, ctx: Context) -> tuple[CapturedEntry, ...]:
    """Quote the local entries of a context, those above its top-level prefix."""
    captured: list[CapturedEntry] = []
    for lvl in range(ctx.top, ctx.depth):
        entry = ctx.entries[lvl]
        ty = quote(store, lvl, entry.ty)
        defn = quote(store, lvl, ctx.env[lvl]) if entry.defined else None
        captured.append(CapturedEntry(entry.name, entry.mode, ty, defn))
    return tuple(captured)


def close_type(entries: tuple[CapturedEntry, ...], ty: Term) -> Term:
    """Abstract a type over a captured context: Pi for binders, Let for
    definitions."""
    for e in reversed(entries):
        if e.defn is None:
            ty = co.Pi(e.name, e.mode, Icit.EXPL, e.ty, ty)
        else:
            ty = co.Let(e.name, e.ty, e.defn, ty)
    return ty


def fresh_meta(
    store: MetaStore, ctx: Context, ty: Value, span: SourceSpan | None = None
) -> Term:
    """Allocate a metavariable of the given type in the given context and
    return the term standing for it (the meta applied to the bound
    variables in scope)."""
    ty_term = quote(store, ctx.depth, ty)
    sig = ctx.signature()
    entries = capture_context(store, ctx)
    closed = close_type(entries, ty_term)
    entry = MetaEntry(
        mid=len(store),
        sig=sig,
        entries=entries,
        ty=ty_term,
        closed_ty=closed,
        closed_ty_value=evaluate(sig.env, closed),
        span=span,
    )
    store.fresh(entry)
    if not entries:
        return co.Meta(entry.mid)
    mask = tuple(None if e.defn is not None else e.mode for e in entries)
    return co.InsertedMeta(entry.mid, (None,) * sig.depth + mask)


# ---------------------------------------------------------------------------
# Spine inversion


@dataclass
class PartialRenaming:
    """An injective map from levels of the unification context into binder
    levels of the solution under construction."""

    dom: int  # depth of the solution context (lambda and let binders)
    cod: int  # depth of the unification context
    map: dict[int, tuple[int, Mode]]  # cod level -> (dom level, binder mode)
    allow_erased: bool = False  # the meta's captured flag
    top: int = 0  # the meta's signature depth: levels below it are kept as they are


def invert(
    entries: tuple[CapturedEntry, ...],
    spine: tuple[co.SpineItem, ...],
    store: MetaStore,
    cod_depth: int,
    names: tuple[str, ...] = (),
    top: int = 0,
) -> tuple[PartialRenaming, list[tuple[str, Mode] | CapturedEntry]]:
    """Check the pattern condition on a meta's spine and build the renaming.

    Returns the renaming together with the binder layout of the solution,
    which sits under the meta's signature of `top` entries: one lambda per
    bound captured entry (paired positionally with a spine argument), one
    let per defined entry, and one lambda per spine argument beyond the
    capture.
    """
    n_bound = sum(1 for e in entries if e.defn is None)
    apps: list[co.SApp] = []
    for item in spine:
        if not isinstance(item, co.SApp):
            raise UnifyError(
                "non-pattern",
                "non-pattern spine: a projection or eliminator is applied to a "
                "metavariable",
            )
        apps.append(item)
    if len(apps) < n_bound:
        raise UnifyError("non-pattern", "non-pattern spine: metavariable under-applied")

    ren: dict[int, tuple[int, Mode]] = {}
    layout: list[tuple[str, Mode] | CapturedEntry] = []
    dom = top
    next_app = 0
    for e in entries:
        if e.defn is not None:
            layout.append(e)
            dom += 1
            continue
        lvl = _spine_var(store, apps[next_app], names)
        next_app += 1
        if lvl in ren:
            raise UnifyError(
                "non-linear",
                f"non-linear spine: variable {_name_at(names, lvl)} occurs twice",
            )
        ren[lvl] = (dom, e.mode)
        layout.append((e.name, e.mode))
        dom += 1
    for item in apps[next_app:]:
        lvl = _spine_var(store, item, names)
        if lvl in ren:
            raise UnifyError(
                "non-linear",
                f"non-linear spine: variable {_name_at(names, lvl)} occurs twice",
            )
        ren[lvl] = (dom, item.mode)
        bname = names[lvl] if 0 <= lvl < len(names) else f"x{lvl}"
        layout.append((bname, item.mode))
        dom += 1
    return PartialRenaming(dom=dom, cod=cod_depth, map=ren, top=top), layout


def _spine_var(store: MetaStore, item: co.SApp, names: tuple[str, ...]) -> int:
    arg = force(store, item.arg)
    if isinstance(arg, VNeutral) and isinstance(arg.head, co.VarH) and not arg.spine:
        return arg.head.lvl
    raise UnifyError(
        "non-pattern", "non-pattern spine: metavariable applied to a non-variable"
    )


def _name_at(names: tuple[str, ...], lvl: int) -> str:
    if 0 <= lvl < len(names) and names[lvl] != "_":
        return f"'{names[lvl]}'"
    return f"#{lvl}"


# ---------------------------------------------------------------------------
# Renaming (occurs check + scope check + mode check)


def rename(
    store: MetaStore,
    mid: int,
    pren: PartialRenaming,
    rhs: Value,
    names: tuple[str, ...] = (),
) -> Term:
    """Quote `rhs` through the partial renaming, refusing occurrences of the
    meta being solved, out-of-scope variables, and erased resources at
    runtime positions (unless the meta's context is erased)."""
    return _rename(store, mid, pren, names, pren.dom, pren.cod, rhs, runtime=True)


def _rename(
    store: MetaStore,
    mid: int,
    pren: PartialRenaming,
    names: tuple[str, ...],
    dom: int,
    cod: int,
    v: Value,
    runtime: bool,
) -> Term:
    v = force(store, v)

    def go(u: Value, runtime_: bool = runtime) -> Term:
        return _rename(store, mid, pren, names, dom, cod, u, runtime_)

    def go_bind(clos: Closure, mode: Mode, runtime_: bool) -> Term:
        pren.map[cod] = (dom, mode)
        try:
            return _rename(
                store, mid, pren, names, dom + 1, cod + 1, clos.apply(vvar(cod)), runtime_
            )
        finally:
            del pren.map[cod]

    def code_guard(what: str) -> None:
        if runtime and not pren.allow_erased:
            raise UnifyError(
                "mode",
                f"solution would place {what} at a runtime position, but the "
                "metavariable lives outside the erased fragment",
            )

    match v:
        case co.VLam(name, mode, icit, clos):
            return co.Lam(name, mode, icit, go_bind(clos, mode, runtime))
        case co.VPi(name, mode, icit, dom_v, cod_clos):
            code_guard("a function type")
            return co.Pi(
                name, mode, icit, go(dom_v, False), go_bind(cod_clos, mode, False)
            )
        case co.VSigma(name, mode, fst_ty, snd_ty):
            code_guard("a pair type")
            return co.Sigma(name, mode, go(fst_ty, False), go_bind(snd_ty, mode, False))
        case co.VPair(mode, fst, snd):
            fst_runtime = runtime and mode is not Mode.ZERO
            return co.Pair(mode, go(fst, fst_runtime), go(snd))
        case co.VUniv():
            code_guard("a universe")
            return co.Univ()
        case co.VNatTy():
            code_guard("the Nat type")
            return co.NatTy()
        case co.VBoolTy():
            code_guard("the Bool type")
            return co.BoolTy()
        case co.VLit(n):
            return co.Lit(n)
        case co.VSucc(arg):
            return co.succ(go(arg))
        case co.VTrue():
            return co.TrueTm()
        case co.VFalse():
            return co.FalseTm()
        case VNeutral(head, spine):
            t: Term
            if isinstance(head, co.MetaH):
                if head.mid == mid:
                    raise UnifyError(
                        "occurs", f"occurs check: ?{mid} appears in its own solution"
                    )
                t = co.Meta(head.mid)
            else:
                found = pren.map.get(head.lvl)
                if found is None and head.lvl < pren.top:
                    # An opaque name left by a failed top-level declaration.
                    found = (head.lvl, Mode.OMEGA)
                if found is None:
                    raise UnifyError(
                        "scope",
                        f"variable {_name_at(names, head.lvl)} is not in scope for "
                        f"the solution of ?{mid}",
                    )
                dlvl, mode = found
                if mode is Mode.ZERO and runtime and not pren.allow_erased:
                    raise UnifyError(
                        "mode",
                        f"solution would use erased variable "
                        f"{_name_at(names, head.lvl)} at a runtime position, but "
                        "the metavariable lives outside the erased fragment",
                    )
                t = co.Var(dom - 1 - dlvl)
            for item in spine:
                t = _rename_spine_item(t, item, go, runtime, pren, mid, names)
            return t
    raise AssertionError(f"unhandled value {v!r}")


def _rename_spine_item(
    t: Term,
    item: co.SpineItem,
    go,
    runtime: bool,
    pren: PartialRenaming,
    mid: int,
    names: tuple[str, ...],
) -> Term:
    match item:
        case co.SApp(mode, icit, arg):
            arg_runtime = runtime and mode is not Mode.ZERO
            return co.App(mode, icit, t, go(arg, arg_runtime))
        case co.SFst(mode):
            if mode is Mode.ZERO and runtime and not pren.allow_erased:
                raise UnifyError(
                    "mode",
                    "solution would use an erased first projection at a runtime "
                    "position, but the metavariable lives outside the erased fragment",
                )
            return co.Fst(mode, t)
        case co.SSnd(mode):
            return co.Snd(mode, t)
        case co.SNatElim(motive, zcase, scase):
            return co.NatElim(go(motive, False), go(zcase), go(scase), t)
        case co.SBoolElim(motive, tcase, fcase):
            return co.BoolElim(go(motive, False), go(tcase), go(fcase), t)
    raise AssertionError(f"unhandled spine item {item!r}")


# ---------------------------------------------------------------------------
# Solving


def solve(
    store: MetaStore,
    depth: int,
    mid: int,
    spine: tuple[co.SpineItem, ...],
    rhs: Value,
    names: tuple[str, ...] = (),
) -> None:
    """Solve `?mid spine = rhs`, committing only a kernel-checked solution."""
    entry = store.lookup(mid)
    if entry.solved:
        raise InternalError(f"?{mid} is already solved")
    pren, layout = invert(entry.entries, spine, store, depth, names, entry.sig.depth)
    pren.allow_erased = entry.flag
    body = rename(store, mid, pren, rhs, names)

    closed = body
    for binder in reversed(layout):
        if isinstance(binder, CapturedEntry):
            closed = co.Let(binder.name, binder.ty, binder.defn, closed)
        else:
            bname, bmode = binder
            closed = co.Lam(bname, bmode, Icit.EXPL, closed)

    try:
        co.kernel_check(store, entry.sig, closed, entry.closed_ty_value)
    except Exception as exc:  # noqa: BLE001 - any failure here is a bug
        raise InternalError(
            f"unifier produced an ill-typed solution for ?{mid}: {exc}"
        ) from exc

    entry.solution_closed = closed
    entry.solution_body = _strip_capture(closed, len(entry.entries))
    entry.solution_value = evaluate(entry.sig.env, closed)


def _strip_capture(solution: Term, n: int) -> Term:
    """Drop the n leading binders of a closed solution, yielding the
    solution as a term under the meta's captured context."""
    for _ in range(n):
        match solution:
            case co.Lam(_, _, _, body):
                solution = body
            case co.Let(_, _, _, body):
                solution = body
            case _:
                raise InternalError("solution shallower than its captured context")
    return solution


# ---------------------------------------------------------------------------
# Unification


def unify(
    store: MetaStore,
    depth: int,
    a: Value,
    b: Value,
    names: tuple[str, ...] = (),
) -> None:
    a = force(store, a)
    b = force(store, b)
    match a, b:
        case co.VLam(_, mode, _, clos), co.VLam(_, mode2, _, clos2):
            if mode is not mode2:
                raise UnifyError("mismatch", "lambda modes differ")
            x = vvar(depth)
            unify(store, depth + 1, clos.apply(x), clos2.apply(x), names + (a.name,))
            return
        case co.VLam(name, mode, icit, clos), _:
            x = vvar(depth)
            unify(
                store,
                depth + 1,
                clos.apply(x),
                co.vapp(b, mode, icit, x),
                names + (name,),
            )
            return
        case _, co.VLam(name, mode, icit, clos):
            x = vvar(depth)
            unify(
                store,
                depth + 1,
                co.vapp(a, mode, icit, x),
                clos.apply(x),
                names + (name,),
            )
            return
        case co.VPi(name, mode, icit, dom, cod), co.VPi(_, mode2, icit2, dom2, cod2):
            if mode is not mode2:
                raise UnifyError(
                    "mismatch",
                    f"function type modes differ (Π{_mode_mark(mode)} vs "
                    f"Π{_mode_mark(mode2)})",
                )
            if icit is not icit2:
                raise UnifyError("mismatch", "function type implicitness differs")
            unify(store, depth, dom, dom2, names)
            x = vvar(depth)
            unify(store, depth + 1, cod.apply(x), cod2.apply(x), names + (name,))
            return
        case co.VSigma(name, mode, fst, snd), co.VSigma(_, mode2, fst2, snd2):
            if mode is not mode2:
                raise UnifyError(
                    "mismatch",
                    f"pair type modes differ (*{_mode_mark(mode)} vs "
                    f"*{_mode_mark(mode2)})",
                )
            unify(store, depth, fst, fst2, names)
            x = vvar(depth)
            unify(store, depth + 1, snd.apply(x), snd2.apply(x), names + (name,))
            return
        case co.VPair(mode, fst, snd), co.VPair(mode2, fst2, snd2):
            if mode is not mode2:
                raise UnifyError("mismatch", "pair modes differ")
            unify(store, depth, fst, fst2, names)
            unify(store, depth, snd, snd2, names)
            return
        case co.VUniv(), co.VUniv():
            return
        case co.VNatTy(), co.VNatTy():
            return
        case co.VBoolTy(), co.VBoolTy():
            return
        case co.VLit(m), co.VLit(n):
            if m != n:
                raise UnifyError("mismatch", _HEADS_DIFFER)
            return
        case co.VTrue(), co.VTrue():
            return
        case co.VFalse(), co.VFalse():
            return
        case co.VSucc() | co.VLit(), co.VSucc() | co.VLit():
            # succ x against succ y, or against a literal k > 0 as k - 1.
            x, y = co.vpred(a), co.vpred(b)
            if x is not None and y is not None:
                unify(store, depth, x, y, names)
                return
        case VNeutral(co.MetaH(m1), s1), VNeutral(co.MetaH(m2), s2):
            if m1 == m2:
                _unify_spines(store, depth, s1, s2, names)
                return
            # Solve one side only if it is a pattern; otherwise try the other.
            try:
                solve(store, depth, m1, s1, b, names)
                return
            except UnifyError as first:
                if first.reason not in ("non-pattern", "non-linear", "scope"):
                    raise
                solve(store, depth, m2, s2, a, names)
                return
        case VNeutral(co.MetaH(m1), s1), _:
            solve(store, depth, m1, s1, b, names)
            return
        case _, VNeutral(co.MetaH(m2), s2):
            solve(store, depth, m2, s2, a, names)
            return
        # Pair eta against a rigid neutral comes after meta solving so that a
        # flexible head is solved directly rather than eta-split into a
        # non-pattern projection spine.
        case co.VPair(mode, fst, snd), _:
            unify(store, depth, fst, co.vfst(mode, b), names)
            unify(store, depth, snd, co.vsnd(mode, b), names)
            return
        case _, co.VPair(mode, fst, snd):
            unify(store, depth, co.vfst(mode, a), fst, names)
            unify(store, depth, co.vsnd(mode, a), snd, names)
            return
        case VNeutral(h1, s1), VNeutral(h2, s2):
            if h1 != h2:
                raise UnifyError(
                    "mismatch",
                    f"variables {_name_at(names, h1.lvl)} and "
                    f"{_name_at(names, h2.lvl)} differ",
                )
            _unify_spines(store, depth, s1, s2, names)
            return
    raise UnifyError("mismatch", _HEADS_DIFFER)


_HEADS_DIFFER = "terms have different head constructors"


def _unify_spines(
    store: MetaStore,
    depth: int,
    s1: tuple[co.SpineItem, ...],
    s2: tuple[co.SpineItem, ...],
    names: tuple[str, ...],
) -> None:
    if len(s1) != len(s2):
        raise UnifyError("spine", "eliminations applied to the same head differ")
    for i1, i2 in zip(s1, s2):
        match i1, i2:
            case co.SApp(mode, _, arg), co.SApp(mode2, _, arg2):
                if mode is not mode2:
                    raise UnifyError("spine", "application modes differ")
                unify(store, depth, arg, arg2, names)
            case co.SFst(mode), co.SFst(mode2):
                if mode is not mode2:
                    raise UnifyError("spine", "projection modes differ")
            case co.SSnd(mode), co.SSnd(mode2):
                if mode is not mode2:
                    raise UnifyError("spine", "projection modes differ")
            case co.SNatElim(p, z, s), co.SNatElim(p2, z2, s2_):
                unify(store, depth, p, p2, names)
                unify(store, depth, z, z2, names)
                unify(store, depth, s, s2_, names)
            case co.SBoolElim(p, t, f), co.SBoolElim(p2, t2, f2):
                unify(store, depth, p, p2, names)
                unify(store, depth, t, t2, names)
                unify(store, depth, f, f2, names)
            case _:
                raise UnifyError("spine", "eliminations applied to the same head differ")


def _mode_mark(mode: Mode) -> str:
    return "₀" if mode is Mode.ZERO else "ω"
