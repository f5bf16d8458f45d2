"""Pattern unification for metavariables, with erasure-aware renaming.

There is a single kind of metavariable (runtime).  Each meta captures the
local part of its creation context (the binders and `let`s above the
module's top-level declarations), including the erased flag; its type and
solution live in the signature of the declarations before it.  A candidate
solution is built in three steps: spine inversion gives a partial renaming,
`quote` reads the right-hand side back, and one walk over the read-back term
renames its variables.  The walk performs the occurs check, the scope check,
and a mode check: a variable bound at mode 0, a type code or an erased first
projection may appear at a runtime position of a solution only if the meta
was created with the erased flag set.  Every committed solution is re-checked
by the kernel before it is stored.
"""

from __future__ import annotations

from . import core as co
from .core import (
    Context,
    Icit,
    Mode,
    Term,
    Value,
    VNeutral,
    evaluate,
    force,
    quote,
    vvar,
)
from .diagnostics import Diagnostic, InternalError, SourceSpan, UnifyError
from .record import Record


class CapturedEntry(Record):
    name: str
    mode: Mode
    ty: Term  # under the signature and the preceding captured entries
    defn: Term | None  # set for let-bound entries


class MetaEntry(Record, frozen=False):
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
    """Quote the local entries of a context, those above its top-level prefix.
    A local definition not yet computed is captured as its own term."""
    captured: list[CapturedEntry] = []
    for lvl in range(ctx.top, ctx.depth):
        entry = ctx.entries[lvl]
        ty = quote(store, lvl, entry.ty)
        defn = None
        if entry.defined:
            # Every local `define` binds `definition(ctx.env, defn)` at the
            # entry's own level, so an unforced thunk's term is at depth `lvl`.
            value = ctx.env[lvl]
            pending = type(value) is co.Thunk and value.value is None
            defn = value.term if pending else quote(store, lvl, co.entry_value(value))
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


class PartialRenaming(Record, frozen=False):
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
    if not all(isinstance(item, co.SApp) for item in spine):
        raise UnifyError(
            "non-pattern",
            "non-pattern spine: a projection or eliminator is applied to a "
            "metavariable",
        )
    if len(spine) < sum(1 for e in entries if e.defn is None):
        raise UnifyError("non-pattern", "non-pattern spine: metavariable under-applied")

    # Each bound captured entry takes the next spine argument, with the
    # entry's name and mode; the arguments beyond the capture follow.
    args = iter(spine)
    slots = [e if e.defn is not None else (e.name, e.mode, next(args)) for e in entries]
    slots += [(None, item.mode, item) for item in args]
    ren: dict[int, tuple[int, Mode]] = {}
    layout: list[tuple[str, Mode] | CapturedEntry] = []
    for dom, slot in enumerate(slots, top):
        if isinstance(slot, CapturedEntry):
            layout.append(slot)
            continue
        name, mode, item = slot
        lvl = _spine_var(store, item)
        if lvl in ren:
            raise UnifyError(
                "non-linear",
                f"non-linear spine: variable {_name_at(names, lvl)} occurs twice",
            )
        ren[lvl] = (dom, mode)
        if name is None:
            name = names[lvl] if 0 <= lvl < len(names) else f"x{lvl}"
        layout.append((name, mode))
    return PartialRenaming(dom=top + len(slots), cod=cod_depth, map=ren, top=top), layout


def _spine_var(store: MetaStore, item: co.SApp) -> int:
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
# Renaming (readback, then occurs check + scope check + mode check)


def rename(
    store: MetaStore,
    mid: int,
    pren: PartialRenaming,
    rhs: Value,
    names: tuple[str, ...] = (),
) -> Term:
    """Read `rhs` back and rename it through the partial renaming, refusing
    occurrences of the meta being solved, out-of-scope variables, and erased
    resources at runtime positions (unless the meta's context is erased).

    The walk is at `k` binders below the unification context.  It checks a
    neutral's head before its spine, an eliminator's scrutinee before its
    motive and cases, and a type code before its parts."""

    def refuse(what: str) -> UnifyError:
        return UnifyError(
            "mode",
            f"solution would {what} at a runtime position, but the "
            "metavariable lives outside the erased fragment",
        )

    def go(t: Term, k: int, runtime: bool) -> Term:
        guard = runtime and not pren.allow_erased
        if guard and type(t) in _TYPE_CODES:
            raise refuse(f"place {_TYPE_CODES[type(t)]}")
        match t:
            case co.Var(ix):
                lvl = pren.cod + k - 1 - ix
                found = pren.map.get(lvl)
                if found is None and lvl < pren.top:
                    # An opaque name left by a failed top-level declaration.
                    found = (lvl, Mode.OMEGA)
                if found is None:
                    raise UnifyError(
                        "scope",
                        f"variable {_name_at(names, lvl)} is not in scope for "
                        f"the solution of ?{mid}",
                    )
                dlvl, mode = found
                if mode is Mode.ZERO and guard:
                    raise refuse(f"use erased variable {_name_at(names, lvl)}")
                return co.Var(pren.dom + k - 1 - dlvl)
            case co.Meta(m):
                if m == mid:
                    raise UnifyError(
                        "occurs", f"occurs check: ?{mid} appears in its own solution"
                    )
                return t
            case co.App(mode, icit, fn, arg):
                fn = go(fn, k, runtime)
                return co.App(mode, icit, fn, go(arg, k, runtime and mode is not Mode.ZERO))
            case co.Succ(arg):
                return co.Succ(go(arg, k, runtime))
            case co.Lam(name, mode, icit, body):
                return co.Lam(name, mode, icit, go_bind(body, k, mode, runtime))
            case co.Pi(name, mode, icit, dom, cod):
                return co.Pi(
                    name, mode, icit, go(dom, k, False), go_bind(cod, k, mode, False)
                )
            case co.Sigma(name, mode, fst_ty, snd_ty):
                return co.Sigma(
                    name, mode, go(fst_ty, k, False), go_bind(snd_ty, k, mode, False)
                )
            case co.Pair(mode, fst, snd):
                fst = go(fst, k, runtime and mode is not Mode.ZERO)
                return co.Pair(mode, fst, go(snd, k, runtime))
            case co.NatElim(motive, zcase, scase, scrut):
                scrut = go(scrut, k, runtime)
                return co.NatElim(
                    go(motive, k, False), go(zcase, k, runtime), go(scase, k, runtime), scrut
                )
            case co.BoolElim(motive, tcase, fcase, scrut):
                scrut = go(scrut, k, runtime)
                return co.BoolElim(
                    go(motive, k, False), go(tcase, k, runtime), go(fcase, k, runtime), scrut
                )
        renamed = co.map_subterms(t, lambda u, k_: go(u, k_, runtime), k)
        if isinstance(t, co.Fst) and t.mode is Mode.ZERO and guard:
            raise refuse("use an erased first projection")
        return renamed

    def go_bind(body: Term, k: int, mode: Mode, runtime: bool) -> Term:
        lvl = pren.cod + k
        pren.map[lvl] = (pren.dom + k, mode)
        try:
            return go(body, k + 1, runtime)
        finally:
            del pren.map[lvl]

    return go(quote(store, pren.cod, rhs), 0, True)


_TYPE_CODES = {
    co.Pi: "a function type",
    co.Sigma: "a pair type",
    **{type(c): code for c, _, code in co.CONSTANTS.values() if code is not None},
}


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
    except Diagnostic as exc:  # a kernel refusal here is a bug
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
        case co.Constant(), co.Constant():
            if a != b:
                raise UnifyError("mismatch", _HEADS_DIFFER)
            return
        case co.VSucc() | co.Lit(), co.VSucc() | co.Lit():
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
