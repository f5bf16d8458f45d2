"""Pattern unification for metavariables, with erasure-aware renaming.

There is a single kind of metavariable (runtime).  Each meta captures the
local part of its creation context (the binders and `let`s above the
module's top-level declarations), including the erased flag; its type and
solution live in the signature of the declarations before it.  Its term
`Meta(mid, mask)` applies it to the captured binders; a meta read back by
`quote` has an empty mask and stands for the solution closed over that
signature.  A candidate solution is built in three steps: spine inversion
gives a partial renaming, `quote` reads the right-hand side back, and one
walk over the read-back term renames its variables.  The walk performs the
occurs check, the scope check, and a mode check: a variable bound at mode 0,
a type code or an erased first projection may appear at a runtime position
of a solution only if the meta was created with the erased flag set.  Every
committed solution is re-checked by the kernel before it is stored.
"""

from __future__ import annotations

from typing import Callable

from . import core as co
from .core import EXPL, OMEGA, ZERO, Context, MetaH, Mode, Term, Value, VLam, VNeutral, VPair
from .core import VPi, VSigma, evaluate, force, quote, vvar
from .diagnostics import Diagnostic, InternalError, Span, UnifyError
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
    closed_ty_value: Value  # the type closed over the capture (Pi/Let), in the signature
    span: Span | None = None
    solution_closed: Term | None = None  # lambda/let closure over the capture
    solution_body: Term | None = None  # same, under the captured entries; zonk splices it
    solution_value: Value | None = None

    @property
    def flag(self) -> bool:
        return self.sig.flag

    @property
    def solved(self) -> bool:
        return self.solution_closed is not None


class MetaStore(list[MetaEntry]):
    """The metavariables of one elaboration session, each at the index of its id."""

    lookup = list.__getitem__

    def unsolved(self) -> list[MetaEntry]:
        return [e for e in self if not e.solved]

    def fresh(self, entry: MetaEntry) -> MetaEntry:
        assert entry.mid == len(self)
        self.append(entry)
        return entry


def capture_context(store: MetaStore, ctx: Context) -> tuple[CapturedEntry, ...]:
    """Quote the local entries of a context, those above its top-level prefix.
    A local definition not yet computed is captured as its own term."""
    captured: list[CapturedEntry] = []
    for lvl, entry in enumerate(ctx.local, ctx.top):
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


def close(entries: tuple[CapturedEntry, ...], t: Term, solution: bool = False) -> Term:
    """Close a term over a captured context: a let for each definition, and
    for each binder a Pi around a meta's type or a lambda around its
    solution."""
    for e in reversed(entries):
        if e.defn is not None:
            t = co.Let(e.name, e.ty, e.defn, t)
        elif solution:
            t = co.Lam(e.name, e.mode, EXPL, t)
        else:
            t = co.Pi(e.name, e.mode, EXPL, e.ty, t)
    return t


def fresh_meta(store: MetaStore, ctx: Context, ty: Value, span: Span | None = None) -> Term:
    """Allocate a metavariable of the given type in the given context and
    return the term standing for it, masked over the local entries it
    captures."""
    ty_term = quote(store, ctx.depth, ty)
    sig = ctx.prefix(ctx.top)
    entries = capture_context(store, ctx)
    entry = MetaEntry(
        mid=len(store),
        sig=sig,
        entries=entries,
        ty=ty_term,
        closed_ty_value=evaluate(sig.env, close(entries, ty_term)),
        span=span,
    )
    store.fresh(entry)
    return co.Meta(entry.mid, tuple(None if e.defn is not None else e.mode for e in entries))


# The name of a level of the unification context, read only for a message
# or a solution's binder; None where the caller gave no names.
NameOf = Callable[[int], "str | None"]


def _unnamed(lvl: int) -> str | None:
    return None


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
    name_of: NameOf = _unnamed,
    top: int = 0,
) -> tuple[PartialRenaming, list[tuple[str, Mode]]]:
    """Check the pattern condition on a meta's spine and build the renaming.

    The solution sits under the meta's signature of `top` entries and its
    captured entries, each bound one paired positionally with a spine
    argument.  Returns the renaming together with the binders beyond the
    capture: one lambda per further argument, named after its variable
    through `name_of`.
    """
    if not all(isinstance(item, co.SApp) for item in spine):
        raise UnifyError(
            "non-pattern",
            "non-pattern spine: a projection or eliminator is applied to a "
            "metavariable",
        )
    # Each bound captured entry takes the next spine argument, with the
    # entry's level and mode; the arguments beyond the capture follow.
    slots = [(dom, e.mode) for dom, e in enumerate(entries, top) if e.defn is None]
    if len(spine) < len(slots):
        raise UnifyError("non-pattern", "non-pattern spine: metavariable under-applied")
    beyond = spine[len(slots) :]
    first = top + len(entries)  # the level of the first binder beyond the capture
    slots += [(dom, item.mode) for dom, item in enumerate(beyond, first)]
    ren: dict[int, tuple[int, Mode]] = {}
    for slot, item in zip(slots, spine):
        lvl = _spine_var(store, item)
        if lvl in ren:
            what = _name_at(name_of, lvl)
            raise UnifyError("non-linear", f"non-linear spine: variable {what} occurs twice")
        ren[lvl] = slot
    binders = [(name_of(k) or f"x{k}", mode) for k, (dom, mode) in ren.items() if dom >= first]
    return PartialRenaming(dom=first + len(beyond), cod=cod_depth, map=ren, top=top), binders


def _spine_var(store: MetaStore, item: co.SApp) -> int:
    arg = force(store, item.arg)
    if isinstance(arg, VNeutral) and isinstance(arg.head, co.VarH) and not arg.spine:
        return arg.head.lvl
    raise UnifyError(
        "non-pattern", "non-pattern spine: metavariable applied to a non-variable"
    )


def _name_at(name_of: NameOf, lvl: int) -> str:
    name = name_of(lvl)
    return f"#{lvl}" if name in (None, "_") else f"'{name}'"


# ---------------------------------------------------------------------------
# Renaming (readback, then occurs check + scope check + mode check)


def rename(
    store: MetaStore, mid: int, pren: PartialRenaming, rhs: Value, name_of: NameOf = _unnamed
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
        tt = type(t)
        guard = runtime and not pren.allow_erased
        if guard and tt in _TYPE_CODES:
            raise refuse(f"place {_TYPE_CODES[tt]}")
        if tt is co.Var:
            lvl = pren.cod + k - 1 - t.ix
            found = pren.map.get(lvl)
            if found is None and lvl < pren.top:
                # An opaque name left by a failed top-level declaration.
                found = (lvl, OMEGA)
            if found is None:
                what = f"variable {_name_at(name_of, lvl)} is not in scope"
                raise UnifyError("scope", f"{what} for the solution of ?{mid}")
            dlvl, mode = found
            if mode is ZERO and guard:
                # A binder of `rhs` itself has no name in the context.
                named = name_of if lvl < pren.cod else _unnamed
                raise refuse(f"use erased variable {_name_at(named, lvl)}")
            return co.Var(pren.dom + k - 1 - dlvl)
        if tt is co.App:
            fn = go(t.fn, k, runtime)
            return co.App(t.mode, t.icit, fn, go(t.arg, k, runtime and t.mode is not ZERO))
        if tt is co.Meta:
            if t.mid == mid:
                raise UnifyError("occurs", f"occurs check: ?{mid} appears in its own solution")
            return t
        if tt is co.Lam:
            return co.Lam(t.name, t.mode, t.icit, go_bind(t.body, k, t.mode, runtime))
        if tt is co.Pi:
            dom = go(t.dom, k, False)
            return co.Pi(t.name, t.mode, t.icit, dom, go_bind(t.cod, k, t.mode, False))
        if tt is co.Succ:  # a chain in one loop: its length costs no stack
            n = 0
            while type(t) is co.Succ:
                t, n = t.arg, n + 1
            return co.succ(go(t, k, runtime), n)
        if tt is co.Sigma:
            fst_ty = go(t.fst_ty, k, False)
            return co.Sigma(t.name, t.mode, fst_ty, go_bind(t.snd_ty, k, t.mode, False))
        if tt is co.Pair:
            fst = go(t.fst, k, runtime and t.mode is not ZERO)
            return co.Pair(t.mode, fst, go(t.snd, k, runtime))
        if tt is co.NatElim or tt is co.BoolElim:
            motive, a, b, scrut = [getattr(t, f) for f in tt.__match_args__]
            scrut = go(scrut, k, runtime)
            return tt(go(motive, k, False), go(a, k, runtime), go(b, k, runtime), scrut)
        renamed = co.map_subterms(t, lambda u, k_: go(u, k_, runtime), k)
        if tt is co.Fst and t.mode is ZERO and guard:
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
    name_of: NameOf = _unnamed,
) -> None:
    """Solve `?mid spine = rhs`, committing only a kernel-checked solution."""
    entry = store.lookup(mid)
    if entry.solved:
        raise InternalError(f"?{mid} is already solved")
    pren, binders = invert(entry.entries, spine, store, depth, name_of, entry.sig.depth)
    pren.allow_erased = entry.flag
    # The lambdas for the arguments beyond the capture give the solution
    # under the captured context; closing it over the capture gives it in
    # the signature.
    body = rename(store, mid, pren, rhs, name_of)
    for name, mode in reversed(binders):
        body = co.Lam(name, mode, EXPL, body)
    closed = close(entry.entries, body, solution=True)

    try:
        co.kernel_check(store, entry.sig, closed, entry.closed_ty_value)
    except Diagnostic as exc:  # a kernel refusal here is a bug
        raise InternalError(
            f"unifier produced an ill-typed solution for ?{mid}: {exc}"
        ) from exc

    entry.solution_closed = closed
    entry.solution_body = body
    entry.solution_value = evaluate(entry.sig.env, closed)


# ---------------------------------------------------------------------------
# Unification


def unify(store: MetaStore, depth: int, a: Value, b: Value, name_of: NameOf = _unnamed) -> None:
    """Unify two values at `depth`; `name_of` names a level for a message."""
    if a is b:
        return
    a, b = force(store, a), force(store, b)
    ta, tb = type(a), type(b)
    if ta in co._CONSTANT_ROWS and tb in co._CONSTANT_ROWS:
        if a != b:
            raise UnifyError("mismatch", _HEADS_DIFFER)
        return
    if ta is VLam or tb is VLam:
        # Both sides applied to a fresh variable, under the first lambda's
        # binder (eta for a side that is not a lambda).
        lam = a if ta is VLam else b
        if tb is VLam and b.mode is not lam.mode:
            raise UnifyError("mismatch", "lambda modes differ")
        x = vvar(depth)
        a, b = co.vapp(a, lam.mode, lam.icit, x), co.vapp(b, lam.mode, lam.icit, x)
        unify(store, depth + 1, a, b, _under(name_of, depth, lam.name))
        return
    if ta is tb and (ta is VPi or ta is VSigma):
        # Only a function type has an implicitness to compare.
        pi = ta is VPi
        what, mark = ("function", "Π") if pi else ("pair", "*")
        if a.mode is not b.mode:
            raise UnifyError(
                "mismatch",
                f"{what} type modes differ ({mark}{_mode_mark(a.mode)} vs "
                f"{mark}{_mode_mark(b.mode)})",
            )
        if pi and a.icit is not b.icit:
            raise UnifyError("mismatch", "function type implicitness differs")
        if pi:
            dom, cod, dom2, cod2 = a.dom, a.cod, b.dom, b.cod
        else:
            dom, cod, dom2, cod2 = a.fst_ty, a.snd_ty, b.fst_ty, b.snd_ty
        unify(store, depth, dom, dom2, name_of)
        x = vvar(depth)
        unify(store, depth + 1, cod.apply(x), cod2.apply(x), _under(name_of, depth, a.name))
        return
    if ta in co._NATS and tb in co._NATS:
        # succ x against succ y, or against a literal k > 0 as k - 1; a
        # pair that shares no successor has different heads.
        rest = co.strip_succs(store, a, b)
        if rest is None:
            raise UnifyError("mismatch", _HEADS_DIFFER)
        unify(store, depth, *rest, name_of)
        return
    flex_a = ta is VNeutral and type(a.head) is MetaH
    flex_b = tb is VNeutral and type(b.head) is MetaH
    if flex_a and flex_b:
        if a.head.mid == b.head.mid:
            _unify_spines(store, depth, a.spine, b.spine, name_of)
            return
        # Solve one side only if it is a pattern; otherwise try the other.
        try:
            solve(store, depth, a.head.mid, a.spine, b, name_of)
            return
        except UnifyError as first:
            if first.reason not in ("non-pattern", "non-linear", "scope"):
                raise
            solve(store, depth, b.head.mid, b.spine, a, name_of)
            return
    if flex_a or flex_b:
        flex, other = (a, b) if flex_a else (b, a)
        solve(store, depth, flex.head.mid, flex.spine, other, name_of)
        return
    if ta is VPair or tb is VPair:
        # Both sides projected at the first pair's mode (eta for a side that
        # is not a pair).  After meta solving, so that a flexible head is
        # solved directly rather than eta-split into a non-pattern
        # projection spine.
        mode = (a if ta is VPair else b).mode
        if tb is VPair and b.mode is not mode:
            raise UnifyError("mismatch", "pair modes differ")
        unify(store, depth, co.vfst(mode, a), co.vfst(mode, b), name_of)
        unify(store, depth, co.vsnd(mode, a), co.vsnd(mode, b), name_of)
        return
    if ta is VNeutral and tb is VNeutral:
        if a.head != b.head:
            x, y = _name_at(name_of, a.head.lvl), _name_at(name_of, b.head.lvl)
            raise UnifyError("mismatch", f"variables {x} and {y} differ")
        _unify_spines(store, depth, a.spine, b.spine, name_of)
        return
    raise UnifyError("mismatch", _HEADS_DIFFER)


_HEADS_DIFFER = "terms have different head constructors"


def _under(name_of: NameOf, lvl: int, name: str) -> NameOf:
    """`name_of` with `name` for the binder at `lvl` that unification entered."""
    return lambda k: name if k == lvl else name_of(k)


def _unify_spines(
    store: MetaStore,
    depth: int,
    s1: tuple[co.SpineItem, ...],
    s2: tuple[co.SpineItem, ...],
    name_of: NameOf,
) -> None:
    if len(s1) != len(s2):
        raise UnifyError("spine", "eliminations applied to the same head differ")
    for i1, i2 in zip(s1, s2):
        ti = type(i1)
        if ti is not type(i2):
            raise UnifyError("spine", "eliminations applied to the same head differ")
        if ti is co.SApp:
            if i1.mode is not i2.mode:
                raise UnifyError("spine", "application modes differ")
            unify(store, depth, i1.arg, i2.arg, name_of)
        elif ti is co.SFst or ti is co.SSnd:
            if i1.mode is not i2.mode:
                raise UnifyError("spine", "projection modes differ")
        else:  # the motives and the cases, in order
            for f in ti.__match_args__:
                unify(store, depth, getattr(i1, f), getattr(i2, f), name_of)


def _mode_mark(mode: Mode) -> str:
    return "₀" if mode is ZERO else "ω"
