"""Bidirectional elaboration from surface syntax to the core calculus.

Elaboration enforces the erasure discipline (a term expected at an erased
position is checked with the context's erased flag set), inserts implicit
applications and metavariables, and records on every application and
projection the mode of the function or pair type it eliminates.  After a
module elaborates, all metavariables must be solved; every definition is
then zonked and independently re-checked by the kernel.
"""

from __future__ import annotations

from . import core as co
from . import surface as sf
from .core import Context, Icit, Mode, Term, Thunk, Value, definition, evaluate, force, quote
from .diagnostics import Diagnostic, ElabError, InternalError, SourceSpan, UnifyError
from .record import Record
from .unify import MetaStore, fresh_meta, unify


class ElabState(Record, frozen=False):
    """Mutable state of one module elaboration: the meta store."""

    store: MetaStore

    def __init__(self, store: MetaStore | None = None) -> None:
        self.store = MetaStore() if store is None else store


class DeclInfo(Record):
    name: str
    span: SourceSpan
    ty: Term  # zonked, at the depth of the preceding declarations
    body: Term  # zonked, same depth
    ty_value: Value
    body_thunk: Thunk  # the value, computed when first read

    @property
    def body_value(self) -> Value:
        return self.body_thunk.force()


class ElabResult(Record, frozen=False):
    decls: list[DeclInfo]
    main: tuple[Term, Value] | None  # zonked main and its type value
    store: MetaStore
    sig: Context  # all declarations, as defined entries at flag false
    errors: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.errors

    def decl(self, name: str) -> DeclInfo:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Helpers


def _unify_types(
    st: ElabState, ctx: Context, span: SourceSpan, got: Value, expected: Value
) -> None:
    try:
        unify(st.store, ctx.depth, got, expected, ctx.names)
    except UnifyError as e:
        exp_s = co.pp(quote(st.store, ctx.depth, expected), ctx.names)
        got_s = co.pp(quote(st.store, ctx.depth, got), ctx.names)
        raise ElabError(
            f"type mismatch: expected {exp_s}, got {got_s} ({e.message})", span
        ) from e


def insert_implicits(
    st: ElabState, ctx: Context, term: Term, ty: Value, span: SourceSpan
) -> tuple[Term, Value]:
    """Apply a term to fresh metavariables while its type is an implicit Pi."""
    ty = force(st.store, ty)
    while isinstance(ty, co.VPi) and ty.icit is Icit.IMPL:
        arg_ctx = ctx.erased() if ty.mode is Mode.ZERO else ctx
        m = fresh_meta(st.store, arg_ctx, ty.dom, span)
        term = co.App(ty.mode, Icit.IMPL, term, m)
        ty = force(st.store, ty.cod.apply(Thunk(ctx.env, m)))
    return term, ty


def check_erased(st: ElabState, ctx: Context, t: sf.Surface, expected: Value) -> Term:
    """Check a term as erased: same judgment with the erased flag set."""
    return check(st, ctx.erased(), t, expected)


def check_type(st: ElabState, ctx: Context, t: sf.Surface) -> Term:
    return check_erased(st, ctx, t, co.Univ())


# ---------------------------------------------------------------------------
# Checking


def check(st: ElabState, ctx: Context, t: sf.Surface, expected: Value) -> Term:
    expected = force(st.store, expected)
    match t, expected:
        case sf.SLam(), co.VPi() if t.icit is expected.icit:
            if t.mode is not None and t.mode is not expected.mode:
                raise ElabError(
                    f"lambda binder mode {t.mode} does not match function type "
                    f"mode {expected.mode}",
                    t.span,
                )
            if t.ann is not None:
                ann = check_type(st, ctx, t.ann)
                _unify_types(st, ctx, t.ann.span, evaluate(ctx.env, ann), expected.dom)
            inner = ctx.bind(t.name, expected.mode, expected.dom)
            body = check(st, inner, t.body, expected.cod.apply(co.vvar(ctx.depth)))
            return co.Lam(t.name, expected.mode, expected.icit, body)
        case _, co.VPi(name, mode, Icit.IMPL, dom, cod):
            # Insert an implicit lambda around anything that is not itself an
            # implicit lambda.
            inner = ctx.bind(name, mode, dom)
            body = check(st, inner, t, cod.apply(co.vvar(ctx.depth)))
            return co.Lam(name, mode, Icit.IMPL, body)
        case sf.SPair(fst=fst, snd=snd), co.VSigma(_, mode, fst_ty, snd_ty):
            fst_ctx = ctx.erased() if mode is Mode.ZERO else ctx
            fst_t = check(st, fst_ctx, fst, fst_ty)
            snd_t = check(st, ctx, snd, snd_ty.apply(Thunk(ctx.env, fst_t)))
            return co.Pair(mode, fst_t, snd_t)
        case sf.SLet(name=name, ty=ty, defn=defn, body=body), _:
            ty_t = check_type(st, ctx, ty)
            ty_v = evaluate(ctx.env, ty_t)
            defn_t = check(st, ctx, defn, ty_v)
            inner = ctx.define(name, Mode.OMEGA, ty_v, definition(ctx.env, defn_t))
            body_t = check(st, inner, body, expected)
            return co.Let(name, ty_t, defn_t, body_t)
        case sf.SHole(), _:
            return fresh_meta(st.store, ctx, expected, t.span)
        case _:
            term, ty = infer(st, ctx, t)
            term, ty = insert_implicits(st, ctx, term, ty, t.span)
            _unify_types(st, ctx, t.span, ty, expected)
            return term


# ---------------------------------------------------------------------------
# Inference


def infer(st: ElabState, ctx: Context, t: sf.Surface) -> tuple[Term, Value]:
    match t:
        case sf.SVar(name=name):
            found = ctx.lookup(name)
            if found is None:
                raise ElabError(f"unbound name {name!r}", t.span)
            ix, entry = found
            if entry.mode is Mode.ZERO and not ctx.flag:
                raise ElabError(
                    f"erased variable {name!r} used at runtime", t.span
                )
            return co.Var(ix), entry.ty
        case sf.SApp(fn=fn, arg=arg, icit=icit):
            fn_t, fn_ty = infer(st, ctx, fn)
            if isinstance(fn_t, co.Lam):
                # A literal lambda at an application head carries no domain
                # annotation the kernel could re-infer; bind it with an
                # annotated let instead.
                ann = quote(st.store, ctx.depth, fn_ty)
                fn_t = co.Let("f", ann, fn_t, co.Var(0))
            if icit is Icit.EXPL:
                fn_t, fn_ty = insert_implicits(st, ctx, fn_t, fn_ty, fn.span)
            fn_ty = force(st.store, fn_ty)
            if not isinstance(fn_ty, co.VPi):
                # A metavariable can still become a function type.
                if co.is_flex(fn_ty):
                    dom_m = fresh_meta(st.store, ctx.erased(), co.Univ(), fn.span)
                    dom_v = evaluate(ctx.env, dom_m)
                    cod_ctx = ctx.bind("x", Mode.OMEGA, dom_v).erased()
                    cod_m = fresh_meta(st.store, cod_ctx, co.Univ(), fn.span)
                    pi = co.VPi(
                        "x", Mode.OMEGA, icit, dom_v,
                        co.Closure(ctx.env, cod_m),
                    )
                    _unify_types(st, ctx, fn.span, fn_ty, pi)
                    fn_ty = pi
                else:
                    got = co.pp(quote(st.store, ctx.depth, fn_ty), ctx.names)
                    raise ElabError(f"applying a non-function of type {got}", fn.span)
            if fn_ty.icit is not icit:
                if icit is Icit.IMPL:
                    raise ElabError(
                        "unexpected implicit argument to an explicit function", t.span
                    )
                raise ElabError("expected an implicit argument", t.span)
            if fn_ty.mode is Mode.ZERO:
                arg_t = check_erased(st, ctx, arg, fn_ty.dom)
            else:
                arg_t = check(st, ctx, arg, fn_ty.dom)
            res_ty = fn_ty.cod.apply(Thunk(ctx.env, arg_t))
            return co.App(fn_ty.mode, icit, fn_t, arg_t), res_ty
        case sf.SLam(name=name, mode=mode, ann=ann, icit=icit, body=body):
            if icit is Icit.IMPL:
                raise ElabError("cannot infer a type for an implicit lambda", t.span)
            lam_mode = mode if mode is not None else Mode.OMEGA
            if ann is not None:
                dom_t = check_type(st, ctx, ann)
            else:
                dom_t = fresh_meta(st.store, ctx.erased(), co.Univ(), t.span)
            dom_v = evaluate(ctx.env, dom_t)
            inner = ctx.bind(name, lam_mode, dom_v)
            body_t, body_ty = infer(st, inner, body)
            body_t, body_ty = insert_implicits(st, inner, body_t, body_ty, body.span)
            cod_t = quote(st.store, ctx.depth + 1, body_ty)
            pi_ty = co.VPi(name, lam_mode, icit, dom_v, co.Closure(ctx.env, cod_t))
            return co.Lam(name, lam_mode, icit, body_t), pi_ty
        case sf.SPi(name=name, mode=mode, icit=icit, dom=dom, cod=cod):
            _require_erased(ctx, t.span, "a function type")
            dom_t = check_type(st, ctx, dom)
            inner = ctx.bind(name, mode, evaluate(ctx.env, dom_t))
            cod_t = check_type(st, inner, cod)
            return co.Pi(name, mode, icit, dom_t, cod_t), co.Univ()
        case sf.SSigma(name=name, mode=mode, fst_ty=fst_ty, snd_ty=snd_ty):
            _require_erased(ctx, t.span, "a pair type")
            fst_t = check_type(st, ctx, fst_ty)
            inner = ctx.bind(name, mode, evaluate(ctx.env, fst_t))
            snd_t = check_type(st, inner, snd_ty)
            return co.Sigma(name, mode, fst_t, snd_t), co.Univ()
        case sf.SPair():
            raise ElabError(
                "cannot infer a type for a pair; annotate the enclosing binding",
                t.span,
            )
        case sf.SFst(arg=arg):
            pair_t, pair_ty = infer(st, ctx, arg)
            pair_ty = force(st.store, pair_ty)
            if not isinstance(pair_ty, co.VSigma):
                got = co.pp(quote(st.store, ctx.depth, pair_ty), ctx.names)
                raise ElabError(f"projecting from a non-pair of type {got}", t.span)
            if pair_ty.mode is Mode.ZERO and not ctx.flag:
                raise ElabError(
                    "the first component of this pair is erased and cannot be "
                    "projected at runtime",
                    t.span,
                )
            return co.Fst(pair_ty.mode, pair_t), pair_ty.fst_ty
        case sf.SSnd(arg=arg):
            pair_t, pair_ty = infer(st, ctx, arg)
            pair_ty = force(st.store, pair_ty)
            if not isinstance(pair_ty, co.VSigma):
                got = co.pp(quote(st.store, ctx.depth, pair_ty), ctx.names)
                raise ElabError(f"projecting from a non-pair of type {got}", t.span)
            fst_v = Thunk(ctx.env, co.Fst(pair_ty.mode, pair_t))
            return co.Snd(pair_ty.mode, pair_t), pair_ty.snd_ty.apply(fst_v)
        case sf.SLet(name=name, ty=ty, defn=defn, body=body):
            ty_t = check_type(st, ctx, ty)
            ty_v = evaluate(ctx.env, ty_t)
            defn_t = check(st, ctx, defn, ty_v)
            inner = ctx.define(name, Mode.OMEGA, ty_v, definition(ctx.env, defn_t))
            body_t, body_ty = infer(st, inner, body)
            return co.Let(name, ty_t, defn_t, body_t), body_ty
        case sf.SConst(keyword=kw):
            const, ty, code = co.CONSTANTS[kw]
            if code is not None:
                _require_erased(ctx, t.span, code)
            return const, ty
        case sf.SNum(value=v):
            return co.Lit(v), co.NatTy()
        case sf.SSucc(arg=arg):
            arg_t = check(st, ctx, arg, co.NatTy())
            return co.succ(arg_t), co.NatTy()
        case sf.SNatElim(motive=motive, zcase=zcase, scase=scase, scrut=scrut):
            motive_t = check_erased(st, ctx, motive, co.NAT_MOTIVE_TY)
            motive_v = evaluate(ctx.env, motive_t)
            zcase_t = check(st, ctx, zcase, co.motive_app(motive_v, co.Lit(0)))
            scase_t = check(st, ctx, scase, co.nat_succ_case_type(motive_v))
            scrut_t = check(st, ctx, scrut, co.NatTy())
            res = co.motive_app(motive_v, evaluate(ctx.env, scrut_t))
            return co.NatElim(motive_t, zcase_t, scase_t, scrut_t), res
        case sf.SBoolElim(motive=motive, tcase=tcase, fcase=fcase, scrut=scrut):
            motive_t = check_erased(st, ctx, motive, co.BOOL_MOTIVE_TY)
            motive_v = evaluate(ctx.env, motive_t)
            tcase_t = check(st, ctx, tcase, co.motive_app(motive_v, co.TrueTm()))
            fcase_t = check(st, ctx, fcase, co.motive_app(motive_v, co.FalseTm()))
            scrut_t = check(st, ctx, scrut, co.BoolTy())
            res = co.motive_app(motive_v, evaluate(ctx.env, scrut_t))
            return co.BoolElim(motive_t, tcase_t, fcase_t, scrut_t), res
        case sf.SHole():
            ty_m = fresh_meta(st.store, ctx.erased(), co.Univ(), t.span)
            ty_v = evaluate(ctx.env, ty_m)
            return fresh_meta(st.store, ctx, ty_v, t.span), ty_v
    raise AssertionError(f"unhandled surface term {t!r}")


def _require_erased(ctx: Context, span: SourceSpan, what: str) -> None:
    if not ctx.flag:
        raise ElabError(
            f"{what} is a type code and can only appear in erased positions", span
        )


# ---------------------------------------------------------------------------
# Zonking: substitute all solved metavariables into a term.  A solution body
# is stored under exactly the signature and captured context of its meta,
# and an inserted meta occurs at exactly that binding depth, so the solution
# body can be spliced in verbatim.


def zonk(store: MetaStore, t: Term) -> Term:
    def go(u: Term, _depth: int = 0) -> Term:
        match u:
            case co.InsertedMeta(mid, _):
                entry = store.lookup(mid)
                if entry.solution_body is None:
                    return u
                # The captured context coincides with the occurrence context,
                # so the in-context solution splices in verbatim.
                return go(entry.solution_body)
            case co.Meta(mid):
                entry = store.lookup(mid)
                if entry.solution_closed is None:
                    return u
                if not entry.entries:
                    return go(entry.solution_closed)
                # A bare occurrence stands for the closed solution (applied by
                # explicit spines around it); keep it inferable with a let.
                return co.Let(
                    f"m{mid}", go(entry.closed_ty), go(entry.solution_closed), co.Var(0)
                )
        return co.map_subterms(u, go)

    return go(t)


# ---------------------------------------------------------------------------
# Modules


def elaborate_module(m: sf.Module) -> ElabResult:
    st = ElabState()
    sig = Context()  # the declarations elaborated so far
    decls: list[DeclInfo] = []
    errors: list[Diagnostic] = []

    for decl in m.decls:
        ty_t: Term | None = None
        ty_v: Value | None = None
        try:
            ty_t = check_type(st, sig, decl.ty)
            ty_v = evaluate(sig.env, ty_t)
            body_t = check(st, sig, decl.body, ty_v)
        except Diagnostic as e:
            errors.append(e)
            if ty_v is not None:
                # The type elaborated; keep the name as an opaque axiom so
                # later declarations can still mention it.
                sig = sig.declare(decl.name, ty_v)
            continue
        body_th = definition(sig.env, body_t)
        decls.append(DeclInfo(decl.name, decl.span, ty_t, body_t, ty_v, body_th))
        sig = sig.declare(decl.name, ty_v, body_th)

    main: tuple[Term, Value] | None = None
    if m.main is not None:
        try:
            main_t, main_ty = infer(st, sig, m.main)
            main_t, main_ty = insert_implicits(st, sig, main_t, main_ty, m.main.span)
            main = (main_t, main_ty)
        except Diagnostic as e:
            errors.append(e)

    if not errors:
        for entry in st.store.unsolved():
            names = entry.sig.names + tuple(e.name for e in entry.entries)
            ctx_desc = ", ".join(
                f"{e.name} :{'0' if e.mode is Mode.ZERO else ''} "
                f"{co.pp(e.ty, names[: entry.sig.depth + i])}"
                for i, e in enumerate(entry.entries)
            )
            msg = f"unsolved metavariable ?{entry.mid} : {co.pp(entry.ty, names)}"
            if ctx_desc:
                msg += f" in context ({ctx_desc})"
            errors.append(ElabError(msg, entry.span))

    if errors:
        return ElabResult(decls, main, st.store, sig, errors)

    # Zonk and re-check everything with the kernel.
    zonked: list[DeclInfo] = []
    sig = Context()
    for d in decls:
        ty_t = zonk(st.store, d.ty)
        body_t = zonk(st.store, d.body)
        ty_v = evaluate(sig.env, ty_t)
        body_th = definition(sig.env, body_t)
        try:
            co.kernel_check(st.store, sig.erased(), ty_t, co.Univ())
            co.kernel_check(st.store, sig, body_t, ty_v)
        except Diagnostic as e:
            raise InternalError(
                f"kernel rejected elaborated declaration {d.name!r}: {e.message}"
            ) from e
        zonked.append(DeclInfo(d.name, d.span, ty_t, body_t, ty_v, body_th))
        sig = sig.declare(d.name, ty_v, body_th)
    if main is not None:
        main_t = zonk(st.store, main[0])
        main_ty_t = zonk(st.store, quote(st.store, sig.depth, main[1]))
        main_ty_v = evaluate(sig.env, main_ty_t)
        try:
            co.kernel_check(st.store, sig, main_t, main_ty_v)
        except Diagnostic as e:
            raise InternalError(
                f"kernel rejected elaborated main expression: {e.message}"
            ) from e
        main = (main_t, main_ty_v)

    return ElabResult(zonked, main, st.store, sig, errors)


def elaborate_text(source: str, filename: str = "<input>") -> ElabResult:
    module = sf.parse_module_text(source, filename)
    return elaborate_module(module)


# ---------------------------------------------------------------------------
# Closing a definition over the declarations it uses.  Produces a closed
# term with one let per (transitively) referenced declaration; unused
# declarations are dropped, which requires renumbering the remaining
# top-level references.


def _prefix_refs(t: Term, depth: int) -> set[int]:
    """Levels below `depth` referenced by a term elaborated at `depth`."""
    refs: set[int] = set()

    def go(u: Term, c: int) -> Term:
        match u:
            case co.Var(ix) if ix >= c:
                refs.add(depth + c - 1 - ix)
            case co.InsertedMeta() | co.Meta():
                raise InternalError("metavariable in a zonked term")
        return co.map_subterms(u, go, c)

    go(t, 0)
    return refs


def _thin(t: Term, depth: int, rank: dict[int, int]) -> Term:
    """Renumber prefix references of a term at `depth` after dropping the
    prefix entries not in `rank` (rank maps kept levels to new levels)."""
    new_depth = sum(1 for lvl in rank if lvl < depth)

    def go(u: Term, c: int) -> Term:
        if isinstance(u, co.Var) and u.ix >= c:
            return co.Var(new_depth + c - 1 - rank[depth + c - 1 - u.ix])
        return co.map_subterms(u, go, c)

    return go(t, 0)


def close_over_signature(result: ElabResult, t: Term, depth: int) -> Term:
    """Build a closed term from `t` (elaborated at signature depth `depth`)
    by wrapping it in lets for the declarations it transitively uses."""
    needed: set[int] = set()
    todo = list(_prefix_refs(t, depth))
    while todo:
        lvl = todo.pop()
        if lvl not in needed:
            needed.add(lvl)
            d = result.decls[lvl]
            todo += _prefix_refs(d.ty, lvl) | _prefix_refs(d.body, lvl)
    kept = sorted(needed)
    rank = {lvl: i for i, lvl in enumerate(kept)}
    closed = _thin(t, depth, rank)
    for lvl in reversed(kept):
        d = result.decls[lvl]
        closed = co.Let(d.name, _thin(d.ty, lvl, rank), _thin(d.body, lvl, rank), closed)
    return closed


def closed_definition(result: ElabResult, name: str) -> Term:
    lvl = next((i for i, d in enumerate(result.decls) if d.name == name), None)
    if lvl is None:
        raise KeyError(name)
    return close_over_signature(result, result.decls[lvl].body, lvl)


def closed_main(result: ElabResult) -> Term:
    if result.main is None:
        raise KeyError("module has no main expression")
    return close_over_signature(result, result.main[0], len(result.decls))
