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
from .core import EXPL, IMPL, OMEGA, ZERO, Context, Term, Thunk, Value, definition, evaluate
from .core import force, quote
from .diagnostics import Diagnostic, ElabError, InternalError, Span, UnifyError
from .record import Record
from .unify import MetaStore, fresh_meta, unify


class DeclInfo(Record):
    name: str
    span: Span
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


def _unify_types(store: MetaStore, ctx: Context, span: Span, got: Value, expected: Value) -> None:
    try:
        unify(store, ctx.depth, got, expected, ctx.name)
    except UnifyError as e:
        exp_s, got_s = ctx.show(store, expected), ctx.show(store, got)
        raise ElabError(f"type mismatch: expected {exp_s}, got {got_s} ({e.message})", span) from e


def insert_implicits(
    store: MetaStore, ctx: Context, term: Term, ty: Value, span: Span
) -> tuple[Term, Value]:
    """Apply a term to fresh metavariables while its type is an implicit Pi."""
    ty = force(store, ty)
    while type(ty) is co.VPi and ty.icit is IMPL:
        arg_ctx = ctx.erased() if ty.mode is ZERO else ctx
        m = fresh_meta(store, arg_ctx, ty.dom, span)
        term = co.App(ty.mode, IMPL, term, m)
        ty = force(store, ty.cod.apply(Thunk(ctx.env, m)))
    return term, ty


def check_erased(store: MetaStore, ctx: Context, t: sf.Surface, expected: Value) -> Term:
    """Check a term as erased: same judgment with the erased flag set."""
    return check(store, ctx.erased(), t, expected)


def check_type(store: MetaStore, ctx: Context, t: sf.Surface) -> Term:
    return check_erased(store, ctx, t, co.Univ())


# ---------------------------------------------------------------------------
# Checking


def check(store: MetaStore, ctx: Context, t: sf.Surface, expected: Value) -> Term:
    expected = force(store, expected)
    if type(expected) is co.VPi:
        if type(t) is sf.SLam and t.icit is expected.icit:
            if t.mode is not None and t.mode is not expected.mode:
                raise ElabError(
                    f"lambda binder mode {t.mode} does not match function type "
                    f"mode {expected.mode}",
                    t.span,
                )
            if t.ann is not None:
                ann = check_type(store, ctx, t.ann)
                _unify_types(store, ctx, t.ann.span, evaluate(ctx.env, ann), expected.dom)
            inner = ctx.bind(t.name, expected.mode, expected.dom)
            body = check(store, inner, t.body, expected.cod.apply(co.vvar(ctx.depth)))
            return co.Lam(t.name, expected.mode, expected.icit, body)
        if expected.icit is IMPL:
            # Insert an implicit lambda around anything that is not itself an
            # implicit lambda.
            inner = ctx.bind(expected.name, expected.mode, expected.dom)
            body = check(store, inner, t, expected.cod.apply(co.vvar(ctx.depth)))
            return co.Lam(expected.name, expected.mode, IMPL, body)
    elif type(t) is sf.SPair and type(expected) is co.VSigma:
        mode = expected.mode
        fst_ctx = ctx.erased() if mode is ZERO else ctx
        fst_t = check(store, fst_ctx, t.fst, expected.fst_ty)
        snd_t = check(store, ctx, t.snd, expected.snd_ty.apply(Thunk(ctx.env, fst_t)))
        return co.Pair(mode, fst_t, snd_t)
    if type(t) is sf.SLet:
        ty_t, defn_t, inner = _let(store, ctx, t)
        return co.Let(t.name, ty_t, defn_t, check(store, inner, t.body, expected))
    if type(t) is sf.SHole:
        return fresh_meta(store, ctx, expected, t.span)
    term, ty = infer(store, ctx, t)
    term, ty = insert_implicits(store, ctx, term, ty, t.span)
    _unify_types(store, ctx, t.span, ty, expected)
    return term


def _let(store: MetaStore, ctx: Context, t: sf.SLet) -> tuple[Term, Term, Context]:
    """Elaborate a `let`'s annotation and definition: both terms, and the
    context of its body."""
    ty_t = check_type(store, ctx, t.ty)
    ty_v = evaluate(ctx.env, ty_t)
    defn_t = check(store, ctx, t.defn, ty_v)
    return ty_t, defn_t, ctx.define(t.name, OMEGA, ty_v, definition(ctx.env, defn_t))


# ---------------------------------------------------------------------------
# Inference


def infer(store: MetaStore, ctx: Context, t: sf.Surface) -> tuple[Term, Value]:
    if type(t) is sf.SConst:
        const, ty, code = co.CONSTANTS[t.keyword]
        if code is not None:
            _require_erased(ctx, t.span, code)
        return const, ty
    if type(t) is sf.SVar:
        found = ctx.lookup(t.name)
        if found is None:
            raise ElabError(f"unbound name {t.name!r}", t.span)
        ix, entry = found
        if entry.mode is ZERO and not ctx.flag:
            raise ElabError(f"erased variable {t.name!r} used at runtime", t.span)
        return co.Var(ix), entry.ty
    if type(t) is sf.SPi:
        _require_erased(ctx, t.span, "a function type")
        dom_t = check_type(store, ctx, t.dom)
        inner = ctx.bind(t.name, t.mode, evaluate(ctx.env, dom_t))
        return co.Pi(t.name, t.mode, t.icit, dom_t, check_type(store, inner, t.cod)), co.Univ()
    if type(t) is sf.SApp:
        fn, icit = t.fn, t.icit
        fn_t, fn_ty = infer(store, ctx, fn)
        if type(fn_t) is co.Lam:
            # A literal lambda at an application head carries no domain
            # annotation the kernel could re-infer; bind it with an
            # annotated let instead.
            ann = quote(store, ctx.depth, fn_ty)
            fn_t = co.Let("f", ann, fn_t, co.Var(0))
        if icit is EXPL:
            fn_t, fn_ty = insert_implicits(store, ctx, fn_t, fn_ty, fn.span)
        fn_ty = force(store, fn_ty)
        if type(fn_ty) is not co.VPi:
            if type(fn_ty) is not co.VNeutral or type(fn_ty.head) is not co.MetaH:
                got = ctx.show(store, fn_ty)
                raise ElabError(f"applying a non-function of type {got}", fn.span)
            # A metavariable can still become a function type.
            dom_m = fresh_meta(store, ctx.erased(), co.Univ(), fn.span)
            dom_v = evaluate(ctx.env, dom_m)
            cod_ctx = ctx.bind("x", OMEGA, dom_v).erased()
            cod_m = fresh_meta(store, cod_ctx, co.Univ(), fn.span)
            pi = co.VPi("x", OMEGA, icit, dom_v, co.Closure(ctx.env, cod_m))
            _unify_types(store, ctx, fn.span, fn_ty, pi)
            fn_ty = pi
        # Only an implicit argument can mismatch: explicit ones follow `insert_implicits`.
        if fn_ty.icit is not icit:
            raise ElabError("unexpected implicit argument to an explicit function", t.span)
        arg_ctx = ctx.erased() if fn_ty.mode is ZERO else ctx
        arg_t = check(store, arg_ctx, t.arg, fn_ty.dom)
        return co.App(fn_ty.mode, icit, fn_t, arg_t), fn_ty.cod.apply(Thunk(ctx.env, arg_t))
    if type(t) is sf.SNum:
        return co.Lit(t.value), co.NatTy()
    if type(t) is sf.SLam:
        if t.icit is IMPL:
            raise ElabError("cannot infer a type for an implicit lambda", t.span)
        lam_mode = t.mode if t.mode is not None else OMEGA
        if t.ann is not None:
            dom_t = check_type(store, ctx, t.ann)
        else:
            dom_t = fresh_meta(store, ctx.erased(), co.Univ(), t.span)
        dom_v = evaluate(ctx.env, dom_t)
        inner = ctx.bind(t.name, lam_mode, dom_v)
        body_t, body_ty = infer(store, inner, t.body)
        body_t, body_ty = insert_implicits(store, inner, body_t, body_ty, t.body.span)
        cod_t = quote(store, ctx.depth + 1, body_ty)
        pi_ty = co.VPi(t.name, lam_mode, t.icit, dom_v, co.Closure(ctx.env, cod_t))
        return co.Lam(t.name, lam_mode, t.icit, body_t), pi_ty
    if type(t) is sf.SLet:
        ty_t, defn_t, inner = _let(store, ctx, t)
        body_t, body_ty = infer(store, inner, t.body)
        return co.Let(t.name, ty_t, defn_t, body_t), body_ty
    if type(t) is sf.SSucc:
        return co.succ(check(store, ctx, t.arg, co.NatTy())), co.NatTy()
    if type(t) is sf.SNatElim or type(t) is sf.SBoolElim:
        elim = co.NatElim if type(t) is sf.SNatElim else co.BoolElim
        motive_ty, scrut_ty, case_tys = co.ELIMINATORS[elim]
        motive_t = check_erased(store, ctx, t.motive, motive_ty)
        motive_v = evaluate(ctx.env, motive_t)
        a_ty, b_ty = case_tys(motive_v)
        a, b = (t.zcase, t.scase) if elim is co.NatElim else (t.tcase, t.fcase)
        a_t = check(store, ctx, a, a_ty)
        b_t = check(store, ctx, b, b_ty)
        scrut_t = check(store, ctx, t.scrut, scrut_ty)
        res = co.motive_app(motive_v, evaluate(ctx.env, scrut_t))
        return elim(motive_t, a_t, b_t, scrut_t), res
    if type(t) is sf.SFst or type(t) is sf.SSnd:
        pair_t, pair_ty = infer(store, ctx, t.arg)
        pair_ty = force(store, pair_ty)
        if type(pair_ty) is not co.VSigma:
            got = ctx.show(store, pair_ty)
            raise ElabError(f"projecting from a non-pair of type {got}", t.span)
        mode = pair_ty.mode
        if type(t) is sf.SSnd:
            fst_v = Thunk(ctx.env, co.Fst(mode, pair_t))
            return co.Snd(mode, pair_t), pair_ty.snd_ty.apply(fst_v)
        if mode is ZERO and not ctx.flag:
            raise ElabError(
                "the first component of this pair is erased and cannot be "
                "projected at runtime",
                t.span,
            )
        return co.Fst(mode, pair_t), pair_ty.fst_ty
    if type(t) is sf.SSigma:
        _require_erased(ctx, t.span, "a pair type")
        fst_t = check_type(store, ctx, t.fst_ty)
        inner = ctx.bind(t.name, t.mode, evaluate(ctx.env, fst_t))
        return co.Sigma(t.name, t.mode, fst_t, check_type(store, inner, t.snd_ty)), co.Univ()
    if type(t) is sf.SHole:
        ty_v = evaluate(ctx.env, fresh_meta(store, ctx.erased(), co.Univ(), t.span))
        return fresh_meta(store, ctx, ty_v, t.span), ty_v
    if type(t) is sf.SPair:
        raise ElabError("cannot infer a type for a pair; annotate the enclosing binding", t.span)
    raise AssertionError(f"unhandled surface term {t!r}")


def _require_erased(ctx: Context, span: Span, what: str) -> None:
    if not ctx.flag:
        raise ElabError(f"{what} is a type code and can only appear in erased positions", span)


# ---------------------------------------------------------------------------
# Zonking: replace the solved metas of a term at `depth`.  A meta whose mask
# covers its capture occurs where its solution body was made, so the body
# splices in verbatim.  A bare meta that captured entries heads a spine that
# `quote` read back; the spine's normal form applies the closed solution to it.


def zonk(store: MetaStore, t: Term, depth: int) -> Term:
    def go(u: Term, d: int) -> Term:
        spine: list[co.App] = []
        head = u
        while type(head) is co.App:
            spine.append(head)
            head = head.fn
        if type(head) is not co.Meta or (entry := store.lookup(head.mid)).solution_body is None:
            head = co.map_subterms(head, go, d)
        elif len(head.mask) == len(entry.entries):
            head = go(entry.solution_body, d)
        else:
            return co.normal_form(store, tuple(map(co.vvar, range(d))), u)
        while spine:
            app = spine.pop()
            arg = go(app.arg, d)
            kept = head is app.fn and arg is app.arg
            head = app if kept else co.App(app.mode, app.icit, head, arg)
        return head

    return go(t, depth)


# ---------------------------------------------------------------------------
# Modules


def elaborate_module(m: sf.Module) -> ElabResult:
    store = MetaStore()
    sig = Context()  # the declarations elaborated so far
    decls: list[DeclInfo] = []
    errors: list[Diagnostic] = []

    for decl in m.decls:
        ty_t: Term | None = None
        ty_v: Value | None = None
        try:
            ty_t = check_type(store, sig, decl.ty)
            ty_v = evaluate(sig.env, ty_t)
            body_t = check(store, sig, decl.body, ty_v)
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
            main_t, main_ty = infer(store, sig, m.main)
            main_t, main_ty = insert_implicits(store, sig, main_t, main_ty, m.main.span)
            main = (main_t, main_ty)
        except Diagnostic as e:
            errors.append(e)

    if not errors:
        for entry in store.unsolved():
            names = entry.sig.names + tuple(e.name for e in entry.entries)
            ctx_desc = ", ".join(
                f"{e.name} :{'0' if e.mode is ZERO else ''} "
                f"{co.pp(e.ty, names[: entry.sig.depth + i])}"
                for i, e in enumerate(entry.entries)
            )
            msg = f"unsolved metavariable ?{entry.mid} : {co.pp(entry.ty, names)}"
            if ctx_desc:
                msg += f" in context ({ctx_desc})"
            errors.append(ElabError(msg, entry.span))

    if errors:
        for e in errors:  # raised with the offsets of their nodes
            if type(e.span) is tuple:
                e.span = m.source.span(*e.span)
        return ElabResult(decls, main, store, sig, errors)

    zonked: list[DeclInfo] = []
    sig = Context()
    for d in decls:
        ty_t, body_t, ty_v = _recheck(store, sig, d.ty, d.body, f"declaration {d.name!r}")
        body_th = definition(sig.env, body_t)
        zonked.append(DeclInfo(d.name, d.span, ty_t, body_t, ty_v, body_th))
        sig = sig.declare(d.name, ty_v, body_th)
    if main is not None:
        ty_t = quote(store, sig.depth, main[1])
        main = _recheck(store, sig, ty_t, main[0], "main expression")[1:]

    return ElabResult(zonked, main, store, sig, errors)


def _recheck(
    store: MetaStore, sig: Context, ty_t: Term, t: Term, what: str
) -> tuple[Term, Term, Value]:
    """Zonk a definition's type and term in `sig`, and re-check both with no meta store."""
    ty_t, t = zonk(store, ty_t, sig.depth), zonk(store, t, sig.depth)
    ty_v = evaluate(sig.env, ty_t)
    try:
        co.kernel_check(None, sig.erased(), ty_t, co.Univ())
        co.kernel_check(None, sig, t, ty_v)
    except Diagnostic as e:
        raise InternalError(f"kernel rejected elaborated {what}: {e.message}") from e
    return ty_t, t, ty_v


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
        if type(u) is co.Var and u.ix >= c:
            refs.add(depth + c - 1 - u.ix)
        elif type(u) is co.Meta:
            raise InternalError("metavariable in a zonked term")
        return co.map_subterms(u, go, c)

    go(t, 0)
    return refs


def _thin(t: Term, depth: int, rank: dict[int, int]) -> Term:
    """Renumber prefix references of a term at `depth` after dropping the
    prefix entries not in `rank` (kept level -> new level).  A kept `depth`
    has as many kept levels below it as its rank; any other, all of them."""
    new_depth = rank.get(depth, len(rank))
    if new_depth == depth:
        return t  # every entry below `depth` is kept where it was

    def go(u: Term, c: int) -> Term:
        if type(u) is co.Var and u.ix >= c:
            ix = new_depth + c - 1 - rank[depth + c - 1 - u.ix]
            return u if ix == u.ix else co.Var(ix)
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
        raise Diagnostic(f"no declaration named {name!r}")
    return close_over_signature(result, result.decls[lvl].body, lvl)


def closed_main(result: ElabResult) -> Term:
    if result.main is None:
        raise Diagnostic("module has no main expression")
    return close_over_signature(result, result.main[0], len(result.decls))
