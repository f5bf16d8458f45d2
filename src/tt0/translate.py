"""Executable well-typedness transports over the mode structure.

Two translations, each followed by an independent kernel re-check:

* zeroing: set every context entry's mode to 0 and re-check the unchanged
  term as an erased judgment.  Success witnesses that types and erased
  terms depend on no runtime data.  Zeroing is the erased flag: the kernel
  reads an entry's mode only while the flag is clear, and no rule clears
  it, so the zeroed erased judgment is the erased judgment itself.
* mode stripping: rewrite every mode annotation to omega and re-check with
  the erased flag set.  In that configuration every variable and every
  type code is usable everywhere, so the check is exactly a plain MLTT
  check of the stripped term.
"""

from __future__ import annotations

from . import core as co
from .core import Context, Mode, Term, Value, evaluate
from .diagnostics import Diagnostic, InternalError
from .elab import ElabResult
from .record import Record
from .unify import MetaStore


def check_zeroing(store: MetaStore | None, ctx: Context, t: Term, ty: Value) -> None:
    """Re-check a term in the zeroed context, as an erased judgment.

    Under the flag representation zeroing is the identity on syntax, and
    the zeroed context is `ctx.erased()`, so the whole content of the
    translation is this well-typedness transport; a failure indicates a bug
    rather than a user error.
    """
    try:
        co.kernel_check(store, ctx.erased(), t, ty)
    except Diagnostic as e:
        raise InternalError(f"zeroed judgment failed to re-check: {e.message}") from e


def strip_modes(t: Term) -> Term:
    """Rewrite every mode annotation in a term to omega."""

    def go(u: Term, _depth: int = 0) -> Term:
        if isinstance(u, co.Meta):
            raise InternalError("metavariable in a term being mode-stripped")
        u = co.map_subterms(u, go)
        return u.replace(mode=Mode.OMEGA) if "mode" in u.__match_args__ else u

    return go(t)


def recheck_stripped(
    store: MetaStore | None, stripped_sig: Context, t: Term, ty: Term
) -> None:
    """Check the stripped term against the stripped type in the all-omega,
    flag-set configuration (plain MLTT)."""
    try:
        ty_v = evaluate(stripped_sig.env, ty)
        co.kernel_check(store, stripped_sig.erased(), ty, co.Univ())
        co.kernel_check(store, stripped_sig.erased(), t, ty_v)
    except Diagnostic as e:
        raise InternalError(f"stripped judgment failed to re-check: {e.message}") from e


class SweepRow(Record):
    name: str
    zeroing_ok: bool
    stripping_ok: bool
    detail: str = ""


def sweep(result: ElabResult) -> list[SweepRow]:
    """Run both translations over every declaration of an elaborated module:
    zeroing in the module's own signature, stripping in a stripped one."""
    rows: list[SweepRow] = []
    stripped_sig = Context()
    for i, d in enumerate(result.decls):
        zero_ok = strip_ok = True
        detail = ""
        sig = result.sig.prefix(i)
        try:
            check_zeroing(None, sig.erased(), d.ty, co.Univ())
            check_zeroing(None, sig, d.body, d.ty_value)
        except InternalError as e:
            zero_ok = False
            detail = e.message
        s_ty = strip_modes(d.ty)
        s_body = strip_modes(d.body)
        try:
            recheck_stripped(None, stripped_sig, s_body, s_ty)
        except InternalError as e:
            strip_ok = False
            detail = e.message
        rows.append(SweepRow(d.name, zero_ok, strip_ok, detail))
        s_ty_v = evaluate(stripped_sig.env, s_ty)
        s_body_th = co.definition(stripped_sig.env, s_body)
        stripped_sig = stripped_sig.declare(d.name, s_ty_v, s_body_th)
    return rows
