"""Executable well-typedness transports over the mode structure.

Two translations, each followed by an independent kernel re-check:

* zeroing: set every context entry's mode to 0 and re-check the unchanged
  term as an erased judgment.  Success witnesses that types and erased
  terms depend on no runtime data.  Zeroing is the erased flag: the kernel
  reads an entry's mode only while the flag is clear, and no rule clears
  it, so the zeroed erased judgment is the erased judgment itself.  A
  type's zeroing is thus the elaborator's erased re-check of that type,
  which every declaration of an ok `ElabResult` has passed; the sweep
  re-checks each body.
* mode stripping: rewrite every mode annotation to omega and re-check with
  the erased flag set.  In that configuration every variable and every
  type code is usable everywhere, so the check is exactly a plain MLTT
  check of the stripped term.
"""

from __future__ import annotations

from . import core as co
from .core import OMEGA, ZERO, Context, Term, Value, evaluate
from .diagnostics import Diagnostic, InternalError
from .elab import ElabResult
from .record import Record


def check_zeroing(ctx: Context, t: Term, ty: Value) -> None:
    """Re-check a term in the zeroed context `ctx.erased()`, as an erased
    judgment: zeroing is the identity on syntax, so this transport is the
    whole translation.  A failure is a bug, not a user error."""
    try:
        co.kernel_check(None, ctx.erased(), t, ty)
    except Diagnostic as e:
        raise InternalError(f"zeroed judgment failed to re-check: {e.message}") from e


def strip_modes(t: Term) -> Term:
    """Rewrite every mode annotation in a term to omega, copying only the
    nodes on a path to an erased mode."""

    def go(u: Term, _: int) -> Term:
        if isinstance(u, co.Meta):
            raise InternalError("metavariable in a term being mode-stripped")
        u = co.map_subterms(u, go)
        return u.replace(mode=OMEGA) if getattr(u, "mode", None) is ZERO else u

    return go(t, 0)


def recheck_stripped(stripped_sig: Context, t: Term, ty: Term) -> Value:
    """Check the stripped term against the stripped type in the all-omega,
    flag-set configuration (plain MLTT); the value of the type."""
    ctx = stripped_sig.erased()
    try:
        ty_v = evaluate(ctx.env, ty)
        co.kernel_check(None, ctx, ty, co.Univ())
        co.kernel_check(None, ctx, t, ty_v)
    except Diagnostic as e:
        raise InternalError(f"stripped judgment failed to re-check: {e.message}") from e
    return ty_v


class SweepRow(Record):
    name: str
    zeroing_ok: bool
    stripping_ok: bool


def sweep(result: ElabResult) -> list[SweepRow]:
    """Run both translations over every declaration of an ok elaborated
    module: zeroing of each body in the module's own signature (each type's
    zeroing is the elaborator's erased re-check), stripping of each type and
    body in a stripped signature."""
    rows: list[SweepRow] = []
    stripped_sig = Context()
    for i, d in enumerate(result.decls):
        zero_ok = strip_ok = True
        try:
            check_zeroing(result.sig.prefix(i), d.body, d.ty_value)
        except InternalError:
            zero_ok = False
        s_ty = strip_modes(d.ty)
        s_body = strip_modes(d.body)
        try:
            s_ty_v = recheck_stripped(stripped_sig, s_body, s_ty)
        except InternalError:
            strip_ok = False
            s_ty_v = evaluate(stripped_sig.env, s_ty)
        rows.append(SweepRow(d.name, zero_ok, strip_ok))
        s_body_th = co.definition(stripped_sig.env, s_body)
        stripped_sig = stripped_sig.declare(d.name, s_ty_v, s_body_th)
    return rows
