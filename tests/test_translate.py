from __future__ import annotations

import pytest

from tt0 import core as co
from tt0.core import Context, NatTy, conv, evaluate
from tt0.diagnostics import KernelError
from tt0.surface import Icit, Mode
from tt0.translate import check_zeroing, recheck_stripped, strip_modes, sweep
from tt0.unify import MetaStore

W, Z0 = Mode.OMEGA, Mode.ZERO
EX = Icit.EXPL


class TestCheckZeroing:
    def test_type_over_runtime_context(self):
        ctx = Context().bind("x", W, NatTy())
        check_zeroing(ctx.erased(), co.NatTy(), co.Univ())

    def test_erased_judgment_transports(self):
        ctx = Context().bind("x", W, NatTy()).erased()
        check_zeroing(ctx, co.Var(0), NatTy())

    def test_erased_entry_passes_only_because_of_the_flag(self):
        # Zeroing makes every entry mode 0 under the flag; the kernel reads
        # an entry's mode only without the flag, so the flag alone decides.
        ctx = Context().bind("z", Z0, NatTy())
        check_zeroing(ctx, co.Var(0), NatTy())
        with pytest.raises(KernelError, match="erased variable 'z' used at runtime"):
            co.kernel_check(None, ctx, co.Var(0), NatTy())

    def test_corpus_sweep(self, corpus):
        for result in corpus.values():
            sig = Context()
            for d in result.decls:
                check_zeroing(sig.erased(), d.ty, co.Univ())
                check_zeroing(sig, d.body, d.ty_value)
                sig = sig.define(d.name, W, d.ty_value, d.body_value)


class TestStripModes:
    def test_pi(self):
        assert strip_modes(co.Pi("x", Z0, EX, co.NatTy(), co.NatTy())) == co.Pi(
            "x", W, EX, co.NatTy(), co.NatTy()
        )

    def test_lam(self):
        assert strip_modes(co.Lam("x", Z0, EX, co.Lit(0))) == co.Lam(
            "x", W, EX, co.Lit(0)
        )

    def test_constructor_unchanged(self):
        assert strip_modes(co.Lit(0)) == co.Lit(0)

    def test_idempotent_on_corpus(self, corpus):
        # A stripped term holds no erased mode, so stripping it again
        # returns it without a copy.
        for result in corpus.values():
            for d in result.decls:
                once = strip_modes(d.body)
                assert strip_modes(once) is once

    def test_only_paths_to_erased_modes_are_copied(self):
        runtime = co.Lam("y", W, EX, co.App(W, EX, co.Var(1), co.Succ(co.Var(0))))
        assert strip_modes(runtime) is runtime
        erased = co.Pair(W, runtime, co.Lam("z", Z0, EX, co.Var(0)))
        stripped = strip_modes(erased)
        assert stripped.fst is runtime and stripped.snd == co.Lam("z", W, EX, co.Var(0))

    def test_agrees_with_a_full_rebuild_on_corpus(self, corpus):
        def rebuild(u: co.Term) -> co.Term:
            fields = (getattr(u, f) for f in u.__match_args__)
            u = type(u)(*(rebuild(v) if isinstance(v, co.Term) else v for v in fields))
            return u.replace(mode=W) if getattr(u, "mode", None) is Z0 else u

        for result in corpus.values():
            for d in result.decls:
                for t in (d.ty, d.body):
                    assert strip_modes(t) == rebuild(t), d.name

    def test_not_injective_but_conv_distinguishes(self):
        # The two function types collapse to the same stripped term while
        # remaining distinct in the mode-aware theory.
        pi0 = co.Pi("x", Z0, EX, co.NatTy(), co.NatTy())
        piw = co.Pi("x", W, EX, co.NatTy(), co.NatTy())
        assert strip_modes(pi0) == strip_modes(piw)
        assert not conv(MetaStore(), 0, evaluate((), pi0), evaluate((), piw))


class TestRecheckStripped:
    def test_identity_with_erased_type_argument(self):
        ty = co.Pi("A", Z0, Icit.IMPL, co.Univ(), co.Pi("x", W, EX, co.Var(0), co.Var(1)))
        body = co.Lam("A", Z0, Icit.IMPL, co.Lam("x", W, EX, co.Var(0)))
        recheck_stripped(Context(), strip_modes(body), strip_modes(ty))

    def test_erased_pair(self):
        ty = co.Sigma("n", Z0, co.NatTy(), co.NatTy())
        body = co.Pair(Z0, co.Lit(0), co.Lit(0))
        recheck_stripped(Context(), strip_modes(body), strip_modes(ty))

    def test_corpus_sweep(self, corpus):
        for name, result in corpus.items():
            rows = sweep(result)
            assert all(r.zeroing_ok for r in rows), name
            assert all(r.stripping_ok for r in rows), name
