"""Pins of the text of the two term printers, checkable without pytest.

`check(key)` prints the seeded random terms of the pin `key` of `PINNED`
with `tt0.core.pp` (core terms) or `tt0.extract.pp_target` (target terms)
and compares the sha256 of the texts, each followed by a newline, with
the pinned digest.  The generators reach every former in every position,
so each is printed at every precedence.  Binder names and the names in
scope at the top come from one small pool with `_` and primed names in
it, so a binder often clashes with a name in scope.  A variable may lie
out of scope (`@k`), and a meta captures entries of every mode, some
masked out by `let`s.  `main()` checks every pin and prints one line for
each, so that `tests/test_printer_pins.py` can run it in a child process
under every declared interpreter:

    python -c "import sys; sys.path[:0] = ['src', 'tests']; import printer_pins; printer_pins.main()"
"""

from __future__ import annotations

import hashlib
import random

from tt0 import core as co
from tt0 import extract as ex

NAMES = ["x", "x'", "x''", "y", "y'", "_", "f"]
MODES = [co.Mode.ZERO, co.Mode.OMEGA]
ICITS = [co.Icit.EXPL, co.Icit.IMPL]
DEPTH = 4

# Each pin: the language, the seed, how many terms, and the sha256 of
# their text.
PINNED = {
    "core-1": ("core", 1, 16_000, "eea7fa92b60bfc4a7f23cc6cb34a79dbdc603dbc8cdca28bde652de3419f2c78"),
    "core-2": ("core", 2, 16_000, "5a1393911882f6069824cf1fc4893df613f77d190a50b514ff5a661317c3281d"),
    "core-3": ("core", 3, 16_000, "2737fb5f8234b73c90c1083206303e5e34fc43dcd1398fc43c85e432ad2eb747"),
    "target-1": ("target", 1, 12_000, "9783c0a1a94b78b0df97a0f1319737f9398c451d18a67cf7a95f3632d5261a1c"),
    "target-2": ("target", 2, 12_000, "d45da797ef47f9bfb0ce7b43a9f7a4a8bc31814c4ddc4483e1c0105b75c60788"),
    "target-3": ("target", 3, 12_000, "4e1b06df7e10ac1a5f6cfc563c6aad89c024645bfffaef0fe3a22eac32b17734"),
}


def core_term(rng: random.Random, scope: int, depth: int) -> co.Term:
    """A random core term with `scope` names in scope."""
    if depth == 0 or rng.random() < 0.25:
        k = rng.randrange(5)
        if k == 0:
            return co.Var(rng.randrange(scope + 2))
        if k == 1:
            return rng.choice([co.Univ(), co.NatTy(), co.BoolTy(), co.TrueTm(), co.FalseTm()])
        if k == 2:
            return co.Lit(rng.randrange(4))
        if k == 3:
            mask = tuple(rng.choice([*MODES, None]) for _ in range(rng.randrange(4)))
            return co.Meta(rng.randrange(10), mask)
        return co.Var(rng.randrange(max(scope, 1)))

    def sub(bound: int = 0) -> co.Term:
        return core_term(rng, scope + bound, depth - 1)

    k = rng.randrange(13)
    if k == 0:
        return co.Lam(rng.choice(NAMES), rng.choice(MODES), rng.choice(ICITS), sub(1))
    if k == 1:
        return co.App(rng.choice(MODES), rng.choice(ICITS), sub(), sub())
    if k == 2:
        return co.Pi(rng.choice(NAMES), rng.choice(MODES), rng.choice(ICITS), sub(), sub(1))
    if k == 3:  # a non-dependent arrow, printed as `A → B`
        return co.Pi("_", co.Mode.OMEGA, co.Icit.EXPL, sub(), sub(1))
    if k == 4:
        return co.Sigma(rng.choice(NAMES), rng.choice(MODES), sub(), sub(1))
    if k == 5:
        return co.Pair(rng.choice(MODES), sub(), sub())
    if k == 6:
        return rng.choice([co.Fst, co.Snd])(rng.choice(MODES), sub())
    if k == 7:
        t = sub()
        for _ in range(rng.randrange(1, 4)):
            t = co.Succ(t)
        return t
    if k == 8:
        return co.NatElim(sub(), sub(), sub(), sub())
    if k == 9:
        return co.BoolElim(sub(), sub(), sub(), sub())
    if k == 10:
        return co.Let(rng.choice(NAMES), sub(), sub(), sub(1))
    if k == 11:
        return co.Meta(rng.randrange(10), tuple(rng.choice([*MODES, None]) for _ in range(5)))
    return co.App(co.Mode.OMEGA, co.Icit.EXPL, sub(), sub())


def target_term(rng: random.Random, scope: int, depth: int) -> ex.Target:
    """A random target term with `scope` names in scope."""
    if depth == 0 or rng.random() < 0.25:
        k = rng.randrange(4)
        if k == 0:
            return ex.TVar(rng.randrange(scope + 2))
        if k == 1:
            return rng.choice([ex.TTrue(), ex.TFalse()])
        if k == 2:
            return ex.TLit(rng.randrange(4))
        return ex.TVar(rng.randrange(max(scope, 1)))

    def sub(bound: int = 0) -> ex.Target:
        return target_term(rng, scope + bound, depth - 1)

    k = rng.randrange(9)
    if k == 0:
        return ex.TLam(rng.choice(NAMES), sub(1))
    if k == 1:
        return ex.TApp(sub(), sub())
    if k == 2:
        return ex.TPair(sub(), sub())
    if k == 3:
        return rng.choice([ex.TFst, ex.TSnd])(sub())
    if k == 4:
        t = sub()
        for _ in range(rng.randrange(1, 4)):
            t = ex.TSucc(t)
        return t
    if k == 5:
        return ex.TNatRec(sub(), sub(), sub())
    if k == 6:
        return ex.TIf(sub(), sub(), sub())
    if k == 7:
        return ex.TLet(rng.choice(NAMES), sub(), sub(1))
    return ex.TApp(sub(), sub())


def digest(language: str, seed: int, count: int) -> str:
    """The sha256 of the text of the pin's terms, each at a random
    precedence with a random tuple of names in scope."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        names = tuple(rng.choice(NAMES) for _ in range(rng.randrange(4)))
        if language == "core":
            t = core_term(rng, len(names), DEPTH)
            text = co.pp(t, names, rng.randrange(4))
        else:
            t = target_term(rng, len(names), DEPTH)
            text = ex.pp_target(t, names, rng.randrange(3))
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def check(key: str) -> None:
    language, seed, count, pinned = PINNED[key]
    got = digest(language, seed, count)
    assert got == pinned, (key, got)


def main() -> None:
    for key in sorted(PINNED):
        check(key)
        print(key, "ok")


if __name__ == "__main__":
    main()
