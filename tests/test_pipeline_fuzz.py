"""Differential fuzzing of the whole pipeline.

Random well-formed modules are elaborated, swept through both mode
translations, and their numeric definitions are evaluated twice: by core
NbE and by extraction plus the target evaluator.  The two must agree
everywhere.
"""

from __future__ import annotations

import random

from tt0 import core as co
from tt0.core import Context, NatTy, normal_form
from tt0.elab import closed_definition, closed_main, elaborate_text
from tt0.extract import as_numeral, eval_target, extract
from tt0.translate import sweep

PLUS = (
    "let plus : Nat -> Nat -> Nat = "
    "\\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;"
)


def gen_nat(rng: random.Random, depth: int, vars_: list[str], fns: list[str]) -> str:
    choices = ["lit"]
    if vars_:
        choices += ["var"] * 2
    if depth > 0:
        choices += ["succ", "app", "let", "bool", "rec", "redex"]
        if fns:
            choices += ["fn", "fn"]
    match rng.choice(choices):
        case "lit":
            return str(rng.randint(0, 3))
        case "var":
            return rng.choice(vars_)
        case "succ":
            return f"(succ {gen_nat(rng, depth - 1, vars_, fns)})"
        case "app":
            a = gen_nat(rng, depth - 1, vars_, fns)
            b = gen_nat(rng, depth - 1, vars_, fns)
            return f"(plus {a} {b})"
        case "fn":
            f = rng.choice(fns)
            a = gen_nat(rng, depth - 1, vars_, fns)
            return f"({f} {a})"
        case "let":
            x = f"v{rng.randint(0, 99)}"
            d = gen_nat(rng, depth - 1, vars_, fns)
            b = gen_nat(rng, depth - 1, vars_ + [x], fns)
            return f"(let {x} : Nat = {d} in {b})"
        case "bool":
            c = rng.choice(["true", "false"])
            a = gen_nat(rng, depth - 1, vars_, fns)
            b = gen_nat(rng, depth - 1, vars_, fns)
            return f"(boolElim (\\b. Nat) {a} {b} {c})"
        case "rec":
            n = gen_nat(rng, depth - 1, vars_, fns)
            z = gen_nat(rng, depth - 1, vars_, fns)
            return f"(natElim (\\k. Nat) {z} (\\k ih. succ ih) {n})"
        case "redex":
            x = f"w{rng.randint(0, 99)}"
            a = gen_nat(rng, depth - 1, vars_, fns)
            b = gen_nat(rng, depth - 1, vars_ + [x], fns)
            return f"((\\{x}. {b}) {a})"
    raise AssertionError


def gen_module(rng: random.Random) -> str:
    lines = [PLUS]
    fns = ["plus 1"]  # partially applied addition is a fine Nat -> Nat
    nat_names: list[str] = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(["nat", "fn", "erased"])
        name = f"d{i}"
        if kind == "nat":
            body = gen_nat(rng, 2, nat_names, fns)
            lines.append(f"let {name} : Nat = {body};")
            nat_names.append(name)
        elif kind == "fn":
            body = gen_nat(rng, 2, nat_names + ["arg"], fns)
            lines.append(f"let {name} : Nat -> Nat = \\arg. {body};")
            fns.append(name)
        else:
            body = gen_nat(rng, 2, nat_names, fns)
            lines.append(f"let {name} : (e :0 Nat) -> Nat = \\e. {body};")
    lines.append(f"main = {gen_nat(rng, 2, nat_names, fns)};")
    return "\n".join(lines)


def test_random_modules_agree_everywhere():
    rng = random.Random(20260809)
    for trial in range(40):
        src = gen_module(rng)
        result = elaborate_text(src, f"<fuzz {trial}>")
        assert result.ok, (src, [e.message for e in result.errors])
        rows = sweep(result)
        assert all(r.zeroing_ok and r.stripping_ok for r in rows), src
        for d in result.decls:
            if d.ty_value != NatTy():
                continue
            closed = closed_definition(result, d.name)
            nf = normal_form(result.store, (), closed)
            assert isinstance(nf, co.Lit), src
            assert as_numeral(eval_target(extract(Context(), closed))) == nf.n, src
        main_closed = closed_main(result)
        main_core = normal_form(result.store, (), main_closed)
        assert isinstance(main_core, co.Lit), src
        assert as_numeral(eval_target(extract(Context(), main_closed))) == main_core.n, src
