"""The fuel every corpus `main`, and four small mains shaped like the
benchmark's `eval` workload, needs under `eval_target`, pinned with the
redex read back when the fuel runs out halfway.

A change to the target machine that keeps its steps and its call-by-need
sharing leaves all three figures of every row as they are: the program
runs at its fuel `n`, raises `FuelExhausted` at `n - 1`, and at `n // 2`
stops at the same redex, read back the same way.
"""

from __future__ import annotations

import pytest

from conftest import corpus_files
from tt0.core import Context
from tt0.elab import closed_main, elaborate_text
from tt0.extract import FuelExhausted, eval_target, extract

PRELUDE = (
    "let id : {A :0 U} -> A -> A = \\{A} x. x;\n"
    "let plus : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;\n"
    "let mult : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) zero (\\k ih. plus n ih) m;\n"
)
LETS = "".join(f"let x{i} : Nat = plus {c} x{i - 1} in " for i, c in enumerate((11, 9, 10, 11), 1))
EVAL_MAINS = {
    "eval_mult": "id (mult 3 4)",
    "eval_plus": "id (plus 6 4)",
    "eval_pow2": "id (natElim (\\k. Nat) 1 (\\k ih. plus ih ih) 3)",
    "eval_lets": f"id (let x0 : Nat = 0 in {LETS}x4)",
}
SOURCES = {
    **{path.stem: path.read_text() for path in corpus_files()},
    **{name: f"{PRELUDE}main = {main};\n" for name, main in EVAL_MAINS.items()},
}

# Each program: the fuel it needs, and the redex `FuelExhausted` names at
# half of it.
PINS = {
    "apply": (5, r"(\f. \x. f x) (\n. succ n)"),
    "bool_dep_motive": (4, r"(\b. if b zero true) true"),
    "bools": (10, r"(\b. if true b false) ((\b. if b false true) false)"),
    "church_like": (
        21,
        r"(\ih. (\y. succ y) ih) (natrec (succ zero) (\k. \ih. (\y. succ y) ih) (succ "
        r"(succ zero)))",
    ),
    "compose": (7, r"(\g. \x. (\n. succ n) (g x)) (\n. succ n)"),
    "const_fn": (3, r"(\x. \y. x) (succ (succ (succ zero)))"),
    "deep_erased": (
        3,
        r"let fromE = (\f. f) (succ (succ (succ (succ (succ (succ zero)))))) in fromE",
    ),
    "double": (
        27,
        r"(\ih. succ ih) (natrec (succ (succ (succ (succ (succ (succ (succ zero))))))) "
        r"(\k. \ih. succ ih) (succ (succ (succ (succ zero)))))",
    ),
    "erased_bool": (2, r"if true (succ (succ (succ (succ zero)))) (succ zero)"),
    "erased_closednat": (17, r"(\k. \ih. succ ih) (succ (succ zero))"),
    "erased_const0": (1, r"let f0 = zero in f0"),
    "erased_const7": (1, r"let f7 = succ (succ (succ (succ (succ (succ (succ zero)))))) in f7"),
    "erased_plus23": (11, r"(\k. \ih. succ ih) (succ zero)"),
    "erased_scrutinee_ok": (
        4,
        r"let pick = \y. succ (succ (succ zero)) in pick ((\x. zero) (succ (succ (succ "
        r"(succ (succ zero))))))",
    ),
    "erased_sig_arg": (
        2,
        r"(\p. p) (succ (succ (succ (succ (succ (succ (succ (succ (succ zero)))))))))",
    ),
    "eta_laws": (6, r"(\q. (\p. fst p) q) (succ (succ (succ (succ zero))), zero)"),
    "fin_pair": (3, r"let value = fst (succ zero, succ (succ zero)) in value"),
    "flip": (15, r"(\n. natrec n (\k. \ih. succ ih) (succ (succ zero))) (succ zero)"),
    "hole_function": (
        3,
        r"let seven = (\y. y) (succ (succ (succ (succ (succ (succ (succ zero))))))) in "
        r"seven",
    ),
    "hole_implicit": (3, r"let one = (\x. x) (succ zero) in one"),
    "holes": (2, r"let h = zero in h"),
    "id_insert": (5, r"let idNat = \x. x in idNat ((\x. x) (succ zero))"),
    "identity": (2, r"(\x. x) (succ zero)"),
    "impl_runtime": (4, r"(\k. \x. x) (succ (succ (succ zero)))"),
    "locallet": (5, r"(\n. let twiceN = succ (succ n) in twiceN) (let y = succ zero in succ y)"),
    "mult": (
        59,
        r"(\ih. succ ih) (natrec (natrec zero (\k. \ih. (\m. \n. natrec n (\k'. \ih'. succ"
        r" ih') m) (succ (succ (succ (succ zero)))) ih) (succ zero)) (\k. \ih. succ ih) "
        r"(succ (succ (succ zero))))",
    ),
    "nat_pred": (
        5,
        r"natrec zero (\k. \ih. k) (succ (succ (succ (succ (succ (succ (succ (succ (succ "
        r"zero)))))))))",
    ),
    "pair_eta": (3, r"let first = fst (succ (succ zero), true) in first"),
    "plus": (
        10,
        r"(\ih. succ ih) (natrec (succ (succ (succ zero))) (\k. \ih. succ ih) (succ zero))",
    ),
    "proj_chain": (4, r"fst ((succ zero, succ (succ zero)), succ (succ (succ zero)))"),
    "snd_erased_chain": (
        2,
        r"let out = succ (succ (succ (succ (succ (succ (succ (succ zero))))))) in out",
    ),
    "tracking_fns": (
        18,
        r"natrec ((\n. succ n) ((\n. succ (succ (succ (succ (succ (succ (succ (succ (succ "
        r"zero))))))))) zero)) (\k. \ih. succ ih) (succ (succ zero))",
    ),
    "twice": (5, r"(\x. (\n. succ (succ n)) ((\n. succ (succ n)) x)) zero"),
    "vec_pair": (2, r"let second = succ (succ (succ (succ (succ zero)))) in second"),
    "weaken": (3, r"(\n. \f. f) (succ (succ (succ zero)))"),
    "eval_mult": (61, r"(\k. \ih. succ ih) (succ (succ (succ zero)))"),
    "eval_plus": (24, r"(\k. \ih. succ ih) (succ (succ (succ zero)))"),
    "eval_pow2": (43, r"(\ih. succ ih) (natrec (succ zero) (\k. \ih. succ ih) zero)"),
    "eval_lets": (143, r"(\k. \ih. succ ih) (succ zero)"),
}


def test_every_program_is_pinned():
    assert sorted(PINS) == sorted(SOURCES)
    assert len(SOURCES) == 39


@pytest.mark.parametrize("name", sorted(PINS))
def test_fuel_and_redex_at_exhaustion(name):
    result = elaborate_text(SOURCES[name])
    assert result.ok, [e.message for e in result.errors]
    target = extract(Context(), closed_main(result))
    fuel, redex = PINS[name]
    eval_target(target, fuel)
    with pytest.raises(FuelExhausted):
        eval_target(target, fuel - 1)
    with pytest.raises(FuelExhausted) as e:
        eval_target(target, fuel // 2)
    assert str(e.value) == f"fuel exhausted while reducing {redex}"
