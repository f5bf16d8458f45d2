"""Numerals, JSON trees and chains of definitions as large as memory
allows, at the interpreter's default stack.

The suite's `conftest` raises the recursion limit; these tests run in a
fresh interpreter so that the default limit applies.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from conftest import REPO

MILLION = "let x : Nat = 1000000;\nmain = x;\n"
PLUS = "let plus : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;\n"
PLUS_MILLION = PLUS + "let x : Nat = 1000000;\nmain = plus 3 (succ x);\n"


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_library_pipeline_at_default_recursion_limit():
    script = textwrap.dedent(
        """
        import sys
        from tt0 import translate
        from tt0.core import Context
        from tt0.elab import closed_main, elaborate_text
        from tt0.extract import as_numeral, eval_target, extract

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        for source in sys.argv[1:]:
            result = elaborate_text(source)
            assert result.ok, [e.message for e in result.errors]
            rows = translate.sweep(result)
            assert all(r.zeroing_ok and r.stripping_ok for r in rows)
            target = extract(Context(), closed_main(result))
            print(as_numeral(eval_target(target)))
        """
    )
    proc = python("-c", script, MILLION, PLUS_MILLION)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1000000", "1000004"]


def test_cli_checks_and_runs_a_million(tmp_path):
    f = tmp_path / "million.tt0"
    f.write_text(MILLION)
    check = python("-m", "tt0", "check", str(f))
    assert check.returncode == 0, check.stderr[-2000:]
    assert check.stdout.splitlines() == ["ok x : Nat", "ok main : Nat"]
    run = python("-m", "tt0", "run", str(f))
    assert run.returncode == 0, run.stderr[-2000:]
    printed, value = run.stdout.splitlines()
    assert value == "= 1000000"
    assert printed == "succ " + "(succ " * 999_999 + "zero" + ")" * 999_999


def test_cli_json_nests_a_numeral_past_the_c_stack(tmp_path):
    # The standard JSON encoder recurses in C once per level and overflows
    # the C stack (a segmentation fault) well before 200 000 levels.
    n = 200_000
    f = tmp_path / "big.tt0"
    f.write_text(f"main = {n};\n")
    run = python("-m", "tt0", "run", str(f), "--json")
    assert run.returncode == 0, run.stderr[-2000:]
    chain = '{"tag": "succ", "arg": ' * n + '{"tag": "zero"}' + "}" * n
    assert run.stdout == f'{{"version": 1, "result": {chain}, "numeral": {n}}}\n'


def test_json_codec_at_default_recursion_limit():
    # Compared as text: record equality recurses once per level.
    script = textwrap.dedent(
        """
        import sys
        from tt0.core import Succ, Var
        from tt0.extract import target_from_json
        from tt0.jsontext import to_json

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        n = 100_000
        var = '{"tag": "Var", "ix": 0}'
        t = Var(0)
        for _ in range(n):
            t = Succ(t)
        assert to_json(t) == '{"tag": "succ", "arg": ' * n + var + "}" * n
        d = {"tag": "Var", "ix": 0}
        for _ in range(n):
            d = {"tag": "Lam", "name": "x", "body": d}
        text = to_json(target_from_json(d))
        assert text == '{"tag": "Lam", "name": "x", "body": ' * n + var + "}" * n
        print("ok")
        """
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


def test_function_of_a_large_literal_runs_at_default_recursion_limit(tmp_path):
    # `f 7` reduces to 200 000 successors of 7, one thunk each; readback
    # forces them and folds them into a literal in a loop.
    source = PLUS + "let f : Nat -> Nat = \\x. plus 200000 x;\nmain = f 7;\n"
    script = textwrap.dedent(
        """
        import sys
        from tt0.core import Context
        from tt0.elab import closed_main, elaborate_text
        from tt0.extract import as_numeral, eval_target, extract

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        result = elaborate_text(sys.argv[1])
        assert result.ok, [e.message for e in result.errors]
        print(as_numeral(eval_target(extract(Context(), closed_main(result)))))
        """
    )
    proc = python("-c", script, source)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "200007\n"
    f = tmp_path / "f.tt0"
    f.write_text(source)
    run = python("-m", "tt0", "run", str(f), "--json")
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.endswith(', "numeral": 200007}\n')


def test_chains_of_definitions_at_default_recursion_limit():
    # Each value is read back after the whole chain is bound, so a value
    # that is computed only when first read must not nest one call per link.
    decls = "let a0 : Nat = 0;\n" + "".join(
        f"let a{i} : Nat = succ a{i - 1};\n" for i in range(1, 2001)
    )
    lets = "".join(f"let x{i} : Nat = succ x{i - 1} in " for i in range(1, 301))
    nested = f"main = let x0 : Nat = 0 in {lets}x300;\n"
    script = textwrap.dedent(
        """
        import sys
        from tt0 import translate
        from tt0.core import normal_form, quote
        from tt0.elab import closed_main, elaborate_text

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        r = elaborate_text(sys.argv[1])
        assert r.ok, [e.message for e in r.errors]
        assert all(row.zeroing_ok and row.stripping_ok for row in translate.sweep(r))
        print(quote(r.store, 0, r.decls[-1].body_value))
        r = elaborate_text(sys.argv[2])
        assert r.ok, [e.message for e in r.errors]
        print(normal_form(r.store, (), closed_main(r)))
        """
    )
    proc = python("-c", script, decls, nested)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["Lit(n=2000)", "Lit(n=300)"]


def test_normal_form_of_a_long_successor_chain_over_a_variable(tmp_path):
    # 150 000 successors of a neutral, built, eliminated, read back and
    # printed in loops.  The four commands run side by side.
    n = 150_000
    f = tmp_path / "nf.tt0"
    f.write_text(
        PLUS
        + f"let f : Nat -> Nat = \\x. plus {n} x;\n"
        + f"let g : Nat -> Nat = \\x. natElim (\\k. Nat) zero (\\k ih. succ ih) (plus {n} x);\n"
    )
    x_json = '{"tag": "Var", "ix": 0}'

    def lam_json(name: str, body: str) -> str:
        return f'{{"tag": "Lam", "name": "{name}", "mode": "w", "implicit": false, "body": {body}}}'

    nat_json, succ_x_json = '{"tag": "Nat"}', f'{{"tag": "succ", "arg": {x_json}}}'
    elim_json = (
        f'{{"tag": "natElim", "motive": {lam_json("k", nat_json)}, '
        f'"zcase": {{"tag": "zero"}}, "scase": {lam_json("k", lam_json("ih", succ_x_json))}, '
        f'"scrut": {x_json}}}'
    )
    bases = {
        "f": ("x", x_json),
        "g": ("(natElim (λ k. Nat) zero (λ k. λ ih. succ ih) x)", elim_json),
    }
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    procs = {
        (name, flags): subprocess.Popen(
            [sys.executable, "-m", "tt0", "nf", str(f), "--def", name, *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for name in bases
        for flags in ((), ("--json",))
    }
    for (name, flags), proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        base, base_json = bases[name]
        if flags:
            chain = '{"tag": "succ", "arg": ' * n + base_json + "}" * n
            assert out == f'{{"version": 1, "nf": {lam_json("x", chain)}}}\n'
        else:
            assert out == "λ x. succ " + "(succ " * (n - 1) + base + ")" * (n - 1) + "\n"


def test_conversion_of_long_successor_chains_over_a_variable(tmp_path):
    # `conv` and `unify` strip the successors two chains share in a loop.
    # The CLI checks 150 000 of them under its own stack limit; the library
    # compares 5 000, equal and one apart, at the default limit.
    n = 150_000
    f = tmp_path / "conv.tt0"
    ty = "(F :0 Nat -> U) -> (x : Nat) -> F (plus {} x) -> F (plus {} x)"
    f.write_text(PLUS + f"let f : {ty.format(n, n)} = \\F x y. y;\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    cli = subprocess.Popen(
        [sys.executable, "-m", "tt0", "check", str(f)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    script = textwrap.dedent(
        """
        import sys
        from tt0.elab import elaborate_text

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        for source in sys.argv[1:]:
            print([e.message for e in elaborate_text(source).errors])
        """
    )
    m = 5000
    library = python(
        "-c", script, *(PLUS + f"let f : {ty.format(m, k)} = \\F x y. y;\n" for k in (m, m + 1))
    )
    assert library.returncode == 0, library.stderr[-2000:]

    def chain(k: int) -> str:
        return "F " + "(succ " * k + "x" + ")" * k

    mismatch = f"type mismatch: expected {chain(m + 1)}, got {chain(m)}"
    assert library.stdout.splitlines() == [
        "[]", repr([mismatch + " (terms have different head constructors)"])
    ]
    out, err = cli.communicate(timeout=300)
    assert cli.returncode == 0, err[-2000:]
    lit = "(succ " * n + "zero" + ")" * n
    assert out.splitlines() == [
        "ok plus : Nat → Nat → Nat",
        f"ok f : Π₀ (F : Nat → U). Π (x : Nat). F (plus {lit} x) → F (plus {lit} x)",
    ]


def test_solving_a_long_successor_chain_at_default_recursion_limit():
    # `rename` and the kernel's check of the solution walk the chain in
    # loops, so the solve passes whatever limit an earlier test left set.
    script = textwrap.dedent(
        """
        import sys
        from tt0 import core as co
        from tt0.core import Context, NatTy, VSucc, evaluate
        from tt0.surface import Mode
        from tt0.unify import MetaStore, fresh_meta, solve

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        store = MetaStore()
        ctx = Context().bind("x", Mode.OMEGA, NatTy())
        m = fresh_meta(store, ctx, NatTy())
        rhs = co.vvar(0)
        for _ in range(40_000):
            rhs = VSucc(rhs)
        solve(store, ctx.depth, 0, evaluate(ctx.env, m).spine, rhs, ctx.name)
        body, k = store.lookup(0).solution_body, 0
        while isinstance(body, co.Succ):
            body, k = body.arg, k + 1
        print(k, body)
        """
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "40000 Var(ix=0)\n"


def test_printing_a_long_successor_chain_over_a_variable(tmp_path):
    # `pp_target` walks the chain in a loop: the library prints 5 000
    # successors at the default limit, and `tt0 run` prints 120 000 as
    # text under its own limit, as it does as JSON.
    script = textwrap.dedent(
        """
        import sys
        from tt0.extract import TLam, TSucc, TVar, pp_target

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        t = TVar(0)
        for _ in range(5000):
            t = TSucc(t)
        print(pp_target(TLam("x", t)))
        print(pp_target(TSucc(t), ("y",), 2))
        """
    )
    library = python("-c", script)
    assert library.returncode == 0, library.stderr[-2000:]

    def chain(k: int, base: str) -> str:
        return "succ " + "(succ " * (k - 1) + base + ")" * (k - 1)

    assert library.stdout.splitlines() == ["\\x. " + chain(5000, "x"), f"({chain(5001, 'y')})"]
    n = 120_000
    f = tmp_path / "plus.tt0"
    f.write_text(PLUS + f"main = \\(x : Nat). plus {n} x;\n")
    run = python("-m", "tt0", "run", str(f))
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout == "\\x. " + chain(n, "x") + "\n"



def test_printing_deep_terms_of_every_target_form(tmp_path):
    # `pp_target` prints on an explicit stack: 20 000 levels of each form
    # print at the default limit in the library, and `tt0 run` prints an
    # application 120 000 deep as text, as it does as JSON.
    n = 20_000
    script = textwrap.dedent(
        """
        import sys
        from tt0.extract import (
            TApp, TFst, TIf, TLam, TLet, TLit, TNatRec, TPair, TSnd, TSucc, TTrue, TVar,
            pp_target,
        )

        assert sys.getrecursionlimit() == 1000, sys.getrecursionlimit()
        forms = [
            lambda t: TApp(TVar(0), t),
            lambda t: TApp(t, TVar(0)),
            lambda t: TLam("_", t),
            lambda t: TLet("_", TLit(1), t),
            lambda t: TPair(t, TTrue()),
            lambda t: TFst(t),
            lambda t: TSnd(t),
            lambda t: TNatRec(TLit(0), t, TVar(0)),
            lambda t: TIf(t, TVar(0), TVar(0)),
            lambda t: TSucc(TApp(TVar(0), t)),
        ]
        for form in forms:
            t = TVar(0)
            for _ in range(int(sys.argv[1])):
                t = form(t)
            print(pp_target(t, ("f",)))
        """
    )
    library = python("-c", script, str(n))
    assert library.returncode == 0, library.stderr[-2000:]
    m = n - 1  # the levels below the outermost, each wrapped
    assert library.stdout.splitlines() == [
        "f " + "(f " * m + "f" + ")" * m,
        "f" + " f" * n,
        "\\_. " * n + "_",
        "let _ = succ zero in " * n + "_",
        "(" * n + "f" + ", true)" * n,
        "fst " + "(fst " * m + "f" + ")" * m,
        "snd " + "(snd " * m + "f" + ")" * m,
        "natrec zero " + "(natrec zero " * m + "f" + " f)" * m + " f",
        "if " + "(if " * m + "f" + " f f)" * m + " f f",
        "succ (f " + "(succ (f " * m + "f" + "))" * m + ")",
    ]
    n = 120_000
    f = tmp_path / "apply.tt0"
    f.write_text(f"main = \\(f : Nat -> Nat) (x : Nat). natElim (\\k. Nat) x (\\k ih. f ih) {n};\n")
    run = python("-m", "tt0", "run", str(f))
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout == "\\f. \\x. " + "f (" * (n - 1) + "f x" + ")" * (n - 1) + "\n"
