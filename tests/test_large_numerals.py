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
