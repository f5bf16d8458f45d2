from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_CORPUS, CORPUS, REPO, corpus_files
from tt0 import cli
from tt0 import core as co
from tt0.cli import main
from tt0.core import Mode
from tt0.diagnostics import Diagnostic, SourceSpan
from tt0.extract import Target, TLit, TVar, target_from_json
from tt0.jsontext import to_json


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_identity_module(self, capsys):
        code, out, err = run(capsys, "check", str(CORPUS / "identity.tt0"))
        assert code == 0
        assert out.startswith("ok id : ")
        assert err == ""

    def test_mode_error_exit_one(self, capsys):
        code, out, err = run(capsys, "check", str(BAD_CORPUS / "bad_mode.tt0"))
        assert code == 1
        assert "error:" in err
        assert "erased variable" in err

    def test_unsolved_meta_exit_one(self, capsys):
        code, _, err = run(capsys, "check", str(BAD_CORPUS / "bad_unsolved.tt0"))
        assert code == 1
        assert "unsolved metavariable" in err

    def test_parse_error_has_location(self, capsys):
        code, _, err = run(capsys, "check", str(BAD_CORPUS / "bad_parse.tt0"))
        assert code == 1
        assert "bad_parse.tt0:1:15" in err

    def test_json_diagnostics(self, capsys):
        code, _, err = run(
            capsys, "check", str(BAD_CORPUS / "bad_mode.tt0"), "--json"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["version"] == 1
        assert payload["diagnostics"][0]["line"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no_such_file.tt0")
        assert code == 1
        assert "cannot read" in err

    def test_non_utf8_source_is_diagnostic(self, capsys, tmp_path):
        f = tmp_path / "latin1.tt0"
        f.write_bytes(b"main = \xff;")
        code, _, err = run(capsys, "check", str(f))
        assert code == 1
        assert err.startswith(f"error: cannot read {f}: not UTF-8 text")
        code, _, err = run(capsys, "check", str(f), "--json")
        assert code == 1
        [diag] = json.loads(err)["diagnostics"]
        assert diag["message"].startswith(f"cannot read {f}: not UTF-8 text")

    def test_deep_nesting_is_located_parse_error(self, tmp_path):
        # Run as the `tt0` script runs, so that a traceback would show.
        f = tmp_path / "deep.tt0"
        f.write_text("main = " + "(" * 50_000 + "zero" + ")" * 50_000 + ";\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tt0", "check", str(f)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.match(rf"{re.escape(str(f))}:1:\d+: error: term nested too deeply", proc.stderr)

    def test_long_literal_is_located_lex_error(self, tmp_path):
        # Python refuses int() of more than 4 300 digits; the lexer reports it.
        f = tmp_path / "long.tt0"
        f.write_text("main = " + "1" * 5_000 + ";\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tt0", "check", str(f)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "internal error" not in proc.stderr
        assert proc.stderr.startswith(f"{f}:1:8: error: number literal too long (5000 digits)")

    def test_long_line_excerpt_is_clipped_around_the_caret(self, capsys, tmp_path):
        f = tmp_path / "long.tt0"
        f.write_text("main = " + "1" * 5_000 + ";\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 1
        message, excerpt, caret = err.splitlines()
        assert message.startswith(f"{f}:1:8: error: number literal too long")
        assert len(excerpt) < 150 and excerpt.endswith("1…")
        assert caret.endswith("^") and len(caret) - 1 == excerpt.index("1")
        # A caret far into a long line: the start is cut as well.
        line = " " * 5_000 + "x" + " " * 5_000
        rendered = Diagnostic("here", SourceSpan("f", 1, 5_001, 1, 5_002)).render(line)
        _, excerpt, caret = rendered.splitlines()
        assert len(excerpt) < 150 and excerpt.startswith("  …") and excerpt.endswith("…")
        assert caret.endswith("^") and excerpt[len(caret) - 1] == "x"

    @pytest.mark.parametrize("brk", ["\f", "\u2028"], ids=["form feed", "U+2028"])
    def test_excerpt_counts_lines_at_newlines_only(self, capsys, tmp_path, brk):
        # str.splitlines() also breaks at these; the tokenizer does not.
        f = tmp_path / "brk.tt0"
        f.write_text(f"-- a{brk}b\nlet x : Nat = y;", encoding="utf-8")
        code, _, err = run(capsys, "check", str(f))
        assert code == 1
        assert err.splitlines() == [
            f"{f}:2:15: error: unbound name 'y'",
            "  let x : Nat = y;",
            "                ^",
        ]

    def test_crlf_excerpt_shows_the_line_without_its_carriage_return(self, capsys, tmp_path):
        f = tmp_path / "crlf.tt0"
        f.write_bytes(b"-- a\r\nlet x : Nat = y;\r\n")
        expected = [
            f"{f}:2:15: error: unbound name 'y'",
            "  let x : Nat = y;",
            "                ^",
        ]
        code, _, err = run(capsys, "check", str(f))
        assert code == 1 and err.split("\n") == expected + [""]
        # The same source given to render as it is, carriage returns and all.
        diag = Diagnostic("unbound name 'y'", SourceSpan(str(f), 2, 15, 2, 15))
        assert diag.render(f.read_bytes().decode()).split("\n") == expected

    def test_lone_carriage_return_is_one_column(self, capsys, tmp_path):
        # As the tokenizer counts it: the same place as `elaborate_text` gives.
        f = tmp_path / "cr.tt0"
        f.write_bytes(b"let x : Nat =\ry;\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 1
        assert err.split("\n") == [
            f"{f}:1:15: error: unbound name 'y'",
            "  let x : Nat = y;",
            "                ^",
            "",
        ]
        code, _, err = run(capsys, "check", str(f), "--json")
        assert code == 1
        [diag] = json.loads(err)["diagnostics"]
        assert (diag["line"], diag["col"]) == (1, 15)

    def test_tab_before_an_unbound_name_keeps_the_caret_under_it(self, capsys, tmp_path):
        f = tmp_path / "tab.tt0"
        f.write_text("let x : Nat =\ty;\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 1
        message, excerpt, caret = err.splitlines()
        assert message == f"{f}:1:15: error: unbound name 'y'"
        assert excerpt == "  let x : Nat = y;"
        assert excerpt[len(caret) - 1] == "y" and caret.strip() == "^"

    @pytest.mark.parametrize("use_json", [False, True])
    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch, use_json):
        def broken(result, args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "check", broken)
        argv = ["check", str(CORPUS / "identity.tt0")] + (["--json"] if use_json else [])
        code, _, err = run(capsys, *argv)
        assert code == 1
        message = "check: RuntimeError: boom"
        if use_json:
            [diag] = json.loads(err)["diagnostics"]
            assert diag == {"severity": "internal error", "message": message}
        else:
            assert err == f"internal error: {message}\n"


TERMS = [
    co.Lit(3), co.Meta(4, (None, Mode.ZERO, Mode.OMEGA)), TLit(2), TVar(0),
    co.Succ(co.Var(0)),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.sampled_from(TERMS),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


def _terms_as_objects(value: object) -> object:
    """The value with each term replaced by the object its JSON text reads as."""
    if isinstance(value, list):
        return [_terms_as_objects(v) for v in value]
    if isinstance(value, dict):
        return {k: _terms_as_objects(v) for k, v in value.items()}
    if isinstance(value, (co.Term, Target)):
        return json.loads(to_json(value))
    return value


class TestJsonWriter:
    # The envelopes the CLI prints hold terms, so the one writer is checked
    # on JSON values with terms among their leaves.
    @settings(max_examples=50, deadline=None)
    @given(json_values)
    def test_writes_what_json_dumps_writes(self, value):
        assert to_json(value) == json.dumps(_terms_as_objects(value))


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate", "x.tt0")[0] == 2

    def test_missing_def_flag(self, capsys):
        assert run(capsys, "nf", str(CORPUS / "plus.tt0"))[0] == 2

    def test_extract_requires_target(self, capsys):
        assert run(capsys, "extract", str(CORPUS / "plus.tt0"))[0] == 2


class TestRun:
    def test_identity_main(self, capsys):
        code, out, _ = run(capsys, "run", str(CORPUS / "identity.tt0"))
        assert code == 0
        assert out.splitlines() == ["succ zero", "= 1"]

    def test_plus_main(self, capsys):
        code, out, _ = run(capsys, "run", str(CORPUS / "plus.tt0"))
        assert code == 0
        assert out.splitlines()[-1] == "= 5"

    def test_printed_numeral_parses_back(self, capsys, tmp_path):
        # `run` prints a literal as its `succ (…)` chain; that text, nested
        # 15 000 levels deep, is a program `check` and `run` accept.
        f = tmp_path / "lit.tt0"
        f.write_text("main = 15000;\n")
        code, out, _ = run(capsys, "run", str(f))
        assert code == 0
        printed, value = out.splitlines()
        assert value == "= 15000"
        f.write_text(f"main = {printed};\n")
        assert run(capsys, "check", str(f)) == (0, "ok main : Nat\n", "")
        assert run(capsys, "run", str(f)) == (0, out, "")

    def test_fuel_exhaustion_exit_three(self, capsys):
        code, _, err = run(capsys, "run", str(CORPUS / "mult.tt0"), "--fuel", "2")
        assert code == 3
        assert "fuel exhausted" in err

    def test_fuel_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TT0_FUEL", "2")
        code, _, _ = run(capsys, "run", str(CORPUS / "mult.tt0"))
        assert code == 3
        monkeypatch.setenv("TT0_FUEL", "100000")
        code, out, _ = run(capsys, "run", str(CORPUS / "mult.tt0"))
        assert code == 0
        assert out.splitlines()[-1] == "= 12"

    def test_no_main_is_diagnostic(self, capsys, tmp_path):
        f = tmp_path / "nomain.tt0"
        f.write_text("let x : Nat = zero;\n")
        code, _, err = run(capsys, "run", str(f))
        assert code == 1
        assert "no main" in err

    def test_invalid_fuel_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TT0_FUEL", "plenty")
        code, _, err = run(capsys, "run", str(CORPUS / "plus.tt0"))
        assert code == 2
        assert "TT0_FUEL" in err

    def test_fuel_zero_means_unbounded(self, capsys):
        code, out, _ = run(capsys, "run", str(CORPUS / "mult.tt0"), "--fuel", "0")
        assert code == 0
        assert out.splitlines()[-1] == "= 12"

    def test_fuel_pins_step_count(self, capsys, tmp_path):
        # `plus 500 500` takes exactly 1504 reduction steps.
        plus = (CORPUS / "mult.tt0").read_text().split("let mult")[0]
        f = tmp_path / "plus500.tt0"
        f.write_text(plus + "main = plus 500 500;\n")
        code, out, _ = run(capsys, "run", str(f), "--fuel", "1504")
        assert code == 0
        assert out.splitlines()[-1] == "= 1000"
        code, _, err = run(capsys, "run", str(f), "--fuel", "1503")
        assert code == 3
        assert "fuel exhausted" in err

    def test_non_numeric_result_prints_plain(self, capsys, tmp_path):
        f = tmp_path / "boolmain.tt0"
        f.write_text("main = true;\n")
        code, out, _ = run(capsys, "run", str(f))
        assert code == 0
        assert out.splitlines() == ["true"]

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tt0", "run", str(CORPUS / "plus.tt0")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "= 5"

    def test_closed_stdout_ends_output_quietly(self, tmp_path):
        # As `tt0 run big.tt0 | head -c 20`: the printed numeral is far
        # larger than a pipe buffer, so the reader closes stdout mid-write.
        f = tmp_path / "big.tt0"
        f.write_text("main = 200000;\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tt0", "run", str(f)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.stdout.read(20) == b"succ (succ (succ (su"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""


class TestExtract:
    def test_erased_pair_definition(self, capsys):
        code, out, _ = run(
            capsys, "extract", str(CORPUS / "vec_pair.tt0"), "--def", "p"
        )
        assert code == 0
        assert out.strip() == "succ (succ (succ (succ (succ zero))))"

    def test_identity_definition(self, capsys):
        code, out, _ = run(
            capsys, "extract", str(CORPUS / "identity.tt0"), "--def", "id"
        )
        assert code == 0
        assert out.strip() == "\\x. x"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "extract", str(CORPUS / "plus.tt0"), "--main", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 1
        target_from_json(payload["target"])

    def test_unknown_definition(self, capsys):
        code, _, err = run(
            capsys, "extract", str(CORPUS / "plus.tt0"), "--def", "ghost"
        )
        assert code == 1
        assert "no declaration" in err


class TestNf:
    def test_plus_definition_normal_form(self, capsys):
        code, out, _ = run(capsys, "nf", str(CORPUS / "plus.tt0"), "--def", "five")
        assert code == 0
        assert out.strip() == "succ (succ (succ (succ (succ zero))))"


class TestMeta:
    def test_table_all_ok(self, capsys):
        code, out, _ = run(capsys, "meta", str(CORPUS / "plus.tt0"))
        assert code == 0
        lines = out.splitlines()
        assert "zeroing" in lines[0] and "stripping" in lines[0]
        assert all("ok" in line for line in lines[1:])

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "meta", str(CORPUS / "mult.tt0"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {d["name"] for d in payload["decls"]} == {"plus", "mult", "six"}


class TestElab:
    def test_modes_visible(self, capsys):
        code, out, _ = run(capsys, "elab", str(CORPUS / "identity.tt0"))
        assert code == 0
        assert "λ₀" in out or "Π₀" in out

    def test_json_versioned(self, capsys):
        code, out, _ = run(capsys, "elab", str(CORPUS / "identity.tt0"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["decls"][0]["name"] == "id"
        assert payload["decls"][0]["body"]["tag"] == "Lam"
        assert payload["decls"][0]["body"]["mode"] == "0"


class TestPipelineCoherence:
    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
    def test_check_zero_implies_all_succeed(self, capsys, path):
        assert run(capsys, "check", str(path))[0] == 0
        assert run(capsys, "elab", str(path))[0] == 0
        assert run(capsys, "meta", str(path))[0] == 0
        first = next(
            line.split()[1] for line in run(capsys, "check", str(path))[1].splitlines()
        )
        if first != "main":
            assert run(capsys, "nf", str(path), "--def", first)[0] == 0
            assert run(capsys, "extract", str(path), "--def", first)[0] == 0

    @pytest.mark.parametrize("path", sorted(BAD_CORPUS.glob("*.tt0")), ids=lambda p: p.stem)
    def test_bad_corpus_rejected(self, capsys, path):
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "error:" in err

    def test_module_of_500_declarations(self, capsys, tmp_path):
        # One declaration per line, each using the one before it through the
        # signature; 500 declarations in all.
        names = ["id"] + [f"d_{i}" for i in range(2, 501)]
        lines = ["let id : {A :0 U} -> A -> A = \\{A} x. x;", "let d_2 : Nat = 2;"]
        lines += [f"let d_{i} : Nat = id (succ d_{i - 1});" for i in range(3, 501)]
        path = tmp_path / "chain500.tt0"
        path.write_text("\n".join(lines) + "\nmain = d_500;\n")
        code, out, _ = run(capsys, "check", str(path), "--json")
        assert code == 0
        assert [row["name"] for row in json.loads(out)["checked"]] == names + ["main"]
        code, out, _ = run(capsys, "run", str(path))
        assert (code, out.splitlines()[-1]) == (0, "= 500")
        code, out, _ = run(capsys, "meta", str(path), "--json")
        meta = json.loads(out)
        assert code == 0 and meta["ok"]
        assert [d["name"] for d in meta["decls"]] == names
        assert all(d["zeroing"] and d["stripping"] for d in meta["decls"])
