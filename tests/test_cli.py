from __future__ import annotations

import json

import pytest

from conftest import BAD_CORPUS, CORPUS, corpus_files
from tt0.cli import main
from tt0.extract import target_from_json


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
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "tt0", "run", str(CORPUS / "plus.tt0")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "= 5"


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
