"""Pinned source locations: of every surface node and declaration of every
corpus file, of every `corpus/bad` diagnostic (text and `--json`), and of
the lex and parse errors that the other tests raise.

The node locations and token counts live in `tests/locations.json`, which
was written from the parser as it stood before spans became offsets.  A
change that moves a location on purpose regenerates it with

    PYTHONPATH=src python tests/test_locations.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PINS = REPO / "tests" / "locations.json"


def corpus_paths() -> list[str]:
    files = sorted((REPO / "corpus").glob("*.tt0"))
    return [p.relative_to(REPO).as_posix() for p in files]


def bad_paths() -> list[str]:
    files = sorted((REPO / "corpus" / "bad").glob("*.tt0"))
    return [p.relative_to(REPO).as_posix() for p in files]


def where(span) -> list[int]:
    return [span.start_line, span.start_col, span.end_line, span.end_col]


def node_locations(path: str) -> list[list]:
    """`[class, line, col, end line, end col]` of each declaration and each
    surface node of a corpus file, in preorder."""
    from tt0.surface import Surface, parse_module_text

    module = parse_module_text((REPO / path).read_text(), path)
    out: list[list] = []

    def walk(node) -> None:
        out.append([type(node).__name__, *where(module.source.span(*node.span))])
        for f in node.__match_args__:
            child = getattr(node, f)
            if isinstance(child, Surface):
                walk(child)

    for d in module.decls:
        walk(d)
    if module.main is not None:
        walk(module.main)
    return out


def token_count(path: str) -> int:
    from tt0.surface import tokenize

    return len(tokenize((REPO / path).read_text(), path))


def current() -> dict:
    return {
        "tokens": {p: token_count(p) for p in corpus_paths()},
        "nodes": {p: node_locations(p) for p in corpus_paths()},
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("path", corpus_paths())
def test_node_locations(pins, path):
    assert node_locations(path) == pins["nodes"][path]


@pytest.mark.parametrize("path", corpus_paths())
def test_token_count(pins, path):
    assert token_count(path) == pins["tokens"][path]


# The first line of `tt0 check` on each bad file, and its one `--json`
# diagnostic as (line, col, message).
BAD = {
    "corpus/bad/bad_boolelim.tt0": ("2:57", "erased variable 'b' used at runtime"),
    "corpus/bad/bad_code_runtime.tt0": (
        "2:13", "the Nat type is a type code and can only appear in erased positions"
    ),
    "corpus/bad/bad_fst.tt0": (
        "2:15",
        "the first component of this pair is erased and cannot be projected at runtime",
    ),
    "corpus/bad/bad_meta_mode.tt0": (
        "4:14",
        "type mismatch: expected F (succ n), got F (?0 F mk n) (solution would use erased"
        " variable 'n' at a runtime position, but the metavariable lives outside the erased"
        " fragment)",
    ),
    "corpus/bad/bad_mode.tt0": ("2:33", "erased variable 'n' used at runtime"),
    "corpus/bad/bad_parse.tt0": ("1:15", "unexpected ';' (expected term)"),
    "corpus/bad/bad_scrutinee.tt0": ("3:47", "erased variable 'n' used at runtime"),
    "corpus/bad/bad_type_mismatch.tt0": (
        "1:15",
        "type mismatch: expected Nat, got Π (x : ?0). ?0 (terms have different head"
        " constructors)",
    ),
    "corpus/bad/bad_unbound.tt0": ("1:15", "unbound name 'mystery'"),
    "corpus/bad/bad_unsolved.tt0": ("1:31", "unsolved metavariable ?0 : Nat in context (A :0 U)"),
}


def run_check(*argv: str) -> tuple[int, str]:
    from tt0.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", *argv])
    return code, err.getvalue()


def test_every_bad_file_is_pinned():
    assert sorted(BAD) == bad_paths()


@pytest.mark.parametrize("path", bad_paths())
def test_bad_file_location_and_message(path, monkeypatch):
    monkeypatch.chdir(REPO)
    at, message = BAD[path]
    code, err = run_check(path)
    assert code == 1
    first, excerpt, caret = err.splitlines()
    assert first == f"{path}:{at}: error: {message}"
    col = int(at.split(":")[1])
    assert caret == "  " + " " * (col - 1) + "^"
    line = (REPO / path).read_text().split("\n")[int(at.split(":")[0]) - 1]
    assert excerpt == "  " + line
    code, err = run_check(path, "--json")
    assert code == 1
    line_no, col_no = map(int, at.split(":"))
    assert json.loads(err)["diagnostics"] == [
        {"severity": "error", "message": message, "file": path, "line": line_no, "col": col_no}
    ]


# Sources that the tests of the surface layer and of the command line make
# fail, with the error each raises: class, message, and (line, col, end
# line, end col).  They cover a tab, a carriage return, CRLF, a last line
# with no newline and the end of input.
ERRORS = [
    ("λx. x", "LexError", "illegal character 'λ'", (1, 1, 1, 1)),
    ("a - b", "LexError", "illegal character '-'", (1, 3, 1, 3)),
    ("a\t\rλ", "LexError", "illegal character 'λ'", (1, 4, 1, 4)),
    ("\tx\r\nλ", "LexError", "illegal character 'λ'", (2, 1, 2, 1)),
    ("x =\n  " + "1" * 4301 + " y", "LexError", "number literal too long (4301 digits)",
     (2, 3, 2, 4303)),
    ("main = " + "1" * 5000 + ";\n", "LexError", "number literal too long (5000 digits)",
     (1, 8, 1, 5007)),
    ("let x : Nat = ;", "ParseError", "unexpected ';' (expected term)", (1, 15, 1, 15)),
    ("let x : Nat = -- trailing", "ParseError", "unexpected end of input (expected term)",
     (1, 26, 1, 26)),
    ("let x : Nat = -- trailing\n", "ParseError", "unexpected end of input (expected term)",
     (2, 1, 2, 1)),
    ("let", "ParseError", "unexpected end of input (expected identifier)", (1, 4, 1, 4)),
    ("let x", "ParseError", "unexpected end of input (expected :)", (1, 6, 1, 6)),
    ("let x : Nat = (zero", "ParseError", "unexpected end of input (expected ))",
     (1, 20, 1, 20)),
    ("\\. x", "ParseError", "unexpected '\\\\' (expected let, main)", (1, 1, 1, 1)),
    ("let x : Nat = zero; let x : Nat = zero;", "ParseError",
     "duplicate declaration 'x'", (1, 25, 1, 25)),
    ("main = zero; let x : Nat = zero;", "ParseError",
     "unexpected 'let' after main expression (expected eof)", (1, 14, 1, 16)),
    ("let x : Nat =\r", "ParseError", "unexpected end of input (expected term)",
     (1, 15, 1, 15)),
    ("let x : Nat =\t\r\n", "ParseError", "unexpected end of input (expected term)",
     (2, 1, 2, 1)),
    ("let x\r\n  : Nat = )", "ParseError", "unexpected ')' (expected term)", (2, 11, 2, 11)),
    ("let f : Nat = \\(x). x;", "ParseError",
     "parenthesised lambda binder needs a type annotation (expected :, :0)", (1, 18, 1, 18)),
    ("let f : Nat = \\. x;", "ParseError", "lambda needs at least one binder", (1, 16, 1, 16)),
    ("let f : {x : Nat} * Nat = x;", "ParseError",
     "unexpected '*' after binder (expected ->)", (1, 19, 1, 19)),
    ("let f : Nat = \\ ) . x;", "ParseError",
     "unexpected ')' in lambda binder (expected identifier, (, {)", (1, 17, 1, 17)),
    ("let\n\n  natElim", "ParseError", "unexpected 'natElim' (expected identifier)",
     (3, 3, 3, 9)),
    ("main = f\n  {zero", "ParseError", "unexpected end of input (expected })", (2, 8, 2, 8)),
]


@pytest.mark.parametrize("source, cls, message, span", ERRORS)
def test_lex_and_parse_error_locations(source, cls, message, span):
    from tt0.diagnostics import Diagnostic
    from tt0.surface import parse_module_text

    with pytest.raises(Diagnostic) as e:
        parse_module_text(source, "f.tt0")
    assert type(e.value).__name__ == cls
    assert e.value.message == message
    assert where(e.value.span) == list(span)
    assert e.value.span.file == "f.tt0"


def test_nesting_too_deep_stands_at_an_open_parenthesis():
    from tt0.diagnostics import ParseError
    from tt0.surface import parse_term_text

    n = 50_000
    source = "(" * n + "zero" + ")" * n
    with pytest.raises(ParseError, match="term nested too deeply") as e:
        parse_term_text(source)
    line, col, end_line, end_col = where(e.value.span)
    assert (line, end_line) == (1, 1) and 1 < col == end_col <= n
    assert source[col - 1] == "("


def regenerate() -> None:
    PINS.write_text(json.dumps(current(), indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.setrecursionlimit(100_000)
    regenerate()
