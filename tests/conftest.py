from __future__ import annotations

from pathlib import Path

import pytest

from tt0.elab import ElabResult, elaborate_text

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
BAD_CORPUS = CORPUS / "bad"

# Modules in which a solved meta that captured local binders occurs in a
# read-back type.  `tests/elab_pins.json` pins their `tt0 elab` output.
# They stay out of `corpus/`, which the benchmark runs.
PINNED_MODULES = {
    "lambda_head": "let f : Nat -> Nat = \\y. (\\x. x) y;\n",
    "lambda_head_under_let": (
        "let g : Nat -> Nat -> Nat = \\a b. let c : Nat = a in (\\x. x) c;\n"
    ),
    "hole_under_two_binders": "let h : Nat -> Nat -> Nat = \\a b. (\\(x : _). x) b;\n",
}


def corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.tt0"))


def bad_corpus_files() -> list[Path]:
    return sorted(BAD_CORPUS.glob("*.tt0"))


@pytest.fixture(scope="session")
def corpus() -> dict[str, ElabResult]:
    """Every good corpus module, elaborated once."""
    out: dict[str, ElabResult] = {}
    for path in corpus_files():
        result = elaborate_text(path.read_text(), str(path))
        assert result.ok, [e.message for e in result.errors]
        out[path.stem] = result
    return out
