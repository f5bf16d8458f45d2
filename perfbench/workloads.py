"""The modules each workload runs, the commands run on each, and the
answers they must give.

Every generated input is a function of the seed.  The seed only changes
what costs the same to every layer: the order of modules, the names of
declarations, and values moved from one place to another (a literal grows
by what another shrinks, increments are shuffled).  So the work a pass
does, and every count the traced run reports, is the same for every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

COMMANDS = ("check", "meta", "run")

PRELUDE = """\
let id : {A :0 U} -> A -> A = \\{A} x. x;
let plus : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) n (\\k ih. succ ih) m;
let mult : Nat -> Nat -> Nat = \\m n. natElim (\\k. Nat) zero (\\k ih. plus n ih) m;
"""
PRELUDE_NAMES = ("id", "plus", "mult")

# A literal past what the recursion limit set by `tt0.cli.main` allows:
# every command on it raises RecursionError out of `cli.main`.
OVERFLOW_LITERAL = 200_000


@dataclass(frozen=True)
class Module:
    """One input file and what each command on it must answer."""

    name: str
    path: Path
    source: str
    decls: tuple[str, ...]  # top-level declaration names, in order
    commands: tuple[str, ...] = COMMANDS
    numeral: int | None = None  # what `run` must print, computed here
    bad: bool = False  # every command must reject it with a located diagnostic
    may_fail: bool = False  # an exception out of `cli.main` is counted, not fatal


# Sizes: (full, tiny).  The tiny sizes are for the self-check.
SIZES = {
    "chain": ((16, 32), (3, 6)),
    "mult": ((20, 22), (2, 3)),
    "plus": ((200, 150), (6, 4)),
    "pow2": (7, 3),
    "lets": (24, 4),
    "literal": (6_000, 100),
    "arith": (2_000, 30),
}


def _size(key: str, tiny: bool):
    return SIZES[key][1 if tiny else 0]


def corpus(root: Path, work: Path, rng: random.Random, tiny: bool) -> list[Module]:
    """The corpus programs, good and bad, in a seeded order, at every size."""
    good = sorted((root / "corpus").glob("*.tt0"))
    bad = sorted((root / "corpus" / "bad").glob("*.tt0"))
    if not good or not bad:
        raise FileNotFoundError(f"no corpus under {root / 'corpus'}")
    mods = []
    for path, is_bad in [(p, False) for p in good] + [(p, True) for p in bad]:
        source = path.read_text(encoding="utf-8")
        names = tuple(re.findall(r"^let\s+([A-Za-z_][\w']*)\s*:", source, re.M))
        mods.append(Module(path.stem, path, source, names, bad=is_bad))
    rng.shuffle(mods)
    return mods


def chain(root: Path, work: Path, rng: random.Random, tiny: bool) -> list[Module]:
    """`let d_i : Nat = id (plus d_{i-1} 1)` from `d_0 = 0` at two sizes, one
    twice the other.  The seed picks the letter the names start with and
    which size runs first; the start stays 0, since the cost of every meta
    grows with the values of the declarations before it."""
    letter = rng.choice("abcdefghjkmpqrstuvwxyz")
    mods = []
    for n in _size("chain", tiny):
        names = [f"{letter}{i}" for i in range(n + 1)]
        lines = [*PRELUDE.splitlines()[:2], f"let {names[0]} : Nat = 0;"]
        lines += [f"let {names[i]} : Nat = id (plus {names[i - 1]} 1);" for i in range(1, n + 1)]
        lines.append(f"main = {names[n]};")
        mods.append(_write(work, f"chain{n}", "\n".join(lines) + "\n", ("id", "plus", *names), n))
    rng.shuffle(mods)
    return mods


def eval_(root: Path, work: Path, rng: random.Random, tiny: bool) -> list[Module]:
    """Mains that are cheap to elaborate and costly to evaluate."""
    a, b = _size("mult", tiny)
    p, q = _size("plus", tiny)
    shift = rng.randrange(p // 50 + 1)  # plus p q costs about as much as plus (p+1) (q-1)
    p, q = p + shift, q - shift
    n = _size("pow2", tiny)
    length = _size("lets", tiny)
    steps = [1, -1] * (length // 2)
    rng.shuffle(steps)
    incs = [10 + s for s in steps]
    lets = "".join(
        f"let x{i} : Nat = plus {c} x{i - 1} in " for i, c in enumerate(incs, 1)
    )
    programs = [
        ("mult", f"id (mult {a} {b})", a * b),
        ("plus", f"id (plus {p} {q})", p + q),
        ("pow2", f"id (natElim (\\k. Nat) 1 (\\k ih. plus ih ih) {n})", 2**n),
        ("lets", f"id (let x0 : Nat = 0 in {lets}x{length})", sum(incs)),
    ]
    rng.shuffle(programs)
    return [
        _write(work, name, f"{PRELUDE}main = {main};\n", PRELUDE_NAMES, value)
        for name, main, value in programs
    ]


def numerals(root: Path, work: Path, rng: random.Random, tiny: bool) -> list[Module]:
    """Large literals and literal arithmetic; the two seeded literals sum
    to a constant.  Ends with the literal that overflows the stack."""
    lit, arith = _size("literal", tiny), _size("arith", tiny)
    shift = rng.randrange(arith // 60 + 1)
    lit, arith = lit + shift, arith - shift
    mods = [
        _write(work, "literal", f"{PRELUDE}let x : Nat = {lit};\nmain = id x;\n",
               PRELUDE_NAMES + ("x",), lit),
        _write(work, "arith", f"{PRELUDE}let k : Nat = {arith};\nmain = id (plus 3 (succ k));\n",
               PRELUDE_NAMES + ("k",), arith + 4),
    ]
    rng.shuffle(mods)
    overflow = _write(work, "overflow", f"let x : Nat = {OVERFLOW_LITERAL};\nmain = x;\n",
                      ("x",), OVERFLOW_LITERAL)
    return mods + [replace(overflow, commands=("check",), may_fail=True)]


def _write(work: Path, name: str, source: str, decls: tuple[str, ...], numeral: int) -> Module:
    path = work / f"{name}.tt0"
    path.write_text(source, encoding="utf-8")
    return Module(name, path, source, decls, numeral=numeral)


WORKLOADS = {"corpus": corpus, "chain": chain, "eval": eval_, "numerals": numerals}


def build(workload: str, root: Path, work: Path, seed: int, tiny: bool = False) -> list[Module]:
    """The modules of `workload` for `seed`; generated files go in `work`."""
    return WORKLOADS[workload](root, work, random.Random(f"{workload}/{seed}"), tiny)
