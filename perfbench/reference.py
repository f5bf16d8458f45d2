"""Reference figures for the `eval` workload: the target evaluator against
core normalisation on the same `main`.

    python3 perfbench/reference.py --seed 1

For each `eval` module this elaborates `main` once, then times, fastest of
`--repeats`, core `normal_form` of the closed main against extracting and
evaluating it with `eval_target` at the CLI's default fuel, and checks that
both give the expected numeral.  The recursion limit is the one
`tt0.cli.main` sets.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import OUT, ROOT, SRC, import_tt0
from workloads import build

RECURSION_LIMIT = 100_000  # as set by tt0.cli.main


def fastest(repeats: int, fn) -> tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = perf_counter()
        value = fn()
        best = min(best, perf_counter() - t0)
    return best, value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(RECURSION_LIMIT)
    tt0 = import_tt0()
    co, elab, ex = tt0["core"], tt0["elab"], tt0["extract"]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        modules = build("eval", ROOT, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'module':<8} {'normal_form_s':>14} {'eval_target_s':>14} {'ratio':>7}")
    wrong = 0
    for mod in modules:
        result = elab.elaborate_text(mod.source, str(mod.path))
        closed = elab.closed_main(result)
        nf_s, nf = fastest(args.repeats, lambda: co.normal_form(result.store, (), closed))
        target = ex.extract(co.Context(), closed)
        ev_s, value = fastest(args.repeats, lambda: ex.eval_target(target))
        if ex.as_numeral(value) != mod.numeral or not ex.alpha_eq(ex.extract(co.Context(), nf), value):
            print(f"WRONG: {mod.name} does not normalise to {mod.numeral}", file=sys.stderr)
            wrong += 1
        print(f"{mod.name:<8} {nf_s:>14.4f} {ev_s:>14.4f} {ev_s / nf_s:>7.1f}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
