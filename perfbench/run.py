"""The tt0 benchmark: wall time of `tt0 check`, `tt0 meta` and `tt0 run`
over one workload, with every answer checked.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Each operation is one command on one module, run in this process through
`tt0.cli.main([command, file, "--json"])` with stdout and stderr captured,
as the `tt0` script runs it.  A pass runs every operation of the workload
once; passes repeat until `--seconds` have gone by.  Every operation runs
between two runs of the calibration kernel of `calibrate.py`, and its wall
time is rescaled by how much slower than `REFERENCE_S` the kernel ran
around it, which takes out most of the drift in the speed of a shared
machine.  `check_s`, `meta_s` and `run_s` are the medians over passes of
the rescaled time of that command's operations.  Operations that raise
are counted as failed and left out of the times.  Set-up (importing `tt0`
afresh and making the inputs) runs before every pass, and twice more
before the first; `setup_s` is its rescaled median.  With `--trace 1`
untraced and traced passes alternate and the per-layer metrics of
`tracer.py` are reported instead, with the tracing overhead.  The last
line of stdout is the result as JSON.  The line before it holds the
wall-time medians behind `setup_s` and the command times, unrescaled, and
a table per module, with wall times beside the rescaled ones, goes to
stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType

from calibrate import REFERENCE_S, calibration
from tracer import METRICS, Tracer
from workloads import COMMANDS, WORKLOADS, Module, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXTRA_SETUPS = 2  # set-ups before the first pass, on top of one per pass
LAYERS = ("cli", "surface", "elab", "unify", "core", "translate", "extract")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_tt0() -> dict[str, ModuleType]:
    """Import `tt0` afresh from the checkout's `src`, as a new process would."""
    for name in [n for n in sys.modules if n == "tt0" or n.startswith("tt0.")]:
        del sys.modules[name]
    importlib.import_module("tt0.cli")
    mods = {name: sys.modules[f"tt0.{name}"] for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"tt0 was imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


@dataclass(frozen=True)
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None  # the exception that escaped `cli.main`, if any


def run_op(cli: ModuleType, command: str, path: Path) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main([command, str(path), "--json"])
        except Exception as e:  # noqa: BLE001 - the `tt0` script would show a traceback
            error = type(e).__name__
        elapsed = perf_counter() - t0
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), error)


def _first_order(co: ModuleType, ty) -> bool:
    match ty:
        case co.NatTy() | co.BoolTy():
            return True
        case co.Sigma(_, _, fst_ty, snd_ty):
            return _first_order(co, fst_ty) and _first_order(co, snd_ty)
    return False


class Checker:
    """Checks each operation's answer the first time it runs, and that every
    later run of it answers byte for byte the same."""

    def __init__(self, tt0: dict[str, ModuleType], modules: list[Module]):
        self.ex = tt0["extract"]
        self.first: dict[tuple[str, str], Outcome] = {}
        self.errors: list[str] = []
        # Gluing: at a first-order type, evaluating the extraction of main
        # must give the extraction of main's core normal form.
        self.glued = {}
        co, elab = tt0["core"], tt0["elab"]
        for mod in modules:
            if mod.bad or mod.numeral is not None:
                continue
            result = elab.elaborate_text(mod.source, str(mod.path))
            if not result.ok or result.main is None:
                continue  # the `check` operation reports it
            ty = co.quote(result.store, result.sig.depth, result.main[1])
            if _first_order(co, ty):
                nf = co.normal_form(result.store, (), elab.closed_main(result))
                self.glued[mod.name] = self.ex.extract(co.Context(), nf)

    def check(self, mod: Module, command: str, outcome: Outcome) -> None:
        key = (mod.name, command)
        if key in self.first:
            if outcome != self.first[key]:
                self.errors.append(f"{mod.name} {command}: answer differs from the first pass")
            return
        self.first[key] = outcome
        try:
            problem = self._verify(mod, command, outcome)
        except (ValueError, KeyError, TypeError) as e:
            problem = f"malformed output ({type(e).__name__}: {e})"
        if problem:
            self.errors.append(f"{mod.name} {command}: {problem}")

    def _verify(self, mod: Module, command: str, o: Outcome) -> str | None:
        if o.error is not None:
            return None if mod.may_fail else f"raised {o.error}"
        if "Traceback" in o.stderr:
            return "traceback on stderr"
        if mod.bad:
            if o.code != 1:
                return f"exit {o.code}, expected 1"
            diags = json.loads(o.stderr)["diagnostics"]
            if not any("line" in d and "col" in d for d in diags):
                return "no located diagnostic"
            return None
        if o.code != 0:
            return f"exit {o.code}: {o.stderr[:300]}"
        payload = json.loads(o.stdout)
        if command == "check":
            names = [row["name"] for row in payload["checked"]]
            if names != [*mod.decls, "main"]:
                return f"checked {names}, expected {[*mod.decls, 'main']}"
        elif command == "meta":
            rows = payload["decls"]
            if [r["name"] for r in rows] != list(mod.decls):
                return f"swept {[r['name'] for r in rows]}, expected {list(mod.decls)}"
            if not payload["ok"] or not all(r["zeroing"] and r["stripping"] for r in rows):
                return "a translation failed"
        elif command == "run":
            if mod.numeral is not None and payload.get("numeral") != mod.numeral:
                return f"ran to {payload.get('numeral')}, expected {mod.numeral}"
            glued = self.glued.get(mod.name)
            if glued is not None:
                result = self.ex.target_from_json(payload["result"])
                if not self.ex.alpha_eq(result, glued):
                    return "result is not the extraction of the core normal form"
        return None


@dataclass
class Pass:
    """One run of every operation.  Keys are (module, command)."""

    wall: dict[tuple[str, str], float] = field(default_factory=dict)
    scaled: dict[tuple[str, str], float] = field(default_factory=dict)  # see calibrate.py
    failed: set[tuple[str, str]] = field(default_factory=set)  # `cli.main` raised
    layers: dict[tuple[str, str], dict[str, float]] = field(default_factory=dict)
    # Peak RSS in MB just before the first operation that may fail, if any.
    rss_before_failing: float | None = None

    def total(self, command: str | None = None, wall: bool = False) -> float:
        """Rescaled (or wall) seconds over the operations that did not fail."""
        return sum(
            t for k, t in (self.wall if wall else self.scaled).items()
            if k not in self.failed and command in (None, k[1])
        )

    def layer(self, name: str) -> float:
        return sum(v[name] for k, v in self.layers.items() if k not in self.failed)


def run_pass(
    cli: ModuleType, modules: list[Module], checker: Checker, tracer: Tracer | None = None
) -> Pass:
    """Run every operation once, each between two calibration runs."""
    p = Pass()
    outcomes = []
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        before = calibration()
        for mod in modules:
            for command in mod.commands:
                if mod.may_fail and p.rss_before_failing is None:
                    p.rss_before_failing = peak_rss_mb()
                if tracer is not None:
                    tracer.values.clear()
                elapsed, outcome = run_op(cli, command, mod.path)
                after = calibration()
                scale = 2 * REFERENCE_S / (before + after)
                before = after
                key = (mod.name, command)
                p.wall[key] = elapsed
                p.scaled[key] = elapsed * scale
                if outcome.error is not None:
                    p.failed.add(key)
                if tracer is not None:
                    p.layers[key] = {
                        name: v * scale if METRICS[name] == "s" else v
                        for name, v in tracer.totals().items()
                    }
                outcomes.append((mod, command, outcome))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for mod, command, outcome in outcomes:
        checker.check(mod, command, outcome)
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object and the details behind it."""
    if not (SRC / "tt0" / "__init__.py").is_file():
        raise BenchError(f"no tt0 sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    setup: list[tuple[float, float]] = []  # (wall, rescaled) seconds

    def set_up() -> tuple[dict[str, ModuleType], list[Module]]:
        before = calibration()
        t0 = perf_counter()
        tt0 = import_tt0()
        modules = build(workload, ROOT, work, seed, tiny)
        elapsed = perf_counter() - t0
        setup.append((elapsed, elapsed * 2 * REFERENCE_S / (before + calibration())))
        return tt0, modules

    plain: list[Pass] = []
    traced: list[Pass] = []
    try:
        for _ in range(EXTRA_SETUPS):
            set_up()
        tt0, modules = set_up()
        checker = Checker(tt0, modules)
        start = perf_counter()
        while True:
            plain.append(run_pass(tt0["cli"], modules, checker))
            if trace:
                traced.append(run_pass(tt0["cli"], modules, checker, Tracer(tt0)))
            if perf_counter() - start >= seconds:
                break
            tt0, modules = set_up()
    except FileNotFoundError as e:
        raise BenchError(str(e)) from e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = statistics.median
    if not trace:
        # `ru_maxrss` never goes down, so where an operation may fail (the
        # numerals overflow, whose deep recursion dwarfs the rest) the peak
        # is the one reached before it first ran, over the first set-ups and
        # the operations of the first pass that came before it.
        peak = plain[0].rss_before_failing or peak_rss_mb()
        metrics = {
            "setup_s": _metric(med(s for _, s in setup), "s"),
            **{f"{c}_s": _metric(med(p.total(c) for p in plain), "s") for c in COMMANDS},
            "peak_rss_mb": _metric(peak, "MB"),
        }
    else:
        metrics = {
            name: _metric(med(p.layer(name) for p in traced), unit)
            for name, unit in METRICS.items()
        }
        for name, unit in METRICS.items():
            if unit == "count" and len({p.layer(name) for p in traced}) != 1:
                checker.errors.append(f"{name} differs between traced passes")
        overhead = med(p.total() for p in traced) / med(p.total() for p in plain) - 1
        metrics["trace.overhead_pct"] = _metric(100 * overhead, "%")
    passes = plain + traced
    ops = list(plain[0].wall)
    result = {
        "correct": not checker.errors,
        "attempted": sum(len(p.wall) for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "metrics": metrics,
    }
    # The wall-time medians behind the rescaled `setup_s` and command times.
    wall = {
        "setup_s": med(w for w, _ in setup),
        **{f"{c}_s": med(p.total(c, wall=True) for p in plain) for c in COMMANDS},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "wall": wall,
        "errors": checker.errors,
        "glued": sorted(checker.glued),
        "setup": {"wall_s": [w for w, _ in setup], "scaled_s": [s for _, s in setup]},
        "ops": {
            " ".join(k): {
                "failed": k in plain[0].failed,
                "wall_s": [p.wall[k] for p in plain],
                "scaled_s": [p.scaled[k] for p in plain],
                "traced_scaled_s": [p.scaled[k] for p in traced],
                "layers": {n: med(p.layers[k][n] for p in traced) for n in METRICS}
                if trace else {},
            }
            for k in ops
        },
    }
    return {"result": result, "details": details}


def report(details: dict) -> None:
    """A table on stderr: each operation's median time over the passes."""
    print(
        f"{details['workload']} seed {details['seed']}: {details['passes']} untraced passes; "
        "rescaled (wall) seconds",
        file=sys.stderr,
    )
    rows: dict[str, dict[str, str]] = {}
    for key, op in details["ops"].items():
        name, command = key.split(" ")
        cell = "failed" if op["failed"] else (
            f"{statistics.median(op['scaled_s']):.4f} ({statistics.median(op['wall_s']):.4f})"
        )
        rows.setdefault(name, {})[command] = cell
    width = max(len(n) for n in rows)
    print(f"  {'module'.ljust(width)}  " + "  ".join(f"{c + '_s':>17}" for c in COMMANDS),
          file=sys.stderr)
    for name, cells in rows.items():
        print(f"  {name.ljust(width)}  " + "  ".join(f"{cells.get(c, '-'):>17}" for c in COMMANDS),
              file=sys.stderr)
    for error in details["errors"]:
        print(f"  WRONG: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(run["details"])
    if args.trace:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(run["details"], indent=1) + "\n", encoding="utf-8")
        print(f"  per-operation figures: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"wall": run["details"]["wall"]}))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
