"""Quick self-check of the benchmark: every workload at a tiny size, one
untraced and one traced pass each, with the same answer checks as a full
run.

    python3 perfbench/selfcheck.py

Each run's result and details go to `perfbench/out/selfcheck/`.  Exits 1 if
a run answers wrongly, if an operation other than the numerals overflow
fails, or if a run reports other metrics than BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import sys

from run import OUT, ROOT, BenchError, measure
from workloads import OVERFLOW_LITERAL


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out = OUT / "selfcheck"
    out.mkdir(parents=True, exist_ok=True)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            try:
                run = measure(workload, seed=0, seconds=0, trace=bool(trace), tiny=True)
            except BenchError as e:
                print(f"perfbench: {e}", file=sys.stderr)
                return 2
            (out / f"{workload}-trace{trace}.json").write_text(
                json.dumps(run, indent=1) + "\n", encoding="utf-8"
            )
            result, details = run["result"], run["details"]
            where = f"{workload} --trace {trace}"
            problems += [f"{where}: {e}" for e in details["errors"]]
            failing = {k for k, op in details["ops"].items() if op["failed"]}
            expected = {"overflow check"} if workload == "numerals" else set()
            if failing != expected:
                problems.append(f"{where}: failing operations {sorted(failing)}, "
                                f"expected {sorted(expected)}")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{where}: metrics {units} differ from BENCHMARK.json")
            print(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for p in problems:
        print(f"WRONG: {p}", file=sys.stderr)
    print(f"self-check {'failed' if problems else 'passed'}; "
          f"the numerals overflow literal is {OVERFLOW_LITERAL}; output in {out.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
