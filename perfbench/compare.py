"""Collect sets of benchmark runs and compare them against the bounds in
BENCHMARK.json.

    python3 perfbench/compare.py collect perfbench/out/a --seeds 1-10
    python3 perfbench/compare.py collect perfbench/out/b --seeds 11-20
    python3 perfbench/compare.py diff perfbench/out/a perfbench/out/b

`collect` runs the benchmark command once per workload and seed, one
process at a time, and appends each result line to `<dir>/<workload>.jsonl`.
`diff` reports, per workload and end-to-end metric, each set's median and
spread (the distance between the first and third quartile as a share of
the median).  With two sets it checks that they agree: every spread is
within the metric's bound, the two medians differ by at most the bound (in
either direction), and every run failed the same share of its operations;
it exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def collect(out: Path, seeds: range) -> int:
    spec = load_spec()
    out.mkdir(parents=True, exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            with (out / f"{w}.jsonl").open("a", encoding="utf-8") as f:
                f.write(lines[-1] + "\n")
            print(f"{w} seed {seed}: {lines[-1]}", flush=True)
    return 0


def read_set(path: Path) -> dict[str, list[dict]]:
    return {
        f.stem: [json.loads(line) for line in f.read_text(encoding="utf-8").splitlines() if line]
        for f in sorted(path.glob("*.jsonl"))
    }


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def diff(paths: list[Path]) -> int:
    spec = load_spec()
    metrics = spec["end_to_end"]
    sets = [read_set(p) for p in paths]
    ok = True
    print(f"{'workload':<9} {'metric':<12} {'bound':>5}  "
          + "  ".join(f"{'median':>10} {'spread':>7}" for _ in sets) + "  verdict")
    for w in sorted(sets[0]):
        runs = [s.get(w, []) for s in sets]
        if any(len(r) < 2 for r in runs):
            print(f"{w}: needs at least two runs in every set", file=sys.stderr)
            return 1
        shares = {Fraction(r["failed"], r["attempted"]) for rs in runs for r in rs}
        wrong = sum(not r["correct"] for rs in runs for r in rs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, verdict = [], []
            medians = []
            for rs in runs:
                values = [r["metrics"][name]["value"] for r in rs]
                medians.append(statistics.median(values))
                s = spread(values)
                cells.append(f"{medians[-1]:>10.5g} {s:>7.3f}")
                if len(sets) == 2 and s > bound:
                    verdict.append("spread over bound")
            if len(sets) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                if abs(change) > bound:
                    verdict.append(f"medians differ by {change:+.3f}")
            ok = ok and not verdict
            print(f"{w:<9} {name:<12} {bound:>5}  " + "  ".join(cells)
                  + "  " + ("; ".join(verdict) or "ok"))
        if len(shares) != 1:
            print(f"{w:<9} failed share differs between runs: {sorted(shares)}")
            ok = False
        if wrong:
            print(f"{w:<9} {wrong} runs answered wrongly")
            ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    c = sub.add_parser("collect", help="run every workload once per seed")
    c.add_argument("out", type=Path)
    c.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), metavar="FIRST-LAST")
    d = sub.add_parser("diff", help="report spreads of one set, or compare two")
    d.add_argument("sets", type=Path, nargs="+", metavar="DIR")
    args = parser.parse_args(argv)
    if args.action == "collect":
        return collect(args.out, args.seeds)
    if len(args.sets) > 2:
        parser.error("diff takes one or two sets")
    return diff(args.sets)


if __name__ == "__main__":
    sys.exit(main())
