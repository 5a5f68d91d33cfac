#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports spreads.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads corpus-mix --runs 5 --save a.json
    python3 perfbench/steady.py --runs 10 --against a.json

Each run uses another seed (first-seed, first-seed + 1, ...). For every
end-to-end metric of BENCHMARK.json it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound.
A spread above the bound fails the check; the aim is a spread below a
third of the bound. With
--against, it also compares each median with the one saved earlier and
fails when a metric got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(command)} (exit {run.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--save", help="write the measured values here")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args()

    values = {}
    for workload in args.workloads:
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: outputs failed the checks")
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))

    previous = json.loads(Path(args.against).read_text()) if args.against else {}
    ok = True
    for workload, metrics in values.items():
        print(f"\n{workload} ({args.runs} runs)")
        print(f"  {'metric':<15}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for m in SPEC["end_to_end"]:
            vals = metrics[m["name"]]
            median, q1, q3, s = spread(vals)
            share = s / m["bound"]
            verdict = "" if share <= 1 / 3 else ("  above a third" if share <= 1
                                                 else "  ABOVE BOUND")
            if share > 1:
                ok = False
            line = (f"  {m['name']:<15}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                    f"{s:>9.2%}{m['bound']:>7.2f}{share:>8.2f}{verdict}")
            old = previous.get(workload, {}).get(m["name"])
            if old:
                before = statistics.median(old)
                worse = (median - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += f"  vs saved {worse:+.2%}"
                if worse > m["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
