"""Run one workload on several seeds and summarise every metric.

    python3 bench/spread.py --workload inspect_dense --seeds 1-10
    python3 bench/spread.py --workload suite_small --seeds 1,1 --trace 1

Run from the repository root.  Each seed is one run of bench/run.py in its
own process, one after another.  For every metric the summary gives the
median, the quartiles as statistics.quantiles(n=4) gives them, and the
quartile spread (Q3 - Q1) / median, which BENCHMARK.json bounds; with
--trace 1 it also says whether the metric read the same in every run,
which the counts must when one seed is repeated.  --out writes the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]; repeats are kept."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": measure.quartile_spread(values) if len(values) > 1 and median else 0.0,
            "identical": len(set(values)) == 1,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        runs.append(result)

    summary = summarise(runs)
    print(f"{'metric':<44} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
          + ("  identical" if args.trace else ""))
    for name, s in summary.items():
        print(f"{name:<44} {s['unit']:<6} {s['median']:>14.4f} {s['q1']:>14.4f} "
              f"{s['q3']:>14.4f} {s['spread']:>8.4f}"
              + (f"  {'yes' if s['identical'] else 'no'}" if args.trace else ""))
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "trace": args.trace,
            "all_correct": all(r["correct"] for r in runs), "metrics": summary,
        }, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
