"""Benchmark of the coopvals command line, end to end and layer by layer.

    python3 bench/run.py --workload suite_small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  One run drives ``coopvals.cli.main`` in this
process, as a closed loop with one caller, on the inputs one workload
builds from --seed, for --seconds seconds, and checks every output.  With
--trace 0 it reports the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it reports the per-layer metrics instead, from spans the
benchmark wraps around the package's functions.  The last line of standard
output is one JSON object; the lines before it list every metric with its
unit, and the run's metadata.  ``--workload all`` runs every workload
traced and untraced, each in its own process, and prints every metric.

Exit status: 0 when the run completed (even if some outputs were wrong:
the result line says so), 2 when the program or the oracles cannot be
found.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Seed kept out of every run made while writing a change; a claimed gain
# is confirmed on it once the change is final.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 11
# Times the import, then the reference work (after a warm-up call) for the
# host speed; measure is imported only after the package, since it imports
# fractions, which the package's import time includes.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import coopvals, coopvals.cli\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import measure\n"
    "measure.reference_seconds()\n"
    "scale = measure.speed_scale(measure.reference_seconds(), measure.reference_seconds())\n"
    "print(elapsed, scale)\n"
)


class MissingProgram(Exception):
    """The checkout lacks the package or the oracles the benchmark needs."""


def load_program(root: Path) -> dict:
    """Import coopvals from root/src, never from anywhere else."""
    src = root / "src"
    if not (src / "coopvals" / "__init__.py").is_file():
        raise MissingProgram(f"no package at {src / 'coopvals'}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("coopvals")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram(f"coopvals imported from {package.__file__}, not {src}")
    program = {"package": package}
    for layer in tracing.LAYERS:
        program[layer] = importlib.import_module(f"coopvals.{layer}")
    return program


def load_oracles(root: Path):
    """The frozenset oracles of the test suite, imported read-only."""
    path = root / "tests" / "oracles.py"
    if not path.is_file():
        raise MissingProgram(f"no oracles at {path}")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(seconds at reference speed, wall seconds) to import the package,
    once in each of several fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(root / "src"), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, scale = map(float, done.stdout.split())
        samples.append((elapsed * scale, elapsed))
    return samples


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_ops(workload, seconds: float, min_ops: int, tracer=None):
    """Closed loop over operations 0, 1, ... until `seconds` have passed, at
    least min_ops operations ran, and the workload may stop.

    Returns (wall seconds per op, speed scale per op, problems per op).  The
    scale comes from reference timings on both sides of the op, taken with
    the tracer's Fraction hook off.  An operation that raises counts as
    failed; the loop goes on.
    """
    clock = time.perf_counter
    times: list[float] = []
    scales: list[float] = []
    problems: list[list[str]] = []

    def reference_seconds():
        if tracer is None:
            return measure.reference_seconds()
        with tracer.fractions_uncounted():
            return measure.reference_seconds()

    reference = reference_seconds()
    start = clock()
    i = 0
    while True:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            result = workload.run(i)
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        times.append(clock() - t0)
        if tracer is not None:
            tracer.end_op(0 if result is None else workload.output_bytes(result))
        before, reference = reference, reference_seconds()
        scales.append(measure.speed_scale(before, reference))
        if error is None:
            try:
                error_list = workload.check(i, result)
            except Exception as exc:  # malformed output
                error_list = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            error_list = [error]
        problems.append(error_list)
        i += 1
        if (clock() - start >= seconds and len(times) >= min_ops
                and workload.can_stop_after(i - 1)):
            return times, scales, problems


def end_to_end(times: list[float], setup: list[float], failed: int) -> dict[str, float]:
    """The end-to-end metrics from op and set-up times at reference speed."""
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": measure.percentile(times, 50) * 1e3,
        "op_ms_p90": measure.percentile(times, 90) * 1e3,
        "ok_ratio": 1 - failed / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_one(args, spec: dict) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        program = load_program(ROOT)
        oracles = load_oracles(ROOT)
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup(ROOT)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](program, oracles, args.seed, OUT)
    window = workload.trace_window
    if args.trace:
        # The same first `window` operations, untraced and then traced, give
        # the tracing overhead; the traced loop fills the rest of the time.
        start = time.perf_counter()
        plain, plain_scales, plain_problems = run_ops(workload, 0, window)
        tracer = tracing.Tracer()
        tracer.install(program)
        try:
            left = args.seconds - (time.perf_counter() - start)
            wall, scales, problems = run_ops(workload, left, window, tracer)
        finally:
            tracer.uninstall()
        times = [t * k for t, k in zip(wall, scales)]
        untraced = [t * k for t, k in zip(plain, plain_scales)]
        overhead = measure.percentile(times[:window], 50) / measure.percentile(untraced, 50)
        metrics = tracing.per_layer_metrics(
            tracer.spans, tracer.op_counts, window, overhead, scales)
        problems = plain_problems + problems
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        wall, scales, problems = run_ops(workload, args.seconds, 1)
        times = [t * k for t, k in zip(wall, scales)]
        metrics = end_to_end(times, [t for t, _ in setup], sum(1 for p in problems if p))
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    n = len(times)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ops": n,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "percentile_samples": {"p50": n, "p90": n},
        "samples_beyond": {"p50": measure.tail_count(n, 50), "p90": measure.tail_count(n, 90)},
        "highest_supported_percentile": measure.highest_supported_percentile(n),
        "wall": {
            "op_ms_p50": measure.percentile(wall, 50) * 1e3,
            "op_ms_p90": measure.percentile(wall, 90) * 1e3,
            "ops_per_s": n / sum(wall),
        },
        "speed_scale_median": statistics.median(scales),
        "setup_samples_s": [scaled for scaled, _ in setup],
        "setup_wall_samples_s": [raw for _, raw in setup],
        "count_window_ops": window if args.trace else None,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump({"meta": meta, "metrics": metrics, "op_seconds": times,
                   "op_wall_seconds": wall, "problems": [p for p in problems if p]},
                  out, indent=1)
    if args.trace:
        tracer.write_spans(OUT / f"{stem}.spans.tsv.gz")

    for p in [p for p in problems if p][:5]:
        print(f"bench: failed op: {'; '.join(p)}", file=sys.stderr)
    for name in wanted:
        print(f"{name:<44} {metrics[name]:>16.6f} {units[name]}")
    print(f"{'failed_ratio':<44} {failed / attempted:>16.6f} ratio")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "ratio"
    columns = [w["name"] for w in spec["workloads"]]
    table: dict[str, dict[str, float]] = {}
    all_correct = True
    for trace in (0, 1):
        for name in columns:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            all_correct &= result["correct"]
            table.setdefault("failed_ratio", {})[name] = result["failed"] / result["attempted"]
            for metric, entry in result["metrics"].items():
                table.setdefault(metric, {})[name] = entry["value"]
    print(f"{'metric':<44} {'unit':<6} " + " ".join(f"{c:>16}" for c in columns))
    for metric, row in table.items():
        cells = " ".join(f"{row.get(c, float('nan')):>16.4f}" for c in columns)
        print(f"{metric:<44} {units[metric]:<6} {cells}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
