#!/usr/bin/env python3
"""Builds sweepbench from source and runs it.

One workload (the last stdout line is the result JSON object):
  python3 bench/sweepbench/run.py --workload NAME --seed N --seconds S \
      --trace 0|1 [--out FILE]
Every workload, each in its own process (one result record per workload
appended to FILE):
  python3 bench/sweepbench/run.py --workload all --seed N [--seconds S] \
      [--trace 0|1] --out FILE
Two sets of result records against the bounds in BENCHMARK.json (exits 1
when a metric's median worsened by more than its bound):
  python3 bench/sweepbench/run.py --compare A.jsonl B.jsonl
Smoke test (every workload at smoke size, the harness equivalence check,
traced vs untraced determinism, every BENCHMARK.json metric emitted and
finite):
  python3 bench/sweepbench/run.py --smoke [--binary PATH]

The build goes to $CARGO_TARGET_DIR/sweepbench (default .bench_build),
relative to the repository root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "sweepbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "sweepbench"


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "sweepbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return out / "sweepbench"


def run_binary(binary, args):
    """Runs the binary to completion; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        return 124, out if isinstance(out, str) else out.decode()
    return proc.returncode, proc.stdout


def parse_run(stdout):
    """Splits a run's stdout into its result object and diagnostics."""
    lines = stdout.strip().splitlines()
    record = {"result": json.loads(lines[-1]) if lines else None}
    for line in lines[:-1]:
        if line.startswith("samples: "):
            record["samples"] = json.loads(line[len("samples: "):])
        elif line.startswith("deterministic: "):
            record["deterministic"] = line[len("deterministic: "):]
    return record


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    elif trace:
        trace_dir = build_dir() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        args += ["--trace-dir", str(trace_dir)]
    return run_binary(binary, args)


def append_record(path, workload, seed, seconds, trace, stdout):
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace}
    record.update(parse_run(stdout))
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def describe(values, higher_better):
    best = max(values) if higher_better else min(values)
    return (f"best {best:.6g} median {statistics.median(values):.6g} "
            f"IQR {100 * spread(values):.1f}% (n={len(values)})")


def compare(path_a, path_b):
    spec = load_spec()
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append([json.loads(line) for line in f if line.strip()])
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [[r for r in s if r["workload"] == workload and
                 r["trace"] == 0] for s in sets]
        if not runs[0] or not runs[1]:
            print(f"{workload}: missing from one side, skipped")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            values = [[r["result"]["metrics"][name]["value"] for r in side]
                      for side in runs]
            a, b = (statistics.median(v) for v in values)
            worse = (a - b) / a if higher else (b - a) / a
            verdict = "ok" if worse <= metric["bound"] else "OUT OF BOUND"
            failed = failed or worse > metric["bound"]
            print(f"{workload} {name} [{metric['unit']}]: "
                  f"{100 * worse:+.1f}% worse (bound "
                  f"{100 * metric['bound']:.0f}%) {verdict}")
            for label, side, v in zip("AB", runs, values):
                reps = [x for r in side
                        for x in r.get("samples", {}).get(name, [])]
                line = f"  {label} runs: {describe(v, higher)}"
                if reps:
                    line += f"; reps: {describe(reps, higher)}"
                print(line)
    return 1 if failed else 0


def smoke(binary):
    spec = load_spec()
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        if workload.startswith("ingest_"):
            code, out = run_binary(binary, ["--check-harness", "--workload",
                                            workload, "--seed", "1"])
            if code != 0:
                problems.append(f"{workload}: {out.strip()}")
        deterministic = {}
        for trace in (0, 1):
            code, out = run_workload(binary, workload, 1, 0, trace,
                                     smoke=True)
            if code != 0:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            record = parse_run(out)
            result = record["result"]
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: incorrect")
            metrics = result["metrics"]
            if list(metrics) != names[trace]:
                missing = sorted(set(names[trace]) - set(metrics))
                extra = sorted(set(metrics) - set(names[trace]))
                problems.append(f"{workload} trace={trace}: metrics differ "
                                f"from BENCHMARK.json (missing {missing}, "
                                f"extra {extra}, or out of order)")
            for name, m in metrics.items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{workload}: {name} is not finite")
            deterministic[trace] = record.get("deterministic")
        if len(deterministic) == 2 and deterministic[0] != deterministic[1]:
            problems.append(f"{workload}: traced and untraced outputs "
                            f"differ")
        print(f"{workload}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("FAILED:", p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = Path(args.binary) if args.binary else build()
    if binary is None:
        print("sweepbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]

    if args.workload != "all":
        code, out = run_workload(binary, args.workload, args.seed, seconds,
                                 args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        if args.out and code == 0:
            append_record(args.out, args.workload, args.seed, seconds,
                          args.trace, out)
        return code

    if not args.out:
        parser.error("--workload all needs --out FILE")
    status = 0
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        code, out = run_workload(binary, workload, args.seed, seconds,
                                 args.trace)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        print(f"{workload}: exit {code} {last}")
        if code == 0:
            append_record(args.out, workload, args.seed, seconds, args.trace,
                          out)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
