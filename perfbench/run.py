#!/usr/bin/env python3
"""Build and run the end-to-end benchmark on one workload.

    python3 perfbench/run.py --workload search_s4 --seed 7 --seconds 15 --trace 0

Run from the repository root. Builds the library and the benchmark into
.bench_build/perfbench (Release), runs the statistics self-test, then runs
the workload. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
BENCHMARK.json is the one list of metric names and units: the program
prints name/value pairs and this script attaches the units. Exits non-zero
when the build, the self-test, the correctness check or the metric set
fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("search_s4", "dyn_churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources under {ROOT}; nothing to build", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"], check=True,
                   stdout=sys.stderr)
    subprocess.run([str(BUILD / "perfbench_stats_test")], check=True,
                   stdout=sys.stderr)


def with_units(values, trace):
    """Attach BENCHMARK.json's units to the program's name/value pairs.

    Every metric of the section must be printed, except that a per-layer
    metric of a layer the workload does not exercise may be left out and
    reads 0. A name the section does not list is an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    extra = sorted(set(values) - set(units))
    missing = [] if trace else sorted(set(units) - set(values))
    if extra or missing:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build or self-test failed: {e}")
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    result["metrics"] = with_units(result["metrics"], args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
