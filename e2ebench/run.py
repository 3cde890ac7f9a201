#!/usr/bin/env python3
"""Builds the benchmark from the sources of this checkout and runs it.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py --workload adhoc-sql --seed N --print-sql

The first form runs one workload and prints, as the last line of standard
output, its JSON result. The second runs every workload of BENCHMARK.json,
each in its own process, and prints one result line per workload, prefixed
by its name; tpcds-parallel, which BENCHMARK.json leaves out, runs only when
named with --workload. The third prints a seed's generated adhoc-sql
statements.

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to standard error. A traced run
writes its spans to <build dir>/traces/<workload>-<seed>.jsonl.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no FusionDB sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "e2ebench"), "-B",
                        str(build_dir), *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "e2ebench", "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "e2ebench"


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def run_one(binary: Path, build_dir: Path, args) -> int:
    if option(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        name = f"{option(args, '--workload', '')}-{option(args, '--seed', '1')}"
        args = args + ["--trace-out", str(traces / f"{name}.jsonl")]
    return subprocess.run([str(binary), *args]).returncode


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args:
        return run_one(binary, build_dir, args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        result = subprocess.run(
            [sys.executable, __file__, "--workload", workload, *args],
            stdout=subprocess.PIPE, text=True)
        lines = result.stdout.strip().splitlines()
        print(f"{workload}: {lines[-1] if lines else '(no result)'}", flush=True)
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
