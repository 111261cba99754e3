#!/usr/bin/env python3
"""Build and run one end-to-end benchmark run.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an accpar checkout. The first run configures and
builds bench/e2e (the library, the `accpar` CLI and accpar_bench) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e; later runs only check
that the build is current. accpar_bench runs one workload in its own
process and prints a one-line JSON summary, which this script checks
against BENCHMARK.json (every declared metric, nothing else, same units)
and prints as its last line. --trace 1 makes the traced run: per-layer
metrics, and a Chrome trace in <build>/traces/. The full record of each
run goes to <build>/results/ (or --results-dir).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build(out):
    """Configures on first use, then brings accpar_bench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no accpar sources under {ROOT}; run from a full checkout")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "accpar_bench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return out / "accpar_bench"


def check_metrics(summary, traced):
    """The summary must carry exactly the metrics BENCHMARK.json
    declares for this kind of run, with the declared units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in summary["metrics"].items()}
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    units = sorted(n for n in declared.keys() & emitted.keys()
                   if declared[n] != emitted[n])
    if missing or extra or units:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path)
    args = parser.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")

    results = args.results_dir or out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}"
    record = results / (name + ("-trace" if args.trace else "") + ".json")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--results", str(record)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace", str(traces / f"{name}.trace.json")]

    # Its own process group, so that the server and probe processes it
    # starts go down with it whatever happens.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
    if stdout is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"accpar_bench exited with {run.returncode}")
    summary = json.loads(lines[-1])
    check_metrics(summary, bool(args.trace))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
