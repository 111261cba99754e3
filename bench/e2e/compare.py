#!/usr/bin/env python3
"""Collect and compare sets of end-to-end benchmark results.

A set is a JSON file {"context": {...}, "runs": [record, ...]} as
`collect` writes it, or a directory of the per-run records run.py
leaves in .bench_build/e2e/results/.

  compare.py collect --out SET.json [--checkout DIR] [--seeds 1-10]
             [--workloads a,b] [--seconds S] [--trace-seeds 1]
      run every workload once per seed and write the set; every run
      must be correct. `--seeds 1 --seconds 1 --trace-seeds 1` is a
      smoke test of every workload and traced run
  compare.py pairs --base DIR --head DIR --out-base A.json
             --out-head B.json [--seeds 1-10] [--workloads a,b]
      the same for two checkouts, alternating which one runs first
  compare.py spread SET
      per (metric, workload): median and quartile spread over the
      seeds, against the metric's bound in BENCHMARK.json; and whether
      all runs of one seed, traced or not, agree on the output digest
  compare.py diff BASE HEAD
      per (metric, workload): the verdict for HEAD against BASE, and
      whether both produced the same output digests

diff follows the rule for claiming a change: a gain needs HEAD to win
at least 9 of every 10 seed-matched pairs and the medians to differ by
more than BASE's own quartile spread; otherwise HEAD must be no worse
than BASE's median by more than the bound. Where either side's spread
exceeds the bound the row is "unresolved", unless every HEAD run beats
every BASE run. diff exits 1 on a regression or a digest mismatch.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(path):
    path = Path(path)
    if path.is_dir():
        return [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    return json.loads(path.read_text())["runs"]


def check_tracked(checkout):
    """BENCHMARK.json matches the repository's blanket *.json ignore
    rule; inside a git work tree it must still be tracked."""
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"],
                            cwd=checkout, capture_output=True, text=True)
    if inside.returncode != 0:
        return
    tracked = subprocess.run(
        ["git", "ls-files", "--error-unmatch", "BENCHMARK.json"],
        cwd=checkout, capture_output=True, text=True)
    if tracked.returncode != 0:
        sys.exit(f"{checkout}: BENCHMARK.json is not tracked by git")


def run_once(checkout, workload, seed, seconds, trace, results):
    """One run.py invocation inside @p checkout; returns its record,
    which must be correct."""
    subprocess.run(
        [sys.executable, "bench/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--results-dir", str(results)],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    name = f"{workload}-s{seed}" + ("-trace" if trace else "")
    record = json.loads((results / f"{name}.json").read_text())
    if not record["correct"]:
        failed = sorted(c for c, ok in record["checks"].items() if not ok)
        sys.exit(f"{checkout}: {name} is incorrect (failed checks "
                 f"{failed}, {record['failed']} failed requests)")
    return record


def write_set(path, runs):
    context = runs[0]["context"] if runs else {}
    Path(path).write_text(json.dumps(
        {"context": context, "runs": runs}, indent=1) + "\n")


def plan(args):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in SPEC["workloads"]])
    trace_seeds = seeds_arg(args.trace_seeds) if args.trace_seeds else []
    return [(w, s, 0) for w in workloads for s in args.seeds] + \
        [(w, s, 1) for w in workloads for s in trace_seeds]


def collect(args):
    checkout = Path(args.checkout).resolve()
    check_tracked(checkout)
    results = checkout / ".bench_build" / "e2e" / "collect"
    results.mkdir(parents=True, exist_ok=True)
    runs = [run_once(checkout, w, s, args.seconds, t, results)
            for w, s, t in plan(args)]
    write_set(args.out, runs)


def pairs(args):
    sides = [Path(args.base).resolve(), Path(args.head).resolve()]
    for side in sides:
        check_tracked(side)
    runs = ([], [])
    for i, (w, s, t) in enumerate(plan(args)):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            results = sides[side] / ".bench_build" / "e2e" / "collect"
            results.mkdir(parents=True, exist_ok=True)
            runs[side].append(
                run_once(sides[side], w, s, args.seconds, t, results))
    write_set(args.out_base, runs[0])
    write_set(args.out_head, runs[1])


def values(runs, workload, metric):
    """{seed: value} of an end-to-end metric over the untraced runs of
    a workload."""
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and not r["traced"]}


def spread_of(vals):
    if len(vals) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return q3 - q1, (q3 - q1) / med if med else 0.0


def spread(args):
    runs = load_set(args.set)
    ok = True
    print(f"{'metric':26} {'workload':12} {'n':>3} {'median':>12} "
          f"{'spread':>7} {'bound':>6}")
    for metric in SPEC["end_to_end"]:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            vals = list(values(runs, workload, metric["name"]).values())
            if not vals:
                continue
            _, rel = spread_of(vals)
            flag = ""
            if metric["name"] != "setup_s" and rel > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif rel > metric["bound"] / 3:
                flag = "  over a third"
            print(f"{metric['name']:26} {workload:12} {len(vals):3d} "
                  f"{statistics.median(vals):12.6g} {rel:7.3f} "
                  f"{metric['bound']:6.2f}{flag}")

    # A traced run must produce the same plans as the untraced one.
    digests = {}
    for r in runs:
        digests.setdefault((r["workload"], r["seed"]), set()).add(
            r["output_digest"])
    split = sorted(k for k, d in digests.items() if len(d) > 1)
    for workload, seed in split:
        print(f"output digests differ between runs of {workload} seed {seed}")
    return 0 if ok and not split else 1


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mb, mh = statistics.median(base.values()), statistics.median(head.values())
    iqr_b, rel_b = spread_of(list(base.values()))
    _, rel_h = spread_of(list(head.values()))
    shared = sorted(base.keys() & head.keys())
    better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    wins = sum(better(head[s], base[s]) for s in shared)
    worse_by = ((mh - mb) if lower else (mb - mh)) / mb if mb else 0.0
    if shared and wins >= 0.9 * len(shared) and abs(mh - mb) > iqr_b \
            and better(mh, mb):
        return "gain", mb, mh, wins, len(shared)
    if rel_b > bound or rel_h > bound:
        every = all(better(h, b) for h in head.values()
                    for b in base.values())
        return ("better in every run" if every else "unresolved",
                mb, mh, wins, len(shared))
    if worse_by > bound:
        return "REGRESSION", mb, mh, wins, len(shared)
    return "no regression", mb, mh, wins, len(shared)


def diff(args):
    base, head = load_set(args.base), load_set(args.head)
    status = 0
    print(f"{'metric':26} {'workload':12} {'base':>12} {'head':>12} "
          f"{'change':>8} {'wins':>6}  verdict")
    for metric in SPEC["end_to_end"]:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            b = values(base, workload, metric["name"])
            h = values(head, workload, metric["name"])
            if not b or not h:
                continue
            word, mb, mh, wins, n = verdict(metric, b, h)
            if word == "REGRESSION":
                status = 1
            change = (mh - mb) / mb if mb else 0.0
            print(f"{metric['name']:26} {workload:12} {mb:12.6g} "
                  f"{mh:12.6g} {change:+8.3f} {wins:>3}/{n:<2}  {word}")

    digests = {}
    for side, runs in (("base", base), ("head", head)):
        for r in runs:
            key = (r["workload"], r["seed"], r["traced"])
            digests.setdefault(key, {})[side] = r["output_digest"]
    mismatched = sorted(k for k, d in digests.items()
                        if len(d) == 2 and d["base"] != d["head"])
    print(f"output digests: {len(mismatched)} mismatched of "
          f"{sum(len(d) == 2 for d in digests.values())} shared runs")
    for workload, seed, traced in mismatched:
        print(f"  {workload} seed {seed}" + (" (traced)" if traced else ""))
    return 1 if mismatched else status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "pairs"):
        p = sub.add_parser(name)
        p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
        p.add_argument("--workloads")
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        p.add_argument("--trace-seeds")
        if name == "collect":
            p.add_argument("--out", required=True)
            p.add_argument("--checkout", default=".")
        else:
            for flag in ("--base", "--head", "--out-base", "--out-head"):
                p.add_argument(flag, required=True)
    sub.add_parser("spread").add_argument("set")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("head")
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args)
    if args.command == "pairs":
        return pairs(args)
    if args.command == "spread":
        return spread(args)
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
