#!/usr/bin/env python3
"""Record repeated perfbench runs as a committed BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 16 --runs 5 --parent ../parent-checkout

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
--runs times per workload in this checkout (the "change" tree) and, with
--parent, as often in the parent checkout, alternating the two sides and
which side goes first in each pair. Each run's last output line is
perfbench's JSON result; its metrics are aggregated per tree and workload
into median, p10, p90 and n (plus the raw values), next to the machine
line perfbench prints. A run that fails or fails its correctness gate is
counted under "failed_runs" and contributes no metrics.

    python3 tools/bench_record.py --compare BENCH_16.json:parent BENCH_16.json

prints, per workload and metric, the ratio of B's median to A's. A
difference no larger than the wider of the two p10..p90 spreads is a tie;
otherwise the direction BENCHMARK.json declares decides "better"/"worse".
An operand is FILE or FILE:TREE (TREE defaults to "change").

    python3 tools/bench_record.py --selftest

aggregates and compares canned result lines, with no build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sim-grid", "cxl-plan", "real-lu", "real-heat"]
SCHEMA = "tahoe_bench_record_v1"


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def parse_run(output):
    """(machine line, result dict) from one perfbench run's stdout."""
    lines = output.strip().splitlines()
    if not lines:
        raise ValueError("empty perfbench output")
    machine = next((l[len("machine: "):] for l in lines
                    if l.startswith("machine: ")), "")
    return machine, json.loads(lines[-1])


def aggregate(results):
    """Fold perfbench result dicts into {metrics, runs, failed_runs}."""
    values, units, failed = {}, {}, 0
    for r in results:
        if r is None or not r.get("correct") or r.get("failed", 1) != 0:
            failed += 1
            continue
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    metrics = {
        name: {"unit": units[name], "median": statistics.median(v),
               "p10": quantile(v, 0.1), "p90": quantile(v, 0.9),
               "n": len(v), "values": v}
        for name, v in sorted(values.items())}
    return {"runs": len(results), "failed_runs": failed, "metrics": metrics}


def run_perfbench(tree, workload, seed, seconds):
    """One untraced perfbench run in `tree`: (machine, result or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    try:
        machine, result = parse_run(proc.stdout)
    except ValueError:
        return "", None
    return machine, result if proc.returncode == 0 else None


def record(args):
    trees = {"change": ROOT}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    results = {t: {w: [] for w in args.workloads} for t in trees}
    machine = ""
    for i in range(args.runs):
        for workload in args.workloads:
            order = sorted(trees, reverse=(i % 2 == 1))
            for tree in order:
                print(f"bench_record: run {i + 1}/{args.runs} {workload} "
                      f"{tree}", file=sys.stderr, flush=True)
                m, r = run_perfbench(trees[tree], workload, args.seed,
                                     args.seconds)
                machine = machine or m
                results[tree][workload].append(r)
    doc = {
        "schema": SCHEMA,
        "pr": args.pr,
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload <w> --seed "
                   f"{args.seed} --seconds {args.seconds} --trace 0",
        "trees": {t: {w: aggregate(rs) for w, rs in by_w.items()}
                  for t, by_w in results.items()},
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


def better_directions():
    """metric name -> "lower"/"higher" from BENCHMARK.json, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["better"]
            for group in ("end_to_end", "per_layer")
            for m in spec.get(group, [])}


def load_tree(operand):
    path, _, tree = operand.partition(":")
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} file")
    return doc["trees"][tree or "change"]


def compare_trees(a, b, directions):
    """Rows (workload, metric, ratio, verdict) for metrics in both trees."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        for name in sorted(set(ma) & set(mb)):
            x, y = ma[name], mb[name]
            spread = max(x["p90"] - x["p10"], y["p90"] - y["p10"])
            diff = y["median"] - x["median"]
            ratio = y["median"] / x["median"] if x["median"] else float("nan")
            if abs(diff) <= spread:
                verdict = "tie"
            elif name not in directions:
                verdict = "differs"
            else:
                lower_is_better = directions[name] == "lower"
                verdict = "better" if (diff < 0) == lower_is_better \
                    else "worse"
            rows.append((workload, name, ratio, verdict))
    return rows


def compare(operand_a, operand_b):
    rows = compare_trees(load_tree(operand_a), load_tree(operand_b),
                         better_directions())
    print(f"{'workload':<10} {'metric':<34} {'B/A':>8}  verdict")
    for workload, name, ratio, verdict in rows:
        print(f"{workload:<10} {name:<34} {ratio:>8.3f}  {verdict}")
    return 0


def selftest():
    def line(correct, **metrics):
        return ("machine: nproc=4 cpu=\"test\" compiler=\"x\" build=R\n"
                "metric ...\n" + json.dumps({
                    "correct": correct, "attempted": 1,
                    "failed": 0 if correct else 1,
                    "metrics": {k: {"value": v, "unit": "ms"}
                                for k, v in metrics.items()}}))
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    machine, _ = parse_run(line(True, iter_ms=1.0))
    check(machine.startswith("nproc=4"), f"machine line: {machine!r}")
    check(quantile([1, 2, 3, 4, 5], 0.1) == 1.4, "p10 interpolation")
    check(quantile([7.0], 0.9) == 7.0, "single-sample quantile")
    parent = aggregate([parse_run(line(True, iter_ms=v))[1]
                        for v in (10.0, 11.0, 12.0, 13.0, 14.0)])
    check(parent["metrics"]["iter_ms"]["median"] == 12.0, "median")
    check(parent["metrics"]["iter_ms"]["n"] == 5, "n")
    failed = aggregate([parse_run(line(False, iter_ms=1.0))[1], None])
    check(failed["failed_runs"] == 2 and not failed["metrics"],
          "failed runs are counted and carry no metrics")
    same = aggregate([parse_run(line(True, iter_ms=v))[1]
                      for v in (10.5, 11.5, 12.5, 13.5, 14.5)])
    fast = aggregate([parse_run(line(True, iter_ms=v))[1]
                      for v in (5.0, 5.1, 5.2, 5.3, 5.4)])
    directions = {"iter_ms": "lower"}
    tie = compare_trees({"w": parent}, {"w": same}, directions)
    check(tie == [("w", "iter_ms", 12.5 / 12.0, "tie")], f"tie: {tie}")
    win = compare_trees({"w": parent}, {"w": fast}, directions)
    check(win[0][3] == "better", f"better: {win}")
    loss = compare_trees({"w": fast}, {"w": parent}, directions)
    check(loss[0][3] == "worse", f"worse: {loss}")
    for f in failures:
        print(f"bench_record selftest FAIL: {f}", file=sys.stderr)
    print("bench_record selftest " + ("failed" if failures else "passed"),
          file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload and tree")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated perfbench workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", help="parent checkout to alternate with")
    parser.add_argument("--out", help="output path (default BENCH_<pr>.json "
                                      "at the repository root)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if args.pr is None or args.runs < 1:
        parser.error("--pr is required and --runs must be >= 1")
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
