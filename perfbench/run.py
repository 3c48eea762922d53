#!/usr/bin/env python3
"""Build and run the Tahoe-TP benchmark.

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the benchmark binary, tahoe_perfbench, into
.bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild incrementally. Its
output is passed through: human-readable lines (machine, gate, every metric
with its unit, sample count and clock), then one JSON result as the last
line.
--trace 1 prints the per-layer metrics instead and writes the run's spans
to .bench_build/spans/<workload>.jsonl.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (wrapper transparency), then runs
every workload in quick mode, traced and untraced, and checks that every
metric named in BENCHMARK.json is printed with its unit and that the
correctness gate ran.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ["sim-grid", "cxl-plan", "real-lu", "real-heat"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


_running = []  # the child process group being waited for, if any


def _stop_child_and_exit(signum, _frame):
    for proc in _running:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def wait_or_kill(proc, timeout):
    """Wait for `proc`, started in its own session; on timeout kill its
    whole process group (a build's make and compiler children too) and reap
    it. Returns the output of communicate(), or None on timeout."""
    _running.append(proc)
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    finally:
        _running.remove(proc)


def run_checked(cmd, env, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    if wait_or_kill(proc, timeout) is None:
        log(f"timed out: {' '.join(cmd)}")
        return False
    return proc.returncode == 0


def build(target):
    """Configure (once) and build `target`; returns its path or None."""
    out = build_root()
    tree = os.path.join(out, "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", tree,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           env, BUILD_TIMEOUT_S):
            log("configure failed")
            return None
    if not run_checked(["cmake", "--build", tree, "--target", target,
                        "-j", jobs], env, BUILD_TIMEOUT_S):
        log(f"build of {target} failed")
        return None
    return os.path.join(tree, target)


def run_binary(binary, args, capture=False):
    """Run a built binary to completion (killed after RUN_TIMEOUT_S)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None,
                            start_new_session=True)
    result = wait_or_kill(proc, RUN_TIMEOUT_S)
    if result is None:
        log(f"{os.path.basename(binary)} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, ""
    return proc.returncode, result[0].decode() if capture else ""


def selftest():
    tests = build("perfbench_tests")
    binary = build("tahoe_perfbench")
    if tests is None or binary is None:
        return 1
    code, _ = run_binary(tests, [])
    if code != 0:
        log("perfbench_tests failed")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", trace, "--quick"], capture=True)
            where = f"{workload} --trace {trace}"
            log(f"quick {where}")
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                failures.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append(f"{where}: gate failed {lines[-1]}")
            if not any(l.startswith("gate: ") and "checked" in l for l in lines):
                failures.append(f"{where}: no correctness gate line")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[group]}
            if sorted(metrics) != sorted(expected):
                failures.append(f"{where}: metrics {sorted(metrics)} != "
                                f"{sorted(expected)}")
            for name, unit in expected.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    failures.append(f"{where}: {name} unit {got.get('unit')}"
                                    f" != {unit}")
                if not any(l.startswith(f"metric {name} = ") and f" {unit} (" in l
                           for l in lines):
                    failures.append(f"{where}: {name} not printed with {unit}")
    for f in failures:
        log(f"FAIL {f}")
    log("selftest failed" if failures else "selftest passed")
    return 1 if failures else 0


def main():
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop_child_and_exit)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for smoke tests")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests and quick checks")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("tahoe_perfbench")
    if binary is None:
        return 1
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        bench_args.append("--quick")
    if args.trace == "1":
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        # One file per workload (the latest traced run) bounds disk use.
        bench_args += ["--spans-out", os.path.join(
            spans, f"{args.workload}.jsonl")]
    code, _ = run_binary(binary, bench_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
