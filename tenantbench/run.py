#!/usr/bin/env python3
"""Build and run the Zoomie tenant benchmark.

One run (from the repository root):

    python3 tenantbench/run.py --workload debug_fabric --seed 1 --seconds 40 --trace 0

builds zoomie_server and the tenantbench harness from source into
.bench_build/ (a no-op once built), then runs one workload. The last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones. Build output goes to stderr.

Repeat mode, to check that the figures are steady:

    python3 tenantbench/run.py --workload soak_sw --repeat 10 --seed 1

runs seeds 1..10 and prints each metric's median, quartiles and
quartile spread as a share of the median.

    python3 tenantbench/run.py --make-golden

records the expected reply digests and modeled counts of the seeds
in GOLDEN_SEEDS into tenantbench/golden.json. Every run of such a
seed is checked against them; run it only when a change is meant to
alter what the server replies.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
WORKLOADS = ("debug_fabric", "soak_sw")
RUN_TIMEOUT_S = 170
GOLDEN_FILE = os.path.join(BENCH_DIR, "golden.json")
# The default seed and one held out from tuning.
GOLDEN_SEEDS = (1, 1000)


def log(msg):
    print(f"tenantbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two targets; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "tenantbench", "zoomie_server"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace, golden=GOLDEN_FILE):
    """One harness run; returns (exit code, stdout text)."""
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "tenantbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(BUILD_DIR, "zoomie_server"),
           "--corpus", os.path.join("tests", "verilog_corpus"),
           "--spans", os.path.join(spans_dir, f"{workload}-{seed}.jsonl")]
    if golden:
        cmd += ["--golden", golden]
    # The harness and the servers it spawns share a new process
    # group, so a run that times out is stopped whole.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, ""
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def repeat(args):
    """Run K seeds and report each metric's median and quartiles."""
    values = {}
    units = {}
    bad = 0
    for k in range(args.repeat):
        seed = args.seed + k
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        result = last_json(out) if code == 0 else None
        if not result or not result["correct"] or result["failed"]:
            bad += 1
            log(f"seed {seed}: run failed or incorrect")
            sys.stderr.write(out)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in out.splitlines():
            for gauge in ("host_loop_ms", "host_steal_pct"):
                if line.startswith(f"# {gauge} "):
                    values.setdefault(f"({gauge})", []).append(
                        float(line.split()[2]))
                    units[f"({gauge})"] = gauge.rsplit("_", 1)[1]
        log(f"seed {seed}: ok ({result['attempted']} requests)")
    summary = {}
    print(f"# {args.workload}: {args.repeat} runs, {bad} bad")
    print(f"# {'metric':30s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
          f" {'spread':>8s}")
    for name, vals in values.items():
        if len(vals) >= 2:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = med = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name]}
        print(f"# {name:30s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
              f" {spread:8.3f}")
    for name, vals in values.items():
        print(f"# {name}: " + " ".join(f"{v:.6g}" for v in vals))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "bad": bad, "metrics": summary}))
    return 0 if bad == 0 else 1


def make_golden():
    """Record the expected values of GOLDEN_SEEDS for every workload."""
    golden = {}
    for workload in WORKLOADS:
        for seed in GOLDEN_SEEDS:
            entry = {}
            for trace in (0, 1):
                code, out = run_once(workload, seed, 1, trace, golden="")
                result = last_json(out) if code == 0 else None
                if not result or not result["correct"] or result["failed"]:
                    log(f"{workload} seed {seed} trace {trace} failed")
                    sys.stderr.write(out)
                    return 1
                for line in out.splitlines():
                    if line.startswith("# golden "):
                        entry.update(json.loads(line[len("# golden "):]))
            golden.setdefault(workload, {})[str(seed)] = entry
            log(f"{workload} seed {seed}: recorded")
    with open(GOLDEN_FILE, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many consecutive seeds and "
                             "summarize (steadiness check)")
    parser.add_argument("--make-golden", action="store_true",
                        help="record the expected values of the golden "
                             "seeds")
    args = parser.parse_args()
    if not args.make_golden and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed (the benchmark needs the repository sources)")
        return 1
    if args.make_golden:
        return make_golden()
    if args.repeat:
        return repeat(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
