#!/usr/bin/env python3
"""Runner of the walb end-to-end benchmark (see README.md).

One workload, ending with the one-line JSON result:

    python3 walb_bench/run.py --workload dense_cavity --seed 7 --seconds 15 --trace 0

All workloads, merged JSON and `workload metric value unit` lines:

    python3 walb_bench/run.py --seed 2013 --out results/ [--trace]

Smoke sizes of every workload with schema checks (the walb_bench_smoke test):

    python3 walb_bench/run.py --smoke

The walb_bench binary is built from source into .bench_build/ at the repository
root on first use. Each workload runs in its own process, so peak RSS is per
workload; scratch files live in a fresh directory that is removed on exit.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (plus the host STREAM calibration, run in its own process).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense_cavity", "dense_hybrid", "vascular_tree", "serve_sweep"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configures (once) and builds walb_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "DistributedSimulation.h")):
        log("walb_bench: no walb sources under %s/src; nothing to benchmark" % ROOT)
        sys.exit(2)
    build_dir = os.path.join(ROOT, ".bench_build")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("walb_bench: cmake configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "walb_bench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("walb_bench: build failed")
        sys.exit(1)
    return os.path.join(build_dir, "walb_bench")


def run_process(binary, workload, seed, seconds, trace, smoke, scratch, trace_dir):
    """Runs one workload process; returns its parsed result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--scratch", scratch, "--trace-dir", trace_dir]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=scratch)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def select(results, declared, extra=None):
    """The declared metrics of a run, checked present, finite and unit-bearing."""
    merged = {}
    for r in results:
        merged.update(r["metrics"])
    merged.update(extra or {})
    out = {}
    for m in declared:
        got = merged.get(m["name"])
        value = got.get("value") if got else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError("metric %s missing or not finite" % m["name"])
        if got.get("unit") != m["unit"]:
            raise RuntimeError("metric %s has unit %r, declared %r"
                               % (m["name"], got.get("unit"), m["unit"]))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def derived(host, workload_result):
    """Per-layer ratios across processes: the sweep's computed bandwidth over
    the host's measured STREAM triad."""
    triad = host["metrics"]["perf.stream_triad_gbps"]["value"]
    sweep = workload_result["metrics"]["lbm.sweep_gbps_computed"]["value"]
    return {"lbm.sweep_frac_of_triad": {"value": sweep / triad if triad > 0 else 0.0,
                                        "unit": "1"}}


def outcome(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    ok = failed == 0 and all(r["exit_code"] == 0 for r in results) and \
        all(c["ok"] for r in results for c in r["checks"])
    return ok, attempted, failed


def measure(binary, workload, args, trace, scratch, trace_dir, e2e, per_layer):
    """One benchmark run: the workload's result object with the declared metrics."""
    if trace:
        host = run_process(binary, "host", args.seed, args.seconds, False, args.smoke,
                           scratch, trace_dir)
        res = run_process(binary, workload, args.seed, args.seconds, True, args.smoke,
                          scratch, trace_dir)
        metrics = select([host, res], per_layer, derived(host, res))
        parts = [host, res]
    else:
        res = run_process(binary, workload, args.seed, args.seconds, False, args.smoke,
                          scratch, trace_dir)
        metrics = select([res], e2e)
        parts = [res]
    ok, attempted, failed = outcome(parts)
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}, parts


def print_lines(workload, metrics):
    for name, m in metrics.items():
        print("%s %s %.10g %s" % (workload, name, m["value"], m["unit"]))


def print_self_time(workload, res):
    st = res.get("self_time")
    if not st:
        return
    setup = st.get("setup_median_trial", {})
    log("%s self time, median setup trial: %s (sum %.4f s)" % (
        workload, ", ".join("%s %.4f s" % kv for kv in sorted(setup.items())),
        sum(setup.values())))
    log("%s self time, whole workload: %s" % (
        workload, ", ".join("%s %.4f s" % kv for kv in sorted(st.get("workload", {}).items()))))
    if st.get("step_mean_ms"):
        log("%s step: mean %.4f ms, lbm.sweep + lbm.boundary + vmpi.comm %.4f ms" % (
            workload, st["step_mean_ms"], st["step_phase_sum_ms"]))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="all-workload mode: directory for result.json and traces")
    p.add_argument("--binary", help="prebuilt walb_bench (skips the build)")
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    trace = args.trace == "1"
    e2e, per_layer = load_spec()
    binary = args.binary or build()

    # SIGTERM unwinds like Ctrl-C: subprocess.run kills its child on the way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = tempfile.mkdtemp(prefix=".walb_bench_scratch_", dir=ROOT)
    try:
        if args.workload:
            out, parts = measure(binary, args.workload, args, trace, scratch, scratch,
                                 e2e, per_layer)
            print_lines(args.workload, out["metrics"])
            if trace:
                print_self_time(args.workload, parts[-1])
            print(json.dumps(out), flush=True)
            return 0

        # All workloads (and the smoke gate): untraced for the end-to-end
        # metrics; traced as well with --trace or --smoke.
        out_dir = args.out or scratch
        os.makedirs(out_dir, exist_ok=True)
        merged = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        all_ok = True
        digests = {}
        for w in WORKLOADS:
            entry = {}
            legs = [False] + ([True] if (trace or args.smoke) else [])
            for leg in legs:
                res, parts = measure(binary, w, args, leg, scratch, out_dir, e2e, per_layer)
                print_lines(w, res["metrics"])
                if leg:
                    print_self_time(w, parts[-1])
                else:
                    digests[w] = parts[-1]["digest"]
                entry["per_layer" if leg else "end_to_end"] = res
                entry.setdefault("runs", []).extend(parts)
                all_ok = all_ok and res["correct"]
            merged["workloads"][w] = entry
        same = digests["dense_cavity"] == digests["dense_hybrid"]
        log("dense_cavity and dense_hybrid digests %s (%s, %s)" % (
            "equal" if same else "DIFFER", digests["dense_cavity"], digests["dense_hybrid"]))
        all_ok = all_ok and same
        merged["correct"] = all_ok
        if args.out:
            with open(os.path.join(out_dir, "result.json"), "w") as f:
                json.dump(merged, f, indent=1)
            log("wrote %s" % os.path.join(out_dir, "result.json"))
        return 0 if all_ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log("walb_bench: %s" % e)
        sys.exit(1)
