#!/usr/bin/env python3
"""BASS benchmark runner (see README.md in this directory).

Builds the bassbench harness from the checkout's own sources, runs one
workload, checks its outputs, and prints one JSON result as the last line
of standard output:

    python3 bassbench/run.py --workload city_churn --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, from the
untraced binary. --trace 1 reports the per-layer metrics: it runs the
untraced binary at the workload's --jobs and at the other jobs value (1 or
4), then the traced binary at --jobs 1, and requires all three journal
digests to match.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city_churn", "city_probe", "mesh_chaos")
# Whole-run deadline; the harness must exit within 180 s once built.
RUN_BUDGET_S = 170.0
# Per-layer metrics of layers a workload does not exercise read 0.
NOT_APPLICABLE = {
    "city": ("scenario.", "exec."),
    "mesh": ("zone.", "topology.", "alloc.per_round", "round.other_frac"),
}


def fail(message):
    print(f"bassbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    sanitize = os.environ.get("BASS_SANITIZE", "")
    name = "bassbench" + (f"-san-{sanitize.replace(',', '-')}" if sanitize else "")
    return os.path.join(base, name)


def build(out_dir):
    """Configures (once) and builds both harness binaries; returns bin dir."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if os.environ.get("BASS_SANITIZE"):
            configure.append("-DBASS_SANITIZE=" + os.environ["BASS_SANITIZE"])
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "bassbench", "bassbench_traced"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); log in {log_path}")
    return out_dir


def run_harness(binary, workload, seed, seconds, jobs, min_repeats, deadline, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--min-repeats", str(min_repeats),
           "--scenarios", os.path.join(HERE, "scenarios")]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + os.path.basename(binary))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} {workload} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} {workload} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{os.path.basename(binary)} {workload}: no JSON result (exit {proc.returncode})")
    result["exit_code"] = proc.returncode
    return result


def run_ok(result):
    """Same-seed repeats agreed, every call succeeded, timings are valid."""
    return (result["exit_code"] == 0 and result["digest_stable"]
            and result["counts_stable"] and result["step_errors"] == 0
            and result["timing_valid"])


def e2e(result, name):
    return result["e2e"][name]["value"]


def untraced(spec, bin_dir, args, deadline):
    r = run_harness(os.path.join(bin_dir, "bassbench"), args.workload, args.seed,
                    args.seconds, None, 2, deadline)
    metrics = {m["name"]: {"value": e2e(r, m["name"]), "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return run_ok(r), r["steps"], r["step_errors"], metrics


def traced(spec, bin_dir, args, deadline):
    share = max(1.0, args.seconds / 3.0)
    plain = os.path.join(bin_dir, "bassbench")
    base = run_harness(plain, args.workload, args.seed, share, None, 1, deadline)
    other_jobs = 1 if base["jobs"] > 1 else max(1, min(4, os.cpu_count() or 1))
    other = run_harness(plain, args.workload, args.seed, share, other_jobs, 1, deadline)
    out_dir = os.path.join(os.path.dirname(bin_dir), "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    spans = os.path.join(out_dir, f"spans_{stem}.json")
    tr = run_harness(os.path.join(bin_dir, "bassbench_traced"), args.workload, args.seed,
                     share, 1, 1, deadline, spans=spans)

    runs = (base, other, tr)
    digests = {r["digest"] for r in runs}
    correct = all(run_ok(r) for r in runs) and len(digests) == 1
    print(f"journal digest across jobs {base['jobs']}/{other['jobs']}/traced jobs 1: "
          + ("identical" if len(digests) == 1 else "MISMATCH " + " ".join(sorted(digests))))

    serial, parallel = (base, other) if base["jobs"] == 1 else (other, base)
    eff = serial["loop_s"] / (parallel["jobs"] * parallel["loop_s"])
    layer = dict(tr["layer"])
    kind = "city" if args.workload.startswith("city") else "mesh"
    layer["zone.parallel_eff"] = eff if kind == "city" else 0.0
    layer["exec.parallel_eff"] = eff if kind == "mesh" else 0.0
    layer["trace.overhead_round_ms_p50"] = e2e(tr, "round_ms_p50") - e2e(serial, "round_ms_p50")
    layer["trace.overhead_runs_per_s"] = e2e(serial, "runs_per_s") - e2e(tr, "runs_per_s")
    print(f"tracing overhead at jobs 1: round_ms_p50 {e2e(serial, 'round_ms_p50'):.4g} -> "
          f"{e2e(tr, 'round_ms_p50'):.4g} ms"
          + (f", runs_per_s {e2e(serial, 'runs_per_s'):.4g} -> {e2e(tr, 'runs_per_s'):.4g}"
             if kind == "mesh" else ""))
    print(f"parallel efficiency jobs {parallel['jobs']} vs 1: {eff:.3f}")

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in layer:
            value = layer[name]
        elif name.startswith(NOT_APPLICABLE[kind]):
            value = 0.0
        else:
            fail(f"traced run did not report per-layer metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    with open(os.path.join(out_dir, f"layers_{stem}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "build": tr["build"],
                   "correct": correct, "metrics": metrics, "spans": spans}, f, indent=1)
    attempted = sum(r["steps"] for r in runs)
    failed = sum(r["step_errors"] for r in runs)
    return correct, attempted, failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no BASS sources under {ROOT}/src; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bin_dir = build(build_dir())
    # The build may take long on a fresh checkout; the run budget starts now.
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        correct, attempted, failed, metrics = traced(spec, bin_dir, args, deadline)
    else:
        correct, attempted, failed, metrics = untraced(spec, bin_dir, args, deadline)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    # A digest mismatch or failed same-seed check is an error, not a result.
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
