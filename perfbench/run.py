#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload exact_4t --seed 1 --seconds 10 --trace 0

Builds the simulator and the msimbench program from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), measures set-up time with a few
set-up-only launches, runs the workload once, and prints msimbench's
metric lines followed by one JSON result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list.  Exits non-zero when the build
fails or a correctness check fails.
"""
import argparse
import fnmatch
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 21
RUN_TIMEOUT_S = 170
# Per-layer metrics of BENCHMARK.json that a workload's traced run does not
# produce, because it never calls into that layer: they are reported as 0.
# Every other per-layer metric must be printed, or the run fails.
NOT_TOUCHED = {
    "exact_4t": ["sim.sweep_s", "sim.cell_s_*", "sim.pool_busy_frac",
                 "sim.baseline_*"],
    "sweep_2t": ["smt.functional_ns_per_inst", "trace.*", "persist.*", "obs.*",
                 "sim.run_s.*", "sim.sampled.*", "traditional.*",
                 "2op_block.*", "2op_block_ooo.*"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root, env):
    """Configures and builds msimbench; returns the binary path."""
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "msimbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return build_dir / "msimbench"


def setup_seconds(cmd, env):
    """Median over several launches of process start -> first timed call
    ready (msimbench prints its steady-clock ready time)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        out = subprocess.run(cmd + ["--setup-only"], capture_output=True,
                             text=True, env=env, timeout=RUN_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError("set-up probe failed: " + out.stderr.strip())
        ready = [l for l in out.stdout.splitlines() if l.startswith("ready_ns ")]
        samples.append((int(ready[-1].split()[1]) - t0) / 1e9)
    return statistics.median(samples), samples


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work_dir = build_root / "perfbench-work"
    tmp_dir = build_root / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        binary = build(build_root, env)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", str(work_dir), "--trace", str(args.trace)]
    setup = None
    if not args.trace:
        setup, samples = setup_seconds(cmd + ["--seconds", "1"], env)
        print("# setup_s samples: " + " ".join(f"{s:.6f}" for s in samples))
    proc = subprocess.run(cmd + ["--seconds", str(args.seconds)],
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log(f"msimbench exited {proc.returncode} without a result")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        print(f"setup_s = {setup:.6g} s")

    untouched = NOT_TOUCHED.get(args.workload, [])
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = metrics[m["name"]]
        elif args.trace and any(fnmatch.fnmatchcase(m["name"], p)
                                for p in untouched):
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            print(f"CHECK FAILED: metric {m['name']} missing")
            result["correct"] = False
    if args.trace:
        idle = len(set(out) - set(metrics))
        print(f"# {idle} per-layer metric(s) of layers {args.workload} does "
              f"not touch, reported as 0")
    result["metrics"] = out
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        return run(ap.parse_args())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"benchmark failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
