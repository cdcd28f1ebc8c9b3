#!/usr/bin/env python3
"""Build and run the hem-cpa benchmark.

    python3 perfbench/run.py --workload <wide_hier|daemon_edit|batch_fleet> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]

Run from the root of a checkout.  The first call configures and builds the
library, the `hemcpad` daemon and the `hembench` benchmark program from source into
$CARGO_TARGET_DIR (default `.bench_build`); later calls only re-check the
build.  Each run works in its own directory under `.bench_work/`, which is
removed afterwards except for span traces of traced runs (`.bench_work/traces/`).
The last line of standard output is hembench's JSON result.  See
perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build hembench + hemcpad; returns False on failure."""
    for needed in ("src/CMakeLists.txt", "tools/hemcpad.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"missing {needed}: the benchmark builds the program from this checkout")
            return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "hembench", "hemcpad",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["wide_hier", "daemon_edit", "batch_fleet"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="gate self-check: corrupt one reference row; the run must report correct=false")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("build failed")
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    workdir_rel = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    workdir = os.path.join(ROOT, workdir_rel)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, "hembench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--hemcpad", os.path.join(build_dir, "hemcpad"), "--workdir", workdir_rel]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # A session of its own, so a timeout can stop the daemon and its workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a crashed run
        except OSError:
            pass
        traces = [f for f in os.listdir(workdir) if f.startswith("trace-")]
        if traces:
            os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
            for f in traces:
                shutil.move(os.path.join(workdir, f),
                            os.path.join(work_root, "traces", f"{args.seed}-{f}"))
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"hembench exited with {proc.returncode}")
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
