#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload fig1-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script builds the
TraceRebase libraries and the trb_bench binary from source into
.bench_build (or $CARGO_TARGET_DIR), runs the workload in a fresh
scratch directory under .bench_tmp with every TRB_* variable cleared,
removes the scratch directory, and passes trb_bench's report through.
The last line of stdout is the result JSON object.  With --trace 1 the
span log is kept as .bench_out/spans-<workload>-<seed>.json.

Exit status: 0 when every result checked out, 1 when one did not, 2 when
the benchmark could not be built or run.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fig1-cold", "ipc1-ipref", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
# A first build plus one run must finish within 15 minutes.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def clean_env(tmp):
    """The caller's environment without TRB_*, temp files kept local."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRB_")}
    env["TMPDIR"] = tmp
    return env


def run_checked(cmd, env, timeout, stdout):
    """Run cmd to completion (killing it on timeout); return its code."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build(build_dir, env):
    """Configure once, then build trb_bench incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "trb_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if run_checked(cmd, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--flip-bit", action="store_true",
                    help="test hook: corrupt one simulated result")
    ap.add_argument("--refuse-connect", action="store_true",
                    help="test hook: serve-mixed clients dial a dead socket")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(os.path.join(tmp_root, "tmp"), exist_ok=True)
    env = clean_env(os.path.join(tmp_root, "tmp"))

    if not build(build_dir, env):
        print("run.py: build failed", file=sys.stderr)
        return 2

    # Relative scratch path: the daemon's socket must fit sun_path
    # however deep the checkout is.
    work = os.path.join(".bench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(build_dir, "trb_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json"),
           "--workdir", work]
    if args.flip_bit:
        cmd.append("--flip-bit")
    if args.refuse_connect:
        cmd.append("--refuse-connect")
    try:
        sys.stdout.flush()
        code = run_checked(cmd, env, RUN_TIMEOUT_S, sys.stdout)
        spans = os.path.join(work, "spans.json")
        if args.trace and os.path.exists(spans):
            os.makedirs(".bench_out", exist_ok=True)
            shutil.move(spans, os.path.join(
                ".bench_out", f"spans-{args.workload}-{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code if code in (0, 1) else 2


if __name__ == "__main__":
    sys.exit(main())
