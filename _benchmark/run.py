#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its result.

    python3 _benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the benchmark
executable from the checkout's sources (dune-project and lib/, plus
_benchmark/ocaml) in a dune workspace under the build directory
($CARGO_TARGET_DIR, default .bench_build), runs the workload with
jobs = nproc, and relays its output. The last line of standard output is
the result object; without a buildable checkout the script exits non-zero
and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["table1-2048", "modexp-shared", "montecarlo-ripple", "faults-catalogue"]
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120


def fail(msg):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(2)


def workspace(root, build_dir):
    """A dune workspace of links to the checkout's library and this package,
    so the root project's own build (tests, examples) is never involved."""
    ws = os.path.join(build_dir, "ws")
    os.makedirs(ws, exist_ok=True)
    links = {
        "dune-project": os.path.join(root, "dune-project"),
        "lib": os.path.join(root, "lib"),
        "bench": os.path.join(HERE, "ocaml"),
    }
    for name, target in links.items():
        path = os.path.join(ws, name)
        rel = os.path.relpath(target, ws)
        if os.path.islink(path) and os.readlink(path) == rel:
            continue
        if os.path.lexists(path):
            os.remove(path)
        os.symlink(rel, path)
    return ws


def run(cmd, timeout, **kw):
    """Run a child to completion; kill it and wait on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out, err


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="shift every reference value; the run must then report failures")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a checkout: %s is missing" % need)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    ws = workspace(root, build_dir)

    code, out, err = run(
        ["dune", "build", "--root", ws, "--profile", "release", "--cache", "disabled",
         "./bench/main.exe"],
        BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out + err)
        fail("build failed")

    nproc = len(os.sched_getaffinity(0))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(ws, "_build", "default", "bench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(nproc),
           "--trace-file", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    code, out, _ = run(cmd, args.seconds + RUN_GRACE_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("workload exited with code %d and no result" % code)
    print("nproc %d" % nproc)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
