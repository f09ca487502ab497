#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--threads T] [--default-seed N] [--held-out-seed N]

Builds the measuring program from the checkout's sources into .bench_build/,
runs one workload with a scrubbed environment, stamps the result with the host
it ran on, appends the stamped record to .bench_build/results.jsonl and prints
the program's output. The last stdout line is the result JSON object. The exit
code is the measuring program's: 0 when every output check passed.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "afl_perfbench", "-j", jobs])
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files in the checkout
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(BUILD, "afl_perfbench")


def build_info():
    """Compiler, flags and build type as the benchmark's CMake run wrote them."""
    out = {}
    try:
        with open(os.path.join(BUILD, "build_info.txt")) as f:
            for line in f:
                key, _, value = line.rstrip("\n").partition("=")
                out[key] = value.strip()
    except OSError:
        pass
    return out


def first_line(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return done.stdout.splitlines()[0] if done.stdout else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def tree_digest():
    """SHA-256 over the sources the program is built from."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, base, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_stamp(args):
    info = build_info()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) or None
    model = cpu_model()
    return {
        "host_class": f"{model} x{nproc}",
        "nproc": nproc,
        "cpu": model,
        "compiler": info.get("compiler", ""),
        "cxx_flags": info.get("cxx_flags", ""),
        "build_type": info.get("build_type", ""),
        "commit": commit,
        "tree_sha256": tree_digest(),
        "threads": args.threads,
        "seed": args.seed,
        "held_out_seed": args.seed == args.held_out_seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--default-seed", type=int, default=1)
    ap.add_argument("--held-out-seed", type=int)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = args.default_seed
    if args.threads < 1 or args.threads > (os.cpu_count() or 1):
        fail(f"--threads must be between 1 and nproc ({os.cpu_count()})")

    program = build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("AFL_", "ADAPTIVEFL_"))}
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]

    load_before = os.getloadavg()
    started = time.time()
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr.decode() if isinstance(e.stderr, bytes) else (e.stderr or ""))
        fail(f"measuring program exceeded {PROGRAM_TIMEOUT_S} s", 1)
    stamp = host_stamp(args)
    stamp["load_before"] = list(load_before)
    stamp["load_after"] = list(os.getloadavg())
    stamp["elapsed_s"] = time.time() - started

    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        fail(f"measuring program printed no result (exit {done.returncode})", 1)
    record = {"workload": args.workload, "trace": args.trace, "host": stamp, "result": result}
    with open(os.path.join(ROOT, ".bench_build", "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(stamp))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
