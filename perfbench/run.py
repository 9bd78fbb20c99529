#!/usr/bin/env python3
"""Build and run the repository benchmark under a watchdog.

Usage (from the repository root):

    python3 perfbench/run.py --workload gpu_match --seed 1 --seconds 20 --trace 0

Builds the `pmcts-perfbench` package (its own Cargo workspace, path
dependencies on the library crates) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it. The binary's
stdout is passed through; its last line is the JSON result. Its stderr
carries `@progress` heartbeats: if none arrives for STALL_S seconds, or
the run outlives DEADLINE_S, the binary is killed and the run is reported
as a failed run of its workload (exit code 3) instead of blocking. With
`--trace 1` the spans are written to `perfbench/out/`.

Exit codes: 0 correct run, 1 a correctness or fingerprint check failed,
2 bad arguments or the build failed, 3 the watchdog stopped the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("gpu_match", "resident_tree", "fleet_serve")
STALL_S = 30.0
DEADLINE_S = 175.0
BUILD_TIMEOUT_S = 880.0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in 1..600")
    return args


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(BENCH_DIR, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(BENCH_DIR, "Cargo.toml")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith((".rs", ".toml"))]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def fail_result(attempted):
    return json.dumps({"correct": False, "attempted": max(attempted, 1),
                       "failed": max(attempted, 1), "metrics": {}})


def main():
    args = parse_args()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("perfbench: could not build the benchmark", file=sys.stderr)
        return 2

    cmd = [os.path.join(target_dir, "release", "pmcts-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", command_output(["git", "rev-parse", "HEAD"]) or "unknown",
           "--rustc", command_output(["rustc", "--version"]) or "unknown",
           "--source-digest", source_digest()]
    if args.trace:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    state = {"beat": time.monotonic(), "phase": "start", "attempted": 0}
    lock = threading.Lock()

    def pump_stdout():
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()

    def pump_stderr():
        for line in proc.stderr:
            if line.startswith("@progress "):
                parts = line.split()
                with lock:
                    state["beat"] = time.monotonic()
                    state["phase"] = parts[1] if len(parts) > 1 else "?"
                    if len(parts) > 2 and parts[2].isdigit():
                        state["attempted"] = int(parts[2])
            else:
                sys.stderr.write(line)

    pumps = [threading.Thread(target=pump_stdout), threading.Thread(target=pump_stderr)]
    for t in pumps:
        t.start()
    stalled = None
    while proc.poll() is None:
        time.sleep(0.2)
        with lock:
            quiet = time.monotonic() - state["beat"]
            phase, attempted = state["phase"], state["attempted"]
        if quiet > STALL_S or time.monotonic() - start > DEADLINE_S:
            stalled = f"no progress for {quiet:.0f} s in phase '{phase}'"
            proc.kill()
            proc.wait()
    for t in pumps:
        t.join()
    if stalled is not None:
        print(f"perfbench: watchdog: workload {args.workload} failed: {stalled}", file=sys.stderr)
        print(fail_result(attempted), flush=True)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
