#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`) and run with glibc's
allocator thresholds fixed; build output goes to stderr. The benchmark's own output, ending with the one-line JSON
result, goes to stdout. The exit code is the benchmark's, or 1 if the
build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["nic1_rx_irq", "nic6_line", "fleet8_rel"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true", help="tiny simulated windows")
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Fixed allocator thresholds: buffers up to 32 MB (the frame
    # memories) come from the heap, and freed heap is never returned to
    # the kernel. Every system after the first few then reuses memory
    # that must be zeroed. With glibc's adaptive thresholds, whether a
    # build zeroes recycled memory or maps fresh pages depends on
    # allocation history, and set-up time of the same code jumped
    # fivefold between runs.
    tunables = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967295"
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"), tunables]))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "nicsim-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
