#!/usr/bin/env python3
"""Build the tetriswrite benchmark from source and run one workload.

    python3 twbench/run.py --workload paper_matrix --seed 42 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/twbench when that variable is set,
else to .bench_build/twbench under the repository root; build output goes
to stderr so the benchmark's JSON stays the last line of stdout. The exit
status is the benchmark's own (0 ok, 1 an op failed or the build failed,
2 bad arguments).
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_matrix", "write_storm_8ch", "read_wear_leveled")


def whole(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError("not a whole number: %r" % text)
    return int(text)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "twbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("twbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 allow_abbrev=False)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=whole, default=42)
    ap.add_argument("--seconds", type=whole, default=10)
    ap.add_argument("--trace", type=whole, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the last traced pass's spans as CSV")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 3600:
        ap.error("--seconds must be in [1, 3600]")

    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "twbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", args.spans]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
