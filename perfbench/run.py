#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 perfbench/run.py --workload hit_small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the server and the load
generator from source (Release) into $CARGO_TARGET_DIR, default
.bench_build, then runs one measured run and passes its output through:
its last stdout line is the result object described in perfbench/README.md.
Build output goes to stderr. Exits non-zero when the build fails, when a
check fails, or when the run is interrupted.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hit_small", "hit_large", "cold_count", "cold_prob")


def build(build_dir):
    """Configures (cheap when already configured) and builds both targets."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "streamsched_server", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-bad-fp", action="store_true",
                        help="self-test: expect a wrong fp= for one resident DAG")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 2
    generator = os.path.join(build_dir, "perfbench")
    server = os.path.join(build_dir, "streamsched", "streamsched_server")
    # Relative, so the unix socket path inside it stays under the 107-byte
    # limit however deep the checkout is.
    workdir = os.path.relpath(build_dir)
    cmd = [generator, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--server={server}",
           f"--workdir={workdir}"]
    if args.plant_bad_fp:
        cmd.append("--plant-bad-fp=1")
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
