#!/usr/bin/env python3
"""Self-test of the service benchmark, on a tiny budget.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it builds through run.py). Checks:
  * every workload, untraced and traced, passes its own checks and prints
    exactly the metric names and units BENCHMARK.json declares;
  * a planted wrong fp= expectation fails the run through the per-hit
    fp= check (non-zero exit, "correct": false, failed operations).
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done, result


def expect_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return [f"{what}: missing {missing}, unexpected {extra}, wrong units {wrong}"]
    return []


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            done, result = run(workload, trace)
            if done.returncode != 0 or result is None:
                problems.append(f"{what}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            found = expect_metrics(result, declared, what)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                found.append(f"{what}: checks failed: {result}")
            problems += found
            if not found:
                print(f"ok   {what}: attempted={result['attempted']}")

    done, result = run("hit_small", 0, "--plant-bad-fp")
    if done.returncode == 0 or result is None or result["correct"] or result["failed"] == 0:
        problems.append(f"a planted wrong fp= expectation did not fail the per-hit check: "
                        f"exit {done.returncode}, {result}")
    else:
        print(f"ok   planted wrong fp= fails {result['failed']} hits")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
