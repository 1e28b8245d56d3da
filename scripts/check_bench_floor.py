#!/usr/bin/env python3
"""Throughput floor for the kernel microbenches.

    scripts/check_bench_floor.py FRESH COMMITTED

FRESH is the JSON a bench run just wrote; COMMITTED is the checked-in
file of the same bench (BENCH_survival.json or BENCH_sim.json). The
compared value is the m = 16 row:

  * survival_kernel: exact-mode `sets_per_sec`;
  * sim_engine: `trials_per_sec` of the crash-trial loop.

Fails (exit 1) when the fresh value is below a quarter of the committed
one. A quarter sits below the run-to-run spread of shared runners and
still catches a slide back toward per-set or per-call speeds, which are
one to two orders of magnitude slower.
"""
import json
import sys

FLOOR = 0.25

# bench name -> (mode of the compared m = 16 row, compared field)
ROWS = {
    "survival_kernel": ("exact", "sets_per_sec"),
    "sim_engine": ("trials", "trials_per_sec"),
}


def m16_value(path):
    with open(path) as f:
        doc = json.load(f)
    bench = doc.get("bench")
    if bench not in ROWS:
        sys.exit(f"{path}: unknown bench {bench!r}")
    mode, field = ROWS[bench]
    rows = [r for r in doc.get("results", []) if r.get("m") == 16 and r.get("mode") == mode]
    if len(rows) != 1 or not isinstance(rows[0].get(field), (int, float)):
        sys.exit(f"{path}: expected one m=16 row with a numeric {field}")
    return bench, field, float(rows[0][field])


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: scripts/check_bench_floor.py FRESH COMMITTED")
    fresh_bench, field, fresh = m16_value(argv[1])
    committed_bench, _, committed = m16_value(argv[2])
    if fresh_bench != committed_bench:
        sys.exit(f"bench mismatch: {fresh_bench} vs {committed_bench}")
    floor = FLOOR * committed
    verdict = "ok" if fresh >= floor else "BELOW FLOOR"
    print(f"{fresh_bench} m=16 {field}: fresh {fresh:.6g}, committed {committed:.6g}, "
          f"floor {floor:.6g} ({FLOOR:g}x) -> {verdict}")
    return 0 if fresh >= floor else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
