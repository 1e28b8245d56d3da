#!/usr/bin/env python3
"""Throughput floors, latency ceilings and pinned outcomes for the
committed bench JSONs.

    scripts/check_bench_floor.py FRESH COMMITTED

FRESH is the JSON a bench run just wrote; COMMITTED is the checked-in
file of the same bench (BENCH_survival.json, BENCH_sim.json,
BENCH_schedulers.json, BENCH_churn.json or BENCH_perfbench.json). The
compared rows:

  * survival_kernel: the m = 16 and m = 8 exact-mode `sets_per_sec` (the
    m = 8 tree's levels hold at most 70 rows, so its passes are mostly
    batches of at most 64, which take the one-word pass), the `cold_prob` and `low_p` m = 32 probabilistic-repair
    `repairs_per_sec`, the `cold_count` count-repair `rounds_per_sec`, and
    the `first_call` estimate and repair rates on platforms the process
    has not seen (which pay the one-time failure-set tree build the
    memo-warm rows skip); and the
    outcome of every repair row, which must equal the committed one
    exactly: `rounds`, `added_comms` and `achieved` of the `low_p` and
    `cold_prob` probabilistic repairs, `rounds` and `added_comms` of the
    `cold_count` count repair;
  * sim_engine: the m = 16 `trials_per_sec` of the crash-trial loop;
  * schedulers: the `schedules_per_sec` of LTF and of R-LTF on the cold
    `count:eps=2` shape, and each row's `digest` of every schedule's
    fingerprint and escalation factor, which must equal the committed one
    exactly;
  * churn: the outcome of the seeded churn replay, which must equal the
    committed one exactly: its digest and its degraded-probe, rebuild,
    re-heal, event-repair and verify-failure counts;
  * perfbench: the `latency_p50_us` of every service workload, the
    `server_cpu_us_per_op` of the two hit workloads and the
    `server_rss_mb` of every workload, one row per workload holding the
    metrics of its perfbench result line.

Fails (exit 1) when any fresh throughput is below a quarter of the
committed one, any fresh latency or per-request server CPU is above four
times the committed one, any fresh server RSS is above 1.1 times the
committed one, or any pinned outcome field differs. A factor of four sits beyond the
run-to-run spread of shared runners and still catches a slide back
toward per-set or per-call speeds, which are one to two orders of
magnitude slower. Server RSS is set by what the server caches, not by
the runner's speed: three runs of one build spread by under 2%, so its
factor is tight enough to catch a placement that holds a fifth more
memory. The repairs, the schedules and the churn replay are
deterministic, so any difference is a changed outcome.
"""
import json
import sys

FLOOR = 0.25
CEILING = 4.0
RSS_CEILING = 1.1

# bench name -> compared rows: (label, fields a row must match, compared field)
ROWS = {
    "survival_kernel": [
        ("m=16 exact", {"m": 16, "mode": "exact"}, "sets_per_sec"),
        ("m=8 exact", {"m": 8, "mode": "exact"}, "sets_per_sec"),
        ("cold_prob repair", {"mode": "repair", "shape": "cold_prob"}, "repairs_per_sec"),
        ("low_p m=32 repair", {"m": 32, "mode": "repair", "shape": "low_p"}, "repairs_per_sec"),
        ("cold_count repair", {"mode": "repair", "shape": "cold_count"}, "rounds_per_sec"),
        ("first_call estimate", {"mode": "first_call"}, "estimates_per_sec"),
        ("first_call repair", {"mode": "first_call"}, "repairs_per_sec"),
    ],
    "sim_engine": [
        ("m=16 trials", {"m": 16, "mode": "trials"}, "trials_per_sec"),
    ],
    "schedulers": [
        ("ltf cold_count", {"algo": "ltf", "shape": "cold_count"}, "schedules_per_sec"),
        ("rltf cold_count", {"algo": "rltf", "shape": "cold_count"}, "schedules_per_sec"),
    ],
}

# bench name -> compared rows whose fresh value may not exceed factor x the
# committed one: (label, fields a row must match, compared field, factor)
PERFBENCH_WORKLOADS = ("hit_small", "hit_large", "cold_count", "cold_prob")
CEILINGS = {
    "perfbench": [(w, {"workload": w}, "latency_p50_us", CEILING) for w in PERFBENCH_WORKLOADS]
                 + [(w, {"workload": w}, "server_cpu_us_per_op", CEILING)
                    for w in ("hit_small", "hit_large")]
                 + [(w, {"workload": w}, "server_rss_mb", RSS_CEILING)
                    for w in PERFBENCH_WORKLOADS],
}

# bench name -> exact rows: (label, fields a row must match, fields that must be equal)
EXACT = {
    "survival_kernel": [
        ("low_p m=16 repair", {"m": 16, "mode": "repair", "shape": "low_p"},
         ("rounds", "added_comms", "achieved")),
        ("low_p m=32 repair", {"m": 32, "mode": "repair", "shape": "low_p"},
         ("rounds", "added_comms", "achieved")),
        ("cold_prob repair", {"mode": "repair", "shape": "cold_prob"},
         ("rounds", "added_comms", "achieved")),
        ("cold_count repair", {"mode": "repair", "shape": "cold_count"},
         ("rounds", "added_comms")),
    ],
    "schedulers": [
        ("ltf cold_count", {"algo": "ltf", "shape": "cold_count"}, ("digest",)),
        ("rltf cold_count", {"algo": "rltf", "shape": "cold_count"}, ("digest",)),
    ],
    "churn": [
        ("replay", {}, ("digest", "degraded_probes", "rebuilds", "reheals", "event_repairs",
                        "verify_failures")),
    ],
}


def compared_values(path):
    """Returns (bench, floored, ceiled, exact): [(label, field, value), ...]
    for the rows ROWS, CEILINGS and EXACT name."""
    with open(path) as f:
        doc = json.load(f)
    bench = doc.get("bench")
    if bench not in ROWS and bench not in CEILINGS and bench not in EXACT:
        sys.exit(f"{path}: unknown bench {bench!r}")

    def row(label, match):
        rows = [r for r in doc.get("results", [])
                if all(r.get(k) == v for k, v in match.items())]
        if len(rows) != 1:
            sys.exit(f"{path}: expected one {label} row")
        return rows[0]

    def numbers(table):
        values = []
        for label, match, field, *factor in table.get(bench, []):
            value = row(label, match).get(field)
            if not isinstance(value, (int, float)):
                sys.exit(f"{path}: expected one {label} row with a numeric {field}")
            values.append((label, field, float(value), *factor))
        return values

    exact = []
    for label, match, fields in EXACT.get(bench, []):
        r = row(label, match)
        for field in fields:
            if field not in r:
                sys.exit(f"{path}: expected a {field} field in the {label} row")
            exact.append((label, field, r[field]))
    return bench, numbers(ROWS), numbers(CEILINGS), exact


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: scripts/check_bench_floor.py FRESH COMMITTED")
    fresh_bench, fresh_values, fresh_ceiled, fresh_exact = compared_values(argv[1])
    committed_bench, committed_values, committed_ceiled, committed_exact = \
        compared_values(argv[2])
    if fresh_bench != committed_bench:
        sys.exit(f"bench mismatch: {fresh_bench} vs {committed_bench}")
    ok = True
    for (label, field, fresh), (_, _, committed) in zip(fresh_values, committed_values):
        floor = FLOOR * committed
        verdict = "ok" if fresh >= floor else "BELOW FLOOR"
        ok = ok and fresh >= floor
        print(f"{fresh_bench} {label} {field}: fresh {fresh:.6g}, committed {committed:.6g}, "
              f"floor {floor:.6g} ({FLOOR:g}x) -> {verdict}")
    for (label, field, fresh, factor), (_, _, committed, _) in zip(fresh_ceiled,
                                                                   committed_ceiled):
        ceiling = factor * committed
        verdict = "ok" if fresh <= ceiling else "ABOVE CEILING"
        ok = ok and fresh <= ceiling
        print(f"{fresh_bench} {label} {field}: fresh {fresh:.6g}, committed {committed:.6g}, "
              f"ceiling {ceiling:.6g} ({factor:g}x) -> {verdict}")
    for (label, field, fresh), (_, _, committed) in zip(fresh_exact, committed_exact):
        verdict = "ok" if fresh == committed else "CHANGED"
        ok = ok and fresh == committed
        print(f"{fresh_bench} {label} {field}: fresh {fresh}, committed {committed} -> {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
