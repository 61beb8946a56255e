#!/usr/bin/env python3
"""Records the bench trajectory baselines (BENCH_protocol.json,
BENCH_readpath.json, BENCH_scale.json, BENCH_fault.json).

Runs the benches of each baseline profile from a build directory with
--json, validates each output against the besync.run_results.v1 schema,
and writes the combined, schema-stamped baseline at the repo root. The
bench JSON deliberately excludes timings (exp/runner.h; wall-clock
measurement lives in hostbench/), so each baseline is a deterministic
function of the bench configs — reruns on an unchanged tree produce
identical bytes, and any diff in a change is a real behavioral change in
the recorded grids. --check rejects a baseline that carries a "perf"
timing member.

Usage:
  tools/record_bench.py [--build-dir build]          # record all baselines
  tools/record_bench.py --out BENCH_scale.json       # record one baseline
  tools/record_bench.py --check   # validate the committed baselines only

--check additionally enforces the bench_scale layout: at least two
distinct points, each recorded exactly once.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_RESULTS_SCHEMA = "besync.run_results.v1"
BASELINE_SCHEMA = "besync.bench_baseline.v1"

# One entry per committed baseline file: {bench binary: extra args}.
# Default scales keep each recording under a minute on one core —
# BENCH_scale.json records the bench_scale default (small) grid, not the
# --full 1M-object trajectory.
PROFILES = {
    "BENCH_protocol.json": {
        "bench_protocol": [],
    },
    "BENCH_readpath.json": {
        "bench_readpath": [],
        "bench_multicache": [],
    },
    "BENCH_scale.json": {
        "bench_scale": [],
    },
    "BENCH_fault.json": {
        "bench_fault": [],
    },
}

# Fields every run_results row must carry (exp/runner.h).
REQUIRED_RESULT_KEYS = {
    "name", "scheduler", "policy", "metric", "num_caches",
    "cache_bandwidth_avg", "source_bandwidth_avg", "loss_rate",
    "workload_seed", "ok", "error", "total_weighted_divergence",
    "per_cache_weighted", "per_object_weighted", "per_object_unweighted",
    "total_replicas", "refreshes_sent", "refreshes_delivered",
    "feedback_sent", "polls_sent", "cache_utilization",
}
# Fields read-enabled rows additionally carry.
READ_RESULT_KEYS = {
    "read_rate", "capacity", "eviction", "reads_total", "read_hits",
    "read_misses", "hit_rate", "pull_requests_sent", "pulls_delivered",
    "cache_evictions", "read_staleness_mean", "read_staleness_p50",
    "read_staleness_p95", "read_staleness_p99", "read_miss_latency_mean",
    "pull_bandwidth_share",
}
# Fields non-push-refresh consistency-protocol rows additionally carry.
PROTOCOL_RESULT_KEYS = {
    "protocol", "ttl", "invalidate_batch", "invalidations_sent",
    "invalidations_received",
}
# Fields fault-injected rows additionally carry.
FAULT_RESULT_KEYS = {
    "recovery_policy", "relay_store_policy", "cache_crashes",
    "cache_restarts", "relay_failures", "link_down_events",
    "slowdown_events", "crash_dropped_pulls", "resync_deliveries",
    "resync_pending", "time_to_resync_mean", "time_to_resync_p95",
}


def fail(message):
    print(f"record_bench: {message}", file=sys.stderr)
    sys.exit(1)


def validate_run_results(doc, context):
    if doc.get("schema") != RUN_RESULTS_SCHEMA:
        fail(f"{context}: schema is {doc.get('schema')!r}, "
             f"expected {RUN_RESULTS_SCHEMA!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{context}: empty or missing results array")
    for i, row in enumerate(results):
        missing = REQUIRED_RESULT_KEYS - row.keys()
        if missing:
            fail(f"{context}: result {i} missing keys {sorted(missing)}")
        if not row["ok"]:
            fail(f"{context}: result {i} ({row['name']!r}) failed: "
                 f"{row['error']!r}")
        extra_read = row.keys() & READ_RESULT_KEYS
        if extra_read and extra_read != READ_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial read-field set "
                 f"{sorted(extra_read)}")
        extra_protocol = row.keys() & PROTOCOL_RESULT_KEYS
        if extra_protocol and extra_protocol != PROTOCOL_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial protocol-field "
                 f"set {sorted(extra_protocol)}")
        extra_fault = row.keys() & FAULT_RESULT_KEYS
        if extra_fault and extra_fault != FAULT_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial fault-field set "
                 f"{sorted(extra_fault)}")


def parse_point_name(name):
    """'proto=invalidation,rate=4,bw=12,tiers=0' -> dict of the axes."""
    point = {}
    for part in name.split(","):
        key, _, value = part.partition("=")
        point[key] = value
    return point


def check_protocol_crossover(results, context):
    """The acceptance bar for BENCH_protocol.json: on at least one recorded
    metric (total divergence or read-staleness p95) invalidation must beat
    push refresh in some regime AND lose to it in some other regime — a real
    crossover, not uniform dominance."""
    regimes = {}
    for row in results:
        point = parse_point_name(row["name"])
        regime = (point.get("rate"), point.get("bw"), point.get("tiers"))
        regimes.setdefault(regime, {})[
            point.get("proto", "push-refresh")] = row
    for metric in ("total_weighted_divergence", "read_staleness_p95"):
        inval_wins = push_wins = False
        for competitors in regimes.values():
            push = competitors.get("push-refresh")
            inval = competitors.get("invalidation")
            if push is None or inval is None:
                continue
            if inval[metric] < push[metric]:
                inval_wins = True
            if push[metric] < inval[metric]:
                push_wins = True
        if inval_wins and push_wins:
            return
    fail(f"{context}: no protocol crossover — neither total divergence nor "
         f"read-staleness p95 has regimes won by both push refresh and "
         f"invalidation")


def check_fault_recovery(results, context):
    """The acceptance bar for BENCH_fault.json: in at least one crashed
    regime the recovery-priority policy must finish resyncing faster than
    naive re-enqueueing (an unfinished resync counts as infinitely slow)
    WITHOUT giving up warm-cache freshness — the summed divergence of the
    never-crashed caches stays within a hair of naive's."""

    def warm_divergence(row):
        return sum(row["per_cache_weighted"][1:])

    def resync_key(row):
        if row["resync_pending"] > 0:
            return float("inf")
        return row["time_to_resync_p95"]

    regimes = {}
    for row in results:
        point = parse_point_name(row["name"])
        if int(point.get("crashes", "0")) == 0:
            continue
        regime = (point["crashes"], point.get("proto"), point.get("tiers"))
        regimes.setdefault(regime, {})[point.get("policy")] = row
    for competitors in regimes.values():
        naive = competitors.get("naive")
        priority = competitors.get("priority")
        if naive is None or priority is None:
            continue
        if (resync_key(priority) < resync_key(naive)
                and warm_divergence(priority)
                <= warm_divergence(naive) * 1.001):
            return
    fail(f"{context}: no regime where recovery-priority beats naive on "
         f"time-to-resync p95 while holding warm-cache divergence")


def check_scale_determinism(results, context):
    """BENCH_scale.json holds one row per recorded point: at least two
    distinct point names, none repeated."""
    names = [row["name"] for row in results]
    if len(set(names)) < 2:
        fail(f"{context}: bench_scale recorded fewer than 2 distinct points")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        fail(f"{context}: scale points {repeated} recorded more than once — "
             f"the baseline holds one row per point")


def validate_baseline(doc, context, profile):
    if doc.get("schema") != BASELINE_SCHEMA:
        fail(f"{context}: schema is {doc.get('schema')!r}, "
             f"expected {BASELINE_SCHEMA!r}")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        fail(f"{context}: empty or missing benches object")
    missing = PROFILES[profile].keys() - benches.keys()
    if missing:
        fail(f"{context}: missing bench entries {sorted(missing)}")
    for name, results_doc in benches.items():
        validate_run_results(results_doc, f"{context}: bench {name!r}")
    if profile == "BENCH_readpath.json":
        # bench_readpath is the point of this baseline: require read rows.
        readpath = benches["bench_readpath"]
        if not any("hit_rate" in row for row in readpath["results"]):
            fail(f"{context}: bench_readpath recorded no read-enabled rows")
    if profile == "BENCH_protocol.json":
        # The point of this baseline is the crossover: every protocol row is
        # read-enabled, and the push-vs-invalidation comparison must flip
        # somewhere in the recorded grid.
        protocol = benches["bench_protocol"]
        if not any("protocol" in row for row in protocol["results"]):
            fail(f"{context}: bench_protocol recorded no protocol rows")
        check_protocol_crossover(protocol["results"], context)
    if profile == "BENCH_scale.json":
        # The recorded grid must stay a trajectory, not a single point, and
        # must never carry the nondeterministic perf member.
        scale = benches["bench_scale"]
        if len(scale["results"]) < 2:
            fail(f"{context}: bench_scale recorded fewer than 2 points")
        if "perf" in scale:
            fail(f"{context}: bench_scale recorded a perf member — "
                 f"baselines must be timing-free")
        check_scale_determinism(scale["results"], context)
    if profile == "BENCH_fault.json":
        # The point of this baseline is the recovery crossover: every row
        # is fault-injected, and the dedicated recovery channel must earn
        # its keep somewhere in the recorded grid.
        fault = benches["bench_fault"]
        if not any("recovery_policy" in row for row in fault["results"]):
            fail(f"{context}: bench_fault recorded no fault rows")
        check_fault_recovery(fault["results"], context)


def run_bench(build_dir, name, extra_args):
    binary = os.path.join(build_dir, name)
    if not os.path.exists(binary):
        fail(f"{binary} not found — build the tree first "
             f"(cmake -B {build_dir} -S . && cmake --build {build_dir} -j)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    try:
        command = [binary, f"--json={json_path}"] + extra_args
        result = subprocess.run(command, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            fail(f"{name} exited {result.returncode}:\n{result.stderr}")
        with open(json_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(json_path)
    validate_run_results(doc, name)
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="build directory holding the bench binaries")
    parser.add_argument("--out", default=None, choices=sorted(PROFILES),
                        help="record only this baseline (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed baselines and exit "
                             "(no benches are run)")
    args = parser.parse_args()

    profiles = [args.out] if args.out else sorted(PROFILES)
    if args.check:
        for profile in profiles:
            out_path = os.path.join(REPO_ROOT, profile)
            if not os.path.exists(out_path):
                fail(f"{out_path} does not exist; run tools/record_bench.py "
                     f"to record it")
            with open(out_path) as f:
                try:
                    doc = json.load(f)
                except json.JSONDecodeError as error:
                    fail(f"{out_path} is not valid JSON: {error}")
            validate_baseline(doc, profile, profile)
            print(f"record_bench: {profile} OK "
                  f"({sum(len(b['results']) for b in doc['benches'].values())} "
                  f"recorded rows)")
        return

    build_dir = args.build_dir if os.path.isabs(args.build_dir) \
        else os.path.join(REPO_ROOT, args.build_dir)
    for profile in profiles:
        baseline = {
            "schema": BASELINE_SCHEMA,
            "benches": {name: run_bench(build_dir, name, extra)
                        for name, extra in sorted(PROFILES[profile].items())},
        }
        validate_baseline(baseline, "recorded baseline", profile)
        # Sorted keys + fixed separators: the bytes depend only on results.
        with open(os.path.join(REPO_ROOT, profile), "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"record_bench: wrote {profile}")


if __name__ == "__main__":
    main()
