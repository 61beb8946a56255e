#!/usr/bin/env python3
"""Paired A/B of hostbench between a parent revision and this checkout.

    tools/ab_pairs.py --parent=REV --pairs=N --seconds=S --seed=K \\
        [--workload=W] [--trace=0|1] [--scratch=DIR] [--record=FILE]
    tools/ab_pairs.py --selftest

Exports REV (`git archive`) into a scratch directory, then runs
`hostbench/run.py` N times on each side, alternating which side of a pair
runs first, so slow drift of the host lands on both sides alike. hostbench
is driven from outside and each side runs its own copy, so nothing under
hostbench/ changes. The parent's build lives in its export; this checkout's
in its own .bench_build/.

Prints every pair, then per metric the two medians, the parent's
interquartile range, the median ratio and how many pairs the change won,
and two verdicts against BENCHMARK.json's rules:

  - bound: an end-to-end metric whose change median is worse than the
    parent median by more than the metric's relative bound; unresolved when
    the parent's IQR is wider than that bound, unless every change run
    beats every parent run;
  - claim: the change is better on at least 9 in 10 of the pairs, and its
    median beats the parent median by more than the parent's IQR.

A run that fails an operation counts against the side it ran on. Quartiles
are linearly interpolated (statistics.quantiles, method="inclusive").

--record=FILE appends the run as one JSON line (schema besync.ab_pairs.v1)
to FILE, e.g. HOSTBENCH_TRAJECTORY.jsonl: the change's revision (the HEAD
commit, flagged dirty when the checkout has uncommitted edits) and the
parent's, the workload, seed and seconds, hostbench's host and build
fingerprint, every pair's metric values, and per metric both medians, the
parent's IQR and the win count.

Stdlib only. --selftest checks the verdict arithmetic and the record
round trip on canned numbers and exits nonzero on a regression (CI hook).

Exit codes: 0 ok (even if a verdict fails: the verdicts are a report),
1 a failed build, run or export, 2 usage error.
"""

import argparse
import ast
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("update_heavy", "tree_fanout", "read_invalidate")
CLAIM_WIN_SHARE = 0.9
RECORD_SCHEMA = "besync.ab_pairs.v1"
# hostbench/run.py's fingerprint line, e.g.
#   host: nproc=2 cpu='Xeon' kernel='6.1' compiler='GNU 12.2' build=Release optimized=True
HOST_FIELD = re.compile(r"(\w+)=('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\S+)")
HOST_KEYS = ("nproc", "cpu", "kernel")
BUILD_KEYS = ("compiler", "build", "optimized")


def fail(message):
    print("ab_pairs: " + message, file=sys.stderr)
    sys.exit(1)


def load_rules(root):
    """{metric name: (better, bound or None)} from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rules = {}
    for entry in spec["end_to_end"]:
        rules[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec["per_layer"]:
        rules[entry["name"]] = (entry["better"], None)
    return rules


def quartiles(values):
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(direction, change, parent):
    return change > parent if direction == "higher" else change < parent


def summarize(name, direction, bound, parent, change):
    """Verdict of one metric over paired runs: parent[i] and change[i] come
    from pair i."""
    assert len(parent) == len(change) and parent
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if better(direction, c, p))
    gain = change_median - parent_median if direction == "higher" else \
        parent_median - change_median
    claim = wins >= math.ceil(CLAIM_WIN_SHARE * len(parent)) and gain > iqr
    bound_ok = resolved = True
    if bound is not None:
        if direction == "higher":
            bound_ok = change_median >= parent_median * (1.0 - bound)
        else:
            bound_ok = change_median <= parent_median * (1.0 + bound)
        resolved = iqr <= bound * abs(parent_median) or all(
            better(direction, c, p) for c in change for p in parent)
    return {
        "name": name, "better": direction, "pairs": len(parent),
        "parent_median": parent_median, "change_median": change_median,
        "parent_iqr": iqr,
        "ratio": change_median / parent_median if parent_median else float("nan"),
        "wins": wins, "claim": claim, "bound": bound, "bound_ok": bound_ok,
        "resolved": resolved,
    }


def report(rules, pairs):
    """Prints the per-metric table; `pairs` is a list of (parent, change)
    run results. Returns the summaries."""
    failed = [sum(1 for pair in pairs if not pair[side]["correct"]) for side in (0, 1)]
    print("failed runs: parent %d / %d, change %d / %d%s" % (
        failed[0], len(pairs), failed[1], len(pairs),
        "  (CHANGE FAILS MORE)" if failed[1] > failed[0] else ""))
    good = [pair for pair in pairs if pair[0]["correct"] and pair[1]["correct"]]
    if not good:
        print("no pair where both runs were correct")
        return []
    pairs = good
    names = [name for name in pairs[0][0]["metrics"]
             if all(name in side["metrics"] for pair in pairs for side in pair)]
    summaries = []
    print("%-28s %12s %12s %10s %7s %6s  %s" % (
        "metric", "parent_med", "change_med", "parent_iqr", "ratio", "wins", "verdict"))
    for name in names:
        direction, bound = rules.get(name, ("higher", None))
        summary = summarize(name, direction, bound,
                            [pair[0]["metrics"][name]["value"] for pair in pairs],
                            [pair[1]["metrics"][name]["value"] for pair in pairs])
        verdict = "claim holds" if summary["claim"] else "no claim"
        if bound is not None:
            verdict += ", within bound %g" % bound if summary["bound_ok"] else \
                ", WORSE THAN BOUND %g" % bound
            if not summary["resolved"]:
                verdict += ", UNRESOLVED (parent IQR wider than the bound)"
        print("%-28s %12.6g %12.6g %10.4g %7.3f %3d/%-2d  %s" % (
            name, summary["parent_median"], summary["change_median"],
            summary["parent_iqr"], summary["ratio"], summary["wins"],
            summary["pairs"], verdict))
        summaries.append(summary)
    return summaries


def export_parent(rev, scratch):
    """Exports `rev` into scratch/parent-<sha>; reuses an earlier export."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         stdout=subprocess.PIPE, universal_newlines=True)
    if sha.returncode != 0:
        fail("unknown revision %r" % rev)
    target = os.path.join(scratch, "parent-" + sha.stdout.strip()[:12])
    if os.path.isfile(os.path.join(target, "hostbench", "run.py")):
        return target
    os.makedirs(target, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha.stdout.strip()],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("could not export %s into %s" % (rev, target))
    return target


def parse_fingerprint(stdout):
    """{field: value} of run.py's `host:` line; {} when it printed none."""
    for line in stdout.splitlines():
        if line.startswith("host: "):
            fields = {}
            for key, raw in HOST_FIELD.findall(line[len("host: "):]):
                fields[key] = ast.literal_eval(raw) if raw[0] in "'\"" else raw
            return fields
    return {}


def run_side(checkout, args):
    """One hostbench run in `checkout`; returns its result JSON, with the
    host line's fields under "fingerprint"."""
    command = [sys.executable, os.path.join(checkout, "hostbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          universal_newlines=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        # A failed build or a usage error prints no result line.
        fail("no result from %s (exit %d)" % (" ".join(command), done.returncode))
    if done.returncode not in (0, 1) or (done.returncode == 1 and result["correct"]):
        fail("%s exited with code %d" % (" ".join(command), done.returncode))
    result["fingerprint"] = parse_fingerprint(done.stdout)
    return result


def headline(result):
    metrics = result["metrics"]
    names = [name for name in ("sim_s_per_s", "sim.run_phase_s") if name in metrics]
    if not names:
        return "failed"
    name = names[0]
    return "%s=%.6g" % (name, metrics[name]["value"])


def git(*args):
    """Stdout of a git command in this checkout, stripped; fails loudly."""
    done = subprocess.run(["git", "-C", ROOT] + list(args), stdout=subprocess.PIPE,
                          universal_newlines=True)
    if done.returncode != 0:
        fail("git %s failed" % " ".join(args))
    return done.stdout.strip()


def make_record(meta, pairs, summaries):
    """One trajectory row. `meta` holds revision, dirty, parent, workload,
    seed, seconds and trace; `pairs` the (parent, change) run results in
    pair order (pair i ran the parent first when i is even)."""
    fingerprint = pairs[0][1].get("fingerprint", {})
    side = lambda run: {"correct": run["correct"], "metrics": {
        name: metric["value"] for name, metric in run["metrics"].items()}}
    row = dict(meta)
    row["schema"] = RECORD_SCHEMA
    row["host"] = {key: fingerprint[key] for key in HOST_KEYS if key in fingerprint}
    row["build"] = {key: fingerprint[key] for key in BUILD_KEYS if key in fingerprint}
    row["pairs"] = [{"first": "parent" if i % 2 == 0 else "change",
                     "parent": side(pair[0]), "change": side(pair[1])}
                    for i, pair in enumerate(pairs)]
    row["metrics"] = {s["name"]: {key: s[key] for key in (
        "better", "parent_median", "change_median", "parent_iqr", "wins", "pairs")}
        for s in summaries}
    return row


def append_record(path, row):
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def selftest():
    rules = {"sim_s_per_s": ("higher", 0.25), "peak_rss_mb": ("lower", 0.05)}

    def check(condition, what):
        if not condition:
            print("selftest FAILED: " + what, file=sys.stderr)
            sys.exit(1)

    # A clear gain: 10/10 wins, median gain far above the parent IQR.
    parent = [23.0, 23.5, 22.9, 23.7, 23.1, 23.4, 23.2, 23.6, 23.0, 23.3]
    change = [33.1, 34.0, 32.5, 35.2, 33.8, 33.0, 34.4, 33.9, 32.9, 34.1]
    s = summarize("sim_s_per_s", "higher", 0.25, parent, change)
    check(s["wins"] == 10 and s["claim"] and s["bound_ok"], "clear gain")
    check(abs(s["parent_median"] - 23.25) < 1e-12, "parent median")
    check(abs(s["parent_iqr"] - 0.45) < 1e-12, "parent IQR (inclusive quartiles)")
    # 8 of 10 wins is short of the 9-in-10 rule whatever the medians say.
    mixed = list(change)
    mixed[0], mixed[1] = 22.0, 22.0
    check(not summarize("sim_s_per_s", "higher", 0.25, parent, mixed)["claim"],
          "8/10 wins claims")
    # 10/10 wins by a hair: the median gain is inside the parent IQR.
    hair = [p + 0.01 for p in parent]
    s = summarize("sim_s_per_s", "higher", 0.25, parent, hair)
    check(s["wins"] == 10 and not s["claim"], "gain inside the IQR claims")
    # A 30% slowdown breaks the 0.25 bound; a 20% one does not.
    check(not summarize("sim_s_per_s", "higher", 0.25, parent,
                        [p * 0.7 for p in parent])["bound_ok"], "30% slowdown")
    check(summarize("sim_s_per_s", "higher", 0.25, parent,
                    [p * 0.8 for p in parent])["bound_ok"], "20% slowdown")
    # Lower-is-better: +6% RSS breaks a 5% bound, -1% claims nothing.
    rss = [92.4, 92.5, 92.4, 92.6, 92.4]
    check(not summarize("peak_rss_mb", "lower", 0.05, rss,
                        [r * 1.06 for r in rss])["bound_ok"], "RSS +6%")
    s = summarize("peak_rss_mb", "lower", 0.05, rss, [r * 0.99 for r in rss])
    check(s["bound_ok"] and s["wins"] == 5, "RSS -1%")
    # A parent spread wider than the bound leaves the verdict unresolved,
    # unless every change run beats every parent run.
    wide = [20.0, 30.0, 20.0, 30.0, 20.0, 30.0]
    check(not summarize("sim_s_per_s", "higher", 0.25, wide,
                        [25.0] * 6)["resolved"], "wide spread resolved")
    check(summarize("sim_s_per_s", "higher", 0.25, wide, [31.0] * 6)["resolved"],
          "every change run better, unresolved")
    check(summarize("sim_s_per_s", "higher", 0.25, parent, change)["resolved"],
          "narrow spread unresolved")
    # report(): metrics present on every run only, failures counted per side.
    run = lambda value, ok=True: {"correct": ok, "metrics": {
        "sim_s_per_s": {"value": value, "unit": "sim_s/s"}}}
    summaries = report(rules, [(run(p), run(c)) for p, c in zip(parent, change)])
    check([x["name"] for x in summaries] == ["sim_s_per_s"], "report metrics")
    # A failed run drops its pair from the medians, not the whole report.
    runs = [(run(p), run(c)) for p, c in zip(parent, change)]
    runs[3] = (runs[3][0], {"correct": False, "metrics": {}})
    summaries = report(rules, runs)
    check(len(summaries) == 1 and summaries[0]["pairs"] == 9, "failed pair dropped")
    # The host line parses, quoted fields included.
    fields = parse_fingerprint("build ok\nhost: nproc=2 cpu='Xeon @ 2.2GHz' "
                               "kernel='6.1.0' compiler='GNU 12.2.0' build=Release "
                               "optimized=True\n")
    check(fields == {"nproc": "2", "cpu": "Xeon @ 2.2GHz", "kernel": "6.1.0",
                     "compiler": "GNU 12.2.0", "build": "Release",
                     "optimized": "True"}, "host line fields")
    # A canned row survives the file round trip and carries every pair.
    runs = [(run(p), dict(run(c), fingerprint=fields)) for p, c in zip(parent, change)]
    meta = {"revision": "a" * 40, "dirty": False, "parent": "b" * 40,
            "workload": "tree_fanout", "seed": 7, "seconds": 30, "trace": 0}
    row = make_record(meta, runs, report(rules, runs))
    scratch = tempfile.mkdtemp(prefix="ab_pairs-selftest-")
    try:
        path = os.path.join(scratch, "trajectory.jsonl")
        append_record(path, row)
        append_record(path, row)
        with open(path) as handle:
            lines = handle.read().splitlines()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check(len(lines) == 2 and all(json.loads(line) == row for line in lines),
          "record round trip")
    check(row["host"] == {"nproc": "2", "cpu": "Xeon @ 2.2GHz", "kernel": "6.1.0"} and
          row["build"] == {"compiler": "GNU 12.2.0", "build": "Release",
                           "optimized": "True"}, "record fingerprint")
    check(len(row["pairs"]) == 10 and row["pairs"][1]["first"] == "change" and
          row["pairs"][3]["change"]["metrics"]["sim_s_per_s"] == change[3],
          "record pairs")
    metric = row["metrics"]["sim_s_per_s"]
    check(metric["wins"] == 10 and abs(metric["parent_iqr"] - 0.45) < 1e-12 and
          abs(metric["parent_median"] - 23.25) < 1e-12, "record summary")
    print("selftest ok")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Paired hostbench A/B against a parent revision.",
        allow_abbrev=False)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--parent")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workload", default="update_heavy", choices=WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scratch",
                        help="where the parent export and its build go; "
                             "default: a new temporary directory, removed after")
    parser.add_argument("--record", metavar="FILE",
                        help="append the run as one JSON line to FILE")
    args = parser.parse_args(argv)
    if not args.selftest:
        missing = [flag for flag in ("parent", "pairs", "seconds", "seed")
                   if getattr(args, flag) is None]
        if missing:
            parser.error("missing --" + ", --".join(missing))
        if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
            parser.error("--pairs and --seconds must be >= 1, --seed >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    if args.selftest:
        return selftest()
    owned = args.scratch is None
    scratch = tempfile.mkdtemp(prefix="ab_pairs-") if owned else args.scratch
    try:
        meta = {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain")),
                "parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace}
        parent = export_parent(args.parent, scratch)
        rules = load_rules(ROOT)
        print("parent: %s (%s)  change: %s" % (args.parent, parent, ROOT))
        print("workload %s seed %d, %d s per run, trace %d" % (
            args.workload, args.seed, args.seconds, args.trace))
        pairs = []
        for i in range(args.pairs):
            parent_first = i % 2 == 0
            order = (parent, ROOT) if parent_first else (ROOT, parent)
            results = {checkout: run_side(checkout, args) for checkout in order}
            pair = (results[parent], results[ROOT])
            pairs.append(pair)
            print("pair %2d (%s first): parent %s  change %s" % (
                i + 1, "parent" if parent_first else "change",
                headline(pair[0]), headline(pair[1])), flush=True)
        summaries = report(rules, pairs)
        if args.record:
            append_record(args.record, make_record(meta, pairs, summaries))
            print("recorded in %s" % args.record)
    finally:
        if owned:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
