#!/usr/bin/env python3
"""Before/after tables for two sets of benchmark runs.

Collect a result set (one directory per commit) from the root of a checkout:

    python3 perfbench/compare.py collect --out /tmp/before --seeds 1-10
    python3 perfbench/compare.py collect --out /tmp/before --seeds 1-10 --trace 1

Each run's standard output is stored as <out>/<workload>.<trace>.<seed>.txt.
Then compare two sets, or print one set's run-to-run spread:

    python3 perfbench/compare.py /tmp/before /tmp/after
    python3 perfbench/compare.py spread /tmp/before

Prints one row per workload and end-to-end metric, and a per-layer table from
the traced runs. Runs of the same workload and seed in both sets form a pair.
A row shows each side's median and quartiles and the share of pairs the
change wins (ties count for neither), with a verdict:

  better      wins >= 9/10 of the pairs and the medians differ by more than
              the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound (end-to-end metrics only)
  unresolved  the run-to-run spread (quartile distance / median) of either
              side exceeds the bound, and not every change run beats every
              parent run (end-to-end metrics only)
  same        none of the above
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench = load_benchmark()
    os.makedirs(args.out, exist_ok=True)
    # Every workload, for the benchmark's own run length, so that two sets
    # always measure the same thing.
    seconds = str(bench["run_seconds"])
    for seed in parse_seeds(args.seeds):
        for w in [x["name"] for x in bench["workloads"]]:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out, "%s.%d.%d.txt" % (w, args.trace, seed))
            with open(path, "w") as f:
                f.write(out.stdout)
            print("%s seed %d trace %d -> exit %d" % (w, seed, args.trace, out.returncode),
                  file=sys.stderr)


def read_set(directory):
    """{(workload, trace): {seed: result}} from a collected directory. The
    per-request medians and tails of the run's `detail` line are added to the
    result's metrics as `<request>.p50_s` / `<request>.tail_s`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if len(parts) != 4 or parts[3] != "txt":
            continue
        workload, trace, seed = parts[0], int(parts[1]), int(parts[2])
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        for line in lines:
            if line.startswith("detail "):
                detail = json.loads(line[len("detail "):])
                for req, d in detail.get("per_request", {}).items():
                    for key in ("p50_s", "tail_s"):
                        if key in d:
                            result["metrics"]["%s.%s" % (req, key)] = {"value": d[key]}
        runs.setdefault((workload, trace), {})[seed] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(before, after, better, bound):
    """before/after: {seed: value}. Returns the row's fields."""
    lo_b, med_b, hi_b = quartiles(list(before.values()))
    lo_a, med_a, hi_a = quartiles(list(after.values()))
    sign = 1.0 if better == "higher" else -1.0
    pairs = [s for s in before if s in after]
    wins = sum(1 for s in pairs if sign * (after[s] - before[s]) > 0)
    win_frac = wins / len(pairs) if pairs else float("nan")
    spread_b = (hi_b - lo_b) / med_b if med_b else float("inf")
    spread_a = (hi_a - lo_a) / med_a if med_a else float("inf")
    every = bool(before) and bool(after) and (
        min(after.values()) > max(before.values()) if sign > 0
        else max(after.values()) < min(before.values()))
    if pairs and win_frac >= 0.9 and sign * (med_a - med_b) > (hi_b - lo_b):
        word = "better"
    elif bound is not None and med_b and sign * (med_a - med_b) / abs(med_b) < -bound:
        word = "worse"
    elif bound is not None and max(spread_a, spread_b) > bound and not every:
        word = "unresolved"
    else:
        word = "same"
    return {"before": (lo_b, med_b, hi_b), "after": (lo_a, med_a, hi_a),
            "win": win_frac, "pairs": len(pairs), "verdict": word}


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def table(title, rows):
    print("### " + title)
    print()
    print("| workload | metric | before median [q1, q3] | after median [q1, q3] | wins | verdict |")
    print("|---|---|---|---|---|---|")
    for w, name, unit, r in rows:
        print("| %s | %s (%s) | %s | %s | %.0f%% of %d | %s |" % (
            w, name, unit, fmt(r["before"]), fmt(r["after"]), 100 * r["win"],
            r["pairs"], r["verdict"]))
    print()


def compare(args):
    bench = load_benchmark()
    before = read_set(args.before)
    after = read_set(args.after)
    for trace, kind, title in ((0, "end_to_end", "End-to-end metrics"),
                               (1, "per_layer", "Per-layer metrics (traced runs)")):
        rows = []
        for w in [x["name"] for x in bench["workloads"]]:
            b_runs = before.get((w, trace), {})
            a_runs = after.get((w, trace), {})
            if not b_runs or not a_runs:
                continue
            for m in bench[kind]:
                bv = {s: r["metrics"][m["name"]]["value"] for s, r in b_runs.items()
                      if m["name"] in r.get("metrics", {})}
                av = {s: r["metrics"][m["name"]]["value"] for s, r in a_runs.items()
                      if m["name"] in r.get("metrics", {})}
                if bv and av:
                    rows.append((w, m["name"], m["unit"],
                                 verdict(bv, av, m["better"], m.get("bound"))))
        if rows:
            table(title, rows)
    # Per-request latencies from the detail lines: no bound, so no verdict
    # other than better / same.
    rows = []
    for w in [x["name"] for x in bench["workloads"]]:
        b_runs = before.get((w, 0), {})
        a_runs = after.get((w, 0), {})
        names = sorted({k for r in b_runs.values() for k in r["metrics"] if "." in k})
        for name in names:
            bv = {s: r["metrics"][name]["value"] for s, r in b_runs.items() if name in r["metrics"]}
            av = {s: r["metrics"][name]["value"] for s, r in a_runs.items() if name in r["metrics"]}
            if bv and av:
                rows.append((w, name, "s", verdict(bv, av, "lower", None)))
    if rows:
        table("Per-request latencies (detail lines)", rows)


def spread(args):
    """Median and quartile spread (q3 - q1) / median of one result set, per
    workload and end-to-end metric, against the metric's bound."""
    bench = load_benchmark()
    runs = read_set(args.dir)
    print("| workload | metric | runs | median | spread | bound |")
    print("|---|---|---|---|---|---|")
    for w in [x["name"] for x in bench["workloads"]]:
        results = runs.get((w, 0), {}).values()
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            lo, med, hi = quartiles(values)
            print("| %s | %s | %d | %.4g | %.3f | %.2f |" % (
                w, m["name"], len(values), med, (hi - lo) / med, m["bound"]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        ap = argparse.ArgumentParser(prog="compare.py spread")
        ap.add_argument("dir")
        spread(ap.parse_args(sys.argv[2:]))
        return 0
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        ap = argparse.ArgumentParser(prog="compare.py collect")
        ap.add_argument("--out", required=True)
        ap.add_argument("--seeds", default="1-10")
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        collect(ap.parse_args(sys.argv[2:]))
        return 0
    ap = argparse.ArgumentParser(description="Compare two collected result sets.")
    ap.add_argument("before")
    ap.add_argument("after")
    compare(ap.parse_args())
    return 0


if __name__ == "__main__":
    sys.exit(main())
