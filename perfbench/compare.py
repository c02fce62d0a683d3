#!/usr/bin/env python3
"""Collect, summarise and compare result sets of the GMP stack benchmark.

A result set is a JSON-lines file; each line is one benchmark run:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": {<the run's JSON>}}

    # run the benchmark once per seed and append each result to a set
    python3 perfbench/compare.py collect --workload soak --seeds 1-10 --out change.jsonl

    # per workload and metric: median, quartiles, spread = (q3 - q1) / median;
    # exits 1 when a bounded metric other than setup_s spreads over bound/3
    python3 perfbench/compare.py spread change.jsonl

    # parent vs change: quartiles, median delta (change/parent - 1),
    # the change's pair-win fraction over seed-paired runs, verdicts
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

Bounds, directions and units come from BENCHMARK.json.  `diff` flags only
what the benchmark's rules name:
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread exceeds the bound, so the sets cannot
              tell, unless every change run beats every parent run;
  gain        the change wins at least 9/10 of the seed-paired runs and the
              medians differ by more than the parent's own spread.
Metrics without a bound (the per-layer ones) are reported, never flagged.
Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def series(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def cmd_collect(args):
    spec, _ = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "result": result}) + "\n")
            out.flush()
            print("seed %d: correct=%s attempted=%d" %
                  (seed, result["correct"], result["attempted"]), file=sys.stderr)
    return 0


def cmd_spread(args):
    _, metrics = load_spec()
    worst = 0
    for path in args.sets:
        for workload, runs in sorted(load_set(path).items()):
            print("== %s (%d runs) ==" % (workload, len(runs)))
            print("%-30s %14s %14s %14s %8s %6s" %
                  ("metric", "q1", "median", "q3", "spread", "bound"))
            for name in runs[0]["result"]["metrics"]:
                v = series(runs, name)
                q1, q2, q3 = quartiles(v)
                bound = metrics.get(name, {}).get("bound")
                s = spread(v)
                flag = ""
                if bound is not None and name != "setup_s" and s > bound / 3:
                    flag = "  > bound/3"
                    worst = 1
                print("%-30s %14.6g %14.6g %14.6g %8.4f %6s%s" %
                      (name, q1, q2, q3, s, "" if bound is None else bound, flag))
    return worst


def worse(direction, parent, change):
    """Relative amount by which `change` is worse than `parent` (<= 0: not worse)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if direction == "lower" else -delta


def cmd_diff(args):
    _, metrics = load_spec()
    parent, change = load_set(args.parent), load_set(args.change)
    flagged = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_by_seed = {r["seed"]: r for r in p_runs}
        pairs = [(p_by_seed[r["seed"]], r) for r in c_runs if r["seed"] in p_by_seed]
        print("== %s (parent %d runs, change %d runs, %d seed pairs) ==" %
              (workload, len(p_runs), len(c_runs), len(pairs)))
        print("%-30s %24s %24s %8s %6s  %s" %
              ("metric", "parent q1/med/q3", "change q1/med/q3", "delta", "wins", "verdict"))
        for name in p_runs[0]["result"]["metrics"]:
            spec = metrics.get(name, {})
            direction = spec.get("better", "lower")
            bound = spec.get("bound")
            pv, cv = series(p_runs, name), series(c_runs, name)
            if not pv or not cv:
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            wins = sum(worse(direction, p["result"]["metrics"][name]["value"],
                             c["result"]["metrics"][name]["value"]) < 0 for p, c in pairs)
            win_frac = wins / len(pairs) if pairs else 0.0
            w_med = worse(direction, pq[1], cq[1])
            verdict = ""
            if bound is not None:
                all_better = all(worse(direction, a, b) < 0 for a in pv for b in cv)
                if w_med > bound:
                    verdict = "REGRESSION"
                elif max(spread(pv), spread(cv)) > bound and not all_better:
                    verdict = "unresolved"
                elif win_frac >= 0.9 and abs(cq[1] - pq[1]) > (pq[2] - pq[0]):
                    verdict = "gain"
                if verdict in ("REGRESSION", "unresolved"):
                    flagged = 1
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            print("%-30s %24s %24s %+8.4f %6.2f  %s" %
                  (name, "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq,
                   delta, win_frac, verdict))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    c.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("sets", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
