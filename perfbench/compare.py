#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py --parent DIR_OR_FILES --change DIR_OR_FILES
        [--benchmark BENCHMARK.json]

Both sides are result records written by run.py (a directory such as
.bench_build/results, or single files), untraced and traced alike. For every
workload and metric the tool prints each side's median and quartiles, the
change in the median with the parent median as its base, and a verdict:

  improved    the change wins at least nine tenths of at least ten pairs of
              runs (paired by seed, else by run order), and the medians
              differ by more than the parent's own spread (q3 - q1)
  worse       the change median is worse than the parent's by more than the
              metric's bound from BENCHMARK.json (per-layer metrics, which
              have no bound: by more than the parent's spread, losing nine
              tenths of the pairs)
  unresolved  the parent's spread is wider than the bound, or the medians
              moved by more than the spread without enough pairs to say so
  unchanged   otherwise; also when the spread is wider than the bound but
              every change run reads better than every parent run

Exit code 1 when any end-to-end metric is worse, else 0.
"""

import argparse
import json
import os
import re
import statistics
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def check_name(name):
    """Metric and workload names: a letter or digit, then at most 63 of
    [A-Za-z0-9_.-]."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}: expected [A-Za-z0-9_.-], "
                         f"starting with a letter or digit, at most 64 characters")
    return name


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def gain(better, before, after):
    """How much `after` improves on `before` (positive = better)."""
    return before - after if better == "lower" else after - before


def verdict(parent, change, better, bound=None, pairs=None):
    """Verdict for one metric. `parent` and `change` are lists of run values,
    `pairs` a list of (parent, change) values of paired runs (defaults to
    zipping the lists in order), `bound` the share of the parent median the
    metric may worsen by (None for per-layer metrics)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    pairs = list(zip(parent, change)) if pairs is None else pairs
    wins = sum(1 for p, c in pairs if gain(better, p, c) > 0)
    losses = sum(1 for p, c in pairs if gain(better, p, c) < 0)
    moved = abs(cm - pm) > spread
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and moved and gain(better, pm, cm) > 0:
        return "improved"
    if bound is None:
        if not moved:
            return "unchanged"
        if enough and losses >= WIN_SHARE * len(pairs) and gain(better, pm, cm) < 0:
            return "worse"
        return "unresolved"
    base = abs(pm) if pm != 0 else 1.0
    if spread / base > bound:
        worst_change = max(change) if better == "lower" else min(change)
        best_parent = min(parent) if better == "lower" else max(parent)
        return "unchanged" if gain(better, best_parent, worst_change) > 0 else "unresolved"
    if -gain(better, pm, cm) / base > bound:
        return "worse"
    return "unchanged"


def load_records(paths):
    records = []
    for path in paths:
        files = [path]
        if os.path.isdir(path):
            files = sorted(os.path.join(path, f) for f in os.listdir(path)
                           if f.endswith(".json") and not f.endswith(".spans.json"))
        for name in files:
            with open(name) as f:
                rec = json.load(f)
            check_name(rec["workload"])
            for metric in rec["metrics"]:
                check_name(metric)
            records.append(rec)
    return records


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            metrics[check_name(m["name"])] = (m["better"], m.get("bound"))
    return metrics


def series(records):
    """{(workload, metric): [(seed, value), ...]} in record order."""
    out = {}
    for rec in records:
        for metric, m in rec["metrics"].items():
            out.setdefault((rec["workload"], metric), []).append((rec["seed"], m["value"]))
    return out


def paired(parent, change):
    by_seed = dict(parent)
    common = [(by_seed[s], v) for s, v in change if s in by_seed]
    if len(common) >= min(len(parent), len(change)):
        return common
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True,
                    help="parent result records (dirs or files)")
    ap.add_argument("--change", nargs="+", required=True, help="change result records")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    spec = load_spec(args.benchmark)
    parent = series(load_records(args.parent))
    change = series(load_records(args.change))
    worse_e2e = False
    print(f"{'workload':<16} {'metric':<28} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'delta':>9}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in spec:
            continue
        better, bound = spec[metric]
        p = [v for _, v in parent[key]]
        c = [v for _, v in change[key]]
        v = verdict(p, c, better, bound, paired(parent[key], change[key]))
        worse_e2e |= v == "worse" and bound is not None
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        delta = (cm - pm) / abs(pm) if pm != 0 else float("inf") if cm != 0 else 0.0
        print(f"{workload:<16} {metric:<28} "
              f"{fmt(pm) + ' [' + fmt(pq[0]) + ', ' + fmt(pq[1]) + ']':<32} "
              f"{fmt(cm) + ' [' + fmt(cq[0]) + ', ' + fmt(cq[1]) + ']':<32} "
              f"{delta:>+8.1%}  {v} (n={len(p)}/{len(c)}, base {fmt(pm)})")
    return 1 if worse_e2e else 0


if __name__ == "__main__":
    sys.exit(main())
