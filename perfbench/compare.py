#!/usr/bin/env python3
"""Compares a parent and a change result set, or summarizes one set.

  python3 perfbench/compare.py parent.jsonl change.jsonl
  python3 perfbench/compare.py results.jsonl

Result sets are the JSON-lines files repeat.py writes. For each workload
and end-to-end metric the comparison prints both sides' median and
quartiles and a verdict:

  WORSE       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's own run-to-run spread (inter-quartile
              distance over median) exceeds the bound, so "no worse"
              cannot be told from noise, unless every change run beats
              every parent run;
  better      every change run beats every parent run and the medians
              differ by more than the parent's spread;
  same        within the bound.

It also flags any rise of the failure rate (failed / attempted, summed
over a workload's runs). Exit status 1 when anything is WORSE or a
failure rate rose. Per-layer metrics of traced runs (trace 1 lines) are
listed with their medians; they carry no bound.
"""

import argparse
import json
import sys

import report
import stats


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r["result"])
    return out


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def failure_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def worse_by(metric, parent, change):
    """How much worse `change` is than `parent`, as a share of parent."""
    if metric["better"] == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def verdict(metric, parent_vals, change_vals):
    _, p_med, _ = stats.quartiles(parent_vals)
    _, c_med, _ = stats.quartiles(change_vals)
    worse = worse_by(metric, p_med, c_med)
    spread = stats.relative_spread(parent_vals)
    if metric["better"] == "lower":
        all_better = max(change_vals) < min(parent_vals)
    else:
        all_better = min(change_vals) > max(parent_vals)
    if worse > metric["bound"]:
        return "WORSE", worse
    if all_better and -worse > spread:
        return "better", worse
    if spread > metric["bound"]:
        return "unresolved", worse
    return "same", worse


def fmt_quartiles(vals):
    q1, med, q3 = stats.quartiles(vals)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def compare(bench, parent, change, out=sys.stdout):
    bad = False
    p_sets, c_sets = by_workload(parent, 0), by_workload(change, 0)
    print("%-16s %-14s %-32s %-32s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "worse by", "verdict"), file=out)
    for w in bench["workloads"]:
        name = w["name"]
        p_runs, c_runs = p_sets.get(name, []), c_sets.get(name, [])
        if not p_runs or not c_runs:
            print("%-16s missing from %s" % (
                name, "parent" if not p_runs else "change"), file=out)
            bad = True
            continue
        for m in bench["end_to_end"]:
            pv, cv = values(p_runs, m["name"]), values(c_runs, m["name"])
            v, worse = verdict(m, pv, cv)
            bad |= v == "WORSE"
            print("%-16s %-14s %-32s %-32s %7.2f%%  %s" % (
                name, m["name"], fmt_quartiles(pv), fmt_quartiles(cv),
                100 * worse, v), file=out)
        p_fail, c_fail = failure_rate(p_runs), failure_rate(c_runs)
        rose = c_fail > p_fail
        bad |= rose
        print("%-16s %-14s %-32.6g %-32.6g %8s  %s" % (
            name, "failure_rate", p_fail, c_fail, "",
            "ROSE" if rose else "same"), file=out)
    p_tr, c_tr = by_workload(parent, 1), by_workload(change, 1)
    for w in bench["workloads"]:
        name = w["name"]
        if name not in p_tr or name not in c_tr:
            continue
        for m in bench["per_layer"]:
            pv, cv = values(p_tr[name], m["name"]), values(c_tr[name], m["name"])
            if pv and cv and (any(pv) or any(cv)):
                print("%-16s %-30s %-14.6g -> %-14.6g (per-layer, %s)" % (
                    name, m["name"], stats.quartiles(pv)[1],
                    stats.quartiles(cv)[1], m["unit"]), file=out)
    return bad


def summarize(bench, records, out=sys.stdout):
    """Median and spread of each end-to-end metric of one result set,
    marking spreads at or over a third of the bound."""
    sets = by_workload(records, 0)
    for w in bench["workloads"]:
        runs = sets.get(w["name"], [])
        if not runs:
            continue
        for m in bench["end_to_end"]:
            vals = values(runs, m["name"])
            spread = stats.relative_spread(vals)
            print("%-16s %-14s n=%-3d median %12.5g  spread %6.2f%%  bound %5.1f%%%s"
                  % (w["name"], m["name"], len(vals), stats.quartiles(vals)[1],
                     100 * spread, 100 * m["bound"],
                     "" if spread < m["bound"] / 3 else "  (over 1/3 bound)"),
                  file=out)
        print("%-16s %-14s %.6g" % (w["name"], "failure_rate",
                                    failure_rate(runs)), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="parent.jsonl [change.jsonl]")
    args = parser.parse_args(argv)
    bench = report.load_benchmark()
    if len(args.sets) == 1:
        summarize(bench, load(args.sets[0]))
        return 0
    if len(args.sets) != 2:
        parser.error("give one set to summarize or two to compare")
    return 1 if compare(bench, load(args.sets[0]), load(args.sets[1])) else 0


if __name__ == "__main__":
    sys.exit(main())
