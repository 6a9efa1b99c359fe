"""Turns one driver run's raw output into the benchmark's metrics.

The driver (driver.cc) writes named sample series, scalar values, span
records and correctness checks. This module cuts the warm-up, summarizes
the timings (stats.py), checks that the traced round spans account for
the round wall time, and returns the metrics BENCHMARK.json names:
every end-to-end metric for an untraced run, every per-layer metric for
a traced run.
"""

import json
import math
import os
import re

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Per-layer metrics each workload exercises. A per-layer metric a
# workload does not exercise (or cannot separate, see README.md) is
# reported as 0.
WORKLOAD_LAYERS = {
    "fed_steady": [
        "workload.select_ms", "fed.store.prepare_ms", "fed.select_stage_ms",
        "fed.store.materialized_rngs", "fed.store.materialized_defenses",
        "fed.store.footprint_bytes", "fed.store.bytes_per_user",
        "fed.train_ms", "fed.train_client_us_p50", "fed.train_efficiency",
        "fed.route_ms", "fed.apply_ms", "fed.router_entries", "fed.flush_ms",
        "fed.stall_ms", "tensor.train_bytes_per_client", "trace.overhead_pct",
        "trace.round_coverage",
    ],
    "fed_tiered_cold": [
        "fed.store.prepare_ms", "fed.select_stage_ms",
        "fed.store.materialized_rngs", "fed.store.materialized_defenses",
        "fed.store.footprint_bytes", "fed.store.bytes_per_user",
        "fed.train_ms", "fed.route_ms", "fed.apply_ms", "fed.router_entries",
        "fed.stall_ms", "storage.hit_rate", "storage.misses",
        "storage.writebacks", "storage.rows_per_read_run",
        "storage.staged_hit_rate", "trace.overhead_pct",
    ],
    "paper_defense": [
        "fed.store.prepare_ms", "fed.select_stage_ms",
        "fed.store.materialized_rngs", "fed.store.materialized_defenses",
        "fed.store.footprint_bytes", "fed.store.bytes_per_user",
        "fed.train_ms", "fed.route_ms", "fed.apply_ms", "fed.router_entries",
        "fed.stall_ms", "core.round_ms", "core.result_s", "metrics.er_ms",
        "metrics.hr_ms", "metrics.er_at_10", "metrics.hr_at_10",
        "trace.overhead_pct",
    ],
    "serve_topk": [
        "serving.batch_ms", "serving.tiles_pruned_frac",
        "tensor.serve_bytes_per_user", "trace.overhead_pct",
    ],
}

# Child spans of a traced fed_steady round; their self times must cover
# at least this share of the round span.
ROUND_CHILDREN = ("workload.select", "fed.store.prepare", "fed.train",
                  "fed.route_apply", "fed.flush")
MIN_ROUND_COVERAGE = 0.95


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def metric_units(bench):
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def step_summary(raw):
    """Summary of the untraced pass's steps after the warm-up."""
    warmup = int(raw["values"]["warmup_steps"])
    return stats.summarize(stats.steady_window(raw["series"]["step_ms"], warmup))


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus a printable note
    with the step count and the highest tail level the samples support."""
    values = raw["values"]
    steps = step_summary(raw)
    users_per_step = values["users_per_step"]
    # Read by the driver at a fixed amount of work (after the warm-up,
    # or at the end of a fixed-size run), never at the end of the window.
    rss = values["peak_rss_bytes"]
    metrics = {
        "setup_s": stats.statistics.median(raw["series"]["setup_s"]),
        "users_per_s": users_per_step / (steps["mean"] / 1e3),
        "step_ms_p50": steps["median"],
        "peak_rss_mb": rss / 2**20,
    }
    note = ("steps=%d p50=%.4g p90=%.4g tail p%s=%.4g ms setups=%d"
            % (steps["count"], steps["median"], steps["p90"],
               steps["tail_level"], steps["tail"], len(raw["series"]["setup_s"])))
    return metrics, note


def round_coverage(spans, first_round):
    """Median share of each window round's span covered by the self
    times of its child spans (each child's duration minus the part its
    own children cover; the children here have none)."""
    rounds = {}
    children = {}
    for s in spans:
        if s["round"] < first_round:
            continue
        d = s["end_us"] - s["start_us"]
        if s["name"] == "round":
            rounds[s["round"]] = d
        elif s["name"] in ROUND_CHILDREN:
            children[s["round"]] = children.get(s["round"], 0.0) + d
    shares = [children.get(r, 0.0) / d for r, d in rounds.items() if d > 0]
    return stats.statistics.median(shares) if shares else 0.0


def per_layer(raw, spans, names):
    """The per-layer metrics of a traced run. Returns (metrics, checks)
    where checks lists (name, ok, detail) computed here."""
    series = raw["series"]
    values = raw["values"]
    workload = raw["workload"]
    measured = {}
    for name, samples in series.items():
        if name in names and samples:
            measured[name] = stats.statistics.fmean(samples)
    for name, v in values.items():
        if name in names:
            measured[name] = v
    if "fed.train_client_us" in series:
        measured["fed.train_client_us_p50"] = stats.statistics.median(
            series["fed.train_client_us"])
    if "result_s" in series:
        measured["core.result_s"] = stats.statistics.median(series["result_s"])
    # Tracing overhead: the traced pass's mean step against the untraced
    # pass's over the same work; positive means tracing cost time.
    untraced = step_summary(raw)["mean"]
    traced = stats.statistics.fmean(series["traced_step_ms"])
    measured["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced

    checks = []
    if workload == "fed_steady":
        cov = round_coverage(spans, int(values["warmup_steps"]))
        measured["trace.round_coverage"] = cov
        checks.append(("round_spans_cover_round", cov >= MIN_ROUND_COVERAGE,
                       "median coverage %.4f (need >= %.2f)"
                       % (cov, MIN_ROUND_COVERAGE)))
    missing = [n for n in WORKLOAD_LAYERS[workload] if n not in measured]
    if missing:
        checks.append(("workload_emits_named_layers", False,
                       "missing: " + ", ".join(missing)))
    metrics = {n: measured.get(n, 0.0) for n in names}
    return metrics, checks


def build_result(raw, spans, trace, bench):
    """The final result object printed as the benchmark's last line."""
    units = metric_units(bench)
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics, extra = per_layer(raw, spans, names)
        checks += extra
        note = ""
    else:
        metrics, note = end_to_end(raw)
    bad = [n for n, v in metrics.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        checks.append(("metrics_finite", False, ", ".join(bad)))
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    result = {
        "correct": raw["ops_failed"] == 0 and failed_checks == 0,
        "attempted": int(raw["ops_attempted"]) + len(checks),
        "failed": int(raw["ops_failed"]) + failed_checks,
        "metrics": {n: {"value": float(metrics[n]) if n not in bad else 0.0,
                        "unit": units[n]} for n in metrics},
    }
    return result, checks, note
