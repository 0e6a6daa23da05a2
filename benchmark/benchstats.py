"""Statistics and trace post-processing for the rppm benchmark.

Everything here is pure: run.py feeds it the raw samples that the
rppm_benchmark program dumps, and test_benchmark.py checks it on
hand-computed cases.
"""

import math
import statistics

MB = 1e6

# Units of the end-to-end metrics and of the one-workload extras.
UNITS = {
    "setup_s": "s", "answer_s": "s", "peak_rss_mb": "MB",
    "rppm_err_avg_pct": "%", "rppm_err_max_pct": "%",
    "main_err_avg_pct": "%", "crit_err_avg_pct": "%",
}

# Units of the per-layer metrics, in report order.
LAYER_UNITS = {
    "workload.synth_s": "s", "trace.save_s": "s", "trace.index_s": "s",
    "trace.load_s": "s", "trace.file_mb": "MB",
    "common.crc_mb_per_s": "MB/s",
    "profile.s": "s", "profile.records": "count",
    "profile.mrec_per_s": "Mrec/s", "profile.rss_delta_mb": "MB",
    "statstack.stacks_built": "count", "statstack.curve_points": "count",
    "statstack.curve_hit_ratio": "ratio",
    "rppm.grid_s": "s", "rppm.predictions": "count",
    "rppm.thread_evals": "count", "rppm.thread_hit_ratio": "ratio",
    "rppm.sync_runs": "count", "rppm.sync_hit_ratio": "ratio",
    "rppm.predict_s": "s", "rppm.memo_resident_mb": "MB",
    "rppm.err_avg_pct": "%", "rppm.err_max_pct": "%",
    "rppm.main_err_avg_pct": "%", "rppm.crit_err_avg_pct": "%",
    "study.run_s": "s", "study.profile_hits": "count",
    "study.profile_misses": "count",
    "sim.s": "s", "sim.minstr": "Minstr", "sim.ns_per_instr": "ns",
    "sim.minstr_per_s": "Minstr/s",
    "server.queries_per_s": "1/s", "server.query_p50_ms": "ms",
    "server.query_p99_ms": "ms",
    "server.full_query_ms": "ms", "server.table4_query_ms": "ms",
    "server.hetero_query_ms": "ms", "server.point_query_ms": "ms",
    "server.requests": "count", "server.cells": "count",
    "server.batches": "count", "server.cells_per_batch": "count",
    "server.shed": "count", "server.deadline_expired": "count",
    "server.resident_mb": "MB", "server.profile_memory_hits": "count",
    "bench.failed_frac": "ratio", "bench.tracing_overhead_pct": "%",
}


# Shapes of the serve probe's queries (the config sets rppmd's callers
# send): bench_perf's full sweep, rppm_client's table4, hetero and base.
QUERY_KINDS = ("full", "table4", "hetero", "point")


class TailTooShort(ValueError):
    """A percentile was asked of too few samples to be trusted."""


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct, min_beyond=10):
    """Nearest-rank percentile, reported only when at least min_beyond
    samples lie beyond it; otherwise TailTooShort, never a wrong tail."""
    if not 0 < pct < 100:
        raise ValueError("percentile must be in (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise TailTooShort(
            "p%g of %d samples has %d beyond it (need %d)"
            % (pct, len(ordered), max(beyond, 0), min_beyond))
    return ordered[rank - 1]


def latencies(samples, kinds=None):
    """Latencies in ms of the samples of the given kinds. A failed or
    refused operation missed every latency limit, so it counts as
    infinitely slow."""
    return [ms if ok else math.inf
            for kind, ms, ok in samples
            if kinds is None or kind in kinds]


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def rel_error_pct(predicted, simulated):
    """|predicted - simulated| / simulated, in percent."""
    if simulated <= 0:
        raise ValueError("simulated cycles must be positive")
    return abs(predicted - simulated) / simulated * 100.0


def error_summary(cells, model):
    """(mean, max) error in percent of one model over oracle cells."""
    errs = [rel_error_pct(c[model], c["sim"]) for c in cells]
    return sum(errs) / len(errs), max(errs)


# ------------------------------------------------------------- spans ---

def parse_spans(raw_spans):
    """Rows [name, start_ns, end_ns, id, parent, request, thread] to
    dicts."""
    keys = ("name", "start", "end", "id", "parent", "request", "thread")
    return [dict(zip(keys, row)) for row in raw_spans]


def self_times(spans):
    """Self time of every span in ns: its duration minus the part of its
    interval that its child spans cover (overlapping children counted
    once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        lo = hi = None
        parts = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                       for c in children.get(s["id"], []))
        for a, b in parts:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def chrome_trace(spans, selfs, meta):
    """Chrome trace-event JSON (complete events, microseconds)."""
    events = []
    for s in spans:
        events.append({
            "name": s["name"], "ph": "X", "pid": 1, "tid": s["thread"],
            "ts": s["start"] / 1e3, "dur": (s["end"] - s["start"]) / 1e3,
            "args": {"id": s["id"], "parent": s["parent"],
                     "request": s["request"],
                     "self_us": selfs[s["id"]] / 1e3},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}


def per_request_seconds(spans, name):
    """For every request holding spans called name, their summed
    duration in seconds."""
    sums = {}
    for s in spans:
        if s["name"] == name:
            sums[s["request"]] = (sums.get(s["request"], 0.0)
                                  + (s["end"] - s["start"]) / 1e9)
    return list(sums.values())


def median_or_zero(values):
    return median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------- metrics ---

def end_to_end(raw):
    """The end-to-end metrics of an untraced phase, each as
    (value, samples)."""
    u = raw["untraced"]
    answers = latencies(u["samples"], ("answer",))
    return {
        "setup_s": (median(raw["setup_s"]), len(raw["setup_s"])),
        "answer_s": (median(answers) / 1e3, len(answers)),
        "peak_rss_mb": (u["peak_rss_mb"], 1),
    }


def sample_quartiles(raw):
    """(q1, q3) of the samples behind the timed end-to-end medians: the
    noise within one run, reported next to each median."""
    answers = [v / 1e3 for v in
               latencies(raw["untraced"]["samples"], ("answer",))]
    return {"answer_s": quartiles(answers)[::2],
            "setup_s": quartiles(raw["setup_s"])[::2]}


def workload_extras(raw):
    """Accuracy figures of the workloads that simulate, (value, samples)
    each: reported beside the end-to-end set and in the per-layer
    block."""
    out = {}
    cells = raw.get("accuracy") or []
    if cells:
        avg, mx = error_summary(cells, "rppm")
        out["rppm_err_avg_pct"] = (avg, len(cells))
        out["rppm_err_max_pct"] = (mx, len(cells))
        out["main_err_avg_pct"] = (error_summary(cells, "main")[0],
                                   len(cells))
        out["crit_err_avg_pct"] = (error_summary(cells, "crit")[0],
                                   len(cells))
    return out


def operations(raw):
    """(attempted, failed) over every measured operation: a failed or
    refused query, an iteration that threw and an answer that fails its
    correctness check all count as failed."""
    attempted = failed = 0
    for phase in ("untraced", "traced"):
        if phase in raw:
            samples = raw[phase]["samples"]
            attempted += len(samples)
            failed += sum(1 for _, _, ok in samples if not ok)
    return attempted, failed


def per_layer(raw, e2e):
    """The per-layer metrics of a traced run."""
    t = raw["traced"]
    spans = parse_spans(t["spans"])
    c = t["counters"]

    def secs(name):
        return median_or_zero(per_request_seconds(spans, name))

    def count(name):
        return float(c.get(name, 0.0))

    m = {}
    m["workload.synth_s"] = secs("workload.synth")
    m["trace.save_s"] = secs("trace.save")
    m["trace.index_s"] = secs("trace.index")
    m["trace.load_s"] = secs("trace.load")
    m["trace.file_mb"] = count("trace.file_bytes") / MB
    m["common.crc_mb_per_s"] = ratio(count("common.crc_bytes") / MB,
                                     secs("common.crc"))
    m["profile.s"] = secs("profile")
    m["profile.records"] = count("profile.records")
    m["profile.mrec_per_s"] = ratio(m["profile.records"] / 1e6,
                                    m["profile.s"])
    m["profile.rss_delta_mb"] = count("profile.rss_delta_mb")
    m["statstack.stacks_built"] = count("memo.stacks_built")
    m["statstack.curve_points"] = count("memo.curve_points")
    m["statstack.curve_hit_ratio"] = ratio(
        count("memo.curve_hits"),
        count("memo.curve_hits") + count("memo.curve_points"))
    m["rppm.grid_s"] = secs("rppm.grid")
    m["rppm.predictions"] = count("memo.predictions")
    m["rppm.thread_evals"] = count("memo.thread_evals")
    m["rppm.thread_hit_ratio"] = ratio(
        count("memo.thread_hits"),
        count("memo.thread_hits") + count("memo.thread_evals"))
    m["rppm.sync_runs"] = count("memo.sync_runs")
    m["rppm.sync_hit_ratio"] = ratio(
        count("memo.sync_hits"),
        count("memo.sync_hits") + count("memo.sync_runs"))
    m["rppm.predict_s"] = secs("rppm.predict")
    m["rppm.memo_resident_mb"] = count("rppm.memo_resident_bytes") / MB
    m["study.run_s"] = secs("study.run")
    m["study.profile_hits"] = count("study.profile_hits")
    m["study.profile_misses"] = count("study.profile_misses")
    m["sim.s"] = secs("sim")
    m["sim.minstr"] = count("sim.instructions") / 1e6
    m["sim.ns_per_instr"] = ratio(m["sim.s"] * 1e9,
                                  count("sim.instructions"))
    m["sim.minstr_per_s"] = ratio(m["sim.minstr"], m["sim.s"])
    query_spans = {"server.%s_query" % kind for kind in QUERY_KINDS}
    queries = [s for s in spans if s["name"] in query_spans]
    served = latencies(t["samples"], QUERY_KINDS)
    m["server.queries_per_s"] = ratio(
        sum(1 for v in served if not math.isinf(v)),
        (max(s["end"] for s in queries) - min(s["start"] for s in queries))
        / 1e9 if queries else 0.0)
    m["server.query_p50_ms"] = median_or_zero(served)
    m["server.query_p99_ms"] = percentile(served, 99) if served else 0.0
    for kind in QUERY_KINDS:
        m["server.%s_query_ms" % kind] = median_or_zero(
            latencies(t["samples"], (kind,)))
    m["server.requests"] = count("server.requests")
    m["server.cells"] = count("server.cells")
    m["server.batches"] = count("server.batches")
    m["server.cells_per_batch"] = ratio(m["server.cells"],
                                        m["server.batches"])
    m["server.shed"] = count("server.shed")
    m["server.deadline_expired"] = count("server.deadline_expired")
    m["server.resident_mb"] = count("server.resident_bytes") / MB
    m["server.profile_memory_hits"] = count("server.profile_memory_hits")

    extras = workload_extras(raw)
    for name, extra in (("rppm.err_avg_pct", "rppm_err_avg_pct"),
                        ("rppm.err_max_pct", "rppm_err_max_pct"),
                        ("rppm.main_err_avg_pct", "main_err_avg_pct"),
                        ("rppm.crit_err_avg_pct", "crit_err_avg_pct")):
        m[name] = extras.get(extra, (0.0, 0))[0]
    attempted, failed = operations(raw)
    m["bench.failed_frac"] = failed_frac(attempted, failed)
    m["bench.tracing_overhead_pct"] = tracing_overhead_pct(raw, e2e)
    return {name: m[name] for name in LAYER_UNITS}


def tracing_overhead_pct(raw, e2e):
    """How much slower the traced phase answered than the untraced one
    of the same invocation, by median answer time."""
    traced = median(latencies(raw["traced"]["samples"], ("answer",))) / 1e3
    return (traced / e2e["answer_s"][0] - 1.0) * 100.0
