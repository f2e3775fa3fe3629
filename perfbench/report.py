"""Turns perfbench's raw observations into the reported metrics.

The measuring program (perfbench.cpp) writes samples, single values,
correctness checks, operation counts and spans; this module applies the
reporting rules:

* a timing is reported as a median, as a mean without its extreme tenths
  (``trimmed_mean``), or as a percentile only when at least ten samples lie
  beyond it (``percentile``);
* operations that failed or were refused count against those attempted
  (``ok_frac``, and ``correct`` is false when any failed);
* a span's self time is its duration minus the part of it that its child
  spans cover (``self_times``);
* the last line of a run is one JSON object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (``result``).
"""

import json
import math
import statistics

MIN_BEYOND = 10

# (name, unit, kind, source, extra):
#   value  - raw["values"][source] * extra (scale)
#   median - median of raw["series"][source] * extra (scale)
#   tmean  - trimmed_mean of raw["series"][source] * extra (scale)
#   pct    - extra = (quantile, scale) over raw["series"][source]
#   ok     - (attempted - failed) / attempted
END_TO_END = [
    ("setup_s", "s", "median", "setup_s", 1.0),
    ("ingest_eps", "1/s", "value", "ingest_eps", 1.0),
    ("ingest_lag_p90_ms", "ms", "pct", "ingest_lag_ms", (0.90, 1.0)),
    ("query_trimmed_mean_ms", "ms", "tmean", "query_ms", 1.0),
    ("query_p90_ms", "ms", "pct", "query_ms", (0.90, 1.0)),
    ("ok_frac", "frac", "ok", None, None),
    ("peak_rss_mb", "MB", "value", "peak_rss_mb", 1.0),
    ("solution_cost", "cost/point", "median", "query_cost_per_point", 1.0),
    ("envelope_slack", "ratio", "value", "envelope_slack", 1.0),
    ("query_wire_kb", "kB", "value", "query_wire_kb", 1.0),
    ("failover_s", "s", "tmean", "failover_s", 1.0),
]

PER_LAYER = [
    ("engine.submit_p50_us", "us", "median", "engine.submit_ms", 1e3),
    ("engine.submit_p99_us", "us", "pct", "engine.submit_ms", (0.99, 1e3)),
    ("engine.backlog_max", "events", "value", "engine.backlog_max", 1.0),
    ("engine.flush_ms", "ms", "value", "engine.flush_ms", 1.0),
    ("engine.merge_ms", "ms", "median", "engine.merge_ms", 1.0),
    ("engine.solve_ms", "ms", "median", "engine.solve_ms", 1.0),
    ("engine.query_rest_ms", "ms", "median", "engine.query_rest_ms", 1.0),
    ("coreset.update_us_per_event", "us", "value", "coreset.update_us_per_event", 1.0),
    ("coreset.guesses", "count", "value", "coreset.guesses", 1.0),
    ("coreset.guesses_failed", "count", "value", "coreset.guesses_failed", 1.0),
    ("coreset.sketch_mb", "MB", "value", "coreset.sketch_mb", 1.0),
    ("coreset.save_ms", "ms", "value", "coreset.save_ms", 1.0),
    ("coreset.load_ms", "ms", "value", "coreset.load_ms", 1.0),
    ("coreset.blob_mb", "MB", "value", "coreset.blob_mb", 1.0),
    ("coreset.merge_from_ms", "ms", "value", "coreset.merge_from_ms", 1.0),
    ("coreset.finalize_ms", "ms", "value", "coreset.finalize_ms", 1.0),
    ("coreset.points", "count", "value", "coreset.points", 1.0),
    ("hash.ns_per_key", "ns", "value", "hash.ns_per_key", 1.0),
    ("grid.ns_per_point", "ns", "value", "grid.ns_per_point", 1.0),
    ("sketch.countmin_ns_per_update", "ns", "value", "sketch.countmin_ns_per_update", 1.0),
    ("sketch.store_ns_per_update", "ns", "value", "sketch.store_ns_per_update", 1.0),
    ("solve.kmeans_ms", "ms", "value", "solve.kmeans_ms", 1.0),
    ("solve.lloyd_iters", "count", "value", "solve.lloyd_iters", 1.0),
    ("flow.assign_ms", "ms", "value", "flow.assign_ms", 1.0),
    ("net.insert_rpc_p50_us", "us", "median", "net.insert_rpc_ms", 1e3),
    ("net.insert_rpc_p99_us", "us", "pct", "net.insert_rpc_ms", (0.99, 1e3)),
    ("net.query_rpc_p50_ms", "ms", "median", "net.query_rpc_ms", 1.0),
    ("net.server_request_p50_us", "us", "value", "net.server_request_p50_us", 1.0),
    ("net.bytes_per_event", "B", "value", "net.bytes_per_event", 1.0),
    ("net.busy_rejections", "count", "value", "net.busy_rejections", 1.0),
    ("tenant.evictions", "count", "value", "tenant.evictions", 1.0),
    ("tenant.restores", "count", "value", "tenant.restores", 1.0),
    ("tenant.cold_submit_ms", "ms", "median", "tenant.cold_submit_ms", 1.0),
    ("tenant.warm_submit_us", "us", "median", "tenant.warm_submit_us", 1.0),
    ("tenant.quota_rejections", "count", "value", "tenant.quota_rejections", 1.0),
    ("tenant.resident_sketch_mb", "MB", "value", "tenant.resident_sketch_mb", 1.0),
    ("cluster.forward_p50_us", "us", "median", "cluster.forward_p50_us", 1.0),
    ("cluster.merge_rpc_p50_ms", "ms", "median", "cluster.merge_rpc_ms", 1.0),
    ("cluster.protocol_bytes_per_query", "B", "value", "cluster.protocol_bytes_per_query", 1.0),
    ("cluster.ingest_bytes_per_event", "B", "median", "cluster.ingest_bytes_per_event", 1.0),
    ("cluster.replayed_events", "count", "median", "cluster.replayed_events", 1.0),
    ("obs.trace_overhead_frac", "frac", "value", "obs.trace_overhead_frac", 1.0),
]


class InsufficientSamples(ValueError):
    """A percentile was asked of a series too short to support it."""


def min_samples(q):
    """Smallest sample count whose q-quantile has MIN_BEYOND samples beyond."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q):
    """Nearest-rank q-quantile, refused unless ten samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {min_samples(q)} samples, got {n}")
    return sorted(samples)[rank - 1]


TRIM = 0.10


def trimmed_mean(samples):
    """Mean of the samples left once the lowest and the highest tenth are
    dropped.  A run's samples come from two host speeds in shares that vary
    from run to run; the median jumps from one speed to the other when the
    shares cross half, while this moves with them, and unlike the plain
    mean it ignores the odd stall."""
    s = sorted(samples)
    cut = int(len(s) * TRIM)
    middle = s[cut:len(s) - cut]
    return sum(middle) / len(middle)


def ok_frac(attempted, failed):
    """Share of attempted operations that neither failed nor were refused."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return (attempted - failed) / attempted


def compute_metrics(raw, spec):
    """Returns ({name: {value, unit}}, {name: sample count}) for `spec`."""
    metrics, counts = {}, {}
    ops = raw["ops"]
    for name, unit, kind, source, extra in spec:
        if kind == "value":
            if source not in raw["values"]:
                raise KeyError(f"{name}: no value {source!r} was recorded")
            value = raw["values"][source] * extra
        elif kind == "ok":
            value = ok_frac(ops["attempted"], ops["failed"])
            counts[name] = ops["attempted"]
        else:
            samples = raw["series"].get(source, [])
            if not samples:
                raise KeyError(f"{name}: no samples in {source!r}")
            counts[name] = len(samples)
            if kind == "median":
                value = statistics.median(samples) * extra
            elif kind == "tmean":
                value = trimmed_mean(samples) * extra
            else:
                q, scale = extra
                value = percentile(samples, q) * scale
        if value is None or not math.isfinite(value):
            raise ValueError(f"{name}: not a finite number ({value!r})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, counts


def result(raw, spec):
    """The run's last output line, as a dict, plus its sample counts."""
    metrics, counts = compute_metrics(raw, spec)
    ops = raw["ops"]
    correct = all(c["ok"] for c in raw["checks"]) and ops["failed"] == 0
    return {
        "correct": bool(correct),
        "attempted": int(ops["attempted"]),
        "failed": int(ops["failed"]),
        "metrics": metrics,
    }, counts


def validate(res, spec):
    """Raises ValueError unless `res` matches the output contract for `spec`."""
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if res["attempted"] < 1 or not 0 <= res["failed"] <= res["attempted"]:
        raise ValueError("attempted must be >= 1 and failed within it")
    names = [s[0] for s in spec]
    if sorted(res["metrics"]) != sorted(names):
        raise ValueError("metric names differ from the specification")
    for name, unit, *_ in spec:
        m = res["metrics"][name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError(f"{name}: malformed entry {m}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r} is not a finite number")


def self_times(spans):
    """{span id: self time} where self time = duration minus the union of
    the child spans' intervals, clipped to the parent's interval.

    `spans` holds dicts with id, parent, start and end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        intervals = sorted((max(lo, c["start"]), min(hi, c["end"]))
                           for c in children.get(s["id"], []))
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def span_dicts(raw_spans):
    """perfbench's span rows [name, tid, start_us, end_us, id, parent, trace]."""
    return [{"name": r[0], "tid": r[1], "start": r[2], "end": r[3],
             "id": r[4], "parent": r[5], "trace": r[6]} for r in raw_spans]


def layer_self_ms(spans):
    """Self time summed per layer (the span name up to its first dot)."""
    selfs = self_times(spans)
    per_layer = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + selfs[s["id"]] / 1e3
    return per_layer


def chrome_trace(spans):
    """chrome://tracing JSON for the spans, with each span's self time."""
    selfs = self_times(spans)
    events = [{
        "name": s["name"], "cat": s["name"].split(".", 1)[0], "ph": "X",
        "ts": s["start"], "dur": s["end"] - s["start"], "pid": 1,
        "tid": s["tid"],
        "args": {"id": s["id"], "parent": s["parent"], "trace_id": s["trace"],
                 "self_us": selfs[s["id"]]},
    } for s in spans]
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
