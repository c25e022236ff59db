"""Arithmetic of the benchmark: turns one gmd_perfbench result document
(passes, set-up times, requests and spans) into named metrics.

Every timing is host time.  Rules kept here, and tested in
test_analysis.py:

* A timing is reported as a median; a tail percentile is reported only
  where at least ten samples lie beyond it, and is otherwise lowered to
  the highest percentile that has ten beyond.
* A span's self time is its duration minus the part of it that its
  children cover; overlapping children are counted once.
* A request that fails or is refused counts as a failure, and in the
  latency percentiles as slower than every answered request.
* A simulate request is a cache hit when its response row says so.
"""

import math
from collections import defaultdict

MIN_BEYOND = 10
KINDS = ("dram", "nvm", "hybrid")
FAMILIES = ("linear", "svr", "rf", "gb")
REQUEST_CLASSES = ("simulate_hit", "simulate_miss", "predict", "recommend",
                   "stats")


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def tail_percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile with at least `min_beyond` samples
    above it.  Returns (value, percentile actually reported), or
    (None, None) when there are too few samples for any such percentile.
    """
    values = sorted(values)
    n = len(values)
    if n < min_beyond + 1:
        return None, None
    rank = max(1, math.ceil(p / 100.0 * n))
    rank = min(rank, n - min_beyond)
    return values[rank - 1], 100.0 * rank / n


def union_length(intervals, lo=None, hi=None):
    """Length of the union of [t0, t1) intervals, clipped to [lo, hi]."""
    clipped = []
    for t0, t1 in intervals:
        if lo is not None:
            t0 = max(t0, lo)
        if hi is not None:
            t1 = min(t1, hi)
        if t1 > t0:
            clipped.append((t0, t1))
    clipped.sort()
    total = 0.0
    end = None
    start = None
    for t0, t1 in clipped:
        if end is None or t0 > end:
            if end is not None:
                total += end - start
            start, end = t0, t1
        else:
            end = max(end, t1)
    if end is not None:
        total += end - start
    return total


def self_time(span, children):
    """The span's duration not covered by any of its children."""
    covered = union_length([(c["t0"], c["t1"]) for c in children],
                           span["t0"], span["t1"])
    return (span["t1"] - span["t0"]) - covered


def request_class(verb, cached):
    if verb == "simulate":
        return "simulate_hit" if cached else "simulate_miss"
    return verb


def failure_counts(requests):
    """(attempted, failed): every request not answered ok is a failure,
    whether the service refused it (overloaded), it timed out, or it
    failed."""
    failed = sum(1 for r in requests if not r["ok"])
    return len(requests), failed


def failed_frac(attempted, failed):
    return failed / attempted if attempted else 0.0


def run_counts(doc):
    """(attempted, failed) of a run: its requests when it sends any,
    otherwise the sweep rows or labelled points the harness counted."""
    requests = requests_from_doc(doc)
    if requests:
        return failure_counts(requests)
    return doc["attempted"], doc["failed"]


def latency_samples(requests):
    """Latencies in ms; failed requests count as infinitely slow."""
    return [r["ms"] if r["ok"] else math.inf for r in requests]


def requests_from_doc(doc):
    return [dict(zip(("verb", "ok", "cached", "error", "ms", "pass"), r))
            for r in doc["requests"]]


def _dur(span):
    return span["t1"] - span["t0"]


def _attr(span, key, default=0.0):
    return span["attrs"].get(key, default)


def _finite(value, cap=1e9):
    """Latency percentiles that land on a failed request read `cap` ms."""
    return value if math.isfinite(value) else cap


def end_to_end(doc):
    """Metrics of an untraced run (every pass untraced)."""
    passes = doc["passes"]
    return {
        "setup_s": median(doc["setup_s"]),
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def service_summary(requests, passes):
    """Throughput and all-verb latency of closed-loop requests: requests
    per pass over the pass's wall time (median over passes), and the
    median and tail latency with the percentile and sample count."""
    per_pass = defaultdict(int)
    for r in requests:
        per_pass[r["pass"]] += 1
    samples = latency_samples(requests)
    p99, at = tail_percentile(samples, 99)
    return {
        "requests_per_s": median(n / passes[i]["wall_s"]
                                 for i, n in per_pass.items()),
        "latency_p50_ms": _finite(median(samples)),
        "latency_p99_ms": _finite(p99) if p99 is not None else 0.0,
        "latency_p99_at": at or 0.0,
        "latency_samples": len(samples),
    }


def workload_figures(doc):
    """Workload-specific figures that are shown beside the end-to-end
    metrics: service throughput and latency, surrogate quality, explorer
    result and failure share."""
    figures = {"failed_frac": failed_frac(*run_counts(doc))}
    values = doc["values"]
    if "surrogate_r2_min" in values:
        figures["surrogate_r2_min"] = values["surrogate_r2_min"]
    if "best_found_cycles" in values:
        figures["best_found_cycles"] = values["best_found_cycles"]
    requests = requests_from_doc(doc)
    if requests:
        figures.update(service_summary(requests, doc["passes"]))
    return figures


def per_layer(doc):
    """Per-layer metrics of a traced run.  Pass-scoped figures come from
    the traced passes only; a layer the workload does not exercise
    reads 0."""
    spans = doc["spans"]
    traced = {i for i, p in enumerate(doc["passes"]) if p["traced"]}
    untraced_walls = [p["wall_s"] for p in doc["passes"] if not p["traced"]]
    traced_walls = [p["wall_s"] for p in doc["passes"] if p["traced"]]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def in_passes(name):
        return [s for s in by_name[name] if s["pass"] in traced]

    def med_dur(spans_):
        return median(_dur(s) for s in spans_)

    m = {}
    m["graph.build_s"] = med_dur(by_name["graph.build"])

    cpusim = by_name["cpusim.run"]
    m["cpusim.run_s"] = med_dur(cpusim)
    m["cpusim.events_per_s"] = median(
        _attr(s, "events") / _dur(s) for s in cpusim if _dur(s) > 0)

    write = in_passes("trace.gem5_write")
    convert = in_passes("trace.convert")
    m["trace.gem5_write_s"] = med_dur(write)
    m["trace.convert_s"] = med_dur(convert)
    m["trace.convert_events_per_s"] = median(
        _attr(s, "events") / _dur(s) for s in convert if _dur(s) > 0)

    pack = by_name["tracestore.pack"]
    m["tracestore.pack_s"] = med_dur(pack)
    m["tracestore.bytes_per_event"] = median(
        _attr(s, "bytes") / _attr(s, "events") for s in pack
        if _attr(s, "events") > 0)

    sweeps = in_passes("sweep")
    rows = []
    for s in sweeps:
        kids = [c for c in children[s["id"]] if c["name"] == "memsim.point"]
        wall = _dur(s)
        cpu = s["cpu1"] - s["cpu0"]
        busy = sum(_dur(c) for c in kids)
        threads = _attr(s, "threads", 1.0)
        rows.append({
            "wall": wall, "cpu": cpu,
            "first": (min(c["t0"] for c in kids) - s["t0"]) if kids else 0.0,
            "idle": 1.0 - busy / (wall * threads) if wall > 0 else 0.0,
            "self": self_time(s, kids),
        })
    m["sweep.wall_s"] = median(r["wall"] for r in rows)
    m["sweep.cpu_s"] = median(r["cpu"] for r in rows)
    m["sweep.parallelism"] = median(
        r["cpu"] / r["wall"] for r in rows if r["wall"] > 0)
    m["sweep.first_point_s"] = median(r["first"] for r in rows)
    m["sweep.idle_frac"] = median(r["idle"] for r in rows)
    m["sweep.self_s"] = median(r["self"] for r in rows)

    points = in_passes("memsim.point")
    busy_per_pass = defaultdict(float)
    for s in points:
        busy_per_pass[s["pass"]] += _dur(s)
    m["memsim.busy_s"] = median(busy_per_pass.values())
    for kind in KINDS:
        ms = [_dur(s) * 1e3 for s in points if s["tag"] == kind]
        m[f"memsim.point_ms.p50.{kind}"] = median(ms)
        m[f"memsim.point_ms.max.{kind}"] = max(ms, default=0.0)
    busy = sum(_dur(s) for s in points)
    m["memsim.events_per_s"] = (
        sum(_attr(s, "events") for s in points) / busy if busy > 0 else 0.0)
    m["memsim.hybrid_share"] = (
        sum(_dur(s) for s in points if s["tag"] == "hybrid") / busy
        if busy > 0 else 0.0)

    train = in_passes("surrogate.train")
    m["surrogate.train_s"] = med_dur(train)
    m["surrogate.train_cpu_s"] = median(s["cpu1"] - s["cpu0"] for s in train)
    for family in FAMILIES:
        m[f"ml.fit_s.{family}"] = med_dur(by_name[f"ml.fit.{family}"])
    m["surrogate.deploy_s"] = med_dur(in_passes("surrogate.deploy"))
    m["surrogate.r2_min"] = doc["values"].get("surrogate_r2_min", 0.0)
    m["recommend.sweep_s"] = med_dur(in_passes("recommend.sweep"))
    m["recommend.surrogate_s"] = med_dur(in_passes("recommend.surrogate"))

    explorers = in_passes("explorer")
    round_s, sim_s, model_s, per_s = [], [], [], []
    for s in explorers:
        rounds = [c for c in children[s["id"]] if c["name"] == "explorer.round"]
        sims = [(c["t0"], c["t1"]) for c in children[s["id"]]
                if c["name"] == "memsim.point"]
        sim = sum(union_length(sims, r["t0"], r["t1"]) for r in rounds)
        model = sum(_dur(r) for r in rounds) - sim
        round_s.extend(_dur(r) for r in rounds)
        sim_s.append(sim)
        model_s.append(model)
        if model > 0:
            per_s.append(_attr(s, "rows_scored") / model)
    m["explorer.rounds"] = median(_attr(s, "rounds") for s in explorers)
    m["explorer.simulations"] = median(
        _attr(s, "simulations") for s in explorers)
    m["explorer.rows_scored"] = median(
        _attr(s, "rows_scored") for s in explorers)
    m["explorer.round_s.p50"] = median(round_s)
    m["explorer.round_s.max"] = max(round_s, default=0.0)
    m["explorer.sim_s"] = median(sim_s)
    m["explorer.model_s"] = median(model_s)
    m["explorer.scored_rows_per_s"] = median(per_s)
    m["explorer.best_found_cycles"] = doc["values"].get(
        "best_found_cycles", 0.0)

    requests = [r for r in requests_from_doc(doc) if r["pass"] in traced]
    by_class = defaultdict(list)
    for r in requests:
        by_class[request_class(r["verb"], r["cached"])].append(r)
    for cls in REQUEST_CLASSES:
        samples = latency_samples(by_class[cls])
        p99, _ = tail_percentile(samples, 99)
        m[f"service.{cls}.count"] = len(samples)
        m[f"service.{cls}.p50_ms"] = _finite(median(samples))
        m[f"service.{cls}.p99_ms"] = _finite(p99) if p99 is not None else 0.0
    summary = service_summary(requests, doc["passes"])
    for key in ("latency_p50_ms", "latency_p99_ms", "requests_per_s"):
        m["service." + key] = summary[key]
    m["service.cache_hit_rate"] = doc["values"].get(
        "service_cache_hit_rate", 0.0)
    m["service.rejected"] = doc["values"].get("service_rejected", 0.0)

    pass_spans = in_passes("pass")
    m["pass.self_s"] = median(self_time(s, children[s["id"]])
                              for s in pass_spans)
    m["failed_frac"] = failed_frac(*run_counts(doc))
    m["trace_overhead_frac"] = (
        median(traced_walls) / median(untraced_walls) - 1.0
        if traced_walls and untraced_walls else 0.0)
    m["host.calibration_s"] = median(doc["host"]["calibration_s"])
    return m


def compare_expected(record, expected, r2_tolerance):
    """Checks a run's deterministic outputs against those recorded for
    its seed.  Keys starting with 'r2.' may differ by r2_tolerance;
    every other key must match exactly."""
    checks = []
    for key, want in sorted(expected.items()):
        got = record.get(key)
        if key.startswith("r2."):
            ok = got is not None and abs(float(got) - float(want)) <= r2_tolerance
        else:
            ok = got == want
        checks.append({"name": "expected." + key, "ok": ok,
                       "detail": "" if ok else f"want {want}, got {got}"})
    return checks
