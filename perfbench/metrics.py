"""Metric math for the perfbench harness.

The C++ harness (harness.cc) prints raw samples; this module turns them
into the metrics named in BENCHMARK.json (end-to-end, untraced runs) and
the per-layer metrics (traced runs). README.md maps each metric to the
layer it measures and the workload it should move.
"""

import math
import statistics

# How many samples must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

# (name, unit, better) of every metric a run reports; BENCHMARK.json
# repeats these with the bounds and test_perfbench.py checks they agree.
END_TO_END = [
    ("units_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Headline outputs under their descriptive names; printed by every run
# that produces them and repeated among the per-layer metrics.
HEADLINE = [
    ("dse_pairs_per_s", "1/s", "higher"),
    ("sim_ms", "simulated_ms", "lower"),
    ("crophe_vs_mad", "x", "higher"),
    ("model_err_pct", "%", "lower"),
    ("pod_scaling", "x", "higher"),
    ("infer_ms_p50", "ms", "lower"),
    ("infer_ms_tail", "ms", "lower"),
    ("precision_bits", "bits", "higher"),
]

PER_LAYER = HEADLINE + [
    ("common.threads", "count", "higher"),
    ("graph.build_s", "s", "lower"),
    ("sched.rot_search_s", "s", "lower"),
    ("sched.schedule_s", "s", "lower"),
    ("sched.candidates", "count", "lower"),
    ("sched.enum_analyzed", "count", "lower"),
    ("sched.memo_hit_rate", "ratio", "higher"),
    ("sched.pruned_windows", "count", "higher"),
    ("sched.dram_words", "words", "lower"),
    ("sched.aux_dram_words", "words", "lower"),
    ("plan.hit_rate", "ratio", "higher"),
    ("plan.disk_hits", "count", "higher"),
    ("plan.misses", "count", "lower"),
    ("plan.disk_writes", "count", "lower"),
    ("sim.host_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.dram_row_hit_rate", "ratio", "higher"),
    ("sim.pe_util", "ratio", "higher"),
    ("sim.noc_util", "ratio", "lower"),
    ("sim.dram_bw_util", "ratio", "lower"),
    ("model.cycles", "cycles", "lower"),
    ("pod.host_s", "s", "lower"),
    ("pod.interchip_words", "words", "lower"),
    ("pod.transfers", "count", "lower"),
    ("pod.max_link_busy_cycles", "cycles", "lower"),
    ("fhe.encode_ms", "ms", "lower"),
    ("fhe.encrypt_ms", "ms", "lower"),
    ("fhe.matvec_ms", "ms", "lower"),
    ("fhe.poly_ms", "ms", "lower"),
    ("fhe.decrypt_ms", "ms", "lower"),
    ("fhe.decode_ms", "ms", "lower"),
    ("fhe.rotate_ms", "ms", "lower"),
    ("fhe.mul_relin_ms", "ms", "lower"),
    ("fhe.rescale_ms", "ms", "lower"),
    ("fhe.keyswitch_ms", "ms", "lower"),
    ("fhe.ntt_limb_transforms", "count", "lower"),
    ("kernels.ntt_us_per_limb", "us", "lower"),
    ("fhe.context_s", "s", "lower"),
    ("fhe.keygen_s", "s", "lower"),
    ("kernels.autotune_s", "s", "lower"),
    ("fhe.arena_peak_bytes", "bytes", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.units_per_s_delta", "1/s", "higher"),
    ("trace.latency_ms_p50_delta", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    # Rounded first, so that a percentile computed as 100 * rank / n maps
    # back to that rank and not, by a last-bit error, to the next one.
    rank = math.ceil(round(pct / 100.0 * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def tail(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least `beyond` samples above
    its rank. Returns (percentile, value, sample count). Below 2 * beyond
    samples that percentile would sit under the median, so the maximum
    (p100) is returned instead; the caller states the count."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond if n >= 2 * beyond else n
    pct = 100.0 * rank / n
    return pct, nearest_rank(values, pct), n


def speedup(base_seconds, new_seconds):
    """How many times faster `new` is than `base`."""
    if base_seconds <= 0 or new_seconds <= 0:
        raise ValueError("speedup needs positive times")
    return base_seconds / new_seconds


def throughput(pass_seconds, pass_units):
    """Median over passes of units completed per second."""
    return statistics.median(u / s for s, u in zip(pass_seconds, pass_units))


def dse_guards(pairs, pod_seconds):
    """Simulated outputs of the design-space pass: sim_ms is the geomean
    simulated ms of the CROPHE pairs, crophe_vs_mad the geomean speedup of
    each CROPHE pair over the CROPHE-hw+MAD pair of its group and
    workload, model_err_pct the mean |model - sim| / sim over simulated
    unique segments, pod_scaling the 1-chip over the 8-chip pod time."""
    crophe = [p for p in pairs if not p["mad"]]
    mad = {(p["group"], p["workload"]): p for p in pairs if p["mad"]}
    errors = [abs(m - s) / s
              for p in pairs
              for m, s in zip(p["model_cycles"], p["sim_cycles"])]
    return {
        "sim_ms": geomean(p["seconds"] * 1e3 for p in crophe),
        "crophe_vs_mad": geomean(
            speedup(mad[(p["group"], p["workload"])]["seconds"], p["seconds"])
            for p in crophe),
        "model_err_pct": 100.0 * statistics.fmean(errors),
        "pod_scaling": speedup(pod_seconds[0], pod_seconds[1]),
    }


def precision_bits(max_err):
    """-log2 of the largest slot error against the plaintext reference.
    The harness writes a non-finite error as null; its check failed."""
    if max_err is None:
        return math.nan
    return -math.log2(max_err) if max_err > 0 else math.inf


def pass_ms(pass_seconds):
    """Host latencies of a run's passes (dse sweeps or inferences), ms."""
    return [s * 1e3 for s in pass_seconds]


def probe_ms(raw):
    """Median host-probe time, ms, of the probes before and after the
    timed passes: how fast the host was while they ran."""
    return statistics.median(raw["probe_s"]) * 1e3


def end_to_end(raw):
    """Untraced metrics of one run, by name: value (unit is in
    BENCHMARK.json)."""
    latency = pass_ms(raw["pass_s"])
    return {
        "units_per_s": throughput(raw["pass_s"], raw["pass_units"]),
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_tail": tail(latency)[1],
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def guards(raw):
    """Exact (simulated) or seed-determined outputs the run produced."""
    if raw["unit"] == "inference":
        return {"precision_bits": precision_bits(raw["max_err"])}
    return dse_guards(raw["pairs"], raw["pod_seconds"])


def headline_metrics(raw):
    """The workload's headline metrics under their descriptive names."""
    e2e = end_to_end(raw)
    out = dict(guards(raw))
    if raw["unit"] == "inference":
        out["infer_ms_p50"] = e2e["latency_ms_p50"]
        out["infer_ms_tail"] = e2e["latency_ms_tail"]
    else:
        out["dse_pairs_per_s"] = e2e["units_per_s"]
    return out


def per_layer(raw):
    """Traced metrics of one run, by name. Layers the workload does not
    call read 0."""
    units = raw["traced_units"]
    self_s = raw["self_s"]
    layers = dict(raw["layers"])

    def per_unit(span):
        return self_s.get(span, 0.0) / units

    layers["common.threads"] = float(raw["meta"]["threads"])
    layers["host.probe_ms"] = probe_ms(raw)
    layers["graph.build_s"] = per_unit("graph.build")
    layers["sched.rot_search_s"] = per_unit("sched.rot_search")
    layers["sched.schedule_s"] = per_unit("sched.schedule")
    layers["sim.host_s"] = per_unit("sim.simulate")
    layers["pod.host_s"] = per_unit("pod.schedule")
    layers["trace.unattributed_s"] = sum(
        per_unit(s) for s in ("pass", "pair", "inference"))
    if layers["sim.host_s"] > 0:
        layers["sim.events_per_s"] = \
            layers.get("sim.events", 0.0) / layers["sim.host_s"]
    layers["trace.spans"] = raw["spans"] / units
    layers.update(headline_metrics(raw))

    untraced = throughput(raw["pass_s"], raw["pass_units"])
    traced = throughput(raw["traced_pass_s"], raw["traced_pass_units"])
    layers["trace.units_per_s_delta"] = traced - untraced
    layers["trace.latency_ms_p50_delta"] = (
        statistics.median(pass_ms(raw["traced_pass_s"])) -
        statistics.median(pass_ms(raw["pass_s"])))
    layers["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return {name: layers.get(name, 0.0) for name, _, _ in PER_LAYER}
