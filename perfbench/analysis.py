"""Arithmetic of the repository benchmark: percentiles, span self time and
the per-layer metrics derived from one raw driver result.

Everything here is a pure function of the raw JSON the driver writes, so
perfbench/test_analysis.py can check it on hand-built inputs.
"""

import math
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
# The driver cuts a timed section into blocks of about a second and marks
# a block dropped when the hypervisor stole more than a set share of the
# host's busy CPU time in it (the share is in the raw file's provenance).
# Metrics come from the kept blocks. When they add up to less than this
# share of the section's requested length (a host busy for most of the
# run), the least-stolen dropped blocks are taken back until they do, so
# every run reports figures from at least this much of its section.
MIN_KEPT_SHARE = 0.5


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    Raises ValueError unless at least MIN_BEYOND samples lie above the
    selected rank, so a tail is never reported from too few samples.
    """
    n = len(values)
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} of {n} samples has only {n - rank} beyond it; "
                         f"need {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_time(parent, children):
    """Span time minus the part of it the child spans cover (children
    are clipped to the parent; overlapping children count once)."""
    p0, p1 = parent
    clipped = [(max(s, p0), min(e, p1)) for s, e in children]
    return (p1 - p0) - covered([(s, e) for s, e in clipped if e > s])


def busy_frac(spans, wall, workers):
    """Share of the workers' time spent inside backend spans."""
    return sum(e - s for s, e in spans) / (wall * workers)


def wave_shape(waves, spans):
    """Per wave: fan-out (wave start to first span start) and imbalance
    (first span end to last span end). `waves` maps id -> start; `spans`
    is a list of (wave id, start, end)."""
    by_wave = {}
    for wave, s, e in spans:
        by_wave.setdefault(wave, []).append((s, e))
    fanout, imbalance = [], []
    for wave, members in by_wave.items():
        fanout.append(min(s for s, _ in members) - waves[wave])
        ends = [e for _, e in members]
        imbalance.append(max(ends) - min(ends))
    return fanout, imbalance


def kept(section, seconds):
    """Latencies of the samples that completed in the blocks used, and
    those blocks' total length in seconds. A block is (start, end, stolen
    share, kept, first sample, sample count). The blocks used are the
    kept ones, topped up with the least-stolen dropped ones while their
    length is under MIN_KEPT_SHARE of `seconds`; samples of the other
    blocks and of the drain after the last block are left out."""
    blocks = section["blocks"]
    used = [b for b in blocks if b[3]]
    length = sum(t1 - t0 for t0, t1, *_ in used)
    for b in sorted((b for b in blocks if not b[3]), key=lambda b: b[2]):
        if length >= MIN_KEPT_SHARE * seconds:
            break
        used.append(b)
        length += b[1] - b[0]
    samples = section["latency_us"]
    latency = [lat for *_, first, count in used for lat in samples[first:first + count]]
    return latency, length


def host(section):
    """What the host did during a section: blocks, dropped blocks, and the
    largest stolen share of busy CPU time in any block."""
    blocks = section["blocks"]
    return {"blocks": len(blocks), "dropped": sum(not b[3] for b in blocks),
            "max_steal_frac": max((b[2] for b in blocks), default=0.0)}


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit)}, the
    sample count behind each figure, and the host's record of the run."""
    section = raw["sections"][0]
    latency, length = kept(section, raw["seconds"])
    metrics = {
        "setup_s": (statistics.median(raw["setup"]["total_s"]), "s"),
        "throughput_rps": (len(latency) / length, "1/s"),
        "latency_p50_us": (percentile(latency, 0.5), "us"),
        "latency_p90_us": (percentile(latency, 0.9), "us"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "sim_cycles_per_item": (raw["sim_cycles_per_item"], "cycles"),
    }
    samples = {"throughput_rps": len(latency), "latency_p50_us": len(latency),
               "latency_p90_us": len(latency), "setup_s": len(raw["setup"]["total_s"])}
    return metrics, samples, dict(host(section), kept_s=length)


def _ns_to_us(values):
    return [v / 1e3 for v in values]


def per_layer(raw):
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    untraced, traced = raw["sections"]
    spans = [dict(zip(("name", "id", "parent", "t0", "t1", "seqs"), s)) for s in raw["spans"]]
    requests = [s for s in spans if s["name"] == "request"]
    start = min(r["t0"] for r in requests)
    end = max(r["t1"] for r in requests)
    in_section = [s for s in spans if s["t0"] >= start and s["t1"] <= end]
    submits = {s["parent"]: s for s in in_section if s["name"] == "submit"}
    backend = [s for s in in_section if s["name"] == "span"]
    waves = {s["id"]: s["t0"] for s in in_section if s["name"] == "wave"}
    backend = [s for s in backend if s["parent"] in waves]

    by_seq = {}
    for s in backend:
        for seq in s["seqs"]:
            by_seq.setdefault(seq, []).append((s["t0"], s["t1"]))
    overhead = []
    for r in requests:
        children = list(by_seq.get(r["seqs"][0], []))
        sub = submits.get(r["id"])
        if sub is not None:
            children.append((sub["t0"], sub["t1"]))
        overhead.append(self_time((r["t0"], r["t1"]), children))

    def direct(name):
        d = [s["t1"] - s["t0"] for s in spans if s["name"] == name]
        return statistics.median(d) / 1e3 if d else 0.0

    span_ns = [s["t1"] - s["t0"] for s in backend]
    items = sum(len(s["seqs"]) for s in backend)
    fanout, imbalance = wave_shape(waves, [(s["parent"], s["t0"], s["t1"]) for s in backend])
    workers = raw["provenance"]["workers"]
    sia = raw["sia"]
    sim = "pass_cycles" not in sia
    cycles = sia["served_cycles"] if sim else sia["pass_cycles"]
    batch = sia["served_batch"] if sim else sia["pass_batch"]
    host_us = (sum(span_ns) / 1e3 / items) if sim else sia["pass_host_ms"] * 1e3 / cycles["items"]
    ex = raw["exit"]
    ev = raw["events"]
    setup = raw["setup"]
    p50_bare = statistics.median(kept(untraced, raw["seconds"] / 2)[0])
    p50_traced = statistics.median(kept(traced, raw["seconds"] / 2)[0])
    us, ms = "us", "ms"
    return {
        "core.server.submit_us": (statistics.median(
            _ns_to_us(s["t1"] - s["t0"] for s in submits.values())), us),
        "core.server.overhead_us": (statistics.median(_ns_to_us(overhead)), us),
        "core.server.mean_wave": (traced["wave_items"] / traced["waves"], "count"),
        "core.server.waves": (traced["waves"], "count"),
        "core.server.latency_samples": (len(traced["latency_us"]), "count"),
        "core.backend.span_us": (statistics.median(_ns_to_us(span_ns)), us),
        "core.backend.items_per_span": (items / len(backend), "count"),
        "core.backend.busy_frac": (busy_frac(
            [(s["t0"], s["t1"]) for s in backend], end - start, workers), "ratio"),
        "core.runner.fanout_us": (statistics.median(_ns_to_us(fanout)), us),
        "core.runner.imbalance_us": (statistics.median(_ns_to_us(imbalance)), us),
        "snn.encoding.encode_us": (direct("snn.encoding.encode"), us),
        "snn.engine.run_us": (direct("snn.engine.run"), us),
        "snn.engine.dense_step_frac": (raw["engine"]["dense_step_frac"], "ratio"),
        "snn.engine.input_density": (raw["engine"]["input_density"], "ratio"),
        "snn.session.window_us": (direct("snn.session.window"), us),
        "snn.session.state_bytes": (raw["session_state_bytes"], "bytes"),
        "snn.exit.steps_ratio": (ex["steps_used"] / ex["steps_offered"], "ratio"),
        "snn.exit.retired_frac": (ex["retired"] / ex["responses"], "ratio"),
        "data.events.window_prep_us": (direct("data.events.window_prep"), us),
        "data.events.density": (ev["count"] / ev["pixel_steps"] if ev["pixel_steps"] else 0.0,
                                "ratio"),
        "sim.sia.host_us_per_item": (host_us, us),
        "sim.sia.host_ns_per_cycle": (host_us * 1e3 / cycles["total"], "ns"),
        "sim.sia.cycles.compute": (cycles["compute"], "cycles"),
        "sim.sia.cycles.aggregate": (cycles["aggregate"], "cycles"),
        "sim.sia.cycles.dma": (cycles["dma"], "cycles"),
        "sim.sia.cycles.mmio": (cycles["mmio"], "cycles"),
        "sim.sia.cycles.overhead": (cycles["overhead"], "cycles"),
        "sim.sia.event_additions_per_item": (cycles["event_additions"], "count"),
        "sim.sia.weight_bytes_per_item": (batch["weight_bytes_streamed"] / batch["items"],
                                          "bytes"),
        "sim.sia.residency_ratio": (batch["sequential_cycles"] / batch["resident_cycles"],
                                    "ratio"),
        "sim.sia.resident_cycles_per_item": (batch["resident_cycles"] / batch["items"],
                                             "cycles"),
        "nn.calibrate_ms": (statistics.median(setup["calibrate_ms"]), ms),
        "core.convert_ms": (statistics.median(setup["convert_ms"]), ms),
        "core.compiler.compile_ms": (direct("core.compiler.compile") / 1e3, ms),
        "core.server.start_ms": (statistics.median(setup["start_ms"]), ms),
        "core.server.warmup_ms": (statistics.median(setup["warmup_ms"]), ms),
        "trace.overhead_pct": ((p50_traced - p50_bare) / p50_bare * 100, "%"),
    }
