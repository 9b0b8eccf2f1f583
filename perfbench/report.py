"""Turn :class:`~perfbench.workloads.Run` samples into named metrics."""

from __future__ import annotations

import re

import numpy as np

from perfbench import inputs, tracing, workloads

#: every metric name, as ``BENCHMARK.json`` requires
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "prompt_tokens_per_op": "tokens",
    "edge_time_s_per_op": "s",
    "edge_energy_j_per_op": "J",
}

PER_LAYER_UNITS = {
    "latency_p99_ms": "ms",
    "fail_frac": "ratio",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "loadgen.repeat_text_frac": "ratio",
    "setup.suite_s": "s",
    "setup.levels_s": "s",
    "setup.warm_s": "s",
    "http.wire_ms_p50": "ms",
    "http.resp_bytes_per_req": "bytes",
    "batcher.queue_ms_p50": "ms",
    "batcher.queue_ms_p99": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.batches": "count",
    "gateway.submit_ms_p50": "ms",
    "gateway.submit_ms_mean": "ms",
    "gateway.queue_ms_mean": "ms",
    "gateway.plan_ms_mean": "ms",
    "gateway.execute_ms_mean": "ms",
    "gateway.accounting_ms_mean": "ms",
    "gateway.residual_ms_per_req": "ms",
    "plan.ms_per_req": "ms",
    "plan.queries_per_call": "count",
    "llm.recommend_ms_per_req": "ms",
    "embedding.encode_ms_per_req": "ms",
    "embedding.texts_per_req": "count",
    "embedding.cache_hit_frac": "ratio",
    "controller.decide_ms_per_req": "ms",
    "vectorstore.search_ms_per_req": "ms",
    "vectorstore.search_calls": "count",
    "execute.ms_per_req": "ms",
    "llm.step_ms_per_req": "ms",
    "llm.calls_per_req": "count",
    "hardware.simulate_ms_per_req": "ms",
    "tools.execute_ms_per_req": "ms",
    "tools.calls_per_req": "count",
    "tools.ok_frac": "ratio",
    "rng.derivations_per_req": "count",
    "rng.ms_per_req": "ms",
    "accounting.ms_per_req": "ms",
    "trace.overhead_frac": "ratio",
}


def _window_rates(run) -> tuple[list[float], list[float]]:
    """Goodput and CPU ms per op in each measurement window."""
    goodput = [ops / wall for wall, _cpu, ops in run.windows if wall > 0 and ops]
    cpu = [cpu * 1e3 / ops for _wall, cpu, ops in run.windows if ops]
    return goodput, cpu


def block_percentiles(blocks: list[list[float]], q: float) -> list[float]:
    """The ``q``-th percentile of each block of at least ``LATENCY_BLOCK``
    samples (of all samples pooled, when no block is that large)."""
    full = [block for block in blocks if len(block) >= workloads.LATENCY_BLOCK]
    if not full:
        pooled = [x for block in blocks for x in block]
        return [np.percentile(pooled, q) if pooled else 0.0]
    return [np.percentile(block, q) for block in full]


def latency_p99_ms(run) -> float:
    """The lowest block p99.  A stall of the shared machine only ever adds
    latency, so the quietest block's tail is the program's own (why
    timeit reports a minimum); even so it doubled in runs that fell into
    a noisy minute, so it is reported without a bound."""
    return min(block_percentiles(run.latency_blocks, 99.0))


def cpu_ms_per_op(run) -> float:
    _, cpu = _window_rates(run)
    return np.median(cpu) if cpu else run.cpu_s * 1e3 / max(run.ok, 1)


def end_to_end(run) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    goodput, _ = _window_rates(run)
    episodes = run.episodes
    n = max(len(episodes), 1)
    return {
        "setup_s": np.median([setup["total"] for setup in run.setups]),
        "goodput_per_s": (np.median(goodput) if goodput
                          else run.ok / run.wall_s),
        "latency_p50_ms": np.median(
            block_percentiles(run.latency_blocks, 50.0)),
        "latency_p90_ms": np.median(
            block_percentiles(run.latency_blocks, 90.0)),
        "cpu_ms_per_op": cpu_ms_per_op(run),
        "peak_rss_mb": run.peak_rss_mb,
        "success_rate": sum(1 for e in episodes if e.success) / n,
        "prompt_tokens_per_op": sum(e.prompt_tokens for e in episodes) / n,
        "edge_time_s_per_op": sum(e.time_s for e in episodes) / n,
        "edge_energy_j_per_op": sum(e.energy_j for e in episodes) / n,
    }


def per_layer(untraced, traced, tracer, after) -> dict[str, float]:
    """The per-layer metrics: loadgen and set-up from the first untraced
    run, layer costs from the traced run's spans, and the tracing
    overhead against the mean of the untraced runs before and after."""
    table = tracing.SpanTable.build(tracer.spans)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update({
        "latency_p99_ms": latency_p99_ms(untraced),
        "fail_frac": untraced.failed / max(untraced.attempted, 1),
        "loadgen.sent": float(untraced.attempted),
        "loadgen.ok": float(untraced.ok),
        "loadgen.failed": float(untraced.failed),
        "loadgen.repeat_text_frac": inputs.repeat_text_frac(untraced.texts),
        "setup.suite_s": np.median([s["suite"] for s in untraced.setups]),
        "setup.levels_s": np.median([s["levels"] for s in untraced.setups]),
        "setup.warm_s": np.median([s["warm"] for s in untraced.setups]),
    })
    metrics.update(tracing.layer_metrics(table, traced.ok, traced.op_keys))
    hits, misses = tracer.embedding_cache_counts()
    metrics["embedding.cache_hit_frac"] = (hits / (hits + misses)
                                           if hits + misses else 0.0)
    served = traced.served
    if served:
        queued = [row["queued_ms"] for row in served.values()]
        metrics["batcher.queue_ms_p50"] = np.median(queued)
        metrics["batcher.queue_ms_p99"] = np.percentile(queued, 99.0)
        submit_ms = {}
        for sid in table.of("gateway.submit"):
            extra = table.by_id[sid][5]
            if extra is not None:
                submit_ms[extra[0]] = table.inclusive_s(sid) * 1e3
        if submit_ms:
            metrics["gateway.submit_ms_p50"] = np.median(
                list(submit_ms.values()))
        metrics.update(tracing.request_breakdown(
            table, {trace_id: row["queued_ms"]
                    for trace_id, row in served.items()}))
        wire = [row["latency_ms"] - submit_ms[trace_id]
                for trace_id, row in served.items()
                if row["bytes"] and trace_id in submit_ms]
        if wire:
            metrics["http.wire_ms_p50"] = np.median(wire)
            metrics["http.resp_bytes_per_req"] = (
                sum(row["bytes"] for row in served.values()) / len(served))
    untraced_cpu = (cpu_ms_per_op(untraced) + cpu_ms_per_op(after)) / 2
    metrics["trace.overhead_frac"] = cpu_ms_per_op(traced) / untraced_cpu - 1.0
    return metrics


def _quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    if not values:
        return 0.0
    q1, mid, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return (q3 - q1) / abs(mid) if mid else 0.0


def _beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    return int(np.count_nonzero(np.asarray(values) > np.percentile(values, q)))


def lines(run, metrics: dict, units: dict) -> list[str]:
    """Human-readable report: each metric with its unit and sample count."""
    out = [f"== {run.workload}: {run.attempted} ops attempted, "
           f"{run.failed} failed (fail_frac "
           f"{run.failed / max(run.attempted, 1):.4g}); phases {run.phases}"]
    goodput, cpu = _window_rates(run)
    latencies = run.latencies_ms
    n = len(latencies)
    full = [block for block in run.latency_blocks
            if len(block) >= workloads.LATENCY_BLOCK]
    beyond = min((_beyond(block, 99.0) for block in full),
                 default=_beyond(latencies, 99.0) if latencies else 0)
    p25, p75 = np.percentile(latencies, [25, 75]) if latencies else (0.0, 0.0)
    setups = [setup["total"] for setup in run.setups]
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups, "
                    f"spread {_quartile_spread(setups):.1%}"),
        "goodput_per_s": (f"median of {len(goodput)} windows, "
                          f"spread {_quartile_spread(goodput):.1%}"),
        "cpu_ms_per_op": (f"median of {len(cpu)} windows, "
                          f"spread {_quartile_spread(cpu):.1%}"),
        "latency_p50_ms": (f"n={n}, median of {len(full)} blocks; p25-p75 "
                           f"{p25:.3f}-{p75:.3f} ms"),
        "latency_p90_ms": f"n={n}, median of {len(full)} blocks",
        "latency_p99_ms": (f"n={n}, lowest of {len(full)} blocks, >= "
                           f"{beyond} samples beyond p99 in each"),
    }
    for metric in ("success_rate", "prompt_tokens_per_op",
                   "edge_time_s_per_op", "edge_energy_j_per_op"):
        notes[metric] = f"exact, over {len(run.episodes)} ops"
    if "latency_p99_ms" not in metrics:
        # the unbounded tail is printed with the end-to-end metrics too
        metrics = {**metrics, "latency_p99_ms": latency_p99_ms(run)}
        units = {**units, "latency_p99_ms": "ms"}
    for name, value in metrics.items():
        note = notes.get(name, "")
        out.append(f"  {name:32s} {value:14.6g} {units[name]:7s} {note}")
    for problem in run.problems:
        out.append(f"  CHECK FAILED: {problem}")
    return out
