"""Summaries of measured samples and the per-layer metrics of a traced run.

:data:`LAYER_EFFECTS` records, for every per-layer metric, which
end-to-end metric it should move on which workloads.  A later change that
claims a gain on one layer names the metric here and the end-to-end
metric it expects to move.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BATCH_KERNEL",
    "LAYER_EFFECTS",
    "SERIAL_KERNEL",
    "high_percentile",
    "layer_metrics",
    "layer_shares",
    "summarize",
]

#: Batch simulation kernel stages (layer names of :data:`tracing.LAYERS`).
BATCH_KERNEL = (
    "te.step_batch",
    "te.measure_batch",
    "control.update_batch",
    "network.transmit_batch",
    "process.safety_batch",
    "process.disturbance",
)

#: Serial simulation kernel stages and the per-sample riders.
SERIAL_KERNEL = (
    "te.step",
    "control.update",
    "network.transmit",
    "process.safety",
    "process.record",
    "live.observe",
    "response.on_sample",
)

_CAMPAIGNS = ("campaign_cold", "campaign_warm", "response_loop")
_BATCH_KERNEL_EFFECT = (
    ("campaign_s", ("campaign_cold",)),
    ("setup_s", ("campaign_warm",)),
)
_DETECTION_EFFECT = (
    ("campaign_s", ("campaign_warm",)),
    ("gateway_p99_ms", ("gateway_soak",)),
)
_GATEWAY_EFFECT = (
    ("gateway_p50_ms", ("gateway_soak",)),
    ("gateway_p99_ms", ("gateway_soak",)),
    ("gateway_sustained_sps", ("gateway_soak",)),
    ("campaign_s", ("gateway_soak",)),
)

#: Per-layer metric -> ((end-to-end metric, workloads it should move on), ...).
LAYER_EFFECTS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    **{f"{stage}_s": _BATCH_KERNEL_EFFECT for stage in BATCH_KERNEL},
    **{f"{stage}_calls": _BATCH_KERNEL_EFFECT for stage in BATCH_KERNEL},
    "batch.run_specs_self_s": _BATCH_KERNEL_EFFECT,
    "batch.run_specs_calls": _BATCH_KERNEL_EFFECT,
    "batch.rows_per_step": _BATCH_KERNEL_EFFECT,
    **{f"{stage}_s": (("campaign_s", ("response_loop",)),) for stage in SERIAL_KERNEL},
    "te.step_calls": (("campaign_s", ("response_loop",)),),
    "response.actions": (("campaign_s", ("response_loop",)),),
    "engine.cache_load_s": (("campaign_s", ("campaign_warm",)),),
    "engine.cache_hit_ratio": (("campaign_s", ("campaign_warm", "campaign_cold")),),
    "engine.cache_store_s": (("campaign_s", ("campaign_cold",)),),
    "engine.cache_store_bytes": (("campaign_s", ("campaign_cold",)),),
    "api.calibrate_s": _DETECTION_EFFECT,
    "api.evaluate_s": _DETECTION_EFFECT,
    "mspc.fit_s": _DETECTION_EFFECT,
    "mspc.statistics_s": _DETECTION_EFFECT,
    "mspc.statistics_rows": _DETECTION_EFFECT,
    "mspc.omeda_s": _DETECTION_EFFECT,
    "mspc.omeda_calls": _DETECTION_EFFECT,
    "anomaly.analyze_s": _DETECTION_EFFECT,
    "gateway.feed_s": _GATEWAY_EFFECT,
    "gateway.flush_s": _GATEWAY_EFFECT,
    "gateway.rows_per_scoring_batch": _GATEWAY_EFFECT,
    "gateway.samples_rejected": _GATEWAY_EFFECT,
    "journal.append_s": _GATEWAY_EFFECT,
    "journal.appends": _GATEWAY_EFFECT,
    "gateway.client_feed_s": _GATEWAY_EFFECT,
    "gateway.sync_rtt_ms": _GATEWAY_EFFECT,
    # Open-loop gateway ladder, measured with tracing off inside the traced run.
    "gateway_p50_ms": (("campaign_s", ("gateway_soak",)),),
    "gateway_p99_ms": (("campaign_s", ("gateway_soak",)),),
    "gateway_sustained_sps": (("campaign_s", ("gateway_soak",)),),
    "gateway_send_lag_p99_ms": (("campaign_s", ("gateway_soak",)),),
    "failed_frac": (("campaign_s", _CAMPAIGNS + ("gateway_soak",)),),
    "trace_overhead_frac": (("campaign_s", _CAMPAIGNS + ("gateway_soak",)),),
}


def high_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when there are fewer than
    twenty samples.
    """
    ordered = sorted(values)
    for percentile in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - percentile) / 100.0 >= 10:
            rank = percentile / 100.0 * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
            return percentile, value
    return None


def summarize(name: str, values: Sequence[float], unit: str) -> str:
    """One line: the median, the highest percentile with >=10 beyond, and n."""
    line = f"{name}: median {statistics.median(values):.6g} {unit}"
    tail = high_percentile(values)
    if tail is not None:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line + f", n={len(values)}"


def _per(value: float, n_passes: int) -> float:
    return float(value) / n_passes


def layer_metrics(snapshot: Dict[str, Dict[str, float]], n_passes: int) -> Dict[str, float]:
    """Per-pass per-layer metrics from a :meth:`tracing.Tracer.snapshot`.

    Times are self times in seconds per pass; ``*_calls`` are calls per
    pass.  The gateway ladder metrics, ``failed_frac`` and
    ``trace_overhead_frac`` are not in a snapshot, and the gateway's
    scoring-batch and rejection figures come from its server process:
    ``run.py`` and the workload add or override them.
    """
    n_passes = max(1, int(n_passes))
    calls = snapshot.get("calls", {})
    self_time = snapshot.get("self_time", {})
    total = snapshot.get("total", {})
    counts = snapshot.get("counts", {})
    metrics: Dict[str, float] = {}
    for stage in BATCH_KERNEL:
        metrics[f"{stage}_s"] = _per(self_time.get(stage, 0.0), n_passes)
        metrics[f"{stage}_calls"] = _per(calls.get(stage, 0), n_passes)
    metrics["batch.run_specs_self_s"] = _per(self_time.get("batch.run_specs", 0.0), n_passes)
    metrics["batch.run_specs_calls"] = _per(calls.get("batch.run_specs", 0), n_passes)
    steps = calls.get("te.step_batch", 0)
    metrics["batch.rows_per_step"] = (
        counts.get("te.step_batch.rows", 0.0) / steps if steps else 0.0
    )
    for stage in SERIAL_KERNEL:
        metrics[f"{stage}_s"] = _per(self_time.get(stage, 0.0), n_passes)
    metrics["te.step_calls"] = _per(calls.get("te.step", 0), n_passes)
    metrics["response.actions"] = _per(calls.get("response.action", 0), n_passes)

    hits = calls.get("engine.cache_load", 0)
    misses = calls.get("engine.cache_store", 0)
    metrics["engine.cache_load_s"] = _per(self_time.get("engine.cache_load", 0.0), n_passes)
    metrics["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["engine.cache_store_s"] = _per(self_time.get("engine.cache_store", 0.0), n_passes)
    metrics["engine.cache_store_bytes"] = _per(
        counts.get("engine.cache_store.bytes", 0.0), n_passes
    )

    for layer in ("api.calibrate", "api.evaluate", "mspc.fit", "mspc.statistics",
                  "mspc.omeda", "anomaly.analyze"):
        metrics[f"{layer}_s"] = _per(self_time.get(layer, 0.0), n_passes)
    metrics["mspc.statistics_rows"] = _per(counts.get("mspc.statistics.rows", 0.0), n_passes)
    metrics["mspc.omeda_calls"] = _per(calls.get("mspc.omeda", 0), n_passes)

    for layer in ("gateway.feed", "gateway.flush", "journal.append", "gateway.client_feed"):
        metrics[f"{layer}_s"] = _per(self_time.get(layer, 0.0), n_passes)
    metrics["journal.appends"] = _per(calls.get("journal.append", 0), n_passes)
    syncs = calls.get("gateway.sync", 0)
    metrics["gateway.sync_rtt_ms"] = (
        1000.0 * total.get("gateway.sync", 0.0) / syncs if syncs else 0.0
    )
    metrics["gateway.rows_per_scoring_batch"] = 0.0
    metrics["gateway.samples_rejected"] = 0.0
    return metrics


def layer_shares(snapshot: Dict[str, Dict[str, float]], wall_seconds: float) -> List[str]:
    """Lines of each layer's self time and its share of the traced wall time.

    Spans on concurrent threads (the gateway's connections and handlers)
    overlap in wall time, so shares there can add up to more than 100 %.
    """
    self_time = snapshot.get("self_time", {})
    calls = snapshot.get("calls", {})
    lines = [f"{'layer':<24} {'calls':>10} {'self_s':>10} {'share':>7}"]
    covered = 0.0
    for layer, seconds in sorted(self_time.items(), key=lambda item: -item[1]):
        covered += seconds
        share = seconds / wall_seconds if wall_seconds > 0 else 0.0
        lines.append(
            f"{layer:<24} {int(calls.get(layer, 0)):>10} {seconds:>10.4f} {share:>6.1%}"
        )
    rest = max(0.0, wall_seconds - covered)
    share = rest / wall_seconds if wall_seconds > 0 else 0.0
    lines.append(f"{'(outside the layers)':<24} {'':>10} {rest:>10.4f} {share:>6.1%}")
    return lines
