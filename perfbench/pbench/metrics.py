"""Metric names, units and how each is derived from a workload's record.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a self-test
keeps them equal).  The end-to-end metrics are generic so that every
workload reports every one of them; ``HEADLINE`` says what the
``p50_us``/``p90_us`` pair times on each workload.  The workload tables
also print each workload's own named metrics (``read_batch_us_p50``,
``write_us_p99``, ``replica_sync_s`` …).

Per-layer time metrics (``*_us``) are mean microseconds per call of
the boundary.  A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("rss_mb", "MB"),
)

#: what the headline latency pair times, per workload
HEADLINE = {
    "embedded-read": "lookup_batch_us",
    "served-read": "read_us",
    "served-mixed": "request_us",
    "replica-sync": "replica_lag_us",
}

PER_LAYER = (
    ("api.coerce_us", "us"),
    ("engine.route_us", "us"),
    ("engine.executor_self_us", "us"),
    ("engine.chunks_per_call", "count"),
    ("engine.insert_us", "us"),
    ("engine.delete_us", "us"),
    ("engine.splits", "count"),
    ("engine.merges", "count"),
    ("models.predict_us", "us"),
    ("core.correct_us", "us"),
    ("search.local_search_us", "us"),
    ("kernels.dispatch_us", "us"),
    ("core.window_mean", "count"),
    ("core.lookup_ns_per_key", "ns"),
    ("cost_model.predicted_ns_per_key", "ns"),
    ("cost_model.ratio", "ratio"),
    ("raw.searchsorted_ns_per_key", "ns"),
    ("serve.request_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_rate", "share"),
    ("serve.barrier_us", "us"),
    ("serve.write_us", "us"),
    ("raw.engine_us_per_request", "us"),
    ("net.client_encode_us", "us"),
    ("net.client_decode_us", "us"),
    ("net.server_decode_us", "us"),
    ("net.server_encode_us", "us"),
    ("net.bytes_per_request", "B"),
    ("net.unattributed_us", "us"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.records_per_commit", "count"),
    ("wal.bytes_per_write", "B"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.checkpoints", "count"),
    ("replica.ship_s", "s"),
    ("replica.ship_mb_per_s", "MB/s"),
    ("replica.replay_records_per_s", "1/s"),
    ("replica.stream_records_per_s", "1/s"),
    ("replica.fetch_us", "us"),
    ("replica.tick_us", "us"),
    ("gen.late_us_p50", "us"),
    ("gen.late_us_p99", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "share"),
    ("trace.ledger_share", "share"),
)


def mean_us(summary: dict | None, name: str, field: str = "total_ns") -> float:
    """Mean microseconds per call of span ``name`` (0 when never called)."""
    if not summary:
        return 0.0
    row = summary["by_name"].get(name)
    if not row or not row["calls"]:
        return 0.0
    return row[field] / row["calls"] / 1e3


def calls(summary: dict | None, name: str) -> int:
    if not summary:
        return 0
    row = summary["by_name"].get(name)
    return int(row["calls"]) if row else 0


def total_ns(summary: dict | None, name: str) -> float:
    if not summary:
        return 0.0
    row = summary["by_name"].get(name)
    return float(row["total_ns"]) if row else 0.0


def count(summary: dict | None, name: str) -> float:
    return float(summary["counts"].get(name, 0)) if summary else 0.0


def sample_mean(summary: dict | None, name: str) -> float:
    if not summary or name not in summary["samples"]:
        return 0.0
    total, n = summary["samples"][name]
    return total / n if n else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(engine: dict | None, client: dict | None,
              extra: dict) -> dict[str, float]:
    """Every per-layer metric from two span summaries plus workload extras.

    ``engine`` is the summary of the process that holds the index (the
    benchmark itself for ``embedded-read``, the server or leader
    otherwise); ``client`` is the benchmark process when that is a
    separate one (generator, follower).  ``extra`` carries what the
    workload measured itself (raw baselines, replica timings, lateness).
    """
    e, c = engine, client
    out = {name: 0.0 for name, _ in PER_LAYER}
    lookup_calls = count(e, "engine.lookup_calls")
    out.update({
        "api.coerce_us": mean_us(e, "api.coerce"),
        "engine.route_us": mean_us(e, "engine.route"),
        "engine.executor_self_us": mean_us(e, "engine.lookup_batch",
                                           "self_ns"),
        "engine.chunks_per_call": _ratio(count(e, "engine.chunks"),
                                         lookup_calls),
        "engine.insert_us": mean_us(e, "engine.insert"),
        "engine.delete_us": mean_us(e, "engine.delete"),
        "models.predict_us": mean_us(e, "models.predict"),
        "core.correct_us": mean_us(e, "core.correct"),
        "search.local_search_us": mean_us(e, "search.local"),
        "kernels.dispatch_us": mean_us(e, "kernels.fused"),
        "core.lookup_ns_per_key": _ratio(total_ns(e, "core.lookup"),
                                         count(e, "core.lookup_keys")),
        "serve.request_us": sample_mean(e, "serve.request_ns") / 1e3,
        "serve.queue_wait_us": sample_mean(e, "serve.queue_wait_ns") / 1e3,
        "serve.batch_size_mean": _ratio(count(e, "serve.batched"),
                                        count(e, "serve.batches")),
        "serve.barrier_us": mean_us(e, "serve.barrier"),
        "serve.write_us": mean_us(e, "serve.write"),
        "net.server_decode_us": mean_us(e, "net.decode"),
        "net.server_encode_us": mean_us(e, "net.encode"),
        "wal.append_us": mean_us(e, "wal.append"),
        "wal.commit_us": mean_us(e, "wal.commit"),
        "wal.records_per_commit": _ratio(calls(e, "wal.append"),
                                         calls(e, "wal.commit")),
        "durability.checkpoint_ms": mean_us(e, "durability.checkpoint") / 1e3,
        "durability.checkpoints": float(calls(e, "durability.checkpoint")),
        "replica.fetch_us": mean_us(e, "replica.fetch"),
        "replica.tick_us": mean_us(e, "replica.tick"),
    })
    if c is not None:
        out["net.client_encode_us"] = mean_us(c, "net.encode")
        out["net.client_decode_us"] = mean_us(c, "net.decode")
    requests = extra.get("requests", 0)
    if requests and c is not None:
        client_bytes = count(c, "net.bytes_in") + count(c, "net.bytes_out")
        out["net.bytes_per_request"] = client_bytes / requests
        codec_us = (total_ns(c, "net.encode") + total_ns(c, "net.decode")) \
            / requests / 1e3
        out["net.unattributed_us"] = (
            extra["latency_us_mean"] - extra["late_us_mean"] - codec_us
            - out["serve.request_us"])
        out["trace.unattributed_share"] = max(0.0, _ratio(
            out["net.unattributed_us"], extra["latency_us_mean"]))
    writes = extra.get("acked_writes", 0)
    if writes:
        out["wal.bytes_per_write"] = count(e, "wal.bytes") / writes
    for name in out:
        if name in extra:
            out[name] = float(extra[name])
    if out["core.lookup_ns_per_key"]:
        out["cost_model.ratio"] = _ratio(
            out["cost_model.predicted_ns_per_key"],
            out["core.lookup_ns_per_key"])
    return out


_READ_PATH = (
    "api.coerce_us", "engine.route_us", "engine.executor_self_us",
    "engine.chunks_per_call", "models.predict_us", "core.correct_us",
    "search.local_search_us", "kernels.dispatch_us", "core.window_mean",
    "core.lookup_ns_per_key",
)
_NET = (
    "net.client_encode_us", "net.client_decode_us", "net.server_decode_us",
    "net.server_encode_us", "net.bytes_per_request", "net.unattributed_us",
    "serve.request_us", "gen.late_us_p50", "gen.late_us_p99",
    "trace.unattributed_share",
)
_WRITE_PATH = (
    "engine.insert_us", "engine.delete_us", "serve.write_us",
    "serve.barrier_us", "wal.append_us", "wal.commit_us",
    "wal.records_per_commit", "wal.bytes_per_write",
)

#: per-layer metrics that must be nonzero on each workload: the layer
#: behind each of them runs there
RUNS_ON = {
    "embedded-read": _READ_PATH + (
        "cost_model.predicted_ns_per_key", "cost_model.ratio",
        "raw.searchsorted_ns_per_key", "trace.ledger_share"),
    "served-read": _READ_PATH + _NET + (
        "serve.queue_wait_us", "serve.batch_size_mean",
        "serve.cache_hit_rate", "raw.engine_us_per_request"),
    "served-mixed": _READ_PATH + _NET + _WRITE_PATH + (
        "serve.queue_wait_us", "serve.batch_size_mean",
        "durability.checkpoint_ms", "durability.checkpoints"),
    "replica-sync": _WRITE_PATH + (
        "replica.ship_s", "replica.ship_mb_per_s",
        "replica.replay_records_per_s", "replica.stream_records_per_s",
        "replica.fetch_us", "replica.tick_us", "durability.checkpoint_ms",
        "durability.checkpoints", "gen.late_us_p50",
        "gen.late_us_p99", "trace.unattributed_share"),
}
