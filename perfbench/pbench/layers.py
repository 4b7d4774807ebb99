"""The layer boundaries the traced run wraps, and what it counts there.

Each entry names one public boundary of a layer; the span name's first
dotted part is the layer (``api``, ``engine``, ``models``, ``core``,
``search``, ``kernels``, ``serve``, ``net``, ``wal``, ``durability``,
``replica``).  :func:`install` wraps every boundary that exists in the
calling process; a boundary that is never called costs nothing.

A few boundaries are private methods because the served path bypasses
the public one: the TCP front end answers inline reads through
``MicroBatcher.submit_*`` and its own ``_handle``/``_send`` (never
``IndexServer.lookup``), and a batch is only visible as a whole in
``MicroBatcher._dispatch``.  A follower applies streamed records in
``ReplicaIndex._apply_push``.
"""

from __future__ import annotations

import time

from .tracer import Tracer, totals_by_name

#: layers whose self time makes up an embedded read (the ledger)
READ_LAYERS = ("api", "engine", "models", "core", "search", "kernels")


def _count(tracer: Tracer, key: str, amount=1):
    def hook(args, kwargs):
        tracer.counts[key] += amount(args) if callable(amount) else amount
    return hook


def install(tracer: Tracer) -> None:
    """Wrap every boundary of every layer in this process."""
    import repro.api as api
    import repro.core.corrected_index as corrected
    import repro.core.shift_table as shift_table
    import repro.engine.backends as backends
    import repro.engine.durability as durability
    import repro.engine.executor as executor
    import repro.engine.sharded as sharded
    import repro.engine.wal as wal
    import repro.kernels.dispatch as kdispatch
    import repro.models.base as models_base
    import repro.net.client as net_client
    import repro.net.protocol as protocol
    import repro.net.server as net_server
    import repro.replica.follower as follower
    import repro.replica.leader as leader
    import repro.search.batch  # noqa: F401  (bound by name below)
    import repro.serve.batcher as batcher
    import repro.serve.server as serve_server

    w = tracer.wrap
    # api
    w(api.Index, "lookup_many", "api.lookup_many")
    w(api.Index, "range_many", "api.range_many")
    tracer.wrap_function("repro.core.records", "coerce_query_array",
                         "api.coerce")
    # engine
    w(executor.BatchExecutor, "lookup_batch", "engine.lookup_batch",
      on_call=_count(tracer, "engine.lookup_calls"))
    w(executor.BatchExecutor, "range_batch", "engine.range_batch")
    w(sharded.ShardedIndex, "route_batch", "engine.route")
    for cls in (backends.StaticBackend, backends.GappedBackend,
                backends.FenwickBackend):
        w(cls, "lookup_batch", "engine.shard",
          on_call=_count(tracer, "engine.chunks"))
    w(sharded.ShardedIndex, "insert", "engine.insert")
    w(sharded.ShardedIndex, "delete", "engine.delete")
    # core / models / search / kernels
    w(corrected.CorrectedIndex, "lookup_batch_vectorized", "core.lookup",
      on_call=_count(tracer, "core.lookup_keys", lambda a: len(a[1])))
    w(shift_table.ShiftTable, "window_batch", "core.correct")
    for cls in _model_classes(models_base.CDFModel):
        w(cls, "predict_pos_batch", "models.predict")
    tracer.wrap_function("repro.search.batch", "validated_lower_bound_batch",
                         "search.local")
    w(kdispatch, "fused_lookup_batch", "kernels.fused")
    # serve
    _install_batcher(tracer, batcher.MicroBatcher)
    w(batcher.MicroBatcher, "drain", "serve.barrier")
    w(serve_server.IndexServer, "insert", "serve.write")
    w(serve_server.IndexServer, "delete", "serve.write")
    _install_requests(tracer, net_server.NetServer)
    # net: codec on either side of the socket (the process tells which)
    w(protocol.FrameDecoder, "feed", "net.decode",
      on_call=_count(tracer, "net.bytes_in", lambda a: len(a[1])))
    for module in (net_client, net_server):
        w(module, "encode_frame", "net.encode",
          on_span=lambda span, args, result: tracer.counts.update(
              {"net.bytes_out": len(result) if result else 0}))
    # wal / durability
    w(wal.WalWriter, "append", "wal.append")
    w(wal.WalWriter, "commit", "wal.commit")
    w(wal._Lane, "append", None,
      on_call=_count(tracer, "wal.bytes", lambda a: len(a[1])))
    w(durability.DurabilityManager, "checkpoint", "durability.checkpoint")
    # replica: leader side and follower side
    w(leader.SegmentShipper, "fetch", "replica.fetch")
    w(leader.WalStreamer, "tick", "replica.tick")
    tracer.wrap_function("repro.replica.follower", "follow",
                         "replica.follow")
    w(follower.ReplicaIndex, "wait_caught_up", "replica.wait")
    w(follower.ReplicaIndex, "_apply_push", "replica.apply")


def window_mean(engine) -> float:
    """Mean expected Shift-Table window over the shards that have one."""
    wins = [s.layer.expected_window() for s in engine.shards
            if s is not None and hasattr(s.layer, "expected_window")]
    return sum(wins) / len(wins) if wins else 0.0


def _model_classes(base) -> list[type]:
    """Every loaded model class that defines its own batch predict."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "predict_pos_batch" in vars(cls) and \
                not getattr(vars(cls)["predict_pos_batch"],
                            "__isabstractmethod__", False):
            out.append(cls)
    return out


def _install_batcher(tracer: Tracer, cls) -> None:
    """Queue wait per request and queries per batch, at the batcher."""
    submitted: dict[int, int] = {}

    def on_submit(span, args, fut):
        if fut is not None:
            submitted[id(fut)] = span[2]

    def on_dispatch(args, kwargs):
        batch = args[1]
        now = time.perf_counter_ns()
        tracer.counts["serve.batches"] += 1
        tracer.counts["serve.batched"] += len(batch)
        waits = tracer.samples["serve.queue_wait_ns"]
        for r in batch:
            t0 = submitted.pop(id(r.future), None)
            if t0 is not None:
                waits.append(now - t0)

    tracer.wrap(cls, "submit_lookup", None, on_span=on_submit)
    tracer.wrap(cls, "submit_range", None, on_span=on_submit)
    tracer.wrap(cls, "_dispatch", "serve.dispatch", on_call=on_dispatch)


def _install_requests(tracer: Tracer, cls) -> None:
    """Server-side request time: frame decoded until its answer is framed."""
    started: dict[tuple[int, object], int] = {}

    def on_handle(args, kwargs):
        _self, _cid, conn, _writer, msg = args[:5]
        if isinstance(msg, dict):
            started[(id(conn), msg.get("id"))] = time.perf_counter_ns()

    def on_send(span, args, result):
        conn, payload = args[1], args[3]
        t0 = started.pop((id(conn), payload.get("id")), None)
        if t0 is not None:
            tracer.samples["serve.request_ns"].append(span[3] - t0)

    tracer.wrap(cls, "_handle", None, on_call=on_handle)
    tracer.wrap(cls, "_send", None, on_span=on_send)


def summarize(tracer: Tracer) -> dict:
    """Everything the metric derivation needs, small enough to ship."""
    samples = {k: [float(sum(v)), len(v)] for k, v in tracer.samples.items()}
    return {
        "by_name": totals_by_name(tracer.spans),
        "counts": dict(tracer.counts),
        "samples": samples,
    }
