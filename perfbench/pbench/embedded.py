"""``embedded-read``: the paper's experiment, in process, closed loop.

One thread calls ``Index.lookup_many`` (90% of calls) or
``Index.range_many`` (10%) with 4096-query batches over 4M face64
surrogate keys.  Every answer is checked against ``np.searchsorted`` on
the same batch, and that oracle call is timed: it is the raw baseline.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from . import inputs, oracle
from .common import log, pct, peak_rss_mb, windowed_pct
from .layers import READ_LAYERS, install, summarize, window_mean
from .metrics import per_layer
from .tracer import Tracer, self_times

CONFIG = {
    "dataset": "face64",
    "keys": 4_000_000,
    "preset": "read_heavy",
    "batch": 4096,
    "range_share": 0.10,
    "range_span": 10,
    "pool": 96,
    "setups": 5,
}


def _measure(index, keys, batches, order, seconds: float):
    """Closed loop for ``seconds``; per-call program and oracle times."""
    prog_ns, raw_ns, is_lookup, wrong, calls = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter_ns
    while time.perf_counter() < deadline:
        batch = batches[order[calls % len(order)]]
        t0 = clock()
        if batch.kind == "lookup":
            got = index.lookup_many(batch.a)
        else:
            got = index.range_many(batch.a, batch.b)
        t1 = clock()
        want = oracle.batch_truth(keys, batch)
        t2 = clock()
        prog_ns.append(t1 - t0)
        raw_ns.append(t2 - t1)
        is_lookup.append(batch.kind == "lookup")
        wrong += not oracle.batch_ok(batch, got, want)
        calls += 1
    return (np.asarray(prog_ns), np.asarray(raw_ns), np.asarray(is_lookup),
            wrong, calls)


def _cost_model(index) -> float:
    """§3.9 predicted ns per key for this config, key-weighted over shards."""
    from repro.core.cost_model import latency_with_layer, measure_latency_curve
    from repro.core.shift_table import ShiftTable
    from repro.hardware.machine import MachineSpec

    total = weight = 0.0
    for shard in index.engine.shards:
        if shard is None or not isinstance(shard.layer, ShiftTable):
            continue
        curve = measure_latency_curve(shard.keys(), MachineSpec.paper())
        total += len(shard) * latency_with_layer(
            10.0, shard.layer.counts, curve)
        weight += len(shard)
    return total / weight if weight else 0.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import repro

    cfg = CONFIG
    keys = inputs.dataset(cfg["dataset"], cfg["keys"], seed)
    batches = inputs.embedded_batches(
        keys, seed, cfg["pool"], cfg["batch"], cfg["range_share"],
        cfg["range_span"])
    order = inputs.rng_for(seed, inputs.SAMPLE).permutation(len(batches))

    # The time of a call over a 32 MB array depends on where its pages
    # landed: on a VM one allocation runs up to 40% slower than the next,
    # while the run stays steady within one.  So every set-up builds over
    # its own copy of the keys, each is measured in turn, and the run
    # pools the calls of all of them.
    setups, runs, rss = [], [], 0.0
    tracer = Tracer()
    segment = seconds / cfg["setups"]
    held = []
    for _ in range(cfg["setups"]):
        own = keys.copy()
        gc.collect()
        t0 = time.perf_counter()
        index = repro.Index.build(own, cfg["preset"])
        setups.append(time.perf_counter() - t0)
        held.append((index, own))
        _measure(index, own, batches, order, 0.2)  # warm lazy state
        if not trace:
            runs.append(("plain",)
                        + _measure(index, own, batches, order, segment))
        else:
            runs.append(("plain",)
                        + _measure(index, own, batches, order, segment / 2))
            install(tracer)
            try:
                runs.append(("traced",) + _measure(
                    index, own, batches, order, segment / 2))
            finally:
                tracer.remove()
        if not rss:
            rss = peak_rss_mb()  # one index, before the next is built
    log(f"embedded-read: set-up {setups}")

    def pooled(kind):
        parts = [r[1:] for r in runs if r[0] == kind]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[2] for p in parts]),
                sum(p[3] for p in parts), sum(p[4] for p in parts))

    out = {"setup_s": statistics.median(setups)}
    prog, raw, lookups, wrong, calls = pooled("plain")
    if trace:
        t_prog, t_raw, _, t_wrong, t_calls = pooled("traced")
        wrong += t_wrong
        calls += t_calls
        out["traced"] = _traced(tracer, t_prog, t_raw, prog, index)
        out["traced"]["cost_model.predicted_ns_per_key"] = _cost_model(index)

    n = len(keys)
    out.update({
        "attempted": calls,
        "failed": wrong,
        "read_batch_us_p50": pct(prog, 50) / 1e3,
        "read_batch_us_p99": windowed_pct(prog, 99) / 1e3,
        # the headline pair times lookup_many calls alone: a range_many
        # call searches twice, and with 10% of calls being ranges the
        # p90 of all calls would sit on the seam between the two kinds
        "lookup_batch_us_p50": pct(prog[lookups], 50) / 1e3,
        "lookup_batch_us_p90": windowed_pct(prog[lookups], 90) / 1e3,
        "range_batch_us_p50": pct(prog[~lookups], 50) / 1e3,
        "rss_mb": rss,
        "fingerprint": {"dataset": cfg["dataset"], "keys": n,
                        "preset": cfg["preset"], "batch": cfg["batch"],
                        "range_share": cfg["range_share"]},
    })
    out["named"] = [
        ("setup_s", out["setup_s"], "s"),
        ("read_batch_us_p50", out["read_batch_us_p50"], "us"),
        ("read_batch_us_p99", out["read_batch_us_p99"], "us"),
        ("lookup_batch_us_p50", out["lookup_batch_us_p50"], "us"),
        ("lookup_batch_us_p90", out["lookup_batch_us_p90"], "us"),
        ("range_batch_us_p50", out["range_batch_us_p50"], "us"),
        ("index_bytes_per_key", index.engine.size_bytes() / n, "B"),
        ("rss_mb", out["rss_mb"], "MB"),
        ("calls", calls, "count"),
    ]
    out["vs_raw"] = [
        ("batch_us_p50", out["read_batch_us_p50"], pct(raw, 50) / 1e3, "us"),
        ("lookup_batch_us_p50", out["lookup_batch_us_p50"],
         pct(raw[lookups], 50) / 1e3, "us"),
        ("batch_us_p99", out["read_batch_us_p99"],
         windowed_pct(raw, 99) / 1e3, "us"),
    ]
    if trace:
        traced = out.pop("traced")
        extra = {k: v for k, v in traced.items() if "." in k}
        extra["raw.searchsorted_ns_per_key"] = float(
            np.sum(raw[lookups])) / max(1, int(lookups.sum()) * cfg["batch"])
        extra["core.window_mean"] = window_mean(index.engine)
        extra["engine.splits"] = index.engine.num_splits
        extra["engine.merges"] = index.engine.num_merges
        out["per_layer"] = per_layer(traced["summary"], None, extra)
        out["ledger"] = [
            f"ledger: traced call p50 {traced['traced_call_us_p50']:.1f} us; "
            "self time per call by layer (us): " + ", ".join(
                f"{k}={v:.1f}" for k, v in
                sorted(traced["ledger_us_per_call"].items())),
            f"ledger: layer self times cover "
            f"{100 * traced['trace.ledger_share']:.1f}% of the timed calls",
        ]
    for index, _ in held:
        index.close()
    return out


def _traced(tracer: Tracer, prog_ns, raw_ns, untraced_ns, index) -> dict:
    """Ledger of one traced phase: per-call self time by layer."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_layer: dict[str, int] = {}
    roots = 0
    for span in spans:
        layer = span[1].split(".")[0]
        if layer in READ_LAYERS:
            by_layer[layer] = by_layer.get(layer, 0) + selfs[span[0]]
        if span[4] is None and span[1].startswith("api."):
            roots += span[3] - span[2]
    calls = len(prog_ns)
    call_ns = float(np.sum(prog_ns))
    summary = summarize(tracer)
    return {
        "summary": summary,
        "ledger_us_per_call": {k: v / calls / 1e3 for k, v in by_layer.items()},
        "trace.ledger_share": sum(by_layer.values()) / call_ns,
        "trace.unattributed_share": 1.0 - roots / call_ns,
        "trace.overhead_pct": 100.0 * (pct(prog_ns, 50) / pct(untraced_ns, 50)
                                       - 1.0),
        "traced_call_us_p50": pct(prog_ns, 50) / 1e3,
        "calls": calls,
    }
