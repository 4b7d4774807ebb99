"""``replica-sync``: ship -> stream -> apply, the replica tier end to end.

The leader process (``launch.py``, role ``leader``) holds a durable 1M-key
face64 index with a fixed backlog of WAL records past its last
checkpoint.  Each cycle this process calls ``repro.replica.follow()``
into an empty directory and waits until the follower caught up (a full
sync), then sends a fixed burst of writes to the leader on a schedule
and times each write from its durable ack at the leader until the
follower applied it (the replica lag; the time from when it was due is
printed too).  Before the next cycle the leader checkpoints and writes the next
backlog, so every cycle replays the same number of records.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from . import inputs, oracle
from .common import OUT_DIR, log, paced, pct, peak_rss_mb, windowed_pct
from .inputs import INSERT
from .layers import install, summarize
from .metrics import per_layer
from .proc import Launched
from .tracer import Tracer, covered_ns

CONFIG = {
    "dataset": "face64",
    "keys": 1_000_000,
    "preset": "mixed",
    "config": {"durability": "group"},
    "backlog": 5000,
    "burst": 1000,
    "burst_rate": 500,
    "max_cycles": 12,
    "setups": 3,
}


def plans(keys: np.ndarray, seed: int, cycles: int):
    """Backlog and burst write plans of every cycle, one history."""
    rng = inputs.rng_for(seed, inputs.WRITES)
    live = keys.tolist()
    taken = set(live)
    top = int(keys[-1])
    backlogs, bursts = [], []
    for _ in range(cycles):
        backlogs.append(inputs.plan_writes(rng, live, CONFIG["backlog"], top,
                                           taken))
        bursts.append(inputs.plan_writes(rng, live, CONFIG["burst"], top,
                                         taken))
    return backlogs, bursts


class Visibility:
    """When each LSN became readable on the follower.

    Hooks ``ReplicaIndex._apply_push`` (the follower's apply boundary)
    and records ``(time, applied_lsn)`` after every applied push.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.lsns: list[int] = []
        self.tracer = Tracer()

    def __enter__(self):
        from repro.replica.follower import ReplicaIndex

        def on_span(span, args, result):
            self.times.append(span[3] / 1e9)
            self.lsns.append(args[0].applied_lsn)

        self.tracer.wrap(ReplicaIndex, "_apply_push", None, on_span=on_span)
        return self

    def __exit__(self, *exc):
        self.tracer.remove()

    def visible_at(self, lsn: int) -> float:
        i = int(np.searchsorted(np.asarray(self.lsns), lsn, side="left"))
        return self.times[i] if i < len(self.times) else np.inf


async def _burst(client, writes, rate: float):
    """Open-loop writes on one connection; (due, sent, acked, ok)."""
    n = len(writes)
    due = np.zeros(n)
    sent = np.zeros(n)
    acked = np.full(n, np.inf)
    ok = np.zeros(n, dtype=bool)

    async def one(i, t_due):
        op, key = writes[i]
        due[i] = t_due
        sent[i] = time.perf_counter()
        try:
            if op == INSERT:
                await client.insert(key)
            else:
                await client.delete(key)
            ok[i] = True
        except Exception:  # counted as a failure by the caller
            pass
        acked[i] = time.perf_counter()

    tasks = await paced(n, rate, one)
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=60)
    return due, sent, acked, ok


async def _cycle(c: int, client, repl_addr, oracle_keys, burst,
                 seed: int) -> dict:
    from repro.replica import follow

    root = tempfile.mkdtemp(prefix="replica-", dir=OUT_DIR)
    try:
        with Visibility() as vis:
            t0 = time.perf_counter()
            replica = await follow(repl_addr, os.path.join(root, "r"))
            t_follow = time.perf_counter()
            caught = await replica.wait_caught_up(timeout=120)
            t_caught = time.perf_counter()
            try:
                due, sent, acked, ok = await _burst(
                    client, burst, CONFIG["burst_rate"])
                last = caught + len(burst)
                await replica.wait_for_lsn(last, timeout=120)
                visible = np.array([vis.visible_at(caught + i + 1)
                                    for i in range(len(burst))])
                wrong = oracle.check_replica(
                    replica, oracle_keys,
                    inputs.rng_for(seed + c, inputs.SAMPLE))
                bytes_synced = replica.bytes_synced
            finally:
                await replica.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "sync_s": t_caught - t0,
        "ship_s": t_follow - t0,
        "replay_s": t_caught - t_follow,
        "head_lsn": caught,
        "bytes_synced": bytes_synced,
        "visible_us": (visible - due) * 1e6,
        "ack_us": (acked - due) * 1e6,
        "lag_us": (visible - acked) * 1e6,
        "catchup_s": visible[-1] - acked[-1],
        "stream_s": visible[-1] - due[0],
        "failed": int((~ok).sum()) + wrong,
        "attempted": len(burst) + 1,
        "late_us": (sent - due) * 1e6,
        "window": (int(t0 * 1e9), int(t_caught * 1e9)),
    }


async def _drive(seed: int, seconds: float, trace: bool) -> dict:
    from repro.net import Client

    cfg = CONFIG
    keys = inputs.dataset(cfg["dataset"], cfg["keys"], seed)
    backlogs, bursts = plans(keys, seed, cfg["max_cycles"])
    leader_inputs = {"keys": keys}
    for c, plan in enumerate(backlogs):
        leader_inputs[f"backlog_ops_{c}"] = np.array(
            [op for op, _ in plan], dtype=np.int8)
        leader_inputs[f"backlog_keys_{c}"] = np.array(
            [k for _, k in plan], dtype=np.uint64)
    spec = {"role": "leader", "preset": cfg["preset"],
            "config": cfg["config"], "serve": {}, "durable": True,
            "setups": cfg["setups"]}
    results = []
    history = []
    tracer = Tracer()
    os.makedirs(OUT_DIR, exist_ok=True)
    async with Launched(spec, leader_inputs) as leader:
        log(f"replica-sync: set-up {leader.ready['setup_s']}")
        repl_addr = ("127.0.0.1", leader.ready["repl_port"])
        client = Client("127.0.0.1", leader.ready["port"], timeout=30.0)
        await client.connect()
        try:
            deadline = time.perf_counter() + seconds
            c = 0
            while c < cfg["max_cycles"] and (
                    c < 2 or time.perf_counter() < deadline):
                traced = trace and c == 1
                if traced:
                    # the leader's checkpoint before the backlog is traced
                    await leader.command("trace", on=True)
                    install(tracer)
                if c:
                    await leader.command("cycle", c=c, timeout=120)
                history += backlogs[c] + bursts[c]
                results.append(await _cycle(
                    c, client, repl_addr, inputs.apply_writes(keys, history),
                    bursts[c], seed))
                if traced:
                    tracer.remove()
                    report = await leader.command("report")
                    await leader.command("trace", on=False)
                c += 1
            if not trace:
                report = await leader.command("report")
        finally:
            tracer.remove()
            await client.close()
    return _record(results, report, tracer, trace, leader.ready, len(keys))


def _record(results, report, tracer, trace, ready, n) -> dict:
    cfg = CONFIG
    # cycle 1 is the traced one in a traced run; cycle 0 stays untraced
    timed = results[:1] if trace else results
    visible = np.concatenate([r["visible_us"] for r in timed])
    acks = np.concatenate([r["ack_us"] for r in timed])
    lags = np.concatenate([r["lag_us"] for r in timed])
    out = {
        "setup_s": statistics.median(ready["setup_s"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "replica_write_visible_us_p50": pct(visible, 50),
        "replica_write_visible_us_p90": windowed_pct(visible, 90),
        "replica_lag_us_p50": pct(lags, 50),
        "replica_lag_us_p90": windowed_pct(lags, 90),
        "replica_write_visible_us_p99": windowed_pct(visible, 99),
        "replica_sync_s": statistics.median(r["sync_s"] for r in timed),
        "replica_catchup_s": statistics.median(r["catchup_s"] for r in timed),
        "rss_mb": report["rss_mb"],
        "cycles": len(results),
        "fingerprint": {"dataset": cfg["dataset"], "keys": n,
                        "preset": cfg["preset"], "backlog": cfg["backlog"],
                        "burst": cfg["burst"],
                        "burst_rate": cfg["burst_rate"]},
    }
    out["named"] = [
        ("setup_s", out["setup_s"], "s"),
        ("replica_sync_s", out["replica_sync_s"], "s"),
        ("replica_catchup_s", out["replica_catchup_s"], "s"),
        ("replica_lag_us_p50", out["replica_lag_us_p50"], "us"),
        ("replica_lag_us_p90", out["replica_lag_us_p90"], "us"),
        ("replica_lag_us_p99", windowed_pct(lags, 99), "us"),
        ("write_visible_us_p50", out["replica_write_visible_us_p50"], "us"),
        ("write_visible_us_p90", out["replica_write_visible_us_p90"], "us"),
        ("write_visible_us_p99", out["replica_write_visible_us_p99"], "us"),
        ("leader write ack_us p50/p90",
         f"{pct(acks, 50):.0f}/{windowed_pct(acks, 90):.0f}", "us"),
        ("rss_mb (leader)", out["rss_mb"], "MB"),
        ("follower rss_mb (this process)", peak_rss_mb(), "MB"),
        ("cycles", len(results), "count"),
        ("ship_mb", statistics.median(r["bytes_synced"] for r in timed) / 1e6,
         "MB"),
    ]
    if trace:
        t = results[1]
        window = t["window"]
        covered = covered_ns(
            [(s[2], s[3]) for s in tracer.spans
             if s[1] not in ("replica.follow", "replica.wait")],
            *window)
        extra = {
            "replica.ship_s": t["ship_s"],
            "replica.ship_mb_per_s": t["bytes_synced"] / 1e6 / t["ship_s"],
            "replica.replay_records_per_s": cfg["backlog"] / t["replay_s"],
            "replica.stream_records_per_s": cfg["burst"] / t["stream_s"],
            "gen.late_us_p50": pct(t["late_us"], 50),
            "gen.late_us_p99": pct(t["late_us"], 99),
            "trace.unattributed_share": 1.0 - covered / (window[1]
                                                         - window[0]),
            "trace.overhead_pct": 100.0 * (t["sync_s"] / results[0]["sync_s"]
                                           - 1.0),
            "engine.splits": report["splits"],
            "engine.merges": report["merges"],
            "core.window_mean": report["window_mean"],
            # the traced cycle logs its backlog and its burst
            "acked_writes": cfg["backlog"] + cfg["burst"],
        }
        out["per_layer"] = per_layer(report["summary"], summarize(tracer),
                                     extra)
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return asyncio.run(_drive(seed, seconds, trace))
