"""``served-read`` and ``served-mixed``: open-loop load over TCP.

The server runs in its own process (``launch.py``: ``Index.serve(addr=
...)``, inline reads, no workers).  The generator is a segment process
(``segment.py``): one asyncio thread, at most two connections, requests
sent on a fixed schedule at a ladder of three rates.  Each request is
timed from when it was due, not from when it left, and how late the
generator ran is reported per rung.  Writes travel on their own
connection, so the server applies them in send order and the oracle
can follow them.  :func:`run` pools several segments into one result.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from . import inputs, oracle
from .common import OUT_DIR, log, paced, pct, windowed_pct
from .inputs import DELETE, INSERT, LOOKUP, RANGE, RANGE_KEYS
from .layers import install, summarize
from .metrics import per_layer
from .proc import Launched
from .tracer import REQUEST_ID, Tracer

CONFIG = {
    "served-read": {
        "dataset": "face64",
        "keys": 200_000,
        "preset": "read_heavy",
        "config": {"num_shards": 8},
        "serve": {},
        "durable": False,
        "rates": (500, 1500, 3000),
        "zipf_s": 1.2,
        "write_share": 0.0,
        "mix": (85, 10, 5),
        "scan_keys": 10,
        # p99 limit for max_ok_rate, set from the measured low-rung p99
        "p99_limit_us": 10000,
    },
    "served-mixed": {
        "dataset": "osmc64",
        "keys": 200_000,
        "preset": "mixed",
        "config": {"durability": "group"},
        "serve": {"checkpoint_interval": 1.0},
        "durable": True,
        "rates": (300, 700, 1100),
        "zipf_s": None,
        "write_share": 0.20,
        "mix": (85, 10, 5),
        "scan_keys": 10,
        "p99_limit_us": 20000,
    },
}

#: share of the measured seconds per rung; the middle rung is the load
#: point behind the headline numbers, so it gets the most samples
RUNG_SHARES = (0.25, 0.5, 0.25)
LOAD_POINT = 1
WARMUP_S = 0.5
#: each rung first runs this long at its rate unmeasured: latency after
#: a rate change settles within a few hundred milliseconds on a 2-vCPU VM
LEAD_IN_S = 0.5
#: a rung whose generator ran later than this at p99 is invalid
LATE_LIMIT_US = 5000.0
SETUPS = 3
#: each untraced run spreads its time over this many fresh server and
#: generator processes: on a VM one process can run 20% slower than the
#: next for its whole life, so one process per run makes runs disagree
SEGMENTS = 3
#: the generator and the server each get a vCPU of their own
GENERATOR_CPU, SERVER_CPU = (0, 1) if (os.cpu_count() or 1) >= 2 else (
    None, None)
SEGMENT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "segment.py")


class Rung:
    """Schedule, answers and timings of one fixed-rate phase."""

    def __init__(self, label: str, rate: float, stream: inputs.Stream,
                 lead_in: int = 0):
        n = len(stream)
        self.label = label
        #: leading requests left out of the rung's statistics
        self.lead_in = lead_in
        self.rate = rate
        self.stream = stream
        self.sent = np.full(n, np.inf)
        self.done = np.full(n, np.inf)
        self.due = np.zeros(n)
        self.ok = np.zeros(n, dtype=bool)
        self.answers: list = [None] * n
        self.inflight_at_end = 0
        self.cache_hit_rate = 0.0


async def _one(rung: Rung, i: int, due: float, read_conns, write_conn):
    REQUEST_ID.set(i)
    op = int(rung.stream.op[i])
    a = int(rung.stream.a[i])
    b = int(rung.stream.b[i])
    rung.due[i] = due
    rung.sent[i] = time.perf_counter()
    try:
        if op == LOOKUP:
            ans = await read_conns[i % len(read_conns)].lookup(a)
        elif op == RANGE:
            ans = await read_conns[i % len(read_conns)].range(a, b)
        elif op == RANGE_KEYS:
            ans = await read_conns[i % len(read_conns)].range_keys(a, b)
        elif op == INSERT:
            ans = await write_conn.insert(a)
        else:
            ans = await write_conn.delete(a)
        rung.answers[i] = ans
        rung.ok[i] = True
    except Exception as exc:  # counted as a failure, reported below
        rung.answers[i] = exc
    rung.done[i] = time.perf_counter()


async def run_rung(rung: Rung, read_conns, write_conn) -> None:
    """Send the rung's stream on its schedule; wait for every answer."""
    tasks = await paced(
        len(rung.stream), rung.rate,
        lambda i, due: _one(rung, i, due, read_conns, write_conn))
    rung.inflight_at_end = sum(1 for t in tasks if not t.done())
    await asyncio.wait_for(asyncio.gather(*tasks), timeout=60)


def rung_samples(rung: Rung) -> dict:
    """What the combined statistics need from one rung of one segment."""
    st = rung.stream
    k = rung.lead_in
    lat = (rung.done[k:] - rung.due[k:]) * 1e6
    late = (rung.sent[k:] - rung.due[k:]) * 1e6
    ok = rung.ok[k:]
    is_write = (st.op[k:] == INSERT) | (st.op[k:] == DELETE)
    return {
        "label": rung.label,
        "rate": rung.rate,
        "requests": len(st),
        "failed": int((~rung.ok).sum()),
        "read_us": lat[ok & ~is_write],
        "write_us": lat[ok & is_write],
        "all_us": lat[ok],
        "late_us": late,
        "inflight_at_end": rung.inflight_at_end,
        "cache_hit_rate": rung.cache_hit_rate,
    }


def rung_summary(parts: list[dict], p99_limit_us: float) -> dict:
    """Latency from due, lateness and validity of one rung over segments."""
    def cat(key):
        return np.concatenate([p[key] for p in parts])

    rate = parts[0]["rate"]
    late = cat("late_us")
    all_us = cat("all_us")
    backlog = any(p["inflight_at_end"] > max(8.0, rate * p99_limit_us / 1e6)
                  for p in parts)
    failed = sum(p["failed"] for p in parts)
    valid = pct(late, 99) <= LATE_LIMIT_US
    p99_all = windowed_pct(all_us, 99)
    return {
        "rate": rate,
        "requests": sum(p["requests"] for p in parts),
        "failed": failed,
        "read_us_p50": pct(cat("read_us"), 50),
        "read_us_p99": windowed_pct(cat("read_us"), 99),
        "write_us_p50": pct(cat("write_us"), 50),
        "write_us_p99": windowed_pct(cat("write_us"), 99),
        "request_us_p50": pct(all_us, 50),
        "request_us_p99": p99_all,
        "read_us_p90": windowed_pct(cat("read_us"), 90),
        "write_us_p90": windowed_pct(cat("write_us"), 90),
        "request_us_p90": windowed_pct(all_us, 90),
        "late_us_p50": pct(late, 50),
        "late_us_p99": pct(late, 99),
        "valid": bool(valid),
        "meets_limit": bool(valid and not backlog and failed == 0
                            and p99_all <= p99_limit_us),
        "latency_us_mean": float(np.mean(all_us)) if len(all_us) else 0.0,
        "late_us_mean": float(np.mean(late)) if len(late) else 0.0,
        "writes_acked": int(sum(len(p["write_us"]) for p in parts)),
        "cache_hit_rate": float(np.mean([p["cache_hit_rate"]
                                         for p in parts])),
    }


def verify(base: np.ndarray, rungs: list[Rung]) -> int:
    """Wrong answers across all rungs (writes in send order)."""
    writes, acked, sent, reads = [], [], [], []
    for rung in rungs:
        st = rung.stream
        for i in range(len(st)):
            op = int(st.op[i])
            if op in (INSERT, DELETE):
                writes.append((op, int(st.a[i])))
                acked.append(rung.done[i] if rung.ok[i] else np.inf)
                sent.append(rung.sent[i])
            elif rung.ok[i]:
                reads.append((op, int(st.a[i]), int(st.b[i]), rung.sent[i],
                              rung.done[i], rung.answers[i]))
    return oracle.check_served(base, writes, np.asarray(acked),
                               np.asarray(sent), reads)


def raw_engine_us(keys: np.ndarray, preset: str, config: dict,
                  stream: inputs.Stream, limit: int = 3000) -> float:
    """Median in-process facade time per request on the same reads."""
    import repro

    index = repro.Index.build(keys, preset, **config)
    times = []
    clock = time.perf_counter_ns
    for i in range(min(limit, len(stream))):
        op, a, b = int(stream.op[i]), stream.a[i:i + 1], stream.b[i:i + 1]
        t0 = clock()
        if op == LOOKUP:
            index.lookup_many(a)
        elif op == RANGE:
            index.range_many(a, b)
        elif op == RANGE_KEYS:
            index.scan_many(a, b)
        else:
            continue
        times.append(clock() - t0)
    index.close()
    return pct(times, 50) / 1e3


async def _cache_counts(client) -> tuple[float, float]:
    snap = await client.stats()
    return snap["cache_hit_rate"] * snap["served"], float(snap["served"])


async def _segment(name: str, seed: int, part: int, seconds: float,
                   trace: bool) -> dict:
    """One server process driven through the whole rate ladder."""
    from repro.net import Client

    cfg = CONFIG[name]
    keys = inputs.dataset(cfg["dataset"], cfg["keys"], seed)
    rng = inputs.rng_for(seed, inputs.STREAM + 10 * part)
    live = keys.tolist()
    taken = set(live)

    def stream(count: int) -> inputs.Stream:
        if cfg["write_share"]:
            return inputs.mixed_stream(
                keys, rng, count, write_share=cfg["write_share"],
                mix=cfg["mix"], scan_keys=cfg["scan_keys"], live=live,
                taken=taken)
        return inputs.read_stream(keys, rng, count, mix=cfg["mix"],
                                  zipf_s=cfg["zipf_s"],
                                  scan_keys=cfg["scan_keys"])

    rates = cfg["rates"]
    load_rate = rates[LOAD_POINT]
    plan = [("warmup", rates[0], WARMUP_S)]
    if trace:
        plan += [("untraced", load_rate, seconds / 2),
                 ("traced", load_rate, seconds / 2)]
    else:
        plan += [(f"rung{r}", rate, seconds * share)
                 for r, (rate, share) in enumerate(zip(rates, RUNG_SHARES))]
    rungs = [Rung(label, rate, stream(int(rate * (secs + LEAD_IN_S))),
                  int(rate * LEAD_IN_S))
             for label, rate, secs in plan]

    spec = {"role": "server", "preset": cfg["preset"],
            "config": cfg["config"], "serve": cfg["serve"],
            "durable": cfg["durable"], "setups": SETUPS,
            "cpu": SERVER_CPU}
    tracer = Tracer()
    report: dict = {}
    async with Launched(spec, {"keys": keys}) as server:
        port = server.ready["port"]
        read_conns = [Client("127.0.0.1", port, timeout=30.0)]
        write_conn = None
        if cfg["write_share"]:
            write_conn = Client("127.0.0.1", port, timeout=30.0)
        else:
            read_conns.append(Client("127.0.0.1", port, timeout=30.0))
        conns = read_conns + ([write_conn] if write_conn else [])
        for conn in conns:
            await conn.connect()
        try:
            gc.collect()
            gc.disable()
            for rung in rungs:
                if rung.label == "traced":
                    await server.command("trace", on=True)
                    install(tracer)
                hits0, served0 = await _cache_counts(read_conns[0])
                await run_rung(rung, read_conns, write_conn)
                hits1, served1 = await _cache_counts(read_conns[0])
                rung.cache_hit_rate = (hits1 - hits0) / max(1.0,
                                                            served1 - served0)
                if rung.label == "traced":
                    tracer.remove()
                    report = await server.command("report")
                    await server.command("trace", on=False)
            if not trace:
                report = await server.command("report")
        finally:
            gc.enable()
            tracer.remove()
            for conn in conns:
                await conn.close()
    raw_us = raw_engine_us(keys, cfg["preset"], cfg["config"],
                           rungs[1].stream) if part == 0 else 0.0
    return {
        "setup_s": server.ready["setup_s"],
        "report": report,
        "client": summarize(tracer) if trace else None,
        "wrong": verify(keys, rungs),
        "rungs": [rung_samples(r) for r in rungs[1:]],
        "warmup": rung_samples(rungs[0]),
        "raw_us": raw_us,
        "keys": len(keys),
    }


def segment(name: str, seed: int, part: int, seconds: float,
            trace: bool) -> dict:
    """Body of one segment process (``perfbench/segment.py``)."""
    if SERVER_CPU is not None:
        os.sched_setaffinity(0, {GENERATOR_CPU})
    return asyncio.run(_segment(name, seed, part, seconds, trace))


def _run_segment(name: str, seed: int, part: int, seconds: float,
                 trace: bool) -> dict:
    """Run one segment in a fresh process and load its record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="segment-", suffix=".pickle",
                                dir=OUT_DIR)
    os.close(fd)
    try:
        cmd = [sys.executable, SEGMENT, name, str(seed), str(part),
               repr(seconds), str(int(trace)), path]
        subprocess.run(cmd, check=True, timeout=170)
        with open(path, "rb") as fh:
            return pickle.load(fh)  # written by segment.py just above
    finally:
        os.unlink(path)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cfg = CONFIG[name]
    parts = 1 if trace else SEGMENTS
    segs = [_run_segment(name, seed, k, seconds / parts, trace)
            for k in range(parts)]
    setups = [s for seg in segs for s in seg["setup_s"]]
    log(f"{name}: set-up {setups}")
    labels = [r["label"] for r in segs[0]["rungs"]]
    measured = [rung_summary([seg["rungs"][i] for seg in segs],
                             cfg["p99_limit_us"])
                for i in range(len(labels))]
    warm = rung_summary([seg["warmup"] for seg in segs], cfg["p99_limit_us"])
    wrong = sum(seg["wrong"] for seg in segs)
    load = measured[0 if trace else LOAD_POINT]
    ok_rates = [m["rate"] for m in measured if m["meets_limit"]]
    rates = cfg["rates"]
    out = {
        "setup_s": statistics.median(setups),
        "attempted": warm["requests"] + sum(m["requests"] for m in measured),
        "failed": warm["failed"] + sum(m["failed"] for m in measured) + wrong,
        "rss_mb": statistics.median(seg["report"]["rss_mb"] for seg in segs),
        "max_ok_rate": max(ok_rates) if ok_rates else 0.0,
        "rungs": measured,
        "fingerprint": {"dataset": cfg["dataset"], "keys": segs[0]["keys"],
                        "preset": cfg["preset"], "rates": list(rates),
                        "rung_shares": list(RUNG_SHARES),
                        "segments": parts,
                        "p99_limit_us": cfg["p99_limit_us"],
                        "late_limit_us": LATE_LIMIT_US},
    }
    kinds = ("read_us", "write_us", "request_us") if cfg["write_share"] \
        else ("read_us",)
    named = [("setup_s", out["setup_s"], "s")]
    for kind in kinds:
        for q in ("p50", "p90", "p99"):
            out[f"{kind}_{q}"] = load[f"{kind}_{q}"]
            named.append((f"{kind}_{q}", out[f"{kind}_{q}"], "us"))
    named += [("max_ok_rate", out["max_ok_rate"], "ops/s"),
              ("rss_mb", out["rss_mb"], "MB"),
              ("wrong_answers", wrong, "count")]
    for label, m in zip(labels, measured):
        tag = f"{label} @{m['rate']:g}/s"
        named += [
            (f"{tag} read p50/p99",
             f"{m['read_us_p50']:.0f}/{m['read_us_p99']:.0f}", "us"),
            (f"{tag} late p50/p99",
             f"{m['late_us_p50']:.0f}/{m['late_us_p99']:.0f}", "us"),
            (f"{tag} valid/meets", f"{m['valid']}/{m['meets_limit']}", "-"),
            (f"{tag} cache hit", m["cache_hit_rate"], "share"),
        ]
        if cfg["write_share"]:
            named.append((f"{tag} write p50/p99",
                          f"{m['write_us_p50']:.0f}/{m['write_us_p99']:.0f}",
                          "us"))
    out["named"] = named
    raw_us = segs[0]["raw_us"]
    if not cfg["write_share"]:
        out["vs_raw"] = [("read_us_p50 per request", out["read_us_p50"],
                          raw_us, "us")]
    if trace:
        seg = segs[0]
        traced = measured[1]
        report = seg["report"]
        extra = {
            "requests": traced["requests"],
            "latency_us_mean": traced["latency_us_mean"],
            "late_us_mean": traced["late_us_mean"],
            "acked_writes": traced["writes_acked"],
            "gen.late_us_p50": traced["late_us_p50"],
            "gen.late_us_p99": traced["late_us_p99"],
            "serve.cache_hit_rate": traced["cache_hit_rate"],
            "raw.engine_us_per_request": raw_us,
            "engine.splits": report["splits"],
            "engine.merges": report["merges"],
            "core.window_mean": report["window_mean"],
            "trace.overhead_pct": 100.0 * (
                traced["read_us_p50"] / measured[0]["read_us_p50"] - 1.0),
        }
        out["per_layer"] = per_layer(report["summary"], seg["client"], extra)
    return out
