"""Network serving benchmark: (transport × scenario) matrix.

Every cell builds a fresh engine, drives it with a deterministic
workload, and **oracle-verifies every response** against a live
``np.searchsorted`` mirror — reads bit-exactly, write acks as valid
shard ids — so a reported QPS number always comes from a correct
server.  The driver raises if any cell reports a single mismatch.

Axes:

* **transport** — ``inproc`` (the asyncio :class:`IndexServer` called
  directly: the no-network baseline) and ``tcp`` (the framed protocol
  through :class:`~repro.net.server.NetServer` +
  :class:`~repro.net.Client`).
* **scenario** — named entries in :data:`SCENARIOS`: read-heavy
  (closed and open loop), mixed and write-heavy.  Writes are applied
  through one writer connection between read bursts, keeping the
  oracle mirror exact under concurrency; closed-loop clients await
  each answer, open-loop clients pipeline their whole stream.

The payload records ``cpu_count`` so a QPS figure reads against the
machine that produced it.  Zero oracle mismatches is enforced
unconditionally.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datasets import load
from ..engine import ShardedIndex
from ..serve import IndexServer
from .reporting import format_table


@dataclass(frozen=True)
class Scenario:
    """One named workload shape in the registry."""

    name: str
    loop: str  # "closed" | "open"
    writes_per_round: int
    reads_per_client: int
    range_fraction: float
    description: str


#: the scenario registry (CLI/bench ``--scenarios`` pick from here)
SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("read-heavy", "closed", 4, 64, 0.25,
                 "95%+ reads, closed loop (the headline cell)"),
        Scenario("read-heavy-open", "open", 4, 64, 0.25,
                 "95%+ reads, every client pipelines its full stream"),
        Scenario("mixed", "closed", 32, 32, 0.25,
                 "interleaved write bursts and read bursts"),
        Scenario("write-heavy", "closed", 96, 8, 0.10,
                 "write-dominated rounds with light read probes"),
    )
}


def _make_stream(rng: np.random.Generator, live: np.ndarray, count: int,
                 range_fraction: float) -> list[tuple]:
    """One client's reads with ``np.searchsorted`` oracle answers."""
    n_ranges = int(count * range_fraction)
    n_points = count - n_ranges
    half = n_points // 2
    points = np.concatenate([
        rng.choice(live, half),              # stored keys
        rng.choice(live, n_points - half) + 1,  # neighbours / misses
    ])
    point_truth = np.searchsorted(live, points, side="left")
    lows = rng.choice(live, n_ranges) if n_ranges else np.empty(0)
    spans = rng.integers(1, max(2, int(live[-1] // 50)), n_ranges)
    highs = (lows + spans.astype(live.dtype)) if n_ranges else lows
    range_truth = (
        np.searchsorted(live, highs, side="left")
        - np.searchsorted(live, lows, side="left")
        if n_ranges else lows
    )
    stream = [("p", int(q), None, int(t))
              for q, t in zip(points, point_truth)]
    stream += [("r", int(lo), int(hi), max(0, int(t)))
               for lo, hi, t in zip(lows, highs, range_truth)]
    rng.shuffle(stream)
    return stream


def _plan_writes(wrng: np.random.Generator, live: np.ndarray,
                 keys: np.ndarray, count: int) -> list[tuple]:
    """The round's write ops, applied to the mirror as they are planned."""
    ops = []
    for i in range(count):
        if i % 2 == 0 or len(live) < 2:
            fresh = int(keys[int(wrng.integers(0, len(keys)))]) + 1
            live = np.insert(
                live, np.searchsorted(live, fresh, side="left"), fresh)
            ops.append(("i", fresh))
        else:
            victim = int(live[int(wrng.integers(0, len(live)))])
            live = np.delete(
                live, np.searchsorted(live, victim, side="left"))
            ops.append(("d", victim))
    return ops, live


async def _drive(lookup, range_count, insert, delete, *, keys, scenario,
                 clients, rounds, seed) -> tuple[int, float, int]:
    """Run one cell through op callables; (ops, seconds, mismatches).

    The callables abstract the transport: in-process server coroutines
    or per-connection net clients.  ``lookup``/``range_count`` take a
    client slot index so the tcp transport can spread closed-loop
    clients over real connections.
    """
    live = keys.copy()
    wrng = np.random.default_rng(seed + 13)
    total = 0
    mismatches = 0
    t0 = time.perf_counter()
    for r in range(rounds):
        write_ops, live = _plan_writes(
            wrng, live, keys, scenario.writes_per_round)
        for kind, key in write_ops:
            shard = await (insert(key) if kind == "i" else delete(key))
            if not isinstance(shard, (int, np.integer)) or shard < 0:
                mismatches += 1
            total += 1
        streams = [
            _make_stream(np.random.default_rng(seed + 1000 + r * clients + c),
                         live, scenario.reads_per_client,
                         scenario.range_fraction)
            for c in range(clients)
        ]

        async def _closed(slot: int, stream: list) -> int:
            bad = 0
            for kind, a, b, expect in stream:
                got = await (lookup(slot, a) if kind == "p"
                             else range_count(slot, a, b))
                if got != expect:
                    bad += 1
            return bad

        async def _open(slot: int, stream: list) -> int:
            answers = await asyncio.gather(*[
                lookup(slot, a) if kind == "p" else range_count(slot, a, b)
                for kind, a, b, _ in stream
            ])
            return sum(got != expect for got, (_, _, _, expect)
                       in zip(answers, stream))

        burst = _closed if scenario.loop == "closed" else _open
        mismatches += sum(await asyncio.gather(
            *[burst(c, s) for c, s in enumerate(streams)]))
        total += clients * scenario.reads_per_client
    return total, time.perf_counter() - t0, mismatches


def _run_inproc_cell(index, scenario, *, keys, clients, rounds, seed,
                     max_batch, max_wait_us) -> dict:
    server = IndexServer(index, max_batch=max_batch, max_wait_us=max_wait_us)

    async def cell():
        async with server:
            return await _drive(
                lambda _, q: server.lookup(q),
                lambda _, lo, hi: server.range(lo, hi),
                server.insert, server.delete,
                keys=keys, scenario=scenario, clients=clients,
                rounds=rounds, seed=seed,
            )

    total, seconds, mismatches = asyncio.run(cell())
    snap = server.stats.snapshot()
    return {"ops": total, "seconds": seconds, "mismatches": mismatches,
            "p50_us": snap["p50_us"], "p99_us": snap["p99_us"],
            "mean_batch": snap["mean_batch"],
            "cache_hit_rate": snap["cache_hit_rate"]}


def _run_tcp_cell(index, scenario, *, keys, clients, rounds, seed,
                  max_batch, max_wait_us) -> dict:
    from ..net.client import Client
    from ..net.server import NetServer

    server = IndexServer(index, max_batch=max_batch, max_wait_us=max_wait_us)
    net = NetServer(server, own_server=True)

    async def cell():
        host, port = await net.start()
        conns = [Client(host, port, timeout=60.0) for _ in range(clients)]
        writer = Client(host, port, timeout=60.0)
        for c in (*conns, writer):
            await c.connect()
        try:
            return await _drive(
                lambda slot, q: conns[slot].lookup(q),
                lambda slot, lo, hi: conns[slot].range(lo, hi),
                writer.insert, writer.delete,
                keys=keys, scenario=scenario, clients=clients,
                rounds=rounds, seed=seed,
            )
        finally:
            for c in (*conns, writer):
                await c.close()
            await net.close()

    total, seconds, mismatches = asyncio.run(cell())
    snap = server.stats.snapshot()
    return {"ops": total, "seconds": seconds, "mismatches": mismatches,
            "p50_us": snap["p50_us"], "p99_us": snap["p99_us"],
            "mean_batch": snap["mean_batch"],
            "cache_hit_rate": snap["cache_hit_rate"]}


def run_serve_net_bench(
    n: int = 200_000,
    dataset: str = "uden64",
    num_shards: int = 2,
    model: str = "interpolation",
    layer: str | None = "R",
    backend: str = "gapped",
    clients: int = 8,
    rounds: int = 8,
    scenarios: tuple[str, ...] | None = None,
    transports: tuple[str, ...] = ("inproc", "tcp"),
    max_batch: int = 256,
    max_wait_us: float = 200.0,
    seed: int = 42,
) -> dict:
    """Run the full matrix; returns the ``BENCH_serve.json`` payload.

    Raises :class:`AssertionError` on any oracle mismatch.
    """
    names = tuple(scenarios) if scenarios else tuple(SCENARIOS)
    unknown = [s for s in names if s not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; "
                         f"registry has {sorted(SCENARIOS)}")
    keys = load(dataset, n, seed)

    def build() -> ShardedIndex:
        return ShardedIndex.build(
            keys, num_shards, model=model, layer=layer, backend=backend,
            name=f"{dataset}-net",
        )

    run_cell = {"inproc": _run_inproc_cell, "tcp": _run_tcp_cell}
    rows: list[dict] = []
    for name in names:
        for transport in transports:
            cell = run_cell[transport](
                build(), SCENARIOS[name], keys=keys, clients=clients,
                rounds=rounds, seed=seed, max_batch=max_batch,
                max_wait_us=max_wait_us)
            cell.update({
                "scenario": name, "transport": transport,
                "qps": (cell["ops"] / cell["seconds"]
                        if cell["seconds"] > 0 else float("inf")),
            })
            rows.append(cell)

    for row in rows:
        if row["mismatches"]:
            raise AssertionError(
                f"{row['transport']}/{row['scenario']} served "
                f"{row['mismatches']} wrong answers")

    return {
        "bench": "serve_net",
        "dataset": dataset,
        "n": int(n),
        "num_shards": num_shards,
        "backend": backend,
        "clients": clients,
        "rounds": rounds,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "scenarios": {
            name: {"loop": SCENARIOS[name].loop,
                   "writes_per_round": SCENARIOS[name].writes_per_round,
                   "reads_per_client": SCENARIOS[name].reads_per_client,
                   "description": SCENARIOS[name].description}
            for name in names
        },
        "rows": rows,
    }


def render_report(payload: dict, json_path: str | None = None) -> str:
    """Text rendering of a :func:`run_serve_net_bench` payload.

    Shared by ``python -m repro client-bench`` and
    ``benchmarks/bench_serve_net.py`` so the two entry points cannot drift.
    With ``json_path`` the payload is also written there as the
    ``BENCH_serve.json`` artifact.
    """
    table = [
        [r["transport"], r["scenario"], r["ops"], r["qps"], r["p50_us"],
         r["p99_us"], r["cache_hit_rate"], r["mismatches"]]
        for r in payload["rows"]
    ]
    lines = [format_table(
        ["transport", "scenario", "ops", "qps", "p50 us", "p99 us",
         "hit rate", "mismatches"],
        table,
        title=(f"network serving — {payload['dataset']}, "
               f"n={payload['n']:,}, {payload['cpu_count']} core(s)"),
        float_digits=2,
    )]
    lines.append("every response oracle-verified: zero mismatches")
    if json_path:
        Path(json_path).write_text(json.dumps(payload, indent=2))
        lines.append(f"wrote {json_path}")
    return "\n".join(lines)
