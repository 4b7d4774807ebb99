"""Fault injection and wire exactness for the network serving tier.

* float keys must cross the wire at full precision: a write and the
  reads that follow it agree with the engine to the last bit;
* a client SIGKILLed mid-pipeline (a real subprocess, as in the
  durability crash tests) — the server must drop the orphaned answers
  and release every backpressure slot it claimed for them, with zero
  wrong answers afterwards.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.net import Client

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(11)
    return np.sort(np.unique(
        rng.integers(0, 1 << 40, 6000, dtype=np.uint64)))


def _oracle(keys, qs):
    return [int(r) for r in np.searchsorted(
        keys, np.asarray(qs, dtype=np.uint64), side="left")]


def test_float_key_writes_are_exact_over_tcp():
    # float-dtype indexes carry the key in wire-native float form; an
    # int(key) truncation anywhere on the path would insert/delete the
    # wrong key and silently diverge from what the client sent
    rng = np.random.default_rng(23)
    fkeys = np.sort(np.unique(rng.uniform(0.0, 1e6, 4000)))

    async def scenario():
        index = repro.Index.build(fkeys, num_shards=2)
        net = index.serve(addr=("127.0.0.1", 0))
        await net.start()
        try:
            async with Client(*net.address, timeout=60) as client:
                frac = float(int(fkeys[-1]) + 7) + 0.5
                await client.insert(frac)
                # read-your-writes at full float precision: under
                # int() truncation the count below would be 0 (the
                # engine would hold frac - 0.5 instead)
                assert await client.range(frac, frac + 1.0) == 1
                assert await client.range(frac - 0.5, frac) == 0
                await client.delete(frac)
                assert await client.barrier() is True
                assert await client.range(frac - 1.0, frac + 1.0) == 0
                # the engine is back to exactly the built key set
                scan = await client.range_keys(0.0, frac + 2.0)
                assert np.array_equal(scan, np.asarray(fkeys))
        finally:
            await net.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# client death mid-pipeline
# ----------------------------------------------------------------------
#: a real client process: connect, pipeline `count` distinct lookups,
#: drop a marker file, then hang until the parent SIGKILLs it
_CHILD = """
import socket, sys, time
sys.path.insert(0, sys.argv[4])
from repro.net.protocol import encode_frame

port, count, marker = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
sock = socket.create_connection(("127.0.0.1", port))
burst = b"".join(
    encode_frame({"op": "lookup", "id": i, "q": 1234567 + 17 * i})
    for i in range(count)
)
sock.sendall(burst)
with open(marker, "w") as fh:
    fh.write("sent")
time.sleep(120)
"""


def test_sigkilled_client_leaks_no_slots(keys, tmp_path):
    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        # a small slot pool makes any leak visible immediately
        net = index.serve(addr=("127.0.0.1", 0), max_inflight=8)
        await net.start()
        server = net.server
        try:
            marker = tmp_path / "sent"
            child = subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(net.port), "64",
                 str(marker), str(SRC)],
            )
            try:
                deadline = time.monotonic() + 30
                while not marker.exists():
                    assert time.monotonic() < deadline, "client never sent"
                    await asyncio.sleep(0.01)
                # the burst is in the server's socket; let it start
                # claiming slots, then kill the client mid-pipeline
                await asyncio.sleep(0.05)
                os.kill(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
            finally:
                if child.poll() is None:  # pragma: no cover - cleanup
                    child.kill()
                    child.wait(timeout=30)
            # orphaned answers are dropped, and every claimed slot
            # comes back: the pool refills to exactly max_inflight
            deadline = time.monotonic() + 30
            while server._slots != server.max_inflight:
                assert time.monotonic() < deadline, (
                    f"slots leaked: {server._slots} of "
                    f"{server.max_inflight} available")
                await asyncio.sleep(0.02)
            # and the server still serves new connections at full tilt
            async with Client(*net.address, timeout=60) as client:
                qs = [int(k) for k in keys[::250]]
                answers = await asyncio.gather(
                    *[client.lookup(q) for q in qs])
                assert answers == _oracle(keys, qs)
                assert server._slots == server.max_inflight
        finally:
            await net.close()

    asyncio.run(scenario())
