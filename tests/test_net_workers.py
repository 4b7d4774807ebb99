"""Read dispatch across the network tier's forked worker pool."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.net import Client


@pytest.mark.parametrize("workers", [2, 4])
def test_round_robin_spreads_reads_evenly(workers):
    # one pick per read: a double pick advanced the cursor by two, so
    # odd-numbered workers of an even-sized pool never got any work
    keys = np.arange(0, 40_000, 7, dtype=np.uint64)
    reads = 12 * workers

    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        net = index.serve(addr=("127.0.0.1", 0), net_workers=workers)
        await net.start()
        try:
            async with Client(*net.address, timeout=60) as client:
                for q in keys[:reads]:
                    assert await client.lookup(int(q)) == int(q) // 7
            return [w.stats.dispatched for w in net.pool._workers]
        finally:
            await net.close()

    dispatched = asyncio.run(scenario())
    assert sum(dispatched) == reads
    for count in dispatched:
        assert abs(count - reads / workers) <= 1, dispatched
