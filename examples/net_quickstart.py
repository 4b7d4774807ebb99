"""Network serving quickstart: TCP clients, pipelining, read-your-writes.

Builds an index, serves it over the framed binary protocol
(:mod:`repro.net`), and drives it two ways:

1. a crowd of pipelining TCP clients whose point/range answers are all
   checked against ``np.searchsorted`` on the live key array;
2. a write-then-read round trip proving read-your-writes through the
   socket (the ack means every read path already sees the write).

Run:  PYTHONPATH=src python examples/net_quickstart.py
"""

import asyncio

import numpy as np

import repro
from repro.net import Client


async def verified_reads(client: Client, keys, queries) -> int:
    """Pipeline point lookups; returns how many answers disagreed."""
    expected = np.searchsorted(keys, queries, side="left")
    answers = await asyncio.gather(*[client.lookup(int(q)) for q in queries])
    return sum(int(a != w) for a, w in zip(answers, expected))


async def main() -> None:
    rng = np.random.default_rng(7)
    keys = np.sort(np.unique(
        rng.integers(0, 1 << 40, 100_000, dtype=np.uint64)))
    index = repro.Index.build(keys, num_shards=2)

    # 1. a TCP server on an ephemeral port, four pipelining clients
    async with index.serve(addr=("127.0.0.1", 0)) as net:
        host, port = net.address
        print(f"serving on {host}:{port}")
        clients = []
        for _ in range(4):
            c = Client(host, port)
            await c.connect()
            clients.append(c)
        try:
            streams = [rng.choice(keys, 64) for _ in clients]
            bad = sum(await asyncio.gather(*[
                verified_reads(c, keys, qs)
                for c, qs in zip(clients, streams)
            ]))
            print(f"read phase: {sum(len(s) for s in streams)} pipelined "
                  f"lookups, {bad} mismatches")
            assert bad == 0

            # 2. read-your-writes through the wire
            fresh = int(keys[-1]) + 1234
            shard = await clients[0].insert(fresh)
            rank = await clients[1].lookup(fresh)  # another connection!
            assert rank == len(keys), rank
            print(f"write phase: insert({fresh}) -> shard {shard}, "
                  f"readable at rank {rank} from a second connection")
            snap = await clients[0].stats()
            print(f"server stats: {snap['served']} served, "
                  f"p50 {snap['p50_us']} us, "
                  f"hit rate {snap['cache_hit_rate']:.2f}, "
                  f"{snap['open_connections']} connections")
        finally:
            for c in clients:
                await c.close()


if __name__ == "__main__":
    asyncio.run(main())
