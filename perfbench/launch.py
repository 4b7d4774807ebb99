"""Server or leader process for the served and replica workloads.

Started by ``pbench/served.py`` and ``pbench/replica.py`` with one
argument, the path of a JSON spec.  It loads the generated inputs the
benchmark wrote (``keys`` plus, for a leader, the backlog write plans),
builds and serves the index through the public API
(``Index.build(...)`` then ``Index.serve(addr=...)``), and talks to the
benchmark over its standard streams: results are ``PBENCH {json}``
lines on stdout, commands are JSON lines on stdin:

``{"cmd": "trace", "on": bool}``  install or remove the layer wrappers
``{"cmd": "report"}``             span summary, RSS and engine counters
``{"cmd": "cycle", "c": n}``      leader: checkpoint, then backlog ``n``
``{"cmd": "stop"}``               close everything and exit
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def say(payload: dict) -> None:
    sys.stdout.write("PBENCH " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def apply_plan(index, ops, keys) -> None:
    """Apply one backlog plan directly to the leader's index."""
    import numpy as np

    from pbench.inputs import INSERT

    for op, key in zip(ops.tolist(), keys.tolist()):
        if op == INSERT:
            index.insert(np.uint64(key))
        else:
            index.delete(np.uint64(key))
    index.commit()


async def build_and_serve(spec: dict, inputs, attempt: int):
    """One set-up: keys in hand -> listening.  Returns (index, net, secs)."""
    import repro

    durable = None
    if spec.get("durable_root"):
        durable = os.path.join(spec["durable_root"], f"setup{attempt}")
    t0 = time.perf_counter()
    index = repro.Index.build(inputs["keys"], spec["preset"],
                              durable_dir=durable,
                              **spec.get("config", {}))
    if spec["role"] == "leader":
        apply_plan(index, inputs["backlog_ops_0"], inputs["backlog_keys_0"])
    opts = dict(spec.get("serve", {}))
    if spec["role"] == "leader":
        opts["replicate_addr"] = ("127.0.0.1", 0)
    net = index.serve(addr=("127.0.0.1", 0), **opts)
    await net.start()
    return index, net, time.perf_counter() - t0, durable


async def main(spec_path: str) -> None:
    import numpy as np

    from pbench.common import peak_rss_mb
    from pbench.layers import install, summarize, window_mean
    from pbench.tracer import Tracer

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    inputs = dict(np.load(spec["inputs"]))

    setups = []
    for attempt in range(spec["setups"]):
        index, net, secs, durable = await build_and_serve(
            spec, inputs, attempt)
        setups.append(secs)
        if attempt + 1 < spec["setups"]:
            await net.close()
            index.close()
            del index, net
            if durable:
                shutil.rmtree(durable, ignore_errors=True)
    ready = {"port": net.address[1], "setup_s": setups}
    if net.replication_address is not None:
        ready["repl_port"] = net.replication_address[1]
    if index.durability is not None:
        ready["durable_lsn"] = index.durability.durable_lsn
    say(ready)

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    tracer = Tracer()
    try:
        while True:
            line = await stdin.readline()
            if not line:
                break
            cmd = json.loads(line)
            if cmd["cmd"] == "trace":
                tracer.remove()
                tracer.clear()
                if cmd["on"]:
                    install(tracer)
                say({"ok": True})
            elif cmd["cmd"] == "report":
                engine = index.engine
                say({
                    "summary": summarize(tracer),
                    "rss_mb": peak_rss_mb(),
                    "splits": engine.num_splits,
                    "merges": engine.num_merges,
                    "window_mean": window_mean(engine),
                    "durable_lsn": (index.durability.durable_lsn
                                    if index.durability else 0),
                })
            elif cmd["cmd"] == "cycle":
                c = cmd["c"]
                t0 = time.perf_counter()
                index.checkpoint()
                apply_plan(index, inputs[f"backlog_ops_{c}"],
                           inputs[f"backlog_keys_{c}"])
                say({"durable_lsn": index.durability.durable_lsn,
                     "secs": time.perf_counter() - t0})
            elif cmd["cmd"] == "stop":
                break
    finally:
        tracer.remove()
        await net.close()
        index.close()
        say({"stopped": True, "setup_median_s": statistics.median(setups)})


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: launch.py SPEC.json")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    asyncio.run(main(sys.argv[1]))
