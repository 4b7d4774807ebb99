"""Read-op execution for the TCP front end's non-batchable reads.

One request dict in, one response dict out, never raises: request-level
failures (a malformed query, an unknown op) come back as error payloads
so one bad request fails *itself* and nothing else — the same isolation
the in-process batcher gets from submit-time validation.

Scalar queries answer with python ints; vector queries (a list or
ndarray of keys) answer with ndarrays, which the wire codec ships as
one contiguous buffer — the network analogue of the engine's batch
pipeline.
"""

from __future__ import annotations

import numpy as np

from ..core.records import coerce_query_array
from ..engine.executor import BatchExecutor
from ..serve.batcher import check_query

__all__ = ["READ_OPS", "WRITE_OPS", "execute_read", "error_response"]

#: ops answered without mutating the engine
READ_OPS = frozenset({"ping", "lookup", "range", "range_keys"})
#: ops that mutate the engine (acknowledged only once applied)
WRITE_OPS = frozenset({"insert", "delete"})


def error_response(rid, exc: BaseException) -> dict:
    """The error payload for one failed request (connection stays up)."""
    return {
        "id": rid, "ok": False,
        "error": type(exc).__name__, "message": str(exc),
    }


def _is_vector(value) -> bool:
    return isinstance(value, (list, np.ndarray))


def execute_read(executor: BatchExecutor, msg: dict) -> dict:
    """Execute one read-op request dict against ``executor``."""
    rid = msg.get("id")
    try:
        op = msg.get("op")
        index = executor.index
        n = len(index)
        if op == "ping":
            return {"id": rid, "ok": True, "r": "pong"}
        if op == "lookup":
            q = msg["q"]
            vector = _is_vector(q)
            if not vector:
                check_query(q)
                q = [q]
            arr, oob = coerce_query_array(q, index.key_dtype)
            positions = executor.lookup_batch(arr)
            if oob is not None:
                positions[oob] = n  # above every representable key
            if vector:
                return {"id": rid, "ok": True, "r": positions}
            return {"id": rid, "ok": True, "r": int(positions[0])}
        if op == "range":
            lo, hi = msg["lo"], msg["hi"]
            vector = _is_vector(lo)
            if not vector:
                check_query(lo)
                check_query(hi)
                lo, hi = [lo], [hi]
            counts = executor.count_batch(lo, hi)
            if vector:
                return {"id": rid, "ok": True, "r": counts}
            return {"id": rid, "ok": True, "r": int(counts[0])}
        if op == "range_keys":
            lo, hi = msg["lo"], msg["hi"]
            check_query(lo)
            check_query(hi)
            keys = executor.scan_batch([lo], [hi])[0]
            return {"id": rid, "ok": True, "r": keys}
        raise ValueError(f"unknown op {op!r}")
    except Exception as exc:
        return error_response(rid, exc)
