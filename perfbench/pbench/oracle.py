"""Answer checkers: every answer the program gives is compared here.

* embedded batches against ``np.searchsorted`` on the key array;
* served reads against a mirror of the key multiset that follows the
  writes in acknowledgement order.  A read that overlapped writes is
  correct when it reflects every write acknowledged before it was
  sent, plus some prefix of the writes that were still in flight
  while it ran (writes travel on one connection, so the server
  applies them in the order they were sent);
* a replica's key array against the leader's oracle key multiset.
"""

from __future__ import annotations

import numpy as np

from .inputs import DELETE, INSERT, LOOKUP, RANGE, RANGE_KEYS


def lookup_truth(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return np.searchsorted(keys, queries, side="left")


def range_truth(keys: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    first = np.searchsorted(keys, lows, side="left")
    last = np.searchsorted(keys, highs, side="left")
    return first, np.maximum(first, last)


def batch_truth(keys: np.ndarray, batch):
    """``np.searchsorted`` answer to one embedded call (the raw baseline)."""
    if batch.kind == "lookup":
        return lookup_truth(keys, batch.a)
    return range_truth(keys, batch.a, batch.b)


def batch_ok(batch, got, want) -> bool:
    """Whether a ``lookup_many``/``range_many`` answer equals the truth."""
    if batch.kind == "lookup":
        return bool(np.array_equal(got, want))
    return bool(np.array_equal(got[0], want[0])
                and np.array_equal(got[1], want[1]))


def _effect(op: int, key: int, lo: int, hi: int | None) -> int:
    """+1/-1 when the write changes the answer of a read over [lo, hi)."""
    inside = key < lo if hi is None else lo <= key < hi
    if not inside:
        return 0
    return 1 if op == INSERT else -1


def read_candidates(mirror: np.ndarray, op: int, a: int, b: int,
                    pending: list[tuple[int, int]]):
    """Every acceptable answer to one read.

    ``mirror`` is the key multiset after the writes acknowledged
    before the read was sent; ``pending`` are the writes in flight
    while it ran, in send order.  The answer after each prefix of
    ``pending`` is acceptable.
    """
    if op == LOOKUP:
        base = int(np.searchsorted(mirror, np.uint64(a), side="left"))
        out = {base}
        for w_op, key in pending:
            base += _effect(w_op, key, a, None)
            out.add(base)
        return out
    lo = int(np.searchsorted(mirror, np.uint64(a), side="left"))
    hi = int(np.searchsorted(mirror, np.uint64(b), side="left"))
    if op == RANGE:
        base = max(0, hi - lo)
        out = {base}
        for w_op, key in pending:
            base += _effect(w_op, key, a, b)
            out.add(base)
        return out
    assert op == RANGE_KEYS
    window = [int(k) for k in mirror[lo:max(lo, hi)]]
    out = {tuple(window)}
    for w_op, key in pending:
        if a <= key < b:
            if w_op == INSERT:
                window = sorted(window + [key])
            elif key in window:
                window.remove(key)
        out.add(tuple(window))
    return out


def answer_ok(op: int, answer, candidates) -> bool:
    if op == RANGE_KEYS:
        return tuple(int(k) for k in np.asarray(answer).tolist()) in candidates
    return int(answer) in candidates


def check_served(base: np.ndarray, writes: list[tuple[int, int]],
                 write_acked: np.ndarray, write_sent: np.ndarray,
                 reads: list[tuple]) -> int:
    """Number of wrong served reads (0 when every answer is acceptable).

    ``writes`` are ``(op, key)`` in send order with their ack and send
    times (``inf`` for writes never acked or never sent); ``reads`` are
    ``(op, a, b, sent, answered, answer)`` tuples of answered reads.
    Reads are checked in order of how many writes they must include,
    while the mirror moves forward one write at a time.
    """
    acked_sorted = np.sort(write_acked)
    sent_sorted = np.sort(write_sent)
    order = sorted(
        range(len(reads)),
        key=lambda i: np.searchsorted(acked_sorted, reads[i][3], "left"))
    mirror = np.sort(base)
    applied = 0
    wrong = 0
    for i in order:
        op, a, b, sent, answered, answer = reads[i]
        must = int(np.searchsorted(acked_sorted, sent, side="left"))
        may = int(np.searchsorted(sent_sorted, answered, side="left"))
        while applied < must:
            mirror = _apply_one(mirror, *writes[applied])
            applied += 1
        cands = read_candidates(mirror, op, a, b,
                                writes[must:max(must, may)])
        if not answer_ok(op, answer, cands):
            wrong += 1
    return wrong


def _apply_one(mirror: np.ndarray, op: int, key: int) -> np.ndarray:
    k = np.uint64(key)
    pos = int(np.searchsorted(mirror, k, side="left"))
    if op == INSERT:
        return np.insert(mirror, pos, k)
    if op != DELETE or pos >= len(mirror) or mirror[pos] != k:
        raise ValueError(f"write plan deletes {key}, which is not live")
    return np.delete(mirror, pos)


def check_replica(replica, oracle: np.ndarray, rng) -> int:
    """Mismatches between a replica and the oracle key multiset (0 or more)."""
    wrong = 0
    if not np.array_equal(replica.keys, oracle):
        wrong += 1
    lo, hi = int(oracle[0]), int(oracle[-1])
    queries = np.concatenate([
        oracle[rng.integers(0, len(oracle), 2048)],
        rng.integers(lo, hi, 2048, dtype=np.uint64, endpoint=True),
    ])
    if not np.array_equal(replica.lookup_many(queries),
                          lookup_truth(oracle, queries)):
        wrong += 1
    return wrong
