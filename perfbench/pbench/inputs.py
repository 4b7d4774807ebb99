"""Deterministic workload inputs: the same seed gives the same inputs.

Every generator takes a ``numpy.random.Generator`` seeded from the
run's ``--seed`` (plus a fixed per-purpose offset), so key sets, query
batches, request streams and write plans are reproducible and the
program under test only ever receives their values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# one stream per purpose so that resizing one input never shifts another
KEYS, BATCHES, STREAM, WRITES, SAMPLE = 0, 1, 2, 3, 4


def rng_for(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), purpose])


def dataset(name: str, n: int, seed: int) -> np.ndarray:
    """Sorted keys of one of the repository's real-world surrogates."""
    from repro.datasets import load

    return np.array(load(name, n, seed=int(seed)), copy=True)


# ----------------------------------------------------------------------
# embedded batches
# ----------------------------------------------------------------------
@dataclass
class Batch:
    """One embedded call: a lookup batch or a range batch."""

    kind: str  # "lookup" | "range"
    a: np.ndarray  # queries, or range lows
    b: np.ndarray | None = None  # range highs


def embedded_batches(keys: np.ndarray, seed: int, count: int,
                     size: int, range_share: float,
                     range_span: int) -> list[Batch]:
    """``count`` distinct call batches of ``size`` queries each.

    Half of each lookup batch are stored keys, half are neighbours
    (stored key + 1: a miss unless the next key is adjacent).  Range
    batches start at stored keys and end ``~range_span`` keys later.
    """
    rng = rng_for(seed, BATCHES)
    n = len(keys)
    out = []
    for _ in range(count):
        if rng.random() < range_share:
            pos = rng.integers(0, n, size)
            span = rng.integers(1, 2 * range_span, size)
            hi = np.minimum(pos + span, n - 1)
            out.append(Batch("range", keys[pos], keys[hi] + np.uint64(1)))
        else:
            half = size // 2
            stored = keys[rng.integers(0, n, half)]
            near = keys[rng.integers(0, n, size - half)] + np.uint64(1)
            q = np.concatenate([stored, near])
            rng.shuffle(q)
            out.append(Batch("lookup", q))
    return out


# ----------------------------------------------------------------------
# served request streams
# ----------------------------------------------------------------------
#: request op codes in a stream array
LOOKUP, RANGE, RANGE_KEYS, INSERT, DELETE = 0, 1, 2, 3, 4
OP_NAMES = ("lookup", "range", "range_keys", "insert", "delete")


@dataclass
class Stream:
    """A request stream: parallel arrays, one entry per request."""

    op: np.ndarray  # int8 op codes
    a: np.ndarray  # uint64: the key, or the range low
    b: np.ndarray  # uint64: the range high (0 for point ops)

    def __len__(self) -> int:
        return len(self.op)


def _read_ops(rng, count: int, mix: tuple[float, float, float]):
    """Op codes for ``count`` reads with (lookup, range, range_keys) shares."""
    return rng.choice(np.array([LOOKUP, RANGE, RANGE_KEYS], dtype=np.int8),
                      size=count, p=np.asarray(mix) / sum(mix))


def zipf_positions(rng, n: int, count: int, s: float) -> np.ndarray:
    """Zipf(s)-ranked positions, hot ranks scattered over the key space."""
    ranks = np.minimum(rng.zipf(s, count), n) - 1
    return rng.permutation(n)[ranks]


def read_stream(keys: np.ndarray, rng, count: int, *,
                mix: tuple[float, float, float], zipf_s: float | None,
                scan_keys: int) -> Stream:
    """Reads over stored keys; ranges and scans cover ``~scan_keys`` keys."""
    n = len(keys)
    if zipf_s is None:
        pos = rng.integers(0, n, count)
    else:
        pos = zipf_positions(rng, n, count, zipf_s)
    op = _read_ops(rng, count, mix)
    hi = keys[np.minimum(pos + scan_keys, n - 1)] + np.uint64(1)
    b = np.where(op == LOOKUP, np.uint64(0), hi).astype(np.uint64)
    return Stream(op, keys[pos].astype(np.uint64), b)


def plan_writes(rng, live: list[int], count: int, key_max: int,
                taken: set[int]) -> list[tuple[int, int]]:
    """``count`` writes as ``(op, key)``, valid when applied in order.

    Inserts alternate between keys past the current maximum and fresh
    keys inside the domain; deletes remove a live key.  ``live`` (an
    unordered list) and ``taken`` are updated as the plan is made, so
    consecutive plans continue one history.
    """
    writes = []
    top = max(max(live), key_max)
    for _ in range(count):
        if rng.random() < 0.5 or len(live) < 2:
            if rng.random() < 0.5:
                top += int(rng.integers(1, 1 << 20))
                key = top
            else:
                while True:
                    key = int(rng.integers(0, top))
                    if key not in taken:
                        break
            taken.add(key)
            live.append(key)
            writes.append((INSERT, key))
        else:
            i = int(rng.integers(0, len(live)))
            live[i], live[-1] = live[-1], live[i]
            key = live.pop()
            writes.append((DELETE, key))
    return writes


def mixed_stream(keys: np.ndarray, rng, count: int, *, write_share: float,
                 mix: tuple[float, float, float], scan_keys: int,
                 live: list[int], taken: set[int]) -> Stream:
    """Uniform reads with ``write_share`` planned writes interleaved."""
    reads = read_stream(keys, rng, count, mix=mix, zipf_s=None,
                        scan_keys=scan_keys)
    is_write = rng.random(count) < write_share
    writes = plan_writes(rng, live, int(is_write.sum()), int(keys[-1]),
                         taken)
    op = reads.op.copy()
    a = reads.a.copy()
    b = reads.b.copy()
    idx = np.flatnonzero(is_write)
    op[idx] = [w[0] for w in writes]
    a[idx] = np.array([w[1] for w in writes], dtype=np.uint64)
    b[idx] = 0
    return Stream(op, a, b)


def apply_writes(keys: np.ndarray, writes) -> np.ndarray:
    """The sorted key multiset after applying ``(op, key)`` writes."""
    inserts = [k for op, k in writes if op == INSERT]
    deletes = [k for op, k in writes if op == DELETE]
    out = np.sort(np.concatenate(
        [keys, np.asarray(inserts, dtype=keys.dtype)]))
    if deletes:
        dels = np.sort(np.asarray(deletes, dtype=keys.dtype))
        # remove one occurrence per delete: the first slot of each run
        pos = np.searchsorted(out, dels, side="left")
        # repeated deletes of equal keys take consecutive slots
        pos += _rank_within_runs(dels)
        out = np.delete(out, pos)
    return out


def _rank_within_runs(sorted_vals: np.ndarray) -> np.ndarray:
    """0, 1, 2 … within each run of equal values of a sorted array."""
    n = len(sorted_vals)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_vals)) + 1]
    run_start = np.repeat(starts, np.diff(np.r_[starts, n]))
    return np.arange(n) - run_start
