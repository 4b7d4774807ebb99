"""Self-tests of the benchmark, at toy sizes.

    python3 -m pytest perfbench/tests -q

They check the tracer's span arithmetic, that the oracles reject wrong
answers, that seeds fix the inputs, that a traced run of every
workload reports every per-layer metric whose layer runs there, and
that ``BENCHMARK.json`` matches the metric list the runs print.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pbench import embedded, inputs, metrics, oracle, replica, served
from pbench.inputs import DELETE, INSERT, LOOKUP, RANGE, RANGE_KEYS
from pbench.tracer import Tracer, covered_ns, self_times, totals_by_name

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_merged_children():
    # parent [0, 100); children [10, 30) and [20, 50) overlap -> cover 40;
    # grandchild [25, 28) belongs to the second child only
    spans = [
        (1, "api.x", 0, 100, None, None),
        (2, "engine.a", 10, 30, 1, None),
        (3, "engine.b", 20, 50, 1, None),
        (4, "search.c", 25, 28, 3, None),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 60, 2: 20, 3: 27, 4: 3}
    # without overlapping siblings, self times add up to the root's span
    nested = [spans[0], spans[1], (3, "engine.b", 30, 50, 1, None),
              (4, "search.c", 35, 38, 3, None)]
    assert sum(self_times(nested).values()) == 100
    totals = totals_by_name(spans)
    assert totals["engine.b"] == {"calls": 1, "total_ns": 30, "self_ns": 27}


def test_covered_clips_to_window():
    assert covered_ns([(0, 10), (5, 20), (30, 40)], 8, 35) == 12 + 5
    assert covered_ns([], 0, 10) == 0


class _Toy:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1

    async def aouter(self):
        await asyncio.gather(self.ainner(), self.ainner())

    async def ainner(self):
        await asyncio.sleep(0.001)


def test_wrappers_nest_and_restore():
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "api.outer")
    tracer.wrap(_Toy, "inner", "engine.inner")
    tracer.wrap(_Toy, "aouter", "serve.aouter")
    tracer.wrap(_Toy, "ainner", "net.ainner")
    try:
        assert _Toy().outer() == 2
        asyncio.run(_Toy().aouter())
    finally:
        tracer.remove()
    assert "outer" in vars(_Toy) and not hasattr(_Toy.outer, "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s[1] == "api.outer")
    inner = [s for s in tracer.spans if s[1] == "engine.inner"]
    assert [s[4] for s in inner] == [outer[0], outer[0]]
    aouter = next(s for s in tracer.spans if s[1] == "serve.aouter")
    ainner = [s for s in tracer.spans if s[1] == "net.ainner"]
    # concurrent child tasks inherit the parent span through the context
    assert [s[4] for s in ainner] == [aouter[0], aouter[0]]
    for s in inner + ainner:
        parent = by_id[s[4]]
        assert parent[2] <= s[2] <= s[3] <= parent[3]
    # overlapping concurrent children are not subtracted twice
    selfs = self_times(tracer.spans)
    assert selfs[aouter[0]] >= 0


def test_hook_only_wrapper_keeps_parent():
    tracer = Tracer()
    seen = []
    tracer.wrap(_Toy, "outer", "api.outer")
    tracer.wrap(_Toy, "inner", None, on_span=lambda s, a, r: seen.append(s))
    try:
        _Toy().outer()
    finally:
        tracer.remove()
    assert [s[1] for s in tracer.spans] == ["api.outer"]
    assert len(seen) == 2


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
@pytest.fixture()
def keys():
    return np.arange(10, 1000, 10, dtype=np.uint64)


def test_batch_oracle_rejects_wrong_answer(keys):
    batch = inputs.Batch("lookup", np.array([5, 10, 11, 995], np.uint64))
    want = oracle.batch_truth(keys, batch)
    assert want.tolist() == [0, 0, 1, 99]
    assert oracle.batch_ok(batch, want.copy(), want)
    bad = want.copy()
    bad[2] += 1
    assert not oracle.batch_ok(batch, bad, want)
    rb = inputs.Batch("range", np.array([10, 50], np.uint64),
                      np.array([40, 45], np.uint64))
    first, last = oracle.batch_truth(keys, rb)
    assert (first.tolist(), last.tolist()) == ([0, 4], [3, 4])
    assert oracle.batch_ok(rb, (first, last), (first, last))
    assert not oracle.batch_ok(rb, (first, last + 1), (first, last))


def _read(op, a, b, sent, done, answer):
    return (op, a, b, sent, done, answer)


def test_served_oracle_follows_writes(keys):
    writes = [(INSERT, 15), (DELETE, 20)]
    acked = np.array([1.0, 3.0])
    sent = np.array([0.5, 2.5])
    reads = [
        # sent after the insert was acked: must see it
        _read(LOOKUP, 16, 0, 2.0, 2.1, 2),
        # overlapped the in-flight delete: either state is fine
        _read(LOOKUP, 25, 0, 2.6, 3.5, 3),
        _read(LOOKUP, 25, 0, 2.6, 3.5, 2),
        _read(RANGE, 10, 30, 2.6, 3.5, 2),
        _read(RANGE_KEYS, 10, 30, 4.0, 4.1, np.array([10, 15], np.uint64)),
    ]
    assert oracle.check_served(keys, writes, acked, sent, reads) == 0
    wrong = [
        # misses a write acked before it was sent
        _read(LOOKUP, 16, 0, 2.0, 2.1, 1),
        # claims the delete before it was ever sent
        _read(LOOKUP, 25, 0, 1.5, 1.6, 2),
        _read(RANGE_KEYS, 10, 30, 4.0, 4.1, np.array([10, 20], np.uint64)),
    ]
    assert oracle.check_served(keys, writes, acked, sent, wrong) == 3


def test_replica_oracle_rejects_divergent_keys(keys):
    class Fake:
        def __init__(self, k):
            self.keys = k

        def lookup_many(self, q):
            return np.searchsorted(self.keys, q, side="left")

    rng = np.random.default_rng(0)
    assert oracle.check_replica(Fake(keys), keys, rng) == 0
    assert oracle.check_replica(Fake(keys[1:]), keys, rng) == 2


def test_apply_writes_matches_sequential_mirror(keys):
    rng = np.random.default_rng(3)
    live = keys.tolist()
    plan = inputs.plan_writes(rng, live, 200, int(keys[-1]), set(live))
    mirror = keys
    for op, key in plan:
        pos = int(np.searchsorted(mirror, np.uint64(key)))
        mirror = (np.insert(mirror, pos, np.uint64(key)) if op == INSERT
                  else np.delete(mirror, pos))
    assert np.array_equal(inputs.apply_writes(keys, plan), mirror)
    assert sorted(live) == mirror.tolist()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_seed_same_inputs(keys):
    def streams(seed):
        rng = inputs.rng_for(seed, inputs.STREAM)
        live = keys.tolist()
        read = inputs.read_stream(keys, rng, 500, mix=(85, 10, 5),
                                  zipf_s=1.2, scan_keys=10)
        mixed = inputs.mixed_stream(keys, rng, 500, write_share=0.2,
                                    mix=(85, 10, 5), scan_keys=10,
                                    live=live, taken=set(live))
        batches = inputs.embedded_batches(keys, seed, 4, 64, 0.5, 10)
        return read, mixed, batches

    a, b, c = streams(7), streams(7), streams(8)
    for x, y in zip(a[:2], b[:2]):
        for field in ("op", "a", "b"):
            assert np.array_equal(getattr(x, field), getattr(y, field))
    assert all(np.array_equal(p.a, q.a) for p, q in zip(a[2], b[2]))
    assert not np.array_equal(a[0].a, c[0].a)
    assert replica.plans(keys, 5, 2) == replica.plans(keys, 5, 2)


# ----------------------------------------------------------------------
# the benchmark's own contract
# ----------------------------------------------------------------------
def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_metric_lists():
    bench = _bench()
    from run import WORKLOADS

    names = [w["name"] for w in bench["workloads"]]
    assert set(names) <= set(WORKLOADS) and len(names) >= 2
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(metrics.PER_LAYER)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for name in set(served.CONFIG) & set(why):
        limit = served.CONFIG[name]["p99_limit_us"]
        assert f"p99 limit {limit} us" in why[name]
    assert set(metrics.RUNS_ON) == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "embedded-read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture()
def toy_sizes(monkeypatch):
    monkeypatch.setitem(embedded.CONFIG, "keys", 50_000)
    monkeypatch.setitem(embedded.CONFIG, "batch", 256)
    monkeypatch.setitem(embedded.CONFIG, "setups", 1)
    for name, rates in (("served-read", (200, 400, 600)),
                        ("served-mixed", (100, 200, 300))):
        cfg = dict(served.CONFIG[name], keys=20_000, rates=rates)
        if name == "served-mixed":
            cfg["serve"] = {"checkpoint_interval": 0.3}
        monkeypatch.setitem(served.CONFIG, name, cfg)
    monkeypatch.setattr(served, "SETUPS", 1)
    monkeypatch.setattr(served, "WARMUP_S", 0.2)
    for key, value in (("keys", 50_000), ("backlog", 300), ("burst", 100),
                       ("burst_rate", 400), ("setups", 1)):
        monkeypatch.setitem(replica.CONFIG, key, value)


@pytest.mark.parametrize("workload", sorted(metrics.RUNS_ON))
def test_traced_run_reports_every_layer_metric(workload, toy_sizes, tmp_path,
                                               monkeypatch, capsys):
    # the child server process starts from the checkout root
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr("pbench.common.OUT_DIR", str(tmp_path))
    monkeypatch.setattr("pbench.proc.OUT_DIR", str(tmp_path))
    monkeypatch.setattr("pbench.replica.OUT_DIR", str(tmp_path))
    import run

    status = run.main(["--workload", workload, "--seed", "3",
                       "--seconds", "2", "--trace", "1"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert status == 0 and result["correct"] and result["failed"] == 0
    got = result["metrics"]
    assert [n for n, _ in metrics.PER_LAYER] == list(got)
    missing = [n for n in metrics.RUNS_ON[workload] if not got[n]["value"]]
    assert missing == []
    assert "trace.overhead_pct" in got
