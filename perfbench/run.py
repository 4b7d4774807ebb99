"""The repository's benchmark: one command, four workloads, oracle-checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload embedded-read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Every workload drives the program through its public API from outside
(``repro.Index``, ``repro.net.Client``, ``repro.replica.follow``),
checks every answer against an oracle, prints a table of its named
metrics with units, a "% vs raw" table against a plain baseline, and
as its last stdout line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps every layer boundary (``pbench/layers.py``) and
reports the per-layer metrics instead.  A full record of each run is
written under ``.perfbench/results/``.  Exit status is nonzero when
any answer was wrong or the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("embedded-read", "served-read", "served-mixed", "replica-sync")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _module(name: str):
    if name == "embedded-read":
        from pbench import embedded
        return embedded
    if name in ("served-read", "served-mixed"):
        from pbench import served
        return served
    from pbench import replica
    return replica


def _run_all(args) -> int:
    """Each workload in its own process, so one cannot warm the next."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout "
              "(no src/repro here to measure)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return _run_all(args)

    from pbench import common, metrics

    t0 = time.perf_counter()
    rec = _module(args.workload).run(args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    rec["workload"] = args.workload
    rec["wall_s"] = time.perf_counter() - t0
    rec["fingerprint"] = common.fingerprint(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, **rec.get("fingerprint", {}))

    headline = metrics.HEADLINE[args.workload]
    e2e = {"setup_s": rec["setup_s"], "p50_us": rec[f"{headline}_p50"],
           "p90_us": rec[f"{headline}_p90"], "rss_mb": rec["rss_mb"]}
    attempted, failed = int(rec["attempted"]), int(rec["failed"])
    common.emit_table(
        f"{args.workload} seed={args.seed} end-to-end "
        f"(headline p50_us/p90_us = {headline})",
        [("fail_ratio", failed / max(1, attempted), "share")]
        + [(n, v, u) for n, v, u in rec["named"]])
    if rec.get("vs_raw"):
        print("\n== % vs raw")
        for name, prog, raw, unit in rec["vs_raw"]:
            slower = 100.0 * (prog / raw - 1.0) if raw else float("nan")
            print(f"  {name:<26} program {prog:10.4g} {unit:<3} "
                  f"raw {raw:10.4g} {unit:<3} {slower:+8.1f}%")
    if args.trace:
        layer = rec["per_layer"]
        for row in rec.get("ledger", []):
            print(row)
        common.emit_table("per-layer (traced)",
                          [(n, layer[n], u) for n, u in metrics.PER_LAYER])
        chosen = [(n, layer[n], u) for n, u in metrics.PER_LAYER]
    else:
        chosen = [(n, e2e[n], u) for n, u in metrics.END_TO_END]
    print("\n== fingerprint " + json.dumps(rec["fingerprint"], sort_keys=True))

    rec["result_metrics"] = {n: {"value": v, "unit": u} for n, v, u in chosen}
    common.write_json(os.path.join(
        common.OUT_DIR, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), rec)
    correct = failed == 0 and all(math.isfinite(v) for _, v, _ in chosen)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, v, u in chosen},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
