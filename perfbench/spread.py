"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload served-read --runs 10 [--first-seed 1]

Runs the benchmark once per seed (``first-seed``, ``first-seed + 1`` …)
with ``run_seconds`` from ``BENCHMARK.json`` and prints, per metric, the
median, the quartile spread ``(Q3 - Q1) / median`` from
``statistics.quantiles(values, n=4)`` and the metric's bound.  Each
run's result line is appended to ``.perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    os.makedirs(".perfbench", exist_ok=True)
    log_path = os.path.join(".perfbench", f"spread-{args.workload}.jsonl")
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(last)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        print(f"{name:<10} median {med:12.5g}  spread {spread:6.3f}  "
              f"bound {bounds.get(name)}  (third {bounds.get(name, 0) / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
