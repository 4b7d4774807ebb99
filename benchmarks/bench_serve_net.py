#!/usr/bin/env python
"""Network serving: (transport × scenario) load matrix.

Standalone script (not a pytest-benchmark target) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_serve_net.py --smoke

Every response in every cell is oracle-verified against a live
``np.searchsorted`` mirror — the driver raises on a single mismatch —
and the payload is written to ``BENCH_serve.json`` with ``cpu_count``
recorded.  See :mod:`repro.bench.serve_net` for the scenario registry.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro.bench.serve_net import (
        SCENARIOS, render_report, run_serve_net_bench)
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.bench.serve_net import (
        SCENARIOS, render_report, run_serve_net_bench)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200_000,
                        help="keys in the dataset (default 200k)")
    parser.add_argument("--dataset", default="uden64")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--model", default="interpolation")
    parser.add_argument("--layer", default="R", choices=["R", "S", "none"])
    parser.add_argument("--backend", default="gapped",
                        choices=["static", "gapped", "fenwick"])
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client connections per cell")
    parser.add_argument("--rounds", type=int, default=8,
                        help="write+read rounds per cell")
    parser.add_argument("--scenarios", nargs="*", default=None,
                        choices=sorted(SCENARIOS),
                        help="scenario registry entries (default: all)")
    parser.add_argument("--transports", nargs="*",
                        default=["inproc", "tcp"],
                        choices=["inproc", "tcp"],
                        help="transports to run (default: both)")
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--max-wait-us", type=float, default=200.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", default="BENCH_serve.json",
                        metavar="PATH", dest="json_path",
                        help="result artifact path ('-' disables)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration (fast, still verified)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 20_000)
        args.clients = min(args.clients, 4)
        args.rounds = min(args.rounds, 2)

    payload = run_serve_net_bench(
        n=args.n,
        dataset=args.dataset,
        num_shards=args.shards,
        model=args.model,
        layer=None if args.layer == "none" else args.layer,
        backend=args.backend,
        clients=args.clients,
        rounds=args.rounds,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        transports=tuple(args.transports),
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        seed=args.seed,
    )
    print(render_report(
        payload, None if args.json_path == "-" else args.json_path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
