"""One segment of a served workload, in a process of its own.

    python3 perfbench/segment.py NAME SEED PART SECONDS TRACE OUT

Started by ``pbench/served.py``: launches the server, drives the rate
ladder, checks every answer and pickles its record to ``OUT``.
"""

from __future__ import annotations

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

if __name__ == "__main__":
    if len(sys.argv) != 7:
        sys.exit(__doc__)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from pbench import served

    name, seed, part, seconds, trace, out = sys.argv[1:]
    record = served.segment(name, int(seed), int(part), float(seconds),
                            bool(int(trace)))
    with open(out, "wb") as fh:
        pickle.dump(record, fh)
