"""repro — a reproduction of *Shift-Table: A Low-latency Learned Index for
Range Queries using Model Correction* (Hadian & Heinis, EDBT 2021).

Public API tour
---------------
The front door is the :class:`Index` facade — build, query, mutate,
save/reopen and serve through one handle:

>>> import numpy as np
>>> import repro
>>> keys = np.sort(np.random.default_rng(0).integers(0, 1 << 40, 100_000))
>>> index = repro.Index.build(keys, repro.IndexConfig(num_shards=4))
>>> int(index.lookup(keys[123])) == int(np.searchsorted(keys, keys[123]))
True
>>> bool(np.array_equal(index.scan(keys[10], keys[20]), keys[10:20]))
True

``index.save(path)`` / ``repro.open(path)`` persist and reopen the
whole engine without refitting; ``index.serve()`` returns the asyncio
serving front end.  The paper-layer primitives stay importable for
fine-grained work:

>>> from repro import SortedData, InterpolationModel, ShiftTable, CorrectedIndex
>>> data = SortedData(keys)
>>> model = InterpolationModel(keys)          # the paper's dummy IM model
>>> layer = ShiftTable.build(keys, model)     # one-pass correction layer
>>> paper_index = CorrectedIndex(data, model, layer)
>>> int(paper_index.lookup(keys[123])) == int(index.lookup(keys[123]))
True

Subpackages: ``repro.core`` (Shift-Table, cost model, tuner),
``repro.models`` (IM, linear, RMI, RadixSpline, PGM), ``repro.search``
(binary/linear/exponential/interpolation/TIP), ``repro.algorithmic``
(ART, FAST, RBS, B+tree), ``repro.hardware`` (the simulated memory
hierarchy), ``repro.datasets`` (SOSD generators and surrogates),
``repro.bench`` (the experiment harness behind every table and figure),
``repro.engine`` (sharded vectorised batch engine with updatable shard
backends and whole-engine persistence), ``repro.serve`` (asyncio
serving front end: micro-batching, write-coherent result caching,
telemetry), ``repro.net`` (framed TCP protocol, server and
pipelining client), ``repro.replica`` (leader/follower replication: checkpoint
shipping + WAL-tail streaming read replicas).
"""

from .api import Index, IndexConfig, open
from .core import (
    CompactShiftTable,
    CorrectedIndex,
    FenwickTree,
    LatencyCurve,
    ShiftTable,
    SortedData,
    UpdatableCorrectedIndex,
    expected_error,
    latency_with_layer,
    latency_without_layer,
    measure_latency_curve,
    tune,
    tune_radix_spline,
    tune_rmi,
)
from .hardware import MachineSpec, MemoryHierarchy, SimTracker
from .models import (
    CDFModel,
    InterpolationModel,
    LinearModel,
    PGMModel,
    RadixSplineModel,
    RMIModel,
)

__version__ = "1.1.0"

__all__ = [
    "Index",
    "IndexConfig",
    "open",
    "ShiftTable",
    "CompactShiftTable",
    "CorrectedIndex",
    "SortedData",
    "UpdatableCorrectedIndex",
    "FenwickTree",
    "LatencyCurve",
    "measure_latency_curve",
    "expected_error",
    "latency_with_layer",
    "latency_without_layer",
    "tune",
    "tune_rmi",
    "tune_radix_spline",
    "CDFModel",
    "InterpolationModel",
    "LinearModel",
    "RMIModel",
    "RadixSplineModel",
    "PGMModel",
    "MachineSpec",
    "MemoryHierarchy",
    "SimTracker",
    "__version__",
]
