"""The benchmark's library: inputs, oracles, tracing, workloads, metrics."""
