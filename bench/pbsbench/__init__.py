"""Benchmark of pbsgame: four closed-loop workloads, end-to-end and per-layer metrics."""
