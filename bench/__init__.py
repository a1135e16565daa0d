"""The repo's benchmark: four workloads, windowed absolute metrics, an
outside-in per-layer trace.  See ``bench/README.md``."""
