"""Shared harness for the reproduction experiments (E1-E6).

Benchmarks under ``benchmarks/`` use these helpers to print the same rows
and series the paper reports, in plain ASCII so that ``pytest benchmarks/
--benchmark-only -s`` regenerates every table and figure.
"""

from repro.experiments.harness import (
    NullBenchmark,
    ascii_series,
    format_table,
    print_experiment,
    record_metric,
    run_benchmark_cli,
    timed,
    write_metrics,
)

__all__ = ["format_table", "print_experiment", "ascii_series", "timed",
           "record_metric", "write_metrics", "run_benchmark_cli",
           "NullBenchmark"]
