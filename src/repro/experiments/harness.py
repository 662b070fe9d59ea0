"""ASCII reporting + machine-readable metrics for the benchmarks.

Besides the table/series printers, the harness collects benchmark
metrics into a flat ``{benchmark, metric, value, gate}`` record list:
benchmark functions call :func:`record_metric` as they compute their
headline numbers, and :func:`run_benchmark_cli` — the shared ``__main__``
entry point of every script under ``benchmarks/`` — writes them out as
JSON when the script is invoked with ``--json out.json``.  The CI bench
lane runs each benchmark that way and uploads the merged records as a
``BENCH_<sha>.json`` build artifact, so the performance trajectory is
tracked per commit instead of living only in scrollback.  Gate failures
still raise (failing the lane); the records written up to that point are
flushed first so the artifact shows *which* gate regressed.
"""

from __future__ import annotations

import argparse
import json
import numbers
import time
from typing import Callable, Sequence

__all__ = ["format_table", "print_experiment", "ascii_series", "timed",
           "record_metric", "write_metrics", "run_benchmark_cli",
           "NullBenchmark"]


class NullBenchmark:
    """Stand-in for the pytest-benchmark fixture under direct execution.

    ``run_benchmark_cli`` runs benchmark functions as plain callables;
    tests written against the ``benchmark`` fixture get this no-op
    implementation instead, which calls the measured function once and
    returns its result (the ``pedantic`` contract the scripts rely on).
    """

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))

#: Collected metric records, in call order.  Module-level on purpose:
#: benchmark functions stay plain callables (pytest collects them too,
#: where the records simply accumulate unread).
_METRICS: list[dict] = []


def _json_value(value):
    """Coerce NumPy scalars / odd numerics into plain JSON types."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    # Integral first, then any other real number as float — never the
    # reverse, which would silently truncate fractional metrics.
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return str(value)


def record_metric(benchmark: str, metric: str, value,
                  gate: str | None = None) -> None:
    """Record one benchmark measurement.

    ``gate`` is the human-readable acceptance threshold the benchmark
    asserts for this metric (e.g. ``">= 5x"``), or ``None`` for purely
    informational numbers.
    """
    _METRICS.append({"benchmark": benchmark, "metric": metric,
                     "value": _json_value(value), "gate": gate})


def write_metrics(path: str) -> None:
    """Write every recorded metric as a JSON array to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_METRICS, handle, indent=2)
        handle.write("\n")


def run_benchmark_cli(benchmarks: Sequence[Callable],
                      argv: Sequence[str] | None = None) -> None:
    """Shared ``__main__`` for the benchmark scripts.

    Runs each zero-argument benchmark callable in order.  A gate
    assertion fails the script, but only after every remaining benchmark
    has run and the records have been written (with ``--json out.json``)
    — a red CI lane therefore still uploads *all* the numbers, not just
    those measured before the first regression.
    """
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write collected {benchmark, metric, value, gate} records "
             "as a JSON array to PATH")
    args = parser.parse_args(argv)
    first_failure = None
    try:
        for benchmark in benchmarks:
            try:
                benchmark()
            except Exception as exc:
                if first_failure is None:
                    first_failure = exc
    finally:
        if args.json:
            write_metrics(args.json)
    if first_failure is not None:
        raise first_failure


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Monospace table with column auto-sizing."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.rjust(width)
                               for value, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, seconds)``."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def print_experiment(title: str, body: str) -> None:
    bar = "=" * max(len(title) + 4, 40)
    print(f"\n{bar}\n| {title}\n{bar}\n{body}\n")


def ascii_series(xs: Sequence[float], ys_by_label: dict[str, Sequence[float]],
                 width: int = 60, height: int = 16) -> str:
    """Crude multi-series ASCII line plot (used for the Figure 5 CDFs)."""
    all_y = [y for ys in ys_by_label.values() for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo or y_hi == y_lo:
        return "(degenerate series)"
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@"
    for index, (label, ys) in enumerate(ys_by_label.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            column = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = height - 1 - int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[row][column] = marker
    lines = ["".join(row) for row in grid]
    legend = "   ".join(f"{markers[i % len(markers)]} = {label}"
                        for i, label in enumerate(ys_by_label))
    footer = f"x: [{x_lo:.6g}, {x_hi:.6g}]  y: [{y_lo:.3g}, {y_hi:.3g}]"
    return "\n".join(lines + [legend, footer])
