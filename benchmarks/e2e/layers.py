"""The per-layer metrics: what each is, what it should move, how it is
computed from one traced run.

``BENCHMARK.json`` lists these names with unit and direction (its
format has no room for more); the *prediction* — which end-to-end metric
on which workload a layer metric should move — lives in :data:`LAYERS`
and is rendered into the README.  ``tests/test_instrument.py`` keeps the
two in step.

All values are per timed op of the traced run unless the name says
otherwise.  The metrics of :data:`SPAN_METRICS` are *self* time in the
parent process (span duration minus the part its child spans cover), so
those rows of one workload partition its op wall-clock; ``looper.run_s``
and ``standing.*_s`` are whole durations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from measure import tail_percentile
from probes import adopt_fanned_out, self_times

__all__ = ["LayerMetric", "LAYERS", "compute", "SPAN_METRICS"]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str      # end-to-end metric @ workload this should move


_m = LayerMetric


LAYERS: list[LayerMetric] = [
    _m("sql.parse_s", "s", "lower", "op_s_p50 @ http_mixed; nothing elsewhere"),
    _m("sql.plan_s", "s", "lower", "op_s_p50 @ http_mixed; nothing elsewhere"),
    _m("sql.session_s", "s", "lower",
       "op_s_p50 @ http_mixed (statement glue around the executors)"),
    _m("operators.det_s", "s", "lower",
       "setup_s @ mc_* (cold), op_s_p50 @ standing_append, http_mixed"),
    _m("operators.instantiate_s", "s", "lower",
       "op_s_p50, peak_rss_mb @ mc_serial/mc_pool2; tail_serial via "
       "replenishment"),
    _m("operators.plan_runs", "count", "lower", "op_s_p50 @ tail_*"),
    _m("vg.stream_s", "s", "lower", "op_s_p50 @ mc_serial"),
    _m("vg.values_per_s", "1/s", "higher", "op_s_p50 @ mc_serial"),
    _m("mcdb.fold_s", "s", "lower", "op_s_p50 @ mc_serial, standing_append"),
    _m("mcdb.merge_s", "s", "lower", "op_s_p50 @ mc_pool2 (shard merge)"),
    _m("det_cache.lookup_s", "s", "lower",
       "op_s_p50 @ http_mixed, standing_append (append splice runs here)"),
    _m("det_cache.hits", "count", "higher",
       "op_s_p50 @ http_mixed, standing_append"),
    _m("det_cache.misses", "count", "lower",
       "op_s_p50 @ http_mixed, standing_append"),
    _m("det_cache.append_refreshes", "count", "lower",
       "op_s_p50 @ http_mixed, standing_append"),
    _m("det_cache.hit_ratio", "ratio", "higher",
       "op_s_p50 @ http_mixed, standing_append"),
    _m("looper.run_s", "s", "lower", "op_s_p50 @ tail_serial, tail_pool2"),
    _m("looper.step_s", "s", "lower", "op_s_p50 @ tail_serial, tail_pool2"),
    _m("looper.kernel_s", "s", "lower",
       "op_s_p50, cpu_s_per_op @ tail_serial (less @ tail_pool2: workers "
       "run it)"),
    _m("looper.window_serve_s", "s", "lower", "op_s_p50 @ tail_serial"),
    _m("looper.replenish_s", "s", "lower",
       "op_s_p50 @ tail_*, standing_append (engine's own timer; overlaps "
       "the operators/vg/backends rows)"),
    _m("looper.replenish_runs", "count", "lower",
       "op_s_p50 @ tail_*, standing_append"),
    _m("looper.other_s", "s", "lower",
       "op_s_p50 @ tail_serial (cloning, cutoff, sweep bookkeeping)"),
    _m("looper.proposals", "count", "lower",
       "none: any change is a behaviour change"),
    _m("looper.acceptances", "count", "higher",
       "none: any change is a behaviour change"),
    _m("looper.accept_ratio", "ratio", "higher",
       "none: any change is a behaviour change"),
    _m("looper.sharded_windows", "count", "higher",
       "op_s_p50 @ tail_pool2 only"),
    _m("looper.followup_windows", "count", "lower",
       "op_s_p50 @ tail_pool2 only"),
    _m("looper.speculated_windows", "count", "higher",
       "op_s_p50 @ tail_pool2 only"),
    _m("looper.wasted_speculations", "count", "lower",
       "op_s_p50 @ tail_pool2 only"),
    _m("looper.speculation_useful_ratio", "ratio", "higher",
       "op_s_p50 @ tail_pool2 only"),
    _m("backends.run_job_s", "s", "lower", "op_s_p50 @ mc_pool2"),
    _m("backends.state_call_s", "s", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.state_calls", "count", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.state_collect_s", "s", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.state_merge_s", "s", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.init_state_s", "s", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.state_send_s", "s", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.state_casts", "count", "lower", "op_s_p50 @ tail_pool2"),
    _m("backends.wait_share", "ratio", "lower", "op_s_p50 @ *_pool2"),
    _m("backends.sent_bytes_per_op", "B", "lower",
       "cpu_s_per_op, op_s_p50 @ *_pool2"),
    _m("backends.state_msg_bytes_per_op", "B", "lower",
       "cpu_s_per_op, op_s_p50 @ tail_pool2"),
    _m("backends.shm_bytes_per_op", "B", "lower",
       "cpu_s_per_op, op_s_p50 @ *_pool2"),
    _m("backends.shm_segments_per_op", "count", "lower",
       "cpu_s_per_op, op_s_p50 @ *_pool2"),
    _m("backends.worker_cpu_s_per_op", "s", "lower",
       "cpu_s_per_op @ *_pool2"),
    _m("backends.parallel_efficiency", "ratio", "higher",
       "none (the row the mode cull reads): serial twin's op_s_p50 / "
       "(2 x pool2 op_s_p50)"),
    _m("backends.cold_op_s", "s", "lower", "setup_s @ *_pool2"),
    _m("standing.append_s", "s", "lower", "op_s_p50 @ standing_append"),
    _m("standing.mc_refresh_s", "s", "lower", "op_s_p50 @ standing_append"),
    _m("standing.tail_refresh_s", "s", "lower",
       "op_s_p50 @ standing_append"),
    _m("standing.register_s", "s", "lower", "setup_s @ standing_append"),
    _m("standing.delta_refresh_share", "ratio", "higher",
       "op_s_p50 @ standing_append"),
    _m("standing.rows_computed_per_op", "count", "lower",
       "op_s_p50 @ standing_append"),
    _m("standing.rows_reused_per_op", "count", "higher",
       "op_s_p50 @ standing_append"),
    _m("server.submit_s", "s", "lower", "op_s_p50 @ http_mixed"),
    _m("server.poll_s", "s", "lower", "op_s_p50 @ http_mixed"),
    _m("server.append_s", "s", "lower", "op_s_p50 @ http_mixed"),
    _m("server.queue_s", "s", "lower", "op_s_p90 @ http_mixed"),
    _m("server.run_s", "s", "lower", "op_s_p90 @ http_mixed"),
    _m("server.overhead_s", "s", "lower",
       "op_s_p50, ops_per_s @ http_mixed (admission + wire + JSON)"),
    _m("server.admit_s", "s", "lower", "op_s_p50 @ http_mixed"),
    _m("server.wire_encode_s", "s", "lower", "op_s_p90 @ http_mixed"),
    _m("server.response_bytes_per_op", "B", "lower",
       "op_s_p90 @ http_mixed"),
    _m("server.rejected_429", "count", "lower", "failed ops @ http_mixed"),
    _m("server.op_s_p90", "s", "lower",
       "informational: traced p90 (>= 100 samples) @ http_mixed"),
    _m("server.op_s_p99", "s", "lower",
       "informational: traced p99 (>= 1000 samples) @ http_mixed"),
    _m("server.load_tables_s", "s", "lower", "setup_s @ http_mixed"),
    _m("trace.overhead_ratio", "ratio", "lower",
       "none (reported): traced op_s_p50 / untraced, same process"),
    _m("trace.unattributed_share", "ratio", "lower",
       "none (reported): op wall-clock no probed layer accounts for"),
    _m("trace.spans_per_op", "count", "lower", "none (reported)"),
]

#: ``_s`` metrics that are one span name's self time per op — the rows
#: of the "where the time goes" table.
SPAN_METRICS = {
    "sql.parse_s": "sql.parse", "sql.plan_s": "sql.plan",
    "sql.session_s": "sql.session",
    "operators.det_s": "operators.det",
    "operators.instantiate_s": "operators.instantiate",
    "vg.stream_s": "vg.stream",
    "mcdb.fold_s": "mcdb.fold", "mcdb.merge_s": "mcdb.run",
    "det_cache.lookup_s": "det_cache.lookup",
    "looper.kernel_s": "looper.kernel",
    "looper.window_serve_s": "looper.window_serve",
    "looper.other_s": "looper.run",
    "backends.run_job_s": "backends.run_job",
    "backends.state_call_s": "backends.state_call",
    "backends.state_collect_s": "backends.state_collect",
    "backends.state_merge_s": "backends.state_merge",
    "backends.init_state_s": "backends.init_state",
    "backends.state_send_s": "backends.state_send",
    "server.admit_s": "server.admit",
    "server.wire_encode_s": "server.wire_encode",
}


def _ratio(numerator, denominator):
    if numerator is None or denominator is None or not denominator:
        return None
    return numerator / denominator


def compute(records, spans, missing_spans, counters, workload, extras,
            worker_cpu_s, untraced_p50) -> dict:
    """Every :data:`LAYERS` value of one traced run (``None`` = does not
    apply to this workload, or its probe's symbol has moved)."""
    ops = len(records)
    adopt_fanned_out(spans)
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    count_by_name: dict[str, int] = {}
    for span in spans:
        self_by_name[span.name] = (
            self_by_name.get(span.name, 0.0) + selfs[id(span)])
        total_by_name[span.name] = (
            total_by_name.get(span.name, 0.0) + span.seconds)
        count_by_name[span.name] = count_by_name.get(span.name, 0) + span.count

    def per_op(table, name):
        return None if name in missing_spans else table.get(name, 0.0) / ops

    def outcome_mean(key):
        values = [r.outcome[key] for r in records
                  if isinstance(r.outcome, dict) and key in r.outcome]
        if not values or any(value is None for value in values):
            return None
        return sum(values) / len(values)

    def timer_mean(key):
        values = [r.timers[key] for r in records if key in r.timers]
        return sum(values) / len(values) if values else None

    def counter(key):
        return _ratio(counters.get(key), ops)

    values = {metric: per_op(self_by_name, span)
              for metric, span in SPAN_METRICS.items()}
    op_wall = sum(record.seconds for record in records)
    latencies = [record.seconds for record in records]

    values["operators.plan_runs"] = outcome_mean("plan_runs")
    values["vg.values_per_s"] = (
        None if "vg.stream" in missing_spans else _ratio(
            count_by_name.get("vg.stream"), self_by_name.get("vg.stream")))

    hits, misses = counters.get("det_cache.hits"), counters.get(
        "det_cache.misses")
    values["det_cache.hits"] = counter("det_cache.hits")
    values["det_cache.misses"] = counter("det_cache.misses")
    values["det_cache.append_refreshes"] = counter(
        "det_cache.append_refreshes")
    values["det_cache.hit_ratio"] = (
        None if hits is None else _ratio(hits, hits + misses))

    values["looper.run_s"] = per_op(total_by_name, "looper.run")
    values["looper.step_s"] = outcome_mean("step_seconds")
    values["looper.replenish_s"] = outcome_mean("replenish_seconds")
    values["looper.replenish_runs"] = outcome_mean("replenish_runs")
    for key in ("proposals", "acceptances", "sharded_windows",
                "followup_windows", "speculated_windows",
                "wasted_speculations"):
        values[f"looper.{key}"] = outcome_mean(key)
    values["looper.accept_ratio"] = _ratio(
        values["looper.acceptances"], values["looper.proposals"])
    speculated = values["looper.speculated_windows"]
    wasted = values["looper.wasted_speculations"]
    values["looper.speculation_useful_ratio"] = (
        None if speculated is None or wasted is None
        else _ratio(speculated, speculated + wasted))

    values["backends.state_calls"] = counter("backend.state_calls")
    values["backends.state_casts"] = counter("backend.state_casts")
    blocked = [values[name] for name in SPAN_METRICS
               if name.startswith("backends.")]
    values["backends.wait_share"] = (
        None if any(value is None for value in blocked)
        else _ratio(sum(blocked) * ops, op_wall))
    for key in ("sent_bytes", "state_msg_bytes", "shm_bytes", "shm_segments"):
        values[f"backends.{key}_per_op"] = counter(f"backend.{key}")
    values["backends.worker_cpu_s_per_op"] = worker_cpu_s / ops
    reference = extras.get("serial_reference_op_s")
    values["backends.parallel_efficiency"] = (
        _ratio(statistics.median(reference),
               workload.n_jobs * statistics.median(latencies))
        if reference else None)
    values["backends.cold_op_s"] = workload.cold_op_s

    # Whole durations (what a caller of append/refresh waits), not self
    # time: their inside is the operators/mcdb/looper rows.
    for key in ("append", "mc_refresh", "tail_refresh"):
        values[f"standing.{key}_s"] = per_op(total_by_name, f"standing.{key}")
    values["standing.register_s"] = workload.setup_timers.get("register_s")
    modes = [mode for r in records if isinstance(r.outcome, dict)
             for mode in r.outcome.get("modes", ())]
    values["standing.delta_refresh_share"] = (
        modes.count("delta") / len(modes) if modes else None)
    values["standing.rows_computed_per_op"] = outcome_mean("rows_computed")
    values["standing.rows_reused_per_op"] = outcome_mean("rows_reused")

    for key in ("submit_s", "poll_s", "append_s", "queue_s", "run_s"):
        values[f"server.{key}"] = timer_mean(key)
    queries = [r for r in records if "run_s" in r.timers]
    values["server.overhead_s"] = (
        sum(r.seconds - r.timers["run_s"] for r in queries) / len(queries)
        if queries else None)
    values["server.response_bytes_per_op"] = timer_mean("response_bytes")
    values["server.rejected_429"] = counter("server.rejected")
    served = "load_tables_s" in workload.setup_timers
    values["server.op_s_p90"] = (
        tail_percentile(latencies, 0.90) if served else None)
    values["server.op_s_p99"] = (
        tail_percentile(latencies, 0.99) if served else None)
    values["server.load_tables_s"] = workload.setup_timers.get(
        "load_tables_s")

    values["trace.overhead_ratio"] = _ratio(
        statistics.median(latencies), untraced_p50)
    # Op wall-clock not inside any probed layer.  Single-client workloads:
    # the op root's own self time.  http_mixed: what the server-side
    # spans (other threads, no op id) leave of the clients' latency.
    attributed = sum(seconds for name, seconds in self_by_name.items()
                     if name != "op")
    values["trace.unattributed_share"] = 1.0 - attributed / op_wall
    values["trace.spans_per_op"] = len(spans) / ops
    return values
