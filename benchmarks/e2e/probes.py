"""Span tracing from outside the engine.

The traced run wraps the *public* callables at each layer boundary —
listed in :data:`PROBES`, resolved by dotted name — in thin recorders
kept entirely in this file: a span is ``(name, start, end, parent, op)``
with the parent taken from a thread-local stack, held in memory and
written out when the workload ends.  Nothing inside ``src/`` knows it is
being traced; the ROADMAP's trace spine will later feed the same metric
names from inside.

A probe whose symbol has moved is skipped with a warning and every
metric fed by its span name reads ``null`` — never a failure — so a
refactor of the looper or the backends can land without editing the
benchmark.

Worker processes are not traced: what the parent sees of them is the
time it spends blocked in the ``backends.*`` spans.
"""

from __future__ import annotations

import bisect
import importlib
import json
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

__all__ = ["Span", "Recorder", "Probe", "PROBES", "install", "self_times",
           "adopt_fanned_out"]


@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    op: int | None
    #: Work units the call produced (stream values gathered), when the
    #: probe counts them.
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink with a per-thread parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record one span; ``op`` starts a new operation on this thread
        (children inherit the id from their parent)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, time.perf_counter(), 0.0, parent, op)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent, op, count]``
        rows (names interned, parent as a row index or ``null``)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        names: dict[str, int] = {}
        rows = [[names.setdefault(span.name, len(names)),
                 span.start, span.end,
                 index.get(id(span.parent)) if span.parent else None,
                 span.op, span.count]
                for span in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span, keyed by ``id(span)``.

    A span's self time is its duration minus the part of its interval
    its child spans cover.  Children are merged as an interval union
    clipped to the parent, so overlapping children (work fanned out to
    other threads under one parent) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        covered, edge = 0.0, span.start
        for start, end in sorted(children.get(id(span), ())):
            start, end = max(start, edge), min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        result[id(span)] = span.seconds - covered
    return result


def adopt_fanned_out(spans: list[Span], owner: str = "backends.run_job"
                     ) -> None:
    """Give parentless spans that ran inside an ``owner`` span that span
    as parent.

    A thread backend runs shard work on pool threads — parentless spans
    there — while the caller blocks in ``backends.run_job``.  Adopting
    them makes the caller's self time what the shards leave uncovered
    (true waiting) instead of counting the same interval twice.  Matching
    is by containment in time, so with two callers blocked at once a
    shard may land under the other caller; totals stay right.
    """
    owners = sorted((span for span in spans if span.name == owner),
                    key=lambda span: span.start)
    starts = [span.start for span in owners]
    for span in spans:
        if span.parent is not None or span.name in ("op", owner):
            continue
        for candidate in reversed(owners[:bisect.bisect_right(
                starts, span.start)]):
            if candidate.end >= span.end:
                span.parent = candidate
                break


# -- the probe table ----------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``target`` is ``module:attr[.attr]``."""

    span: str | Callable
    target: str
    count: Callable | None = None


def _operator_span(node, *args, **kwargs) -> str:
    return ("operators.instantiate"
            if type(node).__name__ == "Instantiate" else "operators.det")


def _refresh_span(query, *args, **kwargs) -> str:
    return f"standing.{'tail' if query.kind == 'tail' else 'mc'}_refresh"


# A span chosen per call still has a known set of names, which is what
# reads null when the probe's target is gone.
_operator_span.names = ("operators.det", "operators.instantiate")
_refresh_span.names = ("standing.mc_refresh", "standing.tail_refresh")


def _size(result) -> int:
    return int(getattr(result, "size", 0))


_BACKEND_CLASSES = ("SerialBackend", "ThreadBackend", "ProcessBackend")
_BACKEND_OPS = {
    "run_job": "backends.run_job",
    "init_state": "backends.init_state",
    "state_call": "backends.state_call",
    "state_collect": "backends.state_collect",
    "state_merge": "backends.state_merge",
    # Fire-and-forget sends: the parent pays only the pickle + pipe write.
    "state_cast": "backends.state_send",
    "state_cast_all": "backends.state_send",
    "state_scatter": "backends.state_send",
    "discard_state": "backends.state_send",
}

PROBES: list[Probe] = [
    # sql: names as bound in the session/server namespaces (`from x
    # import y` copies the reference, so that is where a patch lands).
    Probe("sql.session", "repro.sql.session:Session.execute"),
    Probe("sql.parse", "repro.sql.session:parse"),
    Probe("sql.parse", "repro.server.app:parse_sql"),
    Probe("sql.plan", "repro.sql.session:compile_select"),
    Probe("sql.plan", "repro.sql.session:tail_looper"),
    Probe("sql.plan", "repro.sql.session:monte_carlo_executor"),
    # operators: one wrapper on the public entry point, named by node type.
    Probe(_operator_span, "repro.engine.operators:PlanNode.execute"),
    Probe("det_cache.lookup", "repro.engine.det_cache:SessionDetCache.lookup"),
    # vg: every way Instantiate pulls values out of the streams.
    Probe("vg.stream", "repro.engine.operators:gather_stream_windows", _size),
    Probe("vg.stream", "repro.vg.streams:RandomStream.values_at", _size),
    Probe("vg.stream", "repro.vg.streams:RandomStream.range_values", _size),
    Probe("vg.stream", "repro.vg.base:BlockStream.component_values_at", _size),
    # mcdb
    Probe("mcdb.run", "repro.engine.mcdb:MonteCarloExecutor.run"),
    Probe("mcdb.fold", "repro.engine.mcdb:MonteCarloExecutor.aggregate"),
    Probe("mcdb.fold", "repro.engine.mcdb:MonteCarloExecutor.fold_states"),
    Probe("mcdb.fold",
          "repro.engine.mcdb:MonteCarloExecutor.result_from_states"),
    # looper
    Probe("looper.run", "repro.core.gibbs_looper:GibbsLooper.run"),
    Probe("looper.kernel",
          "repro.core.gibbs_looper:candidate_window_matrices"),
    Probe("looper.window_serve",
          "repro.core.gibbs_looper:GibbsSeedShard.serve_window"),
    Probe("looper.window_serve",
          "repro.core.gibbs_looper:GibbsSeedShard.serve_followup"),
    Probe("looper.window_serve",
          "repro.core.gibbs_looper:GibbsSeedShard.serve_windows"),
    # backends: the public ExecutionBackend protocol on each transport.
    *[Probe(span, f"repro.engine.backends:{cls}.{method}")
      for cls in _BACKEND_CLASSES for method, span in _BACKEND_OPS.items()],
    # standing
    Probe("standing.append", "repro.sql.session:Session.append"),
    Probe("standing.register", "repro.sql.session:Session.standing_query"),
    Probe(_refresh_span, "repro.sql.session:StandingQuery.refresh"),
    # server
    Probe("server.admit", "repro.server.app:RiskService.submit"),
    Probe("server.wire_encode", "repro.server.app:output_to_wire"),
]


def _span_names(probe: Probe) -> tuple[str, ...]:
    return getattr(probe.span, "names", (probe.span,))


def _resolve(target: str):
    """``(owner, attribute name, current value)`` of a dotted target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _wrap(recorder: Recorder, func, probe: Probe):
    name, count = probe.span, probe.count

    def traced(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with recorder.span(label) as span:
            result = func(*args, **kwargs)
            if count is not None:
                span.count = count(result)
            return result

    traced.__wrapped__ = func
    return traced


class Installed:
    """Handle of one :func:`install`: what is missing, and the undo."""

    def __init__(self):
        self.missing_spans: set[str] = set()
        self._undo: list[tuple] = []

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:  # inherited: drop our override, uncover the base again
                delattr(owner, attr)
        self._undo.clear()


def install(recorder: Recorder, probes: list[Probe] | None = None
            ) -> Installed:
    """Wrap every resolvable probe target; warn about the rest."""
    installed = Installed()
    for probe in PROBES if probes is None else probes:
        try:
            owner, attr, func = _resolve(probe.target)
        except (ImportError, AttributeError) as exc:
            warnings.warn(
                f"probe target {probe.target!r} not found ({exc}); metrics "
                f"fed by {_span_names(probe)} report null", stacklevel=2)
            installed.missing_spans.update(_span_names(probe))
            continue
        had_own = attr in vars(owner)
        setattr(owner, attr, _wrap(recorder, func, probe))
        installed._undo.append((owner, attr, func, had_own))
    return installed
