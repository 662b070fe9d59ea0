"""The GibbsLooper operator (Sec. 7, Appendix A) with replenishment (Sec. 9).

The looper consumes the Gibbs tuples produced by a query plan and runs
Algorithm 3 over *database versions* — assignments of stream positions to
versions, tracked per TS-seed — rather than over materialized databases.
Key fidelity points, each mapped to the paper:

* **Loop inversion** — "it switches the inner and outer for loops of
  Algorithm 3 ... perturbs data values one at a time, looping through the
  DB versions, thereby amortizing expensive data scans" (Sec. 7).  The
  outer loop here runs over TS-seed handles in ascending order — or, when
  every seed is read by one single-seed tuple, over the anti-diagonals of
  the (seed, version) grid (:mod:`repro.core.wavefront`), the same cells
  in an order with the same results.
* **Priority queue** — Appendix A.2 (Fig. 3) keeps the Gibbs tuples in a
  priority queue keyed by their smallest unprocessed TS-seed handle and
  reinserts a processed tuple under its next-largest handle.  That queue
  pops the ascending union of all tuples' handles, so the looper walks
  that sorted list directly (the queue itself is the scalar oracle's, in
  ``tests/looper_oracles.py``).
* **Global consumption pointer** — rejection proposals always take the next
  *unused* stream value for the seed; rejected values are consumed and
  never reconsidered (TS-seed item 4; the 3.24 in Fig. 1 and the 21K in
  Fig. 3 are skipped permanently).
* **Cloning as a single pass** — elite-to-version overwriting copies one
  assignment column onto another in every TS-seed (Appendix A, Fig. 4b).
* **Replenishment** — when a seed's window runs dry mid-perturbation, the
  plan re-runs, materializing only new or currently assigned positions;
  deterministic sub-plans come from cache (Sec. 9).  Each seed's window
  is as deep as its own demand (:func:`~repro.core.ts_seed.plan_refuel`),
  a refuel re-plans only the seeds that would run dry, and the re-run
  covers only those seeds' Gibbs tuples, spliced into the rest — unless
  a tuple reads several seeds, when every tuple is discarded and rebuilt.

One deliberate implementation difference: per-version *current* attribute
values and presence bits are cached in dense arrays instead of being looked
up through (position -> window index) indirection on every delta
evaluation.  A refuel that rebuilds the tuples re-derives the cache from
TS-seed assignments, and one that splices checks it against the new
windows, so it is behaviorally identical to the paper's scheme and is
validated against it in the test suite.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cloner import clone_indices
from repro.core.gibbs import GibbsStats
from repro.core.gibbs_tuple import GibbsTuple, tuples_from_relation
from repro.core.params import TailParams
from repro.core.ts_seed import TSSeed, plan_refuel
from repro.core.wavefront import Wavefront
from repro.engine.bundles import BundleRelation, ordered_column_sum, take_runs
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import DictContext, Expr
from repro.engine.operators import ExecutionContext, PlanNode
from repro.engine.options import ExecutionOptions
from repro.engine.table import Catalog

__all__ = ["LooperStepTrace", "LooperResult", "GibbsLooper",
           "WindowCandidates", "window_candidates", "single_seed_rows",
           "candidate_window_matrices"]

_SUPPORTED_AGGREGATES = ("sum", "count", "avg")
#: Vectorized-kernel window sizing.  Purely vectorization knobs: window
#: boundaries never change which candidate is accepted, only how many are
#: evaluated per NumPy call.  Width grows with the observed rejection rate
#: (rejection-heavy seeds want long candidate runs for few versions), while
#: the row count shrinks with it (each row serves one DB version).
_VECTOR_BATCH = 128
_WINDOW_MAX_WIDTH = 4096
_WINDOW_TARGET_VERSIONS = 32


@dataclass
class LooperStepTrace:
    """Per-bootstrapping-iteration record (feeds E1's timing table)."""

    step: int
    cutoff: float
    elite_count: int
    cloned_to: int
    stats: GibbsStats
    replenish_runs: int
    seconds: float


@dataclass
class LooperResult:
    """Output of the GibbsLooper: quantile estimate + tail samples."""

    quantile_estimate: float
    samples: np.ndarray
    trace: list[LooperStepTrace]
    params: TailParams
    plan_runs: int
    num_seeds: int
    num_tuples: int
    #: One dict per final version: TS-seed handle -> assigned stream position
    #: (the compact representation of the sampled database instance).
    assignments: list[dict[int, int]]
    #: Replenishment accounting (Sec. 9 / the delta protocol): how many
    #: window refuels rebuilt every bundle from the streams vs. merged only
    #: never-materialized positions, and the wall-clock spent in them.
    full_replenish_runs: int = 0
    delta_replenish_runs: int = 0
    replenish_seconds: float = 0.0

    @property
    def total_stats(self) -> GibbsStats:
        merged = GibbsStats()
        for step in self.trace:
            merged.merge(step.stats)
        return merged

    def frequency_table(self) -> list[tuple[float, float]]:
        """Sec. 2's ``FTABLE(value, FRAC)`` over the tail samples."""
        values, counts = np.unique(self.samples, return_counts=True)
        return [(float(v), float(c) / len(self.samples))
                for v, c in zip(values, counts)]


class _TupleState:
    """Per-version cached state for one Gibbs tuple.

    ``values[col]`` and ``presence[j]`` hold the tuple's current attribute
    values / isPres bits under each version's assignment;
    ``contribution`` and ``presence_count`` are what the tuple adds to the
    accumulators (its aggregate argument where present, else ``0.0``;
    ``1.0`` where present, else ``0.0``) — rows of the looper's
    ``(tuples, versions)`` matrices.

    ``candidate`` is the tuple's row in the looper's
    :class:`WindowCandidates` when every random field and presence field
    belongs to one seed, else ``None``.  Only a *multi-seed* tuple ever
    reads ``values``/``presence`` (another seed's candidates combine with
    this seed's current values), so only such a tuple has them; a
    single-seed tuple's are left empty, and its commit gathers from the
    per-refuel arrays.
    """

    __slots__ = ("values", "presence", "contribution", "presence_count",
                 "candidate")

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.presence: list[np.ndarray] = []
        self.contribution: np.ndarray | None = None
        self.presence_count: np.ndarray | None = None
        self.candidate: int | None = None


@dataclass
class WindowCandidates:
    """A refuel's candidates for the single-seed Gibbs tuples, one run
    per tuple.

    Run ``i`` (``contribution[i]``, ``presence_count[i]``) belongs to the
    ``i``-th single-seed tuple, its element ``b`` to window slot ``b`` of
    the tuple's seed: what that tuple would add to the accumulators if
    its seed moved to slot ``b``.  Such a tuple reads no other seed, so a
    candidate is the same for every DB version — these are computed once
    per refuel, not once per window, and a refuel replaces the runs of
    the tuples it re-planned one at a time.  ``always_present`` says no
    presence field or final predicate can drop a row: then
    ``contribution`` is the aggregate argument itself and every count is
    1.
    """

    contribution: list[np.ndarray]
    presence_count: list[np.ndarray]
    always_present: bool


def _row_seeds(relation: BundleRelation) -> np.ndarray:
    """Per row: the one seed its Gibbs tuple depends on, or ``-1``.

    A tuple's seeds are its random columns' handles plus the handles of
    its non-vacuous presence arrays (vacuous ones are dropped from the
    Gibbs tuple, cf. :func:`~repro.core.gibbs_tuple.tuples_from_relation`).
    """
    rows = relation.length
    lowest = np.full(rows, np.iinfo(np.int64).max)
    highest = np.full(rows, -1, dtype=np.int64)
    for column in relation.rand_columns.values():
        np.minimum(lowest, column.seed_handles, out=lowest)
        np.maximum(highest, column.seed_handles, out=highest)
    for presence in relation.presence:
        counted = ~presence.vacuous()
        handles = presence.seed_handles
        lowest = np.where(counted, np.minimum(lowest, handles), lowest)
        highest = np.where(counted, np.maximum(highest, handles), highest)
    return np.where(lowest == highest, highest, -1)


def single_seed_rows(relation: BundleRelation) -> np.ndarray:
    """Rows of ``relation`` whose Gibbs tuple depends on exactly one seed
    (see :func:`_row_seeds`)."""
    return np.flatnonzero(_row_seeds(relation) >= 0)


def window_candidates(relation: BundleRelation, rows: np.ndarray,
                      aggregate_expr: Expr | None,
                      final_predicate: Expr | None) -> WindowCandidates:
    """Every candidate of the single-seed tuples ``rows``, in one pass
    (:func:`_candidate_cells`), one run per tuple."""
    contribution, presence_count, always_present, offsets = \
        _candidate_cells(relation, rows, aggregate_expr, final_predicate)
    bounds = offsets.tolist()

    def runs(cells):
        return [cells[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    return WindowCandidates(runs(contribution), runs(presence_count),
                            always_present)


def _candidate_cells(relation: BundleRelation, rows: np.ndarray,
                     aggregate_expr: Expr | None,
                     final_predicate: Expr | None):
    """Every candidate of the single-seed tuples ``rows`` as flat runs:
    ``(contribution, presence_count, always_present, offsets)``.

    The aggregate expression and predicates are evaluated once over the
    runs of ``rows``, each as long as its row's seed's window.  A random
    column of such a row, and a presence array of its seed, has that
    run; a presence array of another seed is vacuous for the row (else
    the row would not be single-seed) but may be of another length, so
    it is read as all-true over the row's run instead.  Evaluation is
    elementwise, so element ``b`` of run ``i`` has the bits the
    per-window evaluation would give slot ``b`` of tuple ``rows[i]``.  A
    bare column with no presence and no predicate costs nothing:
    ``contribution`` is then the relation's own run array.
    """
    every = rows.size == relation.length
    seeds = _row_seeds(relation)[rows] if relation.presence else None

    def own_rows(column):
        """Which of ``rows`` read ``column`` at their own seed."""
        if seeds is None or column.seed_handles is None:
            return None
        own = column.seed_handles[rows] == seeds
        return None if own.all() else own

    lengths = np.full(rows.size, -1, dtype=np.int64)  # -1: not yet seen
    for column in (*relation.rand_columns.values(), *relation.presence):
        _, column_offsets = column.runs()
        found = column_offsets[rows + 1] - column_offsets[rows]
        own = own_rows(column)
        if own is not None:
            found = np.where(own, found, -1)
        if np.any((lengths >= 0) & (found >= 0) & (lengths != found)):
            raise EngineError("columns of one seed have different runs")
        np.maximum(lengths, found, out=lengths)
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])

    def take(column):
        elements, column_offsets = column.runs()
        if every:
            return elements
        return take_runs(elements, column_offsets, rows)[0]

    columns, flags = {}, []
    for name, column in relation.rand_columns.items():
        columns[name] = take(column)
    for presence in relation.presence:
        own = own_rows(presence)
        if own is None:
            flags.append(take(presence))
            continue
        cells = np.ones(int(offsets[-1]), dtype=bool)
        elements, column_offsets = presence.runs()
        cells[np.repeat(own, lengths)] = take_runs(
            elements, column_offsets, rows[own])[0]
        flags.append(cells)
    wanted = set()
    for expr in (aggregate_expr, final_predicate):
        if expr is not None:
            wanted |= expr.columns()
    for name, det_values in relation.det_columns.items():
        if name in wanted:
            columns[name] = np.repeat(
                det_values if every else det_values[rows], lengths)
    context = DictContext(columns)
    shape = (int(offsets[-1]),)
    value = 1.0 if aggregate_expr is None else np.asarray(
        aggregate_expr.evaluate(context), dtype=np.float64)
    present = None  # None: present in every cell
    for cells in flags:
        if not cells.all():
            present = cells if present is None else present & cells
    if final_predicate is not None:
        cells = np.asarray(final_predicate.evaluate(context), dtype=bool)
        present = cells if present is None else present & cells
    if present is None:
        return (np.broadcast_to(value, shape), np.broadcast_to(1.0, shape),
                True, offsets)
    return (np.broadcast_to(np.where(present, value, 0.0), shape),
            np.broadcast_to(present.astype(np.float64), shape), False,
            offsets)


def candidate_window_matrices(tuples: list[GibbsTuple],
                              states: list[_TupleState], handle: int,
                              aggregate_expr: Expr | None,
                              final_predicate: Expr | None,
                              first_version: int, count: int,
                              start: int, stop: int):
    """Batched candidate deltas for one seed's window — the Gibbs hot loop.

    Element ``[v, b]`` of ``delta_sum``/``delta_count`` (broadcast to
    ``(count, width)``) is exactly what the scalar reference path computes
    for version ``first_version + v`` and window slot ``start + b``, bit
    for bit, so the accept/reject decisions match too.  The argument:
    every intermediate stays at its natural broadcast rank — the
    perturbed seed's own window slice is ``(width,)``, another seed's
    per-version cache ``(count, 1)`` — and broadcasting evaluates an
    elementwise operation on such an operand to the very values it would
    produce on that operand repeated out to ``(count, width)``; each cell
    still goes through the same operations in the same per-tuple
    accumulation order as the dense form, which only repeated them.
    Nothing is densified before ``contribution - old_contribution``, and
    the first tuple's difference is the result instead of being added to
    a zero matrix: ``(c + 0.0) - o`` has the bits of ``0.0 + (c - o)``
    (both differ from ``c - o`` only for ``c = -0.0, o = +0.0``).
    ``cand_values``/``cand_present`` are read-only ``(count, width)``
    broadcast views — the commit only gathers single cells from them.
    A state's per-version caches are read only for fields of another
    seed, so a single-seed tuple needs none.

    A *pure* function: it reads only the Gibbs tuples/states passed in,
    never looper state, so the kernel tests can hold it against a dense
    reference on hand-built inputs.
    """
    shape = (count, stop - start)
    window = slice(start, stop)
    remaining = slice(first_version, first_version + count)
    delta_sum = delta_count = None
    cand_values, cand_present = [], []
    for gibbs_tuple, state in zip(tuples, states):
        columns: dict[str, np.ndarray] = {}
        for name, det_value in gibbs_tuple.det.items():
            columns[name] = np.asarray(det_value)
        for name, rand_field in gibbs_tuple.rand.items():
            if rand_field.handle == handle:
                columns[name] = rand_field.values[window]
            else:
                columns[name] = state.values[name][remaining, None]
        context = DictContext(columns)
        value = 1.0 if aggregate_expr is None else np.asarray(
            aggregate_expr.evaluate(context), dtype=np.float64)
        present = None  # None: present in every cell
        for slot, presence_field in enumerate(gibbs_tuple.presences):
            flags = (presence_field.flags[window]
                     if presence_field.handle == handle
                     else state.presence[slot][remaining, None])
            present = flags if present is None else present & flags
        if final_predicate is not None:
            flags = np.asarray(final_predicate.evaluate(context), dtype=bool)
            present = flags if present is None else present & flags
        if present is None:
            present, contribution, presence_count = np.True_, value, 1.0
        else:
            contribution = np.where(present, value, 0.0)
            presence_count = present.astype(np.float64)
        old_contribution = state.contribution[remaining, None]
        old_count = state.presence_count[remaining, None]
        if delta_sum is None:
            delta_sum = (contribution + 0.0) - old_contribution
            delta_count = presence_count - old_count
        else:
            delta_sum = delta_sum + (contribution - old_contribution)
            delta_count = delta_count + (presence_count - old_count)
        cand_values.append(np.broadcast_to(value, shape))
        cand_present.append(np.broadcast_to(present, shape))
    return delta_sum, delta_count, cand_values, cand_present


class GibbsLooper:
    """Tail sampling over a tuple-bundle query plan.

    Parameters
    ----------
    plan:
        Physical plan producing the final pre-aggregation Gibbs tuples.
    aggregate_kind / aggregate_expr:
        The final aggregate (``sum``/``avg`` with an expression, ``count``
        with ``None``) from whose result distribution we sample.
    final_predicate:
        The pulled-up selection predicate applied per tuple before
        aggregation (e.g. ``sal2 > sal1`` in Fig. 2); may reference random
        columns from any number of seeds.
    params / num_samples / k:
        Algorithm 3 parameters (Appendix C) and the Gibbs step count.
    window:
        Stream values materialized per TS-seed by the first plan run (the
        paper uses 1000 in Appendix D), and the least number of fresh
        positions a refuel gives a seed; a seed whose demand is higher
        gets a deeper window (:func:`~repro.core.ts_seed.plan_refuel`).
        Results do not depend on it — only the refuel schedule
        (``plan_runs``) does.
    options:
        :class:`~repro.engine.options.ExecutionOptions`.  None of its
        knobs reaches the sweep: it always runs in this process, whatever
        ``n_jobs`` is.  A sweep is Gauss–Seidel over the seeds — cell
        (seed, version) reads the running total the previous seed's cell
        moved and the pointer the previous version's cell moved — so its
        independent work lies along anti-diagonals, one NumPy pass each
        (:class:`~repro.core.wavefront.Wavefront`), not across processes.

    When every seed is read by exactly one single-seed tuple the sweep
    runs by anti-diagonals; any other query — a multi-seed tuple, or a
    seed read by several tuples — runs seed-major, each seed through the
    batched window kernel (:meth:`_perturb_seed`).  Every refuel is a
    delta refuel of the seeds that would run dry, run over their rows
    only when the plan allows (:meth:`_replenish`).  The scalar
    per-version kernel and the full-rebuild refuel it replaced are kept
    in ``tests/looper_oracles.py`` as subclasses, and
    ``tests/test_engine_equivalence.py`` holds this class bit-identical
    to them.
    """

    def __init__(self, plan: PlanNode, catalog: Catalog, params: TailParams,
                 num_samples: int, aggregate_kind: str = "sum",
                 aggregate_expr: Expr | None = None,
                 final_predicate: Expr | None = None,
                 k: int = 1, window: int = 1000, base_seed: int = 0,
                 max_proposals: int = 100_000,
                 options: ExecutionOptions | None = None,
                 det_cache=None):
        if aggregate_kind not in _SUPPORTED_AGGREGATES:
            raise PlanError(
                f"GibbsLooper supports {_SUPPORTED_AGGREGATES}, got "
                f"{aggregate_kind!r} (Appendix B: only insensitive "
                "aggregates admit efficient Gibbs updates)")
        if aggregate_kind != "count" and aggregate_expr is None:
            raise PlanError(f"{aggregate_kind.upper()} needs an expression")
        if num_samples < 1:
            raise ValueError(f"need >= 1 tail samples, got {num_samples}")
        if k < 1:
            raise ValueError(f"need >= 1 Gibbs step per iteration, got {k}")
        if window < max(params.n_steps):
            raise ValueError(
                f"window ({window}) must cover the largest step size "
                f"({max(params.n_steps)}) for the initial assignment")
        self.plan = plan
        self.catalog = catalog
        self.params = params
        self.num_samples = num_samples
        self.aggregate_kind = aggregate_kind
        self.aggregate_expr = aggregate_expr
        self.final_predicate = final_predicate
        self.k = k
        self.window = window
        self.base_seed = base_seed
        self.max_proposals = max_proposals
        self.options = options or ExecutionOptions()
        self.det_cache = det_cache

        # Run-time state (populated by run()).
        self._context: ExecutionContext | None = None
        self._seeds: dict[int, TSSeed] = {}
        self._tuples: list[GibbsTuple] = []
        self._states: list[_TupleState] = []
        self._tuples_of_seed: dict[int, list[int]] = {}
        #: Seed handles in sweep order: every handle some tuple reads,
        #: ascending (see _perturb_all_seeds).
        self._visit_order: list[int] = []
        # (tuples, versions) caches: the _TupleStates' contribution/
        # presence_count rows.
        self._contribution_matrix: np.ndarray | None = None
        self._count_matrix: np.ndarray | None = None
        #: Per relation row, the one seed its tuple reads (else -1); the
        #: rows of the single-seed tuples, and their candidates over the
        #: current windows (renewed, row by row, on every refuel).
        self._row_seeds: np.ndarray | None = None
        self._single_rows: np.ndarray | None = None
        self._candidates: WindowCandidates | None = None
        #: Gibbs sweeps completed in this run, and the versions of every
        #: sweep of it — the refuel policy's clock.
        self._sweep = 0
        self._sweep_versions = [
            versions for versions in (*params.n_steps[1:], num_samples)
            for _ in range(k)]
        self._sums: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._versions = 0
        self._replenish_runs = 0
        self._replenished_flag = False
        self._full_replenish_runs = 0
        self._delta_replenish_runs = 0
        self._replenish_seconds = 0.0
        self._window_signature: tuple | None = None
        #: Window positions spliced since the last run over every row.
        self._spliced = 0

    # -- public entry ---------------------------------------------------------

    def run(self) -> LooperResult:
        """Execute the full tail-sampling pipeline and return the result."""
        versions = self.params.n_steps[0]
        self._context = ExecutionContext(
            self.catalog, positions=self.window, aligned=False,
            base_seed=self.base_seed, det_cache=self.det_cache)
        self._context.delta_tracking = True
        initial_relation = self.plan.execute(self._context)
        self._context.plan_runs += 1
        # Not kept past ingestion: the looper re-points every tuple at
        # each refuel's windows, and a reference held here would keep the
        # initial windows alive through the whole run.
        self._ingest(initial_relation, versions, initial=True)
        del initial_relation

        next_sizes = list(self.params.n_steps[1:]) + [self.num_samples]
        clone_rng = np.random.default_rng(
            np.random.SeedSequence((self.base_seed, 0xC10E)))
        trace: list[LooperStepTrace] = []
        cutoff = -np.inf
        for step, (p_i, next_n) in enumerate(
                zip(self.params.p_steps, next_sizes), start=1):
            started = time.perf_counter()
            replenish_before = self._replenish_runs
            totals = self._totals()
            elite = max(1, int(round(p_i * totals.size)))
            order = np.argsort(totals, kind="stable")
            cutoff = float(totals[order[-elite]])
            keep = np.nonzero(totals >= cutoff)[0]
            sources = keep[clone_indices(keep.size, next_n, clone_rng)]
            self._clone(sources)
            stats = GibbsStats()
            for _ in range(self.k):
                last = self._sweep_versions[self._sweep - 1] \
                    if self._sweep else 0
                for ts in self._seeds.values():
                    ts.begin_sweep(last)
                self._perturb_all_seeds(cutoff, stats)
                self._sweep += 1
            trace.append(LooperStepTrace(
                step=step, cutoff=cutoff, elite_count=int(keep.size),
                cloned_to=next_n, stats=stats,
                replenish_runs=self._replenish_runs - replenish_before,
                seconds=time.perf_counter() - started))

        samples = self._totals()
        assignments = self._assignment_dicts(samples.size)
        return LooperResult(
            quantile_estimate=cutoff, samples=samples, trace=trace,
            params=self.params,
            plan_runs=self._context.plan_runs,
            num_seeds=len(self._seeds), num_tuples=len(self._tuples),
            assignments=assignments,
            full_replenish_runs=self._full_replenish_runs,
            delta_replenish_runs=self._delta_replenish_runs,
            replenish_seconds=self._replenish_seconds)

    def _assignment_dicts(self, versions: int) -> list[dict[int, int]]:
        """``LooperResult.assignments``: one ``handle -> position`` dict
        per version, from one ``(versions, seeds)`` matrix."""
        if not self._seeds:
            return [{} for _ in range(versions)]
        handles = list(self._seeds)
        matrix = np.stack([ts.assignment for ts in self._seeds.values()],
                          axis=1)
        return [dict(zip(handles, row)) for row in matrix.tolist()]

    # -- ingestion and caches ---------------------------------------------------

    def _ingest(self, relation: BundleRelation, versions: int,
                initial: bool) -> None:
        """(Re)build tuples, TS-seeds and per-version caches from a plan
        run over every row: the initial run, or a refuel that could not
        splice (:meth:`_refuel_all`).  Seeds persist across a refuel, and
        every cache is re-derived from their assignments.  The output's
        row-by-row signature is kept: it is what a Δ refuel's rows are
        matched against (:meth:`_signatures_match`).
        """
        self._versions = versions
        self._tuples = tuples_from_relation(relation)
        self._validate_columns(relation)
        handles_in_play = set()
        for gibbs_tuple in self._tuples:
            handles_in_play.update(gibbs_tuple.handles)

        if initial:
            self._seeds = {}
            self._sweep = 0
        for handle in sorted(handles_in_play):
            if handle not in self._seeds:
                # Initial run, or (replenishment) a tuple resurfaced whose
                # seed never mattered before.
                info = self._context.seed_info(handle)
                self._seeds[handle] = TSSeed.initial(
                    info, self._context.positions_for(handle), versions)
            else:
                # Replenishment: seeds persist; refresh their
                # materialized lists.
                self._seeds[handle].positions = (
                    self._context.positions_for(handle))

        self._tuples_of_seed = {}
        for index, gibbs_tuple in enumerate(self._tuples):
            for handle in gibbs_tuple.handles:
                self._tuples_of_seed.setdefault(handle, []).append(index)
        self._visit_order = sorted(self._tuples_of_seed)

        self._rebuild_states(relation)
        self._window_signature = self._relation_signature(relation)
        self._spliced = 0

    @staticmethod
    def _relation_signature(relation: BundleRelation) -> tuple:
        """Structural identity of a plan output, row by row: the seed
        handles of every random column, the non-vacuous presence pattern
        and the deterministic values.

        ``(length, names, arrays)``: ``names`` the column layout,
        ``arrays`` one entry per row each.  Rows with equal signatures
        are the same Gibbs tuples — only their window contents may
        differ, which is exactly what a refuel swaps in place.
        """
        names = (tuple(relation.rand_columns), len(relation.presence),
                 tuple(relation.det_columns))
        arrays = [column.seed_handles
                  for column in relation.rand_columns.values()]
        for presence in relation.presence:
            arrays += [presence.seed_handles, presence.vacuous()]
        arrays += relation.det_columns.values()
        return relation.length, names, arrays

    def _signatures_match(self, signature: tuple, rows: np.ndarray) -> bool:
        """Whether ``signature``'s rows are the Gibbs tuples ``rows``, in
        order."""
        previous = self._window_signature
        return signature[1] == previous[1] and signature[0] == rows.size \
            and all(np.array_equal(new, old[rows])
                    for new, old in zip(signature[2], previous[2]))

    def _point_windows(self, relation: BundleRelation,
                       rows: np.ndarray) -> None:
        """Re-point the Gibbs tuples ``rows`` at the runs of
        ``relation``'s rows, in order."""
        def runs(column):
            elements, offsets = column.runs()
            return elements, offsets.tolist()

        rand_runs = [(name, *runs(column))
                     for name, column in relation.rand_columns.items()]
        presence_runs = [(*runs(presence), presence.vacuous().tolist())
                         for presence in relation.presence]
        for at, row in enumerate(rows.tolist()):
            gibbs_tuple = self._tuples[row]
            for name, values, offsets in rand_runs:
                gibbs_tuple.rand[name].values = \
                    values[offsets[at]:offsets[at + 1]]
            slot = 0
            for flags, offsets, vacuous in presence_runs:
                if vacuous[at]:
                    continue
                gibbs_tuple.presences[slot].flags = \
                    flags[offsets[at]:offsets[at + 1]]
                slot += 1

    def _validate_columns(self, relation: BundleRelation) -> None:
        known = set(relation.det_columns) | set(relation.rand_columns)
        wanted = set()
        if self.aggregate_expr is not None:
            wanted |= self.aggregate_expr.columns()
        if self.final_predicate is not None:
            wanted |= self.final_predicate.columns()
        missing = wanted - known
        if missing:
            raise PlanError(
                f"aggregate/predicate reference unknown columns "
                f"{sorted(missing)}; plan provides {sorted(known)}")

    def _rebuild_states(self, relation: BundleRelation) -> None:
        """Recompute per-version caches and accumulators from assignments.

        Fully vectorized over the tuple axis: every random column's
        per-version values are gathered with one ``take_along_axis``, the
        aggregate expression and predicates are evaluated once over
        ``(tuples, versions)`` matrices, and the accumulators are
        strict-row-order column sums (:func:`ordered_column_sum`) —
        elementwise identical to the per-tuple reference loop, whose
        accumulation order they reproduce exactly.
        """
        versions = self._versions
        count = len(self._tuples)
        index_of = {
            handle: np.searchsorted(ts.positions, ts.assignment)
            for handle, ts in self._seeds.items()}
        self._states = []
        self._row_seeds = _row_seeds(relation)
        self._single_rows = np.flatnonzero(self._row_seeds >= 0)
        self._candidates = window_candidates(
            relation, self._single_rows, self.aggregate_expr,
            self.final_predicate)
        if not count:
            self._sums = np.zeros(versions)
            self._counts = np.zeros(versions)
            return

        first = np.zeros(versions, dtype=np.intp)

        def gather(column):
            """Each row's elements at its seed's assigned positions (an
            untracked seed's rows are vacuous presence: all true)."""
            elements, offsets = column.runs()
            index_matrix = np.stack(
                [index_of.get(int(handle), first)
                 for handle in column.seed_handles])
            index_matrix += offsets[:-1, None]
            return elements[index_matrix]

        columns: dict[str, np.ndarray] = {}
        gathered: dict[str, np.ndarray] = {}
        for name, column in relation.rand_columns.items():
            gathered[name] = gather(column)
            columns[name] = gathered[name]
        for name, det_values in relation.det_columns.items():
            columns[name] = det_values.reshape(count, 1)
        context = DictContext(columns)

        value = 1.0 if self.aggregate_expr is None else np.asarray(
            self.aggregate_expr.evaluate(context), dtype=np.float64)
        present_matrix = np.ones((count, versions), dtype=bool)
        gathered_presence = []
        vacuous_rows = []
        for presence in relation.presence:
            flags = gather(presence)
            # Vacuous (all-true) rows were dropped from the Gibbs tuples;
            # AND-ing them here is an exact no-op, so the combined
            # presence matches the per-tuple loop.
            present_matrix &= flags
            gathered_presence.append(flags)
            vacuous_rows.append(presence.vacuous())
        if self.final_predicate is not None:
            present_matrix &= np.broadcast_to(
                np.asarray(self.final_predicate.evaluate(context),
                           dtype=bool), (count, versions))

        self._contribution_matrix = np.where(present_matrix, value, 0.0)
        self._count_matrix = present_matrix.astype(np.float64)
        candidate_of = dict.fromkeys(range(count))
        candidate_of.update(
            zip(self._single_rows.tolist(), range(self._single_rows.size)))
        for row, gibbs_tuple in enumerate(self._tuples):
            state = _TupleState()
            state.candidate = candidate_of[row]
            if state.candidate is None:
                for name in gibbs_tuple.rand:
                    state.values[name] = gathered[name][row]
                for flags, vacuous in zip(gathered_presence, vacuous_rows):
                    if not vacuous[row]:
                        state.presence.append(flags[row])
            self._states.append(state)
        self._point_state_rows()
        self._accumulate_states()

    def _point_state_rows(self) -> None:
        """Re-point every state at its rows of the (tuples, versions)
        matrices."""
        for state, contribution, presence_count in zip(
                self._states, self._contribution_matrix, self._count_matrix):
            state.contribution = contribution
            state.presence_count = presence_count

    def _accumulate_states(self) -> None:
        """Accumulators from the contribution caches, in strict row order
        (:func:`ordered_column_sum`, as the Monte Carlo fold sums), so
        inserting the tuples one at a time — the reference behavior —
        rounds identically."""
        self._sums = ordered_column_sum(self._contribution_matrix)
        self._counts = ordered_column_sum(self._count_matrix)

    def _version_count(self) -> int:
        return self._versions

    def _totals(self) -> np.ndarray:
        if self.aggregate_kind == "sum":
            return self._sums.copy()
        if self.aggregate_kind == "count":
            return self._counts.copy()
        with np.errstate(invalid="ignore"):
            return np.where(self._counts > 0, self._sums /
                            np.maximum(self._counts, 1), -np.inf)

    # -- cloning ---------------------------------------------------------------

    def _clone(self, sources: np.ndarray) -> None:
        """Overwrite versions from elite sources (single pass, Appendix A)."""
        sources = np.asarray(sources, dtype=np.int64)
        self._versions = sources.size
        for ts in self._seeds.values():
            ts.clone_versions(sources)
        if self._states:
            self._contribution_matrix = np.take(self._contribution_matrix,
                                                sources, axis=1)
            self._count_matrix = np.take(self._count_matrix, sources,
                                         axis=1)
            self._point_state_rows()
        for state in self._states:
            if state.candidate is None:
                state.values = {name: values[sources]
                                for name, values in state.values.items()}
                state.presence = [flags[sources] for flags in state.presence]
        self._sums = self._sums[sources]
        self._counts = self._counts[sources]

    # -- perturbation ------------------------------------------------------------

    def _wavefront_ready(self) -> bool:
        """Whether every seed is read by exactly one single-seed tuple:
        then a sweep runs by anti-diagonals."""
        return 0 < self._single_rows.size == len(self._tuples) \
            == len(self._visit_order)

    def _perturb_all_seeds(self, cutoff: float, stats: GibbsStats) -> None:
        """One systematic Gibbs step over every seed (Sec. 7).

        Appendix A keeps the Gibbs tuples in a priority queue keyed by
        their smallest unprocessed handle and reinserts each processed
        tuple under its next-largest one.  Every tuple's key is then
        always its smallest handle above the last seed processed, so the
        queue pops exactly the ascending union of all tuples' handles —
        ``_visit_order``, fixed between ingests.  The sweep runs by
        anti-diagonals when it can (:class:`Wavefront`); it runs
        seed-major otherwise, and also for the rest of a sweep whose
        refuel changed which seeds the tuples read, each seed resuming
        where the anti-diagonals left it.  A replenishment may rebuild
        the tuples mid-sweep (Sec. 9); a seed-major sweep then resumes in
        the new order past the seed it was on.
        """
        progress = {}
        if self._wavefront_ready():
            progress = Wavefront(self, cutoff, stats).run()
            if progress is None:
                return
        order = self._visit_order
        at = 0
        while at < len(order):
            handle = order[at]
            self._replenished_flag = False
            self._perturb_seed(handle, cutoff, stats,
                               *progress.get(handle, (0, 0)))
            if self._replenished_flag:
                order = self._visit_order
                at = bisect.bisect_right(order, handle)
            else:
                at += 1

    @staticmethod
    def _window_geometry(fresh: int, consumed_total: int,
                         served_total: int) -> tuple[int, int]:
        """Adaptive ``(width, max_rows)`` for the next candidate window.

        A pure function of the seed's fresh-range length and the
        consumption counters of the current perturbation call.  Window
        boundaries never change which candidate is accepted, only how many
        are evaluated per NumPy call.
        """
        # Candidates consumed per version completed (prior-smoothed).
        rate = (consumed_total + 4.0) / (served_total + 1.0)
        width = int(min(fresh,
                        max(_VECTOR_BATCH,
                            rate * _WINDOW_TARGET_VERSIONS),
                        _WINDOW_MAX_WIDTH))
        max_rows = int(min(width, max(8.0, 2.0 * width / rate + 1.0)))
        return width, max_rows

    def _perturb_seed(self, handle: int, cutoff: float,
                      stats: GibbsStats, version: int = 0,
                      proposals_used: int = 0) -> None:
        """Batched rejection sampling over the version axis of a seed,
        from ``version`` on (``proposals_used`` of its budget spent).

        Semantically identical to the reference path: stream positions are
        consumed strictly left-to-right by the versions in ascending order
        (the global consumption pointer of TS-seed item 4), so the accepted
        position for each version — and therefore every downstream result —
        is the same.  The difference is purely computational: candidate
        aggregate deltas are evaluated once per fresh-window batch as dense
        ``(versions, batch)`` matrices instead of once per (version, batch)
        pair, amortizing expression evaluation across all DB versions.
        """
        versions = self._version_count()
        consumed_total = 0  # adaptive window sizing: candidates consumed...
        served_total = 0    # ...and versions completed so far in this call
        while version < versions:
            ts = self._seeds[handle]
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            start, stop = ts.fresh_index_range()
            if start >= stop:
                self._refuel_dry(handle, version)
                ts = self._seeds[handle]
                affected = self._tuples_of_seed.get(handle, ())
                if not affected:
                    return
                start, stop = ts.fresh_index_range()
                if start >= stop:
                    raise EngineError(
                        f"replenishment produced no fresh values for seed "
                        f"{ts.handle}")
            width, max_rows = self._window_geometry(
                stop - start, consumed_total, served_total)
            window = self._build_window(
                ts, affected, version, cutoff, start, start + width,
                max_rows)
            accepted, consumed, version, proposals_used = \
                self._scan_window(ts, window, version, proposals_used,
                                  stats)
            consumed_total += consumed
            served_total += len(accepted[0])
            if accepted[0]:
                self._apply_acceptances(ts, affected, window, *accepted)

    def _scan_window(self, ts: TSSeed, window, version: int,
                     proposals_used: int, stats: GibbsStats):
        """:meth:`_walk` over a built window's acceptability matrix.

        A version's hit is one ``bytes.find`` over its row of the
        matrix's bytes, which reads only the cells the pointer actually
        passes.
        """
        lo, _, first_version, acceptable, _, _ = window
        rows, width = acceptable.shape
        data = acceptable.tobytes().find

        def find(version: int, column: int, limit: int) -> int:
            base = (version - first_version) * width
            hit = data(b"\x01", base + column, base + limit)
            return hit - base if hit >= 0 else -1

        return self._walk(ts, lo, width, version,
                          min(self._versions, first_version + rows),
                          proposals_used, find, stats)

    def _walk(self, ts: TSSeed, lo: int, width: int, version: int,
              version_limit: int, proposals_used: int, find,
              stats: GibbsStats):
        """Walk the consumption pointer through window slots
        ``[lo, lo + width)``.

        Implements the sequential semantics of the reference path —
        versions in ascending order, each taking the first acceptable
        not-yet-consumed candidate, rejected candidates consumed forever,
        ``max_proposals`` rejections per version before a stall — on
        plain ints.  ``find(version, column, limit)`` is the first
        acceptable column of ``version`` in ``[column, limit)`` (relative
        to ``lo``), or ``-1``; the counters reach ``stats`` once per
        window.  Returns the accepted versions and their window columns
        (a pair of parallel lists), the number of candidates consumed,
        and the resumption state.
        """
        max_proposals = self.max_proposals
        column = 0  # consumption pointer, relative to ``lo``
        proposals = stalls = 0
        accepted_versions: list[int] = []
        accepted_columns: list[int] = []
        while version < version_limit and column < width:
            limit = column + max_proposals - proposals_used
            if limit > width:
                limit = width
            hit = find(version, column, limit)
            if hit >= 0:
                proposals += hit - column + 1
                accepted_versions.append(version)
                accepted_columns.append(hit)
                column = hit + 1
            else:
                proposals += limit - column
                proposals_used += limit - column
                column = limit
                if proposals_used < max_proposals:
                    break  # window exhausted mid-version
                stalls += 1  # keep the current (valid) value
            version += 1
            proposals_used = 0
        stats.proposals += proposals
        stats.acceptances += len(accepted_versions)
        stats.stalls += stalls
        if column:
            ts.consume_through(int(ts.positions[lo + column - 1]))
        return ((accepted_versions, accepted_columns), column, version,
                proposals_used)

    def _apply_acceptances(self, ts: TSSeed, affected, window,
                           accepted_versions, accepted_columns) -> None:
        """Commit a window's accepted proposals in one vectorized pass.

        Each version appears at most once, so the scatter updates below
        touch disjoint entries and are elementwise identical to the scalar
        path's one-at-a-time commits.  A single-seed tuple's new state is
        a 1-D gather from the refuel's :class:`WindowCandidates` at the
        accepted window slots; a multi-seed tuple's comes from its
        window's candidate matrices.
        """
        lo, _, first_version, _, cand_values, cand_present = window
        version_list = np.array(accepted_versions, dtype=np.int64)
        cols = np.array(accepted_columns, dtype=np.int64)
        index_list = cols + lo
        ts.assignment[version_list] = ts.positions[index_list]
        candidates = self._candidates
        for list_pos, tuple_index in enumerate(affected):
            state = self._states[tuple_index]
            row = state.candidate
            if row is not None:
                new_contribution = candidates.contribution[row][index_list]
                if candidates.always_present:
                    # Present before and after: the count cannot move.
                    self._sums[version_list] += (
                        new_contribution - state.contribution[version_list])
                    state.contribution[version_list] = new_contribution
                    continue
                new_count = candidates.presence_count[row][index_list]
            else:
                rows = version_list - first_version
                new_present = cand_present[list_pos][rows, cols]
                new_contribution = np.where(
                    new_present, cand_values[list_pos][rows, cols], 0.0)
                new_count = new_present.astype(np.float64)
                gibbs_tuple = self._tuples[tuple_index]
                for name, rand_field in gibbs_tuple.rand.items():
                    if rand_field.handle == ts.handle:
                        state.values[name][version_list] = \
                            rand_field.values[index_list]
                for presence_field, cached in zip(gibbs_tuple.presences,
                                                  state.presence):
                    if presence_field.handle == ts.handle:
                        cached[version_list] = \
                            presence_field.flags[index_list]
            self._sums[version_list] += (
                new_contribution - state.contribution[version_list])
            self._counts[version_list] += (
                new_count - state.presence_count[version_list])
            state.contribution[version_list] = new_contribution
            state.presence_count[version_list] = new_count

    def _build_window(self, ts: TSSeed, affected, first_version: int,
                      cutoff: float, start: int, stop: int,
                      max_rows: int):
        """Candidate acceptability for window slots [start, stop) x all
        remaining versions, plus the per-tuple candidate values/presence
        needed to commit an acceptance.

        Rows for versions below ``first_version`` are never scanned again
        (the consumption pointer only moves forward), so they are not
        computed; and because every scan step consumes at least one
        candidate, a ``B``-wide window can serve at most ``B`` versions —
        rows beyond that cap would be dead weight, so the matrix is at most
        ``(B, B)`` regardless of the population size.  Rows for later
        versions stay valid across acceptances: committing version ``v``
        only mutates version ``v``'s cached state.
        """
        count = min(self._version_count() - first_version, max_rows)
        matrices = candidate_window_matrices(
            [self._tuples[index] for index in affected],
            [self._states[index] for index in affected],
            ts.handle, self.aggregate_expr, self.final_predicate,
            first_version, count, start, stop)
        return self._window_from_matrices(first_version, start, stop, count,
                                          matrices, cutoff)

    def _window_from_matrices(self, first_version: int, start: int,
                              stop: int, count: int, matrices,
                              cutoff: float):
        """Acceptance mask from candidate deltas + the *current* totals.

        Kept separate from the delta computation because the totals are
        the one input that changes as the sweep commits earlier seeds.
        """
        delta_sum, delta_count, cand_values, cand_present = matrices
        served = slice(first_version, first_version + count)
        new_totals = self._sums[served, None] + delta_sum
        if self.aggregate_kind != "sum":  # SUM never reads the counts
            new_totals = self._combine(
                new_totals, self._counts[served, None] + delta_count)
        acceptable = new_totals >= cutoff
        if acceptable.shape[1] != stop - start:
            # No candidate-dependent term at all: one verdict per version.
            acceptable = np.broadcast_to(acceptable, (count, stop - start))
        return (start, stop, first_version, acceptable,
                cand_values, cand_present)

    def _combine(self, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if self.aggregate_kind == "sum":
            return sums
        if self.aggregate_kind == "count":
            return counts
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)

    # -- replenishment ------------------------------------------------------------

    def _plan_refuel(self, seeds: list[TSSeed], done: np.ndarray,
                     dry: int | None) -> dict[int, np.ndarray]:
        """:func:`plan_refuel` for ``seeds``, ``seeds[i]`` having finished
        ``done[i]`` versions of the current sweep (``dry``: the index of
        the seed that ran dry, if one did)."""
        sweeps, sweep = self._sweep_versions, self._sweep
        return self._keep_rows(plan_refuel(
            seeds, sum(sweeps[:sweep]) + done, done,
            sweeps[sweep] - done + sum(sweeps[sweep + 1:]), dry,
            self.window))

    def _keep_rows(self, plans: dict[int, np.ndarray]
                   ) -> dict[int, np.ndarray]:
        """``plans``, each re-planned seed's window also holding, for
        every single-seed tuple of it that is absent at all its assigned
        positions, the first position where that tuple is present.

        A random ``WHERE`` drops a row absent at every position of its
        window.  Without the kept position, a refuel could drop such a
        tuple, and whether it did would depend on the positions its seed
        holds when it refuels — which the sweep order decides.  Kept, no
        refuel drops a tuple.  The position is consumed already, so it is
        never proposed again.
        """
        if self._candidates.always_present:
            return plans  # no single-seed tuple is absent anywhere
        for handle, plan in plans.items():
            ts = self._seeds[handle]
            slots = None
            for row in self._tuples_of_seed.get(handle, ()):
                gibbs_tuple = self._tuples[row]
                if not gibbs_tuple.presences or \
                        gibbs_tuple.handles != [handle]:
                    continue
                present = np.logical_and.reduce(
                    [field.flags for field in gibbs_tuple.presences])
                if slots is None:
                    slots = ts.positions.searchsorted(ts.assignment)
                if present[slots].any() or not present.any():
                    continue
                keep = ts.positions[present.argmax()]
                at = plan.searchsorted(keep)
                if at == plan.size or plan[at] != keep:
                    plan = np.insert(plan, at, keep)
            plans[handle] = plan
        return plans

    def _refuel_dry(self, dry: int, version: int) -> None:
        """A seed-major sweep's refuel: seed ``dry`` ran out of fresh
        positions at ``version``; the seeds before it in the sweep have
        finished it, the seeds after it have not begun."""
        order = self._visit_order
        at = bisect.bisect_left(order, dry)
        done = np.zeros(len(order), dtype=np.int64)
        done[:at] = self._version_count()
        done[at] = version
        self._replenish(self._plan_refuel(
            [self._seeds[handle] for handle in order], done, at))

    def _replenish(self, plans: dict[int, np.ndarray]) -> None:
        """Sec. 9: re-run the plan to refuel the seeds of ``plans``.

        ``plans`` — from :func:`plan_refuel` — maps the refuel set, the
        seeds the run re-plans, to their new windows; every other seed's
        window carries over untouched.  The run is
        a Δ-execution over the refuel set's rows when it can be
        (:meth:`_refuel_rows`), else a re-run over every row
        (:meth:`_refuel_all`); either way ``Instantiate`` merges: it
        copies what it materialized before and draws from the streams
        only positions it never did (the context tracks which refuels
        were full vs. delta).
        """
        started = time.perf_counter()
        context = self._context
        context.delta_mode = context.delta_tracking
        delta_before, full_before = context.delta_runs, context.full_runs
        try:
            if not self._refuel_rows(plans):
                self._refuel_all(plans)
        finally:
            context.delta_mode = False
        if context.full_runs > full_before:
            self._full_replenish_runs += 1
        elif context.delta_runs > delta_before:
            self._delta_replenish_runs += 1
        context.plan_runs += 1
        self._replenish_runs += 1
        self._replenished_flag = True
        self._replenish_seconds += time.perf_counter() - started

    def _refuel_rows(self, plans: dict[int, np.ndarray]) -> bool:
        """Refuel by Δ-execution: run the plan over the rows of the
        refuel set's seeds only and splice them into the Gibbs tuples.

        ``plans`` maps the refuel set's seeds to their new windows.
        Needs every tuple to read one seed: the output is then exactly
        the refuel set's tuples, in order (see
        :class:`~repro.engine.operators.Instantiate`) — unless a random
        ``Select`` or ``Split`` dropped or surfaced a row, which
        :meth:`_signatures_match` catches.  Returns whether it spliced.
        An attempt whose rows did not match has cost a plan run and left
        the context's ``position_plan``, chunk memos and
        ``node_executions`` moved, but its baseline and row and run
        counters are restored: the re-run over every row merges into,
        and counts, what it would have without the attempt.
        """
        # Spliced rows view the Δ run's arrays, which live on while any
        # one of its rows is not refueled again.  Once the windows spliced
        # since the last run over every row outweigh the live ones 4:1,
        # this refuel re-runs every row instead: that re-points them all
        # at one fresh run, so no refuel pattern makes window memory grow
        # past a constant factor of the live windows.
        planned = sum(window.size for window in plans.values())
        if self._single_rows.size != len(self._tuples) or (
                self._spliced + planned > 4 * sum(
                    ts.positions.size for ts in self._seeds.values())):
            return False
        rows = np.flatnonzero(np.isin(self._row_seeds, np.fromiter(
            plans, dtype=np.int64, count=len(plans))))
        context = self._context
        before = (dict(context.materialized), context.full_runs,
                  context.delta_runs, context.instantiate_rows_computed,
                  context.instantiate_rows_reused)
        context.position_plan = plans
        context.handle_filter = frozenset(plans)
        try:
            relation = self.plan.execute(context)
        finally:
            context.handle_filter = None
        if not self._signatures_match(self._relation_signature(relation),
                                      rows):
            (context.materialized, context.full_runs, context.delta_runs,
             context.instantiate_rows_computed,
             context.instantiate_rows_reused) = before
            return False
        contribution, presence_count, always_present, offsets = \
            _candidate_cells(relation, np.arange(relation.length),
                             self.aggregate_expr, self.final_predicate)
        self._check_rows(rows, plans, contribution,
                         None if always_present else presence_count)
        self._point_windows(relation, rows)
        for handle, positions in plans.items():
            self._seeds[handle].positions = positions
        store = self._candidates
        bounds = offsets.tolist()
        for at, row in enumerate(rows.tolist()):
            index = self._states[row].candidate
            cells = slice(bounds[at], bounds[at + 1])
            store.contribution[index] = contribution[cells]
            store.presence_count[index] = presence_count[cells]
        self._spliced += planned
        store.always_present &= always_present
        return True

    def _check_rows(self, rows: np.ndarray, plans: dict[int, np.ndarray],
                    contribution: np.ndarray,
                    presence_count: np.ndarray | None) -> None:
        """Invariant of a splice: at every version's assigned position,
        the tuples ``rows``' new candidates — runs of ``contribution`` and
        ``presence_count`` over the windows ``plans`` — reproduce their
        cached contribution and count, bit for bit (both come from the
        same elementwise arithmetic; a NaN matches a NaN): the caches and
        the streams cannot disagree.  ``presence_count`` is ``None`` for
        always-present candidates: every count is 1.
        """
        if not rows.size:
            return
        seeds = self._row_seeds[rows].tolist()
        windows = [plans[handle] for handle in seeds]
        cells = np.stack([window.searchsorted(self._seeds[handle].assignment)
                          for window, handle in zip(windows, seeds)])
        cells += np.cumsum([0] + [window.size for window in windows[:-1]])[
            :, None]  # each run's start
        np.minimum(cells, contribution.size - 1, out=cells)
        got, cached = contribution[cells], self._contribution_matrix[rows]
        counts = self._count_matrix[rows]
        if not ((np.array_equal(got, cached)
                 or np.array_equal(got, cached, equal_nan=True))
                and (np.all(counts == 1.0) if presence_count is None
                     else np.array_equal(presence_count[cells], counts))):
            raise EngineError(
                "replenishment changed query results; stream/cache "
                "inconsistency (this is a bug)")

    def _refuel_all(self, plans: dict[int, np.ndarray]) -> None:
        """Refuel by re-running the plan over every row and re-deriving
        the windows (:meth:`_ingest`) — a multi-seed tuple, rows that
        moved under the refuel, or spliced windows outweighing the live
        ones (see :meth:`_refuel_rows`).
        ``plans`` maps the refuel set's seeds to their new windows; every
        other seed keeps its own."""
        context = self._context
        context.position_plan = {handle: ts.positions
                                 for handle, ts in self._seeds.items()}
        context.position_plan.update(plans)
        relation = self.plan.execute(context)
        old_sums, old_counts = self._sums, self._counts
        self._ingest(relation, self._version_count(), initial=False)
        # Invariant: rebuilding from assignments must reproduce the same
        # query results — the caches and the streams cannot disagree.
        if not (np.allclose(old_sums, self._sums, atol=1e-9)
                and np.allclose(old_counts, self._counts)):
            raise EngineError(
                "replenishment changed query results; stream/cache "
                "inconsistency (this is a bug)")
        # Keep the *pre-replenish* accumulators: the re-derived sums are
        # equal up to summation rounding, but adopting them would tie the
        # accumulator trajectory to WHERE refuels happen — and the refuel
        # schedule is exactly what the window size changes.  Restoring
        # makes every downstream bit independent of it.
        self._sums, self._counts = old_sums, old_counts
