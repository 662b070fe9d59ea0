"""The GibbsLooper operator (Sec. 7, Appendix A) with replenishment (Sec. 9).

The looper consumes the Gibbs tuples produced by a query plan and runs
Algorithm 3 over *database versions* — assignments of stream positions to
versions, tracked per TS-seed — rather than over materialized databases.
Key fidelity points, each mapped to the paper:

* **Loop inversion** — "it switches the inner and outer for loops of
  Algorithm 3 ... perturbs data values one at a time, looping through the
  DB versions, thereby amortizing expensive data scans" (Sec. 7).  The
  outer loop here runs over TS-seed handles in ascending order.
* **Priority queue** — Gibbs tuples live in a priority queue keyed by their
  smallest unprocessed TS-seed handle; after a seed is processed its tuples
  are reinserted keyed by their next-largest handle, or pushed to the tail
  (``infinity``) when no handles remain (Appendix A.2, Fig. 3).
* **Global consumption pointer** — rejection proposals always take the next
  *unused* stream value for the seed; rejected values are consumed and
  never reconsidered (TS-seed item 4; the 3.24 in Fig. 1 and the 21K in
  Fig. 3 are skipped permanently).
* **Cloning as a single pass** — elite-to-version overwriting copies one
  assignment column onto another in every TS-seed (Appendix A, Fig. 4b).
* **Replenishment** — when a seed's window runs dry mid-perturbation, all
  Gibbs tuples are discarded and the plan re-runs, materializing only new
  or currently assigned positions; deterministic sub-plans come from cache
  (Sec. 9).

One deliberate implementation difference: per-version *current* attribute
values and presence bits are cached in dense arrays instead of being looked
up through (position -> window index) indirection on every delta
evaluation.  The cache is rebuilt from TS-seed assignments on every
replenishment, so it is behaviorally identical to the paper's scheme and is
validated against it in the test suite.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cloner import clone_indices
from repro.core.gibbs import GibbsStats
from repro.core.gibbs_tuple import GibbsTuple, tuples_from_relation
from repro.core.params import TailParams
from repro.core.ts_seed import TSSeed
from repro.engine.bundles import BundleRelation
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import DictContext, Expr
from repro.engine.operators import ExecutionContext, PlanNode
from repro.engine.options import ExecutionOptions
from repro.engine.table import Catalog

__all__ = ["LooperStepTrace", "LooperResult", "GibbsLooper",
           "candidate_window_matrices"]

_SUPPORTED_AGGREGATES = ("sum", "count", "avg")
_PROPOSAL_BATCH = 64
#: Vectorized-kernel window sizing.  Purely vectorization knobs: window
#: boundaries never change which candidate is accepted, only how many are
#: evaluated per NumPy call.  Width grows with the observed rejection rate
#: (rejection-heavy seeds want long candidate runs for few versions), while
#: the row count shrinks with it (each row serves one DB version).
_VECTOR_BATCH = 128
_WINDOW_MAX_WIDTH = 4096
_WINDOW_TARGET_VERSIONS = 32
#: Upper bound for adaptive window growth (``options.window_growth``):
#: past a megaposition window, replenishment cost is gather-dominated and
#: growing further only inflates the bundle matrices.
_WINDOW_GROWTH_CAP = 1 << 20
_INFINITY_KEY = (1 << 62)


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
    values / isPres bits under each version's assignment; ``value``/
    ``present`` are the resulting aggregate-argument contribution.
    """

    __slots__ = ("values", "presence", "value", "present")

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.presence: list[np.ndarray] = []
        self.value: np.ndarray | None = None
        self.present: np.ndarray | None = None


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
        for presence_field, cached in zip(gibbs_tuple.presences,
                                          state.presence):
            flags = (presence_field.flags[window]
                     if presence_field.handle == handle
                     else cached[remaining, None])
            present = flags if present is None else present & flags
        if final_predicate is not None:
            flags = np.asarray(final_predicate.evaluate(context), dtype=bool)
            present = flags if present is None else present & flags
        if present is None:
            present, contribution, presence_count = np.True_, value, 1.0
        else:
            contribution = np.where(present, value, 0.0)
            presence_count = present.astype(np.float64)
        old_present = state.present[remaining]
        old_contribution = np.where(
            old_present, state.value[remaining], 0.0)[:, None]
        old_count = old_present.astype(np.float64)[:, None]
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
        Stream values materialized per TS-seed per plan run (the paper uses
        1000 in Appendix D); also the replenishment granularity.
    options:
        :class:`~repro.engine.options.ExecutionOptions`; ``engine``
        selects between the batched NumPy perturbation kernel
        (``"vectorized"``, default) and the scalar per-version path
        (``"reference"``); ``window_growth > 1`` grows the refuel window
        geometrically after each replenishment.  Every combination
        produces bit-identical samples for the same ``base_seed`` — the
        contract tested by ``tests/test_engine_equivalence.py``.  The
        sweep always runs in this process, whatever ``n_jobs`` is: it is
        Gauss–Seidel over the seeds (each acceptance test reads the
        running totals every earlier commit moved), so there is no
        independent work to shard.
    """

    def __init__(self, plan: PlanNode, catalog: Catalog, params: TailParams,
                 num_samples: int, aggregate_kind: str = "sum",
                 aggregate_expr: Expr | None = None,
                 final_predicate: Expr | None = None,
                 k: int = 1, window: int = 1000, base_seed: int = 0,
                 max_proposals: int = 100_000,
                 options: ExecutionOptions | None = None,
                 det_cache=None, context=None):
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
        #: Retained ExecutionContext injected by a standing query.  The
        #: looper itself stays one-shot (fresh TS-seeds, fresh Gibbs
        #: trajectory — the bit-identity contract), but the context's
        #: materialized Instantiate windows survive across refreshes so
        #: the initial plan execution only gathers appended rows.
        self._injected_context = context

        # Run-time state (populated by run()).
        self._context: ExecutionContext | None = None
        self._seeds: dict[int, TSSeed] = {}
        self._tuples: list[GibbsTuple] = []
        self._states: list[_TupleState] = []
        self._tuples_of_seed: dict[int, list[int]] = {}
        # (tuples, versions) caches: the _TupleStates' value/present rows.
        self._value_matrix: np.ndarray | None = None
        self._present_matrix: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._versions = 0
        self._replenish_runs = 0
        self._replenished_flag = False
        self._full_replenish_runs = 0
        self._delta_replenish_runs = 0
        self._replenish_seconds = 0.0
        self._window_signature: tuple | None = None

    # -- public entry ---------------------------------------------------------

    def run(self) -> LooperResult:
        """Execute the full tail-sampling pipeline and return the result."""
        versions = self.params.n_steps[0]
        injected = self._injected_context
        if injected is None:
            self._context = ExecutionContext(
                self.catalog, positions=self.window, aligned=False,
                base_seed=self.base_seed, det_cache=self.det_cache)
            self._context.delta_tracking = (
                self.options.replenishment == "delta")
        else:
            # Standing-query refresh: reuse the retained context so the
            # initial plan run extends the previous refresh's
            # materialized windows (delta Instantiate) instead of
            # regathering every stream.  Everything a prior run may have
            # left behind (replenishment position plans, window bases)
            # is reset; streams are pure functions of (seed, handle,
            # position), so extending old windows is bit-identical to a
            # fresh gather.
            self._context = injected
            injected.positions = self.window
            injected.aligned = False
            injected.position_plan = {}
            injected.window_bases = {}
            injected.delta_tracking = True
            injected.delta_mode = True
            injected.stable_handles = frozenset()
        plan_runs_before = self._context.plan_runs
        relation = self.plan.execute(self._context)
        self._context.plan_runs += 1
        initial_materialized = None
        if injected is not None:
            injected.delta_mode = False
            injected.delta_tracking = (
                self.options.replenishment == "delta")
            # The initial-window materializations (full shared windows,
            # not replenishment position plans) are the baseline the
            # *next* refresh extends; snapshot them before replenishment
            # overwrites the entries.
            initial_materialized = dict(injected.materialized)
        self._ingest(relation, versions, initial=True)

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
                self._perturb_all_seeds(cutoff, stats)
            trace.append(LooperStepTrace(
                step=step, cutoff=cutoff, elite_count=int(keep.size),
                cloned_to=next_n, stats=stats,
                replenish_runs=self._replenish_runs - replenish_before,
                seconds=time.perf_counter() - started))

        samples = self._totals()
        assignments = [
            {handle: int(ts.assignment[v]) for handle, ts in self._seeds.items()}
            for v in range(samples.size)]
        if initial_materialized is not None:
            self._context.materialized = initial_materialized
        return LooperResult(
            quantile_estimate=cutoff, samples=samples, trace=trace,
            params=self.params,
            plan_runs=self._context.plan_runs - plan_runs_before,
            num_seeds=len(self._seeds), num_tuples=len(self._tuples),
            assignments=assignments,
            full_replenish_runs=self._full_replenish_runs,
            delta_replenish_runs=self._delta_replenish_runs,
            replenish_seconds=self._replenish_seconds)

    # -- ingestion and caches ---------------------------------------------------

    def _ingest(self, relation: BundleRelation, versions: int,
                initial: bool) -> None:
        """(Re)build tuples, TS-seeds and per-version caches from a plan run.

        Under delta replenishment, a re-run whose output has the same
        tuple structure (rows, lineage, presence pattern) as the last one
        takes a fast path: the per-version value/presence caches and the
        accumulators are *kept* — replenishment never changes any
        version's assigned values, only widens the windows — and only the
        window views inside the Gibbs tuples are swapped for the merged
        ones.
        """
        signature = self._relation_signature(relation)
        if (not initial and self.options.replenishment == "delta"
                and self._signatures_match(signature)):
            self._refresh_windows(relation)
            self._window_signature = signature
            return
        self._versions = versions
        self._tuples = tuples_from_relation(relation)
        self._validate_columns(relation)
        handles_in_play = set()
        for gibbs_tuple in self._tuples:
            handles_in_play.update(gibbs_tuple.handles)

        if initial:
            self._seeds = {}
            for handle in sorted(handles_in_play):
                info = self._context.seed_info(handle)
                self._seeds[handle] = TSSeed.initial(
                    info, self._context.positions_for(handle), versions)
        else:
            # Replenishment: seeds persist; refresh their materialized lists.
            for handle in sorted(handles_in_play):
                if handle not in self._seeds:
                    # A tuple resurfaced whose seed never mattered before.
                    info = self._context.seed_info(handle)
                    self._seeds[handle] = TSSeed.initial(
                        info, self._context.positions_for(handle), versions)
                else:
                    self._seeds[handle].positions = (
                        self._context.positions_for(handle))

        self._tuples_of_seed = {}
        for index, gibbs_tuple in enumerate(self._tuples):
            for handle in gibbs_tuple.handles:
                self._tuples_of_seed.setdefault(handle, []).append(index)

        self._rebuild_states(relation)
        self._window_signature = signature

    @staticmethod
    def _relation_signature(relation: BundleRelation) -> tuple:
        """Structural identity of a plan output: rows, lineage, presence.

        Two runs with equal signatures produced the same Gibbs tuples in
        the same order (same surviving rows, same seed handles per random
        column, same non-vacuous presence pattern) — only their window
        contents may differ, which is exactly what the delta fast path
        swaps in place.
        """
        rand = tuple((name, column.seed_handles)
                     for name, column in relation.rand_columns.items())
        presence = tuple((presence.seed_handles, presence.flags.all(axis=1))
                         for presence in relation.presence)
        return (relation.length, rand, presence)

    def _signatures_match(self, signature: tuple) -> bool:
        previous = self._window_signature
        if previous is None or previous[0] != signature[0]:
            return False
        if len(previous[1]) != len(signature[1]) or \
                len(previous[2]) != len(signature[2]):
            return False
        for (old_name, old_handles), (name, handles) in zip(
                previous[1], signature[1]):
            if old_name != name or not np.array_equal(old_handles, handles):
                return False
        for (old_handles, old_vacuous), (handles, vacuous) in zip(
                previous[2], signature[2]):
            if not (np.array_equal(old_handles, handles)
                    and np.array_equal(old_vacuous, vacuous)):
                return False
        return True

    def _refresh_windows(self, relation: BundleRelation) -> None:
        """Swap merged window views into the existing tuples and seeds.

        Values at every assigned position are unchanged (streams are pure
        functions of position), so the per-version caches, accumulators,
        states and the tuple/seed index structures all carry over; only
        the materialized window arrays — consulted by future candidate
        evaluations — and each moved seed's position list are new.
        Every tuple is re-pointed, stable seed or not: a view left on the
        previous run's matrix would keep that whole matrix alive.
        """
        rand_items = list(relation.rand_columns.items())
        vacuous = [presence.flags.all(axis=1) for presence in relation.presence]
        for row, gibbs_tuple in enumerate(self._tuples):
            for name, column in rand_items:
                gibbs_tuple.rand[name].values = column.values[row]
            slot = 0
            for p_index, presence in enumerate(relation.presence):
                if vacuous[p_index][row]:
                    continue
                gibbs_tuple.presences[slot].flags = presence.flags[row]
                slot += 1
        stable = self._context.stable_handles
        for handle, ts in self._seeds.items():
            if handle not in stable:
                ts.positions = self._context.positions_for(handle)
        if self._states:
            # Re-derived exactly as a full rebuild would, for _replenish's
            # invariant check against the running accumulators (which it
            # restores afterwards: the refuel schedule must not leave a
            # rounding fingerprint on the accumulator trajectory).
            self._accumulate_states()

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
        ``(tuples, versions)`` matrices, and the accumulators use
        strict-row-order ``cumsum`` summation — elementwise identical to
        the per-tuple reference loop, whose accumulation order it
        reproduces exactly.
        """
        versions = self._versions
        count = len(self._tuples)
        index_of = {
            handle: np.searchsorted(ts.positions, ts.assignment)
            for handle, ts in self._seeds.items()}
        self._states = []
        if not count:
            self._sums = np.zeros(versions)
            self._counts = np.zeros(versions)
            return

        columns: dict[str, np.ndarray] = {}
        gathered: dict[str, np.ndarray] = {}
        for name, column in relation.rand_columns.items():
            index_matrix = np.stack(
                [index_of[int(handle)] for handle in column.seed_handles])
            gathered[name] = np.take_along_axis(
                column.values, index_matrix, axis=1)
            columns[name] = gathered[name]
        for name, det_values in relation.det_columns.items():
            columns[name] = det_values.reshape(count, 1)
        context = DictContext(columns)

        if self.aggregate_expr is None:
            value_matrix = np.ones((count, versions))
        else:
            value_matrix = np.broadcast_to(
                np.asarray(self.aggregate_expr.evaluate(context),
                           dtype=np.float64), (count, versions))
            if not value_matrix.flags.writeable:
                value_matrix = value_matrix.copy()
        present_matrix = np.ones((count, versions), dtype=bool)
        gathered_presence = []
        vacuous_rows = []
        for presence in relation.presence:
            index_matrix = np.stack(
                [index_of[int(handle)] for handle in presence.seed_handles])
            flags = np.take_along_axis(presence.flags, index_matrix, axis=1)
            # Vacuous (all-true) rows were dropped from the Gibbs tuples;
            # AND-ing them here is an exact no-op, so the combined
            # presence matches the per-tuple loop.
            present_matrix &= flags
            gathered_presence.append(flags)
            vacuous_rows.append(presence.flags.all(axis=1))
        if self.final_predicate is not None:
            present_matrix &= np.broadcast_to(
                np.asarray(self.final_predicate.evaluate(context),
                           dtype=bool), (count, versions))

        for row, gibbs_tuple in enumerate(self._tuples):
            state = _TupleState()
            for name in gibbs_tuple.rand:
                state.values[name] = gathered[name][row]
            for flags, vacuous in zip(gathered_presence, vacuous_rows):
                if not vacuous[row]:
                    state.presence.append(flags[row])
            state.value = value_matrix[row]
            state.present = present_matrix[row]
            self._states.append(state)
        self._value_matrix, self._present_matrix = value_matrix, present_matrix
        self._accumulate_states()

    def _accumulate_states(self) -> None:
        """Accumulators from the contribution caches, in strict row order
        (cf. MonteCarloExecutor._ordered_sum): cumsum is sequential, so
        inserting the tuples one at a time — the reference behavior —
        rounds identically."""
        self._sums = np.cumsum(
            np.where(self._present_matrix, self._value_matrix, 0.0),
            axis=0)[-1]
        self._counts = np.cumsum(self._present_matrix, axis=0,
                                 dtype=np.float64)[-1]

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
            self._value_matrix = np.take(self._value_matrix, sources, axis=1)
            self._present_matrix = np.take(self._present_matrix, sources,
                                           axis=1)
        for row, state in enumerate(self._states):
            state.values = {name: values[sources]
                            for name, values in state.values.items()}
            state.presence = [flags[sources] for flags in state.presence]
            state.value = self._value_matrix[row]
            state.present = self._present_matrix[row]
        self._sums = self._sums[sources]
        self._counts = self._counts[sources]

    # -- perturbation ------------------------------------------------------------

    def _build_queue(self, resume_after: int | None) -> list[tuple[int, int]]:
        """Priority queue of (smallest unprocessed handle, tuple id).

        ``resume_after`` skips handles already processed in the current
        sweep — used when the queue is rebuilt after a replenishment
        discarded all Gibbs tuples mid-sweep (Sec. 9).
        """
        queue: list[tuple[int, int]] = []
        for index, gibbs_tuple in enumerate(self._tuples):
            key = _INFINITY_KEY
            for handle in gibbs_tuple.handles:
                if resume_after is None or handle > resume_after:
                    key = handle
                    break
            heapq.heappush(queue, (key, index))
        return queue

    def _perturb_all_seeds(self, cutoff: float, stats: GibbsStats) -> None:
        """One systematic Gibbs step over every seed, seed-major (Sec. 7)."""
        queue = self._build_queue(resume_after=None)
        while queue and queue[0][0] != _INFINITY_KEY:
            handle = queue[0][0]
            members = []
            while queue and queue[0][0] == handle:
                members.append(heapq.heappop(queue)[1])
            self._replenished_flag = False
            self._perturb_seed(handle, cutoff, stats)
            if self._replenished_flag:
                # The Gibbs tuples were rebuilt or re-windowed; empty the
                # queue and rebuild it for the remaining handles (Sec. 9).
                queue = self._build_queue(resume_after=handle)
                continue
            for index in members:
                next_handle = self._tuples[index].next_handle_after(handle)
                heapq.heappush(
                    queue,
                    (next_handle if next_handle is not None else _INFINITY_KEY,
                     index))

    def _perturb_seed(self, handle: int, cutoff: float,
                      stats: GibbsStats) -> None:
        """Gibbs-update every version's value for one TS-seed."""
        if self.options.engine == "vectorized":
            self._perturb_seed_vectorized(handle, cutoff, stats)
            return
        ts = self._seeds[handle]
        for version in range(self._version_count()):
            # Re-fetch per version: a replenishment rebuilds the tuple list.
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            self._update_version(ts, affected, version, cutoff, stats)

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

    def _perturb_seed_vectorized(self, handle: int, cutoff: float,
                                 stats: GibbsStats) -> None:
        """Batched rejection sampling over the whole version axis of a seed.

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
        version = 0
        proposals_used = 0  # rejection budget of the *current* version
        consumed_total = 0  # adaptive window sizing: candidates consumed...
        served_total = 0    # ...and versions completed so far in this call
        while version < versions:
            ts = self._seeds[handle]
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            start, stop = ts.fresh_index_range()
            if start >= stop:
                self._replenish()
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
            accepted, consumed, version, proposals_used = self._scan_window(
                ts, window, version, proposals_used, stats)
            consumed_total += consumed
            served_total += len(accepted[0])
            if accepted[0]:
                self._apply_acceptances(ts, affected, window, *accepted)

    def _scan_window(self, ts: TSSeed, window, version: int,
                     proposals_used: int, stats: GibbsStats):
        """Walk the consumption pointer through one acceptability window.

        Implements the sequential semantics of the reference path —
        versions in ascending order, each taking the first acceptable
        not-yet-consumed candidate, rejected candidates consumed forever,
        ``max_proposals`` rejections per version before a stall — on top
        of the precomputed boolean matrix.  The walk runs on plain ints
        over the matrix's bytes (one ``bytes.find`` per step, which reads
        only the cells the pointer actually passes), and the counters
        reach ``stats`` once per window.  Returns the accepted versions
        and their window columns (a pair of parallel lists), the number
        of candidates consumed, and the resumption state.
        """
        lo, _, first_version, acceptable, _, _ = window
        rows, width = acceptable.shape
        version_limit = min(self._versions, first_version + rows)
        find = acceptable.tobytes().find
        max_proposals = self.max_proposals
        row_base = (version - first_version) * width
        column = 0  # consumption pointer, relative to ``lo``
        proposals = stalls = 0
        accepted_versions: list[int] = []
        accepted_columns: list[int] = []
        while version < version_limit and column < width:
            limit = column + max_proposals - proposals_used
            if limit > width:
                limit = width
            hit = find(b"\x01", row_base + column, row_base + limit)
            if hit >= 0:
                hit -= row_base
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
            row_base += width
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
        path's one-at-a-time commits.
        """
        lo, _, first_version, _, cand_values, cand_present = window
        version_list = np.array(accepted_versions, dtype=np.int64)
        cols = np.array(accepted_columns, dtype=np.int64)
        rows = version_list - first_version
        index_list = cols + lo
        ts.assignment[version_list] = ts.positions[index_list]
        for list_pos, tuple_index in enumerate(affected):
            gibbs_tuple = self._tuples[tuple_index]
            state = self._states[tuple_index]
            new_value = cand_values[list_pos][rows, cols]
            new_present = cand_present[list_pos][rows, cols]
            old_present = state.present[version_list]
            old = np.where(old_present, state.value[version_list], 0.0)
            self._sums[version_list] += (
                np.where(new_present, new_value, 0.0) - old)
            self._counts[version_list] += (
                new_present.astype(np.float64)
                - old_present.astype(np.float64))
            state.value[version_list] = new_value
            state.present[version_list] = new_present
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    state.values[name][version_list] = \
                        rand_field.values[index_list]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    cached[version_list] = presence_field.flags[index_list]

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

    def _update_version(self, ts: TSSeed, affected, version: int,
                        cutoff: float, stats: GibbsStats) -> None:
        """Rejection-sample a new stream position for one (seed, version)."""
        proposals_used = 0
        while proposals_used < self.max_proposals:
            start, stop = ts.fresh_index_range()
            if start >= stop:
                self._replenish()
                affected = self._tuples_of_seed.get(ts.handle, ())
                if not affected:
                    return
                start, stop = ts.fresh_index_range()
                if start >= stop:
                    raise EngineError(
                        f"replenishment produced no fresh values for seed "
                        f"{ts.handle}")
            batch = min(_PROPOSAL_BATCH, stop - start,
                        self.max_proposals - proposals_used)
            delta_sum, delta_count, cand_values, cand_present = \
                self._candidate_deltas(ts, affected, version, start,
                                       start + batch)
            new_sums = self._sums[version] + delta_sum
            new_counts = self._counts[version] + delta_count
            new_totals = self._combine(new_sums, new_counts)
            acceptable = np.nonzero(new_totals >= cutoff)[0]
            if acceptable.size:
                hit = int(acceptable[0])
                stats.proposals += hit + 1
                stats.acceptances += 1
                position = int(ts.positions[start + hit])
                ts.consume_through(position)
                ts.assign(version, position)
                self._apply_acceptance(ts, affected, version, start + hit,
                                       cand_values, cand_present, hit)
                return
            stats.proposals += batch
            proposals_used += batch
            ts.consume_through(int(ts.positions[start + batch - 1]))
        stats.stalls += 1  # keep the current (valid) value

    def _combine(self, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if self.aggregate_kind == "sum":
            return sums
        if self.aggregate_kind == "count":
            return counts
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)

    def _candidate_deltas(self, ts: TSSeed, affected, version: int,
                          start: int, stop: int):
        """Aggregate deltas if seed ``ts`` moved to window slots [start, stop).

        Returns ``(delta_sum (B,), delta_count (B,), per-tuple candidate
        values, per-tuple candidate presence)`` where the per-tuple lists
        align with ``affected``.
        """
        width = stop - start
        delta_sum = np.zeros(width)
        delta_count = np.zeros(width)
        cand_values, cand_present = [], []
        for index in affected:
            gibbs_tuple = self._tuples[index]
            state = self._states[index]
            columns: dict[str, np.ndarray] = {}
            for name, det_value in gibbs_tuple.det.items():
                columns[name] = np.asarray(det_value)
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    columns[name] = rand_field.values[start:stop]
                else:
                    columns[name] = np.asarray(state.values[name][version])
            context = DictContext(columns)
            if self.aggregate_expr is None:
                value = np.ones(width)
            else:
                value = np.broadcast_to(
                    np.asarray(self.aggregate_expr.evaluate(context),
                               dtype=np.float64), (width,))
            present = np.ones(width, dtype=bool)
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    present = present & presence_field.flags[start:stop]
                else:
                    present = present & bool(cached[version])
            if self.final_predicate is not None:
                present = present & np.broadcast_to(
                    np.asarray(self.final_predicate.evaluate(context),
                               dtype=bool), (width,))
            old_contribution = (state.value[version]
                                if state.present[version] else 0.0)
            delta_sum += np.where(present, value, 0.0) - old_contribution
            delta_count += present.astype(np.float64) - float(
                state.present[version])
            cand_values.append(value)
            cand_present.append(present)
        return delta_sum, delta_count, cand_values, cand_present

    def _apply_acceptance(self, ts: TSSeed, affected, version: int,
                          window_index: int, cand_values, cand_present,
                          hit: int) -> None:
        """Commit an accepted proposal: caches, accumulators, assignments."""
        for list_pos, index in enumerate(affected):
            gibbs_tuple = self._tuples[index]
            state = self._states[index]
            old = state.value[version] if state.present[version] else 0.0
            new_value = float(cand_values[list_pos][hit])
            new_present = bool(cand_present[list_pos][hit])
            self._sums[version] += (new_value if new_present else 0.0) - old
            self._counts[version] += float(new_present) - float(
                state.present[version])
            state.value[version] = new_value
            state.present[version] = new_present
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    state.values[name][version] = rand_field.values[window_index]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    cached[version] = presence_field.flags[window_index]

    # -- replenishment ------------------------------------------------------------

    def _replenish(self) -> None:
        """Sec. 9: re-run the plan to refuel every seed's stream window.

        With ``options.replenishment == "delta"`` the run executes in
        incremental mode: ``Instantiate`` merges never-before-materialized
        positions into its previous output instead of regenerating every
        window (the context tracks which refuels were full vs. delta).
        """
        started = time.perf_counter()
        plans = {handle: ts.replenish_plan(self.window)
                 for handle, ts in self._seeds.items()}
        width = max(len(plan) for plan in plans.values())
        context = self._context
        previous_plan = context.position_plan
        context.positions = width
        context.position_plan = {
            handle: self._seeds[handle].pad_plan(plan, width)
            for handle, plan in plans.items()}
        # An untouched seed re-serves its memoized (padded) plan object,
        # which lets the delta Instantiate and the window refresh skip it
        # without comparing a single position.
        context.stable_handles = frozenset(
            handle for handle, plan in context.position_plan.items()
            if plan is previous_plan.get(handle))
        context.delta_mode = context.delta_tracking
        delta_before, full_before = context.delta_runs, context.full_runs
        relation = self.plan.execute(context)
        context.delta_mode = False
        if context.full_runs > full_before:
            self._full_replenish_runs += 1
        elif context.delta_runs > delta_before:
            self._delta_replenish_runs += 1
        context.plan_runs += 1
        self._replenish_runs += 1
        self._replenished_flag = True
        versions = self._version_count()
        old_sums, old_counts = self._sums, self._counts
        self._ingest(relation, versions, initial=False)
        context.stable_handles = frozenset()
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
        # schedule is exactly what knobs like ``window_growth`` change.
        # Restoring makes every downstream bit independent of it.
        self._sums, self._counts = old_sums, old_counts
        if self.options.window_growth > 1.0 and self.window < _WINDOW_GROWTH_CAP:
            # Adaptive refuel sizing: each refuel grows the next window
            # geometrically, making the refuel count logarithmic in the
            # stream depth rejection-heavy seeds burn through.  Window
            # boundaries never change which candidate is accepted (the
            # consumption pointer resumes across refuels), so everything
            # except the replenishment schedule stays bit-identical.
            self.window = min(
                max(int(self.window * self.options.window_growth),
                    self.window + 1),
                _WINDOW_GROWTH_CAP)
        self._replenish_seconds += time.perf_counter() - started
