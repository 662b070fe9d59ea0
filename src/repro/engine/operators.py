"""Physical plan operators over tuple bundles.

The operator set mirrors Fig. 2 of the paper:

* :class:`Scan` — base-table scan (with optional column prefixing for
  self-joins, e.g. ``emp1.sal`` / ``emp2.sal``).
* :class:`Seed` — attaches a TS-seed handle to every tuple and registers
  the seed in the execution context (Sec. 5: "The former operation attaches
  the handle for a TS-seed to each Gibbs tuple, and ... creates the actual
  TS-seed data structure").
* :class:`Instantiate` — materializes a window of stream values for each
  seeded tuple as a random column.
* :class:`Select` — filtering; deterministic predicates drop rows,
  single-seed random predicates create ``isPres`` presence arrays, and
  tuples whose predicate holds in *no* materialized instance are dropped
  entirely (Sec. 5).
* :class:`Project` — derived columns; in tail mode a projection may only
  combine random values from a single seed (Appendix A pull-up rule).
* :class:`Join` — equi-join on deterministic attributes.
* :class:`Split` — Sec. 8: converts a discrete random attribute into a
  deterministic one plus presence flags, enabling joins on random
  attributes without tuples "popping into existence" mid-Gibbs.

Execution is bottom-up and materializing; deterministic subtrees are cached
in the context so replenishment re-runs skip them (Sec. 9: "the result of
each deterministic part of the query plan is materialized and saved").
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.bundles import (
    BundleRelation, PresenceColumn, RandomColumn, row_key_codes, run_counts)
from repro.engine.det_cache import ContextDetCache
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import Expr
from repro.engine.random_table import RandomTableSpec
from repro.engine.seeds import (
    SeedInfo, derive_prng_seeds, handle_label_id, label_id_of, seed_handles)
from repro.engine.table import Catalog
from repro.vg.streams import gather_stream_points, gather_stream_windows

#: Missing window slots a delta merge gathers per batched stream fill:
#: large enough to amortize the fill's set-up over many rows, small
#: enough that its index temporaries stay a fraction of the runs filled.
_FILL_BATCH = 8192

__all__ = [
    "ExecutionContext", "PlanNode", "Scan", "Seed", "Instantiate",
    "Select", "Project", "Join", "Split", "random_table_pipeline",
    "appends_keep_prefix", "appended_rows_reach_random",
]


class ExecutionContext:
    """Mutable state for one (or more, under replenishment) plan runs.

    Parameters
    ----------
    positions:
        ``W`` — how many stream positions a random column materializes per
        tuple when no position plan names the tuple's seed.  In Monte Carlo
        mode this is the repetition count ``n``; in tail mode it is the
        initial Gibbs window ("the number of stream elements to instantiate
        in a Gibbs tuple", Sec. 5) — a refuel's plan gives each seed a
        window of its own length.
    aligned:
        Monte Carlo mode flag (position = repetition index).
    base_seed:
        Session-level PRNG seed; all streams derive from it.
    position_offset:
        First stream position to materialize (Monte Carlo sharding): a
        worker handling repetitions ``[lo, hi)`` materializes positions
        ``[lo, hi)`` of every stream, so the shards of one run partition
        the exact position axis a serial run would produce.  Mutually
        exclusive with an explicit ``position_plan`` — sharding slides the
        whole window while a replenishment plan pins per-seed positions,
        and combining the two would silently misalign the shard.
    det_cache:
        Deterministic sub-plan cache to consult; defaults to a fresh
        per-context :class:`~repro.engine.det_cache.ContextDetCache`.
        Pass a :class:`~repro.engine.det_cache.SessionDetCache` to share
        materialized deterministic relations across queries.
    """

    def __init__(self, catalog: Catalog, positions: int, aligned: bool,
                 base_seed: int = 0, position_offset: int = 0,
                 det_cache=None):
        if positions < 1:
            raise EngineError(f"positions must be >= 1, got {positions}")
        if position_offset < 0:
            raise EngineError(
                f"position_offset must be >= 0, got {position_offset}")
        self.catalog = catalog
        self.positions = positions
        self.aligned = aligned
        self.base_seed = base_seed
        self.position_offset = position_offset
        self.seeds: dict[int, SeedInfo] = {}
        #: Explicit per-seed stream positions to materialize (replenishment:
        #: "only adds new or currently assigned values", Sec. 9).  When a
        #: handle is absent, the contiguous default window is used.
        self.position_plan: dict[int, np.ndarray] = {}
        self.det_cache = det_cache if det_cache is not None else ContextDetCache()
        #: Incremental materialization (delta replenishment).  With
        #: ``delta_tracking`` on, every Instantiate records its output and
        #: the per-seed positions it materialized; with ``delta_mode`` also
        #: on (set during replenishment runs), Instantiate *merges* — it
        #: gathers from the streams only positions absent from its previous
        #: materialization and copies everything else from the recorded
        #: windows.
        self.delta_tracking = False
        self.delta_mode = False
        #: Delta-run hint from whoever installed ``position_plan``: the
        #: refuel set, i.e. the handles whose plan entry changed since the
        #: previous plan run on this context.  Every other handle's window
        #: is exactly what that run materialized, so a delta
        #: ``Instantiate`` carries those rows over without looking at
        #: them.  ``None`` (the default) means any handle may have moved:
        #: every row is matched position by position.  The setter must
        #: reset it once it has consumed the run.
        self.refuel_handles: frozenset[int] | None = None
        self.materialized: dict[int, "_Materialization"] = {}
        self.plan_runs = 0
        self.node_executions = 0
        #: Plan runs that regenerated every window from the streams vs.
        #: runs that merged deltas into previous bundles (diagnostics for
        #: the replenishment benchmark).
        self.full_runs = 0
        self.delta_runs = 0
        #: Tuple-level Instantiate accounting: rows whose window touched
        #: the streams at all vs. rows a delta refuel served entirely from
        #: its previous materialization.  A standing query reports the
        #: former as the rows its refresh computed (bench_standing:
        #: recomputed-tuple ratio).
        self.instantiate_rows_computed = 0
        self.instantiate_rows_reused = 0
        #: Δ-execution: lowercased table name -> the appended row range
        #: ``(old, new)``, as :func:`~repro.engine.det_cache.classify_moves`
        #: reports it.
        #: A ``Scan`` of a named table reads only rows ``[old, new)``, the
        #: ``Seed`` above it numbers handles from ``old``, and every other
        #: operator runs unchanged on those rows; under
        #: :func:`appends_keep_prefix` the plan then yields exactly the
        #: rows a run over the grown tables appends to its output.
        self.appended: dict[str, tuple[int, int]] = {}
        self._labels: dict[int, str] = {}

    def register_label(self, label: str) -> int:
        label_id = label_id_of(label)
        existing = self._labels.get(label_id)
        if existing is not None and existing != label:
            raise PlanError(
                f"seed label collision: {label!r} vs {existing!r} — rename one")
        self._labels[label_id] = label
        return label_id

    def label_of(self, handle: int) -> str:
        """The registered ``Seed`` label a handle was numbered under."""
        return self._labels.get(handle_label_id(handle), "?")

    def positions_for(self, handle: int) -> np.ndarray:
        """The stream positions a random column materializes for ``handle``."""
        if self.position_plan and self.position_offset:
            raise EngineError(
                "position_offset and an explicit position_plan are mutually "
                "exclusive: sharded (offset) execution would silently "
                "misalign with a replenishment position plan")
        explicit = self.position_plan.get(handle)
        if explicit is not None:
            explicit = np.asarray(explicit, dtype=np.int64)
            if explicit.ndim != 1 or not explicit.size:
                raise EngineError(
                    f"position plan for seed {handle} has shape "
                    f"{explicit.shape}, expected a non-empty vector")
            return explicit
        return np.arange(self.position_offset,
                         self.position_offset + self.positions,
                         dtype=np.int64)

    def seed_info(self, handle: int) -> SeedInfo:
        try:
            return self.seeds[handle]
        except KeyError:
            raise EngineError(f"unregistered seed handle {handle}") from None


class PlanNode(ABC):
    """Base class for physical operators."""

    _id_counter = itertools.count(1)

    def __init__(self, children: Sequence["PlanNode"]):
        self.node_id = next(PlanNode._id_counter)
        self.children = list(children)
        self._fingerprint: str | None = None
        self._base_tables: frozenset[str] | None = None

    @property
    def contains_random(self) -> bool:
        return any(child.contains_random for child in self.children)

    def execute(self, context: ExecutionContext) -> BundleRelation:
        deterministic = not self.contains_random
        over_appended = self.reads_appended(context)
        if deterministic and not over_appended:
            cached = context.det_cache.lookup(self, context)
            if cached is not None:
                # The hit skips the Seeds below: arm their labels' guard
                # anyway, or a colliding later Seed would share handles.
                self._register_labels(context)
                if (cached.positions != context.positions
                        or cached.aligned != context.aligned):
                    # A cross-query cache may serve a tail-mode plan from a
                    # Monte Carlo run (or vice versa), or a run with
                    # another window; deterministic relations hold no
                    # positional arrays, so re-stamping the metadata is
                    # sufficient.
                    cached = _restamp(cached, context.positions,
                                      context.aligned)
                    context.det_cache.store(self, cached, context)
                return cached
        context.node_executions += 1
        result = self._run(context)
        if deterministic and over_appended:
            # A Δ relation is not this subtree's output: it is never
            # served, only appended to the entry holding the rows before
            # it, which keeps that entry — and the append journal's
            # compaction floor — current.
            context.det_cache.extend(self, result, context)
        elif deterministic:
            context.det_cache.store(self, result, context)
        return result

    def reads_appended(self, context: ExecutionContext) -> bool:
        """Whether this subtree runs over Δ rows (``context.appended``)."""
        return bool(context.appended) and not self.base_tables().isdisjoint(
            context.appended)

    def fingerprint(self) -> str:
        """Structural identity of this subtree, stable across compilations.

        Two plan nodes with equal fingerprints compute the same relation
        from the same catalog — the key for the cross-query
        :class:`~repro.engine.det_cache.SessionDetCache` (what the node
        computes; the catalog version guards what the tables contain).
        Memoized: plans are immutable after construction.
        """
        if self._fingerprint is None:
            parts = ":".join(str(part) for part in self._fingerprint_parts())
            children = ",".join(child.fingerprint() for child in self.children)
            self._fingerprint = f"{type(self).__name__}[{parts}]({children})"
        return self._fingerprint

    def _fingerprint_parts(self) -> tuple:
        """Operator-specific identity fields; subclasses must override."""
        raise EngineError(
            f"{type(self).__name__} does not define a structural fingerprint")

    def base_tables(self) -> frozenset[str]:
        """Catalog names (lowercased) this subtree's output depends on.

        The memoized companion to :meth:`fingerprint`: the fingerprint
        says *what* a subtree computes, ``base_tables()`` says which
        catalog entries it computes it *from* — the dependency key a
        table-granular cache checks against per-name catalog versions.
        Covers base tables (``Scan``) and random-table specs (recorded on
        the ``Seed`` a :func:`random_table_pipeline` plants), and unions
        through every combinator.
        """
        if self._base_tables is None:
            tables = set(self._own_base_tables())
            for child in self.children:
                tables |= child.base_tables()
            self._base_tables = frozenset(tables)
        return self._base_tables

    def _own_base_tables(self) -> tuple[str, ...]:
        """Names this node itself reads (beyond its children's)."""
        return ()

    def _register_labels(self, context: ExecutionContext) -> None:
        for child in self.children:
            child._register_labels(context)

    @abstractmethod
    def _run(self, context: ExecutionContext) -> BundleRelation:
        """Execute this operator (children first)."""

    def describe(self, indent: int = 0) -> str:
        """Pretty-printed plan, leaf-last like the paper's figures."""
        line = "  " * indent + self._describe_line()
        return "\n".join([line] + [c.describe(indent + 1) for c in self.children])

    def _describe_line(self) -> str:
        return type(self).__name__


def _restamp(relation: BundleRelation, positions: int,
             aligned: bool) -> BundleRelation:
    """Copy a deterministic relation with new window metadata."""
    if relation.rand_columns or relation.presence:
        raise EngineError("only deterministic relations can be re-stamped")
    out = BundleRelation(relation.length, positions, aligned)
    out.det_columns = dict(relation.det_columns)
    return out


@dataclass
class _Materialization:
    """What an Instantiate produced (and, under delta tracking, the
    baseline the next delta run merges into).

    ``columns[i]`` holds output ``i``'s values as runs: row ``t`` is
    ``columns[i, offsets[t]:offsets[t + 1]]``, the stream values at the
    ascending positions ``positions[handles[t]]``.  A delta run copies
    the overlap from ``columns`` and gathers only positions outside it
    from the streams.
    """

    handles: np.ndarray
    positions: dict[int, np.ndarray]
    columns: np.ndarray
    offsets: np.ndarray
    bases: np.ndarray


class Scan(PlanNode):
    """Scan a deterministic base table, optionally prefixing column names."""

    def __init__(self, table_name: str, prefix: str = ""):
        super().__init__([])
        self.table_name = table_name
        self.prefix = prefix

    def _run(self, context):
        table = context.catalog.table(self.table_name)
        old, new = context.appended.get(self.table_name.lower(),
                                        (0, len(table)))
        return BundleRelation.from_table(
            table, context.positions, context.aligned, prefix=self.prefix,
            rows=slice(old, new))

    def _fingerprint_parts(self):
        return (self.table_name, self.prefix)

    def _own_base_tables(self):
        return (self.table_name.lower(),)

    def _describe_line(self):
        alias = f" AS {self.prefix.rstrip('.')}" if self.prefix else ""
        return f"Scan({self.table_name}{alias})"


class Seed(PlanNode):
    """Attach a TS-seed handle column to each tuple of the child.

    ``label`` identifies the VG invocation site: two Seed operators with the
    *same* label produce the *same* handles (and therefore share streams) —
    this is how a self-joined uncertain table stays consistent across its
    occurrences (Sec. 5: a PRNG seed "may occur ... multiple times in a
    tuple bundle due to a self-join").  Distinct labels give independent
    streams.  ``column_name`` (default ``<label>#seed``) may carry an alias
    prefix so the two occurrences' handle columns do not collide in a join.
    """

    def __init__(self, child: PlanNode, label: str, column_name: str | None = None,
                 depends_on: Sequence[str] = ()):
        super().__init__([child])
        self.label = label
        self._column_name = column_name
        #: Extra catalog names this seeding depends on beyond the child's
        #: scans — :func:`random_table_pipeline` records the random-table
        #: spec here, so dropping/re-registering the spec invalidates
        #: cached subtrees built from the old definition.
        self.depends_on = tuple(depends_on)

    @property
    def handle_column(self) -> str:
        return self._column_name or f"{self.label}#seed"

    def _register_labels(self, context: ExecutionContext) -> None:
        context.register_label(self.label)
        super()._register_labels(context)

    def _run(self, context):
        relation = self.children[0].execute(context)
        label_id = context.register_label(self.label)
        start = self._first_row(context)
        out = relation.shallow_copy()
        out.add_det_column(self.handle_column, seed_handles(
            label_id, start, start + relation.length))
        return out

    def _first_row(self, context) -> int:
        """Row position of the child's first row.

        0, except under Δ-execution, where the child is the ``Scan`` of
        an appended table (:func:`appends_keep_prefix` admits no other
        seeded child) and its first row is the appended range's start.
        """
        child = self.children[0]
        if not child.reads_appended(context):
            return 0
        if not isinstance(child, Scan):
            raise EngineError(
                f"Seed({self.label}) cannot number appended rows above a "
                f"{type(child).__name__}; re-run over the whole table")
        return context.appended[child.table_name.lower()][0]

    def _fingerprint_parts(self):
        return (self.label, self.handle_column)

    def _own_base_tables(self):
        return tuple(name.lower() for name in self.depends_on)

    def _describe_line(self):
        return f"Seed({self.label})"


class Instantiate(PlanNode):
    """Materialize a window of stream values for each seeded tuple.

    ``param_exprs`` are deterministic expressions over the child's columns
    giving the VG parameters per tuple.  ``outputs`` maps new random-column
    names to VG output components.  The handle column written by the
    matching :class:`Seed` supplies lineage.

    Each distinct parameter tuple is validated once, however many rows
    share it, and the whole output is filled by a single batched stream
    read: :func:`repro.vg.streams.gather_stream_windows` when all rows
    share one position window (every non-replenishment run), else
    :func:`repro.vg.streams.gather_stream_points` over each row's own.

    Under delta replenishment (``context.delta_mode``) the operator does
    not rebuild its output: it gathers from the streams only positions
    that were never materialized before (those past each seed's
    ``max_used``) and copies every other value from the recorded previous
    windows — "materialize only what's new", cf. the LCG MCDB's reuse of
    already-produced Monte Carlo samples (PAPERS.md).  Streams are pure
    functions of position, so the merged bundle is bit-identical to a full
    rebuild.
    """

    def __init__(self, child: PlanNode, vg, param_exprs: Sequence[Expr],
                 outputs: Sequence[tuple[str, int]], handle_column: str):
        super().__init__([child])
        if not outputs:
            raise PlanError("Instantiate needs at least one output column")
        self.vg = vg
        self.param_exprs = list(param_exprs)
        self.outputs = list(outputs)
        self.handle_column = handle_column

    @property
    def contains_random(self) -> bool:
        return True

    def _fingerprint_parts(self):
        return (self.vg.name, tuple(repr(e) for e in self.param_exprs),
                tuple(self.outputs), self.handle_column)

    def _run(self, context):
        relation = self.children[0].execute(context)
        length = relation.length
        handles = relation.det_columns[self.handle_column].astype(np.int64)
        self._register_seeds(context, relation, handles)

        previous = (context.materialized.get(self.node_id)
                    if context.delta_mode else None)
        if previous is not None and not np.array_equal(previous.handles,
                                                       handles):
            # A refuel re-runs the very rows of the baseline; any other
            # row set leaves nothing to merge into.
            previous = None

        if previous is not None:
            runs = self._merge_delta(context, handles, previous)
            context.delta_runs += 1
        elif not context.position_plan:
            runs = self._gather_shared(context, handles)
            context.full_runs += 1
        else:
            runs = self._gather_per_row(context, handles)
            context.full_runs += 1

        # Monte Carlo reads every output as a (T, W) block, tail mode as
        # runs (see repro.engine.bundles).
        out = relation.shallow_copy()
        for (name, _), values in zip(self.outputs, runs.columns):
            if context.aligned:
                column = RandomColumn(
                    values.reshape(length, context.positions),
                    seed_handles=handles.copy(), bases=runs.bases.copy())
            else:
                column = RandomColumn(
                    values, seed_handles=handles.copy(),
                    bases=runs.bases.copy(), offsets=runs.offsets)
            out.add_rand_column(name, column)
        if context.delta_tracking:
            context.materialized[self.node_id] = runs
        return out

    def _register_seeds(self, context, relation, handles) -> None:
        """Create SeedInfo entries, validating once per parameter signature.

        Only rows with an unregistered handle are evaluated (an append
        validates just the appended rows; a replenishment, nothing), and
        ``validate_params`` runs once per *distinct*
        parameter tuple among them, with all PRNG keys from one
        vectorized pass.
        """
        seeds = context.seeds
        fresh = ~np.fromiter(map(seeds.__contains__, handles.tolist()),
                             dtype=bool, count=handles.shape[0])
        if not fresh.any():
            return
        param_columns = [
            np.asarray(relation.evaluate_scalar(expr), dtype=np.float64)[fresh]
            for expr in self.param_exprs]
        if param_columns:
            row_params = list(map(
                tuple, np.column_stack(param_columns).tolist()))
        else:
            row_params = [()] * int(fresh.sum())
        handles = handles[fresh]
        for params in dict.fromkeys(row_params):
            try:
                self.vg.validate_params(params)
            except ValueError as exc:
                label = context.label_of(int(handles[0]))
                raise EngineError(
                    f"VG function {self.vg.name} rejected parameters "
                    f"{params} of seed {label!r}: {exc}") from exc
        prng_seeds = derive_prng_seeds(context.base_seed, handles).tolist()
        for handle, prng_seed, params in zip(
                handles.tolist(), prng_seeds, row_params):
            if handle not in seeds:
                seeds[handle] = SeedInfo(handle, prng_seed, self.vg, params)

    def _gather_shared(self, context, handles) -> _Materialization:
        """Full run, no position plan: all seeds share one window.

        Every handle materializes the same ascending position vector, so
        the whole relation is filled by one batched call that generates
        each (seed, chunk) once and writes every output's slice of it
        straight into the block behind the runs.
        """
        count, width = handles.shape[0], context.positions
        columns = np.empty((len(self.outputs), count * width))
        offsets = np.arange(0, (count + 1) * width, width, dtype=np.int64)
        if not count:
            return _Materialization(handles, {}, columns, offsets,
                                    np.empty(0, dtype=np.int64))
        handle_list = handles.tolist()
        context.instantiate_rows_computed += count
        shared = context.positions_for(handle_list[0])
        gather_stream_windows(
            shared, [(info.prng_seed, info.vg, info.params)
                     for info in map(context.seeds.__getitem__, handle_list)],
            [component for _, component in self.outputs],
            out=columns.reshape(len(self.outputs), count, width))
        return _Materialization(
            handles, dict.fromkeys(handle_list, shared), columns, offsets,
            np.full(count, shared[0], dtype=np.int64))

    def _gather_per_row(self, context, handles) -> _Materialization:
        """Full run under a position plan: each row's window is its seed's
        own, and one batched read over the seeds' ``chunk_blocks`` fills
        them all."""
        context.instantiate_rows_computed += handles.shape[0]
        handle_list = handles.tolist()
        positions_by_handle = {handle: context.positions_for(handle)
                               for handle in dict.fromkeys(handle_list)}
        windows = [positions_by_handle[handle] for handle in handle_list]
        sizes = [window.size for window in windows]
        columns = gather_stream_points(
            [context.seeds[handle].chunk_blocks for handle in handle_list],
            np.repeat(np.arange(len(windows)), sizes),
            np.concatenate(windows) if windows else [],
            [component for _, component in self.outputs])
        bases = np.array([window[0] for window in windows], dtype=np.int64)
        return _Materialization(handles, positions_by_handle, columns,
                                _offsets_of(sizes), bases)

    def _merge_delta(self, context, handles, previous) -> _Materialization:
        """Delta replenishment: copy overlap, gather only new positions.

        Rows of handles outside ``context.refuel_handles`` (see
        :class:`ExecutionContext`) materialize exactly the run the
        previous run recorded, so they carry over untouched: each stretch
        of consecutive such rows is one slice copy.  The remaining rows
        (every row, when the context names no refuel set) are merged
        together by :meth:`_merge_moved`.
        """
        count = handles.shape[0]
        refuel = context.refuel_handles
        if refuel is None:
            moved = np.ones(count, dtype=bool)
        else:
            moved = np.fromiter(map(refuel.__contains__, handles.tolist()),
                                dtype=bool, count=count)
        rows = np.flatnonzero(moved)
        kept = np.flatnonzero(~moved)
        new_of = {handle: context.positions_for(handle)
                  for handle in dict.fromkeys(handles[rows].tolist())}
        lengths = np.diff(previous.offsets)
        lengths[rows] = [new_of[handle].size
                         for handle in handles[rows].tolist()]
        offsets = _offsets_of(lengths)
        columns = np.empty((len(self.outputs), int(offsets[-1])))
        bases = np.empty(count, dtype=np.int64)
        positions_by_handle: dict[int, np.ndarray] = {}
        if kept.size:
            breaks = np.flatnonzero(np.diff(kept) != 1) + 1
            firsts = kept[np.concatenate(([0], breaks))].tolist()
            lasts = (kept[np.concatenate((breaks - 1, [kept.size - 1]))]
                     + 1).tolist()
            old = previous.offsets
            for first, last in zip(firsts, lasts):
                columns[:, offsets[first]:offsets[last]] = \
                    previous.columns[:, old[first]:old[last]]
            bases[kept] = previous.bases[kept]
            positions_by_handle.update(previous.positions)
            context.instantiate_rows_reused += int(kept.size)
        if rows.size:
            self._merge_moved(context, handles, rows, columns, offsets,
                              bases, previous, new_of)
            positions_by_handle.update(new_of)
        return _Materialization(handles, positions_by_handle, columns,
                                offsets, bases)

    def _merge_moved(self, context, handles, rows, columns, offsets, bases,
                     previous, new_of) -> None:
        """Merge every moved row's new run into ``columns``.

        Each row's new positions ``new_of[handle]`` are matched against
        the positions the row materialized last run by
        :func:`_match_window`: the overlap of the two windows' final
        contiguous runs (a refuel's fresh range) lands as one slice copy,
        and only the positions before it are searched.
        The positions the old runs lack come from batched stream fills
        over many rows (:meth:`_fill_missing`, every :data:`_FILL_BATCH`
        slots), one generated chunk per (seed, chunk).  A row counts as
        computed when it touched the streams at all, else as reused.
        """
        old_offsets = previous.offsets.tolist()
        starts = offsets.tolist()
        pending, pending_cells, computed = [], 0, 0
        for row, handle in zip(rows.tolist(), handles[rows].tolist()):
            new = new_of[handle]
            bases[row] = new[0]
            start = starts[row]
            (run_new, run_old), head, index, missing = _match_window(
                new, previous.positions[handle])
            target = columns[:, start:start + new.size]
            origin = previous.columns[:, old_offsets[row]:
                                      old_offsets[row + 1]]
            target[:, run_new] = origin[:, run_old]
            target[:, head] = origin[:, index]
            if missing.size:
                computed += 1
                pending.append((start, handle, missing))
                pending_cells += missing.size
                if pending_cells >= _FILL_BATCH:
                    self._fill_missing(context, columns, new_of, pending)
                    pending, pending_cells = [], 0
        if pending:
            self._fill_missing(context, columns, new_of, pending)
        context.instantiate_rows_computed += computed
        context.instantiate_rows_reused += rows.size - computed

    def _fill_missing(self, context, columns, new_of, pending) -> None:
        """One batched stream fill of the ``(start, handle, slots)`` in
        ``pending``: slots of the run starting at ``start`` that the
        previous run never materialized."""
        sizes = [slots.size for _, _, slots in pending]
        values = gather_stream_points(
            [context.seeds[handle].chunk_blocks for _, handle, _ in pending],
            np.repeat(np.arange(len(pending)), sizes),
            np.concatenate([new_of[handle][slots]
                            for _, handle, slots in pending]),
            [component for _, component in self.outputs])
        cells = np.concatenate([slots + start for start, _, slots in pending])
        columns[:, cells] = values

    def _describe_line(self):
        names = ", ".join(name for name, _ in self.outputs)
        return f"Instantiate({self.vg.name} -> {names})"


def _offsets_of(lengths) -> np.ndarray:
    """Run offsets ``(T + 1,)`` of runs with the given lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _final_run(positions: np.ndarray) -> int:
    """Index where the ascending, duplicate-free ``positions`` start
    their last contiguous run: ``positions[j] - j`` is non-decreasing and
    constant exactly along a run, so a bisection finds where it reaches
    its last value (a refuel window is its assigned positions, then one
    long fresh run)."""
    last = int(positions[-1]) - (positions.size - 1)
    low, high = 0, positions.size - 1
    while low < high:
        mid = (low + high) // 2
        if int(positions[mid]) - mid == last:
            high = mid
        else:
            low = mid + 1
    return low


def _match_window(new: np.ndarray, old: np.ndarray):
    """Where a refueled window's positions sit in the previous window.

    Both are ascending and duplicate-free.  Returns ``((run_new,
    run_old), head, index, missing)``: slot slice ``run_new`` of the new
    window is slice ``run_old`` of the old one (the overlap of their
    final contiguous runs — a refuel keeps most of its fresh range);
    slots ``head`` are old slots ``index``; slots ``missing`` were never
    materialized.  Only the slots before the run overlap — a refuel's
    assigned positions — are searched; slots after it lie past the old
    window's last position.
    """
    width = new.size
    run_start, old_start = _final_run(new), _final_run(old)
    low = max(int(new[run_start]), int(old[old_start]))
    high = min(int(new[-1]), int(old[-1]))
    if low <= high:
        first = run_start + low - int(new[run_start])
        stop = first + high - low + 1
        origin = old_start + low - int(old[old_start])
        run_new, run_old = slice(first, stop), slice(origin,
                                                     origin + stop - first)
    else:
        first = stop = int(np.searchsorted(new, old[-1], side="right"))
        run_new = run_old = slice(0, 0)
    missing = np.arange(stop, width)
    index = np.searchsorted(old, new[:first])
    np.minimum(index, old.size - 1, out=index)
    found = old[index] == new[:first]
    if found.all():  # the usual refuel: every assigned position was held
        return (run_new, run_old), slice(0, first), index, missing
    head = np.flatnonzero(found)
    missing = np.concatenate([np.flatnonzero(~found), missing])
    return (run_new, run_old), head, index[head], missing


class Select(PlanNode):
    """Filter by a predicate.

    Deterministic predicates remove rows outright.  Predicates touching
    random columns become presence (``isPres``) arrays; rows whose
    predicate holds at no materialized position are dropped (Sec. 5).  In
    tail mode the predicate must involve at most one seed per tuple —
    multi-seed predicates are the planner's job to pull up into the looper.
    """

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    def _run(self, context):
        relation = self.children[0].execute(context)
        rand_names = relation.random_columns_in(self.predicate)
        if not rand_names:
            mask = np.asarray(relation.evaluate_scalar(self.predicate), dtype=bool)
            return relation.filter_rows(mask)

        flags = np.asarray(
            relation.evaluate_positional(self.predicate, check_single_seed=True),
            dtype=bool)
        lineage = relation.rand_columns[rand_names[0]]
        if lineage.is_derived:
            seed_handles, bases = None, None
        else:
            seed_handles, bases = lineage.seed_handles, lineage.bases
        presence = PresenceColumn(flags, seed_handles, bases,
                                  lineage.offsets)
        out = relation.shallow_copy()
        out.add_presence(presence)
        return out.filter_rows(run_counts(*presence.runs()) > 0)

    def _fingerprint_parts(self):
        return (repr(self.predicate),)

    def _describe_line(self):
        return f"Select({self.predicate!r})"


class Project(PlanNode):
    """Keep a subset of columns and add derived ones.

    ``keep=None`` keeps everything; derived outputs referencing a single
    seed stay random columns with that lineage, while aligned (MC) mode
    additionally allows cross-seed derived columns.
    """

    def __init__(self, child: PlanNode, outputs: Sequence[tuple[str, Expr]] = (),
                 keep: Sequence[str] | None = None):
        super().__init__([child])
        self.outputs = list(outputs)
        self.keep = None if keep is None else list(keep)

    def _run(self, context):
        relation = self.children[0].execute(context)
        out = BundleRelation(relation.length, relation.positions, relation.aligned)
        kept = relation.column_names if self.keep is None else self.keep
        for name in kept:
            if name in relation.det_columns:
                out.add_det_column(name, relation.det_columns[name])
            elif name in relation.rand_columns:
                out.add_rand_column(name, relation.rand_columns[name])
            else:
                raise PlanError(f"Project keeps unknown column {name!r}")
        out.presence = list(relation.presence)

        for name, expr in self.outputs:
            rand_names = relation.random_columns_in(expr)
            if not rand_names:
                out.add_det_column(name, relation.evaluate_scalar(expr))
                continue
            values = relation.evaluate_positional(expr, check_single_seed=True)
            lineage = relation.rand_columns[rand_names[0]]
            if relation._mixes_seeds(rand_names) or lineage.is_derived:
                column = RandomColumn(values, seed_handles=None,
                                      offsets=lineage.offsets)
            else:
                column = RandomColumn(values, lineage.seed_handles,
                                      lineage.bases, lineage.offsets)
            out.add_rand_column(name, column)
        return out

    def _fingerprint_parts(self):
        return (tuple((name, repr(expr)) for name, expr in self.outputs),
                None if self.keep is None else tuple(self.keep))

    def _describe_line(self):
        added = ", ".join(name for name, _ in self.outputs)
        return f"Project(+[{added}])" if added else "Project"


class Join(PlanNode):
    """Inner equi-join on deterministic key columns."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str]):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("join needs matching, non-empty key lists")
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)

    def _run(self, context):
        left = self.children[0].execute(context)
        right = self.children[1].execute(context)
        if left.positions != right.positions or left.aligned != right.aligned:
            raise EngineError("join inputs disagree on positions/alignment")
        for key, side in [(k, left) for k in self.left_keys] + [
                (k, right) for k in self.right_keys]:
            if not side.is_deterministic_column(key):
                raise PlanError(
                    f"join key {key!r} is random; apply Split before joining "
                    "on a random attribute (Sec. 8)")
        overlap = set(left.column_names) & set(right.column_names)
        if overlap:
            raise PlanError(
                f"join would duplicate columns {sorted(overlap)}; "
                "alias one side")
        return self._join(left, right)

    def _join(self, left: BundleRelation,
              right: BundleRelation) -> BundleRelation:
        """Match + combine: left row order, then ascending right row.

        Output rows follow their left rows, so a Δ-execution joining just
        the appended left rows against the unchanged right side yields
        exactly the rows a full re-run appends (after every old left
        row's matches).
        """
        left_rows, right_rows = self._match(
            [left.det_columns[k] for k in self.left_keys],
            [right.det_columns[k] for k in self.right_keys])
        taken_left = left.take(left_rows)
        taken_right = right.take(right_rows)
        out = BundleRelation(len(left_rows), left.positions, left.aligned)
        out.det_columns.update(taken_left.det_columns)
        out.det_columns.update(taken_right.det_columns)
        out.rand_columns.update(taken_left.rand_columns)
        out.rand_columns.update(taken_right.rand_columns)
        out.presence = taken_left.presence + taken_right.presence
        return out

    @staticmethod
    def _match(left_keys, right_keys) -> tuple[np.ndarray, np.ndarray]:
        """``(left_rows, right_rows)`` of every pair with equal key tuples.

        Each key column pair is factorized over both sides at once
        (:func:`~repro.engine.bundles.row_key_codes`), the right codes
        are stably sorted, and every left code finds its run of mates
        with two ``searchsorted`` calls.  An int column meeting a float
        column compares as float64 (exact below 2**53).
        """
        n_left = left_keys[0].shape[0]
        codes = row_key_codes([np.concatenate(pair)
                               for pair in zip(left_keys, right_keys)])
        left_codes, right_codes = codes[:n_left], codes[n_left:]
        order = np.argsort(right_codes, kind="stable")
        sorted_codes = right_codes[order]
        first = np.searchsorted(sorted_codes, left_codes, side="left")
        counts = np.searchsorted(sorted_codes, left_codes, side="right") - first
        left_rows = np.repeat(np.arange(n_left), counts)
        # Position of each output row within its left row's run of mates.
        within = np.arange(left_rows.size) - np.repeat(
            np.cumsum(counts) - counts, counts)
        return left_rows, order[np.repeat(first, counts) + within]

    def _fingerprint_parts(self):
        return (tuple(self.left_keys), tuple(self.right_keys))

    def _describe_line(self):
        keys = ", ".join(
            f"{left}={right}"
            for left, right in zip(self.left_keys, self.right_keys))
        return f"Join({keys})"


class Split(PlanNode):
    """Sec. 8: make a discrete random attribute deterministic.

    Each tuple fans out into one tuple per distinct materialized value of
    the attribute; the attribute becomes deterministic and a presence array
    records at which stream positions each copy is the live one.  At most
    one copy is present per position, so downstream joins on the attribute
    are ordinary deterministic joins.
    """

    def __init__(self, child: PlanNode, column: str):
        super().__init__([child])
        self.column = column

    def _run(self, context):
        relation = self.children[0].execute(context)
        if self.column not in relation.rand_columns:
            raise PlanError(f"Split target {self.column!r} is not a random column")
        source = relation.rand_columns[self.column]
        if source.is_derived:
            raise PlanError(
                f"cannot Split derived column {self.column!r}; split the "
                "original VG output instead")

        indices: list[int] = []
        split_values: list[float] = []
        for row in range(relation.length):
            for value in np.unique(source.row(row)):
                indices.append(row)
                split_values.append(value)
        gathered = relation.take(np.asarray(indices, dtype=np.int64))

        out = BundleRelation(len(indices), relation.positions, relation.aligned)
        for name, values in gathered.det_columns.items():
            out.det_columns[name] = values
        for name, column in gathered.rand_columns.items():
            if name != self.column:
                out.rand_columns[name] = column
        out.presence = list(gathered.presence)
        split_array = np.asarray(split_values)
        out.add_det_column(self.column, split_array)
        split = gathered.rand_columns[self.column]
        if split.offsets is None:
            flags = split.values == split_array[:, None]
        else:
            flags = split.values == np.repeat(split_array,
                                              np.diff(split.offsets))
        out.add_presence(PresenceColumn(
            flags, split.seed_handles, split.bases, split.offsets))
        return out

    def _fingerprint_parts(self):
        return (self.column,)

    def _describe_line(self):
        return f"Split({self.column})"


def appends_keep_prefix(node: PlanNode, appended) -> bool:
    """Whether append-only growth of ``appended`` tables extends this plan.

    True when the grown plan's output provably keeps every old row —
    values, order, and row indices — as a prefix, with the rows the
    appended tuples produce landing strictly after it, and when
    Δ-execution (:attr:`ExecutionContext.appended`) computes exactly
    those rows.  That is the condition a standing query needs to fold
    only the Δ relation into its strict-order accumulators (or to keep a
    tail result no appended row reaches) and still be bit-identical to a
    fresh run on the grown table.

    Every operator here is row-local or row-ordered under growth at the
    end — Scan appends, Seed numbers handles by row position, Select
    filters in order (presence flags of old rows are pure stream
    functions), Project/Instantiate are row-preserving, Split fans out in
    row order — except a Join whose *right* (build) side depends on an
    appended table: old probe rows would gain interleaved matches, so
    only a full recompute reproduces the fresh-run row order.  A Seed
    over appended rows must sit on their Scan, the one child whose Δ
    starts at a known row position.
    """
    appended = set(appended)
    if isinstance(node, Join) and node.children[1].base_tables() & appended:
        return False
    if (isinstance(node, Seed) and not isinstance(node.children[0], Scan)
            and node.base_tables() & appended):
        return False
    return all(appends_keep_prefix(child, appended)
               for child in node.children)


def appended_rows_reach_random(node: PlanNode,
                               context: ExecutionContext) -> bool:
    """Whether any Δ row (``context.appended``) leaves the deterministic
    part of the plan.

    Runs the Δ of every maximal deterministic subtree that reads an
    appended table — the input of an ``Instantiate``, of a random
    operator, or the whole output — and stops at the first one that
    yields a row.  When none does, a plan that
    :func:`appends_keep_prefix` admits outputs exactly its old rows.
    Only deterministic operators decide: a random ``Select``'s row drops
    depend on the window a run materializes.
    """
    if not node.reads_appended(context):
        return False
    if not node.contains_random:
        return node.execute(context).length > 0
    return any(appended_rows_reach_random(child, context)
               for child in node.children)


def random_table_pipeline(spec: RandomTableSpec, prefix: str = "",
                          occurrence: str = "",
                          predicates: Sequence[Expr] = ()) -> PlanNode:
    """Expand a random-table spec into ``Scan -> Seed -> Instantiate``.

    ``prefix`` namespaces output columns (aliasing, e.g. ``emp1.``/``emp2.``
    in the salary-inversion query).  ``occurrence`` controls stream
    identity: scans sharing an occurrence string share seeds — the
    *self-join* semantics where both occurrences see the same possible
    world of the uncertain table — while distinct occurrences denote
    independent uncertain relations.

    ``predicates`` filter on (prefixed) parameter columns between ``Seed``
    and ``Instantiate``: only kept rows get stream windows, and each keeps
    the handle — hence the stream — it has unfiltered.
    """
    label = f"{spec.name}{occurrence}"
    scan = Scan(spec.parameter_table, prefix=prefix)
    if prefix:
        params = [_prefix_expr(expr, prefix) for expr in spec.vg_params]
    else:
        params = list(spec.vg_params)
    seed = Seed(scan, label=label, column_name=f"{prefix}{spec.name}#seed",
                depends_on=(spec.name,))
    outputs = [(prefix + column.name, column.component)
               for column in spec.random_columns]
    rows: PlanNode = seed
    for predicate in predicates:
        rows = Select(rows, predicate)
    instantiate = Instantiate(rows, spec.vg, params, outputs, seed.handle_column)
    keep = [prefix + name for name in spec.passthrough_columns]
    keep.append(seed.handle_column)
    keep.extend(prefix + column.name for column in spec.random_columns)
    return Project(instantiate, outputs=(), keep=keep)


def _prefix_expr(expr: Expr, prefix: str) -> Expr:
    """Rewrite column references with a prefix (for aliased scans)."""
    from repro.engine.expressions import BinOp, Col, Lit, Not

    if isinstance(expr, Col):
        return Col(prefix + expr.name)
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _prefix_expr(expr.left, prefix),
                     _prefix_expr(expr.right, prefix))
    if isinstance(expr, Not):
        return Not(_prefix_expr(expr.operand, prefix))
    raise PlanError(f"cannot prefix expression node {type(expr).__name__}")
