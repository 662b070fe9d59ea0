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
from repro.vg.streams import (
    gather_aligned_windows, gather_stream_points, gather_stream_windows)

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
        #: Refuel Δ-execution: the seed handles whose rows a run computes.
        #: When set, every ``Instantiate`` keeps only the input rows of
        #: these handles, so the plan yields just the rows of a refuel's
        #: re-planned seeds (see :class:`Instantiate`).  The setter must
        #: reset it once it has consumed the run.
        self.handle_filter: frozenset[int] | None = None
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
        #: Δ-execution: ``id(stale) -> (stale, grown)`` for each det-cache
        #: column this pass extended, so every cached holder of the same
        #: rows takes one grown array (``SessionDetCache.extend``).
        self.grown: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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
class _Runs:
    """One Instantiate run's output: ``columns[i]`` holds output ``i``'s
    values as runs — row ``t`` is ``columns[i, offsets[t]:offsets[t +
    1]]``, the stream values at the ascending positions
    ``positions[handle of t]``, the first of which is ``bases[t]`` and
    whose last contiguous run starts at slot ``finals[t]``.  A Monte
    Carlo run's ``columns[i]`` is a ``(T, W)`` block instead, with no
    ``offsets``, ``finals`` or ``positions`` (it is never recorded)."""

    positions: dict[int, np.ndarray]
    columns: np.ndarray | list[np.ndarray]
    offsets: np.ndarray | None
    bases: np.ndarray
    finals: np.ndarray | None


@dataclass
class _Materialization:
    """What an Instantiate materialized, per seed handle: the baseline a
    delta run merges into.

    ``positions[h]`` is the ascending window seed ``h`` materialized
    last, ``values[h]`` the ``(outputs, len)`` values there and
    ``finals[h]`` the slot where the window's last contiguous run
    starts.  A delta run over some handles updates their entries.
    """

    positions: dict[int, np.ndarray]
    values: dict[int, np.ndarray]
    finals: dict[int, int]

    @classmethod
    def record(cls, handles: np.ndarray, runs: _Runs,
               previous: "_Materialization | None") -> "_Materialization":
        """The baseline after ``runs`` over rows ``handles``, merged
        into ``previous`` when the run was a delta run."""
        handle_list, bounds = handles.tolist(), runs.offsets.tolist()
        values = {handle: runs.columns[:, lo:hi] for handle, lo, hi in zip(
            handle_list, bounds[:-1], bounds[1:])}
        finals = dict(zip(handle_list, runs.finals.tolist()))
        if previous is None:
            return cls(runs.positions, values, finals)
        return cls({**previous.positions, **runs.positions},
                   {**previous.values, **values},
                   {**previous.finals, **finals})


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
    share it (a VG with a matrix check validates the whole parameter
    matrix at once), and the whole output is filled by a single batched
    stream read: in Monte Carlo mode by
    :func:`repro.vg.streams.gather_aligned_windows`, from the rows' PRNG
    keys and parameter matrix; in tail mode, over each seed's
    :class:`~repro.engine.seeds.SeedInfo`, by
    :func:`repro.vg.streams.gather_stream_windows` when all rows share the
    default window, else by :func:`repro.vg.streams.gather_stream_points`
    over each row's own.

    A refuel runs the plan as a Δ-execution over its refuel set
    (``context.handle_filter``): the operator keeps only the input rows
    of those seeds — the rows its child, a ``Seed`` under deterministic
    filters, numbered for them — so it and every operator above it see
    nothing else, and the cached deterministic input is served whole.
    Every operator is row-local (an output row derives from its own
    input rows alone, in their order), so the plan then yields exactly
    the output rows whose random fields come from those seeds — though a
    random ``Select`` or a ``Split`` may drop or surface a row when its
    window changes.
    Under delta replenishment (``context.delta_mode``) the operator then
    does not rebuild those rows: it copies every value its baseline (the
    windows each handle materialized last) already holds and gathers
    from the streams only positions never materialized before — "only
    adds new or currently assigned values" (Sec. 9), cf. the LCG MCDB's
    reuse of already-produced Monte Carlo samples (PAPERS.md).  Streams
    are pure functions of position, so the merged runs are bit-identical
    to a full rebuild.
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
        refuel = context.handle_filter
        if refuel is not None:
            relation = relation.filter_rows(np.isin(
                relation.det_columns[self.handle_column],
                np.fromiter(refuel, dtype=np.int64, count=len(refuel))))
        handles = relation.det_columns[self.handle_column].astype(np.int64)
        if not context.aligned:
            self._register_seeds(context, relation, handles)

        previous = (context.materialized.get(self.node_id)
                    if context.delta_mode else None)
        if previous is not None and not all(
                map(previous.positions.__contains__, handles.tolist())):
            # A delta run merges rows whose seeds the baseline holds;
            # any other row set leaves nothing to merge into.
            previous = None

        if previous is not None:
            runs = self._merge_delta(context, handles, previous)
            context.delta_runs += 1
        else:
            context.full_runs += 1
            if context.aligned:
                runs = self._gather_aligned(context, relation, handles)
            elif not context.position_plan:
                runs = self._gather_shared(context, handles)
            else:
                runs = self._gather_per_row(context, handles)

        # Monte Carlo reads every output as a (T, W) block, tail mode as
        # runs (see repro.engine.bundles).
        out = relation.shallow_copy()
        for (name, _), values in zip(self.outputs, runs.columns):
            out.add_rand_column(name, RandomColumn(
                values, seed_handles=handles.copy(), bases=runs.bases.copy(),
                offsets=runs.offsets))
        if context.delta_tracking:
            context.materialized[self.node_id] = _Materialization.record(
                handles, runs, previous)
        return out

    def _params(self, context, relation, handles, rows=slice(None)):
        """``(PRNG keys, parameters)`` of the relation's ``rows`` (a mask
        or slice), whose seed handles are ``handles``: the keys as a list
        of ints, the VG parameters as a ``(rows, parameters)`` float64
        matrix.

        ``validate_params`` runs once per *distinct* parameter tuple, in
        row order, before any stream is drawn — or, when the VG declares
        a matrix check (``VGFunction.matrix_check``), on the first row
        it names; a rejection is an :class:`EngineError` naming the seed
        label.
        """
        columns = [np.asarray(relation.evaluate_scalar(expr),
                              dtype=np.float64)[rows]
                   for expr in self.param_exprs]
        matrix = (np.column_stack(columns) if columns
                  else np.empty((handles.shape[0], 0)))
        check = self.vg.matrix_check()
        if check is None:
            suspects = dict.fromkeys(map(tuple, matrix.tolist()))
        else:
            row = check(matrix)
            suspects = () if row is None else [tuple(matrix[row].tolist())]
        for params in suspects:
            try:
                self.vg.validate_params(params)
            except ValueError as exc:
                label = context.label_of(int(handles[0]))
                raise EngineError(
                    f"VG function {self.vg.name} rejected parameters "
                    f"{params} of seed {label!r}: {exc}") from exc
        return derive_prng_seeds(context.base_seed, handles).tolist(), matrix

    def _register_seeds(self, context, relation, handles) -> None:
        """Create a tail run's SeedInfo entries.

        Only rows with an unregistered handle are evaluated (an append
        validates just the appended rows; a replenishment, nothing), with
        all PRNG keys from one vectorized pass.
        """
        seeds = context.seeds
        fresh = ~np.fromiter(map(seeds.__contains__, handles.tolist()),
                             dtype=bool, count=handles.shape[0])
        if not fresh.any():
            return
        handles = handles[fresh]
        keys, params = self._params(context, relation, handles, fresh)
        for handle, key, row in zip(handles.tolist(), keys, params.tolist()):
            if handle not in seeds:
                seeds[handle] = SeedInfo(handle, key, self.vg, tuple(row))

    def _gather_aligned(self, context, relation, handles) -> _Runs:
        """Monte Carlo run: every row's window is positions
        ``[position_offset, position_offset + positions)``, one ``(T, W)``
        block per output (runs without ``offsets``) filled by
        :func:`repro.vg.streams.gather_aligned_windows` from the rows'
        PRNG keys and parameter matrix.  A Monte Carlo run never refuels,
        so it registers no SeedInfo, and a position plan (a refuel's)
        is refused."""
        if context.position_plan:
            raise EngineError("a position plan needs a tail (aligned=False) "
                              "context")
        keys, params = self._params(context, relation, handles)
        context.instantiate_rows_computed += handles.shape[0]
        blocks = gather_aligned_windows(
            self.vg, keys, params, context.position_offset,
            context.positions, [component for _, component in self.outputs])
        return _Runs({}, blocks, None, np.full_like(
            handles, context.position_offset), None)

    def _gather_shared(self, context, handles) -> _Runs:
        """Full tail run, no position plan: every row's window is the
        contiguous default range, and one batched range read over the
        seeds' ``chunk_blocks`` fills them all, keeping the chunk each
        window ends in for the seed's first refuel."""
        count, width = handles.shape[0], context.positions
        first = context.position_offset
        handle_list = handles.tolist()
        context.instantiate_rows_computed += count
        columns = gather_stream_windows(
            SeedInfo.chunk_blocks,
            list(map(context.seeds.__getitem__, handle_list)),
            np.full(count, first), np.full(count, first + width),
            [component for _, component in self.outputs])
        return _Runs(
            dict.fromkeys(handle_list, np.arange(first, first + width)),
            columns, np.arange(0, (count + 1) * width, width),
            np.full(count, first, dtype=np.int64),
            np.zeros(count, dtype=np.int64))

    def _windows(self, context, handles):
        """Each row's planned window: ``(positions by handle, the rows'
        positions concatenated, their run offsets)``."""
        handle_list = handles.tolist()
        positions_by_handle = {handle: context.positions_for(handle)
                               for handle in dict.fromkeys(handle_list)}
        windows = [positions_by_handle[handle] for handle in handle_list]
        offsets = _offsets_of([window.size for window in windows])
        flat = (np.concatenate(windows) if windows
                else np.empty(0, dtype=np.int64))
        return positions_by_handle, flat, offsets

    def _fill(self, context, handles, row_of, positions) -> np.ndarray:
        """One batched stream read: request ``i`` is row ``row_of[i]``'s
        stream at ``positions[i]`` (grouped by row, ascending)."""
        return gather_stream_points(
            [context.seeds[handle].chunk_blocks
             for handle in handles.tolist()],
            row_of, positions, [component for _, component in self.outputs])

    def _gather_per_row(self, context, handles) -> _Runs:
        """Full run under a position plan: each row's window is its seed's
        own, and one batched read over the seeds' ``chunk_blocks`` fills
        them all."""
        context.instantiate_rows_computed += handles.shape[0]
        positions_by_handle, flat, offsets = self._windows(context, handles)
        columns = self._fill(context, handles, np.repeat(
            np.arange(handles.shape[0]), np.diff(offsets)), flat)
        return _Runs(positions_by_handle, columns, offsets,
                     flat[offsets[:-1]],
                     _final_runs(flat, offsets) - offsets[:-1])

    def _merge_delta(self, context, handles, previous) -> _Runs:
        """Delta replenishment: copy what the baseline holds, gather only
        new positions.

        Every row's planned window is matched against the one its handle
        materialized last by :func:`_match_windows`, one pass over all
        rows.  A refueled row is three pieces: its head (the assigned
        positions) gathered from the baseline, the overlap of the two
        final runs sliced from it, and its tail — the fresh positions past
        the old window, contiguous — drawn by one batched range fill over
        all rows, one generated chunk per (seed, chunk); the output is
        one concatenation of all pieces.  A row whose head the baseline
        lacks, or whose tail is not one run (never, for a refuel's plan),
        is drawn whole by one batched point fill.  A row counts as
        computed when it touched the streams at all, else as reused.
        """
        positions_by_handle, flat, offsets = self._windows(context, handles)
        handle_list = handles.tolist()
        if not handle_list:
            return _Runs({}, np.empty((len(self.outputs), 0)), offsets, flat,
                         flat)
        finals, first, stop, origin, head, held = _match_windows(
            flat, offsets, [previous.positions[handle]
                            for handle in handle_list],
            [previous.finals[handle] for handle in handle_list])
        lengths = np.diff(offsets)
        pieced = held & (stop >= finals)
        tails = np.where(pieced, lengths - stop, 0)
        ranged = np.flatnonzero(tails)
        drawn = gather_stream_windows(
            SeedInfo.chunk_blocks,
            [context.seeds[handle_list[row]] for row in ranged.tolist()],
            flat[offsets[ranged] + stop[ranged]],
            flat[offsets[ranged + 1] - 1] + 1,
            [component for _, component in self.outputs])
        whole = np.flatnonzero(~pieced)
        if whole.size:
            cells, rows = _spans(offsets[whole], offsets[whole + 1])
            redrawn = self._fill(context, handles[whole], rows, flat[cells])
        pieces, head_at, drawn_at, redrawn_at = [], 0, 0, 0
        for handle, pieceable, size, run_start, run_stop, at, tail in zip(
                handle_list, pieced.tolist(), lengths.tolist(),
                first.tolist(), stop.tolist(), origin.tolist(),
                tails.tolist()):
            head_at += run_start
            if not pieceable:
                pieces.append(redrawn[:, redrawn_at:redrawn_at + size])
                redrawn_at += size
                continue
            values = previous.values[handle]
            pieces.append(values[:, head[head_at - run_start:head_at]])
            pieces.append(values[:, at:at + run_stop - run_start])
            pieces.append(drawn[:, drawn_at:drawn_at + tail])
            drawn_at += tail
        computed = ranged.size + whole.size
        context.instantiate_rows_computed += computed
        context.instantiate_rows_reused += len(handle_list) - computed
        return _Runs(positions_by_handle, np.concatenate(pieces, axis=1),
                     offsets, flat[offsets[:-1]], finals)

    def _describe_line(self):
        names = ", ".join(name for name, _ in self.outputs)
        return f"Instantiate({self.vg.name} -> {names})"


def _offsets_of(lengths) -> np.ndarray:
    """Run offsets ``(T + 1,)`` of runs with the given lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _spans(starts: np.ndarray, stops: np.ndarray):
    """Every row's ``arange(starts[r], stops[r])``, concatenated, and
    the row of each element."""
    lengths = stops - starts
    rows = np.repeat(np.arange(lengths.size), lengths)
    cells = np.arange(rows.size) + (starts - _offsets_of(lengths)[:-1])[rows]
    return cells, rows


def _bisect_rows(low: np.ndarray, high: np.ndarray, hit) -> np.ndarray:
    """Per row ``r``, the least index in ``[low[r], high[r]]`` at which
    ``hit(index)`` holds — one bisection over every row at once, for a
    ``hit`` that is monotone (false, then true) along each row and holds
    at ``high``.  ``hit`` maps an array of indices, one per row, to
    bools."""
    low, high = low.copy(), high.copy()
    while (high - low).any():
        mid = (low + high) >> 1
        ok = hit(mid)
        np.copyto(high, mid, where=ok)
        np.copyto(low, mid + 1, where=~ok)
    return low


def _final_runs(positions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row of ascending, duplicate-free, non-empty runs: the index
    where its last contiguous run starts.  ``positions[j] - j`` is
    non-decreasing along a row and constant exactly along a run, so a
    bisection finds where it reaches its last value (a refuel window is
    its assigned positions, then one long fresh run)."""
    last = offsets[1:] - 1
    key = positions[last] - last
    return _bisect_rows(offsets[:-1], last,
                        lambda at: positions[at] - at == key)


def _match_windows(new: np.ndarray, new_offsets: np.ndarray,
                   old: list[np.ndarray], old_finals: list[int]):
    """Where every refueled window's positions sit in its row's previous
    window, for all rows in one pass.

    Row ``r`` of the runs ``new``/``new_offsets`` is its planned window,
    ``old[r]`` the one it materialized last, whose last contiguous run
    starts at slot ``old_finals[r]``; both ascending, duplicate-free and
    non-empty.  Per row, the overlap of the two windows' final
    contiguous runs (a refuel keeps most of its fresh range) maps by
    offset, and the slots after it lie past the old window's last
    position; only the slots before it — the head, a refuel's assigned
    positions — are looked up, every row's in one ``searchsorted`` over
    the old windows' heads.

    Returns per-row arrays ``(finals, first, stop, origin, head, held)``,
    slots counted from each row's start: ``finals`` where each new
    window's last contiguous run starts; new slots ``[first, stop)`` are
    old slots ``[origin, origin + stop - first)``; new slots from
    ``stop`` on were never materialized; new slot ``j < first`` is old
    slot ``head[j]`` of the row's run of ``head`` (runs of lengths
    ``first``), ``-1`` when the old window lacks it; ``held`` says the
    old window has every head slot.
    """
    new_lo, new_hi = new_offsets[:-1], new_offsets[1:]
    new_run = _final_runs(new, new_offsets)
    old_run = np.array(old_finals, dtype=np.int64)
    old_first = np.array([window[at] for window, at in zip(old, old_finals)])
    old_last = np.array([window[-1] for window in old])
    new_first = new[new_run]
    low = np.maximum(new_first, old_first)
    high = np.minimum(new[new_hi - 1], old_last)
    overlap = low <= high
    first = new_run + low - new_first
    # No overlap, new final run past the old window: the head ends at
    # the first position past it.  New final run below the old one: the
    # whole new window is head.
    above = np.flatnonzero(new_first > old_last)
    if above.size:
        first[above] = _bisect_rows(
            new_lo[above], new_run[above],
            lambda at: new[at] > old_last[above])
    first = np.where(overlap | (new_first > old_last), first, new_hi)
    stop = np.where(overlap, first + high - low + 1, first)

    cells, rows = _spans(new_lo, first)
    wanted = new[cells]
    # A head position in the old final run maps by offset; one below it
    # is looked up among the old positions before that run.
    head = np.where(
        (wanted >= old_first[rows]) & (wanted <= old_last[rows]),
        wanted - old_first[rows] + old_run[rows], -1)
    below = np.flatnonzero(wanted < old_first[rows])
    if below.size and old_run.any():
        hay_rows = np.repeat(np.arange(old_run.size), old_run)
        # One sorted key per (row, position): rows never interleave.
        span = int(max(new[new_hi - 1].max(), old_last.max())) + 1
        if span * old_run.size >= 1 << 62:
            raise EngineError("stream positions too large to match")
        hay = np.concatenate([window[:at] for window, at in zip(
            old, old_finals)]) + hay_rows * span
        needles = wanted[below] + rows[below] * span
        at = np.minimum(np.searchsorted(hay, needles), hay.size - 1)
        found = hay[at] == needles
        hits = at[found]  # a hay cell's slot: its index past its row's start
        head[below[found]] = hits - _offsets_of(old_run)[hay_rows[hits]]
    held = np.bincount(rows[head < 0], minlength=new_lo.size) == 0
    return new_run - new_lo, first - new_lo, stop - new_lo, \
        old_run + low - old_first, head, held


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
