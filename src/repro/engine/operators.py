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
    BundleRelation, PresenceColumn, RandomColumn, row_key_codes)
from repro.engine.det_cache import ContextDetCache
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import Expr
from repro.engine.random_table import RandomTableSpec
from repro.engine.seeds import (
    SeedInfo, derive_prng_seeds, label_id_of, seed_handles)
from repro.engine.table import Catalog
from repro.vg.streams import gather_stream_windows

__all__ = [
    "ExecutionContext", "PlanNode", "Scan", "Seed", "Instantiate",
    "Select", "Project", "Join", "Split", "random_table_pipeline",
    "refresh_after_append", "appends_keep_prefix",
]


class ExecutionContext:
    """Mutable state for one (or more, under replenishment) plan runs.

    Parameters
    ----------
    positions:
        ``W`` — how many stream positions each random column materializes.
        In Monte Carlo mode this is the repetition count ``n``; in tail
        mode it is the Gibbs window size ("the number of stream elements to
        instantiate in a Gibbs tuple", Sec. 5).
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
        self.window_bases: dict[int, int] = {}
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
        #: The merged-position delta of the most recent delta run, per
        #: seed handle: indices (into the handle's *new* position vector)
        #: of the slots whose values were gathered fresh from the streams
        #: because they were never materialized before.  Everything else
        #: was copied from the previous windows.  Consumers (the Gibbs
        #: delta state re-init) reset it before a replenishment run; the
        #: relation-level view of the same data is
        #: :attr:`~repro.engine.bundles.BundleRelation.fresh_slots`.
        self.last_fresh_slots: dict[int, np.ndarray] = {}
        #: Delta-run hint from whoever installed ``position_plan``: the
        #: handles whose plan entry is the *identical array object* the
        #: previous plan run on this context used.  Their windows are
        #: exactly what that run materialized, so a delta ``Instantiate``
        #: carries those rows over without looking at them; every other
        #: row is matched position by position.  Empty by default, and
        #: the setter must empty it again once it has consumed the run.
        self.stable_handles: frozenset[int] = frozenset()
        self.materialized: dict[int, "_Materialization"] = {}
        self.plan_runs = 0
        self.node_executions = 0
        #: Plan runs that regenerated every window from the streams vs.
        #: runs that merged deltas into previous bundles (diagnostics for
        #: the replenishment benchmark).
        self.full_runs = 0
        self.delta_runs = 0
        #: Tuple-level Instantiate accounting: rows whose window touched
        #: the streams at all vs. rows served entirely from a previous
        #: materialization.  Standing queries gate their incremental
        #: refreshes on these (bench_standing: recomputed-tuple ratio).
        self.instantiate_rows_computed = 0
        self.instantiate_rows_reused = 0
        self._labels: dict[int, str] = {}

    def register_label(self, label: str) -> int:
        label_id = label_id_of(label)
        existing = self._labels.get(label_id)
        if existing is not None and existing != label:
            raise PlanError(
                f"seed label collision: {label!r} vs {existing!r} — rename one")
        self._labels[label_id] = label
        return label_id

    def window_base(self, handle: int) -> int:
        return self.window_bases.get(handle, 0)

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
            if explicit.shape != (self.positions,):
                raise EngineError(
                    f"position plan for seed {handle} has shape "
                    f"{explicit.shape}, expected ({self.positions},)")
            return explicit
        base = self.window_base(handle) + self.position_offset
        return np.arange(base, base + self.positions, dtype=np.int64)

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
        if not self.contains_random:
            cached = context.det_cache.lookup(self, context)
            if cached is not None:
                if (cached.positions != context.positions
                        or cached.aligned != context.aligned):
                    # Replenishment may widen the window, and a cross-query
                    # cache may serve a tail-mode plan from a Monte Carlo
                    # run (or vice versa); deterministic relations hold no
                    # positional arrays, so re-stamping the metadata is
                    # sufficient.
                    cached = _restamp(cached, context.positions,
                                      context.aligned)
                    context.det_cache.store(self, cached, context)
                return cached
        context.node_executions += 1
        result = self._run(context)
        if not self.contains_random:
            context.det_cache.store(self, result, context)
        return result

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
        through every combinator the way ``fresh_slots`` propagates.
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
    """What an Instantiate produced last run (the delta-merge baseline).

    ``positions[handle]`` is the ascending stream-position vector whose
    values fill that handle's row in every ``columns[name]`` matrix; a
    delta run copies the overlap from ``columns`` and gathers only
    positions outside it from the streams.

    ``shared_positions`` is set when every row materialized one common
    window (the no-plan full run and the append fast path): a later
    append-only delta run whose window is still that vector can then
    carry the whole row prefix over as one block copy per output and
    gather only the appended rows — without any per-row position
    matching.
    """

    handles: np.ndarray
    positions: dict[int, np.ndarray]
    columns: dict[str, np.ndarray]
    bases: np.ndarray
    shared_positions: np.ndarray | None = None


class Scan(PlanNode):
    """Scan a deterministic base table, optionally prefixing column names."""

    def __init__(self, table_name: str, prefix: str = ""):
        super().__init__([])
        self.table_name = table_name
        self.prefix = prefix

    def _run(self, context):
        table = context.catalog.table(self.table_name)
        return BundleRelation.from_table(
            table, context.positions, context.aligned, prefix=self.prefix)

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

    def execute(self, context: ExecutionContext) -> BundleRelation:
        # Register the label even when the subtree is served from a
        # cross-query cache: the hash-collision guard lives in the
        # context, and a cached hit would otherwise skip it — letting a
        # later Seed whose label collides share handles silently.
        context.register_label(self.label)
        return super().execute(context)

    def _run(self, context):
        relation = self.children[0].execute(context)
        label_id = context.register_label(self.label)
        out = relation.shallow_copy()
        out.add_det_column(self.handle_column,
                           seed_handles(label_id, 0, relation.length))
        return out

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
    share it, and — whenever all rows share one position window (every
    non-replenishment run) — the whole output is filled by a single
    batched call (:func:`repro.vg.streams.gather_stream_windows`) instead
    of one ``values_at`` call per row.

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

        out = relation.shallow_copy()
        # One block behind all outputs: windows[i] is output i's (T, W)
        # matrix, and the batched fill writes every component of a
        # generated chunk while it is at hand.
        windows = np.empty((len(self.outputs), length, context.positions))
        bases = np.empty(length, dtype=np.int64)
        previous = (context.materialized.get(self.node_id)
                    if context.delta_mode else None)
        prev_rows = 0 if previous is None else previous.handles.shape[0]
        if previous is not None and (
                prev_rows > length or not np.array_equal(
                    previous.handles, handles[:prev_rows])):
            # Rows were rewritten or reordered, not appended; the delta
            # baseline is unusable.  A pure append keeps the old rows as
            # an identical prefix (Seed numbers handles by row position),
            # which is what the prefix check admits.
            previous = None
            prev_rows = 0

        shared_positions = None
        if previous is not None:
            positions_by_handle, fresh_slots, shared_positions = \
                self._merge_delta(context, handles, windows, bases,
                                  previous, prev_rows)
            context.delta_runs += 1
            context.last_fresh_slots.update(fresh_slots)
            out.fresh_slots = fresh_slots
        elif not context.position_plan and not context.window_bases:
            positions_by_handle = self._gather_shared(
                context, handles, windows, bases)
            if length:
                shared_positions = positions_by_handle[int(handles[0])]
            context.full_runs += 1
        else:
            positions_by_handle = self._gather_per_row(
                context, handles, windows, bases)
            context.full_runs += 1

        columns = dict(zip((name for name, _ in self.outputs), windows))
        for name, values in columns.items():
            out.add_rand_column(name, RandomColumn(
                values, seed_handles=handles.copy(), bases=bases.copy()))
        if context.delta_tracking:
            context.materialized[self.node_id] = _Materialization(
                handles=handles, positions=positions_by_handle,
                columns=columns, bases=bases,
                shared_positions=shared_positions)
        return out

    def _register_seeds(self, context, relation, handles) -> None:
        """Create SeedInfo entries, validating once per parameter signature.

        ``validate_params``/``block_arity`` run once per *distinct*
        parameter tuple, however many rows share it, and all PRNG keys
        come from one vectorized pass.  A re-run that meets only
        registered handles (every replenishment) has nothing to create or
        validate and returns before evaluating a single parameter.
        """
        seeds = context.seeds
        handle_list = handles.tolist()
        if len(seeds) >= relation.length and \
                seeds.keys() >= set(handle_list):
            return
        param_columns = [
            np.asarray(relation.evaluate_scalar(expr), dtype=np.float64)
            for expr in self.param_exprs]
        if param_columns:
            row_params = list(map(
                tuple, np.column_stack(param_columns).tolist()))
        else:
            row_params = [()] * relation.length
        base_arity = max(component for _, component in self.outputs) + 1
        arity_of = {}
        for params in dict.fromkeys(row_params):
            self.vg.validate_params(params)
            arity_of[params] = max(base_arity, self.vg.block_arity(params))
        prng_seeds = derive_prng_seeds(context.base_seed, handles).tolist()
        for handle, prng_seed, params in zip(
                handle_list, prng_seeds, row_params):
            if handle not in seeds:
                seeds[handle] = SeedInfo(
                    handle, prng_seed, self.vg, params, arity_of[params])

    def _gather_shared(self, context, handles, windows, bases):
        """Full run, no position plan: all seeds share one window.

        Every handle materializes the same ascending position vector, so
        the whole relation is filled by one batched call that generates
        each (seed, chunk) once and writes every output's slice of it
        straight into ``windows``.
        """
        handle_list = handles.tolist()
        if not handle_list:
            return {}
        context.instantiate_rows_computed += len(handle_list)
        shared = context.positions_for(handle_list[0])
        bases[:] = shared[0]
        gather_stream_windows(
            shared, [(info.prng_seed, info.vg, info.params)
                     for info in map(context.seeds.__getitem__, handle_list)],
            [component for _, component in self.outputs], out=windows)
        return dict.fromkeys(handle_list, shared)

    def _gather_per_row(self, context, handles, windows, bases):
        """Full run under a position plan: windows differ per seed."""
        context.instantiate_rows_computed += handles.shape[0]
        positions_by_handle: dict[int, np.ndarray] = {}
        for row in range(handles.shape[0]):
            handle = int(handles[row])
            info = context.seeds[handle]
            positions = positions_by_handle.get(handle)
            if positions is None:
                positions = context.positions_for(handle)
                positions_by_handle[handle] = positions
            bases[row] = positions[0]
            for slot, (_, component) in enumerate(self.outputs):
                windows[slot, row] = info.values_at(positions, component)
        return positions_by_handle

    def _merge_delta(self, context, handles, windows, bases, previous,
                     prev_rows):
        """Delta replenishment: copy overlap, gather only new positions.

        Rows whose handle is in ``context.stable_handles`` (see
        :class:`ExecutionContext`) materialize exactly the window the
        previous run recorded — their plan entry is the same object — so
        they carry over in one block copy per output and are never
        visited.  Each remaining row (every row, when the context names
        no stable handle) matches its new positions against the
        previously materialized ones with one ``searchsorted``; matched
        values are copied from the recorded windows and only the rest —
        everything past the seed's ``max_used`` — touch the streams.
        Rows past ``prev_rows`` were appended since the baseline run:
        their window values come from the streams (their handles are
        fresh, or — under a self-join — copied from the old row carrying
        the same handle).

        Also returns the merged-position delta per seed handle: the
        new-window slot indices gathered fresh from the streams.  The
        Gibbs delta state re-init ships exactly these slots' values to
        the worker owning the handle, so the delta computed here IS the
        wire payload's shape.  The third return is the one shared
        position vector when every row materialized it, else ``None``
        (see :class:`_Materialization`).
        """
        if prev_rows and previous.shared_positions is not None \
                and not context.position_plan and not context.window_bases:
            shared = context.positions_for(int(handles[0]))
            if np.array_equal(shared, previous.shared_positions):
                return self._extend_shared(
                    context, handles, windows, bases, previous, prev_rows,
                    shared)
        names = [name for name, _ in self.outputs]
        prev_columns = [previous.columns[name] for name in names]
        windows = dict(zip(names, windows))
        stable = context.stable_handles
        moved = ~np.isin(handles, np.fromiter(stable, dtype=np.int64,
                                              count=len(stable)))
        moved[prev_rows:] = True
        kept = np.flatnonzero(~moved)
        positions_by_handle: dict[int, np.ndarray] = {}
        fresh_slots: dict[int, np.ndarray] = {}
        if kept.size:
            # An unchanged plan entry has the previous run's length, so
            # the old and new matrices are equally wide: the whole old
            # block lands with one contiguous copy and the visited rows
            # below overwrite theirs.
            for name, prev_values in zip(names, prev_columns):
                windows[name][:prev_rows] = prev_values
            bases[kept] = previous.bases[kept]
            positions_by_handle.update(previous.positions)
            fresh_slots = dict.fromkeys(handles[kept].tolist(),
                                        np.empty(0, dtype=np.int64))
            context.instantiate_rows_reused += int(kept.size)
        for row in np.flatnonzero(moved).tolist():
            handle = int(handles[row])
            new_positions = context.positions_for(handle)
            positions_by_handle[handle] = new_positions
            bases[row] = new_positions[0]
            old_positions = previous.positions.get(handle)
            if old_positions is None:
                info = context.seeds[handle]
                fresh_slots[handle] = np.arange(new_positions.size,
                                                dtype=np.int64)
                context.instantiate_rows_computed += 1
                for (name, component) in self.outputs:
                    windows[name][row] = info.values_at(
                        new_positions, component)
                continue
            # The old rows are a prefix of the new ones (checked by the
            # caller), so an old row is its own baseline; an appended row
            # repeating an old handle copies from that handle's row.
            source = row if row < prev_rows else int(
                np.flatnonzero(previous.handles == handle)[0])
            overlap = min(old_positions.size, new_positions.size)
            if np.array_equal(new_positions[:overlap],
                              old_positions[:overlap]):
                # Untouched seed: its plan is unchanged except for width
                # padding, so the new window is a prefix extension (or
                # truncation) of the old one — copy the overlap and gather
                # only the contiguous fresh tail.
                fresh_slots[handle] = np.arange(
                    overlap, new_positions.size, dtype=np.int64)
                if overlap < new_positions.size:
                    context.instantiate_rows_computed += 1
                else:
                    context.instantiate_rows_reused += 1
                for (name, component), prev_values in zip(self.outputs,
                                                          prev_columns):
                    target = windows[name][row]
                    target[:overlap] = prev_values[source][:overlap]
                    if overlap < new_positions.size:
                        target[overlap:] = context.seeds[handle].values_at(
                            new_positions[overlap:], component)
                continue
            index = np.searchsorted(old_positions, new_positions)
            index[index == old_positions.size] = 0  # clamp; masked below
            found = old_positions[index] == new_positions
            missing = np.nonzero(~found)[0]
            fresh_slots[handle] = missing
            if missing.size:
                context.instantiate_rows_computed += 1
            else:
                context.instantiate_rows_reused += 1
            for (name, component), prev_values in zip(self.outputs,
                                                      prev_columns):
                target = windows[name][row]
                target[found] = prev_values[source][index[found]]
                if missing.size:
                    target[missing] = context.seeds[handle].values_at(
                        new_positions[missing], component)
        return positions_by_handle, fresh_slots, None

    def _extend_shared(self, context, handles, windows, bases, previous,
                       prev_rows, shared):
        """Append fast path: same shared window, grown row prefix.

        Every pre-existing row still materializes exactly the recorded
        shared position vector, so the whole prefix carries over as one
        block copy per output and only the appended rows — which carry
        fresh handles, since :class:`Seed` numbers handles by row
        position — touch the streams, via the same batched gather a full
        run would use on just those rows.
        """
        length = handles.shape[0]
        bases[:prev_rows] = shared[0]
        for slot, (name, _) in enumerate(self.outputs):
            windows[slot, :prev_rows] = previous.columns[name]
        context.instantiate_rows_reused += prev_rows
        if prev_rows < length:
            # The tail view writes through into the full block.
            self._gather_shared(context, handles[prev_rows:],
                                windows[:, prev_rows:], bases[prev_rows:])
        positions_by_handle = {int(handle): shared for handle in handles}
        no_fresh = np.empty(0, dtype=np.int64)
        all_fresh = np.arange(shared.size, dtype=np.int64)
        fresh_slots: dict[int, np.ndarray] = {}
        for row in range(prev_rows):
            fresh_slots[int(handles[row])] = no_fresh
        for row in range(prev_rows, length):
            fresh_slots.setdefault(int(handles[row]), all_fresh)
        return positions_by_handle, fresh_slots, shared

    def _describe_line(self):
        names = ", ".join(name for name, _ in self.outputs)
        return f"Instantiate({self.vg.name} -> {names})"


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
        out = relation.shallow_copy()
        out.add_presence(PresenceColumn(flags, seed_handles, bases))
        alive = flags.any(axis=1)
        return out.filter_rows(alive)

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
        return self._project(self.children[0].execute(context))

    def _project(self, relation: BundleRelation) -> BundleRelation:
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
        out.fresh_slots = dict(relation.fresh_slots)

        for name, expr in self.outputs:
            rand_names = relation.random_columns_in(expr)
            if not rand_names:
                out.add_det_column(name, relation.evaluate_scalar(expr))
                continue
            values = relation.evaluate_positional(expr, check_single_seed=True)
            lineage = relation.rand_columns[rand_names[0]]
            if relation._mixes_seeds(rand_names) or lineage.is_derived:
                column = RandomColumn(values, seed_handles=None)
            else:
                column = RandomColumn(values, lineage.seed_handles, lineage.bases)
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

        Factored out of :meth:`_run` so the append-splice refresh can
        join just the appended left rows against the unchanged right
        side — the output rows land exactly where a full re-run would
        put them (after every old left row's matches).
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
        # Handle-keyed, and the two sides' handle sets are disjoint (or
        # identical for a self-join) — a plain union is the right merge.
        out.fresh_slots = {**taken_left.fresh_slots,
                           **taken_right.fresh_slots}
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
            for value in np.unique(source.values[row]):
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
        out.fresh_slots = dict(gathered.fresh_slots)
        split_array = np.asarray(split_values)
        out.add_det_column(self.column, split_array)
        flags = gathered.rand_columns[self.column].values == split_array[:, None]
        out.add_presence(PresenceColumn(
            flags,
            gathered.rand_columns[self.column].seed_handles,
            gathered.rand_columns[self.column].bases))
        return out

    def _fingerprint_parts(self):
        return (self.column,)

    def _describe_line(self):
        return f"Split({self.column})"


def refresh_after_append(node: PlanNode, context: ExecutionContext,
                         appends: dict, stale_of, store_refreshed):
    """Splice appended base-table rows into a cached deterministic subtree.

    The append-only refresh path of the table-granular
    :class:`~repro.engine.det_cache.SessionDetCache`: when every moved
    dependency of a cached entry grew purely by appends (per the catalog's
    append journal), the new output equals the stale cached relation plus
    the rows the appended tuples produce — deterministic operators are
    row-local (Scan/Seed/Select/Project) or left-row-ordered (Join), so
    the fresh rows land exactly at the end.  This mirrors how the delta
    ``Instantiate`` merges only never-materialized stream positions: only
    the delta touches the operators, everything else is reused.

    ``appends`` maps lowercased table names to their journaled
    ``(old_rows, new_rows)`` growth; ``stale_of(node)`` returns the stale
    cached relation for a subtree (or ``None``); ``store_refreshed(node,
    relation)`` re-stores each refreshed node bottom-up so inner cache
    entries update alongside the root.  Returns the refreshed full
    relation, or ``None`` when any operator on a moved path is not
    splicable (a join whose right side also moved, a missing stale child,
    an unsupported operator) — the caller then falls back to a full
    recompute, which is always correct.
    """
    spliced = _splice(node, context, appends, stale_of, store_refreshed)
    return None if spliced is None else spliced[0]


def appends_keep_prefix(node: PlanNode, appended) -> bool:
    """Whether append-only growth of ``appended`` tables extends this plan.

    True when the grown plan's output provably keeps every old row —
    values, order, and row indices — as a prefix, with the rows the
    appended tuples produce landing strictly after it.  That is the
    condition a standing query needs to fold only ``rows[prev:]`` into
    its strict-order accumulators (or re-enter the Gibbs looper over a
    delta-extended window) and still be bit-identical to a fresh run on
    the grown table.

    Every operator here is row-local or row-ordered under growth at the
    end — Scan appends, Seed numbers handles by row position, Select
    filters in order (presence flags of old rows are pure stream
    functions), Project/Instantiate are row-preserving, Split fans out in
    row order — except a Join whose *right* (build) side depends on an
    appended table: old probe rows would gain interleaved matches, so
    only a full recompute reproduces the fresh-run row order.
    """
    appended = set(appended)
    if isinstance(node, Join) and node.children[1].base_tables() & appended:
        return False
    return all(appends_keep_prefix(child, appended)
               for child in node.children)


def _splice(node, context, appends, stale_of, store_refreshed):
    """Recursive splice for a subtree with >= 1 moved dependency.

    Returns ``(full, delta)`` — the refreshed full relation and the
    appended-rows-only delta relation — or ``None`` if not splicable.
    """
    stale = stale_of(node)
    if stale is None or stale.rand_columns or stale.presence:
        return None
    if isinstance(node, Scan):
        table = context.catalog.table(node.table_name)
        old_rows, new_rows = appends[node.table_name.lower()]
        if stale.length != old_rows or len(table) != new_rows:
            return None  # cache and journal disagree on the base rows
        delta = BundleRelation(new_rows - old_rows, context.positions,
                               context.aligned)
        for name in table.column_names:
            delta.det_columns[node.prefix + name] = \
                table.column(name)[old_rows:new_rows]
    elif isinstance(node, Seed):
        child = _splice(node.children[0], context, appends, stale_of,
                        store_refreshed)
        if child is None:
            return None
        child_full, child_delta = child
        offset = child_full.length - child_delta.length
        if stale.length != offset:
            return None
        label_id = context.register_label(node.label)
        # A full run numbers handles by row position; the appended rows
        # sit after the stale prefix, so their handles start at its end.
        delta = child_delta.shallow_copy()
        delta.add_det_column(node.handle_column, seed_handles(
            label_id, offset, offset + child_delta.length))
    elif isinstance(node, Select):
        child = _splice(node.children[0], context, appends, stale_of,
                        store_refreshed)
        if child is None:
            return None
        child_delta = child[1]
        if child_delta.random_columns_in(node.predicate):
            return None  # presence semantics: never in a det subtree
        mask = np.asarray(child_delta.evaluate_scalar(node.predicate),
                          dtype=bool)
        delta = child_delta.filter_rows(mask)
    elif isinstance(node, Project):
        child = _splice(node.children[0], context, appends, stale_of,
                        store_refreshed)
        if child is None:
            return None
        delta = node._project(child[1])
        if delta.rand_columns or delta.presence:
            return None
    elif isinstance(node, Join):
        left, right = node.children
        if right.base_tables() & set(appends):
            # The build side moved too: appended left rows against a
            # grown right side would not reproduce full-run row order.
            return None
        child = _splice(left, context, appends, stale_of, store_refreshed)
        if child is None:
            return None
        left_delta = child[1]
        right_full = right.execute(context)  # unchanged: cache serves it
        delta = node._join(left_delta, right_full)
    else:
        # Aggregates, Split re-partitions, random operators: recompute.
        return None
    full = _concat_det(stale, delta, context.positions, context.aligned)
    if full is None:
        return None
    store_refreshed(node, full)
    return full, delta


def _concat_det(stale, delta, positions: int, aligned: bool):
    """Stale det relation + delta rows, stamped for the current context."""
    if set(stale.det_columns) != set(delta.det_columns):
        return None
    out = BundleRelation(stale.length + delta.length, positions, aligned)
    for name, old in stale.det_columns.items():
        if delta.length:
            out.det_columns[name] = np.concatenate(
                [old, delta.det_columns[name]])
        else:
            out.det_columns[name] = old
    return out


def random_table_pipeline(spec: RandomTableSpec, prefix: str = "",
                          occurrence: str = "") -> PlanNode:
    """Expand a random-table spec into ``Scan -> Seed -> Instantiate``.

    ``prefix`` namespaces output columns (aliasing, e.g. ``emp1.``/``emp2.``
    in the salary-inversion query).  ``occurrence`` controls stream
    identity: scans sharing an occurrence string share seeds — the
    *self-join* semantics where both occurrences see the same possible
    world of the uncertain table — while distinct occurrences denote
    independent uncertain relations.
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
    instantiate = Instantiate(seed, spec.vg, params, outputs, seed.handle_column)
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
