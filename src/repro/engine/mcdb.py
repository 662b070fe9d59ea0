"""The naive-MCDB Monte Carlo executor — the paper's baseline system.

Runs a tuple-bundle plan once with ``n`` repetitions materialized per
random value (position axis = repetition index), then evaluates grouped
aggregates per repetition.  This is exactly the original MCDB execution
model the paper starts from: great for central moments, hopeless for deep
tails (Sec. 1's motivating arithmetic), which is what MCDB-R fixes.

Because repetitions are independent and streams are position-addressed
pure functions of ``(base_seed, handle)``, a run shards in one of two
layouts, each bit-identical to the serial run for every ``n_jobs`` (cf.
the service-level scaling of Monte Carlo production in the LCG MCDB,
PAPERS.md):

* **repetition slices** — a worker handling repetitions ``[lo, hi)``
  executes the same plan with ``position_offset=lo`` and reproduces
  exactly the slice a serial run would compute (every worker re-derives
  the same per-seed PRNG keys via
  :func:`repro.engine.seeds.derive_prng_seed`); the slices concatenate;
* **group parts** — when the GROUP BY keys are fixed by the random
  table's own rows (:meth:`MonteCarloExecutor._group_source`), whole
  groups are dealt to workers and each runs every repetition over its
  groups' seeds only (``ExecutionContext.handle_filter``); no sum is
  split, so the parts' groups merge without arithmetic.

A pure draw count picks the layout: the one whose busiest worker draws
fewer stream values (:meth:`MonteCarloExecutor._group_parts`).

*Where* the shards run is the backend's business
(:mod:`repro.engine.backends`): the executor is itself the shard job —
broadcast once per query to the persistent worker pool, with the catalog
riding the keyed shared channel so a session ships it to each worker once
per :attr:`~repro.engine.table.Catalog.version`, and each shard costing
only a ``(job_id, lo, hi)`` task message.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from repro.engine.backends import catalog_share_key, make_backend
from repro.engine.bundles import (
    BundleRelation, RandomColumn, ordered_column_sum, row_key_codes)
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import Expr
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, PlanNode, Project, Select, Split)
from repro.engine.options import ExecutionOptions
from repro.engine.result import ResultDistribution
from repro.engine.table import Catalog
from repro.vg.streams import aligned_draws

__all__ = ["AggregateSpec", "MonteCarloExecutor", "MonteCarloResult"]

_AGGREGATE_KINDS = ("sum", "count", "avg", "min", "max")


def _same_map(rows: np.ndarray | None, other: np.ndarray | None) -> bool:
    """Whether two block row maps (``None``: the identity) are equal."""
    return rows is other or (rows is not None and other is not None
                             and np.array_equal(rows, other))


def _plan_nodes(node: PlanNode):
    yield node
    for child in node.children:
        yield from _plan_nodes(child)


@dataclass(frozen=True)
class _GroupParts:
    """A group-part job's layout: every part runs ``repetitions`` over
    the rows of its seeds ``handles[part]``; ``handle_column`` is the
    seed column that reaches the plan's root."""

    repetitions: int
    handle_column: str
    handles: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AggregateSpec:
    """One output aggregate: ``kind(expr) AS name`` (expr None = COUNT(*))."""

    name: str
    kind: str
    expr: Expr | None = None

    def __post_init__(self):
        if self.kind not in _AGGREGATE_KINDS:
            raise ValueError(
                f"unknown aggregate {self.kind!r}; supported: {_AGGREGATE_KINDS}")
        if self.expr is None and self.kind != "count":
            raise ValueError(f"{self.kind.upper()} requires an argument expression")


class MonteCarloResult:
    """Per-group result distributions for each requested aggregate."""

    #: A shard's result (:meth:`MonteCarloExecutor.run_shard`): each
    #: group key's lead, the least seed handle among its output rows, by
    #: which the shards' groups merge; ``None`` when no seed column
    #: reaches the output.
    _leads: dict[tuple, int] | None = None

    def __init__(self, group_by: Sequence[str],
                 groups: Mapping[tuple, Mapping[str, ResultDistribution]],
                 repetitions: int):
        self.group_by = list(group_by)
        self._groups = dict(groups)
        self.repetitions = repetitions

    @property
    def group_keys(self) -> list[tuple]:
        return sorted(self._groups, key=repr)

    def distribution(self, aggregate: str, group: tuple = ()) -> ResultDistribution:
        try:
            by_name = self._groups[tuple(group)]
        except KeyError:
            raise KeyError(
                f"no group {group!r}; groups: {self.group_keys}") from None
        try:
            return by_name[aggregate]
        except KeyError:
            raise KeyError(
                f"no aggregate {aggregate!r}; have {sorted(by_name)}") from None

    def aggregates(self, group: tuple = ()) -> dict[str, ResultDistribution]:
        """All aggregate distributions of one group, keyed by name."""
        try:
            return dict(self._groups[tuple(group)])
        except KeyError:
            raise KeyError(
                f"no group {group!r}; groups: {self.group_keys}") from None

    def scalar(self, aggregate: str, group: tuple = ()) -> float:
        """Convenience for deterministic queries (n = 1): the single value."""
        distribution = self.distribution(aggregate, group)
        return float(distribution.samples[0])

    def __repr__(self):
        return (f"MonteCarloResult(reps={self.repetitions}, "
                f"groups={len(self._groups)}, group_by={self.group_by})")


class MonteCarloExecutor:
    """Execute a plan in Monte Carlo mode and aggregate per repetition.

    The executor doubles as its own shard job: ``run_shard(lo, hi)`` is
    the worker entry point, the pickled executor is the once-per-query
    broadcast payload, and the catalog travels on the backend's keyed
    shared channel (see the transport contract in
    :mod:`repro.engine.backends`).
    """

    def __init__(self, plan: PlanNode, aggregates: Sequence[AggregateSpec],
                 catalog: Catalog, group_by: Sequence[str] = (),
                 base_seed: int = 0, options: ExecutionOptions | None = None,
                 det_cache=None, backend=None):
        if not aggregates:
            raise PlanError("at least one aggregate is required")
        names = [aggregate.name for aggregate in aggregates]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate aggregate names: {names}")
        self.plan = plan
        self.aggregates = list(aggregates)
        self.catalog = catalog
        self.group_by = list(group_by)
        self.base_seed = base_seed
        self.options = options or ExecutionOptions()
        #: Deterministic sub-plan cache shared with the execution contexts;
        #: a Session passes its cross-query cache here.  Shard semantics
        #: follow the transport (``tests/test_backends.py`` pins both):
        #: under the *process* backend workers are pre-warmed with a
        #: snapshot of this cache at broadcast time — once per query, not
        #: once per shard task — and worker-local fills never flow back;
        #: under the *thread* backend shards share this very object, so
        #: their fills are immediately visible to later queries.
        self.det_cache = det_cache
        #: Persistent :class:`~repro.engine.backends.ExecutionBackend` to
        #: run shards on (a Session passes its pool); ``None`` makes the
        #: executor build an ephemeral one per sharded run.
        self.backend = backend
        self._shared_catalog_key = None
        #: The layout of a group-part job copy (:meth:`_run_parts`);
        #: ``None`` on the executor itself, whose shards are repetitions.
        self._parts: _GroupParts | None = None

    # -- shard-job transport contract (ProcessBackend) -----------------------

    def shared_payload(self) -> dict:
        return {catalog_share_key(self.catalog): self.catalog}

    def __getstate__(self) -> dict:
        """Broadcast form: no backend, and the catalog by shared-channel key.

        The catalog is the bulk of the payload and outlives the query, so
        it rides the keyed shared channel instead of the per-query job
        blob; ``attach_shared`` re-binds it worker-side.
        """
        state = self.__dict__.copy()
        state["backend"] = None
        state["catalog"] = None
        state["_shared_catalog_key"] = catalog_share_key(self.catalog)
        return state

    def attach_shared(self, shared: Mapping) -> None:
        if self.catalog is None:
            self.catalog = shared[self._shared_catalog_key]

    def run(self, repetitions: int) -> MonteCarloResult:
        if self.options.sharded and repetitions > 1:
            bounds = self.options.shard_bounds(repetitions)
            if len(bounds) > 1:
                layout = self._group_parts(bounds, repetitions)
                if layout is not None:
                    return self._run_parts(*layout)
                return self._merge_shards(
                    self._run_job(self, bounds), repetitions)
        return self.run_shard(0, repetitions)

    def run_shard(self, lo: int, hi: int) -> MonteCarloResult:
        """Execute repetitions ``[lo, hi)`` — the whole run when lo=0.

        On a group-part job (:meth:`_run_parts`) ``[lo, hi)`` are parts
        instead, each run over every repetition; the result carries each
        group's lead (``MonteCarloResult._leads``).
        """
        if self.catalog is None:
            raise EngineError(
                "executor has no catalog bound; a broadcast copy must be "
                "re-bound via attach_shared before running shards")
        parts = self._parts
        positions, offset = ((hi - lo, lo) if parts is None
                             else (parts.repetitions, 0))
        context = ExecutionContext(
            self.catalog, positions=positions, aligned=True,
            base_seed=self.base_seed, position_offset=offset,
            det_cache=self.det_cache)
        if parts is not None:
            context.handle_filter = frozenset(
                np.concatenate(parts.handles[lo:hi]).tolist())
        relation = self.plan.execute(context)
        context.plan_runs += 1
        result = self.aggregate(relation, positions)
        leads = self._leads(relation)
        if leads is not None:  # the order every layout shares
            result._groups = dict(sorted(
                result._groups.items(),
                key=lambda item: (leads[item[0]], repr(item[0]))))
        result._leads = leads
        return result

    def _run_job(self, job, bounds: Sequence[tuple[int, int]]) -> list:
        """``run_job`` on the session's backend, or on one built for this
        run and closed after it."""
        backend = self.backend
        owned = backend is None
        if owned:
            backend = make_backend(self.options)
        try:
            return backend.run_job(job, bounds)
        finally:
            if owned:
                backend.close()

    # -- group parts ---------------------------------------------------------

    def _group_source(self) -> Instantiate | None:
        """The ``Instantiate`` whose input rows fix every output row's
        group and place, or ``None``.

        The plan must hold exactly one ``Instantiate``, reached from the
        root through unary operators and the *left* input of each
        ``Join``; every GROUP BY column, and the seed column, must pass
        that path unchanged (no ``Project`` drops or redefines them, no
        ``Split`` makes them).  Every operator on it is row-local and
        emits rows in input order — ``Join._join`` "left row order, then
        ascending right row" — so an output row's group and its place in
        the output order are those of its ``Instantiate`` row.  Whether
        the GROUP BY columns are columns of that input is the data's to
        say (:meth:`_group_parts`).
        """
        instantiates = [node for node in _plan_nodes(self.plan)
                        if isinstance(node, Instantiate)]
        if len(instantiates) != 1 or not self.group_by:
            return None
        source = instantiates[0]
        carried = {*self.group_by, source.handle_column}
        node = self.plan
        while node is not source:
            if isinstance(node, Project):
                if carried & {name for name, _ in node.outputs} or (
                        node.keep is not None
                        and not carried <= set(node.keep)):
                    return None
            elif isinstance(node, Split):
                if node.column in carried:
                    return None
            elif not isinstance(node, (Select, Join)):
                return None
            node = node.children[0]
        return source

    def _group_parts(self, bounds: Sequence[tuple[int, int]],
                     repetitions: int
                     ) -> tuple[_GroupParts, dict[tuple, int]] | None:
        """Deal whole groups to workers when that draws less, else ``None``.

        Reads the ``Instantiate`` input of :meth:`_group_source` (a
        deterministic sub-plan: a det-cache hit after the first query),
        counts its seeds per GROUP BY key and deals the keys, largest
        first (ties in first-appearance order), each to the least-loaded
        of ``min(n_jobs, keys)`` parts (ties to the lowest index).  The
        layout whose busiest worker draws fewer stream values wins, ties
        keeping repetition slices: a part draws its seeds' positions
        ``[0, repetitions)``, a slice ``[lo, hi)`` every seed's, each as
        the Monte Carlo fill reads them
        (:func:`repro.vg.streams.aligned_draws`: a mid-chunk slice draws
        its chunk's prefix too).  Keys must be
        columns of that input, at least two, and NaN-free (a NaN key
        equals nothing, so no part could own it); the input's seed
        handles must rise strictly, one per row — what ``Seed`` makes,
        and what a deal by handle and a merge by lead rely on (a join
        below the ``Instantiate`` can repeat or reorder them).

        Returns the layout and the part each key tuple was dealt to.
        """
        source = self._group_source()
        if source is None:
            return None
        context = ExecutionContext(
            self.catalog, positions=repetitions, aligned=True,
            base_seed=self.base_seed, det_cache=self.det_cache)
        relation = source.children[0].execute(context)
        handles = relation.det_columns[source.handle_column]
        if not (all(name in relation.det_columns for name in self.group_by)
                and np.all(np.diff(handles) > 0)):
            return None
        key_columns = [relation.det_columns[name] for name in self.group_by]
        if any(column.dtype.kind == "f" and np.isnan(column).any()
               for column in key_columns):
            return None
        _, first, inverse, counts = np.unique(
            row_key_codes(key_columns), return_index=True,
            return_inverse=True, return_counts=True)
        parts = min(self.options.n_jobs, first.size)
        if parts < 2:
            return None
        loads = [(0, part) for part in range(parts)]
        part_of = np.empty(first.size, dtype=np.int64)
        for key in np.lexsort((first, -counts)).tolist():
            load, part = heapq.heappop(loads)
            part_of[key] = part
            heapq.heappush(loads, (load + int(counts[key]), part))
        draws = partial(aligned_draws, source.vg)
        if (max(load for load, _ in loads) * draws(0, repetitions)
                >= relation.length * max(draws(lo, hi) for lo, hi in bounds)):
            return None
        row_part = part_of[inverse.reshape(-1)]
        owner = {tuple(column[row] for column in key_columns): part
                 for row, part in zip(first.tolist(), part_of.tolist())}
        return _GroupParts(repetitions, source.handle_column, tuple(
            handles[row_part == part] for part in range(parts))), owner

    def _run_parts(self, layout: _GroupParts,
                   owner: dict[tuple, int]) -> MonteCarloResult:
        """Run each part's seeds over every repetition and union the
        parts' groups.

        The part layout rides a copy of this executor — the once-per-query
        broadcast — and each task is a part range ``(part, part + 1)``.
        The serial run orders its groups by lead (:meth:`_leads`), and
        under :meth:`_group_source` a group's rows are all of its part:
        the merge sorts by the parts' leads.
        A group from two parts, or from a part it was not dealt to, is a
        bug and raises :class:`EngineError`.
        """
        # The per-query job: this executor with the layout set.  Not
        # copy.copy, which goes through __getstate__ and so drops the
        # catalog and the backend.
        job = object.__new__(type(self))
        job.__dict__.update(self.__dict__, _parts=layout)
        led = []
        for part, result in enumerate(self._run_job(
                job, [(part, part + 1)
                      for part in range(len(layout.handles))])):
            for key, lead in result._leads.items():
                if owner.pop(key, None) != part:
                    raise EngineError(
                        f"group {key!r} came back from part {part}, which "
                        "it was not dealt to (or from two parts)")
                led.append((lead, key, result._groups[key]))
        led.sort(key=lambda item: (item[0], repr(item[1])))
        return MonteCarloResult(
            self.group_by, {key: by_name for _, key, by_name in led},
            layout.repetitions)

    def _merge_shards(self, shards: Sequence[MonteCarloResult],
                      repetitions: int) -> MonteCarloResult:
        """Concatenate per-shard sample vectors in repetition order.

        A group can be absent from a shard when every one of its rows was
        filtered out at each of the shard's positions; the serial run keeps
        such rows (they survive via positions in *other* shards) and its
        per-position aggregation over an all-false presence mask yields
        exactly the empty-input value — so filling with that value
        reproduces the serial semantics.

        The groups keep the serial run's order (:meth:`_leads`): by the
        least lead any shard reports, the least seed handle among the
        group's rows of all of them.  Without a seed column the groups
        keep their first appearance, shard by shard.
        """
        leads: dict[tuple, int | None] = {}
        for shard in shards:
            for key in shard._groups:
                lead = None if shard._leads is None else shard._leads[key]
                leads[key] = lead if leads.get(key) is None \
                    else min(leads[key], lead)
        keys = list(leads)
        if None not in leads.values():
            keys.sort(key=lambda key: (leads[key], repr(key)))
        groups: dict[tuple, dict[str, ResultDistribution]] = {}
        for key in keys:
            by_name: dict[str, ResultDistribution] = {}
            for aggregate in self.aggregates:
                empty = 0.0 if aggregate.kind in ("sum", "count") else np.nan
                pieces = []
                for shard in shards:
                    try:
                        pieces.append(
                            shard.distribution(aggregate.name, key).samples)
                    except KeyError:
                        pieces.append(np.full(shard.repetitions, empty))
                by_name[aggregate.name] = ResultDistribution(
                    np.concatenate(pieces))
            groups[key] = by_name
        return MonteCarloResult(self.group_by, groups, repetitions)

    def aggregate(self, relation: BundleRelation, repetitions: int
                  ) -> MonteCarloResult:
        return self.result_from_states(self.fold_states(relation), repetitions)

    def _leads(self, relation: BundleRelation) -> dict[tuple, int] | None:
        """Each group's lead: its least seed handle, of the plan's first
        ``Instantiate`` whose seed column reaches ``relation`` — or
        ``None`` when none does.  A run orders its groups by lead, ties
        by key (:meth:`run_shard`): the same order on every layout, since
        the serial run's rows of a group are the union of its shards'."""
        for node in _plan_nodes(self.plan):
            if isinstance(node, Instantiate) \
                    and node.handle_column in relation.det_columns:
                seeds = relation.det_columns[node.handle_column]
                return {key: int(seeds[rows].min())
                        for key, rows in self._group_rows(relation).items()}
        return None

    def _group_rows(self, relation: BundleRelation) -> dict[tuple, np.ndarray]:
        if not self.group_by:
            return {(): np.arange(relation.length)}
        for name in self.group_by:
            if not relation.is_deterministic_column(name):
                raise PlanError(
                    f"GROUP BY column {name!r} is random; Split it first")
        key_columns = [relation.det_columns[name] for name in self.group_by]
        if not relation.length:
            return {}
        # Stable sort by key code: each group's rows stay ascending and
        # its first row leads its run, which orders the groups by first
        # appearance — the dict a row-by-row pass would have built.
        codes = row_key_codes(key_columns)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_codes[1:] != sorted_codes[:-1])))
        runs = np.split(order, starts[1:])
        return {tuple(column[runs[run][0]] for column in key_columns):
                runs[run] for run in np.argsort(order[starts]).tolist()}

    # -- incremental (standing-query) accumulation ---------------------------

    def fold_states(self, relation: BundleRelation,
                    states: dict | None = None) -> dict:
        """Fold every row of ``relation`` into per-group accumulator states.

        ``states`` maps group key -> aggregate name -> the raw
        accumulator the strict-order evaluation of that group's rows so
        far would have produced; folding further rows in continues the
        exact accumulation sequence a full :meth:`aggregate` over the
        concatenated relations performs, so :meth:`result_from_states`
        is bit-identical to re-aggregating from scratch.  A standing
        query folds the Δ relation of an append (the rows a run over the
        grown tables appends to its output) into the states of the rows
        before it.  Returns new states; ``states`` itself is left as it
        was, so a fold that fails tears nothing.
        """
        presence = relation.combined_presence()
        folded = {key: dict(by_name)
                  for key, by_name in (states or {}).items()}
        group_rows = self._group_rows(relation)
        for aggregate in self.aggregates:
            terms = self._terms(relation, aggregate)
            for key, rows in group_rows.items():
                by_name = folded.setdefault(key, {})
                by_name[aggregate.name] = self._fold(
                    relation, presence, rows, aggregate, terms,
                    by_name.get(aggregate.name))
        return folded

    def result_from_states(self, states: dict,
                           repetitions: int) -> MonteCarloResult:
        """Finalize accumulator states into a :class:`MonteCarloResult`."""
        groups: dict[tuple, dict[str, ResultDistribution]] = {}
        for key, by_name in states.items():
            groups[key] = {
                aggregate.name: ResultDistribution(self._finalize(
                    by_name.get(aggregate.name), aggregate, repetitions))
                for aggregate in self.aggregates}
        return MonteCarloResult(self.group_by, groups, repetitions)

    @staticmethod
    def _terms(relation: BundleRelation, aggregate: AggregateSpec
               ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(terms, row map)`` of a value aggregate (``(None, None)``
        for COUNT): its expression evaluated once, from which every group
        gathers its rows.

        When every column the expression reads is random (a block: the
        fold runs in Monte Carlo mode) and all share one row map into
        equally shaped stored blocks (a join or a filter above
        ``Instantiate``; no map is the identity), the expression runs
        over the stored blocks and the map comes back with it, so no
        (joined rows x n) block is ever made: an elementwise expression
        gathered through the map equals the expression of the gathered
        rows.  Any other expression runs over the relation itself and
        comes back with no map.
        """
        if aggregate.kind == "count":
            return None, None
        names = list(aggregate.expr.columns())
        columns = [relation.rand_columns.get(name) for name in names]
        source, row_map = relation, None
        if columns and None not in columns:
            first = columns[0]
            if all(column.stored.shape == first.stored.shape
                   and _same_map(column.rows, first.rows)
                   for column in columns[1:]):
                source = BundleRelation(first.stored.shape[0],
                                        relation.positions, relation.aligned)
                for name, column in zip(names, columns):
                    source.rand_columns[name] = RandomColumn(
                        column.stored, None)
                row_map = first.rows
        terms = np.broadcast_to(
            np.asarray(source.evaluate_positional(aggregate.expr),
                       dtype=np.float64),
            (source.length, source.positions))
        return terms, row_map

    def _fold(self, relation, presence, rows, aggregate, terms, state):
        """Continue one (group, aggregate) accumulator over new rows.

        A one-shot :meth:`aggregate` is this fold from an empty state, so
        the two cannot drift: sums continue the strict-row-order sum from
        the recorded fold (bit-identical — the next add starts from the
        exact float the full run would hold), counts stay exact integers,
        and min/max fold through ±inf masking (order-independent, so
        partition order cannot change the value).  ``terms`` is
        :meth:`_terms`' pair: the group's rows are ``block[rows]``, or
        ``block[row_map[rows]]`` when the expression ran over a shared
        block, which reads each row's own element either way.
        """
        if rows.size == 0:
            return state
        kind, folded = aggregate.kind, {}
        if kind in ("count", "avg"):
            counts = (np.full(relation.positions, rows.size)
                      if presence is None else presence[rows].sum(axis=0))
            folded["counts"] = (counts if state is None
                                else state["counts"] + counts)
        if kind == "count":
            return folded
        block, row_map = terms
        values = block[rows if row_map is None else row_map[rows]]
        if presence is not None:
            # Without a presence column every tuple is present everywhere
            # and the gathered rows are the terms as they stand — no
            # all-true mask, no second copy.
            absent = {"min": np.inf, "max": -np.inf}.get(kind, 0.0)
            values = np.where(presence[rows], values, absent)
        if kind in ("sum", "avg"):
            folded["fold"] = self._continue_sum(
                None if state is None else state["fold"], values)
        else:
            extreme, merge = ((np.min, np.minimum) if kind == "min"
                              else (np.max, np.maximum))
            masked = extreme(values, axis=0)
            folded["masked"] = (masked if state is None
                                else merge(state["masked"], masked))
        return folded

    @staticmethod
    def _continue_sum(fold: np.ndarray | None,
                      terms: np.ndarray) -> np.ndarray:
        """Strict-row-order column sums (:func:`ordered_column_sum`) of
        ``terms``, continuing from a previous fold as its first row."""
        if fold is None:
            return ordered_column_sum(terms)
        return ordered_column_sum(np.vstack([fold[None, :], terms]))

    @staticmethod
    def _finalize(state, aggregate: AggregateSpec, width: int) -> np.ndarray:
        if state is None:
            empty = 0.0 if aggregate.kind in ("sum", "count") else np.nan
            return np.full(width, empty)
        if aggregate.kind == "count":
            return state["counts"].astype(np.float64)
        if aggregate.kind == "sum":
            return state["fold"].copy()
        if aggregate.kind == "avg":
            counts = state["counts"]
            with np.errstate(invalid="ignore"):
                return np.where(counts > 0,
                                state["fold"] / np.maximum(counts, 1), np.nan)
        return np.where(np.isfinite(state["masked"]), state["masked"], np.nan)
