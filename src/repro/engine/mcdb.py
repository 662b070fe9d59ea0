"""The naive-MCDB Monte Carlo executor — the paper's baseline system.

Runs a tuple-bundle plan once with ``n`` repetitions materialized per
random value (position axis = repetition index), then evaluates grouped
aggregates per repetition.  This is exactly the original MCDB execution
model the paper starts from: great for central moments, hopeless for deep
tails (Sec. 1's motivating arithmetic), which is what MCDB-R fixes.

Because repetitions are independent and streams are position-addressed
pure functions of ``(base_seed, handle)``, the repetition axis shards
trivially: a worker handling repetitions ``[lo, hi)`` executes the same
plan with ``position_offset=lo`` and reproduces exactly the slice a serial
run would compute — every worker re-derives the same per-seed PRNG keys
via :func:`repro.engine.seeds.derive_prng_seed`, so the merged result is
bit-identical for every ``n_jobs`` (cf. the service-level scaling of Monte
Carlo production in the LCG MCDB, PAPERS.md).

*Where* the shards run is the backend's business
(:mod:`repro.engine.backends`): the executor is itself the shard job —
broadcast once per query to the persistent worker pool, with the catalog
riding the keyed shared channel so a session ships it to each worker once
per :attr:`~repro.engine.table.Catalog.version`, and each shard costing
only a ``(job_id, lo, hi)`` task message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.engine.backends import catalog_share_key, make_backend
from repro.engine.bundles import BundleRelation, row_key_codes
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import Expr
from repro.engine.operators import ExecutionContext, PlanNode
from repro.engine.options import ExecutionOptions
from repro.engine.result import ResultDistribution
from repro.engine.table import Catalog

__all__ = ["AggregateSpec", "MonteCarloExecutor", "MonteCarloResult"]

_AGGREGATE_KINDS = ("sum", "count", "avg", "min", "max")


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
                return self._run_sharded(bounds, repetitions)
        return self.run_shard(0, repetitions)

    def run_shard(self, lo: int, hi: int) -> MonteCarloResult:
        """Execute repetitions ``[lo, hi)`` — the whole run when lo=0."""
        if self.catalog is None:
            raise EngineError(
                "executor has no catalog bound; a broadcast copy must be "
                "re-bound via attach_shared before running shards")
        context = ExecutionContext(
            self.catalog, positions=hi - lo, aligned=True,
            base_seed=self.base_seed, position_offset=lo,
            det_cache=self.det_cache)
        relation = self.plan.execute(context)
        context.plan_runs += 1
        return self.aggregate(relation, hi - lo)

    def _run_sharded(self, bounds: Sequence[tuple[int, int]],
                     repetitions: int) -> MonteCarloResult:
        """Partition the repetition axis across backend workers (Sec. 1's
        "embarrassingly parallel" observation made executable).

        Shard results are merged in slice order, so the sample vector of
        every (group, aggregate) pair equals the serial run's exactly.
        """
        backend = self.backend
        owned = backend is None
        if owned:
            backend = make_backend(self.options)
        try:
            shards = backend.run_job(self, bounds)
        finally:
            if owned:
                backend.close()
        return self._merge_shards(shards, repetitions)

    def _merge_shards(self, shards: Sequence[MonteCarloResult],
                      repetitions: int) -> MonteCarloResult:
        """Concatenate per-shard sample vectors in repetition order.

        A group can be absent from a shard when every one of its rows was
        filtered out at each of the shard's positions; the serial run keeps
        such rows (they survive via positions in *other* shards) and its
        per-position aggregation over an all-false presence mask yields
        exactly the empty-input value — so filling with that value
        reproduces the serial semantics.
        """
        keys = dict.fromkeys(
            key for shard in shards for key in shard.group_keys)
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
        presence = relation.combined_presence()
        group_rows = self._group_rows(relation)
        groups: dict[tuple, dict[str, ResultDistribution]] = {}
        for key, rows in group_rows.items():
            by_name: dict[str, ResultDistribution] = {}
            for aggregate in self.aggregates:
                by_name[aggregate.name] = ResultDistribution(self._finalize(
                    self._fold(relation, presence, rows, aggregate, None),
                    aggregate, relation.positions))
            groups[key] = by_name
        return MonteCarloResult(self.group_by, groups, repetitions)

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
                    states: dict | None = None, start_row: int = 0) -> dict:
        """Fold rows ``[start_row:]`` into per-group accumulator states.

        ``states`` maps group key -> aggregate name -> the raw
        accumulator the strict-order evaluation of that group's rows so
        far would have produced; folding appended rows in continues the
        exact accumulation sequence a full :meth:`aggregate` over the
        grown relation performs, so :meth:`result_from_states` is
        bit-identical to re-aggregating from scratch.  That holds only
        when the pre-existing rows kept their indices and values (the
        append-only prefix-stability the standing-query layer checks
        before calling with ``start_row > 0``).
        """
        presence = relation.combined_presence()
        states = {} if states is None else states
        for key, rows in self._group_rows(relation).items():
            fresh = rows[rows >= start_row] if start_row else rows
            by_name = states.setdefault(key, {})
            for aggregate in self.aggregates:
                by_name[aggregate.name] = self._fold(
                    relation, presence, fresh, aggregate,
                    by_name.get(aggregate.name))
        return states

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

    def _fold(self, relation, presence, rows, aggregate, state):
        """Continue one (group, aggregate) accumulator over new rows.

        A one-shot :meth:`aggregate` is this fold from an empty state, so
        the two cannot drift: sums continue the sequential cumsum from
        the recorded fold (bit-identical — the next add starts from the
        exact float the full run would hold), counts stay exact integers,
        and min/max fold through ±inf masking (order-independent, so
        partition order cannot change the value).
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
        values = np.broadcast_to(
            np.asarray(relation.evaluate_positional(aggregate.expr),
                       dtype=np.float64),
            (relation.length, relation.positions))[rows]
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

    @classmethod
    def _continue_sum(cls, fold: np.ndarray | None,
                      terms: np.ndarray) -> np.ndarray:
        """Strict-order column sums continuing from a previous fold."""
        if fold is None:
            return cls._ordered_sum(terms)
        return cls._ordered_sum(np.vstack([fold[None, :], terms]))

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

    @staticmethod
    def _ordered_sum(matrix: np.ndarray) -> np.ndarray:
        """Strict row-order column sums.

        ``matrix.sum(axis=0)`` uses pairwise summation whose grouping
        depends on the array geometry, so a shard that dropped a
        nowhere-present row would round differently from the serial run
        (which sums that row's zeros).  Sequential accumulation makes
        inserting zero rows an exact no-op, which is what keeps sharded
        results bit-identical to serial ones.
        """
        return np.cumsum(matrix, axis=0)[-1]
