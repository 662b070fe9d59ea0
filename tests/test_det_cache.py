"""Deterministic-cache tiers, plan fingerprints and the delta protocol.

Covers the incremental materialization pipeline's engine-level contracts:

* ``_restamp`` — deterministic relations served from cache when
  replenishment widens ``positions`` (and when a cross-query hit crosses
  aligned/tail modes);
* :class:`SessionDetCache` — cross-query hits keyed by structural plan
  fingerprint, invalidation on catalog mutation, the ``det_cache``
  option knob end to end through ``Session``;
* ``positions_for`` — ``position_offset`` and an explicit
  ``position_plan`` are mutually exclusive;
* signature-batched ``Instantiate`` — one ``validate_params`` call per
  distinct parameter signature, batched gathers bit-identical to the
  per-row path, and the delta merge bit-identical to a full rebuild.
"""

import numpy as np
import pytest

from repro.engine.det_cache import (
    ContextDetCache, NullDetCache, SessionDetCache, make_det_cache)
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, Project, Scan, Seed, Select,
    random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.sql.parser import parse
from repro.sql.planner import compile_select
from repro.vg.builtin import NORMAL
from repro.vg.streams import gather_stream_windows


def _catalog(rows=6):
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(rows), "m": np.linspace(1.0, 3.0, rows)}))
    return catalog


def _losses_spec():
    return RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))


class TestRestampOnWidening:
    def test_det_cache_restamped_when_replenishment_widens(self):
        """The Sec. 9 path: a replenishment re-run widens ``positions``;
        cached deterministic relations must be served with the new width
        without re-executing the subtree."""
        catalog = _catalog()
        plan = random_table_pipeline(_losses_spec())
        context = ExecutionContext(catalog, positions=8, aligned=False)
        first = plan.execute(context)
        assert first.positions == 8
        executions = context.node_executions

        context.positions = 20
        context.position_plan = {
            handle: np.arange(20, dtype=np.int64) for handle in context.seeds}
        widened = plan.execute(context)
        assert widened.positions == 20
        # Only Instantiate and the Project above it re-ran; Scan/Seed came
        # restamped from the cache.
        assert context.node_executions == executions + 2
        np.testing.assert_array_equal(widened.det_columns["CID"],
                                      first.det_columns["CID"])

    def test_restamp_crosses_aligned_modes(self):
        """A session cache hit may serve a tail-mode (aligned=False) plan
        from a Monte Carlo run; the restamped metadata must follow."""
        catalog = _catalog()
        cache = SessionDetCache()
        scan = Scan("means")
        mc = ExecutionContext(catalog, positions=4, aligned=True,
                              det_cache=cache)
        relation = scan.execute(mc)
        assert relation.aligned is True
        tail = ExecutionContext(catalog, positions=16, aligned=False,
                                det_cache=cache)
        served = scan.execute(tail)
        assert cache.hits >= 1
        assert served.aligned is False and served.positions == 16
        np.testing.assert_array_equal(served.det_columns["m"],
                                      relation.det_columns["m"])

    def test_seed_label_registered_on_cross_query_cache_hit(self):
        """A cached Seed subtree must still arm the label-collision guard
        in the fresh context — a later Seed whose label hashes to the
        same id has to be rejected, not silently share streams."""
        from repro.engine.seeds import label_id_of

        catalog = _catalog()
        cache = SessionDetCache()
        seed = Seed(Scan("means"), label="L")
        first = ExecutionContext(catalog, positions=4, aligned=True,
                                 det_cache=cache)
        seed.execute(first)
        second = ExecutionContext(catalog, positions=4, aligned=True,
                                  det_cache=cache)
        executions = second.node_executions
        seed.execute(second)
        assert second.node_executions == executions  # served from cache
        assert label_id_of("L") in second._labels    # guard still armed


class TestSessionDetCache:
    def _session(self, **opts):
        session = Session(base_seed=7, tail_budget=300, window=200,
                          options=ExecutionOptions(**opts) if opts else None)
        session.add_table("means", {
            "CID": np.arange(12), "m": np.linspace(1.0, 3.0, 12)})
        session.execute("""
            CREATE TABLE Losses (CID, val) AS
            FOR EACH CID IN means
            WITH myVal AS Normal(VALUES(m, 1.0))
            SELECT CID, myVal.* FROM myVal
        """)
        return session

    QUERY = """
        SELECT SUM(val) AS loss FROM Losses
        WITH RESULTDISTRIBUTION MONTECARLO(30)
    """

    def test_cross_query_hits(self):
        session = self._session()
        session.execute(self.QUERY)
        misses = session.det_cache.misses
        assert len(session.det_cache) > 0
        session.execute(self.QUERY)
        # A freshly compiled, structurally identical plan hits the entries
        # the first execution stored (fingerprint keying, not node ids).
        assert session.det_cache.hits > 0
        assert session.det_cache.misses == misses

    def test_results_unchanged_by_cache_hits(self):
        session = self._session()
        first = session.execute(self.QUERY)
        second = session.execute(self.QUERY)
        np.testing.assert_array_equal(
            first.distributions.distribution("loss").samples,
            second.distributions.distribution("loss").samples)

    def test_dependent_mutation_invalidates(self):
        """Rewriting a table a cached subtree scans drops exactly the
        dependent entries (table keying, the default)."""
        session = self._session(det_cache_keying="table")
        session.execute(self.QUERY)
        assert len(session.det_cache) > 0
        session.add_table("means", {
            "CID": np.arange(12), "m": np.linspace(2.0, 4.0, 12)})
        session.execute(self.QUERY)
        assert session.det_cache.partial_invalidations >= 1

    def test_unrelated_mutation_survives_table_keying(self):
        """The point of table-granular keying: DDL on a disjoint table
        leaves cached entries — and their arrays — untouched."""
        session = self._session(det_cache_keying="table")
        session.execute(self.QUERY)
        entries = len(session.det_cache)
        misses = session.det_cache.misses
        session.add_table("extra", {"x": [1.0]})
        session.execute(self.QUERY)
        assert session.det_cache.misses == misses  # every subtree served
        assert session.det_cache.invalidations == 0
        assert session.det_cache.partial_invalidations == 0
        assert len(session.det_cache) == entries

    def test_catalog_keying_drops_everything(self):
        """keying="catalog" reproduces the coarse protocol: any mutation
        (even of an unrelated table) clears the whole cache."""
        session = self._session(det_cache_keying="catalog")
        session.execute(self.QUERY)
        assert len(session.det_cache) > 0
        session.add_table("extra", {"x": [1.0]})
        session.execute(self.QUERY)
        assert session.det_cache.invalidations >= 1

    def test_ftable_registration_invalidates(self):
        session = self._session()
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(25)
            DOMAIN loss >= QUANTILE(0.9)
            FREQUENCYTABLE loss
        """
        session.execute(query)   # registers FTABLE -> catalog mutation
        version = session.catalog.version
        session.execute(self.QUERY)
        assert session.catalog.version == version  # SELECT never mutates
        session.execute(query)
        assert session.catalog.version > version

    def test_det_cache_off_mode(self):
        session = self._session(det_cache="off")
        session.execute(self.QUERY)
        assert len(session.det_cache) == 0

    def test_det_cache_context_mode(self):
        session = self._session(det_cache="context")
        session.execute(self.QUERY)
        assert len(session.det_cache) == 0  # session cache never consulted

    @pytest.mark.parametrize("mode", ["session", "context", "off"])
    def test_modes_bit_identical(self, mode):
        baseline = self._session().execute(self.QUERY)
        other = self._session(det_cache=mode).execute(self.QUERY)
        np.testing.assert_array_equal(
            baseline.distributions.distribution("loss").samples,
            other.distributions.distribution("loss").samples)

    def test_make_det_cache(self):
        assert isinstance(make_det_cache("context"), ContextDetCache)
        assert isinstance(make_det_cache("off"), NullDetCache)
        with pytest.raises(ValueError):
            make_det_cache("session")

    def test_option_validation(self):
        with pytest.raises(ValueError, match="det_cache"):
            ExecutionOptions(det_cache="warp")
        with pytest.raises(ValueError, match="replenishment"):
            ExecutionOptions(replenishment="sometimes")


class TestBaseTables:
    def test_scan_and_combinators_union(self):
        assert Scan("A").base_tables() == frozenset({"a"})
        join = Join(Scan("A"), Scan("B", "b."), ["k"], ["b.k"])
        assert join.base_tables() == frozenset({"a", "b"})
        assert Select(join, col("k") < lit(1)).base_tables() == \
            frozenset({"a", "b"})

    def test_random_pipeline_depends_on_spec_and_parameter_table(self):
        plan = random_table_pipeline(_losses_spec())
        assert plan.base_tables() == frozenset({"means", "losses"})

    def test_memoized(self):
        node = Select(Scan("A"), col("k") < lit(1))
        assert node.base_tables() is node.base_tables()


class TestCrossInvalidationMatrix:
    """Mutations hit exactly the entries that depend on the touched name."""

    def _catalog(self):
        catalog = Catalog()
        catalog.add_table(Table("a", {
            "k": np.arange(4), "v": np.linspace(0.0, 1.0, 4)}))
        catalog.add_table(Table("b", {
            "k2": np.arange(3), "w": np.linspace(5.0, 6.0, 3)}))
        return catalog

    def _context(self, catalog, cache):
        return ExecutionContext(catalog, positions=4, aligned=True,
                                det_cache=cache)

    def test_mutating_a_leaves_b_entries_identical(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan_b = Scan("b")
        served = scan_b.execute(self._context(catalog, cache))
        catalog.add_table(Table("a", {"k": [0], "v": [9.0]}))
        again = scan_b.execute(self._context(catalog, cache))
        assert cache.partial_invalidations == 0
        assert cache.misses == 1  # only the initial fill
        # The very same arrays, not recomputed copies.
        assert again.det_columns["w"] is served.det_columns["w"]

    def test_mutating_a_drops_only_a_entries(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan_a, scan_b = Scan("a"), Scan("b")
        scan_a.execute(self._context(catalog, cache))
        scan_b.execute(self._context(catalog, cache))
        catalog.add_table(Table("a", {"k": [0], "v": [9.0]}))
        refreshed = scan_a.execute(self._context(catalog, cache))
        scan_b.execute(self._context(catalog, cache))
        assert cache.partial_invalidations == 1
        np.testing.assert_array_equal(refreshed.det_columns["v"], [9.0])

    def test_drop_and_readd_same_name_invalidates(self):
        """Re-adding even identical contents must invalidate: the
        per-name version is monotone across drop/re-add."""
        catalog = self._catalog()
        cache = SessionDetCache()
        scan = Scan("a")
        scan.execute(self._context(catalog, cache))
        catalog.drop("a")
        catalog.add_table(Table("a", {
            "k": np.arange(4), "v": np.linspace(0.0, 1.0, 4)}))
        misses = cache.misses
        scan.execute(self._context(catalog, cache))
        assert cache.partial_invalidations == 1
        assert cache.misses == misses + 1

    def test_different_catalog_clears_everything(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan = Scan("a")
        scan.execute(self._context(catalog, cache))
        other = self._catalog()
        scan.execute(self._context(other, cache))
        assert cache.invalidations == 1


class TestAppendSpliceRefresh:
    """Append-only growth refreshes cached det subtrees in place."""

    def _catalog(self):
        catalog = Catalog()
        catalog.add_table(Table("ledger", {
            "acct": np.arange(6) % 3,
            "amount": np.linspace(1.0, 2.0, 6)}))
        catalog.add_table(Table("accounts", {
            "acct2": np.arange(3), "region": np.array([0, 1, 0])}))
        return catalog

    def _context(self, catalog, cache=None):
        return ExecutionContext(catalog, positions=4, aligned=True,
                                det_cache=cache)

    def _pipeline(self):
        join = Join(Scan("ledger"), Scan("accounts"), ["acct"], ["acct2"])
        select = Select(join, col("region") < lit(1))
        return Project(select, outputs=(("double", col("amount") + col("amount")),),
                       keep=["acct", "amount"])

    def test_scan_splice_matches_fresh_run(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan = Scan("ledger")
        scan.execute(self._context(catalog, cache))
        catalog.append("ledger", {"acct": [7, 8], "amount": [9.0, 8.0]})
        served = scan.execute(self._context(catalog, cache))
        assert cache.append_refreshes == 1
        assert cache.misses == 1  # refresh is not a recomputation
        fresh = Scan("ledger").execute(self._context(catalog))
        np.testing.assert_array_equal(served.det_columns["amount"],
                                      fresh.det_columns["amount"])
        np.testing.assert_array_equal(served.det_columns["acct"],
                                      fresh.det_columns["acct"])

    def test_seed_splice_matches_fresh_handles(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        seed = Seed(Scan("ledger"), label="L")
        seed.execute(self._context(catalog, cache))
        catalog.append("ledger", {"acct": [5], "amount": [3.0]})
        served = seed.execute(self._context(catalog, cache))
        assert cache.append_refreshes >= 1
        fresh = Seed(Scan("ledger"), label="L").execute(
            self._context(catalog))
        np.testing.assert_array_equal(served.det_columns["L#seed"],
                                      fresh.det_columns["L#seed"])

    def test_join_pipeline_splice_matches_fresh_run(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        plan = self._pipeline()
        plan.execute(self._context(catalog, cache))
        misses = cache.misses
        # acct 0 and 1 join (region 0 survives the Select, 1 does not);
        # acct 5 has no accounts match at all.
        catalog.append("ledger", {
            "acct": [0, 1, 5], "amount": [9.0, 8.0, 7.0]})
        served = plan.execute(self._context(catalog, cache))
        assert cache.append_refreshes >= 1
        assert cache.misses == misses  # nothing recomputed
        fresh = self._pipeline().execute(self._context(catalog))
        for name in ("acct", "amount", "double"):
            np.testing.assert_array_equal(served.det_columns[name],
                                          fresh.det_columns[name])

    def test_join_build_side_append_falls_back_to_recompute(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        plan = self._pipeline()
        plan.execute(self._context(catalog, cache))
        catalog.append("accounts", {"acct2": [7], "region": [0]})
        served = plan.execute(self._context(catalog, cache))
        # The join is not splicable when its build side moved; dependent
        # entries drop and recompute (the accounts Scan itself splices).
        assert cache.partial_invalidations >= 1
        fresh = self._pipeline().execute(self._context(catalog))
        for name in ("acct", "amount", "double"):
            np.testing.assert_array_equal(served.det_columns[name],
                                          fresh.det_columns[name])

    def test_rewrite_after_append_recomputes(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan = Scan("ledger")
        scan.execute(self._context(catalog, cache))
        catalog.append("ledger", {"acct": [7], "amount": [9.0]})
        catalog.add_table(Table("ledger", {
            "acct": [1], "amount": [4.0]}))  # rewrite truncates journal
        served = scan.execute(self._context(catalog, cache))
        assert cache.append_refreshes == 0
        assert cache.partial_invalidations == 1
        np.testing.assert_array_equal(served.det_columns["amount"], [4.0])

    def test_session_append_bit_identical_to_fresh_session(self):
        """End to end: MC samples after Session.append equal a fresh
        session built directly on the grown table."""
        query = TestSessionDetCache.QUERY
        session = TestSessionDetCache()._session(det_cache_keying="table")
        session.execute(query)
        session.append("means", {"CID": [12, 13], "m": [3.2, 3.4]})
        grown = session.execute(query)
        assert session.cache_stats()["append_refreshes"] >= 1

        baseline = Session(base_seed=7, tail_budget=300, window=200)
        baseline.add_table("means", {
            "CID": np.arange(14),
            "m": np.concatenate([np.linspace(1.0, 3.0, 12), [3.2, 3.4]])})
        baseline.execute("""
            CREATE TABLE Losses (CID, val) AS
            FOR EACH CID IN means
            WITH myVal AS Normal(VALUES(m, 1.0))
            SELECT CID, myVal.* FROM myVal
        """)
        expected = baseline.execute(query)
        np.testing.assert_array_equal(
            grown.distributions.distribution("loss").samples,
            expected.distributions.distribution("loss").samples)


class TestFingerprints:
    def test_recompiled_plans_share_fingerprints(self):
        session = TestSessionDetCache()._session()
        statement = parse(TestSessionDetCache.QUERY)
        first = compile_select(statement, session.catalog, tail_mode=False)
        second = compile_select(parse(TestSessionDetCache.QUERY),
                                session.catalog, tail_mode=False)
        assert first.plan.node_id != second.plan.node_id
        assert first.plan.fingerprint() == second.plan.fingerprint()

    def test_structurally_different_plans_differ(self):
        catalog = _catalog()
        scan_a = Select(Scan("means"), col("CID") < lit(3))
        scan_b = Select(Scan("means"), col("CID") < lit(4))
        assert scan_a.fingerprint() != scan_b.fingerprint()
        assert Scan("means").fingerprint() != Scan("means", "e.").fingerprint()
        assert (Seed(Scan("means"), "a").fingerprint()
                != Seed(Scan("means"), "b").fingerprint())


class TestPositionPlanOffsetExclusion:
    def test_offset_with_position_plan_raises(self):
        catalog = _catalog()
        context = ExecutionContext(catalog, positions=4, aligned=True,
                                   position_offset=8)
        context.position_plan = {7: np.arange(4, dtype=np.int64)}
        with pytest.raises(EngineError, match="mutually exclusive"):
            context.positions_for(7)
        # Even handles absent from the plan must refuse: the offset would
        # shift them while planned seeds stay pinned — silent misalignment.
        with pytest.raises(EngineError, match="mutually exclusive"):
            context.positions_for(99)

    def test_offset_alone_still_works(self):
        catalog = _catalog()
        context = ExecutionContext(catalog, positions=4, aligned=True,
                                   position_offset=8)
        np.testing.assert_array_equal(context.positions_for(0),
                                      np.arange(8, 12))


class _CountingNormal(NORMAL.__class__):
    def __init__(self):
        super().__init__()
        self.validate_calls = 0

    def validate_params(self, params):
        self.validate_calls += 1
        return super().validate_params(params)


class TestSignatureBatchedInstantiate:
    def test_validate_once_per_signature(self):
        catalog = Catalog()
        catalog.add_table(Table("params", {
            "k": np.arange(9), "m": [1.0, 1.0, 1.0, 2.0, 2.0, 2.0,
                                     3.0, 3.0, 3.0]}))
        vg = _CountingNormal()
        seed = Seed(Scan("params"), label="L")
        node = Instantiate(seed, vg, [col("m"), lit(1.0)], [("val", 0)],
                           seed.handle_column)
        node.execute(ExecutionContext(catalog, positions=6, aligned=True))
        # 9 rows but only 3 distinct (m, 1.0) signatures.
        assert vg.validate_calls == 3

    def test_batched_gather_matches_per_row(self):
        catalog = _catalog(rows=8)
        plan = random_table_pipeline(_losses_spec())
        batched_context = ExecutionContext(catalog, positions=32,
                                           aligned=True)
        batched = plan.execute(batched_context)
        # Force the per-row path: a non-empty window_bases (all zero, so
        # the same positions materialize) routes _run through
        # _gather_per_row — the batched gather is purely an execution
        # strategy and must give the same matrix.
        ctx2 = ExecutionContext(catalog, positions=32, aligned=True)
        ctx2.window_bases = dict.fromkeys(batched_context.seeds, 0)
        probe = random_table_pipeline(_losses_spec()).execute(ctx2)
        np.testing.assert_array_equal(batched.rand_columns["val"].values,
                                      probe.rand_columns["val"].values)

    def test_gather_stream_windows_matches_values_at(self):
        catalog = _catalog(rows=5)
        plan = random_table_pipeline(_losses_spec())
        context = ExecutionContext(catalog, positions=16, aligned=True)
        relation = plan.execute(context)
        positions = np.arange(16, dtype=np.int64)
        for row, handle in enumerate(
                relation.rand_columns["val"].seed_handles):
            info = context.seeds[int(handle)]
            np.testing.assert_array_equal(
                relation.rand_columns["val"].values[row],
                info.values_at(positions, 0))

    def test_gather_stream_windows_rejects_descending_chunks(self):
        with pytest.raises(ValueError, match="ascending"):
            gather_stream_windows(
                np.array([5, 1]), [(7, NORMAL, (0.0, 1.0))], [0], chunk=4)

    def test_gather_stream_windows_within_chunk_disorder_ok(self):
        out = gather_stream_windows(
            np.array([3, 1, 2]), [(7, NORMAL, (0.0, 1.0))], [0], chunk=4)
        stream = NORMAL.make_stream(7, (0.0, 1.0), chunk=4)
        assert out.shape == (1, 1, 3)
        np.testing.assert_array_equal(out[0, 0], stream.values_at([3, 1, 2]))


class TestDeltaMergeEquivalence:
    def _prepare(self, width=12, fresh=24):
        catalog = _catalog(rows=5)
        plan = random_table_pipeline(_losses_spec())
        context = ExecutionContext(catalog, positions=width, aligned=False)
        context.delta_tracking = True
        plan.execute(context)
        # Build a replenishment-shaped plan: keep a few "assigned"
        # positions per seed, then extend past the old window.
        plans = {}
        for index, handle in enumerate(sorted(context.seeds)):
            assigned = np.array([0, 2 + index], dtype=np.int64)
            tail = np.arange(width + index, width + index + fresh,
                             dtype=np.int64)
            plans[handle] = np.concatenate([assigned, tail])
        target = max(len(p) for p in plans.values())
        for handle, p in plans.items():
            extra = target - len(p)
            if extra:
                plans[handle] = np.concatenate([
                    p, np.arange(p[-1] + 1, p[-1] + 1 + extra,
                                 dtype=np.int64)])
        context.positions = target
        context.position_plan = plans
        return catalog, plan, context

    def test_delta_merge_bit_identical_to_full_rebuild(self):
        catalog, plan, context = self._prepare()
        context.delta_mode = True
        merged = plan.execute(context)
        assert context.delta_runs == 1

        rebuilt_context = ExecutionContext(
            catalog, positions=context.positions, aligned=False)
        rebuilt_context.position_plan = dict(context.position_plan)
        rebuilt = random_table_pipeline(_losses_spec()).execute(
            rebuilt_context)
        np.testing.assert_array_equal(merged.rand_columns["val"].values,
                                      rebuilt.rand_columns["val"].values)
        np.testing.assert_array_equal(merged.rand_columns["val"].bases,
                                      rebuilt.rand_columns["val"].bases)

    def test_stable_handles_are_carried_over_unvisited(self, monkeypatch):
        """A delta re-run in which one handle's plan moved gathers stream
        values for that handle only; every stable row comes back exactly
        as the previous run materialized it."""
        from repro.engine.seeds import SeedInfo
        catalog, plan, context = self._prepare()
        context.delta_mode = True
        before = plan.execute(context)
        handles = [int(h) for h in
                   before.rand_columns["val"].seed_handles]
        moved, moved_row = handles[2], 2
        old_plan = context.position_plan[moved]
        # The moved seed drops one assigned position and refuels past
        # its old window; everyone else re-serves the same plan object.
        new_plan = np.concatenate([
            old_plan[1:], np.arange(old_plan[-1] + 1, old_plan[-1] + 2)])
        context.position_plan = {**context.position_plan, moved: new_plan}
        context.stable_handles = frozenset(handles) - {moved}
        context.last_fresh_slots = {}
        gathered = []
        values_at = SeedInfo.values_at

        def spy(self, positions, component=0):
            gathered.append((self.handle, len(positions)))
            return values_at(self, positions, component)

        monkeypatch.setattr(SeedInfo, "values_at", spy)
        reused = context.instantiate_rows_reused
        after = plan.execute(context)
        assert gathered == [(moved, 1)]  # just the never-seen position
        assert context.instantiate_rows_reused == reused + len(handles) - 1
        stable_rows = [row for row in range(len(handles))
                       if row != moved_row]
        np.testing.assert_array_equal(
            after.rand_columns["val"].values[stable_rows],
            before.rand_columns["val"].values[stable_rows])
        np.testing.assert_array_equal(
            after.rand_columns["val"].bases[stable_rows],
            before.rand_columns["val"].bases[stable_rows])
        for handle in handles:
            expected = [new_plan.size - 1] if handle == moved else []
            np.testing.assert_array_equal(after.fresh_slots[handle],
                                          expected)
        # The moved row equals a from-scratch materialization of its plan.
        np.testing.assert_array_equal(
            after.rand_columns["val"].values[moved_row],
            values_at(context.seeds[moved], new_plan))
        assert after.rand_columns["val"].bases[moved_row] == new_plan[0]

    def test_delta_rejected_when_rows_change(self):
        """A merge baseline with a different row set must be discarded."""
        catalog, plan, context = self._prepare()
        context.delta_mode = True
        # Tamper with the recorded baseline: wrong handle order.
        for materialization in context.materialized.values():
            materialization.handles = materialization.handles[::-1].copy()
        merged = plan.execute(context)
        assert context.delta_runs == 0  # fell back to a full gather
        rebuilt_context = ExecutionContext(
            catalog, positions=context.positions, aligned=False)
        rebuilt_context.position_plan = dict(context.position_plan)
        rebuilt = random_table_pipeline(_losses_spec()).execute(
            rebuilt_context)
        np.testing.assert_array_equal(merged.rand_columns["val"].values,
                                      rebuilt.rand_columns["val"].values)
