"""Deterministic-cache tiers, plan fingerprints and the delta protocol.

Covers the incremental materialization pipeline's engine-level contracts:

* ``_restamp`` — deterministic relations served from cache when
  replenishment widens ``positions`` (and when a cross-query hit crosses
  aligned/tail modes);
* :class:`SessionDetCache` — cross-query hits keyed by structural plan
  fingerprint, invalidation on catalog mutation, the ``det_cache``
  option knob end to end through ``Session``;
* the append refresh by Δ-execution — subtrees shared by several
  queries, entries lagging the Δ, a fault midway, and random
  interleavings held equal to a ``det_cache="off"`` session;
* ``positions_for`` — ``position_offset`` and an explicit
  ``position_plan`` are mutually exclusive;
* signature-batched ``Instantiate`` — one ``validate_params`` call per
  distinct parameter signature, batched gathers bit-identical to the
  per-row path, and the delta merge bit-identical to a full rebuild.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stream_oracle import stream_values

from repro.engine import operators
from repro.engine.det_cache import ContextDetCache, SessionDetCache
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, Project, Scan, Seed, Select,
    random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.seeds import derive_prng_seed
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.sql.parser import parse
from repro.sql.planner import compile_select
from repro.vg.builtin import NORMAL
from repro.vg.streams import draw_chunk, gather_stream_windows


def _draw(row, chunk_index):
    """The window fill's ``draw`` over ``(seed, vg, params)`` rows."""
    return draw_chunk(*row, chunk_index)


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

    def test_seed_label_registered_when_a_filter_above_it_hits(self):
        """A pushed-down filter makes ``Select(Seed(Scan))`` the cached
        root: the hit never reaches the Seed, yet its label must still
        be registered."""
        from repro.engine.seeds import label_id_of

        catalog = _catalog()
        cache = SessionDetCache()
        plan = random_table_pipeline(_losses_spec(),
                                     predicates=[col("CID") < lit(3)])
        plan.execute(ExecutionContext(catalog, positions=4, aligned=True,
                                      det_cache=cache))
        second = ExecutionContext(catalog, positions=4, aligned=True,
                                  det_cache=cache)
        relation = plan.execute(second)
        assert relation.length == 3
        # Only the random operators re-ran: Instantiate and its Project.
        assert second.node_executions == 2
        assert label_id_of("Losses") in second._labels


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
        dependent entries."""
        session = self._session()
        session.execute(self.QUERY)
        assert len(session.det_cache) > 0
        session.add_table("means", {
            "CID": np.arange(12), "m": np.linspace(2.0, 4.0, 12)})
        session.execute(self.QUERY)
        assert session.det_cache.partial_invalidations >= 1

    def test_unrelated_mutation_survives_table_keying(self):
        """The point of table-granular keying: DDL on a disjoint table
        leaves cached entries — and their arrays — untouched."""
        session = self._session()
        session.execute(self.QUERY)
        entries = len(session.det_cache)
        misses = session.det_cache.misses
        session.add_table("extra", {"x": [1.0]})
        session.execute(self.QUERY)
        assert session.det_cache.misses == misses  # every subtree served
        assert session.det_cache.invalidations == 0
        assert session.det_cache.partial_invalidations == 0
        assert len(session.det_cache) == entries

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

    @pytest.mark.parametrize("mode", ["session", "off"])
    def test_modes_bit_identical(self, mode):
        baseline = self._session().execute(self.QUERY)
        other = self._session(det_cache=mode).execute(self.QUERY)
        np.testing.assert_array_equal(
            baseline.distributions.distribution("loss").samples,
            other.distributions.distribution("loss").samples)

    def test_option_validation(self):
        with pytest.raises(ValueError, match="det_cache"):
            ExecutionOptions(det_cache="warp")


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
        # A join whose build side moved cannot be extended; dependent
        # entries drop and recompute (the accounts Scan itself extends).
        assert cache.partial_invalidations >= 1
        fresh = self._pipeline().execute(self._context(catalog))
        for name in ("acct", "amount", "double"):
            np.testing.assert_array_equal(served.det_columns[name],
                                          fresh.det_columns[name])

    def test_shared_subtree_refreshes_in_place_for_both_queries(self):
        """Two cached queries over one Scan: after an append the first
        lookup extends the shared Scan, and the second query's refresh
        must extend its own entry over it, not drop it."""
        catalog = self._catalog()
        cache = SessionDetCache()

        def plans():
            return (Select(Scan("ledger"), col("acct") < lit(1)),
                    Select(Scan("ledger"), col("acct") >= lit(1)))

        for plan in plans():
            plan.execute(self._context(catalog, cache))
        misses = cache.misses
        catalog.append("ledger", {"acct": [0, 2], "amount": [9.0, 8.0]})
        served = [plan.execute(self._context(catalog, cache))
                  for plan in plans()]
        assert cache.partial_invalidations == 0
        assert cache.misses == misses
        assert cache.append_refreshes == 3  # the Scan and both Selects
        for got, plan in zip(served, plans()):
            want = plan.execute(self._context(catalog))
            for name in ("acct", "amount"):
                np.testing.assert_array_equal(got.det_columns[name],
                                              want.det_columns[name])

    def test_entry_lagging_the_delta_start_is_brought_current(self):
        """A Δ run from version v1 meets a Select entry still at v0 over
        a Scan entry at v1: the Select is refreshed from its own version,
        and the journal's compaction floor reaches the current version."""
        catalog = self._catalog()
        cache = SessionDetCache()
        plan = Select(Scan("ledger"), col("acct") < lit(2))
        plan.execute(self._context(catalog, cache))
        catalog.append("ledger", {"acct": [1], "amount": [5.0]})
        Scan("ledger").execute(self._context(catalog, cache))
        start = catalog.table_version("ledger")
        catalog.append("ledger", {"acct": [0, 2], "amount": [9.0, 8.0]})
        delta = self._context(catalog, cache)
        delta.appended = {"ledger": catalog.appended_range("ledger", start)}
        assert plan.execute(delta).length == 1  # the Δ's acct-0 row
        assert cache.partial_invalidations == 0
        assert cache.low_water("ledger") == catalog.table_version("ledger")
        misses = cache.misses
        served = plan.execute(self._context(catalog, cache))
        assert cache.misses == misses
        want = Select(Scan("ledger"), col("acct") < lit(2)).execute(
            self._context(catalog))
        for name in ("acct", "amount"):
            np.testing.assert_array_equal(served.det_columns[name],
                                          want.det_columns[name])

    def test_scan_entry_disagreeing_with_the_journal_is_dropped(self):
        catalog = self._catalog()
        cache = SessionDetCache()
        scan = Scan("ledger")
        scan.execute(self._context(catalog, cache))
        entry = cache._entries[scan.fingerprint()]
        entry.relation = entry.relation.take(np.arange(4))  # not 6 rows
        catalog.append("ledger", {"acct": [7], "amount": [9.0]})
        served = scan.execute(self._context(catalog, cache))
        assert cache.partial_invalidations == 1
        assert cache.append_refreshes == 0
        fresh = Scan("ledger").execute(self._context(catalog))
        np.testing.assert_array_equal(served.det_columns["amount"],
                                      fresh.det_columns["amount"])

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
        session = TestSessionDetCache()._session()
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

    def test_rerun_validates_only_unregistered_handles(self):
        """An append-only re-run on a retained context validates the
        appended rows' parameters, not every row's again.  Only a tail
        context keeps a seed registry across runs (a Monte Carlo context
        registers no SeedInfo and is never re-run)."""
        catalog = _catalog(rows=6)
        vg = _CountingNormal()
        seed = Seed(Scan("means"), label="L")
        node = Instantiate(seed, vg, [col("m"), lit(1.0)], [("val", 0)],
                           seed.handle_column)
        context = ExecutionContext(catalog, positions=4, aligned=False)
        node.execute(context)
        assert vg.validate_calls == 6
        catalog.append("means", {"CID": [6, 7], "m": [7.0, 8.0]})
        context.det_cache = ContextDetCache()
        relation = node.execute(context)
        assert vg.validate_calls == 6 + 2
        assert relation.length == 8 and len(context.seeds) == 8
        node.execute(context)  # every handle registered: nothing to check
        assert vg.validate_calls == 8

    def test_batched_gather_matches_per_row(self):
        catalog = _catalog(rows=8)
        plan = random_table_pipeline(_losses_spec())
        batched_context = ExecutionContext(catalog, positions=32,
                                           aligned=True)
        batched = plan.execute(batched_context)
        # Force the per-row path: a tail context's position plan naming
        # the default window for every seed (so the same positions
        # materialize) routes _run through _gather_per_row — the Monte
        # Carlo fill is purely an execution strategy and must give the
        # same matrix.
        ctx2 = ExecutionContext(catalog, positions=32, aligned=False)
        ctx2.position_plan = dict.fromkeys(
            batched.rand_columns["val"].seed_handles.tolist(), np.arange(32))
        probe = random_table_pipeline(_losses_spec()).execute(ctx2)
        np.testing.assert_array_equal(
            batched.rand_columns["val"].values,
            probe.rand_columns["val"].values.reshape(8, 32))

    def test_gather_stream_windows_matches_values_at(self):
        catalog = _catalog(rows=5)
        plan = random_table_pipeline(_losses_spec())
        context = ExecutionContext(catalog, positions=16, aligned=True)
        relation = plan.execute(context)
        positions = np.arange(16, dtype=np.int64)
        means = catalog.table("means").column("m")
        for row, handle in enumerate(
                relation.rand_columns["val"].seed_handles):
            np.testing.assert_array_equal(
                relation.rand_columns["val"].values[row],
                stream_values(derive_prng_seed(0, int(handle)), NORMAL,
                              (float(means[row]), 1.0), positions))

    def test_gather_stream_windows_rejects_descending_chunks(self):
        with pytest.raises(ValueError, match="ascending"):
            gather_stream_windows(
                _draw, [(7, NORMAL, (0.0, 1.0))], [300], [1], [0])

    def test_gather_stream_windows_within_chunk_disorder_ok(self):
        """Windows need no order among themselves: three one-position
        windows of one chunk, out of order, read their positions."""
        out = gather_stream_windows(
            _draw, [(7, NORMAL, (0.0, 1.0))] * 3, [3, 1, 2],
            [4, 2, 3], [0])
        assert out.shape == (1, 3)
        np.testing.assert_array_equal(
            out[0], stream_values(7, NORMAL, (0.0, 1.0), [3, 1, 2]))


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
        """A refuel's Δ-execution in which one handle's plan moved runs
        ``Instantiate`` over that handle's row only (the context's
        handle filter): it gathers stream values for that handle only,
        and every stable handle's baseline entry is carried over
        untouched, never visited."""
        catalog, plan, context = self._prepare()
        context.delta_mode = True
        before = plan.execute(context)
        handles = [int(h) for h in
                   before.rand_columns["val"].seed_handles]
        moved = handles[2]
        old_plan = context.position_plan[moved]
        # The moved seed drops one assigned position and refuels past
        # its old window; everyone else re-serves the same plan object.
        new_plan = np.concatenate([
            old_plan[1:], np.arange(old_plan[-1] + 1, old_plan[-1] + 2)])
        context.position_plan = {**context.position_plan, moved: new_plan}
        context.handle_filter = frozenset({moved})
        baseline = next(iter(context.materialized.values()))
        gathered = []
        gather_ranges = operators.gather_stream_windows

        def point_fill(*args, **kwargs):
            raise AssertionError("a point fill in a refuel")

        def ranges_spy(draw, streams, starts, stops, components):
            for info, lo, hi in zip(streams, starts, stops):
                gathered.append((info.handle, int(hi - lo)))
            return gather_ranges(draw, streams, starts, stops, components)

        monkeypatch.setattr(operators, "gather_stream_points", point_fill)
        monkeypatch.setattr(operators, "gather_stream_windows", ranges_spy)
        computed, reused = (context.instantiate_rows_computed,
                            context.instantiate_rows_reused)
        after = plan.execute(context)
        context.handle_filter = None
        assert gathered == [(moved, 1)]  # just the never-seen position
        assert (context.instantiate_rows_computed,
                context.instantiate_rows_reused) == (computed + 1, reused)
        # The Δ output is the moved row alone, equal to a from-scratch
        # materialization of its plan.
        assert after.rand_columns["val"].seed_handles.tolist() == [moved]
        info = context.seeds[moved]
        np.testing.assert_array_equal(
            after.rand_columns["val"].row(0),
            stream_values(info.prng_seed, info.vg, info.params, new_plan))
        assert after.rand_columns["val"].bases[0] == new_plan[0]
        # Every stable handle's baseline entry is the very one before.
        merged = next(iter(context.materialized.values()))
        for handle in handles:
            if handle != moved:
                assert merged.positions[handle] is baseline.positions[handle]
                assert merged.values[handle] is baseline.values[handle]
        np.testing.assert_array_equal(merged.positions[moved], new_plan)

    def test_delta_rejected_when_rows_change(self):
        """A merge baseline that lacks a row's handle must be discarded."""
        catalog, plan, context = self._prepare()
        context.delta_mode = True
        # Tamper with the recorded baseline: one handle never recorded.
        for materialization in context.materialized.values():
            del materialization.positions[min(materialization.positions)]
        merged = plan.execute(context)
        assert context.delta_runs == 0  # fell back to a full gather
        rebuilt_context = ExecutionContext(
            catalog, positions=context.positions, aligned=False)
        rebuilt_context.position_plan = dict(context.position_plan)
        rebuilt = random_table_pipeline(_losses_spec()).execute(
            rebuilt_context)
        np.testing.assert_array_equal(merged.rand_columns["val"].values,
                                      rebuilt.rand_columns["val"].values)


def _nodes(plan):
    yield plan
    for child in plan.children:
        yield from _nodes(child)


class _InjectedFault(Exception):
    pass


class TestDeltaRefreshFault:
    """A Δ refresh that raises midway leaves no torn entry behind."""

    SQL = ("SELECT acct, amount FROM ledger, accounts "
           "WHERE acct = acct2 AND region < 1")
    LEDGER = {"acct": np.arange(6) % 3, "amount": np.linspace(1.0, 2.0, 6)}
    ACCOUNTS = {"acct2": np.arange(3), "region": np.array([0, 1, 0])}
    APPEND = {"acct": [0, 1, 2], "amount": [9.0, 8.0, 7.0]}

    def _session(self, ledger):
        session = Session(base_seed=3)
        session.add_table("ledger", ledger)
        session.add_table("accounts", self.ACCOUNTS)
        return session

    def test_fault_in_delta_join(self, monkeypatch):
        session = self._session(self.LEDGER)
        catalog = session.catalog
        session.execute(self.SQL)
        old = catalog.table_version("ledger")
        session.append("ledger", self.APPEND)
        rows_at = {old: len(self.LEDGER["acct"]),
                   catalog.table_version("ledger"): len(
                       catalog.table("ledger"))}
        join, calls = Join._join, []

        def failing(self, left, right):
            calls.append(left.length)
            if len(calls) == 1:
                raise _InjectedFault("first Δ join")
            return join(self, left, right)

        monkeypatch.setattr(Join, "_join", failing)
        with pytest.raises(_InjectedFault):
            session.execute(self.SQL)
        assert calls == [len(self.APPEND["acct"])]  # it was the Δ's join

        # Every entry holds exactly the rows of its recorded versions.
        plan = compile_select(parse(self.SQL), catalog,
                              tail_mode=False).plan
        recorded = set()
        for node in _nodes(plan):
            entry = session.det_cache._entries.get(node.fingerprint())
            if entry is None:
                continue
            version = entry.versions.get("ledger")
            recorded.add(version)
            at = Catalog()
            rows = rows_at.get(version, len(catalog.table("ledger")))
            at.add_table(Table("ledger", {
                name: catalog.table("ledger").column(name)[:rows]
                for name in self.LEDGER}))
            at.add_table(Table("accounts", self.ACCOUNTS))
            want = node.execute(ExecutionContext(at, positions=1,
                                                 aligned=True))
            got = entry.relation
            assert got.length == want.length
            assert got.det_columns.keys() == want.det_columns.keys()
            for name, values in want.det_columns.items():
                np.testing.assert_array_equal(got.det_columns[name], values)
        # Midway: the ledger Scan was extended, the entries above the
        # failed join still hold the old rows.
        assert recorded >= {old, catalog.table_version("ledger")}

        monkeypatch.undo()
        got = session.execute(self.SQL).rows
        grown = {name: np.concatenate([self.LEDGER[name], self.APPEND[name]])
                 for name in self.LEDGER}
        want = self._session(grown).execute(self.SQL).rows
        for name in want.column_names:
            np.testing.assert_array_equal(got.column(name),
                                          want.column(name))


_POOL_CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
#: Ad-hoc queries sharing subtrees: the means Scan (and its CID filter)
#: with each other, the seeded Losses pipeline with the standing ones,
#: and a join whose build side (segments) is never appended.
_POOL_QUERIES = [
    "SELECT CID, m FROM means WHERE CID < 6",
    "SELECT SUM(m) AS s, COUNT(*) AS n FROM means WHERE CID < 6",
    "SELECT seg, SUM(m) AS s FROM means, segments WHERE CID = CID2 "
    "GROUP BY seg",
    "SELECT SUM(val) AS loss FROM Losses WHERE CID < 6 "
    "WITH RESULTDISTRIBUTION MONTECARLO(10)",
    "SELECT seg, SUM(val) AS loss FROM Losses, segments "
    "WHERE CID = CID2 GROUP BY seg WITH RESULTDISTRIBUTION MONTECARLO(10)",
]
_POOL_STANDING = [
    "SELECT SUM(val) AS loss FROM Losses "
    "WITH RESULTDISTRIBUTION MONTECARLO(10)",
    "SELECT SUM(val) AS loss FROM Losses WHERE CID < 6 "
    "WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN loss >= QUANTILE(0.8)",
]
_POOL_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.lists(
        st.tuples(st.integers(0, 14), st.integers(2, 16)),
        min_size=1, max_size=3)),
    st.tuples(st.just("query"), st.integers(0, len(_POOL_QUERIES) - 1)),
    st.tuples(st.just("refresh"), st.integers(0, len(_POOL_STANDING) - 1)),
), min_size=1, max_size=8)


class TestDeltaRefreshProperty:
    """Random interleavings of appends, ad-hoc queries and standing
    refreshes: the session det-cache never changes a result."""

    @staticmethod
    def _session(det_cache):
        session = Session(base_seed=5, tail_budget=120, window=80,
                          options=ExecutionOptions(det_cache=det_cache))
        session.add_table("means", {"CID": np.arange(8),
                                    "m": np.linspace(1.0, 3.0, 8)})
        session.add_table("segments", {"CID2": np.arange(12),
                                       "seg": np.arange(12) % 3})
        session.execute(_POOL_CREATE)
        return session

    @given(steps=_POOL_STEPS)
    @example(steps=[  # two queries over one Scan, refreshed after an append
        ("query", 0), ("query", 2), ("append", [(3, 8), (13, 4)]),
        ("query", 0), ("query", 2), ("refresh", 0), ("refresh", 1)])
    @settings(max_examples=40, deadline=None)
    def test_every_step_equals_a_cacheless_session(self, steps):
        from repro.server.wire import output_to_wire

        with self._session("session") as cached, \
                self._session("off") as plain:
            handles = [[session.standing_query(sql)
                        for sql in _POOL_STANDING]
                       for session in (cached, plain)]
            for kind, arg in steps:
                if kind == "append":
                    rows = {"CID": [cid for cid, _ in arg],
                            "m": [quarter / 4 for _, quarter in arg]}
                    got = [session.append("means", rows)
                           for session in (cached, plain)]
                elif kind == "query":
                    got = [output_to_wire(session.execute(
                        _POOL_QUERIES[arg])) for session in (cached, plain)]
                else:
                    got = [output_to_wire(pool[arg].refresh())
                           for pool in handles]
                assert got[0] == got[1], (kind, arg)
            assert cached.cache_stats()["partial_invalidations"] == 0
