"""Standing queries: incremental refresh, journal compaction, server races.

Session level: ``Session.standing_query`` handles must stay bit-identical
to a fresh session on the grown catalog through delta, noop, and full
refreshes, and the append journal they pin must stay bounded under
append-heavy load (the unbounded-growth regression).  Server level: the
``/standing`` endpoints journal strictly ordered immutable versions even
while appends race long-polled refreshes on one tenant.
"""

import gc
import json
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import table as table_module
from repro.engine.errors import CatalogError, EngineError
from repro.engine.expressions import BinOp, Col, Lit
from repro.engine.operators import (
    Join, Scan, Seed, Select, appends_keep_prefix)
from repro.engine.options import ExecutionOptions, ServerOptions
from repro.engine.table import GROWTH, Catalog, Table, grow_column
from repro.server import RiskServer
from repro.server.wire import output_to_wire
from repro.sql import Session
from repro.sql.planner import PlanError
from repro.workloads import PortfolioWorkload

CREATE_LOSSES = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
MC_QUERY = ("SELECT SUM(val) AS loss FROM Losses "
            "WITH RESULTDISTRIBUTION MONTECARLO(20)")
TAIL_QUERY = ("SELECT SUM(val) AS loss FROM Losses WHERE CID < 6 "
              "WITH RESULTDISTRIBUTION MONTECARLO(20) "
              "DOMAIN loss >= QUANTILE(0.8)")
BASE_MEANS = {"CID": [0, 1, 2, 3, 4, 5, 6, 7],
              "m": [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]}
APPEND = {"CID": [8, 9], "m": [5.0, 5.5]}


def _session(**kwargs):
    session = Session(base_seed=11, tail_budget=120, window=80, **kwargs)
    session.add_table("means", {k: list(v) for k, v in BASE_MEANS.items()})
    session.execute(CREATE_LOSSES)
    return session


def _fresh_samples(sql, *appends):
    """Sample vector a fresh session produces on the grown table."""
    with _session() as session:
        for rows in appends:
            session.append("means", rows)
        output = session.execute(sql)
    if output.kind == "montecarlo":
        return np.asarray(output.distributions.distribution("loss").samples)
    return np.asarray(output.tail.samples)


# ---------------------------------------------------------------------------
# Session-level refresh modes


def test_mc_delta_refresh_is_bit_identical():
    with _session() as session:
        handle = session.standing_query(MC_QUERY)
        assert handle.last_mode == "initial"
        before = np.asarray(
            handle.result.distributions.distribution("loss").samples)
        np.testing.assert_array_equal(before, _fresh_samples(MC_QUERY))

        session.append("means", APPEND)
        handle.refresh()
        stats = handle.stats()
        assert stats["last_mode"] == "delta"
        # Only the appended tuples' streams were instantiated.
        assert stats["last_rows_computed"] == len(APPEND["CID"])
        assert stats["last_rows_reused"] == len(BASE_MEANS["CID"])
        after = np.asarray(
            handle.result.distributions.distribution("loss").samples)
    np.testing.assert_array_equal(after, _fresh_samples(MC_QUERY, APPEND))
    assert not np.array_equal(before, after)


def test_tail_delta_refresh_is_bit_identical():
    with _session() as session:
        handle = session.standing_query(TAIL_QUERY)
        session.append("means", APPEND)
        handle.refresh()
        assert handle.last_mode == "delta"
        got = np.asarray(handle.result.tail.samples)
        plan_runs = handle.result.tail.plan_runs
    np.testing.assert_array_equal(got, _fresh_samples(TAIL_QUERY, APPEND))
    with _session() as session:
        session.append("means", APPEND)
        fresh = session.execute(TAIL_QUERY)
    assert plan_runs == fresh.tail.plan_runs


def _tail_refreshes(sql, appended):
    """Register ``sql``, append, refresh; the handle's counters + result."""
    with _session() as session:
        handle = session.standing_query(sql)
        session.append("means", appended)
        handle.refresh()
        tail = handle.result.tail
        return (handle.last_mode, handle.last_rows_computed,
                tail.full_replenish_runs + tail.delta_replenish_runs,
                np.asarray(tail.samples))


def test_tail_refresh_gathers_only_rows_its_filter_keeps():
    # The filter runs below Instantiate, so neither the rejected appended
    # rows nor the filtered-out old ones get windows: each plan run — the
    # initial one and every replenishment — gathers at most k rows.
    k = 3
    sql = TAIL_QUERY.replace("CID < 6", f"CID < {k}")
    mode, computed, replenishments, samples = _tail_refreshes(sql, APPEND)
    assert mode == "delta"
    assert computed <= k * (replenishments + 1)
    np.testing.assert_array_equal(samples, _fresh_samples(sql, APPEND))


def test_tail_refresh_with_appends_passing_the_filter_stays_delta():
    sql = TAIL_QUERY.replace("CID < 6", "CID >= 4")
    mode, computed, _, samples = _tail_refreshes(sql, APPEND)
    assert mode == "delta"
    assert computed >= len(APPEND["CID"])  # the appended rows' windows
    np.testing.assert_array_equal(samples, _fresh_samples(sql, APPEND))


def test_second_append_refreshes_incrementally_again():
    extra = {"CID": [10], "m": [6.0]}
    with _session() as session:
        handle = session.standing_query(MC_QUERY)
        session.append("means", APPEND)
        handle.refresh()
        session.append("means", extra)
        handle.refresh()
        assert handle.last_mode == "delta"
        assert handle.last_rows_computed == 1
        got = np.asarray(
            handle.result.distributions.distribution("loss").samples)
    np.testing.assert_array_equal(
        got, _fresh_samples(MC_QUERY, APPEND, extra))


def test_untouched_catalog_refresh_is_noop():
    with _session() as session:
        handle = session.standing_query(MC_QUERY)
        first = handle.result
        assert handle.refresh() is first
        assert handle.last_mode == "noop"
        assert handle.last_rows_computed == 0
        assert handle.stats()["refreshes"] == 0


def test_rewrite_forces_full_refresh():
    grown = {name: list(BASE_MEANS[name]) + list(APPEND[name])
             for name in BASE_MEANS}
    with _session() as session:
        handle = session.standing_query(MC_QUERY)
        session.add_table("means", grown)  # rewrite, not append
        handle.refresh()
        assert handle.last_mode == "full"
        got = np.asarray(
            handle.result.distributions.distribution("loss").samples)
    np.testing.assert_array_equal(got, _fresh_samples(MC_QUERY, APPEND))


def test_standing_query_rejects_non_risk_statements():
    with _session() as session:
        with pytest.raises(PlanError):
            session.standing_query("SELECT CID FROM means")
        with pytest.raises(PlanError):
            session.standing_query(CREATE_LOSSES)
        with pytest.raises(PlanError):
            session.standing_query(
                "SELECT SUM(val) AS loss FROM Losses WITH "
                "RESULTDISTRIBUTION MONTECARLO(20) FREQUENCYTABLE loss")


def test_appends_keep_prefix_join_build_side():
    # A join whose build (right) side grows interleaves new matches into
    # old probe rows — the output is no longer a prefix extension.
    plan = Join(Scan("probe"), Scan("build"), ["k"], ["k2"])
    assert appends_keep_prefix(plan, {"probe"})
    assert not appends_keep_prefix(plan, {"build"})
    assert not appends_keep_prefix(plan, {"probe", "build"})


# ---------------------------------------------------------------------------
# Δ-execution: every refresh equals a fresh session on the grown tables


def _means_losses(session):
    session.add_table("means", {k: list(v) for k, v in BASE_MEANS.items()})
    session.execute(CREATE_LOSSES)


def _grouped_losses(session):
    session.add_table("means", {**{k: list(v) for k, v in BASE_MEANS.items()},
                                "grp": ["a", "b"] * 4})
    session.execute("""
        CREATE TABLE Losses (CID, grp, val) AS
        FOR EACH CID IN means
        WITH v AS Normal(VALUES(m, 1.0))
        SELECT CID, grp, v.* FROM v""")


def _segmented_losses(session):
    _means_losses(session)
    session.add_table("segments", {"CID2": list(range(12)),
                                   "seg": ["a", "b", "c"] * 4})


def _employees(session):
    session.add_table("emp_means", {
        "eid": ["Joe", "Sue", "Jim", "Ann", "Sid"],
        "msal": [26.0, 24.0, 77.0, 45.0, 50.0]})
    session.add_table("sup", {"boss": ["Sue", "Jim", "Sue"],
                              "peon": ["Joe", "Ann", "Sid"]})
    session.execute("""
        CREATE TABLE emp (eid, sal) AS
        FOR EACH r IN emp_means
        WITH v AS Normal(VALUES(msal, 4.0))
        SELECT eid, v.* FROM v""")


def _refreshed_vs_fresh(sql, load, appends, **session_kwargs):
    """Refresh a standing ``sql`` after each ``(table, rows)`` append;
    return its modes, its final wire payload and a fresh session's."""
    modes = []
    with Session(base_seed=11, tail_budget=120, window=80,
                 **session_kwargs) as session:
        load(session)
        handle = session.standing_query(sql)
        for table, rows in appends:
            session.append(table, rows)
            handle.refresh()
            modes.append(handle.last_mode)
        got = output_to_wire(handle.result)
    with Session(base_seed=11, tail_budget=120, window=80) as fresh:
        load(fresh)
        for table, rows in appends:
            fresh.append(table, rows)
        want = output_to_wire(fresh.execute(sql))
    return modes, got, want


GROUPED_QUERY = ("SELECT grp, SUM(val) AS loss, COUNT(*) AS n, "
                 "AVG(val) AS mean, MIN(val) AS best, MAX(val) AS worst "
                 "FROM Losses GROUP BY grp "
                 "WITH RESULTDISTRIBUTION MONTECARLO(20)")


@pytest.mark.parametrize("sql,load,appends,expected_modes", [
    pytest.param(GROUPED_QUERY, _grouped_losses,
                 [("means", {"CID": [8, 9], "m": [5.0, 5.5],
                             "grp": ["b", "new"]})],
                 ["delta"], id="group-first-appears-in-delta"),
    pytest.param("SELECT SUM(val) AS loss, COUNT(*) AS n FROM Losses "
                 "WHERE val > 4.0 WITH RESULTDISTRIBUTION MONTECARLO(20)",
                 _means_losses, [("means", APPEND)], ["delta"],
                 id="random-where-presence"),
    pytest.param("SELECT seg, SUM(val) AS loss FROM Losses, segments "
                 "WHERE CID = CID2 GROUP BY seg "
                 "WITH RESULTDISTRIBUTION MONTECARLO(20)",
                 _segmented_losses, [("means", APPEND)], ["delta"],
                 id="join-probe-grew"),
    pytest.param("SELECT seg, SUM(val) AS loss FROM Losses, segments "
                 "WHERE CID = CID2 GROUP BY seg "
                 "WITH RESULTDISTRIBUTION MONTECARLO(20)",
                 _segmented_losses,
                 [("segments", {"CID2": [3], "seg": ["d"]})], ["full"],
                 id="join-build-grew"),
    pytest.param("SELECT SUM(e2.sal - e1.sal) AS inv "
                 "FROM sup, emp AS e1, emp AS e2 "
                 "WHERE sup.boss = e1.eid AND sup.peon = e2.eid "
                 "WITH RESULTDISTRIBUTION MONTECARLO(20)",
                 _employees, [("sup", {"boss": ["Ann"], "peon": ["Jim"]})],
                 ["delta"], id="self-join-shared-label-probe-grew"),
    pytest.param("SELECT SUM(e2.sal - e1.sal) AS inv "
                 "FROM sup, emp AS e1, emp AS e2 "
                 "WHERE sup.boss = e1.eid AND sup.peon = e2.eid "
                 "WITH RESULTDISTRIBUTION MONTECARLO(20)",
                 _employees,
                 [("emp_means", {"eid": ["Zed"], "msal": [30.0]}),
                  ("sup", {"boss": ["Zed"], "peon": ["Sue"]})],
                 ["full", "delta"], id="self-join-shared-label-table-grew"),
])
def test_delta_refresh_equals_fresh_session(sql, load, appends,
                                            expected_modes):
    modes, got, want = _refreshed_vs_fresh(sql, load, appends)
    assert modes == expected_modes
    assert got == want


@pytest.mark.parametrize("sql", [MC_QUERY, TAIL_QUERY,
                                 TAIL_QUERY.replace("CID < 6", "CID >= 4")])
@pytest.mark.parametrize("options", [
    pytest.param(ExecutionOptions(det_cache="off"), id="det-cache-off"),
    pytest.param(ExecutionOptions(n_jobs=2, backend="process"),
                 id="process-backend"),
])
def test_delta_refresh_equals_fresh_session_under_options(sql, options):
    appends = [("means", APPEND), ("means", {"CID": [10], "m": [6.0]})]
    modes, got, want = _refreshed_vs_fresh(sql, _means_losses, appends,
                                           options=options)
    assert modes == ["delta", "delta"]
    assert got == want


def test_200_consecutive_appends_stay_delta_and_exact():
    rng = np.random.default_rng(34)
    appends = [("means", {"CID": [8 + index],
                          "m": [float(rng.uniform(1.0, 5.0))]})
               for index in range(200)]
    with Session(base_seed=11, tail_budget=120, window=80) as session:
        _means_losses(session)
        handles = [session.standing_query(sql)
                   for sql in (MC_QUERY, GROUPED_QUERY.replace(
                       "grp", "CID"), TAIL_QUERY)]
        for table, rows in appends:
            session.append(table, rows)
            for handle in handles:
                handle.refresh()
                assert handle.last_mode == "delta"
        got = [output_to_wire(handle.result) for handle in handles]
    with Session(base_seed=11, tail_budget=120, window=80) as fresh:
        _means_losses(fresh)
        for table, rows in appends:
            fresh.append(table, rows)
        want = [output_to_wire(fresh.execute(handle.sql))
                for handle in handles]
    assert got == want


def test_delta_relations_never_enter_the_det_cache():
    # A Δ relation stored under its subtree's fingerprint would serve the
    # appended rows alone to the next ad-hoc query over the same subtree.
    with _session() as session:
        mc = session.standing_query(MC_QUERY)
        tail = session.standing_query(TAIL_QUERY)
        for rows in (APPEND, {"CID": [10], "m": [6.0]}):
            session.append("means", rows)
            mc.refresh()
            tail.refresh()
        adhoc = [output_to_wire(session.execute(sql))
                 for sql in (MC_QUERY, TAIL_QUERY)]
        means_sum = session.execute(
            "SELECT SUM(m) AS s FROM means").rows.column("s")[0]
    with _session() as fresh:
        fresh.append("means", APPEND)
        fresh.append("means", {"CID": [10], "m": [6.0]})
        want = [output_to_wire(fresh.execute(sql))
                for sql in (MC_QUERY, TAIL_QUERY)]
    assert adhoc == want
    assert means_sum == sum(BASE_MEANS["m"]) + sum(APPEND["m"]) + 6.0


def test_tail_refresh_no_appended_row_reaches_runs_no_sweep(monkeypatch):
    from repro.core.gibbs_looper import GibbsLooper

    with _session() as session:
        handle = session.standing_query(TAIL_QUERY)
        before = handle.result
        runs = []
        original = GibbsLooper.run

        def counted(looper):
            runs.append(looper)
            return original(looper)

        monkeypatch.setattr(GibbsLooper, "run", counted)
        session.append("means", APPEND)  # CIDs 8, 9: the filter drops both
        assert handle.refresh() is before
        assert handle.last_mode == "delta"
        assert handle.last_rows_computed == 0
        assert handle.last_rows_reused == 6  # the rows CID < 6 keeps
        assert runs == []
        session.append("means", {"CID": [3], "m": [2.0]})  # passes
        handle.refresh()
        assert len(runs) == 1
        assert handle.last_rows_computed >= 1
        got = np.asarray(handle.result.tail.samples)
    np.testing.assert_array_equal(got, _fresh_samples(
        TAIL_QUERY, APPEND, {"CID": [3], "m": [2.0]}))


def _retained_bytes(appends):
    """Bytes a standing MC handle frees when dropped after ``appends``
    one-row append + refresh rounds."""
    sql = MC_QUERY.replace("MONTECARLO(20)", "MONTECARLO(50)")
    with _session() as session:
        tracemalloc.start()
        try:
            handle = session.standing_query(sql)
            for index in range(appends):
                session.append("means", {"CID": [100 + index], "m": [1.0]})
                handle.refresh()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del handle
            gc.collect()
            return held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()


def test_standing_mc_state_does_not_grow_with_the_table():
    # A retained (rows x n) block would add >= 390 * 50 * 8 = 156 kB.
    small, large = _retained_bytes(10), _retained_bytes(400)
    assert large - small < 16 * 1024, (small, large)


def test_append_costs_its_delta_and_shares_one_buffer():
    """The ``standing_append`` shape: a 2 000-row ``means``, a standing
    MC and a standing tail, 20-row appends.  Every holder of ``CID`` and
    ``m`` (table, ``Scan`` entry, ``Seed`` entry) shares one buffer, the
    session keeps at most three capacity-doubled 8-byte columns per row
    (``CID``, ``m``, seed handles), and an append allocates as much at
    2 000 appends as at 200."""
    portfolio = PortfolioWorkload(customers=2000, seed=3)
    rng = np.random.default_rng(3)
    with portfolio.build_session(base_seed=2010) as session:
        mc = session.standing_query(
            "SELECT SUM(val) AS t FROM Losses "
            "WITH RESULTDISTRIBUTION MONTECARLO(500)")
        tail = session.standing_query(
            "SELECT SUM(val) AS t FROM Losses WHERE CID < 100 "
            "WITH RESULTDISTRIBUTION MONTECARLO(50) "
            "DOMAIN t >= QUANTILE(0.9)")
        rows = [2000]

        def append():
            session.append("means", {
                "CID": np.arange(rows[0], rows[0] + 20),
                "m": rng.uniform(1.0, 2.0, 20)})
            rows[0] += 20
            mc.refresh()
            tail.refresh()

        def allocated():
            """Median traced peak of five appends: one that happens to
            reallocate a buffer does not decide it."""
            peaks = []
            for _ in range(5):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                append()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return sorted(peaks)[2]

        def array_bytes():
            """Traced bytes of live array data (NumPy's own domain)."""
            gc.collect()
            return sum(stat.size for stat in tracemalloc.take_snapshot(
            ).filter_traces([tracemalloc.DomainFilter(
                True, np.lib.tracemalloc_domain)]).statistics("filename"))

        tracemalloc.start()
        try:
            for _ in range(195):
                append()
            early = allocated()
            held, appended = array_bytes(), rows[0]
            for _ in range(1795):
                append()
            late = allocated()
            retained = array_bytes() - held
            appended = rows[0] - appended
        finally:
            tracemalloc.stop()

        assert mc.last_mode == "delta"
        table = session.catalog.table("means")
        entries = {fingerprint.split("[")[0]: entry.relation
                   for fingerprint, entry in session.det_cache._entries.items()
                   if not fingerprint.startswith("Select")}
        assert set(entries) == {"Scan", "Seed"}
        for name in ("CID", "m"):
            for relation in entries.values():
                assert np.shares_memory(relation.det_columns["Losses." + name],
                                        table.column(name))
        assert retained / appended <= 3 * 8 * GROWTH, retained / appended
        assert late <= 1.5 * early, (early, late)


# ---------------------------------------------------------------------------
# Fault drill: a Δ refresh over an invalid VG parameter row


CREATE_LOSSES_V = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, v))
    SELECT CID, v.* FROM v
"""
BAD_ROW = {"CID": [8], "m": [1.0], "v": [-1.0]}
#: Its filter keeps the bad row, so the tail refresh must re-enter.
WIDE_TAIL = TAIL_QUERY.replace("CID < 6", "CID >= 4")


def _variance_session(**kwargs):
    session = Session(base_seed=11, tail_budget=120, window=80, **kwargs)
    session.add_table("means", {**{k: list(v) for k, v in BASE_MEANS.items()},
                                "v": [1.0] * len(BASE_MEANS["CID"])})
    session.execute(CREATE_LOSSES_V)
    return session


@pytest.mark.parametrize("sql", [MC_QUERY, WIDE_TAIL])
def test_invalid_vg_parameters_raise_engine_error(sql):
    with _variance_session() as session:
        session.append("means", BAD_ROW)
        with pytest.raises(EngineError, match=r"Normal .*\(1\.0, -1\.0\).*"
                                              r"'Losses'.*variance"):
            session.execute(sql)


@pytest.mark.parametrize("sql", [MC_QUERY, WIDE_TAIL])
def test_failed_delta_refresh_keeps_last_good_state(sql):
    with _variance_session() as session:
        handle = session.standing_query(sql)
        session.append("means", {"CID": [9], "m": [2.0], "v": [1.0]})
        handle.refresh()
        good = (handle.result, dict(handle._states), dict(handle._versions),
                handle.stats())
        session.append("means", BAD_ROW)
        errors = []
        for _ in range(2):
            with pytest.raises(EngineError, match="variance") as caught:
                handle.refresh()
            errors.append(str(caught.value))
            assert (handle.result, dict(handle._states),
                    dict(handle._versions), handle.stats()) == good
        assert errors[0] == errors[1]


@pytest.mark.parametrize("sql", [MC_QUERY, TAIL_QUERY])
def test_append_whose_write_fails_changes_nothing(sql, monkeypatch):
    """Fault drill for the in-place write path: the second column's write
    of an append fails after the first wrote past its frontier.  The
    append raises ``CatalogError`` and leaves every column (length,
    buffer, bytes), the table version and the append journal as they
    were; the next refresh still equals a fresh session's."""
    extra = {"CID": [10, 11], "m": [6.0, 6.5]}
    with _session() as session:
        handle = session.standing_query(sql)
        session.append("means", APPEND)  # the table now owns its buffers
        handle.refresh()
        catalog = session.catalog
        table = catalog.table("means")
        columns = {name: table.column(name) for name in table.column_names}
        contents = {name: column.tobytes()
                    for name, column in columns.items()}
        state = (len(table), catalog.version, catalog.table_version("means"),
                 {key: dict(links) for key, links
                  in catalog._append_journal.items()})
        calls = []

        def failing(column, delta, owned):
            calls.append(owned)
            if len(calls) == 2:
                raise MemoryError("injected")
            return grow_column(column, delta, owned)

        monkeypatch.setattr(table_module, "grow_column", failing)
        with pytest.raises(CatalogError, match="'means'.*injected"):
            session.append("means", extra)
        monkeypatch.undo()
        assert calls == [True, True]  # the first write went in place
        for name, column in columns.items():
            # The same view: same length, same buffer, same bytes.
            assert table.column(name) is column
            assert column.tobytes() == contents[name]
        assert (len(table), catalog.version, catalog.table_version("means"),
                {key: dict(links) for key, links
                 in catalog._append_journal.items()}) == state
        assert handle.refresh() is handle.result  # nothing moved: a noop
        session.append("means", extra)
        handle.refresh()
        assert handle.last_mode == "delta"
        got = (handle.result.distributions.distribution("loss").samples
               if handle.kind == "montecarlo" else handle.result.tail.samples)
    np.testing.assert_array_equal(got, _fresh_samples(sql, APPEND, extra))


# ---------------------------------------------------------------------------
# Append-journal compaction (the unbounded-growth regression)


def test_append_journal_stays_bounded_over_10k_appends():
    # Regression: every append used to add one immortal journal link;
    # 10k appends meant a 10k-entry chain per table.  With a standing
    # query pinning old versions (so per-append compaction cannot drop
    # links) the auto-coalescer must still bound the chain.
    with _session() as session:
        session.standing_query(MC_QUERY)  # pins the registration version
        catalog = session.catalog
        for index in range(10_000):
            session.append("means", {"CID": [100 + index], "m": [1.0]})
            assert (catalog.append_journal_len("means")
                    <= Catalog.APPEND_JOURNAL_LIMIT)


def test_append_journal_empty_without_consumers():
    # No det-cache entry and no standing query records a version for the
    # table, so every link is dropped as soon as it is written.
    with _session(options=ExecutionOptions(det_cache="off")) as session:
        for index in range(50):
            session.append("means", {"CID": [100 + index], "m": [1.0]})
        assert session.catalog.append_journal_len("means") == 0


def test_refreshing_consumer_lets_journal_compact():
    with _session() as session:
        handle = session.standing_query(MC_QUERY)
        for index in range(30):
            session.append("means", {"CID": [100 + index], "m": [1.0]})
            handle.refresh()
        # The handle refreshed past every link but the newest; the next
        # append compacts behind it.
        assert session.catalog.append_journal_len("means") <= 2


def test_catalog_compact_append_journal_unit():
    catalog = Catalog()
    catalog.add_table(Table("t", {"x": np.arange(4)}))
    base_version = catalog.table_version("t")
    for index in range(5):
        catalog.append("t", {"x": [10 + index]})
    assert catalog.append_journal_len("t") == 5
    mid = catalog.table_version("t")
    # Every live consumer is current at `mid`, so no walk can reach the
    # old links — all five get dropped.
    assert catalog.compact_append_journal("t", mid) == 5
    assert catalog.append_journal_len("t") == 0
    # The chain is broken for anyone who recorded a pre-compaction
    # version — classify_moves must say rebuild, not a wrong splice.
    assert catalog.appended_range("t", base_version) is None
    # A consumer at `mid` splices new growth exactly as before.
    catalog.append("t", {"x": [99]})
    assert catalog.appended_range("t", mid) == (9, 10)


# ---------------------------------------------------------------------------
# Server: standing endpoints, autorefresh, and the append/refresh race


def _call(url, method="GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _load_tenant(base, tenant, means=BASE_MEANS, create=CREATE_LOSSES):
    assert _call(f"{base}/tenants/{tenant}", "POST",
                 {"base_seed": 11})[0] == 201
    assert _call(f"{base}/tenants/{tenant}/tables", "POST",
                 {"name": "means", "columns": means})[0] == 201
    _, ddl = _call(f"{base}/tenants/{tenant}/queries", "POST",
                   {"sql": create})
    _, record = _call(f"{base}/queries/{ddl['query_id']}?wait=30")
    assert record["status"] == "done", record


def _wait_version(base, tenant, standing_id, after, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, reply = _call(f"{base}/tenants/{tenant}/standing/{standing_id}"
                         f"?wait=5&after={after}")
        if "record" in reply:
            return reply
    raise AssertionError(f"no journal version > {after}: {reply}")


def _fresh_payload(*appends):
    with _session() as session:
        for rows in appends:
            session.append("means", rows)
        return output_to_wire(session.execute(MC_QUERY))


def test_server_standing_lifecycle():
    with RiskServer() as server:
        base = server.url
        _load_tenant(base, "acme")
        status, registered = _call(f"{base}/tenants/acme/standing", "POST",
                                   {"sql": MC_QUERY, "analysis": "exposure"})
        assert status == 202, registered
        standing_id = registered["standing_id"]

        first = _wait_version(base, "acme", standing_id, after=0)
        assert first["record"]["version"] == 1
        assert first["record"]["result"] == _fresh_payload()

        status, appended = _call(f"{base}/tenants/acme/tables/means/rows",
                                 "POST", {"columns": APPEND})
        assert status == 200 and appended["appended"] == 2
        assert appended["standing_refreshes_scheduled"] >= 1

        second = _wait_version(base, "acme", standing_id, after=1)
        assert second["record"]["version"] == 2
        assert second["record"]["result"] == _fresh_payload(APPEND)
        assert second["standing"]["last_mode"] in ("delta", "full")
        if second["standing"]["last_mode"] == "delta":
            # Refresh accounting rides the registration payload.
            assert second["standing"]["last_rows_computed"] == 2
            assert second["standing"]["last_rows_reused"] == 8

        status, listing = _call(f"{base}/tenants/acme/standing")
        assert status == 200 and len(listing["standing"]) == 1

        assert _call(f"{base}/tenants/acme/standing/{standing_id}",
                     "DELETE")[0] == 200
        assert _call(f"{base}/tenants/acme/standing/{standing_id}")[0] == 404


def test_server_standing_autorefresh_off_and_manual_poke():
    server_options = ServerOptions(standing_autorefresh=False)
    with RiskServer(server_options=server_options) as server:
        base = server.url
        _load_tenant(base, "acme")
        _, registered = _call(f"{base}/tenants/acme/standing", "POST",
                              {"sql": MC_QUERY})
        standing_id = registered["standing_id"]
        _wait_version(base, "acme", standing_id, after=0)

        _, appended = _call(f"{base}/tenants/acme/tables/means/rows",
                            "POST", {"columns": APPEND})
        assert appended["standing_refreshes_scheduled"] == 0

        # Nothing refreshes on its own ...
        _, reply = _call(f"{base}/tenants/acme/standing/{standing_id}"
                         f"?wait=1&after=1")
        assert reply.get("timed_out") is True
        # ... until the manual trigger.
        assert _call(f"{base}/tenants/acme/standing/{standing_id}/refresh",
                     "POST")[0] == 202
        second = _wait_version(base, "acme", standing_id, after=1)
        assert second["record"]["result"] == _fresh_payload(APPEND)


def test_server_standing_invalid_requests():
    with RiskServer() as server:
        base = server.url
        _load_tenant(base, "acme")
        assert _call(f"{base}/tenants/acme/standing", "POST",
                     {"sql": "SELECT CID FROM means"})[0] == 400
        assert _call(f"{base}/tenants/acme/standing", "POST", {})[0] == 400
        _, registered = _call(f"{base}/tenants/acme/standing", "POST",
                              {"sql": MC_QUERY})
        standing_id = registered["standing_id"]
        assert _call(f"{base}/tenants/acme/standing/{standing_id}"
                     f"?wait=oops")[0] == 400
        assert _call(f"{base}/tenants/acme/standing/{standing_id}"
                     f"?wait=1&after=-1")[0] == 400
        # Another tenant cannot see (or drop) acme's registration.
        assert _call(f"{base}/tenants/zeta", "POST",
                     {"base_seed": 1})[0] == 201
        assert _call(f"{base}/tenants/zeta/standing/{standing_id}")[0] == 404
        assert _call(f"{base}/tenants/zeta/standing/{standing_id}",
                     "DELETE")[0] == 404


def test_appends_racing_refreshes_keep_journal_ordered():
    """Satellite: one tenant, appends racing long-polled refreshes.

    A writer thread streams appends over HTTP while a reader thread
    long-polls every journal version in order.  However the refreshes
    interleave or coalesce, every journaled version must (a) arrive
    strictly ordered and dense, (b) equal the fresh-session payload for
    *some* append prefix — never a torn half-append state — with the
    matched prefix non-decreasing, and (c) converge on the full table.
    """
    total_appends = 5
    deltas = [{"CID": [50 + i], "m": [1.0 + i]} for i in range(total_appends)]
    # Fresh-session reference payload for every append prefix.
    prefix_payloads = [_fresh_payload(*deltas[:k])
                       for k in range(total_appends + 1)]

    with RiskServer() as server:
        base = server.url
        _load_tenant(base, "acme")
        _, registered = _call(f"{base}/tenants/acme/standing", "POST",
                              {"sql": MC_QUERY})
        standing_id = registered["standing_id"]
        _wait_version(base, "acme", standing_id, after=0)

        records, errors = [], []

        def writer():
            try:
                for delta in deltas:
                    status, reply = _call(
                        f"{base}/tenants/acme/tables/means/rows", "POST",
                        {"columns": delta})
                    assert status == 200, reply
                    time.sleep(0.02)
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        def reader():
            try:
                after = 1
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    _, reply = _call(
                        f"{base}/tenants/acme/standing/{standing_id}"
                        f"?wait=5&after={after}")
                    if "record" in reply:
                        records.append(reply["record"])
                        after = reply["record"]["version"]
                        if reply["record"]["result"] == prefix_payloads[-1]:
                            return
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
        assert not errors, errors
        assert records, "reader never observed a refreshed version"

    versions = [record["version"] for record in records]
    assert versions == list(range(2, 2 + len(records))), versions
    matched = []
    for record in records:
        assert record["result"] in prefix_payloads, (
            "journaled result matches no append prefix — torn read")
        matched.append(prefix_payloads.index(record["result"]))
    assert matched == sorted(matched), matched
    assert matched[-1] == total_appends, (
        f"final version covers only {matched[-1]}/{total_appends} appends")


def test_server_standing_refresh_error_drill():
    """Fault drill: an appended row with an invalid VG parameter under a
    live standing MC and a live standing tail query.  Each registration
    goes to ``error`` with the typed message and counts one standing
    error, its journal keeps the last good version, the drainer still
    serves a bystander tenant, and no child process or ``/dev/shm``
    segment outlives the server."""
    from multiprocessing import active_children
    from repro.engine.shm import leaked_segments
    segments_before = set(leaked_segments())
    children_before = set(active_children())
    with RiskServer(options=ExecutionOptions(n_jobs=2, backend="process")
                    ) as server:
        base, service = server.url, server.service
        ids = {}
        _load_tenant(base, "victim",
                     {**BASE_MEANS, "v": [1.0] * len(BASE_MEANS["CID"])},
                     CREATE_LOSSES_V)
        _load_tenant(base, "bystander")
        for tenant, sql in (("victim", MC_QUERY), ("victim", WIDE_TAIL),
                            ("bystander", MC_QUERY)):
            _, registered = _call(f"{base}/tenants/{tenant}/standing",
                                  "POST", {"sql": sql})
            ids[registered["standing_id"]] = tenant
            _wait_version(base, tenant, registered["standing_id"], after=0)
        # One sharded ad-hoc query spawns the pool the leak check guards.
        _, adhoc = _call(f"{base}/tenants/bystander/queries", "POST",
                         {"sql": MC_QUERY})
        assert _call(f"{base}/queries/{adhoc['query_id']}?wait=30"
                     )[1]["status"] == "done"
        errors_before = service.counters["standing_errors"]

        assert _call(f"{base}/tenants/victim/tables/means/rows", "POST",
                     {"columns": BAD_ROW})[0] == 200
        victims = [sid for sid, tenant in ids.items() if tenant == "victim"]
        deadline = time.monotonic() + 30
        states = {}
        while time.monotonic() < deadline:
            states = {sid: _call(f"{base}/tenants/victim/standing/{sid}"
                                 )[1]["standing"] for sid in victims}
            if all(state["status"] == "error" for state in states.values()):
                break
            time.sleep(0.05)
        for state in states.values():
            assert state["status"] == "error", state
            assert "Normal" in state["error"] and "variance" in state["error"]
            assert state["journal_versions"] == 1
        assert service.counters["standing_errors"] == \
            errors_before + len(victims)

        # The drainer still serves the bystander.
        assert _call(f"{base}/tenants/bystander/tables/means/rows", "POST",
                     {"columns": APPEND})[0] == 200
        bystander = next(sid for sid, tenant in ids.items()
                         if tenant == "bystander")
        second = _wait_version(base, "bystander", bystander, after=1)
        assert second["record"]["result"] == _fresh_payload(APPEND)
    assert set(leaked_segments()) <= segments_before
    deadline = time.monotonic() + 10
    while set(active_children()) - children_before \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not set(active_children()) - children_before


def test_appends_keep_prefix_seed_needs_its_scan():
    # Δ-execution numbers appended handles from the Scan's old row count;
    # a Seed above a filter cannot know its Δ's first row position.
    on_scan = Seed(Scan("t"), label="L")
    on_filter = Seed(Select(Scan("t"), BinOp("<", Col("x"), Lit(3))),
                     label="L")
    assert appends_keep_prefix(on_scan, {"t"})
    assert not appends_keep_prefix(on_filter, {"t"})
    assert appends_keep_prefix(on_filter, {"other"})
