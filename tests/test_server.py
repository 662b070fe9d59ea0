"""Tests for the risk service (repro.server) and its session lifecycle.

Covers the HTTP surface end to end (real sockets via urllib against an
ephemeral-port server), the admission queue's 429/timeout behavior
(driven deterministically by holding a tenant session's single-flight
lock), cross-tenant isolation, tenant eviction, the ``Session.options``
property, and the concurrent-``execute`` bit-identity contract.
"""

import http.client
import json
import os
import signal
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine.backends import SharedBackend, make_backend
from repro.engine.errors import EngineError
from repro.engine.options import ExecutionOptions, ServerOptions
from repro.server import RiskServer, RiskService
from repro.server.app import _MAX_BODY_BYTES
from repro.server.wire import ApiError, output_to_wire
from repro.sql import Session
from repro.sql.session import StandingQuery

CREATE_LOSSES = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
MC_QUERY = ("SELECT SUM(val) FROM Losses "
            "WITH RESULTDISTRIBUTION MONTECARLO(20)")


def _call(url, method="GET", body=None):
    """JSON request helper returning ``(status, payload)``, never raising
    on HTTP error statuses — tests assert on them."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _poll(base, query_id, deadline=30.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, record = _call(f"{base}/queries/{query_id}?wait=10")
        if record["status"] not in ("queued", "running"):
            return record
    raise AssertionError(f"query {query_id} did not settle: {record}")


def _load_tenant(base, tenant, means, seed=11):
    assert _call(f"{base}/tenants/{tenant}", "POST",
                 {"base_seed": seed})[0] == 201
    status, _ = _call(f"{base}/tenants/{tenant}/tables", "POST", {
        "name": "means",
        "columns": {"CID": list(range(len(means))), "m": list(means)}})
    assert status == 201
    record = _poll(base, _call(f"{base}/tenants/{tenant}/queries", "POST",
                               {"sql": CREATE_LOSSES})[1]["query_id"])
    assert record["status"] == "done"


@pytest.fixture(scope="module")
def server():
    with RiskServer(options=ExecutionOptions(),
                    server_options=ServerOptions(concurrency=2,
                                                 queue_depth=8)) as live:
        yield live


@pytest.fixture(scope="module")
def base(server):
    return server.url


class TestEndpoints:
    def test_health_and_unknown_route(self, base):
        assert _call(f"{base}/healthz") == (200, {"ok": True})
        status, payload = _call(f"{base}/no/such/route")
        assert status == 404 and "error" in payload

    def test_keep_alive_replies_do_not_stall(self, server):
        """Replies on a reused connection must not wait out a delayed
        ACK: headers and body leave in one write, with Nagle off (two
        unbuffered segments cost ~40 ms per request)."""
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"ok": True}
            assert time.perf_counter() - started < 0.4
        finally:
            connection.close()

    def test_tenant_lifecycle(self, base):
        status, payload = _call(f"{base}/tenants/t-life", "POST")
        assert (status, payload["created"]) == (201, True)
        status, payload = _call(f"{base}/tenants/t-life", "POST")
        assert (status, payload["created"]) == (200, False)
        # Config is creation-only.
        status, _ = _call(f"{base}/tenants/t-life", "POST",
                          {"base_seed": 3})
        assert status == 409
        assert "t-life" in _call(f"{base}/tenants")[1]["tenants"]
        assert _call(f"{base}/tenants/t-life", "DELETE")[0] == 200
        assert _call(f"{base}/tenants/t-life", "DELETE")[0] == 404

    def test_bad_tenant_ids_rejected(self, base):
        status, payload = _call(f"{base}/tenants/t-cfg", "POST",
                                {"bogus_knob": 1})
        assert status == 400 and "bogus_knob" in payload["error"]

    def test_table_create_and_append(self, base):
        _load_tenant(base, "t-tab", [1.0, 2.0])
        status, payload = _call(
            f"{base}/tenants/t-tab/tables/means/rows", "POST",
            {"columns": {"CID": [2], "m": [3.0]}})
        assert status == 200
        assert payload["appended"] == 1 and payload["rows"] == 3

    @pytest.mark.parametrize("tenant, select", [
        ("t-short1", "CID, v.val"), ("t-short2", "CID, m, v.*")])
    def test_create_header_shorter_than_select_is_400(self, base, tenant,
                                                      select):
        """A CREATE TABLE header shorter than its SELECT list is the
        client's error: 400, named, not a 500."""
        _load_tenant(base, tenant, [1.0, 2.0])
        sql = (f"CREATE TABLE L5 (CID) AS FOR EACH c IN means WITH v AS "
               f"Normal(VALUES(m, 1.0)) SELECT {select} FROM v")
        record = _poll(base, _call(f"{base}/tenants/{tenant}/queries",
                                   "POST", {"sql": sql})[1]["query_id"])
        assert (record["status"], record["error_status"]) == ("error", 400)
        assert "shorter than its SELECT list" in record["error"]

    def test_append_schema_mismatch_is_400_named(self, base):
        _load_tenant(base, "t-bad", [1.0])
        status, payload = _call(
            f"{base}/tenants/t-bad/tables/means/rows", "POST",
            {"columns": {"CID": [9]}})   # missing column m
        assert status == 400
        assert "means" in payload["error"] and "m" in payload["error"]
        # Transactional: the failed append left the table untouched.
        status, payload = _call(
            f"{base}/tenants/t-bad/tables/means/rows", "POST",
            {"columns": {"CID": [9], "m": [9.0]}})
        assert status == 200 and payload["rows"] == 2

    def test_append_changing_a_column_kind_is_400(self, base):
        _load_tenant(base, "t-kind", [1.0, 2.0])
        status, payload = _call(
            f"{base}/tenants/t-kind/tables/means/rows", "POST",
            {"columns": {"CID": ["x"], "m": [2.0]}})
        assert status == 400
        assert "means" in payload["error"] and "CID" in payload["error"]
        # The table is unchanged: a numeric filter over CID still runs
        # and sees only the loaded rows.
        record = _poll(base, _call(
            f"{base}/tenants/t-kind/queries", "POST",
            {"sql": "SELECT CID, m FROM means WHERE CID < 10"}
        )[1]["query_id"])
        assert record["status"] == "done", record
        assert record["result"]["rows"]["rows"] == [[0, 1.0], [1, 2.0]]

    def test_append_to_unknown_table_is_404(self, base):
        status, _ = _call(f"{base}/tenants/t-tab/tables/nope/rows", "POST",
                          {"columns": {"x": [1]}})
        assert status == 404

    def test_unknown_tenant_is_404(self, base):
        assert _call(f"{base}/tenants/ghost/queries", "POST",
                     {"sql": "SELECT 1"})[0] == 404

    def test_syntax_error_rejected_at_admission(self, base):
        _load_tenant(base, "t-syn", [1.0])
        status, payload = _call(f"{base}/tenants/t-syn/queries", "POST",
                                {"sql": "SELEC oops"})
        assert status == 400 and "syntax" in payload["error"].lower()

    def test_query_roundtrip_and_journal(self, base):
        _load_tenant(base, "t-run", [1.0, 2.0, 3.0])
        status, submitted = _call(f"{base}/tenants/t-run/queries", "POST",
                                  {"sql": MC_QUERY, "analysis": "loss"})
        assert status == 202
        record = _poll(base, submitted["query_id"])
        assert record["status"] == "done"
        assert record["analysis"] == {"name": "loss", "version": 1}
        assert record["queue_seconds"] >= 0
        assert record["run_seconds"] > 0
        dist = record["result"]["montecarlo"]["groups"][0]["aggregates"]
        assert dist["sum0"]["n"] == 20

        # A second run of the same analysis becomes version 2; version 1
        # is immutable and still serves the original payload.
        record2 = _poll(base, _call(f"{base}/tenants/t-run/queries", "POST",
                                    {"sql": MC_QUERY, "analysis": "loss"}
                                    )[1]["query_id"])
        assert record2["analysis"]["version"] == 2
        _, v1 = _call(f"{base}/tenants/t-run/analyses/loss/versions/1")
        assert v1["result"] == record["result"]
        assert v1["query_id"] == record["query_id"]
        assert set(v1["table_versions"]) == {"means", "losses"}

        _, listing = _call(f"{base}/tenants/t-run/analyses")
        entry = next(e for e in listing["analyses"] if e["name"] == "loss")
        assert entry["versions"] == 2
        assert entry["committed_versions"] == []

        # Commit is explicit, per version, and idempotent.
        _, committed = _call(
            f"{base}/tenants/t-run/analyses/loss/versions/1/commit", "POST")
        again = _call(
            f"{base}/tenants/t-run/analyses/loss/versions/1/commit",
            "POST")[1]
        assert committed["committed_at"] == again["committed_at"]
        _, v1 = _call(f"{base}/tenants/t-run/analyses/loss/versions/1")
        assert v1["committed"] is True
        _, v2 = _call(f"{base}/tenants/t-run/analyses/loss/versions/2")
        assert v2["committed"] is False
        assert _call(f"{base}/tenants/t-run/analyses/loss/versions/3")[0] \
            == 404
        assert _call(f"{base}/tenants/t-run/analyses/nope/versions")[0] \
            == 404

    def test_unknown_query_id_is_404(self, base):
        assert _call(f"{base}/queries/{'0' * 32}")[0] == 404

    def test_stats_surface(self, base):
        _, stats = _call(f"{base}/stats")
        assert stats["server"]["concurrency"] == 2
        assert stats["counters"]["completed"] >= 1
        assert any("det_cache" in entry for entry in stats["tenants"])


class TestAdmission:
    """Queue-overflow and deadline behavior, driven deterministically:
    holding a tenant session's single-flight lock stalls its queries
    exactly as a long-running statement would."""

    def _service(self, **knobs):
        service = RiskService(options=ExecutionOptions(),
                              server_options=ServerOptions(**knobs))
        service.start()
        state, _ = service.registry.create("t")
        state.session.add_table("means", {"CID": [0], "m": [1.0]})
        state.session.execute(CREATE_LOSSES)
        return service, state

    def test_full_queue_answers_429(self):
        service, state = self._service(concurrency=1, queue_depth=1,
                                       query_timeout=None)
        try:
            with state.session._execute_lock:
                first = service.submit("t", {"sql": MC_QUERY})
                # Wait for the one runner to pick it up and block.
                deadline = time.monotonic() + 5
                while first.status != "running" \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert first.status == "running"
                queued = service.submit("t", {"sql": MC_QUERY})
                from repro.server.wire import ApiError
                with pytest.raises(ApiError) as info:
                    service.submit("t", {"sql": MC_QUERY})
                assert info.value.status == 429
                assert service.counters["rejected"] == 1
                # The rejected query left no record behind.
                assert len(service._queries) == 2
            # Lock released: both admitted queries drain to completion.
            for record in (first, queued):
                deadline = time.monotonic() + 30
                while record.status != "done" \
                        and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert record.status == "done"
        finally:
            service.stop()

    def test_deadline_exceeded_reports_timeout_and_drops_result(self):
        service, state = self._service(concurrency=1, queue_depth=4,
                                       query_timeout=0.2)
        try:
            with state.session._execute_lock:
                record = service.submit(
                    "t", {"sql": MC_QUERY, "analysis": "late"})
                deadline = time.monotonic() + 5
                while record.status in ("queued", "running") \
                        and time.monotonic() < deadline:
                    time.sleep(0.02)
            assert record.status == "timeout"
            assert "deadline" in record.error
            assert service.counters["timeouts"] == 1
            # The lock is free now; the orphaned helper finishes the
            # engine call but must not resurrect the record or journal
            # an analysis version.
            time.sleep(0.5)
            assert record.status == "timeout"
            assert record.result is None
            assert all(entry["name"] != "late"
                       for entry in state.journal.names())
        finally:
            service.stop()

    def test_per_query_timeout_override(self):
        service, state = self._service(concurrency=1, queue_depth=4,
                                       query_timeout=None)
        try:
            record = service.submit("t", {"sql": MC_QUERY, "timeout": 60})
            assert record.timeout == 60
            from repro.server.wire import ApiError
            with pytest.raises(ApiError) as info:
                service.submit("t", {"sql": MC_QUERY, "timeout": -1})
            assert info.value.status == 400
        finally:
            service.stop()


class TestListenBacklog:
    """A burst of fresh connections while the server's accept loop is
    busy — here, before it runs at all — waits in the listen backlog.
    Past the backlog a SYN is dropped, and its client waits out TCP's
    1 s retry; the stdlib backlog is 5."""

    CLIENTS = 16

    def test_burst_of_fresh_connections_never_waits_a_retry(self):
        server = RiskServer(options=ExecutionOptions())
        seconds, errors = [0.0] * self.CLIENTS, []
        ready = threading.Barrier(self.CLIENTS + 1)

        def client(index):
            ready.wait()
            started = time.perf_counter()
            try:
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=10)
                connection.request("GET", "/healthz")
                assert connection.getresponse().status == 200
                connection.close()
            except Exception as exc:  # reported below
                errors.append(exc)
            seconds[index] = time.perf_counter() - started

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        try:
            ready.wait()
            time.sleep(0.3)  # every handshake arrives before an accept
        finally:
            with server:
                for thread in threads:
                    thread.join(timeout=15)
        assert not errors
        assert max(seconds) < 0.9, sorted(seconds)


class TestTenantIsolation:
    def test_same_sql_same_names_different_data(self, base):
        """Two tenants run byte-identical statements over same-named
        tables; plan fingerprints are equal, yet each tenant sees only
        its own data — per-session det-caches cannot collide."""
        _load_tenant(base, "iso-a", [1.0] * 6, seed=7)
        _load_tenant(base, "iso-b", [10.0] * 6, seed=7)
        means = {}
        for tenant in ("iso-a", "iso-b"):
            record = _poll(base, _call(
                f"{base}/tenants/{tenant}/queries", "POST",
                {"sql": MC_QUERY})[1]["query_id"])
            assert record["status"] == "done"
            groups = record["result"]["montecarlo"]["groups"]
            means[tenant] = groups[0]["aggregates"]["sum0"]["mean"]
        assert abs(means["iso-a"] - 6.0) < 3.0
        assert abs(means["iso-b"] - 60.0) < 9.0

    def test_det_caches_are_disjoint_per_tenant(self, server, base):
        _load_tenant(base, "iso-c", [1.0, 2.0])
        _load_tenant(base, "iso-d", [3.0, 4.0])
        registry = server.service.registry
        cache_c = registry.get("iso-c").session.det_cache
        cache_d = registry.get("iso-d").session.det_cache
        assert cache_c is not cache_d
        # Deterministic sub-plan sharing happens within a tenant: the
        # second identical statement hits the tenant's own cache.
        for tenant in ("iso-c", "iso-d"):
            for _ in range(2):
                record = _poll(base, _call(
                    f"{base}/tenants/{tenant}/queries", "POST",
                    {"sql": "SELECT SUM(m) FROM means"})[1]["query_id"])
                assert record["status"] == "done"
        assert registry.get("iso-c").session.det_cache.stats()["hits"] >= 1
        assert registry.get("iso-d").session.det_cache.stats()["hits"] >= 1


class TestEviction:
    def test_eviction_frees_cached_relations(self, server, base):
        """Satellite: evicting a tenant must free its cached relations
        immediately — no cross-tenant survivors."""
        _load_tenant(base, "evict-me", [1.0, 2.0])
        _load_tenant(base, "survivor", [1.0, 2.0])
        registry = server.service.registry
        for tenant in ("evict-me", "survivor"):
            record = _poll(base, _call(
                f"{base}/tenants/{tenant}/queries", "POST",
                {"sql": "SELECT SUM(m) FROM means"})[1]["query_id"])
            assert record["status"] == "done"
        evicted = registry.get("evict-me").session
        assert len(evicted.det_cache) > 0
        assert _call(f"{base}/tenants/evict-me", "DELETE")[0] == 200
        # The evicted session's relations are gone and its backend is
        # detached; the surviving tenant's cache is untouched.
        assert len(evicted.det_cache) == 0
        assert evicted.backend is None
        assert len(registry.get("survivor").session.det_cache) > 0
        assert _call(f"{base}/tenants/evict-me/queries", "POST",
                     {"sql": "SELECT SUM(m) FROM means"})[0] == 404

    def test_evict_racing_a_standing_refresh_leaves_no_trace(
            self, monkeypatch):
        """Fault drill: a standing refresh that finishes after its tenant
        was evicted must not journal a version, count a refresh or
        revive the dropped record — and the drainer keeps draining."""
        threads_before = set(threading.enumerate())
        service = RiskService(options=ExecutionOptions(),
                              server_options=ServerOptions(concurrency=1))
        service.start()
        try:
            for tenant in ("doomed", "other"):
                state, _ = service.registry.create(tenant)
                state.session.add_table("means", {"CID": [0, 1, 2],
                                                  "m": [1.0, 2.0, 3.0]})
                state.session.execute(CREATE_LOSSES)
            doomed = service.registry.get("doomed")
            record = service.register_standing(
                "doomed", {"sql": MC_QUERY, "analysis": "loss"})
            assert doomed.journal.wait_version("loss", 0, 30) is not None
            _wait_idle(record)
            refreshes = service.counters["standing_refreshes"]
            seen = (record.status, record.refreshes, record.versions)

            entered, release = threading.Event(), threading.Event()
            refresh = StandingQuery.refresh

            def parked(query):
                entered.set()
                assert release.wait(30)
                return refresh(query)

            monkeypatch.setattr(StandingQuery, "refresh", parked)
            doomed.session.append("means", {"CID": [3], "m": [4.0]})
            assert service.notify_append("doomed") == 1
            assert entered.wait(30)
            service.evict_tenant("doomed")
            release.set()
            _wait_idle(record)

            assert len(doomed.journal.versions("loss")) == 1
            assert service.counters["standing_refreshes"] == refreshes
            assert service.counters["standing_errors"] == 0
            assert (record.status, record.refreshes, record.versions) == seen
            with pytest.raises(ApiError):
                service.standing(record.standing_id)

            other = service.registry.get("other")
            service.register_standing(
                "other", {"sql": MC_QUERY, "analysis": "loss"})
            assert other.journal.wait_version("loss", 0, 30) is not None
        finally:
            service.stop()
        deadline = time.monotonic() + 5
        while set(threading.enumerate()) - threads_before \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not set(threading.enumerate()) - threads_before


class TestAppendRacingEvict:
    """Fault drill: appends keep arriving while their tenant is evicted.

    Each reply is a 200 (the append landed before the eviction) or a 404
    (the tenant is gone), never a 500.  Afterwards the evicted tenant
    answers 404, its journal gains no version, no ``/dev/shm`` segment or
    worker process outlives the server, and the standing drainer keeps
    serving the other tenant."""

    def test_append_racing_an_evict_is_200_or_404(self):
        from multiprocessing import active_children
        from repro.engine.shm import leaked_segments
        segments_before = set(leaked_segments())
        children_before = set(active_children())
        with RiskServer(options=ExecutionOptions(n_jobs=2,
                                                 backend="process"),
                        server_options=ServerOptions(concurrency=2)) as live:
            base, service = live.url, live.service
            standing = {}
            for tenant in ("racer", "bystander"):
                _load_tenant(base, tenant, [1.0, 2.0, 3.0])
                status, wire = _call(f"{base}/tenants/{tenant}/standing",
                                     "POST", {"sql": MC_QUERY,
                                              "analysis": "loss"})
                assert status == 202
                standing[tenant] = wire["standing_id"]
                _, polled = _call(f"{base}/tenants/{tenant}/standing/"
                                  f"{wire['standing_id']}?wait=30")
                assert polled["record"]["version"] == 1
            racer = service.registry.get("racer")

            statuses, landed = [], threading.Event()

            def append_until_gone(worker):
                for row in range(200):
                    status, _ = _call(
                        f"{base}/tenants/racer/tables/means/rows", "POST",
                        {"columns": {"CID": [100 * worker + row + 3],
                                     "m": [1.5]}})
                    statuses.append(status)
                    if status == 200:
                        landed.set()
                    if status == 404:
                        return

            appenders = [threading.Thread(target=append_until_gone,
                                          args=(worker,))
                         for worker in range(2)]
            for thread in appenders:
                thread.start()
            assert landed.wait(30)
            assert _call(f"{base}/tenants/racer", "DELETE")[0] == 200
            versions_at_evict = len(racer.journal.versions("loss"))
            for thread in appenders:
                thread.join(60)

            assert set(statuses) <= {200, 404}, statuses
            assert statuses.count(404) == 2  # each appender saw it go
            assert _call(f"{base}/tenants/racer/analyses")[0] == 404
            assert _call(f"{base}/tenants/racer/standing/"
                         f"{standing['racer']}")[0] == 404
            # One drainer serves every tenant in order: once the
            # bystander's refresh has landed, every racer refresh queued
            # before it has run (or been skipped) too.
            status, _ = _call(f"{base}/tenants/bystander/tables/means/rows",
                              "POST", {"columns": {"CID": [3], "m": [4.0]}})
            assert status == 200
            _, polled = _call(f"{base}/tenants/bystander/standing/"
                              f"{standing['bystander']}?wait=30&after=1")
            assert polled["record"]["version"] == 2
            assert len(racer.journal.versions("loss")) == versions_at_evict
        assert set(leaked_segments()) <= segments_before
        deadline = time.monotonic() + 10
        while set(active_children()) - children_before \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not set(active_children()) - children_before


def _fresh_payload(means, sql, seed=11):
    """The wire payload a fresh session computes for ``sql`` on ``means``,
    as it reads after a JSON round trip."""
    with Session(base_seed=seed) as session:
        session.add_table("means", {"CID": list(range(len(means))),
                                    "m": list(means)})
        session.execute(CREATE_LOSSES)
        return json.loads(json.dumps(output_to_wire(session.execute(sql))))


def _wait_standing(base, tenant, standing_id, after):
    """Long-poll until the standing query journals version ``after + 1``."""
    _, polled = _call(f"{base}/tenants/{tenant}/standing/{standing_id}"
                      f"?wait=30&after={after}")
    return polled["record"]


def _run_query(base, tenant, sql):
    _, wire = _call(f"{base}/tenants/{tenant}/queries", "POST", {"sql": sql})
    return _poll(base, wire["query_id"])


class TestKillDuringStandingRefresh:
    """Fault drill: a pool worker is SIGKILLed while a process-backend
    standing Monte Carlo refresh runs.

    A standing MC refresh runs the plan over the appended rows and folds
    them in-process; it never dispatches to the pool, so the kill cannot
    tear it: the refresh journals a version equal to a fresh session on
    the grown table and counts no standing error.  The dead worker surfaces at the next
    sharded query, as status ``"error"`` carrying the ``EngineError``
    text; the query after it respawns the pool.  The standing drainer
    keeps serving the other tenant, the next append + refresh has no torn
    fold state, and no child process or ``/dev/shm`` segment outlives the
    server."""

    def test_kill_during_standing_mc_refresh(self, monkeypatch):
        from multiprocessing import active_children
        from repro.engine.shm import leaked_segments
        segments_before = set(leaked_segments())
        children_before = set(active_children())
        means = {"victim": [1.0, 2.0, 3.0], "bystander": [1.0, 2.0, 3.0]}
        with RiskServer(options=ExecutionOptions(n_jobs=2,
                                                 backend="process"),
                        server_options=ServerOptions(concurrency=2)) as live:
            base, service = live.url, live.service

            def append(tenant, m):
                means[tenant].append(m)
                status, _ = _call(
                    f"{base}/tenants/{tenant}/tables/means/rows", "POST",
                    {"columns": {"CID": [len(means[tenant]) - 1],
                                 "m": [m]}})
                assert status == 200

            standing = {}
            for tenant in means:
                _load_tenant(base, tenant, means[tenant])
                status, wire = _call(f"{base}/tenants/{tenant}/standing",
                                     "POST", {"sql": MC_QUERY,
                                              "analysis": "loss"})
                assert status == 202
                standing[tenant] = wire["standing_id"]
                assert _wait_standing(base, tenant, wire["standing_id"],
                                      0)["version"] == 1
            # One sharded ad-hoc query spawns the shared pool.
            assert _run_query(base, "victim", MC_QUERY)["status"] == "done"
            pool = service.pool.inner
            assert pool.workers_alive == 2
            errors = dict(service.counters)

            entered, release = threading.Event(), threading.Event()
            refresh = StandingQuery.refresh

            def parked(query):
                entered.set()
                assert release.wait(30)
                return refresh(query)

            monkeypatch.setattr(StandingQuery, "refresh", parked)
            append("victim", 4.0)
            assert entered.wait(30)
            victim = pool._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            assert not victim.is_alive()
            release.set()
            record = _wait_standing(base, "victim", standing["victim"], 1)
            monkeypatch.undo()
            assert record["version"] == 2
            assert record["result"] == _fresh_payload(means["victim"],
                                                      MC_QUERY)
            _, polled = _call(f"{base}/tenants/victim/standing/"
                              f"{standing['victim']}")
            assert polled["standing"]["status"] == "live"
            assert service.counters["standing_errors"] == \
                errors["standing_errors"]

            failed = _run_query(base, "victim", MC_QUERY)
            assert failed["status"] == "error", failed
            assert "shard worker process died" in failed["error"]
            assert service.counters["errors"] == errors["errors"] + 1
            assert pool.workers_alive == 0
            recovered = _run_query(base, "victim", MC_QUERY)
            assert recovered["status"] == "done"
            assert recovered["result"] == _fresh_payload(means["victim"],
                                                         MC_QUERY)
            assert pool.workers_alive == 2

            append("bystander", 0.5)
            record = _wait_standing(base, "bystander",
                                    standing["bystander"], 1)
            assert record["result"] == _fresh_payload(means["bystander"],
                                                      MC_QUERY)
            append("victim", 2.5)
            record = _wait_standing(base, "victim", standing["victim"], 2)
            assert record["version"] == 3
            assert record["result"] == _fresh_payload(means["victim"],
                                                      MC_QUERY)
            assert service.counters["standing_errors"] == \
                errors["standing_errors"]
        assert set(leaked_segments()) <= segments_before
        deadline = time.monotonic() + 10
        while set(active_children()) - children_before \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not set(active_children()) - children_before


def _raw_request(server, path, body=b"", headers=None, method="POST"):
    """Send ``body`` with hand-set headers (a lying ``Content-Length``
    included); returns ``(status, payload, Connection header)``.  The
    socket timeout turns a handler that hangs into a failure."""
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=10)
    try:
        connection.putrequest(method, path)
        fields = {"Content-Type": "application/json",
                  "Content-Length": str(len(body)), **(headers or {})}
        for name, value in fields.items():
            connection.putheader(name, value)
        connection.endheaders(body or None)
        response = connection.getresponse()
        return (response.status, json.loads(response.read()),
                response.getheader("Connection"))
    finally:
        connection.close()


_NO_ID = "0" * 32  # well-formed but unknown query/standing id


class TestMalformedBodies:
    """Fault drill: garbage, wrong-type and oversize request bodies — and
    non-finite long-poll budgets — get a typed 4xx — never a 500, a hung
    handler thread or a half-built tenant — and the standing drainer
    keeps draining afterwards."""

    @pytest.mark.parametrize("path, body, headers, status", [
        ("/tenants/t", b"", {"Content-Length": "abc"}, 400),
        ("/tenants/t", b"", {"Content-Length": "-1"}, 400),
        ("/tenants/t", b"", {"Content-Length": str(_MAX_BODY_BYTES + 1)},
         413),
        ("/tenants/t", b"{not json", None, 400),
        ("/tenants/t", b"\xff\xfe", None, 400),
        ("/tenants/t", b"[1, 2]", None, 400),
        ("/tenants/live/tables", b"[1, 2]", None, 400),
        ("/tenants/live/queries", b'"SELECT 1"', None, 400),
        ("/tenants/live/standing", b"[]", None, 400),
        ("/tenants/t", b'{"window": "abc"}', None, 400),
        ("/tenants/t", b'{"window": 0}', None, 400),
        ("/tenants/t", b'{"tail_budget": 1.5}', None, 400),
        ("/tenants/t", b'{"gibbs_steps": true}', None, 400),
        ("/tenants/t", b'{"base_seed": -1}', None, 400),
        (f"GET /queries/{_NO_ID}?wait=nan", b"", None, 400),
        (f"GET /queries/{_NO_ID}?wait=inf", b"", None, 400),
        (f"GET /tenants/live/standing/{_NO_ID}?wait=nan", b"", None, 400),
        (f"GET /tenants/live/standing/{_NO_ID}?wait=-inf", b"", None,
         400),
    ], ids=[
        "non-integer-length", "negative-length", "oversize",
        "garbage-json", "not-utf8", "array-tenant-config",
        "array-table-body", "string-query-body", "array-standing-body",
        "string-window", "zero-window", "float-tail-budget",
        "bool-gibbs-steps", "negative-base-seed",
        "nan-query-wait", "inf-query-wait", "nan-standing-wait",
        "minus-inf-standing-wait",
    ])
    def test_bad_body_is_a_typed_4xx(self, path, body, headers, status):
        method, _, path = path.rpartition(" ")
        threads_before = set(threading.enumerate())
        server = RiskServer(options=ExecutionOptions(),
                            server_options=ServerOptions(concurrency=1))
        server.start()
        try:
            state, _ = server.service.registry.create("live")
            state.session.add_table("means", {"CID": [0, 1, 2],
                                              "m": [1.0, 2.0, 3.0]})
            state.session.execute(CREATE_LOSSES)

            got, payload, connection = _raw_request(
                server, path, body, headers, method or "POST")
            assert (got, payload["status"]) == (status, status)
            if headers:  # the unread body must not become a request
                assert connection == "close"
            assert _call(f"{server.url}/tenants")[1]["tenants"] == ["live"]

            record = server.service.register_standing(
                "live", {"sql": MC_QUERY, "analysis": "loss"})
            assert state.journal.wait_version("loss", 0, 30) is not None
            _wait_idle(record)
            assert record.status == "live"
        finally:
            server.stop()
        deadline = time.monotonic() + 5
        while set(threading.enumerate()) - threads_before \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not set(threading.enumerate()) - threads_before


class TestClientHangsUpMidLongPoll:
    """Fault drill: a client closes its socket while its long-poll is
    parked.  When the wait ends nobody is left to answer, so the handler
    drops the connection — no traceback reaches stderr, no handler
    thread outlives the server, and the standing drainer and the next
    connection are served."""

    @pytest.mark.parametrize("endpoint", ["query", "standing"])
    def test_hang_up_drops_the_connection(self, endpoint, capfd):
        threads_before = set(threading.enumerate())
        server = RiskServer(options=ExecutionOptions(),
                            server_options=ServerOptions(concurrency=1))
        server.start()
        try:
            state, _ = server.service.registry.create("live")
            state.session.add_table("means", {"CID": [0, 1, 2],
                                              "m": [1.0, 2.0, 3.0]})
            state.session.execute(CREATE_LOSSES)
            standing = server.service.register_standing(
                "live", {"sql": MC_QUERY, "analysis": "loss"})
            assert state.journal.wait_version("loss", 0, 30) is not None
            _wait_idle(standing)
            with state.session._execute_lock:
                if endpoint == "query":
                    # Held lock: the query cannot settle during the wait.
                    record = server.service.submit("live",
                                                   {"sql": MC_QUERY})
                    path = f"/queries/{record.query_id}?wait=0.5"
                else:  # no version past 1 arrives during the wait
                    path = (f"/tenants/live/standing/"
                            f"{standing.standing_id}?wait=0.5&after=1")
                client = socket.create_connection((server.host,
                                                   server.port))
                client.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                               "\r\n".encode())
                time.sleep(0.1)  # the handler parks in its wait
                # Linger 0: close() resets the connection, so the
                # handler's reply meets a dead socket.
                client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                  struct.pack("ii", 1, 0))
                client.close()
                time.sleep(1.0)  # the wait ends and the reply fails
            assert _call(f"{server.url}/healthz") == (200, {"ok": True})
            after = server.service.register_standing(
                "live", {"sql": MC_QUERY, "analysis": "after"})
            assert state.journal.wait_version("after", 0, 30) is not None
            _wait_idle(after)
        finally:
            server.stop()
        deadline = time.monotonic() + 5
        while set(threading.enumerate()) - threads_before \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not set(threading.enumerate()) - threads_before
        assert "Traceback" not in capfd.readouterr().err


def _wait_idle(record, deadline=30.0):
    """Until the standing drainer is neither running nor queued for it."""
    end = time.monotonic() + deadline
    while (record.running or record.queued) and time.monotonic() < end:
        time.sleep(0.01)
    assert not (record.running or record.queued)


def _loss_session(**kwargs):
    session = Session(base_seed=11, **kwargs)
    session.add_table("means",
                      {"CID": np.arange(10), "m": np.linspace(1, 2, 10)})
    session.execute(CREATE_LOSSES)
    return session


class TestConcurrentExecute:
    def test_threads_sharing_one_session_get_serial_results(self):
        """Satellite: ``Session.execute`` is single-flight (documented
        re-entrancy contract) — concurrent callers from many threads get
        results bit-identical to a serial run of the same statements."""
        statements = [MC_QUERY,
                      "SELECT SUM(m) FROM means",
                      "SELECT AVG(val) FROM Losses "
                      "WITH RESULTDISTRIBUTION MONTECARLO(10)"]

        def samples_of(output):
            if output.kind == "montecarlo":
                by_name = output.distributions.aggregates(())
                return {name: by_name[name].samples.tolist()
                        for name in sorted(by_name)}
            return [row for row in output.rows.rows()]

        with _loss_session() as reference:
            serial = [samples_of(reference.execute(sql))
                      for sql in statements]

        with _loss_session() as shared_session:
            results = {}
            errors = []

            def worker(index):
                try:
                    local = []
                    for sql in statements:
                        local.append(samples_of(shared_session.execute(sql)))
                    results[index] = local
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == 4
            for local in results.values():
                assert local == serial


class TestOptionsProperty:
    def test_rejects_non_options(self):
        with _loss_session() as session:
            with pytest.raises(EngineError, match="ExecutionOptions"):
                session.options = {"n_jobs": 2}

    def test_pool_knob_change_closes_owned_pool(self):
        with _loss_session(
                options=ExecutionOptions(n_jobs=2,
                                         backend="thread")) as session:
            before = session.execute(MC_QUERY)
            assert session.backend is not None
            session.options = ExecutionOptions(n_jobs=3, backend="thread")
            assert session.backend is None  # respawns lazily, resized
            after = session.execute(MC_QUERY)
            assert session.backend is not None
            by_name = before.distributions.aggregates(())
            for name, dist in by_name.items():
                np.testing.assert_array_equal(
                    dist.samples,
                    after.distributions.aggregates(())[name].samples)

    def test_non_pool_knob_change_keeps_pool(self):
        with _loss_session(
                options=ExecutionOptions(n_jobs=2,
                                         backend="thread")) as session:
            session.execute(MC_QUERY)
            pool = session.backend
            session.options = ExecutionOptions(
                n_jobs=2, backend="thread", det_cache="off")
            assert session.backend is pool

    def test_shared_backend_refuses_pool_knob_change(self):
        options = ExecutionOptions(n_jobs=2, backend="thread")
        pool = SharedBackend(make_backend(options))
        try:
            with _loss_session(options=options,
                               shared_backend=pool) as session:
                with pytest.raises(EngineError, match="shared backend"):
                    session.options = ExecutionOptions(n_jobs=4,
                                                       backend="thread")
                # Non-pool knobs are still assignable.
                session.options = ExecutionOptions(
                    n_jobs=2, backend="thread", det_cache="off")
        finally:
            pool.close()


class TestSharedBackend:
    def test_cannot_nest(self):
        options = ExecutionOptions(n_jobs=2, backend="thread")
        pool = SharedBackend(make_backend(options))
        try:
            with pytest.raises(ValueError, match="wrap"):
                SharedBackend(pool)
        finally:
            pool.close()

    def test_two_sessions_one_pool_bit_identical(self):
        options = ExecutionOptions(n_jobs=2, backend="thread")
        with _loss_session(options=options) as owner:
            expected = owner.execute(MC_QUERY) \
                .distributions.aggregates(())["sum0"].samples
        pool = SharedBackend(make_backend(options))
        try:
            with _loss_session(options=options, shared_backend=pool) as a, \
                    _loss_session(options=options,
                                  shared_backend=pool) as b:
                for session in (a, b):
                    got = session.execute(MC_QUERY) \
                        .distributions.aggregates(())["sum0"].samples
                    np.testing.assert_array_equal(got, expected)
                # Closing a borrower must not kill the shared pool.
                a.close()
                still = b.execute(MC_QUERY) \
                    .distributions.aggregates(())["sum0"].samples
                np.testing.assert_array_equal(still, expected)
        finally:
            pool.close()
