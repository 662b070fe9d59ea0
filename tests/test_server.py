"""Tests for the risk service (repro.server) and its session lifecycle.

Covers the HTTP surface end to end (real sockets via urllib against an
ephemeral-port server), the admission queue's 429/timeout behavior
(driven deterministically by holding a tenant session's single-flight
lock), cross-tenant isolation, tenant eviction, the ``Session.options``
property, and the concurrent-``execute`` bit-identity contract.
"""

import http.client
import json
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
from repro.sql import Session

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

    def test_keying_change_flushes_det_cache(self):
        with _loss_session() as session:
            session.execute("SELECT SUM(m) FROM means")
            session.execute("SELECT SUM(m) FROM means")
            assert len(session.det_cache) > 0
            session.options = ExecutionOptions(det_cache_keying="catalog")
            assert len(session.det_cache) == 0
            assert session.det_cache.keying == "catalog"

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
                n_jobs=2, backend="thread", engine="reference")
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
                    n_jobs=2, backend="thread", engine="reference")
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
