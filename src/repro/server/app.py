"""The risk service: a multi-tenant HTTP front end on one worker pool.

MCDB-R positions tail queries as something an analyst *service* runs all
day, not a one-shot script: many analysts, one warehouse, shared compute.
This module is that front end, stdlib-only (``http.server`` +
``ThreadingHTTPServer``, JSON wire):

* **One pool, many tenants.**  The server owns a single
  process-backend worker pool (wrapped in
  :class:`~repro.engine.backends.SharedBackend`) and multiplexes every
  tenant's sharded work onto it.  Tenants stay isolated where it
  matters — catalog, det-cache, journal are per-tenant — and share where
  it pays — worker processes and their warm state plane.
* **Bounded admission.**  Queries enter a bounded queue
  (:class:`~repro.engine.options.ServerOptions`: ``concurrency`` runner
  threads, ``queue_depth`` waiting slots).  A full queue answers **429**
  immediately instead of letting latency grow without bound, and every
  admitted query carries an admission-to-result deadline
  (``query_timeout``) — exceeded deadlines report status ``"timeout"``
  and the late result is discarded.
* **Audited results.**  Every run that completes is journaled as an
  immutable versioned analysis record (:mod:`repro.server.records`)
  before its status flips to ``"done"``.

Lifecycle of one query::

    POST /tenants/{t}/queries
      └─ admission queue (≤ queue_depth; full → 429)
           └─ runner thread (≤ concurrency in flight)
                └─ Session.execute on the shared pool
                     ├─ deadline exceeded → status "timeout"
                     └─ done → journal analysis version → status "done"
                            GET /queries/{id} serves the payload
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import queue
import re
import threading
import time
import urllib.parse
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..engine.backends import SharedBackend, make_backend
from ..engine.errors import CatalogError, EngineError
from ..engine.options import ExecutionOptions, ServerOptions
from ..sql.lexer import SqlSyntaxError
from ..sql.parser import parse as parse_sql
from .records import UnknownAnalysisError
from .registry import TenantRegistry
from .wire import (ApiError, columns_from_wire, output_to_wire,
                   standing_to_wire)

__all__ = ["QueryRecord", "StandingRecord", "RiskService", "RiskServer"]

_STOP = object()  # admission-queue sentinel: one per runner at shutdown
#: Failures that are the request's, not the server's: a 400 whether they
#: surface in a handler or in a query that runs after the reply.
_CLIENT_ERRORS = (SqlSyntaxError, CatalogError, EngineError)


def _default_analysis_name(sql: str) -> str:
    """Stable name for unnamed analyses: re-running the same statement
    accumulates versions of one analysis instead of a pile of singletons."""
    digest = hashlib.sha1(" ".join(sql.split()).encode()).hexdigest()
    return f"q-{digest[:12]}"


class QueryRecord:
    """Mutable lifecycle record of one submitted query.

    All mutation happens under the owning service's query lock; status
    moves ``queued → running → done|error|timeout`` and whichever of the
    runner / the timeout watchdog transitions first wins — the loser's
    write is discarded, so a late result can never resurrect a query
    that already reported ``"timeout"``.
    """

    __slots__ = ("query_id", "tenant", "sql", "analysis_name", "timeout",
                 "status", "submitted_at", "_submitted_mono",
                 "queue_seconds", "run_seconds", "total_seconds",
                 "result", "error", "error_status", "analysis", "settled")

    def __init__(self, tenant: str, sql: str, analysis_name: str,
                 timeout: float | None):
        self.query_id = uuid.uuid4().hex
        self.tenant = tenant
        self.sql = sql
        self.analysis_name = analysis_name
        self.timeout = timeout
        self.status = "queued"
        self.submitted_at = time.time()
        self._submitted_mono = time.monotonic()
        self.queue_seconds = None
        self.run_seconds = None
        self.total_seconds = None
        self.result = None
        self.error = None
        #: The HTTP status the error maps to (400 for a typed client
        #: error, 500 otherwise), as the handlers map a synchronous one.
        self.error_status = None
        self.analysis = None  # {"name": ..., "version": ...} once journaled
        #: Set exactly once, when status leaves queued/running — lets
        #: ``GET /queries/{id}?wait=s`` long-poll instead of spinning.
        self.settled = threading.Event()

    def deadline(self) -> float | None:
        if self.timeout is None:
            return None
        return self._submitted_mono + self.timeout

    def to_wire(self) -> dict:
        payload = {
            "query_id": self.query_id,
            "tenant": self.tenant,
            "sql": self.sql,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "timeout": self.timeout,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "total_seconds": self.total_seconds,
            "analysis": self.analysis,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        if self.error_status is not None:
            payload["error_status"] = self.error_status
        return payload


class StandingRecord:
    """Service-side registration of one tenant standing query.

    Lifecycle flags (all under the service's query lock): ``dirty`` means
    data moved since the last refresh started, ``queued`` that a refresh
    is waiting in the standing queue, ``running`` that one is executing
    now.  An append during a running refresh sets ``dirty``; the runner
    re-enqueues on completion, so no append is ever silently skipped and
    each standing id has at most one queued entry at a time.  Results are
    never stored here — every refresh journals an immutable
    ``AnalysisJournal`` version, which is also what the long-poll serves.
    """

    __slots__ = ("standing_id", "tenant", "sql", "analysis_name", "status",
                 "created_at", "refreshes", "versions", "last_mode",
                 "last_rows_computed", "last_rows_reused",
                 "last_error", "query", "dirty", "queued", "running")

    def __init__(self, tenant: str, sql: str, analysis_name: str):
        self.standing_id = uuid.uuid4().hex
        self.tenant = tenant
        self.sql = sql
        self.analysis_name = analysis_name
        self.status = "pending"        # pending | live | error
        self.created_at = time.time()
        self.refreshes = 0             # journaled runs (initial included)
        self.versions = 0              # latest journal version
        self.last_mode = None          # initial | delta | full | noop
        self.last_rows_computed = 0    # StandingQuery.stats() of the
        self.last_rows_reused = 0      # last refresh that completed
        self.last_error = None
        self.query = None              # Session.standing_query handle
        self.dirty = False
        self.queued = False
        self.running = False


class RiskService:
    """Engine-facing core of the server (HTTP-free, directly testable)."""

    def __init__(self, options: ExecutionOptions | None = None,
                 server_options: ServerOptions | None = None,
                 base_seed: int = 0):
        self.options = options if options is not None \
            else ExecutionOptions.from_env()
        self.server_options = server_options if server_options is not None \
            else ServerOptions.from_env()
        # The one pool.  Serial configurations (n_jobs == 1) need none:
        # sessions execute inline and the service is still fully
        # functional — just without shard parallelism.
        self.pool = SharedBackend(make_backend(self.options)) \
            if self.options.sharded else None
        self.registry = TenantRegistry(
            self.options, shared_backend=self.pool, base_seed=base_seed)
        self._queue: queue.Queue = queue.Queue(
            maxsize=self.server_options.queue_depth)
        self._qlock = threading.Lock()
        self._queries: dict[str, QueryRecord] = {}
        self._runners: list[threading.Thread] = []
        # Standing queries run on their own single drainer thread — a
        # refresh must never compete with ad-hoc queries for the bounded
        # admission queue, and one thread per service trivially gives
        # each tenant's journal strictly ordered standing versions.
        self._standing: dict[str, StandingRecord] = {}
        self._standing_queue: queue.Queue = queue.Queue()
        self._standing_thread: threading.Thread | None = None
        self._started = False
        self.counters = {"submitted": 0, "completed": 0, "rejected": 0,
                         "timeouts": 0, "errors": 0,
                         "standing_refreshes": 0, "standing_errors": 0}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.server_options.concurrency):
            thread = threading.Thread(
                target=self._runner_loop, name=f"risk-runner-{index}",
                daemon=True)
            thread.start()
            self._runners.append(thread)
        self._standing_thread = threading.Thread(
            target=self._standing_loop, name="risk-standing", daemon=True)
        self._standing_thread.start()

    def stop(self) -> None:
        if self._started:
            for _ in self._runners:
                self._queue.put(_STOP)
            for thread in self._runners:
                thread.join(timeout=30.0)
            self._runners.clear()
            if self._standing_thread is not None:
                self._standing_queue.put(_STOP)
                self._standing_thread.join(timeout=30.0)
                self._standing_thread = None
            self._started = False
        self.registry.close()
        if self.pool is not None:
            self.pool.close()

    # -- admission ---------------------------------------------------------

    def submit(self, tenant_id: str, body) -> QueryRecord:
        """Admit one query or fail fast: 400 on bad SQL, 429 when full."""
        state = self.registry.get(tenant_id)
        if not isinstance(body, dict) or not isinstance(
                body.get("sql"), str) or not body["sql"].strip():
            raise ApiError(400, "body must carry a non-empty 'sql' string")
        sql = body["sql"]
        try:
            parse_sql(sql)  # reject syntax errors at the door, not async
        except SqlSyntaxError as exc:
            raise ApiError(400, f"SQL syntax error: {exc}") from None
        analysis_name = body.get("analysis") or _default_analysis_name(sql)
        if not isinstance(analysis_name, str) or len(analysis_name) > 200:
            raise ApiError(400, "'analysis' must be a short string")
        timeout = self.server_options.query_timeout
        if "timeout" in body:
            override = body["timeout"]
            if override is not None and (
                    not isinstance(override, (int, float))
                    or isinstance(override, bool) or override <= 0):
                raise ApiError(
                    400, "'timeout' must be a positive number of seconds "
                         "or null")
            timeout = override
        record = QueryRecord(tenant_id, sql, analysis_name, timeout)
        with self._qlock:
            self._queries[record.query_id] = record
            self.counters["submitted"] += 1
        try:
            self._queue.put_nowait((state, record))
        except queue.Full:
            with self._qlock:
                del self._queries[record.query_id]
                self.counters["submitted"] -= 1
                self.counters["rejected"] += 1
            raise ApiError(
                429, f"admission queue full "
                     f"({self.server_options.queue_depth} waiting); "
                     "retry later") from None
        return record

    def query(self, query_id: str) -> QueryRecord:
        with self._qlock:
            record = self._queries.get(query_id)
        if record is None:
            raise ApiError(404, f"unknown query {query_id!r}")
        return record

    # -- execution ---------------------------------------------------------

    def _runner_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            state, record = item
            try:
                self._run_one(state, record)
            except Exception as exc:  # defensive: a runner must not die
                self._transition(record, "error", error=repr(exc),
                                 error_status=500)

    def _transition(self, record: QueryRecord, status: str, *,
                    result=None, error=None, error_status=None,
                    analysis=None, started_mono=None) -> bool:
        """CAS a record out of its in-flight state; False if it lost."""
        now = time.monotonic()
        with self._qlock:
            if record.status not in ("queued", "running"):
                return False  # watchdog/runner race already settled
            record.status = status
            record.result = result
            record.error = error
            record.error_status = error_status
            record.analysis = analysis
            if started_mono is not None:
                record.run_seconds = now - started_mono
            record.total_seconds = now - record._submitted_mono
            if record.queue_seconds is None:
                record.queue_seconds = record.total_seconds
            key = {"done": "completed", "timeout": "timeouts",
                   "error": "errors"}[status]
            self.counters[key] += 1
            record.settled.set()
        return True

    def _complete(self, state, record: QueryRecord, kind: str, wire: dict,
                  versions: dict, started_mono: float) -> bool:
        """Journal + flip to "done" atomically, so a run that lost its
        deadline race can never leave an analysis version behind."""
        now = time.monotonic()
        with self._qlock:
            if record.status != "running":
                return False  # timed out meanwhile; drop the result
            entry = state.journal.record(
                record.analysis_name, record.query_id, record.sql,
                kind, wire, versions)
            record.status = "done"
            record.result = wire
            record.analysis = {"name": entry.name, "version": entry.version}
            record.run_seconds = now - started_mono
            record.total_seconds = now - record._submitted_mono
            self.counters["completed"] += 1
            state.queries += 1
            record.settled.set()
        return True

    def _run_one(self, state, record: QueryRecord) -> None:
        started = time.monotonic()
        deadline = record.deadline()
        if deadline is not None and started >= deadline:
            # The whole budget burned in the queue.
            self._transition(record, "timeout",
                             error="deadline exceeded while queued")
            return
        with self._qlock:
            record.status = "running"
            record.queue_seconds = started - record._submitted_mono
        done = threading.Event()

        def _execute() -> None:
            try:
                output = state.session.execute(record.sql)
                wire = output_to_wire(output)
                versions = state.table_versions()
            except Exception as exc:
                self._transition(
                    record, "error", error=f"{exc}", started_mono=started,
                    error_status=400 if isinstance(exc, _CLIENT_ERRORS)
                    else 500)
            else:
                self._complete(state, record, output.kind, wire, versions,
                               started)
            finally:
                done.set()

        # The execute runs in a helper so the runner can enforce the
        # deadline; on timeout the helper is orphaned (daemon) — it still
        # holds the tenant session's single-flight lock until the engine
        # returns, it just loses the status CAS and its result is
        # dropped.  Note the journal entry of a timed-out run is dropped
        # with it: only runs that *report* completion are versioned.
        if deadline is None:
            _execute()
            return
        helper = threading.Thread(
            target=_execute, name=f"risk-exec-{record.query_id[:8]}",
            daemon=True)
        helper.start()
        if not done.wait(timeout=deadline - started):
            self._transition(
                record, "timeout",
                error=f"query exceeded its {record.timeout:g}s "
                      "admission-to-result deadline",
                started_mono=started)

    # -- standing queries --------------------------------------------------

    def register_standing(self, tenant_id: str, body) -> StandingRecord:
        """Register one standing query; its initial run is scheduled
        immediately on the standing drainer (status flips ``pending`` →
        ``live`` once the first journal version lands)."""
        self.registry.get(tenant_id)  # existence check → 404
        if not isinstance(body, dict) or not isinstance(
                body.get("sql"), str) or not body["sql"].strip():
            raise ApiError(400, "body must carry a non-empty 'sql' string")
        sql = body["sql"]
        try:
            statement = parse_sql(sql)  # reject syntax errors at the door
        except SqlSyntaxError as exc:
            raise ApiError(400, f"SQL syntax error: {exc}") from None
        # Shape errors too: a standing query must be a risk SELECT (the
        # same contract Session.standing_query enforces) — failing async
        # would park the registration in "error" for a client mistake.
        spec = getattr(statement, "result_spec", None)
        if spec is None or spec.frequency_table:
            raise ApiError(
                400, "standing queries must be SELECTs with a WITH "
                     "RESULTDISTRIBUTION MONTECARLO(n) clause and no "
                     "FREQUENCYTABLE")
        analysis_name = body.get("analysis") \
            or f"standing-{_default_analysis_name(sql)[2:]}"
        if not isinstance(analysis_name, str) or len(analysis_name) > 200:
            raise ApiError(400, "'analysis' must be a short string")
        record = StandingRecord(tenant_id, sql, analysis_name)
        with self._qlock:
            self._standing[record.standing_id] = record
            record.queued = True
        self._standing_queue.put(record.standing_id)
        return record

    def standing(self, standing_id: str) -> StandingRecord:
        with self._qlock:
            record = self._standing.get(standing_id)
        if record is None:
            raise ApiError(404, f"unknown standing query {standing_id!r}")
        return record

    def standing_for(self, tenant_id: str) -> list[StandingRecord]:
        with self._qlock:
            return [record for record in self._standing.values()
                    if record.tenant == tenant_id]

    def drop_standing(self, standing_id: str) -> StandingRecord:
        with self._qlock:
            record = self._standing.pop(standing_id, None)
        if record is None:
            raise ApiError(404, f"unknown standing query {standing_id!r}")
        return record

    def poke_standing(self, standing_id: str) -> StandingRecord:
        """Schedule a refresh of one standing query (manual trigger)."""
        with self._qlock:
            record = self._standing.get(standing_id)
            if record is None:
                raise ApiError(
                    404, f"unknown standing query {standing_id!r}")
            record.dirty = True
            enqueue = not record.queued and not record.running
            if enqueue:
                record.queued = True
        if enqueue:
            self._standing_queue.put(standing_id)
        return record

    def notify_append(self, tenant_id: str) -> int:
        """Mark a tenant's standing queries dirty after an append.

        Called by the append endpoint *after* the rows landed (the
        session lock serialized that), so every scheduled refresh
        observes them.  Returns how many refreshes were enqueued; a
        record already queued or running is only marked — the drainer
        re-enqueues a dirty record itself when its run completes.
        """
        if not self.server_options.standing_autorefresh:
            return 0
        to_queue = []
        with self._qlock:
            for record in self._standing.values():
                if record.tenant != tenant_id:
                    continue
                record.dirty = True
                if not record.queued and not record.running:
                    record.queued = True
                    to_queue.append(record.standing_id)
        for standing_id in to_queue:
            self._standing_queue.put(standing_id)
        return len(to_queue)

    def evict_tenant(self, tenant_id: str) -> None:
        """Evict a tenant: its standing registrations die with it."""
        with self._qlock:
            doomed = [standing_id
                      for standing_id, record in self._standing.items()
                      if record.tenant == tenant_id]
            for standing_id in doomed:
                del self._standing[standing_id]
        self.registry.evict(tenant_id)

    def _standing_loop(self) -> None:
        while True:
            item = self._standing_queue.get()
            if item is _STOP:
                return
            with self._qlock:
                record = self._standing.get(item)
                if record is None:
                    continue  # dropped/evicted while queued
                record.queued = False
                record.dirty = False
                record.running = True
            requeue = False
            try:
                self._run_standing(record)
            except Exception as exc:  # the drainer must not die
                with self._qlock:
                    if self._registered(record):
                        record.status = "error"
                        record.last_error = f"{exc}"
                        self.counters["standing_errors"] += 1
            finally:
                with self._qlock:
                    record.running = False
                    requeue = (record.dirty
                               and record.standing_id in self._standing)
                    if requeue:
                        record.queued = True
            if requeue:
                self._standing_queue.put(record.standing_id)

    def _registered(self, record: StandingRecord) -> bool:
        """Whether ``record`` is still live; caller holds ``_qlock``.

        A refresh runs outside the lock, so the registration may have
        been dropped or its tenant evicted meanwhile — the result must
        then leave no trace: no journal version, no counter, no status.
        """
        return self._standing.get(record.standing_id) is record

    def _run_standing(self, record: StandingRecord) -> None:
        state = self.registry.get(record.tenant)
        try:
            self._refresh_standing(state, record)
        finally:
            try:
                live = self.registry.get(record.tenant) is state
            except ApiError:
                live = False
            if not live:
                # The tenant was evicted while this run held its session:
                # a sharded refresh that started after the eviction closed
                # the session spawned a pool of its own.  Close it too.
                state.session.close()

    def _refresh_standing(self, state, record: StandingRecord) -> None:
        if record.query is None:
            query = state.session.standing_query(record.sql)
            record.query = query
            output = query.result
        else:
            output = record.query.refresh()
            if record.query.last_mode == "noop":
                # Nothing moved under the query: no new journal version,
                # the previous one is still exact.
                with self._qlock:
                    if self._registered(record):
                        record.status = "live"
                        self._note_refresh(record)
                return
        wire = output_to_wire(output)
        versions = state.table_versions()
        # Same atomicity as _complete: the journal version and the
        # record's visible progress land together, so a long-poller woken
        # by the journal never reads a half-updated registration.
        with self._qlock:
            if not self._registered(record):
                return
            entry = state.journal.record(
                record.analysis_name, record.standing_id, record.sql,
                output.kind, wire, versions)
            record.status = "live"
            record.refreshes += 1
            record.versions = entry.version
            self._note_refresh(record)
            record.last_error = None
            self.counters["standing_refreshes"] += 1

    @staticmethod
    def _note_refresh(record: StandingRecord) -> None:
        """Copy the handle's refresh accounting; caller holds ``_qlock``."""
        query = record.query
        record.last_mode = query.last_mode
        record.last_rows_computed = query.last_rows_computed
        record.last_rows_reused = query.last_rows_reused

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        with self._qlock:
            counters = dict(self.counters)
            standing_now = len(self._standing)
        payload = {
            "server": {
                "concurrency": self.server_options.concurrency,
                "queue_depth": self.server_options.queue_depth,
                "query_timeout": self.server_options.query_timeout,
                "standing_autorefresh":
                    self.server_options.standing_autorefresh,
                "queued_now": self._queue.qsize(),
                "standing_now": standing_now,
            },
            "counters": counters,
            "evictions": self.registry.evictions,
            "tenants": [state.stats() for state in self.registry.states()],
        }
        if self.pool is not None:
            payload["pool"] = {
                key: value for key, value in self.pool.stats.items()
                if isinstance(value, (int, float, str, bool))}
        return payload


# -- HTTP layer -------------------------------------------------------------

#: Largest request body the server reads (bytes); a longer one is refused
#: with 413 before any of it is read.
_MAX_BODY_BYTES = 64 << 20

_TENANT = r"(?P<tenant>[A-Za-z0-9_-]{1,64})"
_NAME = r"(?P<name>[^/]{1,200})"

_ROUTES: list[tuple[str, re.Pattern, str]] = [
    ("GET", re.compile(r"^/healthz$"), "health"),
    ("GET", re.compile(r"^/stats$"), "stats"),
    ("GET", re.compile(r"^/tenants$"), "list_tenants"),
    ("POST", re.compile(rf"^/tenants/{_TENANT}$"), "create_tenant"),
    ("DELETE", re.compile(rf"^/tenants/{_TENANT}$"), "evict_tenant"),
    ("POST", re.compile(rf"^/tenants/{_TENANT}/tables$"), "create_table"),
    ("POST", re.compile(rf"^/tenants/{_TENANT}/tables/{_NAME}/rows$"),
     "append_rows"),
    ("POST", re.compile(rf"^/tenants/{_TENANT}/queries$"), "submit_query"),
    ("GET", re.compile(r"^/queries/(?P<query_id>[0-9a-f]{32})$"),
     "get_query"),
    ("POST", re.compile(rf"^/tenants/{_TENANT}/standing$"),
     "register_standing"),
    ("GET", re.compile(rf"^/tenants/{_TENANT}/standing$"), "list_standing"),
    ("GET", re.compile(
        rf"^/tenants/{_TENANT}/standing/(?P<standing_id>[0-9a-f]{{32}})$"),
     "get_standing"),
    ("POST", re.compile(
        rf"^/tenants/{_TENANT}/standing/(?P<standing_id>[0-9a-f]{{32}})"
        r"/refresh$"), "refresh_standing"),
    ("DELETE", re.compile(
        rf"^/tenants/{_TENANT}/standing/(?P<standing_id>[0-9a-f]{{32}})$"),
     "drop_standing"),
    ("GET", re.compile(rf"^/tenants/{_TENANT}/analyses$"), "list_analyses"),
    ("GET", re.compile(rf"^/tenants/{_TENANT}/analyses/{_NAME}/versions$"),
     "list_versions"),
    ("GET", re.compile(
        rf"^/tenants/{_TENANT}/analyses/{_NAME}"
        r"/versions/(?P<version>\d+)$"), "get_version"),
    ("POST", re.compile(
        rf"^/tenants/{_TENANT}/analyses/{_NAME}"
        r"/versions/(?P<version>\d+)/commit$"), "commit_version"),
]


class _Handler(BaseHTTPRequestHandler):
    """Regex-routed JSON handler; one instance per request (stdlib)."""

    service: RiskService  # injected via subclass by RiskServer
    protocol_version = "HTTP/1.1"
    quiet = True
    # A reply leaves in one segment: buffered writer (headers + body go
    # out with the flush in _reply) and TCP_NODELAY.  Two unbuffered
    # segments under Nagle make every reply on a kept-alive connection
    # wait out the client's delayed ACK (~40 ms).
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _read_body(self) -> dict | None:
        """The request's JSON object, or ``None`` for an empty body.

        A malformed or negative ``Content-Length`` is a 400 and one past
        :data:`_MAX_BODY_BYTES` a 413, both answered without reading the
        body; since the unread bytes would be parsed as the next request,
        those replies also close the connection.  A body that is not
        UTF-8 JSON, or JSON that is not an object, is a 400.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ApiError(400, f"invalid Content-Length {header!r}")
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ApiError(413, f"request body of {length} bytes exceeds "
                                f"the {_MAX_BODY_BYTES}-byte limit")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") \
                from None
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _dispatch(self, method: str) -> None:
        try:
            self._route(method)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up (e.g. mid-long-poll): nobody is left to
            # answer, so drop the connection instead of writing an error
            # reply onto the dead socket.  The unsent reply stays in the
            # buffered writer, whose every later flush (the request loop
            # and ``finish`` each do one) would fail again: close the
            # socket stream under it — closing a writer whose stream is
            # closed is a no-op — and hand the request loop a sink.
            self.close_connection = True
            self.wfile.raw.close()
            self.wfile = io.BytesIO()

    def _route(self, method: str) -> None:
        path, _, query_string = self.path.partition("?")
        self.query_params = dict(urllib.parse.parse_qsl(query_string))
        try:
            path_known = False
            for route_method, pattern, handler_name in _ROUTES:
                match = pattern.match(path)
                if match and route_method == method:
                    status, payload = getattr(self, handler_name)(
                        **match.groupdict())
                    break
                path_known = path_known or match is not None
            else:
                if path_known:
                    raise ApiError(405, f"{method} not allowed on {path}")
                raise ApiError(404, f"no such endpoint: {method} {path}")
        except ApiError as exc:
            status, payload = exc.status, exc.to_wire()
        except UnknownAnalysisError as exc:
            status, payload = 404, {"error": str(exc.args[0]), "status": 404}
        except _CLIENT_ERRORS as exc:
            status, payload = 400, {"error": str(exc), "status": 400}
        except Exception as exc:  # don't leak tracebacks onto the wire
            status, payload = 500, {"error": f"internal error: {exc!r}",
                                    "status": 500}
        self._reply(status, payload)

    def _wait_seconds(self) -> float | None:
        """The ``?wait=`` long-poll budget in seconds, ``None`` if absent.

        ``float()`` also parses ``nan`` and ``inf``; neither is a
        duration (``nan`` passes every comparison check and then makes
        ``Condition.wait`` return at once), so both are a 400.
        """
        wait = self.query_params.get("wait")
        if wait is None:
            return None
        try:
            seconds = float(wait)
        except ValueError:
            seconds = math.nan
        if not math.isfinite(seconds):
            raise ApiError(
                400, f"'wait' must be a finite number of seconds, "
                     f"got {wait!r}")
        return seconds

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")

    # -- endpoints ---------------------------------------------------------

    def health(self):
        return 200, {"ok": True}

    def stats(self):
        return 200, self.service.stats()

    def list_tenants(self):
        return 200, {"tenants": self.service.registry.tenant_ids()}

    def create_tenant(self, tenant):
        config = self._read_body()
        _, created = self.service.registry.create(tenant, config)
        return (201 if created else 200), {"tenant": tenant,
                                           "created": created}

    def evict_tenant(self, tenant):
        self.service.evict_tenant(tenant)
        return 200, {"tenant": tenant, "evicted": True}

    def create_table(self, tenant):
        state = self.service.registry.get(tenant)
        body = self._read_body() or {}
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ApiError(400, "body must carry a table 'name' string")
        columns = columns_from_wire(body)
        try:
            table = state.session.add_table(name, columns)
        except ValueError as exc:  # ragged/empty/2-D construction errors
            raise ApiError(400, str(exc)) from None
        return 201, {"tenant": tenant, "table": table.name,
                     "rows": len(table),
                     "table_version": state.session.catalog.table_version(
                         table.name)}

    def append_rows(self, tenant, name):
        state = self.service.registry.get(tenant)
        if not state.session.catalog.has(name):
            raise ApiError(
                404, f"tenant {tenant!r} has no table {name!r}")
        columns = columns_from_wire(self._read_body() or {})
        # CatalogError (schema mismatch, random-table target) maps to 400
        # via the dispatcher; the failed append mutated nothing.
        old_rows, new_rows = state.session.append(name, columns)
        refreshes = self.service.notify_append(tenant)
        return 200, {"tenant": tenant, "table": name,
                     "appended": new_rows - old_rows, "rows": new_rows,
                     "standing_refreshes_scheduled": refreshes,
                     "table_version":
                         state.session.catalog.table_version(name)}

    def submit_query(self, tenant):
        record = self.service.submit(tenant, self._read_body() or {})
        return 202, {"query_id": record.query_id, "status": record.status,
                     "analysis": {"name": record.analysis_name}}

    def get_query(self, query_id):
        seconds = self._wait_seconds()
        record = self.service.query(query_id)
        if seconds is not None and seconds > 0:
            # Long-poll: block (capped) until the query settles instead
            # of making clients spin — the reply carries whatever state
            # the record is in when the wait ends.
            record.settled.wait(timeout=min(seconds, 30.0))
        return 200, record.to_wire()

    def register_standing(self, tenant):
        record = self.service.register_standing(
            tenant, self._read_body() or {})
        return 202, standing_to_wire(record)

    def list_standing(self, tenant):
        self.service.registry.get(tenant)  # 404 for unknown tenants
        return 200, {"tenant": tenant, "standing": [
            standing_to_wire(record)
            for record in self.service.standing_for(tenant)]}

    def _tenant_standing(self, tenant, standing_id):
        record = self.service.standing(standing_id)
        if record.tenant != tenant:
            raise ApiError(
                404, f"tenant {tenant!r} has no standing query "
                     f"{standing_id!r}")
        return record

    def get_standing(self, tenant, standing_id):
        """Registration state; with ``?wait=s[&after=v]`` long-polls the
        journal for the first version past ``after`` (default 0: any)."""
        seconds = self._wait_seconds()
        record = self._tenant_standing(tenant, standing_id)
        state = self.service.registry.get(tenant)
        if seconds is None:
            payload = {"standing": standing_to_wire(record)}
            if record.versions:
                payload["record"] = state.journal.to_wire(
                    record.analysis_name, record.versions)
            return 200, payload
        try:
            after = int(self.query_params.get("after", 0))
        except ValueError:
            raise ApiError(
                400, "'after' must be an integer journal version") from None
        if seconds < 0 or after < 0:
            raise ApiError(400, "'wait' and 'after' must be >= 0")
        entry = state.journal.wait_version(
            record.analysis_name, after, min(seconds, 30.0))
        payload = {"standing": standing_to_wire(record)}
        if entry is None:
            payload["timed_out"] = True
        else:
            payload["record"] = state.journal.to_wire(
                entry.name, entry.version)
        return 200, payload

    def refresh_standing(self, tenant, standing_id):
        self._tenant_standing(tenant, standing_id)
        record = self.service.poke_standing(standing_id)
        return 202, standing_to_wire(record)

    def drop_standing(self, tenant, standing_id):
        self._tenant_standing(tenant, standing_id)
        self.service.drop_standing(standing_id)
        return 200, {"tenant": tenant, "standing_id": standing_id,
                     "dropped": True}

    def list_analyses(self, tenant):
        state = self.service.registry.get(tenant)
        return 200, {"tenant": tenant, "analyses": state.journal.names()}

    def list_versions(self, tenant, name):
        state = self.service.registry.get(tenant)
        chain = state.journal.versions(name)
        return 200, {"tenant": tenant, "name": name, "versions": [
            {"version": entry.version, "query_id": entry.query_id,
             "kind": entry.kind, "created_at": entry.created_at,
             "committed":
                 state.journal.committed_at(name, entry.version) is not None}
            for entry in chain]}

    def get_version(self, tenant, name, version):
        state = self.service.registry.get(tenant)
        return 200, state.journal.to_wire(name, int(version))

    def commit_version(self, tenant, name, version):
        state = self.service.registry.get(tenant)
        committed_at = state.journal.commit(name, int(version))
        return 200, {"tenant": tenant, "name": name,
                     "version": int(version), "committed": True,
                     "committed_at": committed_at}


class RiskServer:
    """A :class:`RiskService` bound to a ``ThreadingHTTPServer``.

    ``port=0`` binds an ephemeral port (tests, benchmarks); the bound
    address is available as :attr:`url` after construction.  Use as a
    context manager to guarantee the pool and runner threads die.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 options: ExecutionOptions | None = None,
                 server_options: ServerOptions | None = None,
                 base_seed: int = 0, quiet: bool = True):
        self.service = RiskService(options=options,
                                   server_options=server_options,
                                   base_seed=base_seed)
        handler = type("BoundHandler", (_Handler,),
                       {"service": self.service, "quiet": quiet})
        self._httpd = ThreadingHTTPServer((host, port), handler,
                                          bind_and_activate=False)
        # The stdlib listen backlog is 5: a burst of fresh connections
        # beyond it loses its SYNs and waits out TCP's 1 s retry.  Room
        # for every query the server admits at once, running or queued.
        admitted = self.service.server_options
        self._httpd.request_queue_size = max(
            self._httpd.request_queue_size,
            admitted.queue_depth + admitted.concurrency)
        try:
            self._httpd.server_bind()
            self._httpd.server_activate()
        except BaseException:
            self._httpd.server_close()
            raise
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RiskServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="risk-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.stop()

    def __enter__(self) -> "RiskServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
