"""Pluggable execution backends: where shard tasks actually run.

Sec. 1's observation that Monte Carlo repetitions are embarrassingly
parallel fixes *what* can run concurrently; this module fixes *where*.
The Monte Carlo executor (:class:`~repro.engine.mcdb.MonteCarloExecutor`)
describes its parallel work as a **shard job** — an object with a
``run_shard(lo, hi)`` method — plus a list of contiguous ``[lo, hi)``
bounds, and hands the pair to a backend's ``run_job``:

* :class:`SerialBackend` — runs every shard in-process, in order.  Useful
  to exercise the exact sharded code paths (splitting, merging) without
  any concurrency, and as the reference the equivalence suite compares
  the real backends against.
* :class:`ThreadBackend` — a persistent ``ThreadPoolExecutor``.  Jobs are
  shared by reference (zero pickling); NumPy releases the GIL inside its
  kernels, so bundle-heavy shards overlap usefully.
* :class:`ProcessBackend` — a persistent pool of worker *processes*
  owned by the session and reused across queries (cf. the service-level
  scaling of Monte Carlo production in the LCG MCDB, PAPERS.md).  The job
  payload is pickled **once** per query and broadcast to each worker
  once; the per-shard task message is a ``(job_id, lo, hi)`` triple a few
  dozen bytes long.  Objects that outlive a query — the catalog above
  all — go through a *keyed shared channel*: a job exposes them via
  ``shared_payload()`` and they are pickled once per ``(object,
  version)`` key and re-sent to a worker only when the key changes, so a
  session running many queries against the same catalog ships it to each
  worker exactly once.  The channel pickles with protocol 5: array
  buffers travel out of band as raw byte frames, and the worker rebuilds
  each array over its immutable ``bytes`` frame, so catalog columns are
  read-only there without an extra copy.

Shard-job transport contract (only :class:`ProcessBackend` exercises it):

* ``job.run_shard(lo, hi)`` returns the shard result (any picklable).
* ``job.shared_payload()`` (optional) returns ``{key: object}`` for the
  keyed shared channel; the job's ``__getstate__`` must then *exclude*
  those objects and ``job.attach_shared(mapping)`` must re-bind them on
  the worker after unpickling.

Every backend is results-transparent: ``run_job(job, bounds)`` returns
``[job.run_shard(lo, hi) for lo, hi in bounds]`` exactly — same values,
same order — whatever the transport.  The equivalence suite holds all
three to that contract.  Jobs are stateless: nothing a worker computes
survives the ``run_job`` call except the shared-channel entries.

The tail path (:class:`~repro.core.gibbs_looper.GibbsLooper`) never uses
a backend: its sweep is Gauss–Seidel over TS-seeds, so it has no
independent work to shard and always runs in the calling process.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import get_context
from multiprocessing.connection import wait

from repro.engine.errors import EngineError

__all__ = [
    "ExecutionBackend", "SerialBackend", "ThreadBackend", "ProcessBackend",
    "SharedBackend", "make_backend", "catalog_share_key",
]

#: Keep at most this many distinct shared-channel entries pinned in the
#: parent (a strong reference per entry keeps ``id()``-based keys honest).
_SHARED_CACHE_LIMIT = 8

#: Seconds :meth:`ProcessBackend.close` waits at each escalation step
#: (stop message -> SIGTERM -> SIGKILL), read at ``close()`` time.
#: Module-level so the zombie escalation test can shrink it instead of
#: wedging a worker for 10s.
_JOIN_TIMEOUT = 5


def catalog_share_key(catalog) -> tuple:
    """Shared-channel key for a catalog: identity + mutation version.

    Two queries in one session share the key while the catalog is
    unmutated, so the broadcast is skipped; any ``CREATE TABLE`` /
    ``add_table`` / ``FTABLE`` registration bumps ``Catalog.version`` and
    forces a re-broadcast.  Identity is ``Catalog.uid`` — a monotone
    process-unique counter — not ``id()``: an address can be recycled
    after garbage collection, so a session that swaps catalogs could
    otherwise alias a dead catalog's channel entry at the same version.
    """
    return ("catalog", catalog.uid, catalog.version)


class ExecutionBackend:
    """Protocol: run a shard job over ``[lo, hi)`` bounds, results in order.

    ``run_job`` must behave exactly like the serial loop
    ``[job.run_shard(lo, hi) for lo, hi in bounds]``; ``close`` releases
    any persistent workers and is idempotent (a closed backend may be
    reused — workers respawn lazily).
    """

    name = "abstract"

    def run_job(self, job, bounds) -> list:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the reference transport."""

    name = "serial"

    def run_job(self, job, bounds) -> list:
        return [job.run_shard(lo, hi) for lo, hi in bounds]

    def close(self) -> None:
        pass


class ThreadBackend(ExecutionBackend):
    """Persistent thread pool; jobs shared by reference, never pickled."""

    name = "thread"

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="mcdbr-shard")
        return self._pool

    def run_job(self, job, bounds) -> list:
        bounds = list(bounds)
        if len(bounds) <= 1:
            return [job.run_shard(lo, hi) for lo, hi in bounds]
        pool = self._ensure_pool()
        futures = [pool.submit(job.run_shard, lo, hi)
                   for lo, hi in bounds]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "conn", "shared_keys")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.shared_keys: set = set()


def _worker_main(conn) -> None:
    """Worker loop: install broadcast payloads, run ``(job_id, lo, hi)``.

    ``jobs`` holds the per-query broadcast payloads, ``shared`` the keyed
    cross-query channel (catalogs).  A ``share`` message announces how
    many out-of-band buffer frames follow it on the pipe; they are read
    before unpickling, so a failed unpickle never desynchronizes the
    stream.  Shard results — or a formatted traceback on failure — go
    back on the same pipe tagged with the task index so the parent can
    merge out-of-order completions.  A failure outside a task has no
    reply slot and goes back tagged ``None``; the parent treats any error
    reply as fatal and resets the pool.
    """
    jobs: dict[int, object] = {}
    shared: dict[tuple, object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "share":
                _, key, blob, frames = message
                buffers = [conn.recv_bytes() for _ in range(frames)]
                shared[key] = pickle.loads(blob, buffers=buffers)
            elif kind == "unshare":
                shared.pop(message[1], None)
            elif kind == "job":
                job = pickle.loads(message[2])
                attach = getattr(job, "attach_shared", None)
                if attach is not None:
                    attach(shared)
                jobs[message[1]] = job
            elif kind == "forget":
                jobs.pop(message[1], None)
            elif kind == "run":
                _, job_id, index, lo, hi = message
                conn.send(("ok", index, jobs[job_id].run_shard(lo, hi)))
        except BaseException:
            reply_slot = message[2] if kind == "run" else None
            try:
                conn.send(("error", reply_slot, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes with broadcast-once job transport.

    Workers spawn lazily on the first multi-shard job and stay alive
    until :meth:`close` — a session amortizes pool startup, job
    broadcasts and catalog shipping across every query it runs.  Any
    worker failure tears the pool down (so no stale replies survive) and
    surfaces as :class:`~repro.engine.errors.EngineError` carrying the
    worker traceback.
    """

    name = "process"

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._workers: list[_WorkerHandle] = []
        self._next_job_id = 0
        # key -> (obj, blob, buffers): the protocol-5 in-band pickle and
        # its out-of-band PickleBuffers, which view obj's arrays in place.
        self._shared_cache: dict[tuple, tuple] = {}
        #: Transport accounting, exposed for the benchmarks and the
        #: payload regression tests: ``jobs``/``tasks`` count dispatches,
        #: ``job_bytes`` is the last broadcast blob size, ``task_bytes``
        #: the last task message size, ``shared_pickles``/``shared_sends``
        #: count keyed-channel work (pickles happen once per key).
        #: ``sent_bytes`` accumulates every parent->worker payload byte
        #: (job broadcasts x recipients, shared-channel sends, run tasks).
        self.stats = {"jobs": 0, "tasks": 0, "job_bytes": 0, "task_bytes": 0,
                      "shared_pickles": 0, "shared_sends": 0, "spawns": 0,
                      "sent_bytes": 0}

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers
                   if worker.process.is_alive())

    def worker_pids(self) -> list[int]:
        return [worker.process.pid for worker in self._workers]

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        context = get_context()
        for _ in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn))
            self.stats["spawns"] += 1

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=_JOIN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT)
            if worker.process.is_alive():
                # terminate() is SIGTERM, which a worker wedged in
                # uninterruptible I/O (or with the signal masked) can
                # outlive; without this escalation close() would silently
                # leave a zombie holding its copy of the catalog.
                worker.process.kill()
                worker.process.join(timeout=_JOIN_TIMEOUT)
            worker.conn.close()
        self._workers = []
        self._shared_cache = {}

    # -- transport -----------------------------------------------------------

    @staticmethod
    def task_message(job_id: int, index: int, lo: int, hi: int) -> tuple:
        """The per-shard wire message — a constant-size integer tuple.

        Exposed so the payload regression test can pin its pickled size:
        shard tasks must never regrow a catalog/plan payload.
        """
        return ("run", job_id, index, lo, hi)

    def _send_shared(self, worker: _WorkerHandle, key: tuple,
                     obj: object) -> None:
        if key not in self._shared_cache:
            # A versioned catalog key supersedes every older version of
            # the same catalog uid: nothing will ever request those again
            # (jobs always carry the current version), so an
            # append-churning standing session must not ratchet the
            # parent cache / worker mirrors up to _SHARED_CACHE_LIMIT
            # dead catalog snapshots before LRU pressure clears them.
            if key[0] == "catalog":
                superseded = [
                    cached for cached in self._shared_cache
                    if cached[0] == "catalog" and cached[1] == key[1]
                    and cached != key]
                for stale in superseded:
                    del self._shared_cache[stale]
                    for other in self._workers:
                        if stale in other.shared_keys:
                            other.shared_keys.discard(stale)
                            other.conn.send(("unshare", stale))
            buffers: list = []
            blob = pickle.dumps(obj, protocol=5,
                                buffer_callback=buffers.append)
            self._shared_cache[key] = (obj, blob, buffers)
            self.stats["shared_pickles"] += 1
            while len(self._shared_cache) > _SHARED_CACHE_LIMIT:
                evicted = next(iter(self._shared_cache))
                del self._shared_cache[evicted]
                for other in self._workers:
                    if evicted in other.shared_keys:
                        other.shared_keys.discard(evicted)
                        other.conn.send(("unshare", evicted))
        if key in worker.shared_keys:
            return
        _, blob, buffers = self._shared_cache[key]
        worker.conn.send(("share", key, blob, len(buffers)))
        sent = len(blob)
        for buffer in buffers:
            frame = buffer.raw()
            worker.conn.send_bytes(frame)
            sent += frame.nbytes
        worker.shared_keys.add(key)
        self.stats["shared_sends"] += 1
        self.stats["sent_bytes"] += sent

    def run_job(self, job, bounds) -> list:
        bounds = list(bounds)
        if len(bounds) <= 1:
            return [job.run_shard(lo, hi) for lo, hi in bounds]
        self._ensure_workers()
        job_id = self._next_job_id
        self._next_job_id += 1
        shared = getattr(job, "shared_payload", dict)()
        blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats["jobs"] += 1
        self.stats["job_bytes"] = len(blob)
        active = self._workers[:min(len(bounds), len(self._workers))]
        try:
            for worker in active:
                for key, obj in shared.items():
                    self._send_shared(worker, key, obj)
                worker.conn.send(("job", job_id, blob))
                self.stats["sent_bytes"] += len(blob)
            results = self._dispatch(active, job_id, bounds)
            for worker in active:
                worker.conn.send(("forget", job_id))
        except (BrokenPipeError, OSError) as exc:
            # A worker died between jobs (OOM kill, crash): sending to its
            # pipe raises here.  Reset the pool and surface it as the
            # EngineError the backend contract promises.
            self.close()
            raise EngineError(
                f"shard worker process died ({exc}); the worker pool has "
                "been reset") from exc
        except BaseException:
            # A worker errored mid-job or the dispatch was interrupted
            # (KeyboardInterrupt included): reset the pool so no stale
            # in-flight replies can be mistaken for the *next* job's
            # results.
            self.close()
            raise
        return results

    def _dispatch(self, active: list[_WorkerHandle], job_id: int,
                  bounds: list) -> list:
        """Feed ``(job_id, lo, hi)`` triples to idle workers, merge in order."""
        results: list = [None] * len(bounds)
        by_conn = {worker.conn: worker for worker in active}
        pending = iter(enumerate(bounds))
        busy: dict = {}
        outstanding = 0
        # Task messages are constant-shape integer tuples; size one of
        # them per job for the transport accounting instead of paying an
        # extra pickle per task on the dispatch hot path.
        self.stats["task_bytes"] = len(pickle.dumps(
            self.task_message(job_id, 0, *bounds[0]),
            protocol=pickle.HIGHEST_PROTOCOL))

        def feed(conn) -> None:
            nonlocal outstanding
            task = next(pending, None)
            if task is None:
                busy.pop(conn, None)
                return
            index, (lo, hi) = task
            self.stats["tasks"] += 1
            self.stats["sent_bytes"] += self.stats["task_bytes"]
            conn.send(self.task_message(job_id, index, lo, hi))
            busy[conn] = index
            outstanding += 1

        for conn in by_conn:
            feed(conn)
        while outstanding:
            for conn in wait(list(busy)):
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise EngineError(
                        "shard worker process died; the worker pool has "
                        "been reset") from None
                status, index, payload = reply
                if status == "error":
                    raise EngineError(
                        f"shard task failed in worker:\n{payload}")
                results[index] = payload
                outstanding -= 1
                feed(conn)
        return results


class SharedBackend(ExecutionBackend):
    """One backend shared by several sessions across threads.

    The risk-service front end (:mod:`repro.server`) runs many tenant
    sessions against ONE persistent worker pool — the whole point of a
    long-lived service — but the concrete backends assume a single
    calling thread.  This wrapper makes the sharing safe:

    * every ``run_job`` delegates under one re-entrant lock, so two
      sessions' messages never interleave and all parent-side
      bookkeeping (job ids, shared-channel cache) stays consistent —
      concurrent queries simply take turns on the pool;
    * :meth:`close` is reserved for the *owner* (the server): sessions
      holding a shared backend must not tear down a pool other tenants
      are using, which is what ``Session(shared_backend=...)`` enforces
      by never closing a backend it doesn't own.

    One failure domain, by design: a worker death or in-worker error
    still resets the whole inner pool, so the query that hit it surfaces
    an :class:`~repro.engine.errors.EngineError` — the pool respawns
    lazily for the next query.
    """

    name = "shared"

    def __init__(self, inner: ExecutionBackend):
        if isinstance(inner, SharedBackend):
            raise ValueError("SharedBackend cannot wrap a SharedBackend")
        self.inner = inner
        self._lock = threading.RLock()

    @property
    def stats(self):
        # ProcessBackend transport accounting; other backends keep none.
        return getattr(self.inner, "stats", {})

    def run_job(self, job, bounds) -> list:
        with self._lock:
            return self.inner.run_job(job, bounds)

    def close(self) -> None:
        with self._lock:
            self.inner.close()


def make_backend(options) -> ExecutionBackend:
    """Backend instance for an :class:`ExecutionOptions`.

    Callers that own no long-lived scope (an executor used directly,
    outside a :class:`~repro.sql.session.Session`) build one of these per
    run and close it afterwards; a session builds one and keeps it.
    """
    if options.backend == "serial":
        return SerialBackend()
    if options.backend == "thread":
        return ThreadBackend(options.n_jobs)
    if options.backend == "process":
        return ProcessBackend(options.n_jobs)
    raise ValueError(f"unknown backend {options.backend!r}")
