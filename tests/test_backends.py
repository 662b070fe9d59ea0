"""The execution-backend layer: transports, pool lifecycle, payloads.

Six contracts pinned down here:

* **Results transparency** — ``run_job(job, bounds)`` returns exactly
  ``[job.run_shard(lo, hi) for lo, hi in bounds]`` on every backend (the
  bit-level equivalence of real query results lives in
  ``tests/test_engine_equivalence.py``).
* **Broadcast-once transport** — the per-shard task message is a
  constant-size ``(job_id, lo, hi)`` triple; the job payload is pickled
  once per query and the catalog once per ``(catalog, version)`` key.
  The payload regression tests keep the catalog from ever creeping back
  into per-task pickling.
* **Read-only shared arrays** — shared-channel arrays travel as
  protocol-5 out-of-band buffers and arrive read-only: a worker write
  raises instead of silently diverging from the parent's copy.
* **Det-cache shard semantics** — workers are pre-warmed with a snapshot
  of the session cache at broadcast time; worker-local fills never flow
  back to the session.
* **Tail queries stay in-process** — a tail query never builds, spawns
  or sends to a pool, whatever ``n_jobs`` is.
* **Faults** — a worker killed inside a real query surfaces as a clean
  ``EngineError``, leaves no ``/dev/shm`` segment or child process
  behind, and the next query respawns the pool with bit-identical
  results; ``close()`` escalates SIGTERM to SIGKILL for a wedged worker.
"""

import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.engine.backends import (
    ProcessBackend, SerialBackend, ThreadBackend, catalog_share_key,
    make_backend)
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import Select, random_table_pipeline
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.shm import leaked_segments
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import NORMAL

BACKENDS = ("serial", "thread", "process")


class SpanJob:
    """Module-level so ProcessBackend can pickle it."""

    def run_shard(self, lo, hi):
        return list(range(lo, hi))


class FailingJob:
    def run_shard(self, lo, hi):
        raise ValueError(f"boom at {lo}")


class SharedArrayJob:
    """Exercises the keyed shared channel the catalog rides in production."""

    def __init__(self, key, array):
        self.key = key
        self.array = array

    def shared_payload(self):
        return {self.key: self.array}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["array"] = None
        return state

    def attach_shared(self, shared):
        self.array = shared[self.key]

    def run_shard(self, lo, hi):
        return float(self.array[lo:hi].sum())


class SharedWriteJob(SharedArrayJob):
    """Tries to mutate a shared-channel array — must raise in the worker."""

    def run_shard(self, lo, hi):
        self.array[lo] = -1.0
        return 0.0


class ArrayEchoJob(SharedArrayJob):
    """Returns the worker's copy of the shared array and whether it is
    writeable there."""

    def run_shard(self, lo, hi):
        return self.array, self.array.flags.writeable


class MirrorKeysJob(SharedArrayJob):
    """Reports the keys of the worker's shared-channel mirror."""

    def attach_shared(self, shared):
        super().attach_shared(shared)
        self.mirror = sorted(shared)

    def run_shard(self, lo, hi):
        return self.mirror


class CatalogFlagsJob:
    """Reports, per column of a catalog table shipped on the shared
    channel, whether the worker may write to it."""

    def __init__(self, catalog, table):
        self.key = catalog_share_key(catalog)
        self.catalog = catalog
        self.table = table

    def shared_payload(self):
        return {self.key: self.catalog}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["catalog"] = None
        return state

    def attach_shared(self, shared):
        self.catalog = shared[self.key]

    def run_shard(self, lo, hi):
        table = self.catalog.table(self.table)
        return {name: table.column(name).flags.writeable
                for name in table.column_names}


class FailingSharedJob(SharedArrayJob):
    def run_shard(self, lo, hi):
        raise ValueError("shard exploded")


class StuckJob(SharedArrayJob):
    """Wedges its worker: ignores SIGTERM, then blocks far past the
    (shrunken, see test) close() join timeouts."""

    def run_shard(self, lo, hi):
        import time
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(600)


class UnpicklableJob:
    """Pickles fine in the parent, explodes when a worker unpickles it."""

    def __init__(self):
        self.tag = "job"

    def __setstate__(self, state):
        raise RuntimeError("worker-side unpickle exploded")

    def run_shard(self, lo, hi):
        return lo


class UnpicklablePayload(UnpicklableJob):
    """A shared-channel object whose worker-side unpickle fails."""


class SuicidalJob:
    """SIGKILLs the worker running its second shard."""

    def run_shard(self, lo, hi):
        if lo == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return lo


def _make_backend(name, n_workers=2):
    return make_backend(ExecutionOptions(n_jobs=n_workers, backend=name))


def _mc_executor(rows=12, options=None, det_cache=None):
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(rows), "m": np.linspace(0.8, 3.5, rows)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    plan = Select(random_table_pipeline(spec), col("val") > lit(1.0))
    aggregates = [AggregateSpec("total", "sum", col("val")),
                  AggregateSpec("n", "count")]
    return MonteCarloExecutor(plan, aggregates, catalog, base_seed=3,
                              options=options, det_cache=det_cache)


class TestShardBounds:
    """Edge geometry of ExecutionOptions.shard_bounds, and of explicit
    bounds handed straight to ``run_job``."""

    def test_fewer_repetitions_than_workers(self):
        bounds = ExecutionOptions(n_jobs=4).shard_bounds(3)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_shard_size_larger_than_repetitions(self):
        """One shard spanning every repetition is the serial run."""
        executor = _mc_executor()
        serial = executor.run(7)
        with _make_backend("process") as backend:
            [whole] = backend.run_job(executor, [(0, 7)])
        for name in ("total", "n"):
            np.testing.assert_array_equal(
                whole.distribution(name).samples,
                serial.distribution(name).samples)

    def test_shard_size_one(self):
        """One-repetition shards merge back to the serial samples."""
        executor = _mc_executor()
        serial = executor.run(4)
        bounds = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with _make_backend("process") as backend:
            merged = executor._merge_shards(
                backend.run_job(executor, bounds), 4)
        for name in ("total", "n"):
            np.testing.assert_array_equal(
                merged.distribution(name).samples,
                serial.distribution(name).samples)

    def test_single_repetition(self):
        assert ExecutionOptions(n_jobs=8).shard_bounds(1) == [(0, 1)]

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            ExecutionOptions(n_jobs=2).shard_bounds(0)

    def test_bounds_cover_and_tile(self):
        for n_jobs, repetitions in [(3, 100), (5, 23), (2, 9), (7, 5),
                                    (4, 4)]:
            bounds = ExecutionOptions(n_jobs=n_jobs).shard_bounds(repetitions)
            assert len(bounds) <= n_jobs
            assert bounds[0][0] == 0 and bounds[-1][1] == repetitions
            assert all(hi == next_lo for (_, hi), (next_lo, _)
                       in zip(bounds, bounds[1:]))


class TestOptionsValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionOptions(backend="quantum")

    def test_make_backend_dispatch(self):
        assert isinstance(_make_backend("serial"), SerialBackend)
        assert isinstance(_make_backend("thread"), ThreadBackend)
        assert isinstance(_make_backend("process"), ProcessBackend)

    def test_join_timeout_defaults_to_module_global(self, monkeypatch):
        """close() reads backends._JOIN_TIMEOUT when it runs, so a suite
        that shrinks the global keeps its grip on pools built earlier."""
        from repro.engine import backends as backends_module
        backend = make_backend(ExecutionOptions(backend="process", n_jobs=2))
        timeouts = []
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            monkeypatch.setattr(backends_module, "_JOIN_TIMEOUT", 7.5)
            for worker in backend._workers:
                join = worker.process.join

                def spy(timeout=None, join=join):
                    timeouts.append(timeout)
                    join(timeout)
                worker.process.join = spy
        finally:
            backend.close()
        assert timeouts and set(timeouts) == {7.5}


class TestResultsTransparency:
    """run_job == the serial loop, on every transport."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_results_in_bounds_order(self, backend_name):
        bounds = [(0, 3), (3, 5), (5, 11), (11, 12)]
        with _make_backend(backend_name, 2) as backend:
            results = backend.run_job(SpanJob(), bounds)
        assert results == [list(range(lo, hi)) for lo, hi in bounds]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_single_bound_runs_inline(self, backend_name):
        with _make_backend(backend_name, 2) as backend:
            assert backend.run_job(SpanJob(), [(2, 5)]) == [[2, 3, 4]]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_bounds(self, backend_name):
        with _make_backend(backend_name, 2) as backend:
            assert backend.run_job(SpanJob(), []) == []

    def test_more_bounds_than_workers(self):
        bounds = [(i, i + 1) for i in range(17)]
        with _make_backend("process", 3) as backend:
            results = backend.run_job(SpanJob(), bounds)
        assert results == [[i] for i in range(17)]


class TestProcessPoolLifecycle:
    def test_workers_persist_across_jobs(self):
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            pids = backend.worker_pids()
            backend.run_job(SpanJob(), [(0, 2), (2, 4), (4, 6)])
            assert backend.worker_pids() == pids
            assert backend.stats["spawns"] == 2
            assert backend.stats["jobs"] == 2
        finally:
            backend.close()
        assert backend.workers_alive == 0

    def test_close_is_idempotent_and_pool_respawns(self):
        backend = ProcessBackend(2)
        backend.run_job(SpanJob(), [(0, 1), (1, 2)])
        backend.close()
        backend.close()
        assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        assert backend.stats["spawns"] == 4
        backend.close()

    def test_dead_worker_surfaces_as_engine_error(self):
        """A worker killed between jobs (OOM, crash) must surface as the
        contract's EngineError — not a bare BrokenPipeError — and the
        next job must respawn a clean pool."""
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            backend._workers[0].process.terminate()
            backend._workers[0].process.join()
            with pytest.raises(EngineError, match="worker process died"):
                backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        finally:
            backend.close()

    def test_interrupt_mid_dispatch_resets_pool(self, monkeypatch):
        """A BaseException escaping mid-dispatch (Ctrl-C) must reset the
        pool: the in-flight shard replies of the aborted job would
        otherwise be consumed as the *next* job's results."""
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])  # warm pool
            original = ProcessBackend._dispatch

            def interrupted(self, active, job_id, bounds):
                # Dispatch every task but collect no replies — the moment
                # Ctrl-C lands, shard results are in flight on the pipes.
                for index, (lo, hi) in enumerate(bounds):
                    active[index % len(active)].conn.send(
                        self.task_message(job_id, index, lo, hi))
                raise KeyboardInterrupt

            monkeypatch.setattr(ProcessBackend, "_dispatch", interrupted)
            with pytest.raises(KeyboardInterrupt):
                backend.run_job(SpanJob(), [(5, 6), (6, 7)])
            monkeypatch.setattr(ProcessBackend, "_dispatch", original)
            assert backend.workers_alive == 0  # pool reset, replies gone
            assert backend.run_job(SpanJob(), [(0, 2), (2, 3)]) == \
                [[0, 1], [2]]
        finally:
            backend.close()

    def test_worker_error_propagates_and_resets_pool(self):
        backend = ProcessBackend(2)
        try:
            with pytest.raises(EngineError, match="boom at"):
                backend.run_job(FailingJob(), [(0, 1), (1, 2)])
            assert backend.workers_alive == 0  # pool reset, no stale replies
            # ... and the backend remains usable afterwards.
            assert backend.run_job(SpanJob(), [(0, 2), (2, 3)]) == [[0, 1], [2]]
        finally:
            backend.close()

    def test_job_unpickle_failure_carries_worker_traceback(self):
        """The job broadcast is unpickled inside the worker's handler, so
        a failure there comes back as a traceback — not a silent worker
        death — and resets the pool."""
        backend = ProcessBackend(2)
        try:
            with pytest.raises(EngineError,
                               match="worker-side unpickle exploded"):
                backend.run_job(UnpicklableJob(), [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        finally:
            backend.close()

    def test_shared_payload_unpickle_failure_resets_pool(self):
        backend = ProcessBackend(2)
        try:
            job = SharedArrayJob(("payload", 1), UnpicklablePayload())
            with pytest.raises(EngineError,
                               match="worker-side unpickle exploded"):
                backend.run_job(job, [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert leaked_segments() == []
            assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        finally:
            backend.close()

    def test_worker_killed_mid_shard(self):
        """A worker SIGKILLed while it runs a shard: clean EngineError, no
        hang, pool and segments reaped, next job respawns."""
        backend = ProcessBackend(2)
        try:
            with pytest.raises(EngineError, match="died"):
                backend.run_job(SuicidalJob(), [(0, 1), (1, 2), (2, 3)])
            assert backend.workers_alive == 0
            assert leaked_segments() == []
            assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
            assert backend.stats["spawns"] == 4
        finally:
            backend.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="wedge injection relies on fork inheriting the test class")
    def test_close_kills_sigterm_immune_workers(self, monkeypatch):
        """A worker that shrugs off SIGTERM would survive close() as a
        zombie; close must escalate to SIGKILL."""
        from repro.engine import backends as backends_module
        monkeypatch.setattr(backends_module, "_JOIN_TIMEOUT", 0.2)
        backend = ProcessBackend(2)
        try:
            backend.run_job(SharedArrayJob(("t", 4), np.ones(20_000)),
                            [(0, 1), (1, 2)])
            # Fire-and-forget: hand worker 0 a wedging shard without
            # waiting for the reply run_job would block on.
            victim_conn = backend._workers[0].conn
            victim_conn.send(("job", 99, pickle.dumps(
                StuckJob(("t", 4), None), pickle.HIGHEST_PROTOCOL)))
            victim_conn.send(ProcessBackend.task_message(99, 0, 0, 1))
            victim = backend._workers[0].process
            backend.close()
            assert not victim.is_alive()
            assert backend.workers_alive == 0
            assert leaked_segments() == []
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_in_process_backends_close_is_idempotent_and_reusable(
            self, backend_name):
        backend = _make_backend(backend_name)
        assert backend.run_job(SpanJob(), [(0, 1), (1, 3)]) == [[0], [1, 2]]
        backend.close()
        backend.close()
        assert backend.run_job(SpanJob(), [(0, 2), (2, 3)]) == [[0, 1], [2]]
        backend.close()


class TestLeakOracle:
    """``leaked_segments``, the ``/dev/shm`` oracle every lifecycle test
    and the end-to-end benchmark assert on."""

    def test_lists_only_this_packages_segments(self, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: [
            "mcdbr-12-1", "psm_4f2a", "mcdbr-12-0", "sem.other"])
        assert leaked_segments() == ["mcdbr-12-0", "mcdbr-12-1"]

    def test_no_dev_shm_means_nothing_leaked(self, monkeypatch):
        def missing(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "listdir", missing)
        assert leaked_segments() == []


class TestSharedChannel:
    """Keyed broadcast: pickle once per key, send once per worker."""

    def test_shared_object_pickled_once_across_jobs(self):
        array = np.arange(64, dtype=np.float64)
        key = ("array", 1)
        backend = ProcessBackend(2)
        try:
            for _ in range(3):
                results = backend.run_job(
                    SharedArrayJob(key, array), [(0, 32), (32, 64)])
                assert results == [float(array[:32].sum()),
                                   float(array[32:].sum())]
            assert backend.stats["shared_pickles"] == 1
            assert backend.stats["shared_sends"] == 2  # once per worker
        finally:
            backend.close()

    def test_new_key_rebroadcasts(self):
        array = np.arange(16, dtype=np.float64)
        backend = ProcessBackend(2)
        try:
            backend.run_job(SharedArrayJob(("array", 1), array),
                            [(0, 8), (8, 16)])
            backend.run_job(SharedArrayJob(("array", 2), array + 1),
                            [(0, 8), (8, 16)])
            assert backend.stats["shared_pickles"] == 2
            assert backend.stats["shared_sends"] == 4
        finally:
            backend.close()

    @pytest.mark.parametrize("layout, out_of_band", [
        ("float64", True), ("int32", True), ("bool", True),
        ("fortran", True), ("empty", True),
        # No contiguous buffer to hand out: pickled in band, a private
        # (writeable) copy — the shm plane also left these inline.
        ("strided", False), ("object", False),
    ])
    def test_every_layout_round_trips(self, layout, out_of_band):
        array = {
            "float64": np.linspace(0.0, 1.0, 5_000),
            "int32": np.arange(5_000, dtype=np.int32),
            "bool": np.arange(5_000) % 3 == 0,
            "fortran": np.asfortranarray(
                np.arange(6_000.0).reshape(60, 100)),
            "empty": np.empty(0),
            "strided": np.arange(10_000.0)[::3],
            "object": np.array(["a", "bb", None] * 100, dtype=object),
        }[layout]
        backend = ProcessBackend(2)
        try:
            results = backend.run_job(ArrayEchoJob(("layout", layout), array),
                                      [(0, 1), (1, 2)])
        finally:
            backend.close()
        for echoed, writeable in results:
            assert echoed.dtype == array.dtype
            assert echoed.shape == array.shape
            assert echoed.tolist() == array.tolist()
            assert writeable is not out_of_band

    def test_sent_bytes_count_out_of_band_frames(self):
        array = np.arange(50_000, dtype=np.float64)
        backend = ProcessBackend(2)
        try:
            backend.run_job(SharedArrayJob(("array", 9), array),
                            [(0, 1), (1, 2)])
            # Each worker got the array's bytes as one raw frame beside a
            # small in-band pickle, the job blob and its task message.
            sent = backend.stats["sent_bytes"]
            assert 2 * array.nbytes < sent < 2 * array.nbytes + 4_096
        finally:
            backend.close()

    def test_new_catalog_version_supersedes_the_old_one(self):
        """Jobs always carry the current catalog version, so shipping a
        new one drops every older version of the same catalog from the
        parent cache and the workers — and nothing else."""
        backend = ProcessBackend(2)
        array = np.arange(16, dtype=np.float64)
        try:
            for key in (("catalog", 7, 1), ("catalog", 8, 1),
                        ("catalog", 7, 2)):
                backend.run_job(SharedArrayJob(key, array),
                                [(0, 8), (8, 16)])
            live = {("catalog", 8, 1), ("catalog", 7, 2)}
            assert set(backend._shared_cache) == live
            for worker in backend._workers:
                assert worker.shared_keys == live
        finally:
            backend.close()

    def test_cache_limit_evicts_oldest_key_everywhere(self):
        """Past the cache limit the oldest entry leaves the parent cache
        and every worker's mirror, and asking for it again re-ships it."""
        from repro.engine.backends import _SHARED_CACHE_LIMIT
        backend = ProcessBackend(2)
        array = np.arange(16, dtype=np.float64)
        keys = [("array", index) for index in range(_SHARED_CACHE_LIMIT + 1)]
        try:
            for key in keys:
                mirrors = backend.run_job(MirrorKeysJob(key, array),
                                          [(0, 8), (8, 16)])
            assert mirrors == [sorted(keys[1:])] * 2
            assert list(backend._shared_cache) == keys[1:]
            pickles = backend.stats["shared_pickles"]
            assert backend.run_job(SharedArrayJob(keys[0], array),
                                   [(0, 8), (8, 16)]) == [28.0, 92.0]
            assert backend.stats["shared_pickles"] == pickles + 1
        finally:
            backend.close()

    def test_catalog_columns_are_read_only_in_workers(self):
        """The production payload: a catalog's numeric columns arrive as
        out-of-band buffers, read-only; a string column (object dtype,
        pickled in band) is a private copy."""
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": np.arange(1_000.0),
                                      "n": np.arange(1_000),
                                      "name": ["row"] * 1_000}))
        backend = ProcessBackend(2)
        try:
            flags = backend.run_job(CatalogFlagsJob(catalog, "t"),
                                    [(0, 1), (1, 2)])
        finally:
            backend.close()
        assert flags == [{"x": False, "n": False, "name": True}] * 2
        assert catalog.table("t").column("x").flags.writeable

    def test_shared_arrays_are_read_only_in_workers(self):
        """Out-of-band buffers arrive as immutable ``bytes``; the arrays
        rebuilt over them refuse writes, so a worker can never diverge
        from the parent's copy of a catalog column."""
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            with pytest.raises(EngineError, match="read-only"):
                backend.run_job(SharedWriteJob(("table", 2), array),
                                [(0, 10), (10, 20)])
        finally:
            backend.close()
        assert array[0] == 0.0 and array.flags.writeable

    def test_worker_error_reset_clears_shared_channel(self):
        backend = ProcessBackend(2)
        array = np.ones(20_000)
        try:
            with pytest.raises(EngineError, match="shard exploded"):
                backend.run_job(FailingSharedJob(("t", 2), array),
                                [(0, 1), (1, 2)])
            # The in-worker failure reset the pool before any close():
            # the respawned workers get the shared payload shipped again.
            assert backend.workers_alive == 0
            assert leaked_segments() == []
            assert backend.run_job(SharedArrayJob(("t", 2), array),
                                   [(0, 10), (10, 20)]) == [10.0, 10.0]
            assert backend.stats["shared_pickles"] == 2
            assert backend.stats["shared_sends"] == 4
        finally:
            backend.close()

    def test_worker_kill_reset_clears_shared_channel(self):
        backend = ProcessBackend(2)
        array = np.ones(20_000)
        try:
            backend.run_job(SharedArrayJob(("t", 3), array),
                            [(0, 1), (1, 2)])
            backend._workers[0].process.kill()
            backend._workers[0].process.join()
            with pytest.raises(EngineError, match="died"):
                backend.run_job(SharedArrayJob(("t", 3), array),
                                [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert leaked_segments() == []
            assert backend.run_job(SharedArrayJob(("t", 3), array),
                                   [(0, 10), (10, 20)]) == [10.0, 10.0]
            assert backend.stats["shared_pickles"] == 2
        finally:
            backend.close()

    def test_catalog_share_key_tracks_version(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": [1.0]}))
        before = catalog_share_key(catalog)
        catalog.add_table(Table("u", {"y": [2.0]}))
        after = catalog_share_key(catalog)
        assert before != after
        assert catalog_share_key(catalog) == after  # stable while unmutated

    def test_catalog_share_key_never_aliases_across_catalogs(self):
        """Two distinct catalogs at the same version must never share a
        key.  The seed keyed on ``id(catalog)``, which CPython recycles
        the moment a catalog is garbage-collected — a stale worker-side
        cache entry could then serve the *old* catalog's columns for a
        brand-new catalog.  ``Catalog.uid`` is monotone per process, so
        recycled addresses can't collide."""
        def build():
            catalog = Catalog()
            catalog.add_table(Table("t", {"x": [1.0]}))
            return catalog

        first = build()
        first_key = catalog_share_key(first)
        del first  # frees the address for recycling
        second = build()
        assert catalog_share_key(second) != first_key
        # Same catalog, same version: the key is a pure function of
        # (uid, version), not of object identity at call time.
        assert catalog_share_key(second) == catalog_share_key(second)


class TestPayloadRegression:
    """Shard tasks must never regrow a catalog payload.

    The seed implementation pickled ``(executor, lo, hi)`` — catalog,
    plan and det cache — once per shard task.  The backend transport
    pins: task messages are constant-size triples, the broadcast job
    excludes the catalog (it rides the keyed shared channel), and the
    stats the scaling benchmark reports reflect that.
    """

    def test_task_message_is_tiny_and_catalog_free(self):
        executor = _mc_executor(rows=50_000)
        task = ProcessBackend.task_message(7, 0, 0, 25)
        task_bytes = len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        catalog_bytes = len(pickle.dumps(executor.catalog,
                                         pickle.HIGHEST_PROTOCOL))
        assert task_bytes < 100
        assert catalog_bytes > 100_000
        assert task == ("run", 7, 0, 0, 25)  # integers only, nothing rides

    @pytest.mark.slow
    def test_broadcast_job_excludes_catalog(self):
        executor = _mc_executor(rows=50_000)
        job_bytes = len(pickle.dumps(executor, pickle.HIGHEST_PROTOCOL))
        catalog_bytes = len(pickle.dumps(executor.catalog,
                                         pickle.HIGHEST_PROTOCOL))
        assert job_bytes < catalog_bytes / 10
        restored = pickle.loads(pickle.dumps(executor,
                                             pickle.HIGHEST_PROTOCOL))
        assert restored.catalog is None
        with pytest.raises(EngineError, match="no catalog bound"):
            restored.run_shard(0, 4)
        restored.attach_shared(
            {catalog_share_key(executor.catalog): executor.catalog})
        result = restored.run_shard(0, 4)
        np.testing.assert_array_equal(
            result.distribution("total").samples,
            executor.run_shard(0, 4).distribution("total").samples)

    @pytest.mark.slow
    def test_end_to_end_transport_sizes(self):
        executor = _mc_executor(rows=20_000,
                                options=ExecutionOptions(n_jobs=2))
        backend = ProcessBackend(2)
        executor.backend = backend
        try:
            executor.run(50)
            catalog_bytes = len(pickle.dumps(executor.catalog,
                                             pickle.HIGHEST_PROTOCOL))
            assert backend.stats["task_bytes"] < 100
            assert backend.stats["job_bytes"] < catalog_bytes / 10
            assert backend.stats["shared_pickles"] == 1
        finally:
            backend.close()


class TestDetCacheShardSemantics:
    """Worker caches are snapshots: pre-warmed at broadcast, never merged."""

    CREATE = """
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """
    MC_QUERY = """
        SELECT SUM(val) AS loss FROM Losses
        WITH RESULTDISTRIBUTION MONTECARLO(60)
    """
    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
        WITH RESULTDISTRIBUTION MONTECARLO(30)
        DOMAIN loss >= QUANTILE(0.9)
    """

    def _session(self, options=None):
        session = Session(base_seed=11, tail_budget=200, window=150,
                          options=options)
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    def test_worker_fills_do_not_flow_back_under_process(self):
        with self._session(ExecutionOptions(n_jobs=2)) as session:
            session.execute(self.MC_QUERY)
            # Every shard ran in a worker process; the workers
            # materialized the deterministic subtrees in their local
            # snapshots, and none of those fills came back.
            assert len(session.det_cache) == 0
        serial = self._session()
        serial.execute(self.MC_QUERY)
        assert len(serial.det_cache) > 0

    def test_thread_shards_share_the_live_session_cache(self):
        """The thread transport has the opposite — also intended —
        semantics: shards hold the session cache by reference, so their
        fills persist and later queries hit them."""
        with self._session(ExecutionOptions(
                n_jobs=2, backend="thread")) as session:
            session.execute(self.MC_QUERY)
            assert len(session.det_cache) > 0
            session.det_cache.hits = 0
            session.execute(self.MC_QUERY)
            assert session.det_cache.hits > 0

    def test_broadcast_carries_session_cache_snapshot(self):
        with self._session(ExecutionOptions(n_jobs=2)) as session:
            session.execute(self.TAIL_QUERY)  # tail runs fill the cache
            filled = len(session.det_cache)
            assert filled > 0
            from repro.sql.planner import compile_select, monte_carlo_executor
            from repro.sql.parser import parse
            compiled = compile_select(parse(self.MC_QUERY), session.catalog,
                                      tail_mode=False)
            executor = monte_carlo_executor(
                compiled, session.catalog, base_seed=session.base_seed,
                options=session.options, det_cache=session.det_cache)
            broadcast = pickle.loads(pickle.dumps(executor,
                                                  pickle.HIGHEST_PROTOCOL))
            # The worker-side copy is pre-warmed with the whole snapshot…
            assert len(broadcast.det_cache) == filled
            # …and filling it there leaves the session cache untouched.
            broadcast.attach_shared(
                {catalog_share_key(session.catalog): session.catalog})
            broadcast.run_shard(0, 5)
            assert len(session.det_cache) == filled


class TestSessionPoolLifecycle:
    CREATE = TestDetCacheShardSemantics.CREATE
    MC_QUERY = TestDetCacheShardSemantics.MC_QUERY

    def _session(self, options):
        session = Session(base_seed=7, options=options)
        session.add_table("means", {
            "CID": np.arange(10), "m": np.linspace(1.0, 2.0, 10)})
        session.execute(self.CREATE)
        return session

    def test_pool_spawns_lazily_and_persists(self):
        session = self._session(ExecutionOptions(n_jobs=2))
        assert session.backend is None  # nothing sharded yet
        session.execute(self.MC_QUERY)
        backend = session.backend
        assert backend is not None and backend.workers_alive == 2
        session.execute(self.MC_QUERY)
        assert session.backend is backend  # reused, not respawned
        assert backend.stats["spawns"] == 2
        session.close()
        assert session.backend is None and backend.workers_alive == 0

    def test_context_manager_closes_pool(self):
        with self._session(ExecutionOptions(n_jobs=2)) as session:
            session.execute(self.MC_QUERY)
            backend = session.backend
            assert backend.workers_alive == 2
        assert backend.workers_alive == 0

    def test_session_usable_after_close(self):
        session = self._session(ExecutionOptions(n_jobs=2))
        first = session.execute(self.MC_QUERY)
        session.close()
        second = session.execute(self.MC_QUERY)  # respawns transparently
        np.testing.assert_array_equal(
            first.distributions.distribution("loss").samples,
            second.distributions.distribution("loss").samples)
        session.close()

    def test_session_close_reaps_workers(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with self._session(ExecutionOptions(n_jobs=2,
                                            backend="process")) as session:
            session.execute(self.MC_QUERY)
            backend = session.backend
            assert len(_new_children(before)) == 2
        assert backend.workers_alive == 0
        assert _new_children(before) == []
        assert leaked_segments() == []

    def test_unsharded_session_never_builds_a_pool(self):
        session = self._session(ExecutionOptions(n_jobs=1))
        session.execute(self.MC_QUERY)
        assert session.backend is None
        session.close()


def _new_children(before: set) -> list:
    """Live child processes of this test process not in ``before``."""
    return [child.pid for child in multiprocessing.active_children()
            if child.pid not in before]


class TestTailRunsInProcess:
    """A tail query runs the serial looper whatever ``n_jobs`` is: the
    Gibbs sweep is Gauss–Seidel over TS-seeds, so it never touches, let
    alone spawns, the session's pool."""

    CREATE = TestDetCacheShardSemantics.CREATE
    MC_QUERY = TestDetCacheShardSemantics.MC_QUERY
    TAIL_QUERIES = [
        TestDetCacheShardSemantics.TAIL_QUERY,
        """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 9
        WITH RESULTDISTRIBUTION MONTECARLO(20)
        DOMAIN loss >= QUANTILE(0.95)
        """,
    ]

    def _session(self, backend="process"):
        session = Session(base_seed=11, tail_budget=200, window=150,
                          options=ExecutionOptions(n_jobs=2,
                                                   backend=backend))
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tail_only_session_spawns_nothing(self, backend):
        before = {child.pid for child in multiprocessing.active_children()}
        with self._session(backend) as session:
            for sql in self.TAIL_QUERIES:
                assert session.execute(sql).tail.samples.size > 0
            assert session.backend is None
            assert _new_children(before) == []
            assert leaked_segments() == []

    def test_standing_tail_refresh_after_append_spawns_nothing(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with self._session() as session:
            handle = session.standing_query(self.TAIL_QUERIES[1])
            session.append("means", {"CID": [15, 16], "m": [2.5, 3.5]})
            assert handle.refresh().tail.samples.size > 0
            assert session.backend is None
            assert _new_children(before) == []

    def test_tail_query_sends_nothing_to_a_live_pool(self):
        with self._session() as session:
            session.execute(self.MC_QUERY)
            backend = session.backend
            sent, jobs = backend.stats["sent_bytes"], backend.stats["jobs"]
            session.execute(self.TAIL_QUERIES[0])
            assert session.backend is backend
            assert backend.stats["sent_bytes"] == sent
            assert backend.stats["jobs"] == jobs


class TestRunJobQueryFaults:
    """Worker death inside a real sharded Monte Carlo query."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="kill injection relies on fork inheriting the patched class")
    @pytest.mark.parametrize("query", ["join_group", "presence"])
    def test_kill_inside_run_shard_then_recover(self, monkeypatch, query):
        """A worker SIGKILLed inside ``run_shard`` must tear the pool down
        into a clean EngineError — no hang, no leaked segment, no orphan
        child — and the next query on the same session must respawn the
        pool and reproduce the MC golden bytes."""
        import test_mc_goldens as goldens
        sql = goldens.QUERIES[query][0]
        parent = os.getpid()
        run_shard = MonteCarloExecutor.run_shard

        def killer(self, lo, hi):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_shard(self, lo, hi)

        before = {child.pid for child in multiprocessing.active_children()}
        options = ExecutionOptions(n_jobs=2, backend="process")
        with goldens.WORKLOAD.build_session(
                base_seed=goldens.BASE_SEED, options=options) as session:
            # Workers fork at first use, inheriting the patched class.
            monkeypatch.setattr(MonteCarloExecutor, "run_shard", killer)
            with pytest.raises(EngineError, match="died"):
                session.execute(sql)
            backend = session.backend
            assert backend.workers_alive == 0  # pool torn down
            assert leaked_segments() == []  # ...with its shm segments
            assert _new_children(before) == []
            monkeypatch.undo()  # fresh workers fork from healthy code
            recovered = session.execute(sql).distributions
            assert session.backend is backend
            assert backend.workers_alive == 2  # respawned
            assert backend.stats["spawns"] == 4
        goldens.assert_equals_goldens(
            query, goldens.samples_of(query, recovered))

    def test_kill_between_queries_then_recover(self):
        """A worker killed while the pool idles between two queries (OOM
        killer, operator): the next query fails typed and clean, the one
        after respawns the pool and reproduces the MC golden bytes."""
        import test_mc_goldens as goldens
        before = {child.pid for child in multiprocessing.active_children()}
        options = ExecutionOptions(n_jobs=2, backend="process")
        with goldens.WORKLOAD.build_session(
                base_seed=goldens.BASE_SEED, options=options) as session:
            session.execute(goldens.JOIN_GROUP)
            backend = session.backend
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            with pytest.raises(EngineError, match="died"):
                session.execute(goldens.JOIN_GROUP)
            assert backend.workers_alive == 0
            assert leaked_segments() == []
            assert _new_children(before) == []
            recovered = session.execute(goldens.JOIN_GROUP).distributions
            assert backend.workers_alive == 2
        goldens.assert_equals_goldens(
            "join_group", goldens.samples_of("join_group", recovered))

    def test_catalog_bump_rebroadcasts_the_catalog(self):
        """Workers keep only the keyed shared channel between queries; a
        catalog version bump must meet a fresh broadcast, never a stale
        worker-side copy, and leave the results unchanged."""
        import test_mc_goldens as goldens
        options = ExecutionOptions(n_jobs=2, backend="process")
        with goldens.WORKLOAD.build_session(
                base_seed=goldens.BASE_SEED, options=options) as session:
            first = session.execute(goldens.JOIN_GROUP).distributions
            pickles = session.backend.stats["shared_pickles"]
            session.add_table("extra", {"k": np.arange(3)})  # version bump
            second = session.execute(goldens.JOIN_GROUP).distributions
            assert session.backend.stats["shared_pickles"] == pickles + 1
        assert goldens.samples_of("join_group", first).keys() == \
            goldens.samples_of("join_group", second).keys()
        goldens.assert_equals_goldens(
            "join_group", goldens.samples_of("join_group", second))
