"""The zero-copy shared-memory data plane (``repro.engine.shm``).

Three families of guarantees:

* **Transport** — large numeric arrays hoist into parent-owned segments
  and come back as views bit-equal to the originals; small arrays,
  object-dtype columns and non-array state stay inline; the wire blob
  shrinks to descriptor size.
* **Read-only views** — every attached view is read-only: a worker
  write raises instead of silently diverging the other attachments.
* **Lifecycle** — every segment is unlinked on ``close()``, on the pool
  reset after a worker death/error, and via the finalizer backstop.
  ``/dev/shm`` is the oracle: no test may leave an ``mcdbr-*`` entry
  behind.
"""

import mmap
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.engine.backends import ProcessBackend, make_backend
from repro.engine.errors import EngineError
from repro.engine.options import ExecutionOptions
from repro.engine.shm import (
    MIN_BLOCK_BYTES, ShmAttachCache, ShmBlockStore, ShmDescriptor,
    leaked_segments, shm_loads)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available; the store degrades to "
           "plain pickling there and the pickle path is covered "
           "everywhere else")


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test starts and must end with a clean /dev/shm."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class SharedArrayJob:
    """The catalog pattern: bulk array rides the keyed shared channel."""

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

    def is_view(self):
        # Attached views sit over the segment's mapping; plain-unpickled
        # arrays sit over an in-heap buffer (and may still have
        # ``owndata`` False, so the mapping type is the discriminator).
        return isinstance(self.array.base, mmap.mmap)


class SharedWriteJob(SharedArrayJob):
    """Tries to mutate a broadcast view — must raise in the worker."""

    def run_shard(self, lo, hi):
        self.array[lo] = -1.0
        return 0.0


class ViewCheckJob(SharedArrayJob):
    """Reports whether the worker's array is an attached segment view."""

    def run_shard(self, lo, hi):
        return self.is_view()


class FailingSharedJob(SharedArrayJob):
    def run_shard(self, lo, hi):
        raise ValueError("shard exploded")


class StuckJob(SharedArrayJob):
    """Wedges its worker: ignores SIGTERM, then blocks far past the
    (shrunken, see test) close() join timeouts.  Rides the shared channel
    so the wedged worker really does hold an attached segment."""

    def run_shard(self, lo, hi):
        import time
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(600)


class TestBlockStore:
    """ShmBlockStore.dumps / shm_loads round trips."""

    def test_round_trip_is_bit_identical_and_descriptor_sized(self):
        store = ShmBlockStore()
        try:
            payload = {
                "big": np.arange(20_000, dtype=np.float64),
                "ints": np.arange(5_000, dtype=np.int32),
                "bools": np.zeros(4_096, dtype=bool),
                "small": np.arange(8),
                "strings": np.array(["a", "b"], dtype=object),
                "scalar": 7.5,
            }
            blob, segment, array_bytes = store.dumps(payload)
            assert segment is not None
            assert array_bytes == (20_000 * 8 + 5_000 * 4 + 4_096)
            plain = len(pickle.dumps(payload,
                                     protocol=pickle.HIGHEST_PROTOCOL))
            assert len(blob) < plain / 50  # descriptors, not data
            cache = ShmAttachCache()
            out = shm_loads(blob, cache)
            for name in ("big", "ints", "bools", "small"):
                np.testing.assert_array_equal(out[name], payload[name])
                assert out[name].dtype == payload[name].dtype
            assert list(out["strings"]) == ["a", "b"]
            assert out["scalar"] == 7.5
            # Zero-copy means views over the segment mapping; the inline
            # small array decodes over an ordinary in-heap buffer.
            assert isinstance(out["big"].base, mmap.mmap)
            assert not isinstance(out["small"].base, mmap.mmap)
            cache.close()
        finally:
            store.close()
        assert store.live_segments == 0

    def test_repeated_array_hoists_once(self):
        store = ShmBlockStore()
        try:
            array = np.arange(4_096, dtype=np.float64)
            blob, _, array_bytes = store.dumps([array, array, array])
            assert array_bytes == array.nbytes  # one block, three refs
            cache = ShmAttachCache()
            a, b, c = shm_loads(blob, cache)
            np.testing.assert_array_equal(a, array)
            # All three decode as views over the same block — the segment
            # holds the array once, like plain pickle's memo holds it once.
            assert np.shares_memory(a, b) and np.shares_memory(b, c)
            cache.close()
        finally:
            store.close()

    def test_small_and_object_arrays_stay_inline(self):
        store = ShmBlockStore()
        try:
            payload = {
                "tiny": np.arange(MIN_BLOCK_BYTES // 8 - 1,
                                  dtype=np.float64),
                "objects": np.array([{"k": 1}] * 1000, dtype=object),
            }
            blob, segment, array_bytes = store.dumps(payload)
            assert segment is None and array_bytes == 0
            # No descriptors: decodes with plain pickle, no cache needed.
            out = pickle.loads(blob)
            np.testing.assert_array_equal(out["tiny"], payload["tiny"])
        finally:
            store.close()

    def test_noncontiguous_arrays_round_trip(self):
        store = ShmBlockStore()
        try:
            matrix = np.arange(10_000, dtype=np.float64).reshape(100, 100)
            payload = [matrix[:, 3], matrix[::2], matrix.T]
            blob, segment, _ = store.dumps(payload)
            assert segment is not None
            cache = ShmAttachCache()
            out = shm_loads(blob, cache)
            for got, want in zip(out, payload):
                np.testing.assert_array_equal(got, want)
            cache.close()
        finally:
            store.close()

    def test_views_are_read_only(self):
        store = ShmBlockStore()
        try:
            data = np.arange(2_048, dtype=np.float64)
            cache = ShmAttachCache()
            frozen = shm_loads(store.dumps(data)[0], cache)
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 1.0
            cache.close()
        finally:
            store.close()

    def test_close_reaps_everything(self):
        store = ShmBlockStore()
        store.dumps(np.arange(2_048, dtype=np.float64))
        store.dumps(np.arange(2_048, dtype=np.float64))
        assert store.live_segments == 2
        store.close()
        assert store.live_segments == 0
        assert leaked_segments() == []
        # The store stays usable after close (pool-reset semantics).
        _, third, _ = store.dumps(np.arange(2_048, dtype=np.float64))
        assert third is not None
        store.close()

    def test_finalizer_backstop_unlinks_dropped_store(self):
        store = ShmBlockStore()
        store.dumps(np.arange(2_048, dtype=np.float64))
        assert len(leaked_segments()) == 1
        del store  # no close(): the weakref.finalize backstop must reap
        assert leaked_segments() == []

    def test_unavailable_store_degrades_to_plain_pickle(self):
        store = ShmBlockStore()
        store.available = False  # what an OSError on creation flips
        data = np.arange(20_000, dtype=np.float64)
        blob, segment, array_bytes = store.dumps(data)
        assert segment is None and array_bytes == 0
        np.testing.assert_array_equal(pickle.loads(blob), data)
        store.close()

    def test_unpickling_descriptor_without_cache_fails_loudly(self):
        store = ShmBlockStore()
        try:
            blob, _, _ = store.dumps(np.arange(2_048, dtype=np.float64))
            with pytest.raises(pickle.UnpicklingError, match="attach cache"):
                shm_loads(blob, None)
        finally:
            store.close()

    def test_descriptor_pickles_in_tens_of_bytes(self):
        descriptor = ShmDescriptor("mcdbr-1-0", "<f8", (1000, 40), 64)
        assert len(pickle.dumps(descriptor,
                                protocol=pickle.HIGHEST_PROTOCOL)) < 120


class TestProcessBackendDataPlane:
    """The three production flows through a real worker pool."""

    def test_shared_channel_ships_descriptors(self):
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            job = SharedArrayJob(("table", 1), array)
            results = backend.run_job(job, [(0, 25_000), (25_000, 50_000)])
            assert results == [float(array[:25_000].sum()),
                               float(array[25_000:].sum())]
            stats = backend.stats
            assert stats["shm_segments"] == 1
            assert stats["shm_bytes"] == array.nbytes
            # Two workers attached the same segment: delivered-by-
            # reference bytes count per recipient, placed bytes once.
            assert stats["shm_attached_bytes"] == 2 * array.nbytes
            assert stats["shared_wire_bytes"] < array.nbytes / 100
        finally:
            backend.close()
        assert backend.shm_live_segments == 0

    def test_broadcast_views_are_read_only_in_workers(self):
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            with pytest.raises(EngineError, match="read-only"):
                backend.run_job(SharedWriteJob(("table", 2), array),
                                [(0, 10), (10, 20)])
        finally:
            backend.close()

    def test_shm_off_ships_plain_pickles(self):
        backend = ProcessBackend(2, use_shm=False)
        array = np.arange(50_000, dtype=np.float64)
        try:
            job = SharedArrayJob(("table", 3), array)
            results = backend.run_job(job, [(0, 25_000), (25_000, 50_000)])
            assert results == [float(array[:25_000].sum()),
                               float(array[25_000:].sum())]
            assert backend.run_job(ViewCheckJob(("table", 3), array),
                                   [(0, 1), (1, 2)]) == [False, False]
            assert not backend.shm_enabled
            assert backend.stats["shm_segments"] == 0
            assert backend.stats["shm_attached_bytes"] == 0
            assert backend.stats["shared_wire_bytes"] > array.nbytes
        finally:
            backend.close()

    def test_make_backend_honors_the_shm_option(self):
        # Explicit on both sides: the field's *default* tracks MCDBR_SHM,
        # and CI runs this suite under the =off leg too.
        on = make_backend(ExecutionOptions(n_jobs=2, backend="process",
                                           shm="on"))
        off = make_backend(ExecutionOptions(n_jobs=2, backend="process",
                                            shm="off"))
        try:
            assert on.shm_enabled
            assert not off.shm_enabled
        finally:
            on.close()
            off.close()


class TestSegmentLifecycle:
    """No path — clean or faulty — may leak a /dev/shm segment."""

    def test_close_unlinks_everything(self):
        backend = ProcessBackend(2)
        array = np.arange(30_000, dtype=np.float64)
        backend.run_job(SharedArrayJob(("t", 1), array),
                        [(0, 15_000), (15_000, 30_000)])
        assert backend.run_job(ViewCheckJob(("t", 1), array),
                               [(0, 1), (1, 2)]) == [True, True]
        assert backend.shm_live_segments > 0
        backend.close()
        assert backend.shm_live_segments == 0
        assert leaked_segments() == []

    def test_worker_error_reset_unlinks_everything(self):
        backend = ProcessBackend(2)
        try:
            with pytest.raises(EngineError, match="shard exploded"):
                backend.run_job(FailingSharedJob(("t", 2), np.ones(20_000)),
                                [(0, 1), (1, 2)])
            # The in-worker failure reset the pool; its segments must have
            # gone with it, before any explicit close().
            assert backend.workers_alive == 0
            assert leaked_segments() == []
        finally:
            backend.close()

    def test_worker_kill_reset_unlinks_everything(self):
        backend = ProcessBackend(2)
        array = np.ones(20_000)
        try:
            backend.run_job(SharedArrayJob(("t", 3), array),
                            [(0, 1), (1, 2)])
            assert backend.shm_live_segments == 1
            backend._workers[0].process.kill()
            backend._workers[0].process.join()
            with pytest.raises(EngineError, match="died"):
                backend.run_job(SharedArrayJob(("t", 3), array),
                                [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert leaked_segments() == []
        finally:
            backend.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="wedge injection relies on fork inheriting the test class")
    def test_close_escalates_to_kill_for_sigterm_immune_workers(
            self, monkeypatch):
        """A worker that shrugs off SIGTERM used to survive close() as a
        zombie holding every attached segment's pages; close must
        escalate to SIGKILL and still unlink everything."""
        from repro.engine import backends as backends_module
        monkeypatch.setattr(backends_module, "_JOIN_TIMEOUT", 0.2)
        backend = ProcessBackend(2)
        array = np.ones(20_000)
        try:
            backend.run_job(SharedArrayJob(("t", 4), array),
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

    def test_session_close_unlinks_everything(self):
        from repro.sql import Session
        with Session(base_seed=11, options=ExecutionOptions(
                n_jobs=2, backend="process", shm="on")) as session:
            # Wide enough that the catalog columns clear MIN_BLOCK_BYTES.
            session.add_table("means", {
                "CID": np.arange(500), "m": np.linspace(1.0, 3.0, 500)})
            session.execute("""
                CREATE TABLE Losses (CID, val) AS
                FOR EACH CID IN means
                WITH myVal AS Normal(VALUES(m, 1.0))
                SELECT CID, myVal.* FROM myVal
            """)
            session.execute("""
                SELECT SUM(val) AS loss FROM Losses
                WITH RESULTDISTRIBUTION MONTECARLO(30)
            """)
            assert session.backend.shm_live_segments > 0
        assert leaked_segments() == []
