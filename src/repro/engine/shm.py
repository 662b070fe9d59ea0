"""Zero-copy shared-memory data plane for the process backend.

The broadcast-once transport of :mod:`repro.engine.backends` got the
*control* traffic down to constant-size tuples, but the bulk payloads —
catalog relations and their bundle columns — still crossed the pipe as
pickled bytes that every worker re-materialized into a private copy.
This module is the share-one-resident-dataset-across-many-consumers
move (cf. the LCG MCDB's generator-level event samples, PAPERS.md): the
parent places each large NumPy array in a ``multiprocessing.shared_memory``
segment exactly once and ships a :class:`ShmDescriptor` — ``(segment,
dtype, shape, offset)``, tens of bytes pickled — in its place; workers
attach the segment and rebuild a read-only zero-copy ``np.ndarray`` view
over the same physical pages.

Mechanically this is a ``persistent_id`` / ``persistent_load`` pair:

* :meth:`ShmBlockStore.dumps` pickles an arbitrary object graph, but
  every large contiguous numeric array it meets is hoisted into one
  per-call *arena* segment and replaced by a descriptor.  Everything
  else (dict shape, small arrays, object-dtype string columns) pickles
  normally, so the wire blob shrinks to control-plane size without any
  schema for the payload.
* :func:`shm_loads` (worker side) resolves descriptors against a
  per-process :class:`ShmAttachCache`, attaching each segment once and
  handing out views at the recorded offsets.

Ownership and lifecycle are strictly parent-side: the store that created
a segment is the only one that ever unlinks it.  Workers attach by name
and must *unregister* the mapping from their ``resource_tracker`` —
otherwise Python 3.11's tracker double-registers the segment and the
first worker to exit unlinks it from under everyone (bpo-39959).
Unlink-while-mapped is safe on POSIX: the pages live until the last
mapping dies, so the parent unlinks every segment at pool teardown.  A
``weakref.finalize`` backstop — which also runs at interpreter
``atexit`` — unlinks anything still registered if a store is dropped
without :meth:`ShmBlockStore.close`, guarded by PID so a forked child can
never reap its parent's segments.
"""

from __future__ import annotations

import io
import os
import pickle
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import NamedTuple

import numpy as np

__all__ = [
    "ShmDescriptor", "ShmBlockStore", "ShmAttachCache", "shm_loads",
    "SEGMENT_PREFIX", "leaked_segments",
]

#: Arrays below this many bytes stay inline in the pickle stream: a
#: descriptor plus a page-granular mapping costs more than it saves.
MIN_BLOCK_BYTES = 1024

#: Dtype kinds eligible for hoisting — fixed-size numeric/bool buffers
#: only.  Object-dtype columns (how :class:`~repro.engine.table.Table`
#: stores strings) hold pointers into the owning process's heap and can
#: never cross an address-space boundary as raw bytes.
_SHARABLE_KINDS = frozenset("biufc")

#: Every segment this module creates is named ``mcdbr-<pid>-<seq>`` so
#: tests and benchmarks can assert nothing leaked into ``/dev/shm``.
SEGMENT_PREFIX = "mcdbr-"

#: Block offsets are aligned so attached views start on a cache line.
_ALIGN = 64


def leaked_segments() -> list[str]:
    """Names of every live ``mcdbr-*`` segment on this host (POSIX only).

    The leak oracle for the lifecycle tests: after ``Session.close()``,
    after a worker kill, after an ``EngineError`` recovery, this must be
    empty.  Returns ``[]`` where ``/dev/shm`` does not exist (the store
    degrades to plain pickling there anyway).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in entries
                  if name.startswith(SEGMENT_PREFIX))


class ShmDescriptor(NamedTuple):
    """Wire stand-in for one hoisted array: attach ``segment``, view
    ``shape``/``dtype`` bytes at ``offset``.

    Views attach read-only, so any worker-side write raises instead of
    silently diverging from the other attachments.
    """

    segment: str
    dtype: str
    shape: tuple
    offset: int


class _BlockPickler(pickle.Pickler):
    """Pickler that hoists large numeric arrays into one arena segment.

    Offsets are assigned incrementally during the (single) pickle pass
    against a pre-generated segment name; the caller creates and fills
    the segment afterwards, so a dump that hoists nothing allocates
    nothing.
    """

    def __init__(self, file, segment_name: str):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._segment_name = segment_name
        self._descriptors: dict[int, ShmDescriptor] = {}
        self._keepalive: list[np.ndarray] = []  # pins id() keys
        self.blocks: list[tuple[np.ndarray, int]] = []
        self.total_bytes = 0

    def persistent_id(self, obj):
        if type(obj) is not np.ndarray:
            return None
        if obj.nbytes < MIN_BLOCK_BYTES or \
                obj.dtype.kind not in _SHARABLE_KINDS:
            return None
        known = self._descriptors.get(id(obj))
        if known is not None:
            return known
        array = np.ascontiguousarray(obj)
        offset = -(-self.total_bytes // _ALIGN) * _ALIGN
        self.total_bytes = offset + array.nbytes
        self.blocks.append((array, offset))
        descriptor = ShmDescriptor(
            self._segment_name, array.dtype.str, array.shape, offset)
        self._descriptors[id(obj)] = descriptor
        self._keepalive.append(obj)
        return descriptor


class ShmBlockStore:
    """Parent-owned pool of shared-memory segments holding hoisted arrays.

    One store per :class:`~repro.engine.backends.ProcessBackend`; it owns
    every segment it creates until :meth:`close` unlinks them.  If the
    host cannot allocate POSIX shared memory at all (no ``/dev/shm``),
    the store flips itself unavailable on the first failure and every
    later :meth:`dumps` degrades to plain pickling — same bytes on the
    wire as ``MCDBR_SHM=off``, no caller involvement.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._sequence = 0
        self.available = True
        # PID-guarded backstop: runs on GC of the store and at interpreter
        # exit, but never in a forked child that inherited the registry —
        # a worker exiting must not unlink its parent's live segments.
        self._finalizer = weakref.finalize(
            self, _release_segments, os.getpid(), self._segments)

    # -- creation ------------------------------------------------------------

    def _next_name(self) -> str:
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{self._sequence}"
        self._sequence += 1
        return name

    def dumps(self, obj) -> tuple[bytes, str | None, int]:
        """Pickle ``obj``, hoisting large arrays into one new segment.

        Returns ``(blob, segment_name, array_bytes)`` — ``segment_name``
        is ``None`` (and ``array_bytes`` 0) when nothing was hoisted or
        shared memory is unavailable.  The segment lives until
        :meth:`close`.
        """
        if not self.available:
            return (pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                    None, 0)
        name = self._next_name()
        buffer = io.BytesIO()
        pickler = _BlockPickler(buffer, name)
        pickler.dump(obj)
        blob = buffer.getvalue()
        if not pickler.blocks:
            return blob, None, 0
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=pickler.total_bytes)
        except OSError:
            # No /dev/shm (or it filled up): degrade permanently to plain
            # pickling rather than failing every payload from here on.
            self.available = False
            return (pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                    None, 0)
        array_bytes = 0
        for array, offset in pickler.blocks:
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=offset)
            np.copyto(view, array)
            array_bytes += array.nbytes
            del view  # release the exported buffer before any unlink
        self._segments[name] = segment
        return blob, name, array_bytes

    # -- lifecycle -----------------------------------------------------------

    @property
    def live_segments(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        """Unlink every live segment; the store stays usable after."""
        while self._segments:
            _unlink(self._segments.popitem()[1])


def _release_segments(owner_pid: int,
                      segments: dict[str, shared_memory.SharedMemory]) -> None:
    if os.getpid() != owner_pid:
        return  # forked child: not the owner, never unlink
    while segments:
        _unlink(segments.popitem()[1])


def _unlink(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
        segment.unlink()
    except OSError:
        pass  # already gone (e.g. the atexit backstop racing close())


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    Python 3.11 registers *attach-mode* ``SharedMemory`` too (bpo-39959;
    3.13 grew ``track=False`` for exactly this).  Left alone that breaks
    both start methods: under spawn the attaching worker's own tracker
    unlinks the segment from under everyone when that worker exits, and
    under fork — where workers share the parent's tracker process — the
    duplicate registration collapses into the parent's one set entry, so
    an attach-side ``unregister`` would strip the parent's legitimate
    registration (and its later ``unlink`` then logs tracker KeyErrors).
    Suppressing the registration at the source is the one behavior
    correct for both: the parent store remains the sole registrant and
    the sole unlinker.
    """
    def _no_register(*args, **kwargs):
        return None

    original = resource_tracker.register
    resource_tracker.register = _no_register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmAttachCache:
    """Worker-side segment cache: attach once, hand out views forever.

    One per worker process.  Attachments bypass the worker's
    ``resource_tracker`` (:func:`_attach_untracked`) — the parent store
    is the sole owner of every segment's name — and are closed when the
    worker loop exits (the pages a live view still needs survive the
    close).
    """

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self.attached_bytes = 0

    def view(self, descriptor: ShmDescriptor) -> np.ndarray:
        segment = self._attached.get(descriptor.segment)
        if segment is None:
            segment = _attach_untracked(descriptor.segment)
            self._attached[descriptor.segment] = segment
        array = np.ndarray(descriptor.shape,
                           dtype=np.dtype(descriptor.dtype),
                           buffer=segment.buf, offset=descriptor.offset)
        array.flags.writeable = False
        self.attached_bytes += array.nbytes
        return array

    def close(self) -> None:
        while self._attached:
            try:
                self._attached.popitem()[1].close()
            except (OSError, BufferError):
                pass  # live views keep their pages regardless


class _BlockUnpickler(pickle.Unpickler):
    def __init__(self, file, cache: ShmAttachCache | None):
        super().__init__(file)
        self._cache = cache

    def persistent_load(self, pid):
        if isinstance(pid, ShmDescriptor):
            if self._cache is None:
                raise pickle.UnpicklingError(
                    "shared-memory descriptor in a context without an "
                    "attach cache")
            return self._cache.view(pid)
        raise pickle.UnpicklingError(
            f"unsupported persistent id {pid!r}")


def shm_loads(blob: bytes, cache: ShmAttachCache | None):
    """Unpickle ``blob``, resolving descriptors to zero-copy views.

    Blobs produced without any hoisting decode identically to
    ``pickle.loads`` — the worker loop uses this unconditionally.
    """
    return _BlockUnpickler(io.BytesIO(blob), cache).load()
