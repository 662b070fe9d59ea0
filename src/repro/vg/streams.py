"""Deterministic, seed-addressed streams of VG-function outputs.

A :class:`RandomStream` is the in-memory realization of the paper's "stream
of random data" (Sec. 4.1): the sequence of values produced by repeatedly
executing one VG function with one PRNG seed.  Two properties matter for
MCDB-R:

* **Determinism** — position ``i`` of the stream is a pure function of
  ``(seed, i)``, so a stream can be discarded and regenerated at any time.
  This is what lets MCDB-R re-run a query plan to "replenish" data (Sec. 9)
  without changing any value already assigned to a database version.

* **Windowed materialization** — the Gibbs Looper consumes stream positions
  monotonically but must keep every position that is *currently assigned* to
  some database version (Sec. 6, TS-seed items 3-5).  A
  :class:`StreamWindow` therefore retains a contiguous recent window plus a
  sparse set of pinned (assigned) positions, keeping memory at
  ``O(window + versions)`` rather than ``O(total positions consumed)``.

The paper's streams are "fueled" by a PRNG seed carried in the tuple bundle.
We use ``numpy``'s Philox counter-based bit generator: ``Philox(key=seed)``
jumped to block ``i`` gives O(1) access to any position without generating
the prefix, which both keeps regeneration cheap and makes position access
order-independent.

**The seek.**  A Philox generator *is* its state: a 128-bit key, a 256-bit
block counter and a four-word output buffer.  ``Philox(key=seed)`` sets key
word 0 to the seed with a zero counter, and ``advance(chunk << 40)`` adds
that to the counter and discards the buffer — so writing key ``[seed, 0]``,
counter ``chunk << 40`` (low 64 bits in word 0, the carry in word 1) and an
empty buffer through the bit generator's ``state`` setter lands on exactly
the same state, hence the same bits, without constructing anything.
Construction is what used to dominate: ``Philox(key=...)`` builds a
throw-away ``SeedSequence`` from OS entropy, one ``urandom`` syscall per
(seed, chunk), costing twice the 256 normals it precedes.  So every stream
draws from one generator per thread (:func:`borrowed_generator`) that is
re-seeked per chunk.  The rule that makes this safe: the generator is
*borrowed* for one ``sample_blocks`` call and never kept — a sampler that
stored it, or pulled another stream's values while drawing, would find it
re-seeked under its feet.  :func:`generator_for_chunk` remains for callers
that need an object of their own.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

# Values are generated in fixed-size chunks so that regenerating a stream
# after replenishment touches each chunk at most once.
DEFAULT_CHUNK = 256

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Each Philox block yields 4 x 64 bits; chunks sit 2**40 blocks apart, far
# enough that they can never overlap regardless of how many variates one
# element consumes.
_CHUNK_SHIFT = 40


def gather_stream_values(positions, chunk: int, chunk_values) -> np.ndarray:
    """Gather deterministic stream values at arbitrary positions.

    ``chunk_values(chunk_index)`` must return that chunk's ``(chunk,)``
    value vector.  Ascending positions (the Instantiate/window case) hit a
    fast path where each chunk covers one contiguous slice, avoiding a
    per-chunk scan of the whole input.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.any(positions < 0):
        raise IndexError("stream positions must be >= 0")
    out = np.empty(positions.shape, dtype=np.float64)
    chunk_ids = positions // chunk
    offsets = positions % chunk
    if positions.ndim == 1 and chunk_ids.size > 1 and np.all(
            chunk_ids[1:] >= chunk_ids[:-1]):
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(chunk_ids)) + 1, [chunk_ids.size]))
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            out[lo:hi] = chunk_values(int(chunk_ids[lo]))[offsets[lo:hi]]
        return out
    for cid in np.unique(chunk_ids):
        mask = chunk_ids == cid
        out[mask] = chunk_values(int(cid))[offsets[mask]]
    return out


def gather_stream_windows(positions, rows, components,
                          out: np.ndarray | None = None,
                          chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Fill many streams' windows over one shared position vector.

    ``rows[r]`` is ``(prng_seed, vg, params)`` — the stream of ``vg`` with
    that parameter tuple fueled by that seed — and ``out[i, r]`` receives
    component ``components[i]`` of its blocks at ``positions``.  ``out``
    is the ``(len(components), len(rows), len(positions))`` float64 matrix
    to write into — ``Instantiate``'s output rows — allocated when
    ``None``, and is returned either way.  This is the one batched fill of
    the full-run path: the chunk segmentation of ``positions`` is computed
    *once*, and each (seed, chunk) pair costs a re-seek of the borrowed
    generator (:func:`borrowed_generator`), one ``sample_blocks`` call and
    one sliced copy per component — no stream object, closure or chunk
    cache per seed.  Positions must be chunk-ascending (ascending chunk
    indices; any order within a chunk) — the Instantiate window case;
    callers with arbitrary position order use per-stream ``values_at``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if out is None:
        out = np.empty((len(components), len(rows), positions.size))
    if positions.size == 0 or not len(rows):
        return out
    if np.any(positions < 0):
        raise IndexError("stream positions must be >= 0")
    chunk_ids = positions // chunk
    offsets = positions % chunk
    if np.any(chunk_ids[1:] < chunk_ids[:-1]):
        raise ValueError("gather_stream_windows requires ascending positions")
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(chunk_ids)) + 1, [chunk_ids.size]))
    segments = []
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        index = offsets[lo:hi]
        if np.all(np.diff(index) == 1):  # a contiguous run: copy by slice
            index = slice(int(index[0]), int(index[-1]) + 1)
        segments.append((lo, hi, int(chunk_ids[lo]), index))
    targets = list(enumerate(components))
    for row, (seed, vg, params) in enumerate(rows):
        for lo, hi, chunk_index, index in segments:
            blocks = np.asarray(
                vg.sample_blocks(borrowed_generator(seed, chunk_index),
                                 params, chunk),
                dtype=np.float64).reshape(chunk, -1)
            for slot, component in targets:
                out[slot, row, lo:hi] = blocks[index, component]
    return out


def generator_for_chunk(seed: int, chunk_index: int) -> np.random.Generator:
    """Return a *fresh* Generator positioned deterministically for one chunk.

    Philox is counter-based: advancing the counter by a fixed amount per
    chunk yields independent, reproducible sub-streams without generating
    intermediate values.  Callers may hold several of these at once; the
    stream classes themselves use :func:`borrowed_generator`, which yields
    the same bits without constructing anything.
    """
    bitgen = np.random.Philox(key=seed & _MASK64)
    bitgen.advance(chunk_index << _CHUNK_SHIFT)
    return np.random.Generator(bitgen)


_pool = threading.local()


def borrowed_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """This thread's pooled Generator, re-seeked to ``(seed, chunk_index)``.

    Bit-equal to :func:`generator_for_chunk` (see the module docstring) at
    a fraction of the cost.  The generator is *borrowed*: the next call on
    this thread re-seeks the very same object, so draw what you need and
    let go of it before anything else can ask for a chunk.
    """
    entry = getattr(_pool, "entry", None)
    if entry is None:
        bitgen = np.random.Philox(key=0)
        state = bitgen.state  # counter 0, empty buffer, no cached uint32
        entry = _pool.entry = (
            bitgen, np.random.Generator(bitgen), state,
            state["state"]["counter"], state["state"]["key"])
    bitgen, generator, state, counter, key = entry
    shifted = chunk_index << _CHUNK_SHIFT
    key[0] = seed & _MASK64
    counter[0] = shifted & _MASK64
    counter[1] = shifted >> 64  # the carry: chunk_index >= 2**24
    bitgen.state = state
    return generator


class RandomStream:
    """Deterministic stream of scalar elements drawn by a sampler function.

    ``sampler(rng, size)`` must return ``size`` i.i.d. draws as a 1-D float
    array; it is the single-value core of a VG function.  Elements are
    addressed by non-negative integer position.
    """

    def __init__(self, seed: int, sampler: Callable[[np.random.Generator, int], np.ndarray],
                 chunk: int = DEFAULT_CHUNK):
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.seed = int(seed)
        self._sampler = sampler
        self._chunk = int(chunk)
        self._cache: dict[int, np.ndarray] = {}

    def _chunk_values(self, chunk_index: int) -> np.ndarray:
        values = self._cache.get(chunk_index)
        if values is None:
            rng = borrowed_generator(self.seed, chunk_index)
            values = np.asarray(self._sampler(rng, self._chunk), dtype=np.float64)
            if values.shape != (self._chunk,):
                raise ValueError(
                    f"sampler returned shape {values.shape}, expected ({self._chunk},)")
            self._cache[chunk_index] = values
        return values

    def value_at(self, position: int) -> float:
        """Return the stream element at ``position`` (0-based)."""
        if position < 0:
            raise IndexError(f"stream position must be >= 0, got {position}")
        chunk_index, offset = divmod(position, self._chunk)
        return float(self._chunk_values(chunk_index)[offset])

    def values_at(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at` over an array of positions."""
        return gather_stream_values(positions, self._chunk, self._chunk_values)

    def range_values(self, start: int, stop: int) -> np.ndarray:
        """Return positions ``[start, stop)`` as a contiguous array."""
        if stop < start:
            raise ValueError(f"invalid range [{start}, {stop})")
        return self.values_at(np.arange(start, stop, dtype=np.int64))

    def drop_cache_below(self, position: int) -> None:
        """Forget cached chunks strictly below ``position``.

        Values remain recoverable (determinism), this only frees memory for
        prefix positions the Gibbs Looper has permanently consumed.
        """
        keep_from = position // self._chunk
        for cid in [c for c in self._cache if c < keep_from]:
            del self._cache[cid]

    @property
    def cached_chunks(self) -> int:
        return len(self._cache)


class StreamWindow:
    """A materialized view of a stream: contiguous window + pinned positions.

    This is the in-memory analogue of the value arrays carried inside Gibbs
    tuples (Sec. 5): the Instantiate operator materializes a *range* of
    stream values, and during replenishment "only adds new or currently
    assigned values" (Sec. 9).  ``pin`` marks a position as currently
    assigned to some database version so it survives window advancement.
    """

    def __init__(self, stream: RandomStream, start: int = 0, length: int = DEFAULT_CHUNK):
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        self.stream = stream
        self._start = int(start)
        self._values = stream.range_values(self._start, self._start + int(length))
        self._pinned: dict[int, float] = {}

    @property
    def window_range(self) -> tuple[int, int]:
        """Half-open range of the contiguous window."""
        return self._start, self._start + len(self._values)

    def covers(self, position: int) -> bool:
        lo, hi = self.window_range
        return (lo <= position < hi) or position in self._pinned

    def value_at(self, position: int) -> float:
        lo, hi = self.window_range
        if lo <= position < hi:
            return float(self._values[position - lo])
        try:
            return self._pinned[position]
        except KeyError:
            raise KeyError(
                f"position {position} is not materialized (window [{lo}, {hi}), "
                f"{len(self._pinned)} pinned)") from None

    def values_at(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        return np.array([self.value_at(int(p)) for p in positions], dtype=np.float64)

    def window_values(self, start: int, stop: int) -> np.ndarray:
        """Contiguous values for ``[start, stop)``; must lie inside the window."""
        lo, hi = self.window_range
        if start < lo or stop > hi:
            raise KeyError(f"[{start}, {stop}) outside materialized window [{lo}, {hi})")
        return self._values[start - lo:stop - lo]

    def pin(self, position: int) -> None:
        """Mark ``position`` as assigned so it survives window advancement."""
        self._pinned[position] = self.value_at(position)

    def unpin(self, position: int) -> None:
        self._pinned.pop(position, None)

    @property
    def pinned_positions(self) -> set[int]:
        return set(self._pinned)

    def advance(self, new_start: int, length: int | None = None) -> None:
        """Slide the window forward; pinned positions stay accessible.

        This is the replenishment step of Sec. 9 restricted to one stream:
        regenerate a fresh contiguous range while retaining every currently
        assigned value.
        """
        if length is None:
            length = len(self._values)
        if new_start < self._start:
            raise ValueError("window can only advance forward")
        self._start = int(new_start)
        self._values = self.stream.range_values(self._start, self._start + int(length))
