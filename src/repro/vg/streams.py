"""Deterministic, seed-addressed streams of VG-function outputs.

A *stream* is the in-memory realization of the paper's "stream of random
data" (Sec. 4.1): the sequence of value blocks produced by repeatedly
executing one VG function with one PRNG seed.  :func:`draw_chunk` is its
one definition — position ``i`` is row ``i % DEFAULT_CHUNK`` of chunk
``i // DEFAULT_CHUNK`` — and every reader draws through it: the batched
fills :func:`gather_stream_windows` (per-stream position ranges) and
:func:`gather_stream_points` (per-stream scattered positions).  One
property matters for MCDB-R:

* **Determinism** — position ``i`` of the stream is a pure function of
  ``(seed, i)``, so a stream can be discarded and regenerated at any time.
  This is what lets MCDB-R re-run a query plan to "replenish" data (Sec. 9)
  without changing any value already assigned to a database version.

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

import operator
import threading

import numpy as np

# Values are generated in fixed-size chunks so that regenerating a stream
# after replenishment touches each chunk at most once.
DEFAULT_CHUNK = 256

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Each Philox block yields 4 x 64 bits; chunks sit 2**40 blocks apart, far
# enough that they can never overlap regardless of how many variates one
# element consumes.
_CHUNK_SHIFT = 40


def draw_chunk(seed: int, vg, params, chunk_index: int) -> np.ndarray:
    """Chunk ``chunk_index`` of the stream of ``vg`` with ``params``
    fueled by ``seed``, as a ``(DEFAULT_CHUNK, arity)`` float64 block
    matrix.

    A ``sample_blocks`` result that is not ``DEFAULT_CHUNK`` blocks of
    one or more values raises :class:`~repro.engine.errors.EngineError`
    naming the VG function — never a silent re-blocking.
    """
    if chunk_index < 0:
        raise IndexError(f"stream chunk index must be >= 0, got {chunk_index}")
    blocks = np.asarray(
        vg.sample_blocks(borrowed_generator(seed, chunk_index), params,
                         DEFAULT_CHUNK),
        dtype=np.float64)
    if blocks.ndim not in (1, 2) or blocks.shape[0] != DEFAULT_CHUNK:
        # Deferred: repro.engine imports this module.
        from repro.engine.errors import EngineError
        raise EngineError(
            f"VG function {vg.name or type(vg).__name__} returned shape "
            f"{blocks.shape} for {DEFAULT_CHUNK} blocks; expected "
            f"({DEFAULT_CHUNK}, arity)")
    return blocks.reshape(DEFAULT_CHUNK, -1)


def gather_stream_points(chunk_blocks, row_of, positions,
                         components) -> np.ndarray:
    """Fill many streams' values at per-stream positions.

    Request ``i`` asks row ``row_of[i]``'s stream for position
    ``positions[i]``; ``out[c, i]`` (returned) receives component
    ``components[c]`` of that block.  ``chunk_blocks[r](chunk_index)``
    returns row ``r``'s stream chunk as a ``(DEFAULT_CHUNK, arity)``
    block matrix (e.g. :meth:`repro.engine.seeds.SeedInfo.chunk_blocks`,
    which keeps the last chunk it drew).  Requests must be grouped by row
    and chunk-ascending within a row: the refuel case, where each row
    asks for the positions its window is missing, in window order.  Each
    (row, chunk) pair costs one ``chunk_blocks`` call and one gathered
    copy per component.
    """
    row_of = np.asarray(row_of, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    out = np.empty((len(components), positions.size))
    if positions.size == 0:
        return out
    if np.any(positions < 0):
        raise IndexError("stream positions must be >= 0")
    chunk_ids, offsets = np.divmod(positions, DEFAULT_CHUNK)
    row_steps, chunk_steps = np.diff(row_of), np.diff(chunk_ids)
    if np.any(row_steps < 0) or np.any((row_steps == 0) & (chunk_steps < 0)):
        raise ValueError("gather_stream_points requires requests grouped "
                         "by row, chunk-ascending within a row")
    starts = np.concatenate(
        ([0], np.flatnonzero(row_steps | chunk_steps) + 1, [positions.size]))
    targets = list(enumerate(components))
    for lo, hi, row, chunk_index in zip(
            starts[:-1].tolist(), starts[1:].tolist(),
            row_of[starts[:-1]].tolist(), chunk_ids[starts[:-1]].tolist()):
        blocks = chunk_blocks[row](chunk_index)
        index = offsets[lo:hi]
        for slot, component in targets:
            out[slot, lo:hi] = blocks[index, component]
    return out


def gather_stream_windows(draw, streams, starts, stops,
                          components) -> np.ndarray:
    """Fill many streams' windows, each a range of positions.

    Window ``i`` is positions ``[starts[i], stops[i])`` of the stream
    whose chunk ``chunk_index`` is ``draw(streams[i], chunk_index)``, a
    ``(DEFAULT_CHUNK, arity)`` block matrix — e.g.
    :meth:`repro.engine.seeds.SeedInfo.chunk_blocks`, which keeps the
    chunk it drew last, or :meth:`~repro.engine.seeds.SeedInfo.draw`,
    which keeps nothing, over ``SeedInfo`` streams.  ``out[c]`` (returned)
    holds component ``components[c]`` of every window's blocks, the
    windows concatenated in order, so equal-width windows read as a
    ``(windows, width)`` block.  Each (window, chunk) pair costs one
    ``draw`` call and one sliced copy per component, and nothing is
    computed per position: the fill of a Monte Carlo run, of a tail
    run's initial windows, and of the fresh positions a refuel adds to
    each window; :func:`gather_stream_points` reads scattered positions.
    """
    bounds = list(zip(np.asarray(starts, dtype=np.int64).tolist(),
                      np.asarray(stops, dtype=np.int64).tolist()))
    if any(lo < 0 for lo, _ in bounds):
        raise IndexError("stream positions must be >= 0")
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("gather_stream_windows requires ascending ranges")
    out = np.empty((len(components), sum(hi - lo for lo, hi in bounds)))
    targets = list(enumerate(components))
    at, last = 0, None
    for stream, bound in zip(streams, bounds):
        start, stop = bound
        if bound != last:  # cut the range at chunk edges, once per range
            last, pieces, lo = bound, [], start
            while lo < stop:
                chunk_index, first = divmod(lo, DEFAULT_CHUNK)
                count = min(stop - lo, DEFAULT_CHUNK - first)
                pieces.append((chunk_index, slice(first, first + count),
                               lo - start, lo - start + count))
                lo += count
        for chunk_index, index, begin, end in pieces:
            blocks = draw(stream, chunk_index)
            for slot, component in targets:
                out[slot, at + begin:at + end] = blocks[index, component]
        at += stop - start
    return out


def generator_for_chunk(seed: int, chunk_index: int) -> np.random.Generator:
    """Return a *fresh* Generator positioned deterministically for one chunk.

    Philox is counter-based: advancing the counter by a fixed amount per
    chunk yields independent, reproducible sub-streams without generating
    intermediate values.  Callers may hold several of these at once;
    :func:`draw_chunk` uses :func:`borrowed_generator`, which yields the
    same bits without constructing anything.
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
    # A NumPy integer index would overflow the shift at 64 bits.
    shifted = operator.index(chunk_index) << _CHUNK_SHIFT
    key[0] = seed & _MASK64
    counter[0] = shifted & _MASK64
    counter[1] = shifted >> 64  # the carry: chunk_index >= 2**24
    bitgen.state = state
    return generator
