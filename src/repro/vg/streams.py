"""Deterministic, seed-addressed streams of VG-function outputs.

A *stream* is the in-memory realization of the paper's "stream of random
data" (Sec. 4.1): the sequence of value blocks produced by repeatedly
executing one VG function with one PRNG seed.  :func:`draw_chunk` is its
one definition — position ``i`` is row ``i % DEFAULT_CHUNK`` of chunk
``i // DEFAULT_CHUNK`` — and every reader draws through it: the batched
fills :func:`gather_stream_windows` (per-stream position ranges) and
:func:`gather_stream_points` (per-stream scattered positions), and the
Monte Carlo fill :func:`gather_aligned_windows`, which for a VG with a
standard form draws the same bits through the same seek without it.  One
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
that to the counter and discards the buffer — so a generator whose key is
``[seed, 0]``, whose counter is ``chunk << 40`` (low 64 bits in word 0, the
carry in word 1) and whose buffer and cached ``uint32`` are empty yields
exactly the bits of a freshly constructed one, and constructing one is what
used to dominate (``Philox(key=...)`` builds a throw-away ``SeedSequence``
from OS entropy, one ``urandom`` syscall per (seed, chunk)).  So every
stream draws from one generator per thread (:func:`borrowed_generator`),
and a seek writes those eight words straight into the bit generator's C
state struct, ``philox_state``, reached through the public
``bitgen.ctypes.state_address`` — less than half of what a round trip
through the ``state`` setter's dict costs.  The struct's field order is NumPy's private
layout, so it is checked once at import, in two steps
(:func:`_check_seek`): a distinctive state set through the public ``state``
setter must read back from the struct field for field (read-only: nothing
is written through the struct before this passes), and seeks written
through the struct must then draw exactly what :func:`generator_for_chunk`
draws, for keys 0, 1, 2**63 + k and 2**64 - 1 and chunks 0, 3 and
2**24 + 1 (the counter's carry word).  Either failure is an ``ImportError``
naming the NumPy version.  There is no second seek path to fall back to:
a fallback would run only on a NumPy the tests never see and could break
unnoticed, whereas a layout change now fails the import the first time
the pinned NumPy is bumped, and is fixed in :class:`_PhiloxState`.
The rule that makes one generator per thread safe: the generator is
*borrowed* for one ``sample_blocks`` call and never kept — a sampler that
stored it, or pulled another stream's values while drawing, would find it
re-seeked under its feet.  :func:`generator_for_chunk` remains for callers
that need an object of their own.

**The aligned fill.**  A Monte Carlo run reads positions ``[start, start +
W)`` of every row's stream (:func:`gather_aligned_windows`).  For a VG
that declares a *standard form* (:class:`~repro.vg.base.VGFunction`;
``Normal`` does) it pays for little more than the variates: per (row,
chunk) one seek and one ``standard_fill`` of the positions the window
needs — a prefix of the chunk, drawn straight into the row of the
``(T, W)`` block — and then one vectorized ``from_standard`` applies every
row's parameters to the block in place, so no second ``(T, W)`` array is
made.  A window that starts mid-chunk draws the chunk's positions before
it into a scratch row of at most one chunk, then its own straight into
the block (the variates are consumed in order, so the two draws are one).
Any other VG fills through :func:`draw_chunk`, one whole chunk per (row,
chunk).
"""

from __future__ import annotations

import ctypes
import itertools
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


def _shape_error(vg, shape, expected):
    # Deferred: repro.engine imports this module.
    from repro.engine.errors import EngineError
    return EngineError(
        f"VG function {vg.name or type(vg).__name__} returned shape "
        f"{shape}; expected {expected}")


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
        raise _shape_error(vg, blocks.shape, f"({DEFAULT_CHUNK}, arity)")
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


def _pieces(start: int, stop: int) -> list[tuple[int, int, int, int]]:
    """Positions ``[start, stop)`` cut at chunk edges: ``(chunk_index,
    first, begin, end)`` per chunk — rows ``[first, first + end - begin)``
    of the chunk land at window slots ``[begin, end)``."""
    pieces, lo = [], start
    while lo < stop:
        chunk_index, first = divmod(lo, DEFAULT_CHUNK)
        count = min(stop - lo, DEFAULT_CHUNK - first)
        pieces.append((chunk_index, first, lo - start, lo - start + count))
        lo += count
    return pieces


def gather_stream_windows(draw, streams, starts, stops,
                          components) -> np.ndarray:
    """Fill many streams' windows, each a range of positions.

    Window ``i`` is positions ``[starts[i], stops[i])`` of the stream
    whose chunk ``chunk_index`` is ``draw(streams[i], chunk_index)``, a
    ``(DEFAULT_CHUNK, arity)`` block matrix — e.g.
    :meth:`repro.engine.seeds.SeedInfo.chunk_blocks`, which keeps the
    chunk it drew last, over ``SeedInfo`` streams.  ``out[c]`` (returned)
    holds component ``components[c]`` of every window's blocks, the
    windows concatenated in order, so equal-width windows read as a
    ``(windows, width)`` block.  Each (window, chunk) pair costs one
    ``draw`` call and one sliced copy per component, and nothing is
    computed per position: the fill of a tail run's initial windows, of
    the fresh positions a refuel adds to each window, and of a Monte
    Carlo run over a VG without a standard form
    (:func:`gather_aligned_windows`); :func:`gather_stream_points` reads
    scattered positions.
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
        if bound != last:  # cut the range at chunk edges, once per range
            last, pieces = bound, _pieces(*bound)
        for chunk_index, first, begin, end in pieces:
            blocks = draw(stream, chunk_index)
            index = slice(first, first + end - begin)
            for slot, component in targets:
                out[slot, at + begin:at + end] = blocks[index, component]
        at += bound[1] - bound[0]
    return out


def gather_aligned_windows(vg, keys, params, start: int, width: int,
                           components) -> list[np.ndarray]:
    """The Monte Carlo fill: positions ``[start, start + width)`` of every
    row's stream, one ``(rows, width)`` block per component.

    Row ``r`` is the stream of ``vg`` with parameter row ``params[r]``
    (a ``(rows, parameters)`` float64 matrix, validated by the caller)
    fueled by PRNG key ``keys[r]``; block ``c`` (returned) holds component
    ``components[c]``.  A VG with a standard form is filled as the module
    docstring's "The aligned fill" describes, its ``from_standard``
    result checked for shape like :func:`draw_chunk`'s; any other VG by
    :func:`gather_stream_windows` over ``(key, params)`` rows.
    """
    count = len(keys)
    if vg.from_standard is None:
        rows = [(key, vg, tuple(row)) for key, row in zip(keys, params.tolist())]
        out = gather_stream_windows(
            lambda row, chunk_index: draw_chunk(*row, chunk_index), rows,
            [start] * count, [start + width] * count, components)
        return list(out.reshape(len(components), count, width))
    block = np.empty((count, width))
    generator, seek, fill = _pool.generator, _pool.seek, vg.standard_fill
    pieces = _pieces(start, start + width)
    skipped = np.empty(DEFAULT_CHUNK)
    for key, row in zip(keys, block):
        for chunk_index, first, begin, end in pieces:
            seek(key, chunk_index)
            if first:  # mid-chunk: draw the chunk's prefix, then the slice
                fill(generator, skipped[:first])
            fill(generator, row[begin:end])
    values = vg.from_standard(params, block)
    if np.shape(values) != block.shape:  # from_standard's result
        raise _shape_error(vg, np.shape(values), block.shape)
    return [values] + [values.copy() for _ in components[1:]]


def aligned_draws(vg, start: int, stop: int) -> int:
    """How many values of each row's stream :func:`gather_aligned_windows`
    draws to fill positions ``[start, stop)`` of ``vg``: a VG with a
    standard form from the start of ``start``'s chunk (a mid-chunk start
    draws the chunk's prefix too), any other VG whole chunks."""
    if vg.from_standard is None:
        stop = -(-stop // DEFAULT_CHUNK) * DEFAULT_CHUNK
    return stop - start // DEFAULT_CHUNK * DEFAULT_CHUNK


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


class _PhiloxState(ctypes.Structure):
    """NumPy's ``philox_state`` (``numpy/random/src/philox/philox.h``):
    pointers to the 4-word counter and the 2-word key, then the output
    buffer and the cached half of a ``uint64`` for ``uint32`` draws.  A
    private layout, checked at import by :func:`_check_seek`."""

    _fields_ = [("counter", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


class _Seekable(threading.local):
    """A Philox generator seeked by writing its bit generator's state
    struct; :data:`_pool` holds one per thread."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(key=0))
        self.state = _PhiloxState.from_address(  # in the bit generator
            self.generator.bit_generator.ctypes.state_address)
        self.counter, self.key = (self.state.counter.contents,
                                  self.state.key.contents)

    def seek(self, seed: int, chunk_index: int) -> None:
        # A NumPy integer index would overflow the shift at 64 bits.
        shifted = operator.index(chunk_index) << _CHUNK_SHIFT
        # Counter word 1 is the carry, nonzero for chunk_index >= 2**24.
        self.counter[:] = (shifted & _MASK64, shifted >> 64, 0, 0)
        self.key[:] = (seed & _MASK64, 0)
        self.state.buffer_pos = 4  # empty: the next draw runs a fresh block
        self.state.has_uint32 = 0


_pool = _Seekable()


def borrowed_generator(seed: int, chunk_index: int) -> np.random.Generator:
    """This thread's pooled Generator, re-seeked to ``(seed, chunk_index)``.

    Bit-equal to :func:`generator_for_chunk` (see the module docstring) at
    a fraction of the cost.  The generator is *borrowed*: the next call on
    this thread re-seeks the very same object, so draw what you need and
    let go of it before anything else can ask for a chunk.
    """
    _pool.seek(seed, chunk_index)
    return _pool.generator


#: A state no seek writes, every field distinct, set through the public
#: ``state`` setter by :func:`_check_seek`.
_PROBE_STATE = {
    "bit_generator": "Philox", "buffer_pos": 1, "has_uint32": 1,
    "state": {"counter": [3, 2**63 + 5, 7, 2**64 - 11], "key": [13, 2**64 - 17]},
    "buffer": [19, 2**62 + 23, 29, 2**64 - 31], "uinteger": 2**31 + 37}


def _check_seek(expected: dict = _PROBE_STATE) -> None:
    """Prove the struct seek on this NumPy, or raise ``ImportError``.

    Read-only first: :data:`_PROBE_STATE`, set through the public
    ``state`` setter, must read back from the struct as ``expected``.
    Only then are seeks written through the struct, each from the probe
    state (a part-used buffer and a cached ``uint32``), and their draws
    compared with :func:`generator_for_chunk`'s.
    """
    probe = _Seekable()
    probe.generator.bit_generator.state = _PROBE_STATE
    fields = ("buffer_pos", "has_uint32", "uinteger")
    read = [*probe.counter, *probe.key, *probe.state.buffer,
            *(getattr(probe.state, name) for name in fields)]
    want = [*expected["state"]["counter"], *expected["state"]["key"],
            *expected["buffer"], *(expected[name] for name in fields)]
    if read != want:
        raise ImportError(f"numpy {np.__version__}: Philox's state struct "
                          f"reads {read}, the state setter wrote {want}")
    for key, chunk_index in itertools.product(
            (0, 1, 2**63 + 7, 2**64 - 1), (0, 3, 2**24 + 1)):
        fresh = generator_for_chunk(key, chunk_index)
        probe.generator.bit_generator.state = _PROBE_STATE
        probe.seek(key, chunk_index)
        draws = [g.integers(2**32, size=3, dtype=np.uint32).tolist()
                 + g.bit_generator.random_raw(6).tolist()
                 for g in (probe.generator, fresh)]
        if draws[0] != draws[1]:
            raise ImportError(
                f"numpy {np.__version__}: a struct seek to key {key}, chunk "
                f"{chunk_index} draws {draws[0]}, a fresh Philox {draws[1]}")


_check_seek()
