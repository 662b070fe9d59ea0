"""Unit and property tests for repro.vg.streams."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stream_oracle import DETERMINISM_PARAMS, stream_values

from repro.core.ts_seed import TSSeed
from repro.engine.errors import EngineError
from repro.engine.seeds import SeedInfo
from repro.vg.base import VGFunction, default_registry
from repro.vg.builtin import (
    DISCRETE_CHOICE, MIXTURE, MULTIVARIATE_NORMAL, NORMAL, UNIFORM)
from repro.vg.streams import (
    DEFAULT_CHUNK, borrowed_generator, draw_chunk, gather_aligned_windows,
    gather_stream_points, gather_stream_windows, generator_for_chunk)


_UNIT = (0.0, 1.0)


def _values(seed, positions, vg=NORMAL, params=_UNIT):
    """Stream values read one ``draw_chunk`` per position, in the order
    given."""
    return np.array([
        draw_chunk(seed, vg, params, position // DEFAULT_CHUNK)[
            position % DEFAULT_CHUNK, 0] for position in map(int, positions)])


def _draw(row, chunk_index):
    """The window fill's ``draw`` over ``(seed, vg, params)`` rows."""
    return draw_chunk(*row, chunk_index)


def _windows(rows, lo, hi, components=(0,)):
    """``out[c, r]``: component ``components[c]`` of row ``r``'s stream —
    ``(seed, vg, params)`` — over positions ``[lo, hi)``."""
    out = gather_stream_windows(_draw, rows, [lo] * len(rows),
                                [hi] * len(rows), list(components))
    return out.reshape(len(components), len(rows), hi - lo)


def _points(seed, positions):
    """One stream's values at chunk-ascending ``positions``."""
    return gather_stream_points(
        [lambda chunk_index: draw_chunk(seed, NORMAL, _UNIT, chunk_index)],
        np.zeros(len(positions), dtype=np.int64), positions, [0])[0]


class TestRandomStream:
    """Position access is pure, whichever reader asks.  (The class keeps
    the name of the retired scalar-stream reader so its test ids stay
    stable.)"""

    def test_value_at_is_deterministic_across_instances(self):
        positions = [0, 1, 5, 255, 256, 1000, 10_000]
        first = _values(11, positions)
        np.testing.assert_array_equal(first, _values(11, positions))
        np.testing.assert_array_equal(
            first, stream_values(11, NORMAL, _UNIT, positions))

    def test_different_seeds_give_different_streams(self):
        out = _windows([(1, NORMAL, _UNIT), (2, NORMAL, _UNIT)], 0, 64)
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_access_order_does_not_matter(self):
        forward = _values(3, range(600))
        backward = _values(3, reversed(range(600)))
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_values_at_matches_value_at(self):
        positions = np.array([0, 3, 255, 256, 257, 512, 9999])
        np.testing.assert_array_equal(_points(5, positions),
                                      _values(5, positions))

    def test_range_values(self):
        out = _windows([(5, NORMAL, _UNIT)], 250, 260)
        np.testing.assert_array_equal(out[0, 0], _values(5, range(250, 260)))

    def test_empty_inputs(self):
        assert _points(7, []).shape == (0,)
        assert _windows([(7, NORMAL, _UNIT)], 9, 9).shape == (1, 1, 0)

    def test_negative_position_rejected(self):
        with pytest.raises(IndexError):
            _points(7, [0, -3])
        with pytest.raises(IndexError):
            _windows([(7, NORMAL, _UNIT)], -1, 3)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            _windows([(7, NORMAL, _UNIT)], 300, 10)

    def test_sampler_shape_validated(self):
        """A ``sample_blocks`` result is ``DEFAULT_CHUNK`` blocks or an
        error naming the VG — ``2 * chunk`` scalars are not re-blocked
        into ``(chunk, 2)``."""
        class Misshapen(VGFunction):
            name = "Misshapen"

            def __init__(self, shape):
                self.shape = shape

            def sample_blocks(self, rng, params, size):
                return rng.normal(size=self.shape)

        for shape in [(2 * DEFAULT_CHUNK,), (2 * DEFAULT_CHUNK, 1),
                      (DEFAULT_CHUNK + 1,), (DEFAULT_CHUNK, 1, 1)]:
            with pytest.raises(EngineError, match="Misshapen"):
                draw_chunk(1, Misshapen(shape), (), 0)

    def test_invalid_chunk_rejected(self):
        """A chunk index below zero names no chunk of the stream."""
        with pytest.raises(IndexError, match="chunk"):
            draw_chunk(1, NORMAL, _UNIT, -1)

    def test_drop_cache_below_frees_chunks_without_changing_values(self):
        """``SeedInfo.chunk_blocks`` keeps only the chunk it drew last: an
        earlier chunk is let go and, asked for again, regenerated
        identically."""
        info = SeedInfo(handle=1, prng_seed=9, vg=NORMAL, params=_UNIT)
        first = info.chunk_blocks(0)
        wanted = first.copy()
        for chunk_index in (1, 2):
            info.chunk_blocks(chunk_index)
        assert info.chunk_blocks(2) is info.chunk_blocks(2)  # the one kept
        again = info.chunk_blocks(0)
        assert again is not first
        np.testing.assert_array_equal(again, wanted)
        np.testing.assert_array_equal(
            again[:, 0], stream_values(9, NORMAL, _UNIT,
                                       np.arange(DEFAULT_CHUNK)))

    def test_chunks_are_independent_of_generation_order(self):
        rng_a = generator_for_chunk(99, 0)
        rng_b = generator_for_chunk(99, 1)
        a = rng_a.normal(size=8)
        b = rng_b.normal(size=8)
        assert not np.allclose(a, b)
        # Regenerating chunk 1 first must give the same values.
        rng_b2 = generator_for_chunk(99, 1)
        np.testing.assert_allclose(rng_b2.normal(size=8), b)

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           position=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_property_position_access_is_pure(self, seed, position):
        value = _values(seed, [position], UNIFORM)[0]
        assert value == _values(seed, [position], UNIFORM)[0]
        assert value == stream_values(seed, UNIFORM, _UNIT, [position])[0]
        assert 0.0 <= value <= 1.0


def _window_seed(seed, positions, versions=1):
    """A TS-seed over ``seed``'s unit-normal stream whose window is
    ``positions``."""
    info = SeedInfo(handle=seed, prng_seed=seed, vg=NORMAL, params=_UNIT)
    return TSSeed.initial(info, np.asarray(positions), versions)


def _window_values(ts, positions):
    """``ts``'s stream at chunk-ascending ``positions``, read the way a
    refuel reads a window: through ``SeedInfo.chunk_blocks``."""
    return gather_stream_points(
        [ts.info.chunk_blocks], np.zeros(len(positions), dtype=np.int64),
        positions, [0])[0]


def _advance(ts, fresh):
    """Re-plan ``ts``'s window as a refuel does: the assigned (pinned)
    positions plus ``fresh`` new ones after ``max_used``."""
    ts.positions = ts.replenish_plan(fresh)


class TestStreamWindow:
    """A seed's window over its stream: a fresh range plus the positions
    pinned by version assignments, read through ``SeedInfo.chunk_blocks``
    and advanced by ``TSSeed.replenish_plan``.  (The class keeps the name
    of the retired window reader so its test ids stay stable.)"""

    def test_window_covers_initial_range(self):
        ts = _window_seed(21, np.arange(10), versions=4)
        assert ts.fresh_index_range() == (4, 10)
        assert ts.index_of_position(0) == 0 and ts.index_of_position(9) == 9
        with pytest.raises(KeyError):
            ts.index_of_position(10)

    def test_values_match_stream(self):
        ts = _window_seed(21, np.arange(5, 15))
        np.testing.assert_array_equal(
            _window_values(ts, ts.positions),
            stream_values(21, NORMAL, _UNIT, np.arange(5, 15)))
        np.testing.assert_array_equal(_window_values(ts, np.arange(6, 12)),
                                      _values(21, range(6, 12)))

    def test_pin_survives_advance(self):
        ts = _window_seed(22, np.arange(8))
        pinned_value = _window_values(ts, [3])[0]
        ts.assign(0, 3)
        ts.consume_through(99)
        _advance(ts, 8)
        np.testing.assert_array_equal(ts.positions, [3, *range(100, 108)])
        assert ts.index_of_position(3) == 0
        assert _window_values(ts, [3])[0] == pinned_value
        with pytest.raises(KeyError):
            ts.index_of_position(4)

    def test_unpin_releases(self):
        ts = _window_seed(22, np.arange(8))
        ts.assign(0, 2)
        ts.consume_through(49)
        _advance(ts, 8)
        ts.assign(0, 50)  # the version moves off position 2
        ts.consume_through(50)
        _advance(ts, 8)
        with pytest.raises(KeyError):
            ts.index_of_position(2)
        assert ts.positions[0] == 50

    def test_advance_backwards_rejected(self):
        ts = _window_seed(22, np.arange(10, 14))
        with pytest.raises(ValueError, match="already consumed"):
            ts.consume_through(5)
        assert ts.max_used == 10

    def test_out_of_window_access_raises(self):
        ts = _window_seed(23, np.arange(4))
        with pytest.raises(KeyError):
            ts.index_of_position(99)
        with pytest.raises(KeyError):
            ts.index_of_position(4)  # the first position past the window

    def test_advanced_window_values_are_stream_values(self):
        """Positions a refuel adds read the stream's values, also where
        the window crosses into a chunk past the one read last."""
        ts = _window_seed(24, np.arange(DEFAULT_CHUNK - 6, DEFAULT_CHUNK))
        before = _window_values(ts, ts.positions)
        ts.consume_through(DEFAULT_CHUNK - 1)
        _advance(ts, 12)
        np.testing.assert_array_equal(
            _window_values(ts, ts.positions),
            stream_values(24, NORMAL, _UNIT, ts.positions))
        np.testing.assert_array_equal(
            before, _values(24, range(DEFAULT_CHUNK - 6, DEFAULT_CHUNK)))

    def test_invalid_length_rejected(self):
        ts = _window_seed(25, np.arange(4))
        with pytest.raises(ValueError, match="fresh count"):
            _advance(ts, 0)
        with pytest.raises(ValueError, match="cannot seed"):
            _window_seed(25, np.arange(0), versions=1)

    def test_values_at_mixed_window_and_pinned(self):
        ts = _window_seed(26, np.arange(4))
        ts.assign(0, 1)
        ts.consume_through(9)
        _advance(ts, 4)
        np.testing.assert_array_equal(ts.positions, [1, 10, 11, 12, 13])
        np.testing.assert_array_equal(
            _window_values(ts, [1, 10, 12]),
            stream_values(26, NORMAL, _UNIT, [1, 10, 12]))


class TestStreamOracle:
    """Every stream reader against the independent oracle."""

    @given(name=st.sampled_from(sorted(DETERMINISM_PARAMS)),
           seed=st.integers(min_value=0, max_value=2**64 - 1),
           positions=st.lists(
               st.one_of(
                   st.integers(0, 4 * DEFAULT_CHUNK),
                   # chunk boundaries, and chunk 2**24: the counter carry
                   st.sampled_from([DEFAULT_CHUNK - 1, DEFAULT_CHUNK,
                                    2 * DEFAULT_CHUNK - 1, 2 * DEFAULT_CHUNK,
                                    2**24 * DEFAULT_CHUNK - 1,
                                    2**24 * DEFAULT_CHUNK]),
                   st.integers(0, 2**34)),
               min_size=1, max_size=12),
           run=st.tuples(st.integers(0, 3 * DEFAULT_CHUNK),
                         st.integers(0, 300)))
    @settings(max_examples=80, deadline=None)
    def test_every_reader_equals_the_oracle(self, name, seed, positions, run):
        positions = positions + list(range(run[0], run[0] + run[1]))
        vg = default_registry.lookup(name)
        params = DETERMINISM_PARAMS[name]
        components = list(range(vg.block_arity(params)))
        want = np.array([stream_values(seed, vg, params, positions, component)
                         for component in components])
        for position, column in zip(positions, want.T):
            chunk_index, offset = divmod(position, DEFAULT_CHUNK)
            np.testing.assert_array_equal(
                draw_chunk(seed, vg, params, chunk_index)[offset], column)
        order = np.argsort(positions, kind="stable")
        ascending = np.asarray(positions)[order]
        other = seed ^ 1
        points = gather_stream_points(
            [lambda c: draw_chunk(seed, vg, params, c),
             lambda c: draw_chunk(other, vg, params, c)],
            np.repeat([0, 1], ascending.size),
            np.concatenate([ascending, ascending]), components)
        np.testing.assert_array_equal(points[:, :ascending.size],
                                      want[:, order])
        # One one-position window per request, in any order.
        windows = gather_stream_windows(
            _draw, [(seed, vg, params)] * len(positions), positions,
            np.add(positions, 1), components)
        np.testing.assert_array_equal(windows, want)
        ranges = gather_stream_windows(
            _draw, [(seed, vg, params)], [run[0]], [run[0] + run[1]],
            components)
        np.testing.assert_array_equal(
            ranges, want[:, len(positions) - run[1]:])
        # The Monte Carlo fill: one row's window, one block per component.
        aligned = gather_aligned_windows(
            vg, [seed], np.array([params], dtype=np.float64), run[0], run[1],
            components)
        np.testing.assert_array_equal(
            np.concatenate(aligned), want[:, len(positions) - run[1]:])


# (vg, params) the seek is pinned on: continuous, bounded, discrete, and
# the mixture whose second draw depends on how many bits the first used.
_SEEK_CASES = [
    (NORMAL, (0.3, 1.7)),
    (UNIFORM, (-1.0, 2.0)),
    (DISCRETE_CHOICE, (20.0, 1.0, 21.0, 3.0, 25.0, 0.5)),
    (MIXTURE, (0.3, -2.0, 0.5, 0.7, 4.0, 2.0)),
]


def _run_threads(targets):
    """Run one thread per callable to completion (bounded wait)."""
    workers = [threading.Thread(target=target) for target in targets]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()


class TestBorrowedGenerator:
    """The pooled counter-seek generator vs. a freshly constructed one."""

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           chunk=st.one_of(st.integers(0, 64),
                           st.integers(2**24 - 2, 2**24 + 2),  # the carry
                           st.integers(0, 2**30)),
           case=st.sampled_from(_SEEK_CASES))
    @settings(max_examples=120, deadline=None)
    def test_seek_equals_fresh_generator_bit_for_bit(self, seed, chunk, case):
        vg, params = case
        fresh = vg.sample_blocks(generator_for_chunk(seed, chunk), params, 64)
        # Leave the pooled generator mid-buffer with a cached uint32, the
        # state a previous borrower hands over.
        borrowed_generator(seed ^ 1, chunk + 1).integers(
            0, 9, size=3, dtype=np.uint32)
        pooled = vg.sample_blocks(borrowed_generator(seed, chunk), params, 64)
        assert np.asarray(pooled).tobytes() == np.asarray(fresh).tobytes()

    @pytest.mark.parametrize("kind", [np.int64, np.uint32])
    def test_numpy_integer_chunk_index_is_the_int_one(self, kind):
        """A NumPy integer chunk index seeks where the ``int`` does, bit
        for bit (it used to overflow the 64-bit shift)."""
        for chunk in (0, 3, 2**24 + 1):
            want = borrowed_generator(123, chunk).random(4)
            assert borrowed_generator(123, kind(chunk)).random(4).tobytes() \
                == want.tobytes()
            assert draw_chunk(123, NORMAL, _UNIT, kind(chunk)).tobytes() \
                == draw_chunk(123, NORMAL, _UNIT, chunk).tobytes()

    def test_generator_for_chunk_returns_independent_objects(self):
        first = generator_for_chunk(99, 0)
        second = generator_for_chunk(99, 1)
        assert first is not second
        assert first.bit_generator is not second.bit_generator
        expected = generator_for_chunk(99, 0).normal(size=4)
        second.normal(size=4)  # drawing from one does not move the other
        np.testing.assert_array_equal(first.normal(size=4), expected)

    def test_borrowing_is_one_object_per_thread(self):
        mine = borrowed_generator(1, 0)
        assert borrowed_generator(2, 5) is mine
        theirs = []
        _run_threads([lambda: theirs.append(borrowed_generator(1, 0))])
        assert theirs[0] is not mine

    def test_filling_many_streams_constructs_no_bit_generators(
            self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        positions = np.arange(3 * 256)

        def fill():
            rows = [(seed, NORMAL, (0.0, 1.0)) for seed in range(200)]
            _windows(rows, 0, positions.size)
            for seed in range(200):  # and the per-stream path
                _points(seed, positions)

        _run_threads([fill, fill])
        # 2 threads x 200 streams x 3 chunks x 2 paths = 2400 chunks drawn.
        assert len(built) <= 2

    def test_concurrent_fills_equal_the_serial_fill(self):
        blocks = [[(seed, NORMAL, (float(seed), 2.0))
                   for seed in range(lo, lo + 60)] for lo in (0, 60, 120)]
        serial = [_windows(rows, 100, 700) for rows in blocks]
        results = [None] * len(blocks)

        def fill(index):
            for _ in range(5):
                results[index] = _windows(blocks[index], 100, 700)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads([lambda index=index: fill(index)
                          for index in range(len(blocks))])
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial):
            assert got.tobytes() == want.tobytes()


class TestGatherStreamPoints:
    """The refuel fill: per-row positions, one draw per (row, chunk)."""

    def test_matches_per_stream_values_for_every_component(self):
        params = (1.0, -1.0, 2.0, 0.6, 0.6, 1.0)  # mean(2), cov(2x2)
        seeds = (3, 2**63 + 5)
        wanted = [np.array([5, 255, 256, 900]), np.array([0, 1, 511, 512])]
        drawn = []

        def source(seed):
            def chunk_blocks(chunk_index):
                drawn.append((seed, chunk_index))
                return draw_chunk(seed, MULTIVARIATE_NORMAL, params,
                                  chunk_index)
            return chunk_blocks

        out = gather_stream_points(
            [source(seed) for seed in seeds], np.repeat([0, 1], 4),
            np.concatenate(wanted), [1, 0])
        assert out.shape == (2, 8)
        for row, seed in enumerate(seeds):
            for slot, component in enumerate([1, 0]):
                np.testing.assert_array_equal(
                    out[slot, 4 * row:4 * row + 4],
                    stream_values(seed, MULTIVARIATE_NORMAL, params,
                                  wanted[row], component))
        assert drawn == [(3, 0), (3, 1), (3, 3), (2**63 + 5, 0),
                         (2**63 + 5, 1), (2**63 + 5, 2)]

    @pytest.mark.parametrize("positions", [
        [5, 9, 7],    # out of order within one chunk
        [5, 5, 7],    # a repeated position
        [7, 6, 5],    # descending within one chunk
    ])
    def test_any_order_within_a_chunk(self, positions):
        """Only chunks must ascend: within one, positions come in any
        order, repeats included, and each gets its own value."""
        params = (0.0, 1.0)

        def chunk_blocks(chunk_index):
            return draw_chunk(4, NORMAL, params, chunk_index)
        out = gather_stream_points([chunk_blocks], [0, 0, 0], positions, [0])
        np.testing.assert_array_equal(
            out[0], stream_values(4, NORMAL, params, positions))

    @pytest.mark.parametrize("row_of, positions", [
        ([0, 0], [300, 10]),   # chunk order reversed within a row
        ([1, 0], [10, 20]),    # rows not grouped
    ])
    def test_rejects_unordered_requests(self, row_of, positions):
        def chunk_blocks(chunk_index):
            return draw_chunk(1, NORMAL, (0.0, 1.0), chunk_index)
        with pytest.raises(ValueError):
            gather_stream_points([chunk_blocks] * 2, row_of, positions, [0])


class TestGatherStreamWindows:
    """The window fill: per-stream position ranges, one draw per
    (window, chunk), nothing computed per position."""

    def test_matches_per_stream_values_for_every_component(self):
        params = (1.0, -1.0, 2.0, 0.6, 0.6, 1.0)  # mean(2), cov(2x2)
        seeds = (3, 2**63 + 5, 8)
        bounds = [(250, 513), (0, 1), (700, 700)]  # the last one is empty
        drawn = []

        def draw(seed, chunk_index):
            drawn.append((seed, chunk_index))
            return draw_chunk(seed, MULTIVARIATE_NORMAL, params, chunk_index)

        out = gather_stream_windows(
            draw, seeds, [lo for lo, _ in bounds],
            [hi for _, hi in bounds], [1, 0])
        assert out.shape == (2, 264)
        for slot, component in enumerate([1, 0]):
            np.testing.assert_array_equal(out[slot], np.concatenate([
                stream_values(seed, MULTIVARIATE_NORMAL, params,
                              np.arange(lo, hi), component)
                for seed, (lo, hi) in zip(seeds, bounds)]))
        assert drawn == [(3, 0), (3, 1), (3, 2), (2**63 + 5, 0)]

    def test_writes_into_the_given_rows(self):
        """Equal-width windows land row after row: the fill reads as a
        ``(windows, width)`` block, each row its own stream's window."""
        rows = [(5, UNIFORM, _UNIT), (6, NORMAL, _UNIT), (5, UNIFORM, _UNIT)]
        starts = [0, 250, 3]
        out = gather_stream_windows(_draw, rows, starts, np.add(starts, 10),
                                    [0])
        block = out.reshape(1, 3, 10)
        assert block.base is out
        for row, ((seed, vg, params), lo) in enumerate(zip(rows, starts)):
            np.testing.assert_array_equal(
                block[0, row],
                stream_values(seed, vg, params, np.arange(lo, lo + 10)))

    def test_empty_inputs(self):
        assert gather_stream_windows(_draw, [], [], [], [0]).shape == (1, 0)
        with pytest.raises(IndexError):
            gather_stream_windows(_draw, [(1, NORMAL, _UNIT)], [-1], [3],
                                  [0])
