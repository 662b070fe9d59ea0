"""Unit and property tests for repro.vg.streams."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vg.builtin import (
    DISCRETE_CHOICE, MIXTURE, MULTIVARIATE_NORMAL, NORMAL, UNIFORM)
from repro.vg.streams import (
    RandomStream, StreamWindow, borrowed_generator, draw_chunk,
    gather_stream_points, gather_stream_windows, generator_for_chunk)


def _unit_normal_stream(seed=7, chunk=256):
    return NORMAL.make_stream(seed, (0.0, 1.0), chunk=chunk)


class TestRandomStream:
    def test_value_at_is_deterministic_across_instances(self):
        a = _unit_normal_stream(seed=11)
        b = _unit_normal_stream(seed=11)
        positions = [0, 1, 5, 255, 256, 1000, 10_000]
        assert [a.value_at(p) for p in positions] == [b.value_at(p) for p in positions]

    def test_different_seeds_give_different_streams(self):
        a = _unit_normal_stream(seed=1)
        b = _unit_normal_stream(seed=2)
        assert not np.allclose(a.range_values(0, 64), b.range_values(0, 64))

    def test_access_order_does_not_matter(self):
        a = _unit_normal_stream(seed=3)
        b = _unit_normal_stream(seed=3)
        forward = [a.value_at(p) for p in range(600)]
        backward = [b.value_at(p) for p in reversed(range(600))]
        assert forward == backward[::-1]

    def test_values_at_matches_value_at(self):
        s = _unit_normal_stream(seed=5)
        positions = np.array([512, 0, 3, 255, 256, 257, 9999])
        vec = s.values_at(positions)
        scalar = np.array([s.value_at(int(p)) for p in positions])
        np.testing.assert_allclose(vec, scalar)

    def test_range_values(self):
        s = _unit_normal_stream(seed=5)
        np.testing.assert_allclose(
            s.range_values(250, 260),
            [s.value_at(p) for p in range(250, 260)])

    def test_empty_inputs(self):
        s = _unit_normal_stream()
        assert s.values_at([]).shape == (0,)
        assert s.range_values(10, 10).shape == (0,)

    def test_negative_position_rejected(self):
        s = _unit_normal_stream()
        with pytest.raises(IndexError):
            s.value_at(-1)
        with pytest.raises(IndexError):
            s.values_at([0, -3])

    def test_invalid_range_rejected(self):
        s = _unit_normal_stream()
        with pytest.raises(ValueError):
            s.range_values(10, 5)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, lambda rng, size: rng.normal(size=size), chunk=0)

    def test_sampler_shape_validated(self):
        bad = RandomStream(1, lambda rng, size: rng.normal(size=size + 1))
        with pytest.raises(ValueError, match="sampler returned shape"):
            bad.value_at(0)

    def test_drop_cache_below_frees_chunks_without_changing_values(self):
        s = _unit_normal_stream(seed=9, chunk=64)
        wanted = s.value_at(130)
        for p in (0, 64, 128):
            s.value_at(p)
        assert s.cached_chunks == 3
        s.drop_cache_below(128)
        assert s.cached_chunks == 1
        assert s.value_at(130) == wanted  # regenerated identically

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
        a = UNIFORM.make_stream(seed, (0.0, 1.0))
        b = UNIFORM.make_stream(seed, (0.0, 1.0))
        assert a.value_at(position) == b.value_at(position)
        assert 0.0 <= a.value_at(position) <= 1.0


class TestStreamWindow:
    def test_window_covers_initial_range(self):
        s = _unit_normal_stream(seed=21)
        w = StreamWindow(s, start=0, length=10)
        assert w.window_range == (0, 10)
        assert w.covers(0) and w.covers(9) and not w.covers(10)

    def test_values_match_stream(self):
        s = _unit_normal_stream(seed=21)
        w = StreamWindow(s, start=5, length=10)
        for p in range(5, 15):
            assert w.value_at(p) == s.value_at(p)
        np.testing.assert_allclose(w.window_values(6, 12), s.range_values(6, 12))

    def test_pin_survives_advance(self):
        s = _unit_normal_stream(seed=22)
        w = StreamWindow(s, start=0, length=8)
        pinned_value = w.value_at(3)
        w.pin(3)
        w.advance(100, length=8)
        assert w.window_range == (100, 108)
        assert w.covers(3)
        assert w.value_at(3) == pinned_value
        assert not w.covers(4)

    def test_unpin_releases(self):
        s = _unit_normal_stream(seed=22)
        w = StreamWindow(s, start=0, length=8)
        w.pin(2)
        w.advance(50)
        w.unpin(2)
        with pytest.raises(KeyError):
            w.value_at(2)

    def test_advance_backwards_rejected(self):
        s = _unit_normal_stream(seed=22)
        w = StreamWindow(s, start=10, length=4)
        with pytest.raises(ValueError):
            w.advance(5)

    def test_out_of_window_access_raises(self):
        s = _unit_normal_stream(seed=23)
        w = StreamWindow(s, start=0, length=4)
        with pytest.raises(KeyError):
            w.value_at(99)
        with pytest.raises(KeyError):
            w.window_values(0, 99)

    def test_advanced_window_values_are_stream_values(self):
        s = _unit_normal_stream(seed=24)
        w = StreamWindow(s, start=0, length=6)
        w.advance(6, length=6)
        np.testing.assert_allclose(w.window_values(6, 12), s.range_values(6, 12))

    def test_invalid_length_rejected(self):
        s = _unit_normal_stream(seed=25)
        with pytest.raises(ValueError):
            StreamWindow(s, start=0, length=0)

    def test_values_at_mixed_window_and_pinned(self):
        s = _unit_normal_stream(seed=26)
        w = StreamWindow(s, start=0, length=4)
        w.pin(1)
        w.advance(10, length=4)
        np.testing.assert_allclose(
            w.values_at([1, 10, 12]),
            [s.value_at(1), s.value_at(10), s.value_at(12)])


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
            gather_stream_windows(positions, rows, [0])
            for seed in range(200):  # and the per-stream path
                NORMAL.make_stream(seed, (0.0, 1.0)).values_at(positions)

        _run_threads([fill, fill])
        # 2 threads x 200 streams x 3 chunks x 2 paths = 2400 chunks drawn.
        assert len(built) <= 2

    def test_concurrent_fills_equal_the_serial_fill(self):
        positions = np.arange(100, 700)
        blocks = [[(seed, NORMAL, (float(seed), 2.0))
                   for seed in range(lo, lo + 60)] for lo in (0, 60, 120)]
        serial = [gather_stream_windows(positions, rows, [0])
                  for rows in blocks]
        results = [None] * len(blocks)

        def fill(index):
            for _ in range(5):
                results[index] = gather_stream_windows(
                    positions, blocks[index], [0])

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
            stream = MULTIVARIATE_NORMAL.make_block_stream(seed, params)
            for slot, component in enumerate([1, 0]):
                np.testing.assert_array_equal(
                    out[slot, 4 * row:4 * row + 4],
                    stream.component_values_at(wanted[row], component))
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
        stream = NORMAL.make_block_stream(4, params)
        np.testing.assert_array_equal(
            out[0], stream.component_values_at(np.array(positions), 0))

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
    def test_matches_per_stream_values_for_every_component(self):
        params = (1.0, -1.0, 2.0, 0.6, 0.6, 1.0)  # mean(2), cov(2x2)
        positions = np.array([250, 251, 255, 254, 256, 300, 511, 512])
        rows = [(seed, MULTIVARIATE_NORMAL, params) for seed in (3, 2**63 + 5)]
        out = gather_stream_windows(positions, rows, [1, 0])
        assert out.shape == (2, 2, positions.size)
        for row, (seed, vg, _) in enumerate(rows):
            stream = vg.make_block_stream(seed, params)
            for slot, component in enumerate([1, 0]):
                np.testing.assert_array_equal(
                    out[slot, row],
                    stream.component_values_at(positions, component))

    def test_writes_into_the_given_rows(self):
        positions = np.arange(10)
        out = np.full((1, 3, 10), np.nan)
        returned = gather_stream_windows(
            positions, [(5, UNIFORM, (0.0, 1.0))], [0], out=out[:, 1:2])
        assert returned.base is out
        assert np.isnan(out[0, 0]).all() and np.isnan(out[0, 2]).all()
        np.testing.assert_array_equal(
            out[0, 1], UNIFORM.make_stream(5, (0.0, 1.0)).values_at(positions))

    def test_empty_inputs(self):
        assert gather_stream_windows(np.arange(4), [], [0]).shape == (1, 0, 4)
        assert gather_stream_windows(
            [], [(1, NORMAL, (0.0, 1.0))], [0]).shape == (1, 1, 0)
        with pytest.raises(IndexError):
            gather_stream_windows([0, -1], [(1, NORMAL, (0.0, 1.0))], [0])
