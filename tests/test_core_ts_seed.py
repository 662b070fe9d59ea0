"""Unit tests for TS-seeds, Gibbs tuples and seed handles."""

import numpy as np
import pytest
from stream_oracle import stream_values

from repro.core.gibbs_tuple import GibbsTuple, PresenceField, RandField, \
    tuples_from_relation
from repro.core.ts_seed import TSSeed, plan_refuel
from repro.engine.bundles import BundleRelation, PresenceColumn, RandomColumn
from repro.engine.errors import PlanError
from repro.engine.seeds import SeedInfo, derive_prng_seed, label_id_of, \
    seed_handle
from repro.vg.builtin import MULTIVARIATE_NORMAL, NORMAL
from repro.vg.streams import DEFAULT_CHUNK


def _info(handle=1, seed=42):
    return SeedInfo(handle=handle, prng_seed=seed, vg=NORMAL,
                    params=(0.0, 1.0))


class TestSeedHandles:
    def test_pack_unpack_disjoint(self):
        a = seed_handle(1, 0)
        b = seed_handle(1, 1)
        c = seed_handle(2, 0)
        assert len({a, b, c}) == 3
        assert b - a == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            seed_handle(-1, 0)
        with pytest.raises(ValueError):
            seed_handle(1 << 20, 0)
        with pytest.raises(ValueError):
            seed_handle(0, 1 << 40)

    def test_label_id_stable(self):
        assert label_id_of("Losses") == label_id_of("Losses")
        assert label_id_of("Losses") != label_id_of("emp")

    def test_derive_prng_seed_spreads(self):
        seeds = {derive_prng_seed(0, handle) for handle in range(100)}
        assert len(seeds) == 100
        assert derive_prng_seed(1, 5) != derive_prng_seed(2, 5)


class TestSeedInfo:
    def test_scalar_values(self):
        info = _info()
        blocks = info.chunk_blocks(1)
        assert blocks.shape == (DEFAULT_CHUNK, 1)
        assert info.chunk_blocks(1) is blocks  # the last chunk is kept
        np.testing.assert_array_equal(
            blocks[:, 0], stream_values(
                42, NORMAL, (0.0, 1.0),
                np.arange(DEFAULT_CHUNK, 2 * DEFAULT_CHUNK)))
        np.testing.assert_array_equal(
            info.chunk_blocks(0)[2:6, 0],
            stream_values(42, NORMAL, (0.0, 1.0), [2, 3, 4, 5]))

    def test_block_values(self):
        params = (0.0, 0.0, 1.0, 0.5, 0.5, 1.0)
        info = SeedInfo(handle=2, prng_seed=9, vg=MULTIVARIATE_NORMAL,
                        params=params)
        blocks = info.chunk_blocks(0)
        assert blocks.shape == (DEFAULT_CHUNK, 2)
        assert not np.allclose(blocks[:2, 0], blocks[:2, 1])
        for component in (0, 1):
            np.testing.assert_array_equal(
                blocks[:2, component],
                stream_values(9, MULTIVARIATE_NORMAL, params, [0, 1],
                              component))


class TestTSSeed:
    def _seed(self, versions=4, window=10):
        return TSSeed.initial(_info(), np.arange(window), versions)

    def test_initial_mapping(self):
        ts = self._seed()
        np.testing.assert_array_equal(ts.assignment, [0, 1, 2, 3])
        assert ts.max_used == 3
        assert ts.fresh_index_range() == (4, 10)
        assert ts.has_fresh()

    def test_initial_window_too_small(self):
        with pytest.raises(ValueError, match="cannot seed"):
            TSSeed.initial(_info(), np.arange(3), 4)

    def test_consume_monotone(self):
        ts = self._seed()
        ts.consume_through(6)
        assert ts.fresh_index_range() == (7, 10)
        with pytest.raises(ValueError, match="already consumed"):
            ts.consume_through(5)

    def test_assign_and_clone(self):
        ts = self._seed()
        ts.assign(0, 7)
        ts.clone_versions(np.array([0, 0, 3, 3]))
        np.testing.assert_array_equal(ts.assignment, [7, 7, 3, 3])

    def test_clone_can_resize(self):
        ts = self._seed()
        ts.clone_versions(np.array([1, 1]))
        np.testing.assert_array_equal(ts.assignment, [1, 1])

    def test_replenish_plan_contains_assigned_and_fresh(self):
        ts = self._seed()
        ts.assign(2, 9)
        ts.consume_through(9)
        plan = ts.replenish_plan(fresh=5)
        assert set([0, 1, 9]).issubset(set(plan.tolist()))
        assert set(range(10, 15)).issubset(set(plan.tolist()))
        assert list(plan) == sorted(set(plan.tolist()))

    def test_replenish_plan_validation(self):
        with pytest.raises(ValueError):
            self._seed().replenish_plan(0)

    def test_plan_refuel(self):
        """Seed 2 ran dry: it and seed 1, whose fresh range falls short
        of 1.25 times its demand for the rest of the run at its
        consumption per version so far, are re-planned to that much plus
        a quarter floor; seed 3 carries over.  A seed dry again gets at
        least twice its last depth."""
        def seed(handle, positions, max_used, assignment):
            return TSSeed(info=_info(handle), positions=np.arange(positions),
                          max_used=max_used, assignment=np.array(assignment),
                          first_used=3)

        seeds = [seed(1, 31, 23, [0, 21, 2, 23]),   # 21/11 a version, 7 fresh
                 seed(2, 21, 20, [15, 1, 2, 3]),    # dry, 18/11 a version
                 seed(3, 41, 8, [0, 1, 8, 3])]      # 6/11 a version, 32 fresh
        done = left = np.array([10, 10, 10])
        plans = plan_refuel(seeds, done, done, left, dry=1, floor=4)
        assert sorted(plans) == [1, 2]
        # Seed 1: ceil(1.25 * 21/11 * 10) = 24, plus a quarter floor.
        np.testing.assert_array_equal(
            plans[1], [0, 2, 21, 23, *range(24, 49)])
        # Seed 2: ceil(1.25 * 18/11 * 10) = 21, plus a quarter floor.
        assert seeds[1].depth == 22
        assert plans[2][-1] == 20 + 22
        seeds[1].positions = plans[2]
        seeds[1].max_used = int(plans[2][-1])
        plan_refuel(seeds, done, done, left, dry=1, floor=4)
        assert seeds[1].depth >= 2 * 22

    def test_plan_refuel_reads_the_sweep_rates(self):
        """A later sweep rejects more: the expected rate is the most of
        the run's, the last sweep's and — once it has 8 versions — the
        current sweep's."""
        def planned(sweep_used, sweep_rate, current):
            ts = TSSeed(info=_info(1), positions=np.arange(31), max_used=23,
                        assignment=np.array([0, 23]), first_used=3,
                        sweep_used=sweep_used, sweep_rate=sweep_rate)
            plan_refuel([ts], np.array([10]), np.array([current]),
                        np.array([10]), dry=0, floor=4)
            return ts.depth

        run = planned(23, 0.0, 0)          # 21/11 a version over the run
        assert run == 25
        assert planned(23, 4.0, 0) == 50 + 1      # the last sweep's 4
        assert planned(3, 0.0, 7) == run          # 7 versions: not yet
        assert planned(5, 0.0, 8) == 27 + 1       # 19/9 over 8 versions

    def test_plan_refuel_bounds_a_stuck_version(self):
        """One version of the current sweep's 8 stuck on an extreme value
        and rejected 14 767 candidates: the current sweep's rate counts
        at most 4 times the run's, not over every version left."""
        # Two sweeps of 333 versions took 2 positions a version; the
        # current one took 2 for each of 7 versions, 14 767 for one.
        ts = TSSeed(info=_info(1), positions=np.arange(16_130),
                    max_used=16_120, assignment=np.array([0, 16_120]),
                    first_used=3, sweep_used=1_339, sweep_rate=2.0)
        plans = plan_refuel([ts], np.array([674]), np.array([8]),
                            np.array([658]), dry=None, floor=4)
        assert list(plans) == [1]
        # The run's rate is 16 118 / 675 a version, the current sweep's
        # 14 782 / 9, capped at 4 times the run's:
        # ceil(1.25 * 4 * 16 118 / 675 * 658) = 78 561, plus a quarter
        # floor; uncapped, the depth would be 1 350 912.
        assert ts.depth == 78_562
        assert plans[1][-1] == 16_120 + 78_562

    def test_index_of_position(self):
        ts = TSSeed.initial(_info(), np.array([2, 5, 9, 11]), 2)
        assert ts.index_of_position(9) == 2
        with pytest.raises(KeyError):
            ts.index_of_position(7)

    def test_value_at_uses_stream(self):
        ts = self._seed()
        assert ts.info.chunk_blocks(0)[5, 0] == stream_values(
            42, NORMAL, (0.0, 1.0), [5])[0]


class TestGibbsTuple:
    def _tuple(self):
        return GibbsTuple(
            tuple_id=0,
            det={"name": "Sue"},
            rand={
                "a": RandField("a", handle=10, values=np.zeros(4)),
                "b": RandField("b", handle=5, values=np.zeros(4)),
            },
            presences=[PresenceField(handle=7, flags=np.ones(4, dtype=bool))])

    def test_handles_sorted_and_distinct(self):
        assert self._tuple().handles == [5, 7, 10]

    def test_next_handle_after(self):
        t = self._tuple()
        assert t.next_handle_after(5) == 7
        assert t.next_handle_after(7) == 10
        assert t.next_handle_after(10) is None

    def test_columns_of_handle(self):
        t = self._tuple()
        assert t.columns_of_handle(10) == ["a"]
        assert t.columns_of_handle(99) == []

    def test_from_relation(self):
        relation = BundleRelation(2, 3, aligned=False)
        relation.add_det_column("k", np.array([7, 8]))
        relation.add_rand_column("x", RandomColumn(
            np.arange(6, dtype=float).reshape(2, 3),
            seed_handles=np.array([100, 101])))
        flags = np.array([[True, False, True], [True, True, True]])
        relation.add_presence(PresenceColumn(
            flags, seed_handles=np.array([100, 101])))
        tuples = tuples_from_relation(relation)
        assert len(tuples) == 2
        assert tuples[0].det["k"] == 7
        assert tuples[0].rand["x"].handle == 100
        # Row 1's presence is vacuous (all true) and gets dropped.
        assert len(tuples[0].presences) == 1
        assert len(tuples[1].presences) == 0

    def test_from_relation_rejects_derived(self):
        relation = BundleRelation(1, 2, aligned=False)
        relation.add_rand_column("d", RandomColumn(
            np.zeros((1, 2)), seed_handles=None))
        with pytest.raises(PlanError, match="mixes seeds"):
            tuples_from_relation(relation)

    def test_from_relation_rejects_aligned_presence(self):
        relation = BundleRelation(1, 2, aligned=False)
        relation.add_rand_column("x", RandomColumn(
            np.zeros((1, 2)), seed_handles=np.array([1])))
        relation.add_presence(PresenceColumn(
            np.array([[True, False]]), seed_handles=None))
        with pytest.raises(PlanError, match="single-seed"):
            tuples_from_relation(relation)
