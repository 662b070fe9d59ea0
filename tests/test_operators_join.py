"""Array-speed bookkeeping vs. the row-at-a-time code it replaced.

``Join._match``, ``MonteCarloExecutor._group_rows``, ``seed_handles`` and
``derive_prng_seeds`` are array rewrites of per-row Python loops.  The
loops live on *here*, as oracles: the rewrites must return the same rows
in the same order (and the same keys of the same scalar types), because
row order is what keeps Monte Carlo folds bit-identical across re-runs,
shards and append splices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bundles import (
    BundleRelation, PresenceColumn, RandomColumn, row_key_codes)
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, Scan, Seed, Select)
from repro.engine.seeds import (
    derive_prng_seed, derive_prng_seeds, label_id_of, seed_handle,
    seed_handles)
from repro.engine.table import Catalog, Table
from repro.vg.builtin import NORMAL

# -- the oracles: the code as it stood before the rewrite ---------------------


def _hash_join(left_keys, right_keys):
    index: dict[tuple, list[int]] = {}
    for row in range(right_keys[0].shape[0]):
        key = tuple(column[row] for column in right_keys)
        index.setdefault(key, []).append(row)
    left_rows, right_rows = [], []
    for row in range(left_keys[0].shape[0]):
        key = tuple(column[row] for column in left_keys)
        for mate in index.get(key, ()):
            left_rows.append(row)
            right_rows.append(mate)
    return left_rows, right_rows


def _dict_group_rows(key_columns):
    grouped: dict[tuple, list[int]] = {}
    for row in range(key_columns[0].shape[0]):
        key = tuple(column[row] for column in key_columns)
        grouped.setdefault(key, []).append(row)
    return {key: np.asarray(rows) for key, rows in grouped.items()}


# -- key-column strategies ----------------------------------------------------

# Small domains force duplicates.  Integers stay far below 2**53: an int
# column meeting a float column is compared as float64, which matches
# Python's exact int/float equality only up to there.
_INTS = st.integers(-3, 3)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, float("nan")]),
                    st.integers(-3, 3).map(float))
_WORDS = st.sampled_from(["a", "b", "ab", "", "1994", "1"])


def _column(kind: str, values: list) -> np.ndarray:
    """A det column as ``BundleRelation.add_det_column`` would store it."""
    dtype = {"int": np.int64, "float": np.float64, "bool": np.bool_,
             "str": object}[kind]
    return np.asarray(values, dtype=dtype)


_ELEMENTS = {"int": _INTS, "float": _FLOATS, "bool": st.booleans(),
             "str": _WORDS}
# (left kind, right kind) of one key column pair, equal kinds and not.
_KIND_PAIRS = st.sampled_from([
    ("int", "int"), ("float", "float"), ("str", "str"), ("bool", "bool"),
    ("int", "float"), ("float", "int"), ("bool", "int"), ("str", "int"),
    ("float", "str")])


@st.composite
def _join_sides(draw):
    kinds = draw(st.lists(_KIND_PAIRS, min_size=1, max_size=3))
    n_left = draw(st.integers(0, 12))
    n_right = draw(st.integers(0, 12))
    left = [_column(lk, draw(st.lists(_ELEMENTS[lk], min_size=n_left,
                                      max_size=n_left)))
            for lk, _ in kinds]
    right = [_column(rk, draw(st.lists(_ELEMENTS[rk], min_size=n_right,
                                       max_size=n_right)))
             for _, rk in kinds]
    return left, right


@st.composite
def _group_columns(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_ELEMENTS)), min_size=1,
                          max_size=3))
    rows = draw(st.integers(0, 16))
    return [_column(kind, draw(st.lists(_ELEMENTS[kind], min_size=rows,
                                        max_size=rows)))
            for kind in kinds]


class TestJoinMatch:
    @given(sides=_join_sides())
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_in_same_order_as_the_hash_join(self, sides):
        left, right = sides
        left_rows, right_rows = Join._match(left, right)
        want_left, want_right = _hash_join(left, right)
        assert left_rows.tolist() == want_left
        assert right_rows.tolist() == want_right
        assert left_rows.dtype == right_rows.dtype == np.int64

    def test_duplicates_on_both_sides_fan_out_in_right_row_order(self):
        left = [np.array([7, 5, 7])]
        right = [np.array([5, 7, 9, 7, 5])]
        left_rows, right_rows = Join._match(left, right)
        assert left_rows.tolist() == [0, 0, 1, 1, 2, 2]
        assert right_rows.tolist() == [1, 3, 0, 4, 1, 3]

    def test_nan_keys_never_match_and_kinds_do_not_mix(self):
        nan = float("nan")
        left_rows, _ = Join._match([np.array([nan, 1.0])],
                                   [np.array([nan, nan, 1.0])])
        assert left_rows.tolist() == [1]
        left_rows, _ = Join._match([np.array(["1", "a"], dtype=object)],
                                   [np.array([1, 1])])
        assert left_rows.size == 0

    def test_join_operator_end_to_end_with_string_and_multi_keys(self):
        catalog = Catalog()
        catalog.add_table(Table("l", {
            "lk": ["x", "y", "x", "z"], "ln": [1, 2, 1, 3],
            "lv": [10.0, 20.0, 30.0, 40.0]}))
        catalog.add_table(Table("r", {
            "rk": ["x", "x", "y", "q"], "rn": [1, 1, 9, 3],
            "rv": [1.0, 2.0, 3.0, 4.0]}))
        joined = Join(Scan("l"), Scan("r"), ["lk", "ln"], ["rk", "rn"]) \
            .execute(ExecutionContext(catalog, positions=1, aligned=True))
        assert joined.det_columns["lv"].tolist() == [10.0, 10.0, 30.0, 30.0]
        assert joined.det_columns["rv"].tolist() == [1.0, 2.0, 1.0, 2.0]


class TestGroupRows:
    @given(columns=_group_columns())
    @settings(max_examples=300, deadline=None)
    def test_same_dict_as_the_row_loop(self, columns):
        names = [f"k{i}" for i in range(len(columns))]
        relation = BundleRelation(columns[0].shape[0], 1, True)
        for name, column in zip(names, columns):
            relation.det_columns[name] = column
        executor = MonteCarloExecutor(
            None, [AggregateSpec("n", "count")], None, group_by=names)
        got = executor._group_rows(relation)
        want = _dict_group_rows(columns)
        # repr, not ==: a NaN key equals nothing, itself included.
        assert [repr(key) for key in got] == [repr(key) for key in want]
        for got_key, want_key in zip(got, want):
            assert [type(part) for part in got_key] == \
                [type(part) for part in want_key]
            assert got[got_key].tolist() == want[want_key].tolist()
            assert got[got_key].dtype == want[want_key].dtype

    def test_every_nan_row_gets_a_code_of_its_own(self):
        nan = float("nan")
        codes = row_key_codes([np.array([2.0, nan, 1.0, nan, 2.0])])
        assert codes[0] == codes[4]
        assert len(set(codes.tolist())) == 4


class TestSeedVectors:
    @given(base_seed=st.integers(-2**70, 2**70),
           handles=st.lists(st.integers(0, 2**60 - 1), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_derive_prng_seeds_equals_the_scalar(self, base_seed, handles):
        got = derive_prng_seeds(base_seed, np.asarray(handles, dtype=np.int64))
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_prng_seed(base_seed, handle)
                                for handle in handles]

    def test_seed_handles_equals_the_scalar_and_checks_its_range(self):
        label_id = label_id_of("losses")
        assert seed_handles(label_id, 3, 9).tolist() == [
            seed_handle(label_id, row) for row in range(3, 9)]
        assert seed_handles(label_id, 4, 4).shape == (0,)
        for bad in ((1 << 20, 0, 1), (0, 0, (1 << 40) + 1)):
            with pytest.raises(ValueError, match="out of range"):
                seed_handles(*bad)


class TestShallowCopy:
    """Seed/Instantiate/Select add to their child's rows without copying
    them, and without touching the child relation."""

    def _child(self):
        relation = BundleRelation(3, 2, True)
        relation.add_det_column("k", np.arange(3))
        relation.add_rand_column("v", RandomColumn(
            np.arange(6.0).reshape(3, 2), seed_handles=np.arange(3)))
        relation.add_presence(PresenceColumn(
            np.ones((3, 2), dtype=bool), seed_handles=None))
        return relation

    def test_columns_are_shared_and_the_source_is_untouched(self):
        child = self._child()
        copy = child.shallow_copy()
        assert copy is not child
        assert copy.det_columns["k"] is child.det_columns["k"]
        assert copy.rand_columns["v"] is child.rand_columns["v"]
        assert copy.presence[0] is child.presence[0]
        copy.add_det_column("extra", np.zeros(3))
        copy.add_presence(PresenceColumn(
            np.zeros((3, 2), dtype=bool), seed_handles=None))
        assert "extra" not in child.det_columns
        assert len(child.presence) == 1

    def test_operators_share_their_childs_arrays(self):
        catalog = Catalog()
        catalog.add_table(Table("params", {"k": np.arange(4),
                                           "m": [1.0, 2.0, 3.0, 4.0]}))
        context = ExecutionContext(catalog, positions=8, aligned=True)
        scan = Scan("params")
        seed = Seed(scan, label="L")
        instantiate = Instantiate(seed, NORMAL, [col("m"), lit(1.0)],
                                  [("val", 0)], seed.handle_column)
        select = Select(instantiate, col("val") > lit(-100.0))
        scanned = scan.execute(context)
        before = {name: values.copy()
                  for name, values in scanned.det_columns.items()}
        seeded = seed.execute(context)
        instantiated = instantiate.execute(context)
        selected = select.execute(context)
        for name in ("k", "m"):
            assert seeded.det_columns[name] is scanned.det_columns[name]
            assert instantiated.det_columns[name] is scanned.det_columns[name]
            np.testing.assert_array_equal(scanned.det_columns[name],
                                          before[name])
        assert set(scanned.det_columns) == {"k", "m"}
        assert not scanned.rand_columns and not seeded.rand_columns
        assert not instantiated.presence and len(selected.presence) == 1
