"""Row-mapped bundle blocks: a join keeps each random value once.

A block column's ``take`` keeps a row map into the block it came from
instead of gathering its rows, and the Monte Carlo fold evaluates a
random-only aggregate over the shared block and gathers each group
through the map.  Both are bit-identical to eager gathering by
construction; these tests hold them to it against an eager oracle (the
gather-every-row ``take`` the maps replaced), at the SQL surface on
every execution path, and pin the memory they save.  The property runs
derandomized in the test suite; ``ROW_MAP_PROFILE=stress`` runs it with a
large random sample::

    ROW_MAP_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
        tests/test_row_map.py::TestRowMapEquivalence
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bundles import BundleRelation, PresenceColumn, RandomColumn
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import Join
from repro.engine.options import ExecutionOptions
from repro.workloads.tpch import TPCHWorkload

PROFILES = {
    "default": settings(max_examples=150, deadline=None, derandomize=True),
    "stress": settings(max_examples=10_000, deadline=None),
}
PROFILE = PROFILES[os.environ.get("ROW_MAP_PROFILE", "default")]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if want.dtype.kind == "f":
        return np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return np.array_equal(got, want)


# -- the oracle: every take gathers every row ---------------------------------


def _gathered(lineage, indices):
    return None if lineage is None else lineage[indices]


def _eager_take(relation: BundleRelation, indices) -> BundleRelation:
    """The row gather of every block, as ``take`` did before row maps."""
    indices = np.asarray(indices, dtype=np.int64)
    out = BundleRelation(indices.size, relation.positions, relation.aligned)
    for name, values in relation.det_columns.items():
        out.det_columns[name] = values[indices]
    for name, column in relation.rand_columns.items():
        out.rand_columns[name] = RandomColumn(
            column.values[indices], _gathered(column.seed_handles, indices),
            _gathered(column.bases, indices))
    for presence in relation.presence:
        out.presence.append(PresenceColumn(
            presence.flags[indices], _gathered(presence.seed_handles, indices),
            _gathered(presence.bases, indices)))
    return out


def _eager_join(join: Join, left: BundleRelation,
                right: BundleRelation) -> BundleRelation:
    left_rows, right_rows = Join._match(
        [left.det_columns[key] for key in join.left_keys],
        [right.det_columns[key] for key in join.right_keys])
    taken_left = _eager_take(left, left_rows)
    taken_right = _eager_take(right, right_rows)
    out = BundleRelation(left_rows.size, left.positions, left.aligned)
    for taken in (taken_left, taken_right):
        out.det_columns.update(taken.det_columns)
        out.rand_columns.update(taken.rand_columns)
        out.presence += taken.presence
    return out


# -- relations and chains -----------------------------------------------------


def _relation(rng, length: int, width: int,
              presences: int) -> BundleRelation:
    """Det key ``k`` and value ``d``, random ``a``/``b`` (one seed per
    row) and derived ``c``, and ``presences`` presence blocks."""
    relation = BundleRelation(length, width, aligned=True)
    relation.add_det_column("k", rng.integers(0, 3, length))
    relation.add_det_column("d", rng.standard_normal(length))
    handles = rng.integers(0, 1 << 40, length)
    for name in ("a", "b", "c"):
        values = (rng.standard_normal((length, width))
                  * 10.0 ** rng.uniform(-3.0, 3.0, (length, width)))
        values[rng.random((length, width)) < 0.1] = -0.0
        relation.add_rand_column(name, RandomColumn(
            values, None if name == "c" else handles))
    for _ in range(presences):
        relation.add_presence(PresenceColumn(
            rng.random((length, width)) < 0.7, handles))
    return relation


def _renamed(relation: BundleRelation, prefix: str) -> BundleRelation:
    return relation.rename({name: prefix + name
                            for name in relation.column_names})


def _join_with(relation, eager, right, eager_right, prefix):
    join = Join(None, None, ["k"], [prefix + "k"])
    return (join._join(relation, _renamed(right, prefix)),
            _eager_join(join, eager, _renamed(eager_right, prefix)))


def _aggregates(relation: BundleRelation) -> list[AggregateSpec]:
    """Every kind, over expressions on both sides of the block-path rule:
    random-only (one map) and mixing a det column or, after a join,
    columns of two sides (two maps)."""
    aggregates = [
        AggregateSpec("sum_ab", "sum", col("a") * lit(2.0) + col("b")),
        AggregateSpec("avg_ad", "avg", col("a") * col("d")),
        AggregateSpec("min_b", "min", col("b")),
        AggregateSpec("max_ac", "max", col("a") - col("c")),
        AggregateSpec("avg_c", "avg", col("c") / lit(3.0)),
        AggregateSpec("n", "count")]
    for name in relation.rand_columns:
        if name.endswith("_a"):  # a column from the right side of a join
            aggregates += [AggregateSpec(f"sum_{name}", "sum",
                                         col("a") + col(name)),
                           AggregateSpec(f"min_{name}", "min", col(name))]
    return aggregates


def _assert_columns_equal(relation: BundleRelation, eager: BundleRelation):
    assert relation.length == eager.length
    assert relation.column_names == eager.column_names
    for name, values in eager.det_columns.items():
        assert _same_bits(relation.det_columns[name], values)
    shape = (eager.length, eager.positions)
    for name, column in eager.rand_columns.items():
        mapped = relation.rand_columns[name]
        assert mapped.shape == shape
        assert _same_bits(mapped.values, column.values)
        for lineage in ("seed_handles", "bases"):
            if getattr(column, lineage) is None:
                assert getattr(mapped, lineage) is None
            else:
                assert _same_bits(getattr(mapped, lineage),
                                  getattr(column, lineage))
    assert len(relation.presence) == len(eager.presence)
    for mapped, presence in zip(relation.presence, eager.presence):
        assert mapped.shape == shape
        assert _same_bits(mapped.flags, presence.flags)
        assert _same_bits(mapped.seed_handles, presence.seed_handles)


def _assert_folds_equal(relation: BundleRelation, eager: BundleRelation):
    executor = MonteCarloExecutor(None, _aggregates(eager), None,
                                  group_by=["k"])
    with np.errstate(all="ignore"):
        got = executor.fold_states(relation)
        want = executor.fold_states(eager)
    assert list(got) == list(want)
    for key, by_name in want.items():
        assert list(got[key]) == list(by_name)
        for name, state in by_name.items():
            assert list(got[key][name]) == list(state)
            for part, array in state.items():
                assert _same_bits(got[key][name][part], array), (key, name)


def _check(relation: BundleRelation, eager: BundleRelation):
    _assert_columns_equal(relation, eager)
    _assert_folds_equal(relation, eager)


class TestRowMapEquivalence:
    @PROFILE
    @given(data=st.data())
    def test_chains_equal_eager_gathers(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        width = data.draw(st.integers(1, 5), label="width")
        relation = eager = _relation(
            rng, data.draw(st.integers(0, 8), label="length"), width,
            data.draw(st.integers(0, 2), label="presences"))
        for step in range(data.draw(st.integers(0, 4), label="steps")):
            length = relation.length
            op = data.draw(st.sampled_from(
                ("take", "filter", "join", "self-join")), label="op")
            if op == "take":
                indices = np.asarray(data.draw(st.lists(
                    st.integers(0, length - 1), max_size=12) if length
                    else st.just([]), label="indices"), dtype=np.int64)
                relation, eager = (relation.take(indices),
                                   _eager_take(eager, indices))
            elif op == "filter":
                mask = rng.random(length) < data.draw(
                    st.sampled_from((0.0, 0.5, 1.0)), label="keep")
                relation, eager = (relation.filter_rows(mask),
                                   _eager_take(eager, np.flatnonzero(mask)))
            elif op == "join":
                right = _relation(rng, data.draw(st.integers(0, 6)), width,
                                  data.draw(st.integers(0, 1)))
                relation, eager = _join_with(relation, eager, right, right,
                                             f"j{step}_")
            elif length <= 12:  # self-join: both sides share the blocks
                relation, eager = _join_with(relation, eager, relation,
                                             eager, f"j{step}_")
            _check(relation, eager)

    def test_self_join_then_repeated_and_empty_takes(self):
        rng = np.random.default_rng(7)
        relation = eager = _relation(rng, 6, 4, presences=2)
        relation, eager = _join_with(relation, eager, relation, eager, "s_")
        _check(relation, eager)
        assert relation.length > 6
        repeated = np.array([3, 3, 0, relation.length - 1, 3])
        relation, eager = (relation.take(repeated),
                           _eager_take(eager, repeated))
        _check(relation, eager)
        # Every block still points into the six rows it was made with, and
        # the fold evaluates a random-only expression over them.
        for column in (*relation.rand_columns.values(), *relation.presence):
            assert column.stored.shape == (6, 4)
        one_map = AggregateSpec("t", "sum", col("a") * lit(2.0) + col("b"))
        terms, row_map = MonteCarloExecutor._terms(relation, one_map)
        assert terms.shape == (6, 4) and row_map.shape == (5,)
        two_maps = AggregateSpec("t", "sum", col("a") + col("s_a"))
        terms, row_map = MonteCarloExecutor._terms(relation, two_maps)
        assert terms.shape == (5, 4) and row_map is None
        empty = np.array([], dtype=np.int64)
        _check(relation.take(empty), _eager_take(eager, empty))

    def test_take_checks_its_indices(self):
        relation = _relation(np.random.default_rng(1), 3, 2, presences=1)
        with pytest.raises(IndexError):
            relation.take(np.array([0, 3]))
        negative = relation.take(np.array([-1, 0])).take(np.array([0]))
        assert _same_bits(negative.rand_columns["c"].values,
                          relation.rand_columns["c"].values[[2]])


# -- memory: no (joined rows x n) block ---------------------------------------

MC_JOIN = """
    SELECT o_yr, SUM(val) AS total, COUNT(*) AS n FROM random_ord, lineitem
    WHERE o_orderkey = l_orderkey GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO({repetitions})
"""


def test_join_op_peak_stays_below_the_joined_block():
    """3 200 joined rows x 64 repetitions would be a 1.64 MB float64
    block; the op's traced peak stays below it because the fold reads
    the 500-row Instantiate block through the join's row map."""
    workload = TPCHWorkload(orders=500, lineitems=4000, seed=3)
    joined = 3200 * 64 * 8
    with workload.build_session(base_seed=1) as session:
        sql = MC_JOIN.format(repetitions=64)
        first = session.execute(sql).distributions
        assert sum(first.distribution("n", key).samples[0]
                   for key in first.group_keys) == 3200
        tracemalloc.start()
        try:
            session.execute(sql)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < joined, f"traced op peak {peak} B >= {joined} B"


# -- SQL surface: bit-identical through joins on every path -------------------

PRESENCE_JOIN = """
    SELECT o_yr, SUM(val) AS total, AVG(val) AS mean, MIN(val) AS low,
           COUNT(*) AS n FROM random_ord, lineitem
    WHERE o_orderkey = l_orderkey AND val > 1.0 GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO({repetitions})
"""
SMOKE = dict(orders=300, lineitems=1500, seed=5)


def _samples(session, sql: str) -> dict:
    result = session.execute(sql).distributions
    return _result_samples(result)


def _result_samples(result) -> dict:
    return {(key, name): np.asarray(distribution.samples)
            for key in result.group_keys
            for name, distribution in result.aggregates(key).items()}


def _assert_same_samples(got: dict, want: dict):
    assert list(got) == list(want)
    for key, samples in want.items():
        assert _same_bits(got[key], samples), key


def _fresh_serial(sql: str, appended: dict | None = None) -> dict:
    with TPCHWorkload(**SMOKE).build_session(base_seed=2) as session:
        if appended is not None:
            session.append("orders", appended)
        return _samples(session, sql)


@pytest.fixture(params=[MC_JOIN, PRESENCE_JOIN], ids=["join", "presence"])
def statement(request):
    return request.param.format(repetitions=40)


@pytest.mark.parametrize("options", [
    ExecutionOptions(n_jobs=1),
    ExecutionOptions(n_jobs=2, backend="process")], ids=["serial", "process2"])
def test_join_results_equal_a_fresh_serial_session(statement, options):
    with TPCHWorkload(**SMOKE).build_session(
            base_seed=2, options=options) as session:
        _assert_same_samples(_samples(session, statement),
                             _fresh_serial(statement))


def test_standing_refresh_after_random_side_append(statement):
    """Appended orders (the random side of the join) re-use keys that
    lineitems mate with, so the Δ relation joins rows of its own."""
    appended = {"o_orderkey": np.arange(6), "o_yr": np.array(
        ["1994", "1995"] * 3, dtype=object), "o_mean": np.full(6, 1.5),
        "o_var": np.full(6, 0.5)}
    with TPCHWorkload(**SMOKE).build_session(base_seed=2) as session:
        handle = session.standing_query(statement)
        session.append("orders", appended)
        handle.refresh()
        assert handle.last_mode == "delta"
        _assert_same_samples(_result_samples(handle.result.distributions),
                             _fresh_serial(statement, appended))
