"""The Monte Carlo fold: strict-row-order column sums, evaluated once.

Every per-repetition sum in the engine — the MC fold, a standing
query's Δ continuation and the looper's accumulators — goes through
``ordered_column_sum``.  It must equal ``np.cumsum(m, axis=0)[-1]`` bit
for bit whatever the values (signed zeros, infinities, NaNs) and the
memory layout, because that sequential order is what keeps sharded,
incremental and serial results byte-identical.  The property runs
derandomized in the test suite; ``ORDERED_SUM_PROFILE=stress`` runs it
with a large random sample::

    ORDERED_SUM_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
        tests/test_mc_fold.py::TestOrderedColumnSum
"""

import os

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bundles import BundleRelation, ordered_column_sum
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    ExecutionContext, Select, random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import NORMAL

PROFILES = {
    "default": settings(max_examples=120, deadline=None, derandomize=True),
    "stress": settings(max_examples=20_000, deadline=None),
}
PROFILE = PROFILES[os.environ.get("ORDERED_SUM_PROFILE", "default")]

LAYOUTS = ("C", "F", "rows reversed", "columns reversed", "both reversed")


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _laid_out(matrix: np.ndarray, layout: str) -> np.ndarray:
    """A view of the same values in ``layout`` (reversed layouts are
    negative-stride views of a reversed copy)."""
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "rows reversed":
        return matrix[::-1].copy()[::-1]
    if layout == "columns reversed":
        return matrix[:, ::-1].copy()[:, ::-1]
    if layout == "both reversed":
        return matrix[::-1, ::-1].copy()[::-1, ::-1]
    return matrix


@st.composite
def wide_matrices(draw):
    """Up to 5 000 x 300 cells, magnitudes over 1e±12, with a drawn share
    of ±0.0, ±inf and NaN cells and some all-(−0.0) columns."""
    rows = draw(st.integers(1, 5_000))
    columns = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.standard_normal((rows, columns))
              * 10.0 ** rng.uniform(-12.0, 12.0, (rows, columns)))
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        share = draw(st.sampled_from((0.0, 0.0, 0.001, 0.05, 0.5)))
        matrix[rng.random((rows, columns)) < share] = value
    zero_columns = draw(st.lists(st.integers(0, columns - 1), max_size=3))
    matrix[:, zero_columns] = -0.0
    return _laid_out(matrix, draw(st.sampled_from(LAYOUTS)))


small_matrices = st.builds(
    _laid_out,
    hnp.arrays(np.float64,
               hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
               elements=st.floats(width=64)),
    st.sampled_from(LAYOUTS))


class TestOrderedColumnSum:
    @PROFILE
    @given(matrix=st.one_of(wide_matrices(), small_matrices))
    def test_equals_sequential_cumsum_bit_for_bit(self, matrix):
        with np.errstate(all="ignore"):
            expected = np.cumsum(matrix, axis=0)[-1]
            assert np.array_equal(
                _bits(ordered_column_sum(matrix)), _bits(expected))

    @pytest.mark.parametrize("columns", [1, 2, 7])
    def test_all_negative_zero_columns_stay_negative_zero(self, columns):
        sums = ordered_column_sum(np.full((9, columns), -0.0))
        assert np.signbit(sums).all() and not sums.any()

    def test_one_column_keeps_row_order(self):
        # Pairwise summation of one contiguous column would round these
        # differently: in row order the 1.0s vanish into 1e16 one by one.
        column = np.array([[1e16]] + [[1.0]] * 15)
        assert ordered_column_sum(column)[0] == 1e16


# ---------------------------------------------------------------------------
# The fold evaluates each aggregate's expression once per relation


def _grouped_catalog():
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(24), "grp": np.arange(24) % 4,
        "m": np.linspace(-3.0, 3.0, 24)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID", "grp", "m"))
    return catalog, Select(random_table_pipeline(spec), col("val") > lit(-1.0))


def _sequential_oracle(relation: BundleRelation, expr, kind: str) -> dict:
    """Per group, the row-by-row fold of one SUM/AVG aggregate."""
    values = np.broadcast_to(
        np.asarray(relation.evaluate_positional(expr), dtype=np.float64),
        (relation.length, relation.positions))
    presence = relation.combined_presence()
    sums: dict[tuple, np.ndarray] = {}
    counts: dict[tuple, np.ndarray] = {}
    for row, key in enumerate(relation.det_columns["grp"].tolist()):
        term = np.where(presence[row], values[row], 0.0)
        if (key,) in sums:
            sums[(key,)] = sums[(key,)] + term
            counts[(key,)] = counts[(key,)] + presence[row]
        else:
            sums[(key,)], counts[(key,)] = term.copy(), presence[row] * 1
    if kind == "sum":
        return sums
    return {key: np.where(counts[key] > 0,
                          sums[key] / np.maximum(counts[key], 1), np.nan)
            for key in sums}


def test_each_aggregate_expression_is_evaluated_once(monkeypatch):
    catalog, plan = _grouped_catalog()
    doubled, shifted = col("val") * lit(2.0), col("val") + col("m")
    aggregates = [AggregateSpec("total", "sum", doubled),
                  AggregateSpec("mean", "avg", shifted),
                  AggregateSpec("n", "count")]
    executor = MonteCarloExecutor(plan, aggregates, catalog,
                                  group_by=["grp"], base_seed=3)
    relation = plan.execute(ExecutionContext(
        catalog, positions=50, aligned=True, base_seed=3))
    calls = []
    original = BundleRelation.evaluate_positional

    def spy(self, expr, *args, **kwargs):
        calls.append(expr)
        return original(self, expr, *args, **kwargs)

    monkeypatch.setattr(BundleRelation, "evaluate_positional", spy)
    result = executor.aggregate(relation, 50)
    monkeypatch.undo()

    assert len(result.group_keys) == 4
    assert [id(expr) for expr in calls] == [id(doubled), id(shifted)]
    for aggregate in aggregates[:2]:
        oracle = _sequential_oracle(relation, aggregate.expr, aggregate.kind)
        for key in result.group_keys:
            assert np.array_equal(
                _bits(result.distribution(aggregate.name, key).samples),
                _bits(oracle[key]))


# ---------------------------------------------------------------------------
# SQL surface: a sum of −0.0s is −0.0 on every path

SIGNED_ZERO = ("SELECT SUM(z) AS t FROM means "
               "WITH RESULTDISTRIBUTION MONTECARLO(3)")


def _zero_session(rows: int, **options) -> Session:
    session = Session(base_seed=5, options=ExecutionOptions(**options))
    session.add_table("means", {"CID": np.arange(rows),
                                "z": np.full(rows, -0.0)})
    return session


def _signed_zero_samples(session: Session) -> np.ndarray:
    output = session.execute(SIGNED_ZERO)
    return np.asarray(output.distributions.distribution("t").samples)


def _fresh_serial(rows: int) -> np.ndarray:
    with _zero_session(rows, n_jobs=1) as session:
        return _signed_zero_samples(session)


def _assert_negative_zeros(samples: np.ndarray, reference: np.ndarray):
    assert samples.shape == (3,)
    assert np.signbit(samples).all() and not samples.any()
    assert np.array_equal(_bits(samples), _bits(reference))


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_sum_of_negative_zeros_is_negative_zero(n_jobs):
    with _zero_session(6, n_jobs=n_jobs, backend="thread") as session:
        _assert_negative_zeros(_signed_zero_samples(session),
                               _fresh_serial(6))


def test_standing_refresh_keeps_negative_zero():
    with _zero_session(6) as session:
        handle = session.standing_query(SIGNED_ZERO)
        session.append("means", {"CID": [6, 7], "z": [-0.0, -0.0]})
        handle.refresh()
        assert handle.last_mode == "delta"
        samples = handle.result.distributions.distribution("t").samples
        _assert_negative_zeros(np.asarray(samples), _fresh_serial(8))
