"""Tests for the physical operators (repro.engine.operators)."""

import numpy as np
import pytest

from repro.engine.errors import PlanError
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    ExecutionContext, Join, Project, Scan, Seed, Select, Split,
    random_table_pipeline)
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import DISCRETE_CHOICE, MULTIVARIATE_NORMAL, NORMAL


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(6), "m": [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]}))
    catalog.add_table(Table("orders", {
        "okey": [1, 2, 3], "year": ["1994", "1995", "1996"]}))
    catalog.add_table(Table("items", {
        "ikey": [10, 11, 12, 13], "okey2": [1, 1, 2, 9]}))
    return catalog


def _ctx(catalog, positions=8, aligned=True, base_seed=0):
    return ExecutionContext(catalog, positions=positions, aligned=aligned,
                            base_seed=base_seed)


def _losses_spec():
    return RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(0.0001)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))


class TestScanSeedInstantiate:
    def test_scan(self, catalog):
        relation = Scan("means").execute(_ctx(catalog))
        assert relation.length == 6
        assert set(relation.det_columns) == {"CID", "m"}

    def test_scan_prefix(self, catalog):
        relation = Scan("means", prefix="e1.").execute(_ctx(catalog))
        assert set(relation.det_columns) == {"e1.CID", "e1.m"}

    def test_seed_attaches_unique_stable_handles(self, catalog):
        node = Seed(Scan("means"), label="L")
        first = node.execute(_ctx(catalog))
        second = node.execute(_ctx(catalog))
        handles = first.det_columns["L#seed"]
        assert len(set(handles.tolist())) == 6
        np.testing.assert_array_equal(handles, second.det_columns["L#seed"])

    def test_label_collision_rejected(self, catalog):
        context = _ctx(catalog)
        context.register_label("A")
        context.register_label("A")  # same label is fine
        # A different label mapping to the same 20-bit id is astronomically
        # unlikely; simulate by direct call.
        label_id = context.register_label("A")
        context._labels[label_id] = "other"
        with pytest.raises(PlanError, match="collision"):
            context.register_label("A")

    def test_instantiate_values_follow_parameter_rows(self, catalog):
        plan = random_table_pipeline(_losses_spec())
        relation = plan.execute(_ctx(catalog, positions=16))
        # variance 0.0001 => values hug their means.
        means = catalog.table("means").column("m")
        np.testing.assert_allclose(
            relation.rand_columns["val"].values.mean(axis=1), means, atol=0.05)

    def test_instantiate_is_deterministic_per_seed(self, catalog):
        plan = random_table_pipeline(_losses_spec())
        a = plan.execute(_ctx(catalog, positions=8, base_seed=5))
        b = plan.execute(_ctx(catalog, positions=8, base_seed=5))
        np.testing.assert_array_equal(a.rand_columns["val"].values,
                                      b.rand_columns["val"].values)

    def test_instantiate_differs_across_base_seeds(self, catalog):
        plan = random_table_pipeline(_losses_spec())
        a = plan.execute(_ctx(catalog, positions=8, base_seed=1))
        b = plan.execute(_ctx(catalog, positions=8, base_seed=2))
        assert not np.allclose(a.rand_columns["val"].values,
                               b.rand_columns["val"].values)

    def test_window_base_offsets_materialization(self, catalog):
        """Replenishment contract: materializing from a later base yields
        the same values the full stream would have at those positions."""
        plan = random_table_pipeline(_losses_spec())
        full = plan.execute(_ctx(catalog, positions=16))
        # Replenishment is a tail run's (a Monte Carlo context refuses a
        # position plan), which reads its windows as runs.
        ctx1 = _ctx(catalog, positions=8, aligned=False)
        ctx1.position_plan = dict.fromkeys(
            full.rand_columns["val"].seed_handles.tolist(), np.arange(8, 16))
        shifted = plan.execute(ctx1)
        np.testing.assert_allclose(
            shifted.rand_columns["val"].values.reshape(-1, 8),
            full.rand_columns["val"].values[:, 8:])
        np.testing.assert_array_equal(shifted.rand_columns["val"].bases, 8)

    def test_block_vg_instantiate_shares_seed(self, catalog):
        catalog.add_table(Table("params", {"k": [0]}))
        spec = RandomTableSpec(
            name="Pair", parameter_table="params", vg=MULTIVARIATE_NORMAL,
            vg_params=(lit(0.0), lit(0.0), lit(1.0), lit(0.99),
                       lit(0.99), lit(1.0)),
            random_columns=(RandomColumnSpec("a", 0), RandomColumnSpec("b", 1)))
        relation = random_table_pipeline(spec).execute(_ctx(catalog, positions=256))
        a = relation.rand_columns["a"]
        b = relation.rand_columns["b"]
        np.testing.assert_array_equal(a.seed_handles, b.seed_handles)
        correlation = np.corrcoef(a.values[0], b.values[0])[0, 1]
        assert correlation > 0.9


class TestSelect:
    def test_deterministic_select_drops_rows(self, catalog):
        plan = Select(random_table_pipeline(_losses_spec()), col("CID") < lit(3))
        relation = plan.execute(_ctx(catalog))
        assert relation.length == 3
        assert not relation.presence

    def test_random_select_creates_presence(self, catalog):
        plan = Select(random_table_pipeline(_losses_spec()),
                      col("val") > lit(5.5))
        relation = plan.execute(_ctx(catalog, positions=32))
        # CIDs 3,4,5 (means 6,7,8) stay; tight variance makes it clean.
        assert relation.length == 3
        assert len(relation.presence) == 1
        assert relation.presence[0].flags.all()

    def test_random_select_drops_never_true_tuples(self, catalog):
        plan = Select(random_table_pipeline(_losses_spec()),
                      col("val") > lit(100.0))
        relation = plan.execute(_ctx(catalog, positions=32))
        assert relation.length == 0

    def test_partial_presence(self, catalog):
        catalog.add_table(Table("one", {"m1": [0.0]}))
        spec = RandomTableSpec(
            name="U", parameter_table="one", vg=NORMAL,
            vg_params=(col("m1"), lit(1.0)),
            random_columns=(RandomColumnSpec("u"),))
        plan = Select(random_table_pipeline(spec), col("u") > lit(0.0))
        relation = plan.execute(_ctx(catalog, positions=64))
        flags = relation.presence[0].flags
        assert 0 < flags.sum() < 64
        np.testing.assert_array_equal(
            flags[0], relation.rand_columns["u"].values[0] > 0)

    def test_multi_seed_predicate_rejected_in_tail_mode(self, catalog):
        catalog.add_table(Table("two", {"m1": [0.0, 1.0]}))
        spec = RandomTableSpec(
            name="V", parameter_table="two", vg=NORMAL,
            vg_params=(col("m1"), lit(1.0)),
            random_columns=(RandomColumnSpec("v"),),
            passthrough_columns=("m1",))
        base = random_table_pipeline(spec)
        # Join two copies to get two seeds in one tuple.
        spec_b = RandomTableSpec(
            name="W", parameter_table="two", vg=NORMAL,
            vg_params=(col("m1"), lit(1.0)),
            random_columns=(RandomColumnSpec("w"),),
            passthrough_columns=("m1",))
        pipeline_b = random_table_pipeline(spec_b, prefix="w.")
        # Simplest cross-seed relation: add det keys and join 1:1.
        with_key_a = Project(base, outputs=[("k", col("m1") * lit(0))],
                             keep=["v"])
        with_key_b = Project(pipeline_b, outputs=[("k2", col("w.m1") * lit(0))],
                             keep=["w.w"])
        joined = Join(with_key_a, with_key_b, ["k"], ["k2"])
        node = Select(joined, col("v") < col("w.w"))
        from repro.engine.errors import AlignmentError
        with pytest.raises(AlignmentError, match="pulled up"):
            node.execute(_ctx(catalog, positions=8, aligned=False))
        # Aligned (MC) mode evaluates it in-plan without complaint.
        out = node.execute(_ctx(catalog, positions=8, aligned=True))
        assert len(out.presence) == 1


class TestProjectJoinSplit:
    def test_project_keep_and_derive(self, catalog):
        plan = Project(random_table_pipeline(_losses_spec()),
                       outputs=[("double", col("val") * lit(2)),
                                ("cid10", col("CID") * lit(10))],
                       keep=["CID", "val"])
        relation = plan.execute(_ctx(catalog))
        assert set(relation.det_columns) == {"CID", "cid10"}
        assert set(relation.rand_columns) == {"val", "double"}
        np.testing.assert_allclose(relation.rand_columns["double"].values,
                                   relation.rand_columns["val"].values * 2)
        # Lineage preserved for single-seed derivations.
        np.testing.assert_array_equal(
            relation.rand_columns["double"].seed_handles,
            relation.rand_columns["val"].seed_handles)

    def test_project_unknown_keep_rejected(self, catalog):
        plan = Project(Scan("means"), keep=["zz"])
        with pytest.raises(PlanError, match="unknown column"):
            plan.execute(_ctx(catalog))

    def test_join_matches_keys(self, catalog):
        plan = Join(Scan("orders"), Scan("items"), ["okey"], ["okey2"])
        relation = plan.execute(_ctx(catalog))
        assert relation.length == 3  # okey 1 matches twice, 2 once, 3/9 none
        np.testing.assert_array_equal(sorted(relation.det_columns["ikey"]),
                                      [10, 11, 12])

    def test_join_duplicate_columns_rejected(self, catalog):
        plan = Join(Scan("orders"), Scan("orders"), ["okey"], ["okey"])
        with pytest.raises(PlanError, match="alias"):
            plan.execute(_ctx(catalog))

    def test_join_on_random_column_rejected(self, catalog):
        losses = random_table_pipeline(_losses_spec())
        plan = Join(losses, Scan("orders"), ["val"], ["okey"])
        with pytest.raises(PlanError, match="Split"):
            plan.execute(_ctx(catalog))

    def test_join_carries_random_columns(self, catalog):
        losses = random_table_pipeline(_losses_spec())
        plan = Join(Scan("items"), losses, ["okey2"], ["CID"])
        relation = plan.execute(_ctx(catalog))
        assert relation.length == 3  # okey2 in {1,1,2}; 9 has no CID mate
        assert "val" in relation.rand_columns

    def test_split_discretizes(self, catalog):
        catalog.add_table(Table("people", {"pid": [0]}))
        spec = RandomTableSpec(
            name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        plan = Split(random_table_pipeline(spec), "age")
        relation = plan.execute(_ctx(catalog, positions=64))
        # The Sec. 8 example: Jane fans out into one tuple per age value.
        assert relation.length == 2
        assert "age" in relation.det_columns
        assert sorted(relation.det_columns["age"]) == [20.0, 21.0]
        flags = relation.presence[0].flags
        # Exactly one copy is present at every position.
        np.testing.assert_array_equal(flags.sum(axis=0), np.ones(64))

    def test_split_requires_random_column(self, catalog):
        plan = Split(Scan("means"), "m")
        with pytest.raises(PlanError, match="not a random column"):
            plan.execute(_ctx(catalog))

    def test_split_then_join_on_age(self, catalog):
        """Sec. 8 end to end: join on a (formerly) random attribute."""
        catalog.add_table(Table("people", {"pid": [0]}))
        catalog.add_table(Table("clubs", {"minage": [21.0], "club": ["21+"]}))
        spec = RandomTableSpec(
            name="Ages2", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        plan = Join(Split(random_table_pipeline(spec), "age"), Scan("clubs"),
                    ["age"], ["minage"])
        executor = MonteCarloExecutor(
            plan, [AggregateSpec("members", "count")], catalog)
        result = executor.run(2000)
        dist = result.distribution("members")
        # Jane is 21 in about half the worlds.
        assert abs(dist.expectation() - 0.5) < 0.05


class TestDeterministicCaching:
    def test_det_subtree_cached_across_runs(self, catalog):
        plan = Select(Scan("means"), col("CID") < lit(3))
        context = _ctx(catalog)
        first = plan.execute(context)
        executions = context.node_executions
        second = plan.execute(context)
        assert context.node_executions == executions  # wholly cached
        assert second is first

    def test_random_nodes_never_cached(self, catalog):
        plan = random_table_pipeline(_losses_spec())
        context = _ctx(catalog)
        plan.execute(context)
        before = context.node_executions
        plan.execute(context)
        # Scan and Seed are deterministic (stable handles) and cached;
        # Instantiate and the Project above it re-run.
        assert context.node_executions == before + 2
