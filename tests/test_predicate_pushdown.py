"""Deterministic predicates below ``Instantiate``: same bytes, fewer windows.

The planner moves a conjunct that reads no random column of a random
table into that table's pipeline, between ``Seed`` and ``Instantiate``.
The oracle is the placement it replaced: the same filter as a ``Select``
above ``random_table_pipeline(spec)``.  ``Seed`` numbers handles by
parameter-row position *before* the filter, so every surviving row keeps
its handle, PRNG key and stream, and every result below must match the
oracle byte for byte — samples, assignments, plan runs and the per-step
proposal/acceptance counts — while ``Instantiate`` materializes only the
rows the filter keeps.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from looper_oracles import looper_class, planner_looper

from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, Project, Scan, Seed, Select,
    random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.seeds import label_id_of, seed_handles
from repro.sql import Session
from repro.sql.parser import parse
from repro.sql.planner import (
    compile_select, describe_compiled, monte_carlo_executor, tail_looper)

CUSTOMERS = 12
EMPLOYEES = 8
CREATE = [
    """CREATE TABLE Losses (CID, grp, val) AS
       FOR EACH CID IN means
       WITH v AS Normal(VALUES(m, 1.0))
       SELECT CID, grp, v.* FROM v""",
    """CREATE TABLE emp (eid, sal) AS
       FOR EACH r IN emp_means
       WITH v AS Normal(VALUES(msal, 1.0))
       SELECT eid, v.* FROM v""",
]


def _session(**options):
    session = Session(base_seed=5, tail_budget=120, window=40,
                      options=ExecutionOptions(**options))
    session.add_table("means", {
        "CID": np.arange(CUSTOMERS), "grp": np.arange(CUSTOMERS) % 3,
        "m": np.linspace(0.8, 3.5, CUSTOMERS)})
    session.add_table("segments", {
        "CID2": np.arange(CUSTOMERS),
        "seg": ["a", "b", "c"] * (CUSTOMERS // 3)})
    # A reporting chain: employee i supervises employee i + 1.
    session.add_table("emp_means", {
        "eid": np.arange(EMPLOYEES), "msal": np.linspace(1.0, 2.0, EMPLOYEES)})
    session.add_table("sup", {"boss": np.arange(EMPLOYEES - 1),
                              "peon": np.arange(1, EMPLOYEES)})
    for ddl in CREATE:
        session.execute(ddl)
    return session


def _old_shape(node, catalog):
    """``node`` with every pushed filter lifted back above its pipeline —
    ``Select(random_table_pipeline(spec, prefix), pred)``, the placement
    the planner used before the push-down."""
    if isinstance(node, Project) and isinstance(node.children[0], Instantiate):
        below, pushed = node.children[0].children[0], []
        while isinstance(below, Select):
            pushed.append(below.predicate)
            below = below.children[0]
        assert isinstance(below, Seed)
        plan = random_table_pipeline(catalog.random_table(below.depends_on[0]),
                                     prefix=below.children[0].prefix)
        for predicate in reversed(pushed):
            plan = Select(plan, predicate)
        return plan
    children = [_old_shape(child, catalog) for child in node.children]
    if isinstance(node, Join):
        return Join(*children, node.left_keys, node.right_keys)
    if isinstance(node, Select):
        return Select(children[0], node.predicate)
    assert isinstance(node, Scan), node
    return node


def _compiled_pair(session, sql, tail_mode):
    compiled = compile_select(parse(sql), session.catalog, tail_mode=tail_mode)
    old = dataclasses.replace(
        compiled, plan=_old_shape(compiled.plan, session.catalog))
    return compiled, old


def _tail_pair(session, sql):
    """(pushed-down, oracle) LooperResults of one tail statement."""
    spec = parse(sql).result_spec
    return [tail_looper(compiled, session.catalog, spec,
                        tail_budget=session.tail_budget,
                        window=session.window, base_seed=session.base_seed,
                        options=session.options).run()
            for compiled in _compiled_pair(session, sql, tail_mode=True)]


def _mc_pair(session, sql):
    """(pushed-down, oracle) sample bytes per (group, aggregate)."""
    repetitions = parse(sql).result_spec.montecarlo
    out = []
    for compiled in _compiled_pair(session, sql, tail_mode=False):
        result = monte_carlo_executor(
            compiled, session.catalog, base_seed=session.base_seed,
            options=session.options).run(repetitions)
        out.append({(group, name): dist.samples.tobytes()
                    for group in result.group_keys
                    for name, dist in result.aggregates(group).items()})
    return out


def _assert_identical(new, old):
    assert new.samples.tobytes() == old.samples.tobytes()
    assert new.quantile_estimate == old.quantile_estimate
    assert new.assignments == old.assignments
    assert new.plan_runs == old.plan_runs
    assert (new.num_seeds, new.num_tuples) == (old.num_seeds, old.num_tuples)
    assert (new.full_replenish_runs, new.delta_replenish_runs) == (
        old.full_replenish_runs, old.delta_replenish_runs)
    assert [(s.stats.proposals, s.stats.acceptances, s.stats.stalls,
             s.replenish_runs, s.cutoff) for s in new.trace] == [
        (s.stats.proposals, s.stats.acceptances, s.stats.stalls,
         s.replenish_runs, s.cutoff) for s in old.trace]


def _tail_sql(where):
    return ("SELECT SUM(val) AS t FROM Losses WHERE " + where +
            " WITH RESULTDISTRIBUTION MONTECARLO(20) "
            "DOMAIN t >= QUANTILE(0.8)")


CUTOFFS = st.integers(-1, CUSTOMERS + 1)


class TestOracleShape:
    def test_lifted_plan_is_the_hand_built_old_shape(self):
        session = _session()
        _, old = _compiled_pair(session, _tail_sql("CID < 5"), tail_mode=True)
        spec = session.catalog.random_table("Losses")
        hand_built = Select(random_table_pipeline(spec, prefix="Losses."),
                            col("Losses.CID") < lit(5))
        assert old.plan.fingerprint() == hand_built.fingerprint()

    def test_mixed_conjunct_stays_above_instantiate(self):
        session = _session()
        compiled, _ = _compiled_pair(session, (
            "SELECT SUM(val) AS t FROM Losses WHERE val > CID AND CID < 9 "
            "WITH RESULTDISTRIBUTION MONTECARLO(10)"), tail_mode=False)
        top = compiled.plan
        assert isinstance(top, Select)
        assert top.predicate.columns() == {"Losses.val", "Losses.CID"}
        instantiate = top.children[0].children[0]
        assert isinstance(instantiate, Instantiate)
        pushed = instantiate.children[0]
        assert isinstance(pushed, Select)
        assert pushed.predicate.columns() == {"Losses.CID"}
        assert isinstance(pushed.children[0], Seed)


class TestTail:
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    @given(cutoff=CUTOFFS)
    @example(cutoff=0)                 # filters everything
    @example(cutoff=CUSTOMERS)         # filters nothing
    @settings(max_examples=6, deadline=None)
    def test_cutoffs_match_oracle(self, engine, replenishment, cutoff):
        with planner_looper(looper_class(engine, replenishment)):
            new, old = _tail_pair(_session(), _tail_sql(f"CID < {cutoff}"))
        _assert_identical(new, old)

    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_refuelling_run_matches_oracle(self, replenishment):
        with planner_looper(looper_class(replenishment=replenishment)):
            new, old = _tail_pair(_session(),
                                  _tail_sql("CID >= 3 AND val > 0.5"))
        assert sum(step.replenish_runs for step in new.trace) > 0
        _assert_identical(new, old)

    def test_join_with_det_predicate_on_random_side(self):
        session = _session()
        new, old = _tail_pair(session, (
            "SELECT SUM(val) AS t FROM Losses, segments "
            "WHERE CID = CID2 AND CID < 10 AND seg = 'b' "
            "WITH RESULTDISTRIBUTION MONTECARLO(20) "
            "DOMAIN t >= QUANTILE(0.8)"))
        _assert_identical(new, old)


SELF_JOIN = ("SELECT SUM(e2.sal - e1.sal) AS inv "
             "FROM emp AS e1, emp AS e2, sup "
             "WHERE sup.boss = e1.eid AND sup.peon = e2.eid "
             "AND e1.eid < {a} AND e2.eid >= {b}{extra} "
             "WITH RESULTDISTRIBUTION MONTECARLO(20)")


class TestSelfJoin:
    def test_occurrences_share_handles_under_own_filters(self):
        session = _session()
        compiled = compile_select(parse(SELF_JOIN.format(a=6, b=2, extra="")),
                                  session.catalog, tail_mode=False)
        context = ExecutionContext(session.catalog, positions=4, aligned=True)
        relation = compiled.plan.execute(context)
        handles = seed_handles(label_id_of("emp"), 0, EMPLOYEES)
        e1 = relation.det_columns["e1.eid"].astype(np.int64)
        e2 = relation.det_columns["e2.eid"].astype(np.int64)
        # Employees 2..5 pass both filters and sit on both sides.
        assert set(e1.tolist()) & set(e2.tolist()) == {2, 3, 4, 5}
        np.testing.assert_array_equal(relation.det_columns["e1.emp#seed"],
                                      handles[e1])
        np.testing.assert_array_equal(relation.det_columns["e2.emp#seed"],
                                      handles[e2])
        # One stream per employee, whichever occurrence reads it.
        for name in ("e1.sal", "e2.sal"):
            column = relation.rand_columns[name]
            np.testing.assert_array_equal(
                column.seed_handles, relation.det_columns[
                    name.split(".")[0] + ".emp#seed"])
        shared = np.flatnonzero(e1[1:] == e2[:-1])
        np.testing.assert_array_equal(
            relation.rand_columns["e1.sal"].values[shared + 1],
            relation.rand_columns["e2.sal"].values[shared])

    def test_tail_matches_oracle(self):
        session = _session()
        new, old = _tail_pair(session, SELF_JOIN.format(
            a=6, b=2, extra=" AND e2.sal > e1.sal").replace(
            "MONTECARLO(20)", "MONTECARLO(20) DOMAIN inv >= QUANTILE(0.8)"))
        _assert_identical(new, old)

    def test_mc_matches_oracle(self):
        new, old = _mc_pair(_session(), SELF_JOIN.format(a=7, b=3, extra=""))
        assert new == old


class TestMonteCarlo:
    GROUPED = ("SELECT grp, SUM(val) AS s, COUNT(*) AS n FROM Losses "
               "WHERE CID < {cutoff} AND val > 1.0 GROUP BY grp "
               "WITH RESULTDISTRIBUTION MONTECARLO(30)")

    @given(cutoff=CUTOFFS)
    @example(cutoff=0)
    @example(cutoff=CUSTOMERS)
    @settings(max_examples=8, deadline=None)
    def test_group_by_cutoffs_match_oracle(self, cutoff):
        new, old = _mc_pair(_session(), self.GROUPED.format(cutoff=cutoff))
        assert new == old

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sharded_matches_oracle(self, backend):
        session = _session(n_jobs=2, backend=backend)
        new, old = _mc_pair(session, self.GROUPED.format(cutoff=8))
        assert len(new) == 6
        assert new == old

    def test_join_with_det_predicate_on_random_side(self):
        new, old = _mc_pair(_session(), (
            "SELECT seg, SUM(val) AS s FROM Losses, segments "
            "WHERE CID = CID2 AND CID >= 2 AND seg <> 'c' GROUP BY seg "
            "WITH RESULTDISTRIBUTION MONTECARLO(25)"))
        assert len(new) == 2
        assert new == old


class TestMaterialization:
    @pytest.mark.parametrize("cutoff", [0, 5, CUSTOMERS])
    def test_instantiate_holds_exactly_the_surviving_handles(self, cutoff):
        session = _session()
        compiled = compile_select(parse(_tail_sql(f"CID < {cutoff}")),
                                  session.catalog, tail_mode=True)
        context = ExecutionContext(session.catalog, positions=8,
                                   aligned=False)
        context.delta_tracking = True
        compiled.plan.execute(context)
        instantiate = compiled.plan.children[0]
        assert isinstance(instantiate, Instantiate)
        surviving = seed_handles(label_id_of("Losses"), 0, cutoff)
        assert sorted(context.materialized[instantiate.node_id].positions) \
            == surviving.tolist()
        assert sorted(context.seeds) == surviving.tolist()
        assert context.instantiate_rows_computed == cutoff

    def test_explain_shows_the_filter_below_instantiate(self):
        session = _session()
        compiled = compile_select(parse(_tail_sql("CID < 4")),
                                  session.catalog, tail_mode=True)
        lines = describe_compiled(compiled, tail_mode=True).splitlines()
        assert [line.strip().split("(")[0] for line in lines] == [
            "GibbsLooper", "Project", "Instantiate", "Select", "Seed", "Scan"]
