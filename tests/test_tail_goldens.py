"""Tail-sampling goldens: bit-identity of the GibbsLooper across refactors.

``tests/data/tail_goldens.npz`` holds what the tail path returned for a
handful of queries *before* seed-axis distributed Gibbs was deleted
(commit 4ed01eb): the ``LooperResult`` samples, the per-version
(handle -> stream position) assignments as a matrix, the quantile
estimate, the plan-run count and the per-step (proposals, acceptances,
stalls).  The sweep is Gauss–Seidel over TS-seeds with one consumption
pointer per seed, so every one of those numbers is a deterministic
function of the session seed — any later change to the looper, the
replenishment path or the plan operators must reproduce every byte.

The queries cover the ``tail_*`` portfolio shape, refuel-heavy looper
runs (SUM, COUNT and AVG, one to three bootstrap steps, multi-sweep,
proposal-budget stalls, a grown window), a join on a random attribute,
the multi-seed salary inversion, a presence predicate and a standing
refresh after an append.  (``refuel_growth`` was stored from a window
that doubled at each refuel, 45 -> 90 -> 180; a fixed window of 180
refuels as often and reproduces it.)  Runs that differ from a stored query only in an execution knob
— sharded ``n_jobs`` on the thread, process and serial backends, cache
tiers — or that run on an oracle of
``tests/looper_oracles.py`` (``*_reference``: the scalar kernel;
``*_full``: full refuels) have no arrays of their own: they are compared
against the entry named in :data:`STORED_AS`.

Regenerate (only when a change of values is intended and explained)::

    PYTHONPATH=src python tests/test_tail_goldens.py
"""

from pathlib import Path

import numpy as np
import pytest

from looper_oracles import looper_class, planner_looper

from repro import ExecutionOptions
from repro.core.params import TailParams
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    Join, Scan, Select, Split, random_table_pipeline)
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import DISCRETE_CHOICE, NORMAL
from repro.workloads import PortfolioWorkload, SalaryWorkload

GOLDENS = Path(__file__).parent / "data" / "tail_goldens.npz"
BASE_SEED = 2010

#: The ``tail_*`` benchmark shape at toy size: a ``WHERE CID < c`` cutoff
#: over the Sec. 2 portfolio.
PORTFOLIO = PortfolioWorkload(customers=40, seed=5)
PORTFOLIO_SQL = PORTFOLIO.tail_query(0.95, 30, max_cid=37)
#: A single-seed random predicate: Select keeps it in-plan as presence.
PRESENCE_SQL = """
    SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 30 AND val > 2.5
    WITH RESULTDISTRIBUTION MONTECARLO(25)
    DOMAIN totalLoss >= QUANTILE(0.9)
"""
STANDING_SQL = """
    SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 45
    WITH RESULTDISTRIBUTION MONTECARLO(20)
    DOMAIN totalLoss >= QUANTILE(0.9)
"""


def _portfolio(options=None, budget=300, window=300):
    return PORTFOLIO.build_session(
        base_seed=BASE_SEED, tail_budget=budget, window=window,
        options=options or ExecutionOptions())


def _query(sql, engine="vectorized", replenishment="delta",
           **session_kwargs):
    with planner_looper(looper_class(engine, replenishment)), \
            _portfolio(**session_kwargs) as session:
        return session.execute(sql).tail


def _looper(aggregate_kind="sum", predicate=None, m=2, k=1,
            max_proposals=100_000, window=45, engine="vectorized",
            replenishment="delta", **options):
    """A window barely above the version count: every sweep refuels."""
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(10), "m": np.linspace(0.8, 3.5, 10)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    plan = random_table_pipeline(spec)
    if predicate is not None:
        plan = Select(plan, predicate)
    params = TailParams(p=0.3 ** m, m=m, n_steps=(40,) * m,
                        p_steps=(0.3,) * m)
    return looper_class(engine, replenishment)(
        plan, catalog, params, 25, aggregate_kind=aggregate_kind,
        aggregate_expr=None if aggregate_kind == "count" else col("val"),
        window=window, base_seed=5, k=k, max_proposals=max_proposals,
        options=ExecutionOptions(**options)).run()


def _split_join(replenishment="delta"):
    """A join on a random attribute: Split fans each seed out per value."""
    catalog = Catalog()
    catalog.add_table(Table("people", {"pid": np.arange(8)}))
    catalog.add_table(Table("bonus", {
        "bage": [20.0, 21.0], "amount": [10.0, 100.0]}))
    spec = RandomTableSpec(
        name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
        vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
        random_columns=(RandomColumnSpec("age"),),
        passthrough_columns=("pid",))
    plan = Join(Split(random_table_pipeline(spec), "age"),
                Scan("bonus"), ["age"], ["bage"])
    params = TailParams(p=0.2, m=1, n_steps=(50,), p_steps=(0.2,))
    return looper_class(replenishment=replenishment)(
        plan, catalog, params, 25, aggregate_kind="sum",
        aggregate_expr=col("amount"), window=60, base_seed=5).run()


def _salary_inversion(options=None, engine="vectorized"):
    """Fig. 2: a self-join whose ``emp2.sal > emp1.sal`` predicate spans
    two seeds and is pulled up into the looper."""
    workload = SalaryWorkload(employees=14, supervision_edges=18, seed=3)
    with planner_looper(looper_class(engine)), workload.build_session(
            base_seed=BASE_SEED, tail_budget=200, window=300,
            options=options) as session:
        return session.execute(
            workload.inversion_query(samples=20, quantile=0.9)).tail


def _standing_after_append(options=None, replenishment="delta"):
    with planner_looper(looper_class(replenishment=replenishment)), \
            _portfolio(options, budget=200, window=200) as session:
        handle = session.standing_query(STANDING_SQL)
        session.append("means", {"CID": [40, 41, 42],
                                 "m": [4.2, 1.3, 3.3]})
        return handle.refresh().tail


QUERIES = {
    "portfolio": lambda: _query(PORTFOLIO_SQL),
    "portfolio_thread2": lambda: _query(
        PORTFOLIO_SQL, options=ExecutionOptions(n_jobs=2, backend="thread")),
    "portfolio_process2": lambda: _query(
        PORTFOLIO_SQL, options=ExecutionOptions(n_jobs=2, backend="process")),
    "portfolio_process3": lambda: _query(
        PORTFOLIO_SQL, options=ExecutionOptions(n_jobs=3, backend="process")),
    "portfolio_serial2": lambda: _query(
        PORTFOLIO_SQL, options=ExecutionOptions(n_jobs=2, backend="serial")),
    "portfolio_reference": lambda: _query(PORTFOLIO_SQL, engine="reference"),
    "portfolio_full": lambda: _query(PORTFOLIO_SQL, replenishment="full"),
    "portfolio_det_cache_off": lambda: _query(
        PORTFOLIO_SQL, options=ExecutionOptions(det_cache="off")),
    "refuel_delta": lambda: _looper(replenishment="delta"),
    "refuel_full": lambda: _looper(replenishment="full"),
    "refuel_process2": lambda: _looper(n_jobs=2, backend="process"),
    "refuel_thread2": lambda: _looper(n_jobs=2, backend="thread"),
    "refuel_full_process2": lambda: _looper(
        replenishment="full", n_jobs=2, backend="process"),
    "refuel_reference": lambda: _looper(engine="reference"),
    "refuel_growth": lambda: _looper(window=180),
    "refuel_growth_process2": lambda: _looper(
        window=180, n_jobs=2, backend="process"),
    "count_predicate":lambda: _looper("count", col("val") > lit(1.0)),
    "count_predicate_reference": lambda: _looper(
        "count", col("val") > lit(1.0), engine="reference"),
    "avg_predicate": lambda: _looper("avg", col("val") > lit(0.5)),
    "three_steps": lambda: _looper(m=3),
    "three_steps_process2": lambda: _looper(m=3, n_jobs=2,
                                            backend="process"),
    "multi_sweep": lambda: _looper(k=3),
    "multi_sweep_thread2": lambda: _looper(k=3, n_jobs=2, backend="thread"),
    "stalls": lambda: _looper(max_proposals=7),
    "stalls_reference": lambda: _looper(max_proposals=7, engine="reference"),
    "split_join": _split_join,
    "split_join_full": lambda: _split_join(replenishment="full"),
    "salary_inversion": _salary_inversion,
    "salary_inversion_process2": lambda: _salary_inversion(
        ExecutionOptions(n_jobs=2, backend="process")),
    "salary_inversion_reference": lambda: _salary_inversion(
        engine="reference"),
    "presence": lambda: _query(PRESENCE_SQL),
    "presence_process2": lambda: _query(
        PRESENCE_SQL, options=ExecutionOptions(n_jobs=2, backend="process")),
    "presence_reference": lambda: _query(PRESENCE_SQL, engine="reference"),
    "presence_full": lambda: _query(PRESENCE_SQL, replenishment="full"),
    "standing_append": _standing_after_append,
    "standing_append_process2": lambda: _standing_after_append(
        ExecutionOptions(n_jobs=2, backend="process")),
    "standing_append_full": lambda: _standing_after_append(
        replenishment="full"),
}

#: Which stored entry each run is compared against: a run that differs
#: from a stored one only in an execution knob — sharding, transport,
#: cache tier — or in running on a kernel or refuel oracle must reproduce
#: its bytes.  (The window changes ``plan_runs``, so the grown-window
#: runs store their own entry.)
STORED_AS = {
    "portfolio": "portfolio", "portfolio_thread2": "portfolio",
    "portfolio_process2": "portfolio",
    "portfolio_process3": "portfolio", "portfolio_serial2": "portfolio",
    "portfolio_reference": "portfolio", "portfolio_full": "portfolio",
    "portfolio_det_cache_off": "portfolio",
    "refuel_delta": "refuel_delta", "refuel_full": "refuel_delta",
    "refuel_process2": "refuel_delta", "refuel_thread2": "refuel_delta",
    "refuel_full_process2": "refuel_delta",
    "refuel_reference": "refuel_delta",
    "refuel_growth": "refuel_growth",
    "refuel_growth_process2": "refuel_growth",
    "count_predicate": "count_predicate",
    "count_predicate_reference": "count_predicate",
    "avg_predicate": "avg_predicate",
    "three_steps": "three_steps", "three_steps_process2": "three_steps",
    "multi_sweep": "multi_sweep", "multi_sweep_thread2": "multi_sweep",
    "stalls": "stalls", "stalls_reference": "stalls",
    "split_join": "split_join", "split_join_full": "split_join",
    "salary_inversion": "salary_inversion",
    "salary_inversion_process2": "salary_inversion",
    "salary_inversion_reference": "salary_inversion",
    "presence": "presence", "presence_process2": "presence",
    "presence_reference": "presence", "presence_full": "presence",
    "standing_append": "standing_append",
    "standing_append_process2": "standing_append",
    "standing_append_full": "standing_append",
}


def pinned(result) -> dict[str, np.ndarray]:
    """The fields of a ``LooperResult`` the goldens pin, as arrays."""
    handles = np.array(sorted(result.assignments[0]), dtype=np.int64)
    assignments = np.array(
        [[assignment[h] for h in handles.tolist()]
         for assignment in result.assignments], dtype=np.int64)
    steps = np.array(
        [(step.stats.proposals, step.stats.acceptances, step.stats.stalls)
         for step in result.trace], dtype=np.int64)
    return {
        "samples": np.asarray(result.samples, dtype=np.float64),
        "handles": handles,
        "assignments": assignments,
        "quantile": np.array(result.quantile_estimate, dtype=np.float64),
        "plan_runs": np.array(result.plan_runs, dtype=np.int64),
        "steps": steps,
    }


def compute(name: str) -> dict[str, np.ndarray]:
    """``{"<stored name>/<field>": array}`` of one query."""
    stored = STORED_AS[name]
    return {f"{stored}/{field}": array
            for field, array in pinned(QUERIES[name]()).items()}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_tail_result_equals_parent_commit_bytes(name):
    with np.load(GOLDENS) as goldens:
        expected = {key: goldens[key] for key in goldens.files
                    if key.startswith(STORED_AS[name] + "/")}
    actual = compute(name)
    assert sorted(actual) == sorted(expected)
    for key, array in actual.items():
        assert array.dtype == expected[key].dtype, key
        assert array.shape == expected[key].shape, key
        assert array.tobytes() == expected[key].tobytes(), key


def test_refuel_schedule_changes_nothing_but_plan_runs():
    """The window size decides only *when* refuels happen.  The
    consumption pointer resumes across refuels and ``_replenish`` keeps
    the pre-refuel accumulators, so a wider window reproduces every
    ``refuel_delta`` array byte for byte except ``plan_runs``, which must
    fall as the window grows."""
    with np.load(GOLDENS) as goldens:
        expected = {key.split("/")[1]: goldens[key] for key in goldens.files
                    if key.startswith("refuel_delta/")}
    plan_runs = []
    for window in (45, 60, 90, 200):
        actual = pinned(_looper(window=window))
        plan_runs.append(int(actual.pop("plan_runs")))
        assert sorted(actual) == sorted(set(expected) - {"plan_runs"})
        for field, array in actual.items():
            assert array.dtype == expected[field].dtype, (window, field)
            assert array.shape == expected[field].shape, (window, field)
            assert array.tobytes() == expected[field].tobytes(), \
                (window, field)
    assert plan_runs[0] == int(expected["plan_runs"])
    assert all(wide < narrow
               for narrow, wide in zip(plan_runs, plan_runs[1:])), plan_runs


def test_goldens_exercise_what_they_claim():
    """The scenarios are not vacuous: refuels happen (fewer in a grown
    window), the salary plan is multi-seed, the presence predicate drops
    tuples, the standing refresh sees the appended rows, the tight budget
    stalls, and the step and sweep counts are what the names say."""
    with np.load(GOLDENS) as goldens:
        assert sorted({key.split("/")[0] for key in goldens.files}) == \
            sorted(set(STORED_AS.values()))
        assert int(goldens["refuel_delta/plan_runs"]) > 3
        assert 1 < int(goldens["refuel_growth/plan_runs"]) < \
            int(goldens["refuel_delta/plan_runs"])
        assert goldens["portfolio/handles"].size == 37
        assert goldens["standing_append/handles"].size == 43
        assert goldens["presence/samples"].size == 25
        salary_steps = goldens["salary_inversion/steps"]
        assert salary_steps[:, 1].sum() > 0  # acceptances happened
        assert goldens["stalls/steps"][:, 2].sum() > 0
        assert goldens["three_steps/steps"].shape == (3, 3)
        assert goldens["multi_sweep/steps"][:, 0].sum() > \
            goldens["refuel_delta/steps"][:, 0].sum()


if __name__ == "__main__":
    arrays = {}
    for query in sorted(set(STORED_AS.values())):
        arrays.update(compute(query))
    GOLDENS.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDENS, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDENS}")
