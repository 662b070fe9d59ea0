"""Stress test for the thread-backend refuel race.

``ThreadBackend`` holds worker-owned Gibbs state *by reference*: the pool
threads serving a sweep's scattered first windows read the very window
arrays a mid-sweep replenishment re-points.  ``GibbsLooper._replenish``
must therefore drain every pending scatter reply before the plan re-run
touches them; draining afterwards lets a pool thread read one column of
a tuple at the old window length and the next at the new one (a NumPy
broadcast ``ValueError`` inside ``serve_window``).

The legs are the ones the race was seen on
(``TestDeltaStateReinit::test_reinit_matrix_equals_serial[thread-delta-True]``
and ``TestSpeculationChains::test_chain_matrix_equals_serial
[4-adaptive-thread-delta]`` share these parameters), looped under a
shortened switch interval so the interpreter hands over between the
looper thread and the pool threads as often as it can.
"""

import sys

import numpy as np

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.engine.expressions import col, lit
from repro.engine.operators import random_table_pipeline
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import NORMAL

RUNS = 60


def _run(**options):
    """The replenishment-heavy workload of the equivalence matrix: the
    window barely covers the population, so every sweep crosses refuels
    while later shards' first windows are still being served."""
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(12), "m": np.linspace(0.8, 3.5, 12)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    params = TailParams(p=0.3 ** 2, m=2, n_steps=(30, 30),
                        p_steps=(0.3, 0.3))
    return GibbsLooper(
        random_table_pipeline(spec), catalog, params, 15,
        aggregate_kind="sum", aggregate_expr=col("val"), window=60,
        base_seed=9, options=ExecutionOptions(**options)).run()


def test_thread_delta_refuels_survive_fast_switching():
    serial = _run(n_jobs=1)
    assert serial.plan_runs > 1  # the scenario must replenish
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(RUNS):
            threaded = _run(n_jobs=2, backend="thread", gibbs_state="worker",
                            state_reinit="delta", speculate_followups=True,
                            speculate_depth=4, sweep_order="adaptive")
            np.testing.assert_array_equal(threaded.samples, serial.samples)
            assert threaded.assignments == serial.assignments
            assert threaded.worker_state_merges == threaded.plan_runs - 1
    finally:
        sys.setswitchinterval(interval)
