"""The anti-diagonal sweep against the scalar kernel, bit for bit.

``GibbsLooper`` sweeps a query whose seeds are each read by one
single-seed Gibbs tuple by anti-diagonals (:mod:`repro.core.wavefront`):
every cell of a diagonal gets its verdict in one NumPy pass, misses go to
a scalar finder, and refuels are planned at barriers between diagonals.
``ScalarKernelLooper`` (``tests/looper_oracles.py``) sweeps seed-major,
one version and one candidate batch at a time, and refuels only when a
seed runs dry.  Their refuels fall at different moments, so only the
schedule (``plan_runs``) may differ: samples, assignments, quantile
estimates and every step's proposals, acceptances and stalls must be
equal by bits.

The property draws small catalogs with SUM, COUNT and AVG, ``k`` of 1 to
3 sweeps per step, single-seed presence (a random ``WHERE``) or a final
predicate, windows down to the version count (so refuels land
mid-diagonal), small proposal budgets (stalls), and values that include
-0.0 and +0.0 and totals that tie the cutoff (a discrete VG).  It runs
100 derandomized examples in the suite; ``WAVEFRONT_PROFILE=stress``
runs a large random sample::

    WAVEFRONT_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
        tests/test_wavefront_equivalence.py
"""

import os
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from looper_oracles import ScalarKernelLooper

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.core.wavefront import Wavefront
from repro.engine.expressions import col, lit
from repro.engine.operators import Select, random_table_pipeline
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import DISCRETE_CHOICE, NORMAL

PROFILES = {
    "default": settings(max_examples=100, deadline=None, derandomize=True),
    "stress": settings(max_examples=2_000, deadline=None),
}
PROFILE = PROFILES[os.environ.get("WAVEFRONT_PROFILE", "default")]

#: Means and thresholds where exact arithmetic matters: signed zeros,
#: and values the discrete VG draws, so totals tie the cutoff — some not
#: dyadic, so that a sum rounds, and rounds differently re-associated.
_EDGES = [-0.0, 0.0, 0.1, 0.3, 1.0, 2.0]


@st.composite
def cases(draw):
    versions = draw(st.integers(2, 12))
    customers = draw(st.integers(1, 6))
    return {
        "means": draw(st.lists(st.sampled_from(_EDGES), min_size=customers,
                               max_size=customers)),
        "discrete": draw(st.booleans()),
        "kind": draw(st.sampled_from(["sum", "count", "avg"])),
        "predicate": draw(st.sampled_from(["none", "where", "final"])),
        "threshold": draw(st.sampled_from(_EDGES)),
        "steps": draw(st.integers(1, 3)),
        "k": draw(st.integers(1, 3)),
        "versions": versions,
        "samples": draw(st.integers(1, versions)),
        "window": versions + draw(st.sampled_from([0, 1, 3, 10, 40])),
        "max_proposals": draw(st.sampled_from([1, 2, 5, 100_000])),
        "base_seed": draw(st.integers(0, 2 ** 16)),
    }


def _run(looper, case):
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(len(case["means"])),
        "m": np.array(case["means"])}))
    if case["discrete"]:
        vg, params = DISCRETE_CHOICE, (
            lit(-0.0), lit(1.0), lit(0.0), lit(1.0), lit(0.1), lit(1.0),
            col("m"), lit(1.0), lit(0.7), lit(1.0))
    else:
        vg, params = NORMAL, (col("m"), lit(1.0))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=vg, vg_params=params,
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    plan = random_table_pipeline(spec)
    threshold = lit(case["threshold"])
    if case["predicate"] == "where":
        plan = Select(plan, col("val") > threshold)
    steps, versions = case["steps"], case["versions"]
    return looper(
        plan, catalog,
        TailParams(p=0.3 ** steps, m=steps, n_steps=(versions,) * steps,
                   p_steps=(0.3,) * steps),
        case["samples"], aggregate_kind=case["kind"],
        aggregate_expr=None if case["kind"] == "count" else col("val"),
        final_predicate=(col("val") >= threshold
                         if case["predicate"] == "final" else None),
        k=case["k"], window=case["window"],
        base_seed=case["base_seed"],
        max_proposals=case["max_proposals"]).run()


def _bits(result):
    return (result.samples.tobytes(),
            np.float64(result.quantile_estimate).tobytes(),
            result.assignments,
            [(step.stats.proposals, step.stats.acceptances,
              step.stats.stalls) for step in result.trace])


class TestWavefrontEqualsScalarKernel:
    @PROFILE
    @given(case=cases())
    # The anti-diagonal sweep refuels at its first barrier, the scalar
    # kernel after one proposal; the seed's one tuple is present only at
    # a consumed position, which a refuel must keep or drop the tuple.
    @example(case={
        "means": [-0.0], "discrete": True, "kind": "sum",
        "predicate": "where", "threshold": 0.1, "steps": 1, "k": 1,
        "versions": 5, "samples": 2, "window": 6, "max_proposals": 1,
        "base_seed": 3596})
    def test_same_bits(self, case):
        sweeps = []
        run = Wavefront.run

        def counted(self):
            sweeps.append(self)
            return run(self)

        with mock.patch.object(Wavefront, "run", counted):
            got = _run(GibbsLooper, case)
        assert sweeps or got.num_tuples == 0  # it swept by diagonals
        assert _bits(got) == _bits(_run(ScalarKernelLooper, case))


class _LeavesMidSweep(GibbsLooper):
    """Runs every refuel over every row, and after the first one no
    longer counts as a query for anti-diagonals: the sweep under way
    leaves them there and finishes seed-major."""

    def _refuel_rows(self, plans):
        return False

    def _wavefront_ready(self):
        return not self._replenish_runs and super()._wavefront_ready()


class TestLeavingTheWavefront:
    def test_a_sweep_left_mid_way_resumes_seed_major(self):
        """Each seed resumes at the version, and with the proposals, the
        anti-diagonals left it at: the same bits as the scalar kernel."""
        left = []
        run = Wavefront.run

        def watched(self):
            progress = run(self)
            left.append(progress)
            return progress

        for kind, max_proposals in (("sum", 100_000), ("avg", 2),
                                    ("count", 5)):
            case = {"means": [0.1, 1.0, 2.0, 0.3], "discrete": False,
                    "kind": kind, "predicate": "final", "threshold": 0.3,
                    "steps": 2, "k": 2, "versions": 12, "samples": 6,
                    "window": 20, "max_proposals": max_proposals,
                    "base_seed": 7}
            left.clear()
            with mock.patch.object(Wavefront, "run", watched):
                got = _run(_LeavesMidSweep, case)
            # The first sweep left the anti-diagonals with seeds part-way.
            assert left and left[0] is not None
            assert {version for version, _ in left[0].values()} - {
                0, case["versions"]}
            assert _bits(got) == _bits(_run(ScalarKernelLooper, case)), kind
