"""Refuels by Δ-execution over the refuel set's rows.

A refuel re-plans a few seeds (``ts_seed.plan_refuel``).  ``GibbsLooper``
runs the plan under a handle filter over just those seeds' rows, so
``Instantiate`` and everything above it compute the refuel set and
nothing else, and splices the rows into its Gibbs tuples — windows,
positions and candidates — checking the cache/stream invariant on the
touched rows.  A plan whose output cannot be matched to the tuples one
to one — a multi-seed tuple, a row a random predicate or a ``Split``
drops or surfaces — re-runs over every row instead.

* :class:`TestDeltaRefuelEquivalence` holds the looper against the
  full-refuel and scalar-kernel oracles of ``tests/looper_oracles.py``:
  same samples bit for bit, same proposals, acceptances, plan runs and
  refuels.
* :class:`TestRefuelSetCounter`: each Δ refuel makes ``Instantiate``
  see exactly the refuel set's rows.
* :class:`TestSplicedMemory`: window memory stays within a factor of
  the windows, however many refuels; :class:`TestFallbackCounters`: a
  splice that falls back leaves no counts behind.
* :class:`TestSpliceFaultDrill`: a VG that breaks only past the initial
  window fails the query typed, over the SQL surface and over HTTP,
  with nothing half-spliced left behind; :class:`TestBarrierFaultDrill`:
  the same for a refuel the anti-diagonal sweep plans at a barrier.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from looper_oracles import (
    FullRefuelLooper, ScalarKernelLooper, planner_looper)
from stream_oracle import stream_values

from repro.core import gibbs_looper
from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.core.wavefront import Wavefront
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Instantiate, Join, Scan, Select, Split,
    random_table_pipeline)
from repro.engine.options import ExecutionOptions, ServerOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.server import RiskServer
from repro.server.wire import output_to_wire
from repro.sql import Session
from repro.sql.parser import parse
from repro.sql.planner import compile_select
from repro.vg.base import VGFunction, default_registry
from repro.vg.builtin import DISCRETE_CHOICE, NORMAL
from repro.vg.streams import DEFAULT_CHUNK

_SHAPES = ("plain", "where", "self_join", "split", "multi_seed")

_CREATE = """
    CREATE TABLE {name} (CID, val) AS
    FOR EACH CID IN means
    WITH v AS {vg}(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
_TAIL = """
    SELECT SUM(val) AS t FROM {name}
    WITH RESULTDISTRIBUTION MONTECARLO(40)
    DOMAIN t >= QUANTILE(0.99)
"""


def _plan(shape, customers):
    """``(catalog, plan, aggregate over the plan's columns)`` of one
    shape; every shape but ``multi_seed`` has single-seed tuples."""
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(customers),
        "m": np.linspace(0.8, 3.5, customers)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    if shape == "plain":
        return catalog, random_table_pipeline(spec), col("val")
    if shape == "where":  # presence arrays; rows may drop or surface
        return catalog, Select(random_table_pipeline(spec),
                               col("val") > lit(2.0)), col("val")
    if shape in ("self_join", "multi_seed"):
        # One occurrence string: both sides read the same seeds, so every
        # joined row is single-seed.  Two: every row reads two seeds.
        second = "" if shape == "self_join" else "#2"
        plan = Join(random_table_pipeline(spec, prefix="a."),
                    random_table_pipeline(spec, prefix="b.",
                                          occurrence=second),
                    ["a.CID"], ["b.CID"])
        return catalog, plan, col("a.val") - col("b.val") * lit(0.5)
    catalog.add_table(Table("bonus", {"bage": [20.0, 21.0, 22.0],
                                      "amount": [10.0, 100.0, 40.0]}))
    ages = RandomTableSpec(
        name="Ages", parameter_table="means", vg=DISCRETE_CHOICE,
        vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.3), lit(22.0),
                   lit(0.2)),
        random_columns=(RandomColumnSpec("age"),),
        passthrough_columns=("CID",))
    plan = Join(Split(random_table_pipeline(ages), "age"), Scan("bonus"),
                ["age"], ["bage"])
    return catalog, plan, col("amount")


class _Recording:
    """Mixin: count refuels the Δ path spliced, and those it ran the
    plan for but could not splice (a refuel that re-runs every row to
    bound window memory runs nothing here)."""

    spliced = fell_back = 0

    def _refuel_rows(self, plans):
        runs = self._context.node_executions
        done = super()._refuel_rows(plans)
        type(self).spliced += done
        type(self).fell_back += not done and \
            self._context.node_executions > runs
        return done


class _RecordingLooper(_Recording, GibbsLooper):
    pass


def _run(looper, shape, customers, kind, window, base_seed, versions):
    catalog, plan, aggregate = _plan(shape, customers)
    params = TailParams(p=0.3 ** 2, m=2, n_steps=(versions, versions),
                        p_steps=(0.3, 0.3))
    return looper(plan, catalog, params, 12, aggregate_kind=kind,
                  aggregate_expr=None if kind == "count" else aggregate,
                  window=window, base_seed=base_seed).run()


def _fingerprint(result):
    stats = result.total_stats
    return (result.samples.tobytes(), result.quantile_estimate,
            result.assignments, stats.proposals, stats.acceptances,
            stats.stalls)


def _schedule(result):
    """When a run refueled: the same for two loopers that sweep the same
    way, whatever their refuels do."""
    return result.plan_runs, [step.replenish_runs for step in result.trace]


class TestDeltaRefuelEquivalence:
    @given(shape=st.sampled_from(_SHAPES),
           customers=st.integers(3, 8),
           kind=st.sampled_from(["sum", "count", "avg"]),
           window=st.integers(30, 90),
           base_seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_equals_the_oracles(self, shape, customers, kind, window,
                                base_seed):
        args = (shape, customers, kind, window, base_seed, 24)
        _RecordingLooper.spliced = _RecordingLooper.fell_back = 0
        got = _run(_RecordingLooper, *args)
        for oracle in (FullRefuelLooper, ScalarKernelLooper):
            want = _run(oracle, *args)
            assert _fingerprint(want) == _fingerprint(got), oracle.__name__
            if oracle is FullRefuelLooper:
                assert _schedule(want) == _schedule(got)
        refuels = got.plan_runs - 1
        if shape == "multi_seed":
            assert _RecordingLooper.spliced == 0
        elif shape in ("plain", "self_join"):
            assert _RecordingLooper.fell_back == 0  # nothing moves
            assert _RecordingLooper.spliced > 0 or refuels == 0

    @pytest.mark.parametrize("shape", _SHAPES)
    def test_many_refuels(self, shape):
        """A window barely above the population: every shape refuels
        again and again, and the row-local ones splice."""
        args = (shape, 10, "sum", 26, 17, 24)
        _RecordingLooper.spliced = 0
        got = _run(_RecordingLooper, *args)
        assert got.plan_runs > 5
        want = _run(FullRefuelLooper, *args)
        assert _fingerprint(want) == _fingerprint(got)
        assert _schedule(want) == _schedule(got)
        assert (_RecordingLooper.spliced > 0) == (shape != "multi_seed")


class TestRefuelSetCounter:
    def test_instantiate_sees_exactly_the_refuel_set(self, monkeypatch):
        """Every Δ refuel's ``Instantiate`` merges the rows of the seeds
        ``plan_refuel`` re-planned — one row per seed here — and no
        other row; a refuel that re-runs every row to bound window memory
        merges them all."""
        refuels, merged, spliced = [], [], []
        plan_refuel = gibbs_looper.plan_refuel
        merge = Instantiate._merge_delta

        def recording_plan(*args, **kwargs):
            plans = plan_refuel(*args, **kwargs)
            refuels.append(sorted(plans))
            return plans

        def recording_merge(self, context, handles, previous):
            merged.append(sorted(handles.tolist()))
            return merge(self, context, handles, previous)

        class Watched(GibbsLooper):
            def _refuel_rows(self, plans):
                spliced.append(super()._refuel_rows(plans))
                return spliced[-1]

        monkeypatch.setattr(gibbs_looper, "plan_refuel", recording_plan)
        monkeypatch.setattr(Instantiate, "_merge_delta", recording_merge)
        session = Session(base_seed=9, tail_budget=300, window=60)
        session.add_table("means", {"CID": np.arange(30),
                                    "m": np.linspace(1.0, 4.0, 30)})
        session.execute(_CREATE.format(name="Losses", vg="Normal"))
        with planner_looper(Watched):
            result = session.execute(_TAIL.format(name="Losses")).tail
        assert len(refuels) == result.plan_runs - 1 > 3
        every = merged[0]  # the first refuel re-plans every seed
        assert len(every) == 30 and sum(spliced) > 3
        assert merged == [refuel if done else every
                          for refuel, done in zip(refuels, spliced)]
        assert any(len(refuel) < 30 for refuel in refuels)


def _blocks(looper):
    """``(kept, live)``: bytes of the arrays the looper's windows,
    candidates and merge baselines keep alive — each view's outermost
    base, counted once — and bytes of its Gibbs tuples' windows."""
    windows = [field.values for gibbs_tuple in looper._tuples
               for field in gibbs_tuple.rand.values()]
    windows += [field.flags for gibbs_tuple in looper._tuples
                for field in gibbs_tuple.presences]
    runs = windows + looper._candidates.contribution
    runs += looper._candidates.presence_count
    for baseline in looper._context.materialized.values():
        runs += baseline.values.values()
    blocks = {}
    for run in runs:
        while isinstance(run.base, np.ndarray):
            run = run.base
        blocks[id(run)] = run.nbytes
    return sum(blocks.values()), sum(run.nbytes for run in windows)


class TestSplicedMemory:
    @pytest.mark.parametrize("shape", ["plain", "where", "self_join"])
    def test_window_memory_stays_within_a_factor_of_the_windows(
            self, shape, monkeypatch):
        """Refuel ``k`` re-plans every seed but the first ``k``: each
        refuel's arrays stay alive through the one seed the next refuel
        leaves behind.  The looper re-runs every row once the windows
        spliced since its last such run outweigh the live ones, so the
        arrays its windows keep alive stay within a constant factor of
        the windows, however many refuels."""
        ratios = []

        class Driven(GibbsLooper):
            def _perturb_all_seeds(self, cutoff, stats):
                handles = sorted(self._seeds)
                for k in range(len(handles) if not ratios else 0):
                    self._replenish(
                        {handle: self._seeds[handle].replenish_plan(26)
                         for handle in handles[k:]})
                    kept, live = _blocks(self)
                    ratios.append(kept / live)

        catalog, plan, aggregate = _plan(shape, 32)
        params = TailParams(p=0.3, m=1, n_steps=(24,), p_steps=(0.3,))
        Driven(plan, catalog, params, 12, aggregate_kind="avg",
               aggregate_expr=aggregate, window=26, base_seed=5).run()
        # ratios[0]: one run's arrays per window byte.  Left alone, the
        # leftover runs would pile up to ~16 times that.
        assert len(ratios) == 32
        assert max(ratios) < 6 * ratios[0], ratios


class TestFallbackCounters:
    def test_failed_splice_leaves_no_counts(self):
        """A refuel whose Δ rows moved under a random ``WHERE`` re-runs
        over every row, merging into and counting from the baseline the
        attempt found: each row counted once, by the re-run alone."""
        fallbacks = []

        class Pinned(GibbsLooper):
            def _counters(self):
                context = self._context
                return (context.full_runs, context.delta_runs,
                        context.instantiate_rows_computed,
                        context.instantiate_rows_reused,
                        {node: id(baseline) for node, baseline in
                         context.materialized.items()})

            def _refuel_rows(self, plans):
                self.before = self._counters()
                return super()._refuel_rows(plans)

            def _refuel_all(self, plans):
                assert self._counters() == self.before
                full, delta, computed, reused, _ = self.before
                super()._refuel_all(plans)
                after = self._counters()
                fallbacks.append(after[2] - computed)
                assert after[:2] == (full, delta + 1)
                assert after[2] + after[3] == computed + reused + 6

        got = _run(Pinned, "where", 6, "sum", 26, 21, 24)
        assert fallbacks and got.plan_runs > len(fallbacks) + 1
        # The re-run computes the refuel set's rows, and reuses the rest.
        assert all(0 < computed < 6 for computed in fallbacks), fallbacks
        assert _fingerprint(_run(FullRefuelLooper, "where", 6, "sum", 26,
                                 21, 24)) == _fingerprint(got)


#: Chunks of a stream the flaky VG draws well: the initial window (60
#: positions) lies in chunk 0, only a refuel reaches chunk 4.
_GOOD_CHUNKS = 4
assert _GOOD_CHUNKS * DEFAULT_CHUNK > 60


class _FlakyNormal(VGFunction):
    """A user VG whose blocks come out misshapen from chunk 4 on.

    The stream layer hands ``sample_blocks`` its generator seeked to
    the chunk (counter ``chunk << 40``), which is how it tells."""

    name = "FlakyNormal"

    def sample_blocks(self, rng, params, size):
        chunk = int(rng.bit_generator.state["state"]["counter"][0]) >> 40
        blocks = NORMAL.sample_blocks(rng, params, size)
        return blocks if chunk < _GOOD_CHUNKS else blocks[1:]


@pytest.fixture
def flaky_vg(monkeypatch):
    vg = _FlakyNormal()
    monkeypatch.setitem(default_registry._functions, vg.name.lower(), vg)
    return vg


def _drill_session():
    session = Session(base_seed=9, tail_budget=300, window=60)
    session.add_table("means", {"CID": np.arange(12),
                                "m": np.linspace(1.0, 4.0, 12)})
    session.execute(_CREATE.format(name="Losses", vg="Normal"))
    session.execute(_CREATE.format(name="Flaky", vg="FlakyNormal"))
    return session


class TestSpliceFaultDrill:
    def test_query_fails_typed_and_leaves_nothing_behind(self, flaky_vg):
        failed = []

        class Watched(GibbsLooper):
            def run(self):
                failed.append(self)
                return super().run()

        with _drill_session() as session:
            with planner_looper(Watched), pytest.raises(
                    EngineError, match=r"FlakyNormal returned shape"):
                session.execute(_TAIL.format(name="Flaky"))
            looper = failed[0]
            context = looper._context
            assert context.plan_runs >= 1  # it failed in a refuel
            # No half-spliced window: every tuple still views exactly its
            # seed's window, the streams' values at its positions.
            for gibbs_tuple in looper._tuples:
                (field,) = gibbs_tuple.rand.values()
                ts, info = looper._seeds[field.handle], \
                    context.seeds[field.handle]
                np.testing.assert_array_equal(
                    field.values,
                    stream_values(info.prng_seed, NORMAL, info.params,
                                  ts.positions))
            # No chunk memo past the good ones, and no baseline entry for
            # a window the failed fill was reaching into.
            for info in context.seeds.values():
                memo = info._chunk_memo
                assert memo is None or memo[0] < _GOOD_CHUNKS
            for baseline in context.materialized.values():
                for handle, positions in baseline.positions.items():
                    assert positions is looper._seeds[handle].positions
            # No det-cache entry holds anything but its subtree's rows.
            plan = compile_select(parse(_TAIL.format(name="Flaky")),
                                  session.catalog, tail_mode=True).plan
            stack, checked = [plan], 0
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                entry = session.det_cache._entries.get(node.fingerprint())
                if entry is None:
                    continue
                checked += 1
                want = node.execute(ExecutionContext(
                    session.catalog, positions=1, aligned=False))
                assert not entry.relation.rand_columns
                assert entry.relation.det_columns.keys() == \
                    want.det_columns.keys()
                for name, values in want.det_columns.items():
                    np.testing.assert_array_equal(
                        entry.relation.det_columns[name], values)
            assert checked
            # The next tail query of the session is a fresh session's.
            got = session.execute(_TAIL.format(name="Losses")).tail
        with _drill_session() as fresh:
            want = fresh.execute(_TAIL.format(name="Losses")).tail
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.quantile_estimate == want.quantile_estimate
        assert got.assignments == want.assignments

    def test_http_reports_400(self, flaky_vg):
        with RiskServer(options=ExecutionOptions(),
                        server_options=ServerOptions(concurrency=1,
                                                     queue_depth=4)) as live:
            base = live.url
            assert _call(f"{base}/tenants/t", "POST", {
                "base_seed": 9, "tail_budget": 300, "window": 60})[0] == 201
            assert _call(f"{base}/tenants/t/tables", "POST", {
                "name": "means", "columns": {
                    "CID": list(range(12)),
                    "m": np.linspace(1.0, 4.0, 12).tolist()}})[0] == 201
            for name, vg in (("Losses", "Normal"), ("Flaky", "FlakyNormal")):
                assert _query(base, _CREATE.format(name=name, vg=vg))[
                    "status"] == "done"
            record = _query(base, _TAIL.format(name="Flaky"))
            assert record["status"] == "error", record
            assert "FlakyNormal returned shape" in record["error"]
            assert record["error_status"] == 400
            record = _query(base, _TAIL.format(name="Losses"))
            assert record["status"] == "done", record
        with _drill_session() as fresh:
            want = output_to_wire(fresh.execute(_TAIL.format(name="Losses")))
        assert record["result"] == json.loads(json.dumps(want))


class _ArmedNormal(VGFunction):
    """A user VG whose blocks come out misshapen while ``armed``."""

    name = "ArmedNormal"
    armed = False

    def sample_blocks(self, rng, params, size):
        blocks = NORMAL.sample_blocks(rng, params, size)
        return blocks[1:] if _ArmedNormal.armed else blocks


class TestBarrierFaultDrill:
    def test_barrier_refuel_fails_typed_and_leaves_session_usable(
            self, flaky_vg, monkeypatch):
        """The splice drill at the anti-diagonal sweep's refuel barrier:
        a Δ refuel planned there, ahead of need, raises inside its plan
        run.  The query fails with a typed error, and the session's next
        tail query is a fresh session's, bit for bit."""
        vg = _ArmedNormal()
        monkeypatch.setitem(default_registry._functions, vg.name.lower(), vg)
        failed, refuels = [], []
        barrier, refuel = Wavefront._barrier, Wavefront._refuel

        def armed_barrier(self, d):
            _ArmedNormal.armed = True
            try:
                barrier(self, d)
            except EngineError:
                failed.append(d)
                raise
            finally:
                _ArmedNormal.armed = False

        def counted_refuel(self, d, dry=None, **kwargs):
            refuels.append(dry)
            refuel(self, d, dry, **kwargs)

        monkeypatch.setattr(Wavefront, "_barrier", armed_barrier)
        monkeypatch.setattr(Wavefront, "_refuel", counted_refuel)
        with _drill_session() as session:
            session.execute(_CREATE.format(name="Armed", vg="ArmedNormal"))
            with pytest.raises(EngineError,
                               match=r"ArmedNormal returned shape"):
                session.execute(_TAIL.format(name="Armed"))
            # It failed in the last refuel, planned at a barrier.
            assert failed and refuels[-1] is None
            got = session.execute(_TAIL.format(name="Losses")).tail
        with _drill_session() as fresh:
            want = fresh.execute(_TAIL.format(name="Losses")).tail
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.quantile_estimate == want.quantile_estimate
        assert got.assignments == want.assignments


def _call(url, method="GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _query(base, sql, deadline=60.0):
    _, submitted = _call(f"{base}/tenants/t/queries", "POST", {"sql": sql})
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, record = _call(
            f"{base}/queries/{submitted['query_id']}?wait=10")
        if record["status"] not in ("queued", "running"):
            return record
    raise AssertionError(f"query did not settle: {record}")

