"""Standing-query refresh: delta cost, wall-clock, and bit-identity gates.

``Session.standing_query`` registers a risk query once and keeps its
estimate fresh as the catalog grows: after an append-only
``Session.append``, ``refresh()`` classifies the move
(:func:`~repro.engine.det_cache.classify_moves`), runs the plan over the
appended rows only, and folds that delta into the strict-order Monte
Carlo accumulators (a tail query keeps its result when no appended row
reaches an ``Instantiate``, and otherwise re-enters the Gibbs looper).
The whole point is captured by three gates:

* **recomputed tuples**: across an append-heavy loop, the standing
  refresh path must instantiate >= 3x fewer tuple streams than
  re-executing the query from scratch after every append;
* **wall clock**: the refresh loop must run >= 2x faster than the
  re-execute loop (best of interleaved ``REPS``; both legs see the
  exact same append schedule on identical catalogs);
* **bit-identity**: on every backend leg, the refreshed MC and deep-tail
  results must be bit-identical to a fresh session executing the same
  statements on the grown table — streams are pure functions of
  ``(base_seed, handle, position)``, so incrementality is purely an
  execution-cost optimization.

Run:  python benchmarks/bench_standing.py [--json out.json]
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.experiments import (
    format_table, print_experiment, record_metric, run_benchmark_cli, timed)
from repro.sql import Session

ROWS = 2_000
APPEND_ROWS = 10
ROUNDS = 4
REPS = 3
BASE_SEED = 11

CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
MC_QUERY = """
    SELECT SUM(val) AS loss FROM Losses
    WITH RESULTDISTRIBUTION MONTECARLO(24)
"""
TAIL_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
    WITH RESULTDISTRIBUTION MONTECARLO(24)
    DOMAIN loss >= QUANTILE(0.9)
"""


def _means(rows, start=0):
    """Deterministic means columns — both legs must see identical data."""
    cid = np.arange(start, start + rows)
    return {"CID": cid, "m": 1.0 + (cid % 50) / 25.0}


def _loaded_session(rows, **session_kwargs):
    session = Session(base_seed=BASE_SEED, **session_kwargs)
    session.add_table("means", _means(rows))
    session.execute(CREATE)
    return session


def _standing_loop(session, handle):
    """Append ROUNDS deltas, refreshing the standing handle after each."""
    computed = []
    for round_index in range(ROUNDS):
        session.append("means", _means(
            APPEND_ROWS, start=ROWS + round_index * APPEND_ROWS))
        handle.refresh()
        computed.append(handle.last_rows_computed)
    return computed


def _reexecute_loop(session):
    """The baseline: same appends, full ``execute`` after each."""
    output = None
    for round_index in range(ROUNDS):
        session.append("means", _means(
            APPEND_ROWS, start=ROWS + round_index * APPEND_ROWS))
        output = session.execute(MC_QUERY)
    return output


def test_standing_refresh_beats_reexecute():
    best = {"standing": np.inf, "reexecute": np.inf}
    delta_computed = []
    final_samples = {}
    # Interleaved reps: host background-load drift hits both legs alike
    # instead of biasing whichever ran first.
    for _ in range(REPS):
        with _loaded_session(ROWS) as session:
            handle = session.standing_query(MC_QUERY)
            computed, seconds = timed(_standing_loop, session, handle)
            best["standing"] = min(best["standing"], seconds)
            delta_computed = computed
            final_samples["standing"] = np.asarray(
                handle.result.distributions.distribution("loss").samples)
            assert handle.stats()["last_mode"] == "delta", handle.stats()
        with _loaded_session(ROWS) as session:
            session.execute(MC_QUERY)  # warm the det cache like the handle
            output, seconds = timed(_reexecute_loop, session)
            best["reexecute"] = min(best["reexecute"], seconds)
            final_samples["reexecute"] = np.asarray(
                output.distributions.distribution("loss").samples)

    # Same appends, same seeds: incrementality may not change the math.
    np.testing.assert_array_equal(
        final_samples["standing"], final_samples["reexecute"],
        err_msg="standing refresh diverged from full re-execution")

    # A fresh handle on the grown catalog instantiates every tuple — the
    # per-round cost the baseline pays on each of its full executions.
    with _loaded_session(ROWS + ROUNDS * APPEND_ROWS) as session:
        full_rows = session.standing_query(MC_QUERY).last_rows_computed
    assert full_rows == ROWS + ROUNDS * APPEND_ROWS, full_rows
    reexecuted = sum(ROWS + (r + 1) * APPEND_ROWS for r in range(ROUNDS))
    reduction = reexecuted / sum(delta_computed)
    speedup = best["reexecute"] / best["standing"]

    body = format_table(
        ["leg", "append loop s", "tuples instantiated"],
        [["standing refresh", f"{best['standing']:.3f}",
          sum(delta_computed)],
         ["re-execute", f"{best['reexecute']:.3f}", reexecuted]])
    body += (f"\n\nrecomputed-tuple reduction: {reduction:.1f}x "
             f"(gate: >= 3x)"
             f"\nrefresh wall-clock speedup: {speedup:.2f}x (gate: >= 2x)")
    print_experiment(
        f"Standing-query refresh vs re-execute "
        f"({ROWS:,}-row VG table, {ROUNDS} append rounds)", body)

    record_metric("bench_standing", "recompute_reduction",
                  round(reduction, 2), gate=">= 3x")
    record_metric("bench_standing", "refresh_wallclock_speedup",
                  round(speedup, 3), gate=">= 2x")

    assert reduction >= 3.0, (
        f"standing refresh only cut instantiated tuples {reduction:.1f}x "
        f"vs re-execution; need >= 3x")
    assert speedup >= 2.0, (
        f"standing refresh loop only ran {speedup:.2f}x faster than the "
        f"re-execute loop; need >= 2x")


SMALL_ROWS = 15
SMALL_APPEND = {"CID": [15, 16], "m": [3.2, 3.4]}


def _matrix_leg(backend):
    """Standing MC + tail handles through an append, on one backend."""
    n_jobs = 2 if backend != "serial" else 1
    session = Session(
        base_seed=BASE_SEED, tail_budget=200, window=150,
        options=ExecutionOptions(backend=backend, n_jobs=n_jobs))
    try:
        session.add_table("means", {
            "CID": np.arange(SMALL_ROWS),
            "m": np.linspace(1.0, 3.0, SMALL_ROWS)})
        session.execute(CREATE)
        mc = session.standing_query(MC_QUERY)
        tail = session.standing_query(TAIL_QUERY)
        session.append("means", SMALL_APPEND)
        mc.refresh()
        tail.refresh()
        modes = (mc.last_mode, tail.last_mode)
    finally:
        session.close()
    return (np.asarray(mc.result.distributions.distribution("loss").samples),
            np.asarray(tail.result.tail.samples),
            tail.result.tail.plan_runs), modes


def _fresh_reference():
    """What a fresh serial session says about the already-grown table."""
    with Session(base_seed=BASE_SEED, tail_budget=200, window=150) as session:
        session.add_table("means", {
            "CID": np.concatenate([np.arange(SMALL_ROWS),
                                   np.asarray(SMALL_APPEND["CID"])]),
            "m": np.concatenate([np.linspace(1.0, 3.0, SMALL_ROWS),
                                 np.asarray(SMALL_APPEND["m"])])})
        session.execute(CREATE)
        mc = session.execute(MC_QUERY)
        tail = session.execute(TAIL_QUERY)
    return (np.asarray(mc.distributions.distribution("loss").samples),
            np.asarray(tail.tail.samples), tail.tail.plan_runs)


def test_standing_matrix_is_bit_identical():
    reference = _fresh_reference()
    legs = ("serial", "process")
    identical = 0
    rows = []
    for backend in legs:
        samples, modes = _matrix_leg(backend)
        label = f"backend={backend}"
        for got, want in zip(samples[:2], reference[:2]):
            np.testing.assert_array_equal(got, want, err_msg=label)
        assert samples[2] == reference[2], (
            f"{label}: refreshed tail plan_runs {samples[2]} != "
            f"fresh-run {reference[2]}")
        # Growth was append-only and both plans are prefix-stable, so
        # every leg must take the incremental path, not a full rerun.
        assert modes == ("delta", "delta"), f"{label}: modes={modes}"
        identical += 1
        rows.append([backend, *modes, "=="])

    print_experiment(
        "Standing refresh bit-identity vs fresh session (grown table)",
        format_table(["backend", "mc mode", "tail mode", "vs fresh"], rows))
    record_metric("bench_standing", "bit_identical_legs", identical,
                  gate=f"== {len(legs)}")
    assert identical == len(legs)


if __name__ == "__main__":
    run_benchmark_cli([test_standing_refresh_beats_reexecute,
                       test_standing_matrix_is_bit_identical])
