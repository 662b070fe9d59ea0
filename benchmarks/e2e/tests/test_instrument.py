"""Self-tests of the benchmark instrument (not part of tier-1):

    python -m pytest benchmarks/e2e/tests -q

They pin the measuring rules — which percentile may be reported, how
self time is computed, that the schedule is a pure function of the seed,
that a moved symbol degrades to ``null`` — and run all six workloads at
toy sizes against the names in ``BENCHMARK.json``.
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(E2E))
sys.path[:0] = [E2E, os.path.join(REPO, "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


class TestPercentileRule:

    def test_median_and_interpolation(self):
        assert measure.percentile([3, 1, 2], 0.5) == 2
        assert measure.percentile([1, 2, 3, 4], 0.5) == 2.5
        assert measure.percentile(range(101), 0.9) == 90

    def test_p90_needs_ten_samples_beyond_it(self):
        assert measure.tail_percentile(list(range(99)), 0.90) is None
        assert measure.tail_percentile(list(range(100)), 0.90) == \
            pytest.approx(89.1)
        # p99 needs a thousand.
        assert measure.tail_percentile(list(range(999)), 0.99) is None
        assert measure.tail_percentile(list(range(1000)), 0.99) is not None


def _span(name, start, end, parent=None, op=0):
    return probes.Span(name, start, end, parent, op)


class TestSelfTime:

    def test_nested_children_are_subtracted_once(self):
        root = _span("op", 0.0, 10.0)
        child = _span("a", 1.0, 6.0, root)
        grandchild = _span("b", 2.0, 4.0, child)
        selfs = probes.self_times([root, child, grandchild])
        assert selfs[id(root)] == pytest.approx(5.0)
        assert selfs[id(child)] == pytest.approx(3.0)
        assert selfs[id(grandchild)] == pytest.approx(2.0)
        # Self times partition the root's duration.
        assert sum(selfs.values()) == pytest.approx(root.seconds)

    def test_overlapping_children_count_their_union(self):
        # Two shards fanned out to other threads overlap in time; a
        # third sticks out past the parent's end and is clipped.
        root = _span("run_job", 0.0, 10.0)
        spans = [root,
                 _span("shard", 1.0, 5.0, root),
                 _span("shard", 3.0, 7.0, root),
                 _span("shard", 9.0, 12.0, root)]
        selfs = probes.self_times(spans)
        assert selfs[id(root)] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_fanned_out_spans_are_adopted_by_the_blocked_caller(self):
        job = _span("backends.run_job", 1.0, 9.0, _span("op", 0.0, 10.0))
        inside = _span("operators.det", 2.0, 8.0, op=None)
        outside = _span("operators.det", 8.5, 9.5, op=None)
        probes.adopt_fanned_out([job.parent, job, inside, outside])
        assert inside.parent is job
        assert outside.parent is None
        assert probes.self_times([job, inside])[id(job)] == \
            pytest.approx(2.0)


class TestSchedule:

    SIZES = workloads.FULL["http"]

    def test_exact_mix_in_every_block(self):
        for block in range(5):
            kinds = [kind for kind, _ in workloads.schedule_block(
                7, 0, block, self.SIZES)]
            assert len(kinds) == 40
            assert (kinds.count("read"), kinds.count("mc"),
                    kinds.count("append")) == (35, 4, 1)

    def test_seed_tenant_and_block_all_matter(self):
        base = workloads.schedule_block(7, 0, 0, self.SIZES)
        assert base == workloads.schedule_block(7, 0, 0, self.SIZES)
        for other in ((8, 0, 0), (7, 1, 0), (7, 0, 1)):
            assert base != workloads.schedule_block(*other, self.SIZES)

    def test_identical_in_another_process(self):
        code = (
            "import sys, json, hashlib; sys.path[:0] = {paths!r}\n"
            "import workloads\n"
            "ops = workloads.schedule_block(7, 1, 3, workloads.FULL['http'])\n"
            "print(hashlib.sha256(json.dumps(ops).encode()).hexdigest())"
        ).format(paths=[E2E, os.path.join(REPO, "src")])
        digests = {
            subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONHASHSEED": seed},
                           timeout=60).stdout
            for seed in ("1", "2")}
        assert len(digests) == 1


class TestMissingSymbol:

    def test_moved_symbol_warns_and_reads_null(self):
        recorder = probes.Recorder()
        table = [
            probes.Probe("sql.parse", "repro.sql.session:parse"),
            probes.Probe("looper.kernel",
                         "repro.core.gibbs_looper:moved_by_the_looper_split"),
            probes.Probe("vg.stream", "repro.no_such_module:thing"),
        ]
        with pytest.warns(UserWarning, match="not found") as caught:
            installed = probes.install(recorder, table)
        try:
            assert len(caught) == 2
            assert installed.missing_spans == {"looper.kernel", "vg.stream"}
            from repro.sql import session
            session.parse("SELECT a FROM t")
            assert [span.name for span in recorder.spans] == ["sql.parse"]
        finally:
            installed.uninstall()
        assert not hasattr(session.parse, "__wrapped__")

        record = workloads.OpRecord("op", 0.0, 1.0, outcome={}, ok=True)
        workload = workloads.TailSerial(1, workloads.SMOKE)
        values = layers.compute(
            [record], recorder.spans, installed.missing_spans, {},
            workload, {}, 0.0, 1.0)
        assert values["looper.kernel_s"] is None
        assert values["vg.stream_s"] is None
        assert values["vg.values_per_s"] is None
        assert values["sql.parse_s"] is not None
        assert values["sql.plan_s"] == 0.0     # probed, just never called

    def test_uninstall_restores_inherited_methods(self):
        from repro.engine import backends
        before = backends.SerialBackend.state_call
        assert "state_call" not in vars(backends.SerialBackend)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            installed = probes.install(probes.Recorder())
        assert backends.SerialBackend.state_call is not before
        installed.uninstall()
        assert backends.SerialBackend.state_call is before
        assert "state_call" not in vars(backends.SerialBackend)


class TestBenchmarkJson:

    def test_per_layer_list_matches_the_layer_table(self):
        assert SPEC["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in layers.LAYERS]
        assert set(layers.SPAN_METRICS) <= {m.name for m in layers.LAYERS}

    def test_workloads_match_the_registry(self):
        assert [w["name"] for w in SPEC["workloads"]] == \
            list(workloads.WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_smoke_all_six_workloads():
    """Toy sizes, traced and untraced: every workload runs, checks its
    outputs, leaks nothing, and emits exactly the names BENCHMARK.json
    promises."""
    from run import contract_line, run_workload, twin_mismatches
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=3, seconds=0.0, trace=trace,
                                  smoke=True)
            assert result["failed"] == 0, result["errors"]
            line = json.loads(contract_line(result, SPEC))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] >= 1
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            assert list(line["metrics"]) == [m["name"] for m in wanted]
            for metric in wanted:
                entry = line["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
            if not trace:
                assert all(line["metrics"][m["name"]]["value"] > 0
                           for m in wanted)
                results[name] = result
            else:
                assert set(result["per_layer"]) == \
                    {m.name for m in layers.LAYERS}
    assert twin_mismatches(results) == []
    assert results["tail_serial"]["fingerprints"]
    json.dumps(results)     # result files must be plain JSON


def _session_members(sid):
    """PIDs (zombies included) whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    text = handle.read()
            except OSError:
                continue
            if int(text[text.rindex(")") + 2:].split()[3]) == sid:
                members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_command_leaves_no_process_behind(trace):
    """A pool workload starts two workers and multiprocessing's resource
    tracker; the moment the command has exited, none of them may be left
    — not even as a zombie nobody waited for."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(E2E, "run.py"), "--workload",
         "mc_pool2", "--seed", "3", "--smoke", "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    out, err = proc.communicate(timeout=120)
    left = _session_members(proc.pid)
    assert proc.returncode == 0, err.decode()
    assert json.loads(out.decode().splitlines()[-1])["correct"]
    assert left == []


def test_stop_process_tree_ends_stragglers_and_the_tracker():
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {E2E!r})\n"
        "import measure\n"
        "from multiprocessing import resource_tracker\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        "assert len(measure.child_pids()) == 2\n"
        "assert len(measure.stop_process_tree()) == 1\n"
        "assert measure.child_pids() == []\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
