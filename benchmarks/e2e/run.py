"""End-to-end + per-layer benchmark of the MCDB-R reproduction.

    python benchmarks/e2e/run.py                    # all six workloads
    python benchmarks/e2e/run.py --trace            # ... plus a traced pass
    python benchmarks/e2e/run.py --workload tail_serial --seed 7 --trace 1
    python benchmarks/e2e/run.py --repeat-check     # does it repeat?
    python benchmarks/e2e/run.py --smoke            # toy sizes, seconds
    python benchmarks/e2e/run.py --write-readme     # README from baseline

Metric names, units and the bound by which each end-to-end metric may
worsen are read from ``BENCHMARK.json`` at the repository root; see the
README beside this file for what the workloads are and why.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs in a fresh subprocess and the report
prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "results", "baseline.json")


def _load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload, this process -----------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Set up, time, tear down and verify one workload; return its result."""
    import layers
    import measure
    import probes
    import workloads

    sizes = workloads.SMOKE if smoke else workloads.FULL
    workload = workloads.WORKLOADS[name](seed, sizes)
    meta = measure.provenance(REPO, seed, workload.options_used())
    recorder = installed = None
    baseline: list = []
    setups = []
    live = False
    try:
        # Set-up runs several times and reports the median, so work a
        # later change moves into set-up shows without one slow spawn
        # deciding the number.
        for _ in range(sizes["setup_repeats"]):
            if live:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            live = True
            setups.append(time.perf_counter() - started)
        if trace:
            # Untraced rounds first: the base of trace.overhead_ratio,
            # taken in this very process; their time comes out of --seconds.
            started = time.perf_counter()
            baseline = workload.run_timed(0.25 * seconds)
            seconds = max(0.0, seconds - (time.perf_counter() - started))
            recorder = probes.Recorder()
            installed = probes.install(recorder)
        counters_before = workload.counters()
        own_before, children_before = measure.tree_cpu_seconds()
        started = time.perf_counter()
        try:
            records = workload.run_timed(seconds, recorder)
        finally:
            if installed is not None:
                installed.uninstall()
        wall = time.perf_counter() - started
        own_after, children_after = measure.tree_cpu_seconds()
        counters_after = workload.counters()
        own_rss = measure.peak_rss_mb()
    finally:
        if live:
            workload.teardown()
    # Workers are reaped now: their peak RSS is readable, and nothing of
    # the workload may be left behind.
    rss = max(own_rss, measure.peak_rss_mb(resource.RUSAGE_CHILDREN))
    leaks = measure.hygiene_failures()
    if leaks:
        raise SystemExit(f"{name}: " + "; ".join(leaks))
    extras = workload.verify(baseline + records)

    attempted = len(records)
    failed = sum(1 for record in records if not record.ok)
    failed += sum(1 for record in baseline if not record.ok)
    latencies = [record.seconds for record in records]
    worker_cpu = children_after - children_before
    result = {
        "workload": name,
        "traced": trace,
        "smoke": smoke,
        "provenance": meta,
        "sizes": workload.size,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({record.error for record in baseline + records
                          if record.error})[:5],
        "timed_wall_s": wall,
        "op_s_mean": statistics.fmean(latencies),
        "setup_samples": len(setups),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(latencies),
            "op_s_p90": measure.tail_percentile(latencies, 0.90),
            "ops_per_s": (attempted - failed) / wall,
            "cpu_s_per_op":
                (own_after - own_before + worker_cpu) / attempted,
            "peak_rss_mb": rss,
            "failed_share": failed / attempted,
        },
        "fingerprints": extras.get("fingerprints", {}),
    }
    if "serial_reference_op_s" in extras:
        result["serial_reference_op_s_p50"] = statistics.median(
            extras["serial_reference_op_s"])
    if trace:
        counters = {key: counters_after[key] - counters_before.get(key, 0)
                    for key in counters_after}
        untraced_p50 = statistics.median(r.seconds for r in baseline)
        result["untraced_round_op_s_p50"] = untraced_p50
        result["per_layer"] = layers.compute(
            records, recorder.spans, installed.missing_spans, counters,
            workload, extras, worker_cpu, untraced_p50)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(os.path.join(OUT_DIR, f"trace_{name}.json"))
    return result


def contract_line(result: dict, spec: dict) -> str:
    """The driver's result object.  Its values must be numbers, so a
    per-layer metric that does not apply to this workload (``null`` in
    the result files) reads 0 here."""
    if result["traced"]:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted, values = spec["end_to_end"], result["end_to_end"]
    metrics = {
        metric["name"]: {"value": values.get(metric["name"]) or 0.0,
                         "unit": metric["unit"]}
        for metric in wanted}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics})


# -- all workloads, one subprocess each ---------------------------------------

def run_suite(spec: dict, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    """Run every workload of BENCHMARK.json in a fresh subprocess."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        out = os.path.join(OUT_DIR, f"result_{name}_{int(trace)}.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace)),
                   "--out", out] + (["--smoke"] if smoke else [])
        print(f"[{'traced' if trace else 'untraced'}] {name} ...",
              file=sys.stderr, flush=True)
        proc = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        with open(out) as handle:
            results[name] = json.load(handle)
    return results


def twin_mismatches(results: dict) -> list[str]:
    """Serial/pool2 twins must return the same samples bit for bit."""
    problems = []
    for serial, pool in (("tail_serial", "tail_pool2"),
                         ("mc_serial", "mc_pool2")):
        if serial in results and pool in results and (
                results[serial]["fingerprints"]
                != results[pool]["fingerprints"]):
            problems.append(f"{serial} and {pool} fingerprints differ")
    return problems


def repeat_check(spec: dict, first: dict, second: dict) -> list[str]:
    """Metrics whose two same-code values differ by more than their own
    bound: unresolvable at that bound, listed with both values."""
    unresolved = []
    for name in first:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = first[name]["end_to_end"][key]
            b = second[name]["end_to_end"][key]
            if abs(b - a) > bound * a:
                unresolved.append(
                    f"{name}.{key}: {a:.6g} vs {b:.6g} {metric['unit']} "
                    f"({abs(b - a) / a:+.1%} > bound {bound:.0%})")
    return unresolved


# -- command line -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--write-readme", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print("benchmarks/e2e: no src/repro beside it — nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    import report

    spec = _load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(spec["run_seconds"])

    if args.write_readme:
        with open(BASELINE) as handle:
            baseline = json.load(handle)
        with open(os.path.join(HERE, "README.md"), "w") as handle:
            handle.write(report.readme(spec, baseline))
        return 0

    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        import measure
        # A polite kill unwinds through the finally below, too.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        try:
            result = run_workload(args.workload, args.seed, seconds,
                                  bool(args.trace), args.smoke)
        finally:
            # Every path out stops and waits for what the run started.
            measure.stop_process_tree()
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle, indent=1)
        print(report.workload_text(spec, result))
        print(contract_line(result, spec))
        return 0

    document = {"untraced": run_suite(spec, args.seed, seconds, False,
                                      args.smoke)}
    problems = twin_mismatches(document["untraced"])
    if args.repeat_check:
        document["repeat"] = run_suite(spec, args.seed, seconds, False,
                                       args.smoke)
        unresolved = repeat_check(spec, document["untraced"],
                                  document["repeat"])
        document["unresolved"] = unresolved
        problems += unresolved
    if args.trace:
        document["traced"] = run_suite(spec, args.seed, seconds, True,
                                       args.smoke)
    for run in (document["untraced"], document.get("repeat", {}),
                document.get("traced", {})):
        problems += [f"{name}: {result['failed']} of {result['attempted']} "
                     f"ops failed {result['errors']}"
                     for name, result in run.items() if result["failed"]]
    print(report.suite_text(spec, document))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
