"""Text rendering: the per-workload and suite reports printed by
``run.py``, and the README generated from the committed baseline."""

from __future__ import annotations

from layers import LAYERS, SPAN_METRICS

__all__ = ["workload_text", "suite_text", "readme"]


def _fmt(value, unit: str = "") -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        text = f"{value:.4g}" if abs(value) < 1e5 else f"{value:.6g}"
    else:
        text = str(value)
    return f"{text} {unit}".rstrip()


def _end_to_end_rows(spec: dict, result: dict) -> list[tuple]:
    values = result["end_to_end"]
    rows = [("setup_s", values["setup_s"], "s",
             f"median of {result['setup_samples']} set-ups")]
    ops = f"{result['attempted']} timed ops"
    for metric in spec["end_to_end"]:
        if metric["name"] != "setup_s":
            rows.append((metric["name"], values[metric["name"]],
                         metric["unit"], ops))
    rows.insert(2, ("op_s_p90", values["op_s_p90"], "s",
                    ops if values["op_s_p90"] is not None
                    else f"{ops}: needs >= 100"))
    rows.append(("failed_share", values["failed_share"], "ratio",
                 f"{result['failed']} of {result['attempted']} ops"))
    return rows


def share_rows(result: dict) -> list[tuple[str, float, float]]:
    """``(layer metric, self seconds per op, share of op wall-clock)`` for
    every span-fed layer that took time, largest first, with the
    unattributed remainder last."""
    layer = result["per_layer"]
    mean_op = result["op_s_mean"]
    rows = sorted(((name, layer[name], layer[name] / mean_op)
                   for name in SPAN_METRICS if layer.get(name)),
                  key=lambda row: -row[1])
    unattributed = layer["trace.unattributed_share"]
    rows.append(("(unattributed)", unattributed * mean_op, unattributed))
    return rows


def workload_text(spec: dict, result: dict) -> str:
    mode = "traced" if result["traced"] else "untraced"
    lines = [f"== {result['workload']} ({mode}, seed "
             f"{result['provenance']['seed']}) =="]
    for name, value, unit, note in _end_to_end_rows(spec, result):
        lines.append(f"  {name:<14} {_fmt(value, unit):<16} ({note})")
    if result["traced"]:
        lines.append("  -- where an op's wall-clock goes (self time, "
                     "parent process) --")
        for name, seconds, share in share_rows(result):
            lines.append(f"  {name:<28} {seconds:>10.5f} s {share:>7.1%}")
        lines.append("  -- per-layer metrics --")
        units = {metric.name: metric.unit for metric in LAYERS}
        for name, value in result["per_layer"].items():
            lines.append(f"  {name:<34} {_fmt(value, units[name])}")
    if result["errors"]:
        lines.append(f"  errors: {result['errors']}")
    return "\n".join(lines)


def parallel_efficiency(untraced: dict) -> dict[str, float]:
    """``op_s_p50(serial twin) / (2 * op_s_p50(pool2))`` per twin pair."""
    rows = {}
    for serial, pool in (("tail_serial", "tail_pool2"),
                         ("mc_serial", "mc_pool2")):
        if serial in untraced and pool in untraced:
            rows[pool] = (untraced[serial]["end_to_end"]["op_s_p50"]
                          / (2 * untraced[pool]["end_to_end"]["op_s_p50"]))
    return rows


def suite_text(spec: dict, document: dict) -> str:
    parts = [workload_text(spec, result)
             for run in ("untraced", "traced")
             for result in document.get(run, {}).values()]
    for pool, value in parallel_efficiency(document["untraced"]).items():
        parts.append(f"backends.parallel_efficiency @ {pool}: {value:.3f} "
                     "(serial twin's op_s_p50 / (2 x pool2 op_s_p50))")
    if "unresolved" in document:
        parts.append("repeat-check: " + (
            "every end-to-end metric of every workload repeats within "
            "its bound" if not document["unresolved"] else
            "UNRESOLVED at the stated bound:\n  "
            + "\n  ".join(document["unresolved"])))
    return "\n\n".join(parts)


# -- README -------------------------------------------------------------------

_INTRO = """\
# bench_e2e: what a risk query costs, end to end and layer by layer

<!-- Generated by `python benchmarks/e2e/run.py --write-readme` from
results/baseline.json; edit report.py, not this file. -->

MCDB-R's claim is that a tail-quantile risk query is affordable *inside
the database*.  This directory is the instrument that says what it costs
here, in absolute units, and which layer the time goes to.  It drives the
public surface only (`Session`, `ExecutionOptions`, `repro.workloads`,
`RiskServer` over real HTTP), checks every answer, and is the benchmark
`BENCHMARK.json` at the repository root describes.

## Run it

```
python benchmarks/e2e/run.py                  # six workloads, ~2 min, untraced
python benchmarks/e2e/run.py --trace          # + traced pass: per-layer table
python benchmarks/e2e/run.py --repeat-check   # twice; fails if a metric differs by > its bound
python benchmarks/e2e/run.py --workload tail_pool2 --seed 7 --seconds 10 --trace 1
python benchmarks/e2e/run.py --smoke          # toy sizes, all six in seconds
python benchmarks/e2e/run.py --trace --out benchmarks/e2e/results/baseline.json
python benchmarks/e2e/run.py --write-readme   # regenerate this file
python -m pytest benchmarks/e2e/tests -q      # the instrument's self-tests
```

`run.py` puts `src/` on `sys.path` itself.  Each workload runs in a fresh
subprocess; with `--workload` the last output line is the JSON object the
benchmark driver reads.  Spans of a traced run land in
`benchmarks/e2e/out/trace_<workload>.json` (git-ignored).

## How a run is measured

* **Set-up** (data generation, session / pool / server start, table load,
  warm-up ops incl. the cold first op) is repeated {setup_repeats} times per run
  and `setup_s` is the median.
* **Timed phase**: a closed loop — the next op is sent when the previous
  one returned — repeating whole *rounds* of the workload's fixed op list
  until `--seconds` ({run_seconds} s) have passed.  Whole rounds keep the
  statement mix identical however fast the code is.  Load comes from one
  process, at most 2 client threads (`nproc` = 2).
* **Inputs** derive from `--seed`: table contents, appended rows, op
  schedule.  The engine's `base_seed` is fixed ({base_seed}): the Gibbs
  sampler's work is a chaotic function of it (one tail query: ±6.5 %
  across base seeds; one standing tail refresh: ±40 %) but invariant to
  the data seed, so every run does the same work and the counters
  (`looper.proposals`, ...) repeat exactly — across seeds too.
* **Correctness**: every op's output is checked after the clock stops; a
  wrong answer is a failed op.  After `close()` the process must own no
  shm segment and no child process, or the run fails.  On every path
  out, `run.py` then stops multiprocessing's resource tracker (started
  for the shm plane) and waits for it, so nothing outlives the command —
  left alone the tracker exits only after its parent has, as an orphan.
* **Tracing** is a separate run (`--trace`): thin wrappers around each
  layer's public functions, defined in `probes.py`, record spans in
  memory.  Self time = span duration minus what its child spans cover.
  The first quarter of a traced run is untraced and gives
  `trace.overhead_ratio` its base.  Worker processes are not traced: the
  parent sees them as time blocked in `backends.*`.  A probe whose symbol
  has moved reports `null` with a warning, never a failure.

## End-to-end metrics (bounds live in BENCHMARK.json)

| name | unit | definition | may worsen by |
|---|---|---|---|
"""

_E2E_DEFINITIONS = {
    "setup_s": "median over the run's set-ups: data generation + session/"
               "pool/server start + table load + untimed warm-up ops",
    "op_s_p50": "median latency of a timed op (op is defined per workload)",
    "ops_per_s": "correct ops / wall-clock of the timed phase (all clients)",
    "cpu_s_per_op": "user+sys CPU of the whole process tree over the timed "
                    "phase / timed ops",
    "peak_rss_mb": "max `ru_maxrss` of the workload process and its "
                   "(reaped) children",
}

_INTERACTIONS = """\

Also reported, not bounded: `op_s_p90` (only where >= 100 ops ran, i.e.
at least 10 samples beyond it — `http_mixed`; elsewhere `null`) and
`failed_share` (ops that raised, were refused or failed the output check
/ ops attempted; the driver reads it as `failed` / `attempted`, and any
failed op fails the run).

## How the metrics interact (written down before measuring)

* Serial workloads are single-threaded: a faster layer saves at most its
  self-time share of `op_s_p50`.
* On `*_pool2` a reply waits for the slower of two shards, so
  `backends.wait_share` bounds what transport work can buy, and worker
  CPU can rise while wall-clock falls — hence `cpu_s_per_op`.
* On `http_mixed` both clients and the server share two cores and the
  GIL, so `op_s_p90` rises before `ops_per_s` stops rising.
* `looper.replenish_s` is the engine's own timer and *overlaps* the
  `operators.*`/`vg.*`/`backends.*` rows (a replenishment re-runs the
  plan); the `_s` rows of the share tables below do not overlap.
"""


_NOTES = """\

## Where this differs from the issue that asked for it, and why

* **Timed by duration, in whole rounds, not by a fixed op count.**  The
  benchmark driver passes `--seconds`; whole rounds keep the statement
  mix fixed all the same.  The driver's time budget (136 runs in under an
  hour) also forced the sizes below the issue's: 200 customers instead of
  500, 8k x 30k TPC-H rows and 200 repetitions instead of 20k x 100k
  and 500 (also because fresh-page allocation is the noisiest thing this
  VM does), a 2000-row standing table instead of 5000, 100-row `Losses`
  over HTTP instead of 300 (with 60-80 ms MC queries the two clients
  spent 86 % of the time slowing each other's reads under the GIL, and
  `op_s_p50` sat on the slope between the modes: 15-20 % run-to-run).
* **The HTTP mix is 87.5 / 10 / 2.5 % (35 reads, 4 MC, 1 append per
  40-op block), not 70 / 25 / 5.**  The issue chose its shares "so
  `op_s_p50` sits inside the det-read mode"; measured, a read takes ~5 ms
  alone but 15-40 ms while the other client's MC query holds the GIL or
  just after an append (det-cache splice), so at 70/25/5 only a third of
  the ops were in the fast mode, the median fell on the sparse slope
  between the modes and moved 25 % between ten runs.  With the new shares
  over 60 % of the ops are fast reads and the median sits among them.
* **Five bounded end-to-end metrics, not seven.**  The driver needs every
  bounded metric to be a non-zero number on every workload, which
  `failed_share` (always 0) and `op_s_p90` (`null` under 100 ops) cannot
  be.  Both are still measured and printed; `failed_share` reaches the
  driver as `failed`/`attempted`, and the traced run reports
  `server.op_s_p90`.
* **`base_seed` is fixed**, for the reason given above; the issue seeded
  it from `--seed`.
* **Tail statements come as a panel of three** (`WHERE CID < 200 / 199 /
  198`), not one statement: three sampler trajectories per run, and an
  odd count so the median sits inside one statement's repetitions.
* **One HTTP connection per request**, as the repo's own `bench_server`
  does.  On a keep-alive connection every reply of the stdlib handler
  (headers and body in two writes, no `TCP_NODELAY`) waits out a 40 ms
  delayed ACK — `op_s_p50` read 88 ms instead of 4 ms at toy sizes.
  Worth a server-side follow-up; not something to time here.
* **`looper.replenish_s` overlaps** the operator rows instead of
  partitioning with them: it is the engine's own timer, and separating
  the plan re-run from the refuel bookkeeping needs a span inside
  `src/` (the trace spine).
* `BENCHMARK.json` has no field for "which metric a layer metric should
  move"; that column is in `layers.py` and the last table here.

## Seen while building it (not claims, pointers for later issues)

* `tail_pool2` is slower than `tail_serial` and the parent still spends
  as long in the kernel (`looper.kernel_s`) as the serial run does; the
  largest row on both is `looper.other_s`, Python bookkeeping inside
  `GibbsLooper.run`.
* A standing tail refresh costs ~40 ms per replenishment on a 2000-row
  table, and how many it needs is chaotic in `base_seed` (1 to 10).
* Under `backend="thread"` a 10 ms Monte Carlo query takes 19 ms or
  42 ms with nothing else running — two GIL-bound shard threads settle
  into one of two regimes — which is most of `http_mixed`'s `op_s_p90`.
* This sandbox drifts: the same tail query costs 0.80 s or 0.90 s of
  *CPU* ten minutes apart, and for minutes at a time allocation-heavy
  work (the MC workloads) runs 2.5x slower.  Ten runs per workload, one
  seed each, gave run-to-run spreads (quartile distance / median) of
  4-15 % on the timings in quiet periods, which is what the bounds in
  `BENCHMARK.json` are sized for.
"""


def _table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def readme(spec: dict, baseline: dict) -> str:
    from workloads import BASE_SEED, FULL
    untraced, traced = baseline["untraced"], baseline["traced"]
    any_result = next(iter(untraced.values()))
    out = [_INTRO.format(setup_repeats=FULL["setup_repeats"],
                         run_seconds=spec["run_seconds"],
                         base_seed=BASE_SEED)]
    out[0] += "".join(
        f"| `{m['name']}` | {m['unit']} | {_E2E_DEFINITIONS[m['name']]} | "
        f"{m['bound']:.0%} |\n" for m in spec["end_to_end"])
    out.append(_INTERACTIONS)

    out.append("\n## Workloads\n\n")
    out.append(_table(
        ["name", "sizes", "why it exists"],
        [[f"`{w['name']}`",
          ", ".join(f"{k}={v}" for k, v in
                    untraced[w["name"]]["sizes"].items()),
          w["why"]] for w in spec["workloads"]]))

    meta = any_result["provenance"]
    out.append(
        "\n## Committed numbers (results/baseline.json)\n\n"
        f"One untraced and one traced run, measured on a working tree "
        f"whose HEAD was `{meta['git_sha']}`, seed {meta['seed']}, "
        f"{meta['nproc']} cores, Python {meta['python']}, NumPy "
        f"{meta['numpy']}, 1-min load at start "
        f"{meta['loadavg_1min_at_start']:.2f}.  These are this sandbox's "
        "numbers; no number here is compared against a parent commit and "
        "this change claims no gain.\n\n")
    names = [m["name"] for m in spec["end_to_end"]]
    names.insert(2, "op_s_p90")
    out.append(_table(
        ["workload", "timed ops"] + [f"`{n}`" for n in names]
        + ["`failed_share`"],
        [[f"`{w}`", str(r["attempted"])]
         + [_fmt(r["end_to_end"][n]) for n in names]
         + [_fmt(r["end_to_end"]["failed_share"])]
         for w, r in untraced.items()]))
    out.append("\n")
    for pool, value in parallel_efficiency(untraced).items():
        out.append(f"* `backends.parallel_efficiency` @ `{pool}`: "
                   f"**{value:.2f}** (serial twin's `op_s_p50` / (2 x "
                   "`op_s_p50`))\n")

    out.append("\n## Where the time goes\n\nSelf time per op in the parent "
               "process, as a share of the traced run's mean op "
               "wall-clock.  `trace.overhead_ratio` is the traced "
               "`op_s_p50` over that of the run's untraced first quarter.\n")
    for name, result in traced.items():
        layer = result["per_layer"]
        out.append(
            f"\n### `{name}` — {result['attempted']} traced ops, "
            f"`trace.overhead_ratio` {_fmt(layer['trace.overhead_ratio'])}, "
            f"{_fmt(layer['trace.spans_per_op'])} spans/op\n\n")
        out.append(_table(
            ["layer metric", "self s / op", "share of op wall-clock"],
            [[f"`{metric}`" if not metric.startswith("(") else metric,
              f"{seconds:.5f}", f"{share:.1%}"]
             for metric, seconds, share in share_rows(result)]))

    out.append("\n## Per-layer metrics and what each should move\n\n"
               "Values: the traced baseline run, per timed op; `null` = "
               "does not apply to that workload.\n\n")
    out.append(_table(
        ["layer metric", "unit", "should move"]
        + [f"`{w}`" for w in traced],
        [[f"`{m.name}`", m.unit, m.moves]
         + [_fmt(traced[w]["per_layer"].get(m.name)) for w in traced]
         for m in LAYERS]))
    out.append(_NOTES)
    return "".join(out)
