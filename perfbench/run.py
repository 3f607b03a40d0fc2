"""Benchmark of ncmilnor: three seeded workloads and a traced per-layer run.

    python3 perfbench/run.py --workload arrangement --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that has ``src/ncmilnor``.  The build is
compiling that source tree to bytecode.  The workload's inputs are made from
``--seed`` during set-up, under ``.perfbench_work/<workload>/``.

With ``--trace 0`` the op loop runs untraced for ``--seconds`` (and on until
every input has run once) and the end-to-end metrics are reported.  With
``--trace 1`` the workload's cycle of inputs runs alternately untraced and
with timing wrappers installed, for ``--seconds``, and the per-layer metrics
are reported per cycle.  Every op is checked against closed forms either
way.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Metric names
and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median


def machine() -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "ram_mb": round(ram / 2**20)}


def measure(wl, seconds: float) -> tuple[dict, dict]:
    """The untraced closed loop: whole cycles of the workload's inputs, op
    after op, until the time is up.  Whole cycles keep the op mix of a run
    the same however many cycles fit.

    The host this was tuned on changes speed by up to 1.6x every few
    seconds, and the share of fast stretches differs from run to run, while
    every run of half a minute passes through slow ones.  So the median
    latency and the op rate are those of the run's slowest cycle: the
    highest per-cycle median and the lowest per-cycle rate, the rate the run
    sustained throughout.  Each cycle is a few seconds of ops, so that its
    median is not one op's latency.  The tail pools every op of the run.
    """
    from stats import median, tail
    from workloads import peak_rss_mb

    ops: list[tuple[int, float]] = []
    per_cycle: list[tuple[float, float]] = []  # (median ms, ops per second)
    cycle = wl.cycle()
    start = perf_counter()
    deadline = start + seconds
    while not per_cycle or perf_counter() < deadline:
        wl.reset()
        side, cycle_start = wl.numeric_s, perf_counter()
        latencies = [wl.op(i) for i in range(cycle)]
        busy = perf_counter() - cycle_start - (wl.numeric_s - side)
        ops.extend(enumerate(latencies))
        per_cycle.append((median(latencies) * 1e3, cycle / busy))
    wall = perf_counter() - start
    wl.finish()
    pct, tail_ms, beyond = tail([s * 1e3 for _, s in ops])
    metrics = {
        "op_p50_ms": max(ms for ms, _ in per_cycle),
        "op_tail_ms": tail_ms,
        "ops_per_s": min(rate for _, rate in per_cycle),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "op_p50_ms": f"median of the {cycle} ops of the slowest of {len(per_cycle)} cycles; "
                     f"median over cycles {median([ms for ms, _ in per_cycle]):.4g}",
        "op_tail_ms": f"p{pct:.4g}, {beyond} of {len(ops)} ops beyond it",
        "ops_per_s": f"slowest of {len(per_cycle)} cycles; {len(ops)} ops in "
                     f"{wall - wl.numeric_s:.3f} s of op loop",
        "peak_rss_mb": "this process plus its largest child",
        "scaling": json.dumps(wl.scaling(ops), sort_keys=True),
        "cycles": json.dumps([[round(ms, 3), round(rate, 3)] for ms, rate in per_cycle]),
    }
    if wl.numeric_points:
        notes["points_per_s"] = (f"{wl.numeric_points / wl.numeric_s:.1f} 1/s "
                                 f"({wl.numeric_points} points in {wl.numeric_s:.3f} s)")
    return metrics, notes


def trace(wl, seconds: float) -> tuple[dict, dict]:
    """Cycles of the workload's inputs, each run untraced and then traced;
    per-layer figures are per cycle."""
    from stats import loglog_slope
    from tracer import COUNTED_METHODS, SPANNED, SPANNED_METHODS, Tracer
    from workloads import SUBCOMMANDS

    tracer = Tracer()
    cycle = wl.cycle()
    cycles = 0
    untraced_s = traced_s = 0.0
    deadline = perf_counter() + seconds
    while cycles == 0 or perf_counter() < deadline:
        wl.reset()
        start = perf_counter()
        for i in range(cycle):
            wl.trace_op(i)
        untraced_s += perf_counter() - start
        wl.reset()
        wl.tracer = tracer
        tracer.install()
        try:
            start = perf_counter()
            for i in range(cycle):
                tracer.op_id = cycles * cycle + i
                with tracer.span("bench.op"):
                    wl.trace_op(i)
            traced_s += perf_counter() - start
        finally:
            tracer.uninstall()
            wl.tracer = None
        cycles += 1
    wl.finish()
    tracer.write(wl.work / "spans")

    layers = tracer.layers()
    empty = {"calls": 0, "self_s": 0.0, "size": 0.0}
    metrics: dict[str, float] = {}
    spans = [s[2:4] for s in SPANNED] + [s[3:5] for s in SPANNED_METHODS]
    for name, size_metric in spans + [(f"cli.main.{sub}", None) for sub in SUBCOMMANDS]:
        row = layers.get(name, empty)
        metrics[f"{name}.calls"] = row["calls"] / cycles
        metrics[f"{name}.self_ms"] = row["self_s"] * 1e3 / cycles
        metrics[f"{name}.self_us"] = row["self_s"] * 1e6 / row["calls"] if row["calls"] else 0.0
        if size_metric:
            metrics[f"{name}.{size_metric}"] = row["size"] / cycles
    for _, _, _, counter in COUNTED_METHODS:
        metrics[counter] = tracer.counts[counter] / cycles
    metrics["model.validate.calls_per_op"] = metrics["model.validate.calls"] / cycle
    metrics["logspace.unwrap_errors"] = tracer.counts[
        "logspace.recover_multiplicities.raised.UnwrapError"] / cycles
    metrics["blowup.check_invariance.strata_exponent"] = loglog_slope(
        tracer.calls_of("blowup.check_invariance"))
    metrics.update({"logspace.points_per_s": 0.0, "blowup.step_ms.slope": 0.0,
                    "cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                    "cli.exit.0": 0, "cli.exit.1": 0, "cli.exit.2": 0,
                    "cli.exit.traceback": 0, "cli.known_defects.failed": 0})
    metrics.update(wl.layer_metrics())
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.ops"] = cycle
    metrics["trace.spans"] = len(tracer.start) / cycles
    notes = {"trace": f"{cycles} cycles of {cycle} ops; untraced {untraced_s:.3f} s, "
                      f"traced {traced_s:.3f} s; spans in {wl.work / 'spans'}.bin"}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncmilnor" / "__init__.py").is_file():
        print(f"perfbench: no ncmilnor sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(whys)}",
              file=sys.stderr)
        return 2

    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: compiling src failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import ncmilnor.cli  # noqa: F401  (the import cost is part of set-up)
    import_s = perf_counter() - start
    from stats import median
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    setups = []
    for _ in range(SETUPS):
        start = perf_counter()
        wl.setup()
        setups.append(perf_counter() - start)
    setup_s = import_s + median(setups)

    if args.trace:
        values, notes = trace(wl, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, notes = measure(wl, args.seconds)
        values["setup_s"] = setup_s
        notes["setup_s"] = (f"import {import_s:.4f} s + median of {SETUPS} set-ups "
                            f"{[round(s, 4) for s in setups]}")
        wanted = spec["end_to_end"]

    correct = wl.failed == 0 and wl.covered()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"why: {whys[args.workload]}")
    print(f"machine: {json.dumps(machine())}")
    print(f"inputs: {json.dumps(wl.sizes(), sort_keys=True)}")
    for key in ("scaling", "cycles", "trace", "points_per_s"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}{note}")
    probes = wl.probe_results
    known = sum(map(bool, probes.values()))
    print(f"  {'ops_failed_frac':<44} "
          f"{(wl.failed + known) / (wl.attempted + len(probes)):>14.6g} ratio  "
          f"({wl.failed} of {wl.attempted} checked ops and points failed; "
          f"{known} of {len(probes)} known-defect probes failed)")
    for key, problems in probes.items():
        print(f"  known defect {key}: {'; '.join(problems) if problems else 'passes now'}")
    for problem in wl.problems:
        print(f"  FAILED {problem}")
    print(f"digest workload={args.workload} seed={args.seed} sha256={wl.digest()}")
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
