"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  Set-up (inputs from the seed, warm-up) is repeated and timed;
then the workload's op runs until ``--seconds`` have passed (at least
once; a started op always finishes); then every op's outputs are
checked.  Times are speed-adjusted (perfbench/speed.py).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` additionally runs one
op with every layer wrapped and reports the per-layer metrics, writing
the spans to ``.perfbench-out/``.  Metric definitions: perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
# one process, one thread: numerical libraries read these at import
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(workload, index, tracer=None, probe=None):
    """One op; an exception becomes a failed op, not a crashed run."""
    from perfbench import tracing, workloads

    start = time.perf_counter()
    try:
        if tracer is not None:
            result = tracer.span(tracing.ROOT_SPAN, workload.op, index)
        else:
            result = workload.op(index)
    except Exception as exc:
        traceback.print_exc()
        result = workloads.OpResult([(start, time.perf_counter())], 0,
                                    error=f"{type(exc).__name__}: {exc}")
    result.start, result.end = start, time.perf_counter()
    if probe is not None:
        probe.sample()
    return result


def timed_loop(workload, seconds, probe):
    """Ops until ``seconds`` have passed; returns them and the loop's bounds."""
    results = []
    probe.sample()
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_op(workload, len(results), probe=probe))
    return results, start, time.perf_counter()


def end_to_end(setup_s, results, loop_s, step_s):
    """End-to-end metrics from speed-adjusted times (see perfbench/speed.py)."""
    return {
        "setup_s": setup_s,
        "step_s_p50": statistics.median(step_s),
        "items_per_s": sum(r.items for r in results) / loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, tracer, extra):
    """Resolve each declared per-layer name from the spans and counts."""
    from perfbench import tracing

    summary = tracing.summarize(tracer.spans)
    layer_self = tracing.layer_self_times(tracer.spans)
    span_names = tracing.span_names()
    values = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif name in tracing.COUNT_NAMES:
            values[name] = tracer.counts.get(name, 0)
        elif kind == "self_s" and base in layer_self:
            values[name] = layer_self[base]
        elif kind in ("calls", "s", "self_s") and base in span_names:
            values[name] = summary[base][kind] if base in summary else 0
        else:
            raise KeyError(f"per-layer metric {name!r} names no span or count")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    declared_path = ROOT / "BENCHMARK.json"
    if not (src / "mprl" / "__init__.py").is_file() or not declared_path.is_file():
        print(f"error: {ROOT} holds no src/mprl package or no BENCHMARK.json; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MPRL_VERBOSE"] = "0"
    sys.path[:0] = [str(src), str(ROOT)]
    import mprl
    from perfbench import speed, tracing, workloads

    if Path(mprl.__file__).resolve().parent != (src / "mprl").resolve():
        print(f"error: imported mprl from {mprl.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    import_s = time.perf_counter() - _START

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        probe = speed.SpeedProbe()
        with contextlib.ExitStack() as hooks:
            for owner, attr in workload.probe_targets():
                hooks.enter_context(
                    tracing.patched(owner, attr, probe.hook(getattr(owner, attr))))
            reps = []
            for _ in range(SETUP_REPEATS):
                probe.sample()
                start = time.perf_counter()
                workload.setup()
                reps.append((start, time.perf_counter()))
                probe.sample()
            setup_slowdown = probe.slowdown(reps[0][0], reps[-1][1])
            setup_s = (import_s / setup_slowdown
                       + statistics.median(probe.adjusted(a, b) for a, b in reps))
            results, loop_start, loop_end = timed_loop(workload, args.seconds, probe)

        loop_slowdown = probe.slowdown(loop_start, loop_end)
        loop_s = probe.adjusted(loop_start, loop_end, loop_slowdown)
        # a step with no sample inside reads the loop's slowdown: the two
        # samples around it alone are too few
        step_s = [probe.adjusted(a, b, None if probe.sampled_inside(a, b) else loop_slowdown)
                  for r in results for a, b in r.steps]
        checked = workload.check(results)
        values = end_to_end(setup_s, results, loop_s, step_s)
        raw_steps = [b - a for r in results for a, b in r.steps]
        print(f"{args.workload} seed {args.seed}: {len(results)} op(s), {len(step_s)} steps, "
              f"{sum(r.items for r in results)} items; step_s_p50 over n={len(step_s)} "
              f"steps; set-up median of {SETUP_REPEATS}")
        print(f"raw seconds: timed loop {loop_end - loop_start:.3f}, step median "
              f"{statistics.median(raw_steps):.3f}; slowdown against the reference "
              f"speed: set-up {setup_slowdown:.3f}, timed loop {loop_slowdown:.3f} "
              f"({len(probe.samples)} samples)")

        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                start = time.perf_counter()
                traced = run_op(workload, 0, tracer)
                traced_s = time.perf_counter() - start
            traced_check = workload.check([traced])
            checked.attempted += traced_check.attempted
            checked.failed += traced_check.failed
            checked.problems += traced_check.problems
            rank1, mean_ap = workload.quality(results)
            self_total = sum(tracing.layer_self_times(tracer.spans).values())
            extra = {
                "trace.wall_s": traced_s,
                "trace.untraced_s": statistics.median(
                    r.end - r.start - probe.probe_time(r.start, r.end) for r in results),
                "trace.accounted_s": self_total,
                "trace.spans": len(tracer.spans),
                "retrieval.rank1_mean": rank1,
                "retrieval.map_mean": mean_ap,
            }
            extra["trace.overhead_s"] = traced_s - extra["trace.untraced_s"]
            values = per_layer([m["name"] for m in wanted], tracer, extra)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"
            tracing.write_spans(tracer.spans, trace_path)
            computed = ", ".join(f"{n}={values[n]}" for n in sorted(tracing.COUNT_NAMES)
                                 if n in values)
            print(f"computed counts (exact for a seed, not timings): {computed}")
            print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in checked.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
