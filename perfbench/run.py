"""Benchmark of toeplitz-bounds: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the run's context and how to read the tail.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
PROBE_REPEATS = 5
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# (metric, unit, span name, per-op figure read from the tracer)
SPAN_METRICS = (
    ("cli.main.self_ms", "ms/op", "cli.main", "self_ms"),
    ("catalog.phi_series.calls", "calls/op", "catalog.phi_series", "calls"),
    ("catalog.phi_series.ms", "ms/op", "catalog.phi_series", "ms"),
    ("catalog.validate.calls", "calls/op", "catalog.validate", "calls"),
    ("bounds.full_report.calls", "calls/op", "bounds.full_report", "calls"),
    ("bounds.full_report.ms", "ms/op", "bounds.full_report", "ms"),
    ("series.compose.calls", "calls/op", "series.compose", "calls"),
    ("series.compose.ms", "ms/op", "series.compose", "ms"),
    ("series.mul.calls", "calls/op", "series.mul", "calls"),
    ("series.mul.ms", "ms/op", "series.mul", "ms"),
    ("extremal.recursion.self_ms", "ms/op", "extremal.recursion", "self_ms"),
    ("extremal.residual.ms", "ms/op", "extremal.residual", "ms"),
    ("oracle.maximize.calls", "calls/op", "oracle.maximize", "calls"),
    ("oracle.maximize.self_ms", "ms/op", "oracle.maximize", "self_ms"),
    ("kernels.eval_batch.calls", "calls/op", "kernels.eval_batch", "calls"),
    ("kernels.eval_batch.ms", "ms/op", "kernels.eval_batch", "ms"),
    ("kernels.polish.calls", "calls/op", "kernels.polish", "calls"),
    ("kernels.polish.ms", "ms/op", "kernels.polish", "ms"),
)


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_loop(wl, seconds: float, tracer=None):
    """Closed loop over the workload's cycle for ``seconds`` of wall time.

    Returns per-op (wall s, cpu s, ok) and the loop's wall seconds without
    the benchmark's own output checks and garbage collections.  Each op
    starts from a collected heap, so a pause for garbage that earlier ops
    or checks left behind does not land on a later op.  A traced loop ends
    on a cycle boundary so that per-op call counts repeat exactly between
    runs.
    """
    records = []
    untimed = 0.0
    n = len(wl.cycle)
    i = 0
    start = perf_counter()
    while perf_counter() - start < seconds or (tracer is not None and i % n):
        op = wl.cycle[i % n]
        i += 1
        t_gc = perf_counter()
        gc.collect()
        untimed += perf_counter() - t_gc
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            with tracer.op() if tracer is not None else nullcontext():
                result = wl.call(op)
            error = None
        except Exception:  # a failing op is counted, the run goes on
            error = traceback.format_exc(limit=-1)
        t1 = perf_counter()
        cpu = cpu_seconds() - cpu0
        ok = error is None and wl.check(op, result)
        if not ok:
            print(f"failed op {getattr(op, 'argv', i - 1)}: {error or 'wrong output'}",
                  file=sys.stderr)
        untimed += perf_counter() - t1
        records.append((t1 - t0, cpu, ok))
    return records, perf_counter() - start - untimed


def warm_up(wl) -> bool:
    """One untimed op; then what it and the import left on the heap is
    frozen, so the per-op collections only scan what later ops make."""
    op = wl.cycle[0]
    try:
        return wl.check(op, wl.call(op))
    except Exception:
        traceback.print_exc()
        return False
    finally:
        gc.collect()
        gc.freeze()


def measure_setup(args) -> float:
    """Median wall time from spawning a fresh worker until it is ready:
    inputs built, package imported (in-process workloads), one warm-up op done."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=workloads.SUBPROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile of sorted per-op times with TAIL_BEYOND ops
    beyond it, and its value."""
    n = len(times)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return 100.0 * (k + 1) / n, times[k]


def end_to_end(wl, args) -> tuple[dict, list[bool], bool, list[str]]:
    setup_s = measure_setup(args)
    wl.prepare()
    warm_ok = warm_up(wl)
    records, loop_wall = timed_loop(wl, args.seconds)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    passed = sum(ok for _, _, ok in records)
    # A failed op ranks above every passing op: it is given the whole loop.
    lat = sorted(w if ok else loop_wall for w, _, ok in records)
    # The tail is taken over CPU time: on a shared host the slowest wall
    # times are the ops a co-tenant held the CPU during, not the slow ones.
    loop_cpu = sum(c for _, c, _ in records)
    pct, tail_s = tail(sorted(c if ok else loop_cpu for _, c, ok in records))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": passed / loop_wall,
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        "op_cpu_ms": 1000.0 * statistics.median(c for _, c, _ in records),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": passed / len(records),
    }
    beyond = round(len(records) * (1 - pct / 100.0))
    notes = [f"op_tail_ms is p{pct:.2f} of CPU time per op over {len(records)} ops "
             f"({beyond} beyond it)"]
    return ({k: (v, E2E_UNITS[k]) for k, v in metrics.items()},
            [ok for _, _, ok in records], warm_ok, notes)


def interpreter_probes(tiny: bool) -> tuple[float, float, int]:
    """interp.start_ms, cli.import_ms and whether importing the CLI loads numpy."""
    code = "import sys, toeplitz_bounds.cli; print(int('numpy' in sys.modules))"
    floor, full, numpy_flag = [], [], 0
    for _ in range(1 if tiny else PROBE_REPEATS):
        for times, args in ((floor, ["-c", "pass"]), (full, ["-c", code])):
            t0 = perf_counter()
            proc = workloads.run_python(ROOT, args)
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"probe {args} failed: {proc.stderr}")
            if args[1] == code:
                numpy_flag = int(proc.stdout)
    start_ms = 1000.0 * statistics.median(floor)
    return start_ms, 1000.0 * statistics.median(full) - start_ms, numpy_flag


def per_layer(wl, args) -> tuple[dict, list[bool], bool, list[str]]:
    start_ms, import_ms, numpy_flag = interpreter_probes(args.tiny)
    wl.in_process = True
    wl.prepare()
    warm_ok = warm_up(wl)
    half = args.seconds / 2.0
    plain, plain_wall = timed_loop(wl, half)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, traced_wall = timed_loop(wl, half, tracer)
    edge_failures = workloads.edge_failures(wl)

    def rate(records, wall):
        return sum(ok for _, _, ok in records) / wall

    metrics = {
        "interp.start_ms": (start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.numpy_on_import": (numpy_flag, "count"),
    }
    for metric, unit, span, what in SPAN_METRICS:
        metrics[metric] = (tracer.per_op(span, what), unit)
    metrics["kernels.eval_batch.points"] = (tracer.points / max(1, tracer.ops), "points/op")
    metrics["oracle.polish_win_ratio"] = (
        tracer.polish_wins / tracer.maximize_calls if tracer.maximize_calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (rate(traced, traced_wall) / rate(plain, plain_wall), "ratio")
    metrics["extremal.edge_failures"] = (edge_failures, "count")
    notes = [
        f"per-op figures are over {tracer.ops} traced ops "
        f"({tracer.ops // len(wl.cycle)} whole cycles of {len(wl.cycle)})",
        f"trace.overhead_ratio is traced over untraced ops_per_s "
        f"({len(traced)} traced, {len(plain)} untraced ops)",
        f"oracle.polish_win_ratio is over {tracer.maximize_calls} maximize calls",
        f"extremal.edge_failures is over {len(workloads.EDGE_PROBES)} probes, "
        "untimed: extremal --class sine --order 200",
    ]
    return metrics, [ok for _, _, ok in plain + traced], warm_ok, notes


def context(args) -> dict:
    ctx = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": None,
    }
    try:
        import numpy

        ctx["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ctx["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        ctx.setdefault("numpy", None)
        ctx.setdefault("openblas", None)
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        ctx["git_sha"] = ref
    return ctx


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two-op cycles and small ops, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/toeplitz_bounds/cli.py", str(workloads.expect.GOLDEN))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a toeplitz-bounds checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    if args.setup_probe:
        wl.prepare()
        warm_up(wl)
        print("ready", flush=True)
        return 0

    metrics, oks, warm_ok, notes = (per_layer if args.trace else end_to_end)(wl, args)
    print(json.dumps({"context": context(args)}))
    for note in notes + ([] if warm_ok else ["the warm-up op failed"]):
        print(f"# {note}")
    print(json.dumps({
        "correct": warm_ok and all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
