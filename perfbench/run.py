"""Run one predspec benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload mc-density --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: predspec is imported from `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, and the spans
are written to `perfbench/out/trace-<workload>.json.gz`.

The command starts child processes of itself, one after another: a few that
only set up (import, make the inputs, one warm-up operation) to time set-up,
and one that sets up, measures for `--seconds` and checks the outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("mc-density", "mc-smooth-acf", "long-series")
SETUP_PROBES = 3  # set-up-only children; with the measuring child, 4 samples
CHILD_TIMEOUT = 170


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# --- child side ---------------------------------------------------------------

def _set_up(args):
    """Import, build the workload, make the first inputs and run one warm-up op."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: E402  (imports predspec)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    fail = workloads.Failures()
    warm = workload.warmup()
    for job in warm:
        job.output = job.call()
    workload.record(warm)
    first = workload.round(0)
    return workloads, workload, fail, first


def _run_jobs(jobs, totals, fail, tracer=None):
    for job in jobs:
        if tracer is not None:
            tracer.job += 1
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            job.output = job.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            totals["failed"] += job.ops
            fail.errors.append(f"round {job.round}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        totals["cpu"] += _cpu_seconds() - c0
        totals["wall"] += t1 - t0
        totals["ops"] += job.ops


def child(args) -> dict:
    workloads, workload, fail, first = _set_up(args)
    ready = time.monotonic()
    if args.role == "probe":
        return {"ready": ready}

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced = [], []  # per-round totals
    r = 0
    while True:
        batch = first if r == 0 else workload.round(r)
        # traced runs alternate untraced and traced rounds, ending on a traced one
        trace_this = tracer is not None and r % 2 == 1
        totals = {"ops": 0, "wall": 0.0, "cpu": 0.0, "failed": 0}
        if trace_this:
            tracer.install()
        try:
            _run_jobs(batch, totals, fail, tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(totals)
        workload.record(batch)
        r += 1
        if time.monotonic() - ready >= args.seconds and (tracer is None or r % 2 == 0):
            break
    peak = _peak_rss_mb()

    workload.check(fail)
    rounds = plain + traced
    result = {
        "ready": ready,
        "attempted": sum(t["ops"] for t in rounds),
        "failed": sum(t["failed"] for t in rounds),
        "correct": not fail.messages,
        "messages": fail.errors + fail.messages,
    }
    if tracer is None:
        # medians over rounds, so a burst of load from elsewhere moves them little
        result["metrics"] = {
            "ops_per_s": statistics.median(t["ops"] / t["wall"] for t in plain),
            "cpu_ms_per_op": statistics.median(1e3 * t["cpu"] / t["ops"] for t in plain),
            "peak_rss_mb": peak,
        }
        return result

    metrics = tracer.metrics(sum(t["ops"] for t in traced))
    per_op = {
        k: statistics.median(t["wall"] / t["ops"] for t in side) for k, side in (("plain", plain), ("traced", traced))
    }
    metrics["trace.overhead_share"] = (per_op["traced"] - per_op["plain"]) / per_op["plain"]
    metrics["simulation.pool_speedup"] = (
        pool_speedup(workloads, args.seed, fail) if args.workload == "mc-density" else 0.0
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.json.gz")
    result["metrics"] = metrics
    return result


POOL_REPLICATIONS = 200


def pool_speedup(workloads, seed: int, fail) -> float:
    """Serial over threads=nproc wall time of `run_experiment`, same spec.

    The spec is the n = 300 m1 cell with 200 replications; each side runs
    twice, alternating.  The pooled tables must equal the serial ones bit
    for bit.
    """
    import predspec as ps

    cell = workloads.mc_density(seed).cells[1]
    spec = cell.spec(workloads.derived_seed(seed, 1 << 21), POOL_REPLICATIONS)
    threads = len(os.sched_getaffinity(0))
    serial = pooled = 0.0
    for _ in range(2):
        t0 = time.perf_counter()
        one = ps.run_experiment(spec, threads=1)
        t1 = time.perf_counter()
        many = ps.run_experiment(spec, threads=threads)
        t2 = time.perf_counter()
        serial += t1 - t0
        pooled += t2 - t1
        fields = ("estimator", "imse", "ibias", "imse_se", "ibias_se")
        fail.expect(
            [[getattr(r, f) for f in fields] for r in one.rows]
            == [[getattr(r, f) for f in fields] for r in many.rows],
            f"threads={threads} table differs from the serial table",
        )
    return serial / pooled


# --- parent side --------------------------------------------------------------

def _spawn(args, role: str):
    """Run a child of this script; returns (set-up seconds, its JSON result)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{role} child exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["ready"] - start, res


def _declared_metrics(trace: int) -> dict:
    """Metric names and units for this mode, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parent(args) -> int:
    units = _declared_metrics(args.trace)
    setups = [_spawn(args, "probe")[0] for _ in range(0 if args.trace else SETUP_PROBES)]
    setup, res = _spawn(args, "measure")
    setups.append(setup)
    for message in res["messages"]:
        print(f"check: {message}", file=sys.stderr)
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not produced: {sorted(missing)}")
    print(
        f"{args.workload} seed {args.seed}: {res['attempted']} operations, "
        f"{res['failed']} failed, checks {'passed' if res['correct'] else 'FAILED'}"
    )
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("probe", "measure"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "predspec" / "__init__.py").is_file():
        print(f"predspec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        print(json.dumps(child(args)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
