"""Steadiness of the benchmark: run workloads repeatedly, one seed per run.

    python3 perfbench/steady.py --runs 10 [--workloads mc-density ...]

For each workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread as a
share of the median, next to the bound BENCHMARK.json sets; it also prints
the share of failed operations.  The figures are written to
`perfbench/out/steady-<workload>.json`.  Seeds are first-seed, first-seed+1, ...
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
            ) + f", correct={res['correct']}, failed={res['failed']}/{res['attempted']}", flush=True)
        summary = {"workload": workload, "seconds": args.seconds, "runs": runs, "metrics": {}}
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name]}
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.2f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"  failed share(s): {shares}; all correct: {all(r['correct'] for r in runs)}\n")
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
