"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads audit synth --seeds 1-5 --seconds 25
    python3 perfbench/collect.py --seeds 1-10 --seconds 25 --out perfbench/baseline.json

For each workload and metric this prints the median over the runs, the
quartiles, and their distance as a share of the median: the spread that
the metric's bound in BENCHMARK.json must cover. ``--out`` also writes
every run's values, the workload's own metrics and the environment.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["audit", "synth", "utility", "paper-shape"])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, detail = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {name: spread([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        own = {name: spread([r["detail"]["metrics"][name] for r in runs])
               for name in runs[0]["detail"]["metrics"]}
        for name, s in {**metrics, **own}.items():
            print(f"  {name:<56s} median {s['median']:<12.6g} spread {s['spread']:.4f}")
        summary["workloads"][workload] = {
            "metrics": metrics, "workload_metrics": own,
            "environment": runs[0]["detail"]["environment"],
            "runs": [{"seed": r["seed"], "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                      "workload_metrics": r["detail"]["metrics"],
                      "counts": r["detail"]["counts"],
                      "timing": {k: r["detail"].get(k) for k in
                                 ("run_s", "run_s_raw", "setup_s", "setup_s_raw", "ref_s")}}
                     for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
