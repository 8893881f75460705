"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --workloads mc_parallel tables --seeds 1-10 [--seconds 10] [--out FILE]

For every workload and metric it prints the median over seeds, the quartiles
(`statistics.quantiles(values, n=4)`) and their spread, (q3 - q1) / median,
next to the bound in BENCHMARK.json. With --out it writes the same numbers,
each run's values, digests and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            record_path = ROOT / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace0.json"
            record = json.loads(record_path.read_text(encoding="utf-8"))
            runs.append({"seed": seed, "result": result, "digest": record["digest"], "machine": record["machine"]})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {result['failed']}/{result['attempted']} failed  {values}", flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
            print(f"  {workload:12s} {name:12s} median {stats['median']:.5g}  q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}"
                  f"  spread {stats['spread']:.3f}  bound {stats['bound']}", flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "runs": [
                {"seed": r["seed"], "digest": r["digest"],
                 "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
                for r in runs
            ],
        }
        summary["machine"] = {k: v for k, v in runs[-1]["machine"].items() if k != "seed"}
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
