"""passthru benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's `src/`. Each run starts fresh interpreters for
the workload. With `--trace 0` it sets up SETUP_REPEATS times, reports the
median set-up time, and measures the last one's closed loop untraced. With
`--trace 1` it measures half the time untraced and half traced, and reports
per-layer metrics. Human-readable lines come first; the last line of stdout
is the JSON result. A full record, with the machine, goes to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import LAYER_METRICS, LoopResult, end_to_end, error_rate
from workloads import UNITS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
BUDGET_S = 170.0  # the whole run, every child included


class BenchError(Exception):
    pass


def _child(workload: str, seed: int, seconds: int, mode: str, workdir: Path, deadline: float):
    """Run one worker process; returns (set-up seconds, parsed result or None)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--workdir", str(workdir),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    launched = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"{workload} {mode} worker never finished set-up")
    return ready[0] - launched, (json.loads(lines[-1]) if mode != "setup" else None)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    workdir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    if trace:
        _, child = _child(workload, seed, seconds, "trace", workdir, deadline)
        metrics = child["per_layer"]
        setups: list[float] = []
    else:
        setups = [_child(workload, seed, seconds, "setup", workdir, deadline)[0] for _ in range(SETUP_REPEATS - 1)]
        setup_s, child = _child(workload, seed, seconds, "measure", workdir, deadline)
        setups.append(setup_s)

    loop = LoopResult(**child["loop"])
    failures = {int(op): why for op, why in child["failures"].items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit": UNITS[workload],
        "machine": child["machine"],
        "digest": child["digest"],
        "pooled": child["pooled"],
        "attempted": loop.attempted,
        "failed": len(failures),
        "failures": child["failures"],
        "error_rate": error_rate(loop.attempted, len(failures)),
        "setup_samples_s": setups,
    }
    if trace:
        record["spans"] = child["spans"]
    else:
        e2e = end_to_end(loop, statistics.median(setups), child["peak_rss_mb"])
        metrics = e2e["metrics"]
        record.update(op_ms_p90=e2e["op_ms_p90"], samples=e2e["samples"],
                      latencies_ms=[1000.0 * s for s in loop.latencies_s])
    record["metrics"] = metrics
    return record


def _report(record: dict) -> None:
    """Human-readable lines, before the JSON result."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  unit: one {record['unit']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"digest {record['workload']} sha256:{record['digest']}")
    for name, m in record["metrics"].items():
        line = f"  {name:48s} {m['value']:.6g} {m['unit']}"
        if name in LAYER_METRICS:
            _, _, _, moves, on = LAYER_METRICS[name]
            line = f"{line:72s} should move {moves} on {on}"
        print(line)
    if not record["trace"]:
        if record["op_ms_p90"] is None:
            print(f"  {'op_ms_p90':48s} omitted: {record['samples']} samples, fewer than 10 beyond the 90th percentile")
        else:
            print(f"  {'op_ms_p90':48s} {record['op_ms_p90']:.6g} ms ({record['samples']} samples)")
    print(f"  {'error_rate':48s} {record['error_rate']:.6g} ratio ({record['failed']} of {record['attempted']} ops)")
    for op, why in list(record["failures"].items())[:5]:
        print(f"  failed op {op}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="passthru benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "passthru" / "__init__.py").is_file():
        print(f"no passthru sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
