"""One workload process: set up, then measure or trace in a closed loop.

Started by run.py in a fresh interpreter. Set-up is the imports, the input
generation and one untimed warm-up op; when it is done the process prints
`READY <unix time>`. In the `measure` and `trace` modes it then prints one
JSON line with what it measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from machine import machine_record
from metrics import LoopResult, closed_loop, per_layer
from tracer import Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes on macOS, KiB on Linux


def _loop(wl, seconds: float, first: int, run_op=None) -> LoopResult:
    return closed_loop(
        run_op or wl.run_op, wl.check, seconds,
        first=first, cycle=wl.cycle, units_per_op=wl.units_per_op, prepare=wl.prepare,
    )


def _loop_fields(loop: LoopResult) -> dict:
    return {"first": loop.first, "next": loop.next, "latencies_s": loop.latencies_s, "units": loop.units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    import passthru

    source = Path(passthru.__file__).resolve().parent
    if source != (ROOT / "src" / "passthru").resolve():
        print(f"passthru was imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    wl.prepare(wl.warm_up_op)
    wl.run_op(wl.warm_up_op)
    print(f"READY {time.time()!r}", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {"machine": machine_record(args.seed)}
    if args.mode == "measure":
        loop = _loop(wl, args.seconds, first=0)
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        untraced = _loop(wl, args.seconds / 2, first=0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _loop(wl, args.seconds / 2, first=untraced.next,
                           run_op=lambda op: tracer.run_op(op, wl.run_op))
        finally:
            tracer.uninstall()
        loop = LoopResult(first=0, next=traced.next,
                          latencies_s=untraced.latencies_s + traced.latencies_s,
                          units=untraced.units + traced.units, failures={**untraced.failures, **traced.failures})
        stats = summarize(tracer.spans)
        ops = traced.attempted
        overhead = statistics.median(traced.latencies_s) / statistics.median(untraced.latencies_s)
        result["per_layer"] = per_layer(stats, tracer.spans, ops, overhead)
        result["spans"] = {
            name: {"calls": s.calls / ops, "self_ms": 1000.0 * s.self_s / ops, **{k: v / ops for k, v in s.counts.items()}}
            for name, s in sorted(stats.items())
        }
        tracer.write(args.workdir / "trace.jsonl")

    extra, pooled = wl.finish()
    failures = {**extra, **loop.failures}
    for op in failures:  # an op that fails a run-level check completed no work either
        loop.units[op - loop.first] = 0.0
    result["loop"] = _loop_fields(loop)
    result["failures"] = {str(op): why for op, why in sorted(failures.items())}
    result["pooled"] = pooled
    result["digest"] = wl.digest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
