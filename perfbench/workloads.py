"""The three workloads: inputs from the seed, one op each, and their checks.

Each workload drives the library only through a public entry point:
`synth_lab.monte_carlo`, or `cli_report.main(["preset", ...])` run in-process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from pathlib import Path

# Criterion 3's process: 21 countries x 40 years, headline spec.
MC_PARAMS = dict(n_countries=21, n_years=40, rho=0.4, lam=0.25, sigma_mu1=0.1, sigma_mu2=0.1, sigma_eps=0.01)
# One op is one 50-replication call, the size of the profiled calls that
# found `PanelDataset.__init__` taking 1.8 s of 3.25 s; the pool's per-call
# set-up and end-of-batch tail then weigh as they do in a real call.
MC_REPS_PER_OP = 50
MC_SLOT = "dln_ulc"
MC_MAX_BIAS = 0.01
MC_COVERAGE = (0.85, 0.95)
# The pooled check allows this many standard errors of sampling noise: the
# estimator's 90% band covers about 0.86 of the time at this size, so a
# literal check on a few hundred replications would fail on ordinary seeds.
MC_Z = 4.0
# Parallel ops re-run serially at the end of a run to check byte identity;
# they are spread evenly over the run, and capped so the check stays short.
MC_IDENTITY_SAMPLE = 4

TABLE_PRESETS = ("table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "a1", "fig2", "fig4")
MG_FILES = ("mg_table.txt", "manifest.json")
PANEL_FILES = ("passthrough_panel.csv", "exclusions.csv", "manifest.json")
EXPECTED_FILES = {
    **{name: MG_FILES for name in ("table1", "table2", "table3", "table4", "table6", "table7", "table8", "a1")},
    "table5": PANEL_FILES + ("second_stage.txt",),
    "fig2": ("medians.txt", "manifest.json"),
    "fig4": PANEL_FILES + ("importance.txt",),
    "fig5": PANEL_FILES + ("pd_grid.csv", "pd_slices.csv", "pd_grid.json"),
}
# manifest.json holds absolute paths of the checkout, so it is left out of the
# digest that compares two checkouts; the per-op byte check still covers it.
UNDIGESTED = {"manifest.json"}


def mc_op_seed(seed: int, op: int) -> int:
    """Generator seed of op `op`; op -1 is the warm-up. Distinct ops never share replications."""
    return seed * 1_000_003 + op + 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class MonteCarlo:
    """One op: a batch of criterion-3 replications through `monte_carlo` on the worker pool."""

    cycle = 1
    units_per_op = MC_REPS_PER_OP
    warm_up_op = -1  # a seed no timed op uses

    def __init__(self, seed: int, workdir: Path, n_jobs: int):
        self.seed = seed
        self.n_jobs = n_jobs
        self.reports: dict[int, bytes] = {}
        self.coverage: dict[int, tuple[float, float]] = {}

    def setup(self) -> None:
        from passthru.mg_panel import build_passthrough_spec

        self.spec = build_passthrough_spec("cpi", "ulc")

    def _run(self, op: int, n_jobs: int):
        from passthru.synth_lab import DgpParams, monte_carlo

        params = DgpParams(**MC_PARAMS, seed=mc_op_seed(self.seed, op))
        return monte_carlo(params, self.spec, reps=MC_REPS_PER_OP, n_jobs=n_jobs)

    def run_op(self, op: int):
        return self._run(op, self.n_jobs)

    def prepare(self, op: int) -> None:
        pass

    def check(self, op: int, report) -> str | None:
        payload = report.to_json_dict()
        self.reports[op] = json.dumps(payload, sort_keys=True).encode()
        slot = payload["slots"].get(MC_SLOT)
        if payload["reps"] != MC_REPS_PER_OP or slot is None:
            return f"report has {payload['reps']} reps and slots {sorted(payload['slots'])}"
        if not all(math.isfinite(v) for v in slot.values()):
            return f"non-finite {MC_SLOT} statistics {slot}"
        self.coverage[op] = (slot["bias"], slot["coverage"])
        return None

    def finish(self) -> tuple[dict[int, str], dict]:
        """Run-level checks: pooled criterion-3 tolerances; parallel ops equal serial ones."""
        failures: dict[int, str] = {}
        ops = sorted(self.reports)
        for op in ops[::math.ceil(len(ops) / MC_IDENTITY_SAMPLE)]:
            want = json.dumps(self._run(op, 1).to_json_dict(), sort_keys=True).encode()
            if self.reports[op] != want:
                failures[op] = f"n_jobs={self.n_jobs} report differs from the serial report"
        pooled = pooled_mc(list(self.coverage.values()), MC_REPS_PER_OP)
        if pooled["problem"] is not None:
            for op in self.reports:
                failures.setdefault(op, pooled["problem"])
        return failures, pooled

    def digest(self) -> str:
        first = min(self.reports)
        return _sha256([("report.json", self.reports[first])])


def pooled_mc(per_op: list[tuple[float, float]], reps_per_op: int) -> dict:
    """Criterion-3 tolerances on the pooled replications of a run.

    Ops carry equal replication counts, so the pooled bias and coverage are
    the means of the per-op values. Each bound is widened by MC_Z standard
    errors of the pooled statistic.
    """
    n = len(per_op) * reps_per_op
    if n == 0:
        return {"reps": 0, "bias": None, "coverage": None, "problem": "no replications to pool"}
    bias = math.fsum(b for b, _ in per_op) / len(per_op)
    coverage = math.fsum(c for _, c in per_op) / len(per_op)
    spread = math.fsum((b - bias) ** 2 for b, _ in per_op) / max(len(per_op) - 1, 1)
    bias_se = math.sqrt(spread / len(per_op))
    nominal = 0.9
    cov_se = math.sqrt(nominal * (1 - nominal) / n)
    lo, hi = MC_COVERAGE
    problem = None
    if abs(bias) >= MC_MAX_BIAS + MC_Z * bias_se:
        problem = f"pooled {MC_SLOT} bias {bias:+.4f} over {n} reps"
    elif not (lo - MC_Z * cov_se <= coverage <= hi + MC_Z * cov_se):
        problem = f"pooled {MC_SLOT} coverage {coverage:.3f} over {n} reps"
    return {"reps": n, "bias": bias, "coverage": coverage, "problem": problem}


class Presets:
    """One op: `passthru preset <name>` through `cli_report.main`, on a synthetic panel.csv."""

    units_per_op = 1
    warm_up_op = 0  # the first preset, which pays the library's first-call costs

    def __init__(self, seed: int, workdir: Path, presets: tuple[str, ...], n_countries: int, pass_seed: bool):
        self.seed = seed
        self.workdir = workdir
        self.presets = presets
        self.cycle = len(presets)
        self.n_countries = n_countries
        self.pass_seed = pass_seed
        self.first: dict[str, dict[str, bytes]] = {}

    def setup(self) -> None:
        from passthru.panel_data import write_panel_csv
        from passthru.synth_lab import DgpParams, generate_panel

        data = self.workdir / "data"
        data.mkdir(parents=True, exist_ok=True)
        panel = generate_panel(DgpParams(n_countries=self.n_countries, n_years=40, seed=self.seed))
        write_panel_csv(panel, data / "panel.csv")

    def _preset(self, op: int) -> str:
        return self.presets[op % len(self.presets)]

    def _out(self, preset: str) -> Path:
        return self.workdir / "out" / preset

    def prepare(self, op: int) -> None:
        shutil.rmtree(self._out(self._preset(op)), ignore_errors=True)

    def run_op(self, op: int):
        from passthru.cli_report import main

        preset = self._preset(op)
        argv = ["preset", preset, "--data", str(self.workdir / "data"), "--out", str(self._out(preset))]
        if self.pass_seed:
            argv += ["--seed", str(self.seed)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv)
        return code, printed.getvalue()

    def check(self, op: int, result) -> str | None:
        code, printed = result
        preset = self._preset(op)
        if code != 0:
            return f"{preset}: exit code {code}"
        out = self._out(preset)
        expected = set(EXPECTED_FILES[preset])
        listed = {Path(line).name for line in printed.splitlines() if line}
        present = {p.name for p in out.iterdir()} if out.is_dir() else set()
        if listed != expected or present != expected:
            return f"{preset}: wrote {sorted(present)}, listed {sorted(listed)}, expected {sorted(expected)}"
        files = {name: (out / name).read_bytes() for name in sorted(expected)}
        reference = self.first.setdefault(preset, files)
        changed = [name for name in files if files[name] != reference[name]]
        if changed:
            return f"{preset}: bytes differ from the run's first op in {changed}"
        return None

    def finish(self) -> tuple[dict[int, str], dict]:
        return {}, {}

    def digest(self) -> str:
        return _sha256(
            (f"{preset}/{name}", data)
            for preset in self.presets if preset in self.first
            for name, data in self.first[preset].items() if name not in UNDIGESTED
        )


WORKLOADS = {
    "mc_parallel": lambda seed, workdir: MonteCarlo(seed, workdir, n_jobs=max(2, nproc())),
    "tables": lambda seed, workdir: Presets(seed, workdir, TABLE_PRESETS, n_countries=60, pass_seed=False),
    "forest_pd": lambda seed, workdir: Presets(seed, workdir, ("fig5",), n_countries=21, pass_seed=True),
}
UNITS = {
    "mc_parallel": "replication",
    "tables": "preset run",
    "forest_pd": "fig5 run",
}
