"""The benchmark's workloads: how each is built from a seed, how many calls
its plan makes into every traced layer, how its outputs are checked, and
how its records are digested.

- ``landscape``: ``run_grid_sweep`` on narma10 with the default
  ``ReservoirConfig`` over lambda in {0.5, 2, 4, 8} x rho in {0.1, 0.5, 1, 2},
  2 trials per cell, 2 workers. A stratified sample of the acceptance
  landscape covering locked and incoherent cells, so the spectral-radius
  rescale and its norm-limit fallback dominate; it also exercises the
  process pool.
- ``mg17-mc``: ``run_mc_study`` on mg17 with the CLI's mg17 task lengths
  (100/2900/1000, lambda 1), nodes (1, 0.3) and (2, 0.6), 3 trials, k_max
  100, in one process. Long series with rare rescales: the per-step
  kernels, the readout, memory capacity and Mackey-Glass generation
  dominate. It is the plain single-process baseline.
- ``weights-cli``: ``kuramoto-rc weights`` through ``cli.main`` with its
  defaults, 2 workers: 18 develop-only jobs that record a weight
  histogram per step, then about 90k CSV rows written. The only workload
  that goes through the CLI, and write-heavy where the sweeps are
  read-heavy.

Every workload has a tiny variant of the same shape for the smoke test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import shutil
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kuramoto_rc import (
    ReservoirConfig,
    SweepSpec,
    derive_seed,
    gen_narma10,
    run_grid_sweep,
    run_mc_study,
)
from kuramoto_rc import cli

NAMES = ("landscape", "mg17-mc", "weights-cli")

# Worker count of the parallel runs; the benchmark assumes 2 cores.
PARALLEL = 2

# Phase steps memory_capacity takes at its default washout and collect
# lengths.
MC_STEPS = 100 + 600

# Seed-stream tag kuramoto_rc.experiments derives task seeds from.
TASK_STREAM = 1

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


@dataclass
class Study:
    """One execution of a workload and what its checks found."""

    wall_s: float
    records: int
    faults: int
    digest: str
    problems: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)


def study_seed(workload, seed: int, index: int) -> int:
    """Master seed of the index-th study of a run with workload seed ``seed``.

    A candidate whose NARMA10 drive diverges is skipped, as ``gen_narma10``
    advises, so that no job of the benchmark faults on its input.
    """
    for attempt in itertools.count():
        master = int(np.random.SeedSequence([seed, index, attempt]).generate_state(1)[0])
        try:
            for length, trial in workload.narma_inputs():
                gen_narma10(length, seed=derive_seed(master, TASK_STREAM, trial))
        except ArithmeticError:
            continue
        return master


def _field(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)


def records_digest(result) -> str:
    """SHA-256 of the records and extra tables, floats in 17-digit form."""
    h = hashlib.sha256()
    tables = {"records": (result.columns, result.records), **result.tables}
    for name in sorted(tables):
        columns, rows = tables[name]
        h.update(f"[{name}]\n".encode())
        for row in rows:
            h.update((",".join(_field(row.get(c)) for c in columns) + "\n").encode())
    return h.hexdigest()


def _same(a, b) -> bool:
    """Equality that also holds between two NaNs."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _stat(fn, values: list[float]) -> float:
    return float(fn(values)) if values else float("nan")


def check_result(result, jobs: int, mc_rows: int | None = None) -> list[str]:
    """Problems with a study result; empty when it is correct."""
    problems = []
    if len(result.records) != jobs:
        problems.append(f"{len(result.records)} records, plan has {jobs}")
    for i, rec in enumerate(result.records):
        bad = [
            c
            for c in result.columns
            if isinstance(rec.get(c), float) and not math.isfinite(rec[c])
        ]
        if bad and not rec.get("fault"):
            problems.append(f"record {i}: non-finite {bad} without a fault message")
    if not _same(result.recompute_aggregates(), result.aggregates):
        problems.append("stored aggregates differ from recompute_aggregates()")
    if mc_rows is not None:
        curve = result.tables["mc_curve"][1]
        if len(curve) != mc_rows:
            problems.append(f"{len(curve)} memory-capacity rows, plan has {mc_rows}")
        outside = [r for r in curve if not 0.0 <= r["coefficient"] <= 1.0]
        if outside:
            problems.append(f"{len(outside)} memory-capacity coefficients outside [0, 1]")
    return problems


@dataclass
class SweepWorkload:
    """A pipeline study: a grid sweep, or a memory-capacity study when
    ``nodes`` is set."""

    task: str
    base: ReservoirConfig
    axes: dict[str, list]
    trials: int
    workers: int
    nodes: list[tuple[float, float]] | None = None
    k_max: int = 100

    @property
    def jobs(self) -> int:
        cells = len(self.nodes) if self.nodes else math.prod(map(len, self.axes.values()))
        return cells * self.trials

    def inputs(self, seed: int, workers: int) -> SweepSpec:
        return SweepSpec(
            task=self.task,
            base=self.base,
            axes=self.axes,
            trials=self.trials,
            master_seed=seed,
            workers=workers,
        )

    def narma_inputs(self) -> list[tuple[int, int]]:
        """(length, trial) of every NARMA10 series a study generates."""
        if self.task != "narma10":
            return []
        return [(self.base.len_train + self.base.len_test, t) for t in range(self.trials)]

    def plan(self) -> dict[str, int]:
        """Calls one study makes into each traced layer.

        Per job: len_train + len_test phase steps (plus memory capacity's),
        len_adev - 1 development steps each with a rescale, one more rescale
        when the network is built, and one feature row per test step plus
        one matrix each for the readout fit and the training error (plus
        memory capacity's).
        """
        cfg = self.base
        mc = int(self.nodes is not None)
        dev = cfg.len_adev - 1
        per_job = {
            "experiments.job": 1,
            "network.phase_step": cfg.len_train + cfg.len_test + mc * MC_STEPS,
            "network.coupling_step": dev,
            "network.rescale": dev + 1,
            "reservoir.develop_and_collect": 1,
            "reservoir.train_readout": 1,
            "reservoir.predict": 1,
            "reservoir.build_features": cfg.len_test + 2 + mc,
            "tasks.make_task": 1,
            "metrics.memory_capacity": mc,
            "metrics.weight_histogram": 0,
            "cli.write_result": 0,
        }
        return {k: v * self.jobs for k, v in per_job.items()}

    def run(self, seed: int, workers: int) -> Study:
        spec = self.inputs(seed, workers)
        start = time.perf_counter()
        if self.nodes is None:
            result = run_grid_sweep(spec)
        else:
            result = run_mc_study(spec, self.nodes, k_max=self.k_max)
        wall = time.perf_counter() - start
        mc_rows = None
        ok = [r for r in result.records if not r.get("fault")]
        accuracy = {"test_mse_median": _stat(np.median, [r["test_mse"] for r in ok])}
        if self.nodes is not None:
            mc_rows = len(ok) * self.k_max
            accuracy["mc_total_mean"] = _stat(np.mean, [r["mc_total"] for r in ok])
        return Study(
            wall_s=wall,
            records=len(result.records),
            faults=result.n_faults,
            digest=records_digest(result),
            problems=check_result(result, self.jobs, mc_rows),
            accuracy=accuracy,
        )


@dataclass
class WeightsCliWorkload:
    """``kuramoto-rc weights`` run through ``cli.main`` into a fresh
    directory under ``workdir``.

    ``write_result`` itself refuses to write when the stored aggregates
    differ from ``recompute_aggregates()``, so the exit code covers that
    check here.
    """

    workers: int
    jobs: int
    steps: int
    bins: int
    options: list[str] = field(default_factory=list)
    workdir: Path = WORKDIR

    def inputs(self, seed: int, workers: int, outdir=None) -> list[str]:
        """Command line of one study writing into ``outdir``."""
        return [
            "weights",
            "--workers",
            str(workers),
            "--seed",
            str(seed),
            "--outdir",
            str(outdir or self.workdir),
            *self.options,
        ]

    def narma_inputs(self) -> list[tuple[int, int]]:
        """(length, trial) of the development input, from the CLI's default
        narma10 task."""
        return [(max(self.steps + 1, 11), 0)]

    def expected_rows(self) -> dict[str, int]:
        return {
            "records.csv": self.jobs,
            "aggregates.csv": self.jobs,
            "table_final_hist.csv": self.jobs * self.bins,
            "table_snapshots.csv": self.jobs * self.steps * self.bins,
        }

    def plan(self) -> dict[str, int]:
        """Calls one study makes into each traced layer: ``steps``
        development steps per job, each with a rescale and a histogram,
        plus the rescale at build time and the final histogram; one task
        generated and one result written by the parent."""
        jobs, steps = self.jobs, self.steps
        return {
            "experiments.job": jobs,
            "network.phase_step": jobs * steps,
            "network.coupling_step": jobs * steps,
            "network.rescale": jobs * (steps + 1),
            "reservoir.develop_and_collect": 0,
            "reservoir.train_readout": 0,
            "reservoir.predict": 0,
            "reservoir.build_features": 0,
            "tasks.make_task": 1,
            "metrics.memory_capacity": 0,
            "metrics.weight_histogram": jobs * (steps + 1),
            "cli.write_result": 1,
        }

    def run(self, seed: int, workers: int) -> Study:
        self.workdir.mkdir(parents=True, exist_ok=True)
        outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        out, err = io.StringIO(), io.StringIO()
        try:
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(self.inputs(seed, workers, outdir))
            wall = time.perf_counter() - start
            return self._check(code, err.getvalue(), outdir, wall)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
            with suppress(OSError):
                self.workdir.rmdir()

    def _check(self, code: int, stderr: str, outdir: Path, wall: float) -> Study:
        problems = []
        if code != 0:
            problems.append(f"weights exited with {code}: {stderr.strip()}")
        expected = self.expected_rows()
        found = sorted(p.name for p in outdir.iterdir())
        if found != sorted([*expected, "config.txt"]):
            problems.append(f"unexpected output files {found}")
        h = hashlib.sha256()
        for name in sorted(expected):
            path = outdir / name
            data = path.read_bytes() if path.is_file() else b""
            h.update(f"[{name}]\n".encode() + data)
            rows = data.count(b"\n") - 1
            if rows != expected[name]:
                problems.append(f"{name}: {rows} rows, plan has {expected[name]}")
        # Without a records file every job counts as attempted and failed.
        records, faults = self.jobs, self.jobs
        path = outdir / "records.csv"
        if path.is_file():
            records, faults = 0, 0
            with open(path, newline="", encoding="utf-8") as fh:
                for i, rec in enumerate(csv.DictReader(fh)):
                    records += 1
                    if rec["fault"]:
                        faults += 1
                    elif not all(
                        math.isfinite(float(rec[c]))
                        for c in ("n_live", "fitted_a", "fitted_b")
                    ):
                        problems.append(f"record {i}: non-finite fit without a fault")
        return Study(
            wall_s=wall,
            records=records,
            faults=faults,
            digest=h.hexdigest(),
            problems=problems,
        )


def prepare(name: str, seed: int):
    """Build the named workload and the inputs of its first study."""
    workload = build(name)
    workload.plan()
    return workload.inputs(study_seed(workload, seed, 0), workload.workers)


def build(name: str, tiny: bool = False, workdir: Path = WORKDIR):
    """The named workload, or its tiny variant."""
    if name == "landscape":
        if tiny:
            base = ReservoirConfig(n=30, len_adev=8, len_train=40, len_test=10)
            axes = {"lam": [0.5, 8.0], "spectral_target": [0.1, 2.0]}
            trials = 1
        else:
            base = ReservoirConfig()
            axes = {"lam": [0.5, 2.0, 4.0, 8.0], "spectral_target": [0.1, 0.5, 1.0, 2.0]}
            trials = 2
        return SweepWorkload("narma10", base, axes, trials, workers=PARALLEL)
    if name == "mg17-mc":
        if tiny:
            base = ReservoirConfig(n=30, len_adev=8, len_train=60, len_test=10, lam=1.0)
            trials = 1
        else:
            base = ReservoirConfig(len_adev=100, len_train=2900, len_test=1000, lam=1.0)
            trials = 3
        return SweepWorkload(
            "mg17",
            base,
            {"lam": [1.0, 2.0], "spectral_target": [0.3, 0.6]},
            trials,
            workers=1,
            nodes=[(1.0, 0.3), (2.0, 0.6)],
            k_max=100,
        )
    if name == "weights-cli":
        if tiny:
            options = [
                "--n", "30", "--len-adev", "8", "--len-train", "40", "--len-test", "10",
                "--weight-inits", "1,1;5,1", "--weight-betas=-1.5707963267948966",
                "--bins", "10",
            ]
            return WeightsCliWorkload(PARALLEL, 2, 8, 10, options, workdir)
        # CLI defaults: 6 initial weight laws x 3 betas, len_adev steps, 50 bins.
        return WeightsCliWorkload(PARALLEL, 18, 100, 50, [], workdir)
    raise ValueError(f"unknown workload {name!r}; one of {', '.join(NAMES)}")
