"""Seeded batch studies over the reservoir parameter space.

A study plans its jobs, runs them, then builds its result: ``_plan`` gives
the (payload, record key) pair of each (cell index, trial index), ``_run``
turns any pairs of a plan into records, and ``_make_result`` aggregates
them. Job seeds derive from the master seed and those indices alone, so
results do not depend on the worker count or finishing order, and a pair
run as a one-element plan reproduces its record. Faulted jobs are
recorded, counted, and left out of the aggregate rows.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .metrics import beta_fit, matrix_distance, memory_capacity, weight_histogram
from .network import develop, order_parameter, reinitialize_weights
from .reservoir import ReservoirConfig, run_pipeline
from .tasks import make_task, release_generated_tasks, spectrum

# Seed-stream tags; fixed so derived seeds never change between versions.
_TASK_STREAM = 1
_NET_STREAM = 2
_MC_STREAM = 3
_VALUE_STREAM = 4

# Value columns of a pipeline job's record.
_PIPELINE_VALUES = ("test_mse", "train_mse", "order_r")

# Statistics of each value column in an aggregate row, in column order; the
# boxplot ones only in studies with quartiles.
_STATISTICS = ("mean", "var", "median")
_BOXPLOT = ("q1", "q3", "whisker_low", "whisker_high", "n_outliers")

_CONFIG_FIELDS = {f.name for f in fields(ReservoirConfig)}


def derive_seed(master_seed: int, *tokens: int) -> int:
    """Deterministic child seed from the master seed and index tokens.

    Stable across runs, platforms, and worker counts.
    """
    key = tuple(int(t) for t in tokens)
    ss = np.random.SeedSequence(int(master_seed), spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def default_lambda_grid() -> list[float]:
    return [round(0.5 * i, 1) for i in range(1, 17)]


def default_rho_grid() -> list[float]:
    return [round(0.1 * i, 1) for i in range(1, 21)]


def default_beta_grid() -> list[float]:
    return [float(b) for b in np.linspace(-np.pi, np.pi, 25)]


@dataclass
class SweepSpec:
    """One batch study: a task, a base configuration, named parameter
    axes, and the trial count per grid cell."""

    task: str = "narma10"
    base: ReservoirConfig = field(default_factory=ReservoirConfig)
    axes: dict[str, list] = field(default_factory=dict)
    trials: int = 10
    master_seed: int = 0
    workers: int = 1
    task_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.axes:
            raise ValueError("axes must name at least one swept parameter")
        for name, values in self.axes.items():
            if name not in _CONFIG_FIELDS:
                raise ValueError(f"axis {name!r} is not a config field")
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no values")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

    def cells(self) -> list[dict]:
        names = list(self.axes.keys())
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]


class _BlockRows(Sequence):
    """Read-only table rows held as blocks of (key, columns); a row dict is
    made only when the row is read.

    ``key`` holds the values shared by a block's rows and ``columns`` maps
    each further column to an array; a block's arrays are broadcast to one
    shape when it is stored and read in C order. Row i of a block is the
    key, then every column's i-th entry as a Python scalar. The rows
    compare equal to the list of their dicts.
    """

    def __init__(self, blocks=()):
        self._blocks = [
            (key, dict(zip(cols, np.broadcast_arrays(*cols.values()))))
            for key, cols in blocks
        ]
        sizes = (next(iter(cols.values())).size for _, cols in self._blocks)
        self._ends = list(itertools.accumulate(sizes))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for key, cols in self._blocks:
            names = list(cols)
            for values in zip(*(a.ravel().tolist() for a in cols.values())):
                row = dict(key)
                row.update(zip(names, values))
                yield row

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[operator.index(index)]  # IndexError past either end
        b = bisect.bisect_right(self._ends, i)
        key, cols = self._blocks[b]
        offset = i - (self._ends[b - 1] if b else 0)
        return {**key, **{c: a.item(offset) for c, a in cols.items()}}

    def cells(self, columns, fmt):
        """Yield each row's ``tuple(fmt(row.get(c)) for c in columns)`` in
        row order, without making the row dicts.

        A key value is formatted once per block and an array column once
        per stored entry: a broadcast view's zero-stride axes are dropped
        before formatting and the cells broadcast back.
        """
        for key, cols in self._blocks:
            size = next(iter(cols.values())).size
            if size:  # one block's cells are held at a time
                yield from zip(
                    *(
                        _formatted(cols[c], fmt)
                        if c in cols
                        else itertools.repeat(fmt(key.get(c)), size)
                        for c in columns
                    )
                )

    def __eq__(self, other):
        if not isinstance(other, (list, _BlockRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


def _formatted(values: np.ndarray, fmt) -> list:
    """``fmt`` of every entry of ``values`` in C order, called once per
    entry the array stores."""
    stored = values[tuple(0 if s == 0 else slice(None) for s in values.strides)]
    cells = np.array([fmt(v) for v in stored.ravel().tolist()], dtype=object)
    kept = [n if s else 1 for n, s in zip(values.shape, values.strides)]
    return np.broadcast_to(cells.reshape(kept), values.shape).ravel().tolist()


@dataclass
class ExperimentResult:
    """Tabular study output: one record per (cell, trial) plus aggregate
    rows per cell, recomputable from the records.

    ``tables`` maps a name to (columns, rows) of a long-form extra table.
    Its rows are a read-only sequence of row dicts, each built when it is
    read, so a table costs its value arrays rather than a dict per row.
    """

    columns: list[str]
    records: list[dict]
    aggregates: list[dict]
    group_columns: list[str]
    value_columns: list[str]
    quartiles: bool = False
    tables: dict[str, tuple[list[str], Sequence[dict]]] = field(default_factory=dict)

    @property
    def aggregate_columns(self) -> list[str]:
        stats = _statistic_names(self.quartiles)
        values = [f"{col}_{stat}" for col in self.value_columns for stat in stats]
        return [*self.group_columns, "n_trials", "n_faults", *values]

    @property
    def n_faults(self) -> int:
        return sum(1 for r in self.records if r.get("fault"))

    def recompute_aggregates(self) -> list[dict]:
        return _aggregate(
            self.records, self.group_columns, self.value_columns, self.quartiles
        )


def _statistic_names(quartiles: bool) -> tuple[str, ...]:
    return _STATISTICS + _BOXPLOT if quartiles else _STATISTICS


def _statistics(vals: np.ndarray, quartiles: bool) -> tuple:
    """The named statistics of ``vals``: NaN when it is empty (with no
    outliers), whiskers at the extreme values within 1.5 IQR of the
    quartiles."""
    if vals.size == 0:
        return (float("nan"),) * 7 + (0,)
    stats = [vals.mean(), vals.var(), np.median(vals)]
    if not quartiles:
        return tuple(map(float, stats))
    q1, q3 = np.percentile(vals, [25.0, 75.0])
    iqr = q3 - q1
    inside = vals[(vals >= q1 - 1.5 * iqr) & (vals <= q3 + 1.5 * iqr)]
    stats += [q1, q3, inside.min(), inside.max()]
    return (*map(float, stats), int(vals.size - inside.size))


def _aggregate(
    records: list[dict],
    group_columns: list[str],
    value_columns: list[str],
    quartiles: bool = False,
) -> list[dict]:
    names = _statistic_names(quartiles)
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault(tuple(rec[c] for c in group_columns), []).append(rec)
    rows = []
    for key, recs in groups.items():
        ok = [r for r in recs if not r.get("fault")]
        row = dict(zip(group_columns, key))
        row["n_trials"] = len(recs)
        row["n_faults"] = len(recs) - len(ok)
        for col in value_columns:
            vals = np.array([r[col] for r in ok], dtype=float)
            stats = _statistics(vals, quartiles)
            row.update((f"{col}_{name}", stat) for name, stat in zip(names, stats))
        rows.append(row)
    return rows


def _make_result(
    records: list[dict],
    key_columns: list[str],
    values: tuple[str, ...] | list[str],
    group_columns: list[str],
    value_columns: list[str] | None = None,
    quartiles: bool = False,
    tables: dict[str, list[str]] | None = None,
) -> ExperimentResult:
    """Result whose records list the key columns, then ``values``, then the
    fault; aggregated over ``value_columns`` (``values`` by default).

    ``tables`` names each table's columns. A record's ``tables`` entry,
    taken out here, maps a table name to that job's arrays of some of its
    columns; the record's values of the other columns key the block.
    """
    value_columns = list(value_columns or values)
    job_tables = [rec.pop("tables", {}) for rec in records]
    built = {}
    for name, columns in (tables or {}).items():
        blocks = []
        for rec, own in zip(records, job_tables):
            if name in own:
                block = own[name]
                key = {c: rec[c] for c in columns if c not in block}
                blocks.append((key, {c: block[c] for c in columns if c in block}))
        built[name] = (columns, _BlockRows(blocks))
    return ExperimentResult(
        columns=[*key_columns, *values, "fault"],
        records=records,
        aggregates=_aggregate(records, group_columns, value_columns, quartiles),
        group_columns=group_columns,
        value_columns=value_columns,
        quartiles=quartiles,
        tables=built,
    )


def _guarded(fn, payload) -> dict:
    """Run one job; an exception becomes the job's fault message."""
    try:
        return fn(payload)
    except Exception as exc:
        return {"fault": f"{type(exc).__name__}: {exc}"}


def _plan(spec: SweepSpec, cells: list, **extra) -> list[tuple[dict, dict]]:
    """The (payload, record key) pair of every trial of every (seed index,
    key) cell, in record order. Nothing runs here.

    A job's config is the base with the key's config fields, its network
    seeded by (seed index, trial) and its task by the trial alone. The
    payload carries that config, the key, ``extra`` and the ``seed_key``
    (master seed, seed index, trial) that any further seed stream of the
    job derives from. A record key is the cell key, the trial and both seeds.

    Every cell key must hold every axis of the spec, at one of its values.
    """
    plan = []
    for index, key in cells:
        unread = [name for name in spec.axes if name not in key]
        if unread:
            raise ValueError(f"axes the study does not read: {', '.join(unread)}")
        for name, axis in spec.axes.items():
            if key[name] not in axis:
                raise ValueError(f"cell {name} {key[name]!r} outside its axis")
        overrides = {name: v for name, v in key.items() if name in _CONFIG_FIELDS}
        for t in range(spec.trials):
            net_seed = derive_seed(spec.master_seed, _NET_STREAM, index, t)
            task_seed = derive_seed(spec.master_seed, _TASK_STREAM, t)
            payload = {
                "cfg": replace(spec.base, **overrides, seed=net_seed),
                "key": key,
                "seed_key": (spec.master_seed, index, t),
                "task": spec.task,
                "task_seed": task_seed,
                "task_kwargs": spec.task_kwargs,
                **extra,
            }
            seeds = {"trial": t, "net_seed": net_seed, "task_seed": task_seed}
            plan.append((payload, {**key, **seeds}))
    return plan


def _run(fn, plan: list[tuple[dict, dict]], values, workers: int) -> list[dict]:
    """Records of ``fn`` over any (payload, key) pairs of a plan, in their
    order: the key, ``values`` as NaN, an empty fault, then the outcome,
    where a job's exception becomes its fault. When the jobs are done, the
    generated tasks they shared are released."""
    try:
        if workers > 1 and len(plan) > 1:
            # One job at a time: job costs vary several-fold across cells,
            # and chunks leave a worker idle at the end. A fork pool starts
            # all its workers at once, so it gets no more than there are jobs.
            with ProcessPoolExecutor(max_workers=min(workers, len(plan))) as pool:
                job = functools.partial(_guarded, fn)
                outcomes = list(pool.map(job, (payload for payload, _ in plan)))
        else:
            outcomes = [_guarded(fn, payload) for payload, _ in plan]
    finally:
        # A generated task lives for one study, here as in a pool worker.
        release_generated_tasks()
    nan = dict.fromkeys(values, float("nan"))
    return [{**key, **nan, "fault": "", **out} for (_, key), out in zip(plan, outcomes)]


def _pipeline_job(payload: dict) -> dict:
    cfg = payload["cfg"]
    data = make_task(
        payload["task"],
        cfg.test_span.stop,
        seed=payload["task_seed"],
        **payload["task_kwargs"],
    )
    result = run_pipeline(cfg, data)
    r, _ = order_parameter(result.dev_phases)
    tables = {}
    record = {"test_mse": result.test_mse, "train_mse": result.train_mse, "order_r": r}
    if payload.get("predictions"):
        tables["predictions"] = {
            "step": np.arange(result.predictions.size),
            "target": data.targets[cfg.test_span],
            "prediction": result.predictions,
        }
    if "k_max" in payload:
        master_seed, index, trial = payload["seed_key"]
        mc_seed = derive_seed(master_seed, _MC_STREAM, index, trial)
        curve = memory_capacity(cfg, result.network, k_max=payload["k_max"], seed=mc_seed)
        record["mc_total"] = curve.total
        tables["mc_curve"] = {
            "delay": np.arange(1, curve.coefficients.size + 1),
            "coefficient": curve.coefficients,
        }
    return {**record, "tables": tables}


def run_grid_sweep(spec: SweepSpec) -> ExperimentResult:
    """Pipeline error and post-development synchrony over a parameter grid.

    Cells come from the cartesian product of the spec axes (typically the
    coupling strength and the spectral-radius target). Per-cell faults are
    recorded in the result rather than aborting the sweep.
    """
    return _grid_sweep(spec)


def _grid_sweep(spec: SweepSpec, quartiles: bool = False, **extra) -> ExperimentResult:
    """The grid sweep, its aggregates with boxplot statistics when
    ``quartiles`` is set; ``extra`` goes into every job's payload. With
    ``predictions`` each job's test-span predictions become a table."""
    group = ["cell_index", *spec.axes]
    cells = [(ci, {"cell_index": ci, **cell}) for ci, cell in enumerate(spec.cells())]
    plan = _plan(spec, cells, **extra)
    records = _run(_pipeline_job, plan, _PIPELINE_VALUES, spec.workers)
    tables = {}
    if extra.get("predictions"):
        tables["predictions"] = ["step", "target", "prediction"]
    key_columns = group + ["trial", "net_seed", "task_seed"]
    return _make_result(
        records, key_columns, _PIPELINE_VALUES, group, quartiles=quartiles, tables=tables
    )


def run_single(spec: SweepSpec) -> ExperimentResult:
    """One pipeline run: cell 0, trial 0 of the grid sweep over ``spec``,
    so a single run and a 1x1 sweep agree and record a fault the same way.
    The test-span predictions land in the ``predictions`` table."""
    first = {name: values[:1] for name, values in spec.axes.items()}
    return _grid_sweep(replace(spec, axes=first, trials=1), predictions=True)


def run_mc_study(
    spec: SweepSpec,
    sample_nodes: list[tuple[float, float]],
    k_max: int = 100,
) -> ExperimentResult:
    """Memory capacity at sampled (coupling strength, radius) grid nodes.

    Each node develops on the task, then the frozen network is probed with
    fresh uniform input. The per-delay curves land in the ``mc_curve``
    table of the result. A node outside the spec's ``lam`` or
    ``spectral_target`` axis raises ValueError.
    """
    group = ["node_index", "lam", "spectral_target"]
    key_columns = group + ["trial"]
    values = (*_PIPELINE_VALUES, "mc_total")
    cells = [
        (ni, {"node_index": ni, "lam": lam, "spectral_target": rho})
        for ni, (lam, rho) in enumerate(sample_nodes)
    ]
    records = _run(_pipeline_job, _plan(spec, cells, k_max=k_max), values, spec.workers)
    tables = {"mc_curve": key_columns + ["delay", "coefficient"]}
    value_columns = ["test_mse", "order_r", "mc_total"]
    return _make_result(records, key_columns, values, group, value_columns, tables=tables)


def run_sparsity_sweep(spec: SweepSpec) -> ExperimentResult:
    """Error statistics with and without development across densities.

    The adaptive and frozen runs of the same (density, trial) share their
    network seed, so the comparison is paired.
    """
    densities = spec.axes.get("density")
    if densities is None:
        raise ValueError("sparsity sweep needs a 'density' axis")
    cells = [
        (di, {"density_index": di, "density": density, "adaptive": adaptive})
        for di, density in enumerate(densities)
        for adaptive in (True, False)
    ]
    records = _run(_pipeline_job, _plan(spec, cells), _PIPELINE_VALUES, spec.workers)
    group = ["density_index", "density", "adaptive"]
    return _make_result(
        records, group + ["trial"], _PIPELINE_VALUES, group, ["test_mse", "train_mse"]
    )


def _trial0_inputs(task: str, steps: int, master_seed: int, task_kwargs: dict):
    """The first ``steps`` inputs of the task drawn with trial 0's task
    seed: the drive every job of a develop-only study shares, and the
    series of a spectrum. The returned array holds the task, so the
    generated one is released at once."""
    seed = derive_seed(master_seed, _TASK_STREAM, 0)
    data = make_task(task, steps, seed=seed, **task_kwargs)
    release_generated_tasks()
    return data.inputs[:steps]


def run_spectrum(
    task: str, length: int, master_seed: int, task_kwargs: dict
) -> ExperimentResult:
    """Magnitude spectrum of the first ``length`` inputs of the task drawn
    with trial 0's task seed, one record per frequency bin."""
    freqs, mags = spectrum(_trial0_inputs(task, length, master_seed, task_kwargs))
    records = [
        {"bin": i, "frequency": float(freqs[i]), "magnitude": float(mags[i]), "fault": ""}
        for i in range(freqs.size)
    ]
    return _make_result(
        records, ["bin"], ["frequency", "magnitude"], ["bin"], ["magnitude"]
    )


def _astringency_job(payload: dict) -> dict:
    """Coupling before and after development of one trial's network: the
    mask and frequencies of its density's trial 0, the live weights of its
    own value stream."""
    master_seed, index, trial = payload["seed_key"]
    cfg = replace(payload["cfg"], seed=derive_seed(master_seed, _NET_STREAM, index, 0))
    value_seed = derive_seed(master_seed, _VALUE_STREAM, index, trial)
    net = reinitialize_weights(
        cfg.build_network(), value_seed, spectral_target=cfg.spectral_target
    )
    initial = net.coupling
    develop(net, payload["inputs"], cfg.spectral_target)
    return {"initial": initial, "developed": net.coupling}


def run_astringency(spec: SweepSpec) -> ExperimentResult:
    """Convergence of differently initialized coupling matrices.

    Per density, ``spec.trials`` networks share one sparsity pattern and
    one frequency draw but reseed their initial live weights; all develop
    at the base config's ``beta`` under the same input stream. Distances
    to the first trial's matrix are reported before and after development,
    in both signed and absolute modes.
    """
    if spec.trials < 2:
        raise ValueError("astringency needs at least 2 trials")
    densities = spec.axes.get("density")
    if densities is None:
        raise ValueError("astringency needs a 'density' axis")
    steps = max(spec.base.len_adev - 1, 0)
    inputs = _trial0_inputs(spec.task, steps, spec.master_seed, spec.task_kwargs)
    cells = [
        (di, {"density_index": di, "density": density})
        for di, density in enumerate(densities)
    ]
    jobs = _run(_astringency_job, _plan(spec, cells, inputs=inputs), (), spec.workers)
    group = ["density_index", "density"]
    stages = ("initial", "developed")
    modes = ("signed", "absolute")
    distances = [f"{stage}_{mode}" for stage in stages for mode in modes]
    records = []
    for first in range(0, len(jobs), spec.trials):
        reference, *others = jobs[first : first + spec.trials]
        for job in others:
            rec = {c: job[c] for c in (*group, "trial")}
            rec.update(dict.fromkeys(distances, float("nan")))
            rec["fault"] = job["fault"]
            if reference["fault"]:
                rec["fault"] = f"reference trial: {reference['fault']}"
            if not rec["fault"]:
                for stage, mode in itertools.product(stages, modes):
                    rec[f"{stage}_{mode}"] = matrix_distance(
                        job[stage], reference[stage], mode
                    )
            records.append(rec)
    return _make_result(records, group + ["trial"], distances, group)


def run_beta_sweep(spec: SweepSpec) -> ExperimentResult:
    """Error and synchrony across the character parameter.

    Uses the spec's ``beta`` axis; aggregates carry full boxplot
    statistics.
    """
    if "beta" not in spec.axes:
        raise ValueError("beta sweep needs a 'beta' axis")
    return _grid_sweep(spec, quartiles=True)


def _weight_job(payload: dict) -> dict:
    cfg = payload["cfg"]
    key = payload["key"]
    net = cfg.build_network(weight_init=(key["initial_a"], key["initial_b"]))
    bins = payload["bins"]
    inputs = payload["inputs"]
    # Row i holds the histogram after development step i + 1.
    snapshots = np.empty((len(inputs), bins), dtype=np.int64)

    def on_step(step, current):
        snapshots[step - 1] = weight_histogram(current.coupling, current.mask, bins)[1]

    develop(net, inputs, cfg.spectral_target, on_step)
    centers, final_counts = weight_histogram(net.coupling, net.mask, bins)
    steps = np.arange(1, len(inputs) + 1)[:, None]
    out = {
        "n_live": int(net.mask.sum()),
        "tables": {
            "snapshots": {"step": steps, "bin_center": centers, "count": snapshots},
            "final_hist": {"bin_center": centers, "count": final_counts},
        },
    }
    # A failed fit keeps the histograms, so it is caught here.
    try:
        fit = beta_fit(np.clip(net.coupling[net.mask], -1.0, 1.0))
        out["fitted_a"] = fit.a
        out["fitted_b"] = fit.b
    except ValueError as exc:
        out["fault"] = f"ValueError: {exc}"
    return out


def run_weight_distribution_study(
    spec: SweepSpec,
    initial_params: list[tuple[float, float]],
    bins: int = 50,
) -> ExperimentResult:
    """Weight distributions before and after development.

    Live weights start from a beta distribution with the given shape
    parameters (mapped onto [-1, 1]), once per value of the spec's ``beta``
    axis; the network develops on the task input for the base config's
    ``len_adev`` steps. The result records a beta fit of the developed
    weights per combination and a per-step histogram table tracking the
    distribution's evolution.
    """
    betas = spec.axes.get("beta")
    if betas is None:
        raise ValueError("weight study needs a 'beta' axis")
    if not initial_params:
        raise ValueError("initial_params must be nonempty")
    if not all(0 < x < np.inf for pair in initial_params for x in pair):
        raise ValueError(
            f"beta shape parameters must be positive and finite, got {initial_params}"
        )
    steps = spec.base.len_adev
    inputs = _trial0_inputs(spec.task, steps, spec.master_seed, spec.task_kwargs)
    cells = [
        (ci, {"combo_index": ci, "initial_a": a, "initial_b": b, "beta": beta})
        for ci, ((a, b), beta) in enumerate(itertools.product(initial_params, betas))
    ]
    values = ("n_live", "fitted_a", "fitted_b")
    plan = _plan(spec, cells, inputs=inputs, bins=bins)
    records = _run(_weight_job, plan, values, spec.workers)
    tables = {
        "snapshots": ["combo_index", "trial", "step", "bin_center", "count"],
        "final_hist": ["combo_index", "trial", "bin_center", "count"],
    }
    group = ["combo_index", "initial_a", "initial_b", "beta"]
    fits = ["fitted_a", "fitted_b"]
    return _make_result(records, group + ["trial"], values, group, fits, tables=tables)
