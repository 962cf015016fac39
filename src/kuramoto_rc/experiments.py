"""Seeded batch studies over the reservoir parameter space.

Every study expands into a list of independent jobs keyed by (cell index,
trial index). Job seeds are derived from the master seed and those
indices, so results are identical no matter how many workers execute the
jobs or in which order they finish, and any single record can be re-run
in isolation. Faulted cells are recorded, counted, and left out of the
aggregate rows.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .metrics import beta_fit, matrix_distance, memory_capacity, weight_histogram
from .network import develop, order_parameter, reinitialize_weights
from .reservoir import ReservoirConfig, run_pipeline
from .tasks import make_task

# Seed-stream tags; fixed so derived seeds never change between versions.
_TASK_STREAM = 1
_NET_STREAM = 2
_MC_STREAM = 3
_VALUE_STREAM = 4

# Value columns of a pipeline job's record.
_PIPELINE_VALUES = ("test_mse", "train_mse", "order_r")

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

    def cells(self) -> list[dict]:
        names = list(self.axes.keys())
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.axes[n] for n in names))
        ]


@dataclass
class ExperimentResult:
    """Tabular study output: one record per (cell, trial) plus aggregate
    rows per cell, recomputable from the records."""

    columns: list[str]
    records: list[dict]
    aggregate_columns: list[str]
    aggregates: list[dict]
    group_columns: list[str]
    value_columns: list[str]
    quartiles: bool = False
    tables: dict[str, tuple[list[str], list[dict]]] = field(default_factory=dict)
    n_faults: int = 0

    def recompute_aggregates(self) -> list[dict]:
        return _aggregate(
            self.records, self.group_columns, self.value_columns, self.quartiles
        )


def _aggregate(
    records: list[dict],
    group_columns: list[str],
    value_columns: list[str],
    quartiles: bool = False,
) -> list[dict]:
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
            has = vals.size > 0
            row[f"{col}_mean"] = float(vals.mean()) if has else float("nan")
            row[f"{col}_var"] = float(vals.var()) if has else float("nan")
            row[f"{col}_median"] = float(np.median(vals)) if has else float("nan")
            if quartiles:
                if has:
                    q1, q3 = np.percentile(vals, [25.0, 75.0])
                    iqr = q3 - q1
                    inside = vals[(vals >= q1 - 1.5 * iqr) & (vals <= q3 + 1.5 * iqr)]
                    row[f"{col}_q1"] = float(q1)
                    row[f"{col}_q3"] = float(q3)
                    row[f"{col}_whisker_low"] = float(inside.min())
                    row[f"{col}_whisker_high"] = float(inside.max())
                    row[f"{col}_n_outliers"] = int(vals.size - inside.size)
                else:
                    for suffix in ("q1", "q3", "whisker_low", "whisker_high"):
                        row[f"{col}_{suffix}"] = float("nan")
                    row[f"{col}_n_outliers"] = 0
        rows.append(row)
    return rows


def _aggregate_columns(
    group_columns: list[str], value_columns: list[str], quartiles: bool
) -> list[str]:
    cols = list(group_columns) + ["n_trials", "n_faults"]
    for col in value_columns:
        cols += [f"{col}_mean", f"{col}_var", f"{col}_median"]
        if quartiles:
            cols += [
                f"{col}_q1",
                f"{col}_q3",
                f"{col}_whisker_low",
                f"{col}_whisker_high",
                f"{col}_n_outliers",
            ]
    return cols


def _make_result(
    records: list[dict],
    columns: list[str],
    group_columns: list[str],
    value_columns: list[str],
    quartiles: bool = False,
    tables: dict | None = None,
) -> ExperimentResult:
    agg_cols = _aggregate_columns(group_columns, value_columns, quartiles)
    aggregates = _aggregate(records, group_columns, value_columns, quartiles)
    return ExperimentResult(
        columns=columns,
        records=records,
        aggregate_columns=agg_cols,
        aggregates=aggregates,
        group_columns=group_columns,
        value_columns=value_columns,
        quartiles=quartiles,
        tables=tables or {},
        n_faults=sum(1 for r in records if r.get("fault")),
    )


def _guarded(fn, payload) -> dict:
    """Run one job; an exception becomes the job's fault message."""
    try:
        return fn(payload)
    except Exception as exc:
        return {"fault": f"{type(exc).__name__}: {exc}"}


def _run_jobs(fn, payloads: list, workers: int) -> list:
    job = functools.partial(_guarded, fn)
    if workers > 1 and len(payloads) > 1:
        # One job at a time: job costs vary several-fold across cells, and
        # chunks leave a worker idle at the end.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, payloads))
    return [job(p) for p in payloads]


def _records(keys: list[dict], outcomes: list[dict], values) -> list[dict]:
    """One record per job: its key, then its outcome. The value columns of
    a faulted job are NaN."""
    nan = dict.fromkeys(values, float("nan"))
    return [{**key, **nan, "fault": "", **out} for key, out in zip(keys, outcomes)]


def _pipeline_payload(
    spec: SweepSpec, index: int, trial: int, overrides: dict, **extra
) -> dict:
    """Job of one pipeline run: the base config with ``overrides``, its
    network seeded by (index, trial) and its task by the trial alone."""
    cfg = replace(
        spec.base,
        **overrides,
        seed=derive_seed(spec.master_seed, _NET_STREAM, index, trial),
    )
    return {
        "cfg": asdict(cfg),
        "task": spec.task,
        "task_seed": derive_seed(spec.master_seed, _TASK_STREAM, trial),
        "task_kwargs": spec.task_kwargs,
        **extra,
    }


def _pipeline_job(payload: dict) -> dict:
    cfg = ReservoirConfig(**payload["cfg"])
    data = make_task(
        payload["task"],
        cfg.train_span + cfg.len_test,
        seed=payload["task_seed"],
        **payload["task_kwargs"],
    )
    result = run_pipeline(cfg, data)
    r, _ = order_parameter(result.dev_phases)
    record = {"test_mse": result.test_mse, "train_mse": result.train_mse, "order_r": r}
    if "k_max" in payload:
        curve = memory_capacity(
            cfg, result.network, k_max=payload["k_max"], seed=payload["mc_seed"]
        )
        record["mc_total"] = curve.total
        record["mc_curve"] = curve.coefficients
    return record


def run_grid_sweep(spec: SweepSpec) -> ExperimentResult:
    """Pipeline error and post-development synchrony over a parameter grid.

    Cells come from the cartesian product of the spec axes (typically the
    coupling strength and the spectral-radius target). Per-cell faults are
    recorded in the result rather than aborting the sweep.
    """
    axis_names = list(spec.axes.keys())
    payloads = []
    keys = []
    for ci, cell in enumerate(spec.cells()):
        for t in range(spec.trials):
            payloads.append(_pipeline_payload(spec, ci, t, cell))
            keys.append(
                {
                    "cell_index": ci,
                    **cell,
                    "trial": t,
                    "net_seed": payloads[-1]["cfg"]["seed"],
                    "task_seed": payloads[-1]["task_seed"],
                }
            )
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = _records(keys, outcomes, _PIPELINE_VALUES)
    columns = (
        ["cell_index"]
        + axis_names
        + ["trial", "net_seed", "task_seed", *_PIPELINE_VALUES, "fault"]
    )
    return _make_result(
        records,
        columns,
        group_columns=["cell_index"] + axis_names,
        value_columns=list(_PIPELINE_VALUES),
    )


def run_mc_study(
    spec: SweepSpec,
    sample_nodes: list[tuple[float, float]],
    k_max: int = 100,
) -> ExperimentResult:
    """Memory capacity at sampled (coupling strength, radius) grid nodes.

    Each node develops on the task, then the frozen network is probed with
    fresh uniform input. The per-delay curves land in the ``mc_curve``
    table of the result.
    """
    for lam, rho in sample_nodes:
        if "lam" in spec.axes and lam not in spec.axes["lam"]:
            raise ValueError(f"node coupling strength {lam} outside the swept grid")
        if "spectral_target" in spec.axes and rho not in spec.axes["spectral_target"]:
            raise ValueError(f"node spectral target {rho} outside the swept grid")
    payloads = []
    keys = []
    for ni, (lam, rho) in enumerate(sample_nodes):
        node = {"lam": lam, "spectral_target": rho}
        for t in range(spec.trials):
            payloads.append(
                _pipeline_payload(
                    spec,
                    ni,
                    t,
                    node,
                    k_max=k_max,
                    mc_seed=derive_seed(spec.master_seed, _MC_STREAM, ni, t),
                )
            )
            keys.append({"node_index": ni, **node, "trial": t})
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = _records(keys, outcomes, _PIPELINE_VALUES + ("mc_total",))
    curve_rows = [
        {**key, "delay": k, "coefficient": float(coeff)}
        for key, rec in zip(keys, records)
        for k, coeff in enumerate(rec.pop("mc_curve", ()), start=1)
    ]
    key_columns = ["node_index", "lam", "spectral_target", "trial"]
    columns = key_columns + [*_PIPELINE_VALUES, "mc_total", "fault"]
    tables = {"mc_curve": (key_columns + ["delay", "coefficient"], curve_rows)}
    return _make_result(
        records,
        columns,
        group_columns=["node_index", "lam", "spectral_target"],
        value_columns=["test_mse", "order_r", "mc_total"],
        tables=tables,
    )


def run_sparsity_sweep(spec: SweepSpec) -> ExperimentResult:
    """Error statistics with and without development across densities.

    The adaptive and frozen runs of the same (density, trial) share their
    network seed, so the comparison is paired.
    """
    densities = spec.axes.get("density")
    if densities is None:
        raise ValueError("sparsity sweep needs a 'density' axis")
    payloads = []
    keys = []
    for di, density in enumerate(densities):
        for adaptive in (True, False):
            cell = {"density": density, "adaptive": adaptive}
            for t in range(spec.trials):
                payloads.append(_pipeline_payload(spec, di, t, cell))
                keys.append({"density_index": di, **cell, "trial": t})
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = _records(keys, outcomes, _PIPELINE_VALUES)
    columns = ["density_index", "density", "adaptive", "trial"]
    columns += [*_PIPELINE_VALUES, "fault"]
    return _make_result(
        records,
        columns,
        group_columns=["density_index", "density", "adaptive"],
        value_columns=["test_mse", "train_mse"],
    )


def _develop_inputs(spec: SweepSpec, steps: int) -> np.ndarray:
    """The first ``steps`` inputs of the spec's task, shared by every
    develop-only job of a study."""
    data = make_task(
        spec.task,
        max(steps + 1, 11),
        seed=derive_seed(spec.master_seed, _TASK_STREAM, 0),
        **spec.task_kwargs,
    )
    return data.inputs[:steps]


def _astringency_job(payload: dict) -> dict:
    cfg = ReservoirConfig(**payload["cfg"])
    net = reinitialize_weights(
        cfg.build_network(), payload["value_seed"], spectral_target=cfg.spectral_target
    )
    initial = net.coupling
    develop(net, payload["inputs"], cfg.spectral_target)
    return {"initial": initial, "developed": net.coupling}


def run_astringency(spec: SweepSpec, beta: float = 0.0) -> ExperimentResult:
    """Convergence of differently initialized coupling matrices.

    Per density, ``spec.trials`` networks share one sparsity pattern and
    one frequency draw but reseed their initial live weights; all develop
    under the same input stream. Distances to the first trial's matrix are
    reported before and after development, in both signed and absolute
    modes.
    """
    if spec.trials < 2:
        raise ValueError("astringency needs at least 2 trials")
    densities = spec.axes.get("density")
    if densities is None:
        raise ValueError("astringency needs a 'density' axis")
    cfg0 = replace(spec.base, beta=beta)
    inputs = _develop_inputs(spec, max(cfg0.len_adev - 1, 0))
    payloads = []
    for di, density in enumerate(densities):
        mask_seed = derive_seed(spec.master_seed, _NET_STREAM, di, 0)
        cfg = replace(cfg0, density=density, seed=mask_seed)
        for t in range(spec.trials):
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "value_seed": derive_seed(spec.master_seed, _VALUE_STREAM, di, t),
                    "inputs": inputs,
                }
            )
    outcomes = _run_jobs(_astringency_job, payloads, spec.workers)
    distances = [
        f"{stage}_{mode}"
        for stage in ("initial", "developed")
        for mode in ("signed", "absolute")
    ]
    records = []
    for di, density in enumerate(densities):
        reference, *others = outcomes[di * spec.trials : (di + 1) * spec.trials]
        for t, out in enumerate(others, start=1):
            rec = {"density_index": di, "density": density, "trial": t}
            rec.update(dict.fromkeys(distances, float("nan")))
            if "fault" in reference:
                rec["fault"] = f"reference trial: {reference['fault']}"
            elif "fault" in out:
                rec["fault"] = out["fault"]
            else:
                rec["fault"] = ""
                for stage in ("initial", "developed"):
                    for mode in ("signed", "absolute"):
                        rec[f"{stage}_{mode}"] = matrix_distance(
                            out[stage], reference[stage], mode
                        )
            records.append(rec)
    columns = ["density_index", "density", "trial", *distances, "fault"]
    return _make_result(
        records,
        columns,
        group_columns=["density_index", "density"],
        value_columns=distances,
    )


def run_beta_sweep(spec: SweepSpec) -> ExperimentResult:
    """Error and synchrony across the character parameter.

    Uses the spec's ``beta`` axis (by default 25 points from -pi to pi in
    steps of pi/12). Aggregates carry full boxplot statistics.
    """
    if "beta" not in spec.axes:
        spec = replace(spec, axes={**spec.axes, "beta": default_beta_grid()})
    result = run_grid_sweep(spec)
    return _make_result(
        result.records,
        result.columns,
        group_columns=result.group_columns,
        value_columns=["test_mse", "train_mse", "order_r"],
        quartiles=True,
    )


def _weight_job(payload: dict) -> dict:
    cfg = ReservoirConfig(**payload["cfg"])
    net = cfg.build_network(weight_init=payload["weight_init"])
    bins = payload["bins"]
    snapshots = []

    def on_step(step, current):
        _, counts = weight_histogram(current.coupling, current.mask, bins)
        snapshots.append((step, counts))

    develop(net, payload["inputs"], cfg.spectral_target, on_step)
    centers, final_counts = weight_histogram(net.coupling, net.mask, bins)
    out = {
        "snapshots": snapshots,
        "centers": centers,
        "final_counts": final_counts,
        "n_live": int(net.mask.sum()),
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
    betas: list[float],
    bins: int = 50,
    dev_steps: int | None = None,
) -> ExperimentResult:
    """Weight distributions before and after development.

    Live weights start from a beta distribution with the given shape
    parameters (mapped onto [-1, 1]); the network develops on the task
    input for ``dev_steps`` steps (the development length by default). The
    result records a beta fit of the developed weights per combination and
    a per-step histogram table tracking the distribution's evolution.
    """
    if not initial_params or not betas:
        raise ValueError("initial_params and betas must be nonempty")
    steps = dev_steps if dev_steps is not None else spec.base.len_adev
    inputs = _develop_inputs(spec, steps)
    payloads = []
    keys = []
    for ci, ((a, b), beta) in enumerate(itertools.product(initial_params, betas)):
        for t in range(spec.trials):
            cfg = replace(
                spec.base,
                beta=beta,
                seed=derive_seed(spec.master_seed, _NET_STREAM, ci, t),
            )
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "weight_init": (a, b),
                    "inputs": inputs,
                    "bins": bins,
                }
            )
            keys.append(
                {
                    "combo_index": ci,
                    "initial_a": a,
                    "initial_b": b,
                    "beta": beta,
                    "trial": t,
                }
            )
    outcomes = _run_jobs(_weight_job, payloads, spec.workers)
    records = _records(keys, outcomes, ("n_live", "fitted_a", "fitted_b"))
    snapshot_rows = []
    final_rows = []
    for rec in records:
        job = {"combo_index": rec["combo_index"], "trial": rec["trial"]}
        centers = rec.pop("centers", ())
        for step, counts in rec.pop("snapshots", ()):
            for center, count in zip(centers, counts):
                snapshot_rows.append(
                    {
                        **job,
                        "step": step,
                        "bin_center": float(center),
                        "count": int(count),
                    }
                )
        for center, count in zip(centers, rec.pop("final_counts", ())):
            final_rows.append({**job, "bin_center": float(center), "count": int(count)})
    columns = [
        "combo_index",
        "initial_a",
        "initial_b",
        "beta",
        "trial",
        "n_live",
        "fitted_a",
        "fitted_b",
        "fault",
    ]
    tables = {
        "snapshots": (
            ["combo_index", "trial", "step", "bin_center", "count"],
            snapshot_rows,
        ),
        "final_hist": (
            ["combo_index", "trial", "bin_center", "count"],
            final_rows,
        ),
    }
    return _make_result(
        records,
        columns,
        group_columns=["combo_index", "initial_a", "initial_b", "beta"],
        value_columns=["fitted_a", "fitted_b"],
        tables=tables,
    )
