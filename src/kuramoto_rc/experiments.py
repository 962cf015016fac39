"""Seeded batch studies over the reservoir parameter space.

Every study expands into a list of independent jobs keyed by (cell index,
trial index). Job seeds are derived from the master seed and those
indices, so results are identical no matter how many workers execute the
jobs or in which order they finish, and any single record can be re-run
in isolation. Faulted cells are recorded, counted, and left out of the
aggregate rows.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .metrics import beta_fit, matrix_distance, memory_capacity, weight_histogram
from .network import (
    DEFAULT_SETTINGS,
    OscillatorNetwork,
    _rescale_warm,
    coupling_step,
    init_network,
    order_parameter,
    phase_step,
    reinitialize_weights,
)
from .reservoir import ReservoirConfig, run_pipeline
from .tasks import make_task

# Seed-stream tags; fixed so derived seeds never change between versions.
_TASK_STREAM = 1
_NET_STREAM = 2
_MC_STREAM = 3
_VALUE_STREAM = 4

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


def _run_jobs(fn, payloads: list, workers: int) -> list:
    if workers > 1 and len(payloads) > 1:
        # One job at a time: job costs vary several-fold across cells, and
        # chunks leave a worker idle at the end.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def _task_length(cfg: ReservoirConfig) -> int:
    span = cfg.len_train + cfg.len_test
    if cfg.extra_train_after_dev:
        span += cfg.len_adev
    return span


def _pipeline_job(payload: dict) -> dict:
    cfg = ReservoirConfig(**payload["cfg"])
    record: dict = {
        "test_mse": float("nan"),
        "train_mse": float("nan"),
        "order_r": float("nan"),
        "fault": "",
    }
    try:
        data = make_task(
            payload["task"],
            _task_length(cfg),
            seed=payload["task_seed"],
            **payload.get("task_kwargs", {}),
        )
        result = run_pipeline(cfg, data)
        r, _ = order_parameter(result.dev_phases)
        record.update(
            test_mse=result.test_mse, train_mse=result.train_mse, order_r=r
        )
        if "k_max" in payload:
            curve = memory_capacity(
                cfg,
                result.network,
                k_max=payload["k_max"],
                seed=payload["mc_seed"],
            )
            record["mc_total"] = curve.total
            record["mc_curve"] = curve.coefficients
    except Exception as exc:
        record["fault"] = f"{type(exc).__name__}: {exc}"
        if "k_max" in payload:
            record["mc_total"] = float("nan")
            record["mc_curve"] = np.full(payload["k_max"], np.nan)
    return record


def run_grid_sweep(spec: SweepSpec) -> ExperimentResult:
    """Pipeline error and post-development synchrony over a parameter grid.

    Cells come from the cartesian product of the spec axes (typically the
    coupling strength and the spectral-radius target). Per-cell faults are
    recorded in the result rather than aborting the sweep.
    """
    cells = spec.cells()
    axis_names = list(spec.axes.keys())
    payloads = []
    keys = []
    for ci, cell in enumerate(cells):
        for t in range(spec.trials):
            cfg = replace(
                spec.base,
                **cell,
                seed=derive_seed(spec.master_seed, _NET_STREAM, ci, t),
            )
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "task": spec.task,
                    "task_seed": derive_seed(spec.master_seed, _TASK_STREAM, t),
                    "task_kwargs": spec.task_kwargs,
                }
            )
            keys.append((ci, cell, t, cfg.seed, payloads[-1]["task_seed"]))
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = []
    for (ci, cell, t, net_seed, task_seed), out in zip(keys, outcomes):
        rec = {"cell_index": ci, **cell, "trial": t}
        rec["net_seed"] = net_seed
        rec["task_seed"] = task_seed
        rec.update(out)
        records.append(rec)
    columns = (
        ["cell_index"]
        + axis_names
        + ["trial", "net_seed", "task_seed", "test_mse", "train_mse", "order_r", "fault"]
    )
    return _make_result(
        records,
        columns,
        group_columns=["cell_index"] + axis_names,
        value_columns=["test_mse", "train_mse", "order_r"],
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
        for t in range(spec.trials):
            cfg = replace(
                spec.base,
                lam=lam,
                spectral_target=rho,
                seed=derive_seed(spec.master_seed, _NET_STREAM, ni, t),
            )
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "task": spec.task,
                    "task_seed": derive_seed(spec.master_seed, _TASK_STREAM, t),
                    "task_kwargs": spec.task_kwargs,
                    "k_max": k_max,
                    "mc_seed": derive_seed(spec.master_seed, _MC_STREAM, ni, t),
                }
            )
            keys.append((ni, lam, rho, t))
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = []
    curve_rows = []
    for (ni, lam, rho, t), out in zip(keys, outcomes):
        curve = out.pop("mc_curve")
        rec = {"node_index": ni, "lam": lam, "spectral_target": rho, "trial": t}
        rec.update(out)
        records.append(rec)
        if not out["fault"]:
            for k, coeff in enumerate(curve, start=1):
                curve_rows.append(
                    {
                        "node_index": ni,
                        "lam": lam,
                        "spectral_target": rho,
                        "trial": t,
                        "delay": k,
                        "coefficient": float(coeff),
                    }
                )
    columns = [
        "node_index",
        "lam",
        "spectral_target",
        "trial",
        "test_mse",
        "train_mse",
        "order_r",
        "mc_total",
        "fault",
    ]
    tables = {
        "mc_curve": (
            ["node_index", "lam", "spectral_target", "trial", "delay", "coefficient"],
            curve_rows,
        )
    }
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
            for t in range(spec.trials):
                cfg = replace(
                    spec.base,
                    density=density,
                    adaptive=adaptive,
                    seed=derive_seed(spec.master_seed, _NET_STREAM, di, t),
                )
                payloads.append(
                    {
                        "cfg": asdict(cfg),
                        "task": spec.task,
                        "task_seed": derive_seed(spec.master_seed, _TASK_STREAM, t),
                        "task_kwargs": spec.task_kwargs,
                    }
                )
                keys.append((di, density, adaptive, t))
    outcomes = _run_jobs(_pipeline_job, payloads, spec.workers)
    records = []
    for (di, density, adaptive, t), out in zip(keys, outcomes):
        rec = {
            "density_index": di,
            "density": density,
            "adaptive": adaptive,
            "trial": t,
        }
        rec.update(out)
        records.append(rec)
    columns = [
        "density_index",
        "density",
        "adaptive",
        "trial",
        "test_mse",
        "train_mse",
        "order_r",
        "fault",
    ]
    return _make_result(
        records,
        columns,
        group_columns=["density_index", "density", "adaptive"],
        value_columns=["test_mse", "train_mse"],
    )


def _develop_inputs(spec: SweepSpec, cfg: ReservoirConfig, steps: int) -> np.ndarray:
    data = make_task(
        spec.task,
        max(steps + 1, 11),
        seed=derive_seed(spec.master_seed, _TASK_STREAM, 0),
        **spec.task_kwargs,
    )
    return data.inputs


def _develop_only(
    cfg: ReservoirConfig,
    inputs: np.ndarray,
    net: OscillatorNetwork,
    steps: int,
    on_step=None,
) -> OscillatorNetwork:
    """Run the development stage alone: per step, a phase update, a
    coupling update, and a rescale to the target radius."""
    warm = None
    for i in range(steps):
        phase_step(net, inputs[i])
        coupling_step(net)
        warm = _rescale_warm(net, cfg.spectral_target, DEFAULT_SETTINGS, warm)
        if on_step is not None:
            on_step(i + 1, net)
    return net


def _astringency_job(payload: dict) -> np.ndarray:
    cfg = ReservoirConfig(**payload["cfg"])
    base = init_network(
        cfg.n,
        cfg.density,
        payload["mask_seed"],
        global_coupling=cfg.lam,
        character_parameter=cfg.beta,
        adaptation_rate=cfg.epsilon,
        timestep=cfg.dt,
        frequency_scale=cfg.frequency_scale,
    )
    net = reinitialize_weights(
        base, payload["value_seed"], spectral_target=cfg.spectral_target
    )
    inputs = np.asarray(payload["inputs"])
    _develop_only(cfg, inputs, net, payload["steps"])
    return net.coupling


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
    steps = max(cfg0.len_adev - 1, 0)
    inputs = _develop_inputs(spec, cfg0, steps)

    records = []
    payloads = []
    keys = []
    initial: dict[tuple[int, int], np.ndarray] = {}
    for di, density in enumerate(densities):
        mask_seed = derive_seed(spec.master_seed, _NET_STREAM, di, 0)
        cfg = replace(cfg0, density=density, seed=mask_seed)
        base = init_network(
            cfg.n,
            cfg.density,
            mask_seed,
            global_coupling=cfg.lam,
            character_parameter=cfg.beta,
            adaptation_rate=cfg.epsilon,
            timestep=cfg.dt,
            frequency_scale=cfg.frequency_scale,
        )
        for t in range(spec.trials):
            value_seed = derive_seed(spec.master_seed, _VALUE_STREAM, di, t)
            net = reinitialize_weights(
                base, value_seed, spectral_target=cfg.spectral_target
            )
            initial[(di, t)] = net.coupling
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "mask_seed": mask_seed,
                    "value_seed": value_seed,
                    "inputs": inputs[:steps],
                    "steps": steps,
                }
            )
            keys.append((di, density, t))
    developed_list = _run_jobs(_astringency_job, payloads, spec.workers)
    developed = {
        (di, t): K for (di, density, t), K in zip(keys, developed_list)
    }
    for di, density in enumerate(densities):
        K1_init = initial[(di, 0)]
        K1_dev = developed[(di, 0)]
        for t in range(1, spec.trials):
            records.append(
                {
                    "density_index": di,
                    "density": density,
                    "trial": t,
                    "initial_signed": matrix_distance(
                        initial[(di, t)], K1_init, "signed"
                    ),
                    "initial_absolute": matrix_distance(
                        initial[(di, t)], K1_init, "absolute"
                    ),
                    "developed_signed": matrix_distance(
                        developed[(di, t)], K1_dev, "signed"
                    ),
                    "developed_absolute": matrix_distance(
                        developed[(di, t)], K1_dev, "absolute"
                    ),
                    "fault": "",
                }
            )
    columns = [
        "density_index",
        "density",
        "trial",
        "initial_signed",
        "initial_absolute",
        "developed_signed",
        "developed_absolute",
        "fault",
    ]
    return _make_result(
        records,
        columns,
        group_columns=["density_index", "density"],
        value_columns=[
            "initial_signed",
            "initial_absolute",
            "developed_signed",
            "developed_absolute",
        ],
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
    net = init_network(
        cfg.n,
        cfg.density,
        payload["net_seed"],
        global_coupling=cfg.lam,
        character_parameter=cfg.beta,
        adaptation_rate=cfg.epsilon,
        timestep=cfg.dt,
        spectral_target=cfg.spectral_target,
        weight_init=payload["weight_init"],
        frequency_scale=cfg.frequency_scale,
    )
    inputs = np.asarray(payload["inputs"])
    bins = payload["bins"]
    snapshots = []

    def on_step(step, current):
        _, counts = weight_histogram(current.coupling, current.mask, bins)
        snapshots.append((step, counts))

    _develop_only(cfg, inputs, net, payload["steps"], on_step=on_step)
    centers, final_counts = weight_histogram(net.coupling, net.mask, bins)
    out = {
        "snapshots": snapshots,
        "centers": centers,
        "final_counts": final_counts,
        "n_live": int(net.mask.sum()),
        "fitted_a": float("nan"),
        "fitted_b": float("nan"),
        "fault": "",
    }
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
    inputs = _develop_inputs(spec, spec.base, steps)
    payloads = []
    keys = []
    for ci, ((a, b), beta) in enumerate(itertools.product(initial_params, betas)):
        for t in range(spec.trials):
            cfg = replace(spec.base, beta=beta)
            payloads.append(
                {
                    "cfg": asdict(cfg),
                    "net_seed": derive_seed(spec.master_seed, _NET_STREAM, ci, t),
                    "weight_init": (a, b),
                    "inputs": inputs[:steps],
                    "steps": steps,
                    "bins": bins,
                }
            )
            keys.append((ci, a, b, beta, t))
    outcomes = _run_jobs(_weight_job, payloads, spec.workers)
    records = []
    snapshot_rows = []
    final_rows = []
    for (ci, a, b, beta, t), out in zip(keys, outcomes):
        records.append(
            {
                "combo_index": ci,
                "initial_a": a,
                "initial_b": b,
                "beta": beta,
                "trial": t,
                "n_live": out["n_live"],
                "fitted_a": out["fitted_a"],
                "fitted_b": out["fitted_b"],
                "fault": out["fault"],
            }
        )
        centers = out["centers"]
        for step, counts in out["snapshots"]:
            for bi, count in enumerate(counts):
                snapshot_rows.append(
                    {
                        "combo_index": ci,
                        "trial": t,
                        "step": step,
                        "bin_center": float(centers[bi]),
                        "count": int(count),
                    }
                )
        for bi, count in enumerate(out["final_counts"]):
            final_rows.append(
                {
                    "combo_index": ci,
                    "trial": t,
                    "bin_center": float(centers[bi]),
                    "count": int(count),
                }
            )
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
