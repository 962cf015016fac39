"""Command-line harness: config resolution, study dispatch, and stable
tabular output.

Configuration precedence is built-in defaults, then the config file, then
command-line flags. The resolved configuration is echoed into the output
directory next to the result tables, and floating-point values are
serialized with 17 significant digits so reruns can be compared byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .experiments import (
    ExperimentResult,
    SweepSpec,
    _NET_STREAM,
    _PIPELINE_VALUES,
    _TASK_STREAM,
    _guarded,
    _make_result,
    _records,
    default_beta_grid,
    default_lambda_grid,
    default_rho_grid,
    derive_seed,
    run_astringency,
    run_beta_sweep,
    run_grid_sweep,
    run_mc_study,
    run_sparsity_sweep,
    run_weight_distribution_study,
)
from .network import order_parameter
from .reservoir import ReservoirConfig, run_pipeline
from .tasks import make_task, spectrum

OUTDIR_ENV = "KURAMOTO_RC_OUTDIR"

COMMANDS = (
    "run",
    "sweep",
    "mc",
    "sparsity",
    "astringency",
    "beta-sweep",
    "weights",
    "spectrum",
)

# Per-task benchmark defaults: development, training, and test lengths
# plus the coupling strength. File-backed tasks use the measured-series
# row.
TASK_DEFAULTS = {
    "narma10": {"len_adev": 100, "len_train": 900, "len_test": 500, "lam": 4.0},
    "mg17": {"len_adev": 100, "len_train": 2900, "len_test": 1000, "lam": 1.0},
    "mso12": {"len_adev": 100, "len_train": 1200, "len_test": 100, "lam": 4.0},
    "file": {"len_adev": 100, "len_train": 1700, "len_test": 500, "lam": 0.5},
}

# Defaults per experiment for the per-cell trial count.
TRIAL_DEFAULTS = {
    "run": 1,
    "sweep": 10,
    "mc": 10,
    "sparsity": 50,
    "astringency": 50,
    "beta-sweep": 50,
    "weights": 1,
    "spectrum": 1,
}

KEY_ALIASES = {"lambda": "lam", "rho": "spectral_target"}


class _RunConfigMethods:
    """Validation and derived values of a RunConfig."""

    def __post_init__(self):
        if not self.outdir:
            self.outdir = os.environ.get(OUTDIR_ENV, "results")
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; one of {COMMANDS}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be at least 1")

    def reservoir_config(self, seed: int | None = None) -> ReservoirConfig:
        values = {f.name: getattr(self, f.name) for f in fields(ReservoirConfig)}
        if seed is not None:
            values["seed"] = seed
        return ReservoirConfig(**values)

    def resolved_trials(self) -> int:
        return self.trials if self.trials is not None else TRIAL_DEFAULTS[self.command]


@dataclass
class _StudyOptions:
    """Study and output settings, listed after the reservoir fields."""

    trials: int | None = None
    workers: int = 1
    lambda_grid: list = field(default_factory=default_lambda_grid)
    rho_grid: list = field(default_factory=default_rho_grid)
    density_grid: list = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.5, 1.0])
    beta_grid: list = field(default_factory=default_beta_grid)
    k_max: int = 100
    nodes: list | None = None
    weight_inits: list = field(
        default_factory=lambda: [
            (0.4, 0.4),
            (5.0, 1.0),
            (1.0, 5.0),
            (10.0, 10.0),
            (1.0, 1.0),
            (0.0001, 0.0001),
        ]
    )
    weight_betas: list = field(
        default_factory=lambda: [-float(np.pi) / 2, 0.0, float(np.pi) / 2]
    )
    bins: int = 50
    length: int = 1200
    column: str | None = None
    normalize: tuple | None = None
    outdir: str = ""
    format: str = "csv"


def _field_specs(cls) -> list[tuple]:
    return [
        (f.name, f.type, field(default=f.default, default_factory=f.default_factory))
        for f in fields(cls)
    ]


# The command and task, every ReservoirConfig field (same names and
# defaults), then the study options; config.txt lists them in this order.
RunConfig = make_dataclass(
    "RunConfig",
    [("command", str, "run"), ("task", str, "narma10")]
    + _field_specs(ReservoirConfig)
    + _field_specs(_StudyOptions),
    bases=(_RunConfigMethods,),
    namespace={
        "__module__": __name__,
        "__doc__": "Fully resolved run settings; every field has a default.",
    },
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if ":" in text and "," not in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [float(start + i * step) for i in range(count)]
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_pair_list(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [float(p) for p in chunk.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b' pairs separated by ';', got {text!r}")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise ValueError(f"no pairs found in {text!r}")
    return pairs


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {text!r}")
    return (parts[0], parts[1])


_TYPE_PARSERS = {int: int, float: float, bool: _parse_bool}

_PARSERS = {
    "command": str,
    "task": str,
    **{
        name: _TYPE_PARSERS[kind]
        for name, kind in get_type_hints(ReservoirConfig).items()
    },
    "trials": int,
    "workers": int,
    "lambda_grid": _parse_float_list,
    "rho_grid": _parse_float_list,
    "density_grid": _parse_float_list,
    "beta_grid": _parse_float_list,
    "k_max": int,
    "nodes": _parse_pair_list,
    "weight_inits": _parse_pair_list,
    "weight_betas": _parse_float_list,
    "bins": int,
    "length": int,
    "column": str,
    "normalize": _parse_pair,
    "outdir": str,
    "format": str,
}


def _read_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    return entries


def _canonical(entries: dict) -> dict:
    out = {}
    for key, value in entries.items():
        key = KEY_ALIASES.get(key, key)
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value):
    if isinstance(value, str):
        if value == "":  # echoed form of an unset optional key
            return None
        try:
            return _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return value


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Resolve the run configuration.

    Precedence is built-in defaults (including the per-task benchmark
    rows), then the config file, then ``overrides`` (command-line flags).
    Unknown keys raise immediately so typos never pass silently.
    """
    file_entries = _canonical(_read_config_file(path)) if path else {}
    override_entries = _canonical(overrides or {})
    merged = {**file_entries, **override_entries}
    task = merged.get("task", "narma10")
    if isinstance(task, str) and task.startswith("file:"):
        task_key = "file"
    else:
        task_key = task
    if task_key not in TASK_DEFAULTS:
        raise ValueError(
            f"unknown task {task!r}; one of narma10, mg17, mso12, file:<path>"
        )
    settings = dict(TASK_DEFAULTS[task_key])
    settings.update(merged)
    kwargs = {key: _convert(key, value) for key, value in settings.items()}
    return RunConfig(**kwargs)


# Exact-type shortcuts for the cell types the studies write; any other
# type, numpy scalars included, goes through the isinstance chain.
_EXACT_FORMATS = {
    float: lambda value: format(value, ".17g"),
    int: str,
    str: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
}


def _format_value(value) -> str:
    exact = _EXACT_FORMATS.get(type(value))
    if exact is not None:
        return exact(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _format_config_value(value) -> str:
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], tuple):
        return ";".join(
            ",".join(_format_value(x) for x in pair) for pair in value
        )
    if isinstance(value, tuple):
        return ",".join(_format_value(x) for x in value)
    if isinstance(value, list):
        return ",".join(_format_value(x) for x in value)
    return _format_value(value)


def write_result(
    result: ExperimentResult, fmt: str, outdir, config: RunConfig
) -> list[str]:
    """Write the records, aggregates, extra tables, and resolved config.

    Aggregates are recomputed from the records and must match what the
    study stored; a mismatch is a bug and faults the write. Returns the
    list of files written.
    """
    recomputed = result.recompute_aggregates()
    # Compared by repr, so that the NaN statistics of a fully faulted cell
    # match their recomputation.
    if repr(recomputed) != repr(result.aggregates):
        raise RuntimeError("stored aggregates do not match recomputation")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write_csv(name: str, columns: list[str], rows: list[dict]):
        path = out / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_value(row.get(c)) for c in columns])
        written.append(str(path))

    if fmt == "csv":
        write_csv("records.csv", result.columns, result.records)
        write_csv("aggregates.csv", result.aggregate_columns, result.aggregates)
        for name, (columns, rows) in result.tables.items():
            write_csv(f"table_{name}.csv", columns, rows)
    else:
        payload = {
            "columns": result.columns,
            "records": [
                {c: _json_value(rec.get(c)) for c in result.columns}
                for rec in result.records
            ],
            "aggregate_columns": result.aggregate_columns,
            "aggregates": [
                {c: _json_value(rec.get(c)) for c in result.aggregate_columns}
                for rec in result.aggregates
            ],
            "tables": {
                name: {
                    "columns": columns,
                    "rows": [
                        {c: _json_value(r.get(c)) for c in columns} for r in rows
                    ],
                }
                for name, (columns, rows) in result.tables.items()
            },
        }
        path = out / "result.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(str(path))

    config_path = out / "config.txt"
    with open(config_path, "w", encoding="utf-8") as fh:
        for f in fields(config):
            fh.write(f"{f.name} = {_format_config_value(getattr(config, f.name))}\n")
    written.append(str(config_path))
    return written


def _json_value(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _single_run_result(cfg: RunConfig) -> ExperimentResult:
    # Seeded exactly like cell 0, trial 0 of a sweep, so a 1x1 sweep and a
    # single run agree; a fault is recorded the same way too.
    net_seed = derive_seed(cfg.seed, _NET_STREAM, 0, 0)
    task_seed = derive_seed(cfg.seed, _TASK_STREAM, 0)
    rc = cfg.reservoir_config(seed=net_seed)

    def job(rc: ReservoirConfig) -> dict:
        data = make_task(
            cfg.task,
            rc.train_span + rc.len_test,
            seed=task_seed,
            column=cfg.column,
            normalize=cfg.normalize,
        )
        result = run_pipeline(rc, data)
        r, _ = order_parameter(result.dev_phases)
        predictions = [
            {
                "step": i,
                "target": float(data.targets[rc.train_span + i]),
                "prediction": float(result.predictions[i]),
            }
            for i in range(rc.len_test)
        ]
        return {
            "test_mse": result.test_mse,
            "train_mse": result.train_mse,
            "order_r": r,
            "predictions": predictions,
        }

    outcome = _guarded(job, rc)
    prediction_rows = outcome.pop("predictions", [])
    key = {
        "cell_index": 0,
        "lam": cfg.lam,
        "trial": 0,
        "net_seed": net_seed,
        "task_seed": task_seed,
    }
    records = _records([key], [outcome], _PIPELINE_VALUES)
    return _make_result(
        records,
        list(records[0]),
        group_columns=["cell_index", "lam"],
        value_columns=list(_PIPELINE_VALUES),
        tables={
            "predictions": (["step", "target", "prediction"], prediction_rows)
        },
    )


def _spectrum_result(cfg: RunConfig) -> ExperimentResult:
    task_seed = derive_seed(cfg.seed, _TASK_STREAM, 0)
    data = make_task(
        cfg.task,
        cfg.length,
        seed=task_seed,
        column=cfg.column,
        normalize=cfg.normalize,
    )
    freqs, mags = spectrum(data.inputs[: cfg.length])
    records = [
        {"bin": i, "frequency": float(freqs[i]), "magnitude": float(mags[i]), "fault": ""}
        for i in range(freqs.size)
    ]
    return _make_result(
        records,
        ["bin", "frequency", "magnitude", "fault"],
        group_columns=["bin"],
        value_columns=["magnitude"],
    )


def _sweep_spec(cfg: RunConfig, axes: dict) -> SweepSpec:
    return SweepSpec(
        task=cfg.task,
        base=cfg.reservoir_config(),
        axes=axes,
        trials=cfg.resolved_trials(),
        master_seed=cfg.seed,
        workers=cfg.workers,
        task_kwargs=_task_kwargs(cfg),
    )


def _task_kwargs(cfg: RunConfig) -> dict:
    kwargs = {}
    if cfg.column is not None:
        kwargs["column"] = cfg.column
    if cfg.normalize is not None:
        kwargs["normalize"] = cfg.normalize
    return kwargs


def _diagonal_nodes(cfg: RunConfig) -> list[tuple[float, float]]:
    lams = cfg.lambda_grid
    rhos = cfg.rho_grid
    count = min(len(lams), len(rhos))
    return [(float(lams[i]), float(rhos[i])) for i in range(count)]


def dispatch(cfg: RunConfig) -> int:
    """Execute the selected study and write its outputs.

    Returns 0 only when the study ran without any faulted cells.
    """
    command = cfg.command
    if command == "run":
        result = _single_run_result(cfg)
    elif command == "spectrum":
        result = _spectrum_result(cfg)
    elif command == "sweep":
        result = run_grid_sweep(
            _sweep_spec(
                cfg, {"lam": list(cfg.lambda_grid), "spectral_target": list(cfg.rho_grid)}
            )
        )
    elif command == "mc":
        spec = _sweep_spec(
            cfg, {"lam": list(cfg.lambda_grid), "spectral_target": list(cfg.rho_grid)}
        )
        nodes = cfg.nodes if cfg.nodes is not None else _diagonal_nodes(cfg)
        result = run_mc_study(spec, nodes, k_max=cfg.k_max)
    elif command == "sparsity":
        result = run_sparsity_sweep(_sweep_spec(cfg, {"density": list(cfg.density_grid)}))
    elif command == "astringency":
        result = run_astringency(_sweep_spec(cfg, {"density": list(cfg.density_grid)}))
    elif command == "beta-sweep":
        result = run_beta_sweep(_sweep_spec(cfg, {"beta": list(cfg.beta_grid)}))
    elif command == "weights":
        spec = _sweep_spec(cfg, {"beta": list(cfg.weight_betas)})
        result = run_weight_distribution_study(
            spec,
            [tuple(p) for p in cfg.weight_inits],
            [float(b) for b in cfg.weight_betas],
            bins=cfg.bins,
        )
    else:  # unreachable: RunConfig validates the command
        raise ValueError(f"unknown command {command!r}")
    write_result(result, cfg.format, cfg.outdir, cfg)
    print(
        f"{command}: wrote {len(result.records)} records to {cfg.outdir}"
        + (f" ({result.n_faults} faulted cells)" if result.n_faults else "")
    )
    return 0 if result.n_faults == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuramoto-rc",
        description="Kuramoto-oscillator reservoir computing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"{command} study")
        p.add_argument("--config", default=None, help="key = value config file")
        for key in _PARSERS:
            if key == "command":
                continue
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
        p.add_argument("--lambda", dest="lam", default=None)
        p.add_argument("--rho", dest="spectral_target", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config", "command") and value is not None
    }
    overrides["command"] = args.command
    try:
        cfg = parse_config(args.config, overrides)
        return dispatch(cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
