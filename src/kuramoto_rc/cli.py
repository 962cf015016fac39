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
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from decimal import Decimal
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .experiments import (
    ExperimentResult,
    SweepSpec,
    default_beta_grid,
    default_lambda_grid,
    default_rho_grid,
    run_astringency,
    run_beta_sweep,
    run_grid_sweep,
    run_mc_study,
    run_single,
    run_sparsity_sweep,
    run_spectrum,
    run_weight_distribution_study,
)
from .metrics import MC_WASHOUT
from .reservoir import ReservoirConfig

OUTDIR_ENV = "KURAMOTO_RC_OUTDIR"

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
COMMANDS = tuple(TRIAL_DEFAULTS)

KEY_ALIASES = {"lambda": "lam", "rho": "spectral_target"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    """Comma-separated floats, or start:stop:step computed in decimal, so
    that 0.1:0.3:0.1 gives 0.1, 0.2 and 0.3 as written."""
    text = text.strip()
    if ":" in text and "," not in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        if not all(map(math.isfinite, parts)):
            raise ValueError(f"range bounds and step must be finite, got {text!r}")
        start, stop, step = (Decimal(repr(p)) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = math.floor((stop - start) / step) + 1
        values = [float(start + i * step) for i in range(count)]
    else:
        values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"no values found in {text!r}")
    return values


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


# Parsers of the list- and pair-valued study options, kept as field metadata.
_FLOATS = {"parse": _parse_float_list}
_PAIRS = {"parse": _parse_pair_list}


@dataclass
class _Command:
    """The study to run and its task, listed first."""

    command: str = "run"
    task: str = "narma10"


@dataclass
class _StudyOptions:
    """Study and output settings, listed after the reservoir fields. A
    ``parse`` metadata entry names the parser of an option whose type has
    none."""

    trials: int | None = None
    workers: int = 1
    lambda_grid: list = field(default_factory=default_lambda_grid, metadata=_FLOATS)
    rho_grid: list = field(default_factory=default_rho_grid, metadata=_FLOATS)
    density_grid: list = field(
        default_factory=lambda: [0.05, 0.1, 0.2, 0.5, 1.0], metadata=_FLOATS
    )
    beta_grid: list = field(default_factory=default_beta_grid, metadata=_FLOATS)
    k_max: int = 100
    nodes: list | None = field(default=None, metadata=_PAIRS)
    weight_inits: list = field(
        default_factory=lambda: [
            (0.4, 0.4),
            (5.0, 1.0),
            (1.0, 5.0),
            (10.0, 10.0),
            (1.0, 1.0),
            (0.0001, 0.0001),
        ],
        metadata=_PAIRS,
    )
    weight_betas: list = field(
        default_factory=lambda: [-float(np.pi) / 2, 0.0, float(np.pi) / 2],
        metadata=_FLOATS,
    )
    bins: int = 50
    length: int = 1200
    column: str | None = None
    normalize: tuple | None = field(default=None, metadata={"parse": _parse_pair})
    outdir: str = ""
    format: str = "csv"


@dataclass
class RunConfig(_StudyOptions, ReservoirConfig, _Command):
    """Fully resolved run settings; every field has a default.

    Fields are collected in reverse MRO: the command and task, every
    ReservoirConfig field, then the study options; config.txt lists them
    in this order. This ``__post_init__`` replaces ReservoirConfig's, so
    the reservoir fields are validated by ``reservoir_config()`` alone,
    which ``spectrum`` never calls.
    """

    def __post_init__(self):
        if not self.outdir:
            self.outdir = os.environ.get(OUTDIR_ENV, "results")
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; one of {COMMANDS}")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        minima = {"trials": 1, "workers": 1, "bins": 1, "k_max": 1, "length": 2, "seed": 0}
        for key, low in minima.items():
            value = getattr(self, key)
            if value is not None and value < low:
                raise ValueError(f"{key} must be at least {low}")
        if self.k_max > MC_WASHOUT:
            raise ValueError(
                f"k_max must be at most {MC_WASHOUT}, the memory-capacity washout"
            )
        if not self.task.startswith("file:"):
            for key in ("column", "normalize"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{key} applies only to file: tasks")

    def reservoir_config(self) -> ReservoirConfig:
        values = {f.name: getattr(self, f.name) for f in fields(ReservoirConfig)}
        return ReservoirConfig(**values)

    def resolved_trials(self) -> int:
        return self.trials if self.trials is not None else TRIAL_DEFAULTS[self.command]


_TYPE_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}

# One parser per RunConfig field: its ``parse`` metadata, else the parser
# of its declared type (of ``T`` for ``T | None``).
_PARSERS = {
    name: RunConfig.__dataclass_fields__[name].metadata.get("parse")
    or _TYPE_PARSERS[(get_args(hint) or (hint,))[0]]
    for name, hint in get_type_hints(RunConfig).items()
}

# Keys whose unset value, None, is echoed as an empty string.
_OPTIONAL_KEYS = {f.name for f in fields(RunConfig) if f.default is None}


def _read_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
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
            if key in _OPTIONAL_KEYS:
                return None
            raise ValueError(f"config key {key!r}: empty value")
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


# Cell formats by exact type. A numpy scalar is unwrapped to its Python
# value first; any other type is written by ``str``.
_FORMATS = {
    float: lambda value: format(value, ".17g"),
    int: str,
    str: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
}


def _format_value(value) -> str:
    fmt = _FORMATS.get(type(value))
    if fmt is None:
        if isinstance(value, np.generic):
            value = value.item()
        fmt = _FORMATS.get(type(value), str)
    return fmt(value)


def _format_config_value(value) -> str:
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], tuple):
        return ";".join(
            ",".join(_format_value(x) for x in pair) for pair in value
        )
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(x) for x in value)
    return _format_value(value)


def write_result(
    result: ExperimentResult, fmt: str, outdir, config: RunConfig
) -> list[str]:
    """Write the records, aggregates, extra tables, and resolved config.

    Aggregates are recomputed from the records and must match what the
    study stored; a mismatch is a bug and faults the write. A table whose
    rows offer ``cells`` is written from those formatted cells, a block
    and a column at a time with no row dicts; other rows one dict at a
    time. Returns the list of files written.
    """
    recomputed = result.recompute_aggregates()
    # Compared by repr, so that the NaN statistics of a fully faulted cell
    # match their recomputation.
    if repr(recomputed) != repr(result.aggregates):
        raise RuntimeError("stored aggregates do not match recomputation")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def write_csv(name: str, columns: list[str], rows: Sequence[dict]):
        path = out / name
        if hasattr(rows, "cells"):
            cells = rows.cells(columns, _format_value)
        else:
            cells = ([_format_value(row.get(c)) for c in columns] for row in rows)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(cells)
        written.append(str(path))

    if fmt == "csv":
        write_csv("records.csv", result.columns, result.records)
        write_csv("aggregates.csv", result.aggregate_columns, result.aggregates)
        for name, (columns, rows) in result.tables.items():
            write_csv(f"table_{name}.csv", columns, rows)
    else:

        def encode(columns: list[str], rows: list[dict]) -> list[dict]:
            return [{c: _json_value(row.get(c)) for c in columns} for row in rows]

        payload = {
            "columns": result.columns,
            "records": encode(result.columns, result.records),
            "aggregate_columns": result.aggregate_columns,
            "aggregates": encode(result.aggregate_columns, result.aggregates),
            "tables": {
                name: {"columns": columns, "rows": encode(columns, rows)}
                for name, (columns, rows) in result.tables.items()
            },
        }
        path = out / "result.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        written.append(str(path))

    config_path = out / "config.txt"
    with open(config_path, "w", encoding="utf-8") as fh:
        for f in fields(config):
            fh.write(f"{f.name} = {_format_config_value(getattr(config, f.name))}\n")
    written.append(str(config_path))
    return written


def _json_value(value):
    """A JSON-ready cell; non-finite floats, which JSON cannot spell, become
    null."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _task_kwargs(cfg: RunConfig) -> dict:
    return {"column": cfg.column, "normalize": cfg.normalize}


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


def _diagonal_nodes(cfg: RunConfig) -> list[tuple[float, float]]:
    return [(float(lam), float(rho)) for lam, rho in zip(cfg.lambda_grid, cfg.rho_grid)]


def dispatch(cfg: RunConfig) -> int:
    """Execute the selected study and write its outputs.

    Returns 0 only when the study ran without any faulted cells.
    """
    command = cfg.command
    grid = {"lam": list(cfg.lambda_grid), "spectral_target": list(cfg.rho_grid)}
    if command == "run":
        result = run_single(_sweep_spec(cfg, {"lam": [cfg.lam]}))
    elif command == "spectrum":
        result = run_spectrum(cfg.task, cfg.length, cfg.seed, _task_kwargs(cfg))
    elif command == "sweep":
        result = run_grid_sweep(_sweep_spec(cfg, grid))
    elif command == "mc":
        nodes = cfg.nodes if cfg.nodes is not None else _diagonal_nodes(cfg)
        result = run_mc_study(_sweep_spec(cfg, grid), nodes, k_max=cfg.k_max)
    elif command == "sparsity":
        result = run_sparsity_sweep(_sweep_spec(cfg, {"density": list(cfg.density_grid)}))
    elif command == "astringency":
        result = run_astringency(_sweep_spec(cfg, {"density": list(cfg.density_grid)}))
    elif command == "beta-sweep":
        result = run_beta_sweep(_sweep_spec(cfg, {"beta": list(cfg.beta_grid)}))
    else:  # "weights"; RunConfig has validated the command
        spec = _sweep_spec(cfg, {"beta": list(cfg.weight_betas)})
        inits = [tuple(p) for p in cfg.weight_inits]
        result = run_weight_distribution_study(spec, inits, bins=cfg.bins)
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
