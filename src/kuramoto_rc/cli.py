"""Command-line harness: config resolution, study dispatch, and stable
tabular output.

Configuration precedence is built-in defaults, then the config file, then
command-line flags. Flags may come before or after the command; a value
that starts with ``-`` takes the ``--key=value`` form. Every resolved
setting but the output directory is echoed into ``config.txt`` next to the
result tables, and floating-point values are serialized with 17
significant digits, so the same study writes the same bytes in any
directory.
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
from .tasks import make_task

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

# Per-command defaults, applied over the task's row: the per-cell trial
# count, and the canonical beta = 0 of the astringency study.
COMMAND_DEFAULTS = {
    "run": {"trials": 1},
    "sweep": {"trials": 10},
    "mc": {"trials": 10},
    "sparsity": {"trials": 50},
    "astringency": {"trials": 50, "beta": 0.0},
    "beta-sweep": {"trials": 50},
    "weights": {"trials": 1},
    "spectrum": {"trials": 1},
}
COMMANDS = tuple(COMMAND_DEFAULTS)

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
    """Run settings; a row field or ``trials`` left None takes the command's
    row, else the task's, else (``beta``) ReservoirConfig's default.

    Fields are collected in reverse MRO: the command and task, every
    ReservoirConfig field, then the study options; config.txt lists them
    in this order, a redeclared field keeping its base place. This
    ``__post_init__`` replaces ReservoirConfig's, so the reservoir fields
    are validated by ``reservoir_config()`` alone, which ``spectrum``
    never calls.
    """

    len_adev: int | None = None
    len_train: int | None = None
    len_test: int | None = None
    lam: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not self.outdir:
            self.outdir = os.environ.get(OUTDIR_ENV, "results")
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; one of {COMMANDS}")
        row = "file" if self.task.startswith("file:") else self.task
        if row not in TASK_DEFAULTS:
            raise ValueError(
                f"unknown task {self.task!r}; one of narma10, mg17, mso12, file:<path>"
            )
        rows = {**TASK_DEFAULTS[row], **COMMAND_DEFAULTS[self.command]}
        for key, value in {"beta": ReservoirConfig.beta, **rows}.items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        minima = {"trials": 1, "workers": 1, "bins": 1, "k_max": 1, "length": 2, "seed": 0}
        for key, low in minima.items():
            value = getattr(self, key)
            if value < low:
                raise ValueError(f"{key} must be at least {low}")
        if self.k_max > MC_WASHOUT:
            raise ValueError(
                f"k_max must be at most {MC_WASHOUT}, the memory-capacity washout"
            )
        if not self.task.startswith("file:"):
            for key in ("column", "normalize"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{key} applies only to file: tasks")
        if self.normalize is not None and not all(map(math.isfinite, self.normalize)):
            raise ValueError("normalize bounds must be finite")

    def reservoir_config(self) -> ReservoirConfig:
        values = {f.name: getattr(self, f.name) for f in fields(ReservoirConfig)}
        return ReservoirConfig(**values)


_TYPE_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}

# One parser per RunConfig field: its ``parse`` metadata, else the parser
# of its declared type (of ``T`` for ``T | None``).
_PARSERS = {
    name: RunConfig.__dataclass_fields__[name].metadata.get("parse")
    or _TYPE_PARSERS[(get_args(hint) or (hint,))[0]]
    for name, hint in get_type_hints(RunConfig).items()
}

# Study options whose default is None, echoed as an empty value, which unsets one.
_OPTIONAL_KEYS = {f.name for f in fields(_StudyOptions) if f.default is None}


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


def _convert(key: str, value):
    if isinstance(value, str):
        if value == "":
            if key in _OPTIONAL_KEYS:
                return None
            raise ValueError(f"config key {key!r}: empty value")
        try:
            return _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return value


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Read the run configuration: the config file, then ``overrides``
    (command-line flags) over it; ``RunConfig`` resolves what neither
    sets. Unknown keys raise immediately so typos never pass silently.
    """
    merged = {}
    for entries in (_read_config_file(path) if path else {}, overrides or {}):
        for key, value in entries.items():
            key = KEY_ALIASES.get(key, key)
            if key not in _PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
    return RunConfig(**{key: _convert(key, value) for key, value in merged.items()})


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
    if isinstance(value, (list, tuple)):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(map(_format_config_value, value))
    return _format_value(value)


def write_result(
    result: ExperimentResult, fmt: str, outdir, config: RunConfig
) -> list[str]:
    """Write the records, aggregates, extra tables, and resolved config.

    Aggregates are recomputed from the records and must match what the
    study stored; a mismatch is a bug and faults the write. Both formats
    read each table through ``_table_cells``, so a table of blocks is
    written a block at a time with no row dicts. Returns the list of files
    written.
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(_table_cells(columns, rows, _format_value))
        written.append(str(path))

    if fmt == "csv":
        write_csv("records.csv", result.columns, result.records)
        write_csv("aggregates.csv", result.aggregate_columns, result.aggregates)
        for name, (columns, rows) in result.tables.items():
            write_csv(f"table_{name}.csv", columns, rows)
    else:
        payload = {
            "columns": result.columns,
            "records": _JsonRows(result.columns, result.records),
            "aggregate_columns": result.aggregate_columns,
            "aggregates": _JsonRows(result.aggregate_columns, result.aggregates),
            "tables": {
                name: {"columns": columns, "rows": _JsonRows(columns, rows)}
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
            if f.name != "outdir":
                fh.write(f"{f.name} = {_format_config_value(getattr(config, f.name))}\n")
    written.append(str(config_path))
    return written


def _table_cells(columns: list[str], rows: Sequence[dict], fmt):
    """Each row's ``fmt(row.get(c))`` for every column, in row order: from
    the rows' own ``cells`` when they offer them, else a row at a time."""
    if hasattr(rows, "cells"):
        return rows.cells(columns, fmt)
    return ([fmt(row.get(c)) for c in columns] for row in rows)


class _JsonRows(list):
    """A table's rows as JSON-ready dicts, one made at a time as it is read.

    ``json.dump`` encodes through the pure-Python encoder, which tests a
    list's emptiness by its length and reads its items by iterating, so
    this list writes the bytes of the full row list without holding it.
    """

    def __init__(self, columns: list[str], rows: Sequence[dict]):
        super().__init__()
        self.columns, self.rows = columns, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        for cells in _table_cells(self.columns, self.rows, _json_value):
            yield dict(zip(self.columns, cells))


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
        trials=cfg.trials,
        master_seed=cfg.seed,
        workers=cfg.workers,
        task_kwargs=_task_kwargs(cfg),
    )


def dispatch(cfg: RunConfig) -> int:
    """Execute the selected study and write its outputs.

    Returns 0 only when the study ran without any faulted records.
    """
    command = cfg.command
    if cfg.task.startswith("file:"):  # an unreadable series fails before any job
        make_task(cfg.task, 0, **_task_kwargs(cfg))
    if command == "run":
        result = run_single(_sweep_spec(cfg, {"lam": [cfg.lam]}))
    elif command == "spectrum":
        result = run_spectrum(cfg.task, cfg.length, cfg.seed, _task_kwargs(cfg))
    elif command == "sweep":
        grid = {"lam": list(cfg.lambda_grid), "spectral_target": list(cfg.rho_grid)}
        result = run_grid_sweep(_sweep_spec(cfg, grid))
    elif command == "mc":
        # The grids give only the default nodes, their diagonal.
        nodes = cfg.nodes or list(zip(cfg.lambda_grid, cfg.rho_grid))
        lams, rhos = zip(*nodes)
        axes = {"lam": list(lams), "spectral_target": list(rhos)}
        result = run_mc_study(_sweep_spec(cfg, axes), nodes, k_max=cfg.k_max)
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
        + (f" ({result.n_faults} faulted records)" if result.n_faults else "")
    )
    return 0 if result.n_faults == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuramoto-rc",
        description="Kuramoto-oscillator reservoir computing experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key = value config file")
    for key in [*_PARSERS, *KEY_ALIASES]:
        if key != "command":
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    path = args.pop("config")
    overrides = {key: value for key, value in args.items() if value is not None}
    try:
        cfg = parse_config(path, overrides)
        return dispatch(cfg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
