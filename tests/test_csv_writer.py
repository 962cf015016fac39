"""CSV tables written from formatted cells, a block and a column at a time.

Every file is compared byte for byte with a reference that writes one
formatted row per row dict, the way the writer used to.
"""

import csv
import gc
import io
import tracemalloc

import numpy as np
import pytest

from kuramoto_rc.cli import _format_value, parse_config, write_result
from kuramoto_rc.experiments import (
    ExperimentResult,
    SweepSpec,
    _BlockRows,
    run_mc_study,
    run_single,
    run_weight_distribution_study,
)
from kuramoto_rc.reservoir import ReservoirConfig

TINY = {"n": "25", "len_adev": "15", "len_train": "80", "len_test": "20"}


def reference_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(row.get(c)) for c in columns])
    return buf.getvalue()


def read_text(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def assert_csv_matches_reference(result, tmp_path):
    write_result(result, "csv", tmp_path, parse_config(None, TINY))
    files = {
        "records.csv": (result.columns, result.records),
        "aggregates.csv": (result.aggregate_columns, result.aggregates),
    }
    for name, (columns, rows) in result.tables.items():
        files[f"table_{name}.csv"] = (columns, rows)
    for name, (columns, rows) in files.items():
        assert read_text(tmp_path / name) == reference_csv(columns, rows), name


def tiny_base(**kw):
    defaults = dict(n=25, len_adev=20, len_train=120, len_test=30, seed=0)
    defaults.update(kw)
    return ReservoirConfig(**defaults)


def tables_only(tables) -> ExperimentResult:
    return ExperimentResult(
        columns=["fault"],
        records=[],
        aggregates=[],
        group_columns=[],
        value_columns=[],
        tables=tables,
    )


class TestStudyTablesMatchPerRowWriter:
    def test_weight_tables(self, tmp_path):
        spec = SweepSpec(base=tiny_base(), axes={"beta": [0.0]}, trials=2)
        result = run_weight_distribution_study(
            spec, [(1.0, 1.0), (5.0, 1.0)], [0.0, 1.5], bins=4, dev_steps=5
        )
        assert len(result.tables["snapshots"][1]) == 8 * 5 * 4
        assert_csv_matches_reference(result, tmp_path)

    def test_mc_curve(self, tmp_path):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [2.0]}, trials=2, master_seed=6)
        result = run_mc_study(spec, [(2.0, 0.3)], k_max=4)
        assert len(result.tables["mc_curve"][1]) == 2 * 4
        assert_csv_matches_reference(result, tmp_path)

    def test_predictions(self, tmp_path):
        result = run_single(SweepSpec(base=tiny_base(), axes={"lam": [2.0]}))
        assert len(result.tables["predictions"][1]) == 30
        assert_csv_matches_reference(result, tmp_path)


def test_hand_built_tables_match_per_row_writer(tmp_path):
    step, center = np.broadcast_arrays(
        np.array([[1], [2]]), np.array([-0.0, 1e-300, np.nan])
    )
    blocks = [
        (
            {"job": 'a,"b', "x": np.float64(-0.0), "v": "shadowed by the column"},
            {
                "v": np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300]),
                "n": np.arange(5),
            },
        ),
        ({"job": "empty"}, {"v": np.array([]), "n": np.arange(0)}),
        ({"job": 2, "flag": True}, {"v": center, "n": step}),
        ({}, {"v": np.array([[0.1, -2.5]]).T, "n": np.array([[7], [-8]])}),
    ]
    columns = ["job", "x", "flag", "v", "n", "absent"]
    rows = _BlockRows(blocks)
    assert len(rows) == 5 + 6 + 2
    result = tables_only(
        {"mixed": (columns, rows), "empty": (["a", "b"], _BlockRows())}
    )
    assert_csv_matches_reference(result, tmp_path)
    text = read_text(tmp_path / "table_mixed.csv")
    assert text.splitlines()[1] == '"a,""b",-0,,-0,0,'
    assert read_text(tmp_path / "table_empty.csv") == "a,b\n"


@pytest.fixture(scope="module")
def default_weights():
    """The weights study at CLI defaults, run in this process: 18 jobs of
    100 development steps and 50 bins."""
    cfg = parse_config(None, {"command": "weights"})
    spec = SweepSpec(
        base=cfg.reservoir_config(),
        axes={"beta": list(cfg.weight_betas)},
        trials=cfg.resolved_trials(),
        master_seed=cfg.seed,
    )
    result = run_weight_distribution_study(
        spec, cfg.weight_inits, cfg.weight_betas, bins=cfg.bins
    )
    assert len(result.tables["snapshots"][1]) == 90_000
    return result, cfg


def test_csv_never_reads_row_dicts(default_weights, tmp_path, monkeypatch):
    # JSON output may still read the rows; CSV must not need them.
    result, cfg = default_weights

    def refuse(*args):
        raise AssertionError("CSV output read a row dict")

    monkeypatch.setattr(_BlockRows, "__iter__", refuse)
    monkeypatch.setattr(_BlockRows, "__getitem__", refuse)
    with pytest.raises(AssertionError):
        list(result.tables["snapshots"][1])
    write_result(result, "csv", tmp_path, cfg)
    with open(tmp_path / "table_snapshots.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 90_001


def test_csv_write_holds_one_block_at_a_time(default_weights, tmp_path):
    # 90,000 formatted snapshot rows held at once would take tens of MB.
    result, cfg = default_weights
    gc.collect()
    tracemalloc.start()
    try:
        write_result(result, "csv", tmp_path, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "table_snapshots.csv").stat().st_size > 1_000_000
    assert peak < 2_000_000
