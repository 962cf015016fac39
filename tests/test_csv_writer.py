"""CSV and JSON tables written from formatted cells, a block and a column
at a time.

Every file is compared byte for byte with a reference that writes one
formatted row per row dict, the way the writer used to: a CSV row per
dict, or one ``json.dump`` of every row encoded first.
"""

import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kuramoto_rc.cli import _format_value, _json_value, parse_config, write_result
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


def reference_json(result) -> str:
    def encode(columns, rows):
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
    buf = io.StringIO()
    json.dump(payload, buf, indent=1, sort_keys=True, allow_nan=False)
    return buf.getvalue() + "\n"


def assert_json_matches_reference(result, tmp_path):
    write_result(result, "json", tmp_path, parse_config(None, TINY))
    assert read_text(tmp_path / "result.json") == reference_json(result)


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
        spec = SweepSpec(base=tiny_base(len_adev=5), axes={"beta": [0.0, 1.5]}, trials=2)
        result = run_weight_distribution_study(spec, [(1.0, 1.0), (5.0, 1.0)], bins=4)
        assert len(result.tables["snapshots"][1]) == 8 * 5 * 4
        assert_csv_matches_reference(result, tmp_path)
        assert_json_matches_reference(result, tmp_path)

    def test_mc_curve(self, tmp_path):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [2.0]}, trials=2, master_seed=6)
        result = run_mc_study(spec, [(2.0, 0.3)], k_max=4)
        assert len(result.tables["mc_curve"][1]) == 2 * 4
        assert_csv_matches_reference(result, tmp_path)
        assert_json_matches_reference(result, tmp_path)

    def test_predictions(self, tmp_path):
        result = run_single(SweepSpec(base=tiny_base(), axes={"lam": [2.0]}))
        assert len(result.tables["predictions"][1]) == 30
        assert_csv_matches_reference(result, tmp_path)
        assert_json_matches_reference(result, tmp_path)

    def test_faulted_records(self, tmp_path):
        # A faulted job's NaN values are written as JSON null.
        base = tiny_base(lam=1e308, spectral_target=2.0)
        result = run_single(SweepSpec(base=base, axes={"lam": [1e308]}))
        assert result.n_faults == 1 and len(result.tables["predictions"][1]) == 0
        assert_csv_matches_reference(result, tmp_path)
        assert_json_matches_reference(result, tmp_path)


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
    assert_json_matches_reference(result, tmp_path)
    tables = json.loads(read_text(tmp_path / "result.json"))["tables"]
    assert tables["mixed"]["rows"][1]["v"] is None  # NaN
    assert tables["empty"]["rows"] == []


@pytest.fixture(scope="module")
def default_weights():
    """The weights study at CLI defaults, run in this process: 18 jobs of
    100 development steps and 50 bins."""
    cfg = parse_config(None, {"command": "weights"})
    spec = SweepSpec(
        base=cfg.reservoir_config(),
        axes={"beta": list(cfg.weight_betas)},
        trials=cfg.trials,
        master_seed=cfg.seed,
    )
    result = run_weight_distribution_study(spec, cfg.weight_inits, bins=cfg.bins)
    assert len(result.tables["snapshots"][1]) == 90_000
    return result, cfg


def refuse_row_dicts(monkeypatch, rows):
    def refuse(*args):
        raise AssertionError("output read a row dict")

    monkeypatch.setattr(_BlockRows, "__iter__", refuse)
    monkeypatch.setattr(_BlockRows, "__getitem__", refuse)
    with pytest.raises(AssertionError):
        list(rows)


def test_csv_never_reads_row_dicts(default_weights, tmp_path, monkeypatch):
    result, cfg = default_weights
    refuse_row_dicts(monkeypatch, result.tables["snapshots"][1])
    write_result(result, "csv", tmp_path, cfg)
    with open(tmp_path / "table_snapshots.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 90_001


def test_json_never_reads_row_dicts(default_weights, tmp_path, monkeypatch):
    result, cfg = default_weights
    refuse_row_dicts(monkeypatch, result.tables["snapshots"][1])
    write_result(result, "json", tmp_path, cfg)
    monkeypatch.undo()
    with open(tmp_path / "result.json", encoding="utf-8") as fh:
        snapshots = json.load(fh)["tables"]["snapshots"]["rows"]
    assert len(snapshots) == 90_000
    assert snapshots[-1] == result.tables["snapshots"][1][-1]


def write_peak(result, fmt, outdir, cfg) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        write_result(result, fmt, outdir, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_csv_write_holds_one_block_at_a_time(default_weights, tmp_path):
    # 90,000 formatted snapshot rows held at once would take tens of MB.
    result, cfg = default_weights
    peak = write_peak(result, "csv", tmp_path, cfg)
    assert (tmp_path / "table_snapshots.csv").stat().st_size > 1_000_000
    assert peak < 2_000_000


def test_json_write_holds_one_block_at_a_time(default_weights, tmp_path):
    # A JSON-ready dict per snapshot row, all made first, took about 20 MB.
    result, cfg = default_weights
    peak = write_peak(result, "json", tmp_path, cfg)
    assert (tmp_path / "result.json").stat().st_size > 1_000_000
    assert peak < 2_000_000


# Runs the CLI and prints the process's peak resident set (KiB on Linux).
RSS_PROBE = """
import resource, sys
from kuramoto_rc.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def weights_peak_rss_kib(fmt: str, outdir) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    args = ["weights", "--workers", "1", "--format", fmt, "--outdir", str(outdir)]
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_json_weights_study_peaks_within_5_mb_of_csv(tmp_path):
    # The default weights study in one process: 90,000 snapshot rows.
    csv_kib = weights_peak_rss_kib("csv", tmp_path / "csv")
    json_kib = weights_peak_rss_kib("json", tmp_path / "json")
    assert (tmp_path / "json" / "result.json").stat().st_size > 1_000_000
    assert json_kib - csv_kib < 5 * 1024
