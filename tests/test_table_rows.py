"""Study tables held as blocks of arrays and read as row dicts.

Each table is compared with a reference built the way the rows used to be
made, one dict per row from the jobs' own outputs, cell by cell with the
exact Python type and key order. A job returns its tables' value arrays
under its record's ``tables`` key; the reference counts steps, delays and
rows itself rather than reading a job's step or delay column.
"""

import copy
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from kuramoto_rc import experiments
from kuramoto_rc.experiments import (
    SweepSpec,
    _BlockRows,
    run_mc_study,
    run_single,
    run_weight_distribution_study,
)
from kuramoto_rc.reservoir import ReservoirConfig


def tiny_base(**kw):
    defaults = dict(n=25, len_adev=20, len_train=120, len_test=30, seed=0)
    defaults.update(kw)
    return ReservoirConfig(**defaults)


@pytest.fixture
def job_records(monkeypatch):
    """Copies of the job records of every study run in the test, taken
    before the study moves their ``tables`` arrays into its tables."""
    captured = []
    trial_records = experiments._trial_records

    def capturing(*args, **kwargs):
        records = trial_records(*args, **kwargs)
        captured.append(copy.deepcopy(records))
        return records

    monkeypatch.setattr(experiments, "_trial_records", capturing)
    return captured


def weight_tables(records):
    snapshots, final_hist = [], []
    for rec in records:
        job = {"combo_index": rec["combo_index"], "trial": rec["trial"]}
        if "tables" not in rec:  # the job raised before its histograms
            continue
        snapped, final = rec["tables"]["snapshots"], rec["tables"]["final_hist"]
        centers = snapped["bin_center"]
        for step, counts in enumerate(snapped["count"], start=1):
            for center, count in zip(centers, counts):
                snapshots.append(
                    {**job, "step": step, "bin_center": float(center), "count": int(count)}
                )
        for center, count in zip(final["bin_center"], final["count"]):
            final_hist.append({**job, "bin_center": float(center), "count": int(count)})
    return {"snapshots": snapshots, "final_hist": final_hist}


def mc_curve_table(records, key_columns):
    return [
        {**{c: rec[c] for c in key_columns}, "delay": k, "coefficient": float(coeff)}
        for rec in records
        if "tables" in rec
        for k, coeff in enumerate(rec["tables"]["mc_curve"]["coefficient"], start=1)
    ]


def predictions_table(record):
    columns = record["tables"]["predictions"]
    return [
        {"step": i, "target": float(t), "prediction": float(p)}
        for i, (t, p) in enumerate(zip(columns["target"], columns["prediction"]))
    ]


def assert_same_rows(rows, reference):
    assert isinstance(rows, _BlockRows)
    assert len(rows) == len(reference) > 0
    for row, ref in zip(rows, reference):
        assert list(row) == list(ref)
        for name, value in ref.items():
            assert type(row[name]) is type(value), name
            assert row[name] == value, name
    assert list(rows) == list(rows)
    assert [rows[i] for i in range(len(rows))] == reference
    assert rows[-1] == reference[-1]
    assert rows[-len(rows)] == reference[0]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[index]
    assert rows == reference and reference == rows


def assert_records_hold_no_arrays(result):
    for rec in result.records:
        assert "tables" not in rec
        assert not any(isinstance(v, np.ndarray) for v in rec.values())


def assert_pickles(result):
    copied = pickle.loads(pickle.dumps(result))
    assert copied.records == result.records
    assert copied.aggregates == result.aggregates
    assert copied.tables == result.tables
    for name, (_, rows) in copied.tables.items():
        assert list(rows) == list(result.tables[name][1])


@pytest.mark.parametrize("workers", [1, 2])
class TestTablesMatchPerRowReference:
    def test_weight_tables(self, workers, job_records):
        spec = SweepSpec(
            base=tiny_base(len_adev=5), axes={"beta": [0.0]}, trials=1, workers=workers
        )
        result = run_weight_distribution_study(spec, [(1.0, 1.0), (5.0, 1.0)], bins=4)
        (records,) = job_records
        reference = weight_tables(records)
        assert len(reference["snapshots"]) == 2 * 5 * 4
        for name in ("snapshots", "final_hist"):
            assert_same_rows(result.tables[name][1], reference[name])
        assert_records_hold_no_arrays(result)
        assert_pickles(result)

    def test_mc_curve(self, workers, job_records):
        spec = SweepSpec(
            base=tiny_base(), axes={"lam": [2.0]}, trials=2, master_seed=6, workers=workers
        )
        result = run_mc_study(spec, [(2.0, 0.3)], k_max=4)
        (records,) = job_records
        key_columns = ["node_index", "lam", "spectral_target", "trial"]
        assert_same_rows(result.tables["mc_curve"][1], mc_curve_table(records, key_columns))
        assert_records_hold_no_arrays(result)
        assert_pickles(result)

    def test_predictions(self, workers, job_records):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [2.0]}, workers=workers)
        result = run_single(spec)
        (records,) = job_records
        rows = result.tables["predictions"][1]
        assert_same_rows(rows, predictions_table(records[0]))
        assert len(rows) == spec.base.len_test
        assert_records_hold_no_arrays(result)
        assert_pickles(result)


class TestBlockRows:
    def test_empty_tables_equal_the_empty_list(self):
        for rows in (_BlockRows(), _BlockRows([({"a": 1}, {"b": np.arange(0)})])):
            assert len(rows) == 0
            assert rows == [] and [] == rows
            assert list(rows) == []
            with pytest.raises(IndexError):
                rows[0]
            assert pickle.loads(pickle.dumps(rows)) == []

    def test_blocks_read_in_order_across_empty_blocks(self):
        rows = _BlockRows(
            [
                ({"job": 0}, {"x": np.array([1.5, 2.5])}),
                ({"job": 1}, {"x": np.array([])}),
                ({"job": 2}, {"x": np.array([[3.5]])}),
            ]
        )
        expected = [{"job": 0, "x": 1.5}, {"job": 0, "x": 2.5}, {"job": 2, "x": 3.5}]
        assert list(rows) == expected
        assert [rows[i] for i in (0, 1, 2, -1)] == [*expected, expected[-1]]

    def test_unequal_rows_and_other_types(self):
        rows = _BlockRows([({}, {"x": np.array([1, 2])})])
        assert rows != [{"x": 1}]
        assert rows != [{"x": 1}, {"x": 3}]
        assert rows != ({"x": 1}, {"x": 2})
        with pytest.raises(TypeError):
            hash(rows)


def test_weight_study_keeps_under_40_bytes_per_snapshot_row():
    # 2 jobs x 300 development steps x 50 bins = 30,000 snapshot rows; a
    # dict per row holds about 200 bytes each.
    def spec(dev_steps):
        base = tiny_base(n=30, len_adev=dev_steps, len_train=400)
        return SweepSpec(base=base, axes={"beta": [0.0]}, trials=1)

    inits = [(1.0, 1.0), (5.0, 1.0)]
    run_weight_distribution_study(spec(2), inits, bins=50)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        result = run_weight_distribution_study(spec(300), inits, bins=50)
        gc.collect()
        holding, _ = tracemalloc.get_traced_memory()
        rows = len(result.tables["snapshots"][1])
        del result
        gc.collect()
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 30_000
    assert (holding - released) / rows < 40
