import argparse
import csv
import itertools
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from kuramoto_rc import cli, experiments, tasks
from kuramoto_rc.cli import (
    COMMAND_DEFAULTS,
    RunConfig,
    _format_value,
    dispatch,
    main,
    parse_config,
    write_result,
)
from kuramoto_rc.experiments import (
    SweepSpec,
    default_lambda_grid,
    default_rho_grid,
    run_grid_sweep,
)
from kuramoto_rc.metrics import matrix_distance
from kuramoto_rc.reservoir import ReservoirConfig
from kuramoto_rc.tasks import load_series

TINY = {
    "n": "25",
    "len_adev": "15",
    "len_train": "80",
    "len_test": "20",
    "workers": "1",
}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseConfig:
    def test_narma_defaults_follow_benchmark_row(self):
        cfg = parse_config(None, {"task": "narma10"})
        assert cfg.n == 100
        assert cfg.density == 0.05
        assert cfg.epsilon == 0.1
        assert cfg.dt == 1.0
        assert cfg.lam == 4.0
        assert (cfg.len_adev, cfg.len_train, cfg.len_test) == (100, 900, 500)
        assert abs(cfg.beta) == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize(
        "task,lengths,lam",
        [
            ("mg17", (100, 2900, 1000), 1.0),
            ("mso12", (100, 1200, 100), 4.0),
            ("file:/data/clutter.txt", (100, 1700, 500), 0.5),
        ],
    )
    def test_per_task_rows(self, task, lengths, lam):
        cfg = parse_config(None, {"task": task})
        assert (cfg.len_adev, cfg.len_train, cfg.len_test) == lengths
        assert cfg.lam == lam

    def test_file_beats_defaults_and_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam = 2.0\nseed = 9  # inline comment\n\n# full comment\n")
        cfg = parse_config(path, {})
        assert cfg.lam == 2.0
        assert cfg.seed == 9
        cfg = parse_config(path, {"lam": "3.5"})
        assert cfg.lam == 3.5
        assert cfg.seed == 9

    def test_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfn = 25\nseed = 9\n")
        cfg = parse_config(path, {})
        assert (cfg.n, cfg.seed) == (25, 9)

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="lamda"):
            parse_config(None, {"lamda": "4.0"})

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sneed = 3\n")
        with pytest.raises(ValueError, match="sneed"):
            parse_config(path, {})

    def test_aliases(self):
        cfg = parse_config(None, {"lambda": "1.5", "rho": "0.7"})
        assert cfg.lam == 1.5
        assert cfg.spectral_target == 0.7

    def test_bad_value_names_key(self):
        with pytest.raises(ValueError, match="seed"):
            parse_config(None, {"seed": "not-a-number"})

    def test_grid_syntax(self):
        cfg = parse_config(None, {"lambda_grid": "0.5:2.0:0.5"})
        assert cfg.lambda_grid == [0.5, 1.0, 1.5, 2.0]
        cfg = parse_config(None, {"rho_grid": "0.1,0.2,0.4"})
        assert cfg.rho_grid == [0.1, 0.2, 0.4]
        # Range values are exact decimals, so they equal the default grids.
        assert parse_config(None, {"rho_grid": "0.1:2:0.1"}).rho_grid == default_rho_grid()
        cfg = parse_config(None, {"lambda_grid": "0.5:8:0.5"})
        assert cfg.lambda_grid == default_lambda_grid()
        assert parse_config(None, {"rho_grid": "0.1:0.35:0.1"}).rho_grid == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("text", ["1:inf:1", "-inf:1:1", "0:1:nan", "0:1:inf"])
    def test_non_finite_range_names_key(self, text):
        with pytest.raises(ValueError, match="lambda_grid.*must be finite"):
            parse_config(None, {"lambda_grid": text})

    def test_pair_list_syntax(self):
        cfg = parse_config(None, {"weight_inits": "0.4,0.4;10,10"})
        assert cfg.weight_inits == [(0.4, 0.4), (10.0, 10.0)]
        cfg = parse_config(None, {"nodes": "4.0,0.9"})
        assert cfg.nodes == [(4.0, 0.9)]

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            parse_config(None, {"task": "narma20"})

    def test_invalid_command(self):
        with pytest.raises(ValueError, match="command"):
            parse_config(None, {"command": "explode"})

    def test_trials_default_depends_on_command(self):
        assert parse_config(None, {"command": "sweep"}).trials == 10
        assert parse_config(None, {"command": "sparsity"}).trials == 50
        assert parse_config(None, {"command": "sweep", "trials": "3"}).trials == 3

    def test_astringency_row_sets_beta_below_the_file_and_flags(self, tmp_path):
        assert parse_config(None, {"command": "astringency"}).beta == 0.0
        assert parse_config(None, {"command": "sweep"}).beta == -math.pi / 2
        path = tmp_path / "c.txt"
        path.write_text("beta = 1.0\n")
        assert parse_config(path, {"command": "astringency"}).beta == 1.0
        assert parse_config(path, {"command": "astringency", "beta": "2"}).beta == 2.0

    def test_outdir_env_default(self, monkeypatch):
        monkeypatch.setenv("KURAMOTO_RC_OUTDIR", "/tmp/custom-results")
        assert RunConfig().outdir == "/tmp/custom-results"

    @pytest.mark.parametrize("key", ["workers", "seed", "lam", "command", "outdir"])
    def test_empty_value_of_a_required_key_names_it(self, key):
        with pytest.raises(ValueError, match=f"config key '{key}': empty value"):
            parse_config(None, {key: ""})

    @pytest.mark.parametrize("key", ["len_adev", "len_train", "len_test", "beta"])
    def test_empty_value_of_a_row_field_names_it(self, key):
        # A row field defaults to None in RunConfig yet is no optional key.
        with pytest.raises(ValueError, match=f"config key '{key}': empty value"):
            parse_config(None, {key: ""})

    def test_empty_value_unsets_an_optional_key(self, tmp_path):
        # An unset trial count is the command's default.
        cfg = parse_config(
            None, {"trials": "", "nodes": "", "column": "", "normalize": ""}
        )
        assert (cfg.nodes, cfg.column, cfg.normalize) == (None,) * 3
        assert cfg.trials == COMMAND_DEFAULTS["run"]["trials"]
        file_then_flag = tmp_path / "c.txt"
        file_then_flag.write_text("trials = 5\n")
        cfg = parse_config(file_then_flag, {"command": "sweep", "trials": ""})
        assert cfg.trials == COMMAND_DEFAULTS["sweep"]["trials"]

    @pytest.mark.parametrize("text", ["2:1:1", ",", " , "])
    def test_empty_float_list_names_key(self, text):
        with pytest.raises(ValueError, match="lambda_grid.*no values"):
            parse_config(None, {"lambda_grid": text})

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("bins", "0"),
            ("k_max", "0"),
            ("length", "1"),
            ("workers", "0"),
            ("seed", "-1"),
        ],
    )
    def test_out_of_range_study_option_names_key(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            parse_config(None, {key: value})

    def test_k_max_above_the_washout_names_key(self):
        with pytest.raises(ValueError, match="k_max must be at most 100"):
            parse_config(None, {"command": "mc", "k_max": "101"})
        assert parse_config(None, {"command": "mc", "k_max": "100"}).k_max == 100

    @pytest.mark.parametrize(("key", "value"), [("column", "y"), ("normalize", "0,1")])
    @pytest.mark.parametrize("task", ["narma10", "mg17", "mso12"])
    def test_file_options_with_a_generated_task_name_key(self, key, value, task):
        with pytest.raises(ValueError, match=f"{key} applies only to file: tasks"):
            parse_config(None, {"task": task, key: value})
        cfg = parse_config(None, {"task": "file:series.csv", key: value})
        assert getattr(cfg, key) is not None

    def test_reservoir_config_mirrors_fields(self):
        cfg = parse_config(None, {"n": "40", "density": "0.2", "seed": "4"})
        rc = cfg.reservoir_config()
        assert isinstance(rc, ReservoirConfig)
        assert rc.n == 40 and rc.density == 0.2 and rc.seed == 4


class TestWriteResult:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0.1, "0.10000000000000001"),
            (np.float64(1 / 3), "0.33333333333333331"),
            (1 / 3, "0.33333333333333331"),
            (math.nan, "nan"),
            (np.float64(math.nan), "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (-0.0, "-0"),
            (12345678901234567890, "12345678901234567890"),
            (np.int64(-7), "-7"),
            (-7, "-7"),
            (True, "true"),
            (False, "false"),
            (np.bool_(True), "true"),
            (np.bool_(False), "false"),
            (None, ""),
            ("a,b", "a,b"),
        ],
        ids=repr,
    )
    def test_format_value_agrees_across_exact_and_numpy_types(
        self, value, expected
    ):
        # Python scalars take the exact-type table directly, numpy scalars
        # after unwrapping with .item(); both must write the same cell.
        assert _format_value(value) == expected

    def make_result(self):
        spec = SweepSpec(
            base=ReservoirConfig(
                n=25, len_adev=15, len_train=80, len_test=20, seed=0
            ),
            axes={"lam": [1.0, 2.0]},
            trials=2,
            master_seed=0,
        )
        return run_grid_sweep(spec)

    def test_files_written_and_round_trip(self, tmp_path):
        result = self.make_result()
        cfg = parse_config(None, TINY)
        files = write_result(result, "csv", tmp_path, cfg)
        names = {Path(f).name for f in files}
        assert {"records.csv", "aggregates.csv", "config.txt"} <= names
        header, rows = read_csv(tmp_path / "records.csv")
        assert header == result.columns
        assert len(rows) == len(result.records)
        # 17-significant-digit serialization round-trips exactly
        col = header.index("test_mse")
        for row, rec in zip(rows, result.records):
            assert float(row[col]) == rec["test_mse"]

    def test_aggregate_file_consistent_with_records(self, tmp_path):
        result = self.make_result()
        cfg = parse_config(None, TINY)
        write_result(result, "csv", tmp_path, cfg)
        rec_header, rec_rows = read_csv(tmp_path / "records.csv")
        agg_header, agg_rows = read_csv(tmp_path / "aggregates.csv")
        mse_col = rec_header.index("test_mse")
        cell_col = rec_header.index("cell_index")
        for agg in agg_rows:
            cell = agg[agg_header.index("cell_index")]
            values = [
                float(r[mse_col]) for r in rec_rows if r[cell_col] == cell
            ]
            assert float(agg[agg_header.index("test_mse_mean")]) == pytest.approx(
                float(np.mean(values))
            )

    def test_tampered_aggregates_fault(self, tmp_path):
        result = self.make_result()
        result.aggregates[0]["test_mse_mean"] = 0.0
        with pytest.raises(RuntimeError, match="aggregates"):
            write_result(result, "csv", tmp_path, parse_config(None, TINY))

    def test_config_echo_reparses_identically(self, tmp_path):
        # The defaults, then a non-default value of every option kind:
        # optional, pair-list, pair, and string. Only a file task takes a
        # column and a normalization range.
        every_kind = {
            "nodes": "4.0,0.9;0.5,1.25",
            "weight_inits": "0.4,0.4;10,1",
            "normalize": "-0.5,0.5",
            "column": "y",
            "trials": "3",
        }
        result = self.make_result()
        for i, extra in enumerate([{}, every_kind]):
            task = "file:series.csv" if extra else "mso12"
            cfg = parse_config(None, dict(TINY, task=task, command="sweep", **extra))
            write_result(result, "csv", tmp_path / str(i), cfg)
            echoed = parse_config(tmp_path / str(i) / "config.txt", {})
            assert echoed == cfg
        assert (echoed.nodes, echoed.normalize) == ([(4.0, 0.9), (0.5, 1.25)], (-0.5, 0.5))

    def test_json_format(self, tmp_path):
        result = self.make_result()
        write_result(result, "json", tmp_path, parse_config(None, TINY))
        payload = json.loads((tmp_path / "result.json").read_text())
        assert len(payload["records"]) == len(result.records)
        assert payload["records"][0]["test_mse"] == result.records[0]["test_mse"]


class TestDispatch:
    def run_cli(self, tmp_path, command, **overrides):
        args = dict(TINY, command=command, outdir=str(tmp_path), seed="7")
        args.update({k: str(v) for k, v in overrides.items()})
        cfg = parse_config(None, args)
        return cfg, dispatch(cfg)

    def test_run_writes_records_and_predictions(self, tmp_path):
        cfg, code = self.run_cli(tmp_path / "a", "run")
        assert code == 0
        header, rows = read_csv(tmp_path / "a" / "records.csv")
        assert len(rows) == 1
        pred_header, pred_rows = read_csv(tmp_path / "a" / "table_predictions.csv")
        assert len(pred_rows) == cfg.len_test

    def test_rerun_is_byte_identical(self, tmp_path):
        self.run_cli(tmp_path / "a", "run")
        self.run_cli(tmp_path / "b", "run")
        for name in ("records.csv", "table_predictions.csv", "aggregates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_run_matches_one_cell_sweep(self, tmp_path):
        _, _ = self.run_cli(tmp_path / "run", "run")
        self.run_cli(
            tmp_path / "sweep",
            "sweep",
            lambda_grid="4.0",
            rho_grid="0.3",
            trials=1,
        )
        for name in ("records.csv", "aggregates.csv"):
            run_header, run_rows = read_csv(tmp_path / "run" / name)
            sweep_header, sweep_rows = read_csv(tmp_path / "sweep" / name)
            assert len(run_rows) == len(sweep_rows) == 1
            run_row = dict(zip(run_header, run_rows[0]))
            sweep_row = dict(zip(sweep_header, sweep_rows[0]))
            shared = [c for c in run_header if c in sweep_row]
            assert shared == [c for c in sweep_header if c != "spectral_target"]
            assert {c: run_row[c] for c in shared} == {c: sweep_row[c] for c in shared}

    def test_sweep_cardinality(self, tmp_path):
        _, code = self.run_cli(
            tmp_path,
            "sweep",
            lambda_grid="1.0,2.0",
            rho_grid="0.3,0.6",
            trials=1,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 4
        _, agg_rows = read_csv(tmp_path / "aggregates.csv")
        assert len(agg_rows) == 4

    def test_spectrum_row_count(self, tmp_path):
        _, code = self.run_cli(tmp_path, "spectrum", task="mso12", length=1200)
        assert code == 0
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 1200 // 2 + 1

    def test_mc_with_explicit_nodes(self, tmp_path):
        _, code = self.run_cli(
            tmp_path,
            "mc",
            lambda_grid="2.0",
            rho_grid="0.4",
            nodes="2.0,0.4",
            k_max=5,
            trials=1,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "table_mc_curve.csv")
        assert len(rows) == 5

    def test_sparsity_and_astringency_and_weights(self, tmp_path):
        _, code = self.run_cli(
            tmp_path / "sp", "sparsity", density_grid="0.1,0.3", trials=2
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "sp" / "records.csv")
        assert len(rows) == 8

        _, code = self.run_cli(
            tmp_path / "as", "astringency", density_grid="0.2", trials=3
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "as" / "records.csv")
        assert len(rows) == 2

        _, code = self.run_cli(
            tmp_path / "wt",
            "weights",
            weight_inits="1,1",
            weight_betas="0.0",
            bins=8,
            trials=1,
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "wt" / "table_final_hist.csv")
        assert len(rows) == 8

    # A coupling strength that makes every job's phases overflow.
    DIVERGING = dict(
        n=20,
        len_adev=60,
        len_train=80,
        len_test=10,
        lam=1e308,
        spectral_target=2.0,
        density=0.3,
        density_grid="0.3",
        weight_inits="1,1",
        weight_betas="0.0",
        trials=2,
    )

    @pytest.mark.parametrize("command", ["astringency", "weights"])
    def test_diverging_jobs_are_recorded(self, tmp_path, command):
        _, code = self.run_cli(tmp_path, command, **self.DIVERGING)
        assert code == 1
        _, rows = read_csv(tmp_path / "records.csv")
        assert rows and all("FloatingPointError" in row[-1] for row in rows)
        _, aggregates = read_csv(tmp_path / "aggregates.csv")
        assert aggregates[0][-1] == "nan"

    @pytest.mark.parametrize("command", ["astringency", "weights"])
    def test_faulted_json_is_strict(self, tmp_path, command):
        # JSON has no NaN: faulted values are written as null.
        _, code = self.run_cli(tmp_path, command, format="json", **self.DIVERGING)
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "result.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        assert payload["records"]
        for rec in payload["records"]:
            assert "FloatingPointError" in rec["fault"]
        assert payload["aggregates"][0][payload["aggregate_columns"][-1]] is None

    def test_diverging_run_is_recorded(self, tmp_path):
        # The same fault as a 1x1 sweep: NaN values, the message, all files.
        code = main(
            [
                "run",
                "--n", "20",
                "--density", "0.3",
                "--len-adev", "60",
                "--len-train", "80",
                "--len-test", "10",
                "--lambda", "1e308",
                "--rho", "2",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == 1
        header, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["fault"].startswith("FloatingPointError")
        assert [row[c] for c in ("test_mse", "train_mse", "order_r")] == ["nan"] * 3
        _, aggregates = read_csv(tmp_path / "aggregates.csv")
        assert aggregates[0][-1] == "nan"
        pred_header, pred_rows = read_csv(tmp_path / "table_predictions.csv")
        assert pred_header == ["step", "target", "prediction"] and pred_rows == []
        assert (tmp_path / "config.txt").exists()

    def test_beta_sweep_grid(self, tmp_path):
        _, code = self.run_cli(
            tmp_path, "beta-sweep", beta_grid="-0.5,0.0,0.5", trials=2
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 6

    def test_faulted_cells_yield_nonzero_exit(self, tmp_path):
        cfg = parse_config(
            None,
            dict(
                TINY,
                command="run",
                task="file:/nonexistent/series.txt",
                outdir=str(tmp_path),
            ),
        )
        assert main(
            [
                "sweep",
                "--task",
                "file:/nonexistent/series.txt",
                "--lambda-grid",
                "1.0",
                "--rho-grid",
                "0.3",
                "--trials",
                "1",
                "--outdir",
                str(tmp_path),
                "--n",
                "25",
                "--len-adev",
                "15",
                "--len-train",
                "80",
                "--len-test",
                "20",
            ]
        ) == 1


class TestMain:
    def test_flag_aliases_and_exit_zero(self, tmp_path):
        code = main(
            [
                "run",
                "--task",
                "narma10",
                "--lambda",
                "2.0",
                "--rho",
                "0.4",
                "--seed",
                "3",
                "--n",
                "25",
                "--len-adev",
                "15",
                "--len-train",
                "80",
                "--len-test",
                "20",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert code == 0
        cfg = parse_config(tmp_path / "config.txt", {})
        assert cfg.lam == 2.0
        assert cfg.spectral_target == 0.4

    def test_config_file_flag(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "task = narma10\nn = 25\nlen_adev = 15\nlen_train = 80\n"
            "len_test = 20\nseed = 5\n"
        )
        code = main(
            ["run", "--config", str(path), "--outdir", str(tmp_path / "out")]
        )
        assert code == 0

    def test_bad_value_returns_error(self, tmp_path, capsys):
        code = main(["run", "--seed", "xyz", "--outdir", str(tmp_path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_non_finite_lambda_is_an_input_error(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main(["run", "--lambda", "nan", "--outdir", str(outdir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lam must be finite" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("inits", ["0,1;1,1", "1,-2", "nan,1", "1,inf"])
    def test_beta_shape_not_positive_and_finite_is_an_input_error(self, tmp_path, capsys, inits):
        outdir = tmp_path / "out"
        flags = ["--n", "10", "--len-adev", "5", "--weight-betas", "0"]
        code = main(["weights", *flags, f"--weight-inits={inits}", "--outdir", str(outdir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive and finite" in err
        assert not outdir.exists()

    def test_the_summary_counts_faulted_records(self, tmp_path, capsys):
        # One cell, two trials, both diverging: two faulted records.
        flags = ["--n", "20", "--density", "0.3", "--len-adev", "60"]
        flags += ["--len-train", "80", "--len-test", "10", "--lambda-grid", "1e308"]
        flags += ["--rho-grid", "2", "--trials", "2", "--outdir", str(tmp_path)]
        assert main(["sweep", *flags]) == 1
        out = capsys.readouterr().out
        assert out == f"sweep: wrote 2 records to {tmp_path} (2 faulted records)\n"

    def test_k_max_above_the_washout_fails_before_any_job(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr(cli, "run_mc_study", no_study)
        flags = ["--n", "20", "--len-adev", "8", "--len-train", "40", "--len-test", "10"]
        flags += ["--lambda-grid", "2", "--rho-grid", "0.4", "--trials", "1"]
        outdir = tmp_path / "out"
        code = main(["mc", *flags, "--k-max", "101", "--outdir", str(outdir)])
        assert code == 1
        assert "k_max must be at most 100" in capsys.readouterr().err
        assert not outdir.exists()
        monkeypatch.undo()
        code = main(["mc", *flags, "--k-max", "100", "--outdir", str(outdir)])
        assert code == 0
        _, rows = read_csv(outdir / "table_mc_curve.csv")
        assert len(rows) == 100

    @pytest.mark.parametrize(
        "flags", [["--column", "y"], ["--normalize", "0,1"]], ids=["column", "normalize"]
    )
    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_file_options_with_a_generated_task_fail(
        self, tmp_path, capsys, command, flags
    ):
        outdir = tmp_path / "out"
        code = main([command, "--task", "mso12", *flags, "--outdir", str(outdir)])
        assert code == 1
        key = flags[0][2:]
        assert f"{key} applies only to file: tasks" in capsys.readouterr().err
        assert not outdir.exists()

    def test_mc_nodes_on_a_range_grid(self, tmp_path):
        # 0.3 lies on the range 0.1:2:0.1 only when its values are exact.
        flags = ["--n", "20", "--len-adev", "8", "--len-train", "40", "--len-test", "10"]
        flags += ["--lambda-grid", "0.5:8:0.5", "--rho-grid", "0.1:2:0.1"]
        flags += ["--nodes", "4,0.3", "--k-max", "5", "--trials", "1"]
        assert main(["mc", *flags, "--outdir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "table_mc_curve.csv")
        assert len(rows) == 5
        cfg = parse_config(tmp_path / "config.txt", {})
        assert cfg.rho_grid == default_rho_grid()

    def test_mc_nodes_off_the_grids(self, tmp_path):
        # Explicit nodes are the study's axes; the grids give only the
        # default nodes.
        flags = ["--n", "20", "--len-adev", "8", "--len-train", "40", "--len-test", "10"]
        flags += ["--nodes", "3.3,0.7", "--k-max", "5", "--trials", "1"]
        assert main(["mc", *flags, "--outdir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "records.csv")
        record = dict(zip(header, rows[0]))
        assert (record["lam"], record["spectral_target"]) == (
            _format_value(3.3),
            _format_value(0.7),
        )

    def test_astringency_develops_at_the_configured_beta(self, tmp_path):
        flags = ["--n", "20", "--len-adev", "8", "--density-grid", "0.2", "--trials", "3"]
        records = {}
        for beta in ("0", "1.0"):
            outdir = tmp_path / beta
            flags_at_beta = [*flags, "--beta", beta, "--outdir", str(outdir)]
            assert main(["astringency", *flags_at_beta]) == 0
            echo = (outdir / "config.txt").read_text()
            assert f"\nbeta = {_format_value(float(beta))}\n" in echo
            records[beta] = (outdir / "records.csv").read_bytes()
        assert records["0"] != records["1.0"]

    def test_spectrum_of_a_narma10_series_below_its_11_samples(self, tmp_path):
        flags = ["--task", "narma10", "--length", "8", "--outdir", str(tmp_path)]
        assert main(["spectrum", *flags]) == 0
        _, rows = read_csv(tmp_path / "records.csv")
        assert len(rows) == 8 // 2 + 1

    def test_empty_test_span_faults_every_pipeline_study(self, tmp_path):
        flags = ["--n", "20", "--len-adev", "8", "--len-train", "40", "--len-test", "0"]
        flags += ["--lambda-grid", "2", "--rho-grid", "0.4", "--trials", "1"]
        for command in ("run", "sweep", "mc", "sparsity", "beta-sweep"):
            outdir = tmp_path / command
            extra = ["--density-grid", "0.1", "--beta-grid", "0", "--k-max", "5"]
            assert main([command, *flags, *extra, "--outdir", str(outdir)]) == 1
            header, rows = read_csv(outdir / "records.csv")
            faults = [dict(zip(header, row))["fault"] for row in rows]
            assert rows and all(
                f == "ValueError: len_test must be at least 1 for a pipeline run"
                for f in faults
            )

    def test_file_task_longer_than_the_run(self, tmp_path):
        # The predictions table pairs each prediction with its test-span target.
        path = tmp_path / "series.txt"
        series = np.random.default_rng(3).uniform(0.0, 0.5, 400).tolist()
        path.write_text("".join(f"{v!r}\n" for v in series))
        flags = ["--n", "20", "--len-adev", "8", "--len-train", "100", "--len-test", "50"]
        outdir = tmp_path / "out"
        flags += ["--task", f"file:{path}", "--outdir", str(outdir)]
        assert main(["run", *flags]) == 0
        header, rows = read_csv(outdir / "table_predictions.csv")
        assert len(rows) == 50
        cfg = parse_config(outdir / "config.txt", {})
        targets = load_series(path).targets[cfg.test_span]
        column = header.index("target")
        assert [row[column] for row in rows] == [_format_value(t) for t in targets]

    def test_weights_develops_on_a_file_of_len_adev_pairs(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{0.01 * i!r}\n" for i in range(61)))
        flags = ["--n", "20", "--len-adev", "60", "--weight-inits", "1,1"]
        flags += ["--weight-betas", "0", "--bins", "8"]
        outdir = tmp_path / "out"
        flags += ["--task", f"file:{path}", "--outdir", str(outdir)]
        assert main(["weights", *flags]) == 0
        _, rows = read_csv(outdir / "table_snapshots.csv")
        assert len(rows) == 60 * 8

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("weights", ["--density", "0.5", "--weight-inits", "1,1"]),
            ("astringency", ["--len-train", "6", "--density-grid", "0.3"]),
        ],
    )
    def test_develop_only_study_on_a_file_of_fewer_than_11_pairs(
        self, tmp_path, command, flags
    ):
        # Nine values make eight pairs, enough for five development steps.
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{0.1 * i!r}\n" for i in (1, 5, 2, 9, 3, 7, 4, 8, 6)))
        flags = ["--n", "10", "--len-adev", "5", *flags, "--weight-betas", "0"]
        flags += ["--bins", "4", "--trials", "2", "--task", f"file:{path}"]
        outdir = tmp_path / "out"
        assert main([command, *flags, "--outdir", str(outdir)]) == 0
        if command == "weights":
            _, rows = read_csv(outdir / "table_snapshots.csv")
            assert len(rows) == 2 * 5 * 4

    def test_unknown_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit):
            main(["explode"])
        assert "usage" in capsys.readouterr().err.lower()

    def test_one_parser_with_one_option_per_setting(self):
        parser = cli._build_parser()
        assert not any(
            isinstance(action, argparse._SubParsersAction) for action in parser._actions
        )
        (positional,) = [a for a in parser._actions if not a.option_strings]
        assert (positional.dest, tuple(positional.choices)) == ("command", cli.COMMANDS)
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        settings = [f.name for f in fields(RunConfig) if f.name != "command"]
        expected = [*settings, *cli.KEY_ALIASES, "config"]
        assert sorted(a.dest for a in options) == sorted(expected)
        for action in options:
            assert action.option_strings == [f"--{action.dest.replace('_', '-')}"]

    def test_flags_resolve_alike_before_and_after_the_command(self, monkeypatch, tmp_path):
        configs = []
        monkeypatch.setattr(cli, "dispatch", lambda cfg: configs.append(cfg) or 0)
        path = tmp_path / "c.txt"
        path.write_text("n = 12\n")
        flags = ["--config", str(path), "--lambda", "2", "--rho-grid=-1,0.5", "--trials", "3"]
        for argv in (["sweep", *flags], [*flags, "sweep"], [*flags[:4], "sweep", *flags[4:]]):
            assert main(argv) == 0
        first = configs[0]
        assert (first.command, first.n, first.lam, first.trials) == ("sweep", 12, 2.0, 3)
        assert first.rho_grid == [-1.0, 0.5]
        assert configs == [first] * 3

    def test_a_value_starting_with_a_dash_needs_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["mc", "--nodes", "-1,0.3"])
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["nan,1", "0,inf"])
    def test_non_finite_normalize_bound_is_an_input_error(self, tmp_path, capsys, bounds):
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{0.01 * i!r}\n" for i in range(40)))
        outdir = tmp_path / "out"
        flags = ["--n", "10", "--len-adev", "5", "--len-train", "30", "--len-test", "5"]
        flags += ["--task", f"file:{path}", f"--normalize={bounds}"]
        assert main(["run", *flags, "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "normalize bounds must be finite" in err
        assert not outdir.exists()
        low, high = map(float, bounds.split(","))
        with pytest.raises(ValueError, match="normalize bounds must be finite"):
            RunConfig(task=f"file:{path}", normalize=(low, high))

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_an_unreadable_series_fails_before_any_job(self, tmp_path, capsys, command):
        flags = ["--lambda-grid", "1", "--rho-grid", "0.3", "--density-grid", "0.2"]
        flags += ["--beta-grid", "0", "--weight-betas", "0", "--weight-inits", "1,1"]
        missing, outdir = tmp_path / "missing.txt", tmp_path / "out"
        flags += ["--trials", "2", "--task", f"file:{missing}", "--outdir", str(outdir)]
        assert main([command, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.txt" in err
        assert not outdir.exists()


class TestDirectConfig:
    """A ``RunConfig`` built without ``parse_config`` runs as it stands."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("task", ["narma10", "mg17", "mso12", "file:series.csv"])
    def test_direct_and_parsed_configs_resolve_the_same_rows(self, task, command):
        parsed = parse_config(None, {"task": task, "command": command})
        assert asdict(RunConfig(task=task, command=command)) == asdict(parsed)

    def test_an_unknown_task_fails_when_the_config_is_built(self):
        with pytest.raises(ValueError, match="unknown task 'narma20'"):
            RunConfig(task="narma20")

    def test_an_explicit_value_equal_to_another_rows_default_is_kept(self):
        assert RunConfig(task="mg17").lam == 1.0
        assert RunConfig(task="mg17", lam=4.0).lam == 4.0
        assert RunConfig(command="astringency").beta == 0.0
        assert RunConfig(command="astringency", beta=-math.pi / 2).beta == -math.pi / 2
        assert parse_config(None, {"task": "mg17", "lam": "4"}).lam == 4.0

    TINY_STUDY = dict(
        n=10,
        density=0.3,
        len_adev=5,
        len_train=30,
        len_test=5,
        lambda_grid=[1.0],
        rho_grid=[0.3],
        density_grid=[0.2],
        beta_grid=[0.0],
        weight_inits=[(1.0, 1.0)],
        weight_betas=[0.0],
        bins=4,
        k_max=5,
        length=16,
    )

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_dispatch_runs_every_command_at_its_default_trial_count(
        self, tmp_path, command
    ):
        cfg = RunConfig(command=command, outdir=str(tmp_path), **self.TINY_STUDY)
        trials = COMMAND_DEFAULTS[command]["trials"]
        assert cfg.trials == trials
        assert dispatch(cfg) == 0
        _, rows = read_csv(tmp_path / "records.csv")
        # Sparsity runs each trial adapted and frozen; astringency measures
        # each trial but the first against it.
        expected = {
            "sparsity": 2 * trials,
            "astringency": trials - 1,
            "spectrum": cfg.length // 2 + 1,
        }
        assert len(rows) == expected.get(command, trials)


# Every study at tiny sizes: each command's options on top of TINY.
STUDIES = {
    "run": {},
    "sweep": {"lambda_grid": "1.0,2.0", "rho_grid": "0.3", "trials": 2},
    "mc": {"lambda_grid": "2.0", "rho_grid": "0.4", "k_max": 5, "trials": 2},
    "sparsity": {"density_grid": "0.1,0.3", "trials": 2},
    "astringency": {"density_grid": "0.2,0.4", "trials": 3},
    "beta-sweep": {"beta_grid": "-0.5,0.5", "trials": 2},
    "weights": {"weight_inits": "1,1;5,1", "weight_betas": "0.0", "bins": 8, "trials": 2},
}


@pytest.mark.parametrize("case", ["weights", "mc --format json"])
def test_one_study_writes_the_same_bytes_in_any_directory(tmp_path, case):
    command, *extra = case.split()
    study = [f"--{k.replace('_', '-')}={v}" for k, v in {**TINY, **STUDIES[command]}.items()]
    short, long = tmp_path / "a", tmp_path / "a-much-longer-directory-name" / "out"
    for outdir in (short, long):
        assert main([command, *study, *extra, "--outdir", str(outdir)]) == 0
    names = sorted(path.name for path in short.iterdir())
    assert names == sorted(path.name for path in long.iterdir())
    for name in names:
        assert (short / name).read_bytes() == (long / name).read_bytes(), name
    echoed = (short / "config.txt").read_text().splitlines()
    assert not any(line.startswith("outdir") for line in echoed)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_rerun_from_the_echoed_config_is_byte_identical(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    args = dict(TINY, command=command, outdir=str(first), seed="7")
    args.update({k: str(v) for k, v in STUDIES.get(command, {"length": 64}).items()})
    assert dispatch(parse_config(None, args)) == 0
    echoed = first / "config.txt"
    assert main([command, "--config", str(echoed), "--outdir", str(again)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


class TestRecordsRerunAlone:
    """Every (payload, record key) pair of every study, run alone as a
    one-element plan with an empty task cache, reproduces the cells its
    study wrote."""

    @pytest.mark.parametrize("command", list(STUDIES))
    def test_each_job_reproduces_its_cells(self, tmp_path, monkeypatch, command):
        run = experiments._run
        jobs = []

        def recording(fn, plan, values, workers):
            jobs.extend((fn, pair, values) for pair in plan)
            return run(fn, plan, values, workers)

        monkeypatch.setattr(experiments, "_run", recording)
        args = dict(TINY, command=command, outdir=str(tmp_path), seed="7")
        args.update({k: str(v) for k, v in STUDIES[command].items()})
        assert dispatch(parse_config(None, args)) == 0
        header, rows = read_csv(tmp_path / "records.csv")
        records = [dict(zip(header, row)) for row in rows]

        def rerun(fn, pair, values):
            tasks.release_generated_tasks()
            (record,) = run(fn, [pair], values, 1)
            return record

        if command == "astringency":
            self.check_astringency(jobs, records, rerun)
            return
        assert len(records) == len(jobs)
        tables = {
            path.stem[len("table_") :]: read_csv(path)
            for path in tmp_path.glob("table_*.csv")
        }
        read = dict.fromkeys(tables, 0)
        for job, record in zip(jobs, records):
            alone = rerun(*job)
            job_tables = alone.pop("tables", {})
            assert record == {c: _format_value(alone[c]) for c in header}
            for name, block in job_tables.items():
                columns, table_rows = tables[name]
                arrays = dict(zip(block, np.broadcast_arrays(*block.values())))
                size = next(iter(arrays.values())).size
                block_rows = table_rows[read[name] : read[name] + size]
                for offset, row in enumerate(block_rows):
                    expected = [
                        _format_value(arrays[c].item(offset)) if c in arrays else record[c]
                        for c in columns
                    ]
                    assert row == expected, (name, offset)
                read[name] += size
        assert read == {name: len(table[1]) for name, table in tables.items()}

    @staticmethod
    def check_astringency(jobs, records, rerun):
        # A record compares its trial's coupling with its density's trial 0.
        by_trial = {}
        for job in jobs:
            _, (_, key), _ = job
            by_trial[key["density_index"], key["trial"]] = job
        trials = STUDIES["astringency"]["trials"]
        assert len(records) == len(jobs) // trials * (trials - 1)
        for record in records:
            index, trial = int(record["density_index"]), int(record["trial"])
            job = rerun(*by_trial[index, trial])
            reference = rerun(*by_trial[index, 0])
            expected = {c: job[c] for c in ("density_index", "density", "trial")}
            stages = itertools.product(("initial", "developed"), ("signed", "absolute"))
            for stage, mode in stages:
                distance = matrix_distance(job[stage], reference[stage], mode)
                expected[f"{stage}_{mode}"] = distance
            expected["fault"] = ""
            assert record == {c: _format_value(v) for c, v in expected.items()}
