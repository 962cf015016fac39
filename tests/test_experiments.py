from dataclasses import replace

import numpy as np
import pytest

from kuramoto_rc.experiments import (
    SweepSpec,
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
    _NET_STREAM,
    _TASK_STREAM,
)
from kuramoto_rc import experiments, tasks
from kuramoto_rc.network import init_network
from kuramoto_rc.reservoir import ReservoirConfig, drive, run_pipeline
from kuramoto_rc.tasks import make_task


def tiny_base(**kw):
    defaults = dict(n=25, len_adev=20, len_train=120, len_test=30, seed=0)
    defaults.update(kw)
    return ReservoirConfig(**defaults)


class TestDeriveSeed:
    def test_frozen_values(self):
        # pinned so experiment records stay reproducible across releases
        assert derive_seed(0, 1, 0) == 3953331965
        assert derive_seed(0, 2, 0, 0) == 2103646603
        assert derive_seed(123, 2, 4, 7) == 2348527875

    def test_token_sensitivity(self):
        seeds = {
            derive_seed(5, 1, 0),
            derive_seed(5, 1, 1),
            derive_seed(5, 2, 0),
            derive_seed(6, 1, 0),
        }
        assert len(seeds) == 4

    def test_repeatable(self):
        assert derive_seed(9, 3, 2, 1) == derive_seed(9, 3, 2, 1)


class TestSweepSpec:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="axes"):
            SweepSpec(base=tiny_base(), axes={})

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="not a config field"):
            SweepSpec(base=tiny_base(), axes={"lamda": [1.0]})

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, trials=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, workers=workers)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="master_seed"):
            SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, master_seed=-1)

    def test_cells_cartesian_order(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [1.0, 2.0], "spectral_target": [0.1, 0.2, 0.3]},
            trials=1,
        )
        cells = spec.cells()
        assert len(cells) == 6
        assert cells[0] == {"lam": 1.0, "spectral_target": 0.1}
        assert cells[1] == {"lam": 1.0, "spectral_target": 0.2}

    def test_default_grids(self):
        assert len(default_lambda_grid()) == 16
        assert len(default_rho_grid()) == 20
        grid = default_beta_grid()
        assert len(grid) == 25
        assert grid[0] == pytest.approx(-np.pi)
        assert grid[-1] == pytest.approx(np.pi)
        assert grid[13] - grid[12] == pytest.approx(np.pi / 12)


class TestGridSweep:
    def test_record_cardinality(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [1.0, 2.0, 3.0], "spectral_target": [0.2, 0.4, 0.6, 0.8]},
            trials=2,
            master_seed=1,
        )
        result = run_grid_sweep(spec)
        assert len(result.records) == 24
        assert len(result.aggregates) == 12
        assert result.n_faults == 0

    def test_single_cell_matches_direct_pipeline(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [2.0]},
            trials=1,
            master_seed=77,
        )
        result = run_grid_sweep(spec)
        record = result.records[0]
        cfg = replace(tiny_base(), lam=2.0, seed=derive_seed(77, _NET_STREAM, 0, 0))
        data = make_task(
            "narma10",
            cfg.len_train + cfg.len_test,
            seed=derive_seed(77, _TASK_STREAM, 0),
        )
        direct = run_pipeline(cfg, data)
        assert record["test_mse"] == direct.test_mse
        assert record["train_mse"] == direct.train_mse

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(
            base=tiny_base(),
            axes={"lam": [1.0, 3.0], "spectral_target": [0.3, 0.6]},
            trials=2,
            master_seed=5,
        )
        density = dict(kwargs, axes={"density": [0.1, 0.3]})
        weights = dict(kwargs, base=tiny_base(len_adev=4), axes={"beta": [0.0]})
        studies = [
            (run_grid_sweep, kwargs, ()),
            (run_mc_study, kwargs, ([(1.0, 0.3), (3.0, 0.6)], 5)),
            (run_sparsity_sweep, density, ()),
            (run_astringency, density, ()),
            (run_weight_distribution_study, weights, ([(1.0, 1.0)], 5)),
        ]
        for study, spec_kwargs, args in studies:
            serial = study(SweepSpec(workers=1, **spec_kwargs), *args)
            parallel = study(SweepSpec(workers=2, **spec_kwargs), *args)
            assert serial.n_faults == 0
            assert serial.records == parallel.records
            assert serial.aggregates == parallel.aggregates
            assert serial.tables == parallel.tables

    @pytest.mark.parametrize("workers, jobs, pool_size", [(8, 2, 2), (2, 3, 2)])
    def test_pool_has_no_more_workers_than_jobs(
        self, monkeypatch, workers, jobs, pool_size
    ):
        # A recording stand-in for the pool runs the jobs in this process,
        # so no worker is started whatever the requested count.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        inits = [(1.0, 1.0), (5.0, 1.0), (1.0, 5.0)][:jobs]

        def study(n_workers):
            spec = SweepSpec(
                base=tiny_base(len_adev=5),
                axes={"beta": [0.0]},
                trials=1,
                workers=n_workers,
            )
            return run_weight_distribution_study(spec, inits, 4)

        serial = study(1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        pooled = study(workers)
        assert sizes == [pool_size]
        assert pooled.records == serial.records
        assert pooled.tables == serial.tables

    def test_record_reproducible_in_isolation(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [1.5, 2.5]},
            trials=2,
            master_seed=9,
        )
        result = run_grid_sweep(spec)
        record = result.records[3]
        from dataclasses import replace

        cfg = replace(tiny_base(), lam=record["lam"], seed=record["net_seed"])
        data = make_task(
            "narma10", cfg.len_train + cfg.len_test, seed=record["task_seed"]
        )
        assert run_pipeline(cfg, data).test_mse == record["test_mse"]

    def test_faults_recorded_not_raised(self):
        # Each job's phases overflow in development. A missing series file
        # is an input error instead: it is read before any job.
        spec = SweepSpec(
            base=diverging_base(),
            axes={"lam": [1e308, 1.5e308]},
            trials=1,
            master_seed=2,
        )
        with pytest.raises(FileNotFoundError):
            run_grid_sweep(replace(spec, task="file:/nonexistent/series.txt"))
        result = run_grid_sweep(spec)
        assert result.n_faults == 2
        assert all(rec["fault"] for rec in result.records)
        assert all(agg["n_faults"] == 1 for agg in result.aggregates)
        assert all(np.isnan(agg["test_mse_mean"]) for agg in result.aggregates)

    def test_aggregates_match_recomputation_and_hand_mean(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [2.0]},
            trials=3,
            master_seed=4,
        )
        result = run_grid_sweep(spec)
        assert result.recompute_aggregates() == result.aggregates
        values = [rec["test_mse"] for rec in result.records]
        assert result.aggregates[0]["test_mse_mean"] == pytest.approx(
            float(np.mean(values))
        )
        assert result.aggregates[0]["test_mse_var"] == pytest.approx(
            float(np.var(values))
        )


class TestMcStudy:
    def test_empty_node_list(self):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, trials=1)
        result = run_mc_study(spec, [], k_max=5)
        assert result.records == []
        assert result.aggregates == []

    def test_duplicate_nodes_get_independent_records(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [2.0], "spectral_target": [0.4]},
            trials=1,
            master_seed=3,
        )
        result = run_mc_study(spec, [(2.0, 0.4), (2.0, 0.4)], k_max=5)
        assert len(result.records) == 2
        a, b = result.records
        assert a["node_index"] != b["node_index"]
        assert a["mc_total"] != b["mc_total"]

    def test_nodes_outside_grid_fault(self):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, trials=1)
        with pytest.raises(ValueError, match="outside"):
            run_mc_study(spec, [(9.9, 0.4)], k_max=5)

    def test_curve_table_shape_and_bounds(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"lam": [2.0]},
            trials=2,
            master_seed=6,
        )
        result = run_mc_study(spec, [(2.0, 0.3)], k_max=8)
        columns, rows = result.tables["mc_curve"]
        assert len(rows) == 2 * 8
        coeffs = [row["coefficient"] for row in rows]
        assert all(0.0 <= c <= 1.0 for c in coeffs)
        for rec in result.records:
            trial_rows = [
                r["coefficient"] for r in rows if r["trial"] == rec["trial"]
            ]
            assert rec["mc_total"] == pytest.approx(sum(trial_rows))


class TestTaskLifetime:
    """A generated task is built once per study and released when the
    study's jobs are done."""

    SPEC = SweepSpec(
        task="mg17",
        base=tiny_base(),
        axes={"lam": [1.0, 2.0], "spectral_target": [0.3, 0.6]},
        trials=3,
        master_seed=4,
    )
    NODES = [(1.0, 0.3), (2.0, 0.6)]

    @pytest.fixture
    def generated(self, monkeypatch):
        calls = []
        generate = tasks.gen_mackey_glass

        def counting(length, params=None, seed=0):
            calls.append((length, seed))
            return generate(length, params, seed)

        monkeypatch.setattr(tasks, "gen_mackey_glass", counting)
        tasks.release_generated_tasks()
        return calls

    def test_each_task_is_generated_once_per_serial_study(self, generated):
        result = run_mc_study(self.SPEC, self.NODES, k_max=4)
        assert len(result.records) == 6 and result.n_faults == 0
        assert len(generated) == len(set(generated)) == 3
        assert tasks._generated_task.cache_info().currsize == 0
        again = run_mc_study(self.SPEC, self.NODES, k_max=4)
        assert again.records == result.records
        assert generated[3:] == generated[:3]  # generated again, not kept

    def test_a_study_that_raises_still_releases_its_tasks(self, generated, monkeypatch):
        # A job is looked up when the study runs; the runner does not guard
        # against an interrupt, which is no Exception.
        job = experiments._pipeline_job

        def last_job_raises(payload):
            out = job(payload)
            if payload["seed_key"][1:] == (1, 2):
                raise KeyboardInterrupt
            return out

        monkeypatch.setattr(experiments, "_pipeline_job", last_job_raises)
        with pytest.raises(KeyboardInterrupt):
            run_mc_study(self.SPEC, self.NODES, k_max=4)
        assert len(generated) == 3
        assert tasks._generated_task.cache_info().currsize == 0


class TestSparsitySweep:
    def test_two_records_per_density_per_trial(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"density": [0.1, 0.5]},
            trials=3,
            master_seed=8,
        )
        result = run_sparsity_sweep(spec)
        assert len(result.records) == 2 * 2 * 3
        per_density = {}
        for rec in result.records:
            per_density.setdefault(rec["density"], []).append(rec["adaptive"])
        for modes in per_density.values():
            assert sum(modes) == 3 and len(modes) == 6

    def test_zero_density_runs_legally(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"density": [0.0]},
            trials=1,
            master_seed=8,
        )
        result = run_sparsity_sweep(spec)
        assert result.n_faults == 0
        assert all(np.isfinite(rec["test_mse"]) for rec in result.records)

    def test_requires_density_axis(self):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, trials=1)
        with pytest.raises(ValueError, match="density"):
            run_sparsity_sweep(spec)

    def test_adaptive_axis_is_outside_the_paired_cells(self):
        # The study runs every density both adaptive and frozen.
        spec = SweepSpec(
            base=tiny_base(), axes={"density": [0.2], "adaptive": [True]}, trials=1
        )
        with pytest.raises(ValueError, match="outside"):
            run_sparsity_sweep(spec)


class TestAstringency:
    def test_distance_columns_and_counts(self):
        spec = SweepSpec(
            base=tiny_base(beta=0.0),
            axes={"density": [0.1, 0.3]},
            trials=4,
            master_seed=11,
        )
        result = run_astringency(spec)
        assert len(result.records) == 2 * 3  # trials-1 rows per density
        for rec in result.records:
            assert rec["initial_absolute"] > 0.0
            assert rec["developed_absolute"] >= 0.0
            assert abs(rec["initial_signed"]) <= rec["initial_absolute"]

    def test_development_contracts_distances(self):
        spec = SweepSpec(
            base=tiny_base(n=60, len_adev=60, len_train=80, len_test=10, beta=0.0),
            axes={"density": [0.1]},
            trials=4,
            master_seed=12,
        )
        result = run_astringency(spec)
        agg = result.aggregates[0]
        assert (
            agg["developed_absolute_median"] < agg["initial_absolute_median"]
        )

    def test_deterministic(self):
        spec = SweepSpec(
            base=tiny_base(beta=0.0),
            axes={"density": [0.2]},
            trials=3,
            master_seed=13,
        )
        assert run_astringency(spec).records == run_astringency(spec).records

    def test_needs_at_least_two_trials(self):
        spec = SweepSpec(base=tiny_base(beta=0.0), axes={"density": [0.1]}, trials=1)
        with pytest.raises(ValueError, match="2 trials"):
            run_astringency(spec)


class TestBetaSweep:
    def test_default_grid_has_25_points(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"beta": default_beta_grid()},
            trials=1,
            master_seed=14,
        )
        result = run_beta_sweep(spec)
        assert len(result.records) == 25
        assert len(result.aggregates) == 25

    def test_quartile_statistics_present(self):
        spec = SweepSpec(
            base=tiny_base(),
            axes={"beta": [0.0, np.pi / 2]},
            trials=5,
            master_seed=15,
        )
        result = run_beta_sweep(spec)
        agg = result.aggregates[0]
        for key in (
            "test_mse_median",
            "test_mse_q1",
            "test_mse_q3",
            "test_mse_whisker_low",
            "test_mse_whisker_high",
            "test_mse_n_outliers",
        ):
            assert key in agg
        assert agg["test_mse_q1"] <= agg["test_mse_median"] <= agg["test_mse_q3"]
        assert result.recompute_aggregates() == result.aggregates


class TestWeightDistributionStudy:
    def test_records_and_tables(self):
        spec = SweepSpec(
            base=tiny_base(len_adev=15),
            axes={"beta": [0.0, np.pi / 2]},
            trials=1,
            master_seed=16,
        )
        result = run_weight_distribution_study(spec, [(1.0, 1.0), (5.0, 1.0)], bins=10)
        assert len(result.records) == 4
        _, snap_rows = result.tables["snapshots"]
        assert len(snap_rows) == 4 * 15 * 10
        _, final_rows = result.tables["final_hist"]
        assert len(final_rows) == 4 * 10
        n_live = result.records[0]["n_live"]
        for combo in range(4):
            total = sum(
                r["count"] for r in final_rows if r["combo_index"] == combo
            )
            assert total == n_live

    def test_uniform_init_matches_flat_beta_init(self):
        # Beta(1,1) is the uniform law: histograms of the two init paths agree
        uniform_net = init_network(80, 1.0, seed=21)
        beta_net = init_network(80, 1.0, seed=22, weight_init=(1.0, 1.0))
        h_uniform, _ = np.histogram(
            uniform_net.coupling[uniform_net.mask], bins=8, range=(-1, 1)
        )
        h_beta, _ = np.histogram(
            beta_net.coupling[beta_net.mask], bins=8, range=(-1, 1)
        )
        n = uniform_net.mask.sum()
        assert np.abs(h_uniform - h_beta).sum() / n < 0.05

    def test_requires_nonempty_lists(self):
        spec = SweepSpec(base=tiny_base(), axes={"beta": [0.0]}, trials=1)
        with pytest.raises(ValueError, match="nonempty"):
            run_weight_distribution_study(spec, [])

    def test_requires_a_beta_axis(self):
        spec = SweepSpec(base=tiny_base(), axes={"lam": [1.0]}, trials=1)
        with pytest.raises(ValueError, match="'beta' axis"):
            run_weight_distribution_study(spec, [(1.0, 1.0)])


# Studies that choose their own cells, each with the axes it reads.
OWN_CELL_STUDIES = {
    "mc": (
        lambda spec: run_mc_study(spec, [(2.0, 0.4)], k_max=5),
        {"lam": [2.0], "spectral_target": [0.4]},
    ),
    "sparsity": (run_sparsity_sweep, {"density": [0.2]}),
    "astringency": (run_astringency, {"density": [0.2]}),
    "weights": (
        lambda spec: run_weight_distribution_study(spec, [(1.0, 1.0)], bins=5),
        {"beta": [0.0]},
    ),
}


@pytest.mark.parametrize("study", list(OWN_CELL_STUDIES))
def test_unread_axis_is_rejected_by_name(study):
    run, axes = OWN_CELL_STUDIES[study]
    spec = SweepSpec(base=tiny_base(), axes={**axes, "epsilon": [0.2]}, trials=2)
    with pytest.raises(ValueError, match="epsilon") as excinfo:
        run(spec)
    assert not any(name in str(excinfo.value) for name in axes)


def diverging_base():
    # At lam = 1e308 the phases of this network overflow during development.
    return ReservoirConfig(
        n=20,
        density=0.3,
        len_adev=60,
        len_train=80,
        len_test=10,
        lam=1e308,
        spectral_target=2.0,
    )


class TestFaultIsolation:
    DIVERGED = "FloatingPointError: non-finite phase"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_astringency_records_faults(self, workers):
        spec = SweepSpec(
            base=replace(diverging_base(), beta=0.0),
            axes={"density": [0.3]},
            trials=3,
            workers=workers,
        )
        result = run_astringency(spec)
        assert result.n_faults == 2
        for rec in result.records:
            assert rec["fault"].startswith("reference trial: " + self.DIVERGED)
            assert np.isnan(rec["developed_absolute"])
            assert np.isnan(rec["initial_signed"])
        assert result.aggregates[0]["n_faults"] == 2
        assert np.isnan(result.aggregates[0]["developed_signed_mean"])

    def test_astringency_fault_stays_with_its_trial(self, monkeypatch):
        calls = []

        def drive_failing_second(net, inputs, target=None, on_step=None):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("injected")
            return drive(net, inputs, target, on_step)

        monkeypatch.setattr(experiments, "drive", drive_failing_second)
        spec = SweepSpec(base=tiny_base(beta=0.0), axes={"density": [0.3]}, trials=3)
        first, second = run_astringency(spec).records
        assert first["fault"] == "FloatingPointError: injected"
        assert np.isnan(first["developed_signed"])
        assert second["fault"] == ""
        assert np.isfinite(second["developed_signed"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_weight_study_records_faults(self, workers):
        spec = SweepSpec(
            base=diverging_base(), axes={"beta": [0.0]}, trials=2, workers=workers
        )
        result = run_weight_distribution_study(spec, [(1.0, 1.0)], bins=5)
        assert result.n_faults == 2
        for rec in result.records:
            assert rec["fault"].startswith(self.DIVERGED)
            assert all(np.isnan(rec[c]) for c in ("n_live", "fitted_a", "fitted_b"))
            assert "tables" not in rec
        assert result.tables["snapshots"][1] == []
        assert result.tables["final_hist"][1] == []
        assert result.aggregates[0]["n_faults"] == 2

    def test_pipeline_studies_record_faults(self):
        spec = SweepSpec(base=diverging_base(), axes={"density": [0.3]}, trials=1)
        mc_spec = replace(spec, axes={"lam": [1e308], "spectral_target": [2.0]})
        for result in (
            run_grid_sweep(spec),
            run_sparsity_sweep(spec),
            run_mc_study(mc_spec, [(1e308, 2.0)], k_max=5),
        ):
            assert result.n_faults == len(result.records) >= 1
            for rec in result.records:
                assert rec["fault"].startswith(self.DIVERGED)
                assert np.isnan(rec["test_mse"]) and np.isnan(rec["order_r"])
                assert "tables" not in rec
        assert np.isnan(result.records[0]["mc_total"])
        assert result.tables["mc_curve"][1] == []
