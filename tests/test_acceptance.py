"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see every line).

Criteria 1 and 6, plus the mirror-symmetry clause of criterion 5, encode
quantitative anchors that the implemented dynamics do not reproduce; they
are asserted at their stated tolerances regardless and fail honestly. The
README paragraph under "Install and test" says why they cannot pass.
"""

import math
import os
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import kuramoto_rc.network as netmod
from kuramoto_rc.cli import dispatch, parse_config
from kuramoto_rc.experiments import (
    SweepSpec,
    default_beta_grid,
    run_astringency,
    run_beta_sweep,
    run_grid_sweep,
    run_mc_study,
    run_sparsity_sweep,
    run_weight_distribution_study,
)
from kuramoto_rc.metrics import memory_capacity, squared_correlation
from kuramoto_rc.reservoir import ReservoirConfig, run_pipeline, train_readout
from kuramoto_rc.tasks import (
    MackeyGlassParams,
    MsoParams,
    gen_mso,
    gen_narma10,
    integrate_mackey_glass,
    spectrum,
)
from test_golden import kernel_path

WORKERS = min(8, os.cpu_count() or 1)
MASTER = 20240817

# The module takes minutes; `pytest -m "not acceptance"` runs everything else.
pytestmark = pytest.mark.acceptance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


@pytest.fixture(scope="module", autouse=True)
def manifest():
    """One line naming what the printed figures depend on besides the
    code: the CPU, the numpy, scipy and BLAS builds, the thread variables
    and the kernel path. Two runs are comparable only when their lines
    agree."""
    threads = " ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    print(
        f"MANIFEST: cpu {cpu_model()} x{os.cpu_count()}; numpy {np.__version__} "
        f"(BLAS {blas_version(np)}); scipy {scipy.__version__} "
        f"(BLAS {blas_version(scipy)}); {threads}; {kernel_path()}"
    )


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def landscape():
    """Full (coupling, radius) landscape shared by criteria 2 and 3."""
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(),
        axes={
            "lam": [round(0.5 * i, 1) for i in range(1, 17)],
            "spectral_target": [round(0.1 * i, 1) for i in range(1, 21)],
        },
        trials=3,
        master_seed=MASTER,
        workers=WORKERS,
    )
    return run_grid_sweep(spec)


def test_criterion_1_astringency():
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(beta=0.0),
        axes={"density": [0.05]},
        trials=10,
        master_seed=MASTER,
        workers=WORKERS,
    )
    result = run_astringency(spec)
    agg = result.aggregates[0]
    ratio = agg["developed_absolute_median"] / agg["initial_absolute_median"]
    ok = ratio <= 1e-6
    assert report(
        1,
        "astringency",
        ok,
        f"median developed/initial absolute distance ratio {ratio:.3e} "
        f"(required <= 1e-06)",
    )


def test_criterion_2_synchrony_performance_colocation(landscape):
    high = [
        a["test_mse_mean"]
        for a in landscape.aggregates
        if a["order_r_mean"] > 0.5
    ]
    low = [
        a["test_mse_mean"]
        for a in landscape.aggregates
        if a["order_r_mean"] <= 0.5
    ]
    nonempty = bool(high) and bool(low)
    colocated = nonempty and float(np.mean(high)) < float(np.mean(low))
    ok = nonempty and colocated
    detail = (
        f"{len(high)} cells with r>0.5 (mean MSE "
        f"{np.mean(high) if high else float('nan'):.4g}), "
        f"{len(low)} cells with r<=0.5 (mean MSE "
        f"{np.mean(low) if low else float('nan'):.4g})"
    )
    assert report(2, "synchrony-performance colocation", ok, detail)


def test_criterion_3_memory_capacity(landscape):
    cells = sorted(landscape.aggregates, key=lambda a: a["order_r_mean"])
    low_cell, high_cell = cells[0], cells[-1]
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(),
        axes={
            "lam": [high_cell["lam"], low_cell["lam"]],
            "spectral_target": [
                high_cell["spectral_target"],
                low_cell["spectral_target"],
            ],
        },
        trials=3,
        master_seed=MASTER + 1,
        workers=WORKERS,
    )
    nodes = [
        (high_cell["lam"], high_cell["spectral_target"]),
        (low_cell["lam"], low_cell["spectral_target"]),
    ]
    result = run_mc_study(spec, nodes, k_max=100)
    _, curve_rows = result.tables["mc_curve"]
    coefficients = np.array([row["coefficient"] for row in curve_rows])
    bounds_ok = bool(np.all((coefficients >= 0.0) & (coefficients <= 1.0)))
    totals_ok = all(rec["mc_total"] <= 100.0 for rec in result.records)
    mc_high = result.aggregates[0]["mc_total_mean"]
    mc_low = result.aggregates[1]["mc_total_mean"]
    separation_ok = mc_high >= 2.0 * mc_low
    ok = bounds_ok and totals_ok and separation_ok
    detail = (
        f"MC_k in [0,1]: {bounds_ok}; MC<=100: {totals_ok}; "
        f"MC(high-r node {nodes[0]}) = {mc_high:.2f} vs "
        f"MC(low-r node {nodes[1]}) = {mc_low:.2f} (need >= 2x)"
    )
    assert report(3, "memory capacity", ok, detail)


def test_criterion_4_sparsity_robustness():
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(),
        axes={"density": [0.05, 0.2, 0.5, 1.0]},
        trials=20,
        master_seed=MASTER + 2,
        workers=WORKERS,
    )
    result = run_sparsity_sweep(spec)
    stats = {}
    for agg in result.aggregates:
        stats[(agg["density"], agg["adaptive"])] = (
            agg["test_mse_mean"],
            agg["test_mse_var"],
        )
    violations = []
    for density in (0.2, 0.5, 1.0):
        mean_dev, var_dev = stats[(density, True)]
        mean_frozen, var_frozen = stats[(density, False)]
        if not (mean_dev <= mean_frozen and var_dev <= var_frozen):
            violations.append(density)
    ok = len(violations) <= 1
    lines = [
        f"d={d}: developed {stats[(d, True)][0]:.4g}/{stats[(d, True)][1]:.3g} "
        f"vs frozen {stats[(d, False)][0]:.4g}/{stats[(d, False)][1]:.3g}"
        for d in (0.2, 0.5, 1.0)
    ]
    detail = f"violations at {violations or 'none'}; " + "; ".join(lines)
    assert report(4, "sparsity robustness", ok, detail)


def test_criterion_5_beta_structure():
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(),
        axes={"beta": default_beta_grid()},
        trials=10,
        master_seed=MASTER + 3,
        workers=WORKERS,
    )
    result = run_beta_sweep(spec)
    by_beta = {round(a["beta"], 9): a for a in result.aggregates}
    grid = sorted(by_beta)
    half_pi = round(math.pi / 2, 9)

    r_plus = by_beta[min(grid, key=lambda b: abs(b - half_pi))]["order_r_mean"]
    r_minus = by_beta[min(grid, key=lambda b: abs(b + half_pi))]["order_r_mean"]
    r_zero = by_beta[min(grid, key=lambda b: abs(b))]["order_r_mean"]
    synchrony_ok = 0.5 * (r_plus + r_minus) > r_zero

    agree = 0
    for beta in grid:
        mirror = min(grid, key=lambda b: abs(b + beta))
        med_a = by_beta[beta]["test_mse_median"]
        med_b = by_beta[mirror]["test_mse_median"]
        if abs(med_a - med_b) <= 0.5 * max(abs(med_a), abs(med_b)):
            agree += 1
    symmetry_ok = agree >= 20

    ok = synchrony_ok and symmetry_ok
    detail = (
        f"mean r at +-pi/2 = {0.5 * (r_plus + r_minus):.3f} "
        f"(r+={r_plus:.3f}, r-={r_minus:.3f}) vs r(0) = {r_zero:.3f}; "
        f"median symmetry holds at {agree}/25 points (need >= 20)"
    )
    assert report(5, "beta structure", ok, detail)


def test_criterion_6_weight_distribution_convergence():
    spec = SweepSpec(
        task="narma10",
        base=ReservoirConfig(len_adev=100),
        axes={"beta": [math.pi / 2]},
        trials=1,
        master_seed=MASTER + 4,
        workers=1,
    )
    result = run_weight_distribution_study(spec, [(0.4, 0.4), (10.0, 10.0)], bins=50)
    rec_a, rec_b = result.records
    fits_agree = (
        abs(rec_a["fitted_a"] - rec_b["fitted_a"]) <= 0.1
        and abs(rec_a["fitted_b"] - rec_b["fitted_b"]) <= 0.1
    )
    reference_fits = [(0.1629, 0.4384), (0.1608, 0.4299)]
    near_reference = all(
        abs(rec["fitted_a"] - target[0]) <= 0.15
        and abs(rec["fitted_b"] - target[1]) <= 0.15
        for rec, target in zip((rec_a, rec_b), reference_fits)
    )
    _, snap_rows = result.tables["snapshots"]
    changes = []
    for combo in (0, 1):
        h10 = np.array(
            [r["count"] for r in snap_rows if r["combo_index"] == combo and r["step"] == 10]
        )
        h100 = np.array(
            [r["count"] for r in snap_rows if r["combo_index"] == combo and r["step"] == 100]
        )
        changes.append(0.5 * np.abs(h10 - h100).sum() / max(h10.sum(), 1))
    settled = all(c < 0.01 for c in changes)
    ok = fits_agree and near_reference and settled
    detail = (
        f"fits ({rec_a['fitted_a']:.4f},{rec_a['fitted_b']:.4f}) and "
        f"({rec_b['fitted_a']:.4f},{rec_b['fitted_b']:.4f}); "
        f"agree within 0.1: {fits_agree}; within 0.15 of "
        f"(0.1629,0.4384)/(0.1608,0.4299): {near_reference}; "
        f"mass moved steps 10->100: {changes[0]:.3f}/{changes[1]:.3f} (need < 0.01)"
    )
    assert report(6, "weight-distribution convergence", ok, detail)


def test_criterion_7_numerical_oracles():
    rng = np.random.default_rng(7)

    ridge_worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(12, 40))
        cols = int(rng.integers(2, 9))
        X = rng.standard_normal((rows, cols))
        y = rng.standard_normal(rows)
        alpha = float(rng.uniform(1e-6, 1.0))
        mine = train_readout(X, y, alpha=alpha).weights
        oracle = scipy.linalg.solve(
            X.T @ X + alpha * np.eye(cols), X.T @ y, assume_a="pos"
        )  # independent normal-equations route (scipy's Cholesky, not numpy's LU)
        ridge_worst = max(ridge_worst, float(np.max(np.abs(mine - oracle))))
    ridge_ok = ridge_worst <= 1e-8

    radius_worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 11))
        K = rng.standard_normal((n, n))
        dense = float(np.max(np.abs(np.linalg.eigvals(K))))
        radius_worst = max(
            radius_worst, abs(netmod.spectral_radius(K) - dense)
        )
    for angle in np.linspace(0.1, 3.0, 8):
        c, s = np.cos(angle), np.sin(angle)
        K = 1.3 * np.array([[c, -s], [s, c]])
        radius_worst = max(radius_worst, abs(netmod.spectral_radius(K) - 1.3))
    radius_ok = radius_worst <= 1e-6

    mc_worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(80)
        y = rng.standard_normal(80) + 0.5 * x
        mx, my = x.mean(), y.mean()
        cov = float(np.mean((x - mx) * (y - my)))
        direct = cov * cov / (float(np.var(x)) * float(np.var(y)))
        mc_worst = max(mc_worst, abs(squared_correlation(x, y) - direct))
    mc_ok = mc_worst <= 1e-12

    ok = ridge_ok and radius_ok and mc_ok
    detail = (
        f"ridge |delta| {ridge_worst:.2e} (<=1e-08); "
        f"radius |delta| {radius_worst:.2e} (<=1e-06); "
        f"MC_k |delta| {mc_worst:.2e} (<=1e-12)"
    )
    assert report(7, "numerical oracles", ok, detail)


def test_criterion_8_generator_fidelity():
    narma = gen_narma10(20, input_override=np.zeros(20))
    narma_ok = narma.targets[0] == 0.1 and narma.targets[1] == 0.1305

    p = MackeyGlassParams()
    m = int(round(p.tau / p.inner_step))
    zero = integrate_mackey_glass(np.zeros(m + 1), None, 1000, p)
    one = integrate_mackey_glass(np.ones(m + 1), np.zeros(m + 1), 1000, p)
    equilibria_ok = (
        float(np.max(np.abs(zero))) <= 1e-10
        and float(np.max(np.abs(one - 1.0))) <= 1e-10
    )

    def endpoint(h):
        params = MackeyGlassParams(
            tau=2.0, inner_step=h, sample_every=int(round(1.0 / h))
        )
        steps = int(round(2.0 / h))
        t_hist = -2.0 + h * np.arange(steps + 1)
        hist = 1.0 + 0.2 * np.sin(0.9 * t_hist)
        derivs = 0.18 * np.cos(0.9 * t_hist)
        return integrate_mackey_glass(hist, derivs, int(round(6.0 / h)), params)[-1]

    reference = endpoint(0.0125)
    ratio = abs(endpoint(0.1) - reference) / abs(endpoint(0.05) - reference)
    rk4_ok = 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    mso = gen_mso(10, MsoParams(frequencies=(0.2, 0.311)))
    mso_ok = mso.inputs[0] == 0.0

    rng = np.random.default_rng(8)
    x = rng.standard_normal(257)
    _, mags = spectrum(x)
    # reassemble the full-spectrum energy from the half spectrum
    total = mags[0] ** 2 + 2.0 * np.sum(mags[1:] ** 2)  # odd length: no Nyquist bin
    parseval_rel = abs(total - x.size * np.sum(x**2)) / (x.size * np.sum(x**2))
    parseval_ok = parseval_rel <= 1e-8

    ok = narma_ok and equilibria_ok and rk4_ok and mso_ok and parseval_ok
    detail = (
        f"NARMA exact: {narma_ok}; MG equilibria: {equilibria_ok}; "
        f"RK4 halving ratio {ratio:.2f} (16 +-20%): {rk4_ok}; "
        f"MSO u(0)=0: {mso_ok}; Parseval rel err {parseval_rel:.1e}: {parseval_ok}"
    )
    assert report(8, "generator fidelity", ok, detail)


def test_criterion_9_determinism(tmp_path):
    overrides = {
        "command": "sweep",
        "task": "narma10",
        "n": "40",
        "len_adev": "20",
        "len_train": "120",
        "len_test": "40",
        "lambda_grid": "1.0,2.0",
        "rho_grid": "0.3,0.6",
        "trials": "2",
        "seed": "31",
    }
    outputs = {}
    for label, workers in (("a", 1), ("b", 2), ("c", 1)):
        outdir = tmp_path / label
        cfg = parse_config(
            None, dict(overrides, workers=str(workers), outdir=str(outdir))
        )
        assert dispatch(cfg) == 0
        outputs[label] = {
            name: (outdir / name).read_bytes()
            for name in ("records.csv", "aggregates.csv")
        }
    rerun_identical = outputs["a"] == outputs["c"]
    workers_identical = outputs["a"] == outputs["b"]
    ok = rerun_identical and workers_identical
    detail = (
        f"rerun byte-identical: {rerun_identical}; "
        f"1 vs 2 workers byte-identical: {workers_identical}"
    )
    assert report(9, "determinism", ok, detail)
