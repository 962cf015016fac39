import numpy as np
import pytest

from kuramoto_rc.metrics import (
    MC_WASHOUT,
    beta_fit,
    matrix_distance,
    memory_capacity,
    squared_correlation,
    weight_histogram,
)
from kuramoto_rc.reservoir import (
    ReservoirConfig,
    build_features,
    drive,
    run_pipeline,
    solve_ridge,
)
from kuramoto_rc.tasks import gen_narma10


class TestSquaredCorrelation:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert squared_correlation(x, x) == pytest.approx(1.0)
        assert squared_correlation(x, 2.0 * x + 3.0) == pytest.approx(1.0)

    def test_constant_convention(self):
        x = np.random.default_rng(1).standard_normal(50)
        assert squared_correlation(x, np.full(50, 0.7)) == 0.0
        assert squared_correlation(np.full(50, 0.7), x) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_covariance_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64)
        y = rng.standard_normal(64) + 0.4 * x
        # direct evaluation with explicit sums
        mx, my = sum(x) / 64, sum(y) / 64
        cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / 64
        vx = sum((a - mx) ** 2 for a in x) / 64
        vy = sum((b - my) ** 2 for b in y) / 64
        direct = cov * cov / (vx * vy)
        assert squared_correlation(x, y) == pytest.approx(direct, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            value = squared_correlation(
                rng.standard_normal(30), rng.standard_normal(30)
            )
            assert 0.0 <= value <= 1.0


@pytest.fixture(scope="module")
def developed_default():
    cfg = ReservoirConfig(seed=3)
    data = gen_narma10(cfg.len_train + cfg.len_test, seed=7)
    return cfg, run_pipeline(cfg, data).network


class TestMemoryCapacity:
    def test_bounds(self, developed_default):
        cfg, net = developed_default
        curve = memory_capacity(cfg, net, k_max=20, seed=1)
        assert curve.coefficients.shape == (20,)
        assert np.all(curve.coefficients >= 0.0)
        assert np.all(curve.coefficients <= 1.0)
        assert 0.0 <= curve.total <= 20.0

    def test_prefix_sum_property(self, developed_default):
        cfg, net = developed_default
        long = memory_capacity(cfg, net, k_max=15, seed=2)
        short = memory_capacity(cfg, net, k_max=5, seed=2)
        assert np.allclose(short.coefficients, long.coefficients[:5], atol=1e-9)
        assert short.total <= long.total + 1e-9

    def test_locked_reservoir_holds_recent_input(self, developed_default):
        cfg, net = developed_default
        curve = memory_capacity(cfg, net, k_max=10, seed=3)
        assert curve.coefficients[0] > 0.5

    def test_coupling_frozen_during_evaluation(self, developed_default):
        cfg, net = developed_default
        before = net.coupling.copy()
        memory_capacity(cfg, net, k_max=3, seed=4)
        assert np.array_equal(net.coupling, before)

    def test_validation(self, developed_default):
        cfg, net = developed_default
        with pytest.raises(ValueError):
            memory_capacity(cfg, net, k_max=0)
        with pytest.raises(ValueError):
            memory_capacity(cfg, net, k_max=MC_WASHOUT + 1)

    def test_singular_readout_advises_alpha(self):
        # One oscillator: up to rounding, its centred sine vanishes and its
        # cosine repeats the bias column, so at alpha = 0 the normal
        # equations of the 420 training rows are singular.
        cfg = ReservoirConfig(n=1, density=0.0, ridge_alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            memory_capacity(cfg, cfg.build_network(), k_max=3)

    def test_probe_protocol(self, developed_default):
        # 100 washout steps, 600 collected states, readouts fitted on the
        # first 420 rows and scored on the last 180.
        cfg, net = developed_default
        k_max, seed = 12, 5
        s = np.random.default_rng(seed).uniform(-0.5, 0.5, 100 + 600)
        frozen = net.copy()
        drive(frozen, s[:100])
        feats = build_features(drive(frozen, s[100:]), cfg)
        delayed = np.column_stack([s[100 - k : 700 - k] for k in range(1, k_max + 1)])
        weights = solve_ridge(feats[:420], delayed[:420], cfg.ridge_alpha)
        outputs = feats[420:] @ weights
        expected = [
            squared_correlation(delayed[420:, k], outputs[:, k]) for k in range(k_max)
        ]
        curve = memory_capacity(cfg, net, k_max=k_max, seed=seed)
        assert curve.coefficients.tolist() == expected


class TestMatrixDistance:
    def test_equal_matrices(self):
        K = np.random.default_rng(0).standard_normal((5, 5))
        assert matrix_distance(K, K, "signed") == 0.0
        assert matrix_distance(K, K, "absolute") == 0.0

    def test_signed_cancellation(self):
        Ka = np.array([[1.0, -1.0], [0.0, 0.0]])
        Kb = np.zeros((2, 2))
        assert matrix_distance(Ka, Kb, "signed") == 0.0
        assert matrix_distance(Ka, Kb, "absolute") == 2.0

    def test_hand_sum(self):
        Ka = np.array([[0.5, 0.5], [0.0, 0.0]])
        Kb = np.zeros((2, 2))
        assert matrix_distance(Ka, Kb, "signed") == pytest.approx(1.0)
        assert matrix_distance(Ka, Kb, "absolute") == pytest.approx(1.0)

    def test_shape_mismatch_faults(self):
        with pytest.raises(ValueError, match="shape"):
            matrix_distance(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            matrix_distance(np.zeros((2, 2)), np.zeros((2, 2)), "manhattan")

    @pytest.mark.parametrize("seed", range(10))
    def test_absolute_mode_is_a_metric(self, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (rng.standard_normal((4, 4)) for _ in range(3))
        dab = matrix_distance(A, B, "absolute")
        dba = matrix_distance(B, A, "absolute")
        dac = matrix_distance(A, C, "absolute")
        dcb = matrix_distance(C, B, "absolute")
        assert dab == pytest.approx(dba)
        assert dab >= 0.0
        assert dab <= dac + dcb + 1e-12


class TestBetaFit:
    def test_uniform_sample_fits_flat(self):
        rng = np.random.default_rng(0)
        fit = beta_fit(rng.uniform(-1.0, 1.0, 10**6))
        assert fit.a == pytest.approx(1.0, abs=0.02)
        assert fit.b == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("a0,b0", [(5.0, 1.0), (0.5, 0.5), (2.0, 8.0), (10.0, 10.0)])
    def test_round_trip(self, a0, b0):
        rng = np.random.default_rng(42)
        w = 2.0 * rng.beta(a0, b0, 10**6) - 1.0
        fit = beta_fit(w)
        assert fit.a == pytest.approx(a0, abs=0.1)
        assert fit.b == pytest.approx(b0, abs=0.1)

    def test_degenerate_sample_faults(self):
        with pytest.raises(ValueError, match="degenerate"):
            beta_fit(np.full(100, 0.25))

    def test_infeasible_moments_fault(self):
        # half at each endpoint: variance equals m(1-m)
        with pytest.raises(ValueError, match="infeasible"):
            beta_fit(np.array([-1.0, 1.0] * 10))

    def test_small_sample_faults(self):
        with pytest.raises(ValueError, match="10"):
            beta_fit(np.linspace(-0.5, 0.5, 9))


class TestWeightHistogram:
    def test_all_zero_weights(self):
        K = np.zeros((4, 4))
        mask = ~np.eye(4, dtype=bool)
        centers, counts = weight_histogram(K, mask, bins=4)
        assert counts.sum() == 12
        # zero falls in the third of four bins over [-1, 1]
        assert counts[2] == 12

    def test_endpoints_two_bins(self):
        K = np.array([[0.0, -1.0], [1.0, 0.0]])
        mask = np.array([[False, True], [True, False]])
        centers, counts = weight_histogram(K, mask, bins=2)
        assert list(counts) == [1, 1]

    def test_count_conservation(self):
        rng = np.random.default_rng(5)
        K = rng.uniform(-1, 1, (20, 20))
        mask = rng.random((20, 20)) < 0.3
        np.fill_diagonal(mask, False)
        K = np.where(mask, K, 0.0)
        _, counts = weight_histogram(K, mask, bins=17)
        assert counts.sum() == mask.sum()

    def test_out_of_range_values_clipped_into_edge_bins(self):
        K = np.array([[0.0, 1.7], [-2.3, 0.0]])
        mask = np.array([[False, True], [True, False]])
        _, counts = weight_histogram(K, mask, bins=4)
        assert counts.sum() == 2
        assert counts[0] == 1 and counts[-1] == 1

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            weight_histogram(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), bins=0)
