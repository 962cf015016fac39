import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramoto_rc.network import (
    TWO_PI,
    coupling_step,
    order_parameter,
    phase_step,
    rescale_to_radius,
)
from kuramoto_rc.reservoir import (
    CENTRE_BLOCK,
    ReservoirConfig,
    Readout,
    StateTrace,
    TaskData,
    build_features,
    develop_and_collect,
    drive,
    predict,
    run_pipeline,
    solve_ridge,
    train_readout,
)
from kuramoto_rc.tasks import gen_narma10


def small_cfg(**kw):
    base = dict(
        n=30,
        len_adev=30,
        len_train=200,
        len_test=60,
        seed=5,
    )
    base.update(kw)
    return ReservoirConfig(**base)


class TestTaskData:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TaskData(inputs=np.zeros(3), targets=np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TaskData(inputs=np.array([1.0, np.nan]), targets=np.zeros(2))


class TestConfig:
    def test_defaults_follow_benchmark_row(self):
        cfg = ReservoirConfig()
        assert (cfg.n, cfg.density) == (100, 0.05)
        assert (cfg.len_adev, cfg.len_train, cfg.len_test) == (100, 900, 500)
        assert cfg.lam == 4.0
        assert cfg.epsilon == 0.1
        assert cfg.dt == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirConfig(len_adev=900, len_train=900)
        with pytest.raises(ValueError):
            ReservoirConfig(n=0)
        with pytest.raises(ValueError):
            ReservoirConfig(lam=0.0)
        with pytest.raises(ValueError):
            ReservoirConfig(ridge_alpha=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "density",
            "spectral_target",
            "lam",
            "beta",
            "epsilon",
            "dt",
            "frequency_scale",
            "ridge_alpha",
        ],
    )
    def test_non_finite_float_is_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ReservoirConfig(**{name: value})


class TestDrive:
    @pytest.mark.parametrize("target", [None, 0.3], ids=["frozen", "adaptive"])
    def test_rows_are_successive_phase_steps(self, target):
        # Frozen, each row is one phase step. With a target, each row is the
        # phases on_step sees, and the coupling replays phase step, coupling
        # step and rescale by hand.
        cfg = small_cfg()
        inputs = gen_narma10(40, seed=6).inputs
        net, replay = cfg.build_network(), cfg.build_network()
        coupling = net.coupling.copy()
        seen = []

        def on_step(i, current):
            seen.append((i, current.phases.copy()))

        states = drive(net, inputs, target, on_step)
        assert states.shape == (40, cfg.n)
        assert [i for i, _ in seen] == list(range(1, 41))
        for row, u, (_, phases) in zip(states, inputs, seen):
            assert np.array_equal(row, phase_step(replay, u))
            assert np.array_equal(row, phases)
            if target is not None:
                coupling_step(replay)
                rescale_to_radius(replay, target)
        assert np.array_equal(net.phases, replay.phases)
        assert np.array_equal(net.coupling, replay.coupling)
        assert np.array_equal(net.coupling, coupling) == (target is None)

    def test_empty_inputs_leave_phases(self):
        net = small_cfg().build_network()
        net.phases = np.linspace(0.0, 6.0, net.n)
        before = net.phases.copy()
        states = drive(net, np.empty(0))
        assert states.shape == (0, net.n)
        assert np.array_equal(net.phases, before)


class TestDevelopAndCollect:
    def test_frozen_baseline_keeps_initial_coupling(self):
        cfg = small_cfg(adaptive=False)
        data = gen_narma10(cfg.len_train, seed=1)
        initial = cfg.build_network().coupling
        net, _ = develop_and_collect(cfg, data)
        assert np.array_equal(net.coupling, initial)

    def test_zero_rate_keeps_coupling_up_to_rescale(self):
        cfg = small_cfg(epsilon=0.0)
        data = gen_narma10(cfg.len_train, seed=1)
        initial = cfg.build_network().coupling
        net, _ = develop_and_collect(cfg, data)
        # each rescale is then numerically the identity
        assert np.allclose(net.coupling, initial, atol=1e-8)

    def test_row_count(self):
        cfg = small_cfg()
        data = gen_narma10(cfg.len_train, seed=2)
        _, trace = develop_and_collect(cfg, data)
        assert trace.states.shape[0] == cfg.len_train - cfg.len_adev + 1

    def test_row_count_extra_mode(self):
        cfg = small_cfg(extra_train_after_dev=True)
        data = gen_narma10(cfg.len_adev + cfg.len_train, seed=2)
        _, trace = develop_and_collect(cfg, data)
        assert trace.states.shape[0] == cfg.len_train

    def test_states_are_wrapped_phases(self):
        cfg = small_cfg()
        data = gen_narma10(cfg.len_train, seed=3)
        _, trace = develop_and_collect(cfg, data)
        assert np.all(trace.states >= 0.0)
        assert np.all(trace.states < 2 * np.pi)

    def test_replay_equality(self):
        # collected rows are exactly the phases phase_step produced
        cfg = small_cfg(adaptive=False)
        data = gen_narma10(cfg.len_train, seed=4)
        _, trace = develop_and_collect(cfg, data)
        net = cfg.build_network()
        rows = []
        for i in range(cfg.len_train):
            phase_step(net, data.inputs[i])
            if i + 1 >= cfg.len_adev:
                rows.append(net.phases.copy())
        assert np.array_equal(trace.states, np.array(rows))
        assert np.array_equal(
            trace.targets, data.targets[cfg.len_adev - 1 : cfg.len_train]
        )

    def test_insufficient_data_names_lengths(self):
        cfg = small_cfg()
        data = gen_narma10(50, seed=1)
        with pytest.raises(ValueError, match="200.*50"):
            develop_and_collect(cfg, data)

    def test_developed_coupling_converges_across_value_seeds(self):
        # same mask, frequencies, and input; only the initial live weights
        # differ: development pulls the matrices together
        from kuramoto_rc.network import init_network, reinitialize_weights
        from kuramoto_rc.metrics import matrix_distance

        cfg = ReservoirConfig(len_adev=100, len_train=150, len_test=10, beta=0.0)
        data = gen_narma10(cfg.len_train, seed=9)
        base = init_network(
            cfg.n,
            cfg.density,
            123,
            global_coupling=cfg.lam,
            character_parameter=0.0,
            adaptation_rate=cfg.epsilon,
            frequency_scale=cfg.frequency_scale,
        )
        nets = [
            reinitialize_weights(base, seed, spectral_target=cfg.spectral_target)
            for seed in (1, 2)
        ]
        initial = matrix_distance(nets[0].coupling, nets[1].coupling, "absolute")
        # The development develop_and_collect runs: len_adev - 1 steps.
        steps = data.inputs[: cfg.len_adev - 1]
        for net in nets:
            drive(net, steps, cfg.spectral_target)
        final = matrix_distance(nets[0].coupling, nets[1].coupling, "absolute")
        assert final < initial

    def test_dev_phases_snapshot(self):
        # frozen mode replays exactly: the snapshot is the phase state
        # right after the last development-stage step
        cfg = small_cfg(adaptive=False)
        data = gen_narma10(cfg.len_train, seed=5)
        _, trace = develop_and_collect(cfg, data)
        net = cfg.build_network()
        for i in range(1, cfg.len_adev):
            phase_step(net, data.inputs[i - 1])
        assert np.array_equal(trace.dev_phases, net.phases)


class TestTrainReadout:
    def test_single_feature_ols(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        readout = train_readout(x[:, None], y, alpha=0.0)
        assert readout.weights[0] == pytest.approx(
            float(x @ y) / float(x @ x), rel=1e-12
        )

    def test_exact_linear_map(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 1))
        readout = train_readout(X, 3.0 * X[:, 0], alpha=0.0)
        assert readout.weights[0] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_augmented_lstsq_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        alpha = 0.01
        readout = train_readout(X, y, alpha=alpha)
        # independent route: SVD least squares on the ridge-augmented system
        Xa = np.vstack([X, np.sqrt(alpha) * np.eye(5)])
        ya = np.concatenate([y, np.zeros(5)])
        oracle = np.linalg.lstsq(Xa, ya, rcond=None)[0]
        assert np.max(np.abs(readout.weights - oracle)) < 1e-8

    def test_weight_norm_shrinks_with_alpha(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 8))
        y = rng.standard_normal(50)
        norms = [
            np.linalg.norm(train_readout(X, y, alpha=a).weights)
            for a in (1e-3, 1.0, 1e3)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_singular_system_advises_alpha(self):
        X = np.zeros((10, 3))
        X[:, 0] = np.arange(10)
        X[:, 1] = 2 * np.arange(10)  # exactly collinear
        with pytest.raises(ValueError, match="alpha"):
            train_readout(X, np.arange(10.0), alpha=0.0)

    def test_singular_gram_that_factorizes_through_rounding_advises_alpha(self):
        # Two equal columns: X'X is singular in exact arithmetic, but its
        # rounded Cholesky factor keeps a pivot of 2.6e-9, so a
        # factorization alone would not fail; the Gram's condition number
        # reaches 1/eps.
        X = np.full((3, 2), 0.1)
        scipy.linalg.cholesky(X.T @ X)
        assert np.linalg.cond(X.T @ X, 1) >= 1.0 / np.finfo(float).eps
        with pytest.raises(ValueError, match="alpha"):
            solve_ridge(X, np.ones(3), alpha=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
        kind=st.sampled_from(["random", "repeated column", "zero column", "low rank"]),
        scale=st.integers(-8, 8),
        alpha=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]),
    )
    def test_the_guard_shortcut_keeps_the_exact_decision(
        self, seed, shape, kind, scale, alpha
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal(shape)
        if kind == "repeated column":
            X[:, -1] = X[:, 0]
        elif kind == "zero column":
            X[:, 0] = 0.0
        elif kind == "low rank":
            X = np.outer(X[:, 0], rng.standard_normal(shape[1]))
        X *= 10.0**scale
        lhs = X.T @ X + alpha * np.eye(shape[1])
        with np.errstate(all="ignore"):
            exact = np.linalg.cond(lhs, 1) * np.finfo(float).eps >= 1.0
        try:
            solve_ridge(X, np.ones(shape[0]), alpha)
            raised = False
        except ValueError as exc:
            assert "singular" in str(exc)
            raised = True
        assert raised == exact

    def test_a_default_pipeline_never_inverts_its_gram(self, monkeypatch):
        cond = np.linalg.cond
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", spy)
        cfg = ReservoirConfig()
        result = run_pipeline(cfg, gen_narma10(cfg.len_train + cfg.len_test, seed=8))
        assert np.isfinite(result.test_mse)
        assert calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_input_is_rejected(self, value):
        states, targets = np.eye(4, 3), np.arange(4.0)
        bad_states, bad_targets = states.copy(), targets.copy()
        bad_states[1, 0] = bad_targets[1] = value
        for X, y in ((bad_states, targets), (states, bad_targets)):
            with pytest.raises(ValueError, match="finite"):
                train_readout(X, y, alpha=0.1)

    def test_feature_contract_recorded(self):
        rng = np.random.default_rng(4)
        states = rng.uniform(0, 2 * np.pi, (30, 4))
        readout = train_readout(
            states,
            rng.standard_normal(30),
            alpha=0.1,
            use_bias=True,
            use_trig_features=True,
            center_phases=True,
        )
        assert readout.weights.shape == (9,)
        assert readout.use_bias and readout.use_trig_features
        assert readout.center_phases


class TestPredict:
    def test_zero_weights_zero_predictions(self):
        cfg = small_cfg()
        data = gen_narma10(cfg.len_test, seed=6)
        net = cfg.build_network()
        n_feats = 2 * cfg.n + 1
        readout = Readout(
            weights=np.zeros(n_feats),
            use_bias=True,
            use_trig_features=True,
            center_phases=True,
        )
        preds = predict(net, readout, data.inputs)
        assert np.all(preds == 0.0)
        assert preds.shape == (cfg.len_test,)

    def test_constant_target_with_bias(self):
        cfg = small_cfg()
        data = TaskData(
            inputs=np.random.default_rng(1).uniform(0, 0.5, cfg.len_train),
            targets=np.full(cfg.len_train, 0.7),
        )
        net, trace = develop_and_collect(cfg, data)
        readout = train_readout(
            trace.states,
            trace.targets,
            alpha=1e-8,
            use_bias=True,
            use_trig_features=True,
            center_phases=True,
        )
        test_data = TaskData(
            inputs=np.random.default_rng(2).uniform(0, 0.5, cfg.len_test),
            targets=np.full(cfg.len_test, 0.7),
        )
        preds = predict(net, readout, test_data.inputs)
        assert np.allclose(preds, 0.7, atol=1e-3)

    def test_teacher_forcing_never_reads_own_output(self):
        # a wildly scaled readout must not change the phase trajectory
        cfg = small_cfg()
        data = gen_narma10(cfg.len_test, seed=7)
        net_a = cfg.build_network()
        net_b = cfg.build_network()
        n_feats = 2 * cfg.n + 1
        quiet = Readout(
            np.zeros(n_feats), use_bias=True, use_trig_features=True,
            center_phases=True,
        )
        loud = Readout(
            np.full(n_feats, 1e6), use_bias=True, use_trig_features=True,
            center_phases=True,
        )
        predict(net_a, quiet, data.inputs)
        predict(net_b, loud, data.inputs)
        assert np.array_equal(net_a.phases, net_b.phases)


class TestRunPipeline:
    def test_bit_exact_determinism(self):
        cfg = small_cfg()
        data = gen_narma10(cfg.len_train + cfg.len_test, seed=8)
        a = run_pipeline(cfg, data)
        b = run_pipeline(cfg, data)
        assert a.test_mse == b.test_mse
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.network.coupling, b.network.coupling)

    def test_no_dev_steps_equals_frozen_baseline(self):
        data = gen_narma10(260, seed=9)
        adaptive = small_cfg(len_adev=0, adaptive=True)
        frozen = small_cfg(len_adev=0, adaptive=False)
        ra = run_pipeline(adaptive, data)
        rf = run_pipeline(frozen, data)
        assert ra.test_mse == rf.test_mse
        assert np.array_equal(ra.predictions, rf.predictions)

    def test_benchmark_scale_runtime_and_skill(self):
        # full benchmark-size run completes quickly and beats the no-skill
        # variance baseline on average
        import time

        skills = []
        for seed in range(10):
            cfg = ReservoirConfig(seed=seed)
            data = gen_narma10(cfg.len_train + cfg.len_test, seed=100 + seed)
            t0 = time.time()
            result = run_pipeline(cfg, data)
            assert time.time() - t0 < 5.0
            variance = float(np.var(data.targets[cfg.len_train :]))
            skills.append(result.test_mse / variance)
        assert np.mean(skills) < 1.0

    def test_train_mse_consistent_with_residual(self):
        cfg = small_cfg()
        data = gen_narma10(cfg.len_train + cfg.len_test, seed=10)
        result = run_pipeline(cfg, data)
        feats = reference_build_features(
            result.trace.states, cfg.use_bias, cfg.use_trig_features, cfg.center_phases
        )
        residual = feats @ result.readout.weights - result.trace.targets
        assert result.trace.states.shape[0] == cfg.len_train - cfg.len_adev + 1
        assert result.train_mse == pytest.approx(np.mean(residual**2), rel=1e-9)

    def test_insufficient_data(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="260"):
            run_pipeline(cfg, gen_narma10(100, seed=1))

    def test_empty_test_span_raises_naming_len_test(self):
        # An empty test span has no error to report: the mean of nothing.
        cfg = small_cfg(len_test=0)
        with pytest.raises(ValueError, match="len_test must be at least 1"):
            run_pipeline(cfg, gen_narma10(cfg.len_train, seed=12))

    def test_extra_train_mode_consumes_more_data(self):
        cfg = small_cfg(extra_train_after_dev=True)
        data = gen_narma10(cfg.len_adev + cfg.len_train + cfg.len_test, seed=11)
        result = run_pipeline(cfg, data)
        assert result.trace.states.shape[0] == cfg.len_train
        assert np.isfinite(result.test_mse)


def contract(use_bias=False, use_trig=False, center=False):
    """The feature contract these flags name, as an untrained readout."""
    return Readout(np.empty(0), use_bias, use_trig, center)


class TestBuildFeatures:
    def test_raw_passthrough(self):
        states = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(build_features(states, contract()), states)

    def test_trig_doubles_and_bias_appends(self):
        states = np.array([[0.1, 0.2]])
        feats = build_features(states, contract(use_bias=True, use_trig=True))
        assert feats.shape == (1, 5)
        assert feats[0, -1] == 1.0
        assert feats[0, 0] == pytest.approx(np.sin(0.1))
        assert feats[0, 2] == pytest.approx(np.cos(0.1))

    def test_centering_removes_common_shift(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(0, 2 * np.pi, (1, 12))
        shifted = row + 1.234
        a = build_features(row, contract(use_trig=True, center=True))
        b = build_features(shifted, contract(use_trig=True, center=True))
        assert np.allclose(a, b, atol=1e-10)


def reference_build_features(states, use_bias=False, use_trig=False, center=False):
    """The feature map before the sine/cosine pass was shared, with the
    mean angle of the complex exponentials; kept as the reference."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if use_trig:
        if center:
            mean_angle = np.angle(np.exp(1j * states).mean(axis=1, keepdims=True))
            states = states - mean_angle
        parts = [np.sin(states), np.cos(states)]
    else:
        parts = [states]
    if use_bias:
        parts.append(np.ones((states.shape[0], 1)))
    return np.hstack(parts)


@st.composite
def phase_rows(draw):
    """Phase rows in [0, 2*pi), from spread out to nearly locked."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-6, 0.1, 1.0, np.pi]))
    centre = rng.uniform(0.0, TWO_PI, (rows, 1))
    return np.mod(centre + rng.uniform(-spread, spread, (rows, n)), TWO_PI)


class TestFeatureKernel:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(states=phase_rows(), use_bias=st.booleans())
    def test_centred_features_match_the_reference(self, states, use_bias):
        fast = build_features(states, contract(use_bias, use_trig=True, center=True))
        slow = reference_build_features(states, use_bias, use_trig=True, center=True)
        assert fast.shape == slow.shape
        r = np.array([order_parameter(row)[0] for row in states])
        # The mean angle is ill-conditioned as r goes to 0.
        ordered = r >= 1e-2
        assert np.abs(fast - slow)[ordered].max(initial=0.0) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(states=phase_rows(), use_bias=st.booleans(), use_trig=st.booleans())
    def test_raw_and_uncentred_features_are_exact(self, states, use_bias, use_trig):
        fast = build_features(states, contract(use_bias, use_trig))
        assert np.array_equal(fast, reference_build_features(states, use_bias, use_trig))
        assert fast is not states

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(states=phase_rows(), shift=st.floats(-10.0, 10.0))
    def test_common_shift_cancels_from_centred_features(self, states, shift):
        r = np.array([order_parameter(row)[0] for row in states])
        ordered = r >= 1e-2
        centred = contract(use_trig=True, center=True)
        a = build_features(states, centred)
        b = build_features(np.mod(states + shift, TWO_PI), centred)
        assert np.abs(a - b)[ordered].max(initial=0.0) <= 1e-12

    def test_one_dimensional_row(self):
        row = np.random.default_rng(3).uniform(0.0, TWO_PI, 9)
        assert np.array_equal(
            build_features(row, contract(True, True, True)),
            build_features(row[None, :], contract(True, True, True)),
        )


def in_place_build_features(states, use_bias=False, use_trig=False, center=False):
    """The feature map that centred the whole matrix in place with two
    full-size temporaries; kept as the exact reference of the block one."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not use_trig:
        parts = [states, np.ones((states.shape[0], 1))] if use_bias else [states]
        return np.hstack(parts)
    rows, n = states.shape
    out = np.empty((rows, 2 * n + use_bias))
    sines, cosines = out[:, :n], out[:, n : 2 * n]
    np.sin(states, out=sines)
    np.cos(states, out=cosines)
    if center:
        mean_angle = np.arctan2(
            sines.sum(axis=1, keepdims=True), cosines.sum(axis=1, keepdims=True)
        )
        cos_m, sin_m = np.cos(mean_angle), np.sin(mean_angle)
        sin_sin_m = sines * sin_m
        cos_sin_m = cosines * sin_m
        sines *= cos_m
        sines -= cos_sin_m
        cosines *= cos_m
        cosines += sin_sin_m
    if use_bias:
        out[:, -1] = 1.0
    return out


class TestBlockCentring:
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 2900])
    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)))
    def test_matches_the_in_place_formula_exactly(self, rows, flags):
        assert CENTRE_BLOCK == 256  # the row counts straddle a block edge
        rng = np.random.default_rng(rows)
        # Spread and nearly locked rows, so the mean angle varies by row.
        spread = rng.choice([1e-3, 0.5, np.pi], size=(rows, 1))
        states = np.mod(
            rng.uniform(0.0, TWO_PI, (rows, 1)) + spread * rng.uniform(-1, 1, (rows, 100)),
            TWO_PI,
        )
        fast = build_features(states, contract(*flags))
        assert np.array_equal(fast, in_place_build_features(states, *flags))

    def test_peak_is_the_output_plus_one_block_of_scratch(self):
        # The full-size temporaries held about twice the output at the peak.
        states = np.random.default_rng(1).uniform(0.0, TWO_PI, (2900, 100))
        centred = contract(use_bias=True, use_trig=True, center=True)
        build_features(states, centred)
        tracemalloc.start()
        try:
            feats = build_features(states, centred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feats.nbytes == 2900 * 201 * 8
        assert peak <= feats.nbytes + 1_000_000
