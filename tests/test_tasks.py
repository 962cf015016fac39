import math

import numpy as np
import pytest

from kuramoto_rc.tasks import (
    MSO12_FREQUENCIES,
    MackeyGlassParams,
    MsoParams,
    gen_mackey_glass,
    gen_mso,
    gen_narma10,
    integrate_mackey_glass,
    load_series,
    make_task,
    spectrum,
)


class TestNarma10:
    def test_zero_input_first_value(self):
        data = gen_narma10(20, input_override=np.zeros(20))
        # all terms vanish except the +0.1 offset
        assert data.targets[0] == pytest.approx(0.1, abs=0.0)

    def test_zero_input_second_value(self):
        data = gen_narma10(20, input_override=np.zeros(20))
        # 0.3*0.1 + 0.05*0.1*0.1 + 0.1
        assert data.targets[1] == pytest.approx(0.1305, abs=1e-15)

    def test_inputs_within_range(self):
        data = gen_narma10(5000, seed=3)
        assert np.all(data.inputs >= 0.0)
        assert np.all(data.inputs <= 0.5)

    def test_alignment_one_step_ahead(self):
        # y(t+1) recomputed by hand from the full recursion
        data = gen_narma10(40, seed=9)
        u = data.inputs
        y = np.zeros(41)
        for t in range(40):
            window = y[max(t - 9, 0) : t + 1].sum()
            u_lag = u[t - 9] if t >= 9 else 0.0
            y[t + 1] = 0.3 * y[t] + 0.05 * y[t] * window + 1.5 * u_lag * u[t] + 0.1
        assert np.allclose(data.targets, y[1:], atol=1e-14)

    def test_bounded_for_typical_seeds(self):
        peaks = []
        for seed in range(10):
            data = gen_narma10(2000, seed=seed)
            peaks.append(float(np.abs(data.targets).max()))
        assert max(peaks) < 1.5  # never silently drifts toward the fault limit
        assert sum(p < 1.0 for p in peaks) >= 7  # typically stays below 1

    def test_deterministic(self):
        a = gen_narma10(500, seed=11)
        b = gen_narma10(500, seed=11)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_divergence_faults(self):
        # a constant large "input" blows the quadratic term up quickly
        with pytest.raises(ArithmeticError, match="seed"):
            gen_narma10(200, input_override=np.full(200, 40.0))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            gen_narma10(10)


def reference_integrate(history, history_derivs, n_steps, params):
    """The closure-based integrator on numpy scalars, kept as the oracle."""
    h = params.inner_step
    m = int(round(params.tau / h))
    history = np.asarray(history, dtype=float)
    a, b, p = params.a, params.b, params.n_exp

    def rhs(y_now, y_del):
        return a * y_del / (1.0 + y_del**p) + b * y_now

    y = np.empty(m + 1 + n_steps)
    f = np.empty(m + 1 + n_steps)
    y[: m + 1] = history
    if history_derivs is not None:
        f[: m + 1] = np.asarray(history_derivs, dtype=float)
    else:
        f[: m + 1] = 0.0
    f_left_junction = f[m]
    f[m] = rhs(y[m], y[0])
    for j in range(m, m + n_steps):
        left = j - m
        y0, f0 = y[left], f[left]
        y1 = y[left + 1]
        f1 = f_left_junction if left + 1 == m else f[left + 1]
        y_mid = 0.5 * (y0 + y1) + 0.125 * h * (f0 - f1)
        yj = y[j]
        k1 = rhs(yj, y0)
        k2 = rhs(yj + 0.5 * h * k1, y_mid)
        k3 = rhs(yj + 0.5 * h * k2, y_mid)
        k4 = rhs(yj + h * k3, y1)
        y[j + 1] = yj + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f[j + 1] = rhs(y[j + 1], y1)
    return y


class TestMackeyGlassMatchesReference:
    """The float loop reproduces the numpy-scalar integrator bit for bit."""

    @staticmethod
    def both(history, derivs, n_steps, params):
        with np.errstate(all="ignore"):
            expected = reference_integrate(history, derivs, n_steps, params)
            got = integrate_mackey_glass(history, derivs, n_steps, params)
        return expected, got

    @pytest.mark.parametrize("seed", [0, 7])
    def test_generator_path(self, seed):
        # gen_mackey_glass's history and step count, checked on its output
        p = MackeyGlassParams()
        m = int(round(p.tau / p.inner_step))
        length = 300
        history = np.random.default_rng(seed).uniform(0.1, 1.3, m + 1)
        n_inner = (p.transient_discard + length + 1) * p.sample_every
        expected = reference_integrate(history, None, n_inner, p)
        samples = expected[m :: p.sample_every][p.transient_discard :]
        data = gen_mackey_glass(length, seed=seed)
        assert np.array_equal(data.inputs, samples[:length])
        assert np.array_equal(data.targets, samples[1 : length + 1])
        assert np.array_equal(
            integrate_mackey_glass(history, None, n_inner, p), expected
        )

    @pytest.mark.parametrize(
        "params",
        [MackeyGlassParams()]
        + [
            MackeyGlassParams(tau=5, n_exp=n_exp, a=0.25, b=-0.12)
            for n_exp in (9.65, 2.0, 0.5)
        ],
    )
    def test_history_with_derivatives(self, params):
        # non-None derivatives take the junction branch
        m = int(round(params.tau / params.inner_step))
        rng = np.random.default_rng(3)
        history = rng.uniform(0.1, 1.3, m + 1)
        derivs = rng.normal(size=m + 1)
        expected, got = self.both(history, derivs, 3000, params)
        assert np.all(np.isfinite(expected))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "history, params, finite",
        [
            # y**n overflows to inf, so the delayed term is 0
            (np.full(171, 1e40), MackeyGlassParams(), True),
            # a negative base with a fractional exponent gives nan
            (np.full(51, -0.5), MackeyGlassParams(tau=5, n_exp=9.65), False),
            # the same at a stage midpoint only: y1 = 0.2, y_mid = -0.4
            (
                np.resize([-1.0, 0.2], 51),
                MackeyGlassParams(tau=5, n_exp=9.65),
                False,
            ),
            # 1 + (-1)**3 = 0 divides by zero
            (np.full(51, -1.0), MackeyGlassParams(tau=5, n_exp=3), False),
        ],
    )
    def test_edge_histories(self, history, params, finite):
        expected, got = self.both(history, None, 500, params)
        assert bool(np.isfinite(expected[-1])) is finite
        assert np.array_equal(got, expected, equal_nan=True)


class TestMackeyGlass:
    def test_zero_history_stays_zero(self):
        p = MackeyGlassParams()
        m = int(round(p.tau / p.inner_step))
        y = integrate_mackey_glass(np.zeros(m + 1), None, 500, p)
        assert np.allclose(y, 0.0)

    def test_unit_equilibrium_preserved(self):
        # a*1/(1+1) + b*1 = 0 for a = 0.2, b = -0.1
        p = MackeyGlassParams()
        m = int(round(p.tau / p.inner_step))
        y = integrate_mackey_glass(np.ones(m + 1), np.zeros(m + 1), 10000, p)
        assert np.max(np.abs(y - 1.0)) < 1e-10

    def test_fourth_order_convergence(self):
        # smooth history, fixed horizon; halving the step should shrink
        # the endpoint error by ~2^4
        tau = 2.0
        horizon = 6.0

        def run(h):
            p = MackeyGlassParams(
                tau=tau, inner_step=h, sample_every=int(round(1.0 / h))
            )
            m = int(round(tau / h))
            t_hist = -tau + h * np.arange(m + 1)
            hist = 1.0 + 0.2 * np.sin(0.9 * t_hist)
            derivs = 0.18 * np.cos(0.9 * t_hist)
            y = integrate_mackey_glass(hist, derivs, int(round(horizon / h)), p)
            return y[-1]

        ref = run(0.0125)
        err_h = abs(run(0.1) - ref)
        err_h2 = abs(run(0.05) - ref)
        ratio = err_h / err_h2
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.25

    def test_generated_series_shape_and_pairing(self):
        data = gen_mackey_glass(300, seed=5)
        assert len(data.inputs) == 300
        assert np.allclose(data.inputs[1:], data.targets[:-1])
        assert np.all(np.isfinite(data.targets))

    def test_deterministic(self):
        a = gen_mackey_glass(100, seed=2)
        b = gen_mackey_glass(100, seed=2)
        assert np.array_equal(a.inputs, b.inputs)

    def test_series_own_compact_memory(self):
        # views into the 10x finer inner grid would pin all of it
        data = gen_mackey_glass(400, seed=2)
        for arr in (data.inputs, data.targets):
            assert arr.flags.c_contiguous
            assert arr.flags.owndata
            assert arr.nbytes == 400 * arr.itemsize

    def test_chaotic_attractor_not_short_periodic(self):
        # tau = 17 is chaotic: no exact period up to 500 samples
        data = gen_mackey_glass(1500, seed=8)
        x = data.inputs - data.inputs.mean()
        denom = float(x @ x)
        peaks = [
            float(x[: len(x) - lag] @ x[lag:]) / denom for lag in range(1, 501)
        ]
        assert max(peaks) < 0.999

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MackeyGlassParams(tau=17.05)  # not a multiple of the inner step
        with pytest.raises(ValueError):
            MackeyGlassParams(sample_every=5)  # 5 * 0.1 != 1.0
        with pytest.raises(ValueError):
            gen_mackey_glass(1)


class TestMso:
    def test_starts_at_zero(self):
        data = gen_mso(10)
        assert data.inputs[0] == 0.0

    def test_single_wave_unit_peak(self):
        data = gen_mso(10, MsoParams(frequencies=(np.pi / 2,)))
        assert data.inputs[1] == pytest.approx(1.0)

    def test_two_wave_sum(self):
        data = gen_mso(10, MsoParams(frequencies=(0.2, 0.311)))
        expected = math.sin(0.2) + math.sin(0.311)
        assert data.inputs[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5046801, abs=1e-6)

    def test_default_is_twelve_waves(self):
        assert len(MSO12_FREQUENCIES) == 12
        data = gen_mso(50)
        t = 7
        expected = sum(math.sin(f * t) for f in MSO12_FREQUENCIES)
        assert data.inputs[t] == pytest.approx(expected, abs=1e-12)

    def test_pairing(self):
        data = gen_mso(30)
        assert np.allclose(data.inputs[1:], data.targets[:-1])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MsoParams(frequencies=())
        with pytest.raises(ValueError):
            MsoParams(frequencies=(0.2, -0.1))


class TestLoadSeries:
    def test_basic_pairs(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        data = load_series(path)
        assert np.array_equal(data.inputs, [1.0, 2.0])
        assert np.array_equal(data.targets, [2.0, 3.0])

    def test_empty_file_faults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_series(path)

    def test_bad_token_cites_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nabc\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_series(path)

    def test_named_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("time,amplitude\n0,1.5\n1,2.5\n2,3.5\n")
        data = load_series(path, column="amplitude")
        assert np.array_equal(data.inputs, [1.5, 2.5])

    def test_missing_column_faults(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("time,amplitude\n0,1.5\n")
        with pytest.raises(ValueError, match="missing column"):
            load_series(path, column="power")

    def test_normalization_recorded(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("2.0\n4.0\n6.0\n")
        data = load_series(path, normalize=(0.0, 1.0))
        full = np.concatenate([data.inputs[:1], data.targets])
        assert full.min() == pytest.approx(0.0)
        assert full.max() == pytest.approx(1.0)
        assert "normalize_scale" in data.meta


class TestSpectrum:
    def test_constant_energy_in_dc_bin(self):
        freqs, mags = spectrum(np.full(64, 3.0))
        assert mags[0] == pytest.approx(64 * 3.0)
        assert np.all(mags[1:] < 1e-9)

    def test_pure_tone_dominant_bin(self):
        L, k = 128, 9
        x = np.sin(2 * np.pi * k * np.arange(L) / L)
        freqs, mags = spectrum(x)
        assert int(np.argmax(mags)) == k

    def test_parseval_against_direct_dft(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(101)
        L = x.size
        # direct O(L^2) transform as the independent oracle
        n = np.arange(L)
        dft = np.array([np.sum(x * np.exp(-2j * np.pi * k * n / L)) for k in range(L)])
        assert np.sum(np.abs(dft) ** 2) == pytest.approx(
            L * np.sum(x**2), rel=1e-8
        )
        freqs, mags = spectrum(x)
        assert np.allclose(mags, np.abs(dft[: L // 2 + 1]), atol=1e-8)

    def test_bin_count(self):
        freqs, mags = spectrum(np.arange(1200.0))
        assert mags.size == 1200 // 2 + 1


class TestMakeTask:
    def test_presets(self):
        assert make_task("narma10", 100, seed=1).meta["task"] == "narma10"
        assert make_task("mso12", 100).meta["task"] == "mso"

    def test_file_preset(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n".join(str(float(i)) for i in range(50)))
        data = make_task(f"file:{path}", 20)
        assert len(data.inputs) == 49

    def test_file_too_short_faults(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="required"):
            make_task(f"file:{path}", 100)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown task"):
            make_task("narma20", 100)
