"""Statistical gate of the spectral-radius estimator against the one it
replaced.

``reference_power_radius`` and ``reference_norm_limit_radius`` are the
previous estimator, kept verbatim: power iteration with an oscillation
watch, then a Gelfand norm limit. The current estimator computes the
radius in a different order, so its estimates differ by about 1e-9
relative. That leaves phase-locked cells unchanged to 1e-6 but moves the
records of chaotic cells at O(1e-2). The gate is therefore:

- on a captured stream of development matrices, the current estimator is
  no less accurate than the reference against ``numpy.linalg.eigvals``;
- in the locked cells (4, 0.3) and (1, 0.3), ``test_mse`` equals the
  reference pipeline's to 1e-6 relative;
- in the chaotic cells (4, 1) and (8, 2), the median ``test_mse`` over 30
  trials lies within the interquartile range of the reference's trials.

Why 30 trials: scaling either estimator's radius by 1 + k*1e-9 (k = -3..3)
gives fourteen ensembles of the (4, 1) cell that differ by chaos alone.
Among their 182 ordered pairs this check fails for 15% at 10 trials and 3%
at 20, and for none at 25 or 30.
"""

import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

import kuramoto_rc.network as netmod
from kuramoto_rc import ReservoirConfig, SweepSpec, make_task, run_grid_sweep

LAMBDAS = (0.5, 2.0, 4.0, 8.0)
RHOS = (0.1, 0.5, 1.0, 2.0)
STREAM_STEPS = 40
CHAOTIC_TRIALS = 30
# Forked workers inherit the patched estimator; spawned ones would not.
WORKERS = 2 if multiprocessing.get_start_method() == "fork" else 1
# The reference's convergence controls, at the defaults it ran with.
REFERENCE_SETTINGS = SimpleNamespace(
    tolerance=1e-10, max_iterations=1000, zero_threshold=1e-12
)


def reference_power_radius(
    K: np.ndarray,
    v0: np.ndarray | None,
    settings=REFERENCE_SETTINGS,
) -> tuple[float, np.ndarray | None]:
    """Power-iteration core; returns (radius, last iterate) for warm starts."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if not np.isfinite(K).all():
        raise ValueError("K must have finite entries")
    n = K.shape[0]
    scale = np.abs(K).max() if n else 0.0
    if n == 0 or scale == 0.0:
        return 0.0, None
    if n == 1:
        return float(abs(K[0, 0])), None

    if v0 is not None and v0.shape == (n,) and np.isfinite(v0).all():
        v = v0 / np.sqrt(v0 @ v0)
    else:
        v = np.random.default_rng(netmod._POWER_SEED).standard_normal(n)
        v /= np.sqrt(v @ v)

    tol = settings.tolerance
    previous = np.inf
    w = K @ v
    residual_history = []
    for iteration in range(settings.max_iterations):
        gww = w @ w
        if gww <= (settings.zero_threshold * scale) ** 2:
            # v fell into the (near) null space; the norm-limit handles
            # nilpotent and defective cases exactly.
            break
        z = K @ w
        # Least-squares fit z ~ alpha*w + beta*v via the 2x2 Gram system.
        gwv = w @ v
        gvv = v @ v
        zw = z @ w
        zv = z @ v
        zz = z @ z
        det = gww * gvv - gwv * gwv
        if det > 1e-14 * gww * gvv:
            alpha = (zw * gvv - zv * gwv) / det
            beta = (zv * gww - zw * gwv) / det
        else:  # w parallel to v: pure one-term fit
            alpha = zw / gww
            beta = 0.0
        # Roots of x^2 - alpha*x - beta, largest magnitude.
        disc = alpha * alpha + 4.0 * beta
        if disc >= 0.0:
            sq = np.sqrt(disc)
            estimate = max(abs(alpha + sq), abs(alpha - sq)) / 2.0
        else:
            estimate = np.sqrt(alpha * alpha - disc) / 2.0
        residual_sq = max(
            zz
            - 2.0 * alpha * zw
            - 2.0 * beta * zv
            + alpha * alpha * gww
            + 2.0 * alpha * beta * gwv
            + beta * beta * gvv,
            0.0,
        )
        if zz > 0 and residual_sq <= 1e-16 * zz:
            if abs(estimate - previous) <= tol * max(1.0, estimate):
                nw = np.sqrt(gww)
                return estimate, w / nw
        previous = estimate
        # Oscillation watch: a residual that stops shrinking means several
        # eigenvalues share the leading magnitude; hand over to the norm
        # limit instead of spinning.
        residual_history.append(residual_sq)
        if iteration >= 100 and residual_sq > 0.25 * residual_history[-50]:
            break
        nw = np.sqrt(gww)
        v = w / nw
        w = z / nw

    return reference_norm_limit_radius(K, settings), None


def reference_norm_limit_radius(K: np.ndarray, settings) -> float:
    """Gelfand norm-limit estimate ||K^(2^j)||^(1/2^j) by repeated squaring.

    Uses the Frobenius norm (submultiplicative, cheap); the matrix is
    renormalized at every squaring with the scale tracked in log space.
    """
    A = np.array(K, dtype=float)
    log_scale = 0.0
    exponent = 1.0
    previous = np.inf
    best = np.inf
    for _ in range(60):
        s = np.sqrt(np.einsum("ij,ij->", A, A))
        if s == 0.0:
            return 0.0
        best = float(np.exp((log_scale + np.log(s)) / exponent))
        if abs(previous - best) <= settings.tolerance * max(1.0, best):
            return best
        previous = best
        A = A / s
        A = A @ A
        log_scale = 2.0 * (log_scale + np.log(s))
        exponent *= 2.0
        if not np.isfinite(A).all():
            break
    raise ArithmeticError(
        f"spectral radius estimate did not converge; best estimate {best!r}"
    )


@pytest.fixture(scope="module")
def development_stream():
    """Coupling matrices as each warm rescale of a development sees them,
    one list per (lambda, rho) cell of the benchmark landscape."""
    streams = []
    rescale = netmod._rescale_warm
    for lam in LAMBDAS:
        for rho in RHOS:
            cfg = ReservoirConfig(lam=lam, spectral_target=rho, seed=11)
            inputs = make_task("narma10", STREAM_STEPS, seed=5).inputs
            stream = []

            def capture(net, target, v0):
                stream.append(net.coupling.copy())
                return rescale(net, target, v0)

            netmod._rescale_warm = capture
            try:
                netmod.develop(cfg.build_network(), inputs, rho)
            finally:
                netmod._rescale_warm = rescale
            streams.append(stream)
    return streams


def worst_relative_error(streams, estimator) -> float:
    """Largest relative error of ``estimator``, warm-started along each
    stream as the development loop does, against numpy's dense solver."""
    worst = 0.0
    for stream in streams:
        warm = None
        for K in stream:
            rho, warm = estimator(K, warm)
            dense = float(np.max(np.abs(np.linalg.eigvals(K))))
            worst = max(worst, abs(rho - dense) / dense)
    return worst


def test_no_less_accurate_than_the_reference(development_stream):
    assert sum(map(len, development_stream)) == len(LAMBDAS) * len(RHOS) * STREAM_STEPS
    reference = worst_relative_error(development_stream, reference_power_radius)
    current = worst_relative_error(development_stream, netmod._power_radius)
    assert current <= reference


def cell_test_mse(lam, rho, trials) -> np.ndarray:
    spec = SweepSpec(
        base=ReservoirConfig(),
        axes={"lam": [lam], "spectral_target": [rho]},
        trials=trials,
        master_seed=2024,
        workers=WORKERS,
    )
    records = run_grid_sweep(spec).records
    assert not any(r["fault"] for r in records)
    return np.array([r["test_mse"] for r in records])


@pytest.mark.parametrize("lam, rho", [(4.0, 0.3), (1.0, 0.3)])
def test_locked_cells_reproduce_the_reference(monkeypatch, lam, rho):
    current = cell_test_mse(lam, rho, trials=2)
    monkeypatch.setattr(netmod, "_power_radius", reference_power_radius)
    reference = cell_test_mse(lam, rho, trials=2)
    np.testing.assert_allclose(current, reference, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("lam, rho", [(4.0, 1.0), (8.0, 2.0)])
def test_chaotic_cells_match_the_reference_statistically(monkeypatch, lam, rho):
    current = cell_test_mse(lam, rho, trials=CHAOTIC_TRIALS)
    monkeypatch.setattr(netmod, "_power_radius", reference_power_radius)
    reference = cell_test_mse(lam, rho, trials=CHAOTIC_TRIALS)
    low, high = np.percentile(reference, [25, 75])
    assert low <= np.median(current) <= high
