"""Scalar evaluation: short-term memory capacity, coupling-matrix
distances, and weight-distribution statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import OscillatorNetwork
from .reservoir import ReservoirConfig, build_features, drive, solve_ridge

# The memory-capacity probe: input steps discarded before states are
# collected (no delay may reach further back), states collected, and the
# collected rows the readouts train on; the rest score them.
MC_WASHOUT = 100
MC_COLLECT = 600
MC_TRAIN = 420


@dataclass
class McCurve:
    """Per-delay memory coefficients and their sum."""

    coefficients: np.ndarray  # MC_k for k = 1..k_max

    @property
    def total(self) -> float:
        return float(self.coefficients.sum())


@dataclass
class BetaFit:
    """Beta-distribution fit of weights mapped from [-1, 1] onto [0, 1]."""

    a: float
    b: float


def squared_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Cov(x, y)^2 / (Var(x) Var(y)), defined as 0 when either variance
    vanishes (up to rounding of a constant sequence)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)

    def negligible(v: float, values: np.ndarray) -> bool:
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        return v <= values.size * (1e-14 * scale) ** 2

    if negligible(vx, x) or negligible(vy, y):
        return 0.0
    cov = float(dx @ dy)
    return min(cov * cov / (vx * vy), 1.0)


def memory_capacity(
    cfg: ReservoirConfig,
    developed_net: OscillatorNetwork,
    k_max: int = 100,
    seed: int = 0,
) -> McCurve:
    """Short-term memory capacity of a frozen network.

    The network is driven by fresh uniform input on [-0.5, 0.5] drawn from
    ``seed``: MC_WASHOUT = 100 steps are discarded, the next MC_COLLECT =
    600 states are collected, and one ridge readout per delay k (under the
    feature flags and ridge alpha of ``cfg``) is trained on the first
    MC_TRAIN = 420 rows to reproduce the input delayed by k. The squared
    correlation between readout and delayed input on the other 180 rows
    gives MC_k, and the total capacity is the sum over k = 1..k_max, with
    k_max <= MC_WASHOUT. The coupling matrix never adapts here.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if k_max > MC_WASHOUT:
        raise ValueError("washout must cover the largest delay")
    net = developed_net.copy()
    rng = np.random.default_rng(seed)
    total = MC_WASHOUT + MC_COLLECT
    s = rng.uniform(-0.5, 0.5, total)
    states = drive(net, s)[MC_WASHOUT:]
    feats = build_features(states, cfg)

    X_train, X_eval = feats[:MC_TRAIN], feats[MC_TRAIN:]

    # All delays share the same state matrix: one factorization, k_max
    # right-hand sides. Delayed targets index back into the washout span.
    targets = np.column_stack(
        [s[MC_WASHOUT - k : total - k] for k in range(1, k_max + 1)]
    )
    outputs = X_eval @ solve_ridge(X_train, targets[:MC_TRAIN], cfg.ridge_alpha)
    coefficients = np.array(
        [
            squared_correlation(targets[MC_TRAIN:, k], outputs[:, k])
            for k in range(k_max)
        ]
    )
    return McCurve(coefficients=coefficients)


def matrix_distance(Ka: np.ndarray, Kb: np.ndarray, mode: str = "signed") -> float:
    """Entrywise distance between two coupling matrices.

    ``signed`` sums the raw differences (which can cancel); ``absolute``
    sums their magnitudes.
    """
    Ka = np.asarray(Ka, dtype=float)
    Kb = np.asarray(Kb, dtype=float)
    if Ka.shape != Kb.shape:
        raise ValueError(f"shape mismatch: {Ka.shape} vs {Kb.shape}")
    diff = Ka - Kb
    if mode == "signed":
        return float(diff.sum())
    if mode == "absolute":
        return float(np.abs(diff).sum())
    raise ValueError(f"unknown distance mode {mode!r}")


def beta_fit(weights: np.ndarray) -> BetaFit:
    """Method-of-moments beta fit of weights on [-1, 1].

    Weights are mapped onto [0, 1]; with sample mean m and variance v the
    shape parameters are a = m (m(1-m)/v - 1) and b = (1-m) (m(1-m)/v - 1).

    Raises
    ------
    ValueError
        On fewer than 10 samples, a degenerate (zero-variance) sample, or
        an infeasible moment pair (v >= m(1-m)).
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size < 10:
        raise ValueError(f"need at least 10 samples, got {w.size}")
    x = (w + 1.0) / 2.0
    m = float(x.mean())
    v = float(x.var())
    if v == 0.0:
        raise ValueError("degenerate sample: zero variance")
    if v >= m * (1.0 - m):
        raise ValueError("moment fit infeasible: variance too large for mean")
    common = m * (1.0 - m) / v - 1.0
    return BetaFit(a=m * common, b=(1.0 - m) * common)


def weight_histogram(
    K: np.ndarray, mask: np.ndarray, bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of live coupling weights over [-1, 1].

    Returns (bin centers, counts); the counts sum to the number of live
    edges. Values outside [-1, 1] (possible right after a rescale) are
    clipped into the boundary bins so no edge is dropped.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    live = np.clip(np.asarray(K, dtype=float)[np.asarray(mask, dtype=bool)], -1.0, 1.0)
    counts, edges = np.histogram(live, bins=bins, range=(-1.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts
