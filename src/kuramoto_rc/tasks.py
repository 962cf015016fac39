"""Benchmark time series and input-spectrum analysis.

Three synthetic generators (a tenth-order NARMA system, the Mackey-Glass
delay equation, and a sum of incommensurate sinusoids) plus a loader for
measured series stored as delimited text. Every generator returns a
:class:`~kuramoto_rc.reservoir.TaskData` pairing the drive sequence with
its one-step-ahead target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reservoir import TaskData

# Standard frequency set for the 12-oscillator superposition task.
MSO12_FREQUENCIES = (
    0.2, 0.311, 0.42, 0.51, 0.63, 0.74,
    0.85, 0.97, 1.08, 1.19, 1.27, 1.32,
)

NARMA_DIVERGENCE_LIMIT = 1e6


@dataclass
class MackeyGlassParams:
    """Parameters of the delay equation dy/dt = a*y_d / (1 + y_d^n) + b*y
    with y_d = y(t - tau).

    ``inner_step`` is the integration step; every ``sample_every``-th inner
    point is emitted, so sample_every * inner_step must equal the unit
    output spacing. ``transient_discard`` initial output samples are
    dropped to land on the attractor.
    """

    a: float = 0.2
    b: float = -0.1
    n_exp: float = 10.0
    tau: float = 17.0
    inner_step: float = 0.1
    sample_every: int = 10
    transient_discard: int = 1000

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        ratio = self.tau / self.inner_step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("tau must be an integer multiple of inner_step")
        if abs(self.sample_every * self.inner_step - 1.0) > 1e-9:
            raise ValueError("sample_every * inner_step must equal 1.0")


@dataclass
class MsoParams:
    """Sinusoid count and frequencies for the superposition task."""

    frequencies: tuple[float, ...] = MSO12_FREQUENCIES

    def __post_init__(self):
        self.frequencies = tuple(float(f) for f in self.frequencies)
        if len(self.frequencies) < 1:
            raise ValueError("at least one frequency is required")
        if any(f <= 0 for f in self.frequencies):
            raise ValueError("frequencies must be strictly positive")

    @property
    def m(self) -> int:
        return len(self.frequencies)


def gen_narma10(
    length: int,
    seed: int = 0,
    input_override: np.ndarray | None = None,
) -> TaskData:
    """Tenth-order NARMA sequence driven by uniform noise on [0, 0.5].

        y(t+1) = 0.3 y(t) + 0.05 y(t) sum_{i=0..9} y(t-i)
                 + 1.5 u(t-9) u(t) + 0.1

    with y and u zero for t <= 0. The returned pairs are (u(t), y(t+1)).
    ``input_override`` replaces the random drive, mainly for testing.

    Raises
    ------
    ArithmeticError
        If the recursion diverges (|y| above 1e6); reseed in that case.
    """
    if length < 11:
        raise ValueError("length must be at least 11")
    if input_override is not None:
        u = np.asarray(input_override, dtype=float)
        if u.shape != (length,):
            raise ValueError(f"input_override must have length {length}")
    else:
        u = np.random.default_rng(seed).uniform(0.0, 0.5, length)

    y = np.zeros(length + 1)  # y[t] for t = 0..length
    window = 0.0  # running sum of y(t-9..t)
    for t in range(length):
        window += y[t]
        if t >= 10:
            window -= y[t - 10]
        u_lag = u[t - 9] if t >= 9 else 0.0
        y[t + 1] = 0.3 * y[t] + 0.05 * y[t] * window + 1.5 * u_lag * u[t] + 0.1
        if abs(y[t + 1]) > NARMA_DIVERGENCE_LIMIT:
            raise ArithmeticError(
                f"NARMA10 diverged at step {t + 1}; try a different seed"
            )
    return TaskData(inputs=u, targets=y[1:], meta={"task": "narma10", "seed": seed})


def gen_mackey_glass(
    length: int,
    params: MackeyGlassParams | None = None,
    seed: int = 0,
) -> TaskData:
    """Mackey-Glass series at unit sampling, one-step-ahead pairs.

    The delay equation is integrated by classical Runge-Kutta; the initial
    history is i.i.d. uniform on [0.1, 1.3] (around the nonzero
    equilibrium) and the first ``transient_discard`` samples are dropped.
    Inputs are y(t) and targets y(t+1).
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    params = params or MackeyGlassParams()
    m = int(round(params.tau / params.inner_step))
    rng = np.random.default_rng(seed)
    history = rng.uniform(0.1, 1.3, m + 1)
    n_out = params.transient_discard + length + 1
    n_inner = n_out * params.sample_every
    y = integrate_mackey_glass(history, None, n_inner, params)
    if not np.isfinite(y).all():
        raise ArithmeticError("Mackey-Glass integration produced non-finite state")
    samples = y[m :: params.sample_every][params.transient_discard :]
    # Compact copies: slices of ``y`` would keep the whole inner grid alive.
    series = samples[: length + 1]
    return TaskData(
        inputs=series[:-1].copy(),
        targets=series[1:].copy(),
        meta={"task": "mackey_glass", "seed": seed},
    )


def integrate_mackey_glass(
    history: np.ndarray,
    history_derivs: np.ndarray | None,
    n_steps: int,
    params: MackeyGlassParams,
) -> np.ndarray:
    """Integrate the delay equation on the inner grid.

    ``history`` holds y on the m+1 grid points spanning [-tau, 0] (with
    m = tau / inner_step); ``history_derivs`` its derivatives there, zeros
    if omitted. Returns y on all m + 1 + n_steps grid points.

    Delayed values at stage midpoints come from cubic Hermite interpolation
    between stored grid points, which keeps the scheme fourth order; the
    two on-grid delayed reads are exact index lookups.

    The loop runs on Python floats but performs the same operations on the
    same operands as numpy float64 scalar arithmetic, so every output bit
    matches it, including on overflow (y**n to inf), division by zero and
    NaN (a negative base with a fractional exponent): those rare delayed
    terms are evaluated on numpy scalars.
    """
    h = float(params.inner_step)
    m = int(round(params.tau / h))
    history = np.asarray(history, dtype=float)
    if history.shape != (m + 1,):
        raise ValueError(f"history must have {m + 1} entries")
    a, b, p = float(params.a), float(params.b), float(params.n_exp)
    # math.pow calls the C pow numpy uses, and raises where numpy would
    # return inf or nan, as does a float division by zero.
    pow_ = math.pow
    numpy_only = (OverflowError, ValueError, ZeroDivisionError)

    def delayed_numpy(y_del: float) -> float:
        y_del = np.float64(y_del)
        return float(a * y_del / (1.0 + y_del**p))

    y = np.empty(m + 1 + n_steps)
    f = np.empty(m + 1 + n_steps)
    y[: m + 1] = history
    if history_derivs is not None:
        f[: m + 1] = np.asarray(history_derivs, dtype=float)
    else:
        f[: m + 1] = 0.0
    # The prescribed history and the equation generally disagree about the
    # slope at t = 0; keep both one-sided values so interpolation on either
    # side of the junction stays fourth order.
    f_left_junction = float(f[m])
    # Memoryviews read and write Python floats, not numpy scalars.
    yv, fv = y.data, f.data
    y0, yj = yv[0], yv[m]
    # rhs(y_now, y_del) = a*y_del/(1+y_del**p) + b*y_now. Each grid
    # point's delayed term is computed once: at step j it serves k4 and
    # f[j+1], and f[j] = rhs(y[j], y[j-m]) is exactly k1.
    fj = delayed_numpy(y0) + b * yj
    fv[m] = fj
    half_h, eighth_h, sixth_h = 0.5 * h, 0.125 * h, h / 6.0

    for j in range(m, m + n_steps):
        left = j - m
        f0 = fv[left]
        y1 = yv[left + 1]
        f1 = f_left_junction if left + 1 == m else fv[left + 1]
        # Hermite midpoint of the delayed interval, shared by k2 and k3.
        y_mid = 0.5 * (y0 + y1) + eighth_h * (f0 - f1)
        try:
            g1 = a * y1 / (1.0 + pow_(y1, p))
            g_mid = a * y_mid / (1.0 + pow_(y_mid, p))
        except numpy_only:
            g1 = delayed_numpy(y1)
            g_mid = delayed_numpy(y_mid)
        k2 = g_mid + b * (yj + half_h * fj)
        k3 = g_mid + b * (yj + half_h * k2)
        k4 = g1 + b * (yj + h * k3)
        yj = yj + sixth_h * (fj + 2.0 * k2 + 2.0 * k3 + k4)
        fj = g1 + b * yj
        yv[j + 1] = yj
        fv[j + 1] = fj
        y0 = y1
    return y


def gen_mso(length: int, params: MsoParams | None = None) -> TaskData:
    """Superposed-sinusoid series u(t) = sum_i sin(f_i * t), t = 0, 1, ...

    Inputs are u(t) and targets u(t+1).
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    params = params or MsoParams()
    t = np.arange(length + 1, dtype=float)
    freqs = np.asarray(params.frequencies)
    u = np.sin(np.outer(t, freqs)).sum(axis=1)
    return TaskData(inputs=u[:-1], targets=u[1:], meta={"task": "mso"})


def load_series(
    path,
    column: str | None = None,
    normalize: tuple[float, float] | None = None,
) -> TaskData:
    """Load a measured series from delimited text as one-step-ahead pairs.

    The file holds either one numeric value per line or, with ``column``,
    a comma-separated table whose header names the column to use. When
    ``normalize`` gives a (low, high) range the series is affinely mapped
    onto it and the transform recorded in the metadata.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col_index = None
    start = 0
    if column is not None:
        if not lines:
            raise ValueError(f"{path}: empty file")
        header = [name.strip() for name in lines[0].split(",")]
        if column not in header:
            raise ValueError(f"{path}: missing column {column!r} in header")
        col_index = header.index(column)
        start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        line = line.strip()
        if not line:
            continue
        token = line.split(",")[col_index] if col_index is not None else line
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(
                f"{path}: non-numeric value {token.strip()!r} at line {lineno}"
            ) from None
    if len(values) < 2:
        raise ValueError(f"{path}: need at least two values, found {len(values)}")
    series = np.asarray(values)
    meta = {"task": f"file:{path}"}
    if normalize is not None:
        low, high = normalize
        span = series.max() - series.min()
        if span == 0:
            raise ValueError(f"{path}: constant series cannot be normalized")
        scale = (high - low) / span
        offset = low - series.min() * scale
        series = series * scale + offset
        meta.update({"normalize_scale": scale, "normalize_offset": offset})
    return TaskData(inputs=series[:-1], targets=series[1:], meta=meta)


def spectrum(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude spectrum of a real series over bins 0..floor(L/2).

    Returns (frequencies in cycles per sample, magnitudes).
    """
    series = np.asarray(series, dtype=float)
    if series.size < 2:
        raise ValueError("series must have at least two samples")
    mags = np.abs(np.fft.rfft(series))
    freqs = np.fft.rfftfreq(series.size)
    return freqs, mags


def make_task(
    preset: str,
    length: int,
    seed: int = 0,
    mso_frequencies: tuple[float, ...] | None = None,
    normalize: tuple[float, float] | None = None,
    column: str | None = None,
) -> TaskData:
    """Build task data from a preset name.

    Presets: ``narma10``, ``mg17``, ``mso12``, and ``file:<path>``.
    """
    if preset == "narma10":
        return gen_narma10(length, seed)
    if preset == "mg17":
        return gen_mackey_glass(length, seed=seed)
    if preset == "mso12":
        freqs = mso_frequencies or MSO12_FREQUENCIES
        return gen_mso(length, MsoParams(frequencies=freqs))
    if preset.startswith("file:"):
        data = load_series(preset[5:], column=column, normalize=normalize)
        if len(data.inputs) < length:
            raise ValueError(
                f"{preset}: provides {len(data.inputs)} pairs, {length} required"
            )
        return data
    raise ValueError(f"unknown task preset {preset!r}")
