"""Development, readout training, and teacher-forced prediction.

One run works through four stages: build a random oscillator network,
drive it with the task input while the coupling weights adapt (the
development stage, replacing the usual washout), collect phase states and
fit a linear readout by ridge regression, then step through the test span
with the true input while the coupling stays frozen, predicting one step
ahead from each new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .network import OscillatorNetwork, develop, init_network, phase_step

# Rows of trig features centred together; bounds the centring scratch.
CENTRE_BLOCK = 256


@dataclass
class TaskData:
    """Paired input and target sequences of equal length."""

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.shape != self.targets.shape or self.inputs.ndim != 1:
            raise ValueError("inputs and targets must be 1-d and equally long")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise ValueError("task data must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ReservoirConfig:
    """All hyperparameters of one run.

    The defaults reproduce the NARMA10 benchmark setting: a 100-node
    reservoir at 5% density, adaptation rate 0.1, unit timestep, coupling
    strength 4.0, and a 100/900/500 split between development, training,
    and test lengths. The character parameter defaults to the locking
    (Hebbian-like) side -pi/2, and frequencies are drawn at scale 0.03;
    both are what lets the dt = 1 Euler dynamics phase-lock and compute.
    """

    n: int = 100
    density: float = 0.05
    spectral_target: float = 0.3
    lam: float = 4.0
    beta: float = -np.pi / 2
    epsilon: float = 0.1
    dt: float = 1.0
    frequency_scale: float = 0.03
    len_adev: int = 100
    len_train: int = 900
    len_test: int = 500
    ridge_alpha: float = 1e-3
    adaptive: bool = True
    use_bias: bool = True
    use_trig_features: bool = True
    center_phases: bool = True
    extra_train_after_dev: bool = False
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.spectral_target <= 0:
            raise ValueError("spectral_target must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.frequency_scale <= 0:
            raise ValueError("frequency_scale must be positive")
        if min(self.len_adev, self.len_train, self.len_test) < 0:
            raise ValueError("sequence lengths must be nonnegative")
        if self.len_adev >= self.len_train:
            raise ValueError("len_adev must be smaller than len_train")
        if self.ridge_alpha < 0:
            raise ValueError("ridge_alpha must be nonnegative")

    @property
    def train_span(self) -> int:
        """Samples the development and training stages consume: len_train,
        or len_adev + len_train with ``extra_train_after_dev``."""
        if self.extra_train_after_dev:
            return self.len_adev + self.len_train
        return self.len_train

    @property
    def test_span(self) -> slice:
        """The test samples of a task: the len_test that follow the
        training span."""
        return slice(self.train_span, self.train_span + self.len_test)

    def build_network(
        self, weight_init: tuple[float, float] | None = None
    ) -> OscillatorNetwork:
        """The random network this config describes, drawn from ``seed``.

        Live weights are uniform on [-1, 1], or beta(a, b) mapped onto
        [-1, 1] when ``weight_init`` gives the shape parameters (a, b).
        The coupling is rescaled to ``spectral_target`` once.
        """
        return init_network(
            self.n,
            self.density,
            self.seed,
            global_coupling=self.lam,
            character_parameter=self.beta,
            adaptation_rate=self.epsilon,
            timestep=self.dt,
            spectral_target=self.spectral_target,
            weight_init=weight_init,
            frequency_scale=self.frequency_scale,
        )


@dataclass
class StateTrace:
    """Collected reservoir states, one row per collection step, aligned
    with their target values. ``dev_phases`` is the phase snapshot taken
    when the development stage ended (used for synchrony measurements)."""

    states: np.ndarray
    targets: np.ndarray
    dev_phases: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.targets.shape[0]:
            raise ValueError("trace rows must match target count")


@dataclass
class Readout:
    """Trained output weights plus the feature contract they expect; made
    by ``train_readout``, the one place its flags are set."""

    weights: np.ndarray
    use_bias: bool
    use_trig_features: bool
    center_phases: bool


@dataclass
class PipelineResult:
    """Everything produced by one full run."""

    test_mse: float
    network: OscillatorNetwork
    readout: Readout
    predictions: np.ndarray
    train_mse: float
    trace: StateTrace

    @property
    def dev_phases(self) -> np.ndarray:
        return self.trace.dev_phases


def build_features(
    states: np.ndarray, contract: ReservoirConfig | Readout
) -> np.ndarray:
    """Map raw phase rows to readout features under the feature flags of
    ``contract``, the run config or the readout that owns them.

    Raw phases by default; with ``use_trig_features`` each phase column is
    replaced by its sine and cosine; ``use_bias`` appends a constant-one
    column. ``center_phases`` (trig contract only) subtracts each row's
    mean phase angle first. The dynamics are invariant under a common phase
    shift, so the mean phase integrates the input without fading; centering
    removes that non-stationary mode from the features.

    The mean angle is the circular mean m = atan2(mean sin, mean cos), and
    the centred features come from one sine and one cosine pass through
    the difference identities sin(theta - m) = sin theta cos m -
    cos theta sin m and cos(theta - m) = cos theta cos m + sin theta sin m,
    applied CENTRE_BLOCK rows at a time.
    """
    use_bias = contract.use_bias
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if not contract.use_trig_features:
        parts = [states, np.ones((states.shape[0], 1))] if use_bias else [states]
        return np.hstack(parts)
    rows, n = states.shape
    out = np.empty((rows, 2 * n + use_bias))
    sines, cosines = out[:, :n], out[:, n : 2 * n]
    np.sin(states, out=sines)
    np.cos(states, out=cosines)
    if contract.center_phases:
        # atan2 of the row sums: the same angle as of the row means.
        mean_angle = np.arctan2(
            sines.sum(axis=1, keepdims=True), cosines.sum(axis=1, keepdims=True)
        )
        cos_m, sin_m = np.cos(mean_angle), np.sin(mean_angle)
        # Elementwise, so a block of rows at a time gives the same bytes
        # with a scratch pair of one block instead of two full matrices.
        scratch = np.empty((2, min(rows, CENTRE_BLOCK), n))
        for start in range(0, rows, CENTRE_BLOCK):
            block = slice(start, start + CENTRE_BLOCK)
            s, c, cm, sm = sines[block], cosines[block], cos_m[block], sin_m[block]
            sin_sin_m, cos_sin_m = scratch[:, : s.shape[0]]
            np.multiply(s, sm, out=sin_sin_m)
            np.multiply(c, sm, out=cos_sin_m)
            s *= cm
            s -= cos_sin_m
            c *= cm
            c += sin_sin_m
    if use_bias:
        out[:, -1] = 1.0
    return out


def drive(net: OscillatorNetwork, inputs: np.ndarray) -> np.ndarray:
    """Drive the frozen network, the frozen twin of ``network.develop``: one
    phase step per input, the coupling untouched. Returns the phases after
    each step, one row per input."""
    states = np.empty((len(inputs), net.n))
    for row, u in enumerate(inputs):
        states[row] = phase_step(net, u)
    return states


def develop_and_collect(
    cfg: ReservoirConfig, data: TaskData
) -> tuple[OscillatorNetwork, StateTrace]:
    """Run the development-plus-collection loop over the training span.

    Steps i = 1..len_train feed input u(i); while i is inside the
    development span (and the run is adaptive) the coupling adapts and is
    rescaled to the target radius, afterwards the phases are collected
    together with their targets. With ``extra_train_after_dev`` the loop
    instead runs len_adev development steps followed by len_train
    collection steps.

    Returns the network ``cfg`` builds, developed, and the collected trace.
    """
    net = cfg.build_network()
    total = cfg.train_span
    if len(data) < total:
        raise ValueError(
            f"training span needs {total} samples, task data provides {len(data)}"
        )
    if cfg.extra_train_after_dev:
        n_dev = cfg.len_adev
    else:
        n_dev = max(cfg.len_adev - 1, 0)
    if cfg.adaptive:
        develop(net, data.inputs[:n_dev], cfg.spectral_target)
    else:
        drive(net, data.inputs[:n_dev])
    dev_phases = net.phases.copy()
    states = drive(net, data.inputs[n_dev:total])
    targets = data.targets[n_dev:total].copy()
    return net, StateTrace(states=states, targets=targets, dev_phases=dev_phases)


def solve_ridge(X: np.ndarray, Y: np.ndarray, alpha: float) -> np.ndarray:
    """Ridge weights w solving (X'X + alpha*I) w = X'Y; ``Y`` may hold one
    column per readout. Non-finite normal equations raise ValueError, and
    so do those whose 1-norm condition number reaches 1/eps (alpha = 0 on
    rank-deficient features), also when rounding would let them factorize."""
    lhs = X.T @ X + alpha * np.eye(X.shape[1])
    rhs = X.T @ Y
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ValueError("ridge features and targets must be finite")
    # For alpha > 0, cond_1(lhs) <= n * trace(lhs) / alpha, so the exact
    # check, a full inverse, runs only where twice that bound (a margin for
    # rounding) reaches 1/eps.
    eps = np.finfo(float).eps
    bound = 2 * lhs.shape[0] * np.trace(lhs) * eps
    if bound >= alpha and np.linalg.cond(lhs, 1) * eps >= 1.0:
        raise ValueError("singular normal equations; set ridge alpha > 0")
    return np.linalg.solve(lhs, rhs)


def train_readout(
    states: np.ndarray,
    targets: np.ndarray,
    alpha: float,
    use_bias: bool = False,
    use_trig_features: bool = False,
    center_phases: bool = False,
) -> Readout:
    """Fit readout weights by ridge regression (``solve_ridge``) on the
    features of a state matrix, one row per target."""
    y = np.asarray(targets, dtype=float)
    readout = Readout(None, use_bias, use_trig_features, center_phases)
    X = build_features(states, readout)
    if X.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise ValueError("trace rows and targets must match and be nonempty")
    readout.weights = solve_ridge(X, y, alpha)
    return readout


def predict(net: OscillatorNetwork, readout: Readout, inputs: np.ndarray) -> np.ndarray:
    """Teacher-forced one-step-ahead prediction, one per input.

    The frozen network is driven with the true inputs, and each step emits
    the readout applied to its new phases, built into the features the
    readout was trained on. The coupling never adapts here.
    """
    states = drive(net, inputs)
    predictions = np.empty(len(inputs))
    for i, phases in enumerate(states):
        feats = build_features(phases, readout)
        predictions[i] = float(feats[0] @ readout.weights)
    return predictions


def run_pipeline(cfg: ReservoirConfig, data: TaskData) -> PipelineResult:
    """Full run: develop, train the readout, and evaluate on the test span.

    Deterministic given ``cfg.seed`` and the task data. An empty test span
    raises ValueError, since its error would be the mean of nothing.
    """
    if cfg.len_test < 1:
        raise ValueError("len_test must be at least 1 for a pipeline run")
    test = cfg.test_span
    if len(data) < test.stop:
        raise ValueError(f"run needs {test.stop} samples, task data provides {len(data)}")
    net, trace = develop_and_collect(cfg, data)
    flags = (cfg.use_bias, cfg.use_trig_features, cfg.center_phases)
    readout = train_readout(trace.states, trace.targets, cfg.ridge_alpha, *flags)
    # The training features are a temporary, freed before predict runs.
    fitted = build_features(trace.states, readout) @ readout.weights
    train_mse = float(np.mean((fitted - trace.targets) ** 2))
    predictions = predict(net, readout, data.inputs[test])
    test_mse = float(np.mean((predictions - data.targets[test]) ** 2))
    return PipelineResult(
        test_mse=test_mse,
        network=net,
        readout=readout,
        predictions=predictions,
        train_mse=train_mse,
        trace=trace,
    )
