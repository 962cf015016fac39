"""Co-evolving Kuramoto oscillator networks.

The reservoir substrate is a network of N phase oscillators

    dtheta_i/dt = omega_i + lambda * sum_j k_ij * sin(theta_j - theta_i + u(t))

whose coupling weights adapt on a slower time scale

    dk_ij/dt = -epsilon * sin(theta_j - theta_i + beta),   |k_ij| <= 1.

Both equations are integrated by forward Euler with a shared timestep.
The sparsity pattern of the coupling matrix is fixed at construction; only
initially live edges ever carry weight, and the adaptation step computes
only those. After each adaptation step the coupling matrix is rescaled to a
target spectral radius, estimated by a warm-started power iteration that
hands stalls to repeated squaring: at once when a probe of its fit residual
after six steps shows it cannot settle within its 30-step budget. A dense
eigensolver (scipy's) is only the last resort, so tests can check against
numpy's independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi

# Start vector for power iteration: fixed seed so every estimate is
# reproducible run to run.
_POWER_SEED = 0x5EED
# Warm power steps, then squarings, of the spectral-radius estimate.
_WARM_STEPS = 30
_SQUARINGS = 60
# Squared residual ratio at which a fit settles; warm fit after which a
# stall is handed to squaring.
_SETTLE_RATIO = 1e-16
_PROBE_FIT = 6
# Relative agreement of successive estimates; scale below which a vector or
# radius counts as zero.
_TOLERANCE = 1e-10
_ZERO_THRESHOLD = 1e-12


@dataclass
class OscillatorNetwork:
    """State of one oscillator network.

    Attributes
    ----------
    phases : np.ndarray, shape (n,)
        Oscillator phases, each kept in [0, 2*pi).
    natural_frequencies : np.ndarray, shape (n,)
        Per-node natural frequencies (radians per unit time).
    coupling : np.ndarray, shape (n, n)
        Weighted adjacency matrix. Entries are zero off the mask.
    mask : np.ndarray of bool, shape (n, n)
        Live edges. Fixed after construction; diagonal always False.
    global_coupling : float
        Coupling strength multiplying the interaction sum.
    character_parameter : float
        Phase offset in the adaptation rule (selects the plasticity regime).
    adaptation_rate : float
        Time scale of weight adaptation, much smaller than 1.
    timestep : float
        Euler integration step.
    """

    phases: np.ndarray
    natural_frequencies: np.ndarray
    coupling: np.ndarray
    mask: np.ndarray
    global_coupling: float
    character_parameter: float
    adaptation_rate: float
    timestep: float = 1.0

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        self.natural_frequencies = np.asarray(self.natural_frequencies, dtype=float)
        self.coupling = np.asarray(self.coupling, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        n = self.phases.shape[0]
        if self.natural_frequencies.shape != (n,):
            raise ValueError("natural_frequencies must match phases in length")
        if self.coupling.shape != (n, n) or self.mask.shape != (n, n):
            raise ValueError("coupling and mask must be n-by-n")
        if self.mask.diagonal().any():
            raise ValueError("mask diagonal must be False (no self-coupling)")

    @property
    def n(self) -> int:
        return self.phases.shape[0]

    @cached_property
    def live_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat, row and column indices of the live edges, in row-major
        order; read from the mask once, which never changes."""
        flat = np.flatnonzero(self.mask)
        rows, cols = np.divmod(flat, self.n)
        return flat, rows, cols

    def copy(self) -> "OscillatorNetwork":
        """Copy with its own arrays; the mask, immutable by contract, is
        shared."""
        return replace(
            self,
            phases=self.phases.copy(),
            natural_frequencies=self.natural_frequencies.copy(),
            coupling=self.coupling.copy(),
        )


def init_network(
    n: int,
    density: float,
    seed: int,
    global_coupling: float = 1.0,
    character_parameter: float = np.pi / 2,
    adaptation_rate: float = 0.1,
    timestep: float = 1.0,
    spectral_target: float | None = None,
    weight_init: tuple[float, float] | None = None,
    frequency_scale: float = 1.0,
) -> OscillatorNetwork:
    """Build a randomly initialized network.

    Phases start at zero, natural frequencies are i.i.d. normal with
    standard deviation ``frequency_scale``, and floor(density * n * (n-1))
    off-diagonal edges are chosen uniformly at random without replacement.
    Live weights are uniform on [-1, 1], or drawn from a beta distribution
    mapped onto [-1, 1] when ``weight_init`` gives its (a, b) shape
    parameters. If ``spectral_target`` is set, the freshly drawn coupling
    matrix is rescaled to that spectral radius once.

    Everything is deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if frequency_scale <= 0:
        raise ValueError("frequency_scale must be positive")
    rng = np.random.default_rng(seed)
    omega = frequency_scale * rng.standard_normal(n)
    net = OscillatorNetwork(
        phases=np.zeros(n),
        natural_frequencies=omega,
        coupling=np.zeros((n, n)),
        mask=_draw_mask(n, density, rng),
        global_coupling=global_coupling,
        character_parameter=character_parameter,
        adaptation_rate=adaptation_rate,
        timestep=timestep,
    )
    return _draw_live_weights(net, rng, weight_init, spectral_target)


def reinitialize_weights(
    net: OscillatorNetwork,
    seed: int,
    weight_init: tuple[float, float] | None = None,
    spectral_target: float | None = None,
) -> OscillatorNetwork:
    """Fresh copy of ``net`` with new live weights but the same mask and
    natural frequencies.

    Used by studies that compare developments of differently initialized
    coupling matrices on an otherwise identical network.
    """
    out = net.copy()
    out.phases = np.zeros(net.n)
    rng = np.random.default_rng(seed)
    return _draw_live_weights(out, rng, weight_init, spectral_target)


def _draw_mask(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    n_edges = int(np.floor(density * n * (n - 1)))
    mask = np.zeros((n, n), dtype=bool)
    if n_edges == 0:
        return mask
    flat = np.arange(n * n)
    off_diagonal = flat[flat // n != flat % n]
    chosen = rng.choice(off_diagonal, size=n_edges, replace=False)
    mask.flat[chosen] = True
    return mask


def _draw_live_weights(
    net: OscillatorNetwork,
    rng: np.random.Generator,
    weight_init: tuple[float, float] | None,
    spectral_target: float | None,
) -> OscillatorNetwork:
    """Replace the coupling of ``net`` by fresh live weights drawn from
    ``rng`` (uniform, or beta(a, b) mapped onto [-1, 1]), rescaled to
    ``spectral_target`` when it is set."""
    n_live = int(net.mask.sum())
    net.coupling = np.zeros((net.n, net.n))
    if n_live:
        if weight_init is None:
            weights = rng.uniform(-1.0, 1.0, n_live)
        else:
            a, b = weight_init
            if a <= 0 or b <= 0:
                raise ValueError("beta shape parameters must be positive")
            weights = 2.0 * rng.beta(a, b, n_live) - 1.0
        net.coupling[net.mask] = weights
    if spectral_target is not None:
        rescale_to_radius(net, spectral_target)
    return net


def phase_step(net: OscillatorNetwork, u: float) -> np.ndarray:
    """Advance all phases by one Euler step under input ``u``.

    The input enters as a common phase offset inside the coupling term.
    Phases are re-wrapped to [0, 2*pi); the coupling matrix is untouched.
    Returns the updated phase array (also stored on the network), a new
    array. A non-finite phase raises FloatingPointError naming its index.

    The update theta + dt * (omega + lambda * drive) is built in place on
    one buffer. Multiplication and addition commute exactly in IEEE
    arithmetic, so the reordered operands give the same bits as the
    textbook order.
    """
    if not math.isfinite(u):
        raise FloatingPointError(f"non-finite input value {u!r}")
    theta = net.phases
    # sin(theta_j - theta_i + u) expanded so only O(n) transcendentals
    # are evaluated per step.
    shifted = theta + u
    ka = net.coupling @ np.sin(shifted)
    kb = net.coupling @ np.cos(shifted)
    step = np.cos(theta)
    step *= ka
    kb *= np.sin(theta)
    step -= kb
    step *= net.global_coupling
    step += net.natural_frequencies
    step *= net.timestep
    step += theta
    np.mod(step, TWO_PI, out=step)
    # The wrap maps a non-finite phase to NaN, which fails this test, and
    # rounds a phase just below 0 up to 2*pi, which is folded back to 0.
    if not step.max() < TWO_PI:
        if np.isnan(step).any():
            bad = int(np.flatnonzero(np.isnan(step))[0])
            raise FloatingPointError(f"non-finite phase at oscillator index {bad}")
        step[step == TWO_PI] = 0.0
    net.phases = step
    return step


def coupling_step(net: OscillatorNetwork) -> np.ndarray:
    """Advance all live coupling weights by one Euler step.

    Each live weight moves by -epsilon * sin(theta_j - theta_i + beta) * dt
    and is clamped back into [-1, 1] immediately. Masked-off entries stay
    zero; phases are untouched. Returns the updated coupling matrix, a new
    array.

    Only the live edges are computed, at the products and subtraction
    order of the full outer-product form, so the result equals it bit for
    bit.
    """
    theta = net.phases
    shifted = theta + net.character_parameter
    flat, rows, cols = net.live_edges
    # sin(theta_j - theta_i + beta) = cos(theta_i) sin(theta_j + beta)
    #                               - sin(theta_i) cos(theta_j + beta)
    cos_i, sin_i = np.cos(theta)[rows], np.sin(theta)[rows]
    sines = cos_i * np.sin(shifted)[cols] - sin_i * np.cos(shifted)[cols]
    stepped = net.coupling.take(flat) - net.adaptation_rate * net.timestep * sines
    coupling = np.zeros((net.n, net.n))
    coupling.put(flat, np.clip(stepped, -1.0, 1.0))
    net.coupling = coupling
    return coupling


def spectral_radius(K: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a real square matrix.

    Each stage fits the recurrence K^2 x = alpha K x + beta x at a vector
    x; the larger root of t^2 - alpha t - beta is exact for a real dominant
    eigenvalue of either sign and for a complex-conjugate dominant pair.
    A stage settles when its fit is exact to rounding and two successive
    estimates agree to relative 1e-10. Stage 1 is power iteration for at
    most 30 steps; stage 2 repeated squaring P <- P @ P / max|P| from
    K / max|K|, fitting at P x0; stage 3, reached only when distinct
    eigenvalues share the leading modulus, a dense eigensolver.

    Stage 1 hands a stall to stage 2 early. It measures the squared fit
    residual ratio |z - alpha*w - beta*v|^2 / |z|^2 at its 1st and 6th
    fits only, and stops after the 6th if the ratio is not shrinking or,
    at its geometric rate over those five steps, would still exceed the
    1e-16 settle threshold at the end of the 30-step budget.
    """
    rho, _ = _power_radius(K, None)
    return rho


@lru_cache(maxsize=32)
def _start_vector(n: int) -> np.ndarray:
    """The seeded unit start vector of length n, drawn once per n and
    shared read-only."""
    v = np.random.default_rng(_POWER_SEED).standard_normal(n)
    v = v / np.sqrt(v @ v)
    v.flags.writeable = False
    return v


def _two_term_fit(
    B: np.ndarray, previous: float, measure: bool = False
) -> tuple[float, bool, float]:
    """Fit z ~ alpha*w + beta*v for the rows (v, w = Kv, z = Kw) of ``B``
    via the 2x2 Gram system.

    Returns the largest root magnitude of t^2 - alpha*t - beta, whether it
    has settled, and the squared residual ratio |z - alpha*w - beta*v|^2 /
    |z|^2 (0 for z = 0). The estimate has settled when it agrees with
    ``previous`` to relative ``_TOLERANCE`` and the ratio is at most
    ``_SETTLE_RATIO``. The residual is computed only when the estimates
    agree or ``measure`` is set; otherwise the ratio reads inf.
    """
    (gvv, gwv, zv), (_, gww, zw) = (B[:2] @ B.T).tolist()
    det = gww * gvv - gwv * gwv
    if det > 1e-14 * gww * gvv:
        alpha = (zw * gvv - zv * gwv) / det
        beta = (zv * gww - zw * gwv) / det
    else:  # w parallel to v: pure one-term fit
        alpha = zw / gww if gww else 0.0
        beta = 0.0
    disc = alpha * alpha + 4.0 * beta
    if disc >= 0.0:
        sq = math.sqrt(disc)
        estimate = max(abs(alpha + sq), abs(alpha - sq)) / 2.0
    else:
        estimate = math.sqrt(alpha * alpha - disc) / 2.0
    agrees = abs(estimate - previous) <= _TOLERANCE * max(1.0, estimate)
    if not (agrees or measure):
        return estimate, False, math.inf
    v, w, z = B
    r = z - alpha * w - beta * v
    rr, zz = float(r @ r), float(z @ z)
    ratio = rr / zz if zz else 0.0
    return estimate, agrees and rr <= _SETTLE_RATIO * zz, ratio


def _stalls(first: float, probe: float, remaining: int) -> bool:
    """Whether a warm stage whose residual ratio went from ``first`` (fit
    1) to ``probe`` (fit ``_PROBE_FIT``) cannot settle in ``remaining``
    more fits: the ratio is not shrinking, or at its geometric rate it
    stays above ``_SETTLE_RATIO``."""
    if not probe < first:
        return True
    rate = (probe / first) ** (1.0 / (_PROBE_FIT - 1))
    return probe * rate**remaining > _SETTLE_RATIO


def _power_radius(
    K: np.ndarray, v0: np.ndarray | None
) -> tuple[float, np.ndarray | None]:
    """Checks, then the warm stage; returns (radius, leading direction)."""
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

    B = np.empty((3, n))  # rows v, w = Kv, z = Kw
    if v0 is not None and v0.shape == (n,) and np.isfinite(v0).all():
        B[0] = v0 / np.sqrt(v0 @ v0)
    else:
        B[0] = _start_vector(n)
    np.matmul(K, B[0], out=B[1])
    previous = np.inf
    for fit in range(1, _WARM_STEPS + 1):
        nw = math.sqrt(B[1] @ B[1])
        if nw <= _ZERO_THRESHOLD * scale:
            break  # v fell into the (near) null space
        np.matmul(K, B[1], out=B[2])
        estimate, settled, ratio = _two_term_fit(
            B, previous, measure=fit in (1, _PROBE_FIT)
        )
        if settled:
            return estimate, B[1] / nw
        if fit == 1:
            first = ratio
        elif fit == _PROBE_FIT and _stalls(first, ratio, _WARM_STEPS - fit):
            break
        previous = estimate
        B[:2] = B[1:] / nw
    return _norm_limit_radius(K)


def _norm_limit_radius(K: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Hand-off stage: the two-term fit at P x0, P = K^(2^j) by repeated
    squaring; returns (radius, leading direction).

    P is renormalized by its largest entry after every squaring. Each
    squaring doubles the power, so even a gap |lambda_2 / lambda_1| near 1
    is resolved in a few dozen matrix products, where power steps would
    crawl. If no estimate settles within ``_SQUARINGS`` squarings, the
    radius comes from ``scipy.linalg.eigvals``.
    """
    P = K / np.abs(K).max()
    x0 = _start_vector(K.shape[0])
    B = np.empty((3, K.shape[0]))  # rows x = P x0 / |P x0|, Kx, K^2 x
    previous = np.inf
    for _ in range(_SQUARINGS):
        P = P @ P
        peak = max(P.max(), -P.min())  # max |P| without the abs temporary
        if peak == 0.0:  # nilpotent
            return 0.0, None
        P /= peak
        np.matmul(P, x0, out=B[0])
        B[0] /= math.sqrt(B[0] @ B[0])
        np.matmul(K, B[0], out=B[1])
        np.matmul(K, B[1], out=B[2])
        estimate, settled, _ = _two_term_fit(B, previous)
        if settled:
            return estimate, B[0]
        previous = estimate
    return float(np.abs(scipy.linalg.eigvals(K, check_finite=False)).max()), None


def rescale_to_radius(net: OscillatorNetwork, target: float) -> np.ndarray:
    """Scale the coupling matrix so its spectral radius equals ``target``.

    Skipped when the current radius is below 1e-12 (an all-zero or
    nilpotent matrix cannot be rescaled). The scaling may push individual
    weights outside [-1, 1]; the clamp belongs to the adaptation step only.
    """
    if target <= 0:
        raise ValueError("target spectral radius must be positive")
    rho = spectral_radius(net.coupling)
    if rho >= _ZERO_THRESHOLD:
        net.coupling = net.coupling * (target / rho)
    return net.coupling


def _rescale_warm(
    net: OscillatorNetwork, target: float, v0: np.ndarray | None
) -> np.ndarray | None:
    """Rescale with a warm-started radius estimate (development-loop path)."""
    rho, v = _power_radius(net.coupling, v0)
    if rho >= _ZERO_THRESHOLD:
        net.coupling = net.coupling * (target / rho)
    return v


def develop(
    net: OscillatorNetwork,
    inputs: np.ndarray,
    target: float,
    on_step=None,
) -> OscillatorNetwork:
    """Development stage: phases and coupling co-evolve under the input.

    Each input value drives one step: a phase step, a coupling step, then
    a rescale of the coupling to spectral radius ``target``, warm-started
    from the previous step's estimate. ``on_step(i, net)``, if given, is
    called after step i = 1, 2, ... Returns ``net``, updated in place.
    """
    if target <= 0:
        raise ValueError("target spectral radius must be positive")
    warm = None
    for i, u in enumerate(inputs, start=1):
        phase_step(net, u)
        coupling_step(net)
        warm = _rescale_warm(net, target, warm)
        if on_step is not None:
            on_step(i, net)
    return net


def order_parameter(phases: np.ndarray) -> tuple[float, float]:
    """Kuramoto order parameter (r, psi) of a phase configuration.

    r is the magnitude of the mean unit phasor (1 for identical phases,
    near 0 for phases scattered around the circle); psi is its angle.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise ValueError("order parameter needs at least one phase")
    z = np.exp(1j * phases).mean()
    return min(float(np.abs(z)), 1.0), float(np.angle(z))
