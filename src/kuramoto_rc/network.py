"""Co-evolving Kuramoto oscillator networks.

The reservoir substrate is a network of N phase oscillators

    dtheta_i/dt = omega_i + lambda * sum_j k_ij * sin(theta_j - theta_i + u(t))

whose coupling weights adapt on a slower time scale

    dk_ij/dt = -epsilon * sin(theta_j - theta_i + beta),   |k_ij| <= 1.

Both equations are integrated by forward Euler with a shared timestep.
The sparsity pattern of the coupling matrix is fixed at construction; only
initially live edges ever carry weight, and the adaptation step computes
only those. After each adaptation step the coupling matrix is rescaled to a
target spectral radius, estimated from that matrix alone by repeated
squaring. A dense eigensolver (numpy's) is only the last resort, for
leading eigenvalues of exactly equal modulus. The package needs numpy
alone, so a run loads one BLAS/LAPACK; the tests check the radius against
a dense solver from a separately built library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# Seed of the fixed vector x0 at which the squaring stage fits: every
# estimate is reproducible run to run.
_POWER_SEED = 0x5EED
# Squarings of the spectral-radius estimate before the dense solver.
_SQUARINGS = 60
# Squared residual ratio at which a fit settles.
_SETTLE_RATIO = 1e-16
# Relative agreement of successive estimates; radius below which a matrix
# counts as nilpotent and is left unscaled.
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
    net: OscillatorNetwork, seed: int, spectral_target: float | None = None
) -> OscillatorNetwork:
    """Fresh copy of ``net`` with new uniform live weights but the same mask
    and natural frequencies.

    Used by studies that compare developments of differently initialized
    coupling matrices on an otherwise identical network.
    """
    out = net.copy()
    out.phases = np.zeros(net.n)
    rng = np.random.default_rng(seed)
    return _draw_live_weights(out, rng, None, spectral_target)


def _draw_mask(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    n_edges = int(np.floor(density * n * (n - 1)))
    mask = np.zeros((n, n), dtype=bool)
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
            if not (0 < a < np.inf and 0 < b < np.inf):
                raise ValueError("beta shape parameters must be positive and finite")
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

    Repeated squaring P <- P @ P / max|P| from K / max|K|; after each
    squaring the recurrence K^2 x = alpha K x + beta x is fitted at
    x = P x0 / |P x0| for a fixed seeded x0. The larger root of
    t^2 - alpha t - beta is exact for a real dominant eigenvalue of either
    sign and for a complex-conjugate dominant pair. The estimate settles
    when its fit is exact to rounding and two successive estimates agree to
    relative 1e-10. A dense eigensolver is reached only when distinct
    eigenvalues share the leading modulus. The estimate depends on K alone.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    # One pass finds the largest magnitude; a NaN or inf entry makes it
    # non-finite.
    peak = np.abs(K).max(initial=0.0)
    if not np.isfinite(peak):
        raise ValueError("K must have finite entries")
    if K.shape[0] == 1:
        return float(abs(K[0, 0]))
    if peak == 0.0:
        return 0.0
    return _norm_limit_radius(K, peak)


@lru_cache(maxsize=32)
def _start_vector(n: int) -> np.ndarray:
    """The seeded unit start vector of length n, drawn once per n and
    shared read-only."""
    v = np.random.default_rng(_POWER_SEED).standard_normal(n)
    v = v / np.sqrt(v @ v)
    v.flags.writeable = False
    return v


def _two_term_fit(B: np.ndarray, previous: float) -> tuple[float, bool]:
    """Fit z ~ alpha*w + beta*v for the rows (v, w = Kv, z = Kw) of ``B``
    via the 2x2 Gram system.

    Returns the largest root magnitude of t^2 - alpha*t - beta and whether
    it has settled: it agrees with ``previous`` to relative ``_TOLERANCE``
    and the squared residual |z - alpha*w - beta*v|^2 is at most
    ``_SETTLE_RATIO`` |z|^2. The residual is computed only when the
    estimates agree.
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
    if not abs(estimate - previous) <= _TOLERANCE * max(1.0, estimate):
        return estimate, False
    v, w, z = B
    r = z - alpha * w - beta * v
    return estimate, float(r @ r) <= _SETTLE_RATIO * float(z @ z)


def _norm_limit_radius(K: np.ndarray, peak: float) -> float:
    """Squaring stage of ``spectral_radius``: the two-term fit at P x0,
    P = K^(2^j) by repeated squaring, for a K whose largest entry
    magnitude ``peak`` is positive.

    P is renormalized by its largest entry after every squaring. Each
    squaring doubles the power, so even a gap |lambda_2 / lambda_1| near 1
    is resolved in a few dozen matrix products, where power steps would
    crawl. If no estimate settles within ``_SQUARINGS`` squarings, the
    radius comes from ``numpy.linalg.eigvals``.
    """
    P = K / peak
    x0 = _start_vector(K.shape[0])
    B = np.empty((3, K.shape[0]))  # rows x = P x0 / |P x0|, Kx, K^2 x
    previous = np.inf
    for _ in range(_SQUARINGS):
        P = P @ P
        peak = max(P.max(), -P.min())  # max |P| without the abs temporary
        if peak == 0.0:  # nilpotent
            return 0.0
        P /= peak
        np.matmul(P, x0, out=B[0])
        B[0] /= math.sqrt(B[0] @ B[0])
        np.matmul(K, B[0], out=B[1])
        np.matmul(K, B[1], out=B[2])
        estimate, settled = _two_term_fit(B, previous)
        if settled:
            return estimate
        previous = estimate
    return float(np.abs(np.linalg.eigvals(K)).max())


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


# The development loop's rescale. The name stays because the benchmark
# tracer looks it up; being the same object, it is wrapped once under both
# names, so each rescale is one traced span.
_rescale_warm = rescale_to_radius


def develop(
    net: OscillatorNetwork,
    inputs: np.ndarray,
    target: float,
    on_step=None,
) -> OscillatorNetwork:
    """Development stage: phases and coupling co-evolve under the input.

    Each input value drives one step: a phase step, a coupling step, then
    a rescale of the coupling to spectral radius ``target``.
    ``on_step(i, net)``, if given, is called after step i = 1, 2, ...
    Returns ``net``, updated in place.
    """
    if target <= 0:
        raise ValueError("target spectral radius must be positive")
    for i, u in enumerate(inputs, start=1):
        phase_step(net, u)
        coupling_step(net)
        _rescale_warm(net, target)
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
