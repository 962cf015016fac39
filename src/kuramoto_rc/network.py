"""Co-evolving Kuramoto oscillator networks.

The reservoir substrate is a network of N phase oscillators

    dtheta_i/dt = omega_i + lambda * sum_j k_ij * sin(theta_j - theta_i + u(t))

whose coupling weights adapt on a slower time scale

    dk_ij/dt = -epsilon * sin(theta_j - theta_i + beta),   |k_ij| <= 1.

Both equations are integrated by forward Euler with a shared timestep.
The sparsity pattern of the coupling matrix is fixed at construction; only
initially live edges ever carry weight. After each adaptation step the
coupling matrix is rescaled to a target spectral radius, which is estimated
by power iteration (a dense eigensolver is deliberately not used here so
that tests can check against one independently).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Start vector for power iteration: fixed seed so every estimate is
# reproducible run to run.
_POWER_SEED = 0x5EED


@dataclass
class SpectralRadiusSettings:
    """Convergence controls for the power-iteration radius estimate."""

    tolerance: float = 1e-10
    max_iterations: int = 1000
    zero_threshold: float = 1e-12

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.zero_threshold <= 0:
            raise ValueError("zero_threshold must be positive")


DEFAULT_SETTINGS = SpectralRadiusSettings()


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

    def copy(self) -> "OscillatorNetwork":
        return OscillatorNetwork(
            phases=self.phases.copy(),
            natural_frequencies=self.natural_frequencies.copy(),
            coupling=self.coupling.copy(),
            mask=self.mask,  # immutable by contract
            global_coupling=self.global_coupling,
            character_parameter=self.character_parameter,
            adaptation_rate=self.adaptation_rate,
            timestep=self.timestep,
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
    settings: SpectralRadiusSettings = DEFAULT_SETTINGS,
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
    mask = _draw_mask(n, density, rng)
    coupling = np.zeros((n, n))
    n_live = int(mask.sum())
    if n_live:
        coupling[mask] = _draw_weights(n_live, rng, weight_init)
    net = OscillatorNetwork(
        phases=np.zeros(n),
        natural_frequencies=omega,
        coupling=coupling,
        mask=mask,
        global_coupling=global_coupling,
        character_parameter=character_parameter,
        adaptation_rate=adaptation_rate,
        timestep=timestep,
    )
    if spectral_target is not None:
        rescale_to_radius(net, spectral_target, settings)
    return net


def reinitialize_weights(
    net: OscillatorNetwork,
    seed: int,
    weight_init: tuple[float, float] | None = None,
    spectral_target: float | None = None,
    settings: SpectralRadiusSettings = DEFAULT_SETTINGS,
) -> OscillatorNetwork:
    """Fresh copy of ``net`` with new live weights but the same mask and
    natural frequencies.

    Used by studies that compare developments of differently initialized
    coupling matrices on an otherwise identical network.
    """
    out = net.copy()
    out.phases = np.zeros(net.n)
    rng = np.random.default_rng(seed)
    n_live = int(net.mask.sum())
    out.coupling = np.zeros((net.n, net.n))
    if n_live:
        out.coupling[net.mask] = _draw_weights(n_live, rng, weight_init)
    if spectral_target is not None:
        rescale_to_radius(out, spectral_target, settings)
    return out


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


def _draw_weights(
    count: int, rng: np.random.Generator, weight_init: tuple[float, float] | None
) -> np.ndarray:
    if weight_init is None:
        return rng.uniform(-1.0, 1.0, count)
    a, b = weight_init
    if a <= 0 or b <= 0:
        raise ValueError("beta shape parameters must be positive")
    return 2.0 * rng.beta(a, b, count) - 1.0


def phase_step(net: OscillatorNetwork, u: float) -> np.ndarray:
    """Advance all phases by one Euler step under input ``u``.

    The input enters as a common phase offset inside the coupling term.
    Phases are re-wrapped to [0, 2*pi); the coupling matrix is untouched.
    Returns the updated phase array (also stored on the network).
    """
    if not np.isfinite(u):
        raise FloatingPointError(f"non-finite input value {u!r}")
    theta = net.phases
    # sin(theta_j - theta_i + u) expanded so only O(n) transcendentals
    # are evaluated per step.
    shifted = theta + u
    ka = net.coupling @ np.sin(shifted)
    kb = net.coupling @ np.cos(shifted)
    drive = np.cos(theta) * ka - np.sin(theta) * kb
    theta = theta + net.timestep * (
        net.natural_frequencies + net.global_coupling * drive
    )
    if not np.isfinite(theta).all():
        bad = int(np.flatnonzero(~np.isfinite(theta))[0])
        raise FloatingPointError(f"non-finite phase at oscillator index {bad}")
    net.phases = np.mod(theta, TWO_PI)
    return net.phases


def coupling_step(net: OscillatorNetwork) -> np.ndarray:
    """Advance all live coupling weights by one Euler step.

    Each live weight moves by -epsilon * sin(theta_j - theta_i + beta) * dt
    and is clamped back into [-1, 1] immediately. Masked-off entries stay
    zero; phases are untouched. Returns the updated coupling matrix.
    """
    theta = net.phases
    shifted = theta + net.character_parameter
    # Outer-product expansion of sin(theta_j - theta_i + beta).
    sines = np.outer(np.cos(theta), np.sin(shifted)) - np.outer(
        np.sin(theta), np.cos(shifted)
    )
    stepped = net.coupling - net.adaptation_rate * net.timestep * sines
    net.coupling = np.where(net.mask, np.clip(stepped, -1.0, 1.0), 0.0)
    return net.coupling


def spectral_radius(
    K: np.ndarray, settings: SpectralRadiusSettings = DEFAULT_SETTINGS
) -> float:
    """Largest eigenvalue magnitude of a real square matrix.

    Power iteration with a two-vector refinement: each iterate fits the
    best degree-2 recurrence K^2 v = alpha K v + beta v, whose roots give
    the dominant eigenvalue pair. This converges for real dominant
    eigenvalues of either sign and for complex-conjugate dominant pairs.
    If the iteration has not settled after ``max_iterations`` (several
    eigenvalues of near-equal magnitude), the estimate falls back to the
    norm limit ||K^m||^(1/m) computed by repeated squaring.

    Raises
    ------
    ArithmeticError
        If even the fallback fails to stabilize; the message carries the
        best estimate so far.
    """
    rho, _ = _power_radius(K, settings, None)
    return rho


def _power_radius(
    K: np.ndarray,
    settings: SpectralRadiusSettings,
    v0: np.ndarray | None,
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
        v = np.random.default_rng(_POWER_SEED).standard_normal(n)
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

    return _norm_limit_radius(K, settings), None


def _norm_limit_radius(K: np.ndarray, settings: SpectralRadiusSettings) -> float:
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


def rescale_to_radius(
    net: OscillatorNetwork,
    target: float,
    settings: SpectralRadiusSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """Scale the coupling matrix so its spectral radius equals ``target``.

    Skipped when the current radius is below ``settings.zero_threshold``
    (an all-zero or nilpotent matrix cannot be rescaled). The scaling may
    push individual weights outside [-1, 1]; the clamp belongs to the
    adaptation step only.
    """
    if target <= 0:
        raise ValueError("target spectral radius must be positive")
    rho = spectral_radius(net.coupling, settings)
    if rho >= settings.zero_threshold:
        net.coupling = net.coupling * (target / rho)
    return net.coupling


def _rescale_warm(
    net: OscillatorNetwork,
    target: float,
    settings: SpectralRadiusSettings,
    v0: np.ndarray | None,
) -> np.ndarray | None:
    """Rescale with a warm-started radius estimate (development-loop path)."""
    rho, v = _power_radius(net.coupling, settings, v0)
    if rho >= settings.zero_threshold:
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
    warm = None
    for i, u in enumerate(inputs, start=1):
        phase_step(net, u)
        coupling_step(net)
        warm = _rescale_warm(net, target, DEFAULT_SETTINGS, warm)
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
