import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kuramoto_rc.network as netmod
import kuramoto_rc.reservoir as reservoir
from kuramoto_rc.network import (
    OscillatorNetwork,
    coupling_step,
    init_network,
    order_parameter,
    phase_step,
    reinitialize_weights,
    rescale_to_radius,
    spectral_radius,
)
from kuramoto_rc.reservoir import ReservoirConfig, drive
from kuramoto_rc.tasks import make_task

TWO_PI = 2.0 * np.pi


def two_node_net(phases, coupling, lam=1.0, beta=0.0, eps=0.1, dt=1.0, omega=None):
    return OscillatorNetwork(
        phases=np.asarray(phases, dtype=float),
        natural_frequencies=np.zeros(2) if omega is None else np.asarray(omega),
        coupling=np.asarray(coupling, dtype=float),
        mask=np.array([[False, True], [True, False]]),
        global_coupling=lam,
        character_parameter=beta,
        adaptation_rate=eps,
        timestep=dt,
    )


class TestInitNetwork:
    def test_edge_count_at_benchmark_density(self):
        net = init_network(100, 0.05, seed=0)
        assert net.mask.sum() == 495  # floor(0.05 * 100 * 99)

    def test_zero_density_and_zero_phases(self):
        net = init_network(3, 0.0, seed=1)
        assert np.all(net.coupling == 0.0)
        assert np.all(net.phases == 0.0)
        assert net.mask.sum() == 0

    def test_deterministic_given_seed(self):
        a = init_network(50, 0.1, seed=42)
        b = init_network(50, 0.1, seed=42)
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.natural_frequencies, b.natural_frequencies)
        assert np.array_equal(a.coupling, b.coupling)
        assert np.array_equal(a.mask, b.mask)

    def test_weights_in_unit_interval(self):
        net = init_network(60, 0.2, seed=3)
        live = net.coupling[net.mask]
        assert live.size == int(np.floor(0.2 * 60 * 59))
        assert np.all(np.abs(live) <= 1.0)
        assert np.all(net.coupling[~net.mask] == 0.0)

    def test_no_self_coupling(self):
        net = init_network(40, 1.0, seed=5)
        assert not net.mask.diagonal().any()
        # full density covers every off-diagonal entry
        assert net.mask.sum() == 40 * 39

    def test_frequency_scale(self):
        wide = init_network(4000, 0.0, seed=9, frequency_scale=1.0)
        narrow = init_network(4000, 0.0, seed=9, frequency_scale=0.1)
        assert np.allclose(wide.natural_frequencies * 0.1, narrow.natural_frequencies)
        assert abs(np.std(wide.natural_frequencies) - 1.0) < 0.05

    def test_initial_rescale_hits_target(self):
        net = init_network(80, 0.1, seed=7, spectral_target=0.9)
        dense = np.max(np.abs(np.linalg.eigvals(net.coupling)))
        assert abs(dense - 0.9) < 1e-8

    def test_beta_weight_init(self):
        net = init_network(100, 0.5, seed=11, weight_init=(5.0, 1.0))
        live = net.coupling[net.mask]
        # Beta(5,1) mapped to [-1,1] has mean 2*5/6 - 1 = 2/3
        assert abs(live.mean() - 2.0 / 3.0) < 0.02
        assert np.all(np.abs(live) <= 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_network(0, 0.5, seed=0)
        with pytest.raises(ValueError):
            init_network(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            init_network(5, 0.5, seed=0, frequency_scale=0.0)
        for shape in [(0.0, 1.0), (1.0, np.nan), (np.inf, 1.0)]:
            with pytest.raises(ValueError, match="positive and finite"):
                init_network(5, 0.5, seed=0, weight_init=shape)

    def test_reinitialize_keeps_mask_and_frequencies(self):
        base = init_network(30, 0.2, seed=1)
        other = reinitialize_weights(base, seed=99)
        assert np.array_equal(base.mask, other.mask)
        assert np.array_equal(base.natural_frequencies, other.natural_frequencies)
        assert not np.array_equal(base.coupling, other.coupling)
        assert np.all(other.coupling[~other.mask] == 0.0)


class TestPhaseStep:
    def test_uncoupled_single_oscillator(self):
        net = OscillatorNetwork(
            phases=np.zeros(1),
            natural_frequencies=np.array([0.5]),
            coupling=np.zeros((1, 1)),
            mask=np.zeros((1, 1), dtype=bool),
            global_coupling=1.0,
            character_parameter=0.0,
            adaptation_rate=0.1,
            timestep=1.0,
        )
        phase_step(net, 0.0)
        assert net.phases[0] == pytest.approx(0.5)

    def test_symmetric_fixed_point(self):
        net = two_node_net([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        phase_step(net, 0.0)
        assert np.allclose(net.phases, 0.0)

    def test_hand_evaluated_euler_step(self):
        # one Euler step of the coupled pair starting at (0, pi/2)
        net = two_node_net([0.0, np.pi / 2], [[0.0, 1.0], [1.0, 0.0]])
        phase_step(net, 0.0)
        assert net.phases[0] == pytest.approx(1.0, abs=1e-12)
        assert net.phases[1] == pytest.approx(np.pi / 2 - 1.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(8)
        n = 15
        mask = rng.random((n, n)) < 0.4
        np.fill_diagonal(mask, False)
        K = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
        theta = rng.uniform(0, TWO_PI, n)
        omega = rng.standard_normal(n)
        u = 0.37
        net = OscillatorNetwork(theta.copy(), omega, K, mask, 1.7, 0.9, 0.1, 0.5)
        phase_step(net, u)
        expected = np.array(
            [
                (
                    theta[i]
                    + 0.5
                    * (
                        omega[i]
                        + 1.7
                        * sum(
                            K[i, j] * np.sin(theta[j] - theta[i] + u)
                            for j in range(n)
                        )
                    )
                )
                % TWO_PI
                for i in range(n)
            ]
        )
        assert np.allclose(net.phases, expected, atol=1e-12)

    def test_wraps_into_unit_circle(self):
        net = two_node_net([6.2, 0.1], [[0.0, 1.0], [1.0, 0.0]], omega=[5.0, -5.0])
        for _ in range(50):
            phase_step(net, 0.3)
            assert np.all(net.phases >= 0.0)
            assert np.all(net.phases < TWO_PI)

    def test_coupling_untouched(self):
        net = two_node_net([0.0, 1.0], [[0.0, 0.5], [0.25, 0.0]])
        before = net.coupling.copy()
        phase_step(net, 0.2)
        assert np.array_equal(net.coupling, before)

    def test_deterministic(self):
        a = two_node_net([0.3, 1.2], [[0.0, 0.7], [-0.4, 0.0]], omega=[0.1, -0.2])
        b = two_node_net([0.3, 1.2], [[0.0, 0.7], [-0.4, 0.0]], omega=[0.1, -0.2])
        phase_step(a, 0.11)
        phase_step(b, 0.11)
        assert np.array_equal(a.phases, b.phases)

    def test_nonfinite_input_faults(self):
        net = two_node_net([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(FloatingPointError):
            phase_step(net, np.nan)

    def test_nonfinite_phase_faults_with_index(self):
        net = two_node_net([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], omega=[0.0, np.inf])
        with pytest.raises(FloatingPointError, match="index 1"):
            phase_step(net, 0.0)


def reference_phase_step(net, u):
    """The phase step before it was built in place on one buffer, kept as
    its bit-for-bit reference."""
    if not np.isfinite(u):
        raise FloatingPointError(f"non-finite input value {u!r}")
    theta = net.phases
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


@st.composite
def phase_cases(draw):
    """A network with arbitrary phases, frequencies and masked weights,
    and the inputs of up to 20 steps; unit and other timesteps."""
    n = draw(st.integers(1, 30))
    density = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    phases = draw(
        st.lists(
            st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n
        )
    )
    omega = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    net = OscillatorNetwork(
        phases=np.array(phases),
        natural_frequencies=np.array(omega),
        coupling=np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0),
        mask=mask,
        global_coupling=draw(st.floats(0.01, 10.0)),
        character_parameter=0.0,
        adaptation_rate=0.1,
        timestep=draw(st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.01, 2.0))),
    )
    inputs = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
    return net, inputs


class TestPhaseStepKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=phase_cases())
    def test_in_place_step_equals_reference(self, case):
        net, inputs = case
        reference = net.copy()
        for u in inputs:
            stepped = phase_step(net, u)
            expected = reference_phase_step(reference, u)
            # The one intended difference: a phase just below 0, which the
            # wrap rounds up to 2*pi, now lands on 0.
            expected[expected == TWO_PI] = 0.0
            assert np.array_equal(stepped, expected)
            assert stepped is net.phases

    def test_phase_just_below_zero_wraps_to_zero(self):
        net = two_node_net([0.0, 1.0], np.zeros((2, 2)), omega=[-1e-300, 0.0])
        assert reference_phase_step(net.copy(), 0.0)[0] == TWO_PI
        assert phase_step(net, 0.0)[0] == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=phase_cases())
    def test_phases_stay_in_unit_circle(self, case):
        net, inputs = case
        for u in inputs:
            phase_step(net, u)
            assert np.all(net.phases >= 0.0) and np.all(net.phases < TWO_PI)

    @pytest.mark.parametrize("bad", [0, 3, 6])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_phase_names_the_reference_index(self, bad, value):
        net = init_network(7, 0.5, seed=1, frequency_scale=0.1)
        net.natural_frequencies[bad] = value
        reference = net.copy()
        with pytest.raises(FloatingPointError) as expected:
            reference_phase_step(reference, 0.2)
        with pytest.raises(FloatingPointError, match=f"index {bad}$") as raised:
            phase_step(net, 0.2)
        assert str(raised.value) == str(expected.value)

    def test_numpy_scalar_input(self):
        net = init_network(10, 0.3, seed=2)
        reference = net.copy()
        u = np.float64(0.25)
        assert np.array_equal(phase_step(net, u), reference_phase_step(reference, u))


def reference_coupling_step(net):
    """The full outer-product coupling step that the live-edge kernel
    replaced, kept as its bit-for-bit reference."""
    theta = net.phases
    shifted = theta + net.character_parameter
    sines = np.outer(np.cos(theta), np.sin(shifted)) - np.outer(
        np.sin(theta), np.cos(shifted)
    )
    stepped = net.coupling - net.adaptation_rate * net.timestep * sines
    net.coupling = np.where(net.mask, np.clip(stepped, -1.0, 1.0), 0.0)
    return net.coupling


@st.composite
def coupling_cases(draw):
    """A network with arbitrary phases and weights, nonzero junk off the
    mask included, to be stepped once."""
    n = draw(st.integers(1, 30))
    density = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    phases = draw(
        st.lists(
            st.floats(0.0, TWO_PI, exclude_max=True), min_size=n, max_size=n
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    return OscillatorNetwork(
        phases=np.array(phases),
        natural_frequencies=np.zeros(n),
        coupling=rng.uniform(-1.0, 1.0, (n, n)),
        mask=mask,
        global_coupling=1.0,
        character_parameter=draw(st.floats(-TWO_PI, TWO_PI)),
        adaptation_rate=draw(st.floats(0.0, 1.0)),
        timestep=draw(st.floats(0.01, 2.0)),
    )


class TestCouplingStep:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(net=coupling_cases())
    def test_live_edge_kernel_equals_outer_product_form(self, net):
        expected = reference_coupling_step(net.copy())
        stepped = coupling_step(net)
        assert np.array_equal(stepped, expected)
        assert np.all(np.abs(stepped[net.mask]) <= 1.0)
        assert np.all(stepped[~net.mask] == 0.0)

    @pytest.mark.parametrize("lam, rho", [(2.0, 1.0), (8.0, 2.0)])
    def test_development_equals_reference_in_chaotic_cells(
        self, monkeypatch, lam, rho
    ):
        # In these cells a one-ulp difference grows visibly within 100 steps.
        cfg = ReservoirConfig(lam=lam, spectral_target=rho, seed=3)
        inputs = np.random.default_rng(3).uniform(0.0, 0.5, 100)
        fast, slow = cfg.build_network(), cfg.build_network()
        drive(fast, inputs, rho)
        monkeypatch.setattr(reservoir, "coupling_step", reference_coupling_step)
        drive(slow, inputs, rho)
        assert np.array_equal(fast.coupling, slow.coupling)
        assert np.array_equal(fast.phases, slow.phases)

    def test_aligned_phases_zero_offset_is_identity(self):
        net = two_node_net([1.3, 1.3], [[0.0, 0.5], [0.25, 0.0]], beta=0.0)
        before = net.coupling.copy()
        coupling_step(net)
        assert np.allclose(net.coupling, before)

    def test_aligned_phases_quarter_offset(self):
        net = two_node_net([0.7, 0.7], [[0.0, 0.5], [0.5, 0.0]], beta=np.pi / 2)
        coupling_step(net)
        assert net.coupling[0, 1] == pytest.approx(0.4)
        assert net.coupling[1, 0] == pytest.approx(0.4)

    def test_clamped_at_lower_limit(self):
        net = two_node_net([0.0, 0.0], [[0.0, -0.95], [-0.95, 0.0]], beta=np.pi / 2)
        coupling_step(net)
        assert net.coupling[0, 1] == -1.0
        assert net.coupling[1, 0] == -1.0

    def test_zero_rate_is_identity(self):
        net = two_node_net([0.2, 2.2], [[0.0, 0.3], [-0.7, 0.0]], beta=0.4, eps=0.0)
        before = net.coupling.copy()
        coupling_step(net)
        assert np.array_equal(net.coupling, before)

    def test_masked_entries_stay_zero_and_phases_untouched(self):
        net = init_network(30, 0.1, seed=2, frequency_scale=0.1)
        net.phases = np.random.default_rng(0).uniform(0, TWO_PI, 30)
        phases_before = net.phases.copy()
        for _ in range(20):
            coupling_step(net)
        assert np.all(net.coupling[~net.mask] == 0.0)
        assert np.all(np.abs(net.coupling) <= 1.0)
        assert np.array_equal(net.phases, phases_before)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(4)
        n = 12
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        K = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
        theta = rng.uniform(0, TWO_PI, n)
        net = OscillatorNetwork(theta.copy(), np.zeros(n), K.copy(), mask, 1.0, 0.9, 0.1, 0.5)
        coupling_step(net)
        expected = K.copy()
        for i in range(n):
            for j in range(n):
                if mask[i, j]:
                    expected[i, j] = np.clip(
                        K[i, j] - 0.1 * 0.5 * np.sin(theta[j] - theta[i] + 0.9),
                        -1.0,
                        1.0,
                    )
        assert np.allclose(net.coupling, expected, atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([2.0, -1.0])) == pytest.approx(2.0, abs=1e-9)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_rotation_has_unit_radius(self):
        K = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert spectral_radius(K) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        K = rng.standard_normal((n, n))
        oracle = float(np.max(np.abs(np.linalg.eigvals(K))))
        assert spectral_radius(K) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("angle", [0.2, 0.7, 1.3, 2.9])
    def test_scaled_rotations_complex_pair(self, angle):
        c, s = np.cos(angle), np.sin(angle)
        K = 1.7 * np.array([[c, -s], [s, c]])
        assert spectral_radius(K) == pytest.approx(1.7, abs=1e-8)

    def test_block_rotations_equal_magnitude(self):
        # two complex pairs of identical magnitude: the dense last resort
        blocks = []
        for angle in (0.4, 1.1):
            c, s = np.cos(angle), np.sin(angle)
            blocks.append(np.array([[c, -s], [s, c]]))
        K = np.zeros((4, 4))
        K[:2, :2] = blocks[0]
        K[2:, 2:] = blocks[1]
        assert spectral_radius(K) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("scale", [0.5, 2.0, -3.0])
    def test_scaling_homogeneity(self, scale):
        rng = np.random.default_rng(77)
        K = rng.standard_normal((10, 10))
        assert spectral_radius(scale * K) == pytest.approx(
            abs(scale) * spectral_radius(K), rel=1e-8
        )

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(np.array([[0.0, -np.inf], [0.0, 0.0]]))

    def test_empty_and_zero_matrices_have_zero_radius(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0
        assert spectral_radius(np.zeros((3, 3))) == 0.0


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def block_rotations():
    K = np.zeros((4, 4))
    K[:2, :2] = rotation(0.4)
    K[2:, 2:] = rotation(1.1)
    return K


def developed_coupling(seed):
    """Coupling of the incoherent cell (8, 2) after 30 development steps:
    a dominant complex pair with the next eigenvalues at 0.94-0.98 of it."""
    cfg = ReservoirConfig(lam=8.0, spectral_target=2.0, seed=seed)
    net = cfg.build_network()
    inputs = np.random.default_rng(seed).uniform(0.0, 0.5, 30)
    drive(net, inputs, cfg.spectral_target)
    return net.coupling


@pytest.fixture
def stages(monkeypatch):
    """Counts entries into the squaring stage and the dense last resort,
    ``numpy.linalg.eigvals``; tests that count take their oracle from
    scipy's build instead."""
    taken = {"squaring": 0, "dense": 0}
    squaring, dense = netmod._norm_limit_radius, np.linalg.eigvals

    def counted_squaring(*args):
        taken["squaring"] += 1
        return squaring(*args)

    def counted_dense(*args, **kwargs):
        taken["dense"] += 1
        return dense(*args, **kwargs)

    monkeypatch.setattr(netmod, "_norm_limit_radius", counted_squaring)
    monkeypatch.setattr(np.linalg, "eigvals", counted_dense)
    return taken


# Leading eigenvalues within a few percent in modulus, where power steps
# crawl.
STALLS = {
    "developed-0": lambda: developed_coupling(0),
    "developed-1": lambda: developed_coupling(1),
    "developed-2": lambda: developed_coupling(2),
    "close-gap": lambda: np.diag([1.0, 0.999, 0.998, 0.997, 0.5]),
}


def slow_settling():
    """Symmetric, with |lambda_2 / lambda_1| = 0.6 and
    |lambda_3 / lambda_1| = 0.5."""
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    return Q @ np.diag([2.0, 1.2, 1.0, 0.3, -0.2, 0.1]) @ Q.T


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRadiusStages:
    @pytest.mark.parametrize(
        "K, radius, squarings",
        [
            (np.diag([2.0, -1.0]), 2.0, 1),
            (np.array([[2.0, 1.0], [0.0, 2.0]]), 2.0, 1),  # 2x2 Jordan block
            (1.7 * rotation(0.7), 1.7, 1),
            (np.array([[-3.0]]), 3.0, 0),
            (np.zeros((3, 3)), 0.0, 0),
        ],
        ids=["diag(2,-1)", "jordan-2", "scaled-rotation", "1x1", "zero"],
    )
    def test_small_cases_settle_exactly(self, stages, K, radius, squarings):
        # A 1x1 or all-zero matrix needs no stage.
        assert spectral_radius(K) == pytest.approx(radius, abs=1e-12)
        assert stages == {"squaring": squarings, "dense": 0}

    @pytest.mark.parametrize(
        "K, radius",
        [
            (np.eye(5) + np.eye(5, k=1), 1.0),  # 5x5 Jordan block
            (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0),
            (np.triu(np.ones((3, 3)), 1), 0.0),
            (np.diag([1.0, 0.999, 0.998, 0.997, 0.5]), 1.0),
        ],
        ids=["jordan-5", "nilpotent-2", "nilpotent-3", "close-gap"],
    )
    def test_stall_is_handed_to_squaring(self, stages, K, radius):
        assert spectral_radius(K) == pytest.approx(radius, abs=1e-9)
        assert stages == {"squaring": 1, "dense": 0}

    @pytest.mark.parametrize("seed", range(3))
    def test_developed_incoherent_coupling_uses_squaring(self, stages, seed):
        K = developed_coupling(seed)
        stages.update(squaring=0, dense=0)
        oracle = float(np.max(np.abs(scipy.linalg.eigvals(K))))
        assert spectral_radius(K) == pytest.approx(oracle, rel=1e-12)
        assert stages == {"squaring": 1, "dense": 0}

    @pytest.mark.parametrize(
        "K",
        [block_rotations(), np.roll(np.eye(4), 1, axis=0)],
        ids=["block-rotations", "4-cycle"],
    )
    def test_equal_moduli_reach_the_dense_solver(self, stages, K):
        # The 4-cycle's squarings reach a fixed point P = I, so successive
        # estimates agree there; only the inexact fit keeps them from
        # being accepted.
        assert spectral_radius(K) == pytest.approx(1.0, abs=1e-12)
        assert stages == {"squaring": 1, "dense": 1}

    @pytest.mark.parametrize(
        "make_K", [*STALLS.values(), slow_settling], ids=[*STALLS, "slow-settling"]
    )
    def test_matches_numpy_where_power_steps_crawl(self, make_K):
        K = make_K()
        oracle = float(np.max(np.abs(np.linalg.eigvals(K))))
        assert spectral_radius(K) == pytest.approx(oracle, rel=1e-12)

    def test_each_rescale_depends_only_on_its_matrix(self, monkeypatch):
        # Default cell (4, 0.3), seed 3, over a pipeline's 99 development
        # steps: every rescale applies target / spectral_radius(K) of the
        # matrix it sees, whatever came before.
        cfg = ReservoirConfig(seed=3)
        inputs = make_task("narma10", cfg.len_adev - 1, seed=3).inputs
        rescale, seen = reservoir.rescale_to_radius, []

        def capture(net, target):
            before = net.coupling.copy()
            rescale(net, target)
            seen.append((before, net.coupling))

        monkeypatch.setattr(reservoir, "rescale_to_radius", capture)
        drive(cfg.build_network(), inputs, cfg.spectral_target)
        assert len(seen) == 99
        for before, after in seen:
            factor = cfg.spectral_target / spectral_radius(before)
            np.testing.assert_array_equal(after, before * factor)


class TestRescale:
    def test_diagonal_example(self):
        net = two_node_net([0.0, 0.0], np.diag([2.0, 1.0]))
        rescale_to_radius(net, 1.0)
        assert np.allclose(net.coupling, np.diag([1.0, 0.5]), atol=1e-9)

    def test_development_rescales_through_rescale_to_radius(self):
        # One rescale body: the development loop's binding and the name the
        # benchmark tracer looks up are the same function.
        assert reservoir.rescale_to_radius is rescale_to_radius
        assert netmod._rescale_warm is rescale_to_radius

    def test_zero_matrix_unchanged(self):
        net = two_node_net([0.0, 0.0], np.zeros((2, 2)))
        rescale_to_radius(net, 0.9)
        assert np.all(net.coupling == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net = init_network(10, 0.6, seed=seed)
        net.coupling = np.where(net.mask, rng.standard_normal((10, 10)), 0.0)
        rescale_to_radius(net, 0.9)
        dense = float(np.max(np.abs(np.linalg.eigvals(net.coupling))))
        assert dense == pytest.approx(0.9, abs=1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 40),
        density=st.floats(0.05, 0.6),
        log_scale=st.floats(-3.0, 3.0),
        target=st.floats(0.1, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rescale_hits_target_on_masked_matrices(
        self, n, density, log_scale, target, seed
    ):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, False)
        K = np.where(mask, 10.0**log_scale * rng.standard_normal((n, n)), 0.0)
        # a (near) nilpotent matrix is left unscaled by design
        assume(np.max(np.abs(np.linalg.eigvals(K))) > 1e-6 * 10.0**log_scale)
        net = OscillatorNetwork(np.zeros(n), np.zeros(n), K, mask, 1.0, 0.0, 0.1)
        rescale_to_radius(net, target)
        dense = float(np.max(np.abs(np.linalg.eigvals(net.coupling))))
        assert dense == pytest.approx(target, rel=1e-8)

    def test_invalid_target(self):
        net = two_node_net([0.0, 0.0], np.diag([2.0, 1.0]))
        with pytest.raises(ValueError):
            rescale_to_radius(net, 0.0)

    @pytest.mark.parametrize("target", [0.0, -0.5])
    def test_develop_rejects_nonpositive_target(self, target):
        net = init_network(10, 0.3, seed=4, spectral_target=0.5)
        before = net.copy()
        with pytest.raises(ValueError, match="target spectral radius must be positive"):
            drive(net, np.full(5, 0.2), target)
        np.testing.assert_array_equal(net.phases, before.phases)
        np.testing.assert_array_equal(net.coupling, before.coupling)

    def test_may_exceed_unit_weights(self):
        # rescaling is not clamped; only the adaptation step is
        net = two_node_net([0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]])
        rescale_to_radius(net, 2.0)
        assert net.coupling[0, 1] == pytest.approx(2.0)


class TestOrderParameter:
    def test_identical_phases(self):
        r, _ = order_parameter(np.full(7, 1.234))
        assert r == pytest.approx(1.0)

    def test_symmetric_cancellation(self):
        r, _ = order_parameter(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]))
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_pair(self):
        r, psi = order_parameter(np.array([0.0, np.pi / 2]))
        assert r == pytest.approx(np.sqrt(2) / 2)
        assert psi == pytest.approx(np.pi / 4)

    @pytest.mark.parametrize("shift", [0.5, 2.0, -1.2])
    def test_global_shift_invariance(self, shift):
        rng = np.random.default_rng(5)
        phases = rng.uniform(0, TWO_PI, 50)
        r0, _ = order_parameter(phases)
        r1, _ = order_parameter(phases + shift)
        assert r1 == pytest.approx(r0, abs=1e-12)

    def test_empty_faults(self):
        with pytest.raises(ValueError):
            order_parameter(np.array([]))

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r, _ = order_parameter(rng.uniform(0, TWO_PI, 11))
            assert 0.0 <= r <= 1.0


class TestStepInvariants:
    def test_invariants_hold_under_mixed_stepping(self):
        net = init_network(40, 0.15, seed=9, global_coupling=2.0, frequency_scale=0.1)
        rng = np.random.default_rng(1)
        for _ in range(100):
            phase_step(net, rng.uniform(0, 0.5))
            coupling_step(net)
            assert np.all(net.phases >= 0.0) and np.all(net.phases < TWO_PI)
            assert np.all(np.abs(net.coupling) <= 1.0)
            assert np.all(net.coupling[~net.mask] == 0.0)
