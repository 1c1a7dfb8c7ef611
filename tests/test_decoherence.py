import numpy as np
import pytest

from blindspots import (
    DissipativeUnsupported,
    GaussianState,
    LindbladModel,
    NegativeTime,
    NeverLifted,
    NeverPositive,
    NoMinimum,
    NumericalError,
    Superposition,
    ValidationError,
    chord_exact,
    correlation_evolved_points,
    correlation_pure,
    decoherence_matrix,
    dissipation_coeff,
    evolved_chord,
    evolved_correlation,
    husimi_time,
    lifting_time,
    normalize,
    positivity_time,
    propagator_matrix,
    scan_line,
    wigner_evolved_values,
    wigner_exact,
)
from blindspots import decoherence
from blindspots.chord import wavefunction
from blindspots.decoherence import evolved_chord_gradient, smoothing_covariance
from blindspots.fields import grid_axes
from blindspots.geometry import J
from blindspots.spots import DiffractionModel, hexagonal_lattice, newton_refine
from conftest import COMPACT_CENTERS, HBAR, corner_triplet_state, triplet


def line_spot(state):
    """Newton-refined blind spot of a (0,0),(0,d),(d,0) triplet on xi_p = -xi_q/2."""
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(state))
    for node in lattice.nodes:
        if abs(node.xi[0] + node.xi[1] / 2) < 1e-12 and node.xi[1] > 1e-6:
            return newton_refine(state, node.xi).xi
    raise AssertionError("no lattice node on the scan line")


def test_model_requires_symmetric_hamiltonian():
    with pytest.raises(ValidationError):
        LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (np.array([1.0, 0.0]),))


def test_dissipation_coefficient():
    assert dissipation_coeff(LindbladModel.position_momentum()) == 0.0
    single_real = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]),))
    assert dissipation_coeff(single_real) == 0.0
    mixed = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]),))
    assert dissipation_coeff(mixed) == -1.0


def test_propagator_zero_hamiltonian():
    assert np.allclose(propagator_matrix(np.zeros((2, 2)), 0.8), np.eye(2))


def test_propagator_harmonic_rotation():
    t = 0.7
    r = propagator_matrix(np.eye(2) / 2, t)
    want = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert np.allclose(r, want, atol=1e-14)


def test_propagator_group_property():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.normal(size=(2, 2))
        h = 0.5 * (a + a.T)
        t = float(rng.uniform(0.1, 1.5))
        r = propagator_matrix(h, t) @ propagator_matrix(h, -t)
        assert np.max(np.abs(r - np.eye(2))) < 1e-12
        rt = propagator_matrix(h, t)
        assert rt[0, 0] * rt[1, 1] - rt[0, 1] * rt[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_decoherence_matrix_free_case(pq_model):
    g = decoherence_matrix(pq_model, 0.4, hbar=HBAR)
    assert np.allclose(g.m, 0.2 * np.eye(2), atol=1e-13)


def test_decoherence_matrix_zero_time(pq_model):
    assert np.all(decoherence_matrix(pq_model, 0.0).m == 0.0)


def test_decoherence_matrix_negative_time(pq_model):
    with pytest.raises(NegativeTime):
        decoherence_matrix(pq_model, -0.1)


def test_decoherence_matrix_rotation_invariant_isotropic():
    model = LindbladModel.position_momentum(np.eye(2) / 2)
    g = decoherence_matrix(model, 0.4, hbar=HBAR)
    assert np.allclose(g.m, 0.2 * np.eye(2), atol=1e-13)


def test_decoherence_matrix_monotone_psd():
    model = LindbladModel.position_momentum(np.array([[0.3, 0.1], [0.1, -0.2]]))
    prev = np.zeros((2, 2))
    for t in (0.1, 0.25, 0.5, 1.0):
        m = decoherence_matrix(model, t).m
        diff_eigs = np.linalg.eigvalsh(m - prev)
        assert diff_eigs.min() > -1e-12
        prev = m


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_decoherence_matrix_rejects_nonfinite_time(t):
    with pytest.raises(ValidationError):
        decoherence_matrix(FAST_ELLIPTIC, t)


def test_decoherence_matrix_rejects_dissipative_model():
    model = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]),))
    with pytest.raises(DissipativeUnsupported):
        decoherence_matrix(model, 0.1)


# A = 2 J H = diag(-1, 1): q contracts under R_{-s}, p grows
HYPERBOLIC_H = np.array([[0.0, 0.5], [0.5, 0.0]])
STABLE_HYPERBOLIC = LindbladModel(HYPERBOLIC_H, (np.array([0.0, 1.0]),))
MIXED_HYPERBOLIC = LindbladModel(HYPERBOLIC_H, (np.array([1.0, 1.0]),))
FAST_ELLIPTIC = LindbladModel(np.diag([1.0, 2.0]), (np.array([0.0, 1.0]),))
FREE_PARTICLE = LindbladModel(np.diag([0.5, 0.0]), (np.array([0.0, 1.0]),))
NEAR_FREE = LindbladModel(np.array([[0.5, 0.0], [0.0, -1e-7]]), (np.array([0.3, 1.0]),))


def quadrature_m(model, t, panels=64):
    """(1/2) int_0^t R_{-s}^T C R_{-s} ds by composite 10-point Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, t, panels + 1)
    c = model.coupling_matrix()
    total = np.zeros((2, 2))
    for a, b in zip(edges[:-1], edges[1:]):
        for xk, wk in zip(x, w):
            r = propagator_matrix(model.hamiltonian, -(a + 0.5 * (b - a) * (xk + 1.0)))
            total += 0.5 * (b - a) * wk * (r.T @ c @ r)
    return 0.5 * total


def test_decoherence_matrix_matches_quadrature():
    rng = np.random.default_rng(12)
    for _ in range(6):
        a = rng.normal(size=(2, 2))
        l = rng.normal(size=2) + 1j * rng.normal(size=2)
        model = LindbladModel(0.5 * (a + a.T), (l.real + 0j, l.imag + 0j))
        for t in (0.05, 0.4, 1.5):
            want = quadrature_m(model, t)
            got = decoherence_matrix(model, t).m
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("model", [FAST_ELLIPTIC, MIXED_HYPERBOLIC, NEAR_FREE])
def test_decoherence_matrix_branch_seams(model):
    # the series gives way to cos/sin or the projectors at 4 |det A| t^2 = 1
    seam = 0.5 / np.sqrt(abs(np.linalg.det(2.0 * (J @ model.hamiltonian))))
    for t in (seam * (1 - 1e-9), seam * (1 + 1e-9)):
        want = quadrature_m(model, t)
        got = decoherence_matrix(model, t).m
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [3.5, 40.0])
def test_decoherence_matrix_hyperbolic_stable_coupling(t):
    want = np.diag([0.0, 0.25 * (1.0 - np.exp(-2.0 * t))])
    assert np.max(np.abs(decoherence_matrix(STABLE_HYPERBOLIC, t).m - want)) < 1e-12


def test_husimi_time_hyperbolic_stable_coupling():
    # det M_t = 0 at every t; the growing piece has a zero coefficient
    assert husimi_time(STABLE_HYPERBOLIC) == np.inf


@pytest.mark.parametrize("strength, t", [(1.0, 1000.0), (10.0, 354.6)])
def test_decoherence_matrix_overflow_is_typed(strength, t):
    # e^{2t} overflows at t = 1000; at t = 354.6 it is finite but M_t is not
    model = LindbladModel(HYPERBOLIC_H, (np.array([strength, strength]),))
    with pytest.raises(NumericalError):
        decoherence_matrix(model, t)


@pytest.mark.parametrize("model", [FAST_ELLIPTIC, MIXED_HYPERBOLIC, FREE_PARTICLE, NEAR_FREE])
@pytest.mark.parametrize("t", [1.7, 5.0, 50.0])
def test_decoherence_matrix_semigroup(model, t):
    # M_{t+s} = M_t + R_{-t}^T M_s R_{-t}
    s = 0.9
    r = propagator_matrix(model.hamiltonian, -t)
    m_ts = decoherence_matrix(model, t + s).m
    m_sum = decoherence_matrix(model, t).m + r.T @ decoherence_matrix(model, s).m @ r
    assert np.max(np.abs(m_ts - m_sum)) < 1e-12 * max(1.0, np.max(np.abs(m_ts)))


def test_husimi_time_fast_elliptic():
    th = husimi_time(FAST_ELLIPTIC)
    assert np.isfinite(th)
    assert 16.0 * np.linalg.det(decoherence_matrix(FAST_ELLIPTIC, th).m) == pytest.approx(1.0, abs=1e-9)


def test_evolved_chord_zero_time(corner_triplet, pq_model):
    xi = (0.1, -0.07)
    assert evolved_chord(corner_triplet, pq_model, xi, 0.0) == pytest.approx(
        chord_exact(corner_triplet, xi), abs=1e-14)


def test_evolved_chord_free_closed_form(corner_triplet, pq_model):
    xi = np.array([0.1, -0.07])
    t = 0.02
    want = chord_exact(corner_triplet, xi) * np.exp(-t * (xi @ xi) / (2 * HBAR))
    assert evolved_chord(corner_triplet, pq_model, xi, t) == pytest.approx(want, abs=1e-14)


def test_evolved_chord_trace_preservation(corner_triplet, pq_model):
    for t in (0.05, 0.3, 1.0):
        assert evolved_chord(corner_triplet, pq_model, (0, 0), t) == pytest.approx(1.0, abs=1e-12)


def test_evolved_chord_modulus_nonincreasing(corner_triplet, pq_model):
    xi = (0.21, 0.13)
    mags = [abs(evolved_chord(corner_triplet, pq_model, xi, t)) for t in (0.0, 0.01, 0.05, 0.2)]
    assert all(b < a + 1e-15 for a, b in zip(mags, mags[1:]))


def test_evolved_chord_hermiticity(corner_triplet, pq_model):
    rng = np.random.default_rng(9)
    for _ in range(5):
        xi = rng.normal(scale=0.5, size=2)
        a = evolved_chord(corner_triplet, pq_model, xi, 0.04)
        b = evolved_chord(corner_triplet, pq_model, -xi, 0.04)
        assert abs(b - np.conj(a)) < 1e-13


def test_evolved_chord_rejects_dissipative_model(corner_triplet):
    model = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]),))
    with pytest.raises(DissipativeUnsupported):
        evolved_chord(corner_triplet, model, (0.1, 0.1), 0.1)


def test_purity_decays(corner_triplet, pq_model):
    origin = np.zeros((1, 2))
    purities = [correlation_evolved_points(corner_triplet, pq_model, origin, t)[0]
                for t in (0.0, 0.01, 0.05, 0.2)]
    assert purities[0] == pytest.approx(1.0, abs=1e-9)
    assert all(b < a for a, b in zip(purities, purities[1:]))


def test_evolved_correlation_zero_time_matches_pure(compact_triplet, pq_model):
    window, shape = ((-4.8, 4.8), (-4.8, 4.8)), (385, 385)
    grid = evolved_correlation(compact_triplet, pq_model, window, shape, 0.0)
    ap, aq = grid_axes(window, shape)
    rng = np.random.default_rng(21)
    for _ in range(12):
        i, j = rng.integers(100, 285, 2)
        assert abs(grid.values[i, j] - correlation_pure(compact_triplet, (ap[i], aq[j]))) < 1e-6


def test_evolved_correlation_single_state_gaussian(pq_model):
    # C_0 = exp(-xi^2/2h) convolved with an isotropic normal of variance 2 h t
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    t = 0.08
    window, shape = ((-2.5, 2.5), (-2.5, 2.5)), (301, 301)
    grid = evolved_correlation(st, pq_model, window, shape, t)
    ap, aq = grid_axes(window, shape)
    expect = (np.exp(-(ap[:, None] ** 2 + aq[None, :] ** 2) / (2 * HBAR * (1 + 2 * t)))
              / (1 + 2 * t))
    assert np.max(np.abs(grid.values - expect)) < 1e-9


def test_closed_form_matches_grid_route(corner_triplet, pq_model):
    t = 0.01
    window, shape = ((-9.5, 9.5), (-9.5, 9.5)), (901, 901)
    grid = evolved_correlation(corner_triplet, pq_model, window, shape, t)
    ap, aq = grid_axes(window, shape)
    idx = [(450, 450), (455, 460), (430, 470), (480, 420)]
    pts = np.array([[ap[i], aq[j]] for i, j in idx])
    direct = correlation_evolved_points(corner_triplet, pq_model, pts, t)
    for (i, j), v in zip(idx, direct):
        assert abs(grid.values[i, j] - v) < 1e-9


def test_closed_form_zero_time_is_pure_correlation(corner_triplet, pq_model):
    rng = np.random.default_rng(31)
    pts = rng.normal(scale=0.4, size=(8, 2))
    vals = correlation_evolved_points(corner_triplet, pq_model, pts, 0.0)
    for p, v in zip(pts, vals):
        assert abs(v - correlation_pure(corner_triplet, p)) < 1e-12


def test_closed_form_matches_grid_route_rotating(corner_triplet):
    model = LindbladModel.position_momentum(np.eye(2) / 2)
    t = 0.03
    window, shape = ((-9.5, 9.5), (-9.5, 9.5)), (901, 901)
    grid = evolved_correlation(corner_triplet, model, window, shape, t)
    ap, aq = grid_axes(window, shape)
    idx = [(450, 450), (460, 440), (430, 470), (480, 425)]
    pts = np.array([[ap[i], aq[j]] for i, j in idx])
    direct = correlation_evolved_points(corner_triplet, model, pts, t)
    for (i, j), v in zip(idx, direct):
        assert abs(grid.values[i, j] - v) < 1e-9


def test_wigner_evolved_matches_grid_transform_rotating(corner_triplet):
    from blindspots import self_dual_grid, wigner_from_chord_grid
    from blindspots.decoherence import evolved_chord_grid
    model = LindbladModel.position_momentum(np.eye(2) / 2)
    t = 0.03
    window, shape = self_dual_grid(HBAR, 9.0)
    wg = wigner_from_chord_grid(evolved_chord_grid(corner_triplet, model, window, shape, t), HBAR)
    ap, aq = grid_axes(window, shape)
    n0 = shape[0] // 2
    for i, j in ((n0 + 3, n0 + 5), (n0 + 40, n0 + 90), (n0 - 25, n0 + 60)):
        v = complex(wigner_evolved_values(corner_triplet, model,
                                          np.array(ap[i]), np.array(aq[j]), t))
        assert abs(wg.values[i, j] - v.real) < 1e-10


def test_smoothing_covariance_free_case(pq_model):
    g = decoherence_matrix(pq_model, 0.3, hbar=HBAR)
    assert np.allclose(smoothing_covariance(g), 2 * HBAR * 0.3 * np.eye(2), atol=1e-13)


def test_wigner_evolved_zero_time_matches_exact(corner_triplet, pq_model):
    for x in ((0.2, 0.3), (2.0, 2.4), (0.0, 5.0)):
        v = complex(wigner_evolved_values(corner_triplet, pq_model, np.array(x[0]), np.array(x[1]), 0.0))
        assert abs(v - wigner_exact(corner_triplet, x)) < 1e-12


def test_wigner_evolved_matches_grid_transform(corner_triplet, pq_model):
    from blindspots import self_dual_grid, wigner_from_chord_grid
    from blindspots.decoherence import evolved_chord_grid
    t = 0.02
    window, shape = self_dual_grid(HBAR, 9.0)
    wg = wigner_from_chord_grid(evolved_chord_grid(corner_triplet, pq_model, window, shape, t), HBAR)
    ap, aq = grid_axes(window, shape)
    n0 = shape[0] // 2
    for i, j in ((n0 + 3, n0 + 5), (n0 + 40, n0 + 90), (n0 - 25, n0 + 60)):
        v = complex(wigner_evolved_values(corner_triplet, pq_model, np.array(ap[i]), np.array(aq[j]), t))
        assert abs(wg.values[i, j] - v.real) < 1e-10


def test_master_equation_residual(corner_triplet, pq_model):
    # insert chi_t into the chord master equation; finite-difference time
    # derivative against analytic spatial terms
    models = (pq_model, LindbladModel.position_momentum(np.eye(2) / 2))
    for model in models:
        errs = []
        for (xi, t) in (((0.1, 0.2), 0.05), ((0.4, -0.3), 0.15), ((-0.2, 0.6), 0.3)):
            xi = np.asarray(xi)
            dt = 3e-4
            vals = [evolved_chord(corner_triplet, model, xi, t + k * dt) for k in (-2, -1, 1, 2)]
            dchi = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * dt)
            grad = evolved_chord_gradient(corner_triplet, model, xi, t)
            xdot = 2 * (J @ model.hamiltonian) @ xi
            poisson = -(xdot[0] * grad[0] + xdot[1] * grad[1])
            chi = evolved_chord(corner_triplet, model, xi, t)
            damp = sum((c.real @ xi) ** 2 + (c.imag @ xi) ** 2 for c in model.couplings)
            rhs = poisson - damp / (2 * HBAR) * chi
            errs.append(abs(dchi - rhs) / max(abs(rhs), 1e-30))
        assert max(errs) < 1e-6


def test_scan_line_zero_time_vanishes_at_spot(corner_triplet, pq_model):
    spot = line_spot(corner_triplet)
    direction = spot / np.hypot(*spot)
    series = scan_line(corner_triplet, pq_model, ((0, 0), direction),
                       (-0.2, 0.2), 801, [0.0])
    s_spot = float(spot @ direction)
    i = int(np.argmin(np.abs(series.samples - s_spot)))
    assert series.values[0, i] < 1e-3  # grid sample near the zero
    assert series.values.min() >= -1e-9
    assert series.values.max() <= 1 + 1e-9


def test_scan_line_rows_are_lifted_minima(corner_triplet, pq_model):
    spot = line_spot(corner_triplet)
    direction = spot / np.hypot(*spot)
    times = [0.0, 5e-4, 2e-3, 8e-3]
    series = scan_line(corner_triplet, pq_model, ((0, 0), direction), (-0.2, 0.2), 801, times)
    s_spot = float(spot @ direction)
    i = int(np.argmin(np.abs(series.samples - s_spot)))
    mins = series.values[:, i]
    assert all(b > a for a, b in zip(mins, mins[1:]))


def test_lifting_time_full_contrast_at_zero(corner_triplet, pq_model):
    spot = line_spot(corner_triplet)
    direction = spot / np.hypot(*spot)
    sr = 2.6 * np.hypot(*spot)
    times = [0.0, 2e-4, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2]
    series = scan_line(corner_triplet, pq_model, ((0, 0), direction), (-sr, sr), 1201, times)
    out = lifting_time(series, spot)
    assert out.delta_series[0][1] > 0
    deltas = [d for _, d in out.delta_series]
    assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert 0 < out.tau_l < times[-1]


def test_lifting_time_never_lifted_when_window_short(corner_triplet, pq_model):
    spot = line_spot(corner_triplet)
    direction = spot / np.hypot(*spot)
    sr = 2.6 * np.hypot(*spot)
    series = scan_line(corner_triplet, pq_model, ((0, 0), direction), (-sr, sr), 801,
                       [0.0, 1e-4, 2e-4])
    with pytest.raises(NeverLifted):
        lifting_time(series, spot)


def test_lifting_time_requires_minimum(corner_triplet, pq_model):
    spot = line_spot(corner_triplet)
    direction = spot / np.hypot(*spot)
    sr = 2.6 * np.hypot(*spot)
    series = scan_line(corner_triplet, pq_model, ((0, 0), direction), (-sr, sr), 801, [0.0, 1e-3])
    with pytest.raises(NoMinimum):
        lifting_time(series, spot * 0.5)  # between zero and first maximum


def test_positivity_time_gaussian_state(pq_model):
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0.3, -0.2)]))
    assert positivity_time(st, pq_model) == 0.0


def test_positivity_time_balanced_cat(pq_model):
    cat = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (0, 2.0)]))
    tp = positivity_time(cat, pq_model)
    assert tp > 0


POSITIVITY_STATES = {
    "balanced cat": normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (0, 2.0)])),
    "compact triplet": triplet(COMPACT_CENTERS),
}


@pytest.fixture(scope="module")
def positivity_times(pq_model):
    return {name: positivity_time(state, pq_model) for name, state in POSITIVITY_STATES.items()}


def fine_wigner_min(state, model, t):
    """min W_t on a grid twice as fine as positivity_time's lambda/8 grid."""
    centers = state.centers
    dmax = max(np.hypot(*(a - b)) for a in centers for b in centers)
    step = 2 * np.pi * HBAR / max(dmax, np.sqrt(HBAR)) / 16
    lo, hi = centers.min(axis=0) - 3.0, centers.max(axis=0) + 3.0
    ap = np.arange(lo[0], hi[0] + step, step)
    aq = np.arange(lo[1], hi[1] + step, step)
    return float(np.min(wigner_evolved_values(state, model, ap[:, None], aq[None, :], t).real))


@pytest.mark.parametrize("name", POSITIVITY_STATES)
def test_positivity_time_wigner_nonnegative_at_t_p(positivity_times, pq_model, name):
    tp = positivity_times[name]
    assert fine_wigner_min(POSITIVITY_STATES[name], pq_model, tp) >= 0


@pytest.mark.parametrize("name", POSITIVITY_STATES)
def test_positivity_time_wigner_negative_just_before(positivity_times, pq_model, name):
    tp = positivity_times[name]  # default rel_precision = 1e-3
    assert fine_wigner_min(POSITIVITY_STATES[name], pq_model, tp * (1 - 2 * 1e-3)) < 0


@pytest.mark.parametrize("name", POSITIVITY_STATES)
def test_positivity_time_within_husimi_bound(positivity_times, pq_model, name):
    # H = 0, so M_t = (t/2) C and det M_t reaches 1/16 at 1 / (2 sqrt(det C))
    bound = 1.0 / (2.0 * np.sqrt(np.linalg.det(pq_model.coupling_matrix())))
    assert 0 < positivity_times[name] <= bound


def test_husimi_time_closed_form():
    assert husimi_time(LindbladModel.position_momentum()) == pytest.approx(0.5, rel=1e-14)
    assert husimi_time(LindbladModel.position_momentum(strength=2.0)) == pytest.approx(0.125)
    assert husimi_time(LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]),))) == np.inf


def test_husimi_time_hamiltonian_mixing():
    # one coupling: det C = 0, but the rotation turns it into a full-rank M_t
    model = LindbladModel(np.eye(2) / 2, (np.array([1.0, 0.0]),))
    th = husimi_time(model)
    assert np.isfinite(th)
    assert np.linalg.det(decoherence_matrix(model, th).m) >= 1 / 16
    assert np.linalg.det(decoherence_matrix(model, th * (1 - 1e-5)).m) < 1 / 16


def test_positivity_time_single_coupling():
    # no Husimi bound: the fringes of a cat split along p are smoothed along q
    # only, which removes them; the fringes of a cat split along q survive
    model = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]),))
    along_p = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (2.0, 0)]))
    tp = positivity_time(along_p, model)
    assert 0 < tp < np.inf
    along_q = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (0, 2.0)]))
    with pytest.raises(NeverPositive):
        positivity_time(along_q, model)


def test_wigner_minimum_monotone(corner_triplet, pq_model):
    from blindspots.decoherence import _wigner_extrema
    window = ((-2.0, 7.0), (-2.0, 7.0))
    shape = (901, 901)
    mins = [_wigner_extrema(corner_triplet, pq_model, window, shape, t)[0]
            for t in (0.0, 0.02, 0.05, 0.1)]
    assert all(b > a for a, b in zip(mins, mins[1:]))


@pytest.fixture
def separable_calls(monkeypatch):
    """Records every rank-K product evaluation of W_t."""
    calls = []
    original = decoherence._separable_values

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decoherence, "_separable_values", spy)
    return calls


def wigner_axes(state, n=241):
    lo, hi = state.centers.min(axis=0) - 1.0, state.centers.max(axis=0) + 1.0
    return np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n - 14)


SEPARABLE_STATES = {"compact triplet": triplet(COMPACT_CENTERS),
                    "corner triplet d=5": corner_triplet_state(5.0)}


@pytest.mark.parametrize("t", [0.0, 0.05, 0.3, 0.499])
@pytest.mark.parametrize("name", SEPARABLE_STATES)
def test_wigner_separable_matches_dense(separable_calls, pq_model, name, t):
    state = SEPARABLE_STATES[name]
    ap, aq = wigner_axes(state)
    grid = wigner_evolved_values(state, pq_model, ap[:, None], aq[None, :], t)
    assert len(separable_calls) == 1
    pp, qq = np.meshgrid(ap, aq, indexing="ij")
    dense = wigner_evolved_values(state, pq_model, pp, qq, t)
    assert len(separable_calls) == 1
    assert np.max(np.abs(grid - dense)) <= 1e-12 * np.max(np.abs(dense))


def wigner_position_reference(state, p, q):
    """W(p, q) = (1/2 pi hbar) int dy Psi(q + y/2) Psi*(q - y/2) exp(-i p y / hbar)."""
    h = state.hbar
    y = np.linspace(-6.0, 6.0, 24001)
    f = (wavefunction(state, q + y / 2) * np.conj(wavefunction(state, q - y / 2))
         * np.exp(-1j * p * y / h))
    return float(np.sum(f).real * (y[1] - y[0]) / (2.0 * np.pi * h))


def test_wigner_squeezed_frames_take_dense_path(separable_calls, pq_model):
    frames = (np.array([[1.3, 0.0], [0.4, 1 / 1.3]]), np.eye(2),
              np.array([[0.8, -0.3], [0.0, 1 / 0.8]]))
    state = normalize(Superposition(HBAR, tuple(
        (1.0, GaussianState(c, f)) for c, f in zip(COMPACT_CENTERS, frames))))
    ap, aq = wigner_axes(state, 61)
    w = wigner_evolved_values(state, pq_model, ap[:, None], aq[None, :], 0.0)
    assert not separable_calls
    for i, j in ((30, 23), (12, 40), (45, 10), (7, 7)):
        assert abs(w[i, j] - wigner_position_reference(state, ap[i], aq[j])) < 1e-10
