import functools
import logging
import math
from collections import Counter

import numpy as np
import pytest

from blindspots import (
    DissipativeUnsupported,
    GaussianState,
    LindbladModel,
    NegativeTime,
    NeverLifted,
    NeverPositive,
    NoConvergence,
    NoMinimum,
    NotSymplectic,
    NumericalError,
    SingularJacobian,
    Superposition,
    ValidationError,
    chord_exact,
    correlation_evolved_points,
    correlation_pure,
    decoherence_matrix,
    evolved_chord,
    evolved_chord_grid,
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
from blindspots import chord, decoherence, spots
from blindspots.chord import (
    chord_values,
    fourier_terms,
    pair_arrays,
    point_exponents,
    wavefunction,
    wigner_values,
)
from blindspots.decoherence import evolved_chord_gradient, smoothing_covariance
from blindspots.fields import grid_axes
from blindspots.geometry import J
from blindspots.spots import DiffractionModel, hexagonal_lattice, newton_refine, newton_zero
from blindspots.states import apply_symplectic
from conftest import COMPACT_CENTERS, HBAR, corner_triplet_state, triplet


def line_spot(state):
    """Newton-refined blind spot of a (0,0),(0,d),(d,0) triplet on xi_p = -xi_q/2."""
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(state))
    for node in lattice.nodes:
        if abs(node.xi[0] + node.xi[1] / 2) < 1e-12 and node.xi[1] > 1e-6:
            return newton_refine(state, node.xi).xi
    raise AssertionError("no lattice node on the scan line")


@pytest.fixture
def model_data_builds(monkeypatch):
    """Counts the builds of each LindbladModel property derived from its data."""
    builds = Counter()
    for name in ("alpha", "coupling_matrix", "generator", "generator_det"):
        def build(model, derive=LindbladModel.__dict__[name].func, name=name):
            builds[name] += 1
            return derive(model)

        spy = functools.cached_property(build)
        spy.__set_name__(LindbladModel, name)
        monkeypatch.setattr(LindbladModel, name, spy)
    return builds


def test_model_data_built_once_per_model(model_data_builds, compact_triplet):
    models = [LindbladModel(np.diag([1.0, 0.25]), (np.array([0.0, 1.0]),)) for _ in range(2)]
    for model in models:
        scan_line(compact_triplet, model, ((0.0, 0.0), (1.0, 0.0)), (-0.3, 0.3), 61,
                  np.linspace(0.0, 0.5, 12))
        husimi_time(model)
    assert model_data_builds == {"alpha": 2, "coupling_matrix": 2, "generator": 2,
                                 "generator_det": 2}


def test_model_data_is_read_only():
    model = LindbladModel.position_momentum(np.eye(2))
    for cached in (model.coupling_matrix, model.generator):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert np.array_equal(model.coupling_matrix, np.eye(2))
    assert np.array_equal(model.generator, 2.0 * J)


def test_model_requires_symmetric_hamiltonian():
    with pytest.raises(ValidationError):
        LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (np.array([1.0, 0.0]),))


def test_dissipation_coefficient():
    assert LindbladModel.position_momentum().alpha == 0.0
    single_real = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]),))
    assert single_real.alpha == 0.0
    mixed = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]),))
    assert mixed.alpha == -1.0


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
    g = decoherence_matrix(pq_model, 0.4)
    assert np.allclose(g.m, 0.2 * np.eye(2), atol=1e-13)


def test_decoherence_matrix_zero_time(pq_model):
    assert np.all(decoherence_matrix(pq_model, 0.0).m == 0.0)


def test_decoherence_matrix_negative_time(pq_model):
    with pytest.raises(NegativeTime):
        decoherence_matrix(pq_model, -0.1)


def test_decoherence_matrix_rotation_invariant_isotropic():
    model = LindbladModel.position_momentum(np.eye(2) / 2)
    g = decoherence_matrix(model, 0.4)
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
    c = model.coupling_matrix
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


def test_husimi_time_hyperbolic_weak_coupling():
    # doubling from 1 / tr C = 1019 would overflow M_t; the bracket starts at
    # 1 / sqrt|det A| = 0.5 instead
    model = LindbladModel(np.array([[0.0, 1.0], [1.0, 0.0]]), (np.array([0.03, 0.009]),))
    th = husimi_time(model)
    assert th == pytest.approx(4.4551193458, rel=1e-10)
    assert 16.0 * np.linalg.det(decoherence_matrix(model, th).m) == pytest.approx(1.0, abs=1e-9)


def test_husimi_time_coupling_on_growing_eigendirection():
    # A = diag(-1, 1): a p coupling is an eigenvector of A^T on the growing
    # side, so M_t stays rank one (det M_t = 0) while it grows like e^{2t}
    model = LindbladModel(np.array([[0.0, 0.5], [0.5, 0.0]]), (np.array([1.0, 0.0]),))
    assert husimi_time(model) == np.inf
    m = decoherence_matrix(model, 50.0).m
    assert abs(np.linalg.det(m)) <= 1e-12 * np.max(np.abs(m)) ** 2


def test_husimi_time_fast_elliptic():
    th = husimi_time(FAST_ELLIPTIC)
    assert np.isfinite(th)
    assert 16.0 * np.linalg.det(decoherence_matrix(FAST_ELLIPTIC, th).m) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("strength, t_ref", [
    (1e-2, 18.109110677651127), (1e-4, 35.5150162443933),
    (1e-6, 52.92092346904118), (1e-8, 70.32683069368912)])
def test_husimi_time_weak_coupling_nearly_rank_one(strength, t_ref):
    # M_t is nearly rank one once kappa t is large, so det of it cancels; the
    # references bisect det N = N++ N-- - N+-^2 on M_t in the eigenbasis of 2 J H
    model = LindbladModel(np.array([[0.3, 0.2], [0.2, -0.1]]),
                          (strength * np.array([1.0, 0.3]),))
    assert husimi_time(model) == pytest.approx(t_ref, rel=1e-9)


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


def squeezed_triplet():
    """Compact triplet whose first and third frames couple p and q."""
    frames = (np.array([[1.3, 0.0], [0.4, 1 / 1.3]]), np.eye(2),
              np.array([[0.8, -0.3], [0.0, 1 / 0.8]]))
    return normalize(Superposition(HBAR, tuple(
        (1.0, GaussianState(c, f)) for c, f in zip(COMPACT_CENTERS, frames))))


SIX_TERM_STATE = normalize(Superposition.from_centers(
    HBAR, [1.0, 0.5j, 0.8, -0.6, 0.7 - 0.2j, 0.9],
    [(0.0, 0.0), (1.1, 0.4), (-0.5, 1.0), (0.7, -0.9), (-1.2, -0.3), (0.1, 1.6)]))

# (state, model, t, window, shape); the hyperbolic flow at t = 3.5 squeezes
# |chi_t|^2 by e^{3.5} along xi_p, so its grid is narrow and fine there
FOLDED_CASES = {
    "squeezed frames, H = diag(1, 1/4)": (
        squeezed_triplet(), LindbladModel(np.diag([1.0, 0.25]), (np.array([0.0, 1.0]),)),
        0.3, ((-3.5, 3.5), (-3.5, 3.5)), (351, 351)),
    "hyperbolic H at t = 3.5": (
        triplet(COMPACT_CENTERS), STABLE_HYPERBOLIC, 3.5, ((-0.25, 0.25), (-2.5, 2.5)), (501, 401)),
    "6-term state": (
        SIX_TERM_STATE, LindbladModel.position_momentum(), 0.02,
        ((-4.5, 4.5), (-4.5, 4.5)), (451, 451)),
}


@pytest.mark.parametrize("name", FOLDED_CASES)
def test_folded_correlation_matches_grid_route(name):
    state, model, t, window, shape = FOLDED_CASES[name]
    grid = evolved_correlation(state, model, window, shape, t)
    ap, aq = grid_axes(window, shape)
    rows, cols = np.arange(5, shape[0] - 5, 12), np.arange(5, shape[1] - 5, 12)
    pts = np.stack(np.meshgrid(ap[rows], aq[cols], indexing="ij"), axis=-1).reshape(-1, 2)
    direct = correlation_evolved_points(state, model, pts, t)
    assert np.max(np.abs(grid.values[np.ix_(rows, cols)].ravel() - direct)) < 1e-9


def test_folded_correlation_single_point_shape(corner_triplet, pq_model):
    point = np.array([0.3, -0.2])
    vals = correlation_evolved_points(corner_triplet, pq_model, point, 0.05)
    assert vals.shape == (1,)
    assert vals[0] == correlation_evolved_points(corner_triplet, pq_model, point[None, :], 0.05)[0]


def per_term_correlation(state, model, pts, t):
    """C(x, t) from fourier_terms + gaussian_sum over all K^2 pair terms of
    |chi_t|^2, and 2 pi hbar sum |term| at each point."""
    mu, c0, b, c = decoherence._damped_terms(state, model, t)
    k, l = np.divmod(np.arange(len(mu) ** 2), len(mu))
    pairs = (mu[k] * np.conj(mu[l]), c0[k] + np.conj(c0[l]), b[k] + np.conj(b[l]),
             c[k] + np.conj(c[l]))
    terms = chord.fourier_terms(pairs, state.hbar)
    norm = 2.0 * np.pi * state.hbar
    value = norm * chord.gaussian_sum(terms, pts[:, 0], pts[:, 1]).real
    exponents = (terms[1][None, :] + pts @ terms[2].T
                 + np.einsum("ni,kij,nj->nk", pts, terms[3], pts))
    return value, norm * np.abs(terms[0] * np.exp(exponents)).sum(axis=1)


@pytest.fixture
def folded_calls(monkeypatch):
    """Records what every folded evaluation returned: (values or None, guard)."""
    calls = []
    original = decoherence._folded_sum

    def spy(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(decoherence, "_folded_sum", spy)
    return calls


def assert_matches_per_term(state, model, t, pts):
    direct = correlation_evolved_points(state, model, pts, t)
    value, scale = per_term_correlation(state, model, pts, t)
    assert np.all(np.abs(direct - value) <= 1e-13 * scale)


FOLD_STATES = {"identity-frame triplet": triplet(COMPACT_CENTERS), "6-term state": SIX_TERM_STATE}
FOLD_MODELS = {"H = 0": LindbladModel.position_momentum(),
               "H = diag(1, 1/4)": LindbladModel.position_momentum(np.diag([1.0, 0.25])),
               "hyperbolic H": STABLE_HYPERBOLIC}


@pytest.mark.parametrize("t", [0.0, 0.05, 0.4])
@pytest.mark.parametrize("model_name", FOLD_MODELS)
@pytest.mark.parametrize("state_name", FOLD_STATES)
def test_folded_sum_matches_per_term_sum(folded_calls, state_name, model_name, t):
    s = np.linspace(-2.5, 2.5, 601)  # two blocks of points
    pts = np.stack([0.8 * s, 0.6 * s + 0.1], axis=1)
    assert_matches_per_term(FOLD_STATES[state_name], FOLD_MODELS[model_name], t, pts)
    (result,) = folded_calls
    assert result[0] is not None and result[1] <= decoherence._FOLD_EXPONENT_LIMIT


def test_squeezed_frames_take_per_term_path(folded_calls):
    s = np.linspace(-2.0, 2.0, 101)
    pts = np.stack([s, -0.5 * s], axis=1)
    assert_matches_per_term(squeezed_triplet(), FOLD_MODELS["H = diag(1, 1/4)"], 0.1, pts)
    assert not folded_calls


def test_small_hbar_far_centers_fall_back(caplog, folded_calls):
    state = triplet(COMPACT_CENTERS, hbar=1e-3)
    s = np.linspace(-0.05, 0.05, 41)
    pts = np.stack([s, 0.5 * s], axis=1)
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        assert_matches_per_term(state, LindbladModel.position_momentum(), 0.002, pts)
    ((values, guard),) = folded_calls
    assert values is None and guard > decoherence._FOLD_EXPONENT_LIMIT
    (record,) = [r for r in caplog.records
                 if r.getMessage().startswith("correlation_evolved_points:")]
    assert record.args == ("per-term", 9, 41, guard)


def test_correlation_debug_record_names_path(caplog):
    s = np.linspace(-1.0, 1.0, 31)
    pts = np.stack([s, s], axis=1)
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        correlation_evolved_points(SIX_TERM_STATE, FOLD_MODELS["H = 0"], pts, 0.1)
        correlation_evolved_points(squeezed_triplet(), FOLD_MODELS["H = 0"], pts, 0.1)
    folded, per_term = [r for r in caplog.records
                        if r.getMessage().startswith("correlation_evolved_points:")]
    path, k, n, guard = folded.args
    assert (path, k, n) == ("folded", 36, 31) and 0 < guard <= decoherence._FOLD_EXPONENT_LIMIT
    path, k, n, guard = per_term.args
    assert (path, k, n) == ("per-term", 9, 31) and np.isnan(guard)


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
    g = decoherence_matrix(pq_model, 0.3)
    assert np.allclose(smoothing_covariance(g.m, HBAR), 2 * HBAR * 0.3 * np.eye(2), atol=1e-13)


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
    tp = positivity_times[name]  # to 1e-3 relative
    assert fine_wigner_min(POSITIVITY_STATES[name], pq_model, tp * (1 - 2 * 1e-3)) < 0


@pytest.mark.parametrize("name", POSITIVITY_STATES)
def test_positivity_time_within_husimi_bound(positivity_times, pq_model, name):
    # H = 0, so M_t = (t/2) C and det M_t reaches 1/16 at 1 / (2 sqrt(det C))
    bound = 1.0 / (2.0 * np.sqrt(np.linalg.det(pq_model.coupling_matrix)))
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


CERTIFIED_STATES = {
    "balanced cat": POSITIVITY_STATES["balanced cat"],
    "compact triplet": triplet(COMPACT_CENTERS),
    "corner triplet d=3": corner_triplet_state(3.0),
    "unbalanced triplet": triplet(COMPACT_CENTERS, amps=(1.0, 0.5, 0.25j)),
    "squeezed triplet": squeezed_triplet(),
    "near-coherent triplet": triplet([(0.0, 0.0), (0.3, 0.0), (0.0, 0.3)]),
    "6 terms": SIX_TERM_STATE,
}
CERTIFIED_MODELS = {
    "pq": LindbladModel.position_momentum(),
    "H=diag(1,1/4), p and q": LindbladModel.position_momentum(np.diag([1.0, 0.25])),
    "H=diag(1,2), q": LindbladModel(np.diag([1.0, 2.0]), (np.array([0.0, 1.0]),)),
}


@pytest.fixture
def wigner_grid_calls(monkeypatch):
    """Records every grid evaluation of positivity_time's search."""
    calls = []
    original = decoherence._wigner_minimum

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decoherence, "_wigner_minimum", spy)
    return calls


def positivity_records(caplog):
    return [r for r in caplog.records if r.getMessage().startswith("positivity_time:")]


# -- the Husimi certificate, an oracle for t_p = t_H ---------------------------

# Certified only if W < -margin * sum_k |term_k| (1 + |E_k|): far above the
# round-off eps |E_k| of each term, far below the negativity that a step of
# 1e-3 back from t_H leaves at a Husimi zero (4e-6 of that sum or more on
# triplets, cats and a 6-term state, with and without H).  Both sides are
# taken with the largest Re E_k factored out, so neither underflows.
CERTIFICATE_MARGIN = 1e-9


def husimi_probe(m: np.ndarray) -> GaussianState:
    """The centred Gaussian state whose chord function is exp(-xi . M xi / hbar),
    for det 4M = 1 (rescaled to it against round-off): its frame F has
    F F^T = P = (4M)^{-1}, and F = (P + I) / sqrt(tr P + 2) is the symmetric
    square root of a unit-determinant P."""
    g = 4.0 * m / math.sqrt(np.linalg.det(4.0 * m))
    p = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    return GaussianState(np.zeros(2), (p + np.eye(2)) / math.sqrt(np.trace(p) + 2.0))


def pair_zero_seeds(terms):
    """Zeros of each two-term sum mu_i e^{E_i} + mu_j e^{E_j} with the quadratic
    parts of the exponents dropped: Delta c0 + Delta b . x = log(-mu_j / mu_i)
    + 2 pi i k, one real 2x2 system per pair and winding k = 0, -1, 1, k-major."""
    mu, c0, b, _ = terms
    i, j = np.triu_indices(len(mu), 1)
    db = b[i] - b[j]
    a = np.stack([db.real, db.imag], axis=1)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    regular = np.abs(det) > 1e-12 * np.max(np.abs(a), axis=(1, 2)) ** 2
    a = a[regular]
    rhs = (np.log(-mu[j] / mu[i]) - (c0[i] - c0[j]))[regular]
    seeds = []
    for k in (0, -1, 1):
        r = rhs + 2j * math.pi * k
        seeds.extend(np.linalg.solve(a, np.stack([r.real, r.imag], axis=1)[:, :, None])[:, :, 0])
    return seeds


def husimi_certificate(state, model, t_husimi):
    """(x*, W / sum_k |term_k|, largest Re E_k) with W_t(x*) < 0 at
    t = (1 - 1e-3) t_H, or None.

    chi_t = chi_Q exp(+xi . (M_{t_H} - M_t) xi / hbar), where M_{t_H} - M_t is
    positive semidefinite and chi_Q is the chord function of Q, the Husimi
    function of the unitarily moved state R_t psi for the probe Gaussian of
    chord matrix -M_{t_H} / hbar.  Q(x) is proportional to |f(x)|^2 with
    f(x) = <probe| T_{-x} |R_t psi>, a sum of N Gaussians.  At a zero x* of f,
    Q has its minimum 0, and the sharpening makes W_t(x*) negative.  Seeds are
    the two-term zeros of f, refined by newton_zero; the first whose W_t(x*)
    is negative by more than round-off is returned.
    """
    h = state.hbar
    t = (1.0 - decoherence._POSITIVITY_PRECISION) * t_husimi
    try:
        probe = husimi_probe(decoherence_matrix(model, t_husimi).m)
        moved = apply_symplectic(state, decoherence._propagator(model.generator, t))
    except NotSymplectic:
        return None
    mu, c0, b, c = amplitude = pair_arrays(((1.0, probe),), moved.terms, h)
    w_terms = fourier_terms(decoherence._damped_terms(state, model, t), h)
    for seed in pair_zero_seeds(amplitude):
        # the largest term is 1 at the seed, so that NEWTON_TOL is relative
        top = point_exponents(amplitude, seed)[0].real.max()
        try:
            x = newton_zero((mu, c0 - top, b, c), seed, 5.0 * math.sqrt(h)).xi
        except (NoConvergence, SingularJacobian):
            continue
        exponents, _ = point_exponents(w_terms, x)
        e_max = float(exponents.real.max())
        values = w_terms[0] * np.exp(exponents - e_max)
        w = float(values.sum().real)
        if w < -CERTIFICATE_MARGIN * float(np.abs(values) @ (1.0 + np.abs(exponents))):
            return x, w / float(np.abs(values).sum()), e_max
    return None


def assert_negative_near(state, model, x, t):
    """W_t < 0 somewhere on a fine grid of +-0.05 around x."""
    offsets = np.linspace(-0.05, 0.05, 101)
    w = wigner_evolved_values(state, model, x[0] + offsets[:, None], x[1] + offsets[None, :], t)
    assert w.real.min() < 0


@pytest.mark.parametrize("model_name", CERTIFIED_MODELS)
@pytest.mark.parametrize("state_name", CERTIFIED_STATES)
def test_positivity_time_certified_at_husimi_time(caplog, wigner_grid_calls, state_name,
                                                   model_name):
    state, model = CERTIFIED_STATES[state_name], CERTIFIED_MODELS[model_name]
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        tp = positivity_time(state, model)
    assert tp == husimi_time(model)
    assert not wigner_grid_calls
    (record,) = positivity_records(caplog)
    assert record.getMessage().startswith("positivity_time: theorem, t_H = ")
    assert "np.float64" not in record.getMessage()
    # W just before t_p is negative near the certified point, on a fine grid
    x, w, _ = husimi_certificate(state, model, tp)
    assert w < 0
    assert_negative_near(state, model, x, tp * (1 - 2e-3))


def test_husimi_probe_chord_matrix():
    model = CERTIFIED_MODELS["H=diag(1,2), q"]
    m = decoherence_matrix(model, husimi_time(model)).m
    probe = husimi_probe(m)
    c = pair_arrays(((1.0, probe),), ((1.0, probe),), HBAR)[3][0]
    assert np.max(np.abs(c + m / HBAR)) <= 1e-9 * np.max(np.abs(m / HBAR))


def hyperbolic_model(strength):
    return LindbladModel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                         (strength * np.array([1.0, 0.3]),))


def test_husimi_certificate_holds_beyond_frame_precision():
    # R_{t_H} of this hyperbolic flow has entries near 670, so det R misses 1
    # by 1e-11, within the round-off that the frame check allows for them
    model = hyperbolic_model(0.1)
    state = triplet(COMPACT_CENTERS)
    t_h = husimi_time(model)
    assert positivity_time(state, model) == t_h
    x, w, _ = husimi_certificate(state, model, t_h)
    assert w < 0
    assert_negative_near(state, model, x, t_h * (1 - 2e-3))
    # weaker couplings reach t_H later: entries near 7e3 and 7e4, det off by
    # 3e-9 and 4e-7
    for strength in (0.03, 0.01):
        model = hyperbolic_model(strength)
        assert positivity_time(state, model) == husimi_time(model)
        assert husimi_certificate(state, model, husimi_time(model))[1] < 0


@pytest.fixture
def no_wigner_grid(monkeypatch):
    """Fails the test if positivity_time evaluates a Wigner grid."""
    def refuse(*args):
        raise AssertionError("a Wigner grid was evaluated")

    monkeypatch.setattr(decoherence, "_wigner_minimum", refuse)


# every term of W_t underflows at x*: the largest exponent is -1021 to -3210,
# and the automatic grids would have 3e8 to 2.5e9 cells
SMALL_HBAR_STATES = {
    "hbar 0.002, corner 4.9": triplet([(0.0, 0.0), (4.9, 0.0), (0.0, 4.9)], hbar=0.002),
    "hbar 0.003, compact x 3.3": triplet(3.3 * np.array(COMPACT_CENTERS), hbar=0.003),
    "hbar 0.001, compact x 2": triplet(2.0 * np.array(COMPACT_CENTERS), hbar=0.001),
    "hbar 0.001, compact x 3.3": triplet(3.3 * np.array(COMPACT_CENTERS), hbar=0.001),
}
SMALL_HBAR_MODELS = {m: CERTIFIED_MODELS[m] for m in ("pq", "H=diag(1,1/4), p and q")}


@pytest.mark.parametrize("model_name", SMALL_HBAR_MODELS)
@pytest.mark.parametrize("state_name", SMALL_HBAR_STATES)
def test_positivity_time_certified_at_small_hbar(caplog, no_wigner_grid, state_name, model_name):
    state, model = SMALL_HBAR_STATES[state_name], CERTIFIED_MODELS[model_name]
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        assert positivity_time(state, model) == husimi_time(model)
    (record,) = positivity_records(caplog)
    assert record.getMessage().startswith("positivity_time: theorem, t_H = ")
    _, w, e_max = husimi_certificate(state, model, husimi_time(model))
    assert w < 0
    assert e_max < -1000


CERTIFIED_PAIRS = {f"{s}-{m}": (states[s], models[m])
                   for states, models in ((CERTIFIED_STATES, CERTIFIED_MODELS),
                                          (SMALL_HBAR_STATES, SMALL_HBAR_MODELS))
                   for s in states for m in models}


@pytest.mark.parametrize("name", CERTIFIED_PAIRS)
def test_positivity_time_theorem_evaluates_nothing(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("positivity_time evaluated a Gaussian sum")

    for module, function in ((spots, "gaussian_sum"), (decoherence, "gaussian_sum"),
                             (decoherence, "_wigner_minimum")):
        monkeypatch.setattr(module, function, refuse)
    state, model = CERTIFIED_PAIRS[name]
    assert positivity_time(state, model) == husimi_time(model)


ONE_COUPLING = LindbladModel(np.zeros((2, 2)), (np.array([1.0, 0.0]),))
CAT_ALONG_P = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (2.0, 0)]))
CAT_ALONG_Q = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (0, 2.0)]))
COHERENT = normalize(Superposition.from_centers(HBAR, [1.0], [(0.3, -0.2)]))
G = COHERENT.states[0]
# the same state in a frame rotated by 0.7: its width is 1 - 2.1e-17j, not 1
G_ROTATED = GaussianState(G.center, np.array([[math.cos(0.7), -math.sin(0.7)],
                                              [math.sin(0.7), math.cos(0.7)]]))


def superposition(*terms):
    return normalize(Superposition(HBAR, terms))


# (state, model)
GAUSSIAN_CASES = {
    "one coherent state": (COHERENT, CERTIFIED_MODELS["pq"]),
    "two terms of one Gaussian": (superposition((1.0, G), (0.5, G)), CERTIFIED_MODELS["pq"]),
    "zero-amplitude term": (superposition((1.0, G), (0.0, GaussianState((1.0, 0.5)))),
                            CERTIFIED_MODELS["pq"]),
    "rotated frame": (superposition((1.0, G), (1.0, G_ROTATED)), CERTIFIED_MODELS["pq"]),
    "no Husimi bound": (COHERENT, ONE_COUPLING),
}


def test_rotated_frame_width_is_off_by_round_off():
    assert G_ROTATED.width != G.width
    assert abs(G_ROTATED.width - G.width) < 1e-15


@pytest.mark.parametrize("name", GAUSSIAN_CASES)
def test_positivity_time_gaussian_path(caplog, no_wigner_grid, name):
    state, model = GAUSSIAN_CASES[name]
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        assert positivity_time(state, model) == 0.0
    (record,) = positivity_records(caplog)
    assert record.getMessage() == f"positivity_time: gaussian, t_H = {husimi_time(model)!r}"


# (state, model, t_p or the error raised)
GRID_FALLBACKS = {
    "no Husimi bound": (CAT_ALONG_P, ONE_COUPLING, 17.217909049367712),
    "no Husimi bound, never positive": (CAT_ALONG_Q, ONE_COUPLING, NeverPositive),
}


@pytest.mark.parametrize("name", GRID_FALLBACKS)
def test_positivity_time_grid_fallbacks(caplog, wigner_grid_calls, name):
    state, model, expected = GRID_FALLBACKS[name]
    with caplog.at_level(logging.DEBUG, logger="blindspots"):
        if expected is NeverPositive:
            with pytest.raises(NeverPositive):
                positivity_time(state, model)
            assert not positivity_records(caplog)
        else:
            assert positivity_time(state, model) == expected
            (record,) = positivity_records(caplog)
            assert record.getMessage().startswith("positivity_time: grid, t_H = inf, window = ")
            assert record.args[3] == len(wigner_grid_calls)
    assert wigner_grid_calls


def test_positivity_grid_cap_checked_before_allocating(no_wigner_grid):
    # no Husimi bound, and fringes of a cat 5 apart at hbar = 1e-3: the
    # automatic grid would have 35115 x 3284 cells
    cat = normalize(Superposition.from_centers(1e-3, [1.0, 1.0], [(0, 0), (5.0, 0)]))
    with pytest.raises(NumericalError, match="exceeds"):
        positivity_time(cat, ONE_COUPLING)


def test_flow_overflow_is_typed(compact_triplet):
    # the coupling lies on the contracting direction, so M_t stays finite and
    # only R_t overflows: in the transported chord terms at t = 600 and 700,
    # in R_t itself at t = 800
    model = LindbladModel(np.array([[0.0, 0.5], [0.5, 0.0]]), (np.array([0.0, 1.0]),))
    for t in (600.0, 700.0, 800.0):
        with pytest.raises(NumericalError, match="R_t overflows") as excinfo:
            correlation_evolved_points(compact_triplet, model, np.zeros((1, 2)), t)
        assert str(excinfo.value).endswith(f"at t = {t}")
        assert f"-{t}" not in str(excinfo.value)


def test_wigner_minimum_monotone(corner_triplet, pq_model):
    from blindspots.decoherence import _wigner_minimum
    window = ((-2.0, 7.0), (-2.0, 7.0))
    shape = (901, 901)
    mins = [_wigner_minimum(corner_triplet, pq_model, window, shape, t)
            for t in (0.0, 0.02, 0.05, 0.1)]
    assert all(b > a for a, b in zip(mins, mins[1:]))


@pytest.fixture
def separable_calls(monkeypatch):
    """Records every rank-K product evaluation of a Gaussian sum."""
    calls = []
    original = chord._separable_values

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chord, "_separable_values", spy)
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
    assert_separable_matches_dense(
        separable_calls, state,
        lambda x_p, x_q: wigner_evolved_values(state, pq_model, x_p, x_q, t))


def assert_separable_matches_dense(separable_calls, state, field):
    """field(x_p, x_q) on outer axes takes the rank-K product, once, and agrees
    with its term-by-term value on the dense mesh."""
    ap, aq = wigner_axes(state)
    grid = field(ap[:, None], aq[None, :])
    assert len(separable_calls) == 1
    pp, qq = np.meshgrid(ap, aq, indexing="ij")
    dense = field(pp, qq)
    assert len(separable_calls) == 1
    assert np.max(np.abs(grid - dense)) <= 1e-12 * np.max(np.abs(dense))


def damped_chord_h0(state, model, x_p, x_q, t=0.3):
    """chi_t at H = 0: evolved_chord_grid on outer axes; on a dense mesh,
    independently, chi(xi) exp(-xi . M_t xi / hbar)."""
    if x_p.shape[1] == 1:
        window = ((x_p[0, 0], x_p[-1, 0]), (x_q[0, 0], x_q[0, -1]))
        return evolved_chord_grid(state, model, window, (x_p.size, x_q.size), t).values
    m = decoherence_matrix(model, t).m
    quad = m[0, 0] * x_p * x_p + 2.0 * m[0, 1] * x_p * x_q + m[1, 1] * x_q * x_q
    return chord_values(state, x_p, x_q) * np.exp(-quad / state.hbar)


SEPARABLE_FIELDS = {
    "chord": lambda state, model, x_p, x_q: chord_values(state, x_p, x_q),
    "static wigner": lambda state, model, x_p, x_q: wigner_values(state, x_p, x_q),
    "chi_t at H = 0": damped_chord_h0,
}


@pytest.mark.parametrize("field", SEPARABLE_FIELDS)
@pytest.mark.parametrize("name", SEPARABLE_STATES)
def test_separable_matches_dense(separable_calls, pq_model, name, field):
    state = SEPARABLE_STATES[name]
    assert_separable_matches_dense(
        separable_calls, state,
        lambda x_p, x_q: SEPARABLE_FIELDS[field](state, pq_model, x_p, x_q))


def wigner_position_reference(state, p, q):
    """W(p, q) = (1/2 pi hbar) int dy Psi(q + y/2) Psi*(q - y/2) exp(-i p y / hbar)."""
    h = state.hbar
    y = np.linspace(-6.0, 6.0, 24001)
    f = (wavefunction(state, q + y / 2) * np.conj(wavefunction(state, q - y / 2))
         * np.exp(-1j * p * y / h))
    return float(np.sum(f).real * (y[1] - y[0]) / (2.0 * np.pi * h))


def test_wigner_squeezed_frames_take_dense_path(separable_calls, pq_model):
    state = squeezed_triplet()
    ap, aq = wigner_axes(state, 61)
    for w in (wigner_evolved_values(state, pq_model, ap[:, None], aq[None, :], 0.0),
              wigner_values(state, ap[:, None], aq[None, :])):
        for i, j in ((30, 23), (12, 40), (45, 10), (7, 7)):
            assert abs(w[i, j] - wigner_position_reference(state, ap[i], aq[j])) < 1e-10
    assert not separable_calls
