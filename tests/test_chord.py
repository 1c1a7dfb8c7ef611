import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindspots import (
    BadQuadrature,
    GaussianState,
    MixedEnsemble,
    NotNormalized,
    Superposition,
    ValidationError,
    chord_exact,
    chord_mixture,
    chord_quadrature,
    chord_values,
    correlation_pure,
    normalize,
    overlap,
    shift_origin,
    skew,
    wigner_exact,
    wigner_values,
)
from blindspots.chord import chord_gradient
from blindspots.spots import DiffractionModel, newton_refine, small_chord
from conftest import HBAR, random_identity_state


def test_chord_single_state_origin_value():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    assert chord_exact(st, (0.1, 0.2)) == pytest.approx(np.exp(-1 / 6), abs=1e-14)


def test_chord_at_zero_is_one(compact_triplet):
    assert chord_exact(compact_triplet, (0, 0)) == pytest.approx(1.0, abs=1e-13)


def test_chord_coherent_state_anchor():
    eta = np.array([0.7, -0.3])
    st = normalize(Superposition.from_centers(HBAR, [1.0], [eta]))
    xi = np.array([0.11, 0.23])
    want = np.exp(1j * skew(eta, xi) / HBAR) * np.exp(-(xi @ xi) / (4 * HBAR))
    assert chord_exact(st, xi) == pytest.approx(want, abs=1e-14)


def test_chord_requires_normalized_state():
    st = Superposition.from_centers(HBAR, [2.0], [(0, 0)])
    with pytest.raises(NotNormalized):
        chord_exact(st, (0.1, 0.1))


def test_overlap_rejects_states_at_different_hbar(compact_triplet):
    other = normalize(Superposition.from_centers(2 * HBAR, [1.0], [(0, 0)]))
    assert overlap(compact_triplet, compact_triplet) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValidationError, match="different hbar"):
        overlap(compact_triplet, other)


def test_chord_compact_triplet_matches_quadrature(compact_triplet):
    got = chord_exact(compact_triplet, (0.05, 0.05))
    assert abs(got - chord_quadrature(compact_triplet, (0.05, 0.05))) < 1e-8


def test_quadrature_normalization_integral():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    assert abs(chord_quadrature(st, (0, 0)) - 1.0) < 1e-10


def test_quadrature_matches_exact_random_states():
    rng = np.random.default_rng(42)
    for _ in range(20):
        st = random_identity_state(rng, int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.5)))
        xi = rng.uniform(-2, 2, 2)
        assert abs(chord_exact(st, xi) - chord_quadrature(st, xi)) < 1e-8


def test_quadrature_cat_at_separation():
    eta = np.array([0.0, 2.0])
    cat = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), eta]))
    got = abs(chord_quadrature(cat, eta))
    # the cross term <0|T_{-eta}|eta> contributes |a0 a1*| = 1/2 up to
    # exponentially small overlap corrections
    assert got == pytest.approx(0.5, abs=np.exp(-(eta @ eta) / (4 * HBAR)) + 1e-10)


def test_quadrature_rejects_oscillation_undersampling():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(2.0, 0.0)]))
    with pytest.raises(BadQuadrature):
        chord_quadrature(st, (0.1, 0.1), step=HBAR)


def test_quadrature_with_squeezed_frame():
    from blindspots import GaussianState
    frame = np.array([[2.0, 0.0], [0.3, 0.5]])
    st = normalize(Superposition(HBAR, ((1.0, GaussianState((0.4, -0.1), frame)),)))
    xi = np.array([0.11, 0.23])
    assert abs(chord_exact(st, xi) - chord_quadrature(st, xi)) < 1e-10


def test_hermiticity_on_random_states():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        st = random_identity_state(rng, int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.5)))
        xi = rng.normal(scale=1.2, size=(20, 2))
        a = chord_values(st, xi[:, 0], xi[:, 1])
        b = chord_values(st, -xi[:, 0], -xi[:, 1])
        worst = max(worst, float(np.max(np.abs(b - np.conj(a)))))
    assert worst < 1e-12


def test_parity_im_vanishes_at_origin(compact_triplet):
    val = chord_exact(compact_triplet, (0, 0))
    assert val.imag == 0.0
    assert val.real == pytest.approx(1.0, abs=1e-13)


def test_centro_symmetric_cat_has_real_chord():
    cat = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), (0, 4)]))
    centered = shift_origin(cat, (0, 2))
    xs = np.linspace(-0.6, 0.6, 81)
    vals = chord_values(centered, xs[:, None], xs[None, :])
    assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(np.abs(vals.real))


def test_gradient_matches_finite_differences(compact_triplet):
    rng = np.random.default_rng(8)
    for _ in range(5):
        xi = rng.normal(scale=0.4, size=2)
        g = chord_gradient(compact_triplet, xi)
        e = 1e-6
        fd_p = (complex(chord_values(compact_triplet, xi[0] + e, xi[1]))
                - complex(chord_values(compact_triplet, xi[0] - e, xi[1]))) / (2 * e)
        fd_q = (complex(chord_values(compact_triplet, xi[0], xi[1] + e))
                - complex(chord_values(compact_triplet, xi[0], xi[1] - e))) / (2 * e)
        assert abs(g[0] - fd_p) < 1e-5 * max(1.0, abs(fd_p))
        assert abs(g[1] - fd_q) < 1e-5 * max(1.0, abs(fd_q))


def test_wigner_peak_values():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    assert wigner_exact(st, (0, 0)) == pytest.approx(1 / (np.pi * HBAR), rel=1e-12)
    st2 = normalize(Superposition.from_centers(HBAR, [1.0], [(0.8, -0.5)]))
    assert wigner_exact(st2, (0.8, -0.5)) == pytest.approx(1 / (np.pi * HBAR), rel=1e-12)


def test_correlation_pure_basics(compact_triplet):
    assert correlation_pure(compact_triplet, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0.4, 0.2)]))
    xi = np.array([0.3, -0.5])
    assert correlation_pure(st, xi) == pytest.approx(np.exp(-(xi @ xi) / (2 * HBAR)), rel=1e-12)


def test_chord_mixture_basics(compact_triplet):
    ens = MixedEnsemble.from_superposition(compact_triplet)
    assert chord_mixture(ens, (0, 0)) == pytest.approx(1.0, abs=1e-12)

    single = normalize(Superposition.from_centers(HBAR, [1.0], [(0.6, 0.9)]))
    ens1 = MixedEnsemble.from_superposition(single)
    xi = (0.2, -0.1)
    assert chord_mixture(ens1, xi) == pytest.approx(chord_exact(single, xi), abs=1e-14)


def test_chord_mixture_factors_into_small_chord(compact_triplet):
    # identity frames with the first center at the origin: the common Gaussian
    # factors out of the mixture exactly
    ens = MixedEnsemble.from_superposition(compact_triplet)
    model = DiffractionModel.from_superposition(compact_triplet)
    rng = np.random.default_rng(2)
    for _ in range(10):
        xi = rng.normal(scale=0.1, size=2)
        lhs = chord_mixture(ens, xi)
        rhs = small_chord(model, xi) * np.exp(-(xi @ xi) / (4 * HBAR))
        assert abs(lhs - rhs) < 1e-10


def test_wigner_autocorrelation_reproduces_chord_squared(compact_triplet):
    # 2 pi hbar int W(x) W(x - xi) dx = |chi(xi)|^2
    lo, hi, n = -1.8, 3.3, 361
    ax = np.linspace(lo, hi, n)
    step = ax[1] - ax[0]
    w = wigner_values(compact_triplet, ax[:, None], ax[None, :]).real
    assert np.sum(w) * step * step == pytest.approx(1.0, abs=1e-6)  # normalization

    rng = np.random.default_rng(17)
    for _ in range(10):
        xi = rng.normal(scale=0.35, size=2)
        w_shift = wigner_values(compact_triplet, ax[:, None] - xi[0], ax[None, :] - xi[1]).real
        corr = 2 * np.pi * HBAR * np.sum(w * w_shift) * step * step
        assert corr == pytest.approx(correlation_pure(compact_triplet, xi), abs=1e-5)


def squeezed_frame(r, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]]) @ np.diag([math.exp(r), math.exp(-r)])


@st.composite
def states_and_chords(draw):
    """A normalized state of up to 6 squeezed and rotated terms, and a chord
    within +-3 sqrt(hbar) of the origin."""
    hbar = draw(st.floats(1e-2, 1.0))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        amp = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        center = (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
        frame = squeezed_frame(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, math.pi)))
        terms.append((amp, GaussianState(center, frame)))
    reach = 3.0 * math.sqrt(hbar)
    xi = np.array([draw(st.floats(-reach, reach)), draw(st.floats(-reach, reach))])
    return normalize(Superposition(hbar, tuple(terms))), xi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(states_and_chords())
def test_chord_array_core_properties(case):
    state, xi = case
    # rounding of a sum of K terms scales with the sum of their weights
    scale = float(np.sum(np.abs(state.chord_terms[0])))
    assert abs(complex(chord_values(state, 0.0, 0.0)) - 1.0) < 1e-12 * scale

    chi = complex(chord_values(state, xi[0], xi[1]))
    assert abs(complex(chord_values(state, -xi[0], -xi[1])) - np.conj(chi)) < 1e-13 * scale
    assert abs(chi) <= 1.0 + 1e-12

    # the single-point path against the term-by-term array path
    on_array = chord_values(state, np.array([xi[0]]), np.array([xi[1]]))[0]
    assert abs(chi - on_array) < 1e-14 * scale

    e = 1e-6 * math.sqrt(state.hbar)
    g = chord_gradient(state, xi)
    for k in range(2):
        step = np.eye(2)[k] * e
        fd = (complex(chord_values(state, *(xi + step)))
              - complex(chord_values(state, *(xi - step)))) / (2 * e)
        assert abs(g[k] - fd) < 1e-5 * max(1.0, abs(fd))


def test_zero_amplitude_terms_change_nothing(compact_triplet):
    # a far-away term builds exponents that overflow to inf and NaN; only
    # dropping its zero-weight pairs keeps them out of every sum
    extra = ((0.0, GaussianState((3.0, -2.0), squeezed_frame(0.5, 0.3))),
             (0.0, GaussianState((0.0, 1e155))))
    with np.errstate(over="ignore", invalid="ignore"):
        padded = Superposition(HBAR, compact_triplet.terms + extra)
        xi = np.array([0.21, -0.34])
        assert chord_values(padded, xi[0], xi[1]) == chord_values(compact_triplet, xi[0], xi[1])
        assert np.array_equal(chord_gradient(padded, xi), chord_gradient(compact_triplet, xi))
        seed = np.array([0.2, 0.1])
        assert np.array_equal(newton_refine(padded, seed).xi,
                              newton_refine(compact_triplet, seed).xi)
