import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindspots import (
    GaussianState,
    NotSymplectic,
    Superposition,
    ValidationError,
    ZeroNorm,
    apply_symplectic,
    chord_exact,
    chord_quadrature,
    chord_values,
    normalize,
    overlap,
    shift_origin,
    state_norm_squared,
    translate_state,
)
from conftest import HBAR, random_identity_state


def test_gaussian_state_rejects_nonsymplectic_frame():
    with pytest.raises(NotSymplectic):
        GaussianState((0, 0), [[1.1, 0], [0, 1.0]])


def test_gaussian_state_keeps_its_own_read_only_arrays():
    center = np.array([0.3, -0.2])
    frame = np.array([[2.0, 0.0], [0.3, 0.5]])
    g = GaussianState(center, frame)
    state = normalize(Superposition(HBAR, ((1.0, g), (0.7j, GaussianState((1.0, 0.4))))))
    before = complex(chord_values(state, 0.2, -0.1))
    center[0] = 9.0
    frame[:] = np.eye(2)
    assert complex(chord_values(state, 0.2, -0.1)) == before
    for array in (g.center, g.frame):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_superposition_validation():
    with pytest.raises(ValidationError):
        Superposition(-1.0, ((1.0, GaussianState((0, 0))),))
    with pytest.raises(ValidationError):
        Superposition(HBAR, ())
    with pytest.raises(ValidationError):
        Superposition(HBAR, ((0.0, GaussianState((0, 0))),))


def test_normalize_single_term_preserves_phase():
    st_ = Superposition.from_centers(HBAR, [2.0 * np.exp(0.9j)], [(0.3, -0.4)])
    out = normalize(st_)
    assert out.amplitudes[0] == pytest.approx(np.exp(0.9j), abs=1e-14)


def test_normalize_cat_amplitudes():
    eta = np.array([0.0, 1.0])
    c = np.exp(-(eta @ eta) / (4 * HBAR))  # coherent-state overlap modulus
    cat = normalize(Superposition.from_centers(HBAR, [1.0, 1.0], [(0, 0), eta]))
    assert abs(abs(cat.amplitudes[0]) - 1 / np.sqrt(2)) < c
    # the overlap-corrected norm is exact: verify against the quadrature oracle
    assert abs(chord_quadrature(cat, (0, 0)) - 1.0) < 1e-10


def test_normalize_compact_triplet_unit_chord_at_origin(compact_triplet):
    assert abs(state_norm_squared(compact_triplet) - 1.0) < 1e-12
    assert abs(chord_quadrature(compact_triplet, (0, 0)) - 1.0) < 1e-10


def test_normalize_zero_norm():
    dark = Superposition.from_centers(HBAR, [1.0, -1.0], [(0.2, 0.1), (0.2, 0.1)])
    with pytest.raises(ZeroNorm):
        normalize(dark)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_normalize_gives_unit_norm(seed):
    rng = np.random.default_rng(seed)
    state = random_identity_state(rng, int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.5)))
    assert state_norm_squared(state) == pytest.approx(1.0, abs=1e-12)


def test_translate_zero_is_identity(compact_triplet):
    out = translate_state(compact_triplet, (0, 0))
    assert np.allclose(out.amplitudes, compact_triplet.amplitudes)
    assert np.allclose(out.centers, compact_triplet.centers)


def test_translate_single_state_from_origin():
    st_ = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    out = translate_state(st_, (0.4, -0.2))
    assert out.amplitudes[0] == pytest.approx(1.0 + 0.0j)
    assert np.allclose(out.centers[0], (0.4, -0.2))


def test_translate_overlap_matches_chord(compact_triplet):
    xi = np.array([0.05, 0.05])
    shifted = translate_state(compact_triplet, xi)
    assert abs(abs(overlap(compact_triplet, shifted)) - abs(chord_exact(compact_triplet, xi))) < 1e-10


def test_shift_origin_preserves_chord_modulus(compact_triplet):
    shifted = shift_origin(compact_triplet, compact_triplet.centers[0] + (0.3, -0.7))
    rng = np.random.default_rng(5)
    for _ in range(50):
        xi = rng.normal(scale=0.8, size=2)
        a = abs(complex(chord_values(compact_triplet, xi[0], xi[1])))
        b = abs(complex(chord_values(shifted, xi[0], xi[1])))
        assert abs(a - b) < 1e-12


def test_shift_origin_zero_is_identity(compact_triplet):
    out = shift_origin(compact_triplet, (0, 0))
    assert np.allclose(out.amplitudes, compact_triplet.amplitudes)
    assert np.allclose(out.centers, compact_triplet.centers)


def test_apply_symplectic_identity(compact_triplet):
    out = apply_symplectic(compact_triplet, np.eye(2))
    assert np.allclose(out.amplitudes, compact_triplet.amplitudes)
    assert np.allclose(out.centers, compact_triplet.centers)


def test_apply_symplectic_rejects_nonunit_determinant(compact_triplet):
    with pytest.raises(NotSymplectic):
        apply_symplectic(compact_triplet, [[1.0, 0.1], [0.0, 1.01]])


def test_apply_symplectic_rotation_transports_chord():
    st_ = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by pi/2
    out = apply_symplectic(st_, rot)
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = rng.normal(scale=0.5, size=2)
        assert abs(chord_exact(out, rot @ xi) - chord_exact(st_, xi)) < 1e-10


def test_apply_symplectic_covariance_mixed_frames():
    sq = np.array([[2.0, 0.0], [0.3, 0.5]])
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    state = normalize(Superposition(HBAR, (
        (0.8 + 0.1j, GaussianState((0.2, 0.1))),
        (0.5 - 0.4j, GaussianState((-0.5, 0.7), sq)),
        (0.3 + 0.2j, GaussianState((0.9, -0.2), rot @ sq)),
    )))
    s = np.array([[1.3, 0.4], [0.2, (1 + 0.4 * 0.2) / 1.3]])
    out = apply_symplectic(state, s)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xi = rng.normal(scale=0.4, size=2)
        assert abs(chord_exact(out, s @ xi) - chord_exact(state, xi)) < 1e-10
