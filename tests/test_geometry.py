import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindspots import NotSymplectic, ValidationError, propagator_matrix, skew
from blindspots.geometry import check_symplectic, width_from_frame

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_skew_unit_basis():
    assert skew((1, 0), (0, 1)) == 1.0


def test_skew_self_vanishes():
    assert skew((3, 7), (3, 7)) == 0.0


def test_skew_direct_arithmetic():
    # -a_q * b_p with a = (0, 5), b = (-0.0314159, 0.0314159)
    assert skew((0, 5), (-0.0314159, 0.0314159)) == pytest.approx(0.15708, abs=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(finite, finite, finite, finite)
def test_skew_antisymmetric(ap, aq, bp, bq):
    assert skew((ap, aq), (bp, bq)) == -skew((bp, bq), (ap, aq))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(finite, finite, finite, finite,
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_skew_linear_in_first_argument(ap, aq, bp, bq, c):
    lhs = skew((c * ap, c * aq), (bp, bq))
    rhs = c * skew((ap, aq), (bp, bq))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-6)


def test_skew_rejects_nan():
    with pytest.raises(ValidationError):
        skew((np.nan, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        skew((0.0, 0.0), (np.inf, 0.0))


def test_check_symplectic_accepts_rotation():
    th = 0.4
    check_symplectic([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])


def test_check_symplectic_rejects_scaling():
    with pytest.raises(NotSymplectic):
        check_symplectic([[2.0, 0.0], [0.0, 1.0]])


def test_check_symplectic_tolerance_follows_round_off():
    # a hyperbolic R_t with entries near 670: det misses 1 by 2.5e-11
    check_symplectic(propagator_matrix([[0.0, 1.0], [1.0, 0.0]], 3.25))
    # large entries do not hide a determinant that is off by 1e-6
    with pytest.raises(NotSymplectic):
        check_symplectic([[1000.0, 1000.0], [(1e6 - 1.0 - 1e-6) / 1000.0, 1000.0]])


def test_width_identity_frame():
    assert width_from_frame(np.eye(2)) == pytest.approx(1.0 + 0.0j)


def test_width_squeeze_frame():
    # frame scaling p by s and q by 1/s narrows the wavefunction: A = s^2
    s = 2.0
    a = width_from_frame(np.diag([s, 1.0 / s]))
    assert a == pytest.approx(s * s + 0.0j)


def test_width_rotation_invariant():
    th = 1.1
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert width_from_frame(rot) == pytest.approx(1.0 + 0.0j, abs=1e-14)
