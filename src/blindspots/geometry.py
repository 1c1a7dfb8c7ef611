"""Planar phase-space geometry.

Coordinates are ordered x = (p, q).  The skew (symplectic) product used by
every Fourier kernel and phase factor in this package is

    skew(a, b) = a_p * b_q - a_q * b_p

and the standard symplectic unit is J = [[0, -1], [1, 0]], so that
skew(a, b) = a . J^T b.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSymplectic, ValidationError

J = np.array([[0.0, -1.0], [1.0, 0.0]])

SYMPLECTIC_DET_TOL = 1e-12


def as_phase_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float array of shape (2,), ordered (p, q)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (2,):
        raise ValidationError(f"{name} must have two components (p, q), got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} has non-finite components: {v}")
    return v


def skew(a, b) -> float:
    """Skew product a ^ b = a_p b_q - a_q b_p."""
    a = as_phase_vector(a, "a")
    b = as_phase_vector(b, "b")
    return float(a[0] * b[1] - a[1] * b[0])


def skew_solver(a: np.ndarray, b: np.ndarray, degenerate: Exception):
    """solve(r1, r2) -> the x with skew(a, x) = r1 and skew(b, x) = r2, by
    Cramer's rule.  Raises `degenerate` when a and b are parallel to 1e-12
    relative, which includes either of them being zero."""
    det = skew(a, b)
    if abs(det) <= 1e-12 * np.hypot(*a) * np.hypot(*b):
        raise degenerate

    def solve(r1: float, r2: float) -> np.ndarray:
        return np.array([(b[0] * r1 - a[0] * r2) / det, (b[1] * r1 - a[1] * r2) / det])
    return solve


def check_symplectic(s) -> np.ndarray:
    """Validate a 2x2 real matrix with unit determinant, within
    SYMPLECTIC_DET_TOL or within 8 eps |m|^2 (squared Frobenius norm) when
    that is larger: the entries of a product of large symplectic maps carry
    round-off of order eps |m|, and so its determinant carries eps |m|^2."""
    m = np.asarray(s, dtype=float)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise NotSymplectic(f"frame must be a finite 2x2 matrix, got {s!r}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    tol = max(SYMPLECTIC_DET_TOL, 8.0 * np.finfo(float).eps * float(np.sum(m * m)))
    if abs(det - 1.0) > tol:
        raise NotSymplectic(f"determinant {det} differs from 1 by more than {tol}")
    return m


def width_from_frame(frame: np.ndarray) -> complex:
    """Complex width parameter of the Gaussian carried by a symplectic frame.

    The frame S maps the isotropic ground-state ellipse onto the state's
    ellipse; the corresponding wavefunction is proportional to
    exp(-A (q - eta_q)^2 / 2 hbar) with Re A > 0.  A is read off the inverse
    covariance (S S^T)^{-1}.
    """
    m = np.asarray(frame, dtype=float)
    ss = m @ m.T
    # inverse of a unit-determinant symmetric 2x2 is its adjugate
    g_pp = ss[1, 1]
    g_pq = -ss[0, 1]
    a_r = 1.0 / g_pp
    a_i = g_pq / g_pp
    return complex(a_r, a_i)


def metaplectic_phase(s: np.ndarray, width: complex) -> complex:
    """Unimodular amplitude factor acquired by a Gaussian term under S.

    Our Gaussian states carry a fixed phase convention (positive real
    wavefunction prefactor).  The unitary image of a term with width A under
    the metaplectic operator of S differs from the convention state of the
    mapped frame by this phase; multiplying it into the amplitude makes the
    transformation exact term by term.
    """
    alpha = s[1, 1]
    beta = s[1, 0]
    z = complex(alpha, 0.0) + 1j * beta * width
    w = z ** (-0.5)
    return w / abs(w)
