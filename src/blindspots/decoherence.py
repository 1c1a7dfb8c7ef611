"""Markovian decoherence of chord functions and phase-space correlations.

For a quadratic Hamiltonian (Weyl symbol x.H.x) and linear Lindblad couplings
L_j(x) = (l'_j + i l''_j).x with vanishing dissipation alpha = sum skew(l'', l'),
the chord function evolves as a product

    chi_t(xi) = chi_0(R_{-t} xi) * exp(-xi . M_t xi / hbar),

where R_t = exp(2 J H t) is the classical flow and M_t solves

    dM/dt = 2 (H J M - M J H) + (1/2) sum_j (l' l'^T + l'' l''^T),  M_0 = 0,

that is M_t = (1/2) int_0^t R_{-s}^T C R_{-s} ds, which is integrated exactly
(cos/sin, polynomial or exponential in t).

The correlation C(xi, t) = F[|chi_t|^2] is then the pure-state correlation
convolved with a normalized Gaussian of covariance -4 hbar J M_t J; both the
correlation and the evolving Wigner function stay finite sums of complex
Gaussians, evaluated here in closed form.  On outer grids whose terms do not
couple p and q, W_t is one rank-K matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DissipativeUnsupported,
    NegativeTime,
    NeverLifted,
    NeverPositive,
    NoMinimum,
    NumericalError,
    ValidationError,
)
from .chord import chord_gradient, chord_values, pair_exponents, require_normalized
from .fields import FieldGrid, fourier_2d, grid_axes, require_adequate
from .geometry import J, as_phase_vector, skew
from .states import Superposition

ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class LindbladModel:
    """Quadratic Hamiltonian matrix plus complex linear coupling forms."""

    hamiltonian: np.ndarray
    couplings: Tuple[np.ndarray, ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=float)
        if h.shape != (2, 2) or not np.all(np.isfinite(h)):
            raise ValidationError("hamiltonian must be a finite 2x2 matrix")
        if abs(h[0, 1] - h[1, 0]) > 1e-12:
            raise ValidationError("hamiltonian matrix must be symmetric within 1e-12")
        cs = tuple(np.asarray(c, dtype=complex) for c in self.couplings)
        for c in cs:
            if c.shape != (2,) or not np.all(np.isfinite(c)):
                raise ValidationError("each coupling must be a finite complex 2-vector")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "couplings", cs)

    @classmethod
    def position_momentum(cls, hamiltonian=None, strength: float = 1.0) -> "LindbladModel":
        """Couplings p-hat and q-hat (Hermitian, so alpha = 0)."""
        h = np.zeros((2, 2)) if hamiltonian is None else hamiltonian
        return cls(h, (strength * np.array([1.0, 0.0], dtype=complex),
                       strength * np.array([0.0, 1.0], dtype=complex)))

    def coupling_matrix(self) -> np.ndarray:
        """sum_j (l' l'^T + l'' l''^T), the positive-semidefinite diffusion form."""
        total = np.zeros((2, 2))
        for c in self.couplings:
            total += np.outer(c.real, c.real) + np.outer(c.imag, c.imag)
        return total


def dissipation_coeff(model: LindbladModel) -> float:
    """alpha = sum_j skew(l''_j, l'_j); zero for Hermitian couplings."""
    return float(sum(skew(c.imag, c.real) for c in model.couplings))


def _require_nondissipative(model: LindbladModel):
    a = dissipation_coeff(model)
    if abs(a) > ALPHA_TOL:
        raise DissipativeUnsupported(
            f"dissipation coefficient alpha = {a}; only alpha = 0 evolution is supported")


def propagator_matrix(hamiltonian, t: float) -> np.ndarray:
    """R_t = exp(2 J H t) in closed form (elliptic/hyperbolic/parabolic)."""
    h = np.asarray(hamiltonian, dtype=float)
    if not np.isfinite(t):
        raise ValidationError("time must be finite")
    m = 2.0 * (J @ h) * t         # traceless, so m @ m = -det(m) * I
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if d > 1e-24:
        s = math.sqrt(d)
        return math.cos(s) * np.eye(2) + (math.sin(s) / s) * m
    if d < -1e-24:
        s = math.sqrt(-d)
        return math.cosh(s) * np.eye(2) + (math.sinh(s) / s) * m
    return np.eye(2) + m


@dataclass(frozen=True)
class DecoherenceGaussian:
    """Calibrated Gaussian decoherence factor exp(-xi . M xi / hbar)."""

    t: float
    m: np.ndarray
    hbar: float

    def factor(self, xi_p, xi_q) -> np.ndarray:
        xi_p = np.asarray(xi_p, dtype=float)
        xi_q = np.asarray(xi_q, dtype=float)
        quad = (self.m[0, 0] * xi_p * xi_p + 2.0 * self.m[0, 1] * xi_p * xi_q
                + self.m[1, 1] * xi_q * xi_q)
        return np.exp(-quad / self.hbar)


_SERIES_X = 1.0     # |x| = 4 |det A| t^2 below which the flow integrals use their series
_SERIES_TERMS = 12  # enough for |x| < 1 to round-off


def _flow_integrals(x: float, t: float) -> Tuple[float, float, float]:
    """(int c^2, int c S, int S^2) over [0, t], where R_{-s} = c(s) I - S(s) A
    and x = -4 t^2 det A < _SERIES_X.  They are (t/2)(1 + f1), t^2 f2 and
    2 t^3 f3, where f_n = sum_k x^k / (2k + n)!: a Taylor series for small |x|
    (t, t^2/2, t^3/3 when det A = 0), otherwise cos/sin of theta = sqrt(-x)."""
    if abs(x) < _SERIES_X:
        f1 = f2 = f3 = 0.0
        term = 1.0  # x^k / (2k)!
        for k in range(_SERIES_TERMS):
            term /= 2 * k + 1
            f1 += term
            term /= 2 * k + 2
            f2 += term
            f3 += term / (2 * k + 3)
            term *= x
    else:
        theta = math.sqrt(-x)
        f1 = math.sin(theta) / theta
        f2 = 2.0 * (math.sin(0.5 * theta) / theta) ** 2
        f3 = (theta - math.sin(theta)) / theta ** 3
    return 0.5 * t * (1.0 + f1), t * t * f2, 2.0 * t ** 3 * f3


def _hyperbolic_m(a: np.ndarray, c: np.ndarray, kappa: float, t: float) -> np.ndarray:
    """M_t for eigenvalues +-kappa of A: R_{-s} = e^{-kappa s} P+ + e^{kappa s} P-
    with P+- = (I +- A/kappa)/2, integrated piece by piece.  The cosh/sinh form
    would cancel two terms of size e^{2 kappa t} whenever the growing piece
    P-^T C P- vanishes."""
    p_plus = 0.5 * (np.eye(2) + a / kappa)
    p_minus = np.eye(2) - p_plus
    decaying = p_plus.T @ c @ p_plus
    growing = p_minus.T @ c @ p_minus
    mixed = p_plus.T @ c @ p_minus
    m = 0.5 * (-math.expm1(-2.0 * kappa * t) / (2.0 * kappa) * decaying
               + t * (mixed + mixed.T))
    if np.any(growing):
        try:
            rate = math.expm1(2.0 * kappa * t) / (2.0 * kappa)
        except OverflowError:
            raise NumericalError(f"M_t overflows at t = {t}") from None
        with np.errstate(over="ignore"):
            m = m + 0.5 * rate * growing
    return m


def decoherence_matrix(model: LindbladModel, t: float, hbar: float = 1.0) -> DecoherenceGaussian:
    """M_t = (1/2) int_0^t R_{-s}^T C R_{-s} ds in closed form.

    A = 2 J H is traceless, so R_{-s} = exp(-A s) = c(s) I - S(s) A and

        M_t = (1/2) [int c^2 C - int c S (A^T C + C A) + int S^2 A^T C A]

    with scalar integrals in x = -4 t^2 det A (elliptic, parabolic,
    near-parabolic; see _flow_integrals).  A hyperbolic flow with x >= 1 is split
    into its spectral projectors instead, so that a coupling along the stable
    direction gives a bounded M_t at every t.  For H = 0 the Gaussian factor
    solves the chord master equation exactly: M_t = (t/2) C.  A t at which
    M_t overflows raises NumericalError.
    """
    _require_nondissipative(model)
    if not math.isfinite(t):
        raise ValidationError("time must be finite")
    if t < 0:
        raise NegativeTime(f"t = {t}")
    if t == 0:
        return DecoherenceGaussian(0.0, np.zeros((2, 2)), hbar)
    c = model.coupling_matrix()
    a = 2.0 * (J @ model.hamiltonian)
    d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    x = -4.0 * d * t * t
    if x >= _SERIES_X:
        m = _hyperbolic_m(a, c, math.sqrt(-d), t)
    else:
        i_cc, i_cs, i_ss = _flow_integrals(x, t)
        ac = a.T @ c
        m = 0.5 * (i_cc * c - i_cs * (ac + ac.T) + i_ss * (ac @ a))
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"M_t overflows at t = {t}")
    m = 0.5 * (m + m.T)
    return DecoherenceGaussian(float(t), m, hbar)


def evolved_chord(state: Superposition, model: LindbladModel, xi, t: float) -> complex:
    """chi_t(xi) = chi_0(R_{-t} xi) exp(-xi . M_t xi / hbar)."""
    _require_nondissipative(model)
    if t < 0:
        raise NegativeTime(f"t = {t}")
    require_normalized(state)
    xi = as_phase_vector(xi, "xi")
    r_back = propagator_matrix(model.hamiltonian, -t)
    zeta = r_back @ xi
    gauss = decoherence_matrix(model, t, hbar=state.hbar)
    chi_u = complex(chord_values(state, zeta[0], zeta[1]))
    return chi_u * complex(gauss.factor(xi[0], xi[1]))


def evolved_chord_gradient(state: Superposition, model: LindbladModel, xi,
                           t: float) -> np.ndarray:
    """Analytic (d chi_t/d xi_p, d chi_t/d xi_q) for master-equation residuals."""
    _require_nondissipative(model)
    xi = as_phase_vector(xi, "xi")
    r_back = propagator_matrix(model.hamiltonian, -t)
    zeta = r_back @ xi
    gauss = decoherence_matrix(model, t, hbar=state.hbar)
    g = complex(gauss.factor(xi[0], xi[1]))
    chi_u = complex(chord_values(state, zeta[0], zeta[1]))
    grad_u = r_back.T @ chord_gradient(state, zeta)
    grad_g = (-2.0 / state.hbar) * (gauss.m @ xi) * g
    return grad_u * g + chi_u * grad_g


def _evolved_chord_grid_values(state: Superposition, model: LindbladModel,
                               window, shape, t: float) -> np.ndarray:
    ap, aq = grid_axes(window, shape)
    r_back = propagator_matrix(model.hamiltonian, -t)
    zp = r_back[0, 0] * ap[:, None] + r_back[0, 1] * aq[None, :]
    zq = r_back[1, 0] * ap[:, None] + r_back[1, 1] * aq[None, :]
    chi_u = chord_values(state, zp, zq)
    gauss = decoherence_matrix(model, t, hbar=state.hbar)
    return chi_u * gauss.factor(ap[:, None], aq[None, :])


def evolved_chord_grid(state: Superposition, model: LindbladModel, window, shape,
                       t: float) -> FieldGrid:
    _require_nondissipative(model)
    if t < 0:
        raise NegativeTime(f"t = {t}")
    require_normalized(state)
    vals = _evolved_chord_grid_values(state, model, window, shape, t)
    return FieldGrid(window, shape, vals, "chord")


def evolved_correlation(state: Superposition, model: LindbladModel, window, shape,
                        t: float) -> FieldGrid:
    """C(xi, t) = F[|chi_t|^2] on the grid; at t = 0 this is the pure correlation."""
    grid = evolved_chord_grid(state, model, window, shape, t)
    sq = np.abs(grid.values) ** 2
    require_adequate(sq)
    out = fourier_2d(FieldGrid(window, shape, sq, "correlation"), state.hbar)
    vals = out.values
    scale = np.max(np.abs(vals))
    if scale > 0 and np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise NumericalError("evolved correlation left an imaginary part")
    return FieldGrid(window, shape, vals.real, "correlation")


# -- closed-form Gaussian algebra ----------------------------------------------

def _unitary_pair_terms(state: Superposition, model: LindbladModel, t: float):
    """Chord pair exponents transported by the classical flow R_{-t}."""
    r_back = propagator_matrix(model.hamiltonian, -t)
    terms = []
    for mu, c0, b, cmat in pair_exponents(state):
        terms.append((mu, c0, r_back.T @ b, r_back.T @ cmat @ r_back))
    return terms


def smoothing_covariance(gauss: DecoherenceGaussian) -> np.ndarray:
    """Covariance of the correlation-smoothing kernel: -4 hbar J M J."""
    return -4.0 * gauss.hbar * (J @ gauss.m @ J)


def correlation_evolved_points(state: Superposition, model: LindbladModel,
                               points: np.ndarray, t: float) -> np.ndarray:
    """C(xi, t) at arbitrary chord points, by exact Gaussian convolution.

    |chi_u|^2 is its own symplectic Fourier transform (the state stays pure
    under the unitary part), so C(., t) is |chi_u|^2 convolved with the
    normalized Gaussian of covariance -4 hbar J M_t J.  Every term of
    |chi_u|^2 is a complex Gaussian, and the convolution integral is done in
    closed form term by term.
    """
    _require_nondissipative(model)
    if t < 0:
        raise NegativeTime(f"t = {t}")
    require_normalized(state)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    xp = pts[:, 0]
    xq = pts[:, 1]

    gauss = decoherence_matrix(model, t, hbar=state.hbar)
    sigma = smoothing_covariance(gauss)
    chord_terms = _unitary_pair_terms(state, model, t)
    eye = np.eye(2)

    total = np.zeros(len(pts), dtype=complex)
    for mu_k, c0_k, b_k, c_k in chord_terms:
        for mu_l, c0_l, b_l, c_l in chord_terms:
            mu = mu_k * np.conj(mu_l)
            if mu == 0:
                continue
            c0 = c0_k + np.conj(c0_l)
            b = b_k + np.conj(b_l)
            cc = c_k + np.conj(c_l)
            d = eye - 2.0 * (sigma @ cc)
            det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
            g = np.linalg.solve(d, sigma)
            g = 0.5 * (g + g.T)
            u_p = b[0] + 2.0 * (cc[0, 0] * xp + cc[0, 1] * xq)
            u_q = b[1] + 2.0 * (cc[1, 0] * xp + cc[1, 1] * xq)
            quad_half_ugu = 0.5 * (g[0, 0] * u_p * u_p + 2.0 * g[0, 1] * u_p * u_q
                                   + g[1, 1] * u_q * u_q)
            expo = (c0 + b[0] * xp + b[1] * xq
                    + cc[0, 0] * xp * xp + 2.0 * cc[0, 1] * xp * xq + cc[1, 1] * xq * xq
                    + quad_half_ugu)
            total += (mu / np.sqrt(det)) * np.exp(expo)

    if np.max(np.abs(total.imag)) > 1e-9 * max(1.0, np.max(np.abs(total))):
        raise NumericalError("evolved correlation left an imaginary part")
    return total.real


def _wigner_terms(state: Superposition, model: LindbladModel, t: float):
    """W_t as arrays (mu[K], c0[K], b[K, 2], C[K, 2, 2]) with
    W_t(x) = sum_k mu_k exp(c0_k + b_k . x + x . C_k x): the symplectic
    Fourier transform of each damped, transported chord term."""
    h = state.hbar
    gauss = decoherence_matrix(model, t, hbar=h)
    log_pref = math.log(math.pi) - 2.0 * math.log(2.0 * math.pi * h)
    terms = []
    for mu, c0, b, cmat in _unitary_pair_terms(state, model, t):
        if mu == 0:
            continue
        cc = cmat - gauss.m / h
        cinv = np.linalg.inv(cc)
        cinv = 0.5 * (cinv + cinv.T)
        det_neg = (-cc[0, 0]) * (-cc[1, 1]) - cc[0, 1] * cc[1, 0]
        c0p = c0 - 0.25 * (b @ cinv @ b) + log_pref - 0.5 * np.log(det_neg)
        bp = (-0.5j / h) * (J @ cinv @ b)
        cp = (1.0 / (4.0 * h * h)) * (J @ cinv @ J.T)
        terms.append((mu, c0p, bp, cp))
    return tuple(np.array(column) for column in zip(*terms))


def _axis_factors(b: np.ndarray, c: np.ndarray, x: np.ndarray):
    """exp(b_k x + c_k x^2) on one axis, shape (len(x), K), each column divided
    by its largest modulus so that none overflows; returns the factors and the
    logs of those moduli."""
    expo = np.multiply.outer(x, b) + np.multiply.outer(x * x, c)
    top = expo.real.max(axis=0)
    return np.exp(expo - top), top


def _separable_values(terms, x_p: np.ndarray, x_q: np.ndarray) -> np.ndarray:
    """sum_k on the outer grid x_p x x_q as one product F[Np, K] @ G[K, Nq],
    valid when every C_k is diagonal."""
    mu, c0, b, c = terms
    f, top_p = _axis_factors(b[:, 0], c[:, 0, 0], x_p)
    g, top_q = _axis_factors(b[:, 1], c[:, 1, 1], x_q)
    return (f * (mu * np.exp(c0 + top_p + top_q))) @ g.T


def _dense_values(terms, x_p: np.ndarray, x_q: np.ndarray) -> np.ndarray:
    """sum_k term by term on any broadcastable x_p, x_q."""
    total = np.zeros(np.broadcast(x_p, x_q).shape, dtype=complex)
    for mu, c0, b, c in zip(*terms):
        total += mu * np.exp(c0 + b[0] * x_p + b[1] * x_q
                             + c[0, 0] * x_p * x_p + 2.0 * c[0, 1] * x_p * x_q
                             + c[1, 1] * x_q * x_q)
    return total


def wigner_evolved_values(state: Superposition, model: LindbladModel,
                          x_p, x_q, t: float) -> np.ndarray:
    """W_t(x): symplectic Fourier conjugate of chi_t, term-exact.

    Each chord-term Gaussian transforms in closed form, so the grid only
    samples the result; there is no discrete-transform error.  On an outer
    grid (x_p of shape (Np, 1), x_q of shape (1, Nq)) where no term couples p
    and q (identity frames and diagonal M_t, as for H = 0) the K terms are
    summed as one rank-K matrix product; otherwise term by term.
    """
    _require_nondissipative(model)
    if t < 0:
        raise NegativeTime(f"t = {t}")
    require_normalized(state)
    x_p = np.asarray(x_p, dtype=float)
    x_q = np.asarray(x_q, dtype=float)
    terms = _wigner_terms(state, model, t)
    outer = (x_p.ndim == x_q.ndim == 2 and x_p.shape[1] == 1 and x_q.shape[0] == 1
             and x_p.size > 0 and x_q.size > 0)
    if outer and not np.any(terms[3][:, 0, 1]):
        return _separable_values(terms, x_p[:, 0], x_q[0])
    return _dense_values(terms, x_p, x_q)


@dataclass(frozen=True)
class LineScanSeries:
    """C(xi(s), t) sampled along a chord-space line for a list of times."""

    point: np.ndarray
    direction: np.ndarray  # unit vector
    samples: np.ndarray    # arc-length positions s
    times: Tuple[float, ...]
    values: np.ndarray     # shape (len(times), len(samples))

    def positions(self) -> np.ndarray:
        return self.point[None, :] + self.samples[:, None] * self.direction[None, :]


def scan_line(state: Superposition, model: LindbladModel, line, s_range,
              n_samples: int, times: Sequence[float]) -> LineScanSeries:
    """Sample evolved correlations along a line, one row per requested time."""
    point = as_phase_vector(line[0], "line point")
    direction = as_phase_vector(line[1], "line direction")
    norm = np.hypot(*direction)
    if norm == 0:
        raise ValidationError("line direction must be nonzero")
    direction = direction / norm
    if n_samples < 3:
        raise ValidationError("need at least 3 samples")
    s = np.linspace(float(s_range[0]), float(s_range[1]), int(n_samples))
    pts = point[None, :] + s[:, None] * direction[None, :]

    rows = []
    for t in times:
        rows.append(correlation_evolved_points(state, model, pts, float(t)))
    values = np.array(rows)
    return LineScanSeries(point, direction, s, tuple(float(t) for t in times), values)


@dataclass(frozen=True)
class LiftingResult:
    tau_l: float
    spot: np.ndarray
    delta_series: Tuple[Tuple[float, float], ...]
    criterion: dict


def _refine_extremum(s: np.ndarray, v: np.ndarray, i: int) -> Tuple[float, float]:
    """Parabolic refinement of a sampled extremum at index i."""
    if 0 < i < len(s) - 1:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        if denom != 0:
            delta = 0.5 * (v[i - 1] - v[i + 1]) / denom
            if abs(delta) <= 1.0:
                ds = s[1] - s[0]
                return s[i] + delta * ds, v[i] - 0.25 * (v[i - 1] - v[i + 1]) * delta
    return float(s[i]), float(v[i])


def _row_contrast(s: np.ndarray, v: np.ndarray, s_spot: float):
    """(delta, envelope) for one time row: nearest local minimum vs the linear
    interpolation of its two bracketing local maxima."""
    mins = [i for i in range(1, len(v) - 1) if v[i] <= v[i - 1] and v[i] <= v[i + 1]]
    maxs = [i for i in range(1, len(v) - 1) if v[i] >= v[i - 1] and v[i] >= v[i + 1]]
    if not mins or not maxs:
        return None
    i_min = min(mins, key=lambda i: abs(s[i] - s_spot))
    left = [i for i in maxs if i < i_min]
    right = [i for i in maxs if i > i_min]
    if not left or not right:
        return None
    s_min, v_min = _refine_extremum(s, v, i_min)
    sl, vl = _refine_extremum(s, v, max(left))
    sr, vr = _refine_extremum(s, v, min(right))
    env = vl + (vr - vl) * (s_min - sl) / (sr - sl)
    delta = max(0.0, env - v_min)
    return delta, env, s_min


def lifting_time(series: LineScanSeries, spot, epsilon: float = 1e-3) -> LiftingResult:
    """Earliest time at which the blind-spot minimum merges into its envelope.

    For each sampled time the contrast Delta = envelope - C_min is measured at
    the local minimum nearest the spot; tau_l solves Delta/envelope = epsilon
    by bisection on the (log-linear) interpolant between the bracketing time
    samples.
    """
    spot = as_phase_vector(spot, "spot")
    s = series.samples
    s_spot = float((spot - series.point) @ series.direction)
    if not (s[0] <= s_spot <= s[-1]):
        raise NoMinimum(f"spot projects to s = {s_spot}, outside the scan range")

    ratios = []
    deltas = []
    for row in series.values:
        rc = _row_contrast(s, row, s_spot)
        if rc is None:
            deltas.append(0.0)
            ratios.append(0.0)
            continue
        delta, env, s_min = rc
        deltas.append(delta)
        ratios.append(delta / env if env > 0 else 0.0)

    ds = s[1] - s[0]
    rc0 = _row_contrast(s, series.values[0], s_spot)
    if rc0 is None or abs(rc0[2] - s_spot) > 2.0 * ds:
        raise NoMinimum("the spot is not a local minimum of the first time row")

    times = np.asarray(series.times)
    ratios = np.asarray(ratios)
    if ratios[-1] >= epsilon:
        raise NeverLifted(
            f"contrast ratio {ratios[-1]:.3e} at t = {times[-1]} still above {epsilon}")

    crit = {"epsilon": epsilon, "envelope": "adjacent-local-maxima-linear"}
    delta_series = tuple((float(t), float(d)) for t, d in zip(times, deltas))
    below = np.nonzero(ratios < epsilon)[0]
    k = int(below[0])
    if k == 0:
        return LiftingResult(float(times[0]), spot, delta_series, crit)

    # bisection on the log-linear interpolant between the bracketing samples
    t_lo, t_hi = float(times[k - 1]), float(times[k])
    r_lo = math.log(max(ratios[k - 1], 1e-320))
    r_hi = math.log(max(ratios[k], 1e-320))
    target = math.log(epsilon)
    while (t_hi - t_lo) > 1e-3 * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        r_mid = r_lo + (r_hi - r_lo) * (mid - float(times[k - 1])) / (float(times[k]) - float(times[k - 1]))
        if r_mid < target:
            t_hi = mid
        else:
            t_lo = mid
    return LiftingResult(t_hi, spot, delta_series, crit)


HUSIMI_DET = 1.0 / 16.0
_HUSIMI_DOUBLINGS = 16
_HUSIMI_PRECISION = 1e-12


def _bisect_earliest(holds, lo: float, hi: float, rel_precision: float) -> float:
    """Earliest t in (lo, hi] with holds(t) to rel_precision relative, given
    holds(hi), not holds(lo) and a single switch in between."""
    while (hi - lo) > rel_precision * hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def husimi_time(model: LindbladModel) -> float:
    """Earliest t with det M_t >= 1/16 (the Husimi bound), or inf if none is found.

    A pure Gaussian state has chord function exp(-xi . G xi / 4 hbar) with
    det G = 1.  Once det M_t >= 1/16, M_t - G/4 is positive semidefinite for
    some such G, so W_t is a Husimi function smoothed further by a positive
    Gaussian and cannot be negative, whatever the initial pure state.  For
    H = 0 the bound is 1/(2 sqrt(det C)); otherwise M_t only grows, so it is
    bracketed by doubling and bisected to 1e-12 relative.  When det M_t stays
    below 1/16 (a single coupling that the Hamiltonian does not mix) the
    result is inf.
    """
    _require_nondissipative(model)
    c = model.coupling_matrix()
    if not np.any(model.hamiltonian):
        det_c = float(np.linalg.det(c))
        return 1.0 / (2.0 * math.sqrt(det_c)) if det_c > 0 else math.inf
    if not np.any(c):
        return math.inf

    def reached(t: float) -> bool:
        return float(np.linalg.det(decoherence_matrix(model, t).m)) >= HUSIMI_DET

    lo, hi = 0.0, 1.0 / float(np.trace(c))
    for _ in range(_HUSIMI_DOUBLINGS):
        if reached(hi):
            return _bisect_earliest(reached, lo, hi, _HUSIMI_PRECISION)
        lo, hi = hi, 2.0 * hi
    return math.inf


def _auto_wigner_box(state: Superposition, t_max: float, gauss_end: DecoherenceGaussian):
    centers = state.centers
    pad = 8.0 * math.sqrt(state.hbar / min(g.width.real for g in state.states))
    sig = smoothing_covariance(gauss_end)
    # Wigner smoothing covariance is one quarter of the correlation one
    pad += 4.0 * math.sqrt(max(1e-300, float(np.linalg.eigvalsh(sig).max())) / 4.0)
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    return ((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])))


def _wigner_extrema(state, model, window, shape, t) -> Tuple[float, float]:
    ap, aq = grid_axes(window, shape)
    w = wigner_evolved_values(state, model, ap[:, None], aq[None, :], t).real
    i, j = np.unravel_index(np.argmin(w), w.shape)
    w_min = float(w[i, j])
    if 0 < i < w.shape[0] - 1 and 0 < j < w.shape[1] - 1:
        _, w_min_p = _refine_extremum(ap, w[:, j], i)
        _, w_min_q = _refine_extremum(aq, w[i, :], j)
        w_min = min(w_min, w_min_p, w_min_q)
    return w_min, float(w.max())


def _interference_damping_time(state: Superposition, model: LindbladModel) -> float:
    """Time by which the slowest-damped interference term of W_t falls below
    double-precision round-off, exp(-xi . M_t xi / hbar) < eps at its chord xi."""
    h = state.hbar
    m1 = decoherence_matrix(model, 1.0, hbar=h).m
    centers = state.centers
    rates = [2.0 * float(xi @ m1 @ xi) / h
             for i in range(len(centers)) for xi in centers[i + 1:] - centers[i]]
    positive = [r for r in rates if r > 0]
    if not positive:
        return 1.0
    return -2.0 * math.log(np.finfo(float).eps) / min(positive)


def positivity_time(state: Superposition, model: LindbladModel, window=None,
                    shape=None, t_max: float | None = None, tol: float = 0.0,
                    rel_precision: float = 1e-3) -> float:
    """Earliest t with W_t >= 0, bisected to rel_precision relative.

    W_t is the term-exact Fourier conjugate of chi_t sampled on a grid
    covering the state; positivity is the sign of min W_t + tol * max W_t,
    with grid extrema refined parabolically, so the default tol = 0 is a
    plain sign test.  The automatic upper bracket is the Husimi bound
    husimi_time(model): from there on W_t >= 0 is a theorem, so it is not
    evaluated (W_t has exact zeros there, which round-off can turn negative).
    A t_max below the bound must give W_t >= 0 or NeverPositive is raised; a
    larger one is replaced by the bound.  Without a Husimi bound the bracket
    starts at the time every interference term is damped below round-off and
    grows up to 8 times by a factor 1.6 before NeverPositive is raised.
    """
    _require_nondissipative(model)
    require_normalized(state)
    h = state.hbar

    t_husimi = husimi_time(model)
    grow = 0
    if t_max is not None and t_max < t_husimi:
        hi = float(t_max)
    elif math.isfinite(t_husimi):
        hi = t_husimi
    else:
        hi, grow = _interference_damping_time(state, model), 8

    gauss_end = decoherence_matrix(model, hi, hbar=h)
    if window is None:
        window = _auto_wigner_box(state, hi, gauss_end)
    if shape is None:
        dmax = 0.0
        centers = state.centers
        for i in range(len(centers)):
            for j in range(len(centers)):
                dmax = max(dmax, float(np.hypot(*(centers[i] - centers[j]))))
        lam = 2.0 * math.pi * h / max(dmax, math.sqrt(h))
        step = lam / 8.0
        shape = (int(math.ceil((window[0][1] - window[0][0]) / step)) + 1,
                 int(math.ceil((window[1][1] - window[1][0]) / step)) + 1)

    def deficit(t: float) -> float:
        w_min, w_max = _wigner_extrema(state, model, window, shape, t)
        return w_min + tol * w_max

    if deficit(0.0) >= 0:
        return 0.0
    if hi < t_husimi:
        while deficit(hi) < 0:
            if grow == 0:
                raise NeverPositive(f"Wigner function still negative at t_max = {hi}")
            hi *= 1.6
            grow -= 1

    return _bisect_earliest(lambda t: deficit(t) >= 0, 0.0, hi, rel_precision)


@dataclass(frozen=True)
class LiftingRatioResult:
    tau_l: float
    t_p: float
    ratio: float
    area: float
    spot: np.ndarray


def lifting_ratio(state: Superposition, model: LindbladModel, *,
                  spot=None, line=None, s_halfwidth: float | None = None,
                  n_samples: int = 1201, times: Sequence[float] | None = None,
                  epsilon: float = 1e-3, t_max: float | None = None,
                  pos_tol: float = 0.0) -> LiftingRatioResult:
    """End-to-end tau_l, t_p and the dimensional ratio tau_l A / (hbar t_p).

    The state must be a triplet with non-collinear centers; A is the area of
    the center triangle.  Defaults scan through the blind spot nearest the
    origin along the line joining it to the origin.  t_p is positivity_time
    with tol = pos_tol: by default the earliest t with W_t >= 0, bracketed by
    the Husimi bound when the model has one.
    """
    from .spots import DiffractionModel, hexagonal_lattice, newton_refine

    if len(state) != 3:
        raise ValidationError("lifting_ratio expects a three-state superposition")
    centers = state.centers
    area = 0.5 * abs(skew(centers[1] - centers[0], centers[2] - centers[0]))
    if area <= 0:
        raise ValidationError("triplet centers are collinear")

    if spot is None:
        lattice = hexagonal_lattice(DiffractionModel.from_superposition(state))
        node = lattice.first_shell(1)[0]
        spot = newton_refine(state, node.xi).xi
    spot = as_phase_vector(spot, "spot")

    if line is None:
        line = (np.zeros(2), spot / np.hypot(*spot))
    if s_halfwidth is None:
        s_halfwidth = 2.6 * np.hypot(*spot)

    h = state.hbar
    if times is None:
        gauss1 = decoherence_matrix(model, 1.0, hbar=h)
        sigma1 = smoothing_covariance(gauss1)
        direction = np.asarray(line[1], dtype=float)
        direction = direction / np.hypot(*direction)
        sig_line = float(direction @ sigma1 @ direction)
        spacing = float(np.hypot(*spot))
        k = 2.0 * math.pi / spacing
        t_star = 2.0 * math.log(2.0 / epsilon) / (k * k * sig_line)
        times = np.geomspace(0.03 * t_star, 5.0 * t_star, 15)
        times = np.concatenate([[0.0], times])

    series = scan_line(state, model, line, (-s_halfwidth, s_halfwidth),
                       n_samples, times)
    lift = lifting_time(series, spot, epsilon)
    t_p = positivity_time(state, model, t_max=t_max, tol=pos_tol)
    ratio = lift.tau_l * area / (h * t_p)
    return LiftingRatioResult(lift.tau_l, t_p, ratio, area, spot)
