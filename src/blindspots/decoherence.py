"""Markovian decoherence of chord functions and phase-space correlations.

For a quadratic Hamiltonian (Weyl symbol x.H.x) and linear Lindblad couplings
L_j(x) = (l'_j + i l''_j).x with vanishing dissipation alpha = sum skew(l'', l'),
the chord function evolves as a product

    chi_t(xi) = chi_0(R_{-t} xi) * exp(-xi . M_t xi / hbar),

where R_t = exp(2 J H t) is the classical flow and M_t solves

    dM/dt = 2 (H J M - M J H) + (1/2) sum_j (l' l'^T + l'' l''^T),  M_0 = 0,

that is M_t = (1/2) int_0^t R_{-s}^T C R_{-s} ds, which is integrated exactly
(cos/sin, polynomial or exponential in t).  What does not depend on t (alpha,
C = sum_j (l' l'^T + l'' l''^T), A = 2 J H and det A) is derived once per
LindbladModel, on first use, and kept read-only; M_t and R_t are per call.

The correlation C(xi, t) = F[|chi_t|^2] is then the pure-state correlation
convolved with a normalized Gaussian of covariance -4 hbar J M_t J; both the
correlation and the evolving Wigner function stay finite sums of complex
Gaussians, evaluated here in closed form.  The chord terms are held as arrays
(mu, c0, b, C); the flow transports them, M_t damps them (C - M_t / hbar),
and the symplectic Fourier map takes them (for W_t), or all pairs of them
(for C), to new arrays of the same form, which chord.gaussian_sum evaluates.

For C the K^2 pairs need not be formed one by one when every damped term has
the same quadratic part C (identity frames under any H and couplings, since
transport and damping keep equal C equal).  With S = (C + C*)^-1 the Fourier
exponent of pair (k, l) is A_k(x) + B_l(x) + Gamma_kl + g(x), so the sum is
the bilinear form e^g u.(W v) with u = mu e^A, v = mu* e^B and W = e^Gamma:
K exps per point and one matrix product instead of K^2 exps per point.  It is
used only while every real part of A, B, Gamma and g lies within +-230, where
no product of three factors overflows or turns subnormal; otherwise (small
hbar with far centers, far points, or unequal quadratic parts as for squeezed
frames) the K^2 pair terms are mapped and summed as before.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
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
from .chord import (
    fourier_terms,
    gaussian_gradient,
    gaussian_sum,
    require_normalized,
)
from .fields import MAX_GRID_CELLS, FieldGrid, fourier_2d, grid_axes, require_adequate
from .geometry import J, as_phase_vector, skew
from .spots import DiffractionModel, hexagonal_lattice, newton_refine
from .states import Superposition

ALPHA_TOL = 1e-12

logger = logging.getLogger(__name__)


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

    @cached_property
    def alpha(self) -> float:
        """sum_j skew(l''_j, l'_j), the dissipation coefficient."""
        return float(sum(skew(c.imag, c.real) for c in self.couplings))

    @cached_property
    def coupling_matrix(self) -> np.ndarray:
        """C = sum_j (l' l'^T + l'' l''^T), the positive-semidefinite diffusion form."""
        total = np.zeros((2, 2))
        for c in self.couplings:
            total += np.outer(c.real, c.real) + np.outer(c.imag, c.imag)
        total.setflags(write=False)
        return total

    @cached_property
    def generator(self) -> np.ndarray:
        """A = 2 J H, so that R_t = exp(A t)."""
        a = 2.0 * (J @ self.hamiltonian)
        a.setflags(write=False)
        return a

    @cached_property
    def generator_det(self) -> float:
        a = self.generator
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])


def _require_nondissipative(model: LindbladModel):
    if abs(model.alpha) > ALPHA_TOL:
        raise DissipativeUnsupported(f"dissipation coefficient alpha = {model.alpha}; "
                                     "only alpha = 0 evolution is supported")


def propagator_matrix(hamiltonian, t: float) -> np.ndarray:
    """R_t = exp(2 J H t) in closed form (elliptic/hyperbolic/parabolic)."""
    if not np.isfinite(t):
        raise ValidationError("time must be finite")
    return _propagator(2.0 * (J @ np.asarray(hamiltonian, dtype=float)), t)


def _propagator(a: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) for a traceless 2x2 generator A and a finite t; NumericalError
    once a hyperbolic flow overflows."""
    m = a * t                     # traceless, so m @ m = -det(m) * I
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if d > 1e-24:
        s = math.sqrt(d)
        return math.cos(s) * np.eye(2) + (math.sin(s) / s) * m
    if d < -1e-24:
        s = math.sqrt(-d)
        try:
            return math.cosh(s) * np.eye(2) + (math.sinh(s) / s) * m
        except OverflowError:
            raise NumericalError(f"R_t overflows at t = {t}") from None
    return np.eye(2) + m


@dataclass(frozen=True)
class DecoherenceGaussian:
    """Calibrated Gaussian decoherence factor exp(-xi . M xi / hbar), with det M."""

    m: np.ndarray
    det: float


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


def _hyperbolic_m(a: np.ndarray, c: np.ndarray, kappa: float,
                  t: float) -> Tuple[np.ndarray, float]:
    """M_t and det M_t for eigenvalues +-kappa of A: R_{-s} = e^{-kappa s} P+
    + e^{kappa s} P- with P+- = (I +- A/kappa)/2, integrated piece by piece.
    The cosh/sinh form would cancel two terms of size e^{2 kappa t} whenever
    the growing piece P-^T C P- vanishes.

    With the rank-one pieces D = P+^T C P+ and G = P-^T C P- and the mixed
    S = P+^T C P- + P-^T C P+, M_t = (decay D + rate G + t S) / 2.  In the
    eigenbasis of A, D and G are diagonal and S is off-diagonal, so
    det M_t = (decay rate tr(adj(D) G) + t^2 det S) / 4.  The determinant of
    the assembled M_t, nearly rank one once kappa t is large, would cancel."""
    p_plus = 0.5 * (np.eye(2) + a / kappa)
    p_minus = np.eye(2) - p_plus
    decaying = p_plus.T @ c @ p_plus
    growing = p_minus.T @ c @ p_minus
    mixed = p_plus.T @ c @ p_minus
    decay = -math.expm1(-2.0 * kappa * t) / (2.0 * kappa)
    sym = mixed + mixed.T
    m = 0.5 * (decay * decaying + t * sym)
    det = (0.5 * t) ** 2 * (sym[0, 0] * sym[1, 1] - sym[0, 1] * sym[1, 0])
    if np.any(growing):
        try:
            rate = math.expm1(2.0 * kappa * t) / (2.0 * kappa)
        except OverflowError:
            raise NumericalError(f"M_t overflows at t = {t}") from None
        with np.errstate(over="ignore"):
            m = m + 0.5 * rate * growing
            det += 0.25 * decay * rate * (decaying[0, 0] * growing[1, 1]
                                          + decaying[1, 1] * growing[0, 0]
                                          - decaying[0, 1] * growing[1, 0]
                                          - decaying[1, 0] * growing[0, 1])
    return m, float(det)


def decoherence_matrix(model: LindbladModel, t: float) -> DecoherenceGaussian:
    """M_t = (1/2) int_0^t R_{-s}^T C R_{-s} ds in closed form.

    A = 2 J H is traceless, so R_{-s} = exp(-A s) = c(s) I - S(s) A and

        M_t = (1/2) [int c^2 C - int c S (A^T C + C A) + int S^2 A^T C A]

    with scalar integrals in x = -4 t^2 det A (elliptic, parabolic,
    near-parabolic; see _flow_integrals).  A hyperbolic flow with x >= 1 is split
    into its spectral projectors instead, so that a coupling along the stable
    direction gives a bounded M_t at every t, and det M_t is taken from those
    pieces.  For H = 0 the Gaussian factor solves the chord master equation
    exactly: M_t = (t/2) C.  A t at which M_t overflows raises NumericalError.
    C, A and det A are the model's, derived once.
    """
    _require_nondissipative(model)
    if not math.isfinite(t):
        raise ValidationError("time must be finite")
    if t < 0:
        raise NegativeTime(f"t = {t}")
    if t == 0:
        return DecoherenceGaussian(np.zeros((2, 2)), 0.0)
    c, a, d = model.coupling_matrix, model.generator, model.generator_det
    x = -4.0 * d * t * t
    det = None
    if x >= _SERIES_X:
        m, det = _hyperbolic_m(a, c, math.sqrt(-d), t)
    else:
        i_cc, i_cs, i_ss = _flow_integrals(x, t)
        ac = a.T @ c
        m = 0.5 * (i_cc * c - i_cs * (ac + ac.T) + i_ss * (ac @ a))
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"M_t overflows at t = {t}")
    m = 0.5 * (m + m.T)
    if det is None:
        det = float(np.linalg.det(m))
    return DecoherenceGaussian(m, det)


def _damped_terms(state: Superposition, model: LindbladModel, t: float):
    """chi_t as terms: the state's chord terms (mu[K], c0[K], b[K, 2],
    C[K, 2, 2]) transported by the classical flow R_{-t}, with C' - M_t / hbar,
    after the checks that every evolved quantity needs (decoherence_matrix
    checks the model and t).  NumericalError once the transported b or C
    overflows, as under a hyperbolic flow at large t."""
    m = decoherence_matrix(model, t).m
    require_normalized(state)
    r_back = _propagator(-model.generator, t)
    mu, c0, b, c = state.chord_terms
    with np.errstate(over="ignore", invalid="ignore"):
        b, c = b @ r_back, r_back.T @ c @ r_back
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise NumericalError(f"R_t overflows the chord terms at t = {t}")
    return mu, c0, b, c - m / state.hbar


def evolved_chord(state: Superposition, model: LindbladModel, xi, t: float) -> complex:
    """chi_t(xi) = chi_0(R_{-t} xi) exp(-xi . M_t xi / hbar)."""
    xi = as_phase_vector(xi, "xi")
    return complex(gaussian_sum(_damped_terms(state, model, t), xi[0], xi[1]))


def evolved_chord_gradient(state: Superposition, model: LindbladModel, xi,
                           t: float) -> np.ndarray:
    """Analytic (d chi_t/d xi_p, d chi_t/d xi_q) for master-equation residuals."""
    return gaussian_gradient(_damped_terms(state, model, t), as_phase_vector(xi, "xi"))


def evolved_chord_grid(state: Superposition, model: LindbladModel, window, shape,
                       t: float) -> FieldGrid:
    ap, aq = grid_axes(window, shape)
    terms = _damped_terms(state, model, t)
    return FieldGrid(window, shape, gaussian_sum(terms, ap[:, None], aq[None, :]), "chord")


def evolved_correlation(state: Superposition, model: LindbladModel, window, shape,
                        t: float) -> FieldGrid:
    """C(xi, t) = F[|chi_t|^2] on the grid; at t = 0 this is the pure correlation."""
    grid = evolved_chord_grid(state, model, window, shape, t)
    sq = np.abs(grid.values) ** 2
    require_adequate(sq)
    return fourier_2d(FieldGrid(window, shape, sq, "correlation"), state.hbar)


# -- closed-form Gaussian algebra ----------------------------------------------

def smoothing_covariance(m: np.ndarray, hbar: float) -> np.ndarray:
    """Covariance of the correlation-smoothing kernel: -4 hbar J M J."""
    return -4.0 * hbar * (J @ m @ J)


# The folded sum's factors e^A, e^B, e^Gamma and e^g are formed only when the
# real part of every exponent lies within +-230: then no product of three of
# them overflows or turns subnormal (exp(+-690) against the double limits
# exp(+-708)).
_FOLD_EXPONENT_LIMIT = 230.0
_FOLD_BLOCK = 512  # points per block, so the (points, K) factor arrays stay small


def _folded_sum(mu, c0, b, c, pts: np.ndarray, hbar: float):
    """F[|chi_t|^2] / (2 pi hbar) at pts for damped terms (mu, c0, b) that share
    one quadratic part c, as a bilinear form, and the largest |real part| of
    its exponents; None in place of the values once that exceeds the limit.

    With S = (C + C*)^-1, the Fourier exponent of pair (k, l) splits into
    A_k(x) + B_l(x) + Gamma_kl + g(x), where
        A_k = c0_k - b_k.S b_k / 4 - (i / 2 hbar) (J S b_k).x,
        B_l = c0_l* - b_l*.S b_l* / 4 - (i / 2 hbar) (J S b_l*).x = A_l(-x)*,
        Gamma_kl = -b_k.S b_l* / 2,
        g = log(pi / (2 pi hbar)^2) - log det(-(C + C*)) / 2 + x.C'x,
    C' = J S J^T / (4 hbar^2), so the sum is e^g sum_k u_k (W v)_k with
    u = mu e^A, v = mu* e^B and W = e^Gamma.  Writing A = a0 + xa, where xa is
    the part linear in x, gives u = mu e^{a0} e^{xa} and v = (mu e^{a0} / e^{xa})*:
    K exps per point instead of K^2, and the K x K sum is one matrix product.
    """
    q = 2.0 * c.real
    s = np.linalg.inv(q)
    s = 0.5 * (s + s.T)
    sb = b @ s                                   # rows (S b_k)^T
    a0 = c0 - 0.25 * np.sum(b * sb, axis=1)
    a1 = (-0.5j / hbar) * (sb @ J.T)             # rows -(i / 2 hbar) J S b_k
    gamma = -0.5 * (sb @ np.conj(b).T)
    g0 = (math.log(math.pi) - 2.0 * math.log(2.0 * math.pi * hbar)
          - 0.5 * math.log(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]))
    cq = (J @ s @ J.T) / (4.0 * hbar * hbar)

    # |Re a0| = |Re A_k + Re B_k| / 2 at any x, so this bound adds no constraint
    guard = max(float(np.max(np.abs(gamma.real))), float(np.max(np.abs(a0.real))))
    if guard > _FOLD_EXPONENT_LIMIT:
        return None, guard
    w_t = np.exp(gamma).T
    m0 = mu * np.exp(a0)
    out = np.empty(len(pts), dtype=complex)
    for start in range(0, len(pts), _FOLD_BLOCK):
        x = pts[start:start + _FOLD_BLOCK]
        xa = x @ a1.T
        g = g0 + np.sum((x @ cq) * x, axis=1)
        # Re A = Re a0 + Re xa and Re B = Re a0 - Re xa, so max(|Re A|, |Re B|)
        # is |Re a0| + |Re xa|
        guard = max(guard, float(np.max(np.abs(a0.real) + np.abs(xa.real))),
                    float(np.max(np.abs(g))))
        if guard > _FOLD_EXPONENT_LIMIT:
            return None, guard
        e = np.exp(xa)
        u = m0 * e
        v = np.conj(m0 / e)
        out[start:start + len(x)] = np.exp(g) * np.sum(u * (v @ w_t), axis=1)
    return out, guard


def correlation_evolved_points(state: Superposition, model: LindbladModel,
                               points: np.ndarray, t: float) -> np.ndarray:
    """C(xi, t) = F[|chi_t|^2] at arbitrary chord points, in closed form.

    |chi_t|^2 is a sum over all pairs (k, l) of damped chord terms of
    mu_k mu_l* exp(E_k + E_l*), again a Gaussian sum.  When every damped term
    has the same quadratic part, _folded_sum takes its symplectic Fourier
    transform (divided by 2 pi hbar) as a bilinear form; otherwise, or when
    its guard declines, fourier_terms maps all K^2 pairs and gaussian_sum adds
    them.  One DEBUG record on the "blindspots" logger names the path, K, the
    number of points and the largest guard exponent (nan if none was formed).
    """
    mu, c0, b, c = _damped_terms(state, model, t)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    h = state.hbar

    total, guard = None, math.nan
    if np.all(c == c[0]):
        total, guard = _folded_sum(mu, c0, b, c[0], pts, h)
    path = "folded"
    if total is None:
        path = "per-term"
        # all K^2 pairs, not half of them: the imaginary-part check below relies
        # on conjugate pairs cancelling, which a wrong branch of sqrt(det C) would break
        mu2 = np.multiply.outer(mu, np.conj(mu)).ravel()
        keep = mu2 != 0
        pairs = (mu2[keep], np.add.outer(c0, np.conj(c0)).ravel()[keep],
                 (b[:, None] + np.conj(b)[None, :]).reshape(-1, 2)[keep],
                 (c[:, None] + np.conj(c)[None, :]).reshape(-1, 2, 2)[keep])
        total = gaussian_sum(fourier_terms(pairs, h), pts[:, 0], pts[:, 1])
    logger.debug("correlation_evolved_points: %s, K = %d, N = %d, largest guard exponent %.4g",
                 path, len(mu), len(pts), guard)
    total = 2.0 * math.pi * h * total

    if np.max(np.abs(total.imag)) > 1e-9 * max(1.0, np.max(np.abs(total))):
        raise NumericalError("evolved correlation left an imaginary part")
    return total.real


def wigner_evolved_values(state: Superposition, model: LindbladModel,
                          x_p, x_q, t: float) -> np.ndarray:
    """W_t(x): symplectic Fourier conjugate of chi_t, term-exact.

    Each chord-term Gaussian transforms in closed form (fourier_terms), so
    the grid only samples the result; there is no discrete-transform error.
    """
    return gaussian_sum(fourier_terms(_damped_terms(state, model, t), state.hbar), x_p, x_q)


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

    times = tuple(float(t) for t in times)
    values = np.array([correlation_evolved_points(state, model, pts, t) for t in times])
    return LineScanSeries(point, direction, s, times, values)


@dataclass(frozen=True)
class LiftingResult:
    tau_l: float
    spot: np.ndarray
    delta_series: Tuple[Tuple[float, float], ...]


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
    inner = v[1:-1]
    mins = np.nonzero((inner <= v[:-2]) & (inner <= v[2:]))[0] + 1
    maxs = np.nonzero((inner >= v[:-2]) & (inner >= v[2:]))[0] + 1
    if not len(mins) or not len(maxs):
        return None
    i_min = int(mins[np.argmin(np.abs(s[mins] - s_spot))])
    # maxs is sorted: the last one below i_min and the first one above it
    left = np.searchsorted(maxs, i_min, side="left")
    right = np.searchsorted(maxs, i_min, side="right")
    if left == 0 or right == len(maxs):
        return None
    s_min, v_min = _refine_extremum(s, v, i_min)
    sl, vl = _refine_extremum(s, v, int(maxs[left - 1]))
    sr, vr = _refine_extremum(s, v, int(maxs[right]))
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

    contrasts = [_row_contrast(s, row, s_spot) for row in series.values]
    rc0 = contrasts[0]
    if rc0 is None or abs(rc0[2] - s_spot) > 2.0 * (s[1] - s[0]):
        raise NoMinimum("the spot is not a local minimum of the first time row")

    times = np.asarray(series.times)
    deltas = [0.0 if rc is None else rc[0] for rc in contrasts]
    ratios = np.array([rc[0] / rc[1] if rc is not None and rc[1] > 0 else 0.0 for rc in contrasts])
    if ratios[-1] >= epsilon:
        raise NeverLifted(
            f"contrast ratio {ratios[-1]:.3e} at t = {times[-1]} still above {epsilon}")

    delta_series = tuple((float(t), float(d)) for t, d in zip(times, deltas))
    k = int(np.nonzero(ratios < epsilon)[0][0])
    if k == 0:
        return LiftingResult(float(times[0]), spot, delta_series)

    # bisection on the log-linear interpolant between the bracketing samples
    t_lo, t_hi = float(times[k - 1]), float(times[k])
    r_lo = math.log(max(ratios[k - 1], 1e-320))
    r_hi = math.log(max(ratios[k], 1e-320))
    target = math.log(epsilon)
    tau_l = _bisect_earliest(lambda t: r_lo + (r_hi - r_lo) * (t - t_lo) / (t_hi - t_lo) < target,
                             t_lo, t_hi, 1e-3)
    return LiftingResult(tau_l, spot, delta_series)


HUSIMI_DET = 1.0 / 16.0
_HUSIMI_DOUBLINGS = 16
_HUSIMI_PRECISION = 1e-12
_POSITIVITY_PRECISION = 1e-3  # relative precision of positivity_time's grid bisection


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
    H = 0 the bound is 1/(2 sqrt(det C)).  A rank-one C = v v^T whose v is an
    eigenvector of A^T = (2 J H)^T keeps M_t along v v^T, so det M_t = 0 at
    every t and the result is inf.  Otherwise M_t only grows: it is bracketed
    by doubling from min(1/tr C, 1/sqrt|det A|), which finds the bracket
    before a hyperbolic M_t overflows, up to 2^16 / tr C, and bisected to
    1e-12 relative.
    """
    _require_nondissipative(model)
    c = model.coupling_matrix
    if not np.any(model.hamiltonian):
        det_c = float(np.linalg.det(c))
        return 1.0 / (2.0 * math.sqrt(det_c)) if det_c > 0 else math.inf
    if not np.any(c):
        return math.inf
    a = model.generator
    spread, frame = np.linalg.eigh(c)
    if spread[0] <= 1e-12 * spread[1]:
        v = frame[:, 1]
        if abs(skew(a.T @ v, v)) <= 1e-12 * np.max(np.abs(a)):
            return math.inf

    def reached(t: float) -> bool:
        return decoherence_matrix(model, t).det >= HUSIMI_DET

    start = 1.0 / float(np.trace(c))
    det_a = abs(float(np.linalg.det(a)))
    lo, hi = 0.0, (min(start, 1.0 / math.sqrt(det_a)) if det_a > 0 else start)
    while hi < start * 2.0 ** _HUSIMI_DOUBLINGS:
        if reached(hi):
            return _bisect_earliest(reached, lo, hi, _HUSIMI_PRECISION)
        lo, hi = hi, 2.0 * hi
    return math.inf


def _auto_wigner_box(state: Superposition, m_end: np.ndarray):
    centers = state.centers
    pad = 8.0 * math.sqrt(state.hbar / min(g.width.real for g in state.states))
    sig = smoothing_covariance(m_end, state.hbar)
    # Wigner smoothing covariance is one quarter of the correlation one
    pad += 4.0 * math.sqrt(max(1e-300, float(np.linalg.eigvalsh(sig).max())) / 4.0)
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    return ((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])))


def _wigner_minimum(state, model, window, shape, t) -> float:
    """min W_t on the grid, refined parabolically along both axes."""
    ap, aq = grid_axes(window, shape)
    w = wigner_evolved_values(state, model, ap[:, None], aq[None, :], t).real
    i, j = np.unravel_index(np.argmin(w), w.shape)
    w_min = float(w[i, j])
    if 0 < i < w.shape[0] - 1 and 0 < j < w.shape[1] - 1:
        _, w_min_p = _refine_extremum(ap, w[:, j], i)
        _, w_min_q = _refine_extremum(aq, w[i, :], j)
        w_min = min(w_min, w_min_p, w_min_q)
    return w_min


def _interference_damping_time(state: Superposition, model: LindbladModel) -> float:
    """Time by which the slowest-damped interference term of W_t falls below
    double-precision round-off, exp(-xi . M_t xi / hbar) < eps at its chord xi."""
    h = state.hbar
    m1 = decoherence_matrix(model, 1.0).m
    centers = state.centers
    rates = [2.0 * float(xi @ m1 @ xi) / h
             for i in range(len(centers)) for xi in centers[i + 1:] - centers[i]]
    positive = [r for r in rates if r > 0]
    if not positive:
        return 1.0
    return -2.0 * math.log(np.finfo(float).eps) / min(positive)


_SAME_GAUSSIAN = 1e-12  # round-off allowed: centres in units of sqrt(hbar), widths relatively


def _is_gaussian(state: Superposition) -> bool:
    """Whether all terms of nonzero amplitude share one centre and one width."""
    kept = [g for a, g in state.terms if a != 0]
    centers = np.array([g.center for g in kept])
    widths = np.array([g.width for g in kept])
    return bool(np.all(np.abs(centers - centers[0]) <= _SAME_GAUSSIAN * math.sqrt(state.hbar))
                and np.all(np.abs(widths - widths[0]) <= _SAME_GAUSSIAN * abs(widths[0])))


def positivity_time(state: Superposition, model: LindbladModel) -> float:
    """Earliest t with W_t >= 0: 0 for a Gaussian state, else t_H = husimi_time(model)
    if finite, else bisected on Wigner grids to 1e-3 relative.

    W_t >= 0 from t_H on and W_t only smooths as t grows, so t_p <= t_H.  W_{t_H}
    is a Husimi function, which has zeros unless the state is Gaussian (Hudson,
    Rep. Math. Phys. 6, 249 (1974)), and just before t_H the sharper kernel
    makes each zero a negative dip (Diosi & Kiefer, J. Phys. A 35, 2675 (2002)):
    t_p = t_H for every other pure state, and nothing is evaluated.  Gaussian
    means one centre and one width to 1e-12 (_is_gaussian).

    Without a Husimi bound the sign of min W_t on a grid covering the state
    (steps of 1/8 of the shortest fringe period, minima refined parabolically)
    is bisected in t.  The bracket starts at the time every interference term
    is damped below round-off and grows up to 8 times by a factor 1.6 before
    NeverPositive is raised.  A grid of more than MAX_GRID_CELLS cells raises
    NumericalError before it is evaluated.  One DEBUG record on the
    "blindspots" logger names the path: gaussian, theorem or grid.
    """
    t_husimi = husimi_time(model)  # rejects a dissipative model
    require_normalized(state)
    if _is_gaussian(state):
        logger.debug("positivity_time: gaussian, t_H = %r", t_husimi)
        return 0.0
    if math.isfinite(t_husimi):
        logger.debug("positivity_time: theorem, t_H = %r", t_husimi)
        return t_husimi

    h = state.hbar
    hi = _interference_damping_time(state, model)
    window = _auto_wigner_box(state, decoherence_matrix(model, hi).m)
    centers = state.centers
    dmax = float(np.max(np.hypot(*(centers[:, None] - centers[None, :]).T)))
    step = 2.0 * math.pi * h / max(dmax, math.sqrt(h)) / 8.0
    shape = (int(math.ceil((window[0][1] - window[0][0]) / step)) + 1,
             int(math.ceil((window[1][1] - window[1][0]) / step)) + 1)
    if shape[0] * shape[1] > MAX_GRID_CELLS:
        raise NumericalError(f"positivity grid {shape[0]} x {shape[1]} exceeds "
                             f"{MAX_GRID_CELLS} cells")

    evaluations = 0

    def positive(t: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return _wigner_minimum(state, model, window, shape, t) >= 0

    t_p = 0.0
    if not positive(0.0):
        grow = 8
        while not positive(hi):
            if grow == 0:
                raise NeverPositive(f"Wigner function still negative at t = {hi}")
            hi *= 1.6
            grow -= 1
        t_p = _bisect_earliest(positive, 0.0, hi, _POSITIVITY_PRECISION)
    logger.debug("positivity_time: grid, t_H = %r, window = %s, shape = %s, %d evaluations",
                 t_husimi, window, shape, evaluations)
    return t_p


@dataclass(frozen=True)
class LiftingRatioResult:
    tau_l: float
    t_p: float
    ratio: float
    area: float
    spot: np.ndarray


def _triangle_area(state: Superposition) -> float:
    centers = state.centers
    return 0.5 * abs(skew(centers[1] - centers[0], centers[2] - centers[0]))


def triplet_timescales(state: Superposition, model: LindbladModel, series: LineScanSeries,
                       spot, epsilon: float) -> LiftingRatioResult:
    """tau_l of series at spot, t_p = positivity_time and tau_l A / (hbar t_p),
    with A the area of the triplet's center triangle."""
    lift = lifting_time(series, spot, epsilon)
    t_p = positivity_time(state, model)
    area = _triangle_area(state)
    return LiftingRatioResult(lift.tau_l, t_p, lift.tau_l * area / (state.hbar * t_p), area,
                              lift.spot)


def lifting_ratio(state: Superposition, model: LindbladModel, *,
                  n_samples: int = 1201, times: Sequence[float] | None = None
                  ) -> LiftingRatioResult:
    """End-to-end tau_l, t_p and the dimensional ratio tau_l A / (hbar t_p).

    The state must be a triplet with non-collinear centers; A is the area of
    the center triangle.  The scan runs through the Newton-refined blind spot
    nearest the origin, along the line joining it to the origin, over
    +-2.6 |spot|, and tau_l is taken at contrast ratio epsilon = 1e-3.  The
    default times are 0 and 15 log-spaced times from 0.03 to 5 t*, where t*
    smooths the fringe of the spot's spacing down to epsilon.  t_p is
    positivity_time: the earliest t with W_t >= 0, t_H when that is finite.
    """
    if len(state) != 3:
        raise ValidationError("lifting_ratio expects a three-state superposition")
    if _triangle_area(state) <= 0:
        raise ValidationError("triplet centers are collinear")

    lattice = hexagonal_lattice(DiffractionModel.from_superposition(state))
    spot = newton_refine(state, lattice.first_shell(1)[0].xi).xi
    spacing = np.hypot(*spot)
    line = (np.zeros(2), spot / spacing)
    epsilon = 1e-3

    if times is None:
        sigma1 = smoothing_covariance(decoherence_matrix(model, 1.0).m, state.hbar)
        direction = line[1] / np.hypot(*line[1])  # as scan_line normalises it
        sig_line = float(direction @ sigma1 @ direction)
        k = 2.0 * math.pi / float(spacing)
        t_star = 2.0 * math.log(2.0 / epsilon) / (k * k * sig_line)
        times = np.concatenate([[0.0], np.geomspace(0.03 * t_star, 5.0 * t_star, 15)])

    series = scan_line(state, model, line, (-2.6 * spacing, 2.6 * spacing), n_samples, times)
    return triplet_timescales(state, model, series, spot, epsilon)
