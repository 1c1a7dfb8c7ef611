"""Chord functions, Wigner functions and translation-overlap correlations.

Everything a superposition of Gaussian states can produce is a finite sum of
complex Gaussians.  Each bra/ket pair (n, m) contributes

    conj(a_n) a_m * exp(c0 + b . xi + xi . C xi)

to the chord function chi(xi) = <Psi| T_{-xi} |Psi>.  The coefficients come
from a single closed-form Gaussian integral over position; the independent
oracle `chord_quadrature` integrates the same definition numerically.  A
state builds its K = N^2 pair terms once, as arrays (mu, c0, b, C), and keeps
them.  One evaluator, `gaussian_sum`, sums any such array: one exp over K at
a point, a rank-K product on outer grids that do not couple p and q, term by
term otherwise.  The Wigner terms are the exact Fourier map of the chord
terms (`fourier_terms`).

For one coherent state at center eta this reduces to
chi(xi) = exp(i skew(eta, xi)/hbar) exp(-xi^2/4 hbar), the anchor that pins
every sign convention in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadQuadrature, ImaginaryResidue, NotNormalized, ValidationError, ZeroNorm
from .geometry import J, as_phase_vector
from .states import MixedEnsemble, Superposition

NORMALIZATION_TOL = 1e-9


def pair_arrays(bra, ket, hbar: float):
    """Chord pair terms of sum_nm conj(a_n) a'_m <bra_n| T_{-xi} |ket_m> as arrays
    (mu[K], c0[K], b[K, 2], C[K, 2, 2]), term = mu exp(c0 + b.xi + xi.C xi).

    bra and ket are sequences of (amplitude, GaussianState); the pairs run
    bra-major over the whole index grid and are built in one vectorised pass.
    Pairs of zero weight are dropped: 0 * exp(overflow) would be NaN.
    """
    amp_n, width_n, center_n = _term_columns(bra)
    amp_m, width_m, center_m = _term_columns(ket)
    b = np.conj(width_n)[:, None]
    a = width_m[None, :]
    p1, q1 = center_n[:, 0, None], center_n[:, 1, None]
    p2, q2 = center_m[None, :, 0], center_m[None, :, 1]

    a2 = 0.5 * (b + a)
    logpref = 0.25 * (np.log(b.real) + np.log(a.real)) - 0.5 * np.log(a2)

    l0 = b * q1 + a * q2 + 1j * (p2 - p1)
    lq = 0.5 * (b - a)
    lp = -1j

    k00 = -0.5 * b * q1 * q1 - 0.5 * a * q2 * q2 + 0.5j * (p1 * q1 - p2 * q2)
    k0q = 0.5 * (a * q2 - b * q1) + 0.5j * (p1 + p2)
    k0qq = -(b + a) / 8.0

    inv = 1.0 / (4.0 * a2 * hbar)
    c0 = (l0 * l0) * inv + k00 / hbar + logpref
    cp = 2.0 * l0 * lp * inv
    cq = 2.0 * l0 * lq * inv + k0q / hbar
    cpp = lp * lp * inv
    cpq = 2.0 * lp * lq * inv
    cqq = lq * lq * inv + k0qq / hbar
    return _gaussian_terms(np.conj(amp_n)[:, None] * amp_m[None, :],
                           c0, cp, cq, cpp, cpq, cqq)


def _term_columns(terms):
    """Amplitudes, complex widths and centers of (amplitude, GaussianState) terms."""
    return (np.array([a for a, _ in terms], dtype=complex),
            np.array([g.width for _, g in terms], dtype=complex),
            np.array([g.center for _, g in terms], dtype=float))


def _gaussian_terms(mu, c0, cp, cq, cpp, cpq, cqq):
    """(mu[K], c0[K], b[K, 2], C[K, 2, 2]) from arrays of the six exponent
    coefficients c0 + cp xi_p + cq xi_q + cpp xi_p^2 + cpq xi_p xi_q + cqq xi_q^2,
    without the terms of zero weight."""
    mu = np.ravel(mu)
    keep = mu != 0
    half = 0.5 * cpq
    b = np.stack([cp, cq], axis=-1).reshape(-1, 2)
    c = np.stack([cpp, half, half, cqq], axis=-1).reshape(-1, 2, 2)
    return mu[keep], np.ravel(c0)[keep], b[keep], c[keep]


def gaussian_sum(terms, x_p, x_q) -> np.ndarray:
    """sum_k mu_k exp(c0_k + b_k.x + x.C_k x) for terms (mu, c0, b, C).

    The shape of the input picks the path.  At a single point (0-d x_p and
    x_q) this is one exp over all K terms.  On an outer grid (x_p of shape
    (Np, 1), x_q of shape (1, Nq)) where no term couples p and q (C_pq = 0,
    as for identity frames and diagonal M_t) it is one rank-K matrix product
    of per-axis factors.  On anything else the terms are summed one by one,
    which keeps the memory at one array of the output's size.
    """
    x_p = np.asarray(x_p, dtype=float)
    x_q = np.asarray(x_q, dtype=float)
    if x_p.ndim == x_q.ndim == 0:
        exponents, _ = point_exponents(terms, np.array([x_p, x_q]))
        return np.asarray(terms[0] @ np.exp(exponents))
    if (x_p.ndim == x_q.ndim == 2 and x_p.shape[1] == 1 and x_q.shape[0] == 1
            and x_p.size > 0 and x_q.size > 0 and not np.any(terms[3][:, 0, 1])):
        return _separable_values(terms, x_p[:, 0], x_q[0])
    return _dense_values(terms, x_p, x_q)


def point_exponents(terms, x: np.ndarray):
    """The exponents c0_k + b_k.x + x.C_k x of all terms at one point x, and C_k x."""
    _, c0, b, c = terms
    cx = c @ x
    return c0 + (b + cx) @ x, cx


def gaussian_gradient(terms, x: np.ndarray) -> np.ndarray:
    """(d/dx_p, d/dx_q) of gaussian_sum(terms, x) at one point x, from one exp
    over the terms."""
    mu, _, b, _ = terms
    exponents, cx = point_exponents(terms, x)
    return (mu * np.exp(exponents)) @ (b + 2.0 * cx)


def _dense_values(terms, x_p: np.ndarray, x_q: np.ndarray) -> np.ndarray:
    """sum_k term by term on any broadcastable x_p, x_q."""
    total = np.zeros(np.broadcast(x_p, x_q).shape, dtype=complex)
    for mu, c0, b, c in zip(*terms):
        total += mu * np.exp(c0 + b[0] * x_p + b[1] * x_q
                             + c[0, 0] * x_p * x_p + 2.0 * c[0, 1] * x_p * x_q
                             + c[1, 1] * x_q * x_q)
    return total


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


def fourier_terms(terms, hbar: float):
    """Wigner terms from chord terms: W = F[chi] / (2 pi hbar), the symplectic
    Fourier transform of fields.fourier_2d taken term by term in closed form.
    Each Gaussian with Re C negative definite maps to another with the same
    mu, c0 - b.C^-1 b / 4 + log(pi / ((2 pi hbar)^2 sqrt(det -C))), linear
    part -(i / 2 hbar) J C^-1 b and quadratic part J C^-1 J^T / (4 hbar^2)."""
    mu, c0, b, c = terms
    log_pref = math.log(math.pi) - 2.0 * math.log(2.0 * math.pi * hbar)
    cinv = np.linalg.inv(c)
    cinv = 0.5 * (cinv + cinv.swapaxes(1, 2))
    cinv_b = (cinv @ b[:, :, None])[:, :, 0]
    det_neg = (-c[:, 0, 0]) * (-c[:, 1, 1]) - c[:, 0, 1] * c[:, 1, 0]
    c0p = c0 - 0.25 * np.sum(b * cinv_b, axis=1) + log_pref - 0.5 * np.log(det_neg)
    bp = (-0.5j / hbar) * (cinv_b @ J.T)
    cp = (1.0 / (4.0 * hbar * hbar)) * (J @ cinv @ J.T)
    return mu, c0p, bp, cp


def chord_values(state: Superposition, xi_p, xi_q) -> np.ndarray:
    """chi(xi) at a point or on arrays of chord components (no normalization
    check), from the state's cached pair terms."""
    return gaussian_sum(state.chord_terms, xi_p, xi_q)


def state_norm_squared(state: Superposition) -> float:
    """<Psi|Psi> including every pairwise coherent-state overlap."""
    mu, c0, _, _ = state.chord_terms
    return float((mu @ np.exp(c0)).real)


def require_normalized(state: Superposition) -> None:
    n2 = state_norm_squared(state)
    if abs(n2 - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"<Psi|Psi> = {n2}, differs from 1 by more than {NORMALIZATION_TOL}")


def normalize(state: Superposition) -> Superposition:
    """Rescale amplitudes so that chi(0) = <Psi|Psi> = 1 (phases preserved)."""
    n2 = state_norm_squared(state)
    if n2 < 1e-300:
        raise ZeroNorm(f"state norm squared {n2} below 1e-300")
    scale = 1.0 / math.sqrt(n2)
    return Superposition(state.hbar, tuple((a * scale, g) for a, g in state.terms))


def overlap(bra: Superposition, ket: Superposition) -> complex:
    """<bra|ket> for two superpositions at the same hbar."""
    if abs(bra.hbar - ket.hbar) > 1e-15 * max(bra.hbar, ket.hbar):
        raise ValidationError("states live at different hbar")
    mu, c0, _, _ = pair_arrays(bra.terms, ket.terms, bra.hbar)
    return complex(mu @ np.exp(c0))


def chord_exact(state: Superposition, xi) -> complex:
    """chi(xi) = <Psi| T_{-xi} |Psi> as the closed-form pairwise Gaussian sum."""
    require_normalized(state)
    xi = as_phase_vector(xi, "xi")
    return complex(chord_values(state, xi[0], xi[1]))


def chord_gradient(state: Superposition, xi) -> np.ndarray:
    """Analytic (d chi/d xi_p, d chi/d xi_q) from the same single exp over the
    cached pair terms as chord_values at a point."""
    return gaussian_gradient(state.chord_terms, as_phase_vector(xi, "xi"))


def correlation_pure(state: Superposition, xi) -> float:
    """C(xi) = |<Psi|Psi_xi>|^2 for a pure state."""
    return abs(chord_exact(state, xi)) ** 2


def wigner_values(state: Superposition, x_p, x_q) -> np.ndarray:
    """Complex-assembled Wigner samples (imaginary part is roundoff residue):
    the Fourier map of the state's chord terms, summed like any Gaussian sum."""
    return gaussian_sum(fourier_terms(state.chord_terms, state.hbar), x_p, x_q)


def wigner_exact(state: Superposition, x) -> float:
    """W(x) assembled from pairwise Gaussians: peaks at centers, fringes between."""
    require_normalized(state)
    x = as_phase_vector(x, "x")
    val = complex(wigner_values(state, x[0], x[1]))
    if abs(val.imag) > 1e-9:
        raise ImaginaryResidue(f"Wigner assembly left imaginary part {val.imag}")
    return float(val.real)


def chord_mixture(ens: MixedEnsemble, xi) -> complex:
    """Mixed-state chord function: sum of weighted single-state chords.

    Each member contributes w_n chi_n(xi) exp(i skew(eta_n, xi)/hbar); that
    product is exactly the diagonal pair term of the member.
    """
    xi = as_phase_vector(xi, "xi")
    return complex(chord_mixture_values(ens, xi[0], xi[1]))


def chord_mixture_values(ens: MixedEnsemble, xi_p, xi_q) -> np.ndarray:
    """chord_mixture at a point or on arrays of chord components."""
    diagonal = [pair_arrays(((w, g),), ((1.0, g),), ens.hbar) for w, g in ens.terms]
    terms = tuple(np.concatenate(column) for column in zip(*diagonal))
    return gaussian_sum(terms, xi_p, xi_q)


# -- quadrature oracle ---------------------------------------------------------

def wavefunction(state: Superposition, q) -> np.ndarray:
    """Position wavefunction Psi(q) = sum_n a_n psi_n(q).

    psi_n(q) = (Re A_n / pi hbar)^{1/4}
               exp[-(A_n/2hbar)(q - eta_q)^2 + (i/hbar) eta_p (q - eta_q/2)]
    """
    q = np.asarray(q, dtype=float)
    h = state.hbar
    total = np.zeros(q.shape, dtype=complex)
    for a_n, g in state.terms:
        if a_n == 0:
            continue
        aa = g.width
        pn, qn = g.center
        pref = (aa.real / (math.pi * h)) ** 0.25
        total += a_n * pref * np.exp(-(aa / (2 * h)) * (q - qn) ** 2
                                     + (1j / h) * pn * (q - qn / 2))
    return total


def _default_quadrature_step(state: Superposition, xi_p: float) -> float:
    max_p = max(abs(g.center[0]) for g in state.states)
    max_re = max(g.width.real for g in state.states)
    gaussian_scale = math.sqrt(state.hbar / max_re) / 20.0
    phase_scale = state.hbar / (20.0 * (1.0 + max_p + abs(xi_p)))
    return min(gaussian_scale, phase_scale)


def chord_quadrature(state: Superposition, xi, step: float | None = None) -> complex:
    """Independent oracle: composite-Simpson integration of the position form

        chi(xi) = int dq Psi(q + xi_q/2) Psi*(q - xi_q/2) exp(-i xi_p q / hbar).
    """
    xi = as_phase_vector(xi, "xi")
    h = state.hbar
    if step is None:
        step = _default_quadrature_step(state, xi[0])
    max_p = max(abs(g.center[0]) for g in state.states)
    allowed = h / (10.0 * max_p + 1.0)
    if step > allowed:
        raise BadQuadrature(f"step {step} undersamples the phase (limit {allowed})")

    min_re = min(g.width.real for g in state.states)
    halfwidth = 10.0 * math.sqrt(h / min_re)
    qs = [g.center[1] for g in state.states]
    lo = min(qs) - abs(xi[1]) / 2 - halfwidth
    hi = max(qs) + abs(xi[1]) / 2 + halfwidth

    n = int(math.ceil((hi - lo) / step))
    n += n % 2
    n = max(n, 2)
    q = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / n / 3.0

    f = (wavefunction(state, q + xi[1] / 2)
         * np.conj(wavefunction(state, q - xi[1] / 2))
         * np.exp(-1j * xi[0] * q / h))
    return complex(np.sum(w * f))
