"""Computations made apart from the closed forms that the benchmark checks.

Chord values come from `chord_quadrature`, the library's position-integral
oracle, divided by its own value at the origin, so that neither the
closed-form coefficients nor `normalize` enter the reference.  Wigner values
come from a position integral written here, and the decoherence matrix M_t
from Gauss-Legendre quadrature with a propagator computed here by a Taylor
series.
"""

from __future__ import annotations

import math

import numpy as np

from blindspots import chord_quadrature

J = np.array([[0.0, -1.0], [1.0, 0.0]])
HUSIMI_DET = 1.0 / 16.0


def read_csv(path):
    """(metadata, header, rows) of a CLI CSV file; rows are lists of strings."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def read_table(path):
    """(metadata, float array of the rows) of a numeric CLI CSV file."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        # the loop stopped at the header line; the rest are data rows
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, data


def simpson(f: np.ndarray, step: float) -> complex:
    n = len(f) - 1
    if n % 2:
        raise ValueError("Simpson's rule needs an even number of panels")
    return step / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


class ChordReference:
    """chi(xi) of a superposition, normalized, by position quadrature."""

    def __init__(self, state):
        self.state = state
        self.norm = None

    def chi(self, xi) -> complex:
        if self.norm is None:
            self.norm = chord_quadrature(self.state, (0.0, 0.0)).real
        return chord_quadrature(self.state, xi) / self.norm


def coherent_wavefunction(hbar, terms, q):
    """Psi(q) of a superposition of coherent states (identity frames).

    Each term is the ground state displaced by T_eta:
    (pi hbar)^(-1/4) exp(-(q - eta_q)^2 / 2 hbar + i eta_p (q - eta_q / 2) / hbar).
    """
    total = np.zeros(np.shape(q), dtype=complex)
    for amp, (p0, q0) in terms:
        total += amp * (math.pi * hbar) ** -0.25 * np.exp(
            -((q - q0) ** 2) / (2.0 * hbar) + 1j * p0 * (q - q0 / 2.0) / hbar)
    return total


def wigner_reference(hbar, terms, x) -> float:
    """W(p, q) = (1/2 pi hbar) int dy Psi(q + y/2) Psi*(q - y/2) exp(-i p y / hbar),
    for the normalized state, by Simpson's rule in y."""
    p, q = float(x[0]), float(x[1])
    qs = np.array([c[1] for _, c in terms])
    ps = np.array([c[0] for _, c in terms])
    width = 12.0 * math.sqrt(hbar)
    step = hbar / (20.0 * (1.0 + abs(p) + np.max(np.abs(ps))))

    lo, hi = qs.min() - width, qs.max() + width
    n = 2 * int(math.ceil((hi - lo) / step / 2.0))
    grid = np.linspace(lo, hi, n + 1)
    norm = simpson(np.abs(coherent_wavefunction(hbar, terms, grid)) ** 2, (hi - lo) / n).real

    half = 2.0 * max(abs(q - lo), abs(hi - q))
    n = 2 * int(math.ceil(2.0 * half / step / 2.0))
    y = np.linspace(-half, half, n + 1)
    f = (coherent_wavefunction(hbar, terms, q + y / 2.0)
         * np.conj(coherent_wavefunction(hbar, terms, q - y / 2.0))
         * np.exp(-1j * p * y / hbar))
    return simpson(f, 2.0 * half / n).real / (2.0 * math.pi * hbar * norm)


def coupling_matrix(couplings) -> np.ndarray:
    """sum_j (l' l'^T + l'' l''^T) of complex coupling vectors."""
    c = np.zeros((2, 2))
    for z in couplings:
        z = np.asarray(z, dtype=complex)
        c += np.outer(z.real, z.real) + np.outer(z.imag, z.imag)
    return c


def husimi_bound(couplings) -> float:
    """t with det M_t = 1/16 for H = 0, where M_t = (t/2) C."""
    return 1.0 / (2.0 * math.sqrt(np.linalg.det(coupling_matrix(couplings))))


def expm2(a: np.ndarray) -> np.ndarray:
    """exp(a) of a 2x2 matrix by scaling and squaring of its Taylor series."""
    squarings = max(0, int(math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(), 1e-300)))) + 1)
    b = a / 2.0 ** squarings
    term, total = np.eye(2), np.eye(2)
    for k in range(1, 20):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def decoherence_matrix(hamiltonian, couplings, t: float, panels: int = 32) -> np.ndarray:
    """M_t = (1/2) int_0^t R_{-s}^T C R_{-s} ds, R_s = exp(2 J H s), by
    composite 10-point Gauss-Legendre quadrature."""
    h = np.asarray(hamiltonian, dtype=float)
    c = coupling_matrix(couplings)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, t, panels + 1)
    m = np.zeros((2, 2))
    for a, b in zip(edges[:-1], edges[1:]):
        for x, w in zip(nodes, weights):
            s = 0.5 * (a + b) + 0.5 * (b - a) * x
            r = expm2(-2.0 * (J @ h) * s)
            m += 0.5 * (b - a) * w * (r.T @ c @ r)
    return 0.5 * m


def husimi_time(hamiltonian, couplings) -> float:
    """Earliest t <= 64 with det M_t >= 1/16, by bisection to 1e-12 relative."""
    def reached(t):
        return np.linalg.det(decoherence_matrix(hamiltonian, couplings, t)) >= HUSIMI_DET

    lo, hi = 0.0, 64.0
    if not reached(hi):
        return math.inf
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


def triangle_nodes(weights, centers, hbar, k_max):
    """Zeros of the small-chord sum sum_n w_n exp(i skew(c_n - c_0, xi)/hbar)
    over |k1|, |k2| <= k_max, as {(branch, k1, k2): xi}.

    The weight phasors close into a triangle with angles theta_1, theta_2
    (two mirror branches); a zero solves skew(c_n - c_0, xi) = hbar (theta_n + 2 pi k_n).
    """
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    e = np.asarray(centers, dtype=float)[1:] - np.asarray(centers, dtype=float)[0]
    a = math.acos((w[0] ** 2 + w[1] ** 2 - w[2] ** 2) / (2.0 * w[0] * w[1]))
    # skew(e_n, xi) = e_n,p xi_q - e_n,q xi_p, a linear system in xi
    lin = np.array([[-e[0][1], e[0][0]], [-e[1][1], e[1][0]]])
    nodes = {}
    for branch, theta1 in (("plus", math.pi + a), ("minus", math.pi - a)):
        rest = -(w[0] + w[1] * np.exp(1j * theta1))
        theta2 = math.atan2(rest.imag, rest.real) % (2.0 * math.pi)
        for k1 in range(-k_max, k_max + 1):
            for k2 in range(-k_max, k_max + 1):
                rhs = hbar * np.array([theta1 + 2.0 * math.pi * k1, theta2 + 2.0 * math.pi * k2])
                nodes[(branch, k1, k2)] = np.linalg.solve(lin, rhs)
    return nodes

