"""Sampled phase-space fields and the symplectic Fourier transform.

A FieldGrid is a row-major complex array: row index sweeps xi_p ascending,
column index sweeps xi_q ascending, over a window symmetric or not about the
origin.  The symplectic Fourier transform

    F[f](xi) = (1/2 pi hbar) int d^2 eta  exp(i skew(eta, xi)/hbar) f(eta)

is an involution (F o F = identity) and maps a pure-state |chi|^2 grid onto
itself (Fourier invariance of the correlations).  The Wigner function is the
chord function's conjugate field: W = F[chi] / (2 pi hbar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ImaginaryResidue, NonSymmetricWindow, ValidationError, WindowTooSmall
from .chord import chord_mixture_values, chord_values, wigner_values, require_normalized
from .states import MixedEnsemble, Superposition

Window = Tuple[Tuple[float, float], Tuple[float, float]]

KINDS = ("chord", "wigner", "correlation")


@dataclass(frozen=True)
class FieldGrid:
    """Samples of a phase-space field with exact geometry metadata: complex
    for chord grids, real for wigner and correlation grids (complex input
    there is checked for imaginary residue and its real part kept)."""

    window: Window
    shape: Tuple[int, int]
    values: np.ndarray
    kind: str

    def __post_init__(self):
        (plo, phi), (qlo, qhi) = self.window
        if not (phi > plo and qhi > qlo):
            raise ValidationError(f"degenerate window {self.window}")
        rows, cols = self.shape
        if rows < 2 or cols < 2:
            raise ValidationError(f"grid shape must be at least 2x2, got {self.shape}")
        v = np.asarray(self.values)
        if v.shape != (rows, cols):
            raise ValidationError(f"values shape {v.shape} does not match {self.shape}")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown grid kind {self.kind!r}")
        if self.kind in ("wigner", "correlation") and np.iscomplexobj(v):
            scale = np.max(np.abs(v))
            if scale > 0 and np.max(np.abs(v.imag)) > 1e-9 * scale:
                raise ImaginaryResidue(
                    f"{self.kind} grid carries imaginary part above 1e-9 of its peak")
            v = v.real
        object.__setattr__(self, "window", ((float(plo), float(phi)), (float(qlo), float(qhi))))
        object.__setattr__(self, "shape", (int(rows), int(cols)))
        object.__setattr__(self, "values", v)

    @property
    def axis_p(self) -> np.ndarray:
        return np.linspace(self.window[0][0], self.window[0][1], self.shape[0])

    @property
    def axis_q(self) -> np.ndarray:
        return np.linspace(self.window[1][0], self.window[1][1], self.shape[1])

    @property
    def step_p(self) -> float:
        return (self.window[0][1] - self.window[0][0]) / (self.shape[0] - 1)

    @property
    def step_q(self) -> float:
        return (self.window[1][1] - self.window[1][0]) / (self.shape[1] - 1)


MAX_GRID_CELLS = 10 ** 7  # checked before allocation: config, spot-scan and positivity grids


def grid_axes(window: Window, shape: Tuple[int, int]):
    (plo, phi), (qlo, qhi) = window
    return (np.linspace(plo, phi, shape[0]), np.linspace(qlo, qhi, shape[1]))


def chord_grid(state: Superposition, window: Window, shape: Tuple[int, int]) -> FieldGrid:
    """Sample chi(xi) over a window."""
    require_normalized(state)
    ap, aq = grid_axes(window, shape)
    vals = chord_values(state, ap[:, None], aq[None, :])
    return FieldGrid(window, shape, vals, "chord")


def wigner_grid(state: Superposition, window: Window, shape: Tuple[int, int]) -> FieldGrid:
    """Sample W(x) over a window (exact pairwise assembly, no transform)."""
    require_normalized(state)
    ap, aq = grid_axes(window, shape)
    return FieldGrid(window, shape, wigner_values(state, ap[:, None], aq[None, :]), "wigner")


def correlation_grid(state: Superposition, window: Window, shape: Tuple[int, int]) -> FieldGrid:
    """Pure-state correlation C(xi) = |chi(xi)|^2 sampled over a window."""
    g = chord_grid(state, window, shape)
    return FieldGrid(window, shape, np.abs(g.values) ** 2, "correlation")


def _check_symmetric(window: Window):
    for lo, hi in window:
        if abs(lo + hi) > 1e-9 * max(abs(lo), abs(hi), 1.0):
            raise NonSymmetricWindow(f"window {window} is not symmetric about the origin")


def require_adequate(values: np.ndarray, rel: float = 1e-12) -> None:
    """Refuse silently truncated fields: the boundary must carry no mass."""
    peak = np.max(np.abs(values))
    edges = max(np.max(np.abs(values[0, :])), np.max(np.abs(values[-1, :])),
                np.max(np.abs(values[:, 0])), np.max(np.abs(values[:, -1])))
    if peak > 0 and edges > rel * peak:
        raise WindowTooSmall(
            f"boundary samples reach {edges / peak:.3e} of the peak (limit {rel:.0e})")


def _fft_compatible(grid: FieldGrid, hbar: float) -> bool:
    rows, cols = grid.shape
    if rows != cols or rows % 2 == 0:
        return False
    hp, hq = grid.step_p, grid.step_q
    if abs(hp - hq) > 1e-12 * hp:
        return False
    return abs(hp * hq * rows / (2.0 * np.pi * hbar) - 1.0) < 1e-9


def _fourier_matmul(grid: FieldGrid, hbar: float) -> np.ndarray:
    ap, aq = grid.axis_p, grid.axis_q
    v = np.asarray(grid.values, dtype=complex)
    e_plus = np.exp(1j * np.outer(ap, aq) / hbar)        # eta_p x xi_q
    e_minus = np.exp(-1j * np.outer(aq, ap) / hbar)      # eta_q x xi_p
    mid = v.T @ e_plus                                   # (eta_q, xi_q)
    out = (e_minus.T @ mid)                              # (xi_p, xi_q)
    return out * (grid.step_p * grid.step_q / (2.0 * np.pi * hbar))


def _fourier_fft(grid: FieldGrid, hbar: float) -> np.ndarray:
    n = grid.shape[0]
    c = (n - 1) // 2
    k = np.arange(n)
    ramp = np.exp(-2j * np.pi * c * k / n)
    v = np.asarray(grid.values, dtype=complex)

    # axis 0 (eta_p -> xi_q): kernel exp(+2 pi i (i-c)(k-c)/n)
    a = n * np.fft.ifft(v * ramp[:, None], axis=0)
    a *= ramp[:, None] * np.exp(2j * np.pi * c * c / n)
    # axis 1 (eta_q -> xi_p): kernel exp(-2 pi i (j-c)(l-c)/n)
    b = np.fft.fft(a * np.conj(ramp)[None, :], axis=1)
    b *= np.conj(ramp)[None, :] * np.exp(-2j * np.pi * c * c / n)

    out = b.T.copy()
    return out * (grid.step_p * grid.step_q / (2.0 * np.pi * hbar))


def fourier_2d(grid: FieldGrid, hbar: float, kind: str | None = None) -> FieldGrid:
    """Discrete symplectic Fourier transform onto the same grid.

    The window must be uniform and symmetric about the origin.  Applying the
    transform twice returns the input up to discretization error, and for an
    adequate pure-state |chi|^2 grid the output equals the input (Fourier
    invariance).

    Parameters
    ----------
    grid : input field
    hbar : kernel scale
    kind : tag for the output grid (defaults to the input tag)
    """
    _check_symmetric(grid.window)
    if _fft_compatible(grid, hbar):
        out = _fourier_fft(grid, hbar)
    else:
        out = _fourier_matmul(grid, hbar)
    return FieldGrid(grid.window, grid.shape, out, kind or grid.kind)


def self_dual_grid(hbar: float, halfwidth: float) -> Tuple[Window, Tuple[int, int]]:
    """Square odd grid matched to its own Fourier dual: h^2 N = 2 pi hbar.

    Guarantees at least the requested halfwidth and 3 samples; on such a
    grid fourier_2d takes the FFT fast path and maps the grid onto itself.
    """
    n = max(3, int(np.ceil(4.0 * halfwidth * halfwidth / (2.0 * np.pi * hbar))) + 2)
    if n % 2 == 0:
        n += 1
    h = np.sqrt(2.0 * np.pi * hbar / n)
    half = (n - 1) / 2 * h
    window = ((-half, half), (-half, half))
    return window, (n, n)


def wigner_from_chord_grid(grid: FieldGrid, hbar: float) -> FieldGrid:
    """W = F[chi] / (2 pi hbar), sampled on the chord grid's window."""
    out = fourier_2d(grid, hbar, kind="chord")
    return FieldGrid(grid.window, grid.shape, out.values / (2.0 * np.pi * hbar), "wigner")


def correlation_mixture(ens: MixedEnsemble, window: Window,
                        shape: Tuple[int, int]) -> FieldGrid:
    """Mixed-state correlation C = F[|chi_mix|^2] on the given grid.

    Unlike the pure case this is NOT |chi_mix|^2 itself; the transform washes
    out the pure state's blind spots.
    """
    ap, aq = grid_axes(window, shape)
    sq = FieldGrid(window, shape, np.abs(chord_mixture_values(ens, ap[:, None], aq[None, :])) ** 2,
                   "correlation")
    require_adequate(sq.values)
    return fourier_2d(sq, ens.hbar, kind="correlation")


def grid_value_at(grid: FieldGrid, point) -> complex:
    """Bilinear interpolation of the grid at a phase-space point."""
    p, q = float(point[0]), float(point[1])
    (plo, _), (qlo, _) = grid.window
    fi = (p - plo) / grid.step_p
    fj = (q - qlo) / grid.step_q
    i = int(np.clip(np.floor(fi), 0, grid.shape[0] - 2))
    j = int(np.clip(np.floor(fj), 0, grid.shape[1] - 2))
    tp = fi - i
    tq = fj - j
    v = grid.values
    return ((1 - tp) * (1 - tq) * v[i, j] + tp * (1 - tq) * v[i + 1, j]
            + (1 - tp) * tq * v[i, j + 1] + tp * tq * v[i + 1, j + 1])
