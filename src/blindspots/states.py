"""States: generalized coherent states, their superpositions, and mixtures.

A GaussianState is a displaced (and optionally squeezed/rotated) ground
state: a center in phase space plus a symplectic frame.  A Superposition is a
weighted sum of such states at a common hbar; a MixedEnsemble is the
corresponding classical mixture.

Translations act through the Weyl operator T_xi.  The composition law used
throughout is

    T_xi T_eta = exp(+i skew(xi, eta) / 2 hbar) T_{xi + eta},

which is the unique choice reproducing the coherent-state chord function
exp(i skew(eta, xi)/hbar) exp(-xi^2 / 4 hbar) (validated in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Tuple

import numpy as np

from .errors import ValidationError
from .geometry import (
    as_phase_vector,
    check_symplectic,
    metaplectic_phase,
    skew,
    width_from_frame,
)

_IDENTITY = np.eye(2)


@dataclass(frozen=True)
class GaussianState:
    """One generalized coherent state: center (p, q) and symplectic frame.

    Both are stored as read-only copies, so that neither the caller's arrays
    nor writes through the attributes can change a state after it is built
    (superpositions cache terms derived from them).
    """

    center: np.ndarray
    frame: np.ndarray = field(default_factory=lambda: _IDENTITY)

    def __post_init__(self):
        for name, value in (("center", as_phase_vector(self.center, "center")),
                            ("frame", check_symplectic(self.frame))):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def width(self) -> complex:
        """Complex Gaussian width parameter A (Re A > 0) of the wavefunction."""
        return width_from_frame(self.frame)


@dataclass(frozen=True)
class Superposition:
    """Pure state sum_n a_n |eta_n; S_n> at a fixed hbar.

    Instances are immutable; every operation returns a new state.
    """

    hbar: float
    terms: Tuple[Tuple[complex, GaussianState], ...]

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be a positive real, got {self.hbar}")
        terms = tuple((complex(a), g) for a, g in self.terms)
        if not terms:
            raise ValidationError("superposition needs at least one term")
        for a, g in terms:
            if not np.isfinite(a.real) or not np.isfinite(a.imag):
                raise ValidationError(f"non-finite amplitude {a}")
            if not isinstance(g, GaussianState):
                raise ValidationError("terms must pair an amplitude with a GaussianState")
        if all(a == 0 for a, _ in terms):
            raise ValidationError("all amplitudes are zero")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_centers(cls, hbar: float, amplitudes: Iterable[complex],
                     centers: Iterable, frame=None) -> "Superposition":
        """Build from parallel amplitude/center lists, identity frames by default."""
        f = _IDENTITY if frame is None else frame
        return cls(hbar, tuple((a, GaussianState(c, f)) for a, c in zip(amplitudes, centers)))

    @cached_property
    def chord_terms(self):
        """Chord pair terms (mu[K], c0[K], b[K, 2], C[K, 2, 2]) of all bra/ket
        pairs, chi(xi) = sum_k mu_k exp(c0_k + b_k.xi + xi.C_k xi), built once
        per state and read-only."""
        from .chord import pair_arrays

        terms = pair_arrays(self.terms, self.terms, self.hbar)
        for column in terms:
            column.setflags(write=False)
        return terms

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.terms], dtype=complex)

    @property
    def states(self) -> Tuple[GaussianState, ...]:
        return tuple(g for _, g in self.terms)

    @property
    def centers(self) -> np.ndarray:
        return np.array([g.center for _, g in self.terms])

    @property
    def widths(self) -> np.ndarray:
        return np.array([g.width for _, g in self.terms], dtype=complex)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class MixedEnsemble:
    """Classical mixture of Gaussian states with probability weights."""

    hbar: float
    terms: Tuple[Tuple[float, GaussianState], ...]

    def __post_init__(self):
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be a positive real, got {self.hbar}")
        terms = tuple((float(w), g) for w, g in self.terms)
        if not terms:
            raise ValidationError("ensemble needs at least one member")
        weights = np.array([w for w, _ in terms])
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValidationError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {weights.sum()}, expected 1 within 1e-12")
        object.__setattr__(self, "terms", terms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    @property
    def states(self) -> Tuple[GaussianState, ...]:
        return tuple(g for _, g in self.terms)

    @classmethod
    def from_superposition(cls, state: Superposition) -> "MixedEnsemble":
        """Drop coherences: weights |a_n|^2 renormalized to unit sum."""
        w = np.abs(state.amplitudes) ** 2
        w = w / w.sum()
        return cls(state.hbar, tuple(zip(w.tolist(), state.states)))


def translate_state(state: Superposition, xi) -> Superposition:
    """Image of the state under the phase-space translation T_xi.

    Centers shift by xi; each amplitude picks up the Weyl cocycle phase
    exp(i skew(xi, eta_n) / 2 hbar).  The half in the exponent is what makes
    |<Psi | T_xi Psi>| equal |chord_exact(state, xi)| identically.
    """
    xi = as_phase_vector(xi, "xi")
    h = state.hbar
    new_terms = []
    for a, g in state.terms:
        phase = np.exp(0.5j * skew(xi, g.center) / h)
        new_terms.append((a * phase, GaussianState(g.center + xi, g.frame)))
    return Superposition(h, tuple(new_terms))


def shift_origin(state: Superposition, eta) -> Superposition:
    """Re-center the state: rigid translation of all centers by -eta.

    Only multiplies the chord function by a unimodular phase, so |chi| and
    every blind spot are unchanged.
    """
    eta = as_phase_vector(eta, "eta")
    return translate_state(state, -eta)


def apply_symplectic(state: Superposition, s) -> Superposition:
    """Transform the state by the metaplectic image of a symplectic map S.

    Centers map to S eta, frames to S F, and each amplitude absorbs the
    metaplectic phase of its term, so the chord function transports
    classically: chi'(S xi) = chi(xi).  S must pass check_symplectic.
    """
    m = check_symplectic(s)
    new_terms = []
    for a, g in state.terms:
        phase = metaplectic_phase(m, g.width)
        new_terms.append((a * phase, GaussianState(m @ g.center, m @ g.frame)))
    return Superposition(state.hbar, tuple(new_terms))
