"""Blind spots: lattice prediction, Newton refinement, contour tracing, inversion.

Near the origin the chord function of a well separated multiplet reduces to a
point-scatterer sum ("diffraction pattern") over the weights |a_n|^2.  For a
triplet the closure of the three weight phasors fixes two angle branches, and
the resulting pair of linear phase conditions generates two oblique
sublattices of approximate zeros; Newton iteration on the full chord function
turns each lattice node into an exact blind spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateSpots,
    NoClosure,
    NoConvergence,
    SingularJacobian,
    ValidationError,
    WrongArity,
)
from .chord import chord_values, gaussian_gradient, gaussian_sum, require_normalized
from .fields import MAX_GRID_CELLS, FieldGrid
from .geometry import as_phase_vector, skew_solver
from .states import Superposition

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DiffractionModel:
    """Point-scatterer data of the small-chord approximation."""

    hbar: float
    weights: Tuple[float, ...]
    centers: np.ndarray  # shape (n, 2), centers[0] == origin

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights sum to {w.sum()}, expected 1 within 1e-12")
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] != w.size:
            raise ValidationError("centers must be an (n, 2) array matching the weights")
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c[0])) > 1e-12 * scale:
            raise ValidationError("centers must be relative to the first one (centers[0] = 0)")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "centers", c)

    @classmethod
    def from_superposition(cls, state: Superposition) -> "DiffractionModel":
        w = np.abs(state.amplitudes) ** 2
        w = w / w.sum()
        c = state.centers
        return cls(state.hbar, tuple(w.tolist()), c - c[0])


@dataclass(frozen=True)
class TriangleAngles:
    """One sign branch of the phasor-closure angles (theta_0 = 0 by convention)."""

    theta1: float
    theta2: float
    branch: str
    weights: Tuple[float, float, float]

    def closure_residual(self) -> float:
        w0, w1, w2 = self.weights
        return abs(w0 + w1 * np.exp(1j * self.theta1) + w2 * np.exp(1j * self.theta2))


@dataclass(frozen=True)
class LatticeNode:
    xi: np.ndarray
    k1: int
    k2: int
    sublattice: str


@dataclass(frozen=True)
class BlindSpotLattice:
    """Two oblique sublattices of predicted blind spots for a triplet."""

    basis: Tuple[np.ndarray, np.ndarray]
    offsets: Tuple[np.ndarray, np.ndarray]
    nodes: Tuple[LatticeNode, ...]
    angles: Tuple[TriangleAngles, TriangleAngles]
    hbar: float

    def first_shell(self, count: int = 6) -> Tuple[LatticeNode, ...]:
        ordered = sorted(self.nodes, key=lambda n: (float(np.hypot(*n.xi)), n.sublattice, n.k1, n.k2))
        return tuple(ordered[:count])

    def nearest_spacing(self) -> float:
        pts = np.array([n.xi for n in self.nodes])
        d = pts[:, None, :] - pts[None, :, :]
        dist = np.hypot(d[..., 0], d[..., 1])
        dist[dist == 0] = np.inf
        return float(dist.min())


@dataclass(frozen=True)
class RefinedSpot:
    xi: np.ndarray
    residual: float
    iterations: int
    seed: np.ndarray


@dataclass(frozen=True)
class NodalLineSet:
    polylines: Tuple[np.ndarray, ...]
    part: str


def small_chord(model: DiffractionModel, xi) -> complex:
    """chi^delta(xi) = sum_n w_n exp(i skew(c_n, xi)/hbar); phase-independent."""
    xi = as_phase_vector(xi, "xi")
    phases = (model.centers[:, 0] * xi[1] - model.centers[:, 1] * xi[0]) / model.hbar
    return complex(np.sum(np.asarray(model.weights) * np.exp(1j * phases)))


def triangle_close(w0: float, w1: float, w2: float) -> Tuple[TriangleAngles, TriangleAngles]:
    """Both angle branches closing the weight-phasor triangle.

    Sides are the weights themselves (the phasor lengths of the diffraction
    sum); the returned angles satisfy the closure identity exactly rather
    than any printed law-of-cosines formula.
    """
    w = (float(w0), float(w1), float(w2))
    if any(x <= 0 or not math.isfinite(x) for x in w):
        raise ValidationError(f"weights must be positive, got {w}")
    total = sum(w)
    # strict violation only: a degenerate (collinear) triangle still closes
    if max(w) > total - max(w) + 1e-12 * total:
        raise NoClosure(f"triangle inequality fails for sides {w}")

    c = (w[0] ** 2 + w[1] ** 2 - w[2] ** 2) / (2.0 * w[0] * w[1])
    c = min(1.0, max(-1.0, c))
    a = math.acos(c)

    branches = []
    for name, theta1 in (("plus", math.pi + a), ("minus", math.pi - a)):
        rest = -(w[0] + w[1] * np.exp(1j * theta1))
        theta2 = math.atan2(rest.imag, rest.real) % TWO_PI
        if not (0.0 < theta1 < TWO_PI and 0.0 < theta2 < TWO_PI):
            raise NoClosure(f"degenerate closure angles for sides {w}")
        branches.append(TriangleAngles(theta1, theta2, name, w))
    return branches[0], branches[1]


def sublattice_nodes(angles: TriangleAngles, eta1, eta2, hbar: float,
                     k_range: Tuple[Tuple[int, int], Tuple[int, int]]) -> List[Tuple[np.ndarray, int, int]]:
    """Solve skew(eta_n, xi) = hbar (theta_n + 2 pi k_n) over an index box."""
    solve = skew_solver(as_phase_vector(eta1, "eta1"), as_phase_vector(eta2, "eta2"),
                        DegenerateGeometry("lattice centers are collinear with the origin"))
    (k1lo, k1hi), (k2lo, k2hi) = k_range
    out = []
    for k1 in range(int(k1lo), int(k1hi) + 1):
        r1 = hbar * (angles.theta1 + TWO_PI * k1)
        for k2 in range(int(k2lo), int(k2hi) + 1):
            out.append((solve(r1, hbar * (angles.theta2 + TWO_PI * k2)), k1, k2))
    return out


def hexagonal_lattice(model: DiffractionModel,
                      k_range: Tuple[Tuple[int, int], Tuple[int, int]] = ((-2, 2), (-2, 2))
                      ) -> BlindSpotLattice:
    """Merge both sublattices of a triplet into the full blind-spot lattice."""
    if len(model.weights) != 3:
        raise WrongArity(f"lattice prediction needs exactly 3 states, got {len(model.weights)}")
    plus, minus = triangle_close(*model.weights)
    e1, e2 = model.centers[1], model.centers[2]
    solve = skew_solver(e1, e2, DegenerateGeometry("triplet centers are collinear"))
    basis = (solve(model.hbar * TWO_PI, 0.0), solve(0.0, model.hbar * TWO_PI))
    nodes: List[LatticeNode] = []
    offsets = []
    for ang in (plus, minus):
        for xi, k1, k2 in sublattice_nodes(ang, e1, e2, model.hbar, k_range):
            nodes.append(LatticeNode(xi, k1, k2, ang.branch))
        offsets.append(solve(model.hbar * ang.theta1, model.hbar * ang.theta2))
    nodes.sort(key=lambda n: (n.sublattice, n.k1, n.k2))
    return BlindSpotLattice(basis, (offsets[0], offsets[1]), tuple(nodes), (plus, minus),
                            model.hbar)


def newton_refine(state: Superposition, seed) -> RefinedSpot:
    """Blind spot near seed: newton_zero on the state's chord pair terms.

    Iterates more than 5 sqrt(hbar) from the seed have escaped down the
    Gaussian envelope: a zero-free chord function decays below any tolerance
    far from the origin, which must count as no convergence, not as a zero.
    """
    require_normalized(state)
    return newton_zero(state.chord_terms, as_phase_vector(seed, "seed"),
                       5.0 * math.sqrt(state.hbar))


NEWTON_TOL = 1e-12   # |f| at a zero: the Newton residual contract
_NEWTON_MAX_ITER = 50


def newton_zero(terms, seed: np.ndarray, max_travel: float) -> RefinedSpot:
    """Zero of the Gaussian sum f = gaussian_sum(terms, x) near seed: damped 2-D
    Newton iteration on (Re f, Im f) with analytic Jacobian, stopping at
    |f| <= NEWTON_TOL within _NEWTON_MAX_ITER iterations.  Raises NoConvergence
    when the iterates stall or travel more than max_travel from the seed,
    SingularJacobian when the gradient vanishes.
    """
    x = seed.copy()
    f = complex(gaussian_sum(terms, x[0], x[1]))

    for it in range(1, _NEWTON_MAX_ITER + 1):
        if abs(f) <= NEWTON_TOL:
            return RefinedSpot(x, abs(f), it - 1, seed)
        grad = gaussian_gradient(terms, x)
        jac = np.array([[grad[0].real, grad[1].real],
                        [grad[0].imag, grad[1].imag]])
        if np.max(np.abs(jac)) < 1e-300:
            raise SingularJacobian(f"Jacobian vanished at {x}")
        rhs = -np.array([f.real, f.imag])
        # least squares: identical to the exact solve when J is regular and a
        # clean minimum-norm step along nodal lines when it is not
        step = np.linalg.lstsq(jac, rhs, rcond=1e-12)[0]

        lam = 1.0
        improved = False
        while lam > 1e-8:
            cand = x + lam * step
            f_new = complex(gaussian_sum(terms, cand[0], cand[1]))
            if abs(f_new) < abs(f):
                x, f = cand, f_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        if np.hypot(*(x - seed)) > max_travel:
            raise NoConvergence(f"iterates escaped {max_travel} away from seed {seed}")

    if abs(f) <= NEWTON_TOL:
        return RefinedSpot(x, abs(f), _NEWTON_MAX_ITER, seed)
    raise NoConvergence(f"|f| = {abs(f):.3e} after {_NEWTON_MAX_ITER} iterations from seed {seed}")


_SEED_THRESHOLD = 1e-2  # largest estimated basin floor of |chi|^2 that seeds Newton


def find_spots_generic(state: Superposition, window, grid_step: float) -> List[RefinedSpot]:
    """Scan |chi|^2 for local minima, Newton-refine to |chi| <= NEWTON_TOL, deduplicate.

    A seed is an interior grid point that is the smallest of its 3x3 patch
    and whose parabolic estimate of the basin floor (per axis, where the
    curvature is positive) lies below _SEED_THRESHOLD.  Works for any number
    of states; an empty list is a valid result (a single coherent state has
    no zeros at all).  A scan grid of more than MAX_GRID_CELLS points raises
    ValidationError before it is allocated.
    """
    require_normalized(state)
    (plo, phi), (qlo, qhi) = window
    # the clamp keeps ceil finite for a subnormal step; the cap then rejects it
    with np.errstate(over="ignore"):
        n_p = max(4, int(math.ceil(min((phi - plo) / grid_step, MAX_GRID_CELLS))) + 1)
        n_q = max(4, int(math.ceil(min((qhi - qlo) / grid_step, MAX_GRID_CELLS))) + 1)
    if n_p * n_q > MAX_GRID_CELLS:
        raise ValidationError(f"a scan grid of {n_p} x {n_q} points exceeds "
                              f"{MAX_GRID_CELLS} cells; use a larger grid_step")
    ap = np.linspace(plo, phi, n_p)
    aq = np.linspace(qlo, qhi, n_q)
    v = np.abs(chord_values(state, ap[:, None], aq[None, :])) ** 2

    v0 = v[1:-1, 1:-1]
    seeded = v0 <= np.lib.stride_tricks.sliding_window_view(v, (3, 3)).min(axis=(2, 3))
    # basin floor: each axis with positive curvature lowers v0 by grad^2 / 2 curv
    floor = v0
    for vp, vm in ((v[2:, 1:-1], v[:-2, 1:-1]), (v[1:-1, 2:], v[1:-1, :-2])):
        curv = vp - 2.0 * v0 + vm
        grad = 0.5 * (vp - vm)
        bent = curv > 0
        floor = np.where(bent, floor - 0.5 * grad * grad / np.where(bent, curv, 1.0), floor)
    seeded &= floor < _SEED_THRESHOLD

    candidates = []
    for i, j in zip(*np.nonzero(seeded)):
        try:
            spot = newton_refine(state, (ap[i + 1], aq[j + 1]))
        except (NoConvergence, SingularJacobian):
            continue
        if plo <= spot.xi[0] <= phi and qlo <= spot.xi[1] <= qhi:
            candidates.append(spot)

    # candidates are in grid order of their seeds, and the earliest seed of a
    # spot is kept: residuals at round-off level must not decide it
    kept: List[RefinedSpot] = []
    for spot in candidates:
        if all(np.hypot(*(spot.xi - k.xi)) > grid_step / 2 for k in kept):
            kept.append(spot)
    kept.sort(key=lambda s: (s.xi[0], s.xi[1]))
    return kept


# -- marching squares ----------------------------------------------------------

_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))

_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    3: [(3, 1)], 12: [(3, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    6: [(0, 2)], 9: [(0, 2)],
    7: [(3, 2)], 8: [(3, 2)],
}


def _edge_point(corners, values, edge):
    ia, ib = _EDGES[edge]
    va, vb = values[ia], values[ib]
    t = va / (va - vb)
    t = min(1.0, max(0.0, t))
    return corners[ia] + t * (corners[ib] - corners[ia])


def trace_nodal_lines(grid: FieldGrid, part: str) -> NodalLineSet:
    """Zero contours of Re chi or Im chi by marching squares.

    Every blind spot in the window lies on (within a cell of) one polyline of
    each part; the imaginary set always carries a line through the origin.
    """
    if grid.kind != "chord":
        raise ValidationError("nodal lines are traced on chord-kind grids")
    if part not in ("real", "imaginary"):
        raise ValidationError(f"part must be 'real' or 'imaginary', got {part!r}")
    field = grid.values.real if part == "real" else grid.values.imag
    ap, aq = grid.axis_p, grid.axis_q
    eps = 0.25 * min(grid.step_p, grid.step_q) * 1e-6

    def key(pt):
        return (round(pt[0] / eps), round(pt[1] / eps))

    segments = []
    rows, cols = grid.shape
    for i in range(rows - 1):
        for j in range(cols - 1):
            corners = (np.array([ap[i], aq[j]]), np.array([ap[i + 1], aq[j]]),
                       np.array([ap[i + 1], aq[j + 1]]), np.array([ap[i], aq[j + 1]]))
            vals = (field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1])
            idx = sum(1 << n for n, v in enumerate(vals) if v > 0)
            if idx in _CASES:
                edges = _CASES[idx]
            else:
                center_positive = (vals[0] + vals[1] + vals[2] + vals[3]) > 0
                if idx == 5:
                    edges = [(0, 1), (2, 3)] if center_positive else [(3, 0), (1, 2)]
                else:  # idx == 10
                    edges = [(3, 0), (1, 2)] if center_positive else [(0, 1), (2, 3)]
            for ea, eb in edges:
                pa = _edge_point(corners, vals, ea)
                pb = _edge_point(corners, vals, eb)
                if key(pa) != key(pb):
                    segments.append((pa, pb))

    # chain segments into polylines through shared endpoints
    adjacency: dict = {}
    for s, (pa, pb) in enumerate(segments):
        adjacency.setdefault(key(pa), []).append((s, 0))
        adjacency.setdefault(key(pb), []).append((s, 1))

    used = [False] * len(segments)

    def walk(start_seg, start_end):
        pts = [segments[start_seg][start_end], segments[start_seg][1 - start_end]]
        used[start_seg] = True
        while True:
            k = key(pts[-1])
            nxt = [(s, e) for s, e in adjacency.get(k, ()) if not used[s]]
            if not nxt:
                break
            s, e = nxt[0]
            used[s] = True
            pts.append(segments[s][1 - e])
        return np.array(pts)

    polylines = []
    for k, entries in sorted(adjacency.items()):
        if len(entries) == 1:
            s, e = entries[0]
            if not used[s]:
                polylines.append(walk(s, e))
    for s in range(len(segments)):
        if not used[s]:
            polylines.append(walk(s, 0))
    return NodalLineSet(tuple(polylines), part)


def recover_centers(angles: TriangleAngles, spot_a, spot_b, hbar: float):
    """Inverse problem: centers eta_1, eta_2 from two indexed blind spots.

    Each spot is (xi, k1, k2) from the same angle branch; the two linear phase
    conditions per center are solved exactly.
    """
    def unpack(spot):
        if isinstance(spot, LatticeNode):
            return as_phase_vector(spot.xi, "xi"), int(spot.k1), int(spot.k2)
        xi, k1, k2 = spot
        return as_phase_vector(xi, "xi"), int(k1), int(k2)

    xi_a, k1a, k2a = unpack(spot_a)
    xi_b, k1b, k2b = unpack(spot_b)
    solve = skew_solver(xi_a, xi_b, DegenerateSpots("measured chords are parallel or zero"))
    thetas = (angles.theta1, angles.theta2)
    ks = ((k1a, k1b), (k2a, k2b))
    etas = []
    for theta, (ka, kb) in zip(thetas, ks):
        sa = hbar * (theta + TWO_PI * ka)
        sb = hbar * (theta + TWO_PI * kb)
        etas.append(solve(-sa, -sb))
    return etas[0], etas[1]
