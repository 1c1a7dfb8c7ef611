import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindspots import (
    DegenerateGeometry,
    DegenerateSpots,
    DiffractionModel,
    NoClosure,
    NoConvergence,
    RefinedSpot,
    Superposition,
    TriangleAngles,
    ValidationError,
    WrongArity,
    apply_symplectic,
    chord_exact,
    chord_grid,
    chord_values,
    find_spots_generic,
    hexagonal_lattice,
    newton_refine,
    normalize,
    recover_centers,
    shift_origin,
    small_chord,
    sublattice_nodes,
    trace_nodal_lines,
    triangle_close,
)
from blindspots import spots as spots_module
from conftest import HBAR, triplet


def test_small_chord_at_origin(compact_triplet):
    model = DiffractionModel.from_superposition(compact_triplet)
    assert small_chord(model, (0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_small_chord_vanishes_at_lattice_node(oblique_triplet):
    model = DiffractionModel.from_superposition(oblique_triplet)
    lattice = hexagonal_lattice(model)
    for node in lattice.first_shell(6):
        assert abs(small_chord(model, node.xi)) < 1e-12


def test_small_chord_unequal_cat_minimum():
    model = DiffractionModel(HBAR, (0.6, 0.4), np.array([[0.0, 0.0], [0.0, 3.0]]))
    # at the phase-pi chord the two phasors anti-align exactly
    xi_pi = np.array([-np.pi * HBAR / 3.0, 0.0])
    assert abs(small_chord(model, xi_pi)) == pytest.approx(0.2, abs=1e-12)
    xs = np.linspace(-0.3, 0.3, 301)
    vals = np.abs([small_chord(model, (x, 0.17 * x)) for x in xs])
    assert vals.min() >= 0.2 - 1e-12


def test_triangle_close_equilateral():
    plus, minus = triangle_close(1 / 3, 1 / 3, 1 / 3)
    assert {round(plus.theta1, 9), round(minus.theta1, 9)} == {
        round(2 * np.pi / 3, 9), round(4 * np.pi / 3, 9)}
    assert plus.theta2 == pytest.approx(2 * np.pi - plus.theta1)
    assert plus.closure_residual() < 1e-12
    assert minus.closure_residual() < 1e-12


def test_triangle_close_rejects_violated_inequality():
    with pytest.raises(NoClosure):
        triangle_close(0.6, 0.2, 0.2)


def test_triangle_close_generic_weights():
    plus, minus = triangle_close(0.5, 0.3, 0.2)
    assert plus.closure_residual() < 1e-12
    assert minus.closure_residual() < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_triangle_close_closure_property(a, b, c):
    total = a + b + c
    w = (a / total, b / total, c / total)
    try:
        plus, minus = triangle_close(*w)
    except NoClosure:
        assert max(w) >= (1 - max(w)) - 1e-9
        return
    assert plus.closure_residual() < 1e-12
    assert minus.closure_residual() < 1e-12


def test_sublattice_hand_solved_system():
    # the stated pair of linear phase conditions, solved for theta1 = theta2 =
    # 2 pi / 3 at k = (0, 0); note this angle pair does not close the triangle,
    # the closing partner is (2 pi/3, 4 pi/3)
    angles = TriangleAngles(2 * np.pi / 3, 2 * np.pi / 3, "plus", (1 / 3, 1 / 3, 1 / 3))
    [(xi, _, _)] = sublattice_nodes(angles, (0, 5), (5, 0), HBAR, ((0, 0), (0, 0)))
    assert xi == pytest.approx([-0.031415926, 0.031415926], abs=1e-8)


def test_sublattice_rejects_collinear_centers():
    angles = TriangleAngles(2 * np.pi / 3, 4 * np.pi / 3, "minus", (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(DegenerateGeometry):
        sublattice_nodes(angles, (1.0, 2.0), (2.0, 4.0), HBAR, ((0, 0), (0, 0)))


def test_lattice_rejects_coincident_centers():
    # a center on top of the first leaves a zero lattice vector
    state = triplet([(0.0, 0.0), (0.0, 0.0), (0.0, 3.0)])
    with pytest.raises(DegenerateGeometry):
        hexagonal_lattice(DiffractionModel.from_superposition(state))


def test_sublattice_oblique_node_count_and_closure(oblique_triplet):
    model = DiffractionModel.from_superposition(oblique_triplet)
    plus, minus = triangle_close(*model.weights)
    for angles in (plus, minus):
        nodes = sublattice_nodes(angles, model.centers[1], model.centers[2], HBAR,
                                 ((-2, 2), (-2, 2)))
        assert len(nodes) == 25
        for xi, k1, k2 in nodes:
            assert abs(small_chord(model, xi)) < 1e-12


def test_lattice_phase_conditions(oblique_triplet):
    model = DiffractionModel.from_superposition(oblique_triplet)
    lattice = hexagonal_lattice(model)
    by_branch = {"plus": lattice.angles[0], "minus": lattice.angles[1]}
    for node in lattice.nodes:
        ang = by_branch[node.sublattice]
        for eta, theta, k in ((model.centers[1], ang.theta1, node.k1),
                              (model.centers[2], ang.theta2, node.k2)):
            phase = (eta[0] * node.xi[1] - eta[1] * node.xi[0]) / HBAR
            assert abs(phase - theta - 2 * np.pi * k) < 1e-10


def test_lattice_requires_triplet():
    model = DiffractionModel(HBAR, (0.5, 0.5), np.array([[0.0, 0.0], [0.0, 3.0]]))
    with pytest.raises(WrongArity):
        hexagonal_lattice(model)


def test_lattice_sublattices_are_mirror_images(corner_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet))
    plus_set = [n.xi for n in lattice.nodes if n.sublattice == "plus"]
    minus_set = [n.xi for n in lattice.nodes if n.sublattice == "minus"]
    inner = [x for x in plus_set if np.hypot(*x) < 0.15]
    for x in inner:
        assert min(np.hypot(*(x + y)) for y in minus_set) < 1e-12


def test_lattice_intersublattice_vectors_are_node_vectors(corner_triplet):
    # vectors between the sublattices coincide with vectors from the origin to
    # lattice nodes, which is what makes translated triplets quasi-orthogonal
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet),
                                ((-3, 3), (-3, 3)))
    shell = lattice.first_shell(6)
    all_nodes = [n.xi for n in lattice.nodes]
    for a in shell:
        for b in shell:
            if a.sublattice == b.sublattice:
                continue
            diff = a.xi - b.xi
            assert min(np.hypot(*(diff - x)) for x in all_nodes) < 1e-10


def test_lattice_nodes_are_affine_in_indices(oblique_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    offsets = {"plus": lattice.offsets[0], "minus": lattice.offsets[1]}
    b1, b2 = lattice.basis
    for node in lattice.nodes:
        want = offsets[node.sublattice] + node.k1 * b1 + node.k2 * b2
        assert np.allclose(node.xi, want, atol=1e-12)


def test_lattice_first_shell_hexagon(oblique_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    shell = lattice.first_shell(6)
    assert {n.sublattice for n in shell} == {"plus", "minus"}
    assert len(shell) == 6


def test_newton_first_shell_converges(oblique_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    spacing = lattice.nearest_spacing()
    for node in lattice.first_shell(6):
        spot = newton_refine(oblique_triplet, node.xi)
        assert spot.residual < 1e-12
        assert np.hypot(*(spot.xi - node.xi)) < 0.05 * spacing


def test_newton_no_zero_for_single_state():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    with pytest.raises(NoConvergence):
        newton_refine(st, (0.1, 0.1))


def test_newton_balanced_cat_zero_line():
    cat = shift_origin(normalize(Superposition.from_centers(HBAR, [1.0, 1.0],
                                                            [(0, 0), (0, 4)])), (0, 2))
    rng = np.random.default_rng(3)
    pts = []
    for _ in range(14):
        seed = np.array([-np.pi * HBAR / 4, rng.uniform(-0.25, 0.25)])
        seed += rng.normal(scale=0.01, size=2)
        pts.append(newton_refine(cat, seed).xi)
    pts = np.array(pts)
    assert len(np.unique(np.round(pts[:, 1], 8))) >= 10   # distinct points
    spread = pts - pts.mean(axis=0)
    svals = np.linalg.svd(spread, compute_uv=False)
    assert svals[1] < 1e-8 * svals[0]                      # they span a line


def test_newton_jacobian_matches_finite_differences(oblique_triplet):
    from blindspots.chord import chord_gradient
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    for node in lattice.first_shell(3):
        seed = node.xi + np.array([0.004, -0.003])
        g = chord_gradient(oblique_triplet, seed)
        e = 1e-6
        fd_p = (complex(chord_values(oblique_triplet, seed[0] + e, seed[1]))
                - complex(chord_values(oblique_triplet, seed[0] - e, seed[1]))) / (2 * e)
        fd_q = (complex(chord_values(oblique_triplet, seed[0], seed[1] + e))
                - complex(chord_values(oblique_triplet, seed[0], seed[1] - e))) / (2 * e)
        assert abs(g[0] - fd_p) <= 1e-5 * max(1.0, abs(fd_p))
        assert abs(g[1] - fd_q) <= 1e-5 * max(1.0, abs(fd_q))


def test_find_spots_empty_for_single_state():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0, 0)]))
    assert find_spots_generic(st, ((-0.3, 0.3), (-0.3, 0.3)), 0.05) == []


def test_find_spots_cell_cap_checked_before_allocating(monkeypatch, compact_triplet):
    def refuse(*args):
        raise AssertionError("the scan grid was evaluated")

    monkeypatch.setattr(spots_module, "chord_values", refuse)
    r = 3.0 * np.sqrt(HBAR)  # 1.6e9 points per axis at grid_step 1e-9
    with pytest.raises(ValidationError, match="exceeds"):
        find_spots_generic(compact_triplet, ((-r, r), (-r, r)), 1e-9)


def test_find_spots_matches_lattice_pipeline(compact_triplet):
    window = ((-0.5, 0.5), (-0.5, 0.5))
    found = find_spots_generic(compact_triplet, window, 0.02)
    assert found
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(compact_triplet),
                                ((-3, 3), (-3, 3)))
    refined = []
    for node in lattice.nodes:
        try:
            spot = newton_refine(compact_triplet, node.xi)
        except NoConvergence:
            continue
        if abs(spot.xi[0]) <= 0.5 and abs(spot.xi[1]) <= 0.5:
            refined.append(spot.xi)
    for f in found:
        assert min(np.hypot(*(f.xi - r)) for r in refined) < 1e-9


def test_find_spots_stable_under_step_halving(oblique_triplet):
    window = ((-0.25, 0.25), (-0.25, 0.25))
    coarse = find_spots_generic(oblique_triplet, window, 0.015)
    fine = find_spots_generic(oblique_triplet, window, 0.0075)
    assert len(coarse) == len(fine)
    for a in coarse:
        assert min(np.hypot(*(a.xi - b.xi)) for b in fine) < 1e-8


def test_find_spots_four_state_superposition():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-1.5, 1.5, (4, 2))
    state = normalize(Superposition.from_centers(HBAR, [1.0] * 4, centers))
    window = ((-0.35, 0.35), (-0.35, 0.35))
    spots_a = find_spots_generic(state, window, 0.012)
    spots_b = find_spots_generic(state, window, 0.006)
    assert spots_a
    assert len(spots_a) == len(spots_b)
    for a in spots_a:
        assert min(np.hypot(*(a.xi - b.xi)) for b in spots_b) < 1e-8


def test_find_spots_keeps_earliest_seed_of_a_duplicate(monkeypatch, compact_triplet):
    # every seed refines to the same spot, later seeds with smaller residuals:
    # the kept duplicate is the one from the first seed in grid order
    calls = []

    def refine(state, seed):
        calls.append(np.asarray(seed, dtype=float))
        return RefinedSpot(np.array([0.01, 0.02]), 1e-16 / len(calls), len(calls), calls[-1])

    monkeypatch.setattr(spots_module, "newton_refine", refine)
    found = find_spots_generic(compact_triplet, ((-0.4, 0.4), (-0.4, 0.4)), 0.02)
    assert len(calls) > 1
    assert len(found) == 1
    assert found[0].iterations == 1
    assert np.array_equal(found[0].seed, calls[0])


def cellwise_seeds(state, window, step, threshold=1e-2):
    """Reference for the scan's seed test, cell by cell: the smallest point of
    its 3x3 patch, whose parabolic basin floor lies below the threshold."""
    (plo, phi), (qlo, qhi) = window
    ap = np.linspace(plo, phi, max(4, int(np.ceil((phi - plo) / step)) + 1))
    aq = np.linspace(qlo, qhi, max(4, int(np.ceil((qhi - qlo) / step)) + 1))
    v = np.abs(chord_values(state, ap[:, None], aq[None, :])) ** 2
    seeds = []
    for i in range(1, len(ap) - 1):
        for j in range(1, len(aq) - 1):
            if v[i, j] > v[i - 1:i + 2, j - 1:j + 2].min():
                continue
            est = v[i, j]
            for vp, vm in ((v[i + 1, j], v[i - 1, j]), (v[i, j + 1], v[i, j - 1])):
                curv = vp - 2.0 * v[i, j] + vm
                if curv > 0:
                    grad = 0.5 * (vp - vm)
                    est -= 0.5 * grad * grad / curv
            if max(0.0, float(est)) < threshold:
                seeds.append((ap[i], aq[j]))
    return seeds


@pytest.mark.parametrize("step", [0.012, 0.02])
def test_find_spots_seeds_match_cellwise_reference(monkeypatch, compact_triplet, oblique_triplet,
                                                   step):
    rng = np.random.default_rng(3)
    four = normalize(Superposition.from_centers(HBAR, [1.0] * 4, rng.uniform(-1.5, 1.5, (4, 2))))
    window = ((-0.4, 0.35), (-0.35, 0.4))
    seeds = []

    def refine(state, seed):
        seeds.append(seed)
        raise NoConvergence("recorded")

    monkeypatch.setattr(spots_module, "newton_refine", refine)
    for state in (compact_triplet, oblique_triplet, four):
        seeds.clear()
        assert find_spots_generic(state, window, step) == []
        assert seeds == cellwise_seeds(state, window, step)
        assert seeds


def test_nodal_lines_structure(compact_triplet):
    grid = chord_grid(compact_triplet, ((-0.5, 0.5), (-0.5, 0.5)), (101, 101))
    im_lines = trace_nodal_lines(grid, "imaginary")
    re_lines = trace_nodal_lines(grid, "real")
    cell = np.hypot(grid.step_p, grid.step_q)

    # an imaginary nodal line always passes through the origin
    d_im = min(np.min(np.hypot(pl[:, 0], pl[:, 1])) for pl in im_lines.polylines)
    assert d_im <= cell
    # the real part peaks at the origin, so real lines avoid it
    d_re = min(np.min(np.hypot(pl[:, 0], pl[:, 1])) for pl in re_lines.polylines)
    assert d_re > 5 * cell

    # blind spots sit on intersections of the two families
    for spot in find_spots_generic(compact_triplet, ((-0.4, 0.4), (-0.4, 0.4)), 0.02):
        for lines in (im_lines, re_lines):
            d = min(np.min(np.hypot(pl[:, 0] - spot.xi[0], pl[:, 1] - spot.xi[1]))
                    for pl in lines.polylines)
            assert d <= cell


def test_recover_centers_round_trip_corner(corner_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet))
    plus_nodes = {(n.k1, n.k2): n for n in lattice.nodes if n.sublattice == "plus"}
    eta1, eta2 = recover_centers(lattice.angles[0], plus_nodes[(0, 0)],
                                 plus_nodes[(1, 0)], HBAR)
    assert np.allclose(eta1, (0.0, 5.0), atol=1e-9)
    assert np.allclose(eta2, (5.0, 0.0), atol=1e-9)


def test_recover_centers_round_trip_oblique(oblique_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    minus_nodes = {(n.k1, n.k2): n for n in lattice.nodes if n.sublattice == "minus"}
    eta1, eta2 = recover_centers(lattice.angles[1], minus_nodes[(0, 0)],
                                 minus_nodes[(0, 1)], HBAR)
    assert np.allclose(eta1, (-4.0, 0.3), atol=1e-9)
    assert np.allclose(eta2, (0.2, 3.0), atol=1e-9)


def test_recover_centers_rejects_parallel_spots(corner_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet))
    node = lattice.nodes[0]
    doubled = (2.0 * node.xi, node.k1, node.k2)
    with pytest.raises(DegenerateSpots):
        recover_centers(lattice.angles[0], node, doubled, HBAR)
    with pytest.raises(DegenerateSpots):  # a zero chord is parallel to any other
        recover_centers(lattice.angles[0], node, (np.zeros(2), 0, 0), HBAR)


# -- structural invariants -------------------------------------------------


def test_diffraction_fidelity_well_separated(corner_triplet):
    model = DiffractionModel.from_superposition(corner_triplet)
    rng = np.random.default_rng(7)
    bound = 3 * np.sqrt(HBAR)
    for _ in range(100):
        xi = rng.uniform(-bound, bound, 2)
        approx = small_chord(model, xi) * np.exp(-(xi @ xi) / (4 * HBAR))
        assert abs(chord_exact(corner_triplet, xi) - approx) < 1e-6


def test_spots_insensitive_to_amplitude_phases(corner_triplet):
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet))
    phased = normalize(Superposition.from_centers(
        HBAR, [np.exp(0.7j), np.exp(-1.1j), np.exp(2.2j)],
        [(0, 0), (0, 5), (5, 0)]))
    rng = np.random.default_rng(19)
    spacing = lattice.nearest_spacing()
    for node in lattice.first_shell(4):
        seed = node.xi + rng.normal(scale=0.2 * spacing, size=2)
        a = newton_refine(corner_triplet, seed).xi
        b = newton_refine(phased, seed).xi
        assert np.hypot(*(a - b)) < 1e-3 * np.sqrt(HBAR)


def test_translated_triplets_quasi_orthogonal(corner_triplet):
    from blindspots import overlap, translate_state
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(corner_triplet),
                                ((-1, 1), (-1, 1)))
    nodes = sorted((n for n in lattice.nodes if n.sublattice == "plus"),
                   key=lambda n: np.hypot(*n.xi))[:3]
    spots = [newton_refine(corner_triplet, n.xi).xi for n in nodes]
    terms = []
    for xi in spots:
        shifted = translate_state(corner_triplet, xi)
        terms.extend((a / np.sqrt(3), g) for a, g in shifted.terms)
    combined = normalize(Superposition(HBAR, tuple(terms)))
    assert abs(overlap(corner_triplet, combined)) < 1e-3


def test_unequal_cat_has_no_zeros():
    cat = normalize(Superposition.from_centers(
        HBAR, [np.sqrt(0.6), np.sqrt(0.4)], [(0, 0), (0, 4)]))
    xs = np.linspace(-0.12, 0.12, 161)
    vals = np.abs(chord_values(cat, xs[:, None], xs[None, :])) ** 2
    assert vals.min() >= 0.5 * 0.2 ** 2


def test_squeeze_maps_blind_spots(oblique_triplet):
    s = np.diag([2.0, 0.5])
    squeezed = apply_symplectic(oblique_triplet, s)
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(oblique_triplet))
    for node in lattice.first_shell(4):
        spot = newton_refine(oblique_triplet, node.xi)
        mapped = newton_refine(squeezed, s @ spot.xi)
        assert mapped.residual < 1e-12
        assert np.hypot(*(mapped.xi - s @ spot.xi)) < 1e-9
