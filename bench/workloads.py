"""Seeded inputs, jobs and output checks of the four workloads.

A job is one task a user runs: one CLI invocation from JSON config to written
CSV, or one library call.  `build(name, seed, workdir)` returns the jobs of
one round; every round runs the same jobs on the same inputs.  A job's
`check` looks at its first output and returns the problems it finds; later
rounds must reproduce the first round's `fingerprint` exactly.

The seed moves what does not change how much work a job does: amplitudes and
relative phases, rigid translations, small jitters of the centers, squeeze
parameters and coupling strengths.  Term counts, grid shapes, sample counts
and time grids are fixed, so that run-to-run spread is the machine's and not
the inputs'.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List

import numpy as np

import blindspots as bs
from blindspots import GaussianState, LindbladModel, Superposition, cli, normalize

import oracles

HBAR = 0.075
COMPACT = ((0.0, 0.0), (1.5, -0.1), (0.2, 1.5))
# closed form against quadrature, as in the library's own oracle contract
ORACLE_TOL = 1e-8
# |chi| at a refined spot, by quadrature
SPOT_TOL = 1e-8


class JobFailed(Exception):
    """A CLI job exited with a non-zero code."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    fingerprint: Callable[[Any], Any]


# -- states -------------------------------------------------------------------

def entry(amp: complex, center, frame=None) -> dict:
    e = {"amplitude": [float(amp.real), float(amp.imag)],
         "center": [float(center[0]), float(center[1])]}
    if frame is not None:
        e["frame"] = np.asarray(frame, dtype=float).tolist()
    return e


def superposition(entries) -> Superposition:
    """The raw (unnormalized) state a config describes."""
    return Superposition(HBAR, tuple(
        (complex(*e["amplitude"]),
         GaussianState(e["center"], e.get("frame", np.eye(2)))) for e in entries))


def random_phases(rng, n) -> np.ndarray:
    return np.exp(2j * math.pi * rng.random(n))


def squeeze(r: float, angle: float) -> np.ndarray:
    """Symplectic frame: squeeze by exp(r) along a direction at `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([math.exp(r), math.exp(-r)]) @ rot.T


def triplet_entries(rng, centers, weights=None, frames=(None, None, None)):
    """Triplet with seeded weights (unless given), phases and translation."""
    w = rng.uniform(0.8, 1.2, 3) if weights is None else np.asarray(weights)
    amps = np.sqrt(w) * random_phases(rng, 3)
    offset = rng.uniform(-0.5, 0.5, 2)
    return [entry(a, np.asarray(c) + offset, f) for a, c, f in zip(amps, centers, frames)]


def many_entries(rng, n):
    """n coherent states with seeded amplitudes and centers within +-1.5."""
    amps = rng.uniform(0.3, 1.0, n) * random_phases(rng, n)
    return [entry(a, c) for a, c in zip(amps, rng.uniform(-1.5, 1.5, (n, 2)))]


def centers_of(entries) -> np.ndarray:
    return np.array([e["center"] for e in entries])


def weights_of(entries) -> np.ndarray:
    w = np.array([abs(complex(*e["amplitude"])) ** 2 for e in entries])
    return w / w.sum()


# -- running jobs ---------------------------------------------------------------

class Cli:
    """Writes configs under a work directory and runs CLI subcommands on them
    in this process, single-threaded."""

    def __init__(self, workdir: Path, on_output=None):
        self.workdir = workdir
        self.on_output = on_output

    def config(self, name: str, cfg: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return path

    def invoke(self, sub: str, cfg_path: Path, out_path: Path) -> Path:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([sub, str(cfg_path), "--out", str(out_path), "--threads", "1"])
        if self.on_output is not None and out_path.exists():
            self.on_output(out_path.stat().st_size)
        if code != 0:
            raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out_path

    def job(self, name: str, sub: str, cfg: dict, check) -> Job:
        cfg_path = self.config(name, cfg)
        out_path = self.workdir / f"{name}.csv"
        return Job(name, lambda: self.invoke(sub, cfg_path, out_path), check, file_digest)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def problem(ok: bool, text: str) -> List[str]:
    return [] if ok else [text]


# -- maps -----------------------------------------------------------------------

def _grid_values(path):
    meta, data = oracles.read_table(path)
    return tuple(int(x) for x in meta["shape"].split()), data


def check_chord_grid(entries, picks):
    ref = oracles.ChordReference(superposition(entries))

    def check(path):
        shape, data = _grid_values(path)
        chi = (data[:, 2] + 1j * data[:, 3]).reshape(shape)
        centre = chi[shape[0] // 2, shape[1] // 2]
        worst = max(abs(data[i, 2] + 1j * data[i, 3] - ref.chi(data[i, :2])) for i in picks)
        return (problem(abs(centre - 1.0) <= 1e-12, f"chi(0) = {centre}")
                + problem(np.max(np.abs(chi - np.conj(chi[::-1, ::-1]))) <= 1e-10,
                          "chi(-xi) != conj chi(xi)")
                + problem(np.max(np.abs(chi)) <= 1.0 + 1e-12, "|chi| > 1")
                + problem(worst <= ORACLE_TOL, f"chord vs quadrature: {worst:.2e}"))
    return check


def check_corr_grid(entries, picks):
    ref = oracles.ChordReference(superposition(entries))

    def check(path):
        shape, data = _grid_values(path)
        c = data[:, 2].reshape(shape)
        worst = max(abs(data[i, 2] - abs(ref.chi(data[i, :2])) ** 2) for i in picks)
        return (problem(abs(c[shape[0] // 2, shape[1] // 2] - 1.0) <= 1e-12, "C(0) != 1")
                + problem(np.max(np.abs(c - c[::-1, ::-1])) <= 1e-10, "C(-xi) != C(xi)")
                + problem(c.min() >= 0.0 and c.max() <= 1.0 + 1e-12, "C outside [0, 1]")
                + problem(worst <= ORACLE_TOL, f"corr vs quadrature: {worst:.2e}"))
    return check


def check_wigner_grid(entries, picks):
    terms = [(complex(*e["amplitude"]), e["center"]) for e in entries]

    def check(path):
        _, data = _grid_values(path)
        worst = max(abs(data[i, 2] - oracles.wigner_reference(HBAR, terms, data[i, :2]))
                    for i in picks)
        bound = 1.0 / (math.pi * HBAR)
        return (problem(np.max(np.abs(data[:, 2])) <= bound * (1 + 1e-9), "|W| > 1/(pi hbar)")
                + problem(worst <= ORACLE_TOL, f"Wigner vs position integral: {worst:.2e}"))
    return check


def check_invariants(path):
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return (problem(all(line.startswith("PASS:") for line in lines), f"check lines: {lines}")
            + problem(any("Fourier invariance" in line for line in lines),
                      "no Fourier invariance line"))


def same_bytes_as(first: Path):
    def check(path):
        return problem(file_digest(path) == file_digest(first), f"{path.name} differs from {first.name}")
    return check


def maps(rng, workdir: Path, on_output) -> List[Job]:
    """CLI grid and check jobs: 161x161 maps, the 17-digit writer and both
    Fourier paths.  Newton and decoherence do none of this work."""
    run = Cli(workdir, on_output)
    small = triplet_entries(rng, np.asarray(COMPACT) + rng.uniform(-0.1, 0.1, (3, 2)),
                            weights=rng.uniform(0.5, 1.0, 3))
    many = {n: many_entries(rng, n) for n in (12, 10, 8)}
    chord_window = [[-1.2, 1.2], [-1.2, 1.2]]
    shape = [161, 161]

    def picks():
        return rng.choice(shape[0] * shape[1], size=4, replace=False)

    def wigner_window(entries):
        c = centers_of(entries)
        return [[c[:, 0].min() - 1.0, c[:, 0].max() + 1.0], [c[:, 1].min() - 1.0, c[:, 1].max() + 1.0]]

    def grid(entries, kind, window):
        return {"hbar": HBAR, "states": entries,
                "grid": {"kind": kind, "window": window, "shape": shape}}

    # halfwidth 6.5 keeps |C| at the edges below 1e-12 of its peak for
    # centers within +-1.5; the self-dual grid takes the FFT path
    window, (n, _) = bs.self_dual_grid(HBAR, 6.5)
    self_dual = {"window": [[float(lo), float(hi)] for lo, hi in window], "shape": [n, n]}
    plain = {"window": [[-4.8, 4.8], [-4.8, 4.8]], "shape": [193, 193]}

    # Jobs of similar length are spread over the round, so that one slow
    # spell of the machine does not hit all the jobs near the median.
    return [
        run.job("grid-chord-3", "grid", grid(small, "chord", chord_window),
                check_chord_grid(small, picks())),
        run.job("grid-wigner-10", "grid", grid(many[10], "wigner", wigner_window(many[10])),
                check_wigner_grid(many[10], picks())),
        run.job("grid-corr-3", "grid", grid(small, "corr", chord_window),
                check_corr_grid(small, picks())),
        run.job("grid-chord-12", "grid", grid(many[12], "chord", chord_window),
                check_chord_grid(many[12], picks())),
        run.job("grid-chord-3-again", "grid", grid(small, "chord", chord_window),
                same_bytes_as(workdir / "grid-chord-3.csv")),
        run.job("check-fft-3", "check",
                {"hbar": HBAR, "states": small,
                 "check": dict(self_dual, seed=int(rng.integers(2 ** 31)), n_random=50)},
                check_invariants),
        run.job("grid-wigner-3", "grid", grid(small, "wigner", wigner_window(small)),
                check_wigner_grid(small, picks())),
        run.job("grid-corr-8", "grid", grid(many[8], "corr", chord_window),
                check_corr_grid(many[8], picks())),
        run.job("check-matmul-3", "check",
                {"hbar": HBAR, "states": small,
                 "check": dict(plain, seed=int(rng.integers(2 ** 31)), n_random=50)},
                check_invariants),
    ]


# -- spots ------------------------------------------------------------------------

# Well separated triangles (sides near 3): every lattice node of |k| <= 4
# refines to a spot a small fraction of a spacing away, and invert recovers
# the centers.
TRIANGLES = (
    ((0.0, 0.0), (3.0, 0.0), (1.35, 2.7)),
    ((0.0, 0.0), (2.8, 0.6), (0.4, 3.1)),
    ((0.0, 0.0), (3.2, -0.4), (1.9, 2.6)),
    ((0.0, 0.0), (2.6, 1.2), (-0.6, 2.9)),
)
K_MAX = 4
# Irregular 4-, 5- and 6-term states for generic scans, as (centers,
# phases).  Geometry and relative phases set how many local minima a scan
# refines and how many refinements fail, and a translation changes the Newton
# paths enough to move those counts, so the seed applies one of the eight
# symmetries of the square window instead: the scan then does the same work.
GENERIC = {
    4: (((0.0, 0.0), (2.1, 0.3), (0.6, 2.4), (2.9, 2.2)), (0.0, 1.1, 2.5, 4.0)),
    5: (((-0.15, -1.81), (0.77, 1.5), (-1.94, -1.98), (-1.24, -0.25), (1.75, -1.52)),
        (3.23, 4.12, 0.11, 0.17, 5.18)),
    6: (((1.85, 1.06), (1.98, -1.6), (-1.22, -1.42), (-1.78, 1.09), (0.41, -1.08), (0.04, 1.6)),
        (5.44, 5.1, 4.54, 4.28, 0.64, 6.2)),
}
GENERIC_HALFWIDTH = 1.3   # in units of sqrt(hbar)


def check_spots(entries, k_max):
    """Spots are zeros by quadrature, one per lattice node of the small-chord
    model and close to it; invert gives back the centers."""
    ref = oracles.ChordReference(superposition(entries))
    centers = centers_of(entries)
    nodes = oracles.triangle_nodes(weights_of(entries), centers, HBAR, k_max)
    pts = np.array(list(nodes.values()))
    gaps = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    spacing = gaps[gaps > 0].min()

    def check(paths):
        spots_csv, invert_csv = paths
        _, _, rows = oracles.read_csv(spots_csv)
        found = {(r[8], int(r[6]), int(r[7])): r for r in rows}
        problems = problem(sorted(found) == sorted(nodes) and len(rows) == len(nodes),
                           f"{len(rows)} spots for {len(nodes)} lattice nodes")
        shift, residual = 0.0, 0.0
        for key, r in found.items():
            xi = np.array([float(r[0]), float(r[1])])
            node = nodes.get(key, np.array([np.inf, np.inf]))
            shift = max(shift, float(np.hypot(*(xi - node))) / spacing)
            residual = max(residual, abs(ref.chi(xi)))
        problems += problem(shift <= 0.1, f"spot {shift:.3f} spacings from its node")
        problems += problem(residual <= SPOT_TOL, f"|chi| at a spot by quadrature: {residual:.2e}")
        _, _, rows = oracles.read_csv(invert_csv)
        etas = np.array([[float(r[1]), float(r[2])] for r in rows])
        error = float(np.max(np.abs(etas - (centers[1:] - centers[0]))))
        return problems + problem(error <= 1e-3, f"inverted centers off by {error:.2e}")
    return check


def spots_pipeline(run: Cli, name: str, entries) -> Job:
    """CLI spots, then CLI invert on the refined spots (0, 0) and (1, 0) of
    the plus sublattice."""
    spots_cfg = run.config(name, {"hbar": HBAR, "states": entries,
                                  "spots": {"k_range": [[-K_MAX, K_MAX], [-K_MAX, K_MAX]]}})
    spots_csv = run.workdir / f"{name}.csv"
    invert_csv = run.workdir / f"{name}-invert.csv"

    def pipeline():
        run.invoke("spots", spots_cfg, spots_csv)
        _, _, rows = oracles.read_csv(spots_csv)
        found = {(r[8], int(r[6]), int(r[7])): [float(r[0]), float(r[1])] for r in rows}
        picked = [{"xi": found[("plus", k, 0)], "k": [k, 0]} for k in (0, 1)]
        invert_cfg = run.config(f"{name}-invert", {"hbar": HBAR, "states": entries,
                                                   "invert": {"branch": "plus", "spots": picked}})
        run.invoke("invert", invert_cfg, invert_csv)
        return spots_csv, invert_csv

    return Job(name, pipeline, check_spots(entries, K_MAX), lambda paths: file_digest(*paths))


def square_symmetry(k, centers, amps):
    """Image of a coherent-state superposition under the k-th symmetry of the
    square: a quarter turn k % 4 times, then for k >= 4 the reflection
    p -> -p, which conjugates the wavefunction and so the amplitudes."""
    c = np.asarray(centers, dtype=float) @ np.linalg.matrix_power(np.array([[0.0, 1.0], [-1.0, 0.0]]), k % 4)
    if k >= 4:
        c, amps = c * np.array([-1.0, 1.0]), np.conj(amps)
    return [entry(a, x) for a, x in zip(amps, c)]


def check_generic(entries, window):
    ref = oracles.ChordReference(superposition(entries))
    (plo, phi), (qlo, qhi) = window

    def check(spots):
        pts = np.array([s.xi for s in spots]).reshape(-1, 2)
        residual = max((abs(ref.chi(x)) for x in pts), default=0.0)
        inside = bool(np.all((pts[:, 0] >= plo) & (pts[:, 0] <= phi)
                             & (pts[:, 1] >= qlo) & (pts[:, 1] <= qhi)))
        return (problem(len(spots) > 0, "no spots found")
                + problem(inside, "a spot outside the window")
                + problem(residual <= SPOT_TOL, f"|chi| at a spot by quadrature: {residual:.2e}"))
    return check


def spots(rng, workdir: Path, on_output) -> List[Job]:
    """Lattice prediction plus Newton refinement on triplets, and generic
    scans: single-point chord evaluation under newton_refine."""
    run = Cli(workdir, on_output)
    pipelines = []
    for k, triangle in enumerate(TRIANGLES):
        frame = squeeze(rng.uniform(0.0, 0.2), rng.uniform(0.0, math.pi))
        entries = triplet_entries(rng, triangle, frames=(frame, frame, frame))
        pipelines.append(spots_pipeline(run, f"spots-invert-{k}", entries))
    r = GENERIC_HALFWIDTH * math.sqrt(HBAR)
    window = ((-r, r), (-r, r))
    scans = []
    for n, (centers, phases) in GENERIC.items():
        entries = square_symmetry(int(rng.integers(8)), centers, np.exp(1j * np.asarray(phases)))
        state = normalize(superposition(entries))
        scans.append(Job(f"scan-{n}",
                         lambda state=state: bs.find_spots_generic(state, window, math.sqrt(HBAR) / 12),
                         check_generic(entries, window),
                         lambda spots: repr([s.xi.tolist() for s in spots])))
    # the pipelines hold the median; scans between them spread them in time
    return [pipelines[0], scans[1], pipelines[1], scans[0], pipelines[2], scans[2], pipelines[3]]


# -- decoherence ----------------------------------------------------------------------

def lindblad_block(hamiltonian, couplings) -> dict:
    return {"h": np.asarray(hamiltonian, dtype=float).tolist(),
            "couplings": [{"re": np.real(c).tolist(), "im": np.imag(c).tolist()} for c in couplings]}


def lindblad_model(hamiltonian, couplings) -> LindbladModel:
    return LindbladModel(np.asarray(hamiltonian, dtype=float),
                         tuple(np.asarray(c, dtype=complex) for c in couplings))


def scan_rows(data):
    """(times, s, values[t, s], xi[s]) of a decohere CSV's rows."""
    times = np.unique(data[:, 0])
    n_s = len(data) // len(times)
    return times, data[:n_s, 1], data[:, 4].reshape(len(times), n_s), data[:n_s, 2:4]


def check_scan(entries, sample_picks):
    """0 <= C(xi, t) <= C(0, t) <= 1, C(0, t) never rises with t, and the
    t = 0 row is |chi|^2 by quadrature."""
    ref = oracles.ChordReference(superposition(entries))

    def check(data):
        times, s, values, xi = scan_rows(data)
        mid = int(np.argmin(np.abs(s)))
        purity = values[:, mid]
        worst = max(abs(values[0, i] - abs(ref.chi(xi[i])) ** 2) for i in sample_picks)
        return (problem(abs(s[mid]) <= 1e-12 * np.max(np.abs(s)), "the scan line misses the origin")
                + problem(abs(purity[0] - 1.0) <= 1e-9, f"C(0, 0) = {purity[0]}")
                + problem(values.min() >= -1e-12, "C(xi, t) < 0")
                + problem(np.all(values <= purity[:, None] + 1e-12), "C(xi, t) > C(0, t)")
                + problem(np.all(np.diff(purity) <= 1e-12), "C(0, t) rises with t")
                + problem(worst <= ORACLE_TOL, f"t = 0 row vs quadrature: {worst:.2e}"))
    return check


def csv_rows_check(check_rows):
    def check(path):
        return check_rows(oracles.read_table(path)[1])
    return check


def triangle_area(centers) -> float:
    a, b = centers[1] - centers[0], centers[2] - centers[0]
    return 0.5 * abs(a[0] * b[1] - a[1] * b[0])


def check_timescales(bound, t_p, tau_l):
    """t_p is the Husimi bound to within the bisection's 1e-3 and never above
    it, and tau_l comes first."""
    return (problem(bound * (1.0 - 1e-3) <= t_p <= bound * (1.0 + 1e-12),
                    f"t_p = {t_p!r}, Husimi bound {bound!r}")
            + problem(0.0 < tau_l < t_p, f"tau_l = {tau_l!r} not below t_p"))


N_SAMPLES = 601   # points of each timescales line scan
N_TIMES = 11      # nonzero times of each timescales line scan


def timescales(rng, workdir: Path, on_output) -> List[Job]:
    """decohere with its tau_l / t_p summary and lifting_ratio on the compact
    and corner triplets, couplings p and q with a seeded strength, H = 0 and
    identity frames.  positivity_time's Wigner grids dominate."""
    run = Cli(workdir, on_output)
    strength = rng.uniform(0.8, 1.25)
    couplings = [(strength, 0.0), (0.0, strength)]
    bound = oracles.husimi_bound(couplings)
    model = lindblad_model(np.zeros((2, 2)), couplings)
    weights = rng.uniform(0.85, 1.15, 3)
    epsilon = 1e-3
    scaled = {}   # tau_l A / hbar of the corner-triplet jobs checked so far

    def same_law(name, tau_l, area):
        """tau_l A / hbar agrees across the corner triplets within the spread
        of 3 that criterion 09c allows."""
        if "corner" not in name:
            return []
        scaled[name] = tau_l * area / HBAR
        spread = max(scaled.values()) / min(scaled.values())
        return problem(spread < 3.0, f"tau_l A / hbar spread {spread:.2f}")

    def nearest_node(c):
        """The lattice node nearest the origin, its distance, and scan times
        around the time t* at which its spot lifts by epsilon."""
        nodes = oracles.triangle_nodes(weights, c, HBAR, 2)
        node = min(nodes.values(), key=lambda x: float(np.hypot(*x)))
        length = float(np.hypot(*node))
        k = 2.0 * math.pi / length
        t_star = 2.0 * math.log(2.0 / epsilon) / (k * k * 2.0 * HBAR * strength ** 2)
        return node, length, [0.0] + np.geomspace(0.03 * t_star, 5.0 * t_star, N_TIMES).tolist()

    def decohere(name, centers):
        entries = triplet_entries(rng, centers, weights)
        c = centers_of(entries)
        node, length, times = nearest_node(c)
        cfg = {"hbar": HBAR, "states": entries,
               "lindblad": lindblad_block(np.zeros((2, 2)), couplings),
               "decohere": {"line": {"point": [0.0, 0.0], "direction": (node / length).tolist()},
                            "s_range": [-2.6 * length, 2.6 * length], "n_samples": N_SAMPLES,
                            "times": times, "epsilon": epsilon}}
        scan = check_scan(entries, rng.choice(N_SAMPLES, size=3, replace=False))
        area = triangle_area(c)

        def check(path):
            meta, data = oracles.read_table(path)
            t_p, tau_l = float(meta["t_p"]), float(meta["tau_l"])
            return (check_timescales(bound, t_p, tau_l)
                    + problem(abs(float(meta["area"]) - area) <= 1e-12 * area, "area")
                    + same_law(name, tau_l, area)
                    + scan(data))
        return run.job(name, "decohere", cfg, check)

    def ratio(name, centers):
        entries = triplet_entries(rng, centers, weights)
        state = normalize(superposition(entries))
        area = triangle_area(centers_of(entries))
        times = nearest_node(centers_of(entries))[2]

        def check(result):
            expected = result.tau_l * area / (HBAR * result.t_p)
            return (check_timescales(bound, result.t_p, result.tau_l)
                    + problem(abs(result.area - area) <= 1e-12 * area, "area")
                    + problem(abs(result.ratio - expected) <= 1e-12 * expected, "ratio")
                    + same_law(name, result.tau_l, area))
        return Job(name, lambda: bs.lifting_ratio(state, model, n_samples=N_SAMPLES, times=times),
                   check, lambda r: (r.tau_l, r.t_p, r.ratio))

    corner2 = ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0))
    corner17 = ((0.0, 0.0), (0.0, 1.7), (1.7, 0.0))
    return [
        decohere("decohere-compact", COMPACT),
        ratio("ratio-corner-1.7", corner17),
        decohere("decohere-corner-2", corner2),
    ]


# Anisotropic harmonic H with a single q coupling: husimi_time bisects
# det M_t with about 22 decoherence_matrix calls and finds t = 0.959.
ANISOTROPIC_H = ((1.0, 0.0), (0.0, 0.25))
Q_COUPLING = ((0.0, 1.0),)
# Hyperbolic H: decoherence_matrix refuses every t >= 3.5 ("quadrature not
# converged with 200 panels"), so this scan exits with code 3.
HYPERBOLIC_H = ((0.0, 0.5), (0.5, 0.0))
FRAMES = (squeeze(0.3, 0.4), squeeze(0.25, 1.3), squeeze(0.35, 2.2))


def flows(rng, workdir: Path, on_output) -> List[Job]:
    """The general decoherence path: squeezed and rotated frames (C_pq != 0),
    H != 0, a 6-term scan (N^4 pair-of-pairs), and one hyperbolic scan that
    fails."""
    run = Cli(workdir, on_output)
    model = lindblad_model(ANISOTROPIC_H, Q_COUPLING)
    squeezed = triplet_entries(rng, COMPACT, frames=FRAMES)
    squeezed_state = normalize(superposition(squeezed))
    reference = []

    def husimi_reference():
        if not reference:
            reference.append(oracles.husimi_time(ANISOTROPIC_H, Q_COUPLING))
        return reference[0]

    def check_husimi(t):
        det = np.linalg.det(oracles.decoherence_matrix(ANISOTROPIC_H, Q_COUPLING, t))
        t_ref = husimi_reference()
        return (problem(abs(16.0 * det - 1.0) <= 1e-5, f"det M_t = {det!r} at husimi_time")
                + problem(abs(t - t_ref) <= 2e-6 * t_ref, f"husimi_time {t!r}, reference {t_ref!r}"))

    def check_positivity(t_p):
        t_ref = husimi_reference()
        return problem(0.0 < t_p <= t_ref * (1.0 + 1e-6),
                       f"t_p = {t_p!r} above husimi_time {t_ref!r}")

    def scan_job(name, entries, hamiltonian, times, n_samples, s_half, direction):
        cfg = {"hbar": HBAR, "states": entries,
               "lindblad": lindblad_block(hamiltonian, Q_COUPLING),
               "decohere": {"line": {"point": [0.0, 0.0], "direction": list(direction)},
                            "s_range": [-s_half, s_half], "n_samples": n_samples,
                            "times": list(times), "summary": False}}
        picks = rng.choice(n_samples, size=3, replace=False)
        return run.job(name, "decohere", cfg, csv_rows_check(check_scan(entries, picks)))

    angle = rng.uniform(0.0, math.pi)
    direction = (math.cos(angle), math.sin(angle))
    times = (0.0, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8)
    fixed = [entry(1.0 + 0j, c) for c in COMPACT]
    return [
        Job("husimi-anisotropic", lambda: bs.husimi_time(model), check_husimi, repr),
        Job("positivity-squeezed", lambda: bs.positivity_time(squeezed_state, model),
            check_positivity, repr),
        scan_job("decohere-squeezed", squeezed, ANISOTROPIC_H, times, 801, 1.5, direction),
        scan_job("decohere-6", many_entries(rng, 6), ANISOTROPIC_H, times[::2], 301, 1.5, direction),
        scan_job("decohere-hyperbolic", fixed, HYPERBOLIC_H, (0.0, 1.0, 2.0, 3.0, 4.0),
                 301, 1.0, (1.0, 0.0)),
    ]


WORKLOADS = {"maps": maps, "spots": spots, "timescales": timescales, "flows": flows}


def build(name: str, seed: int, workdir: Path, on_output=None) -> List[Job]:
    """The jobs of one round of workload `name`, with inputs made from `seed`."""
    rng = np.random.default_rng([list(WORKLOADS).index(name), seed])
    return WORKLOADS[name](rng, workdir, on_output)
