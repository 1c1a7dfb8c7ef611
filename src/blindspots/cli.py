"""Command line interface: batch evaluation to deterministic CSV.

    blindspots <subcommand> <config.json> [--out FILE] [--threads N]

Subcommands: grid, spots, decohere, invert, check.  Exit codes: 0 on success,
2 on configuration or validation errors, 3 on numerical errors (inadequate
window, failed convergence, ...).  All numbers are printed with 17 significant
digits so that CSV output is byte-identical across runs and round-trips to
the exact binary values.  --threads is accepted for compatibility and has no
effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import IO, Sequence

import numpy as np

from . import __version__
from .errors import (
    BlindspotsError,
    ConfigError,
    NoClosure,
    NumericalError,
    ValidationError,
)
from .chord import chord_values, normalize, chord_quadrature, chord_exact, wigner_values
from .fields import (
    correlation_grid,
    fourier_2d,
    grid_axes,
    require_adequate,
)
from .geometry import skew
from .spots import (
    DiffractionModel,
    hexagonal_lattice,
    find_spots_generic,
    newton_refine,
    triangle_close,
    recover_centers,
)
from .states import GaussianState, Superposition, translate_state
from .decoherence import (
    LindbladModel,
    dissipation_coeff,
    lifting_time,
    positivity_time,
    scan_line,
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"bad {where}: {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _read(block: dict, key: str, where: str, convert, default=None):
    """convert(block[key]), or convert(default) when the key is absent; a value
    that convert cannot take raises ConfigError."""
    value = block.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad {where}.{key}: {value!r}") from exc


def _int_pair(v) -> tuple:
    return int(v[0]), int(v[1])


def _vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.shape != (2,):
        raise ValueError(f"expected two numbers, got {v!r}")
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, {"hbar", "states", "lindblad", "grid", "spots",
                        "decohere", "invert", "check"}, "config")
    if "hbar" not in cfg or "states" not in cfg:
        raise ConfigError("config needs at least 'hbar' and 'states'")
    return cfg


def _complex_amplitude(a) -> complex:
    if isinstance(a, (int, float)):
        return complex(a)
    if isinstance(a, (list, tuple)) and len(a) == 2:
        return complex(float(a[0]), float(a[1]))
    raise ValueError(f"amplitude must be a number or [re, im], got {a!r}")


def _state_from_config(cfg: dict) -> Superposition:
    try:
        hbar = float(cfg["hbar"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hbar: {cfg['hbar']!r}") from exc
    entries = cfg["states"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'states' must be a non-empty list")
    terms = []
    for k, entry in enumerate(entries):
        where = f"states[{k}]"
        _require_keys(entry, {"amplitude", "center", "frame"}, where)
        if "amplitude" not in entry or "center" not in entry:
            raise ConfigError(f"{where} needs 'amplitude' and 'center'")
        amp = _read(entry, "amplitude", where, _complex_amplitude)
        center = _read(entry, "center", where, _vector)
        frame = _read(entry, "frame", where,
                      lambda v: np.eye(2) if v is None else np.asarray(v, dtype=float))
        terms.append((amp, GaussianState(center, frame)))
    return normalize(Superposition(hbar, tuple(terms)))


def _lindblad_from_config(cfg: dict) -> LindbladModel:
    block = cfg.get("lindblad")
    if block is None:
        raise ConfigError("this subcommand needs a 'lindblad' block")
    _require_keys(block, {"h", "couplings"}, "lindblad")
    h = _read(block, "h", "lindblad", lambda v: np.asarray(v, dtype=float),
              [[0.0, 0.0], [0.0, 0.0]])
    couplings = []
    for k, c in enumerate(_read(block, "couplings", "lindblad", list, [])):
        where = f"lindblad.couplings[{k}]"
        if not isinstance(c, dict):
            raise ConfigError(f"bad {where}: {c!r}")
        _require_keys(c, {"re", "im"}, where)
        re = _read(c, "re", where, _vector, [0.0, 0.0])
        im = _read(c, "im", where, _vector, [0.0, 0.0])
        couplings.append(re + 1j * im)
    if not couplings:
        raise ConfigError("lindblad block needs at least one coupling")
    return LindbladModel(h, tuple(couplings))


def _window_from(block: dict, key: str = "window"):
    win = block.get(key)
    if win is None:
        raise ConfigError(f"missing '{key}'")
    try:
        (plo, phi), (qlo, qhi) = win
        return ((float(plo), float(phi)), (float(qlo), float(qhi)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {win!r}") from exc


def _meta_lines(cfg: dict, subcommand: str) -> list:
    return [
        f"# blindspots {__version__}",
        f"# subcommand = {subcommand}",
        f"# hbar = {_fmt(cfg['hbar'])}",
        "# convention: x = (p, q); skew(a, b) = a_p b_q - a_q b_p",
    ]


def cmd_grid(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    block = cfg.get("grid")
    if block is None:
        raise ConfigError("grid subcommand needs a 'grid' block")
    _require_keys(block, {"kind", "window", "shape"}, "grid")
    kind = block.get("kind")
    if kind not in ("chord", "wigner", "corr"):
        raise ConfigError(f"grid.kind must be chord, wigner or corr, got {kind!r}")
    window = _window_from(block)
    rows, cols = _read(block, "shape", "grid", _int_pair)
    if rows < 2 or cols < 2:
        raise ConfigError(f"bad grid.shape: {rows} x {cols}, need at least 2 x 2")

    ap, aq = grid_axes(window, (rows, cols))
    if kind == "wigner":
        values = wigner_values(state, ap[:, None], aq[None, :]).real
    else:
        values = chord_values(state, ap[:, None], aq[None, :])
        if kind == "corr":
            values = np.abs(values) ** 2

    lines = _meta_lines(cfg, "grid")
    lines.append(f"# kind = {kind}")
    lines.append(f"# window_p = {_fmt(window[0][0])} {_fmt(window[0][1])}")
    lines.append(f"# window_q = {_fmt(window[1][0])} {_fmt(window[1][1])}")
    lines.append(f"# shape = {rows} {cols}")
    axis_name = "x" if kind == "wigner" else "xi"
    lines.append(f"{axis_name}_p,{axis_name}_q," + ("re,im" if kind == "chord" else "value"))
    out.write("\n".join(lines) + "\n")
    # one write per p-row keeps the memory at one row of text
    ps = [f"{x:.17g}" for x in ap.tolist()]
    qs = [f"{x:.17g}" for x in aq.tolist()]
    if kind == "chord":
        for p, re_row, im_row in zip(ps, values.real, values.imag):
            out.write("".join(f"{p},{q},{re:.17g},{im:.17g}\n"
                              for q, re, im in zip(qs, re_row.tolist(), im_row.tolist())))
    else:
        for p, row in zip(ps, values):
            out.write("".join(f"{p},{q},{v:.17g}\n" for q, v in zip(qs, row.tolist())))
    return 0


def cmd_spots(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    block = cfg.get("spots", {})
    _require_keys(block, {"window", "grid_step", "tol", "k_range", "max_iter"}, "spots")
    tol = _read(block, "tol", "spots", float, 1e-12)
    max_iter = _read(block, "max_iter", "spots", int, 50)
    k_range = _read(block, "k_range", "spots", lambda kr: (_int_pair(kr[0]), _int_pair(kr[1])),
                    ((-2, 2), (-2, 2)))

    lines = _meta_lines(cfg, "spots")
    lines.append("# triangle sides = |a_n|^2 (closure contract)")
    header = "xi_p,xi_q,abs_chi,iterations,seed_p,seed_q,k1,k2,sublattice"
    rows = []
    note = None

    model = DiffractionModel.from_superposition(state)
    weights = model.weights
    if len(state) == 3:
        try:
            lattice = hexagonal_lattice(model, k_range)
            plus, minus = lattice.angles
            lines.append(f"# theta_plus = {_fmt(plus.theta1)} {_fmt(plus.theta2)}")
            lines.append(f"# theta_minus = {_fmt(minus.theta1)} {_fmt(minus.theta2)}")
            for tag, vec in (("basis1", lattice.basis[0]), ("basis2", lattice.basis[1]),
                             ("offset_plus", lattice.offsets[0]),
                             ("offset_minus", lattice.offsets[1])):
                lines.append(f"# {tag} = {_fmt(vec[0])} {_fmt(vec[1])}")
            # lattice nodes are origin-independent: re-centering only rotates
            # all weight phasors together, so they seed the original state
            for node in lattice.nodes:
                try:
                    spot = newton_refine(state, node.xi, tol=tol, max_iter=max_iter)
                except (NumericalError,):
                    continue
                spot = replace(spot, lattice_index=(node.k1, node.k2, node.sublattice))
                rows.append((spot, node.k1, node.k2, node.sublattice))
        except NoClosure:
            note = "no closure: the weight phasors cannot form a triangle"
    else:
        if len(state) == 2 and abs(weights[0] - weights[1]) > 1e-12:
            note = "no closure: unequal cat weights leave no blind spots"
        win = _window_from(block) if "window" in block else None
        if win is None:
            r = 3.0 * np.sqrt(state.hbar)
            win = ((-r, r), (-r, r))
        step = _read(block, "grid_step", "spots", float, np.sqrt(state.hbar) / 15.0)
        for spot in find_spots_generic(state, win, step, tol=tol, max_iter=max_iter):
            rows.append((spot, None, None, ""))

    if note:
        lines.append(f"# note: {note}")
    lines.append(header)
    for spot, k1, k2, sub in rows:
        k1s = "" if k1 is None else str(k1)
        k2s = "" if k2 is None else str(k2)
        lines.append(f"{_fmt(spot.xi[0])},{_fmt(spot.xi[1])},{_fmt(spot.residual)},"
                     f"{spot.iterations},{_fmt(spot.seed[0])},{_fmt(spot.seed[1])},"
                     f"{k1s},{k2s},{sub}")
    out.write("\n".join(lines) + "\n")
    return 0


def _auto_line_spot(state, line_point, line_dir):
    """Newton-refined blind spot nearest the origin that lies on the scan line."""
    model = DiffractionModel.from_superposition(state)
    lattice = hexagonal_lattice(model)
    candidates = []
    for node in lattice.nodes:
        rel = node.xi - line_point
        perp = abs(skew(rel, line_dir))
        s = float(rel @ line_dir)
        if perp < 1e-8 and abs(s) > 1e-12:
            candidates.append((abs(s), node.xi))
    if not candidates:
        raise NumericalError("no lattice blind spot lies on the scan line; "
                             "pass decohere.spot explicitly")
    _, xi = min(candidates, key=lambda c: c[0])
    return newton_refine(state, xi).xi


def cmd_decohere(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    model = _lindblad_from_config(cfg)
    block = cfg.get("decohere")
    if block is None:
        raise ConfigError("decohere subcommand needs a 'decohere' block")
    _require_keys(block, {"line", "s_range", "n_samples", "times", "epsilon",
                          "spot", "summary", "t_max", "positivity_tol"}, "decohere")
    for key in ("line", "s_range", "n_samples", "times"):
        if key not in block:
            raise ConfigError(f"decohere block needs '{key}'")
    line_block = _read(block, "line", "decohere", dict)
    _require_keys(line_block, {"point", "direction"}, "decohere.line")
    point = _read(line_block, "point", "decohere.line", _vector)
    direction = _read(line_block, "direction", "decohere.line", _vector)
    direction = direction / np.hypot(*direction)
    spot_cfg = _read(block, "spot", "decohere", lambda v: None if v is None else _vector(v))
    times = _read(block, "times", "decohere", lambda v: [float(t) for t in v])
    s_range = _read(block, "s_range", "decohere", lambda v: (float(v[0]), float(v[1])))
    n_samples = _read(block, "n_samples", "decohere", int)

    series = scan_line(state, model, (point, direction), s_range, n_samples, times)

    lines = _meta_lines(cfg, "decohere")
    lines.append(f"# alpha = {_fmt(dissipation_coeff(model))}")
    lines.append(f"# line_point = {_fmt(point[0])} {_fmt(point[1])}")
    lines.append(f"# line_direction = {_fmt(direction[0])} {_fmt(direction[1])}")

    want_summary = block.get("summary", True) and len(state) == 3
    if want_summary and len(times) > 1 and times[0] == 0.0:
        spot = spot_cfg if spot_cfg is not None else _auto_line_spot(state, point, direction)
        lift = lifting_time(series, spot, _read(block, "epsilon", "decohere", float, 1e-3))
        t_p = positivity_time(state, model,
                              t_max=_read(block, "t_max", "decohere",
                                          lambda v: None if v is None else float(v)),
                              tol=_read(block, "positivity_tol", "decohere", float, 0.0))
        centers = state.centers
        area = 0.5 * abs(skew(centers[1] - centers[0], centers[2] - centers[0]))
        ratio = lift.tau_l * area / (state.hbar * t_p)
        lines.append(f"# spot = {_fmt(spot[0])} {_fmt(spot[1])}")
        lines.append(f"# tau_l = {_fmt(lift.tau_l)}")
        lines.append(f"# t_p = {_fmt(t_p)}")
        lines.append(f"# area = {_fmt(area)}")
        lines.append(f"# ratio_tau_l_A_over_hbar_t_p = {_fmt(ratio)}")

    lines.append("t,s,xi_p,xi_q,value")
    out.write("\n".join(lines) + "\n")
    positions = [f"{s:.17g},{p:.17g},{q:.17g}"
                 for s, (p, q) in zip(series.samples.tolist(), series.positions().tolist())]
    for t, row in zip(series.times, series.values):
        out.write("".join(f"{t:.17g},{pos},{v:.17g}\n" for pos, v in zip(positions, row.tolist())))
    return 0


def cmd_invert(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    block = cfg.get("invert")
    if block is None:
        raise ConfigError("invert subcommand needs an 'invert' block")
    _require_keys(block, {"branch", "spots"}, "invert")
    branch = block.get("branch", "plus")
    if branch not in ("plus", "minus"):
        raise ConfigError(f"invert.branch must be 'plus' or 'minus', got {branch!r}")
    spots_cfg = block.get("spots")
    if not isinstance(spots_cfg, list) or len(spots_cfg) != 2:
        raise ConfigError("invert.spots must list exactly two measured spots")
    if len(state) != 3:
        raise ConfigError("the inverse problem needs a three-state superposition")

    plus, minus = triangle_close(*DiffractionModel.from_superposition(state).weights)
    angles = plus if branch == "plus" else minus

    measured = []
    for k, sp in enumerate(spots_cfg):
        where = f"invert.spots[{k}]"
        if not isinstance(sp, dict):
            raise ConfigError(f"bad {where}: {sp!r}")
        _require_keys(sp, {"xi", "k"}, where)
        if "xi" not in sp or "k" not in sp:
            raise ConfigError(f"{where} needs 'xi' and 'k'")
        measured.append((_read(sp, "xi", where, _vector), *_read(sp, "k", where, _int_pair)))

    eta1, eta2 = recover_centers(angles, measured[0], measured[1], float(cfg["hbar"]))
    lines = _meta_lines(cfg, "invert")
    lines.append(f"# branch = {branch}")
    lines.append(f"# theta = {_fmt(angles.theta1)} {_fmt(angles.theta2)}")
    lines.append("center_index,eta_p,eta_q")
    lines.append(f"1,{_fmt(eta1[0])},{_fmt(eta1[1])}")
    lines.append(f"2,{_fmt(eta2[0])},{_fmt(eta2[1])}")
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_check(cfg: dict, out: IO[str]) -> int:
    block = cfg.get("check", {})
    _require_keys(block, {"seed", "n_random", "window", "shape"}, "check")
    state = _state_from_config(cfg)
    rng = np.random.default_rng(_read(block, "seed", "check", int, 20260808))
    n_random = _read(block, "n_random", "check", int, 50)
    results = []

    def record(name: str, ok: bool, detail: str):
        results.append((name, ok, detail))

    n2 = abs(complex(chord_values(state, 0.0, 0.0)))
    record("normalization chi(0) = 1", abs(n2 - 1.0) <= 1e-12, f"|chi(0)| - 1 = {n2 - 1:.3e}")

    xis = rng.normal(scale=np.sqrt(state.hbar) * 3, size=(n_random, 2))
    herm = max(abs(complex(chord_values(state, -x[0], -x[1]))
                   - np.conj(complex(chord_values(state, x[0], x[1])))) for x in xis)
    record("hermiticity chi(-xi) = chi*(xi)", herm <= 1e-12, f"max dev = {herm:.3e}")

    parity = 0.0
    for x in xis:
        a = complex(chord_values(state, x[0], x[1]))
        b = complex(chord_values(state, -x[0], -x[1]))
        parity = max(parity, abs(a.real - b.real), abs(a.imag + b.imag))
    record("parity: Re even, Im odd", parity <= 1e-12, f"max dev = {parity:.3e}")

    quad = max(abs(chord_exact(state, x) - chord_quadrature(state, x)) for x in xis[:3])
    record("oracle: quadrature matches", quad <= 1e-8, f"max dev = {quad:.3e}")

    trans = 0.0
    from .chord import overlap
    for x in xis[:3]:
        shifted = translate_state(state, x)
        trans = max(trans, abs(abs(overlap(state, shifted)) - abs(chord_exact(state, x))))
    record("translate: overlap modulus = |chi|", trans <= 1e-10, f"max dev = {trans:.3e}")

    if "window" in block:
        window = _window_from(block)
        shape = _read(block, "shape", "check", _int_pair, (201, 201))
        grid = correlation_grid(state, window, shape)
        require_adequate(grid.values)  # raises WindowTooSmall -> exit 3
        ft = fourier_2d(grid, state.hbar)
        dev = float(np.max(np.abs(ft.values - grid.values)) / np.max(np.abs(grid.values)))
        record("Fourier invariance FT{C} = C", dev <= 1e-6, f"max rel dev = {dev:.3e}")

    lines = _meta_lines(cfg, "check")
    ok_all = True
    for name, ok, detail in results:
        ok_all = ok_all and ok
        lines.append(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    out.write("\n".join(lines) + "\n")
    if not ok_all:
        raise NumericalError("one or more invariant checks failed")
    return 0


_COMMANDS = {
    "grid": cmd_grid,
    "spots": cmd_spots,
    "decohere": cmd_decohere,
    "invert": cmd_invert,
    "check": cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blindspots",
        description="Phase-space correlations and blind spots of coherent-state superpositions")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.out is None:
            return _COMMANDS[args.subcommand](cfg, sys.stdout)
        with open(args.out, "w", newline="\n") as fh:
            return _COMMANDS[args.subcommand](cfg, fh)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlindspotsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
