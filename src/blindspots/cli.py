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
from .chord import chord_values, normalize, chord_quadrature, chord_exact, overlap, wigner_values
from .fields import (
    MAX_GRID_CELLS,
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
from .decoherence import LindbladModel, scan_line, triplet_timescales


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


REQUIRED = object()  # the default of a key that a config must give


def _within(convert, ok):
    """convert, then reject a value for which ok(value) is false."""
    def checked(v):
        out = convert(v)
        if not ok(out):
            raise ValueError(f"out of range: {v!r}")
        return out
    return checked


def _pair(convert):
    """A JSON array [a, b] as (convert(a), convert(b))."""
    def pair(v):
        if not isinstance(v, list) or len(v) != 2:
            raise ValueError(f"expected two entries, got {v!r}")
        return convert(v[0]), convert(v[1])
    return pair


def _array(convert):
    """convert, as a float array: every entry goes through _real."""
    return lambda v: np.array(convert(v))


def _number(v):
    """A JSON number as it is; never a boolean or a string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return v


def _integer(v) -> int:
    """A JSON number with no fractional part, as an int; never a boolean."""
    if isinstance(_number(v), float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


MAX_LATTICE_NODES = 10 ** 6  # per sublattice, in a spots.k_range box


def _index_box(kr) -> bool:
    """An index box ((lo, hi), (lo, hi)) with lo <= hi and at most
    MAX_LATTICE_NODES nodes, checked before any node is built."""
    (k1lo, k1hi), (k2lo, k2hi) = kr
    return k1lo <= k1hi and k2lo <= k2hi and (
        (k1hi - k1lo + 1) * (k2hi - k2lo + 1) <= MAX_LATTICE_NODES)


_real = _within(lambda v: float(_number(v)), np.isfinite)
_boolean = _within(lambda v: v, lambda v: isinstance(v, bool))
_int_pair = _pair(_integer)
_float_pair = _pair(_real)
_window = _pair(_float_pair)
_vector = _array(_float_pair)
_matrix = _array(_window)
_shape = _within(_int_pair, lambda s: min(s) >= 2 and s[0] * s[1] <= MAX_GRID_CELLS)


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _one_of(*allowed):
    return _within(lambda v: v, lambda v: v in allowed)


def _amplitude(a) -> complex:
    """A number or [re, im]; never a boolean."""
    if isinstance(a, list):
        return complex(*_float_pair(a))
    return complex(_real(a))


def _times(v) -> list:
    if not isinstance(v, list):
        raise TypeError(f"expected a list of times, got {v!r}")
    return [_real(t) for t in v]


# The config format: block -> key -> (convert, default).  A dict in place of
# convert is a nested object; [table] is a non-empty array of such objects
# and [table, table] an array of exactly two.  Ranges live in the converters.
# spots.window and spots.grid_step default to 3 sqrt(hbar) each way and
# sqrt(hbar) / 15.
_INVERT_SPOT = {"xi": (_vector, REQUIRED), "k": (_int_pair, REQUIRED)}
SCHEMA = {
    "hbar": (_real, REQUIRED),
    "states": ([{"amplitude": (_amplitude, REQUIRED),
                 "center": (_vector, REQUIRED),
                 "frame": (_matrix, np.eye(2))}], REQUIRED),
    "lindblad": ({"h": (_matrix, np.zeros((2, 2))),
                  "couplings": ([{"re": (_vector, np.zeros(2)),
                                  "im": (_vector, np.zeros(2))}], REQUIRED)}, REQUIRED),
    "grid": ({"kind": (_one_of("chord", "wigner", "corr"), REQUIRED),
              "window": (_window, REQUIRED),
              "shape": (_shape, REQUIRED)}, REQUIRED),
    "spots": ({"window": (_window, None),
               "grid_step": (_within(_real, lambda s: s > 0), None),
               "k_range": (_within(_pair(_int_pair), _index_box), ((-2, 2), (-2, 2)))}, {}),
    "decohere": ({"line": ({"point": (_vector, REQUIRED),
                            "direction": (_within(_vector, np.any), REQUIRED)}, REQUIRED),
                  "s_range": (_float_pair, REQUIRED),
                  "n_samples": (_integer, REQUIRED),
                  "times": (_times, REQUIRED),
                  "epsilon": (_real, 1e-3),
                  "spot": (_optional(_vector), None),
                  "summary": (_boolean, True)}, REQUIRED),
    "invert": ({"branch": (_one_of("plus", "minus"), "plus"),
                "spots": ([_INVERT_SPOT, _INVERT_SPOT], REQUIRED)}, REQUIRED),
    "check": ({"seed": (_within(_integer, lambda n: n >= 0), 20260808),
               "n_random": (_within(_integer, lambda n: 1 <= n <= MAX_GRID_CELLS), 50),
               "window": (_window, None),
               "shape": (_shape, (201, 201))}, {}),
}

# The blocks each subcommand reads besides hbar and states; the others are
# checked only for their names.
_BLOCKS = {"grid": ("grid",), "spots": ("spots",), "decohere": ("lindblad", "decohere"),
           "invert": ("invert",), "check": ("check",)}


def _checked(value, schema, where: str = ""):
    """value with every key converted by schema (see SCHEMA), or ConfigError
    naming the first bad path.  An absent key takes its default as it is."""
    if isinstance(schema, list):
        if not (isinstance(value, list) and value and len(schema) in (1, len(value))):
            raise ConfigError(f"bad {where}: {value!r}")
        return [_checked(v, schema[0], f"{where}[{k}]") for k, v in enumerate(value)]
    if not isinstance(value, dict):
        raise ConfigError(f"bad {where or 'config'}: {value!r}")
    unknown = set(value) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where or 'config'}")
    out = {}
    for key, (convert, default) in schema.items():
        path = f"{where}.{key}" if where else key
        if key not in value and default is REQUIRED:
            raise ConfigError(f"bad {path}: missing")
        if isinstance(convert, (dict, list)):
            out[key] = _checked(value.get(key, default), convert, path)
        elif key not in value:
            out[key] = default
        else:
            try:
                out[key] = convert(value[key])
            except (TypeError, ValueError, IndexError, KeyError, OverflowError) as exc:
                raise ConfigError(f"bad {path}: {value[key]!r}") from exc
    return out


def _load_config(path: str, subcommand: str) -> dict:
    """The config at path, checked for what subcommand reads."""
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    reads = ("hbar", "states") + _BLOCKS[subcommand]
    return _checked(cfg, {key: entry if key in reads else (lambda v: v, None)
                          for key, entry in SCHEMA.items()})


def _state_from_config(cfg: dict) -> Superposition:
    return normalize(Superposition(cfg["hbar"], tuple(
        (s["amplitude"], GaussianState(s["center"], s["frame"])) for s in cfg["states"])))


def _meta_lines(cfg: dict, subcommand: str) -> list:
    return [
        f"# blindspots {__version__}",
        f"# subcommand = {subcommand}",
        f"# hbar = {_fmt(cfg['hbar'])}",
        "# convention: x = (p, q); skew(a, b) = a_p b_q - a_q b_p",
    ]


def cmd_grid(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    block = cfg["grid"]
    kind, window, (rows, cols) = block["kind"], block["window"], block["shape"]

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
    block = cfg["spots"]

    lines = _meta_lines(cfg, "spots")
    lines.append("# triangle sides = |a_n|^2 (closure contract)")
    header = "xi_p,xi_q,abs_chi,iterations,seed_p,seed_q,k1,k2,sublattice"
    rows = []
    note = None

    model = DiffractionModel.from_superposition(state)
    weights = model.weights
    if len(state) == 3:
        try:
            lattice = hexagonal_lattice(model, block["k_range"])
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
                    spot = newton_refine(state, node.xi)
                except (NumericalError,):
                    continue
                rows.append((spot, node.k1, node.k2, node.sublattice))
        except NoClosure:
            note = "no closure: the weight phasors cannot form a triangle"
    else:
        if len(state) == 2 and abs(weights[0] - weights[1]) > 1e-12:
            note = "no closure: unequal cat weights leave no blind spots"
        r = 3.0 * np.sqrt(state.hbar)
        win = block["window"] or ((-r, r), (-r, r))
        step = block["grid_step"] or np.sqrt(state.hbar) / 15.0
        for spot in find_spots_generic(state, win, step):
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
    lindblad, block = cfg["lindblad"], cfg["decohere"]
    times = block["times"]
    if block["n_samples"] * max(len(times), 1) > MAX_GRID_CELLS:
        raise ConfigError(f"bad decohere.n_samples: {block['n_samples']} samples at "
                          f"{len(times)} times exceed {MAX_GRID_CELLS} values")
    state = _state_from_config(cfg)
    model = LindbladModel(lindblad["h"], tuple(c["re"] + 1j * c["im"]
                                               for c in lindblad["couplings"]))
    point, direction = block["line"]["point"], block["line"]["direction"]
    direction = direction / np.hypot(*direction)

    series = scan_line(state, model, (point, direction), block["s_range"], block["n_samples"],
                       times)

    lines = _meta_lines(cfg, "decohere")
    lines.append(f"# alpha = {_fmt(model.alpha)}")
    lines.append(f"# line_point = {_fmt(point[0])} {_fmt(point[1])}")
    lines.append(f"# line_direction = {_fmt(direction[0])} {_fmt(direction[1])}")

    if block["summary"] and not (len(state) == 3 and len(times) > 1 and times[0] == 0.0):
        lines.append("# summary = skipped: needs three states and at least two times from t = 0")
    elif block["summary"]:
        spot = block["spot"]
        if spot is None:
            spot = _auto_line_spot(state, point, direction)
        summary = triplet_timescales(state, model, series, spot, block["epsilon"])
        lines.append(f"# spot = {_fmt(summary.spot[0])} {_fmt(summary.spot[1])}")
        lines.append(f"# tau_l = {_fmt(summary.tau_l)}")
        lines.append(f"# t_p = {_fmt(summary.t_p)}")
        lines.append(f"# area = {_fmt(summary.area)}")
        lines.append(f"# ratio_tau_l_A_over_hbar_t_p = {_fmt(summary.ratio)}")

    lines.append("t,s,xi_p,xi_q,value")
    out.write("\n".join(lines) + "\n")
    positions = [f"{s:.17g},{p:.17g},{q:.17g}"
                 for s, (p, q) in zip(series.samples.tolist(), series.positions().tolist())]
    for t, row in zip(series.times, series.values):
        out.write("".join(f"{t:.17g},{pos},{v:.17g}\n" for pos, v in zip(positions, row.tolist())))
    return 0


def cmd_invert(cfg: dict, out: IO[str]) -> int:
    state = _state_from_config(cfg)
    branch = cfg["invert"]["branch"]
    if len(state) != 3:
        raise ConfigError("the inverse problem needs a three-state superposition")

    plus, minus = triangle_close(*DiffractionModel.from_superposition(state).weights)
    angles = plus if branch == "plus" else minus

    spot_a, spot_b = ((sp["xi"], *sp["k"]) for sp in cfg["invert"]["spots"])
    eta1, eta2 = recover_centers(angles, spot_a, spot_b, cfg["hbar"])
    lines = _meta_lines(cfg, "invert")
    lines.append(f"# branch = {branch}")
    lines.append(f"# theta = {_fmt(angles.theta1)} {_fmt(angles.theta2)}")
    lines.append("center_index,eta_p,eta_q")
    lines.append(f"1,{_fmt(eta1[0])},{_fmt(eta1[1])}")
    lines.append(f"2,{_fmt(eta2[0])},{_fmt(eta2[1])}")
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_check(cfg: dict, out: IO[str]) -> int:
    block = cfg["check"]
    state = _state_from_config(cfg)
    rng = np.random.default_rng(block["seed"])
    n_random = block["n_random"]
    results = []

    def record(name: str, ok: bool, detail: str):
        results.append((name, ok, detail))

    n2 = abs(complex(chord_values(state, 0.0, 0.0)))
    record("normalization chi(0) = 1", abs(n2 - 1.0) <= 1e-12, f"|chi(0)| - 1 = {n2 - 1:.3e}")

    xis = rng.normal(scale=np.sqrt(state.hbar) * 3, size=(n_random, 2))
    # (chi(xi), chi(-xi)) at each random chord, for both symmetry checks
    chis = [(complex(chord_values(state, x[0], x[1])), complex(chord_values(state, -x[0], -x[1])))
            for x in xis]
    herm = max(abs(b - np.conj(a)) for a, b in chis)
    record("hermiticity chi(-xi) = chi*(xi)", herm <= 1e-12, f"max dev = {herm:.3e}")

    parity = max(max(abs(a.real - b.real), abs(a.imag + b.imag)) for a, b in chis)
    record("parity: Re even, Im odd", parity <= 1e-12, f"max dev = {parity:.3e}")

    quad = max(abs(chord_exact(state, x) - chord_quadrature(state, x)) for x in xis[:3])
    record("oracle: quadrature matches", quad <= 1e-8, f"max dev = {quad:.3e}")

    trans = 0.0
    for x in xis[:3]:
        shifted = translate_state(state, x)
        trans = max(trans, abs(abs(overlap(state, shifted)) - abs(chord_exact(state, x))))
    record("translate: overlap modulus = |chi|", trans <= 1e-10, f"max dev = {trans:.3e}")

    if block["window"] is not None:
        grid = correlation_grid(state, block["window"], block["shape"])
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
        cfg = _load_config(args.config, args.subcommand)
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
