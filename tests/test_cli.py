import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blindspots import cli, spots
from blindspots.cli import main
from conftest import COMPACT_CENTERS, OBLIQUE_CENTERS, HBAR


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(centers=COMPACT_CENTERS, hbar=HBAR, amps=None):
    amps = amps or [1.0] * len(centers)
    return {
        "hbar": hbar,
        "states": [{"amplitude": a, "center": list(c)} for a, c in zip(amps, centers)],
    }


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_grid_chord_output(tmp_path):
    cfg = base_config()
    cfg["grid"] = {"kind": "chord", "window": [[-0.4, 0.4], [-0.4, 0.4]], "shape": [11, 11]}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out.csv"
    assert main(["grid", path, "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["xi_p", "xi_q", "re", "im"]
    assert len(rows) == 121
    # row-major: first row sweeps xi_q at the lowest xi_p
    assert float(rows[0][0]) == -0.4 and float(rows[1][0]) == -0.4
    assert float(rows[0][1]) < float(rows[1][1])
    # 17 significant digits round-trip
    center = rows[60]
    assert (float(center[0]), float(center[1])) == (0.0, 0.0)
    assert float(center[2]) == pytest.approx(1.0, abs=1e-12)


def test_grid_corr_unit_at_origin(tmp_path):
    cfg = base_config()
    cfg["grid"] = {"kind": "corr", "window": [[-0.3, 0.3], [-0.3, 0.3]], "shape": [7, 7]}
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "out.csv"
    assert main(["grid", path, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    mid = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(mid) == 1
    assert float(mid[0][2]) == pytest.approx(1.0, abs=1e-12)


def test_grid_wigner_integrates_to_one(tmp_path):
    cfg = base_config()
    cfg["grid"] = {"kind": "wigner", "window": [[-1.8, 3.3], [-1.8, 3.3]], "shape": [241, 241]}
    path = write_config(tmp_path, "w.json", cfg)
    out = tmp_path / "w.csv"
    assert main(["grid", path, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x_p", "x_q", "value"]
    vals = np.array([float(r[2]) for r in rows])
    step = 5.1 / 240
    assert vals.sum() * step * step == pytest.approx(1.0, abs=1e-6)


def test_grid_deterministic_and_threaded(tmp_path):
    cfg = base_config()
    cfg["grid"] = {"kind": "chord", "window": [[-0.5, 0.5], [-0.5, 0.5]], "shape": [31, 31]}
    path = write_config(tmp_path, "c.json", cfg)
    outs = []
    for k, threads in ((0, "1"), (1, "1"), (2, "3")):
        out = tmp_path / f"out{k}.csv"
        assert main(["grid", path, "--out", str(out), "--threads", threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical across runs
    assert outs[0] == outs[2]  # and across thread counts


def test_spots_oblique_triplet(tmp_path):
    cfg = base_config(OBLIQUE_CENTERS)
    cfg["spots"] = {"k_range": [[-1, 1], [-1, 1]]}
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "s.csv"
    assert main(["spots", path, "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert any("triangle sides = |a_n|^2" in m for m in meta)
    assert header[0] == "xi_p"
    assert len(rows) >= 6
    for r in rows:
        assert float(r[2]) < 1e-12
        assert r[8] in ("plus", "minus")


def test_spots_triplet_away_from_origin(tmp_path):
    # blind spots only depend on center differences; the lattice must seed a
    # triplet whose first state is not at the origin just as well
    shifted = [(1.0, 0.5), (-3.0, 0.8), (1.2, 4.5)]
    cfg = base_config(shifted)
    cfg["spots"] = {"k_range": [[-1, 1], [-1, 1]]}
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "s.csv"
    assert main(["spots", path, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) >= 6
    for r in rows:
        assert float(r[2]) < 1e-12


def test_spots_single_state_empty(tmp_path):
    cfg = base_config([(0.0, 0.0)])
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "s.csv"
    assert main(["spots", path, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header is not None
    assert rows == []


def test_spots_unequal_cat_notes_no_closure(tmp_path):
    cfg = base_config([(0.0, 0.0), (0.0, 4.0)], amps=[np.sqrt(0.6), np.sqrt(0.4)])
    path = write_config(tmp_path, "s.json", cfg)
    out = tmp_path / "s.csv"
    assert main(["spots", path, "--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert any("no closure" in m for m in meta)
    assert rows == []


def test_decohere_time_zero_is_pure_scan(tmp_path, corner_triplet):
    from blindspots import correlation_pure
    cfg = base_config([(0.0, 0.0), (0.0, 5.0), (5.0, 0.0)])
    cfg["lindblad"] = {"h": [[0.0, 0.0], [0.0, 0.0]],
                       "couplings": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
    cfg["decohere"] = {"line": {"point": [0.0, 0.0], "direction": [-1.0, 2.0]},
                       "s_range": [-0.15, 0.15], "n_samples": 61,
                       "times": [0.0]}
    path = write_config(tmp_path, "d.json", cfg)
    out = tmp_path / "d.csv"
    assert main(["decohere", path, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "s", "xi_p", "xi_q", "value"]
    assert len(rows) == 61
    for r in rows[::10]:
        xi = (float(r[2]), float(r[3]))
        assert float(r[4]) == pytest.approx(correlation_pure(corner_triplet, xi), abs=1e-12)


def test_decohere_summary_d3(tmp_path):
    cfg = base_config([(0.0, 0.0), (0.0, 3.0), (3.0, 0.0)])
    cfg["lindblad"] = {"h": [[0.0, 0.0], [0.0, 0.0]],
                       "couplings": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
    cfg["decohere"] = {"line": {"point": [0.0, 0.0], "direction": [-1.0, 2.0]},
                       "s_range": [-0.3, 0.3], "n_samples": 601,
                       "times": [0.0, 0.001, 0.004, 0.012, 0.036, 0.1]}
    path = write_config(tmp_path, "d.json", cfg)
    out = tmp_path / "d.csv"
    assert main(["decohere", path, "--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    summary = {m.split("=")[0].strip("# "): float(m.split("=")[1])
               for m in meta if "=" in m and m.split("=")[0].strip("# ") in
               ("tau_l", "t_p", "area", "ratio_tau_l_A_over_hbar_t_p")}
    assert summary["area"] == pytest.approx(4.5)
    assert 0 < summary["tau_l"] < summary["t_p"]
    assert len(rows) == 6 * 601


def test_invert_round_trip(tmp_path):
    from blindspots import DiffractionModel, hexagonal_lattice
    from conftest import corner_triplet_state
    state = corner_triplet_state(5.0)
    lattice = hexagonal_lattice(DiffractionModel.from_superposition(state))
    nodes = {(n.k1, n.k2): n for n in lattice.nodes if n.sublattice == "plus"}
    cfg = base_config([(0.0, 0.0), (0.0, 5.0), (5.0, 0.0)])
    cfg["invert"] = {"branch": "plus",
                     "spots": [{"xi": list(nodes[(0, 0)].xi), "k": [0, 0]},
                               {"xi": list(nodes[(1, 0)].xi), "k": [1, 0]}]}
    path = write_config(tmp_path, "i.json", cfg)
    out = tmp_path / "i.csv"
    assert main(["invert", path, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["center_index", "eta_p", "eta_q"]
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[0][2]) == pytest.approx(5.0, abs=1e-9)
    assert float(rows[1][1]) == pytest.approx(5.0, abs=1e-9)
    assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-9)


def test_check_passes_on_valid_config(tmp_path, capsys):
    cfg = base_config()
    cfg["check"] = {"window": [[-4.8, 4.8], [-4.8, 4.8]], "shape": [385, 385]}
    path = write_config(tmp_path, "ok.json", cfg)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "PASS: Fourier invariance" in out
    assert "FAIL" not in out


def test_check_rejects_nonsymplectic_frame(tmp_path):
    cfg = base_config()
    cfg["states"][0]["frame"] = [[1.1, 0.0], [0.0, 1.0]]
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["check", path]) == 2


def test_check_window_too_small(tmp_path):
    cfg = base_config()
    cfg["check"] = {"window": [[-0.5, 0.5], [-0.5, 0.5]], "shape": [51, 51]}
    path = write_config(tmp_path, "small.json", cfg)
    assert main(["check", path]) == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = base_config()
    cfg["grids"] = {}
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["grid", path]) == 2


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["grid", str(path)]) == 2


def test_missing_config_file():
    assert main(["grid", "/nonexistent/cfg.json"]) == 2


SUMMARY_SKIPPED = "# summary = skipped: needs three states and at least two times from t = 0"


@pytest.mark.parametrize("centers, times", [
    (COMPACT_CENTERS[:2], [0.0, 0.01]),
    (COMPACT_CENTERS, [0.0]),
    (COMPACT_CENTERS, [0.01, 0.02]),
], ids=["two states", "one time", "first time not 0"])
def test_decohere_summary_skip_is_written(tmp_path, centers, times):
    cfg = base_config(centers)
    cfg["lindblad"] = {"couplings": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
    cfg["decohere"] = {"line": {"point": [0.0, 0.0], "direction": [1.0, 0.0]},
                       "s_range": [-0.3, 0.3], "n_samples": 11, "times": times}
    out = tmp_path / "d.csv"
    assert main(["decohere", write_config(tmp_path, "d.json", cfg), "--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    assert meta[-1] == SUMMARY_SKIPPED
    assert not any(m.startswith("# tau_l") for m in meta)
    assert len(rows) == 11 * len(times)
    cfg["decohere"]["summary"] = False
    assert main(["decohere", write_config(tmp_path, "d.json", cfg), "--out", str(out)]) == 0
    assert SUMMARY_SKIPPED not in read_csv(out)[0]


def valid_config(subcommand):
    cfg = base_config()
    if subcommand == "grid":
        cfg["grid"] = {"kind": "chord", "window": [[-0.4, 0.4], [-0.4, 0.4]], "shape": [11, 11]}
    elif subcommand == "decohere":
        cfg["lindblad"] = {"couplings": [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]}
        cfg["decohere"] = {"line": {"point": [0.0, 0.0], "direction": [1.0, 0.0]},
                           "s_range": [-0.3, 0.3], "n_samples": 11, "times": [0.0],
                           "summary": False}
    elif subcommand == "invert":
        cfg["invert"] = {"spots": [{"xi": [0.3, 0.1], "k": [0, 0]},
                                   {"xi": [0.1, 0.4], "k": [1, 0]}]}
    elif subcommand == "check":
        cfg["check"] = {"n_random": 3}
    elif subcommand == "spots":
        # four terms: a generic scan, which reads spots.window and grid_step
        cfg = base_config([(0.0, 0.0), (0.4, 0.0), (0.0, 0.4), (0.4, 0.4)])
        cfg["spots"] = {"k_range": [[-1, 1], [-1, 1]]}
    else:
        cfg["spots"] = {"k_range": [[-1, 1], [-1, 1]]}
    return cfg


@pytest.mark.parametrize("subcommand, key, value", [
    ("grid", "shape", [-5, 3]),
    ("grid", "shape", [1, 1]),
    ("decohere", "n_samples", "x"),
    ("decohere", "s_range", 0.1),
    ("spots", "k_range", 5),
    ("decohere", "line", {"direction": [1.0, 0.0]}),
    ("decohere", "spot", "x"),
    ("decohere", "lindblad.couplings", [{"re": "x"}]),
    ("decohere", "lindblad.couplings", 5),
    ("invert", "spots", [{"xi": "x", "k": [0, 0]}, {"xi": [0.1, 0.4], "k": [1, 0]}]),
    ("invert", "spots", [{"xi": [0.3, 0.1], "k": 3}, {"xi": [0.1, 0.4], "k": [1, 0]}]),
    ("grid", "states[0].center", "x"),
    ("grid", "states[0].frame", "x"),
    ("grid", "states[0].amplitude", [1.0, "x"]),
    ("spots", "spots", 5),
    ("check", "check", 5),
    ("decohere", "lindblad", 5),
    ("check", "n_random", 0),
    ("check", "n_random", -1),
    ("check", "seed", -1),
    ("check", "check", {"window": [[-4.8, 4.8], [-4.8, 4.8]], "shape": [-5, 3]}),
    ("grid", "shape", {}),
    ("check", "shape", {}),
    ("spots", "k_range", {}),
    ("decohere", "s_range", {}),
    ("invert", "invert.spots[0].k", {}),
    ("decohere", "line", [["a", 1], [1, 2]]),
    ("spots", "grid_step", 0),
    ("spots", "k_range", [[2, -2], [-1, 1]]),
    ("decohere", "line.direction", [0, 0]),
    ("decohere", "s_range", [0.0, float("inf")]),  # written as Infinity
    # integer keys reject fractions and booleans instead of truncating them
    ("spots", "k_range", [[-0.9, 0.9], [0.5, 0.99]]),
    ("spots", "k_range", [[-1, True], [-1, 1]]),
    ("check", "seed", True),
    ("grid", "shape", [11.5, 11]),
    ("grid", "shape", [True, 11]),
    ("check", "shape", [201, 200.5]),
    ("check", "seed", 1.5),
    ("check", "n_random", True),
    ("decohere", "n_samples", 11.5),
    ("decohere", "n_samples", "11"),
    ("invert", "invert.spots[0].k", [0.5, 0]),
    ("invert", "invert.spots[1].k", [1, False]),
    ("spots", "k_range", [[-1000, 1000], [-1000, 1000]]),
    # booleans only where a boolean is meant
    ("decohere", "summary", "no"),
    ("decohere", "summary", 0),
    ("grid", "states[0].amplitude", True),
    ("grid", "states[0].amplitude", [1.0, False]),
    # vectors and matrices take numbers only, entry by entry
    ("grid", "states[0].center", [True, 0.0]),
    ("grid", "states[0].frame", [[1.0, "0"], [0.0, 1.0]]),
    ("decohere", "lindblad.h", [["1", 0.0], [0.0, 1.0]]),
])
def test_malformed_value_exits_2(tmp_path, capsys, subcommand, key, value):
    # a key that starts with a top-level name of the config is a path from the
    # top (states[0].center, lindblad.couplings, spots); any other key sits in
    # the subcommand's block
    cfg = valid_config(subcommand)
    path = write_config(tmp_path, "ok.json", cfg)
    assert main([subcommand, path, "--out", str(tmp_path / "ok.csv")]) == 0
    where = key if re.match(r"\w+", key).group() in cfg else f"{subcommand}.{key}"
    *parents, name = re.findall(r"\w+", where)
    block = cfg
    for part in parents:
        block = block[int(part) if part.isdigit() else part]
    block[name] = value
    path = write_config(tmp_path, "bad.json", cfg)
    assert main([subcommand, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad {where}")


def test_integral_float_keys_are_accepted(tmp_path):
    cfg = valid_config("grid")
    cfg["grid"]["shape"] = [11.0, 11]
    assert main(["grid", write_config(tmp_path, "float.json", cfg),
                 "--out", str(tmp_path / "float.csv")]) == 0


def test_k_range_box_limit():
    assert cli._index_box(((0, 999), (-500, 499)))
    assert not cli._index_box(((0, 999), (-500, 500)))
    assert not cli._index_box(((0, 10 ** 30), (0, 0)))


def test_huge_k_range_exits_2_before_building_nodes(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(spots, "sublattice_nodes", lambda *args: built.append(args) or [])
    cfg = base_config()
    cfg["spots"] = {"k_range": [[-10 ** 30, 10 ** 30], [0, 0]]}
    assert main(["spots", write_config(tmp_path, "huge.json", cfg)]) == 2
    assert not built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad spots.k_range")


def test_grid_cell_limit():
    assert cli._shape([5 * 10 ** 6, 2]) == (5 * 10 ** 6, 2)
    with pytest.raises(ValueError):
        cli._shape([5 * 10 ** 6 + 1, 2])


@pytest.mark.parametrize("subcommand, block, allocator", [
    ("grid", {"shape": [10 ** 4, 1001]}, "grid_axes"),
    ("check", {"window": [[-0.4, 0.4], [-0.4, 0.4]], "shape": [10 ** 4, 1001]},
     "correlation_grid"),
    ("decohere", {"n_samples": 10 ** 7 + 1}, "scan_line"),
    ("decohere", {"n_samples": 10 ** 4, "times": [0.0] * 1001}, "scan_line"),
])
def test_oversized_output_exits_2_before_allocating(tmp_path, capsys, monkeypatch, subcommand,
                                                    block, allocator):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{allocator} called")

    monkeypatch.setattr(cli, allocator, refuse)
    cfg = valid_config(subcommand)
    cfg[subcommand].update(block)
    assert main([subcommand, write_config(tmp_path, "huge.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = "n_samples" if subcommand == "decohere" else "shape"
    assert captured.err.startswith(f"error: bad {subcommand}.{key}")


def test_huge_scan_or_check_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(spots, "chord_values", refuse)
    monkeypatch.setattr(cli.np.random, "default_rng", refuse)
    cfg = valid_config("spots")
    for step in (1e-9, 1e-320):  # 1.6e9 points per axis, and an infinite count
        cfg["spots"]["grid_step"] = step
        assert main(["spots", write_config(tmp_path, "scan.json", cfg)]) == 2
        assert "exceeds" in capsys.readouterr().err
    cfg = valid_config("check")
    cfg["check"]["n_random"] = cli.MAX_GRID_CELLS + 1
    assert main(["check", write_config(tmp_path, "check.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad check.n_random")


def test_decohere_flow_overflow_exits_3(tmp_path, capsys):
    cfg = valid_config("decohere")
    cfg["lindblad"] = {"h": [[0.0, 0.5], [0.5, 0.0]], "couplings": [{"re": [0.0, 1.0]}]}
    cfg["decohere"]["times"] = [800.0]
    assert main(["decohere", write_config(tmp_path, "flow.json", cfg)]) == 3
    assert "overflows" in capsys.readouterr().err


def test_removed_positivity_tol_key_exits_2(tmp_path, capsys):
    cfg = valid_config("decohere")
    cfg["decohere"]["positivity_tol"] = 0.0
    assert main(["decohere", write_config(tmp_path, "old.json", cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown keys ['positivity_tol'] in decohere")


@pytest.mark.parametrize("subcommand, key, value", [
    ("spots", "tol", 1e-12),
    ("spots", "max_iter", 50),
    ("decohere", "t_max", 0.3),
])
def test_removed_keys_exit_2(tmp_path, capsys, subcommand, key, value):
    # the Newton residual, its iteration cap and the positivity bracket are fixed
    cfg = valid_config(subcommand)
    cfg[subcommand][key] = value
    assert main([subcommand, write_config(tmp_path, "old.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown keys ['{key}'] in {subcommand}")
    assert "Traceback" not in captured.err


def test_invert_zero_spot_is_degenerate(tmp_path):
    cfg = valid_config("invert")
    cfg["invert"]["spots"][0]["xi"] = [0.0, 0.0]
    assert main(["invert", write_config(tmp_path, "zero.json", cfg)]) == 3


def test_spots_coincident_centers_are_degenerate(tmp_path, capsys):
    cfg = base_config([(0.0, 0.0), (0.0, 0.0), (0.0, 3.0)])
    assert main(["spots", write_config(tmp_path, "same.json", cfg)]) == 3
    assert "collinear" in capsys.readouterr().err


def _leaves(node, path=()):
    """Paths to the numbers, strings, booleans and nulls of a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


# small values only: a size limit is not part of the config format, and a
# bound like 1e308 would make a lattice or a grid as large as it says
_LEAF_VALUES = st.one_of(
    st.integers(-10, 10), st.integers(-100, 100).map(lambda k: k / 10), st.booleans(),
    st.none(), st.sampled_from(["", "x", "plus", "chord"]),
    st.lists(st.integers(-10, 10), max_size=3), st.just({}))

_FUZZ_CONFIGS = [(sub, valid_config(sub))
                 for sub in ("grid", "spots", "decohere", "invert", "check")]
_FUZZ_CONFIGS.append(("spots", base_config()))  # a triplet: lattice prediction


@pytest.mark.parametrize("subcommand, valid", _FUZZ_CONFIGS,
                         ids=[f"{sub}-{len(cfg['states'])}" for sub, cfg in _FUZZ_CONFIGS])
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_exits_cleanly(tmp_path, subcommand, valid, data):
    # one leaf of a valid config replaced by another JSON value: the CLI
    # answers with an exit code, never with an exception
    cfg = json.loads(json.dumps(valid))
    *parents, name = data.draw(st.sampled_from(list(_leaves(cfg))))
    block = cfg
    for part in parents:
        block = block[part]
    block[name] = data.draw(_LEAF_VALUES)
    path = write_config(tmp_path, "fuzz.json", cfg)
    assert main([subcommand, path, "--out", str(tmp_path / "fuzz.csv")]) in (0, 2, 3)
