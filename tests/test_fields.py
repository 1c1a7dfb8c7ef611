import numpy as np
import pytest

from blindspots import (
    FieldGrid,
    ImaginaryResidue,
    MixedEnsemble,
    NonSymmetricWindow,
    Superposition,
    ValidationError,
    WindowTooSmall,
    chord_grid,
    correlation_grid,
    correlation_mixture,
    fourier_2d,
    normalize,
    self_dual_grid,
    wigner_exact,
    wigner_from_chord_grid,
)
from blindspots.fields import _fourier_fft, _fourier_matmul, _fft_compatible, grid_axes, grid_value_at, require_adequate
from conftest import HBAR


def gaussian_grid(window, shape, hbar):
    ap, aq = grid_axes(window, shape)
    vals = np.exp(-(ap[:, None] ** 2 + aq[None, :] ** 2) / (2 * hbar))
    return FieldGrid(window, shape, vals.astype(complex), "chord")


def test_field_grid_validation():
    with pytest.raises(ValidationError):
        FieldGrid(((-1, 1), (-1, 1)), (1, 5), np.zeros((1, 5)), "chord")
    with pytest.raises(ValidationError):
        FieldGrid(((-1, 1), (-1, 1)), (3, 3), np.zeros((3, 3)), "husimi")
    with pytest.raises(ImaginaryResidue):
        FieldGrid(((-1, 1), (-1, 1)), (3, 3), 1j * np.ones((3, 3)), "wigner")
    # a round-off residue passes the check and is dropped
    kept = FieldGrid(((-1, 1), (-1, 1)), (3, 3), (1 + 1e-12j) * np.ones((3, 3)), "correlation")
    assert kept.values.dtype == float and np.all(kept.values == 1.0)


def test_fourier_gaussian_self_reciprocal():
    g = gaussian_grid(((-3, 3), (-3, 3)), (241, 241), HBAR)
    out = fourier_2d(g, HBAR)
    assert np.max(np.abs(out.values - g.values)) < 1e-12


def test_fourier_involution(compact_triplet):
    grid = correlation_grid(compact_triplet, ((-4.8, 4.8), (-4.8, 4.8)), (385, 385))
    twice = fourier_2d(fourier_2d(grid, HBAR), HBAR)
    rel = np.max(np.abs(twice.values - grid.values)) / np.max(np.abs(grid.values))
    assert rel < 1e-6


def test_fourier_invariance_of_pure_correlation(compact_triplet):
    grid = correlation_grid(compact_triplet, ((-4.8, 4.8), (-4.8, 4.8)), (385, 385))
    require_adequate(grid.values, 1e-10)
    ft = fourier_2d(grid, HBAR)
    rel = np.max(np.abs(ft.values - grid.values)) / np.max(np.abs(grid.values))
    assert rel < 1e-6


def test_fourier_rejects_asymmetric_window():
    g = gaussian_grid(((-1, 2), (-1, 1)), (41, 41), HBAR)
    with pytest.raises(NonSymmetricWindow):
        fourier_2d(g, HBAR)


def test_fft_path_matches_matmul():
    window, shape = self_dual_grid(HBAR, 2.5)
    ap, aq = grid_axes(window, shape)
    vals = (np.exp(-(ap[:, None] ** 2 + aq[None, :] ** 2) / (2 * HBAR))
            * np.exp(1j * 0.7 * ap[:, None] - 0.4j * aq[None, :]))
    g = FieldGrid(window, shape, vals, "chord")
    assert _fft_compatible(g, HBAR)
    a = _fourier_matmul(g, HBAR)
    b = _fourier_fft(g, HBAR)
    assert np.max(np.abs(a - b)) < 1e-11


def test_self_dual_grid_is_self_dual():
    window, shape = self_dual_grid(HBAR, 3.0)
    assert shape[0] % 2 == 1
    h = (window[0][1] - window[0][0]) / (shape[0] - 1)
    assert h * h * shape[0] == pytest.approx(2 * np.pi * HBAR, rel=1e-12)
    assert window[0][1] >= 3.0


def test_wigner_grid_matches_pointwise(compact_triplet):
    from blindspots import wigner_grid
    window, shape = ((-1.0, 1.0), (-1.0, 1.0)), (21, 21)
    wg = wigner_grid(compact_triplet, window, shape)
    assert wg.kind == "wigner"
    ap, aq = grid_axes(window, shape)
    assert wg.values[10, 10] == pytest.approx(wigner_exact(compact_triplet, (0.0, 0.0)), rel=1e-12)
    assert wg.values[3, 17] == pytest.approx(
        wigner_exact(compact_triplet, (ap[3], aq[17])), rel=1e-12, abs=1e-300)


def test_wigner_from_chord_grid_oracle(compact_triplet):
    # midpoint of the first two centers lies on this grid lattice
    window, shape = ((-4.8, 4.8), (-4.8, 4.8)), (385, 385)
    wg = wigner_from_chord_grid(chord_grid(compact_triplet, window, shape), HBAR)
    ap, aq = grid_axes(window, shape)
    i = int(np.argmin(np.abs(ap - 0.75)))
    j = int(np.argmin(np.abs(aq + 0.05)))
    assert (ap[i], aq[j]) == (0.75, pytest.approx(-0.05, abs=1e-12))
    assert abs(wg.values[i, j] - wigner_exact(compact_triplet, (ap[i], aq[j]))) < 1e-6


def test_correlation_mixture_single_member():
    st = normalize(Superposition.from_centers(HBAR, [1.0], [(0.3, 0.2)]))
    ens = MixedEnsemble.from_superposition(st)
    window, shape = ((-2.5, 2.5), (-2.5, 2.5)), (201, 201)
    cm = correlation_mixture(ens, window, shape)
    ap, aq = grid_axes(window, shape)
    expect = np.exp(-(ap[:, None] ** 2 + aq[None, :] ** 2) / (2 * HBAR))
    assert np.max(np.abs(cm.values - expect)) < 1e-6
    i0 = shape[0] // 2
    assert cm.values[i0, i0] == pytest.approx(1.0, abs=1e-6)


def test_correlation_mixture_rejects_small_window(compact_triplet):
    ens = MixedEnsemble.from_superposition(compact_triplet)
    with pytest.raises(WindowTooSmall):
        correlation_mixture(ens, ((-0.5, 0.5), (-0.5, 0.5)), (51, 51))


def test_grid_value_interpolation():
    g = gaussian_grid(((-2, 2), (-2, 2)), (401, 401), HBAR)
    v = grid_value_at(g, (0.123, -0.321))
    want = np.exp(-(0.123 ** 2 + 0.321 ** 2) / (2 * HBAR))
    assert abs(v - want) < 1e-4
