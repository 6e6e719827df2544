import math

import numpy as np
import pytest
from scipy.integrate import quad

from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay.errors import NotRieszError

from conftest import scaled_basis

GRID = lat.Grid(h=1 / 64, R=24.0, d=1)


def indicator_basis(N=1):
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    return lat.make_basis(spec, lat.LatticeWindow(1, N))


def bump_basis(N=1):
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    return lat.make_basis(spec, lat.LatticeWindow(1, N))


def gaussian_basis(N=4):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    return lat.make_basis(spec, lat.LatticeWindow(1, N))


# --- inner products -----------------------------------------------------------


def test_indicator_inner_products_exact():
    basis = indicator_basis()
    v, tail = gr.inner_product(basis.member(0), basis.member(0), GRID)
    assert v == pytest.approx(1.0, abs=1e-14)
    assert tail == 0.0
    v01, tail01 = gr.inner_product(basis.member(0), basis.member(1), GRID)
    assert v01 == 0.0
    assert tail01 == 0.0


def test_bump_inner_product_against_adaptive_quadrature():
    f = lambda x: (1 + abs(x)) ** -5 * (1 + abs(x - 1)) ** -5
    oracle = sum(quad(f, a, b, epsabs=1e-14, limit=400)[0]
                 for a, b in [(-60, 0), (0, 1), (1, 60)])
    basis = bump_basis()
    v, tail = gr.inner_product(basis.member(0), basis.member(1), GRID)
    # default grid: midpoint error is dominated by the envelope kinks
    assert v == pytest.approx(oracle, abs=2e-5)
    assert tail > 0.0
    fine, _ = gr.inner_product(basis.member(0), basis.member(1),
                               lat.Grid(h=1e-4, R=50.0, d=1))
    assert fine == pytest.approx(oracle, abs=1e-8)


def test_inner_product_tail_bound_honest():
    basis = bump_basis()
    v24, tail24 = gr.inner_product(basis.member(0), basis.member(1), GRID)
    v50, _ = gr.inner_product(basis.member(0), basis.member(1),
                              lat.Grid(h=1 / 64, R=50.0, d=1))
    # the grids are nested, so the difference is exactly the annulus mass
    assert abs(v50 - v24) <= tail24


def test_inner_product_precondition_checks():
    basis = bump_basis()
    shallow = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 0.5, params={"s": 0.5})
    thin = lat.make_basis(shallow, lat.LatticeWindow(1, 0))
    with pytest.raises(ValueError, match="integrable"):
        gr.inner_product(thin.member(0), thin.member(0), GRID)
    far_spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    far = lat.make_basis(far_spec, lat.LatticeWindow(1, 30))
    with pytest.raises(ValueError, match="one unit past"):
        gr.inner_product(far.member(30), far.member(0), lat.Grid(h=1 / 64, R=30.0, d=1))


# --- assembly ------------------------------------------------------------------


def test_indicator_gramian_is_identity():
    M = gr.assemble(indicator_basis(), None, GRID)
    assert np.array_equal(M.entries, np.eye(3))
    assert M.symmetric
    assert M.quadrature_tail == 0.0


D2_GRID = lat.Grid(h=1 / 8, R=6.0, d=2)


def perturbed_gaussian_basis(N=2):
    spec = lat.GeneratorSpec("gaussian", 1, 46.0, 5.0, params={"sigma": 0.5},
                             perturbations={(0,): (0.3,)})
    return lat.make_basis(spec, lat.LatticeWindow(1, N))


def hat_basis(N=2):
    spec = lat.GeneratorSpec("bspline-order-m", 1, 50.0, 5.0, params={"order": 2})
    return lat.make_basis(spec, lat.LatticeWindow(1, N))


def d2_indicator_basis(N=1):
    spec = lat.GeneratorSpec("bspline-indicator", 2, 245.0, 6.0,
                             perturbations={(0, 0): (0.25, -0.25)})
    return lat.make_basis(spec, lat.LatticeWindow(2, N))


def test_assembly_bilinearity_under_scaling():
    for make_basis, grid, alpha in (
            (gaussian_basis, GRID, 2.0),
            (indicator_basis, GRID, 0.5),
            (bump_basis, GRID, 0.5),
            (gaussian_basis, GRID, 0.5),
            (hat_basis, GRID, 0.5),
            (perturbed_gaussian_basis, GRID, 0.5),
            (d2_indicator_basis, D2_GRID, 0.5)):
        basis = make_basis()
        M = gr.assemble(basis, None, grid)
        M2 = gr.assemble(scaled_basis(basis, alpha), None, grid)
        assert np.array_equal(M2.entries, alpha**2 * M.entries), (make_basis, alpha)


def test_gaussian_gramian_matches_closed_form():
    sigma = 0.5
    M = gr.assemble(gaussian_basis(N=4), None, GRID)
    idx = M.window.indices[:, 0]
    closed = sigma * math.sqrt(math.pi) * np.exp(-(idx[:, None] - idx[None, :]) ** 2
                                                 / (4 * sigma**2))
    assert np.max(np.abs(M.entries - closed)) < 1e-8


def test_subwindow_assembly_matches_central_block():
    basis = bump_basis(N=8)
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    full = gr.assemble(basis, None, grid)
    small = gr.assemble(basis, lat.LatticeWindow(1, 3), grid)
    assert np.array_equal(small.entries, full.central_block(3).entries)


def test_sections_are_nested_blocks():
    basis = gaussian_basis(N=8)
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    secs = gr.sections(basis, (2, 4, 8), grid)
    assert [s.window.N for s in secs] == [2, 4, 8]
    assert np.array_equal(secs[0].entries, secs[-1].central_block(2).entries)
    with pytest.raises(ValueError):
        gr.sections(basis, (4, 4, 8), grid)


def test_symmetric_flag_requires_hermitian_entries():
    win = lat.LatticeWindow(1, 1)
    bad = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        gr.DecayMatrix(win, bad, symmetric=True)


# --- derivation ----------------------------------------------------------------


def test_derivation_annihilates_identity():
    M = gr.DecayMatrix(lat.LatticeWindow(1, 3), np.eye(7))
    D = gr.apply_derivation(M, 1, 1)
    assert np.array_equal(D.entries, np.zeros((7, 7)))


def test_derivation_power_zero_is_identity_map():
    M = gr.assemble(gaussian_basis(N=2), None, GRID)
    D0 = gr.apply_derivation(M, 1, 0)
    assert np.array_equal(D0.entries, M.entries)


def test_derivation_example_entry():
    win = lat.LatticeWindow(1, 2)
    idx = win.indices[:, 0]
    entries = np.power(1.0 + np.abs(idx[:, None] - idx[None, :]), -5.0)
    L = gr.DecayMatrix(win, entries)
    D2 = gr.apply_derivation(L, 1, 2)
    assert D2.entry(2, 0) == pytest.approx(4.0 * 3.0**-5, abs=1e-15)


def test_derivation_multiplicative_in_power():
    rng = np.random.default_rng(7)
    integer = gr.DecayMatrix(lat.LatticeWindow(1, 4),
                             rng.integers(-5, 6, size=(9, 9)).astype(float),
                             symmetric=False)
    # integer-valued entries make the composition exact in floating point; on
    # an assembled Gramian the composed and direct powers differ only by one
    # rounding of the entry product
    for L, rtol in ((integer, 0.0),
                    (gr.assemble(gaussian_basis(N=4), None, GRID), 1e-15),
                    (gr.assemble(bump_basis(N=4), None, GRID), 1e-15)):
        once = gr.apply_derivation(gr.apply_derivation(L, 1, 1), 1, 1)
        twice = gr.apply_derivation(L, 1, 2)
        err = np.max(np.abs(once.entries - twice.entries)) / np.max(np.abs(twice.entries))
        assert err <= rtol, (L.window, rtol)


def test_derivation_linear_in_matrix():
    rng = np.random.default_rng(8)
    win = lat.LatticeWindow(1, 3)
    A = rng.integers(-4, 5, size=(7, 7)).astype(float)
    B = rng.integers(-4, 5, size=(7, 7)).astype(float)
    DA = gr.apply_derivation(gr.DecayMatrix(win, A, symmetric=False), 1, 1).entries
    DB = gr.apply_derivation(gr.DecayMatrix(win, B, symmetric=False), 1, 1).entries
    DAB = gr.apply_derivation(gr.DecayMatrix(win, A + B, symmetric=False), 1, 1).entries
    assert np.array_equal(DAB, DA + DB)


def test_derivation_parameter_validation():
    M = gr.DecayMatrix(lat.LatticeWindow(2, 1), np.eye(9))
    with pytest.raises(ValueError, match="axis"):
        gr.apply_derivation(M, 3, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        gr.apply_derivation(M, 1, -1)


# --- operator norm bounds -------------------------------------------------------


def test_schur_bound_identity():
    assert gr.schur_bound(gr.DecayMatrix(lat.LatticeWindow(1, 2), np.eye(5))) == 1.0


def test_schur_bound_approaches_lattice_sum():
    win = lat.LatticeWindow(1, 100)
    idx = win.indices[:, 0]
    entries = np.power(1.0 + np.abs(idx[:, None] - idx[None, :]), -2.0)
    W2 = math.pi**2 / 3 - 1
    bound = gr.schur_bound(gr.DecayMatrix(win, entries))
    assert bound < W2
    assert bound == pytest.approx(W2, abs=0.02)


def test_schur_dominates_spectral_norm(d1_suite):
    rng = np.random.default_rng(321)
    win = lat.LatticeWindow(1, 4)
    sections = [gr.DecayMatrix(win, 0.5 * (m + m.T))
                for m in rng.standard_normal((50, 9, 9))]
    for M in sections + [fam.gramian for fam in d1_suite.families]:
        assert gr.schur_bound(M) >= np.linalg.norm(M.entries, 2) - 1e-10
    # lambda_min <= lambda_max <= ||M||_2 <= schur(M) on each largest section
    for fam in d1_suite.families:
        assert fam.A_est <= gr.schur_bound(fam.gramian), fam.name


# --- Riesz bounds ----------------------------------------------------------------


def test_indicator_riesz_bounds_are_one():
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    secs = gr.sections(indicator_basis(N=8), (2, 4, 8), grid)
    rb = gr.riesz_bounds(secs)
    assert rb.A_est == pytest.approx(1.0, abs=1e-12)
    assert rb.B_est == pytest.approx(1.0, abs=1e-12)
    assert rb.converged


def test_riesz_bounds_scale_quadratically():
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    basis = gaussian_basis(N=4)
    rb = gr.riesz_bounds(gr.sections(basis, (2, 4), grid))
    rb_scaled = gr.riesz_bounds(gr.sections(scaled_basis(basis, 2.0), (2, 4), grid))
    assert rb_scaled.A_est == pytest.approx(4.0 * rb.A_est, rel=1e-13)
    assert rb_scaled.B_est == pytest.approx(4.0 * rb.B_est, rel=1e-13)


def test_gaussian_riesz_bounds_match_symbol_oracle():
    # closed-form Toeplitz sections stand in for the quadrature path, which
    # is itself pinned to the closed form elsewhere at 1e-8
    sigma = 0.5

    def section(N):
        win = lat.LatticeWindow(1, N)
        idx = win.indices[:, 0]
        ent = sigma * math.sqrt(math.pi) * np.exp(-(idx[:, None] - idx[None, :]) ** 2
                                                  / (4 * sigma**2))
        return gr.DecayMatrix(win, ent)

    rb = gr.riesz_bounds([section(64), section(128), section(256)])
    n = np.arange(-40, 41)

    def symbol(xi):
        gh = sigma * math.sqrt(2 * math.pi) * np.exp(
            -2 * math.pi**2 * sigma**2 * (xi + n) ** 2)
        return float(np.sum(gh**2))

    A_true, B_true = symbol(0.5), symbol(0.0)  # extremes by symmetry
    assert rb.A_est == pytest.approx(A_true, abs=1e-4)
    assert rb.B_est == pytest.approx(B_true, abs=1e-4)


def test_interlacing_of_section_extremes():
    grid = lat.Grid(h=1 / 64, R=24.0, d=1)
    secs = gr.sections(bump_basis(N=16), (4, 8, 16), grid)
    rb = gr.riesz_bounds(secs)
    assert rb.lambda_min[0] >= rb.lambda_min[1] >= rb.lambda_min[2] - 1e-14
    assert rb.lambda_max[0] <= rb.lambda_max[1] <= rb.lambda_max[2] + 1e-14


def test_not_riesz_error():
    win = lat.LatticeWindow(1, 1)
    entries = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotRieszError, match="not a Riesz sequence"):
        gr.riesz_bounds([gr.DecayMatrix(win, entries)])


# --- off-diagonal fits ------------------------------------------------------------


def test_offdiag_fit_identity():
    M = gr.DecayMatrix(lat.LatticeWindow(1, 4), np.eye(9))
    assert gr.offdiag_fit(M, u=3.0) == (1.0, math.inf)


def test_offdiag_fit_indicator_banded():
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    M = gr.assemble(indicator_basis(N=8), None, grid)
    _, exponent = gr.offdiag_fit(M, u=3.0)
    assert exponent == math.inf


def test_offdiag_fit_bump_gramian_exponent():
    grid = lat.Grid(h=1 / 64, R=40.0, d=1)
    M = gr.assemble(bump_basis(N=32), None, grid)
    constant, exponent = gr.offdiag_fit(M, u=5.0)
    assert exponent >= 4.5
    assert constant < 2.0


# --- text format -------------------------------------------------------------------


def test_matrix_text_roundtrip(tmp_path):
    M = gr.assemble(gaussian_basis(N=2), None, GRID)
    path = tmp_path / "m.csv"
    M.to_text(path)
    back = gr.DecayMatrix.from_text(path)
    assert back.window == M.window
    assert back.symmetric == M.symmetric
    assert np.array_equal(back.entries, M.entries)


def test_matrix_text_rejects_truncation(tmp_path):
    M = gr.assemble(indicator_basis(), None, GRID)
    path = tmp_path / "m.csv"
    M.to_text(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="expected"):
        gr.DecayMatrix.from_text(path)


def loop_to_text(M, path):
    """The row-by-row writer that DecayMatrix.to_text must match byte for byte."""
    lines = [f"{M.window.d} {M.window.N} {int(M.symmetric)}"]
    idx = M.window.indices
    for a, k in enumerate(idx):
        for b, j in enumerate(idx):
            coords = " ".join(str(int(c)) for c in k) + " " + " ".join(str(int(c)) for c in j)
            lines.append(f"{coords} {float(M.entries[a, b])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def loop_from_text(path):
    """The line-by-line reader that DecayMatrix.from_text must match bitwise."""
    with open(path) as fh:
        header = fh.readline().split()
        d, N, sym = int(header[0]), int(header[1]), bool(int(header[2]))
        window = lat.LatticeWindow(d, N)
        entries = np.empty((window.size, window.size))
        for line in fh:
            parts = line.split()
            k, j = [int(c) for c in parts[:d]], [int(c) for c in parts[d:2 * d]]
            entries[window.index_of(k), window.index_of(j)] = float(parts[2 * d])
    if sym:
        entries = 0.5 * (entries + entries.T)
    return gr.DecayMatrix(window, entries, symmetric=sym)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
@pytest.mark.parametrize("d, N", [(1, 7), (2, 2), (3, 1)])
def test_matrix_text_matches_loop_oracles(tmp_path, d, N, symmetric):
    window = lat.LatticeWindow(d, N)
    rng = np.random.default_rng(17 * d + N)
    a = rng.standard_normal((window.size,) * 2) * 10.0 ** rng.integers(
        -300, 300, (window.size,) * 2)
    a[0, 1], a[1, 2], a[2, 0] = 0.0, -0.0, 5e-324
    M = gr.DecayMatrix(window, 0.5 * (a + a.T) if symmetric else a, symmetric=symmetric)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    M.to_text(fast)
    loop_to_text(M, slow)
    assert fast.read_bytes() == slow.read_bytes()
    back = gr.DecayMatrix.from_text(fast)
    assert back.window == window and back.symmetric == symmetric
    assert np.array_equal(bits(back.entries), bits(M.entries))
    assert np.array_equal(bits(back.entries), bits(loop_from_text(fast).entries))


@pytest.mark.parametrize("edit, fragment", [
    (lambda rows: rows[:3] + rows[4:], "expected 9 matrix rows, found 8"),
    (lambda rows: rows[:3] + ["0 1"] + rows[4:], "found 26 fields, not rows of 3"),
    (lambda rows: rows[:3] + ["0 x 0.5"] + rows[4:], "matrix row 4 is not `k j value`: '0 x 0.5'"),
    (lambda rows: rows[:3] + ["0 99999999999999999999 0.5"] + rows[4:],
     "matrix row 4 is not `k j value`"),
    (lambda rows: rows[:3] + ["2 0 0.5"] + rows[4:], "matrix row 4 has a node outside"),
    (lambda rows: rows[:3] + [rows[2]] + rows[4:],
     "no matrix row for k j = '0 -1', more than one for '-1 1'"),
], ids=["truncated", "short-row", "non-numeric", "overflow", "outside", "repeated"])
def test_matrix_text_rejects_malformed_rows(tmp_path, edit, fragment):
    path = tmp_path / "m.csv"
    gr.DecayMatrix(lat.LatticeWindow(1, 1), np.eye(3)).to_text(path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(rows)) + "\n")
    with pytest.raises(ValueError) as err:
        gr.DecayMatrix.from_text(path)
    assert str(path) in str(err.value) and fragment in str(err.value), str(err.value)


@pytest.mark.parametrize("d, N, sub_N", [(1, 6, 2), (2, 2, 1)])
def test_assemble_bitwise_equals_fresh_rows(d, N, sub_N):
    spec = lat.GeneratorSpec("gaussian", d, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.make_basis(spec, lat.LatticeWindow(d, N))
    grid = lat.Grid(h=1 / 8, R=N + 8.0, d=d)
    for window in (None, lat.LatticeWindow(d, sub_N)):
        M = gr.assemble(basis, window, grid)
        rows = np.stack([basis.member(k)(grid.points) for k in M.window.indices])
        raw = (rows @ rows.T) * grid.weight
        assert np.array_equal(M.entries, 0.5 * (raw + raw.T))
