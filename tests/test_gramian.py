import ast
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import NotRieszError

from conftest import (RIESZ_RTOL, d2_indicator_settings, entry, evaluate, grid_points,
                      inner_product, scaled_basis, standard_families)

GRID = lat.Grid(h=1 / 64, R=24.0, d=1)


def indicator_basis(N=1):
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    return lat.BasisSet(spec, lat.LatticeWindow(1, N))


def bump_basis(N=1):
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    return lat.BasisSet(spec, lat.LatticeWindow(1, N))


def gaussian_basis(N=4):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    return lat.BasisSet(spec, lat.LatticeWindow(1, N))


# --- inner products -----------------------------------------------------------


def test_indicator_inner_products_exact():
    basis = indicator_basis()
    v, tail = inner_product(basis, 0, 0, GRID)
    assert v == pytest.approx(1.0, abs=1e-14)
    assert tail == 0.0
    v01, tail01 = inner_product(basis, 0, 1, GRID)
    assert v01 == 0.0
    assert tail01 == 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_indicator_closed_form_is_the_midpoint_rule_on_dyadic_shifts(d):
    # shifts that are multiples of h = 1/8: the midpoint rule counts the
    # points of each overlap exactly
    shifts = {(0,) * d: (0.25,) + (-0.375,) * (d - 1), (1,) + (0,) * (d - 1): (-0.125,) * d,
              (-2,) * d: (0.5,) * d}
    spec = lat.GeneratorSpec("bspline-indicator", d, 1e4, d + 4.0, perturbations=shifts)
    basis = lat.BasisSet(spec, lat.LatticeWindow(d, 3))
    grid = lat.Grid(h=1 / 8, R=6.0, d=d)
    oracle = gr.assemble(basis, None, grid)
    M, _ = gr.sections(basis, (2, 3), grid, RIESZ_RTOL)
    assert oracle.quadrature_tail == M.quadrature_tail == 0.0
    assert M.entries.tobytes() == oracle.entries.tobytes()
    assert M.entries.tobytes() == spec.inner_products(basis.centers).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_indicator_closed_form_is_exact_off_the_grid(d):
    # two unit cubes 0.3 apart along the first axis overlap in 1 - 0.3; the
    # midpoint rule on h = 1/8 counts 5 points of it, 0.625
    spec = lat.GeneratorSpec("bspline-indicator", d, 1e4, d + 4.0)
    a, b = np.zeros(d), np.array([0.3] + [0.0] * (d - 1))
    assert spec.inner_products(np.stack([a, b])).tolist() == [[1.0, 1.0 - 0.3],
                                                               [1.0 - 0.3, 1.0]]
    grid = lat.Grid(h=1 / 8, R=3.0, d=d)
    cubes = [spec.generator(grid.offsets(c)).reshape(-1) for c in (a, b)]
    assert np.dot(*cubes) * grid.weight == 0.625


def test_bump_inner_product_against_adaptive_quadrature():
    f = lambda x: (1 + abs(x)) ** -5 * (1 + abs(x - 1)) ** -5
    oracle = sum(quad(f, a, b, epsabs=1e-14, limit=400)[0]
                 for a, b in [(-60, 0), (0, 1), (1, 60)])
    basis = bump_basis()
    v, tail = inner_product(basis, 0, 1, GRID)
    # default grid: midpoint error is dominated by the envelope kinks
    assert v == pytest.approx(oracle, abs=2e-5)
    assert tail > 0.0
    fine, _ = inner_product(basis, 0, 1, lat.Grid(h=1e-4, R=50.0, d=1))
    assert fine == pytest.approx(oracle, abs=1e-8)


def test_inner_product_tail_bound_honest():
    basis = bump_basis()
    v24, tail24 = inner_product(basis, 0, 1, GRID)
    v50, _ = inner_product(basis, 0, 1, lat.Grid(h=1 / 64, R=50.0, d=1))
    # the grids are nested, so the difference is exactly the annulus mass
    assert abs(v50 - v24) <= tail24


def test_assemble_precondition_checks():
    # an envelope that is not integrable (s <= d) has no tail bound
    shallow = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 0.5, params={"s": 0.5})
    thin = lat.BasisSet(shallow, lat.LatticeWindow(1, 0))
    with pytest.raises(ValueError, match="diverges"):
        gr.assemble(thin, None, GRID)
    far_spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    far = lat.BasisSet(far_spec, lat.LatticeWindow(1, 30))
    with pytest.raises(ValueError, match="one unit past every center"):
        gr.assemble(far, None, lat.Grid(h=1 / 64, R=30.0, d=1))


# --- assembly ------------------------------------------------------------------


def test_indicator_gramian_is_identity():
    M = gr.assemble(indicator_basis(), None, GRID)
    assert np.array_equal(M.entries, np.eye(3))
    assert M.symmetric
    assert M.quadrature_tail == 0.0


D2_GRID = lat.Grid(h=1 / 8, R=6.0, d=2)


def test_noncompact_tail_is_the_largest_corner_pair_tail():
    # a perturbed corner sets the reach of the window's first center
    spec = lat.GeneratorSpec("gaussian", 2, 46.0, 6.0, params={"sigma": 0.5},
                             perturbations={(-1, -1): (-0.25, 0.125), (0, 0): (0.3, -0.2)})
    basis = lat.BasisSet(spec, lat.LatticeWindow(2, 1))
    M = gr.assemble(basis, None, D2_GRID)
    first, last = (-1, -1), (1, 1)
    tails = [inner_product(basis, k, j, D2_GRID)[1]
             for k, j in ((first, first), (first, last), (last, last))]
    assert M.quadrature_tail > 0.0
    assert M.quadrature_tail == max(tails)


def perturbed_gaussian_basis(N=2):
    spec = lat.GeneratorSpec("gaussian", 1, 46.0, 5.0, params={"sigma": 0.5},
                             perturbations={(0,): (0.3,)})
    return lat.BasisSet(spec, lat.LatticeWindow(1, N))


def hat_basis(N=2):
    spec = lat.GeneratorSpec("bspline-order-m", 1, 50.0, 5.0, params={"order": 2})
    return lat.BasisSet(spec, lat.LatticeWindow(1, N))


def d2_indicator_basis(N=1):
    spec = lat.GeneratorSpec("bspline-indicator", 2, 245.0, 6.0,
                             perturbations={(0, 0): (0.25, -0.25)})
    return lat.BasisSet(spec, lat.LatticeWindow(2, N))


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


def _d2_perturbed_gaussian(N=3):
    spec = lat.GeneratorSpec("gaussian", 2, 1e3, 8.0, params={"sigma": 0.5},
                             perturbations={(0, 0): (0.3, -0.2), (1, -2): (-0.5, 0.45)})
    return lat.BasisSet(spec, lat.LatticeWindow(2, N))


@pytest.mark.parametrize("name", ["gauss", "gauss-pert", "d2-pert"])
def test_gaussian_sections_take_the_closed_form(name):
    # the run's Gramian of d1_suite's gaussian families and of a perturbed
    # d=2 gaussian, against quadrature on the run's grid
    if name == "d2-pert":
        basis, grid = _d2_perturbed_gaussian(), lat.Grid(h=1 / 8, R=11.0, d=2)
    else:
        spec = next(f.spec for f in standard_families() if f.name == name)
        basis, grid = lat.BasisSet(spec, lat.LatticeWindow(1, 16)), lat.Grid(1 / 64, 24.0, 1)
    radii = (basis.window.N - 1, basis.window.N)
    M, _ = gr.sections(basis, radii, grid, RIESZ_RTOL)
    oracle = gr.assemble(basis, None, grid)
    assert M.quadrature_tail == 0.0 and oracle.quadrature_tail > 0.0
    assert np.max(np.abs(M.entries - oracle.entries)) <= 1e-14 * np.max(np.abs(M.entries))


def test_subwindow_assembly_matches_central_block():
    basis = bump_basis(N=8)
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    full = gr.assemble(basis, None, grid)
    small = gr.assemble(basis, lat.LatticeWindow(1, 3), grid)
    pos = full.window.positions_of(small.window)
    assert np.array_equal(small.entries, full.entries[np.ix_(pos, pos)])


def test_sections_are_nested_blocks():
    basis = gaussian_basis(N=8)
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    M, rb = gr.sections(basis, (2, 4, 8), grid, RIESZ_RTOL)
    assert M.window.N == 8 and rb.radii == (2, 4, 8)
    # the gaussian's Gramian is its closed form, which is exact
    products = basis.spec.inner_products
    assert np.array_equal(M.entries, products(basis.centers)) and M.quadrature_tail == 0.0
    # the section at radius 2 is the central block of M, which is the
    # sub-window's own Gramian bit for bit
    pos = basis.window.positions_of(lat.LatticeWindow(1, 2))
    eig = np.linalg.eigvalsh(products(basis.centers[pos]))
    assert (rb.lambda_min[0], rb.lambda_max[0]) == (eig[0], eig[-1])
    with pytest.raises(ValueError):
        gr.sections(basis, (4, 4, 8), grid, RIESZ_RTOL)


@pytest.mark.parametrize("radii", [(), (2, 4), (2, 8, 4), (4, 4, 8), (2, 4, 8, 8)])
def test_riesz_bounds_need_strictly_increasing_radii_to_the_window(radii):
    M = gr.assemble(gaussian_basis(N=8), None, lat.Grid(h=1 / 64, R=16.0, d=1))
    with pytest.raises(ValueError, match="section radii must increase strictly up to "
                                         "the window radius 8"):
        gr.riesz_bounds(M, radii, RIESZ_RTOL)


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
    assert entry(D2, 2, 0) == pytest.approx(4.0 * 3.0**-5, abs=1e-15)


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


@pytest.fixture(scope="module")
def d2_indicator() -> pl.SuiteResult:
    return pl.run_suite(d2_indicator_settings())


@pytest.mark.parametrize("suite", ["d1_suite", "d2_indicator"])
def test_even_derivation_of_a_symmetric_matrix_is_the_plain_product(request, suite):
    # no averaging keeps an even derivation of M or C Hermitian: at the run's
    # powers it is the plain entrywise product, and where x^u is not exact
    # (13^16) it is the product with |k_h - j_h|^u
    for fam in request.getfixturevalue(suite).families:
        for L in (fam.gramian, fam.coeffs):
            for h in range(1, L.window.d + 1):
                for u, diffs in ((0, L.node_diffs(h)), (2, L.node_diffs(h)),
                                 (4, L.node_diffs(h)), (16, np.abs(L.node_diffs(h)))):
                    D = gr.apply_derivation(L, h, u)
                    assert D.symmetric, (fam.name, h, u)
                    assert np.array_equal(D.entries.view(np.int64),
                                          (L.entries * diffs**u).view(np.int64)), (fam.name, h, u)


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
    _, rb = gr.sections(indicator_basis(N=8), (2, 4, 8), grid, RIESZ_RTOL)
    assert rb.A_est == pytest.approx(1.0, abs=1e-12)
    assert rb.B_est == pytest.approx(1.0, abs=1e-12)
    assert rb.converged


def test_riesz_bounds_scale_quadratically():
    grid = lat.Grid(h=1 / 64, R=16.0, d=1)
    basis = gaussian_basis(N=4)
    _, rb = gr.sections(basis, (2, 4), grid, RIESZ_RTOL)
    _, rb_scaled = gr.sections(scaled_basis(basis, 2.0), (2, 4), grid, RIESZ_RTOL)
    assert rb_scaled.A_est == pytest.approx(4.0 * rb.A_est, rel=1e-13)
    assert rb_scaled.B_est == pytest.approx(4.0 * rb.B_est, rel=1e-13)


def test_gaussian_riesz_bounds_match_symbol_oracle():
    # a closed-form Toeplitz matrix stands in for the quadrature path, which
    # is itself pinned to the closed form elsewhere at 1e-8
    sigma = 0.5
    win = lat.LatticeWindow(1, 256)
    idx = win.indices[:, 0]
    ent = sigma * math.sqrt(math.pi) * np.exp(-(idx[:, None] - idx[None, :]) ** 2
                                              / (4 * sigma**2))
    rb = gr.riesz_bounds(gr.DecayMatrix(win, ent), (64, 128, 256), RIESZ_RTOL)
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
    _, rb = gr.sections(bump_basis(N=16), (4, 8, 16), grid, RIESZ_RTOL)
    assert rb.lambda_min[0] >= rb.lambda_min[1] >= rb.lambda_min[2] - 1e-14
    assert rb.lambda_max[0] <= rb.lambda_max[1] <= rb.lambda_max[2] + 1e-14


def test_not_riesz_error():
    win = lat.LatticeWindow(1, 1)
    entries = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotRieszError, match="not a Riesz sequence"):
        gr.riesz_bounds(gr.DecayMatrix(win, entries), (1,), RIESZ_RTOL)


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


# --- matrix files: `to_text` and `from_text` write and read .npy -------------------


def test_matrix_text_roundtrip(tmp_path):
    M = gr.assemble(gaussian_basis(N=2), None, GRID)
    path = tmp_path / "m.npy"
    M.to_text(path)
    back = gr.DecayMatrix.from_text(path, M.window)
    assert back.window == M.window
    assert back.symmetric == M.symmetric
    assert np.array_equal(back.entries, M.entries)


def test_matrix_text_rejects_truncation(tmp_path):
    M = gr.assemble(indicator_basis(), None, GRID)
    path = tmp_path / "m.npy"
    M.to_text(path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="does not hold exactly the 9 entries"):
        gr.DecayMatrix.from_text(path, M.window)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def loop_to_npy(M, path):
    """The .npy format 1.0 written by hand, one entry at a time: the bytes
    that DecayMatrix.to_text must match."""
    n = M.window.size
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': ({n}, {n}), }}"
    header += " " * (21 - len(str(n)))  # numpy's room to grow the first axis
    header += " " * (64 - (10 + len(header) + 1) % 64) + "\n"  # data 64-byte aligned
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode())
        for k in range(n):
            for j in range(n):
                fh.write(struct.pack("<d", M.entries[k, j]))


def loop_from_npy(path) -> np.ndarray:
    """The float64 matrix of a .npy file read by hand, one entry at a time:
    the values that DecayMatrix.from_text must match bitwise."""
    with open(path, "rb") as fh:
        assert fh.read(8) == b"\x93NUMPY\x01\x00"
        header = ast.literal_eval(fh.read(struct.unpack("<H", fh.read(2))[0]).decode())
        assert header["descr"] == "<f8" and not header["fortran_order"]
        rows, cols = header["shape"]
        entries = [[struct.unpack("<d", fh.read(8))[0] for _ in range(cols)]
                   for _ in range(rows)]
        assert fh.read() == b""
    return np.array(entries)


# a few values over a whole matrix, each signed zero among them many times
_REPEATED = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.1, -2.5e-8, 5e-324, -5e-324, 1e308, math.inf,
             -math.inf, math.nan]


@pytest.mark.parametrize("kind", ["symmetric", "general", "repeated"])
@pytest.mark.parametrize("d, N", [(1, 7), (2, 2), (3, 1)])
def test_matrix_text_matches_loop_oracles(tmp_path, d, N, kind):
    """`to_text` writes the bytes of the loop writer; `from_text` reads a
    symmetric matrix back bit for bit, signed zeros, subnormals, infinities
    and NaN included, as the loop reader does, and rejects one that is not
    symmetric."""
    window = lat.LatticeWindow(d, N)
    rng = np.random.default_rng(17 * d + N)
    shape = (window.size,) * 2
    if kind == "repeated":
        a = rng.choice(_REPEATED, shape)
        a.flat[:4] = [0.0, -0.0, -0.0, math.nan]
        zero, signed = a == 0, np.signbit(a)
        assert min(np.sum(zero & signed), np.sum(zero & ~signed)) >= 2
    else:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        a[0, 1], a[1, 2], a[2, 0] = 0.0, -0.0, 5e-324
    if kind != "general":
        a = np.where(np.triu(np.ones(shape, dtype=bool)), a, a.T)  # mirrors the bits
    M = gr.DecayMatrix(window, a, symmetric=kind != "general")
    fast, slow = tmp_path / "fast.npy", tmp_path / "slow.npy"
    M.to_text(fast)
    loop_to_npy(M, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert np.array_equal(bits(loop_from_npy(fast)), bits(a))
    if kind == "general":
        with pytest.raises(ValueError, match="entries are not exactly Hermitian"):
            gr.DecayMatrix.from_text(fast, window)
        return
    back = gr.DecayMatrix.from_text(fast, window)
    assert back.window == window and back.symmetric
    assert np.array_equal(bits(back.entries), bits(a))


def _npy_header(path, shape):
    """A .npy header of a C-order float64 array of `shape` at `path`."""
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})


def _with_row_repeated(path):
    a = np.arange(9.0).reshape(3, 3)
    a = a + a.T
    a[1] = a[0]
    np.save(path, a)


def _in_format_2_0(path):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.eye(3), version=(2, 0))


@pytest.mark.parametrize("write, fragment", [
    (lambda path: path.write_bytes(path.read_bytes()[:-1]),
     "does not hold exactly the 9 entries its header gives"),
    (lambda path: np.save(path, np.eye(3).astype(object), allow_pickle=True),
     "holds a |O array of shape (3, 3), not <f8 of shape (3, 3) in C order for the window "
     "d=1 N=1"),
    (lambda path: np.save(path, np.eye(5)), "holds a <f8 array of shape (5, 5), not <f8"),
    (_with_row_repeated, "entries are not exactly Hermitian"),
    (lambda path: np.save(path, np.eye(3)[:, :2]), "holds a <f8 array of shape (3, 2), not <f8"),
    (lambda path: np.save(path, np.eye(3).ravel()), "holds a <f8 array of shape (9,), not <f8"),
    (_in_format_2_0, "not a .npy matrix: the format version is not 1.0"),
], ids=["truncated", "non-numeric", "outside", "repeated", "short-row", "two-rows-on-a-line",
        "version-2.0"])
def test_matrix_text_rejects_malformed_rows(tmp_path, write, fragment):
    path = tmp_path / "m.npy"
    gr.DecayMatrix(lat.LatticeWindow(1, 1), np.eye(3)).to_text(path)
    write(path)
    with pytest.raises(ValueError) as err:
        gr.DecayMatrix.from_text(path, lat.LatticeWindow(1, 1))
    assert fragment in str(err.value), str(err.value)


def test_matrix_text_header_without_rows_is_a_row_count(tmp_path):
    path = tmp_path / "m.npy"
    _npy_header(path, (3, 3))
    with pytest.raises(ValueError, match="does not hold exactly the 9 entries its header gives"):
        gr.DecayMatrix.from_text(path, lat.LatticeWindow(1, 1))


def test_matrix_header_is_checked_before_any_data_is_read(tmp_path):
    """A header that claims a 300000 x 300000 array (671 GiB) is rejected
    from the header alone; np.load would try to allocate the array."""
    path = tmp_path / "m.npy"
    _npy_header(path, (300000, 300000))
    with open(path, "ab") as fh:
        fh.write(np.eye(3).tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="holds a <f8 array of shape \\(300000, 300000\\)"):
            gr.DecayMatrix.from_text(path, lat.LatticeWindow(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("d, N, sub_N", [(1, 6, 2), (2, 2, 1)])
def test_assemble_bitwise_equals_fresh_rows(d, N, sub_N):
    spec = lat.GeneratorSpec("gaussian", d, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(d, N))
    grid = lat.Grid(h=1 / 8, R=N + 8.0, d=d)
    for window in (None, lat.LatticeWindow(d, sub_N)):
        M = gr.assemble(basis, window, grid)
        rows = np.stack([evaluate(basis, k, grid_points(grid)) for k in M.window.indices])
        raw = (rows @ rows.T) * grid.weight
        assert np.array_equal(M.entries, 0.5 * (raw + raw.T))
