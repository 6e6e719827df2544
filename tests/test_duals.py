import math

import numpy as np
import pytest

from dualdecay import duals as du
from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay.errors import ConvergenceError, SingularSectionError

from conftest import (INVERSION_TOL, RIESZ_RTOL, core_nodes, core_positions, entry, evaluate,
                      grid_points, scaled_basis)

GRID = lat.Grid(h=1 / 64, R=24.0, d=1)


# each system is (basis, M, C, core radius, convergence)


def indicator_system(N=16, radii=(4, 8, 16)):
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, N))
    M, _ = gr.sections(basis, radii, GRID, RIESZ_RTOL)
    return (basis, M) + du.invert_section(M, radii[-2], INVERSION_TOL)


def gaussian_system(N=16, radii=(4, 8, 12, 16)):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, N))
    M, _ = gr.sections(basis, radii, GRID, RIESZ_RTOL)
    return (basis, M) + du.invert_section(M, radii[-2], INVERSION_TOL)


def bump_system(N=16, radii=(4, 8, 12, 16)):
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, N))
    M, _ = gr.sections(basis, radii, GRID, RIESZ_RTOL)
    return (basis, M) + du.invert_section(M, radii[-2], INVERSION_TOL)


def toeplitz_section(rho, N):
    """The tridiagonal Toeplitz matrix with diagonal 1 and off-diagonal rho
    on the window of radius N; its central blocks are the smaller sections."""
    win = lat.LatticeWindow(1, N)
    idx = win.indices[:, 0]
    sep = np.abs(idx[:, None] - idx[None, :])
    return gr.DecayMatrix(win, np.where(sep == 0, 1.0, 0.0) + np.where(sep == 1, rho, 0.0))


# --- inversion ---------------------------------------------------------------


def test_identity_inverts_to_identity():
    _, M, C, core, convergence = indicator_system()
    assert C.window == M.window and C.symmetric
    assert np.array_equal(C.entries, np.eye(33))
    assert core == 8  # the comparison radius
    assert convergence.max_change == 0.0
    assert convergence.estimate == pytest.approx(1e-13)


def test_scaled_identity_inverts_to_half():
    M = toeplitz_section(0.0, 8)
    M.entries *= 2.0
    C, _, _ = du.invert_section(M, 4, INVERSION_TOL)
    assert np.allclose(C.entries, 0.5 * np.eye(17), atol=1e-15)


def test_tridiagonal_toeplitz_matches_symbol_oracle():
    rho = 0.25
    C, core, _ = du.invert_section(toeplitz_section(rho, 32), 16, INVERSION_TOL)
    assert core >= 8
    # reciprocal-symbol Fourier coefficients, computed spectrally
    n_fft = 4096
    xi = np.arange(n_fft) / n_fft
    coeff = np.fft.ifft(1.0 / (1.0 + 2 * rho * np.cos(2 * math.pi * xi))).real
    r = (1 - math.sqrt(1 - 4 * rho**2)) / (2 * rho)
    for j in range(core + 1):
        closed = (-1) ** j * r**j / math.sqrt(1 - 4 * rho**2)
        assert coeff[j] == pytest.approx(closed, abs=1e-12)
        assert entry(C, 0, j) == pytest.approx(coeff[j], abs=1e-8)


def test_singular_section_raises():
    M = toeplitz_section(0.6, 8)  # symbol 1 + 1.2 cos has a sign change
    # the inner block is inverted first, and it is already indefinite
    with pytest.raises(SingularSectionError, match="radius 4 is not positive definite"):
        du.invert_section(M, 4, INVERSION_TOL)


def test_nonconvergence_raises():
    # the (8,16) pair is too coarse for the gaussian at this tolerance
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 16))
    M, _ = gr.sections(basis, (8, 16), GRID, RIESZ_RTOL)
    with pytest.raises(ConvergenceError, match="did not stabilize"):
        du.invert_section(M, 8, INVERSION_TOL)


def test_invert_needs_two_sections():
    # the inner section must be a proper central block of the matrix
    for inner in (-1, 8, 9):
        with pytest.raises(ValueError, match=r"inner section radius must be in \[0, 8\), "
                                             f"got {inner}"):
            du.invert_section(toeplitz_section(0.25, 8), inner, INVERSION_TOL)


def test_coeffs_hermitian_and_core_block():
    _, _, C, core, _ = gaussian_system()
    assert np.array_equal(C.entries, C.entries.T)
    pos = core_positions(C, core)
    block = C.entries[np.ix_(pos, pos)]
    n = 2 * core + 1
    assert block.shape == (n, n)


# --- synthesis ----------------------------------------------------------------


def test_indicator_duals_are_the_basis():
    basis, _, C, core, _ = indicator_system()
    nodes = core_nodes(1, core)
    support = basis.support_grid(GRID)
    G = du.synthesize_duals(C, core, basis, nodes, GRID)
    assert G.shape == (len(nodes), support.n_points) and support.n_points < GRID.n_points
    padded = np.stack([GRID.embed(row, support) for row in G])
    assert padded.tobytes() == np.stack([basis.sample(k, GRID) for k in nodes]).tobytes()


def test_synthesis_outside_core_rejected():
    basis, _, C, core, _ = gaussian_system()
    outside = core + 1
    message = rf"node \({outside},\) outside stabilized core radius {core}"
    with pytest.raises(ValueError, match=message):
        du.synthesize_dual(C, core, basis, outside, GRID)
    with pytest.raises(ValueError, match=message):
        du.synthesize_duals(C, core, basis, [(0,), (outside,), (-outside,)], GRID)


@pytest.mark.parametrize("system", [gaussian_system, bump_system])
def test_block_rows_match_single_duals(system):
    basis, _, C, core, _ = system()
    nodes = core_nodes(1, core)
    for node, row in zip(nodes, du.synthesize_duals(C, core, basis, nodes, GRID)):
        g = du.synthesize_dual(C, core, basis, node, GRID)
        assert np.max(np.abs(row - g)) <= 1e-14 * np.max(np.abs(g)), node


def test_scaling_halves_the_duals():
    basis, _, C, core, _ = gaussian_system()
    g0 = du.synthesize_dual(C, core, basis, 0, GRID)
    scaled = scaled_basis(basis, 2.0)
    M, _ = gr.sections(scaled, (4, 8, 12, 16), GRID, RIESZ_RTOL)
    C2, core2, _ = du.invert_section(M, 12, INVERSION_TOL)
    g0_scaled = du.synthesize_dual(C2, core2, scaled, 0, GRID)
    rel = np.max(np.abs(g0_scaled - 0.5 * g0)) / np.max(np.abs(g0))
    assert rel < 1e-10


def test_gaussian_dual_matches_normal_equations_oracle():
    basis, _, C, core, _ = gaussian_system()
    g0 = du.synthesize_dual(C, core, basis, 0, GRID)
    # least-squares route over a much larger section
    big = lat.BasisSet(basis.spec, lat.LatticeWindow(1, 64))
    grid_big = lat.Grid(h=1 / 64, R=72.0, d=1)
    M_big = gr.assemble(big, None, grid_big)
    rhs = np.zeros(M_big.window.size)
    rhs[M_big.window.index_of(0)] = 1.0
    coeff = np.linalg.solve(M_big.entries, rhs)
    reference = coeff @ big.sample_all(grid_big)
    mask = np.abs(grid_points(grid_big)[:, 0]) <= GRID.R + 1e-12
    assert np.max(np.abs(reference[mask] - g0)) < 1e-6


# --- biorthogonality ------------------------------------------------------------


def test_indicator_biorthogonality_exact():
    _, M, C, _, _ = indicator_system()
    assert du.biorthogonality_residual(C.entries, M.entries) < 1e-12


def test_gaussian_biorthogonality():
    _, M, C, _, _ = gaussian_system()
    assert du.biorthogonality_residual(C.entries, M.entries) < 1e-6


def test_truncated_coefficients_break_biorthogonality():
    basis, _, C, _, _ = bump_system()
    row = C.entries[C.window.index_of(0)].copy()
    sep = np.abs(C.window.indices[:, 0])
    truncated = np.where(sep <= 1, row, 0.0)
    F = basis.sample_all(GRID)
    g = truncated @ F
    inner = (F @ g) * GRID.weight
    delta = np.zeros(len(inner))
    delta[C.window.index_of(0)] = 1.0
    assert np.max(np.abs(inner - delta)) > 1e-3


# --- dual envelopes ---------------------------------------------------------------


def dual_envelope(samples, k, u) -> float:
    """Envelope constant at exponent u of the dual at node k, from its profile."""
    return lat.envelope_constant(*lat.measure_decay(samples, k, GRID), u)


def test_indicator_dual_envelope_bounded_by_four():
    basis, _, C, core, _ = indicator_system()
    g0 = GRID.embed(du.synthesize_dual(C, core, basis, 0, GRID), basis.support_grid(GRID))
    constant = dual_envelope(g0, 0, 2.0)
    assert constant <= 4.0
    assert constant == pytest.approx((1 + 63 / 64) ** 2, rel=1e-12)


def test_dual_envelope_scales_inversely():
    basis, _, C, core, _ = gaussian_system()
    base = dual_envelope(du.synthesize_dual(C, core, basis, 0, GRID), 0, 2.0)
    scaled = scaled_basis(basis, 2.0)
    M2, _ = gr.sections(scaled, (4, 8, 12, 16), GRID, RIESZ_RTOL)
    C2, core2, _ = du.invert_section(M2, 12, INVERSION_TOL)
    g0_scaled = du.synthesize_dual(C2, core2, scaled, 0, GRID)
    assert dual_envelope(g0_scaled, 0, 2.0) == 0.5 * base


# --- dual Gramian consistency -------------------------------------------------------


def gram_duals_both_ways(basis, M, C, core, _) -> tuple:
    """(quadrature, algebraic) max over core pairs of |<g_k, g_j> - c_{k,j}|:
    the inner products of the synthesized duals taken by quadrature, and
    gram_duals_check from the coefficients and the Gramian M."""
    G = du.synthesize_duals(C, core, basis, core_nodes(1, core), GRID)
    pos = core_positions(C, core)
    quadrature = float(np.max(np.abs((G @ G.T) * GRID.weight - C.entries[np.ix_(pos, pos)])))
    return quadrature, du.gram_duals_check(C.entries, M.entries, pos)


def test_indicator_gram_duals_exact():
    quadrature, algebraic = gram_duals_both_ways(*indicator_system())
    assert quadrature < 1e-12 and algebraic < 1e-12
    assert abs(quadrature - algebraic) < 1e-13


def test_gaussian_gram_duals():
    quadrature, algebraic = gram_duals_both_ways(*gaussian_system())
    assert quadrature < 1e-6 and algebraic < 1e-6
    assert abs(quadrature - algebraic) < 1e-13


def test_doubled_gramian_gives_half_norms():
    M = toeplitz_section(0.0, 8)
    M.entries *= 2.0
    C, core, _ = du.invert_section(M, 4, INVERSION_TOL)
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    # indicator scaled by sqrt(2) has Gramian 2I; duals have squared norm 1/2
    basis = scaled_basis(lat.BasisSet(spec, lat.LatticeWindow(1, 8)), math.sqrt(2.0))
    g0 = du.synthesize_dual(C, core, basis, 0, GRID)
    norm_sq = float(np.dot(g0, g0) * GRID.weight)
    assert norm_sq == pytest.approx(0.5, abs=1e-12)
    assert norm_sq == pytest.approx(entry(C, 0, 0), abs=1e-12)


# --- coefficient decay -----------------------------------------------------------


def test_bump_coefficient_decay_exponent():
    _, _, C, core, _ = bump_system()
    assert core >= 4
    assert du.coefficient_decay_fit(C, core) >= 2.0


def test_synthesized_duals_bitwise_equal_fresh_rows():
    # the whole core against the same block product: a GEMM's bits depend on its shape
    basis, _, C, core, _ = gaussian_system()
    rows = np.stack([evaluate(basis, k, grid_points(GRID)) for k in basis.window.indices])
    G = du.synthesize_duals(C, core, basis, core_nodes(1, core), GRID)
    assert np.array_equal(G, C.entries[core_positions(C, core)] @ rows)
