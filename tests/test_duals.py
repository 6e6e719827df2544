import math

import numpy as np
import pytest

from dualdecay import duals as du
from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay.errors import ConvergenceError, SingularSectionError

from conftest import scaled_basis

GRID = lat.Grid(h=1 / 64, R=24.0, d=1)


def indicator_system(N=16, radii=(4, 8, 16)):
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    basis = lat.make_basis(spec, lat.LatticeWindow(1, N))
    secs = gr.sections(basis, radii, GRID)
    return basis, secs, du.invert_section(secs, tol=1e-8)


def gaussian_system(N=16, radii=(4, 8, 12, 16)):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, N))
    secs = gr.sections(basis, radii, GRID)
    return basis, secs, du.invert_section(secs, tol=1e-8)


def bump_system(N=16, radii=(4, 8, 12, 16)):
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, N))
    secs = gr.sections(basis, radii, GRID)
    return basis, secs, du.invert_section(secs, tol=1e-8)


def toeplitz_sections(rho, radii):
    out = []
    for N in radii:
        win = lat.LatticeWindow(1, N)
        idx = win.indices[:, 0]
        sep = np.abs(idx[:, None] - idx[None, :])
        entries = np.where(sep == 0, 1.0, 0.0) + np.where(sep == 1, rho, 0.0)
        out.append(gr.DecayMatrix(win, entries))
    return out


# --- inversion ---------------------------------------------------------------


def test_identity_inverts_to_identity():
    _, _, ds = indicator_system()
    assert np.array_equal(ds.coeffs, np.eye(33))
    assert ds.core_radius == 8  # the comparison radius
    assert ds.convergence.max_change == 0.0
    assert ds.convergence.estimate == pytest.approx(1e-13)


def test_scaled_identity_inverts_to_half():
    secs = toeplitz_sections(0.0, (4, 8))
    for s in secs:
        s.entries *= 2.0
    ds = du.invert_section(secs, tol=1e-8)
    assert np.allclose(ds.coeffs, 0.5 * np.eye(17), atol=1e-15)


def test_tridiagonal_toeplitz_matches_symbol_oracle():
    rho = 0.25
    ds = du.invert_section(toeplitz_sections(rho, (16, 32)), tol=1e-8)
    assert ds.core_radius >= 8
    # reciprocal-symbol Fourier coefficients, computed spectrally
    n_fft = 4096
    xi = np.arange(n_fft) / n_fft
    coeff = np.fft.ifft(1.0 / (1.0 + 2 * rho * np.cos(2 * math.pi * xi))).real
    r = (1 - math.sqrt(1 - 4 * rho**2)) / (2 * rho)
    for j in range(ds.core_radius + 1):
        closed = (-1) ** j * r**j / math.sqrt(1 - 4 * rho**2)
        assert coeff[j] == pytest.approx(closed, abs=1e-12)
        assert ds.coefficient(0, j) == pytest.approx(coeff[j], abs=1e-8)


def test_singular_section_raises():
    secs = toeplitz_sections(0.6, (4, 8))  # symbol 1 + 1.2 cos has a sign change
    with pytest.raises(SingularSectionError, match="not positive definite"):
        du.invert_section(secs, tol=1e-8)


def test_nonconvergence_raises():
    # the (8,16) pair is too coarse for the gaussian at this tolerance
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 16))
    secs = gr.sections(basis, (8, 16), GRID)
    with pytest.raises(ConvergenceError, match="did not stabilize"):
        du.invert_section(secs, tol=1e-8)


def test_invert_needs_two_sections():
    with pytest.raises(ValueError, match="two section"):
        du.invert_section(toeplitz_sections(0.25, (8,)), tol=1e-8)


def test_coeffs_hermitian_and_core_block():
    _, _, ds = gaussian_system()
    assert np.array_equal(ds.coeffs, ds.coeffs.T)
    block = ds.core_block()
    n = 2 * ds.core_radius + 1
    assert block.shape == (n, n)


# --- synthesis ----------------------------------------------------------------


def test_indicator_duals_are_the_basis():
    basis, _, ds = indicator_system()
    nodes = ds.core_nodes()
    support = basis.support_grid(GRID)
    G = du.synthesize_duals(ds, basis, nodes, GRID)
    assert G.shape == (len(nodes), support.n_points) and support.n_points < GRID.n_points
    padded = np.stack([GRID.embed(row, support) for row in G])
    assert padded.tobytes() == np.stack([basis.sample(k, GRID) for k in nodes]).tobytes()


def test_synthesis_outside_core_rejected():
    basis, _, ds = gaussian_system()
    outside = ds.core_radius + 1
    message = rf"node \({outside},\) outside stabilized core radius {ds.core_radius}"
    with pytest.raises(ValueError, match=message):
        du.synthesize_dual(ds, basis, outside, GRID)
    with pytest.raises(ValueError, match=message):
        du.synthesize_duals(ds, basis, [(0,), (outside,), (-outside,)], GRID)


@pytest.mark.parametrize("system", [gaussian_system, bump_system])
def test_block_rows_match_single_duals(system):
    basis, _, ds = system()
    nodes = ds.core_nodes()
    for node, row in zip(nodes, du.synthesize_duals(ds, basis, nodes, GRID)):
        g = du.synthesize_dual(ds, basis, node, GRID)
        assert np.max(np.abs(row - g)) <= 1e-14 * np.max(np.abs(g)), node


def test_scaling_halves_the_duals():
    basis, _, ds = gaussian_system()
    g0 = du.synthesize_dual(ds, basis, 0, GRID)
    scaled = scaled_basis(basis, 2.0)
    secs = gr.sections(scaled, (4, 8, 12, 16), GRID)
    ds2 = du.invert_section(secs, tol=1e-8)
    g0_scaled = du.synthesize_dual(ds2, scaled, 0, GRID)
    rel = np.max(np.abs(g0_scaled - 0.5 * g0)) / np.max(np.abs(g0))
    assert rel < 1e-10


def test_gaussian_dual_matches_normal_equations_oracle():
    basis, _, ds = gaussian_system()
    g0 = du.synthesize_dual(ds, basis, 0, GRID)
    # least-squares route over a much larger section
    big = lat.make_basis(basis.spec, lat.LatticeWindow(1, 64))
    grid_big = lat.Grid(h=1 / 64, R=72.0, d=1)
    M_big = gr.assemble(big, None, grid_big)
    rhs = np.zeros(M_big.size)
    rhs[M_big.window.index_of(0)] = 1.0
    coeff = np.linalg.solve(M_big.entries, rhs)
    reference = coeff @ big.sample_all(grid_big)
    mask = np.abs(grid_big.points[:, 0]) <= GRID.R + 1e-12
    assert np.max(np.abs(reference[mask] - g0)) < 1e-6


# --- biorthogonality ------------------------------------------------------------


def test_indicator_biorthogonality_exact():
    _, secs, ds = indicator_system()
    assert du.biorthogonality_residual(ds.coeffs, secs[-1].entries) < 1e-12


def test_gaussian_biorthogonality():
    _, secs, ds = gaussian_system()
    assert du.biorthogonality_residual(ds.coeffs, secs[-1].entries) < 1e-6


def test_truncated_coefficients_break_biorthogonality():
    basis, _, ds = bump_system()
    row = ds.coeffs[ds.window.index_of(0)].copy()
    sep = np.abs(ds.window.indices[:, 0])
    truncated = np.where(sep <= 1, row, 0.0)
    F = basis.sample_all(GRID)
    g = truncated @ F
    inner = (F @ g) * GRID.weight
    delta = np.zeros(len(inner))
    delta[ds.window.index_of(0)] = 1.0
    assert np.max(np.abs(inner - delta)) > 1e-3


# --- dual envelopes ---------------------------------------------------------------


def dual_envelope(samples, k, u) -> float:
    """Envelope constant at exponent u of the dual at node k, from its profile."""
    return lat.envelope_constant(*lat.measure_decay(samples, k, GRID), u)


def test_indicator_dual_envelope_bounded_by_four():
    basis, _, ds = indicator_system()
    g0 = GRID.embed(du.synthesize_dual(ds, basis, 0, GRID), basis.support_grid(GRID))
    constant = dual_envelope(g0, 0, 2.0)
    assert constant <= 4.0
    assert constant == pytest.approx((1 + 63 / 64) ** 2, rel=1e-12)


def test_dual_envelope_scales_inversely():
    basis, _, ds = gaussian_system()
    base = dual_envelope(du.synthesize_dual(ds, basis, 0, GRID), 0, 2.0)
    scaled = scaled_basis(basis, 2.0)
    ds2 = du.invert_section(gr.sections(scaled, (4, 8, 12, 16), GRID), tol=1e-8)
    g0_scaled = du.synthesize_dual(ds2, scaled, 0, GRID)
    assert dual_envelope(g0_scaled, 0, 2.0) == 0.5 * base


# --- dual Gramian consistency -------------------------------------------------------


def gram_duals_both_ways(basis, secs, ds) -> tuple:
    """(quadrature, algebraic) max over core pairs of |<g_k, g_j> - c_{k,j}|:
    the inner products of the synthesized duals taken by quadrature, and
    gram_duals_check from the coefficients and the largest section."""
    G = du.synthesize_duals(ds, basis, ds.core_nodes(), GRID)
    pos = ds.core_positions()
    quadrature = float(np.max(np.abs((G @ G.T) * GRID.weight - ds.coeffs[np.ix_(pos, pos)])))
    return quadrature, du.gram_duals_check(ds.coeffs, secs[-1].entries, pos)


def test_indicator_gram_duals_exact():
    quadrature, algebraic = gram_duals_both_ways(*indicator_system())
    assert quadrature < 1e-12 and algebraic < 1e-12
    assert abs(quadrature - algebraic) < 1e-13


def test_gaussian_gram_duals():
    quadrature, algebraic = gram_duals_both_ways(*gaussian_system())
    assert quadrature < 1e-6 and algebraic < 1e-6
    assert abs(quadrature - algebraic) < 1e-13


def test_doubled_gramian_gives_half_norms():
    secs = toeplitz_sections(0.0, (4, 8))
    for s in secs:
        s.entries *= 2.0
    ds = du.invert_section(secs, tol=1e-8)
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    # indicator scaled by sqrt(2) has Gramian 2I; duals have squared norm 1/2
    basis = scaled_basis(lat.make_basis(spec, lat.LatticeWindow(1, 8)), math.sqrt(2.0))
    g0 = du.synthesize_dual(ds, basis, 0, GRID)
    norm_sq = float(np.dot(g0, g0) * GRID.weight)
    assert norm_sq == pytest.approx(0.5, abs=1e-12)
    assert norm_sq == pytest.approx(ds.coefficient(0, 0), abs=1e-12)


# --- coefficient decay -----------------------------------------------------------


def test_bump_coefficient_decay_exponent():
    _, _, ds = bump_system()
    assert ds.core_radius >= 4
    assert du.coefficient_decay_fit(ds) >= 2.0


def test_synthesized_duals_bitwise_equal_fresh_rows():
    # the whole core against the same block product: a GEMM's bits depend on its shape
    basis, _, ds = gaussian_system()
    rows = np.stack([m(GRID.points) for m in basis.members()])
    G = du.synthesize_duals(ds, basis, ds.core_nodes(), GRID)
    assert np.array_equal(G, ds.coeffs[ds.core_positions()] @ rows)
