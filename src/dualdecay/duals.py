"""Finite-section Gramian inversion and dual-function synthesis.

The inverse Gramian C = M^-1 is a symmetric DecayMatrix on the window of
the largest section M: its entries c_{k,j} are the pairwise inner products
of the dual functions, and g_k = sum_j c_{k,j} f_j.  Finite sections only
converge in a central core, so coefficients are trusted (and duals
synthesized) only for nodes inside the stabilized core radius, which
travels next to C.  <g_k, f_j> = (C M)_{k,j} and <g_k, g_j> = (C M C)_{k,j},
so the biorthogonality and dual-Gramian checks need the two matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularSectionError
from .gramian import DecayMatrix
from .lattice import BasisSet, Grid, LatticeWindow, decay_exponent, max_norm

ROUNDOFF_FLOOR = 1e-13  # convergence estimates cannot resolve below this, relatively
MIN_CORE_RADIUS = 1     # a core of the origin alone leaves no off-diagonal coefficient


@dataclass(frozen=True)
class SectionConvergence:
    """Stabilization report for the central block of nested section inverses."""

    estimate: float       # bound on remaining drift of core entries (abs., floored)
    max_change: float     # raw max |Delta c| over the core, two largest radii


def _invert_pd(entries: np.ndarray, radius: int) -> np.ndarray:
    """Dense inverse via Cholesky; failure means the section is not PD."""
    try:
        chol = np.linalg.cholesky(entries)
    except np.linalg.LinAlgError as exc:
        raise SingularSectionError(
            f"section at radius {radius} is not positive definite") from exc
    inv_chol = np.linalg.inv(chol)
    out = inv_chol.T @ inv_chol
    return 0.5 * (out + out.T)


def invert_section(M: DecayMatrix, inner: int,
                   tol: float) -> tuple[DecayMatrix, int, SectionConvergence]:
    """(C, core radius, convergence): C = M^-1 on M.window, from inverting M
    and its central block at radius `inner` < M.window.N.

    The core radius is the largest r <= inner such that every coefficient
    with both nodes in {|k| <= r} changes by less than tol (relative to the
    largest coefficient magnitude) between the two inverses.
    """
    big_win = M.window
    if not 0 <= inner < big_win.N:
        raise ValueError(f"inner section radius must be in [0, {big_win.N}), got {inner}")
    prev_win = LatticeWindow(big_win.d, inner)
    pos = big_win.positions_of(prev_win)
    # the inner block is principal in M, so it is positive definite whenever M is
    prev = _invert_pd(M.entries[np.ix_(pos, pos)], inner)
    big = _invert_pd(M.entries, big_win.N)
    scale = float(np.max(np.abs(big)))
    threshold = tol * scale

    core = -1
    max_change_core = 0.0
    for r in range(inner, -1, -1):
        sub = LatticeWindow(big_win.d, r)
        pos_big = big_win.positions_of(sub)
        pos_prev = prev_win.positions_of(sub)
        change = float(np.max(np.abs(big[np.ix_(pos_big, pos_big)]
                                     - prev[np.ix_(pos_prev, pos_prev)])))
        if change < threshold:
            core = r
            max_change_core = change
            break
    if core < MIN_CORE_RADIUS:
        raise ConvergenceError(
            f"section inverse did not stabilize: core radius {max(core, 0)} "
            f"< {MIN_CORE_RADIUS} at largest radius {big_win.N} (tol={tol:g})")

    estimate = max(max_change_core, ROUNDOFF_FLOOR * scale)
    conv = SectionConvergence(estimate=estimate, max_change=max_change_core)
    return DecayMatrix(big_win, big, symmetric=True), core, conv


def synthesize_duals(C: DecayMatrix, core_radius: int, basis: BasisSet, nodes,
                     grid: Grid) -> np.ndarray:
    """Samples of g_k = sum_j c_{k,j} f_j on basis.support_grid(grid), one
    row per node k of `nodes`, from one matrix product that reads the sample
    matrix once.  Every dual is 0 off that sub-grid; grid.embed pads a row
    to the whole grid.

    Only core nodes have trusted coefficients; requesting any other node is
    an error.  Over the core the result is never larger than the window x
    grid sample matrix, whose size `check_sample_cap` bounds.
    """
    ks = np.asarray(nodes, dtype=int).reshape(len(nodes), C.window.d)
    outside = np.flatnonzero(np.max(np.abs(ks), axis=1) > core_radius)
    if outside.size:
        raise ValueError(
            f"node {tuple(ks[outside[0]].tolist())} outside stabilized core "
            f"radius {core_radius}; coefficients there are not trusted")
    if basis.window != C.window:
        raise ValueError("basis window must match the coefficient window")
    return C.entries[C.window.positions(ks)] @ basis.sample_matrix(grid)


def synthesize_dual(C: DecayMatrix, core_radius: int, basis: BasisSet, k,
                    grid: Grid) -> np.ndarray:
    """Samples of the single dual g_k on basis.support_grid(grid) (see
    synthesize_duals)."""
    return synthesize_duals(C, core_radius, basis, [k], grid)[0]


def biorthogonality_residual(coeffs: np.ndarray, gramian: np.ndarray) -> float:
    """max over the window of |<g_k, f_j> - delta_{k,j}| = |C M - I|."""
    product = coeffs @ gramian
    return float(np.max(np.abs(product - np.eye(len(product)))))


def gram_duals_check(coeffs: np.ndarray, gramian: np.ndarray, core_pos) -> float:
    """max over core pairs of |<g_k, g_j> - c_{k,j}| = |(C M C - C)_core|."""
    inner = coeffs[core_pos] @ gramian @ coeffs[:, core_pos]
    return float(np.max(np.abs(inner - coeffs[np.ix_(core_pos, core_pos)])))


def coefficient_decay_fit(C: DecayMatrix, core_radius: int) -> float:
    """Shell-regression decay exponent of |c_{0,j}| over |j| <= core radius.

    Quantifies how much off-diagonal decay the inverse inherited; the fit is
    restricted to the stabilized core so section artifacts stay out of it.
    """
    origin = (0,) * C.window.d
    radii = max_norm(C.window.indices)
    core = radii <= core_radius
    return decay_exponent(C.entries[C.window.index_of(origin)][core], radii[core], 1.0)
