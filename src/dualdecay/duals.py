"""Finite-section Gramian inversion and dual-function synthesis.

The inverse Gramian entries c_{k,j} are the pairwise inner products of the
dual functions, and g_k = sum_j c_{k,j} f_j.  Finite sections only converge
in a central core, so coefficients are trusted (and duals synthesized) only
for nodes inside the stabilized core radius.  With M the largest section
and C its inverse, <g_k, f_j> = (C M)_{k,j} and <g_k, g_j> = (C M C)_{k,j},
so the biorthogonality and dual-Gramian checks need the two matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularSectionError
from .gramian import DecayMatrix
from .lattice import BasisSet, Grid, LatticeWindow, decay_exponent, radial_profile

ROUNDOFF_FLOOR = 1e-13  # convergence estimates cannot resolve below this, relatively
MIN_CORE_RADIUS = 1     # a core of the origin alone leaves no off-diagonal coefficient


@dataclass(frozen=True)
class SectionConvergence:
    """Stabilization report for the central block of nested section inverses."""

    estimate: float       # bound on remaining drift of core entries (abs., floored)
    max_change: float     # raw max |Delta c| over the core, two largest radii


@dataclass
class DualSystem:
    """Inverse-Gramian coefficients of the largest section.

    `coeffs` is the full inverse of the largest section; only entries with
    both nodes inside the stabilized core are section-converged.
    """

    window: LatticeWindow
    coeffs: np.ndarray
    core_radius: int
    convergence: SectionConvergence

    def coefficient(self, k, j) -> float:
        return self.coeffs[self.window.index_of(k), self.window.index_of(j)]

    def core_positions(self) -> np.ndarray:
        return self.window.positions_of(LatticeWindow(self.window.d, self.core_radius))

    def core_block(self) -> np.ndarray:
        pos = self.core_positions()
        return self.coeffs[np.ix_(pos, pos)]

    def core_nodes(self) -> list:
        sub = LatticeWindow(self.window.d, self.core_radius)
        return [tuple(int(c) for c in k) for k in sub.indices]

    def coefficient_matrix(self) -> DecayMatrix:
        return DecayMatrix(self.window, self.coeffs, symmetric=True)


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


def invert_section(sections_list, tol: float = 1e-8) -> DualSystem:
    """Invert nested sections and find the stabilized central core.

    The core radius is the largest r such that every coefficient with both
    nodes in {|k| <= r} changes by less than tol (relative to the largest
    coefficient magnitude) between the two largest section radii.
    """
    if len(sections_list) < 2:
        raise ValueError("need at least two section radii to assess convergence")
    radii = [sec.window.N for sec in sections_list]
    if sorted(radii) != radii or len(set(radii)) != len(radii):
        raise ValueError("sections must come at strictly increasing radii")
    inverses = [_invert_pd(sec.entries, sec.window.N) for sec in sections_list]

    big, big_win = inverses[-1], sections_list[-1].window
    prev, prev_win = inverses[-2], sections_list[-2].window
    scale = float(np.max(np.abs(big)))
    threshold = tol * scale

    core = -1
    max_change_core = 0.0
    for r in range(prev_win.N, -1, -1):
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
            f"< {MIN_CORE_RADIUS} at largest radius {radii[-1]} (tol={tol:g})")

    estimate = max(max_change_core, ROUNDOFF_FLOOR * scale)
    conv = SectionConvergence(estimate=estimate, max_change=max_change_core)
    return DualSystem(window=big_win, coeffs=big, core_radius=core, convergence=conv)


def synthesize_duals(ds: DualSystem, basis: BasisSet, nodes, grid: Grid) -> np.ndarray:
    """Samples of g_k = sum_j c_{k,j} f_j on basis.support_grid(grid), one
    row per node k of `nodes`, from one matrix product that reads the sample
    matrix once.  Every dual is 0 off that sub-grid; grid.embed pads a row
    to the whole grid.

    Only core nodes have trusted coefficients; requesting any other node is
    an error.  Over the core the result is never larger than the window x
    grid sample matrix, whose size `check_sample_cap` bounds.
    """
    ks = np.asarray(nodes, dtype=int).reshape(len(nodes), ds.window.d)
    outside = np.flatnonzero(np.max(np.abs(ks), axis=1) > ds.core_radius)
    if outside.size:
        raise ValueError(
            f"node {tuple(ks[outside[0]].tolist())} outside stabilized core "
            f"radius {ds.core_radius}; coefficients there are not trusted")
    if basis.window.N != ds.window.N or basis.window.d != ds.window.d:
        raise ValueError("basis window must match the coefficient window")
    return ds.coeffs[ds.window.positions(ks)] @ basis.sample_matrix(grid)


def synthesize_dual(ds: DualSystem, basis: BasisSet, k, grid: Grid) -> np.ndarray:
    """Samples of the single dual g_k on basis.support_grid(grid) (see
    synthesize_duals)."""
    return synthesize_duals(ds, basis, [k], grid)[0]


def biorthogonality_residual(coeffs: np.ndarray, gramian: np.ndarray) -> float:
    """max over the window of |<g_k, f_j> - delta_{k,j}| = |C M - I|."""
    product = coeffs @ gramian
    return float(np.max(np.abs(product - np.eye(len(product)))))


def gram_duals_check(coeffs: np.ndarray, gramian: np.ndarray, core_pos) -> float:
    """max over core pairs of |<g_k, g_j> - c_{k,j}| = |(C M C - C)_core|."""
    inner = coeffs[core_pos] @ gramian @ coeffs[:, core_pos]
    return float(np.max(np.abs(inner - coeffs[np.ix_(core_pos, core_pos)])))


def coefficient_decay_fit(ds: DualSystem) -> float:
    """Shell-regression decay exponent of |c_{0,j}| over |j| <= core radius.

    Quantifies how much off-diagonal decay the inverse inherited; the fit is
    restricted to the stabilized core so section artifacts stay out of it.
    """
    origin = (0,) * ds.window.d
    maxima, shells = radial_profile(ds.coeffs[ds.window.index_of(origin)], ds.window.indices.T)
    core = shells <= ds.core_radius
    return decay_exponent(maxima[core], shells[core], bin_width=1.0)
