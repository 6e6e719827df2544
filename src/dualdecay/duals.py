"""Finite-section Gramian inversion and dual-function synthesis.

The inverse Gramian entries c_{k,j} are the pairwise inner products of the
dual functions, and g_k = sum_j c_{k,j} f_j.  Finite sections only converge
in a central core, so coefficients are trusted (and duals synthesized) only
for nodes inside the stabilized core radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularSectionError
from .gramian import DecayMatrix
from .lattice import BasisSet, EnvelopeFit, Grid, LatticeWindow, fit_envelope, max_norm

ROUNDOFF_FLOOR = 1e-13  # convergence estimates cannot resolve below this, relatively


@dataclass(frozen=True)
class SectionConvergence:
    """Stabilization report for the central block of nested section inverses."""

    radii: tuple
    core_radius: int
    estimate: float       # bound on remaining drift of core entries (abs., floored)
    max_change: float     # raw max |Delta c| over the core, two largest radii
    scale: float          # max |c| at the largest radius


@dataclass
class DualSystem:
    """Inverse-Gramian coefficients plus sampled dual functions.

    `coeffs` is the full inverse of the largest section; only entries with
    both nodes inside the stabilized core are section-converged.
    """

    window: LatticeWindow
    coeffs: np.ndarray
    core_radius: int
    convergence: SectionConvergence
    duals: dict = field(default_factory=dict)
    dual_tails: dict = field(default_factory=dict)

    def coefficient(self, k, j) -> float:
        return self.coeffs[self.window.index_of(k), self.window.index_of(j)]

    def core_block(self) -> np.ndarray:
        sub = LatticeWindow(self.window.d, self.core_radius)
        pos = self.window.positions_of(sub)
        return self.coeffs[np.ix_(pos, pos)]

    def core_nodes(self) -> list:
        sub = LatticeWindow(self.window.d, self.core_radius)
        return [tuple(int(c) for c in k) for k in sub.indices]

    def in_core(self, k) -> bool:
        k = np.atleast_1d(np.asarray(k, dtype=int))
        return bool(np.max(np.abs(k)) <= self.core_radius)

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


def invert_section(sections_list, tol: float = 1e-8, min_core_radius: int = 1) -> DualSystem:
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
    if core < min_core_radius:
        raise ConvergenceError(
            f"section inverse did not stabilize: core radius {max(core, 0)} "
            f"< {min_core_radius} at largest radius {radii[-1]} (tol={tol:g})")

    estimate = max(max_change_core, ROUNDOFF_FLOOR * scale)
    conv = SectionConvergence(radii=tuple(radii), core_radius=core,
                              estimate=estimate, max_change=max_change_core,
                              scale=scale)
    return DualSystem(window=big_win, coeffs=big, core_radius=core, convergence=conv)


def coefficient_tail_bound(ds: DualSystem, k, t: int) -> tuple[float, float]:
    """(alpha, lattice tail) for the synthesis mass dropped outside the window.

    alpha is the measured coefficient envelope constant at exponent t; the
    omitted coefficient mass is bounded by alpha * sum_{|m| > gap} (1+|m|)^(-t),
    and the lattice tail is controlled by an integral comparison.
    """
    from .constants import lattice_tail_upper  # local import avoids a cycle

    d = ds.window.d
    if t <= d:
        raise ValueError(f"tail arithmetic needs t > d, got t={t}, d={d}")
    row = ds.coeffs[ds.window.index_of(k)]
    sep = max_norm(ds.window.indices - np.asarray(np.atleast_1d(k)))
    alpha = float(np.max(np.abs(row) * np.power(1.0 + sep, float(t))))
    gap = ds.window.N - int(np.max(np.abs(np.atleast_1d(k))))
    return alpha, alpha * lattice_tail_upper(float(t), d, max(gap, 1))


def synthesize_dual(ds: DualSystem, basis: BasisSet, k, grid: Grid,
                    t: int | None = None) -> tuple[np.ndarray, float]:
    """Sample g_k = sum_j c_{k,j} f_j on the grid.

    Only core nodes have trusted coefficients; requesting any other node is
    an error.  When t is given, a truncation-tail estimate is attached.
    """
    if not ds.in_core(k):
        raise ValueError(
            f"node {tuple(np.atleast_1d(k))} outside stabilized core radius "
            f"{ds.core_radius}; coefficients there are not trusted")
    if basis.window.N != ds.window.N or basis.window.d != ds.window.d:
        raise ValueError("basis window must match the coefficient window")
    row = ds.coeffs[ds.window.index_of(k)]
    samples = row @ basis.sample_matrix(grid)
    tail = math.nan
    if t is not None:
        envelope_C = abs(basis.amplitude) * basis.spec.claimed_C
        _, lattice_tail = coefficient_tail_bound(ds, k, t)
        tail = lattice_tail * envelope_C
    node = tuple(int(c) for c in np.atleast_1d(k))
    ds.duals[node] = samples
    ds.dual_tails[node] = tail
    return samples, tail


def biorthogonality_residual(ds: DualSystem, basis: BasisSet, grid: Grid) -> float:
    """max over core k and window j of |<g_k, f_j> - delta_{k,j}| by quadrature."""
    nodes = ds.core_nodes()
    F = basis.sample_matrix(grid)
    rows = []
    for node in nodes:
        if node not in ds.duals:
            synthesize_dual(ds, basis, node, grid)
        rows.append(ds.duals[node])
    G = np.stack(rows)
    inner = (G @ F.T) * grid.weight
    expected = np.zeros_like(inner)
    for a, node in enumerate(nodes):
        expected[a, ds.window.index_of(node)] = 1.0
    return float(np.max(np.abs(inner - expected)))


def dual_envelope(ds: DualSystem, k, t: float, grid: Grid,
                  method: str = "max-envelope") -> EnvelopeFit:
    """Envelope of a synthesized dual around its node at exponent t."""
    node = tuple(int(c) for c in np.atleast_1d(k))
    if node not in ds.duals:
        raise ValueError(f"dual for node {node} has not been synthesized")
    if grid.R - max(abs(c) for c in node) < 8.0 - 1e-9:
        raise ValueError("grid must cover |x - k| <= 8 around the node")
    radii = max_norm(grid.points - np.asarray(node, dtype=float))
    return fit_envelope(ds.duals[node], radii, t, method=method)


def gram_duals_check(ds: DualSystem, grid: Grid) -> float:
    """max over core pairs of |<g_k, g_j> - c_{k,j}| by quadrature."""
    nodes = [n for n in ds.core_nodes() if n in ds.duals]
    if not nodes:
        raise ValueError("no synthesized duals to check")
    G = np.stack([ds.duals[n] for n in nodes])
    inner = (G @ G.T) * grid.weight
    pos = np.array([ds.window.index_of(n) for n in nodes])
    return float(np.max(np.abs(inner - ds.coeffs[np.ix_(pos, pos)])))


def coefficient_decay_fit(ds: DualSystem, node=None) -> EnvelopeFit:
    """Shell regression of |c_{k,j}| over |k-j| <= core radius.

    Quantifies how much off-diagonal decay the inverse inherited; the fit is
    restricted to the stabilized core so section artifacts stay out of it.
    """
    if node is None:
        node = (0,) * ds.window.d
    row = ds.coeffs[ds.window.index_of(node)]
    sep = max_norm(ds.window.indices - np.asarray(np.atleast_1d(node)))
    maxima, shells = [], []
    for r in range(ds.core_radius + 1):
        mask = sep == r
        if np.any(mask):
            maxima.append(np.max(np.abs(row[mask])))
            shells.append(float(r))
    return fit_envelope(np.array(maxima), np.array(shells), 0.0,
                        method="loglog-regression", bin_width=1.0)
