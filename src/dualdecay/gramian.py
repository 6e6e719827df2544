"""Gramian finite sections, derivation operators, and operator-norm bounds.

The Gramian of a basis family is the matrix of pairwise inner products
m_{k,j} = <f_k, f_j> over a finite window of the lattice: in closed form
for a generator that has one, by composite midpoint quadrature otherwise.
The derivation along axis h maps a matrix L to (k_h - j_h) l_{k,j}; the
Schur bound (max of supremum row and column absolute sums) dominates the
l2 operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotRieszError
from .lattice import (BasisSet, Grid, LatticeWindow, axes_max_norm, decay_exponent,
                      envelope_constant)


def decay_integral(u: float, d: int) -> float:
    """Closed form of the full-space integral of (1 + |x|_inf)^(-u), u > d."""
    if u <= d:
        raise ValueError(f"integral diverges for u <= d (u={u}, d={d})")
    # shell measure of {|x| = r} is d 2^d r^(d-1); the radial integral is a Beta function
    return d * 2**d * math.exp(math.lgamma(d) + math.lgamma(u - d) - math.lgamma(u))


def _tail_bound(basis: BasisSet, a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Analytic bound on the mass outside the grid box of the inner product
    of the two basis functions centred at a and b."""
    reach = [float(np.max(np.abs(c))) for c in (a, b)]
    rho = basis.spec.support_radius
    if rho is not None and grid.R >= max(reach) + rho:
        return 0.0
    C, s = basis.spec.claimed_C, basis.spec.claimed_s
    # sup of one envelope outside the box times the full integral of the other
    return min(C * C * (1.0 + max(0.0, grid.R - r)) ** (-s) * decay_integral(s, grid.d)
               for r in reach)


@dataclass
class DecayMatrix:
    """Dense window matrix with off-diagonal decay metadata.

    Rows and columns follow the window enumeration.  When `symmetric` is
    set the stored entries are exactly Hermitian, a NaN matching a NaN.
    """

    window: LatticeWindow
    entries: np.ndarray
    symmetric: bool = True
    quadrature_tail: float = 0.0

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        n = self.window.size
        if self.entries.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n} for window size {n}")
        if self.symmetric:
            herm = np.conj(self.entries.T)
            if not np.array_equal(self.entries, herm, equal_nan=True):
                raise ValueError("entries are not exactly Hermitian")

    def node_diffs(self, axis: int) -> np.ndarray:
        """Matrix of k_h - j_h over the window (axis is 1-based)."""
        if not 1 <= axis <= self.window.d:
            raise ValueError(f"axis {axis} out of range 1..{self.window.d}")
        coords = self.window.indices[:, axis - 1].astype(float)
        return coords[:, None] - coords[None, :]

    # the text-era names stay: dualbench/spans.py looks both methods up by name
    def to_text(self, path):
        """Write the entries to `path` as `.npy`: one C-order float64 array,
        saved without pickle."""
        with open(path, "wb") as fh:
            np.save(fh, np.ascontiguousarray(self.entries, dtype="<f8"), allow_pickle=False)

    @classmethod
    def from_text(cls, path, window: LatticeWindow) -> "DecayMatrix":
        """The symmetric matrix on `window` that `to_text` stored at `path`,
        bit for bit. The `.npy` header must give format 1.0, dtype <f8, C
        order and shape (n, n), n = window.size, and is checked before any
        data is read."""
        n = window.size
        with open(path, "rb") as fh:
            try:  # np.save writes format 1.0 for every 2-D float64 array
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise ValueError("the format version is not 1.0")
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            except ValueError as exc:
                raise ValueError(f"not a .npy matrix: {exc}") from None
            if (shape, fortran, dtype) != ((n, n), False, np.dtype("<f8")):
                raise ValueError(f"holds a {dtype.str} array of shape {shape}"
                                 f"{' in Fortran order' * fortran}, not <f8 of shape ({n}, {n}) "
                                 f"in C order for the window d={window.d} N={window.N}")
            entries = np.fromfile(fh, dtype="<f8", count=n * n)
            if entries.size != n * n or fh.read(1):
                raise ValueError(f"does not hold exactly the {n * n} entries its header gives")
        return cls(window, entries.reshape(n, n))


def assemble(basis: BasisSet, window: LatticeWindow | None, grid: Grid) -> DecayMatrix:
    """Hermitian Gramian of the basis over the window by midpoint quadrature.

    The rows of a sub-window are taken by position from the basis's shared
    sample matrix, so the sample_all entry cap bounds assembly too.  That
    matrix covers only basis.support_grid(grid); the points it leaves out
    add 0 * 0 to every entry, and the weight is h^d on either grid.  The
    tail bound and the reach check below use the whole grid.
    Symmetry is enforced by averaging (M + M^T)/2; an asymmetry residual far
    above the quadrature tail bound signals a misconfigured grid and raises.
    """
    if window is None:
        window = basis.window
    pos = basis.window.positions_of(window)  # raises unless a centred sub-window
    centers = basis.centers[pos]
    if grid.R < np.max(np.abs(centers)) + 1.0:
        raise ValueError("grid extent must reach one unit past every center")
    samples = basis.sample_matrix(grid)
    if window != basis.window:
        samples = samples[pos]
    raw = (samples @ samples.T) * grid.weight
    asym = float(np.max(np.abs(raw - raw.T)))
    # the tail bound is largest for the outermost centers: the first and last
    first, last = centers[0], centers[-1]
    tail = max(_tail_bound(basis, a, b, grid) for a, b in ((first, first), (first, last),
                                                          (last, last)))
    scale = float(np.max(np.abs(raw))) or 1.0
    if asym > 100.0 * tail + 1e-13 * scale:
        raise ValueError(
            f"asymmetry residual {asym:.3g} exceeds 100x quadrature tail bound {tail:.3g}")
    sym = 0.5 * (raw + raw.T)
    return DecayMatrix(window, sym, symmetric=True, quadrature_tail=tail)


def sections(basis: BasisSet, radii, grid: Grid,
             rtol: float) -> tuple[DecayMatrix, RieszBounds]:
    """(M, bounds): the Gramian M on the window of the largest radius, and
    the Riesz bounds of its nested sections {|k| <= N}, N in radii.

    M is the spec's closed form where it has one, exact and so with
    quadrature_tail 0, and assemble's quadrature otherwise.  Every section
    is a central block of M, so Cauchy interlacing holds exactly.
    """
    window = LatticeWindow(basis.window.d, radii[-1])
    products = basis.spec.inner_products
    if products is None:
        M = assemble(basis, window, grid)
    else:
        M = DecayMatrix(window, products(basis.centers[basis.window.positions_of(window)]))
    return M, riesz_bounds(M, radii, rtol)


def apply_derivation(L: DecayMatrix, h: int, u: int) -> DecayMatrix:
    """Entrywise map l_{k,j} -> (k_h - j_h)^u l_{k,j}; u = 0 is the identity."""
    if u < 0 or int(u) != u:
        raise ValueError(f"derivation power must be a nonnegative integer, got {u}")
    diffs = L.node_diffs(h)
    # odd powers flip sign under transposition; an even one is taken of
    # |k_h - j_h|, since numpy's array power can round x^u and (-x)^u one ulp
    # apart (13^16), and the product must stay exactly symmetric
    even = u % 2 == 0
    return DecayMatrix(L.window, L.entries * (np.abs(diffs) if even else diffs)**u,
                       symmetric=L.symmetric and even, quadrature_tail=L.quadrature_tail)


def schur_bound(L: DecayMatrix) -> float:
    """max(sup_k sum_j |l_{k,j}|, sup_j sum_k |l_{k,j}|) >= ||L||_2."""
    a = np.abs(L.entries)
    return float(max(np.max(a.sum(axis=1)), np.max(a.sum(axis=0))))


@dataclass(frozen=True)
class RieszBounds:
    """Two-sided stability bounds estimated from nested section eigenvalues.

    By Cauchy interlacing lambda_min(N) is nonincreasing and lambda_max(N)
    nondecreasing, so the largest section gives the tightest estimates.
    """

    A_est: float
    B_est: float
    radii: tuple
    lambda_min: tuple
    lambda_max: tuple
    converged: bool


def riesz_bounds(M: DecayMatrix, radii, rtol: float) -> RieszBounds:
    """Eigenvalue extremes of the central blocks of M at strictly increasing
    radii, the last M's own; estimates taken at the largest radius."""
    radii = tuple(radii)
    if not radii or list(radii) != sorted(set(radii)) or radii[-1] != M.window.N:
        raise ValueError(f"section radii must increase strictly up to the window radius "
                         f"{M.window.N}, got {radii}")
    if not M.symmetric:
        raise ValueError("the Gramian must be Hermitian")
    lo, hi = [], []
    for N in radii:
        pos = M.window.positions_of(LatticeWindow(M.window.d, N))
        eig = np.linalg.eigvalsh(M.entries[np.ix_(pos, pos)])
        lam_min, lam_max = float(eig[0]), float(eig[-1])
        if lam_min <= 0.0:
            raise NotRieszError(
                f"lambda_min = {lam_min:.3g} at radius {N}: "
                "not a Riesz sequence at this resolution")
        lo.append(lam_min)
        hi.append(lam_max)
    converged = False
    if len(radii) >= 2:
        converged = (abs(lo[-1] - lo[-2]) <= rtol * abs(lo[-1])
                     and abs(hi[-1] - hi[-2]) <= rtol * abs(hi[-1]))
    return RieszBounds(A_est=lo[-1], B_est=hi[-1], radii=radii,
                       lambda_min=tuple(lo), lambda_max=tuple(hi), converged=converged)


def offdiag_fit(L: DecayMatrix, u: float) -> tuple[float, float]:
    """(K, exponent): the least K with |l_{k,j}| <= K (1+|k-j|)^(-u), and the
    shell-regression decay exponent, inf for a banded matrix."""
    radii = axes_max_norm([L.node_diffs(h) for h in range(1, L.window.d + 1)])
    return envelope_constant(L.entries, radii, u), decay_exponent(L.entries, radii, 1.0)
