"""Gramian finite sections, derivation operators, and operator-norm bounds.

The Gramian of a basis family is the matrix of pairwise inner products
m_{k,j} = <f_k, f_j>, assembled here by composite midpoint quadrature over
a finite window of the lattice.  The derivation along axis h maps a matrix
L to (k_h - j_h) l_{k,j}; the Schur bound (max of supremum row and column
absolute sums) dominates the l2 operator norm.
"""

from __future__ import annotations

import math
import warnings
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
    set the stored entries are exactly Hermitian.
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
            if not np.array_equal(self.entries, herm):
                raise ValueError("symmetric flag set but entries are not exactly Hermitian")

    def node_diffs(self, axis: int) -> np.ndarray:
        """Matrix of k_h - j_h over the window (axis is 1-based)."""
        if not 1 <= axis <= self.window.d:
            raise ValueError(f"axis {axis} out of range 1..{self.window.d}")
        coords = self.window.indices[:, axis - 1].astype(float)
        return coords[:, None] - coords[None, :]

    # -- simple text format: header "d N symmetric", rows "k_1..k_d j_1..j_d value"

    def to_text(self, path):
        """The header, then one row `k j repr(value)` per entry, row-major;
        each distinct entry is formatted once."""
        labels = _node_labels(self.window)
        entries = np.ascontiguousarray(self.entries, dtype=float).ravel()
        # keyed by bit pattern, so -0.0 and +0.0 keep texts of their own
        keys, inverse = np.unique(entries.view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, keys.view(float).tolist())), dtype=object)
        # one `k j %s` line per entry, joined row by row from the labels
        cells = [j + " %s" for j in labels]
        rows = "".join([f"{k} " + f"\n{k} ".join(cells) + "\n" for k in labels])
        with open(path, "w") as fh:
            fh.write(f"{self.window.d} {self.window.N} {int(self.symmetric)}\n")
            fh.write(rows % tuple(texts[inverse].tolist()))

    @classmethod
    def from_text(cls, path) -> "DecayMatrix":
        """The matrix stored by `to_text`, its rows in any order, one per line;
        a ValueError names the file and the row or the (k, j) entry that is
        malformed, outside the window, missing or repeated."""
        try:
            with open(path) as fh:
                header = fh.readline().removesuffix("\n")
                try:
                    d, N, sym = (int(c) for c in header.split())
                    if sym not in (0, 1):
                        raise ValueError(f"symmetric flag {sym} is not 0 or 1")
                    window = LatticeWindow(d, N)
                except ValueError as exc:
                    raise ValueError(f"{path}: bad header {header!r}: {exc}") from exc
                n = window.size
                try:
                    with warnings.catch_warnings():
                        # an empty body is reported below as a row count
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        rows = _load_rows(fh, d)
                except ValueError:
                    rows = None
                if rows is None or len(rows) != n * n:
                    raise _rejected(path, _row_fields(fh), d, n)
                nodes = rows["nodes"]
                outside = np.flatnonzero(np.abs(nodes).max(axis=1) > N)
                if outside.size:
                    raise _row_error(path, _row_fields(fh), outside[0],
                                     f"has a node outside the window N={N}")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        flat = window.positions(nodes[:, :d]) * n + window.positions(nodes[:, d:])
        counts = np.bincount(flat, minlength=n * n)
        if np.any(counts != 1):
            labels = _node_labels(window)
            missing, repeated = (divmod(int(np.flatnonzero(test)[0]), n)
                                 for test in (counts == 0, counts > 1))
            raise ValueError(f"{path}: no matrix row for k j = "
                             f"{' '.join(labels[i] for i in missing)!r}, more than one "
                             f"for {' '.join(labels[i] for i in repeated)!r}")
        entries = np.empty((n, n))
        entries.flat[flat] = rows["value"]
        if sym:
            entries = 0.5 * (entries + entries.T)
        return cls(window, entries, symmetric=bool(sym))


def _node_labels(window: LatticeWindow) -> list:
    """The `k_1 .. k_d` text of every window node, in enumeration order."""
    return [" ".join(map(str, k)) for k in window.indices.tolist()]


def _load_rows(lines, d: int) -> np.ndarray:
    """The `k j value` rows of `lines` (an open file or a list of lines) by
    numpy's C text reader: one record of int64 `nodes` (k, then j) and a
    float `value` per line that is not blank."""
    dtype = [("nodes", np.int64, (2 * d,)), ("value", float)]
    return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)


def _row_fields(fh) -> list:
    """The fields of every line below the header of the open matrix file
    `fh` that is not blank, read again from the start of the file."""
    fh.seek(0)
    fh.readline()
    return [fields for fields in map(str.split, fh.read().split("\n")) if fields]


def _row_error(path, lines: list, r: int, why: str) -> ValueError:
    return ValueError(f"{path}: matrix row {r + 1} {why}: {' '.join(lines[r])!r}")


def _rejected(path, lines: list, d: int, n: int) -> ValueError:
    """The error for matrix rows `lines` (fields per line) that are not n*n
    rows `k j value`: their field count when that is not n*n rows of 2d+1
    fields, else their first line that the reader does not take as a row."""
    width = 2 * d + 1
    count = sum(map(len, lines))
    rows, extra = divmod(count, width)
    if extra or rows != n * n:
        found = f"{rows}" if not extra else f"{count} fields, not rows of {width}"
        return ValueError(f"{path}: expected {n * n} matrix rows, found {found}")
    r = next(r for r, fields in enumerate(lines) if not _is_row(fields, d))
    return _row_error(path, lines, r, "is not `k j value`")


def _is_row(fields, d: int) -> bool:
    """Whether the reader takes `fields` as one row `k j value`."""
    try:
        _load_rows([" ".join(fields)], d)
    except ValueError:
        return False
    return True


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

    Every section is a central block of M, so Cauchy interlacing holds exactly.
    """
    M = assemble(basis, LatticeWindow(basis.window.d, radii[-1]), grid)
    return M, riesz_bounds(M, radii, rtol)


def apply_derivation(L: DecayMatrix, h: int, u: int) -> DecayMatrix:
    """Entrywise map l_{k,j} -> (k_h - j_h)^u l_{k,j}; u = 0 is the identity."""
    if u < 0 or int(u) != u:
        raise ValueError(f"derivation power must be a nonnegative integer, got {u}")
    diffs = L.node_diffs(h)
    entries = L.entries * diffs**u
    # odd powers flip sign under transposition
    sym = L.symmetric and u % 2 == 0
    if sym:
        entries = 0.5 * (entries + entries.T)
    return DecayMatrix(L.window, entries, symmetric=sym, quadrature_tail=L.quadrature_tail)


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
