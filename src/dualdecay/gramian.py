"""Gramian finite sections, derivation operators, and operator-norm bounds.

The Gramian of a basis family is the matrix of pairwise inner products
m_{k,j} = <f_k, f_j>, assembled here by composite midpoint quadrature over
a finite window of the lattice.  The derivation along axis h maps a matrix
L to (k_h - j_h) l_{k,j}; the Schur bound (max of supremum row and column
absolute sums) dominates the l2 operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotRieszError
from .lattice import (BasisSet, Grid, LatticeWindow, Member, decay_exponent, envelope_constant,
                      radial_profile)


def decay_integral(u: float, d: int) -> float:
    """Closed form of the full-space integral of (1 + |x|_inf)^(-u), u > d."""
    if u <= d:
        raise ValueError(f"integral diverges for u <= d (u={u}, d={d})")
    # shell measure of {|x| = r} is d 2^d r^(d-1); the radial integral is a Beta function
    return d * 2**d * math.exp(math.lgamma(d) + math.lgamma(u - d) - math.lgamma(u))


def _tail_bound(f: Member, g: Member, grid: Grid) -> float:
    """Analytic bound on the inner-product mass outside the grid box."""
    if (f.support_radius is not None and g.support_radius is not None
            and grid.R >= np.max(np.abs(f.center)) + f.support_radius
            and grid.R >= np.max(np.abs(g.center)) + g.support_radius):
        return 0.0
    best = math.inf
    for a, b in ((f, g), (g, f)):
        # sup of a's envelope outside the box times the full integral of b's
        gap = max(0.0, grid.R - float(np.max(np.abs(a.center))))
        bound = (a.envelope_C * b.envelope_C
                 * (1.0 + gap) ** (-a.envelope_s)
                 * decay_integral(b.envelope_s, grid.d))
        best = min(best, bound)
    return best


def inner_product(f: Member, g: Member, grid: Grid) -> tuple[float, float]:
    """<f, g> by midpoint quadrature, with an analytic truncated-mass bound.

    Both envelopes must be integrable (s > d), and the grid has to reach at
    least one unit past both centers.
    """
    for fn in (f, g):
        if fn.envelope_s <= grid.d:
            raise ValueError(f"envelope exponent {fn.envelope_s} not integrable in d={grid.d}")
        if grid.R < np.max(np.abs(fn.center)) + 1.0:
            raise ValueError("grid extent must reach one unit past both centers")
    value = float(np.dot(f.sample(grid), g.sample(grid)) * grid.weight)
    return value, _tail_bound(f, g, grid)


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

    @property
    def size(self) -> int:
        return self.window.size

    def entry(self, k, j) -> float:
        return self.entries[self.window.index_of(k), self.window.index_of(j)]

    def node_diffs(self, axis: int) -> np.ndarray:
        """Matrix of k_h - j_h over the window (axis is 1-based)."""
        if not 1 <= axis <= self.window.d:
            raise ValueError(f"axis {axis} out of range 1..{self.window.d}")
        coords = self.window.indices[:, axis - 1].astype(float)
        return coords[:, None] - coords[None, :]

    def central_block(self, radius: int) -> "DecayMatrix":
        """Principal submatrix on the centered sub-window of given radius."""
        sub = LatticeWindow(self.window.d, radius)
        pos = self.window.positions_of(sub)
        return DecayMatrix(sub, self.entries[np.ix_(pos, pos)],
                           symmetric=self.symmetric,
                           quadrature_tail=self.quadrature_tail)

    # -- simple text format: header "d N symmetric", rows "k_1..k_d j_1..j_d value"

    def to_text(self, path):
        labels = _node_labels(self.window)
        values = np.asarray(self.entries, dtype=float).tolist()
        with open(path, "w") as fh:
            fh.write(f"{self.window.d} {self.window.N} {int(self.symmetric)}\n")
            for k, row in zip(labels, values):
                fh.write("".join(f"{k} {j} {v!r}\n" for j, v in zip(labels, row)))

    @classmethod
    def from_text(cls, path) -> "DecayMatrix":
        """The matrix stored by `to_text`; a ValueError names the file and the
        row or the (k, j) entry that is malformed, outside the window, missing
        or repeated."""
        with open(path) as fh:
            header, _, body = fh.read().partition("\n")
        try:
            d, N, sym = (int(c) for c in header.split())
            window = LatticeWindow(d, N)
        except ValueError as exc:
            raise ValueError(f"{path}: bad header {header!r}: {exc}") from exc
        n, width = window.size, 2 * d + 1
        fields = body.split()
        rows, extra = divmod(len(fields), width)
        if extra or rows != n * n:
            found = f"{rows}" if not extra else f"{len(fields)} fields, not rows of {width}"
            raise ValueError(f"{path}: expected {n * n} matrix rows, found {found}")

        def bad_row(r, why):
            text = " ".join(fields[r * width:(r + 1) * width])
            return ValueError(f"{path}: matrix row {r + 1} {why}: {text!r}")

        try:
            nodes = np.stack([np.array(fields[c::width], dtype=np.int64)
                              for c in range(2 * d)], axis=1)
            values = np.array(fields[2 * d::width], dtype=float)
        except (ValueError, OverflowError):
            raise bad_row(next(r for r in range(rows)
                               if not _is_row(fields[r * width:(r + 1) * width], d)),
                          "is not `k j value`") from None
        outside = np.flatnonzero(np.abs(nodes).max(axis=1) > N)
        if outside.size:
            raise bad_row(outside[0], f"has a node outside the window N={N}")
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
        entries.flat[flat] = values
        if sym:
            entries = 0.5 * (entries + entries.T)
        return cls(window, entries, symmetric=bool(sym))


def _node_labels(window: LatticeWindow) -> list:
    """The `k_1 .. k_d` text of every window node, in enumeration order."""
    return [" ".join(map(str, k)) for k in window.indices.tolist()]


def _is_row(fields, d) -> bool:
    """Whether `fields` parse as 2d integer coordinates and a float."""
    try:
        np.array(fields[:2 * d], dtype=np.int64), np.array(fields[2 * d], dtype=float)
    except (ValueError, OverflowError):
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
    if window.d != basis.window.d or window.N > basis.window.N:
        raise ValueError("window must be a centered sub-window of the basis window")
    members = [basis.member(k) for k in window.indices]
    for m in members:
        if grid.R < np.max(np.abs(m.center)) + 1.0:
            raise ValueError("grid extent must reach one unit past every member center")
    samples = basis.sample_matrix(grid)
    if window != basis.window:
        samples = samples[basis.window.positions_of(window)]
    raw = (samples @ samples.T) * grid.weight
    asym = float(np.max(np.abs(raw - raw.T)))
    tails = [_tail_bound(members[0], members[0], grid)]
    if len(members) > 1:
        # tail bound is largest for the outermost centers; check a corner pair too
        tails.append(_tail_bound(members[0], members[-1], grid))
        tails.append(_tail_bound(members[-1], members[-1], grid))
    tail = max(tails)
    scale = float(np.max(np.abs(raw))) or 1.0
    if asym > 100.0 * tail + 1e-13 * scale:
        raise ValueError(
            f"asymmetry residual {asym:.3g} exceeds 100x quadrature tail bound {tail:.3g}")
    sym = 0.5 * (raw + raw.T)
    return DecayMatrix(window, sym, symmetric=True, quadrature_tail=tail)


def sections(basis: BasisSet, radii, grid: Grid) -> list[DecayMatrix]:
    """Nested Gramian sections at increasing radii, consistent entrywise.

    The full matrix is assembled once at the largest radius and the smaller
    sections are its central blocks, so Cauchy interlacing holds exactly.
    """
    radii = sorted(int(r) for r in radii)
    if len(radii) != len(set(radii)):
        raise ValueError("section radii must be strictly increasing")
    full = assemble(basis, LatticeWindow(basis.window.d, radii[-1]), grid)
    out = [full.central_block(r) for r in radii[:-1]]
    out.append(full)
    return out


def apply_derivation(L: DecayMatrix, h: int, u: int) -> DecayMatrix:
    """Entrywise map l_{k,j} -> (k_h - j_h)^u l_{k,j}; u = 0 is the identity."""
    if u < 0 or int(u) != u:
        raise ValueError(f"derivation power must be a nonnegative integer, got {u}")
    if u == 0:
        return DecayMatrix(L.window, L.entries.copy(), symmetric=L.symmetric,
                           quadrature_tail=L.quadrature_tail)
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


def riesz_bounds(sections_list, rtol: float = 1e-6) -> RieszBounds:
    """Eigenvalue extremes per section; estimates taken at the largest radius."""
    if not sections_list:
        raise ValueError("need at least one section")
    radii, lo, hi = [], [], []
    for sec in sections_list:
        if not sec.symmetric:
            raise ValueError("sections must be Hermitian")
        eig = np.linalg.eigvalsh(sec.entries)
        lam_min, lam_max = float(eig[0]), float(eig[-1])
        if lam_min <= 0.0:
            raise NotRieszError(
                f"lambda_min = {lam_min:.3g} at radius {sec.window.N}: "
                "not a Riesz sequence at this resolution")
        radii.append(sec.window.N)
        lo.append(lam_min)
        hi.append(lam_max)
    if sorted(radii) != radii or len(set(radii)) != len(radii):
        raise ValueError("sections must come at strictly increasing radii")
    converged = False
    if len(radii) >= 2:
        converged = (abs(lo[-1] - lo[-2]) <= rtol * abs(lo[-1])
                     and abs(hi[-1] - hi[-2]) <= rtol * abs(hi[-1]))
    return RieszBounds(A_est=lo[-1], B_est=hi[-1], radii=tuple(radii),
                       lambda_min=tuple(lo), lambda_max=tuple(hi), converged=converged)


def offdiag_fit(L: DecayMatrix, u: float) -> tuple[float, float]:
    """(K, exponent): the least K with |l_{k,j}| <= K (1+|k-j|)^(-u), and the
    shell-regression decay exponent, inf for a banded matrix."""
    profile = radial_profile(L.entries, [L.node_diffs(h) for h in range(1, L.window.d + 1)])
    return envelope_constant(*profile, u), decay_exponent(*profile, bin_width=1.0)
