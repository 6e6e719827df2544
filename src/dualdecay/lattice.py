"""Lattice windows, sampling grids, and localized generator families.

The integer lattice is always Z^d with the max-norm |x| = max_i |x_i|.
A window is the finite cube {k : |k| <= N}, enumerated lexicographically,
and a basis set places one localized generator at every (possibly
perturbed) window node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_PERTURBATION = 0.5  # keeps every node inside its own unit cell
# _bspline_1d's alternating sum loses accuracy with the order: its partition
# of unity is off by 2.5e-12 at order 10 and by 5.7e-7 at order 20 (1/64 grid)
MAX_BSPLINE_ORDER = 10
SAMPLE_CAP = 8e7        # entries of one family's window x grid sample matrix
# a grid within the cap has |x - c|^2 < 1e16, so squares / (2 sigma^2) stays
# finite down to this width and the gaussian's samples are never NaN
MIN_GAUSSIAN_SIGMA = 1e-100


def max_norm(x: np.ndarray) -> np.ndarray:
    """Coordinate-max norm along the last axis."""
    return axes_max_norm(np.moveaxis(np.asarray(x), -1, 0))


def axes_max_norm(ys) -> np.ndarray:
    """max_i |y_i| of a sequence of broadcastable per-axis coordinate arrays,
    elementwise; exact, so equal to max_norm of the stacked coordinates."""
    return reduce(np.maximum, [np.abs(y) for y in ys])


@dataclass(frozen=True)
class LatticeWindow:
    """Finite cube {k in Z^d : |k|_inf <= N} in fixed lexicographic order."""

    d: int
    N: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.N < 0:
            raise ValueError(f"window radius must be >= 0, got {self.N}")

    @property
    def size(self) -> int:
        return (2 * self.N + 1) ** self.d

    @cached_property
    def indices(self) -> np.ndarray:
        """All window nodes as an (size, d) int array, lexicographic."""
        axes = [np.arange(-self.N, self.N + 1)] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        out = np.stack(mesh, axis=-1).reshape(-1, self.d)
        out.setflags(write=False)
        return out

    def contains(self, k) -> bool:
        try:
            k = np.atleast_1d(np.asarray(k, dtype=int))
        except OverflowError:  # a coordinate past int64 lies outside every window
            return False
        return k.shape == (self.d,) and bool(np.abs(k).max() <= self.N)

    def index_of(self, k) -> int:
        """Position of node k in the enumeration."""
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if not self.contains(k):
            raise IndexError(f"node {tuple(k)} outside window N={self.N}, d={self.d}")
        return int(self.positions(k))

    def positions_of(self, sub: "LatticeWindow") -> np.ndarray:
        """Enumeration positions of a centered sub-window's nodes."""
        if sub.d != self.d or sub.N > self.N:
            raise ValueError("sub-window must have same dimension and radius <= N")
        return self.positions(sub.indices)

    def positions(self, nodes: np.ndarray) -> np.ndarray:
        """Enumeration positions of window nodes given as a (..., d) array."""
        return (nodes + self.N) @ self._strides

    @cached_property
    def _strides(self) -> np.ndarray:
        """Position weights of the shifted coordinates k + N, last axis fastest."""
        return (2 * self.N + 1) ** np.arange(self.d - 1, -1, -1)


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid {h*m : m in Z^d, |h*m| <= R}.

    Grid points double as composite-midpoint quadrature nodes for the
    cells of side h centered at them; the quadrature weight is h^d.
    """

    h: float
    R: float
    d: int

    def __post_init__(self):
        if not 0 < self.h <= 0.25:
            raise ValueError(f"grid spacing must be in (0, 1/4], got {self.h}")
        if not 0 < self.R / self.h < math.inf:  # also rejects R = nan
            raise ValueError(f"grid extent must be positive with R/h finite, got {self.R}")

    @property
    def steps(self) -> int:
        """Largest m with m*h <= R."""
        return int(math.floor(self.R / self.h + 1e-9))

    @property
    def weight(self) -> float:
        return self.h**self.d

    @cached_property
    def axis(self) -> np.ndarray:
        M = self.steps
        out = np.arange(-M, M + 1, dtype=float) * self.h
        out.setflags(write=False)
        return out

    def offsets(self, center) -> list:
        """The d per-axis offsets axis - c_i from `center`, axis i shaped along
        dimension i, so that they broadcast as an open mesh over the grid.

        An elementwise function of all d of them has the shape (len(axis),)*d
        and, raveled, runs over the grid points h*m lexicographically in m:
        it sees each point minus `center` without the (n_points, d) array of
        points being built.
        """
        c = np.asarray(center, dtype=float).reshape(self.d)
        return [(self.axis - c[i]).reshape((-1,) + (1,) * (self.d - 1 - i))
                for i in range(self.d)]

    @property
    def n_points(self) -> int:
        return (2 * self.steps + 1) ** self.d

    def embed(self, values: np.ndarray, sub: "Grid") -> np.ndarray:
        """Samples on the centred sub-grid `sub`, zero-padded to a new array
        over this grid, in the order of this grid's points."""
        if sub.h != self.h or sub.d != self.d or sub.steps > self.steps:
            raise ValueError("sub must be a centred sub-grid with the same spacing")
        width, lo = 2 * sub.steps + 1, self.steps - sub.steps
        out = np.zeros(self.n_points)
        box = out.reshape((2 * self.steps + 1,) * self.d)
        box[(slice(lo, lo + width),) * self.d] = np.reshape(values, (width,) * self.d)
        return out


def _flat_abs(values, radii) -> tuple[np.ndarray, np.ndarray]:
    """(|values|, radii) as flat float arrays of one shape."""
    values = np.abs(np.asarray(values, dtype=float)).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    if values.shape != radii.shape:
        raise ValueError("values and radii must have matching shapes")
    return values, radii


def envelope_constant(values: np.ndarray, radii: np.ndarray, u: float) -> float:
    """The least c with |values| <= c (1+radii)^(-u) over all samples: 0 for
    none, and inf where a nonzero sample's weight (1+r)^u overflows."""
    values, radii = _flat_abs(values, radii)
    nonzero = values != 0  # an exact zero needs no c, whatever its weight
    with np.errstate(over="ignore"):
        weights = np.power(1.0 + radii[nonzero], u)
    return float(np.max(values[nonzero] * weights, initial=0.0))


def decay_exponent(values: np.ndarray, radii: np.ndarray, bin_width: float = 0.5) -> float:
    """Decay rate of |values| against radii >= 0: minus the slope of
    log(bin max) on log(1+r), taken at the first sample of each radius bin
    that attains the bin's maximum; inf (super-polynomial) when fewer than
    three bins have a positive maximum."""
    values, radii = _flat_abs(values, radii)
    # a zero sample heads no bin with a positive maximum: drop the zeros,
    # keeping the order of the others
    nonzero = values != 0
    values, radii = values[nonzero], radii[nonzero]
    if not values.size:
        return math.inf
    nbins = int(math.floor(radii.max() / bin_width)) + 1
    which = np.minimum((radii / bin_width).astype(int), nbins - 1)
    bin_max = np.full(nbins, -np.inf)
    np.maximum.at(bin_max, which, values)
    # the first sample at its bin's maximum; values.size for an empty bin
    hits = np.flatnonzero(values == bin_max[which])
    first = np.full(nbins, values.size)
    np.minimum.at(first, which[hits], hits)
    heads = first[bin_max > 0.0]
    xs = [math.log(1.0 + r) for r in radii[heads].tolist()]
    ys = [math.log(v) for v in values[heads].tolist()]
    if len(xs) < 3:
        return math.inf
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

FAMILIES = ("polynomial-bump", "gaussian", "bspline-indicator", "bspline-order-m")


def _bspline_1d(x: np.ndarray, m: int) -> np.ndarray:
    """Cardinal B-spline of order m (support [0, m]); order 1 is 1_[0,1)."""
    x = np.asarray(x, dtype=float)
    if m == 1:
        return ((x >= 0.0) & (x < 1.0)).astype(float)
    acc = np.zeros_like(x)
    for i in range(m + 1):
        acc += ((-1) ** i) * math.comb(m, i) * np.clip(x - i, 0.0, None) ** (m - 1)
    acc /= math.factorial(m - 1)
    return np.where((x >= 0.0) & (x < m), acc, 0.0)


def _normalize_perturbations(perturbations, d: int):
    """Canonicalize a node -> shift map as a sorted tuple of int/float tuples."""
    if not perturbations:
        return ()
    items = []
    for node, delta in dict(perturbations).items():
        node = tuple(int(c) for c in np.atleast_1d(node))
        delta = tuple(float(c) for c in np.atleast_1d(delta))
        if len(node) != d or len(delta) != d:
            raise ValueError(f"perturbation {node}:{delta} has wrong dimension (d={d})")
        if not all(abs(c) <= MAX_PERTURBATION for c in delta):  # also rejects nan
            raise ValueError(
                f"perturbation {delta} at node {node} exceeds max magnitude {MAX_PERTURBATION}")
        items.append((node, delta))
    items.sort()
    return tuple(items)


@dataclass(frozen=True)
class GeneratorSpec:
    """A family of localized generators around (perturbed) lattice nodes.

    claimed_C and claimed_s declare the envelope |f_k(x)| <= C (1+|x-k|)^(-s)
    that every translate is supposed to satisfy; a validation pass measures it.
    """

    family: str
    d: int
    claimed_C: float
    claimed_s: float
    params: dict = field(default_factory=dict)
    perturbations: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        # C >= 1 is a hypothesis of the bound, checked by validate_hypotheses
        for key in ("claimed_C", "claimed_s"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        object.__setattr__(self, "perturbations",
                           _normalize_perturbations(self.perturbations, self.d))
        p = dict(self.params)
        if self.family == "polynomial-bump":
            if not 0.0 < p.get("s", 0.0) < math.inf:
                raise ValueError("polynomial-bump needs a finite exponent parameter s > 0")
        elif self.family == "gaussian":
            sig = p.get("sigma", 0.0)
            if not MIN_GAUSSIAN_SIGMA <= sig < math.inf:
                raise ValueError(f"gaussian needs a finite width parameter sigma >= "
                                 f"{MIN_GAUSSIAN_SIGMA:g}, got {sig}")
            try:  # the diagonal of the closed-form Gramian, see inner_products
                diagonal = (sig * math.sqrt(math.pi)) ** self.d
            except OverflowError:
                diagonal = math.inf
            if diagonal == math.inf:
                raise ValueError(f"gaussian width sigma = {sig:g} puts the Gramian diagonal "
                                 f"(sigma sqrt(pi))^{self.d} past the float range")
        elif self.family == "bspline-order-m":
            order = p.get("order")
            if order is None or not 1 <= order <= MAX_BSPLINE_ORDER or int(order) != order:
                raise ValueError(f"bspline-order-m needs an integer order in "
                                 f"[1, {MAX_BSPLINE_ORDER}], got {order}")
            p["order"] = int(order)
        object.__setattr__(self, "params", p)

    @property
    def generator(self) -> Callable:
        """The un-translated generator, evaluated elementwise on a sequence
        (y_1, ..., y_d) of broadcastable per-axis coordinate arrays."""
        if self.family == "polynomial-bump":
            s = float(self.params["s"])
            return lambda ys: np.power(1.0 + axes_max_norm(ys), -s)
        if self.family == "gaussian":
            sig = float(self.params["sigma"])

            def gaussian(ys):
                squares = ys[0] * ys[0]
                for y in ys[1:]:
                    squares = squares + y * y
                return np.exp(-squares / (2.0 * sig * sig))

            return gaussian
        if self.family == "bspline-indicator":
            order = 1
        else:
            order = int(self.params["order"])

        def spline(ys):
            out = 1.0
            for y in ys:
                out = out * _bspline_1d(y, order)
            return out

        return spline

    @property
    def inner_products(self) -> Callable | None:
        """The exact inner products <phi(. - a), phi(. - b)> of the generator's
        translates, as a function of an (n, d) array of centres giving the
        (n, n) matrix; None for a family with no closed form.

        The gaussian's is (sigma sqrt(pi))^d exp(-|a - b|^2 / 4 sigma^2) in
        any d.  The squared distance is summed axis by axis from diff * diff,
        and a - b is exactly -(b - a), so the matrix is exactly symmetric.
        """
        if self.family != "gaussian":
            return None
        sig = float(self.params["sigma"])
        diagonal = (sig * math.sqrt(math.pi)) ** self.d  # finite, see __post_init__

        def gaussian(centers):
            squares = 0.0
            for c in np.asarray(centers, dtype=float).T:
                diff = c[:, None] - c[None, :]
                squares = squares + diff * diff
            return diagonal * np.exp(-squares / (4.0 * sig * sig))

        return gaussian

    @property
    def support_radius(self) -> float | None:
        """Max-norm radius around the node containing the support, or None."""
        if self.family in ("bspline-indicator", "bspline-order-m"):
            order = 1 if self.family == "bspline-indicator" else int(self.params["order"])
            shift = max((max(abs(c) for c in delta) for _, delta in self.perturbations),
                        default=0.0)
            return order + shift
        return None


class BasisSet:
    """The generator of `spec` at every node of a lattice window:
    f_k = phi(. - c_k), with c_k = k + delta_k the row of k in the
    read-only (window.size, d) array `centers`."""

    def __init__(self, spec: GeneratorSpec, window: LatticeWindow):
        if spec.d != window.d:
            raise ValueError(f"spec dimension {spec.d} != window dimension {window.d}")
        self.spec = spec
        self.window = window
        centers = window.indices.astype(float)
        for node, delta in spec.perturbations:
            if not window.contains(node):
                raise ValueError(f"perturbed node {node} lies outside the window")
            centers[window.index_of(node)] += delta
        centers.setflags(write=False)
        self.centers = centers
        self._sampled = None  # (grid, read-only samples), see sample_matrix

    def sample(self, k, grid: Grid) -> np.ndarray:
        """f_k at every grid point, shape (n_points,), evaluated axis by axis
        on grid.offsets around c_k = k + delta_k."""
        center = self.centers[self.window.index_of(k)]
        return self.spec.generator(grid.offsets(center)).reshape(-1)

    def sample_all(self, grid: Grid) -> np.ndarray:
        """Every f_k at all grid points, shape (window.size, n_points).

        When h is a power of two, i*h - k is exact for every integer node k,
        so the row of an unperturbed node is a slice of phi evaluated once
        on the grid widened by N along every axis: the same floats as
        phi(grid.offsets(k)).  Perturbed rows, and every row on any other
        grid, are evaluated node by node.  So is every row on a grid less
        than one unit wide, where the wide grid would hold more points than
        the sample matrix that check_sample_cap bounds.
        """
        check_sample_cap(self.window, grid)
        generator = self.spec.generator
        out = np.empty((self.window.size, grid.n_points))
        rows = range(self.window.size)
        d, step = grid.d, round(1.0 / grid.h)
        if math.frexp(grid.h)[0] == 0.5 and step <= 2 * grid.steps + 1:
            wide = Grid(grid.h, (grid.steps + self.window.N * step) * grid.h, d)
            values = generator(wide.offsets(np.zeros(d)))
            # the window starting at wide index (N - k) * step holds f_k;
            # reversed, the starts run over k in window order
            view = sliding_window_view(values, (2 * grid.steps + 1,) * d)
            view = view[(slice(None, None, -step),) * d]
            # assigned through a reshape of `out`: a reshape of the strided
            # view would copy it whole first
            out.reshape(view.shape)[...] = view
            rows = [self.window.index_of(node) for node, _ in self.spec.perturbations]
        for row in rows:
            out[row] = generator(grid.offsets(self.centers[row])).reshape(-1)
        return out

    def support_grid(self, grid: Grid) -> Grid:
        """The centred sub-grid of `grid` outside which every f_k is
        exactly 0: the points with |x|_inf <= N + support radius, or `grid`
        itself for a family without compact support or one whose supports
        reach the grid's edge.

        Both grids build their axes as arange(-m, m+1) * h, so a sample on
        this grid is the same float as at that point of `grid`.
        """
        rho = self.spec.support_radius
        if rho is None or self.window.N + rho >= grid.R:
            return grid
        return Grid(grid.h, self.window.N + rho, grid.d)

    def sample_matrix(self, grid: Grid) -> np.ndarray:
        """sample_all(support_grid(grid)), built once per grid and shared
        read-only.

        Assembly and dual synthesis both read this one matrix, so a family
        is sampled once however many duals it has, and none of them reads
        the grid points where every f_k is 0.
        """
        if self._sampled is None or self._sampled[0] != grid:
            samples = self.sample_all(self.support_grid(grid))
            samples.setflags(write=False)
            self._sampled = (grid, samples)
        return self._sampled[1]


def check_sample_cap(window: LatticeWindow, grid: Grid) -> None:
    """Raise MemoryError if the window x grid sample matrix is over SAMPLE_CAP."""
    total = window.size * grid.n_points
    if total > SAMPLE_CAP:
        # Decimal formats an int past the float range too; imported only here,
        # since the import costs every run memory
        from decimal import Decimal
        raise MemoryError(f"sample matrix would hold {Decimal(total):.2g} entries, over "
                          "the 8e7 cap; shrink the window or coarsen the grid")


def measure_decay(values: np.ndarray, k, grid: Grid,
                  support: Grid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(|values|, radii): the samples `values` of a function and their
    max-norm distances to node k, as flat arrays of one shape; every
    envelope constant and decay exponent of the function is fitted to them.

    The samples are on `support` (default: `grid`), a centred sub-grid of
    `grid` outside which the function is 0.  The dropped samples are +0.0,
    so they change no envelope product and no regression bin that has a
    positive maximum, and the kept ones stay in the grid's order: every fit
    equals that of the zero-padded samples.
    The grid must cover at least |x - k| <= 8 so that the envelope is
    probed well beyond the unit cell.
    """
    node = np.asarray(np.atleast_1d(k), dtype=float)
    if grid.R - np.max(np.abs(node)) < 8.0 - 1e-9:
        raise ValueError("grid must cover |x - k| <= 8 around the node")
    return _flat_abs(values, axes_max_norm((support or grid).offsets(node)))
