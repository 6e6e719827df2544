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

from .errors import EnvelopeClaimError

MAX_PERTURBATION = 0.5  # keeps every node inside its own unit cell
SAMPLE_CAP = 8e7        # entries of one family's window x grid sample matrix


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
        k = np.atleast_1d(np.asarray(k, dtype=int))
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

    @cached_property
    def points(self) -> np.ndarray:
        """(n_points, d) array of grid points, lexicographic in m."""
        mesh = np.meshgrid(*[self.axis] * self.d, indexing="ij")
        out = np.stack(mesh, axis=-1).reshape(-1, self.d)
        out.setflags(write=False)
        return out

    def offsets(self, center) -> list:
        """The d per-axis offsets axis - c_i from `center`, axis i shaped along
        dimension i, so that they broadcast as an open mesh over the grid.

        An elementwise function of all d of them has the shape (len(axis),)*d
        and, raveled, follows grid.points: it sees the values of
        grid.points - center without that array being built.
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
    """The least c with |values| <= c (1+radii)^(-u) over all samples."""
    values, radii = _flat_abs(values, radii)
    return float(np.max(values * np.power(1.0 + radii, u)))


def decay_exponent(values: np.ndarray, radii: np.ndarray, bin_width: float = 0.5) -> float:
    """Decay rate of |values| against radii >= 0: minus the slope of
    log(bin max) on log(1+r), taken at the first sample of each radius bin
    that attains the bin's maximum; inf (super-polynomial) when fewer than
    three bins have a positive maximum."""
    values, radii = _flat_abs(values, radii)
    nbins = int(math.floor(radii.max() / bin_width)) + 1
    which = np.minimum((radii / bin_width).astype(int), nbins - 1)
    shell_max = np.full(nbins, -np.inf)
    np.maximum.at(shell_max, which, values)
    hits = np.flatnonzero(values == shell_max[which])
    first = np.full(nbins, values.size)
    np.minimum.at(first, which[hits], hits)
    heads = first[shell_max > 0.0]
    xs = [math.log(1.0 + r) for r in radii[heads].tolist()]
    ys = [math.log(v) for v in values[heads].tolist()]
    if len(xs) < 3:
        return math.inf
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(-slope)


def radial_profile(values: np.ndarray, ys) -> tuple[np.ndarray, np.ndarray]:
    """(maxima, radii): the largest |value| on each distinct max-norm radius,
    for samples at the per-axis offsets `ys`, a sequence of broadcastable
    arrays as axes_max_norm takes them.

    Shells are the exact distinct radii, and they come in the order of the
    first sample that attains each shell's maximum. So envelope_constant and
    decay_exponent of the profile equal those of all the samples against
    axes_max_norm(ys): the envelope products are the same floats, and the
    regression keeps the first sample at each bin's maximum. A radius is one
    of its sample's axis distances, so its shell is the largest of their
    indices into the sorted distinct distances; a grid is never searched
    point by point.
    """
    values = np.abs(np.asarray(values, dtype=float)).ravel()
    dists = [np.abs(np.asarray(y, dtype=float)) for y in ys]
    # sorted, not np.unique, which hashes: slower and more memory on a 1-D grid
    ranked = np.sort(np.concatenate([x.ravel() for x in dists]))
    shells = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    which = reduce(np.maximum, [np.searchsorted(shells, x) for x in dists]).ravel()
    if values.shape != which.shape:
        raise ValueError("values and offsets must have matching shapes")
    maxima = np.full(shells.size, -np.inf)
    np.maximum.at(maxima, which, values)
    hits = np.flatnonzero(values == maxima[which])
    first = np.full(shells.size, values.size)
    np.minimum.at(first, which[hits], hits)
    heads = np.sort(first[first < values.size])  # distances that are no radius drop out
    return values[heads], shells[which[heads]]


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
    that every member is supposed to satisfy; a validation pass measures it.
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
            if not 0.0 < p.get("sigma", 0.0) < math.inf:
                raise ValueError("gaussian needs a finite width parameter sigma > 0")
        elif self.family == "bspline-order-m":
            order = p.get("order")
            if order is None or int(order) < 1 or int(order) != order:
                raise ValueError("bspline-order-m needs integer order >= 1")
            p["order"] = int(order)
        object.__setattr__(self, "params", p)

    def perturbation_of(self, k) -> np.ndarray:
        k = tuple(int(c) for c in np.atleast_1d(k))
        for node, delta in self.perturbations:
            if node == k:
                return np.asarray(delta, dtype=float)
        return np.zeros(self.d)

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
    def support_radius(self) -> float | None:
        """Max-norm radius around the node containing the support, or None."""
        if self.family in ("bspline-indicator", "bspline-order-m"):
            order = 1 if self.family == "bspline-indicator" else int(self.params["order"])
            shift = max((max(abs(c) for c in delta) for _, delta in self.perturbations),
                        default=0.0)
            return order + shift
        return None


@dataclass(frozen=True)
class Member:
    """One evaluatable basis function f_k = amplitude * phi(. - k - delta_k)."""

    node: tuple
    center: np.ndarray
    generator: Callable
    amplitude: float
    envelope_C: float
    envelope_s: float
    support_radius: float | None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape[-1] != self.center.shape[0]:
            raise ValueError(f"points must have last axis of size {self.center.shape[0]}")
        return self.amplitude * self.generator(np.moveaxis(x - self.center, -1, 0))

    def sample(self, grid: Grid) -> np.ndarray:
        """f at every grid point, shape (n_points,), evaluated axis by axis on
        grid.offsets; equal to self(grid.points)."""
        return (self.amplitude * self.generator(grid.offsets(self.center))).reshape(-1)


class BasisSet:
    """Indexed family of localized functions over a lattice window."""

    def __init__(self, spec: GeneratorSpec, window: LatticeWindow, amplitude: float = 1.0):
        if spec.d != window.d:
            raise ValueError(f"spec dimension {spec.d} != window dimension {window.d}")
        self.spec = spec
        self.window = window
        self.amplitude = float(amplitude)
        gen = spec.generator
        self._members = {}
        for k in window.indices:
            node = tuple(int(c) for c in k)
            center = np.asarray(k, dtype=float) + spec.perturbation_of(k)
            self._members[node] = Member(
                node=node,
                center=center,
                generator=gen,
                amplitude=self.amplitude,
                envelope_C=abs(self.amplitude) * spec.claimed_C,
                envelope_s=spec.claimed_s,
                support_radius=spec.support_radius,
            )
        self._sampled = None  # (grid, read-only samples), see sample_matrix

    def __len__(self) -> int:
        return self.window.size

    def member(self, k) -> Member:
        node = tuple(int(c) for c in np.atleast_1d(k))
        try:
            return self._members[node]
        except KeyError:
            raise IndexError(f"node {node} outside window N={self.window.N}") from None

    def members(self) -> list:
        return [self._members[tuple(int(c) for c in k)] for k in self.window.indices]

    def evaluate(self, k, x):
        """Value of f_k at point(s) x; scalar in, scalar out."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0 or (x.ndim == 1 and self.window.d > 1)
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1 and self.window.d == 1:
            x = x.reshape(-1, 1)
        out = self.member(k)(x)
        return float(out.reshape(-1)[0]) if scalar else out

    def sample(self, k, grid: Grid) -> np.ndarray:
        """f_k at every grid point, shape (n_points,)."""
        return self.member(k).sample(grid)

    def sample_all(self, grid: Grid) -> np.ndarray:
        """All members at all grid points, shape (window.size, n_points)."""
        check_sample_cap(self.window, grid)
        out = np.empty((self.window.size, grid.n_points))
        for row, k in enumerate(self.window.indices):
            out[row] = self._members[tuple(int(c) for c in k)].sample(grid)
        return out

    def support_grid(self, grid: Grid) -> Grid:
        """The centred sub-grid of `grid` outside which every member is
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
        the grid points where every member is 0.
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


def make_basis(spec: GeneratorSpec, window: LatticeWindow) -> BasisSet:
    """Build one evaluatable function per window node, translated to k + delta_k."""
    for node, _ in spec.perturbations:
        if not window.contains(node):
            raise ValueError(f"perturbed node {node} lies outside the window")
    return BasisSet(spec, window)


def measure_decay(values: np.ndarray, k, grid: Grid,
                  support: Grid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """radial_profile of the samples `values` of a function against the
    max-norm distance to node k; every envelope constant and decay exponent
    of the function is taken from this profile.

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
    return radial_profile(values, (support or grid).offsets(node))


def validate_claimed_envelope(basis: BasisSet, grid: Grid, rtol: float = 1e-12):
    """Measured envelope constants at claimed_s, checked against claimed_C.

    Returns {node: (measured constant, measure_decay profile)} for the origin
    and each perturbed node; raises if any member exceeds its claim.
    """
    spec = basis.spec
    nodes = [(0,) * spec.d] + [node for node, _ in spec.perturbations]
    measured = {}
    for node in dict.fromkeys(nodes):
        profile = measure_decay(basis.sample(node, grid), node, grid)
        constant = envelope_constant(*profile, spec.claimed_s)
        measured[node] = constant, profile
        bound = abs(basis.amplitude) * spec.claimed_C
        if constant > bound * (1.0 + rtol):
            raise EnvelopeClaimError(
                f"measured envelope constant {constant:.6g} at node {node} "
                f"exceeds claimed {bound:.6g}")
    return measured
