import dataclasses

import numpy as np
import pytest

from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay import pipeline as pl

# the run's tolerances of the Riesz-bound convergence and of section inversion
RIESZ_RTOL = pl.TOLERANCES["riesz_rtol"]
INVERSION_TOL = pl.TOLERANCES["inversion"]


def grid_points(grid: lat.Grid) -> np.ndarray:
    """(n_points, d) array of the grid's points, lexicographic in m."""
    mesh = np.meshgrid(*[grid.axis] * grid.d, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, grid.d)


def center(basis: lat.BasisSet, k) -> np.ndarray:
    """c_k = k + delta_k."""
    return basis.centers[basis.window.index_of(k)]


def evaluate(basis: lat.BasisSet, k, x):
    """f_k at point(s) x, point by point on the dense coordinates: the
    oracle of BasisSet.sample and sample_all. A scalar or a single point
    gives a float."""
    d = basis.window.d
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 or (x.ndim == 1 and d > 1)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1 and d == 1:
        x = x.reshape(-1, 1)
    if x.shape[-1] != d:
        raise ValueError(f"points must have last axis of size {d}")
    out = basis.spec.generator(np.moveaxis(x - center(basis, k), -1, 0))
    return float(out.reshape(-1)[0]) if scalar else out


def inner_product(basis: lat.BasisSet, k, j, grid: lat.Grid) -> tuple[float, float]:
    """(<f_k, f_j> by midpoint quadrature, the analytic bound on its mass
    outside the grid): one entry of gramian.assemble, pair by pair."""
    value = float(np.dot(basis.sample(k, grid), basis.sample(j, grid)) * grid.weight)
    return value, gr._tail_bound(basis, center(basis, k), center(basis, j), grid)


def envelope_rows(values, nodes, grid: lat.Grid, support: lat.Grid, us) -> np.ndarray:
    """The oracle of lattice.envelope_constants: row by row, the samples and
    radii of measure_decay and one envelope_constant per exponent."""
    out = np.empty((len(us), len(nodes)))
    for j, (row, k) in enumerate(zip(values, nodes)):
        samples = lat.measure_decay(row, k, grid, support)
        out[:, j] = [lat.envelope_constant(*samples, u) for u in us]
    return out


def entry(matrix: gr.DecayMatrix, k, j) -> float:
    """The entry of a window matrix at nodes (k, j)."""
    return matrix.entries[matrix.window.index_of(k), matrix.window.index_of(j)]


def verdict(suite: pl.SuiteResult, name: str) -> pl.Verdict:
    """The suite's verdict called `name`."""
    return next(v for v in suite.verdicts if v.name == name)


@dataclasses.dataclass(frozen=True)
class ScaledSpec(lat.GeneratorSpec):
    """A spec whose generator is `alpha` times that of the spec it copies,
    and whose closed-form inner products, if any, are alpha^2 times."""

    alpha: float = 1.0

    @property
    def generator(self):
        generator = super().generator
        return lambda ys: self.alpha * generator(ys)

    @property
    def inner_products(self):
        products = super().inner_products
        if products is None:
            return None
        return lambda centers: self.alpha**2 * products(centers)


def scaled_basis(basis: lat.BasisSet, alpha: float) -> lat.BasisSet:
    """The family {alpha * f_k} on the same window, claimed at |alpha| C."""
    fields = {f.name: getattr(basis.spec, f.name) for f in dataclasses.fields(basis.spec)}
    fields["claimed_C"] = abs(alpha) * basis.spec.claimed_C
    return lat.BasisSet(ScaledSpec(**fields, alpha=alpha), basis.window)


def core_nodes(d: int, core_radius: int) -> list:
    """The nodes of the stabilized core {|k| <= core_radius}, as int tuples
    in window order."""
    return [tuple(k) for k in lat.LatticeWindow(d, core_radius).indices.tolist()]


def core_positions(C, core_radius: int) -> np.ndarray:
    """Positions in C.window of the core nodes."""
    return C.window.positions_of(lat.LatticeWindow(C.window.d, core_radius))


def leibniz_check(P, Q, h: int) -> float:
    """max |D_h(PQ) - D_h(P)Q - P D_h(Q)| of two window matrices; exact
    algebra, so machine-zero."""
    if P.window != Q.window:
        raise ValueError("matrices must share a window")
    diffs = P.node_diffs(h)
    prod = P.entries @ Q.entries
    lhs = diffs * prod
    rhs = (diffs * P.entries) @ Q.entries + P.entries @ (diffs * Q.entries)
    return float(np.max(np.abs(lhs - rhs)))


def standard_families():
    return [
        pl.FamilySettings("indicator", lat.GeneratorSpec(
            "bspline-indicator", 1, claimed_C=32.0, claimed_s=5.0)),
        pl.FamilySettings("bump", lat.GeneratorSpec(
            "polynomial-bump", 1, claimed_C=1.0, claimed_s=5.0, params={"s": 5.0})),
        pl.FamilySettings("gauss", lat.GeneratorSpec(
            "gaussian", 1, claimed_C=6.0, claimed_s=5.0, params={"sigma": 0.5})),
        pl.FamilySettings("hat", lat.GeneratorSpec(
            "bspline-order-m", 1, claimed_C=50.0, claimed_s=5.0, params={"order": 2})),
        pl.FamilySettings("gauss-pert", lat.GeneratorSpec(
            "gaussian", 1, claimed_C=46.0, claimed_s=5.0, params={"sigma": 0.5},
            perturbations={(0,): (0.3,)})),
    ]


def suite_settings(N: int, radii) -> pl.RunSettings:
    return pl.RunSettings(
        name=f"suite_N{N}",
        d=1,
        radii=radii,
        grid_h=1.0 / 64,
        grid_R=N + 8,
        t=2,
        families=standard_families(),
        seed=1234,
        bounds_dims=(1,),
    )


def d2_indicator_settings() -> pl.RunSettings:
    def indicator(name, claimed_C, perturbations=()):
        return pl.FamilySettings(name, lat.GeneratorSpec(
            "bspline-indicator", 2, claimed_C, 6.0, perturbations=perturbations))

    # shifts point inward, so every perturbed support stays inside radius 1
    return pl.RunSettings(
        name="d2_tiny", d=2, radii=(1, 2), grid_h=0.25, grid_R=10.0, t=3,
        families=[
            indicator("indicator", 64.0),
            indicator("indicator-p1", 245.0, {(0, 0): (0.25, -0.25), (1, 0): (-0.25, 0.0)}),
            indicator("indicator-p2", 245.0, {(-1, 0): (0.25, 0.25), (0, 1): (0.0, -0.25)}),
        ])


@pytest.fixture(scope="session")
def d1_suite() -> pl.SuiteResult:
    """The five-family d=1 suite at window N=16."""
    return pl.run_suite(suite_settings(16, (4, 8, 12, 16)))


@pytest.fixture(scope="session")
def d1_suite_large() -> pl.SuiteResult:
    """The same suite at doubled window N=32."""
    return pl.run_suite(suite_settings(32, (8, 16, 24, 32)))
