import numpy as np
import pytest

from dualdecay import lattice as lat
from dualdecay import pipeline as pl


def scaled_basis(basis: lat.BasisSet, alpha: float) -> lat.BasisSet:
    """The family {alpha * f_k} on the same window."""
    return lat.BasisSet(basis.spec, basis.window, amplitude=basis.amplitude * alpha)


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
        ],
        convolution_windows={2: 4})


@pytest.fixture(scope="session")
def d1_suite() -> pl.SuiteResult:
    """The five-family d=1 suite at window N=16."""
    return pl.run_suite(suite_settings(16, (4, 8, 12, 16)))


@pytest.fixture(scope="session")
def d1_suite_large() -> pl.SuiteResult:
    """The same suite at doubled window N=32."""
    return pl.run_suite(suite_settings(32, (8, 16, 24, 32)))
