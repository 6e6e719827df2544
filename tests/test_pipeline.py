import dataclasses
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from dualdecay import artifacts
from dualdecay import constants as cst
from dualdecay import duals as du
from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import ConfigError, EnvelopeClaimError, HypothesisViolation
from dualdecay.lattice import GeneratorSpec

from conftest import (core_nodes, core_positions, d2_indicator_settings, standard_families,
                      suite_settings, verdict)


def test_suite_all_verdicts_pass(d1_suite):
    failed = [v.name for v in d1_suite.verdicts if not v.passed]
    assert not failed, failed


def test_every_family_invariant_reported(d1_suite):
    # the per-family verdicts come in the order README's "Verdicts" lists them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"(?s)verdicts per family, in this order:(.*?)\. Right after",
                       readme)[1]
    per_family = re.findall(r"`([a-z_A-Z]+)`", listed)
    optional = ("perturbation_penalty", "inverse_decay_exponent")
    names = [v.name for v in d1_suite.verdicts]
    for fam in d1_suite.families:
        suffixes = [n.split(".", 1)[1] for n in names if n.startswith(f"{fam.name}.")]
        assert [x for x in suffixes if x not in optional] == per_family, fam.name
        extra = [x for x in suffixes if x in optional]
        at = suffixes.index("claimed_C") + 1
        assert suffixes[at:at + len(extra)] == extra, fam.name
    assert "gauss-pert.perturbation_penalty" in names
    assert "bump.inverse_decay_exponent" in names
    assert "convolution_u_stability.d1" in names
    assert len(set(names)) == len(names) == 8 * 5 + 3


def test_readme_lists_every_tolerance():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"(?s)\[tolerances\](.*?)\(all optional", readme)[1]
    assert re.findall(r"[a-z_]+", listed) == list(pl.DEFAULT_TOLERANCES)


def test_report_dict_numbers_trace_to_results(d1_suite):
    report = artifacts.report_dict(d1_suite)
    for fam in d1_suite.families:
        entry = report["families"][fam.name]
        assert entry["A_est"] == fam.A_est
        assert entry["D_emp"] == fam.D_emp
        assert entry["core_radius"] == fam.core_radius
        assert entry["gramian_tail_bound"] == fam.gramian.quadrature_tail
        # no mass is dropped from a closed form, nor where the grid box holds
        # every compact member; it is from every other family
        exact = fam.spec.inner_products is not None or fam.spec.support_radius is not None
        assert (entry["gramian_tail_bound"] == 0.0) == exact
        assert entry["biorthogonality_residual"] == \
            du.biorthogonality_residual(fam.coeffs.entries, fam.gramian.entries)
        for key, check in (("biorthogonality_residual", "biorthogonality"),
                           ("gram_duals_residual", "gram_duals"),
                           ("dual_norm_max", "dual_norm_bound"),
                           ("lambda_max_core_coeffs", "inverse_norm_bound")):
            assert entry[key] == verdict(d1_suite, f"{fam.name}.{check}").value, key
    assert report["calibration"]["E_emp"] == d1_suite.E_cal.E_emp
    assert "timings" in report
    assert len(report["invariants"]) == len(d1_suite.verdicts)


def test_family_results_sane(d1_suite):
    for fam in d1_suite.families:
        assert 0 < fam.A_est <= fam.B_est
        assert fam.core_radius >= 1
        assert fam.C_meas <= fam.spec.claimed_C * (1 + 1e-12)
        assert du.biorthogonality_residual(fam.coeffs.entries, fam.gramian.entries) < 1e-12
        assert np.isfinite(fam.D_emp) and fam.D_emp > 0
        # the transfer constant is the suite maximum of (D_emp / (alpha_t C))^(1/t)
        bound = d1_suite.c_transfer ** d1_suite.settings.t * fam.alpha_t * fam.C_meas
        assert fam.D_emp <= bound * (1 + 1e-12), fam.name


def test_settings_validation():
    fams = standard_families()
    with pytest.raises(ConfigError, match="strictly increasing"):
        pl.RunSettings(name="x", d=1, radii=(8, 4), grid_h=1 / 64, grid_R=24,
                       t=2, families=fams)
    with pytest.raises(ConfigError, match="8 units past"):
        pl.RunSettings(name="x", d=1, radii=(4, 16), grid_h=1 / 64, grid_R=20,
                       t=2, families=fams)
    with pytest.raises(ConfigError, match="at least one family"):
        pl.RunSettings(name="x", d=1, radii=(4, 8), grid_h=1 / 64, grid_R=16,
                       t=2, families=[])
    with pytest.raises(HypothesisViolation, match="s > d\\+t"):
        bad = [pl.FamilySettings("thin", GeneratorSpec(
            "polynomial-bump", 1, 1.0, 3.0, params={"s": 3.0}))]
        pl.RunSettings(name="x", d=1, radii=(4, 8), grid_h=1 / 64, grid_R=16,
                       t=2, families=bad)


def test_hypotheses_checked_before_heavy_compute():
    # an enormous window would take minutes; the guard must fire first
    bad = [pl.FamilySettings("thin", GeneratorSpec(
        "polynomial-bump", 1, 1.0, 3.0, params={"s": 3.0}))]
    with pytest.raises(HypothesisViolation):
        pl.RunSettings(name="x", d=1, radii=(512, 1024), grid_h=1 / 64,
                       grid_R=1040, t=2, families=bad)


def test_suite_timings_recorded(d1_suite):
    assert d1_suite.timings["total"] > 0
    assert d1_suite.timings["families"] > 0
    for fam in d1_suite.families:
        assert fam.elapsed > 0


@pytest.fixture()
def sample_builds(monkeypatch):
    """A weak reference to the result of every sample_all call."""
    built = []
    real = lat.BasisSet.sample_all

    def counting(self, grid):
        out = real(self, grid)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(lat.BasisSet, "sample_all", counting)
    return built


def _big_arrays(obj, entries: int) -> list:
    """Fields of a dataclass holding an array of at least `entries` entries."""
    found = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        items = value.values() if isinstance(value, dict) else \
            value if isinstance(value, (list, tuple)) else (value,)
        found += [f.name for x in items if isinstance(x, np.ndarray) and x.size >= entries]
    return found


def _claim_settings(claimed_C: float, perturbations=()) -> pl.RunSettings:
    spec = GeneratorSpec("gaussian", 1, claimed_C, 5.0, params={"sigma": 0.5},
                         perturbations=perturbations)
    return pl.RunSettings(name="claim", d=1, radii=(1, 2), grid_h=1 / 64, grid_R=10.0, t=2,
                          families=[pl.FamilySettings("gauss", spec)])


def test_measure_basis_checks_the_claimed_envelope():
    good = _claim_settings(6.0)
    _, rows, k0 = pl.measure_basis(good.families[0], good)
    assert [node for node, _, _ in rows] == [(0,)] and rows[0][1] <= 6.0
    assert k0.shape == (good.grid().n_points,)
    bad = _claim_settings(1.0)
    with pytest.raises(ValueError, match="exceeds claimed"):
        pl.measure_basis(bad.families[0], bad)
    # each perturbed node is checked too: the member shifted at node 2 is
    # over a claim that the origin meets
    shifted = _claim_settings(6.0, {(2,): (0.5,)})
    with pytest.raises(EnvelopeClaimError, match=r"at node \(2,\) exceeds claimed 6$"):
        pl.measure_basis(shifted.families[0], shifted)
    loose = _claim_settings(46.0, {(2,): (0.5,), (-1,): (0.25,)})
    _, rows, _ = pl.measure_basis(loose.families[0], loose)
    assert [node for node, _, _ in rows] == [(0,), (-1,), (2,)]


def test_perturbation_penalty_base_matches_the_bare_basis(d1_suite):
    """C_base of a family perturbed at its origin is the measurement of the
    unperturbed member on a window of radius 0, as computed before."""
    settings = d2_indicator_settings()
    cases = [(d1_suite.settings, d1_suite.families[-1]),
             (settings, pl.run_family(settings.families[1], settings))]
    for settings, result in cases:
        assert dict(result.spec.perturbations).get((0,) * settings.d), result.name
        grid, origin = settings.grid(), (0,) * settings.d
        bare = lat.BasisSet(dataclasses.replace(result.spec, perturbations=()),
                              lat.LatticeWindow(settings.d, 0))
        oracle = lat.envelope_constant(
            *lat.measure_decay(bare.sample(origin, grid), origin, grid), result.spec.claimed_s)
        assert result.C_base == oracle, result.name
        assert result.C_base != result.C_meas, result.name


def _compact_spec(d: int, kind: str) -> GeneratorSpec:
    if kind == "hat":
        return GeneratorSpec("bspline-order-m", d, 1e4, 3.0 + 2 * d, params={"order": 2})
    shifts = {} if kind == "indicator" else \
        {(0,) * d: (0.25,) + (-0.25,) * (d - 1), (1,) + (0,) * (d - 1): (-0.125,) * d}
    return GeneratorSpec("bspline-indicator", d, 1e4, 3.0 + 2 * d, perturbations=shifts)


@pytest.mark.parametrize("kind", ["indicator", "hat", "perturbed-indicator"])
@pytest.mark.parametrize("d", [1, 2])
def test_basis_measured_on_support_grid_matches_full_grid(d, kind):
    """The basis rows, the origin's samples and C_base of a compact family,
    measured on its support grid, are those measured on the whole grid."""
    spec = _compact_spec(d, kind)
    settings = pl.RunSettings(name="compact", d=d, radii=(2, 4), grid_h=1 / 8, grid_R=12.0,
                              t=1 + d, families=[pl.FamilySettings(kind, spec)],
                              tolerances={"inversion": 1e-2})
    grid, origin = settings.grid(), (0,) * d
    basis = lat.BasisSet(spec, lat.LatticeWindow(d, 4))
    assert basis.support_grid(grid).n_points < grid.n_points
    result = pl.run_family(settings.families[0], settings)

    def row(values, node):
        samples = lat.measure_decay(values, node, grid)
        return node, lat.envelope_constant(*samples, spec.claimed_s), lat.decay_exponent(*samples)

    nodes = dict.fromkeys([origin] + [node for node, _ in spec.perturbations])
    assert result.basis_rows == [row(basis.sample(node, grid), node) for node in nodes]
    assert result.basis_k0.tobytes() == basis.sample(origin, grid).tobytes()
    bare = row(spec.generator(grid.offsets(origin)).reshape(-1), origin)[1]
    assert result.C_base == (bare if spec.perturbations else result.C_meas)


def test_run_family_samples_each_basis_once(sample_builds):
    settings = suite_settings(16, (4, 8, 12, 16))
    grid = settings.grid()
    window_by_grid = (2 * settings.radii[-1] + 1) * grid.n_points
    for fam in settings.families:
        sample_builds.clear()
        result = pl.run_family(fam, settings)
        assert len(sample_builds) == 1, fam.name
        assert all(ref() is None for ref in sample_builds), "matrix outlived the family"
        assert _big_arrays(result, window_by_grid) == []
        assert _big_arrays(result.coeffs, window_by_grid) == []
        assert du.biorthogonality_residual(result.coeffs.entries,
                                           result.gramian.entries) < 1e-12


def test_exported_duals_own_their_samples():
    # a view would pin the whole core block of the family
    settings = d2_indicator_settings()
    result = pl.run_family(settings.families[0], settings)
    assert list(result.duals) == [(0, 0)]
    assert result.duals[(0, 0)].base is None


def test_run_family_reuses_the_checked_W(monkeypatch):
    # RunSettings sums each family's W_(s-t) to check w_tol; the run keeps that sum
    settings = d2_indicator_settings()
    fam, real = settings.families[0], cst.w_sum
    monkeypatch.setattr(cst, "w_sum", lambda *args: pytest.fail("W_(s-t) summed again"))
    result = pl.run_family(fam, settings)
    u = fam.spec.claimed_s - settings.t
    assert result.W_value == real(u, settings.d, settings.tolerances["w_tol"]).value


def test_run_family_fits_no_regression_per_core_dual(monkeypatch):
    calls = []
    real = lat.decay_exponent

    def counting(values, radii, bin_width=0.5):
        calls.append(bin_width)
        return real(values, radii, bin_width=bin_width)

    monkeypatch.setattr(du, "decay_exponent", counting)
    monkeypatch.setattr(lat, "decay_exponent", counting)
    settings = suite_settings(16, (4, 8, 12, 16))
    for fam in settings.families:
        calls.clear()
        result = pl.run_family(fam, settings)
        # one regression per basis row, plus the coefficient decay fit
        assert len(calls) == len(result.basis_rows) + 1, fam.name
        us = list(dict.fromkeys((float(settings.t), fam.spec.claimed_s)))
        assert [row[:2] for row in result.envelope_rows] == \
            [(node, u) for node in core_nodes(settings.d, result.core_radius) for u in us]


def _oracle_settings(spec: GeneratorSpec, h: float, t: int, **extra) -> pl.RunSettings:
    # every core dual is exported: the export radius is the window's
    return pl.RunSettings(name="oracle", d=spec.d, radii=(2, 4), grid_h=h, grid_R=12.0, t=t,
                          families=[pl.FamilySettings("oracle", spec)],
                          dual_export_radius=4, **extra)


def _hat(perturbations=()) -> GeneratorSpec:
    return GeneratorSpec("bspline-order-m", 1, 150.0, 5.0, params={"order": 2},
                         perturbations=perturbations)


# (settings, whether every sample and grid weight is dyadic): indicator values
# are 0 or 1 at h = 1/8, so the Gramian is exact on any grid; at h = 0.1 the
# hat's are not, and a shorter contraction may regroup the Gramian's sums.
# The hat's inverse converges slowly, so its sections are compared at a
# looser inversion tolerance.
ORACLE_CASES = {
    "d2-indicator-shifted": (_oracle_settings(
        GeneratorSpec("bspline-indicator", 2, 245.0, 6.0,
                      perturbations={(0, 0): (0.125, -0.375), (1, 0): (-0.25, 0.0),
                                     (-4, 4): (-0.125, 0.25)}),
        0.125, 3), True),
    "d1-hat": (_oracle_settings(_hat(), 0.1, 2, tolerances={"inversion": 1e-2}), False),
    "d1-hat-perturbed": (_oracle_settings(_hat({(0,): (0.3,), (4,): (0.45,)}), 0.1, 2,
                                          tolerances={"inversion": 1e-2}), False),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_support_grid_run_matches_full_grid_oracle(case):
    settings, dyadic = ORACLE_CASES[case]
    fam, grid = settings.families[0], settings.grid()
    t, s = float(settings.t), fam.spec.claimed_s
    result = pl.run_family(fam, settings)
    basis = lat.BasisSet(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
    assert basis.support_grid(grid).n_points < grid.n_points

    def same(found, dense):
        found, dense = np.asarray(found, dtype=float), np.asarray(dense, dtype=float)
        if dyadic:
            assert found.tobytes() == dense.tobytes()
        else:
            scale = np.max(np.abs(dense[np.isfinite(dense)]))
            np.testing.assert_allclose(found, dense, rtol=1e-15, atol=1e-15 * scale)

    # the dense computation: every member on the whole grid, every fit over all samples
    F = basis.sample_all(grid)
    raw = (F @ F.T) * grid.weight
    same(result.gramian.entries, 0.5 * (raw + raw.T))
    C = result.coeffs
    nodes = core_nodes(settings.d, result.core_radius)
    G = C.entries[core_positions(C, result.core_radius)] @ F
    same(np.stack([result.duals[node] for node in nodes]), G)

    def constant(samples, node, u):
        return lat.envelope_constant(samples, lat.axes_max_norm(grid.offsets(node)), u)

    us = dict.fromkeys((t, s))
    assert [row[:2] for row in result.envelope_rows] == \
        [(node, u) for node in nodes for u in us]
    same([row[2] for row in result.envelope_rows],
         [constant(g, node, u) for node, g in zip(nodes, G) for u in us])

    def member(node):
        samples = basis.sample(node, grid)
        radii = lat.axes_max_norm(grid.offsets(node))
        return lat.envelope_constant(samples, radii, s), lat.decay_exponent(samples, radii)

    same([row[1:] for row in result.basis_rows],
         [member(node) for node, _, _ in result.basis_rows])


def test_d2_indicator_suite_end_to_end(sample_builds):
    suite = pl.run_suite(d2_indicator_settings())
    assert len(sample_builds) == 3
    for fam in suite.families:
        assert fam.core_radius == 1
        for inv in ("biorthogonality", "dual_norm_bound", "interlacing"):
            assert verdict(suite, f"{fam.name}.{inv}").passed, (fam.name, inv)
