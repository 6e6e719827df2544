import dataclasses
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from dualdecay import artifacts
from dualdecay import duals as du
from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import ConfigError, HypothesisViolation
from dualdecay.lattice import GeneratorSpec

from conftest import d2_indicator_settings, standard_families, suite_settings


def test_suite_all_verdicts_pass(d1_suite):
    failed = [v.name for v in d1_suite.verdicts if not v.passed]
    assert not failed, failed
    assert d1_suite.passed


def test_every_family_invariant_reported(d1_suite):
    names = {v.name for v in d1_suite.verdicts}
    per_family = ("biorthogonality", "dual_norm_bound", "inverse_norm_bound",
                  "interlacing", "claimed_C", "gram_duals", "recursion_bound",
                  "dual_decay_domination")
    for fam in d1_suite.families:
        for inv in per_family:
            assert f"{fam.name}.{inv}" in names, (fam.name, inv)
    assert "gauss-pert.perturbation_penalty" in names
    assert "bump.inverse_decay_exponent" in names
    assert "convolution_u_stability.d1" in names
    assert len(names) == len(d1_suite.verdicts) == 8 * 5 + 3


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
        assert entry["biorthogonality_residual"] == fam.biorth_residual
    assert report["calibration"]["E_emp"] == d1_suite.E_cal.E_emp
    assert "timings" in report
    assert len(report["invariants"]) == len(d1_suite.verdicts)


def test_family_results_sane(d1_suite):
    for fam in d1_suite.families:
        assert 0 < fam.A_est <= fam.B_est
        assert fam.core_radius >= 1
        assert fam.C_meas <= fam.spec.claimed_C * (1 + 1e-12)
        assert fam.biorth_residual < 1e-12
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
    """(amplitude, weak reference to the result) for every sample_all call."""
    built = []
    real = lat.BasisSet.sample_all

    def counting(self, grid):
        out = real(self, grid)
        built.append((self.amplitude, weakref.ref(out)))
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


def test_run_family_samples_each_basis_once(sample_builds):
    settings = suite_settings(16, (4, 8, 12, 16))
    grid = settings.grid()
    window_by_grid = (2 * settings.radii[-1] + 1) * grid.n_points
    for fam in settings.families:
        sample_builds.clear()
        result = pl.run_family(fam, settings)
        assert [amplitude for amplitude, _ in sample_builds] == [1.0], fam.name
        assert all(ref() is None for _, ref in sample_builds), "matrix outlived the family"
        assert _big_arrays(result, window_by_grid) == []
        assert _big_arrays(result.dual_system, window_by_grid) == []
        assert result.biorth_residual < 1e-12


def test_exported_duals_own_their_samples():
    # a view would pin the whole core block of the family
    settings = dataclasses.replace(d2_indicator_settings(), dual_export_radius=0)
    result = pl.run_family(settings.families[0], settings)
    assert list(result.duals) == [(0, 0)]
    assert result.duals[(0, 0)].base is None


def test_dual_regression_fitted_once_per_core_node(monkeypatch):
    calls = []
    real = lat.decay_exponent

    def counting(values, radii, bin_width=0.5):
        calls.append(bin_width)
        return real(values, radii, bin_width=bin_width)

    monkeypatch.setattr(du, "decay_exponent", counting)
    monkeypatch.setattr(lat, "decay_exponent", counting)
    settings = suite_settings(16, (4, 8, 12, 16))
    result = pl.run_family(settings.families[1], settings)
    nodes = result.dual_system.core_nodes()
    # one regression per core dual and per basis row, plus the coefficient decay fit
    assert len(calls) == len(nodes) + len(result.basis_rows) + 1
    exponents = {}
    for node, _, _, exponent in result.envelope_rows:
        exponents.setdefault(node, []).append(exponent)
    assert list(exponents) == nodes
    assert all(len(e) == 2 and e[0] == e[1] for e in exponents.values())


def _oracle_settings(spec: GeneratorSpec, h: float, t: int, **extra) -> pl.RunSettings:
    return pl.RunSettings(name="oracle", d=spec.d, radii=(2, 4), grid_h=h, grid_R=12.0, t=t,
                          families=[pl.FamilySettings("oracle", spec)],
                          dual_export_radius=None, **extra)


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
        0.125, 3, convolution_windows={2: 4}), True),
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
    basis = lat.make_basis(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
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
    ds = result.dual_system
    nodes = ds.core_nodes()
    G = ds.coeffs[ds.core_positions()] @ F
    same(np.stack([result.duals[node] for node in nodes]), G)

    def fits(samples, node, us):
        radii = lat.axes_max_norm(grid.offsets(node))
        exponent = lat.decay_exponent(samples, radii)
        return [(lat.envelope_constant(samples, radii, u), exponent) for u in us]

    dense = [fit for node, g in zip(nodes, G) for fit in fits(g, node, dict.fromkeys((t, s)))]
    assert [row[:2] for row in result.envelope_rows] == \
        [(node, u) for node in nodes for u in dict.fromkeys((t, s))]
    same([row[2:] for row in result.envelope_rows], dense)
    members = [fits(basis.sample(node, grid), node, [s])[0] for node, _, _ in result.basis_rows]
    same([row[1:] for row in result.basis_rows], members)


def test_d2_indicator_suite_end_to_end(sample_builds):
    suite = pl.run_suite(d2_indicator_settings())
    assert len(sample_builds) == 3
    for fam in suite.families:
        assert fam.core_radius == 1
        for inv in ("biorthogonality", "dual_norm_bound", "interlacing"):
            assert suite.verdict(f"{fam.name}.{inv}").passed, (fam.name, inv)
