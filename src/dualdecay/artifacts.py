"""Artifact writers and the recomputation-free verification pass.

Arrays are `.npy` and tables are text.  Per family a run writes the
Gramian and its inverse (`gramian.npy`, `coeffs.npy`) and the samples of
the origin's basis function and of the duals within `dual_export_radius`
(`basis_k0.npy`, `dual_k<k>.npy`), each one C-order float64 array, next to
the eigenvalue trace and envelope summaries as CSV; on top sit a constants
table, calibration.txt and report.json.  Each file is written where it is
produced, through `_write`, which makes its folder and names the file on a
failed write; the stages and `all` share the basis and matrix writers.
`verify_artifacts` re-checks the invariants from the tables and matrices
alone, with no quadrature and no sample file.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .constants import CalibrationCase, calibrate_E
from .errors import ConfigError
from .gramian import DecayMatrix
from .lattice import LatticeWindow
from .pipeline import (DEFAULT_TOLERANCES, RunSettings, SuiteResult, Verdict,
                       dual_decay_domination, matrix_checks)


def _fmt(x) -> str:
    return repr(float(x))


def _node_label(node) -> str:
    return "_".join(str(int(c)) for c in node)


def _binding_label(cal) -> str:
    return "far-field" if cal.binding is None else _node_label(cal.binding)


def _bounds_rows(lattice_sum_cal: dict, convolution: dict) -> list:
    """constants.csv rows of the lattice-sum bounds and of the certified
    discrete convolution brackets (valid constant = upper end, binding node,
    bracket)."""
    rows = [f"lattice_sum_bound,{d},lattice_sum_vs_1_over_u_minus_d,{_fmt(cal.constant)},"
            f"u={cal.binding[0]:g}," for d, cal in lattice_sum_cal.items()]
    return rows + [f"convolution_discrete,{d},u={cal.u:g},{_fmt(cal.constant)},"
                   f"{_binding_label(cal)},lower={_fmt(cal.lower)} "
                   f"normalized={_fmt(cal.normalized)} scan_radius={cal.scan_radius}"
                   for d, cals in convolution.items() for cal in cals]


_CONSTANTS_HEADER = "scope,dimension,name,value,binding,detail"


def _write_lines(path: str, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_NUMBER = (int, float)  # what verify accepts where report.json holds a number


def _write_samples(path: str, grid, values):
    """The samples of one function on the grid as `.npy`: one C-order <f8
    array of shape (2m+1,)*d, m = grid.steps, whose entry [i_1, .., i_d] is
    the sample at (h(i_1 - m), .., h(i_d - m)), saved without pickle.  Samples
    of another length raise before the file is opened."""
    array = np.asarray(values, dtype="<f8").reshape((len(grid.axis),) * grid.d)
    with open(path, "wb") as fh:
        np.save(fh, array, allow_pickle=False)


def _write(path: str, write, *args):
    """write(path, *args), into a folder made here; an OSError that names no
    file gets the path."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(path, *args)
    except OSError as exc:
        if exc.filename is None and exc.errno is not None:
            exc.filename = path
        raise


def _write_basis(out_dir: str, grid, families):
    """basis_k0.npy per family, then basis_envelopes.csv, from one (name,
    spec, basis rows, origin samples) per family."""
    lines = ["family,node,claimed_C,measured_C,regression_exponent"]
    for name, spec, rows, k0 in families:
        lines += [f"{name},{_node_label(node)},{_fmt(spec.claimed_C)},{_fmt(C)},"
                  f"{_fmt(exponent)}" for node, C, exponent in rows]
        _write(os.path.join(out_dir, name, "basis_k0.npy"), _write_samples, grid, k0)
    _write(os.path.join(out_dir, "basis_envelopes.csv"), _write_lines, lines)


def _write_matrices(out_dir: str, name: str, gramian, riesz, coeffs):
    """gramian.npy and eigens.csv of an assembled family, and coeffs.npy
    unless `coeffs` is None (not inverted)."""
    fdir = os.path.join(out_dir, name)
    _write(os.path.join(fdir, "gramian.npy"), gramian.to_text)
    _write(os.path.join(fdir, "eigens.csv"), _write_lines, ["N,lambda_min,lambda_max"] + [
        f"{N},{_fmt(lo)},{_fmt(hi)}"
        for N, lo, hi in zip(riesz.radii, riesz.lambda_min, riesz.lambda_max)])
    if coeffs is not None:
        _write(os.path.join(fdir, "coeffs.npy"), coeffs.to_text)


def write_stage(out_dir: str, grid, basis: list, matrices: list):
    """The files of the basis, gramian and duals stages: basis_envelopes.csv
    and each basis_k0.npy from one (name, spec, basis rows, origin samples)
    per family in `basis`, and gramian.npy, eigens.csv and coeffs.npy from
    one (name, Gramian, riesz bounds, coefficient matrix or None) per
    assembled family in `matrices`."""
    _write_basis(out_dir, grid, basis)
    for name, gramian, riesz, coeffs in matrices:
        _write_matrices(out_dir, name, gramian, riesz, coeffs)


def write_bounds(out_dir: str, lattice_sum_cal: dict, convolution: dict):
    """constants.csv holding the bounds rows alone."""
    _write(os.path.join(out_dir, "constants.csv"), _write_lines,
           [_CONSTANTS_HEADER] + _bounds_rows(lattice_sum_cal, convolution))


def write_suite(out_dir: str, suite: SuiteResult, basis: bool = False):
    """Every file of the `report` stage and, with `basis`, the basis exports
    of `all`."""
    report = json.dumps(report_dict(suite), indent=2, sort_keys=True)
    constants, calibration = _constants_lines(suite), _calibration_lines(suite)
    grid = suite.settings.grid()
    if basis:
        _write_basis(out_dir, grid, [(fam.name, fam.spec, fam.basis_rows, fam.basis_k0)
                                     for fam in suite.families])
    for fam in suite.families:
        _write_matrices(out_dir, fam.name, fam.gramian, fam.riesz, fam.coeffs)
        fdir = os.path.join(out_dir, fam.name)
        _write(os.path.join(fdir, "envelopes.csv"), _write_lines, ["k,t,D_emp"] + [
            f"{_node_label(node)},{_fmt(u)},{_fmt(const)}" for node, u, const in fam.envelope_rows])
        for node, samples in sorted(fam.duals.items()):
            _write(os.path.join(fdir, f"dual_k{_node_label(node)}.npy"), _write_samples,
                   grid, samples)
    _write(os.path.join(out_dir, "constants.csv"), _write_lines, constants)
    _write(os.path.join(out_dir, "calibration.txt"), _write_lines, calibration)
    _write(os.path.join(out_dir, "report.json"), _write_lines, [report])


def _constants_lines(suite: SuiteResult) -> list:
    d = suite.settings.d
    suite_rows = [("E_emp", suite.E_cal.E_emp, suite.E_cal.binding_family),
                  ("schur_constant", suite.schur_constant, suite.schur_binding),
                  ("transfer_constant", suite.c_transfer, suite.binding_transfer)]
    return ([_CONSTANTS_HEADER]
            + [f"suite,{d},{name},{_fmt(value)},{binding}," for name, value, binding in suite_rows]
            + _bounds_rows(suite.lattice_sum_cal, suite.convolution)
            + [f"family,{d},{fam.name}.{key},{_fmt(getattr(fam, key))},,"
               for fam in suite.families
               for key in ("A_est", "B_est", "C_meas", "D_emp", "core_radius")])


def _calibration_lines(suite: SuiteResult) -> list:
    out = []
    out.append(f"calibration report: {suite.settings.name}")
    out.append("")
    out.append(f"dimension {suite.settings.d}, window radii {suite.settings.radii}, "
               f"t = {suite.settings.t}")
    out.append("")
    out.append(f"E_emp = {suite.E_cal.E_emp!r}  (binding family: {suite.E_cal.binding_family})")
    for fam, e in suite.E_cal.per_family:
        out.append(f"    {fam:24s} E needed = {e!r}")
    out.append(f"schur constant c = {suite.schur_constant!r}  (binding: {suite.schur_binding})")
    out.append(f"synthesis transfer constant = {suite.c_transfer!r}  "
               f"(binding: {suite.binding_transfer})")
    out.append("")
    for d, cal in suite.lattice_sum_cal.items():
        out.append(f"lattice-sum bound d={d}: least c with W_u <= c(1 + 1/(u-d)): "
                   f"{cal.constant!r} (binding u = {cal.binding[0]:g}, "
                   f"grid {min(cal.grid):g}..{max(cal.grid):g}, {len(cal.grid)} points)")
    for d, cals in suite.convolution.items():
        out.append(f"discrete convolution d={d}:")
        for cal in cals:
            out.append(f"    u={cal.u:g}: least c in [{cal.lower!r}, {cal.constant!r}], "
                       f"c / W_u <= {cal.normalized!r}, binding k = {_binding_label(cal)}, "
                       f"exact scan radius {cal.scan_radius}")
    out.append("")
    out.append("verdicts:")
    out += [f"    {v}" for v in suite.verdicts]
    return out


def _finite(x):
    """Non-finite fits (e.g. banded matrices) become null in the report."""
    x = float(x)
    return x if math.isfinite(x) else None


def _settings_dict(s) -> dict:
    return {"d": s.d, "radii": list(s.radii), "grid_h": s.grid_h, "grid_R": s.grid_R,
            "t": s.t, "seed": s.seed, "tolerances": s.tolerances,
            "bounds_dims": list(s.bounds_dims)}


def _family_dict(spec) -> dict:
    """The definition of a family, as report.json stores it and verify
    compares it with the config."""
    return {"family": spec.family, "params": dict(spec.params), "claimed_C": spec.claimed_C,
            "claimed_s": spec.claimed_s,
            "perturbations": [[list(n), list(d)] for n, d in spec.perturbations]}


def report_dict(suite: SuiteResult) -> dict:
    s = suite.settings
    value = {v.name: v.value for v in suite.verdicts}
    fams = {}
    for fam in suite.families:
        fams[fam.name] = {
            **_family_dict(fam.spec),
            "A_est": fam.A_est,
            "B_est": fam.B_est,
            "lambda_min": list(fam.riesz.lambda_min),
            "lambda_max": list(fam.riesz.lambda_max),
            "riesz_converged": fam.riesz.converged,
            "C_meas": fam.C_meas,
            "D_emp": fam.D_emp,
            "core_radius": fam.core_radius,
            "convergence_estimate": fam.convergence.estimate,
            "convergence_max_change": fam.convergence.max_change,
            "gramian_tail_bound": fam.gramian.quadrature_tail,
            "biorthogonality_residual": value[f"{fam.name}.biorthogonality"],
            "gram_duals_residual": value[f"{fam.name}.gram_duals"],
            "dual_norm_max": value[f"{fam.name}.dual_norm_bound"],
            "lambda_max_core_coeffs": value[f"{fam.name}.inverse_norm_bound"],
            "inverse_decay_exponent": _finite(fam.inverse_decay),
            "coefficient_envelope_alpha": fam.alpha_t,
            "schur_ratio_gramian": fam.schur_ratio,
            "schur_norm_gramian": fam.schur_M,
            "W_value": fam.W_value,
            "offdiag_constant": fam.offdiag_constant,
            "offdiag_exponent": _finite(fam.offdiag_exponent),
            "recursion_measured": suite.recursion[fam.name][0],
            "recursion_bound": suite.recursion[fam.name][1],
            "elapsed": fam.elapsed,
        }
    return {
        "name": s.name,
        "settings": _settings_dict(s),
        "families": fams,
        "calibration": {
            "E_emp": suite.E_cal.E_emp,
            "E_binding": suite.E_cal.binding_family,
            "E_per_family": {f: e for f, e in suite.E_cal.per_family},
            "schur_constant": suite.schur_constant,
            "transfer_constant": suite.c_transfer,
            "lattice_sum_bound": {str(d): cal.constant
                                  for d, cal in suite.lattice_sum_cal.items()},
            "convolution": {
                str(d): [{"u": c.u, "constant": c.constant, "lower": c.lower,
                          "normalized": c.normalized, "binding": _binding_label(c),
                          "scan_radius": c.scan_radius}
                         for c in cals]
                for d, cals in suite.convolution.items()},
        },
        "invariants": [{"name": v.name, "passed": v.passed, "value": v.value,
                        "threshold": v.threshold, "detail": v.detail}
                       for v in suite.verdicts],
        "timings": suite.timings,
    }


# ---------------------------------------------------------------------------
# verification from stored artifacts
# ---------------------------------------------------------------------------


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact: {path}")
    return path


def _read_text(path: str) -> str:
    """The text of a stored artifact; a missing file or one that is not
    UTF-8 is a ConfigError naming it."""
    with open(_require(path)) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _read_rows(path: str, types: tuple) -> list:
    """The data rows of a stored CSV, each field converted by its entry of
    `types`; a malformed row is a ConfigError naming the file and the line."""
    lines = _read_text(path).splitlines()[1:]
    rows = []
    for number, line in enumerate(lines, start=2):
        fields = line.strip().split(",")
        try:
            if len(fields) != len(types):
                raise ValueError(f"{len(fields)} fields, expected {len(types)}")
            rows.append([convert(f) for convert, f in zip(types, fields)])
        except ValueError as exc:
            raise ConfigError(f"{path} line {number}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} has no data rows")
    return rows


def _read_matrix(path: str, window: LatticeWindow) -> DecayMatrix:
    """The symmetric matrix on `window` stored at `path`, every entry finite."""
    try:
        matrix = DecayMatrix.from_text(_require(path), window)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not np.isfinite(matrix.entries).all():
        raise ConfigError(f"{path}: holds an entry that is NaN or infinite")
    return matrix


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError(f"lambda_min {text} is not positive")
    return value


def verify_artifacts(settings: RunSettings) -> list:
    """Re-check invariants from the artifacts in settings.out_dir; returns verdicts.

    Missing or malformed artifacts are a ConfigError naming the file and the
    key or line."""
    out_dir = settings.out_dir
    path = os.path.join(out_dir, "report.json")
    try:
        report = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc

    def entry(*keys, kind=None):
        """report[keys[0]][keys[1]]...; a missing one, or one that is not of
        `kind` (_NUMBER or a type), is a ConfigError naming the file and the
        dotted key."""
        value = report
        for i, key in enumerate(keys):
            try:
                value = value[key]
            except (KeyError, IndexError, TypeError):
                raise ConfigError(f"{path} has no {'.'.join(map(str, keys[:i + 1]))!r} "
                                  "entry") from None
        # bool is an int subclass, so it is a number only when asked for
        if kind is not None and not (isinstance(value, kind)
                                     and isinstance(value, bool) == (kind is bool)):
            noun = "number" if kind is _NUMBER else kind.__name__
            raise ConfigError(f"{path} entry {'.'.join(map(str, keys))!r} is not a "
                              f"{noun}: {value!r}")
        return value

    # artifacts of another problem are rejected; seed, out and tolerances may differ
    def compare(key, was, now):
        if was != now:
            raise ConfigError(f"artifacts in {out_dir} were written with {key} = "
                              f"{was!r}, the config has {now!r}")

    now = _settings_dict(settings)
    for key in ("d", "radii", "grid_h", "grid_R", "t", "bounds_dims"):
        compare(key, entry("settings", key), now[key])
    compare("families", sorted(entry("families", kind=dict)),
            sorted(f.name for f in settings.families))
    for fam in settings.families:
        for key, value in _family_dict(fam.spec).items():
            compare(f"families.{fam.name}.{key}", entry("families", fam.name, key), value)
    tol = {key: entry("settings", "tolerances", key, kind=_NUMBER)
           for key in DEFAULT_TOLERANCES}
    t, d = entry("settings", "t"), entry("settings", "d")
    E_emp = entry("calibration", "E_emp", kind=_NUMBER)
    invariants = entry("invariants", kind=list)
    window = LatticeWindow(settings.d, settings.radii[-1])
    verdicts, cases = [], []
    for name in sorted(entry("families", kind=dict)):
        A_stored, C_meas, claimed_s = (entry("families", name, key, kind=_NUMBER)
                                       for key in ("A_est", "C_meas", "claimed_s"))
        core_radius = entry("families", name, "core_radius")
        if type(core_radius) is not int or not 0 <= core_radius <= settings.radii[-1]:
            raise ConfigError(f"{path} entry 'families.{name}.core_radius' is not an integer "
                              f"in [0, {settings.radii[-1]}]: {core_radius!r}")
        fdir = os.path.join(out_dir, name)
        gram, coeffs = (_read_matrix(os.path.join(fdir, f), window)
                        for f in ("gramian.npy", "coeffs.npy"))
        # a run never stores a non-positive lambda_min: NotRieszError comes first
        eigens_path = os.path.join(fdir, "eigens.csv")
        radii, lo, hi = (list(column) for column in
                         zip(*_read_rows(eigens_path, (int, _positive, float))))
        if tuple(radii) != settings.radii:
            raise ConfigError(f"{eigens_path} holds sections at radii {tuple(radii)}, "
                              f"the config's are {settings.radii}")
        verdicts += matrix_checks(name, gram, coeffs, core_radius, radii, lo, hi, tol)
        a_est = lo[-1]
        verdicts.append(Verdict(f"{name}.eigens_consistent",
                                math.isclose(a_est, A_stored, rel_tol=1e-12), a_est, A_stored))

        # D_emp is the largest constant at t over the core duals, one row each
        envelopes_path = os.path.join(fdir, "envelopes.csv")
        core = {_node_label(k) for k in LatticeWindow(d, core_radius).indices.tolist()}
        at_t = {}
        for number, (label, u, c) in enumerate(
                _read_rows(envelopes_path, (str, float, float)), start=2):
            if u != t:
                continue
            if not 0 <= c < math.inf:
                raise ConfigError(f"{envelopes_path} line {number}: D_emp {c!r} at t={t} is "
                                  "not a finite number >= 0")
            if label in at_t or label not in core:
                raise ConfigError(f"{envelopes_path} line {number}: node {label!r} at t={t} "
                                  + ("has a second row" if label in at_t else
                                     f"is not in the core of radius {core_radius}"))
            at_t[label] = c
        if len(at_t) != len(core):
            raise ConfigError(f"{envelopes_path} holds {len(at_t)} rows at t={t}, the core of "
                              f"radius {core_radius} has {len(core)} nodes")
        d_emp = max([0.0, *at_t.values()])
        verdicts.append(dual_decay_domination(name, d_emp, C_meas, a_est, claimed_s, t, d,
                                              E_emp))
        cases.append(CalibrationCase(name, d_emp, C_meas, a_est, claimed_s, t, d))

    # a raised E only raises every D above, so it is calibrated again here
    E_cal = calibrate_E(cases)
    verdicts.append(Verdict("E_emp_consistent", math.isclose(E_cal.E_emp, E_emp, rel_tol=1e-12),
                            E_cal.E_emp, E_emp, f"binding family {E_cal.binding_family}"))

    stored_fail = [entry("invariants", i, "name", kind=str) for i in range(len(invariants))
                   if not entry("invariants", i, "passed", kind=bool)]
    verdicts.append(Verdict("stored_verdicts_pass", not stored_fail, len(stored_fail), 0.0,
                            "failed: " + ", ".join(stored_fail) if stored_fail else ""))
    return verdicts
