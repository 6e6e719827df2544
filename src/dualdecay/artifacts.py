"""Artifact writers and the recomputation-free verification pass.

Every run writes a report.json plus per-family CSVs (Gramian and coefficient
matrices in the window text format, eigenvalue traces, dual samples, and
envelope summaries) and a top-level constants table.  `verify_artifacts`
re-checks the invariants from those files alone, with no quadrature.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import ConfigError
from .gramian import DecayMatrix
from .lattice import LatticeWindow
from .pipeline import (DEFAULT_TOLERANCES, RunSettings, SuiteResult, Verdict, core_norms,
                       dual_decay_domination, dual_norm_bound, interlacing,
                       inverse_norm_bound)


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


def family_dir(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, name)


def _write_lines(path: str, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_CHUNK_ROWS = 4096  # rows formatted per write of a sample file
_NUMBER = (int, float)  # what verify accepts where report.json holds a number


def _row_prefixes(grid) -> list:
    """The `x_1,..,x_d,` text of every grid point, in grid.points order."""
    axis = [_fmt(c) + "," for c in grid.axis.tolist()]
    return ["".join(p) for p in itertools.product(axis, repeat=grid.d)]


def _write_samples(path: str, d: int, prefixes: list, values):
    """One `x_1..x_d,value` row per grid point, from the grid's row prefixes."""
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write(",".join(f"x_{i + 1}" for i in range(d)) + ",value\n")
        for start in range(0, len(prefixes), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            fh.write("".join(p + v + "\n" for p, v in zip(
                prefixes[start:stop], map(repr, values[start:stop].tolist()))))


def write_basis(out_dir: str, grid, families):
    """basis_envelopes.csv, and basis_k0.csv per family, from one
    (name, spec, basis rows, origin samples) per family."""
    lines = ["family,node,claimed_C,measured_C,regression_exponent"]
    prefixes = _row_prefixes(grid)
    for name, spec, rows, k0 in families:
        lines += [f"{name},{_node_label(node)},{_fmt(spec.claimed_C)},{_fmt(C)},"
                  f"{_fmt(exponent)}" for node, C, exponent in rows]
        fdir = family_dir(out_dir, name)
        os.makedirs(fdir, exist_ok=True)
        _write_samples(os.path.join(fdir, "basis_k0.csv"), grid.d, prefixes, k0)
    _write_lines(os.path.join(out_dir, "basis_envelopes.csv"), lines)


def write_bounds(out_dir: str, lattice_sum_cal: dict, convolution: dict):
    """constants.csv holding the bounds rows alone."""
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "constants.csv"),
                 [_CONSTANTS_HEADER] + _bounds_rows(lattice_sum_cal, convolution))


def write_suite(out_dir: str, suite: SuiteResult):
    os.makedirs(out_dir, exist_ok=True)
    grid, limit = suite.settings.grid(), suite.settings.dual_export_radius
    prefixes = _row_prefixes(grid)
    for fam in suite.families:
        fdir = family_dir(out_dir, fam.name)
        os.makedirs(fdir, exist_ok=True)
        fam.gramian.to_text(os.path.join(fdir, "gramian.csv"))
        fam.dual_system.coefficient_matrix().to_text(os.path.join(fdir, "coeffs.csv"))
        write_eigens(os.path.join(fdir, "eigens.csv"), fam.riesz)
        _write_envelopes(os.path.join(fdir, "envelopes.csv"), fam.envelope_rows)
        for node, samples in sorted(fam.dual_system.duals.items()):
            if limit is None or max(abs(c) for c in node) <= limit:
                _write_samples(os.path.join(fdir, f"dual_k{_node_label(node)}.csv"),
                               grid.d, prefixes, samples)
    _write_constants(out_dir, suite)
    _write_calibration_text(out_dir, suite)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report_dict(suite), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_eigens(path: str, riesz):
    _write_lines(path, ["N,lambda_min,lambda_max"] + [
        f"{N},{_fmt(lo)},{_fmt(hi)}"
        for N, lo, hi in zip(riesz.radii, riesz.lambda_min, riesz.lambda_max)])


def _write_envelopes(path: str, rows):
    _write_lines(path, ["k,t,D_emp,exponent_fit"] + [
        f"{_node_label(node)},{_fmt(u)},{_fmt(const)},{_fmt(exponent)}"
        for node, u, const, exponent in rows])


def _write_constants(out_dir: str, suite: SuiteResult):
    lines = [_CONSTANTS_HEADER]

    def add(scope, d, name, value, binding="", detail=""):
        lines.append(f"{scope},{d},{name},{_fmt(value)},{binding},{detail}")

    add("suite", suite.settings.d, "E_emp", suite.E_cal.E_emp, suite.E_cal.binding_family)
    add("suite", suite.settings.d, "schur_constant", suite.schur_constant,
        suite.schur_binding)
    add("suite", suite.settings.d, "transfer_constant", suite.c_transfer,
        suite.binding_transfer)
    lines += _bounds_rows(suite.lattice_sum_cal, suite.convolution)
    for fam in suite.families:
        for key in ("A_est", "B_est", "C_meas", "D_emp", "core_radius"):
            add("family", suite.settings.d, f"{fam.name}.{key}", getattr(fam, key))
    _write_lines(os.path.join(out_dir, "constants.csv"), lines)


def _write_calibration_text(out_dir: str, suite: SuiteResult):
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
    _write_lines(os.path.join(out_dir, "calibration.txt"), out)


def _finite(x):
    """Non-finite fits (e.g. banded matrices) become null in the report."""
    x = float(x)
    return x if math.isfinite(x) else None


def _settings_dict(s) -> dict:
    return {"d": s.d, "radii": list(s.radii), "grid_h": s.grid_h, "grid_R": s.grid_R,
            "t": s.t, "seed": s.seed, "tolerances": s.tolerances,
            "bounds_dims": list(s.bounds_dims)}


def report_dict(suite: SuiteResult) -> dict:
    s = suite.settings
    fams = {}
    for fam in suite.families:
        fams[fam.name] = {
            "family": fam.spec.family,
            "params": dict(fam.spec.params),
            "claimed_C": fam.spec.claimed_C,
            "claimed_s": fam.spec.claimed_s,
            "perturbations": [[list(n), list(d)] for n, d in fam.spec.perturbations],
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
            "biorthogonality_residual": fam.biorth_residual,
            "gram_duals_residual": fam.gram_duals_residual,
            "dual_norm_max": fam.dual_norm_max,
            "lambda_max_core_coeffs": fam.lam_max_core,
            "inverse_decay_exponent": _finite(fam.inverse_decay.exponent),
            "coefficient_envelope_alpha": fam.alpha_t,
            "schur_ratio_gramian": fam.schur_ratio,
            "schur_norm_gramian": fam.schur_M,
            "spectral_norm_gramian": fam.spectral_M,
            "W_value": fam.W_value,
            "translation_covariance_err": fam.covariance_err,
            "envelope_consistency": fam.envelope_ordered,
            "offdiag_constant": fam.offdiag.constant,
            "offdiag_exponent": _finite(fam.offdiag.exponent),
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
            "w_honesty": list(suite.w_honesty),
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


def _read_rows(path: str, types: tuple) -> list:
    """The data rows of a stored CSV, each field converted by its entry of
    `types`; a malformed row is a ConfigError naming the file and the line."""
    with open(_require(path)) as fh:
        lines = fh.read().splitlines()[1:]
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


def _read_matrix(path: str) -> DecayMatrix:
    try:
        return DecayMatrix.from_text(_require(path))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def verify_artifacts(settings: RunSettings) -> list:
    """Re-check invariants from the artifacts in settings.out_dir; returns verdicts.

    Missing or malformed artifacts are a ConfigError naming the file and the
    key or line."""
    out_dir = settings.out_dir
    path = _require(os.path.join(out_dir, "report.json"))
    with open(path) as fh:
        try:
            report = json.load(fh)
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
    now = dict(_settings_dict(settings), families=sorted(f.name for f in settings.families))
    for key in ("d", "radii", "grid_h", "grid_R", "t", "families"):
        was = sorted(entry("families", kind=dict)) if key == "families" else entry("settings", key)
        if was != now[key]:
            raise ConfigError(f"artifacts in {out_dir} were written with {key} = "
                              f"{was!r}, the config has {now[key]!r}")
    tol = {key: entry("settings", "tolerances", key, kind=_NUMBER)
           for key in DEFAULT_TOLERANCES}
    t, d = entry("settings", "t"), entry("settings", "d")
    E_emp = entry("calibration", "E_emp", kind=_NUMBER)
    invariants = entry("invariants", kind=list)
    verdicts = []

    def add(name, passed, value, threshold, detail=""):
        verdicts.append(Verdict(name, bool(passed), float(value), float(threshold), detail))

    for name in sorted(entry("families", kind=dict)):
        A_stored, core_radius, C_meas, claimed_s = (
            entry("families", name, key, kind=_NUMBER)
            for key in ("A_est", "core_radius", "C_meas", "claimed_s"))
        fdir = family_dir(out_dir, name)
        gram = _read_matrix(os.path.join(fdir, "gramian.csv"))
        coeffs = _read_matrix(os.path.join(fdir, "coeffs.csv"))
        if gram.window != coeffs.window:
            raise ConfigError(f"window mismatch between stored matrices for {name!r}")
        n = gram.size
        product = coeffs.entries @ gram.entries
        biorth = float(np.max(np.abs(product - np.eye(n))))
        add(f"{name}.biorthogonality", biorth < tol["biorthogonality"],
            biorth, tol["biorthogonality"], "max |CM - I| from stored matrices")

        eigens = _read_rows(os.path.join(fdir, "eigens.csv"), (int, float, float))
        radii, lo, hi = (list(column) for column in zip(*eigens))
        a_est = lo[-1]
        add(f"{name}.eigens_consistent",
            math.isclose(a_est, A_stored, rel_tol=1e-12), a_est, A_stored)
        verdicts.append(interlacing(name, radii, lo, hi, tol))

        core = LatticeWindow(coeffs.window.d, int(core_radius))
        pos = coeffs.window.positions_of(core)
        dual_norm, lam = core_norms(coeffs.entries[np.ix_(pos, pos)])
        verdicts.append(inverse_norm_bound(name, lam, a_est, tol))
        verdicts.append(dual_norm_bound(name, dual_norm, a_est, tol))

        envelopes = _read_rows(os.path.join(fdir, "envelopes.csv"), (str, float, float, float))
        d_emp = max([0.0] + [c for _, u, c, _ in envelopes if u == t])
        verdicts.append(dual_decay_domination(name, d_emp, C_meas, a_est, claimed_s, t, d,
                                              E_emp))

    stored_fail = [entry("invariants", i, "name", kind=str) for i in range(len(invariants))
                   if not entry("invariants", i, "passed", kind=bool)]
    add("stored_verdicts_pass", not stored_fail, float(len(stored_fail)), 0.0,
        "failed: " + ", ".join(stored_fail) if stored_fail else "")
    return verdicts
