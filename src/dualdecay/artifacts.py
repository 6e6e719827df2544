"""Artifact writers and the recomputation-free verification pass.

Every run writes a report.json plus per-family CSVs (Gramian and coefficient
matrices in the window text format, eigenvalue traces, dual samples, and
envelope summaries) and a top-level constants table.  The writers make one
job per file and share the jobs out over up to one process per usable CPU
(`_write_files`); every file is formatted by the same code in whichever
process writes it, so its bytes do not depend on how many processes wrote.
`verify_artifacts` re-checks the invariants from those files alone, with no
quadrature.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .duals import biorthogonality_residual, gram_duals_check
from .errors import ConfigError
from .gramian import DecayMatrix
from .lattice import LatticeWindow
from .pipeline import (DEFAULT_TOLERANCES, RunSettings, SuiteResult, Verdict, biorthogonality,
                       core_norms, dual_decay_domination, dual_norm_bound, gram_duals,
                       interlacing, inverse_norm_bound)


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


def _write_matrix(path: str, matrix: DecayMatrix):
    matrix.to_text(path)


# A job is (rows, path, write, *args): write(path, *args) writes one file of
# `rows` lines, the cost by which the jobs are shared out.


def _lines_job(path: str, lines: list) -> tuple:
    return len(lines), path, _write_lines, lines


def _samples_job(path: str, d: int, prefixes: list, values) -> tuple:
    return len(prefixes), path, _write_samples, d, prefixes, values


def _matrix_jobs(fdir: str, gramian, riesz, coeffs) -> list:
    """gramian.csv and eigens.csv of an assembled family, and coeffs.csv of
    an inverted one; None stands for what was not computed."""
    jobs = []
    if gramian is not None:
        jobs += [(gramian.size ** 2, os.path.join(fdir, "gramian.csv"), _write_matrix, gramian),
                 _lines_job(os.path.join(fdir, "eigens.csv"), _eigens_lines(riesz))]
    if coeffs is not None:
        jobs.append((coeffs.size ** 2, os.path.join(fdir, "coeffs.csv"), _write_matrix, coeffs))
    return jobs


def _basis_jobs(out_dir: str, d: int, prefixes: list, families) -> list:
    """basis_envelopes.csv, and basis_k0.csv per family, from one (name,
    spec, basis rows, origin samples, ...) per family."""
    lines = ["family,node,claimed_C,measured_C,regression_exponent"]
    jobs = []
    for name, spec, rows, k0, *_ in families:
        lines += [f"{name},{_node_label(node)},{_fmt(spec.claimed_C)},{_fmt(C)},"
                  f"{_fmt(exponent)}" for node, C, exponent in rows]
        jobs.append(_samples_job(os.path.join(family_dir(out_dir, name), "basis_k0.csv"),
                                 d, prefixes, k0))
    return jobs + [_lines_job(os.path.join(out_dir, "basis_envelopes.csv"), lines)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _write(job):
    """Write one job's file; an OSError that names no file gets its path."""
    _, path, write, *args = job
    try:
        write(path, *args)
    except OSError as exc:
        if exc.filename is None and exc.errno is not None:
            exc.filename = path
        raise


def _writer(jobs: list, pipe: int):
    """The body of a forked writer. It writes `jobs`, reports a failure on
    `pipe` as `errno NUL text NUL path` (errno empty unless it is an
    OSError), and leaves through os._exit, so nothing the parent set up
    (buffered output, atexit handlers, the caller's `finally`) runs twice."""
    code, path = 1, ""
    try:
        for job in jobs:
            path = job[1]
            _write(job)
        code = 0
    except BaseException as exc:  # reported to the parent, which raises it
        errno = exc.errno if isinstance(exc, OSError) and exc.errno else ""
        text = exc.strerror if errno else f"{type(exc).__name__}: {exc}"
        os.write(pipe, f"{errno}\0{text}\0{path}".encode(errors="replace"))
    finally:
        os._exit(code)


def _reap(pid: int, pipe: int, jobs: list):
    """Wait for the writer `pid` of `jobs`; the error it reported, or None."""
    with os.fdopen(pipe, "rb") as fh:
        report = fh.read().decode(errors="replace")
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0:
        return None
    if not report:
        return ChildProcessError(f"artifact writer ended with status {status} while writing "
                                 f"{jobs[0][1]} and {len(jobs) - 1} more files")
    errno, _, rest = report.partition("\0")
    text, _, path = rest.rpartition("\0")
    if errno:
        return OSError(int(errno), text, path)
    return ChildProcessError(f"artifact writer failed on {path}: {text}")


def _write_files(jobs: list):
    """Write every job, largest first, on up to one process per usable CPU,
    into folders made here.

    With n = min(usable CPUs, jobs) > 1, n - 1 writers forked here take
    every n-th job and this process the rest; the files are the same bytes
    either way. The writers only format text and write files (no BLAS, no
    output), so forking a process with BLAS threads is safe. A failed job is
    an OSError naming its file (a ChildProcessError naming it when a writer
    failed otherwise); every writer is reaped, also when this process's own
    share raises."""
    for folder in sorted({os.path.dirname(job[1]) for job in jobs}):
        os.makedirs(folder, exist_ok=True)
    jobs = sorted(jobs, key=lambda job: -job[0])
    n = min(_usable_cpus(), len(jobs)) if hasattr(os, "fork") else 1
    writers = []  # (pid, read end of its report pipe, its jobs)
    try:
        for i in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _writer(jobs[i::n], write)
            os.close(write)
            writers.append((pid, read, jobs[i::n]))
        for job in jobs[::n]:
            _write(job)
    finally:
        failures = [_reap(*writer) for writer in writers]
    for failure in failures:
        if failure is not None:
            raise failure


def write_stage(out_dir: str, grid, families):
    """The files of the basis, gramian and duals stages: basis_envelopes.csv
    and, per family, basis_k0.csv, gramian.csv and eigens.csv once the
    sections are assembled, and coeffs.csv once they are inverted. One
    (name, spec, basis rows, origin samples, last section, riesz bounds,
    coefficient matrix) per family, with None for what was not computed."""
    jobs = _basis_jobs(out_dir, grid.d, _row_prefixes(grid), families)
    for name, _, _, _, gramian, riesz, coeffs in families:
        jobs += _matrix_jobs(family_dir(out_dir, name), gramian, riesz, coeffs)
    _write_files(jobs)


def write_bounds(out_dir: str, lattice_sum_cal: dict, convolution: dict):
    """constants.csv holding the bounds rows alone."""
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "constants.csv"),
                 [_CONSTANTS_HEADER] + _bounds_rows(lattice_sum_cal, convolution))


def write_suite(out_dir: str, suite: SuiteResult, basis: bool = False):
    """Every file of the `report` stage and, with `basis`, the basis exports
    of `all`, all in one pass of the writers."""
    grid = suite.settings.grid()
    prefixes = _row_prefixes(grid)
    jobs = []
    if basis:
        jobs = _basis_jobs(out_dir, grid.d, prefixes, [
            (fam.name, fam.spec, fam.basis_rows, fam.basis_k0) for fam in suite.families])
    for fam in suite.families:
        fdir = family_dir(out_dir, fam.name)
        jobs += _matrix_jobs(fdir, fam.gramian, fam.riesz,
                             fam.dual_system.coefficient_matrix())
        jobs.append(_lines_job(os.path.join(fdir, "envelopes.csv"),
                               _envelope_lines(fam.envelope_rows)))
        jobs += [_samples_job(os.path.join(fdir, f"dual_k{_node_label(node)}.csv"),
                              grid.d, prefixes, samples)
                 for node, samples in sorted(fam.duals.items())]
    report = json.dumps(report_dict(suite), indent=2, sort_keys=True)
    _write_files(jobs + [_lines_job(os.path.join(out_dir, "constants.csv"),
                                    _constants_lines(suite)),
                         _lines_job(os.path.join(out_dir, "calibration.txt"),
                                    _calibration_lines(suite)),
                         _lines_job(os.path.join(out_dir, "report.json"), [report])])


def _eigens_lines(riesz) -> list:
    return ["N,lambda_min,lambda_max"] + [
        f"{N},{_fmt(lo)},{_fmt(hi)}"
        for N, lo, hi in zip(riesz.radii, riesz.lambda_min, riesz.lambda_max)]


def _envelope_lines(rows) -> list:
    return ["k,t,D_emp,exponent_fit"] + [
        f"{_node_label(node)},{_fmt(u)},{_fmt(const)},{_fmt(exponent)}"
        for node, u, const, exponent in rows]


def _constants_lines(suite: SuiteResult) -> list:
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
    return lines


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
        A_stored, C_meas, claimed_s = (entry("families", name, key, kind=_NUMBER)
                                       for key in ("A_est", "C_meas", "claimed_s"))
        core_radius = entry("families", name, "core_radius")
        if type(core_radius) is not int or not 0 <= core_radius <= settings.radii[-1]:
            raise ConfigError(f"{path} entry 'families.{name}.core_radius' is not an integer "
                              f"in [0, {settings.radii[-1]}]: {core_radius!r}")
        fdir = family_dir(out_dir, name)
        gram = _read_matrix(os.path.join(fdir, "gramian.csv"))
        coeffs = _read_matrix(os.path.join(fdir, "coeffs.csv"))
        if gram.window != coeffs.window:
            raise ConfigError(f"window mismatch between stored matrices for {name!r}")
        core = coeffs.window.positions_of(LatticeWindow(coeffs.window.d, core_radius))
        verdicts.append(biorthogonality(
            name, biorthogonality_residual(coeffs.entries, gram.entries), tol))
        verdicts.append(gram_duals(
            name, gram_duals_check(coeffs.entries, gram.entries, core), tol))

        eigens = _read_rows(os.path.join(fdir, "eigens.csv"), (int, float, float))
        radii, lo, hi = (list(column) for column in zip(*eigens))
        a_est = lo[-1]
        add(f"{name}.eigens_consistent",
            math.isclose(a_est, A_stored, rel_tol=1e-12), a_est, A_stored)
        verdicts.append(interlacing(name, radii, lo, hi, tol))

        dual_norm, lam = core_norms(coeffs.entries[np.ix_(core, core)])
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
