"""Experiment pipeline: basis -> Gramian -> duals -> constants -> verdicts.

Runs every shipped family through assembly, finite-section inversion, dual
synthesis, and envelope measurement, then calibrates the suite-level
constants and evaluates every invariant with a pass/fail verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import constants as cst
from . import duals as du
from . import gramian as gr
from . import lattice as lat
from .errors import ConfigError

DEFAULT_TOLERANCES = {
    "inversion": 1e-8,
    "biorthogonality": 1e-6,
    "bound_slack": 1e-6,       # multiplicative slack on the 1/A bounds
    "riesz_rtol": 1e-6,
    "interlacing": 1e-10,
    "claimed_rtol": 1e-12,
    "w_tol": 1e-10,
    "convolution_band": 0.05,  # allowed deviation of normalized constants from mean
}


@dataclass
class FamilySettings:
    name: str
    spec: lat.GeneratorSpec


@dataclass
class RunSettings:
    """Validated run configuration; hypothesis checks happen up front."""

    name: str
    d: int
    radii: tuple
    grid_h: float
    grid_R: float
    t: int
    families: list
    seed: int = 1234
    out_dir: str = "out"
    tolerances: dict = field(default_factory=dict)
    bounds_dims: tuple = ()          # dimensions for the constants stage
    convolution_windows: dict = field(default_factory=dict)
    dual_export_radius: int | None = None

    def __post_init__(self):
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(f"unknown tolerance {unknown[0]!r}; the tolerances are "
                              + ", ".join(DEFAULT_TOLERANCES))
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances)
        self.tolerances = tol
        if not all(0 < v < math.inf for v in tol.values()):
            raise ConfigError("all tolerances must be positive and finite")
        self.radii = tuple(int(r) for r in self.radii)
        if len(self.radii) < 2 or sorted(self.radii) != list(self.radii) or \
                len(set(self.radii)) != len(self.radii):
            raise ConfigError(f"radii must be strictly increasing, got {self.radii}")
        if self.radii[0] < 0:
            raise ConfigError(f"radii must be >= 0, got {self.radii}")
        if not self.bounds_dims:
            self.bounds_dims = (self.d,)
        if min(self.bounds_dims) < 1:
            raise ConfigError(f"bounds dims must be >= 1, got {self.bounds_dims}")
        for d, start in self.convolution_windows.items():
            if start < 1:
                raise ConfigError(f"convolution_window_d{d} must be >= 1, got {start}")
        # starting radius, per dimension, of the exact axis scan that
        # brackets the convolution constants over all of Z^d
        self.convolution_windows = {d: self.convolution_windows.get(d, 128 if d == 1 else 16)
                                    for d in self.bounds_dims}
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.grid_R < self.radii[-1] + 8:
            raise ConfigError(
                f"grid extent {self.grid_R} must reach 8 units past the largest "
                f"radius {self.radii[-1]}")
        grid = self.grid()  # the grid rejects its own bad spacing or extent
        window = lat.LatticeWindow(self.d, self.radii[-1])
        for fam in self.families:
            if fam.spec.d != self.d:
                raise ConfigError(f"family {fam.name!r} has dimension {fam.spec.d} != {self.d}")
            # reject bad parameter sets before any heavy computation
            cst.validate_hypotheses(fam.spec.claimed_C, fam.spec.claimed_s, self.t, self.d)
            lat.make_basis(fam.spec, window)  # rejects perturbed nodes outside the window
        lat.check_sample_cap(window, grid)  # before any family is sampled

    def grid(self) -> lat.Grid:
        return lat.Grid(h=self.grid_h, R=self.grid_R, d=self.d)


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def __str__(self) -> str:
        return (f"[{'pass' if self.passed else 'FAIL'}] {self.name}: "
                f"value={self.value!r} threshold={self.threshold!r}")


@dataclass
class FamilyResult:
    name: str
    spec: lat.GeneratorSpec
    riesz: gr.RieszBounds
    C_meas: float
    C_base: float               # unperturbed generator's measured constant
    core_radius: int
    convergence: du.SectionConvergence
    biorth_residual: float
    gram_duals_residual: float
    dual_norm_max: float        # max_k ||g_k||^2 over the core
    lam_max_core: float
    basis_rows: list            # (node, measured C at claimed s, regression exponent)
    basis_k0: np.ndarray        # the member at the origin, sampled on the grid
    D_emp: float                # max dual envelope constant at exponent t
    envelope_rows: list         # (k, exponent, constant, regression_exponent)
    inverse_decay: float        # shell-regression decay exponent of |c_0j| over the core
    alpha_t: float              # coefficient envelope constant at exponent t
    schur_ratio: float          # max_u schur(D^u M) / (C^2 W)
    schur_M: float
    W_value: float
    offdiag_constant: float     # Gramian off-diagonal envelope constant at exponent s
    offdiag_exponent: float     # its shell-regression decay exponent
    dual_system: du.DualSystem
    duals: dict                 # exported core node -> samples of its dual on the grid
    gramian: gr.DecayMatrix
    elapsed: float

    @property
    def A_est(self) -> float:
        return self.riesz.A_est

    @property
    def B_est(self) -> float:
        return self.riesz.B_est


@dataclass
class SuiteResult:
    settings: RunSettings
    families: list
    E_cal: cst.ECalibration
    schur_constant: float
    schur_binding: str
    c_transfer: float
    binding_transfer: str
    lattice_sum_cal: dict
    convolution: dict           # d -> list of ConvolutionCalibration
    recursion: dict             # family -> (measured, bound)
    verdicts: list
    timings: dict

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def measure_basis(fam: FamilySettings, settings: RunSettings):
    """(basis, rows, origin samples) of `fam` on the largest window,
    validated against its claimed envelope; one row (node, measured C at the
    claimed s, regression exponent) for the origin and each perturbed node."""
    grid = settings.grid()
    origin = (0,) * settings.d
    basis = lat.make_basis(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
    measured = lat.validate_claimed_envelope(basis, grid,
                                             rtol=settings.tolerances["claimed_rtol"])
    rows = [(node, C, lat.decay_exponent(*profile)) for node, (C, profile) in measured.items()]
    return basis, rows, basis.sample(origin, grid)


def gramian_sections(basis: lat.BasisSet, settings: RunSettings):
    """Nested Gramian sections of `basis` and their Riesz bounds."""
    secs = gr.sections(basis, settings.radii, settings.grid())
    return secs, gr.riesz_bounds(secs, rtol=settings.tolerances["riesz_rtol"])


def dual_system(secs: list, settings: RunSettings):
    """Dual system of the nested sections `secs`, with its biorthogonality
    and dual-Gramian residuals."""
    ds = du.invert_section(secs, tol=settings.tolerances["inversion"])
    M = secs[-1].entries
    return (ds, du.biorthogonality_residual(ds.coeffs, M),
            du.gram_duals_check(ds.coeffs, M, ds.core_positions()))


def run_family(fam: FamilySettings, settings: RunSettings) -> FamilyResult:
    t0 = time.perf_counter()
    grid = settings.grid()
    t = settings.t
    s = fam.spec.claimed_s
    tol = settings.tolerances
    origin = (0,) * settings.d

    basis, basis_rows, basis_k0 = measure_basis(fam, settings)
    C_meas = max(C for _, C, _ in basis_rows)
    if fam.spec.perturbations:
        bare = replace(fam.spec, perturbations=())
        bare_basis = lat.make_basis(bare, lat.LatticeWindow(settings.d, 0))
        bare_profile = lat.measure_decay(bare_basis.sample(origin, grid), origin, grid)
        C_base = lat.envelope_constant(*bare_profile, s)
    else:
        C_base = C_meas

    secs, riesz = gramian_sections(basis, settings)
    M = secs[-1]
    ds, biorth, gram_res = dual_system(secs, settings)
    dual_norm, lam_core = core_norms(ds.core_block())

    # all core duals come from one product on the support grid and each is
    # profiled there once; the exported ones are zero-padded to the grid into
    # arrays of their own, so the block dies with the family
    limit = settings.dual_export_radius
    nodes = ds.core_nodes()
    support = basis.support_grid(grid)
    block = du.synthesize_duals(ds, basis, nodes, grid)
    del basis  # synthesis reads the sample matrix last: free it before the profiles
    duals, envelope_rows, D_emp = {}, [], 0.0
    for node, samples in zip(nodes, block):
        profile = lat.measure_decay(samples, node, grid, support)
        if limit is None or max(abs(c) for c in node) <= limit:
            duals[node] = grid.embed(samples, support)
        exponent = lat.decay_exponent(*profile)
        for u in dict.fromkeys((float(t), float(s))):
            constant = lat.envelope_constant(*profile, u)
            envelope_rows.append((node, u, constant, exponent))
            if u == float(t):
                D_emp = max(D_emp, constant)
    inverse_decay = du.coefficient_decay_fit(ds)

    W_value = cst.compute_W(s - t, settings.d, tol["w_tol"])
    schur_worst = max(gr.schur_bound(gr.apply_derivation(M, 1, u)) for u in range(t + 1))
    schur_ratio = schur_worst / (C_meas**2 * W_value)

    # the largest envelope constant of a core row: one profile of all core rows
    core, coeffs = ds.core_positions(), ds.coefficient_matrix()
    offsets = [coeffs.node_diffs(h)[core] for h in range(1, settings.d + 1)]
    alpha_t = lat.envelope_constant(*lat.radial_profile(coeffs.entries[core], offsets),
                                    float(t))

    offdiag_constant, offdiag_exponent = gr.offdiag_fit(M, u=s)

    return FamilyResult(
        name=fam.name, spec=fam.spec, riesz=riesz, C_meas=C_meas, C_base=C_base,
        core_radius=ds.core_radius, convergence=ds.convergence,
        biorth_residual=biorth, gram_duals_residual=gram_res,
        dual_norm_max=dual_norm, lam_max_core=lam_core,
        basis_rows=basis_rows, basis_k0=basis_k0, D_emp=D_emp,
        envelope_rows=envelope_rows, inverse_decay=inverse_decay, alpha_t=alpha_t,
        schur_ratio=schur_ratio, schur_M=gr.schur_bound(M), W_value=W_value,
        offdiag_constant=offdiag_constant, offdiag_exponent=offdiag_exponent,
        dual_system=ds, duals=duals, gramian=M,
        elapsed=time.perf_counter() - t0,
    )


def calibrate_bounds(settings: RunSettings):
    """(lattice_sum_cal, convolution): the lattice-sum bound and the three
    certified convolution brackets for every dimension in bounds_dims."""
    lattice_sum_cal = {d: cst.calibrate_lattice_sum_bound(d) for d in settings.bounds_dims}
    convolution = {d: [cst.verify_convolution_discrete(float(d + off), d,
                                                       settings.convolution_windows[d])
                       for off in (1, 2, 4)]
                   for d in settings.bounds_dims}
    return lattice_sum_cal, convolution


def run_suite(settings: RunSettings) -> SuiteResult:
    timings = {}
    t_start = time.perf_counter()
    results = [run_family(fam, settings) for fam in settings.families]
    timings["families"] = time.perf_counter() - t_start

    t0 = time.perf_counter()
    cases = [cst.CalibrationCase(r.name, r.D_emp, r.C_meas, r.A_est,
                                 r.spec.claimed_s, settings.t, settings.d)
             for r in results]
    E_cal = cst.calibrate_E(cases)

    schur_constant = max(r.schur_ratio for r in results)
    schur_binding = max(results, key=lambda r: r.schur_ratio).name

    transfer = [(r.name, (r.D_emp / (r.alpha_t * r.C_meas)) ** (1.0 / settings.t))
                for r in results if r.D_emp > 0]
    binding_transfer, c_transfer = max(transfer, key=lambda item: item[1])

    recursion = {}
    for r in results:
        core_m = gr.DecayMatrix(lat.LatticeWindow(settings.d, r.core_radius),
                                r.dual_system.core_block(), symmetric=True)
        measured = gr.schur_bound(gr.apply_derivation(core_m, 1, settings.t))
        bound = cst.recursion_trace(r.A_est, r.C_meas, r.W_value, settings.t,
                                    schur_constant=schur_constant).final
        recursion[r.name] = (measured, bound)

    lattice_sum_cal, convolution = calibrate_bounds(settings)
    timings["bounds"] = time.perf_counter() - t0

    verdicts = _build_verdicts(settings, results, E_cal, recursion, convolution)
    timings["total"] = time.perf_counter() - t_start
    return SuiteResult(settings=settings, families=results, E_cal=E_cal,
                       schur_constant=schur_constant, schur_binding=schur_binding,
                       c_transfer=c_transfer, binding_transfer=binding_transfer,
                       lattice_sum_cal=lattice_sum_cal, convolution=convolution,
                       recursion=recursion, verdicts=verdicts, timings=timings)


# Invariants checked both on a run in memory and, by
# artifacts.verify_artifacts, on the values read back from its artifacts.


def interlacing(family: str, radii, lam_min, lam_max, tol: dict) -> Verdict:
    """Cauchy interlacing of nested sections: lambda_min nonincreasing and
    lambda_max nondecreasing in the radius."""
    eps = tol["interlacing"]
    ok = all(a >= b - eps for a, b in zip(lam_min, lam_min[1:])) \
        and all(a <= b + eps for a, b in zip(lam_max, lam_max[1:]))
    return Verdict(f"{family}.interlacing", ok, 0.0, eps, f"radii {tuple(radii)}")


def biorthogonality(family: str, residual: float, tol: dict) -> Verdict:
    """max |C M - I|, i.e. |<g_k, f_j> - delta_{k,j}|, under tolerance."""
    return Verdict(f"{family}.biorthogonality", residual < tol["biorthogonality"],
                   residual, tol["biorthogonality"])


def gram_duals(family: str, residual: float, tol: dict) -> Verdict:
    """max |(C M C - C)_core|, i.e. |<g_k, g_j> - c_{k,j}|, under tolerance."""
    return Verdict(f"{family}.gram_duals", residual < tol["biorthogonality"],
                   residual, tol["biorthogonality"])


def core_norms(block: np.ndarray) -> tuple:
    """(max_k ||g_k||^2, lambda_max) of a core block of dual coefficients."""
    return float(np.max(np.diag(block))), float(np.linalg.eigvalsh(block)[-1])


def dual_norm_bound(family: str, dual_norm_max: float, A: float, tol: dict) -> Verdict:
    bound = (1.0 + tol["bound_slack"]) / A
    return Verdict(f"{family}.dual_norm_bound", dual_norm_max <= bound, dual_norm_max,
                   bound, "max ||g_k||^2 vs 1/A")


def inverse_norm_bound(family: str, lam_max_core: float, A: float, tol: dict) -> Verdict:
    bound = (1.0 + tol["bound_slack"]) / A
    return Verdict(f"{family}.inverse_norm_bound", lam_max_core <= bound, lam_max_core,
                   bound, "lambda_max of core coefficients vs 1/A")


def dual_decay_domination(family: str, D_emp: float, C: float, A: float, s: float,
                          t: int, d: int, E: float) -> Verdict:
    D = cst.TheoreticalBound(C=C, A=A, s=s, t=t, d=d, E=E).D
    return Verdict(f"{family}.dual_decay_domination", D_emp <= D * (1 + 1e-9), D_emp, D,
                   "measured dual envelope vs theoretical D at E_emp")


def _build_verdicts(settings, results, E_cal, recursion, convolution) -> list:
    tol = settings.tolerances
    verdicts = []

    def add(name, passed, value, threshold, detail=""):
        verdicts.append(Verdict(name, bool(passed), float(value), float(threshold), detail))

    for r in results:
        pre = f"{r.name}."
        verdicts.append(biorthogonality(r.name, r.biorth_residual, tol))
        verdicts.append(dual_norm_bound(r.name, r.dual_norm_max, r.A_est, tol))
        verdicts.append(inverse_norm_bound(r.name, r.lam_max_core, r.A_est, tol))
        verdicts.append(interlacing(r.name, r.riesz.radii, r.riesz.lambda_min,
                                    r.riesz.lambda_max, tol))
        add(pre + "claimed_C", r.C_meas <= r.spec.claimed_C * (1 + tol["claimed_rtol"]),
            r.C_meas, r.spec.claimed_C)
        if r.spec.perturbations:
            bound = r.C_base * 1.5**r.spec.claimed_s
            add(pre + "perturbation_penalty", r.C_meas <= bound, r.C_meas, bound,
                "measured constant vs C (3/2)^s")
        if r.spec.family == "polynomial-bump" and \
                r.spec.claimed_s > settings.d + settings.t:
            add(pre + "inverse_decay_exponent", r.inverse_decay >= settings.t,
                r.inverse_decay, settings.t,
                f"shell regression over core radius {r.core_radius}")
        verdicts.append(gram_duals(r.name, r.gram_duals_residual, tol))
        measured, bound = recursion[r.name]
        add(pre + "recursion_bound", measured <= bound, measured, bound,
            "schur(D^t inverse core) vs iterated bound")
        verdicts.append(dual_decay_domination(r.name, r.D_emp, r.C_meas, r.A_est,
                                              r.spec.claimed_s, settings.t, settings.d,
                                              E_cal.E_emp))

    for d, cals in convolution.items():
        norms = [c.normalized for c in cals]
        mean = sum(norms) / len(norms)
        dev = max(abs(x - mean) / mean for x in norms)
        add(f"convolution_u_stability.d{d}", dev <= tol["convolution_band"],
            dev, tol["convolution_band"],
            f"normalized constants {[round(x, 4) for x in norms]}, certified "
            f"brackets {[(round(c.lower / c.scale, 4), round(x, 4)) for c, x in zip(cals, norms)]}")
    return verdicts
