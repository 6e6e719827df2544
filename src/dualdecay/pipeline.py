"""Experiment pipeline: basis -> Gramian -> duals -> constants -> verdicts.

Runs every shipped family through assembly, finite-section inversion, dual
synthesis, and envelope measurement, then calibrates the suite-level
constants and evaluates every invariant with a pass/fail verdict.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import constants as cst
from . import duals as du
from . import gramian as gr
from . import lattice as lat
from .errors import ConfigError, EnvelopeClaimError, HypothesisViolation, family_errors

# the threshold of each verdict and numerical step: one value each, read when
# used and set nowhere else
TOLERANCES = {
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
    bounds_dims: tuple = ()          # dimensions for the constants stage
    dual_export_radius: int = 0     # dual_k*.npy for core nodes within this radius
    # W_(s-t) by exponent s - t, summed once here to check w_tol; not an input
    w_values: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.radii = tuple(int(r) for r in self.radii)
        if len(self.radii) < 2 or list(self.radii) != sorted(set(self.radii)):
            raise ConfigError(f"radii must be strictly increasing, got {self.radii}")
        if self.radii[0] < 0:
            raise ConfigError(f"radii must be >= 0, got {self.radii}")
        if self.dual_export_radius < 0:
            raise ConfigError(f"dual_export_radius must be >= 0, got {self.dual_export_radius}")
        if not self.bounds_dims:
            self.bounds_dims = (self.d,)
        if min(self.bounds_dims) < 1:
            raise ConfigError(f"bounds dims must be >= 1, got {self.bounds_dims}")
        if max(self.bounds_dims) > cst.MAX_BOUNDS_DIM:
            raise ConfigError(f"bounds dimension {max(self.bounds_dims)} is over the maximum "
                              f"{cst.MAX_BOUNDS_DIM} of the lattice-sum bound")
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.grid_R < self.radii[-1] + 8:
            raise ConfigError(
                f"grid extent {self.grid_R} must reach 8 units past the largest "
                f"radius {self.radii[-1]}")
        grid = self.grid()  # the grid rejects its own bad spacing or extent
        window = lat.LatticeWindow(self.d, self.radii[-1])
        self.w_values = {}
        for fam in self.families:
            # each family's artifacts go to out_dir/<name>, and the name is a CSV field
            if fam.name in ("", ".", "..") or any(c in fam.name for c in ",/" + os.sep):
                raise ConfigError(f"family name {fam.name!r} must not be empty, '.' or '..', "
                                  "nor hold a path separator or ','")
            if fam.spec.d != self.d:
                raise ConfigError(f"family {fam.name!r} has dimension {fam.spec.d} != {self.d}")
            # reject bad parameter sets before any heavy computation
            cst.validate_hypotheses(fam.spec.claimed_C, fam.spec.claimed_s, self.t, self.d)
            u = fam.spec.claimed_s - self.t
            try:
                self.w_values[u] = cst.w_sum(u, self.d, TOLERANCES["w_tol"]).value
            except ValueError as exc:
                raise ConfigError(f"family {fam.name!r}: W_(s-t) misses w_tol: {exc}") from exc
        # after the hypotheses, which are cheap, and before any window is enumerated
        lat.check_sample_cap(window, grid)
        for fam in self.families:
            lat.BasisSet(fam.spec, window)  # rejects perturbed nodes outside the window

    def grid(self) -> lat.Grid:
        return lat.Grid(h=self.grid_h, R=self.grid_R, d=self.d)


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.value, self.threshold = float(self.value), float(self.threshold)

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
    basis_rows: list            # (node, measured C at claimed s, regression exponent)
    basis_k0: np.ndarray        # the basis function at the origin, sampled on the grid
    D_emp: float                # max dual envelope constant at exponent t
    envelope_rows: list         # (k, exponent, constant)
    inverse_decay: float        # shell-regression decay exponent of |c_0j| over the core
    alpha_t: float              # coefficient envelope constant at exponent t
    schur_ratio: float          # max_u schur(D^u M) / (C^2 W)
    schur_M: float
    W_value: float
    offdiag_constant: float     # Gramian off-diagonal envelope constant at exponent s
    offdiag_exponent: float     # its shell-regression decay exponent
    coeffs: gr.DecayMatrix      # C = M^-1; trusted between core nodes only
    duals: dict                 # exported core node -> samples of its dual on the grid
    gramian: gr.DecayMatrix
    checks: list                # the five matrix_checks verdicts on M and C
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


def measure_basis(fam: FamilySettings, settings: RunSettings):
    """(basis, rows, origin samples) of `fam` on the largest window.  The origin
    and each perturbed node are sampled once on the basis's support grid,
    checked against the claimed envelope (EnvelopeClaimError over it, or NaN)
    and fitted: one row (node, measured C at the claimed s, regression
    exponent) each.  The origin's samples are zero-padded to the grid."""
    grid = settings.grid()
    origin = (0,) * settings.d
    basis = lat.BasisSet(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
    support = basis.support_grid(grid)
    bound = fam.spec.claimed_C * (1.0 + TOLERANCES["claimed_rtol"])
    rows = []
    for node in dict.fromkeys([origin] + [node for node, _ in fam.spec.perturbations]):
        values = basis.sample(node, support)
        if node == origin:
            basis_k0 = grid.embed(values, support)
        samples = lat.measure_decay(values, node, grid, support)
        constant = lat.envelope_constant(*samples, fam.spec.claimed_s)
        if not constant <= bound:  # NaN fails too
            raise EnvelopeClaimError(f"measured envelope constant {constant:.6g} at node "
                                     f"{node} exceeds claimed {fam.spec.claimed_C:.6g}")
        rows.append((node, constant, lat.decay_exponent(*samples)))
    return basis, rows, basis_k0


def family_matrices(fam: FamilySettings, settings: RunSettings):
    """(basis, rows, origin samples, M, riesz): measure_basis, then the
    Gramian M on the largest window and the Riesz bounds of its sections."""
    basis, rows, basis_k0 = measure_basis(fam, settings)
    M, riesz = gr.sections(basis, settings.radii, settings.grid(), TOLERANCES["riesz_rtol"])
    return basis, rows, basis_k0, M, riesz


def family_inverse(fam: FamilySettings, settings: RunSettings, M: gr.DecayMatrix,
                   riesz: gr.RieszBounds):
    """(C, core_radius, convergence, checks): the inverse of M from its
    sections at radii[-2] and [-1], and the five matrix_checks verdicts."""
    C, core_radius, convergence = du.invert_section(M, settings.radii[-2],
                                                    TOLERANCES["inversion"])
    checks = matrix_checks(fam.name, M, C, core_radius, riesz.radii, riesz.lambda_min,
                           riesz.lambda_max)
    return C, core_radius, convergence, checks


def run_family(fam: FamilySettings, settings: RunSettings) -> FamilyResult:
    t0 = time.perf_counter()
    grid = settings.grid()
    t = settings.t
    s = fam.spec.claimed_s
    origin = (0,) * settings.d

    with family_errors(fam.name):
        basis, basis_rows, basis_k0, M, riesz = family_matrices(fam, settings)
        C, core_radius, convergence, checks = family_inverse(fam, settings, M, riesz)
    C_meas = max(c for _, c, _ in basis_rows)
    if not C_meas >= 1.0:  # the bound's hypothesis, here on the measured constant
        raise HypothesisViolation(f"family {fam.name!r}: hypothesis C >= 1 violated by the "
                                  f"measured envelope constant (C_meas={C_meas})")
    support = basis.support_grid(grid)
    if fam.spec.perturbations:
        # the unperturbed generator at the origin
        bare = fam.spec.generator(support.offsets(origin)).reshape(-1)
        C_base = lat.envelope_constant(*lat.measure_decay(bare, origin, grid, support), s)
    else:
        C_base = C_meas

    # all core duals come from one product on the support grid, and all are
    # fitted there in one pass against their distances to their nodes; the
    # exported ones are zero-padded to the grid into arrays of their own, so
    # the block dies with the family
    limit = settings.dual_export_radius
    core = lat.LatticeWindow(settings.d, core_radius)
    nodes = [tuple(k) for k in core.indices.tolist()]
    block = du.synthesize_duals(C, core_radius, basis, nodes, grid)
    del basis  # synthesis reads the sample matrix last: free it before the fits
    duals = {node: grid.embed(samples, support)
             for node, samples in zip(nodes, block) if max(map(abs, node)) <= limit}
    us = list(dict.fromkeys((float(t), float(s))))  # t first
    constants = lat.envelope_constants(block, nodes, grid, support, us).T.tolist()
    del block
    envelope_rows = [(node, u, c) for node, row in zip(nodes, constants)
                     for u, c in zip(us, row)]
    D_emp = 0.0
    for row in constants:
        D_emp = max(D_emp, row[0])  # a NaN constant leaves D_emp as it is
    inverse_decay = du.coefficient_decay_fit(C, core_radius)

    W_value = settings.w_values[s - t]
    schur_M = gr.schur_bound(M)  # the u = 0 term
    schur_worst = max([schur_M] + [gr.schur_bound(gr.apply_derivation(M, 1, u))
                                    for u in range(1, t + 1)])
    schur_ratio = schur_worst / (C_meas**2 * W_value)

    # the largest envelope constant of a core row: one fit of all core rows
    # against the max-norm distances |k - j| of their entries
    rows = C.window.positions_of(core)
    radii = lat.axes_max_norm([C.node_diffs(h)[rows] for h in range(1, settings.d + 1)])
    alpha_t = lat.envelope_constant(C.entries[rows], radii, float(t))

    offdiag_constant, offdiag_exponent = gr.offdiag_fit(M, u=s)

    return FamilyResult(
        name=fam.name, spec=fam.spec, riesz=riesz, C_meas=C_meas, C_base=C_base,
        core_radius=core_radius, convergence=convergence,
        basis_rows=basis_rows, basis_k0=basis_k0, D_emp=D_emp,
        envelope_rows=envelope_rows, inverse_decay=inverse_decay, alpha_t=alpha_t,
        schur_ratio=schur_ratio, schur_M=schur_M, W_value=W_value,
        offdiag_constant=offdiag_constant, offdiag_exponent=offdiag_exponent,
        coeffs=C, duals=duals, gramian=M, checks=checks,
        elapsed=time.perf_counter() - t0,
    )


def calibrate_bounds(settings: RunSettings):
    """(lattice_sum_cal, convolution): the lattice-sum bound and the three
    certified convolution brackets for every dimension in bounds_dims, each
    scan started at cst.conv_start_window(d).  The brackets of d = 1 and 2
    are read from cst.DEFAULT_BRACKETS; any other dimension's are scanned."""
    lattice_sum_cal = {d: cst.calibrate_lattice_sum_bound(d) for d in settings.bounds_dims}
    convolution = {}
    for d in settings.bounds_dims:
        keys = [(float(d + off), d, cst.conv_start_window(d)) for off in (1, 2, 4)]
        convolution[d] = [cst.DEFAULT_BRACKETS.get(key) or cst.verify_convolution_discrete(*key)
                          for key in keys]
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
        core = lat.LatticeWindow(settings.d, r.core_radius)
        pos = r.coeffs.window.positions_of(core)
        core_m = gr.DecayMatrix(core, r.coeffs.entries[np.ix_(pos, pos)])
        measured = gr.schur_bound(gr.apply_derivation(core_m, 1, settings.t))
        bound = cst.recursion_trace(r.A_est, r.C_meas, r.W_value, settings.t,
                                    schur_constant=schur_constant)[-1]
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


def matrix_checks(family: str, M: gr.DecayMatrix, C: gr.DecayMatrix, core_radius: int,
                  radii, lam_min, lam_max) -> list:
    """The five verdicts on the largest section M, its inverse C, the core
    radius and the eigenvalue trace, in report order:

    - biorthogonality: max |C M - I|, i.e. |<g_k, f_j> - delta_kj|;
    - gram_duals: max |(C M C - C)_core|, i.e. |<g_k, g_j> - c_kj|;
    - dual_norm_bound and inverse_norm_bound: max ||g_k||^2 and lambda_max
      of the core block of C, each at most 1/A with A = lam_min[-1];
    - interlacing: lambda_min nonincreasing and lambda_max nondecreasing in
      the radius (Cauchy interlacing of nested sections).
    """
    core = M.window.positions_of(lat.LatticeWindow(M.window.d, core_radius))
    block = C.entries[np.ix_(core, core)]
    residual = TOLERANCES["biorthogonality"]
    bound = (1.0 + TOLERANCES["bound_slack"]) / lam_min[-1]
    eps = TOLERANCES["interlacing"]
    biorth = du.biorthogonality_residual(C.entries, M.entries)
    gram = du.gram_duals_check(C.entries, M.entries, core)
    dual_norm = np.max(np.diag(block))
    lam_core = np.linalg.eigvalsh(block)[-1]
    interlaced = all(a >= b - eps for a, b in zip(lam_min, lam_min[1:])) \
        and all(a <= b + eps for a, b in zip(lam_max, lam_max[1:]))
    return [
        Verdict(f"{family}.biorthogonality", biorth < residual, biorth, residual),
        Verdict(f"{family}.gram_duals", gram < residual, gram, residual),
        Verdict(f"{family}.dual_norm_bound", dual_norm <= bound, dual_norm, bound,
                "max ||g_k||^2 vs 1/A"),
        Verdict(f"{family}.inverse_norm_bound", lam_core <= bound, lam_core, bound,
                "lambda_max of core coefficients vs 1/A"),
        Verdict(f"{family}.interlacing", interlaced, 0.0, eps, f"radii {tuple(radii)}"),
    ]


def dual_decay_domination(family: str, D_emp: float, C: float, A: float, s: float,
                          t: int, d: int, E: float) -> Verdict:
    with family_errors(family):
        D = cst.TheoreticalBound(C=C, A=A, s=s, t=t, d=d, E=E).D
    return Verdict(f"{family}.dual_decay_domination", D_emp <= D * (1 + 1e-9), D_emp, D,
                   "measured dual envelope vs theoretical D at E_emp")


def _build_verdicts(settings, results, E_cal, recursion, convolution) -> list:
    verdicts = []
    for r in results:
        pre = f"{r.name}."
        verdicts += r.checks
        passed = r.C_meas <= r.spec.claimed_C * (1 + TOLERANCES["claimed_rtol"])
        verdicts.append(Verdict(pre + "claimed_C", passed, r.C_meas, r.spec.claimed_C))
        if r.spec.perturbations:
            bound = r.C_base * 1.5**r.spec.claimed_s
            verdicts.append(Verdict(pre + "perturbation_penalty", r.C_meas <= bound, r.C_meas,
                                    bound, "measured constant vs C (3/2)^s"))
        if r.spec.family == "polynomial-bump" and \
                r.spec.claimed_s > settings.d + settings.t:
            verdicts.append(Verdict(pre + "inverse_decay_exponent",
                                    r.inverse_decay >= settings.t, r.inverse_decay, settings.t,
                                    f"shell regression over core radius {r.core_radius}"))
        measured, bound = recursion[r.name]
        verdicts.append(Verdict(pre + "recursion_bound", measured <= bound, measured, bound,
                                "schur(D^t inverse core) vs iterated bound"))
        verdicts.append(dual_decay_domination(r.name, r.D_emp, r.C_meas, r.A_est,
                                              r.spec.claimed_s, settings.t, settings.d,
                                              E_cal.E_emp))

    for d, cals in convolution.items():
        norms = [c.normalized for c in cals]
        mean = sum(norms) / len(norms)
        dev = max(abs(x - mean) / mean for x in norms)
        brackets = [(round(c.lower / c.scale, 4), round(x, 4)) for c, x in zip(cals, norms)]
        band = TOLERANCES["convolution_band"]
        verdicts.append(Verdict(f"convolution_u_stability.d{d}", dev <= band, dev, band,
                                f"normalized constants {[round(x, 4) for x in norms]}, "
                                f"certified brackets {brackets}"))
    return verdicts
