"""Config-driven experiment runner.

Usage: dualdecay <subcommand> --config <path> [--out <dir>] [--seed <int>]

Subcommands run pipeline stages in dependency order (each stage recomputes
its prerequisites in memory and writes its own artifacts):

    basis    envelope measurements and sampled-function exports
    gramian  sections and eigenvalue traces
    duals    inversion, dual synthesis, residuals
    bounds   lattice sums and calibrated constants
    report   full pipeline, all per-family artifacts, report.json
    all      basis exports plus the full report
    verify   re-check invariants from a previous run's artifacts

Exit codes: 0 success, 2 config/artifact error (including a sample matrix
over the sample_all entry cap), 3 hypothesis violation (including a section
that is not a Riesz sequence at this resolution), 4 convergence failure,
5 invariant failure (including a measured envelope over its claimed C).
Every error exit prints one line to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import artifacts
from . import constants as cst
from . import gramian as gr
from . import lattice as lat
from . import pipeline as pl
from .duals import biorthogonality_residual, invert_section
from .errors import (ConfigError, ConvergenceError, HypothesisViolation, InvariantFailure,
                     NotRieszError)

EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_CONVERGENCE = 4
EXIT_INVARIANT = 5

STAGES = ("basis", "gramian", "duals", "bounds", "report", "all", "verify")


def _parse_perturbations(text: str, d: int):
    """Entries like `0:0.3; 2:-0.25` (d=1) or `0,1:0.3,-0.2; ...` (d>1)."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            node_s, delta_s = chunk.split(":")
            node = tuple(int(c) for c in node_s.split(","))
            delta = tuple(float(c) for c in delta_s.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad perturbation entry {chunk!r}") from exc
        if len(node) != d or len(delta) != d:
            raise ConfigError(f"perturbation {chunk!r} has wrong dimension (d={d})")
        out[node] = delta
    return out


def _family_from_section(name: str, section, d: int) -> pl.FamilySettings:
    try:
        family = section["family"]
        claimed_C = float(section["claimed_C"])
        claimed_s = float(section["claimed_s"])
    except KeyError as exc:
        raise ConfigError(f"family {name!r} is missing key {exc}") from exc
    params = {}
    for key in ("s", "sigma", "order"):
        if key in section:
            params[key] = float(section[key]) if key != "order" else int(section[key])
    perturbations = {}
    if "perturb" in section:
        perturbations = _parse_perturbations(section["perturb"], d)
    try:
        spec = lat.GeneratorSpec(family, d, claimed_C, claimed_s, params,
                                 perturbations=tuple(perturbations.items()))
    except ValueError as exc:
        raise ConfigError(f"family {name!r}: {exc}") from exc
    return pl.FamilySettings(name=name, spec=spec)


def load_config(path: str, out_override=None, seed_override=None) -> pl.RunSettings:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    try:
        run = parser["run"]
        window = parser["window"]
        grid = parser["grid"]
        targets = parser["targets"]
    except KeyError as exc:
        raise ConfigError(f"config is missing section {exc}") from exc

    d = int(window.get("d", 1))
    families = [_family_from_section(sec.split(":", 1)[1], parser[sec], d)
                for sec in parser.sections() if sec.startswith("family:")]
    tolerances = {}
    if parser.has_section("tolerances"):
        for key, value in parser["tolerances"].items():
            tolerances[key] = float(value)
    bounds_dims = ()
    conv_windows = {1: 128, 2: 16}
    if parser.has_section("bounds"):
        sec = parser["bounds"]
        if "dims" in sec:
            bounds_dims = tuple(int(x) for x in sec["dims"].split())
        for key, value in sec.items():
            if key.startswith("convolution_window_d"):
                conv_windows[int(key.rsplit("d", 1)[1])] = int(value)

    dual_export = run.get("dual_export_radius")
    try:
        settings = pl.RunSettings(
            name=run.get("name", os.path.basename(path)),
            d=d,
            radii=tuple(int(x) for x in window["radii"].split()),
            grid_h=float(grid["h"]),
            grid_R=float(grid["r"]) if "r" in grid else float(grid["R"]),
            t=int(targets["t"]),
            families=families,
            seed=int(seed_override if seed_override is not None
                     else run.get("seed", 1234)),
            out_dir=str(out_override if out_override is not None
                        else run.get("out", "out")),
            tolerances=tolerances,
            bounds_dims=bounds_dims,
            convolution_windows=conv_windows,
            dual_export_radius=int(dual_export) if dual_export is not None else None,
        )
    except HypothesisViolation:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc
    return settings


def _stage_basis(settings: pl.RunSettings):
    grid = settings.grid()
    os.makedirs(settings.out_dir, exist_ok=True)
    header = ",".join(f"x_{i + 1}" for i in range(settings.d)) + ",value"
    lines = ["family,node,claimed_C,measured_C,regression_exponent"]
    for fam in settings.families:
        basis = lat.make_basis(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
        lat.validate_claimed_envelope(basis, grid,
                                      rtol=settings.tolerances["claimed_rtol"])
        nodes = [(0,) * settings.d] + [n for n, _ in fam.spec.perturbations]
        for node in dict.fromkeys(nodes):
            fit = lat.measure_decay(basis, node, grid, fam.spec.claimed_s)
            reg = lat.measure_decay(basis, node, grid, fam.spec.claimed_s,
                                    method="loglog-regression")
            label = "_".join(str(c) for c in node)
            lines.append(f"{fam.name},{label},{fam.spec.claimed_C!r},"
                         f"{fit.constant!r},{reg.exponent!r}")
        fdir = artifacts.family_dir(settings.out_dir, fam.name)
        os.makedirs(fdir, exist_ok=True)
        samples = basis.sample((0,) * settings.d, grid)
        rows = [header]
        rows += [",".join(repr(float(c)) for c in pt) + f",{float(v)!r}"
                 for pt, v in zip(grid.points, samples)]
        with open(os.path.join(fdir, "basis_k0.csv"), "w") as fh:
            fh.write("\n".join(rows) + "\n")
    with open(os.path.join(settings.out_dir, "basis_envelopes.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"basis stage: wrote {settings.out_dir}/basis_envelopes.csv")
    return 0


def _stage_gramian(settings: pl.RunSettings):
    grid = settings.grid()
    for fam in settings.families:
        basis = lat.make_basis(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
        secs = gr.sections(basis, settings.radii, grid)
        riesz = gr.riesz_bounds(secs, rtol=settings.tolerances["riesz_rtol"])
        fdir = artifacts.family_dir(settings.out_dir, fam.name)
        os.makedirs(fdir, exist_ok=True)
        secs[-1].to_text(os.path.join(fdir, "gramian.csv"))
        artifacts._write_eigens(os.path.join(fdir, "eigens.csv"), riesz)
        print(f"gramian stage: {fam.name}: A_est={riesz.A_est!r} B_est={riesz.B_est!r}")
    return 0


def _stage_duals(settings: pl.RunSettings):
    grid = settings.grid()
    for fam in settings.families:
        basis = lat.make_basis(fam.spec, lat.LatticeWindow(settings.d, settings.radii[-1]))
        secs = gr.sections(basis, settings.radii, grid)
        ds = invert_section(secs, tol=settings.tolerances["inversion"])
        residual = biorthogonality_residual(ds, basis, grid)
        fdir = artifacts.family_dir(settings.out_dir, fam.name)
        os.makedirs(fdir, exist_ok=True)
        ds.coefficient_matrix().to_text(os.path.join(fdir, "coeffs.csv"))
        print(f"duals stage: {fam.name}: core={ds.core_radius} "
              f"biorthogonality={residual!r}")
        if residual >= settings.tolerances["biorthogonality"]:
            raise InvariantFailure(
                f"{fam.name}: biorthogonality residual {residual!r} over tolerance")
    return 0


def _stage_bounds(settings: pl.RunSettings):
    os.makedirs(settings.out_dir, exist_ok=True)
    lines = ["scope,dimension,name,value,binding"]
    for d in settings.bounds_dims:
        cal = cst.calibrate_lattice_sum_bound(d)
        lines.append(f"lattice_sum_bound,{d},c,{cal.constant!r},u={cal.binding[0]:g}")
        win = settings.convolution_windows.get(d, 16)
        for u_off in (1, 2, 4):
            conv = cst.verify_convolution_discrete(float(d + u_off), d, win)
            lines.append(f"convolution_discrete,{d},u={conv.u:g},{conv.constant!r},"
                         f"normalized={conv.normalized!r}")
    with open(os.path.join(settings.out_dir, "constants.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"bounds stage: wrote {settings.out_dir}/constants.csv")
    return 0


def _stage_report(settings: pl.RunSettings):
    suite = pl.run_suite(settings)
    artifacts.write_suite(settings.out_dir, suite)
    failed = [v for v in suite.verdicts if not v.passed]
    for v in suite.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: value={v.value!r} threshold={v.threshold!r}")
    print(f"report written to {settings.out_dir}/report.json "
          f"({len(suite.verdicts) - len(failed)}/{len(suite.verdicts)} invariants pass)")
    return EXIT_INVARIANT if failed else 0


def _stage_verify(settings: pl.RunSettings):
    verdicts = artifacts.verify_artifacts(settings.out_dir)
    failed = [v for v in verdicts if not v.passed]
    for v in verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: value={v.value!r} threshold={v.threshold!r}"
              + (f" ({v.detail})" if v.detail else ""))
    print(f"verify: {len(verdicts) - len(failed)}/{len(verdicts)} checks pass")
    return EXIT_INVARIANT if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualdecay",
        description="dual systems of localized Riesz bases: experiments and checks")
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", required=True, help="path to the run config (ini)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        settings = load_config(args.config, out_override=args.out,
                               seed_override=args.seed)
        if args.stage == "basis":
            return _stage_basis(settings)
        if args.stage == "gramian":
            _stage_basis(settings)
            return _stage_gramian(settings)
        if args.stage == "duals":
            _stage_basis(settings)
            _stage_gramian(settings)
            return _stage_duals(settings)
        if args.stage == "bounds":
            return _stage_bounds(settings)
        if args.stage == "report":
            return _stage_report(settings)
        if args.stage == "all":
            _stage_basis(settings)
            return _stage_report(settings)
        return _stage_verify(settings)
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HypothesisViolation, NotRieszError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InvariantFailure as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
