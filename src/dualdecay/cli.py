"""Config-driven experiment runner.

Usage: dualdecay <subcommand> --config <path> [--out <dir>] [--seed <int>]

Each subcommand but verify runs the pipeline once, as far as it needs, and
writes its slice of the results:

    basis    envelope measurements and sampled-function exports
    gramian  sections and eigenvalue traces
    duals    inversion and the five matrix checks verify also runs
    bounds   lattice sums and calibrated constants
    report   full pipeline, all per-family artifacts, report.json
    all      basis exports plus the full report
    verify   re-check invariants from a previous run's artifacts

Exit codes: 0 success, 2 config/artifact error (including a bad argument, a
malformed or non-finite config value, a key its section does not read, a
perturbed node given twice, a bounds dimension over 15, a gaussian sigma
under 1e-100 or with (sigma sqrt(pi))^d past the float range, fewer than three families for report/all, a missing or
malformed artifact (a gramian.npy or coeffs.npy that is not exactly
symmetric <f8 of the config's window shape in C order, or that holds NaN
or inf), an envelopes.csv whose D_emp at t is not a finite number >= 0 or
whose rows at t are not the core nodes, one row each, artifacts written
for another config
(another d, radii, grid, t, bounds dims or set of family names, or a family
of another family, params, claimed_C, claimed_s or perturbations), a
sample matrix over the sample_all entry cap, a family name that is empty,
'.' or '..' or holds '/' or ',', an artifact that cannot be written and a
theoretical D past the float range), 3 hypothesis
violation (including claimed C < 1, measured C < 1 and a section that is
not a Riesz sequence at this resolution), 4 convergence failure, 5 invariant failure
(including a measured envelope over its claimed C, or NaN). Every error exit
prints one line to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import artifacts
from . import constants as cst
from . import lattice as lat
from . import pipeline as pl
from .duals import biorthogonality_residual  # noqa: F401  kept in this namespace for tracing
from .errors import (ConfigError, ConvergenceError, HypothesisViolation, InvariantFailure,
                     NotRieszError, family_errors)

EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_CONVERGENCE = 4
EXIT_INVARIANT = 5

STAGES = ("basis", "gramian", "duals", "bounds", "report", "all", "verify")


def _parse_perturbations(text: str):
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
        if node in out:
            raise ConfigError(f"perturbed node {node} is given more than once")
        out[node] = delta
    return out


# the keys each section reads; [tolerances] reads the names of
# DEFAULT_TOLERANCES
_KEYS = {"run": ("name", "out", "seed", "dual_export_radius"),
         "window": ("d", "radii"),
         "grid": ("h", "R"),
         "targets": ("t",),
         "bounds": ("dims",),
         "family": ("family", "claimed_C", "claimed_s", "s", "sigma", "order", "perturb")}


def _check_keys(section, kind: str):
    """A ConfigError naming the first key of `section` that a section of
    `kind` does not read (configparser gives the keys in lower case)."""
    for key in section:
        if key not in map(str.lower, _KEYS[kind]):
            raise ConfigError(f"[{section.name}] unknown key {key!r}; the keys are "
                              + ", ".join(_KEYS[kind]))


def _value(section, key: str, convert, default=None):
    """`convert` of the text at `key` (or of `default` if the key is absent);
    a value it rejects is a ConfigError naming the section and key."""
    text = section[key] if default is None else section.get(key, default)
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split())


def _family_from_section(name: str, section, d: int) -> pl.FamilySettings:
    _check_keys(section, "family")
    try:
        family = section["family"]
        claimed_C = _value(section, "claimed_C", float)
        claimed_s = _value(section, "claimed_s", float)
    except KeyError as exc:
        raise ConfigError(f"family {name!r} is missing key {exc}") from exc
    params = {key: _value(section, key, float if key != "order" else int)
              for key in ("s", "sigma", "order") if key in section}
    perturbations = {}
    if "perturb" in section:
        perturbations = _parse_perturbations(section["perturb"])
    try:
        spec = lat.GeneratorSpec(family, d, claimed_C, claimed_s, params,
                                 perturbations=tuple(perturbations.items()))
    except ValueError as exc:
        raise ConfigError(f"family {name!r}: {exc}") from exc
    return pl.FamilySettings(name=name, spec=spec)


def load_config(path: str, out_override=None, seed_override=None,
                stage: str = "all") -> pl.RunSettings:
    """The validated settings of the config at `path` for running `stage`;
    `report` and `all` calibrate E, so they need three families."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
        run, window, grid, targets = (parser[k] for k in ("run", "window", "grid", "targets"))
        for section in (run, window, grid, targets):
            _check_keys(section, section.name)
        d = _value(window, "d", int, "1")
        families = [_family_from_section(sec.split(":", 1)[1], parser[sec], d)
                    for sec in parser.sections() if sec.startswith("family:")]
        tolerances = {}
        if parser.has_section("tolerances"):
            sec = parser["tolerances"]
            tolerances = {key: _value(sec, key, float) for key in sec}
        bounds_dims = ()
        if parser.has_section("bounds"):
            sec = parser["bounds"]
            _check_keys(sec, "bounds")
            if "dims" in sec:
                bounds_dims = _value(sec, "dims", _ints)
        settings = pl.RunSettings(
            name=run.get("name", os.path.basename(path)),
            d=d,
            radii=_value(window, "radii", _ints),
            grid_h=_value(grid, "h", float),
            grid_R=_value(grid, "R", float),
            t=_value(targets, "t", int),
            families=families,
            seed=int(seed_override) if seed_override is not None
            else _value(run, "seed", int, "1234"),
            out_dir=str(out_override if out_override is not None
                        else run.get("out", "out")),
            tolerances=tolerances,
            bounds_dims=bounds_dims,
            dual_export_radius=_value(run, "dual_export_radius", int, "0"),
        )
        if stage in ("report", "all"):
            cst.check_E_family_count(len(settings.families))
        return settings
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    except (ConfigError, HypothesisViolation):
        raise
    except KeyError as exc:
        raise ConfigError(f"config is missing section or key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid run configuration: {exc}") from exc


def _stage_families(settings: pl.RunSettings, stage: str):
    """basis, gramian and duals: run each family through the pipeline's steps
    up to `stage`, then write what was computed, also when a matrix check
    failed."""
    basis_rows, matrices, failure = [], [], None
    for fam in settings.families:
        with family_errors(fam.name):
            if stage == "basis":
                rows, k0 = pl.measure_basis(fam, settings)[1:]
                basis_rows.append((fam.name, fam.spec, rows, k0))
                continue
            rows, k0, gramian, riesz = pl.family_matrices(fam, settings)[1:]
            basis_rows.append((fam.name, fam.spec, rows, k0))
            print(f"gramian stage: {fam.name}: A_est={riesz.A_est!r} B_est={riesz.B_est!r}")
            coeffs = None
            if stage == "duals":
                coeffs, core_radius, _, checks = pl.family_inverse(fam, settings, gramian, riesz)
                biorth, gram = checks[:2]
                print(f"duals stage: {fam.name}: core={core_radius} "
                      f"biorthogonality={biorth.value!r} gram_duals={gram.value!r}")
                failed = [v for v in checks if not v.passed]
                if failed:
                    failure = InvariantFailure(str(failed[0]))
            matrices.append((fam.name, gramian, riesz, coeffs))
        if failure is not None:
            break
    artifacts.write_stage(settings.out_dir, settings.grid(), basis_rows, matrices)
    if failure is not None:
        raise failure
    print(f"{stage} stage: wrote {settings.out_dir}")
    return 0


def _print_verdicts(verdicts: list, summary: str) -> int:
    """One line per verdict, then `summary` with the pass count; the exit
    code, and one stderr line naming the first failed verdict if any."""
    for v in verdicts:
        print(f"{v} ({v.detail})" if v.detail else v)
    failed = [v.name for v in verdicts if not v.passed]
    print(summary.format(f"{len(verdicts) - len(failed)}/{len(verdicts)}"))
    if failed:
        print(f"invariant failure: {len(failed)} of {len(verdicts)} checks failed, "
              f"first {failed[0]}", file=sys.stderr)
    return EXIT_INVARIANT if failed else 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 on a bad argument with the one line `dualdecay: error:
        <message>`, without the usage lines."""
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="dualdecay",
        description="dual systems of localized Riesz bases: experiments and checks")
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", required=True, help="path to the run config (ini)")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        settings = load_config(args.config, out_override=args.out,
                               seed_override=args.seed, stage=args.stage)
        if args.stage in ("basis", "gramian", "duals"):
            return _stage_families(settings, args.stage)
        if args.stage == "bounds":
            artifacts.write_bounds(settings.out_dir, *pl.calibrate_bounds(settings))
            print(f"bounds stage: wrote {settings.out_dir}/constants.csv")
            return 0
        if args.stage == "verify":
            return _print_verdicts(artifacts.verify_artifacts(settings),
                                   "verify: {} checks pass")
        suite = pl.run_suite(settings)  # report, and all with the basis exports
        artifacts.write_suite(settings.out_dir, suite, basis=args.stage == "all")
        return _print_verdicts(suite.verdicts, f"report written to {settings.out_dir}/"
                               "report.json ({} invariants pass)")
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading or writing artifacts; names the file
        print(f"artifact error: {exc}", file=sys.stderr)
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
