import configparser
import contextlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdecay import artifacts, cli
from dualdecay import duals as du
from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import ConfigError, HypothesisViolation

MINI_CONFIG = """
[run]
name = mini
out = {out}
seed = 77

[window]
d = 1
radii = 4 8 12

[grid]
h = 0.015625
R = 20

[targets]
t = 2

[bounds]
dims = 1
convolution_window_d1 = 32

[family:indicator]
family = bspline-indicator
claimed_C = 32
claimed_s = 5

[family:bump]
family = polynomial-bump
s = 5
claimed_C = 1
claimed_s = 5

[family:hat]
family = bspline-order-m
order = 2
claimed_C = 50
claimed_s = 5
"""


@pytest.fixture()
def mini_config(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "mini.ini"
    path.write_text(MINI_CONFIG.format(out=out))
    return str(path), str(out)


def test_load_config_roundtrip(mini_config):
    path, out = mini_config
    settings = cli.load_config(path)
    assert settings.name == "mini"
    assert settings.d == 1
    assert settings.radii == (4, 8, 12)
    assert settings.t == 2
    assert settings.seed == 77
    assert [f.name for f in settings.families] == ["indicator", "bump", "hat"]
    assert settings.out_dir == out


def test_load_config_overrides(mini_config):
    path, _ = mini_config
    settings = cli.load_config(path, out_override="elsewhere", seed_override=5)
    assert settings.out_dir == "elsewhere"
    assert settings.seed == 5


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/nonexistent/run.ini")


def test_missing_section(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[run]\nname = x\n")
    with pytest.raises(ConfigError, match="missing section"):
        cli.load_config(str(path))


def test_boundary_hypothesis_rejected(tmp_path, mini_config):
    path, _ = mini_config
    text = Path(path).read_text().replace("claimed_s = 5", "claimed_s = 3")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(HypothesisViolation, match="s > d\\+t violated"):
        cli.load_config(str(bad))


def test_bad_perturbation_entry(tmp_path, mini_config):
    path, _ = mini_config
    text = Path(path).read_text() + "perturb = nonsense\n"
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="perturbation"):
        cli.load_config(str(bad))


def test_cli_all_and_verify_roundtrip(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["all", "--config", path]) == 0
    report = json.loads(Path(out, "report.json").read_text())
    assert set(report["families"]) == {"indicator", "bump", "hat"}
    assert all(v["passed"] for v in report["invariants"])
    names = {v["name"] for v in report["invariants"]}
    for fragment in ("biorthogonality", "dual_norm_bound", "inverse_norm_bound",
                     "interlacing", "claimed_C", "recursion_bound",
                     "dual_decay_domination", "gram_duals"):
        assert any(fragment in n for n in names), fragment
    assert "convolution_u_stability.d1" in names
    assert os.path.exists(os.path.join(out, "bump", "basis_k0.csv"))
    # indicator family reports unit bounds and tiny residuals
    ind = report["families"]["indicator"]
    assert ind["A_est"] == pytest.approx(1.0, abs=1e-12)
    assert ind["B_est"] == pytest.approx(1.0, abs=1e-12)
    assert ind["biorthogonality_residual"] < 1e-12

    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()


def test_cli_verify_detects_corruption(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["all", "--config", path]) == 0
    coeffs = os.path.join(out, "bump", "coeffs.csv")
    lines = Path(coeffs).read_text().splitlines()
    parts = lines[3].split()
    parts[-1] = repr(float(parts[-1]) + 0.25)
    lines[3] = " ".join(parts)
    Path(coeffs).write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", "--config", path]) == cli.EXIT_INVARIANT
    out_text = capsys.readouterr().out
    assert "biorthogonality" in out_text and "FAIL" in out_text


def test_cli_verify_missing_artifacts(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["verify", "--config", path]) == cli.EXIT_CONFIG
    assert "missing artifact" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, mini_config, capsys):
    path, _ = mini_config
    assert cli.main(["all", "--config", "/nope.ini"]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.ini"
    bad.write_text(Path(path).read_text().replace("claimed_s = 5", "claimed_s = 3"))
    assert cli.main(["all", "--config", str(bad)]) == cli.EXIT_HYPOTHESIS
    capsys.readouterr()
    bad.write_text(Path(path).read_text().replace("claimed_C = 1\n", "claimed_C = 0.5\n"))
    assert cli.main(["all", "--config", str(bad)]) == cli.EXIT_HYPOTHESIS
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("hypothesis violation:") and "C >= 1" in line


def test_python_m_dualdecay_missing_config_exits_config(tmp_path):
    # the package runs from src/ uninstalled, as the tests import it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    missing = str(tmp_path / "missing.ini")
    proc = subprocess.run([sys.executable, "-m", "dualdecay", "all", "--config", missing],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_CONFIG
    assert _one_line(proc.stderr) == f"config error: config file not found: {missing}"


@pytest.mark.parametrize("stage", ["all", "basis"])
def test_cli_unwritable_out_exits_config(mini_config, tmp_path, stage, capsys):
    path, _ = mini_config
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert cli.main([stage, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("artifact error:") and out in line


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_file_in_the_way_exits_config(mini_config, tmp_path, monkeypatch, cpus, capsys):
    # with two writers, bump/basis_k0.csv is the forked writer's job
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: cpus)
    path, _ = mini_config
    out = tmp_path / "out"
    (out / "bump" / "basis_k0.csv").mkdir(parents=True)
    assert cli.main(["all", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("artifact error:") and str(out / "bump" / "basis_k0.csv") in line


def _files(root: str) -> list:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def test_cli_stage_artifacts(mini_config, tmp_path, capsys):
    path, out = mini_config
    assert cli.main(["basis", "--config", path]) == 0
    assert os.path.exists(os.path.join(out, "basis_envelopes.csv"))
    assert cli.main(["duals", "--config", path]) == 0
    for fam in ("indicator", "bump", "hat"):
        assert os.path.exists(os.path.join(out, fam, "gramian.csv"))
        assert os.path.exists(os.path.join(out, fam, "eigens.csv"))
        assert os.path.exists(os.path.join(out, fam, "coeffs.csv"))
    assert cli.main(["bounds", "--config", path]) == 0
    assert os.path.exists(os.path.join(out, "constants.csv"))

    # every stage writes a slice of what `all` writes, byte for byte
    full = str(tmp_path / "all")
    assert cli.main(["all", "--config", path, "--out", full]) == 0
    for stage, count in (("basis", 4), ("gramian", 10), ("duals", 13)):
        part = str(tmp_path / stage)
        assert cli.main([stage, "--config", path, "--out", part]) == 0
        assert len(_files(part)) == count, stage
        for rel in _files(part):
            with open(os.path.join(part, rel), "rb") as a, \
                    open(os.path.join(full, rel), "rb") as b:
                assert a.read() == b.read(), (stage, rel)
    bounds = Path(out, "constants.csv").read_text().splitlines()
    rows = Path(full, "constants.csv").read_text().splitlines()
    assert bounds[0] == rows[0]
    assert bounds[1:] == [r for r in rows
                          if r.startswith(("lattice_sum_bound,", "convolution_discrete,"))]
    capsys.readouterr()


def _recorder(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls = []
    real = getattr(module, name)
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(tuple(np.atleast_1d(v)) if isinstance(v, (tuple, np.ndarray))
                           else v for v in bound.arguments.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_cli_stages_run_each_pipeline_step_once(mini_config, monkeypatch, capsys):
    path, out = mini_config
    sections = _recorder(monkeypatch, gr, "sections")
    assert cli.main(["duals", "--config", path]) == 0
    assert len(sections) == 3  # one assembly per family

    validations = _recorder(monkeypatch, lat, "validate_claimed_envelope")
    profiles = _recorder(monkeypatch, lat, "measure_decay")
    settings = cli.load_config(path)
    grid, window = settings.grid(), lat.LatticeWindow(settings.d, settings.radii[-1])
    n_points = grid.n_points
    # indicator's and hat's duals are profiled on their support grids, bump's on the grid
    support_points = {fam.name: lat.make_basis(fam.spec, window).support_grid(grid).n_points
                      for fam in settings.families}
    assert support_points["bump"] == n_points
    assert support_points["indicator"] < support_points["hat"] < n_points
    # the number of samples each shell-maximum or envelope pass reads
    passes = {"radial_profile": [], "envelope_constant": [], "decay_exponent": []}

    def sizing(real, sizes):
        def call(values, *args, **kwargs):
            sizes.append(np.size(values))
            return real(values, *args, **kwargs)
        return call

    for module in (lat, du, gr):
        for name, sizes in passes.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, sizing(getattr(module, name), sizes))
    assert cli.main(["all", "--config", path]) == 0
    assert len(validations) == 3
    with open(os.path.join(out, "report.json")) as fh:
        cores = {name: fam["core_radius"] for name, fam in json.load(fh)["families"].items()}
    # per family: one profile of the validated origin over the grid, and one
    # per core dual over the family's support grid
    assert len(profiles) == sum(1 + (2 * c + 1) for c in cores.values())
    sizes = [n_points] * len(cores) + [support_points[name] for name, c in cores.items()
                                        for _ in range(2 * c + 1)]
    for n in set(sizes):
        assert passes["radial_profile"].count(n) == sizes.count(n), n
    assert max(passes["envelope_constant"] + passes["decay_exponent"]) < n_points
    capsys.readouterr()


def test_cli_family_stages_accept_two_families(mini_config, tmp_path, capsys):
    path, out = mini_config
    two = tmp_path / "two.ini"
    two.write_text(Path(path).read_text().replace("[family:hat]", "[unused]"))
    assert cli.main(["basis", "--config", str(two)]) == 0
    assert Path(out, "basis_envelopes.csv").read_text().count("\n") == 3
    capsys.readouterr()


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """Text of the mini config, after one `all` run wrote its artifacts."""
    root = tmp_path_factory.mktemp("mini_run")
    path = root / "mini.ini"
    path.write_text(MINI_CONFIG.format(out=root / "out"))
    assert cli.main(["all", "--config", str(path)]) == 0
    return path.read_text()


@pytest.mark.parametrize("old,new", [
    ("h = 0.015625", "h = 0.03125"),
    ("radii = 4 8 12", "radii = 4 12"),
    ("t = 2", "t = 3"),
    ("[family:hat]", "[family:tent]"),
], ids=["grid-h", "radii", "t", "family-names"])
def test_cli_verify_rejects_artifacts_of_another_config(mini_run, tmp_path, old, new,
                                                        capsys):
    other = tmp_path / "other.ini"
    other.write_text(mini_run.replace(old, new))
    assert cli.main(["verify", "--config", str(other)]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and "were written with" in line


def test_cli_verify_ignores_seed_out_and_tolerances(mini_run, tmp_path, capsys):
    out = re.search(r"(?m)^out = (.*)$", mini_run)[1]
    other = tmp_path / "other.ini"
    other.write_text(mini_run.replace("seed = 77", "seed = 5").replace(
        "[bounds]", "[tolerances]\nbound_slack = 1e-5\n\n[bounds]"))
    assert cli.main(["verify", "--config", str(other), "--out", out, "--seed", "9"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key", ["settings", "families", "calibration", "invariants",
                                 None], ids=lambda key: key or "not-json")
def test_cli_verify_rejects_damaged_report(mini_run, tmp_path, key, capsys):
    out = tmp_path / "out"
    shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    report = out / "report.json"
    if key is None:
        report.write_text(report.read_text()[:100])
    else:
        data = json.loads(report.read_text())
        del data[key]
        report.write_text(json.dumps(data))
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and str(report) in line, line
    assert key is None or repr(key) in line, line


def _replace_line(number: int, new):
    """An edit of a text file that replaces line `number` (1-based) by
    new(lines), or drops it when `new` is None."""
    def edit(text):
        lines = text.splitlines()
        lines[number - 1:number] = [] if new is None else [new(lines)]
        return "\n".join(lines) + "\n"
    return edit


def _drop_A_est(text):
    data = json.loads(text)
    del data["families"]["bump"]["A_est"]
    return json.dumps(data)


def _null_A_est(text):
    data = json.loads(text)
    data["families"]["bump"]["A_est"] = None
    return json.dumps(data)


def _core_radius(value):
    """An edit of report.json that sets families.bump.core_radius to `value`."""
    def edit(text):
        data = json.loads(text)
        data["families"]["bump"]["core_radius"] = value
        return json.dumps(data)
    return edit


def _text_passed(text):
    data = json.loads(text)
    data["invariants"][0]["passed"] = "yes"
    return json.dumps(data)


@pytest.mark.parametrize("rel,edit,fragment", [
    ("bump/gramian.csv", _replace_line(626, None), "expected 625 matrix rows, found 624"),
    ("bump/coeffs.csv", _replace_line(4, lambda lines: "-12 -10 abc"),
     "matrix row 3 is not `k j value`: '-12 -10 abc'"),
    ("bump/gramian.csv", _replace_line(6, lambda lines: "40 -8 0.5"),
     "matrix row 5 has a node outside the window N=12"),
    ("bump/eigens.csv", _replace_line(2, lambda lines: lines[1].rsplit(",", 1)[0]),
     "line 2: 2 fields, expected 3"),
    ("report.json", _drop_A_est, "has no 'families.bump.A_est' entry"),
    ("report.json", _null_A_est, "entry 'families.bump.A_est' is not a number: None"),
    ("report.json", _text_passed, "entry 'invariants.0.passed' is not a bool: 'yes'"),
    ("bump/gramian.csv", _replace_line(5, lambda lines: lines[3]),
     "no matrix row for k j = '-12 -9', more than one for '-12 -10'"),
] + [("report.json", _core_radius(value),
      f"entry 'families.bump.core_radius' is not an integer in [0, 12]: {value!r}")
     for value in (-1, 99, 1e300, 2.5)],
    ids=["gramian-truncated", "coeffs-non-numeric", "node-outside-window",
         "eigens-short-row", "nested-report-key", "nested-report-null",
         "invariant-passed-text", "gramian-row-repeated", "core-radius-negative",
         "core-radius-over-window", "core-radius-huge", "core-radius-fraction"])
def test_cli_verify_rejects_malformed_artifact(mini_run, tmp_path, rel, edit, fragment,
                                               capsys):
    out = tmp_path / "out"
    shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    damaged = out / rel
    damaged.write_text(edit(damaged.read_text()))
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and str(damaged) in line, line
    assert fragment in line, line


def test_cli_run_verify_and_duals_stage_agree_on_residuals(mini_run, tmp_path, capsys):
    out = re.search(r"(?m)^out = (.*)$", mini_run)[1]
    report = json.loads(Path(out, "report.json").read_text())
    in_run = {v["name"]: v["value"] for v in report["invariants"]}
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    settings = cli.load_config(str(config))
    checked = [v for v in artifacts.verify_artifacts(settings)
               if v.name.endswith((".biorthogonality", ".gram_duals"))]
    assert len(checked) == 2 * len(report["families"])
    for v in checked:
        assert v.value == in_run[v.name], v.name

    capsys.readouterr()
    assert cli.main(["duals", "--config", str(config), "--out", str(tmp_path / "duals")]) == 0
    printed = {name: (float(biorth), float(gram)) for name, biorth, gram in re.findall(
        r"duals stage: (\S+): core=\d+ biorthogonality=(\S+) gram_duals=(\S+)",
        capsys.readouterr().out)}
    assert printed == {name: (fam["biorthogonality_residual"], fam["gram_duals_residual"])
                       for name, fam in report["families"].items()}


@pytest.mark.parametrize("stage", ["report", "all"])
def test_cli_family_count_checked_before_any_family(mini_config, tmp_path, monkeypatch,
                                                    stage, capsys):
    path, _ = mini_config
    two = tmp_path / "two.ini"
    two.write_text(Path(path).read_text().replace("[family:hat]", "[unused]"))
    computed = _recorder(monkeypatch, pl, "run_family")
    assert cli.main([stage, "--config", str(two)]) == cli.EXIT_CONFIG
    assert computed == []
    assert ">= 3 families" in _one_line(capsys.readouterr().err)


def test_cli_runs_are_bit_identical(mini_config, tmp_path, capsys):
    path, _ = mini_config
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["all", "--config", path, "--out", out_a]) == 0
    assert cli.main(["all", "--config", path, "--out", out_b]) == 0
    capsys.readouterr()
    for root, _, files in os.walk(out_a):
        for name in files:
            if name == "report.json":
                continue  # carries timings
            a = os.path.join(root, name)
            b = a.replace(out_a, out_b, 1)
            assert Path(a).read_bytes() == Path(b).read_bytes(), name


def test_shipped_suite_artifacts_hold_no_numpy_reprs(tmp_path, capsys):
    # every float is written as its Python repr, never as np.float64(...)
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "d1_suite.ini")
    assert cli.main(["all", "--config", config, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = [os.path.join(root, name) for root, _, names in os.walk(tmp_path)
               for name in names]
    assert any(path.endswith("calibration.txt") for path in written)
    for path in written:
        assert "np." not in Path(path).read_text(), path


def test_shipped_config_parses(tmp_path):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "d1_suite.ini")
    settings = cli.load_config(config, out_override=str(tmp_path))
    assert settings.d == 1
    assert settings.radii == (4, 8, 12, 16)
    assert len(settings.families) == 5


def _one_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


def test_cli_claimed_envelope_exceeded_exits_invariant(tmp_path, capsys):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "d1_suite.ini")
    text = re.sub(r"(?m)^claimed_C = .*$", "claimed_C = 1.5", Path(config).read_text())
    bad = tmp_path / "claimed.ini"
    bad.write_text(text)
    assert cli.main(["all", "--config", str(bad), "--out", str(tmp_path / "out")]) \
        == cli.EXIT_INVARIANT
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("invariant failure:") and "exceeds claimed" in line


NOT_RIESZ_CONFIG = """
[run]
name = not-riesz
out = {out}

[window]
d = 1
radii = 1 2

[grid]
h = 0.25
R = 10

[targets]
t = 2

[family:needle]
family = gaussian
sigma = 0.001
claimed_C = 1
claimed_s = 4
perturb = 0:0.1

[family:indicator]
family = bspline-indicator
claimed_C = 32
claimed_s = 4

[family:bump]
family = polynomial-bump
s = 4
claimed_C = 1
claimed_s = 4
"""


def test_cli_not_riesz_exits_hypothesis(tmp_path, capsys):
    # a needle shifted off the grid samples to zero: the section has a zero row
    path = tmp_path / "not_riesz.ini"
    path.write_text(NOT_RIESZ_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["report", "--config", str(path)]) == cli.EXIT_HYPOTHESIS
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("hypothesis violation:") and "not a Riesz sequence" in line


SAMPLE_CAP_CONFIG = """
[run]
name = over-cap
out = {out}

[window]
d = 2
radii = 1 16

[grid]
h = 0.125
R = 24

[targets]
t = 3

[family:indicator]
family = bspline-indicator
claimed_C = 64
claimed_s = 6

[family:bump]
family = polynomial-bump
s = 7
claimed_C = 1
claimed_s = 6

[family:gauss]
family = gaussian
sigma = 0.5
claimed_C = 6
claimed_s = 6
"""


def test_cli_sample_cap_exits_config_before_allocating(tmp_path, capsys):
    # 1089 window nodes x 148225 grid points would be a 1.3 GB sample matrix
    path = tmp_path / "over_cap.ini"
    path.write_text(SAMPLE_CAP_CONFIG.format(out=tmp_path / "out"))
    tracemalloc.start()
    try:
        code = cli.main(["report", "--config", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_CONFIG
    assert peak < 64e6
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and "8e7 cap" in line


@pytest.mark.parametrize("old,new,stage,fragment", [
    ("d = 1", "d = one", "all", "[window] d:"),
    ("[bounds]", "[tolerances]\ninversion = tight\n\n[bounds]", "all",
     "[tolerances] inversion:"),
    ("dims = 1", "dims = one", "all", "[bounds] dims:"),
    ("convolution_window_d1 = 32", "convolution_window_d1 = wide", "all",
     "[bounds] convolution_window_d1:"),
    ("convolution_window_d1 = 32", "convolution_window_dx = 32", "all",
     "[bounds] convolution_window_dx:"),
    ("order = 2", "order = 2.5", "all", "[family:hat] order:"),
    ("h = 0.015625", "h = 0.5", "all", "grid spacing"),
    ("claimed_C = 32\n", "claimed_C = 32\nperturb = 40:0.3\n", "all",
     "perturbed node (40,)"),
    ("[family:hat]", "[unused]", "report", ">= 3 families"),
    ("[family:hat]", "[unused]", "all", ">= 3 families"),
    ("[bounds]", "[tolerances]\ninverson = 1e-6\n\n[bounds]", "all",
     "unknown tolerance 'inverson'"),
    ("[bounds]", "[tolerances]\nleibniz = 1e-13\n\n[bounds]", "all",
     "unknown tolerance 'leibniz'"),
    ("[bounds]", "[tolerances]\nschur_slack = 1e-10\n\n[bounds]", "all",
     "unknown tolerance 'schur_slack'"),
    ("radii = 4 8 12", "radii = -1 2", "all", "radii must be >= 0"),
    ("R = 20", "R = inf", "all", "grid extent must be positive with R/h finite"),
    ("dims = 1", "dims = 0", "all", "bounds dims must be >= 1"),
    ("[bounds]", "[tolerances]\ninversion = nan\n\n[bounds]", "all",
     "all tolerances must be positive and finite"),
    ("convolution_window_d1 = 32", "convolution_window_d1 = -5", "bounds",
     "convolution_window_d1 must be >= 1, got -5"),
    ("convolution_window_d1 = 32", "convolution_window_d1 = 0", "bounds",
     "convolution_window_d1 must be >= 1, got 0"),
], ids=["window-d", "tolerance", "bounds-dims", "convolution-window", "window-suffix",
        "order", "grid-h", "perturbed-outside", "two-families-report",
        "two-families-all", "tolerance-typo", "tolerance-removed", "schur-slack-removed",
        "negative-radius", "infinite-extent", "zero-bounds-dim", "nan-tolerance",
        "negative-convolution-window", "zero-convolution-window"])
def test_cli_malformed_config_exits_config(mini_config, tmp_path, old, new, stage,
                                           fragment, capsys):
    path, out = mini_config
    text = Path(path).read_text()
    assert old in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new, 1))
    assert cli.main([stage, "--config", str(bad)]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and fragment in line, line
    assert not os.path.exists(out)


# --- fuzzed configs -----------------------------------------------------------

# MINI_CONFIG on a coarser grid and with a smaller convolution window, so that
# a config the fuzz leaves valid runs `all` in about 0.1 s
FUZZ_BASE = configparser.ConfigParser(interpolation=None)
FUZZ_BASE.read_string(MINI_CONFIG.replace("h = 0.015625", "h = 0.125")
                      .replace("convolution_window_d1 = 32", "convolution_window_d1 = 8"))
# values that keep the grid and the window small: the sample cap bounds the
# memory of a valid config, not its run time
_NON_NUMERIC = st.text(alphabet="abxyz.,:-+ e", max_size=4)
_FLOATS = st.sampled_from(["0", "-1", "0.5", "1e-3", "nan", "inf", "-inf", "1e300"])
_RADII = st.one_of(
    st.sampled_from(["4 8 12", "2 4 6", "0 1", "-1 2", "8 4", "12"]),
    st.lists(st.integers(-2, 14), max_size=4).map(lambda r: " ".join(map(str, r))))
_PERTURBATION = st.lists(
    st.tuples(st.sampled_from(["0", "1", "-2", "13", "0,1", "a", ""]),
              st.sampled_from(["0.25", "-0.125", "0.5", "0.6", "nan", "inf", "x",
                               "0.1,0.2", ""])).map(":".join),
    min_size=1, max_size=3).map("; ".join)
_NUMERIC_KEYS = [("window", "d"), ("window", "radii"), ("grid", "h"), ("grid", "R"),
                 ("targets", "t"), ("tolerances", "inversion"), ("bounds", "dims"),
                 ("family:indicator", "claimed_C"), ("family:bump", "s"),
                 ("family:hat", "order")]
_EDITS = st.one_of(
    st.tuples(st.just("window"), st.just("radii"), _RADII),
    st.tuples(st.just("grid"), st.just("h"), st.sampled_from(
        ["0.25", "0.0625", "0.3", "0", "-0.125", "nan", "inf", "1e-320"])),
    st.tuples(st.just("grid"), st.just("R"), st.sampled_from(
        ["16", "24.5", "3", "0", "-5", "nan", "inf", "1e300", "4e307"])),
    st.tuples(st.sampled_from(["family:indicator", "family:bump", "family:hat"]),
              st.just("perturb"), _PERTURBATION),
    st.tuples(st.sampled_from(["targets", "bounds"]), st.sampled_from(["t", "dims"]),
              st.sampled_from(["-1", "0", "1", "3"])),
    st.tuples(st.sampled_from(["family:indicator", "family:bump", "family:hat",
                               "tolerances"]),
              st.sampled_from(["claimed_C", "claimed_s", "s", "inversion"]), _FLOATS),
    st.tuples(st.sampled_from(["window", "family:hat"]), st.sampled_from(["d", "order"]),
              st.sampled_from(["0", "-1", "2.5"])),
    st.sampled_from(_NUMERIC_KEYS).flatmap(lambda key: st.tuples(*map(st.just, key),
                                                                 _NON_NUMERIC)),
    # a missing key
    st.tuples(st.sampled_from(["window", "grid", "targets", "family:bump", "family:hat"]),
              st.sampled_from(["radii", "h", "R", "t", "family", "claimed_C", "s", "order"]),
              st.none()),
)


@st.composite
def fuzzed_configs(draw) -> dict:
    """FUZZ_BASE with one to three keys set to fuzzed text or removed."""
    cfg = {name: dict(FUZZ_BASE[name]) for name in FUZZ_BASE.sections()}
    for name, key, value in draw(st.lists(_EDITS, min_size=1, max_size=3)):
        if value is None:
            cfg[name].pop(key, None)
        else:
            cfg.setdefault(name, {})[key] = value
    return cfg


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cfg=fuzzed_configs())
def test_cli_fuzzed_config_keeps_exit_code_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg["run"]["out"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w") as fh:
            for name, keys in cfg.items():
                fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["all", "--config", path])
    # a warning reaches the stderr of a real run
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_HYPOTHESIS, cli.EXIT_CONVERGENCE,
                    cli.EXIT_INVARIANT), (code, lines)
    assert not any("Traceback" in line for line in lines), lines
    if code in (cli.EXIT_CONFIG, cli.EXIT_HYPOTHESIS, cli.EXIT_CONVERGENCE):
        assert len(lines) == 1, lines
    if code == 0:
        assert lines == [], lines
