import configparser
import contextlib
import errno
import importlib
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
from dualdecay import constants as cst
from dualdecay import duals as du
from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import ConfigError, HypothesisViolation

from conftest import grid_points

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
    assert os.path.exists(os.path.join(out, "bump", "basis_k0.npy"))
    # indicator family reports unit bounds and tiny residuals
    ind = report["families"]["indicator"]
    assert ind["A_est"] == pytest.approx(1.0, abs=1e-12)
    assert ind["B_est"] == pytest.approx(1.0, abs=1e-12)
    assert ind["biorthogonality_residual"] < 1e-12

    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()


def test_cli_verify_reads_no_sample_export(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["all", "--config", path]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--config", path]) == 0
    before = capsys.readouterr().out
    samples = [p for p in Path(out).rglob("*.npy") if p.name == "basis_k0.npy"
               or p.name.startswith("dual_k")]
    assert len(samples) == 6
    for sample in samples:
        sample.unlink()
    assert cli.main(["verify", "--config", path]) == 0
    assert capsys.readouterr().out == before


def test_cli_verify_detects_corruption(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["all", "--config", path]) == 0
    coeffs = os.path.join(out, "bump", "coeffs.npy")
    entries = np.load(coeffs, allow_pickle=False)
    entries[0, 2] = entries[2, 0] = entries[0, 2] + 0.25  # still symmetric
    np.save(coeffs, entries, allow_pickle=False)
    assert cli.main(["verify", "--config", path]) == cli.EXIT_INVARIANT
    out_text = capsys.readouterr().out
    assert "biorthogonality" in out_text and "FAIL" in out_text


def _double_D_emp_at_t(text):
    """envelopes.csv with D_emp doubled on every row at u = t = 2."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        k, u, const = line.split(",")
        if float(u) == 2.0:
            lines[i] = ",".join([k, u, repr(2 * float(const))])
    return "\n".join(lines) + "\n"


def _middle_lambda_min_below_last(text):
    """eigens.csv of radii 4 8 12 with lambda_min at 8 set to half the last one."""
    lines = text.splitlines()
    N, _, hi = lines[2].split(",")
    lines[2] = ",".join([N, repr(float(lines[3].split(",")[1]) / 2), hi])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("check", ["interlacing", "dual_decay_domination"])
def test_cli_verify_rechecks_stored_eigens_and_envelopes(mini_run, tmp_path, check, capsys):
    out = tmp_path / "out"
    shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    report = json.loads((out / "report.json").read_text())
    if check == "interlacing":
        family, rel, edit = "bump", "eigens.csv", _middle_lambda_min_below_last
    else:
        family, rel, edit = report["calibration"]["E_binding"], "envelopes.csv", \
            _double_D_emp_at_t
    damaged = out / family / rel
    damaged.write_text(edit(damaged.read_text()))
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == \
        cli.EXIT_INVARIANT
    failed = re.findall(r"(?m)^\[FAIL\] ([^:]+):", capsys.readouterr().out)
    # the binding family's doubled D_emp also needs a larger E than the stored one
    assert failed == [f"{family}.{check}"] + ["E_emp_consistent"] * (check != "interlacing")


@pytest.mark.parametrize("case", ["d1", "d1-raised-E", "d2"])
def test_cli_verify_calibrates_E_again(mini_run, tmp_path, case, capsys):
    """`verify` calibrates E again from the stored D_emp at t, C_meas, s and
    A.  A raised E_emp in report.json passes every dual_decay_domination (a
    larger E only raises each D), so E_emp_consistent is the check that
    fails; untouched artifacts pass it, and those of a d=2 run fail only
    stored_verdicts_pass, the echo of its red convolution verdict."""
    config, out = tmp_path / "run.ini", tmp_path / "out"
    if case == "d2":
        config.write_text(D2_TINY_CONFIG)
        assert cli.main(["all", "--config", str(config), "--out", str(out)]) == \
            cli.EXIT_INVARIANT
    else:
        config.write_text(mini_run)
        shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    if case == "d1-raised-E":
        report = json.loads((out / "report.json").read_text())
        assert report["calibration"]["E_emp"] < 0.99
        report["calibration"]["E_emp"] = 0.99
        (out / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    code = cli.main(["verify", "--config", str(config), "--out", str(out)])
    printed = capsys.readouterr().out
    expected = {"d1": [], "d1-raised-E": ["E_emp_consistent"],
                "d2": ["stored_verdicts_pass"]}[case]
    assert re.findall(r"(?m)^\[FAIL\] ([^:]+):", printed) == expected
    assert code == (cli.EXIT_INVARIANT if expected else 0)
    assert ("[pass] E_emp_consistent:" in printed) == (case != "d1-raised-E")


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


def test_cli_file_in_the_way_exits_config(mini_config, tmp_path, capsys):
    path, _ = mini_config
    out = tmp_path / "out"
    (out / "bump" / "basis_k0.npy").mkdir(parents=True)
    assert cli.main(["all", "--config", path, "--out", str(out)]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("artifact error:") and str(out / "bump" / "basis_k0.npy") in line


def test_cli_full_disk_names_the_bounds_file(mini_config, monkeypatch, capsys):
    def full(path, lines):
        raise OSError(errno.ENOSPC, "No space left on device")

    path, out = mini_config
    monkeypatch.setattr(artifacts, "_write_lines", full)
    assert cli.main(["bounds", "--config", path]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("artifact error:") and os.path.join(out, "constants.csv") in line


def _files(root: str) -> list:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def test_cli_dual_export_radius_adds_the_core_duals_alone(mini_config, tmp_path, capsys):
    # at the window radius every core dual is exported; no other file changes
    path, _ = mini_config
    wide = tmp_path / "wide.ini"
    wide.write_text(Path(path).read_text().replace(
        "seed = 77", "seed = 77\ndual_export_radius = 12", 1))
    files = {}
    for name, config in (("default", path), ("wide", str(wide))):
        out = tmp_path / name
        assert cli.main(["all", "--config", config, "--out", str(out)]) == 0
        files[name] = {rel: (out / rel).read_bytes() for rel in _files(str(out))}
    capsys.readouterr()
    report = json.loads(files["wide"]["report.json"])
    duals = set()
    for fam, record in report["families"].items():
        r = record["core_radius"]
        assert r > 0, fam
        duals |= {os.path.join(fam, f"dual_k{k}.npy") for k in range(-r, r + 1)}
    assert {rel for rel in files["wide"] if "dual_k" in rel} == duals
    assert set(files["wide"]) == set(files["default"]) | duals
    for rel, data in files["default"].items():
        if rel != "report.json":  # its timings differ
            assert files["wide"][rel] == data, rel


def test_cli_stage_artifacts(mini_config, tmp_path, capsys):
    path, out = mini_config
    assert cli.main(["basis", "--config", path]) == 0
    assert os.path.exists(os.path.join(out, "basis_envelopes.csv"))
    assert cli.main(["duals", "--config", path]) == 0
    for fam in ("indicator", "bump", "hat"):
        assert os.path.exists(os.path.join(out, fam, "gramian.npy"))
        assert os.path.exists(os.path.join(out, fam, "eigens.csv"))
        assert os.path.exists(os.path.join(out, fam, "coeffs.npy"))
    assert cli.main(["bounds", "--config", path]) == 0
    assert os.path.exists(os.path.join(out, "constants.csv"))

    # every stage writes a slice of what `all` writes, byte for byte
    full = str(tmp_path / "all")
    assert cli.main(["all", "--config", path, "--out", full]) == 0
    capsys.readouterr()
    # by default only the origin dual of each family is exported
    assert [f for f in _files(full) if "dual_k" in f] == \
        sorted(os.path.join(fam, "dual_k0.npy") for fam in ("indicator", "bump", "hat"))
    for stage, count in (("basis", 4), ("gramian", 10), ("duals", 13)):
        part = str(tmp_path / stage)
        assert cli.main([stage, "--config", path, "--out", part]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"{stage} stage: wrote {part}"
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

    measured = _recorder(monkeypatch, pl, "measure_basis")
    fits = _recorder(monkeypatch, lat, "measure_decay")
    settings = cli.load_config(path)
    grid, window = settings.grid(), lat.LatticeWindow(settings.d, settings.radii[-1])
    n_points = grid.n_points
    # indicator's and hat's duals are fitted on their support grids, bump's on the grid
    support_points = {fam.name: lat.BasisSet(fam.spec, window).support_grid(grid).n_points
                      for fam in settings.families}
    assert support_points["bump"] == n_points
    assert support_points["indicator"] < support_points["hat"] < n_points
    # the number of samples each envelope fit reads
    passes = {"envelope_constant": [], "decay_exponent": []}

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
    assert len(measured) == 3
    with open(os.path.join(out, "report.json")) as fh:
        cores = {name: fam["core_radius"] for name, fam in json.load(fh)["families"].items()}
    # per family: one measure_decay of the validated origin and one per core
    # dual, each over the family's support grid
    sizes = [support_points[name] for name, c in cores.items() for _ in range(2 * c + 2)]
    assert sorted(len(values) for values, *_ in fits) == sorted(sizes)
    # no fit reads more than the samples of one function on the grid
    assert max(passes["envelope_constant"] + passes["decay_exponent"]) == n_points
    capsys.readouterr()


def test_cli_family_stages_call_the_pipeline_steps(mini_config, monkeypatch, capsys):
    """The family stages are slices of run_family: basis measures each family,
    gramian builds its matrices and duals and all also invert them, each
    through the pipeline's own step, once per family."""
    path, _ = mini_config
    steps = {name: _recorder(monkeypatch, pl, name)
             for name in ("measure_basis", "family_matrices", "family_inverse")}
    per_stage = {"basis": (1, 0, 0), "gramian": (1, 1, 0), "duals": (1, 1, 1),
                 "all": (1, 1, 1)}
    for stage, counts in per_stage.items():
        for calls in steps.values():
            calls.clear()
        assert cli.main([stage, "--config", path]) == 0
        for (name, calls), count in zip(steps.items(), counts):
            assert [fam.name for fam, *_ in calls] == ["indicator", "bump", "hat"] * count, \
                (stage, name)
    capsys.readouterr()


def test_cli_all_samples_each_checked_node_once(mini_config, monkeypatch, capsys):
    # the indicator is perturbed at its origin and at node 3, its two checked
    # nodes; the other families have one, the origin
    path, out = mini_config
    text = Path(path).read_text().replace(
        "claimed_C = 32\n", "claimed_C = 64\nperturb = 0:0.25; 3:-0.25\n", 1)
    Path(path).write_text(text)
    calls = []
    real = lat.BasisSet.sample

    def recording(self, k, grid):
        calls.append((self.spec, tuple(np.atleast_1d(k).tolist())))
        return real(self, k, grid)

    monkeypatch.setattr(lat.BasisSet, "sample", recording)
    assert cli.main(["all", "--config", path]) == 0
    settings = cli.load_config(path)
    checked = {"indicator": [(0,), (3,)], "bump": [(0,)], "hat": [(0,)]}
    for fam in settings.families:
        assert sorted(k for spec, k in calls if spec == fam.spec) == checked[fam.name], fam.name
    assert len(calls) == 4
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


@pytest.mark.parametrize("old,new,key", [
    ("h = 0.015625", "h = 0.03125", "grid_h"),
    ("radii = 4 8 12", "radii = 4 12", "radii"),
    ("t = 2", "t = 3", "t"),
    ("[family:hat]", "[family:tent]", "families"),
    ("dims = 1", "dims = 1 2", "bounds_dims"),
    ("claimed_C = 50", "claimed_C = 60", "families.hat.claimed_C"),
    ("order = 2", "order = 3", "families.hat.params"),
    ("claimed_C = 50", "claimed_C = 50\nperturb = 0:0.25", "families.hat.perturbations"),
    ("claimed_C = 32\nclaimed_s = 5", "claimed_C = 32\nclaimed_s = 5.5",
     "families.indicator.claimed_s"),
    ("family = bspline-indicator", "family = polynomial-bump\ns = 5",
     "families.indicator.family"),
    ("s = 5\nclaimed_C = 1", "s = 6\nclaimed_C = 1", "families.bump.params"),
], ids=["grid-h", "radii", "t", "family-names", "bounds-dims", "claimed-C", "order",
        "perturbation", "claimed-s", "family-kind", "bump-s"])
def test_cli_verify_rejects_artifacts_of_another_config(mini_run, tmp_path, old, new, key,
                                                        capsys):
    other = tmp_path / "other.ini"
    assert mini_run.count(old) == 1
    other.write_text(mini_run.replace(old, new))
    assert cli.main(["verify", "--config", str(other)]) == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and f"were written with {key} = " in line, line


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


def _envelopes_at_t(value):
    """An edit of envelopes.csv (t = 2) that sets D_emp to `value` on every
    row at t, or drops those rows when `value` is None."""
    def edit(text):
        header, *rows = text.splitlines()
        out = [header]
        for row in rows:
            k, u, c = row.split(",")
            if float(u) == 2.0:
                if value is None:
                    continue
                c = value
            out.append(",".join((k, u, c)))
        return "\n".join(out) + "\n"
    return edit


def _npy(array) -> bytes:
    """The .npy bytes of `array`; an object array is pickled."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=array.dtype == object)
    return buf.getvalue()


def _npy_edit(edit):
    """An edit of a stored .npy matrix: the .npy bytes of edit(entries)."""
    return lambda data: _npy(edit(np.load(io.BytesIO(data), allow_pickle=False)))


def _repeat_row(entries):
    entries[4] = entries[3]
    return entries


def _one_ulp_off_diagonal(entries):
    entries[0, 1] = np.nextafter(entries[0, 1], np.inf)
    return entries


def _nan_pair(entries):
    entries[0, 1] = entries[1, 0] = np.nan
    return entries


def _inf_on_diagonal(entries):
    entries[3, 3] = np.inf
    return entries


def _huge_header(data):
    """A .npy header that claims a 300000 x 300000 float64 array (671 GiB),
    then the stored file."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (300000, 300000)})
    return buf.getvalue() + data


_NOT_25x25 = "not <f8 of shape (25, 25) in C order for the window d=1 N=12"


def _envelopes_with_exponent_fit(text):
    """envelopes.csv in the earlier `k,t,D_emp,exponent_fit` format."""
    header, *rows = text.splitlines()
    return "\n".join([header + ",exponent_fit"] + [row + ",4.5" for row in rows]) + "\n"


@pytest.mark.parametrize("rel,edit,fragment", [
    ("bump/gramian.npy", lambda data: data[:-8],
     "does not hold exactly the 625 entries its header gives"),
    ("bump/coeffs.npy", _npy_edit(lambda entries: entries.astype(object)),
     f"holds a |O array of shape (25, 25), {_NOT_25x25}"),
    # the matrix of the window N=13, whose outer nodes are outside N=12
    ("bump/gramian.npy", _npy_edit(lambda entries: np.eye(27)),
     f"holds a <f8 array of shape (27, 27), {_NOT_25x25}"),
    ("bump/eigens.csv", _replace_line(2, lambda lines: lines[1].rsplit(",", 1)[0]),
     "line 2: 2 fields, expected 3"),
    ("report.json", _drop_A_est, "has no 'families.bump.A_est' entry"),
    ("report.json", _null_A_est, "entry 'families.bump.A_est' is not a number: None"),
    ("report.json", _text_passed, "entry 'invariants.0.passed' is not a bool: 'yes'"),
    ("bump/gramian.npy", _npy_edit(_repeat_row), "entries are not exactly Hermitian"),
] + [("report.json", _core_radius(value),
      f"entry 'families.bump.core_radius' is not an integer in [0, 12]: {value!r}")
     for value in (-1, 99, 1e300, 2.5)] + [
    (rel, _npy_edit(lambda entries: np.ones((1, 1))),
     f"holds a <f8 array of shape (1, 1), {_NOT_25x25}")
    for rel in ("bump/gramian.npy", "bump/coeffs.npy",
                ("bump/gramian.npy", "bump/coeffs.npy"))] + [
    ("bump/eigens.csv", _replace_line(4, lambda lines, value=value: f"12,{value},2.0"),
     f"line 4: lambda_min {value} is not positive") for value in ("0.0", "-0.5")] + [
    ("bump/eigens.csv", _replace_line(3, None),
     "holds sections at radii (4, 12), the config's are (4, 8, 12)"),
    ("bump/eigens.csv", _replace_line(3, lambda lines: "6," + lines[2].split(",", 1)[1]),
     "holds sections at radii (4, 6, 12), the config's are (4, 8, 12)"),
    ("bump/envelopes.csv", _envelopes_at_t("nan"),
     "line 2: D_emp nan at t=2 is not a finite number >= 0"),
    ("bump/envelopes.csv", _envelopes_at_t("-0.5"),
     "line 2: D_emp -0.5 at t=2 is not a finite number >= 0"),
    ("bump/envelopes.csv", _envelopes_at_t(None), "holds 0 rows at t=2, the core of radius"),
    # bump's core is -2..2; lines 2 and 4 hold nodes -2 and -1 at t
    ("bump/envelopes.csv", _replace_line(4, lambda lines: lines[1]),
     "line 4: node '-2' at t=2 has a second row"),
    ("bump/envelopes.csv", _replace_line(2, lambda lines: "3" + lines[1][2:]),
     "line 2: node '3' at t=2 is not in the core of radius 2"),
    ("bump/envelopes.csv", _envelopes_with_exponent_fit, "line 2: 4 fields, expected 3"),
    ("bump/gramian.npy", lambda data: b"", "not a .npy matrix: EOF: reading magic string"),
    ("bump/gramian.npy", lambda data: data + b"\xff",
     "does not hold exactly the 625 entries its header gives"),
    # the earlier `k j value` text format under the new name
    ("bump/gramian.npy", lambda data: b"1 12 1\n-12 -12 1.0\n",
     "not a .npy matrix: the magic string is not correct"),
    ("bump/gramian.npy", _npy_edit(np.asfortranarray),
     f"holds a <f8 array of shape (25, 25) in Fortran order, {_NOT_25x25}"),
    ("bump/gramian.npy", _huge_header, f"holds a <f8 array of shape (300000, 300000), "
                                       f"{_NOT_25x25}"),
    ("bump/coeffs.npy", _npy_edit(_one_ulp_off_diagonal),
     "entries are not exactly Hermitian")] + [
    ("bump/coeffs.npy", _npy_edit(lambda entries, dtype=dtype: entries.astype(dtype)),
     f"holds a {np.dtype(dtype).str} array of shape (25, 25), {_NOT_25x25}")
    for dtype in ("float32", "int64", "complex128", ">f8")] + [
    ("bump/gramian.npy", _npy_edit(_nan_pair), "holds an entry that is NaN or infinite"),
    ("hat/coeffs.npy", _npy_edit(_inf_on_diagonal), "holds an entry that is NaN or infinite")],
    ids=["gramian-truncated", "coeffs-non-numeric", "node-outside-window",
         "eigens-short-row", "nested-report-key", "nested-report-null",
         "invariant-passed-text", "gramian-row-repeated", "core-radius-negative",
         "core-radius-over-window", "core-radius-huge", "core-radius-fraction",
         "gramian-1x1", "coeffs-1x1", "both-matrices-1x1", "lambda-min-zero",
         "lambda-min-negative", "eigens-radius-dropped", "eigens-radius-changed",
         "D-emp-nan", "D-emp-negative", "D-emp-rows-at-t-dropped",
         "D-emp-node-overwritten-by-neighbour", "D-emp-node-outside-core",
         "envelopes-four-fields", "gramian-empty", "gramian-trailing-byte",
         "gramian-text-format", "gramian-fortran-order", "gramian-header-300000x300000",
         "coeffs-one-ulp-asymmetric", "coeffs-float32", "coeffs-int64",
         "coeffs-complex128", "coeffs-big-endian", "gramian-nan-pair",
         "coeffs-inf-on-diagonal"])
def test_cli_verify_rejects_malformed_artifact(mini_run, tmp_path, rel, edit, fragment,
                                               capsys):
    # `rel` is the damaged file, or several of them, the first named
    out = tmp_path / "out"
    shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    rels = [rel] if isinstance(rel, str) else rel
    for each in rels:
        path = out / each
        if path.suffix == ".npy":
            path.write_bytes(edit(path.read_bytes()))
        else:
            path.write_text(edit(path.read_text()))
    damaged = out / rels[0]
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and str(damaged) in line, line
    assert fragment in line, line


@pytest.mark.parametrize("rel", ["bump/eigens.csv", "bump/envelopes.csv", "report.json"])
def test_cli_verify_rejects_non_utf8_artifact(mini_run, tmp_path, rel, capsys):
    out = tmp_path / "out"
    shutil.copytree(re.search(r"(?m)^out = (.*)$", mini_run)[1], out)
    with open(out / rel, "ab") as fh:
        fh.write(b"\xff")
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("config error:") and str(out / rel) in line, line
    assert "not UTF-8 text" in line, line


def test_cli_run_verify_and_duals_stage_agree_on_residuals(mini_run, tmp_path, capsys):
    out = re.search(r"(?m)^out = (.*)$", mini_run)[1]
    report = json.loads(Path(out, "report.json").read_text())
    matrix = (".biorthogonality", ".gram_duals", ".dual_norm_bound", ".inverse_norm_bound",
              ".interlacing")
    in_run = [(v["name"], v["passed"], v["value"], v["threshold"], v["detail"])
              for v in report["invariants"] if v["name"].endswith(matrix)]
    config = tmp_path / "mini.ini"
    config.write_text(mini_run)
    settings = cli.load_config(str(config))
    checked = [(v.name, v.passed, v.value, v.threshold, v.detail)
               for v in artifacts.verify_artifacts(settings) if v.name.endswith(matrix)]
    assert len(checked) == 5 * len(report["families"])
    # bit for bit, and in the same order per family
    assert checked == sorted(in_run, key=lambda v: v[0].split(".")[0])

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


def test_cli_all_runs_alike_under_the_benchmark_tracer(mini_config, tmp_path, monkeypatch,
                                                      capsys):
    """The benchmark's tracer (dualbench/spans.py) wraps the layer functions
    by name and reads their parameters by name: `all` under it exits as
    without it, records the work counts the benchmark reports, and
    uninstall() puts every original back."""
    path, _ = mini_config
    # `all` reads the d = 1 brackets from the table; d = 3's are scanned
    bounds = tmp_path / "dims13.ini"
    bounds.write_text(Path(path).read_text().replace("dims = 1", "dims = 1 3"))
    plain = cli.main(["all", "--config", path])
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "dualbench"))
    spans = importlib.import_module("spans")
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dualdecay"]
    before = [dict(vars(m)) for m in modules]
    methods = [(lat.BasisSet, "sample_all"), (gr.DecayMatrix, "to_text"),
               (gr.DecayMatrix, "from_text")]
    raw = [cls.__dict__[attr] for cls, attr in methods]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cst.w_sum is not before[modules.index(cst)]["w_sum"]
        traced = cli.main(["all", "--config", path, "--out", str(tmp_path / "traced")])
        scanned = cli.main(["bounds", "--config", str(bounds), "--out", str(tmp_path / "b")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert traced == plain == scanned == 0
    summary = spans.summarize(tracer.records())
    for name, count in (("gramian.assemble", "assembled_products"),
                        ("constants.verify_convolution_discrete", "pairs"),
                        ("constants.w_sum", "shells"),
                        ("lattice.sample_all", "sampled_entries")):
        assert summary[name]["calls"] > 0 and summary[name]["counts"][count] > 0, name
    for module, was in zip(modules, before):
        now = vars(module)
        assert now.keys() == was.keys() and all(now[k] is v for k, v in was.items()), module
    assert [cls.__dict__[attr] for cls, attr in methods] == raw


def test_cli_failed_verdicts_print_one_stderr_line(tmp_path, monkeypatch, capsys):
    """`all` and `verify` on the benchmark's d=2 indicator config exit 5 and
    print, besides their verdict lines on stdout, one stderr line that counts
    the failed checks and names the first."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "dualbench"))
    config = tmp_path / "d2_indicator.ini"
    config.write_text(importlib.import_module("workloads").d2_indicator_config(11))
    for stage, first in (("all", "convolution_u_stability.d2"),
                         ("verify", "stored_verdicts_pass")):
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path / "out")]) \
            == cli.EXIT_INVARIANT
        printed = capsys.readouterr()
        checks = re.findall(r"(?m)^\[(pass|FAIL)\] ([^:]+):", printed.out)
        failed = [name for mark, name in checks if mark == "FAIL"]
        assert failed[0] == first
        assert _one_line(printed.err) == (f"invariant failure: {len(failed)} of {len(checks)} "
                                          f"checks failed, first {first}")


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


# three d=2 indicator families at the default convolution start window
D2_TINY_CONFIG = """
[run]
name = d2_tiny

[window]
d = 2
radii = 1 2

[grid]
h = 0.25
R = 10

[targets]
t = 3

[family:indicator]
family = bspline-indicator
claimed_C = 64
claimed_s = 6

[family:indicator-p1]
family = bspline-indicator
claimed_C = 245
claimed_s = 6
perturb = 0,0:0.25,-0.25; 1,0:-0.25,0.0

[family:indicator-p2]
family = bspline-indicator
claimed_C = 245
claimed_s = 6
perturb = -1,0:0.25,0.25; 0,1:0.0,-0.25
"""


@pytest.mark.parametrize("dims", [1, 2])
def test_cli_default_brackets_write_what_the_scan_writes(mini_config, tmp_path, monkeypatch,
                                                         dims, capsys):
    """`all` and `bounds` at the default start windows read every bracket
    from cst.DEFAULT_BRACKETS, scan none, and write the same bytes as runs
    that scan them all."""
    path = tmp_path / "defaults.ini"
    path.write_text(D2_TINY_CONFIG if dims == 2 else Path(mini_config[0]).read_text())
    keys = [(float(dims + off), dims, cst.conv_start_window(dims)) for off in (1, 2, 4)]
    assert set(keys) <= set(cst.DEFAULT_BRACKETS)
    files, scans, codes = {}, {}, {}
    for table in ("pinned", "empty"):
        with monkeypatch.context() as patch:
            if table == "empty":
                patch.setattr(cst, "DEFAULT_BRACKETS", {})
            scans[table] = _recorder(patch, cst, "verify_convolution_discrete")
            codes[table] = [cli.main([stage, "--config", str(path), "--out",
                                      str(tmp_path / table / stage)])
                            for stage in ("all", "bounds")]
        root = tmp_path / table
        files[table] = {rel: (root / rel).read_bytes() for rel in _files(str(root))
                        if os.path.basename(rel) != "report.json"}  # its timings differ
    capsys.readouterr()
    assert codes["pinned"] == codes["empty"] == [5 if dims == 2 else 0, 0]
    assert files["pinned"] == files["empty"]
    assert {"all/constants.csv", "bounds/constants.csv"} <= set(files["pinned"])
    assert scans["pinned"] == []
    assert [call[:3] for call in scans["empty"]] == keys * 2


def test_shipped_suite_artifacts_hold_no_numpy_reprs(tmp_path, capsys):
    # every float in a text artifact is written as its Python repr, never as
    # np.float64(...)
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "d1_suite.ini")
    assert cli.main(["all", "--config", config, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = [os.path.join(root, name) for root, _, names in os.walk(tmp_path)
               for name in names if name.endswith((".csv", ".txt", ".json"))]
    assert any(path.endswith("calibration.txt") for path in written)
    for path in written:
        assert "np." not in Path(path).read_text(), path


@pytest.mark.parametrize("config", sorted(Path(__file__).resolve().parents[1].glob(
    "configs/*.ini")), ids=lambda path: path.name)
def test_shipped_config_parses(config, tmp_path, capsys):
    """Every shipped config loads as configparser reads it, holds no key
    that a section does not read, and runs `bounds`."""
    parser = configparser.ConfigParser()
    parser.read(config)
    settings = cli.load_config(str(config), out_override=str(tmp_path))
    assert settings.d == int(parser["window"]["d"])
    assert settings.radii == tuple(map(int, parser["window"]["radii"].split()))
    assert [f"family:{f.name}" for f in settings.families] == \
        [name for name in parser.sections() if name.startswith("family:")]
    assert cli.main(["bounds", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "constants.csv").is_file()
    capsys.readouterr()


def _one_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


@pytest.mark.parametrize("argv, message", [
    (["all"], "the following arguments are required: --config"),
    (["stats", "--config", "run.ini"], "argument stage: invalid choice: 'stats'"),
    (["all", "--config", "run.ini", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
], ids=["no-config", "unknown-stage", "seed-not-int"])
def test_cli_argument_error_prints_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    line = _one_line(capsys.readouterr().err)
    assert line.startswith(f"dualdecay: error: {message}"), line


def test_cli_claimed_envelope_exceeded_exits_invariant(tmp_path, capsys):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "d1_suite.ini")
    text = Path(config).read_text()
    # claims too small for every family; and indicators claimed at exponents
    # where (1+r)^s overflows on the grid, so the measured constant is huge
    # or inf and the zeros outside their support must not make it nan
    indicators = text[:text.index("[family:")] + "".join(
        f"[family:{name}]\nfamily = bspline-indicator\nclaimed_C = 32\nclaimed_s = {s}\n\n"
        for name, s in (("indicator", 400), ("ind300", 300), ("ind250", 250)))
    cases = {"claimed": re.sub(r"(?m)^claimed_C = .*$", "claimed_C = 1.5", text),
             "overflow": indicators}
    for case, case_text in cases.items():
        bad = tmp_path / f"{case}.ini"
        bad.write_text(case_text)
        # the suite run and a stage run both name the first family over its claim
        for stage in ("all", "basis"):
            out = str(tmp_path / case / stage)
            assert cli.main([stage, "--config", str(bad), "--out", out]) \
                == cli.EXIT_INVARIANT, case
            line = _one_line(capsys.readouterr().err)
            assert line.startswith("invariant failure: family 'indicator': measured envelope")
            assert "exceeds claimed" in line and "nan" not in line, line


def test_cli_nan_envelope_exits_invariant(mini_config, monkeypatch, capsys):
    sample = lat.BasisSet.sample
    monkeypatch.setattr(lat.BasisSet, "sample", lambda self, k, grid: np.where(
        grid_points(grid)[:, 0] == 1.0, np.nan, sample(self, k, grid)))
    assert cli.main(["basis", "--config", mini_config[0]]) == cli.EXIT_INVARIANT
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("invariant failure: family 'indicator': measured envelope "
                           "constant nan"), line


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

[family:twins]
family = bspline-indicator
claimed_C = 32
claimed_s = 4
perturb = 0:0.5; 1:-0.5

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
    # nodes 0 and 1 shifted onto one centre: two equal rows of the section
    path = tmp_path / "not_riesz.ini"
    path.write_text(NOT_RIESZ_CONFIG.format(out=tmp_path / "out"))
    assert cli.main(["report", "--config", str(path)]) == cli.EXIT_HYPOTHESIS
    line = _one_line(capsys.readouterr().err)
    assert line.startswith("hypothesis violation: family 'twins': lambda_min")
    assert "not a Riesz sequence" in line


def test_cli_measured_C_below_one_exits_hypothesis(tmp_path, capsys):
    # a needle shifted off the grid samples to zero at its checked node, so
    # C_meas = 0, though its closed-form Gramian is Riesz
    path = tmp_path / "needle.ini"
    path.write_text(NOT_RIESZ_CONFIG.replace(
        "[family:twins]\nfamily = bspline-indicator\nclaimed_C = 32\nclaimed_s = 4\n"
        "perturb = 0:0.5; 1:-0.5",
        "[family:needle]\nfamily = gaussian\nsigma = 0.001\nclaimed_C = 1\nclaimed_s = 4\n"
        "perturb = 0:0.1").format(out=tmp_path / "out"))
    assert cli.main(["report", "--config", str(path)]) == cli.EXIT_HYPOTHESIS
    assert _one_line(capsys.readouterr().err) == (
        "hypothesis violation: family 'needle': hypothesis C >= 1 violated by the "
        "measured envelope constant (C_meas=0.0)")


@pytest.mark.parametrize("d,sigma", [(2, "1e300"), (3, "1e150")])
def test_cli_gaussian_gramian_past_float_range_exits_config(tmp_path, capsys, d, sigma):
    # (sigma sqrt(pi))^d, the diagonal of the closed-form Gramian, overflows;
    # the rest of the config is valid, so the gramian stage would reach it
    path = tmp_path / "wide.ini"
    path.write_text(f"""
[run]
name = wide

[window]
d = {d}
radii = 1 2

[grid]
h = 0.25
R = 10

[targets]
t = {d + 1}

[family:wide]
family = gaussian
sigma = {sigma}
claimed_C = 1e300
claimed_s = {2 * d + 2}
""")
    assert cli.main(["gramian", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    assert _one_line(capsys.readouterr().err) == (
        f"config error: family 'wide': gaussian width sigma = {float(sigma):g} puts the "
        f"Gramian diagonal (sigma sqrt(pi))^{d} past the float range")


NO_CONVERGENCE_CONFIG = """
[run]
name = no-convergence
out = {out}

[window]
d = 1
radii = 1 2

[grid]
h = 0.0625
R = 10

[targets]
t = 2

[family:indicator]
family = bspline-indicator
claimed_C = 32
claimed_s = 5

[family:wide]
family = gaussian
sigma = 0.5
claimed_C = 6
claimed_s = 5

[family:bump]
family = polynomial-bump
s = 5
claimed_C = 1
claimed_s = 5
"""


def test_cli_no_convergence_exits_convergence_naming_family(tmp_path, capsys):
    # radii 1 and 2 are too small for the gaussian's inverse to stabilize
    path = tmp_path / "no_convergence.ini"
    path.write_text(NO_CONVERGENCE_CONFIG.format(out=tmp_path / "out"))
    for stage in ("all", "duals"):
        assert cli.main([stage, "--config", str(path)]) == cli.EXIT_CONVERGENCE
        line = _one_line(capsys.readouterr().err)
        assert line.startswith("convergence failure: family 'wide': section inverse did "
                               "not stabilize: core radius 0 < 1"), line


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
    ("dims = 1", "dims = 1\nconvolution_window_d1 = 128", "all",
     "[bounds] unknown key 'convolution_window_d1'; the keys are dims"),
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
    ("seed = 77", "seed = 77\ndual_export_radius = -1", "all",
     "dual_export_radius must be >= 0, got -1"),
    ("claimed_C = 32\nclaimed_s = 5", "claimed_C = 32\nclaimed_s = 3.0000001", "all",
     "family 'indicator': W_(s-t) misses w_tol: tolerance 1e-10 unattainable"),
    ("[bounds]", "[tolerances]\nw_tol = 1e-20\n\n[bounds]", "all",
     "family 'indicator': W_(s-t) misses w_tol: tolerance 1e-20 unattainable"),
    ("claimed_C = 32\n", "claimed_C = 32\nperturb = 99999999999999999999:0.3\n", "verify",
     "perturbed node (99999999999999999999,) lies outside the window"),
    ("order = 2", "order = 11", "basis",
     "family 'hat': bspline-order-m needs an integer order in [1, 10], got 11"),
    ("order = 2", "order = 99999999999999999999", "basis",
     "bspline-order-m needs an integer order in [1, 10], got 99999999999999999999"),
    ("dims = 1", "dims = 1 16", "bounds", "bounds dimension 16 is over the maximum 15"),
    ("dims = 1", "dims = 1 2000", "all", "bounds dimension 2000 is over the maximum 15"),
    ("family = bspline-order-m\norder = 2", "family = gaussian\nsigma = 1e-300", "basis",
     "family 'hat': gaussian needs a finite width parameter sigma >= 1e-100, got 1e-300"),
    ("family = bspline-order-m\norder = 2", "family = gaussian\nsigma = 1e-153", "all",
     "family 'hat': gaussian needs a finite width parameter sigma >= 1e-100, got 1e-153"),
    ("[family:hat]", "[family:../escaped]", "all", "family name '../escaped' must not"),
    ("[family:hat]", "[family:/tmp/x]", "all", "family name '/tmp/x' must not"),
    ("[family:hat]", "[family:a,b]", "basis", "family name 'a,b' must not"),
    ("[family:hat]", "[family:]", "all", "family name '' must not"),
    ("[family:hat]", "[family:.]", "verify", "family name '.' must not"),
    ("[family:hat]", "[family:..]", "all", "family name '..' must not"),
    ("claimed_C = 32\n", "claimed_C = 32\nperturb = 0,1:0.3,0.1\n", "all",
     "family 'indicator': perturbation (0, 1):(0.3, 0.1) has wrong dimension (d=1)"),
    ("claimed_C = 32\n", "claimed_C = 32\nperturb = 0:0.3; 0:-0.2\n", "basis",
     "perturbed node (0,) is given more than once"),
    ("claimed_C = 32\n", "claimed_C = 32\nperturbation = 0:0.3\n", "all",
     "[family:indicator] unknown key 'perturbation'; the keys are family, claimed_C,"),
    ("seed = 77", "seed = 77\ndual_export_radious = 4", "all",
     "[run] unknown key 'dual_export_radious'; the keys are name, out, seed, "
     "dual_export_radius"),
    ("dims = 1", "dim = 1", "bounds",
     "[bounds] unknown key 'dim'; the keys are dims"),
    ("d = 1", "d = 1\nN = 12", "verify", "[window] unknown key 'n'; the keys are d, radii"),
    ("R = 20", "R = 20\nspacing = 0.5", "basis", "[grid] unknown key 'spacing'"),
    ("t = 2", "t = 2\ns = 5", "all", "[targets] unknown key 's'; the keys are t"),
], ids=["window-d", "tolerance", "bounds-dims", "convolution-window", "order", "grid-h",
        "perturbed-outside", "two-families-report", "two-families-all", "tolerance-typo",
        "tolerance-removed", "schur-slack-removed", "negative-radius", "infinite-extent",
        "zero-bounds-dim", "nan-tolerance", "negative-dual-export-radius",
        "w-sum-near-divergence", "w-tol-unattainable", "perturbed-node-past-int64",
        "order-over-maximum", "order-past-int64", "bounds-dim-over-maximum",
        "bounds-dim-past-shell-poly", "sigma-squared-underflows", "sigma-quotient-overflows",
        "family-name-climbs-out", "family-name-absolute", "family-name-comma",
        "family-name-empty", "family-name-dot", "family-name-dotdot",
        "perturbation-dimension", "perturbed-node-repeated", "family-key-misspelled",
        "run-key-misspelled", "bounds-key-misspelled", "window-key-unknown",
        "grid-key-unknown", "targets-key-unknown"])
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


def test_cli_theoretical_D_past_the_float_range_exits_config(mini_config, capsys):
    # C^(2t+1) overflows at t = 100 once the indicator is measured at s = 105
    path, out = mini_config
    text = Path(path).read_text().replace("\nt = 2\n", "\nt = 100\n")
    text = re.sub(r"(?m)^(claimed_)?s = 5$", r"\1s = 105", text)
    Path(path).write_text(re.sub(r"(?m)^claimed_C = .*$", "claimed_C = 1e300", text))
    assert cli.main(["all", "--config", path]) == cli.EXIT_CONFIG
    assert _one_line(capsys.readouterr().err) == (
        "config error: family 'indicator': theoretical D at t=100 is not a finite positive "
        "float")
    assert not os.path.exists(out)


def test_load_config_accepts_the_largest_order(mini_config, tmp_path):
    """The order just inside its limit loads."""
    path, _ = mini_config
    edge = tmp_path / "edge.ini"
    edge.write_text(Path(path).read_text().replace("order = 2", "order = 10"))
    settings = cli.load_config(str(edge))
    assert [f.spec.params["order"] for f in settings.families if f.name == "hat"] == [10]


# --- fuzzed configs -----------------------------------------------------------

# MINI_CONFIG on a coarser grid, so that a config the fuzz leaves valid runs
# `all` in about 0.1 s
FUZZ_BASE = configparser.ConfigParser(interpolation=None)
FUZZ_BASE.read_string(MINI_CONFIG.replace("h = 0.015625", "h = 0.125"))
# values that keep the grid and the window small: the sample cap bounds the
# memory of a valid config, not its run time
_NON_NUMERIC = st.text(alphabet="abxyz.,:-+ e", max_size=4)
_FLOATS = st.sampled_from(["0", "-1", "0.5", "1e-3", "nan", "inf", "-inf", "1e300",
                           "3.00001", "400"])
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
              st.sampled_from(["claimed_C", "claimed_s", "s", "inversion", "w_tol"]),
              _FLOATS),
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
    if code == 0:
        assert lines == [], lines
    else:
        assert len(lines) == 1, lines
