import json
import os
import re
import tracemalloc

import pytest

from dualdecay import cli
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
    text = open(path).read().replace("claimed_s = 5", "claimed_s = 3")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(HypothesisViolation, match="s > d\\+t violated"):
        cli.load_config(str(bad))


def test_bad_perturbation_entry(tmp_path, mini_config):
    path, _ = mini_config
    text = open(path).read() + "perturb = nonsense\n"
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="perturbation"):
        cli.load_config(str(bad))


def test_cli_all_and_verify_roundtrip(mini_config, capsys):
    path, out = mini_config
    assert cli.main(["all", "--config", path]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert set(report["families"]) == {"indicator", "bump", "hat"}
    assert all(v["passed"] for v in report["invariants"])
    names = {v["name"] for v in report["invariants"]}
    for fragment in ("biorthogonality", "dual_norm_bound", "inverse_norm_bound",
                     "scaling_homogeneity", "interlacing", "schur_dominates",
                     "claimed_C", "recursion_bound", "dual_decay_domination",
                     "gram_duals", "derivation_multiplicative", "gramian_vs_A",
                     "bilinearity", "translation_covariance", "envelope_consistency",
                     "coefficient_transfer"):
        assert any(fragment in n for n in names), fragment
    for name in ("leibniz_exact.d1", "convolution_u_stability.d1", "w_tail_honesty",
                 "w_monotone", "theoretical_D_monotone"):
        assert name in names
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
    lines = open(coeffs).read().splitlines()
    parts = lines[3].split()
    parts[-1] = repr(float(parts[-1]) + 0.25)
    lines[3] = " ".join(parts)
    open(coeffs, "w").write("\n".join(lines) + "\n")
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
    bad.write_text(open(path).read().replace("claimed_s = 5", "claimed_s = 3"))
    assert cli.main(["all", "--config", str(bad)]) == cli.EXIT_HYPOTHESIS
    capsys.readouterr()


def test_cli_stage_artifacts(mini_config, capsys):
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
    capsys.readouterr()


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
            assert open(a, "rb").read() == open(b, "rb").read(), name


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
    text = re.sub(r"(?m)^claimed_C = .*$", "claimed_C = 1.5", open(config).read())
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
