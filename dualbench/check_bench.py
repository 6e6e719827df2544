"""Tests of the benchmark itself: the workload generator, the correctness
gate and the tracing wrappers. Each takes seconds.

usage: python3 -m pytest dualbench/check_bench.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import rep  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dualdecay import cli, duals, lattice  # noqa: E402

TINY = """[run]
name = tiny
seed = 7

[window]
d = 1
radii = 1 2

[grid]
h = 0.125
R = 10

[targets]
t = 2

[bounds]
dims = 1

[family:indicator]
family = bspline-indicator
claimed_C = 32
claimed_s = 5

[family:shifted]
family = bspline-indicator
claimed_C = 245
claimed_s = 5
perturb = 0:0.25

[family:shifted-two]
family = bspline-indicator
claimed_C = 245
claimed_s = 5
perturb = 0:0.25; 1:-0.375
"""
TINY_WORKLOAD = workloads.Workload("tiny", exit_code=0, known_red=())
# a convolution window of 16 is too small for the d=1 constants to agree
TINY_RED = workloads.Workload("tiny", exit_code=5, known_red=("convolution_u_stability.d1",))


@pytest.fixture
def tiny(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    return config


def failed_checks(checks):
    return sorted(name for name, ok, _ in checks if not ok)


def test_generator_is_seeded_and_within_limits(tmp_path):
    d2 = workloads.WORKLOADS["d2_indicator"]
    first = d2.write_config(3, tmp_path).read_text()
    assert d2.write_config(3, tmp_path).read_text() == first
    assert d2.write_config(4, tmp_path).read_text() != first
    for seed in range(20):
        for text in workloads.d2_perturbations(seed):
            entries = [e.split(":") for e in text.split("; ")]
            assert len(entries) == 2
            for node, shift in entries:
                assert max(abs(int(c)) for c in node.split(",")) <= 1
                for c in shift.split(","):
                    assert float(c) * 8 == int(float(c) * 8) and abs(float(c)) <= 0.375
    settings = cli.load_config(str(d2.write_config(5, tmp_path)), seed_override=5)
    assert (settings.d, settings.radii, len(settings.families)) == (2, (1, 2, 4), 3)
    for name in ("d1_suite", "d1_large"):
        copy = workloads.WORKLOADS[name].write_config(5, tmp_path)
        assert copy.read_bytes() == (workloads.ROOT / "configs" / f"{name}.ini").read_bytes()


def test_gate_passes_a_good_run_and_catches_mismatches(tiny, tmp_path):
    out = tmp_path / "out"
    obs = rep.run_workload(tiny, out, 7)
    assert failed_checks(gate.check(obs, TINY_WORKLOAD, {})) == []
    assert failed_checks(gate.check(obs, TINY_WORKLOAD, obs["constants"])) == []
    assert failed_checks(gate.check(None, TINY_WORKLOAD, {})) == ["completed"]

    moved = dict(obs["constants"], **{"indicator.A_est": obs["constants"]["indicator.A_est"]
                                      * (1 + 1e-6)})
    assert failed_checks(gate.check(obs, TINY_WORKLOAD, moved)) == ["reference_constants"]
    assert failed_checks(gate.check(obs, TINY_RED, {})) == [
        "all_exit_code", "in_run_failures", "verify_exit_code", "verify_failures"]

    red_config = tmp_path / "red.ini"
    red_config.write_text(TINY.replace("dims = 1", "dims = 1\nconvolution_window_d1 = 16"))
    red = rep.run_workload(red_config, tmp_path / "red", 7)
    assert failed_checks(gate.check(red, TINY_RED, {})) == []
    assert failed_checks(gate.check(red, TINY_WORKLOAD, {})) == [
        "all_exit_code", "in_run_failures", "verify_exit_code", "verify_failures"]

    # a corrupted coefficient fails biorthogonality in `verify`
    coeffs = out / "indicator" / "coeffs.csv"
    lines = coeffs.read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " 0.5"
    coeffs.write_text("\n".join(lines) + "\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--config", str(tiny), "--out", str(out)])
    broken = dict(obs, verify=rep.parse_verify(buf.getvalue()),
                  exit=dict(obs["exit"], verify=code))
    assert failed_checks(gate.check(broken, TINY_WORKLOAD, {})) == [
        "verify_exit_code", "verify_failures"]
    alone = rep.run_verify(tiny, out)
    assert alone["exit"] == {"verify": 5}
    assert failed_checks(gate.check(alone, TINY_WORKLOAD, {})) == [
        "verify_exit_code", "verify_failures"]


def digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.suffix == ".csv" or p.name == "calibration.txt"}


def test_tracing_leaves_outputs_bit_identical(tiny, tmp_path):
    plain = rep.run_workload(tiny, tmp_path / "plain", 7)
    originals = (duals.synthesize_dual, lattice.BasisSet.sample_all,
                 cli.biorthogonality_residual)
    with spans.Tracer() as tracer:
        traced = rep.run_workload(tiny, tmp_path / "traced", 7, tracer)
        assert duals.synthesize_dual is not originals[0]
    assert (duals.synthesize_dual, lattice.BasisSet.sample_all,
            cli.biorthogonality_residual) == originals
    assert traced["constants"] == plain["constants"]
    assert traced["verdicts"] == plain["verdicts"] and traced["verify"] == plain["verify"]
    csvs = digests(tmp_path / "plain")
    assert len(csvs) > 5 and digests(tmp_path / "traced") == csvs

    records = json.loads(json.dumps(tracer.records()))
    by_id = {r["id"]: r for r in records}
    chains = set()
    for r in records:
        if r["name"] == "lattice.sample_all" and r["parent"] is not None:
            parent = by_id[r["parent"]]
            if parent["parent"] is not None:
                chains.add((by_id[parent["parent"]]["name"], parent["name"]))
    assert ("duals.biorthogonality_residual", "duals.synthesize_dual") in chains
    summary = spans.summarize(records)
    main = summary["cli.main"]
    assert main["calls"] == 2 and 0 < main["self_s"] < main["incl_s"]
    assert summary["artifacts.verify_artifacts"]["counts"]["bytes_read"] > 0
    assert summary["gramian.from_text"]["counts"]["bytes_read"] > 0
