import dataclasses
import errno
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualdecay import artifacts
from dualdecay import lattice as lat
from dualdecay import pipeline as pl

from conftest import core_nodes, d2_indicator_settings, grid_points


def loop_write_samples(path, grid, values):
    """The point-by-point writer that artifacts._write_samples must match."""
    lines = [",".join(f"x_{i + 1}" for i in range(grid.d)) + ",value"]
    lines += [",".join(repr(float(c)) for c in pt) + f",{float(v)!r}"
              for pt, v in zip(grid_points(grid), values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# each grid has more points than one chunk of rows
@pytest.mark.parametrize("d, h, R", [(1, 1 / 64, 40.0), (2, 1 / 8, 4.0), (3, 0.25, 2.0)])
def test_sample_rows_match_loop_writer(tmp_path, d, h, R):
    grid = lat.Grid(h=h, R=R, d=d)
    assert grid.n_points > artifacts._CHUNK_ROWS
    rng = np.random.default_rng(d)
    values = rng.standard_normal(grid.n_points) * 10.0 ** rng.integers(-300, 300, grid.n_points)
    values[:4] = 0.0, -0.0, 5e-324, -1.0
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    artifacts._write_samples(fast, artifacts._row_text(grid), values)
    loop_write_samples(slow, grid, values)
    assert fast.read_bytes() == slow.read_bytes()


# one grid per dimension, each with more points than one chunk of rows
WRITER_GRIDS = {d: lat.Grid(h=h, R=R, d=d) for d, h, R in
                [(1, 1 / 64, 40.0), (2, 1 / 8, 4.0), (3, 0.25, 2.0)]}
WRITER_TEXT = {d: artifacts._row_text(grid) for d, grid in WRITER_GRIDS.items()}
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
                            1.0, -2.5e300])


@st.composite
def grid_samples(draw):
    """(d, values): dense or all-zero samples of d's grid, overwritten by spans
    of +0.0, dense values or one special value (up to two chunks long) and by
    single special values."""
    d = draw(st.sampled_from(sorted(WRITER_GRIDS)))
    n = WRITER_GRIDS[d].n_points
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values = dense.copy() if draw(st.booleans()) else np.zeros(n)
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, min(n, start + 2 * artifacts._CHUNK_ROWS)))
        fill = draw(st.sampled_from(["zero", "dense", "special"]))
        values[start:stop] = (0.0 if fill == "zero" else dense[start:stop] if fill == "dense"
                              else draw(_SPECIAL))
    for _ in range(draw(st.integers(0, 4))):
        values[draw(st.integers(0, n - 1))] = draw(_SPECIAL)
    return d, values


def _zeros_but(d: int, **rows) -> tuple:
    """All +0.0 samples of d's grid except at the given rows (first, mid, last)."""
    values = np.zeros(WRITER_GRIDS[d].n_points)
    at = {"first": 0, "mid": artifacts._CHUNK_ROWS + 7, "last": -1}
    for row, value in rows.items():
        values[at[row]] = value
    return d, values


def _special_runs(d: int, special: float) -> tuple:
    """+0.0 samples of d's grid with runs of `special`: one within a chunk,
    one across a chunk edge and one to the last row, and a run of numbers."""
    n, chunk = WRITER_GRIDS[d].n_points, artifacts._CHUNK_ROWS
    values = np.zeros(n)
    values[5:40] = values[chunk - 3:chunk + 9] = values[n - 30:] = special
    values[chunk + 9:chunk + 20] = 0.25
    return d, values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=grid_samples())
@example(case=_zeros_but(2))
@example(case=_zeros_but(1, first=1.5))
@example(case=_zeros_but(3, last=-2.0))
@example(case=_zeros_but(2, first=5e-324, mid=-0.0, last=math.nan))
@example(case=_zeros_but(1, mid=math.inf))
@example(case=(2, np.arange(1.0, WRITER_GRIDS[2].n_points + 1)))
@example(case=_special_runs(1, -0.0))
@example(case=_special_runs(1, math.nan))
@example(case=_special_runs(1, math.inf))
@example(case=_special_runs(2, -0.0))
@example(case=_special_runs(2, math.nan))
@example(case=_special_runs(2, math.inf))
def test_zero_runs_match_loop_writer(tmp_path_factory, case):
    d, values = case
    out = tmp_path_factory.mktemp("zero-runs")
    fast, slow = out / "fast.csv", out / "slow.csv"
    artifacts._write_samples(fast, WRITER_TEXT[d], values)
    loop_write_samples(slow, WRITER_GRIDS[d], values)
    assert fast.read_bytes() == slow.read_bytes()


def test_zero_sample_file_is_written_without_a_copy(tmp_path):
    # the d=2 benchmark grid: a 589,822-byte file, written from views of the
    # row text's zero bytes
    grid = lat.Grid(h=1 / 8, R=12.0, d=2)
    text = artifacts._row_text(grid)
    values = np.zeros(grid.n_points)
    tracemalloc.start()
    try:
        artifacts._write_samples(tmp_path / "zeros.csv", text, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "zeros.csv").stat().st_size == len(text[2]) + len(text[0]) == 589_822
    assert peak < 64 * 1024


@pytest.mark.parametrize("extra", [-1, 1])
def test_samples_of_another_length_are_rejected(tmp_path, extra):
    grid = WRITER_GRIDS[1]
    with pytest.raises(ValueError, match=f"{grid.n_points + extra} samples for a grid of "
                                         f"{grid.n_points} points"):
        artifacts._write_samples(tmp_path / "short.csv", WRITER_TEXT[1],
                                 np.zeros(grid.n_points + extra))
    assert not (tmp_path / "short.csv").exists()


def test_d2_indicator_sample_files_match_loop_writer(d2_suite_export_all, tmp_path):
    suite = d2_suite_export_all
    artifacts.write_suite(str(tmp_path / "out"), suite, basis=True)
    grid = suite.settings.grid()
    written = 0
    for fam in suite.families:
        files = {"basis_k0.csv": fam.basis_k0}
        files.update({f"dual_k{artifacts._node_label(k)}.csv": v for k, v in fam.duals.items()})
        for name, values in files.items():
            loop_write_samples(tmp_path / "oracle.csv", grid, values)
            assert ((tmp_path / "out" / fam.name / name).read_bytes()
                    == (tmp_path / "oracle.csv").read_bytes()), (fam.name, name)
            written += 1
    assert written == sum(1 + len(fam.duals) for fam in suite.families) > 6


def _tree(root) -> dict:
    """The bytes of every file under `root`, by relative path."""
    tree = {}
    for d, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                tree[os.path.relpath(os.path.join(d, name), root)] = fh.read()
    return tree


@pytest.fixture(scope="module")
def d2_suite_export_0() -> pl.SuiteResult:
    return pl.run_suite(d2_indicator_settings())


@pytest.fixture(scope="module")
def d2_suite_export_all() -> pl.SuiteResult:
    settings = d2_indicator_settings()
    return pl.run_suite(dataclasses.replace(settings, dual_export_radius=settings.radii[-1]))


@pytest.mark.parametrize("suite, exported", [("d1_suite", "origin"),
                                             ("d2_suite_export_all", "core")])
def test_write_suite_writes_each_artifact_once(request, tmp_path, suite, exported):
    suite = request.getfixturevalue(suite)
    artifacts.write_suite(str(tmp_path), suite, basis=True)
    expected = {"basis_envelopes.csv", "constants.csv", "calibration.txt", "report.json"}
    for fam in suite.families:
        nodes = core_nodes(fam.spec.d, fam.core_radius if exported == "core" else 0)
        expected |= {os.path.join(fam.name, name) for name in
                     ("basis_k0.csv", "gramian.npy", "coeffs.npy", "eigens.csv",
                      "envelopes.csv", *(f"dual_k{artifacts._node_label(k)}.csv"
                                         for k in nodes))}
    assert set(_tree(tmp_path)) == expected


def test_only_exported_duals_keep_their_samples(d2_suite_export_0, tmp_path):
    artifacts.write_suite(str(tmp_path), d2_suite_export_0)
    for fam in d2_suite_export_0.families:
        assert list(fam.duals) == [(0, 0)]
        with open(tmp_path / fam.name / "envelopes.csv") as fh:
            labels = {line.split(",")[0] for line in fh.read().splitlines()[1:]}
        core = core_nodes(fam.spec.d, fam.core_radius)
        assert len(core) == 9 and labels == {artifacts._node_label(k) for k in core}


def test_failed_write_raises_naming_the_file(tmp_path):
    def full(path, lines):
        raise OSError(errno.ENOSPC, "No space left on device")

    artifacts._write(str(tmp_path / "a.csv"), artifacts._write_lines, ["1"])
    with pytest.raises(OSError) as info:
        artifacts._write(str(tmp_path / "full.csv"), full, ["2"])
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(tmp_path / "full.csv"))
    assert str(tmp_path / "full.csv") in str(info.value)
    assert (tmp_path / "a.csv").read_text() == "1\n"
