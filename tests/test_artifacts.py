import dataclasses
import errno
import math
import os

import numpy as np
import pytest

from dualdecay import artifacts
from dualdecay import lattice as lat
from dualdecay import pipeline as pl

from conftest import core_nodes, d2_indicator_settings, grid_points


SAMPLE_GRIDS = {d: lat.Grid(h=h, R=R, d=d) for d, h, R in
                [(1, 1 / 64, 40.0), (2, 1 / 8, 4.0), (3, 0.25, 2.0)]}


def _load_samples(path, grid) -> np.ndarray:
    """The samples stored at `path`, checked to be one <f8 array of shape
    (2m+1,)*d on `grid`, raveled."""
    array = np.load(path, allow_pickle=False)
    assert array.dtype == np.dtype("<f8") and array.shape == (2 * grid.steps + 1,) * grid.d
    assert array.flags.c_contiguous
    return array.ravel()


@pytest.mark.parametrize("d", sorted(SAMPLE_GRIDS))
def test_sample_file_keeps_every_bit(tmp_path, d):
    grid = SAMPLE_GRIDS[d]
    rng = np.random.default_rng(d)
    values = rng.standard_normal(grid.n_points) * 10.0 ** rng.integers(-300, 300, grid.n_points)
    values[:9] = 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf, -math.inf, -1.0
    artifacts._write_samples(tmp_path / "samples.npy", grid, values)
    stored = _load_samples(tmp_path / "samples.npy", grid)
    assert np.array_equal(stored.view(np.int64), values.view(np.int64))
    # entry [i_1, .., i_d] is the sample at (h(i_1 - m), .., h(i_d - m)): a
    # function of x_j alone is stored as the axis along dimension j
    for j, axis in enumerate(grid.offsets(np.zeros(d))):
        artifacts._write_samples(tmp_path / "x.npy", grid, grid_points(grid)[:, j])
        array = np.load(tmp_path / "x.npy", allow_pickle=False)
        assert np.array_equal(array, np.broadcast_to(axis, array.shape)), j


@pytest.mark.parametrize("extra", [-1, 1])
def test_samples_of_another_length_are_rejected(tmp_path, extra):
    grid = SAMPLE_GRIDS[1]
    with pytest.raises(ValueError, match=f"cannot reshape array of size {grid.n_points + extra}"):
        artifacts._write(str(tmp_path / "out" / "short.npy"), artifacts._write_samples, grid,
                         np.zeros(grid.n_points + extra))
    assert not (tmp_path / "out" / "short.npy").exists()


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
                     ("basis_k0.npy", "gramian.npy", "coeffs.npy", "eigens.csv",
                      "envelopes.csv", *(f"dual_k{artifacts._node_label(k)}.npy"
                                         for k in nodes))}
    assert set(_tree(tmp_path)) == expected


@pytest.mark.parametrize("suite", ["d1_suite", "d2_suite_export_all"])
def test_sample_exports_hold_the_samples_bit_for_bit(request, tmp_path, suite):
    suite = request.getfixturevalue(suite)
    artifacts.write_suite(str(tmp_path), suite, basis=True)
    grid = suite.settings.grid()
    loaded = 0
    for fam in suite.families:
        files = {"basis_k0.npy": fam.basis_k0}
        files.update({f"dual_k{artifacts._node_label(k)}.npy": v for k, v in fam.duals.items()})
        for name, values in files.items():
            stored = _load_samples(tmp_path / fam.name / name, grid)
            assert np.array_equal(stored.view(np.int64),
                                  np.asarray(values, dtype=float).view(np.int64)), (fam.name, name)
            loaded += 1
    assert loaded == sum(1 + len(fam.duals) for fam in suite.families)


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
