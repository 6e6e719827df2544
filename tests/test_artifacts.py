import dataclasses
import errno
import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualdecay import artifacts
from dualdecay import lattice as lat
from dualdecay import pipeline as pl

from conftest import core_nodes, d2_indicator_settings


def loop_write_samples(path, grid, values):
    """The point-by-point writer that artifacts._write_samples must match."""
    lines = [",".join(f"x_{i + 1}" for i in range(grid.d)) + ",value"]
    lines += [",".join(repr(float(c)) for c in pt) + f",{float(v)!r}"
              for pt, v in zip(grid.points, values)]
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
    artifacts._write_samples(fast, d, artifacts._row_text(grid), values)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=grid_samples())
@example(case=_zeros_but(2))
@example(case=_zeros_but(1, first=1.5))
@example(case=_zeros_but(3, last=-2.0))
@example(case=_zeros_but(2, first=5e-324, mid=-0.0, last=math.nan))
@example(case=_zeros_but(1, mid=math.inf))
@example(case=(2, np.arange(1.0, WRITER_GRIDS[2].n_points + 1)))
def test_zero_runs_match_loop_writer(tmp_path_factory, case):
    d, values = case
    out = tmp_path_factory.mktemp("zero-runs")
    fast, slow = out / "fast.csv", out / "slow.csv"
    artifacts._write_samples(fast, d, WRITER_TEXT[d], values)
    loop_write_samples(slow, WRITER_GRIDS[d], values)
    assert fast.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize("extra", [-1, 1])
def test_samples_of_another_length_are_rejected(tmp_path, extra):
    grid = WRITER_GRIDS[1]
    with pytest.raises(ValueError, match=f"{grid.n_points + extra} samples for a grid of "
                                         f"{grid.n_points} points"):
        artifacts._write_samples(tmp_path / "short.csv", 1, WRITER_TEXT[1],
                                 np.zeros(grid.n_points + extra))
    assert not (tmp_path / "short.csv").exists()


def test_d2_indicator_sample_files_match_loop_writer(tmp_path):
    suite = pl.run_suite(d2_indicator_settings())
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


def _cpus(monkeypatch, count: int) -> list:
    """Let the writers see `count` usable CPUs; the pids that call os.fork."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: count)
    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture(scope="module")
def d2_suite_export_0() -> pl.SuiteResult:
    return pl.run_suite(dataclasses.replace(d2_indicator_settings(), dual_export_radius=0))


@pytest.mark.parametrize("suite", ["d1_suite", "d2_suite_export_0"])
def test_parallel_and_in_process_writers_write_identical_trees(request, tmp_path,
                                                               monkeypatch, suite):
    suite = request.getfixturevalue(suite)
    trees = {}
    for cpus in (1, 3):
        forks = _cpus(monkeypatch, cpus)
        artifacts.write_suite(str(tmp_path / str(cpus)), suite, basis=True)
        assert len(forks) == cpus - 1  # one process writes, in-process, with one CPU
        trees[cpus] = _tree(tmp_path / str(cpus))
    assert trees[1] == trees[3]
    duals = sum(len(fam.duals) for fam in suite.families)
    per_family = ("basis_k0.csv", "gramian.csv", "coeffs.csv", "eigens.csv", "envelopes.csv")
    assert len(trees[1]) == 4 + duals + len(per_family) * len(suite.families)


def test_only_exported_duals_keep_their_samples(d2_suite_export_0, tmp_path):
    artifacts.write_suite(str(tmp_path), d2_suite_export_0)
    for fam in d2_suite_export_0.families:
        assert list(fam.duals) == [(0, 0)]
        with open(tmp_path / fam.name / "envelopes.csv") as fh:
            labels = {line.split(",")[0] for line in fh.read().splitlines()[1:]}
        core = core_nodes(fam.spec.d, fam.core_radius)
        assert len(core) == 9 and labels == {artifacts._node_label(k) for k in core}


def _job(path, rows: int, write=artifacts._write_lines):
    return rows, str(path), write, [str(rows)]


def _fail_with(exc):
    def write(path, lines):
        if exc is None:
            os._exit(3)  # a writer that ends without a report
        raise exc
    return write


@pytest.mark.parametrize("exc, kind", [
    (OSError(errno.ENOSPC, "No space left on device"), OSError),
    (ValueError("not a number"), ChildProcessError),
    (None, ChildProcessError),
], ids=["os-error", "other-error", "no-report"])
def test_failed_writer_raises_in_parent_naming_the_file(tmp_path, monkeypatch, exc, kind):
    _cpus(monkeypatch, 2)
    # largest first: the parent takes the first job, the one writer the second
    jobs = [_job(tmp_path / "parent.csv", 2), _job(tmp_path / "child.csv", 1, _fail_with(exc))]
    with pytest.raises(kind) as info:
        artifacts._write_files(jobs)
    assert str(tmp_path / "child.csv") in str(info.value)
    if kind is OSError:
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC,
                                                           str(tmp_path / "child.csv"))
    assert (tmp_path / "parent.csv").read_text() == "2\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no writer is left behind


def test_writers_are_reaped_when_the_parents_share_raises(tmp_path, monkeypatch):
    forks = _cpus(monkeypatch, 3)

    def slow(path, lines):
        time.sleep(0.2)
        artifacts._write_lines(path, lines)

    jobs = [_job(tmp_path / "parent.csv", 3, _fail_with(PermissionError(errno.EACCES, "no"))),
            _job(tmp_path / "a.csv", 2, slow), _job(tmp_path / "b.csv", 1, slow)]
    with pytest.raises(PermissionError, match="parent.csv"):
        artifacts._write_files(jobs)
    assert len(forks) == 2
    assert (tmp_path / "a.csv").read_text() == "2\n" and (tmp_path / "b.csv").read_text() == "1\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
