import dataclasses
import errno
import os
import time

import numpy as np
import pytest

from dualdecay import artifacts
from dualdecay import lattice as lat
from dualdecay import pipeline as pl

from conftest import d2_indicator_settings


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
    artifacts._write_samples(fast, d, artifacts._row_prefixes(grid), values)
    loop_write_samples(slow, grid, values)
    assert fast.read_bytes() == slow.read_bytes()


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
    limit = suite.settings.dual_export_radius
    duals = sum(1 for fam in suite.families for node in fam.dual_system.duals
                if limit is None or max(map(abs, node)) <= limit)
    per_family = ("basis_k0.csv", "gramian.csv", "coeffs.csv", "eigens.csv", "envelopes.csv")
    assert len(trees[1]) == 4 + duals + len(per_family) * len(suite.families)


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
