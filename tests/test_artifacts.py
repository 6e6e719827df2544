import numpy as np
import pytest

from dualdecay import artifacts
from dualdecay import lattice as lat


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
