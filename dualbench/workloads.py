"""Workload configs for the dualdecay benchmark, generated from a seed.

Each workload is one INI config for `dualdecay all` / `dualdecay verify`
plus what a correct run of it must show: the exit code of both commands,
the in-run verdicts that are red by design, and which reference constants
do not depend on the seed.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The d=2 convolution-constant spread is a documented red result of the
# program (README, ROADMAP aim 3). It is expected and reported, never hidden.
D2_KNOWN_RED = ("convolution_u_stability.d2",)


@dataclass(frozen=True)
class Workload:
    name: str
    exit_code: int          # expected for both `all` and `verify`
    known_red: tuple        # in-run verdicts that fail by design
    seeded: tuple = ()      # reference keys that depend on the seed (prefixes)

    def write_config(self, seed: int, dest: Path) -> Path:
        """Write this workload's config for `seed` into `dest`; return its path."""
        path = Path(dest) / f"{self.name}.ini"
        if self.name == "d2_indicator":
            path.write_text(d2_indicator_config(seed))
        else:
            shutil.copyfile(ROOT / "configs" / f"{self.name}.ini", path)
        return path


WORKLOADS = {w.name: w for w in (
    Workload("d1_suite", exit_code=0, known_red=()),
    Workload("d1_large", exit_code=0, known_red=()),
    Workload("d2_indicator", exit_code=5, known_red=D2_KNOWN_RED,
             seeded=("E_emp", "indicator-p1.", "indicator-p2.")),
)}


def d2_perturbations(seed: int) -> list:
    """Two seed-drawn perturbation strings, one per perturbed family.

    Each perturbs two distinct nodes within max-norm radius 1 by shifts that
    are multiples of h = 1/8 with max-norm at most 3/8.
    """
    rng = random.Random(seed)
    nodes = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    out = []
    for _ in range(2):
        chosen = sorted(rng.sample(nodes, 2))
        parts = []
        for node in chosen:
            shift = [rng.randint(-3, 3) / 8 for _ in node]
            parts.append(f"{node[0]},{node[1]}:{shift[0]!r},{shift[1]!r}")
        out.append("; ".join(parts))
    return out


def d2_indicator_config(seed: int) -> str:
    """Three bspline-indicator families in d=2 at window radii 1 2 4.

    Smooth d=2 families do not stabilize at radius 4 under the default
    inversion tolerance, so only indicator families run here; the tolerance
    is left as it is.
    """
    p1, p2 = d2_perturbations(seed)
    return f"""# Generated d=2 indicator suite (seed {seed}).
[run]
name = d2_indicator
out = out/d2_indicator
seed = {seed}
dual_export_radius = 0

[window]
d = 2
radii = 1 2 4

[grid]
h = 0.125
R = 12

[targets]
t = 3

[bounds]
dims = 2

[family:indicator]
family = bspline-indicator
claimed_C = 64
claimed_s = 6

[family:indicator-p1]
family = bspline-indicator
claimed_C = 245
claimed_s = 6
perturb = {p1}

[family:indicator-p2]
family = bspline-indicator
claimed_C = 245
claimed_s = 6
perturb = {p2}
"""
