import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import HypothesisViolation

from conftest import center, evaluate, grid_points, scaled_basis


def test_window_cardinality():
    assert lat.LatticeWindow(1, 1).size == 3
    assert lat.LatticeWindow(2, 3).size == 49
    assert lat.LatticeWindow(3, 2).size == 125


def test_window_enumeration_lexicographic_and_reproducible():
    win = lat.LatticeWindow(2, 1)
    idx = win.indices
    expected = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                (1, -1), (1, 0), (1, 1)]
    assert [tuple(k) for k in idx] == expected
    assert np.array_equal(idx, lat.LatticeWindow(2, 1).indices)


def test_window_index_roundtrip():
    win = lat.LatticeWindow(2, 3)
    for pos, k in enumerate(win.indices):
        assert win.index_of(k) == pos
    assert not win.contains((4, 0))
    assert not win.contains((99999999999999999999, 0))  # past int64
    with pytest.raises(IndexError):
        win.index_of((4, 0))


def test_window_positions_of_subwindow():
    win = lat.LatticeWindow(1, 5)
    sub = lat.LatticeWindow(1, 2)
    pos = win.positions_of(sub)
    assert [int(win.indices[p, 0]) for p in pos] == [-2, -1, 0, 1, 2]


def test_grid_points_and_weight():
    grid = lat.Grid(h=0.25, R=1.0, d=1)
    assert grid.n_points == 9
    assert grid.weight == 0.25
    assert np.allclose(grid_points(grid)[:, 0], np.arange(-4, 5) * 0.25)


def test_grid_spacing_guard():
    with pytest.raises(ValueError):
        lat.Grid(h=0.5, R=1.0, d=1)
    with pytest.raises(ValueError):
        lat.Grid(h=1 / 64, R=-1.0, d=1)


# --- generator families ------------------------------------------------------


def test_indicator_basis_three_functions():
    spec = lat.GeneratorSpec("bspline-indicator", 1, claimed_C=32.0, claimed_s=5.0)
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 1))
    assert basis.window.size == 3
    assert evaluate(basis, 0, 0.5) == 1.0
    assert evaluate(basis, 0, 1.5) == 0.0
    assert evaluate(basis, 1, 1.5) == 1.0
    # right-open support
    assert evaluate(basis, 0, 1.0) == 0.0
    assert evaluate(basis, 0, 0.0) == 1.0


def test_bump_generator_at_origin():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 0))
    assert basis.window.size == 1
    assert evaluate(basis, 0, 1.0) == pytest.approx(2.0**-5, abs=1e-15)
    assert evaluate(basis, 0, 0.0) == 1.0


def test_gaussian_with_perturbed_center():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5},
                             perturbations={(0,): (0.3,)})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 2))
    assert basis.window.size == 5
    assert evaluate(basis, 0, 0.3) == 1.0  # center moved to 0.3
    assert evaluate(basis, 1, 1.0) == 1.0  # others unperturbed


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        lat.GeneratorSpec("wavelet", 1, 1.0, 5.0)


def test_perturbation_magnitude_capped():
    with pytest.raises(ValueError, match="exceeds max magnitude"):
        lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5},
                          perturbations={(0,): (0.6,)})


def test_perturbed_node_must_lie_in_window():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5},
                             perturbations={(7,): (0.1,)})
    with pytest.raises(ValueError, match="outside the window"):
        lat.BasisSet(spec, lat.LatticeWindow(1, 2))


def test_claimed_C_must_be_at_least_one():
    # C >= 1 is a hypothesis of the bound (exit 3), checked when a run is set up;
    # the spec itself rejects only a value that is not finite (exit 2)
    spec = lat.GeneratorSpec("gaussian", 1, 0.5, 5.0, params={"sigma": 0.5})
    with pytest.raises(HypothesisViolation, match="C >= 1"):
        pl.RunSettings(name="c", d=1, radii=(1, 2), grid_h=0.25, grid_R=10.0, t=2,
                       families=[pl.FamilySettings("gauss", spec)])
    with pytest.raises(ValueError, match="claimed_C must be finite"):
        lat.GeneratorSpec("gaussian", 1, math.nan, 5.0, params={"sigma": 0.5})


@pytest.mark.parametrize("family,params", [
    ("polynomial-bump", {"s": -1.0}),
    ("gaussian", {"sigma": 0.0}),
    ("bspline-order-m", {"order": 0}),
    ("bspline-order-m", {}),
    ("bspline-order-m", {"order": lat.MAX_BSPLINE_ORDER + 1}),
    ("bspline-order-m", {"order": 99999999999999999999}),
    ("bspline-order-m", {"order": math.inf}),
    ("bspline-order-m", {"order": math.nan}),
])
def test_bad_family_parameters_rejected(family, params):
    with pytest.raises(ValueError):
        lat.GeneratorSpec(family, 1, 2.0, 5.0, params=params)


def test_bspline_orders_up_to_the_maximum_sum_to_one():
    # the integer translates of a cardinal B-spline are a partition of unity;
    # the truncated-power sum keeps that to 1e-11 up to MAX_BSPLINE_ORDER
    x = np.arange(64) / 64
    for order in range(1, lat.MAX_BSPLINE_ORDER + 1):
        spec = lat.GeneratorSpec("bspline-order-m", 1, 2.0, 5.0, params={"order": order})
        assert spec.params["order"] == order
        total = sum(lat._bspline_1d(x + i, order) for i in range(order))
        assert np.max(np.abs(total - 1.0)) < 1e-11, order


def test_evaluate_outside_window_rejected():
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 1))
    with pytest.raises(IndexError):
        evaluate(basis, 2, 0.5)


def test_bspline_order_two_is_the_hat():
    spec = lat.GeneratorSpec("bspline-order-m", 1, 50.0, 5.0, params={"order": 2})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 0))
    assert evaluate(basis, 0, 1.0) == 1.0
    assert evaluate(basis, 0, 0.5) == 0.5
    assert evaluate(basis, 0, 1.5) == 0.5
    assert evaluate(basis, 0, 2.5) == 0.0
    # integrates to one
    grid = lat.Grid(h=1 / 64, R=4.0, d=1)
    assert basis.sample(0, grid).sum() * grid.weight == pytest.approx(1.0, abs=1e-12)


def test_translation_covariance_zero_perturbations():
    grid = lat.Grid(h=1 / 64, R=4.0, d=1)
    for family, params in [("polynomial-bump", {"s": 5.0}),
                           ("gaussian", {"sigma": 0.5}),
                           ("bspline-order-m", {"order": 2})]:
        spec = lat.GeneratorSpec(family, 1, 50.0, 5.0, params=params)
        basis = lat.BasisSet(spec, lat.LatticeWindow(1, 2))
        x = grid_points(grid)[:, 0]
        shifted = evaluate(basis, 2, x)
        reference = evaluate(basis, 0, x - 2.0)
        assert np.array_equal(shifted, reference)
    # d=2: the axis-by-axis samples of a shifted translate against the dense
    # evaluation of the origin's translate at shifted points
    grid = lat.Grid(h=1 / 8, R=4.0, d=2)
    for family, params in [("polynomial-bump", {"s": 6.0}),
                           ("gaussian", {"sigma": 0.5}),
                           ("bspline-indicator", {})]:
        spec = lat.GeneratorSpec(family, 2, 64.0, 6.0, params=params)
        basis = lat.BasisSet(spec, lat.LatticeWindow(2, 1))
        shifted = basis.sample((1, 0), grid)
        reference = evaluate(basis, (0, 0), grid_points(grid) - np.array([1.0, 0.0]))
        assert np.array_equal(shifted, reference), family


@pytest.mark.parametrize("d, perturbations", [
    (1, {(0,): (0.3,), (-2,): (-0.5,)}),
    (2, {(0, 0): (0.25, -0.25), (1, -1): (-0.125, 0.5), (-2, 2): (0.0, 0.375)}),
])
def test_centers_are_nodes_plus_their_perturbations(d, perturbations):
    window = lat.LatticeWindow(d, 2)
    spec = lat.GeneratorSpec("gaussian", d, 46.0, d + 4.0, params={"sigma": 0.5},
                             perturbations=perturbations)
    basis = lat.BasisSet(spec, window)
    assert basis.centers.shape == (window.size, d) and basis.centers.dtype == float
    assert basis.centers.flags.writeable is False
    with pytest.raises(ValueError):
        basis.centers[0, 0] = 1.0
    expected = window.indices.astype(float)
    for node, delta in perturbations.items():
        expected[window.index_of(node)] += delta
    assert np.array_equal(basis.centers, expected)
    for row, k in enumerate(window.indices):
        assert np.array_equal(center(basis, k), expected[row])
    assert np.array_equal(center(basis, (0,) * d), np.asarray(perturbations[(0,) * d]))


def test_two_dimensional_evaluation():
    spec = lat.GeneratorSpec("gaussian", 2, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(2, 1))
    val = evaluate(basis, (1, -1), (1.0, -1.0))
    assert val == 1.0
    assert evaluate(basis, (0, 0), (0.5, 0.0)) == pytest.approx(math.exp(-0.5))


# --- decay measurement -------------------------------------------------------


def origin_samples(spec, grid):
    """measure_decay of the member of `spec` at the origin."""
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 0))
    return lat.measure_decay(basis.sample(0, grid), 0, grid)


def test_bump_envelope_is_tight():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    constant = lat.envelope_constant(*origin_samples(spec, grid), 5.0)
    assert constant == pytest.approx(1.0, abs=1e-12)


def test_indicator_envelope_attained_inside_support():
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    constant = lat.envelope_constant(*origin_samples(spec, grid), 3.0)
    # largest grid point inside [0,1) sits at 0.99
    assert constant == pytest.approx(1.99**3, rel=1e-9)
    assert constant <= 8.0


def test_gaussian_envelope_and_regression():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    samples = origin_samples(spec, grid)
    constant = lat.envelope_constant(*samples, 5.0)
    # analytic maximum of exp(-x^2/(2 sigma^2)) (1+x)^5 at the stationary point
    x_star = (-1 + math.sqrt(1 + 20 * 0.25)) / 2
    peak = math.exp(-x_star**2 / 0.5) * (1 + x_star) ** 5
    assert constant <= peak
    assert constant == pytest.approx(peak, rel=1e-3)
    assert lat.decay_exponent(*samples) >= 5.0


def test_envelope_consistency_in_exponent(d1_suite):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    grid = lat.Grid(h=0.05, R=8.0, d=1)
    samples = origin_samples(spec, grid)
    consts = [lat.envelope_constant(*samples, u) for u in (1.0, 2.0, 3.0, 5.0)]
    assert all(a <= b + 1e-15 for a, b in zip(consts, consts[1:]))
    # the origin member of each run family, up to its claimed s
    grid = d1_suite.settings.grid()
    for fam in d1_suite.families:
        s = fam.spec.claimed_s
        samples = lat.measure_decay(fam.basis_k0, (0,), grid)
        consts = [lat.envelope_constant(*samples, u) for u in (s / 2, 0.75 * s, s)]
        assert consts[-1] == fam.basis_rows[0][1], fam.name
        assert all(a <= b * (1 + 1e-14) for a, b in zip(consts, consts[1:])), fam.name


def test_measure_decay_requires_coverage():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 2))
    grid = lat.Grid(h=0.05, R=8.0, d=1)
    samples = basis.sample(2, grid)
    with pytest.raises(ValueError, match="cover"):
        lat.measure_decay(samples, 2, grid)


def test_measure_decay_gives_the_samples_and_their_radii():
    # d = 2, a node off the origin, and samples on a centred sub-grid
    grid, support = lat.Grid(h=0.125, R=10.0, d=2), lat.Grid(h=0.125, R=3.0, d=2)
    values = np.random.default_rng(5).standard_normal(support.n_points)
    values[::7] = -0.0
    magnitudes, radii = lat.measure_decay(values, (1, -2), grid, support)
    assert magnitudes.shape == radii.shape == (support.n_points,)
    assert np.array_equal(magnitudes, np.abs(values))
    assert not np.signbit(magnitudes).any()
    assert np.array_equal(radii, lat.max_norm(grid_points(support) - np.array([1.0, -2.0])))


def test_all_zero_samples_flagged():
    values, radii = np.zeros(100), np.linspace(0, 9, 100)
    assert lat.envelope_constant(values, radii, 3.0) == 0.0
    assert lat.decay_exponent(values, radii) == math.inf
    # (1 + 1e3)^400 overflows: a zero sample there needs no constant and a
    # nonzero one an infinite one, with no RuntimeWarning (an error here)
    assert lat.envelope_constant([0.0, 1.0], [1e3, 0.0], 400.0) == 1.0
    assert lat.envelope_constant([1e-300, 1.0], [1e3, 0.0], 400.0) == math.inf


def loop_loglog_fit(values, radii, bin_width):
    """The per-bin loop that decay_exponent must match exactly."""
    values = np.abs(np.asarray(values, dtype=float)).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    nbins = int(math.floor(radii.max() / bin_width)) + 1
    which = np.minimum((radii / bin_width).astype(int), nbins - 1)
    xs, ys = [], []
    for b in range(nbins):
        mask = which == b
        if not np.any(mask):
            continue
        vals = values[mask]
        imax = np.argmax(vals)
        if vals[imax] <= 0.0:
            continue
        xs.append(math.log(1.0 + radii[mask][imax]))
        ys.append(math.log(vals[imax]))
    if len(xs) < 3:
        return math.inf
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(-slope)


# few distinct values and radii on a coarse lattice, so bins hold ties and gaps
_values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 3.5]),
                    st.floats(-1e3, 1e3, allow_nan=False))
_radii = st.one_of(st.integers(0, 24).map(lambda m: m / 4),
                   st.floats(0.0, 12.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_values, _radii), min_size=1, max_size=60),
       bin_width=st.sampled_from([0.3, 0.5, 1.0, 2.5]), all_zero=st.booleans())
def test_loglog_fit_matches_per_bin_loop(pairs, bin_width, all_zero):
    values = np.array([0.0 if all_zero else v for v, _ in pairs])
    radii = np.array([r for _, r in pairs])

    exponent = lat.decay_exponent(values, radii, bin_width=bin_width)
    assert repr(exponent) == repr(loop_loglog_fit(values, radii, bin_width))


def shell_profile(values, ys):
    """(maxima, radii): the largest |value| on each distinct max-norm radius
    of the samples at the per-axis offsets `ys`, the shells in the order of
    the first sample that attains each shell's maximum.

    The envelope constant and decay exponent of this profile are those of
    all the samples: each envelope product is the same float, and each
    regression bin keeps the first sample at its maximum. A radius is one of
    its sample's axis distances, so its shell is the largest of their
    indices into the sorted distinct distances.
    """
    values = np.abs(np.asarray(values, dtype=float)).ravel()
    dists = [np.abs(np.asarray(y, dtype=float)) for y in ys]
    ranked = np.sort(np.concatenate([x.ravel() for x in dists]))
    shells = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    which = functools.reduce(np.maximum, [np.searchsorted(shells, x) for x in dists]).ravel()
    maxima = np.full(shells.size, -np.inf)
    np.maximum.at(maxima, which, values)
    hits = np.flatnonzero(values == maxima[which])
    first = np.full(shells.size, values.size)
    np.minimum.at(first, which[hits], hits)
    heads = np.sort(first[first < values.size])  # distances that are no radius drop out
    return values[heads], shells[which[heads]]


# d=2 grids stay small; h = 0.1 and 0.07 are not dyadic, so equal radii can
# round to different floats and the shells must not be merged by r / h
@settings(max_examples=120, deadline=None)
@given(d=st.sampled_from([1, 2]), h=st.sampled_from([1 / 64, 1 / 8, 0.1, 0.07]),
       center=st.lists(st.sampled_from([-1.0, 0.0, 1.0, 0.3, -0.25]), min_size=2, max_size=2),
       kind=st.sampled_from(["ties", "decaying", "all-zero"]), seed=st.integers(0, 2**16),
       u=st.sampled_from([0.0, 2.0, 5.0, 7.5]), bin_width=st.sampled_from([0.3, 0.5, 1.0]))
def test_profile_fit_matches_full_sample_fit(d, h, center, kind, seed, u, bin_width):
    """The fits of all the samples equal those of their shell profile."""
    grid = lat.Grid(h=h, R=6.0 if d == 1 else 2.0, d=d)
    offsets = grid.offsets(center[:d])
    radii = lat.axes_max_norm(offsets)
    rng = np.random.default_rng(seed)
    if kind == "ties":
        values = rng.integers(-2, 3, radii.shape).astype(float)
    elif kind == "decaying":
        values = rng.standard_normal(radii.shape) * (1.0 + radii) ** -3.0
    else:
        values = np.zeros(radii.shape)

    profile = shell_profile(values, offsets)
    assert np.array_equal(np.sort(profile[1]), np.unique(radii))
    # the radii as one array give the same profile as the offsets axis by axis
    assert all(np.array_equal(a, b) for a, b in zip(profile, shell_profile(values, [radii])))
    assert repr(lat.envelope_constant(values, radii, u)) == \
        repr(lat.envelope_constant(*profile, u))
    assert repr(lat.decay_exponent(values, radii, bin_width=bin_width)) == \
        repr(lat.decay_exponent(*profile, bin_width=bin_width))


def test_steep_loglog_fit_has_finite_exponent():
    # a drop by 600 decades between two adjacent bins: the intercept is near 1000
    values = np.array([1e300, 1e-300, 1e-301])
    radii = np.array([0.49, 0.5, 1.0])
    exponent = lat.decay_exponent(values, radii)
    assert math.isfinite(exponent) and exponent > 0


def test_perturbation_penalty_bound():
    sigma, s = 0.5, 5.0
    base = lat.GeneratorSpec("gaussian", 1, 6.0, s, params={"sigma": sigma})
    pert = lat.GeneratorSpec("gaussian", 1, 46.0, s, params={"sigma": sigma},
                             perturbations={(0,): (0.5,)})
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    c_base = lat.envelope_constant(*origin_samples(base, grid), s)
    c_pert = lat.envelope_constant(*origin_samples(pert, grid), s)
    assert c_pert <= c_base * 1.5**s


@pytest.mark.parametrize("sigma", [0.0, 0.99e-100])
def test_gaussian_width_under_the_floor_is_rejected(sigma):
    with pytest.raises(ValueError, match=f"sigma >= 1e-100, got {sigma}"):
        lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": sigma})


def test_gaussian_at_the_width_floor_samples_finitely():
    # the farthest offsets a grid within the sample cap has: d=1 with
    # 8e7 points at h = 1/4 reaches R = 1e7, and a node lies inside the grid
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0,
                             params={"sigma": lat.MIN_GAUSSIAN_SIGMA})
    values = spec.generator([np.array([0.0, 1e-100, 2e7, -2e7])])
    assert values.tolist() == [1.0, math.exp(-0.5), 0.0, 0.0]


def test_scaled_basis_amplitude():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = scaled_basis(lat.BasisSet(spec, lat.LatticeWindow(1, 0)), 2.0)
    assert evaluate(basis, 0, 1.0) == pytest.approx(2.0 * 2.0**-5)
    assert basis.spec.claimed_C == 2.0


def _positions_by_loop(win, sub):
    """Reference: one Horner step per coordinate of every sub-window node."""
    side = 2 * win.N + 1
    out = []
    for k in sub.indices:
        pos = 0
        for c in k:
            pos = pos * side + (int(c) + win.N)
        out.append(pos)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_positions_of_matches_loop(d):
    win = lat.LatticeWindow(d, 3)
    for r in range(win.N + 1):
        sub = lat.LatticeWindow(d, r)
        pos = win.positions_of(sub)
        assert pos.dtype.kind == "i"
        assert pos.tolist() == _positions_by_loop(win, sub)
        assert [win.index_of(k) for k in sub.indices] == pos.tolist()
        assert np.array_equal(win.indices[pos], sub.indices)


def test_sample_matrix_built_once_and_read_only():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 3))
    grid = lat.Grid(h=1 / 16, R=12.0, d=1)
    F = basis.sample_matrix(grid)
    assert F.flags.writeable is False
    with pytest.raises(ValueError):
        F[0, 0] = 1.0
    assert basis.sample_matrix(grid) is F
    assert basis.sample_matrix(lat.Grid(h=1 / 16, R=12.0, d=1)) is F
    assert np.array_equal(F, np.stack([evaluate(basis, k, grid_points(grid))
                                       for k in basis.window.indices]))
    coarse = lat.Grid(h=1 / 8, R=12.0, d=1)
    assert basis.sample_matrix(coarse).shape == (7, coarse.n_points)


# the compact families at spacings dyadic and not; d=2 windows stay small
@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), h=st.sampled_from([1 / 64, 1 / 8, 0.1, 0.07]),
       order=st.sampled_from([None, 1, 2, 3]))
def test_support_grid_holds_every_nonzero_sample(data, d, h, order):
    window = lat.LatticeWindow(d, data.draw(st.integers(0, 2 if d == 1 else 1)))
    nodes = [tuple(k) for k in window.indices.tolist()]
    shift = st.floats(-lat.MAX_PERTURBATION, lat.MAX_PERTURBATION)
    perturbations = data.draw(st.dictionaries(st.sampled_from(nodes),
                                              st.tuples(*[shift] * d), max_size=3))
    family, params = ("bspline-indicator", {}) if order is None else \
        ("bspline-order-m", {"order": order})
    spec = lat.GeneratorSpec(family, d, 1e3, d + 4.0, params=params,
                             perturbations=perturbations)
    basis = lat.BasisSet(spec, window)
    grid = lat.Grid(h=h, R=window.N + 4.0, d=d)
    support = basis.support_grid(grid)
    assert (support.h, support.d) == (grid.h, grid.d)
    assert support.R == window.N + spec.support_radius < grid.R
    lo = grid.steps - support.steps
    assert grid.axis[lo:lo + support.axis.size].tobytes() == support.axis.tobytes()
    for k in window.indices:
        # padded with +0.0, the support-grid samples are the grid samples bit for
        # bit: every sample off the support grid is exactly 0
        padded = grid.embed(basis.sample(k, support), support)
        assert padded.tobytes() == basis.sample(k, grid).tobytes(), k


@pytest.mark.parametrize("family,params", [("polynomial-bump", {"s": 5.0}),
                                           ("gaussian", {"sigma": 0.5}),
                                           ("bspline-order-m", {"order": 2})])
@pytest.mark.parametrize("d", [1, 2])
def test_support_grid_is_the_grid_without_room_to_drop(family, params, d):
    spec = lat.GeneratorSpec(family, d, 1e3, d + 4.0, params=params)
    basis = lat.BasisSet(spec, lat.LatticeWindow(d, 1))
    # no compact support, or supports that reach the grid's edge
    grid = lat.Grid(h=1 / 8, R=3.0 if spec.support_radius is not None else 9.0, d=d)
    assert basis.support_grid(grid) is grid
    assert basis.sample_matrix(grid).shape == (basis.window.size, grid.n_points)


def test_embed_pads_a_centred_sub_grid():
    grid, sub = lat.Grid(h=0.25, R=0.5, d=2), lat.Grid(h=0.25, R=0.25, d=2)
    values = np.arange(1.0, 10.0)
    padded = grid.embed(values, sub).reshape(5, 5)
    assert np.array_equal(padded[1:4, 1:4].ravel(), values)
    assert not np.any(padded[[0, 4]]) and not np.any(padded[:, [0, 4]])
    with pytest.raises(ValueError, match="sub-grid"):
        sub.embed(np.zeros(grid.n_points), grid)
    with pytest.raises(ValueError, match="sub-grid"):
        grid.embed(values, lat.Grid(h=0.125, R=0.125, d=2))


def _dense_generator(spec: lat.GeneratorSpec, y: np.ndarray) -> np.ndarray:
    """The generator written point by point on dense (..., d) offsets."""
    if spec.family == "polynomial-bump":
        return np.power(1.0 + np.max(np.abs(y), axis=-1), -spec.params["s"])
    if spec.family == "gaussian":
        return np.exp(-np.sum(y * y, axis=-1) / (2.0 * spec.params["sigma"] ** 2))
    order = spec.params.get("order", 1)
    out = np.ones(y.shape[:-1])
    for i in range(spec.d):
        out = out * lat._bspline_1d(y[..., i], order)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family,params", [
    ("polynomial-bump", {"s": 5.0}),
    ("gaussian", {"sigma": 0.5}),
    ("bspline-indicator", {}),
    ("bspline-order-m", {"order": 3}),
])
def test_axis_wise_sampling_matches_dense_points(family, params, d):
    # two centers off the dyadic grid, so every offset axis - c_i is rounded;
    # on the dyadic grid sample_all slices the other rows from one wide
    # evaluation, on h = 1/5 it evaluates every row, and with no
    # perturbation it slices every row
    rng = np.random.default_rng(d)
    perturbed = {(0,) * d: tuple(rng.uniform(-0.5, 0.5, d)),
                 (1,) + (-1,) * (d - 1): tuple(rng.uniform(-0.5, 0.5, d))}
    for h, perturbations in ((0.25, perturbed), (0.2, perturbed), (0.25, {}), (0.2, {})):
        spec = lat.GeneratorSpec(family, d, 1e3, d + 4.0, params=params,
                                 perturbations=perturbations)
        basis = lat.BasisSet(spec, lat.LatticeWindow(d, 1))
        grid = lat.Grid(h=h, R=3.0, d=d)
        F = basis.sample_all(grid)
        points = grid_points(grid)
        for row, k in enumerate(basis.window.indices):
            case = (h, bool(perturbations), tuple(k))
            dense, c = evaluate(basis, k, points), center(basis, k)
            assert np.array_equal(F[row], dense), case
            assert np.array_equal(basis.sample(k, grid), dense), case
            assert np.array_equal(dense, _dense_generator(spec, points - c)), case
            radii = lat.axes_max_norm(grid.offsets(c)).reshape(-1)
            assert np.array_equal(radii, lat.max_norm(points - c)), case
            assert np.array_equal(radii, np.max(np.abs(points - c), axis=-1)), case


def test_sample_all_on_a_grid_narrower_than_a_unit_evaluates_each_row():
    # h = 2^-12 is dyadic, but at R = h the grid widened by N = 50 would hold
    # 409603 points against the 303 entries of the sample matrix
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.BasisSet(spec, lat.LatticeWindow(1, 50))
    grid = lat.Grid(h=2.0**-12, R=2.0**-12, d=1)
    tracemalloc.start()
    try:
        F = basis.sample_all(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for row, k in enumerate(basis.window.indices):
        assert np.array_equal(F[row], evaluate(basis, k, grid_points(grid))), k
