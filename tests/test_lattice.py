import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdecay import lattice as lat
from dualdecay import pipeline as pl
from dualdecay.errors import HypothesisViolation

from conftest import scaled_basis


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
    assert np.allclose(grid.points[:, 0], np.arange(-4, 5) * 0.25)


def test_grid_spacing_guard():
    with pytest.raises(ValueError):
        lat.Grid(h=0.5, R=1.0, d=1)
    with pytest.raises(ValueError):
        lat.Grid(h=1 / 64, R=-1.0, d=1)


# --- generator families ------------------------------------------------------


def test_indicator_basis_three_functions():
    spec = lat.GeneratorSpec("bspline-indicator", 1, claimed_C=32.0, claimed_s=5.0)
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 1))
    assert len(basis) == 3
    assert basis.evaluate(0, 0.5) == 1.0
    assert basis.evaluate(0, 1.5) == 0.0
    assert basis.evaluate(1, 1.5) == 1.0
    # right-open support
    assert basis.evaluate(0, 1.0) == 0.0
    assert basis.evaluate(0, 0.0) == 1.0


def test_bump_generator_at_origin():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 0))
    assert len(basis) == 1
    assert basis.evaluate(0, 1.0) == pytest.approx(2.0**-5, abs=1e-15)
    assert basis.evaluate(0, 0.0) == 1.0


def test_gaussian_with_perturbed_center():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5},
                             perturbations={(0,): (0.3,)})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 2))
    assert len(basis) == 5
    assert basis.evaluate(0, 0.3) == 1.0  # center moved to 0.3
    assert basis.evaluate(1, 1.0) == 1.0  # others unperturbed


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
        lat.make_basis(spec, lat.LatticeWindow(1, 2))


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
])
def test_bad_family_parameters_rejected(family, params):
    with pytest.raises(ValueError):
        lat.GeneratorSpec(family, 1, 2.0, 5.0, params=params)


def test_evaluate_outside_window_rejected():
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 1))
    with pytest.raises(IndexError):
        basis.evaluate(2, 0.5)


def test_bspline_order_two_is_the_hat():
    spec = lat.GeneratorSpec("bspline-order-m", 1, 50.0, 5.0, params={"order": 2})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 0))
    assert basis.evaluate(0, 1.0) == 1.0
    assert basis.evaluate(0, 0.5) == 0.5
    assert basis.evaluate(0, 1.5) == 0.5
    assert basis.evaluate(0, 2.5) == 0.0
    # integrates to one
    grid = lat.Grid(h=1 / 64, R=4.0, d=1)
    assert basis.sample(0, grid).sum() * grid.weight == pytest.approx(1.0, abs=1e-12)


def test_translation_covariance_zero_perturbations():
    grid = lat.Grid(h=1 / 64, R=4.0, d=1)
    for family, params in [("polynomial-bump", {"s": 5.0}),
                           ("gaussian", {"sigma": 0.5}),
                           ("bspline-order-m", {"order": 2})]:
        spec = lat.GeneratorSpec(family, 1, 50.0, 5.0, params=params)
        basis = lat.make_basis(spec, lat.LatticeWindow(1, 2))
        x = grid.points[:, 0]
        shifted = basis.evaluate(2, x)
        reference = basis.evaluate(0, x - 2.0)
        assert np.array_equal(shifted, reference)
    # d=2: the axis-by-axis samples of a shifted member against the dense
    # evaluation of the origin's member at shifted points
    grid = lat.Grid(h=1 / 8, R=4.0, d=2)
    for family, params in [("polynomial-bump", {"s": 6.0}),
                           ("gaussian", {"sigma": 0.5}),
                           ("bspline-indicator", {})]:
        spec = lat.GeneratorSpec(family, 2, 64.0, 6.0, params=params)
        basis = lat.make_basis(spec, lat.LatticeWindow(2, 1))
        shifted = basis.member((1, 0)).sample(grid)
        reference = basis.member((0, 0))(grid.points - np.array([1.0, 0.0]))
        assert np.array_equal(shifted, reference), family


def test_two_dimensional_evaluation():
    spec = lat.GeneratorSpec("gaussian", 2, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.make_basis(spec, lat.LatticeWindow(2, 1))
    val = basis.evaluate((1, -1), (1.0, -1.0))
    assert val == 1.0
    assert basis.evaluate((0, 0), (0.5, 0.0)) == pytest.approx(math.exp(-0.5))


# --- decay measurement -------------------------------------------------------


def origin_profile(spec, grid):
    """Radial profile of the member of `spec` at the origin."""
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 0))
    return lat.measure_decay(basis.sample(0, grid), 0, grid)


def test_bump_envelope_is_tight():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    constant = lat.envelope_constant(*origin_profile(spec, grid), 5.0)
    assert constant == pytest.approx(1.0, abs=1e-12)


def test_indicator_envelope_attained_inside_support():
    spec = lat.GeneratorSpec("bspline-indicator", 1, 32.0, 5.0)
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    constant = lat.envelope_constant(*origin_profile(spec, grid), 3.0)
    # largest grid point inside [0,1) sits at 0.99
    assert constant == pytest.approx(1.99**3, rel=1e-9)
    assert constant <= 8.0


def test_gaussian_envelope_and_regression():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    grid = lat.Grid(h=0.01, R=8.0, d=1)
    profile = origin_profile(spec, grid)
    constant = lat.envelope_constant(*profile, 5.0)
    # analytic maximum of exp(-x^2/(2 sigma^2)) (1+x)^5 at the stationary point
    x_star = (-1 + math.sqrt(1 + 20 * 0.25)) / 2
    peak = math.exp(-x_star**2 / 0.5) * (1 + x_star) ** 5
    assert constant <= peak
    assert constant == pytest.approx(peak, rel=1e-3)
    assert lat.decay_exponent(*profile) >= 5.0


def test_envelope_consistency_in_exponent(d1_suite):
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    grid = lat.Grid(h=0.05, R=8.0, d=1)
    profile = origin_profile(spec, grid)
    consts = [lat.envelope_constant(*profile, u) for u in (1.0, 2.0, 3.0, 5.0)]
    assert all(a <= b + 1e-15 for a, b in zip(consts, consts[1:]))
    # the origin member of each run family, up to its claimed s
    grid = d1_suite.settings.grid()
    for fam in d1_suite.families:
        s = fam.spec.claimed_s
        profile = lat.measure_decay(fam.basis_k0, (0,), grid)
        consts = [lat.envelope_constant(*profile, u) for u in (s / 2, 0.75 * s, s)]
        assert consts[-1] == fam.basis_rows[0][1], fam.name
        assert all(a <= b * (1 + 1e-14) for a, b in zip(consts, consts[1:])), fam.name


def test_measure_decay_requires_coverage():
    spec = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 2))
    grid = lat.Grid(h=0.05, R=8.0, d=1)
    samples = basis.sample(2, grid)
    with pytest.raises(ValueError, match="cover"):
        lat.measure_decay(samples, 2, grid)


def test_all_zero_samples_flagged():
    values, radii = np.zeros(100), np.linspace(0, 9, 100)
    assert lat.envelope_constant(values, radii, 3.0) == 0.0
    assert lat.decay_exponent(values, radii) == math.inf


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


# d=2 grids stay small; h = 0.1 and 0.07 are not dyadic, so equal radii can
# round to different floats and the shells must not be merged by r / h
@settings(max_examples=120, deadline=None)
@given(d=st.sampled_from([1, 2]), h=st.sampled_from([1 / 64, 1 / 8, 0.1, 0.07]),
       center=st.lists(st.sampled_from([-1.0, 0.0, 1.0, 0.3, -0.25]), min_size=2, max_size=2),
       kind=st.sampled_from(["ties", "decaying", "all-zero"]), seed=st.integers(0, 2**16),
       u=st.sampled_from([0.0, 2.0, 5.0, 7.5]), bin_width=st.sampled_from([0.3, 0.5, 1.0]))
def test_profile_fit_matches_full_sample_fit(d, h, center, kind, seed, u, bin_width):
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

    profile = lat.radial_profile(values, offsets)
    assert np.array_equal(np.sort(profile[1]), np.unique(radii))
    # the radii as one array give the same profile as the offsets axis by axis
    assert all(np.array_equal(a, b) for a, b in zip(profile, lat.radial_profile(values, [radii])))
    assert repr(lat.envelope_constant(*profile, u)) == \
        repr(lat.envelope_constant(values, radii, u))
    assert repr(lat.decay_exponent(*profile, bin_width=bin_width)) == \
        repr(lat.decay_exponent(values, radii, bin_width=bin_width))


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
    c_base = lat.envelope_constant(*origin_profile(base, grid), s)
    c_pert = lat.envelope_constant(*origin_profile(pert, grid), s)
    assert c_pert <= c_base * 1.5**s


def test_validate_claimed_envelope():
    good = lat.GeneratorSpec("gaussian", 1, 6.0, 5.0, params={"sigma": 0.5})
    grid = lat.Grid(h=1 / 64, R=8.0, d=1)
    measured = lat.validate_claimed_envelope(lat.make_basis(good, lat.LatticeWindow(1, 0)), grid)
    assert measured[(0,)][0] <= 6.0
    bad = lat.GeneratorSpec("gaussian", 1, 1.0, 5.0, params={"sigma": 0.5})
    with pytest.raises(ValueError, match="exceeds claimed"):
        lat.validate_claimed_envelope(lat.make_basis(bad, lat.LatticeWindow(1, 0)), grid)


def test_scaled_basis_amplitude():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    basis = scaled_basis(lat.make_basis(spec, lat.LatticeWindow(1, 0)), 2.0)
    assert basis.evaluate(0, 1.0) == pytest.approx(2.0 * 2.0**-5)
    assert basis.member(0).envelope_C == 2.0


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
    basis = lat.make_basis(spec, lat.LatticeWindow(1, 3))
    grid = lat.Grid(h=1 / 16, R=12.0, d=1)
    F = basis.sample_matrix(grid)
    assert F.flags.writeable is False
    with pytest.raises(ValueError):
        F[0, 0] = 1.0
    assert basis.sample_matrix(grid) is F
    assert basis.sample_matrix(lat.Grid(h=1 / 16, R=12.0, d=1)) is F
    assert np.array_equal(F, np.stack([m(grid.points) for m in basis.members()]))
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
    basis = lat.make_basis(spec, window)
    grid = lat.Grid(h=h, R=window.N + 4.0, d=d)
    support = basis.support_grid(grid)
    assert (support.h, support.d) == (grid.h, grid.d)
    assert support.R == window.N + spec.support_radius < grid.R
    lo = grid.steps - support.steps
    assert grid.axis[lo:lo + support.axis.size].tobytes() == support.axis.tobytes()
    for m in basis.members():
        # padded with +0.0, the support-grid samples are the grid samples bit for
        # bit: every sample off the support grid is exactly 0
        padded = grid.embed(m.sample(support), support)
        assert padded.tobytes() == m.sample(grid).tobytes(), m.node


@pytest.mark.parametrize("family,params", [("polynomial-bump", {"s": 5.0}),
                                           ("gaussian", {"sigma": 0.5}),
                                           ("bspline-order-m", {"order": 2})])
@pytest.mark.parametrize("d", [1, 2])
def test_support_grid_is_the_grid_without_room_to_drop(family, params, d):
    spec = lat.GeneratorSpec(family, d, 1e3, d + 4.0, params=params)
    basis = lat.make_basis(spec, lat.LatticeWindow(d, 1))
    # no compact support, or supports that reach the grid's edge
    grid = lat.Grid(h=1 / 8, R=3.0 if spec.support_radius is not None else 9.0, d=d)
    assert basis.support_grid(grid) is grid
    assert basis.sample_matrix(grid).shape == (len(basis), grid.n_points)


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
    # centers off the dyadic grid, so every offset axis - c_i is rounded
    rng = np.random.default_rng(d)
    perturbations = {(0,) * d: tuple(rng.uniform(-0.5, 0.5, d)),
                     (1,) + (-1,) * (d - 1): tuple(rng.uniform(-0.5, 0.5, d))}
    spec = lat.GeneratorSpec(family, d, 1e3, d + 4.0, params=params,
                             perturbations=perturbations)
    basis = lat.make_basis(spec, lat.LatticeWindow(d, 1))
    grid = lat.Grid(h=0.25, R=3.0, d=d)
    F = basis.sample_all(grid)
    for row, m in enumerate(basis.members()):
        dense = m(grid.points)
        assert np.array_equal(F[row], dense), m.node
        assert np.array_equal(basis.sample(m.node, grid), dense), m.node
        assert np.array_equal(dense, _dense_generator(spec, grid.points - m.center)), m.node
        radii = lat.axes_max_norm(grid.offsets(m.center)).reshape(-1)
        assert np.array_equal(radii, lat.max_norm(grid.points - m.center)), m.node
        assert np.array_equal(radii, np.max(np.abs(grid.points - m.center), axis=-1)), m.node
