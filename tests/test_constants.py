import math

import mpmath
import numpy as np
import pytest
from scipy.special import zeta

from dualdecay import constants as cst
from dualdecay import duals as du
from dualdecay import gramian as gr
from dualdecay import lattice as lat
from dualdecay.errors import ConfigError, HypothesisViolation

from conftest import RIESZ_RTOL, leibniz_check


# --- shell machinery -----------------------------------------------------------


def brute_shell_count(d, n):
    axes = [np.arange(-n, n + 1)] * d
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
    return int(np.sum(np.max(np.abs(pts), axis=1) == n))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_count_matches_enumeration(d):
    # the origin is its own shell; every shell n >= 1 has s_d(n) points
    assert brute_shell_count(d, 0) == 1
    for n in range(1, 6):
        assert np.polyval(cst.shell_poly(d), float(n)) == brute_shell_count(d, n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_poly_matches_count(d):
    poly = cst.shell_poly(d)
    for n in range(1, 50):
        assert np.polyval(poly, float(n)) == pytest.approx(brute_shell_count(d, n))


def test_poly_tail_integral_closed_form():
    # d=1: integral of 2 (1+x)^-2 over [a, inf) is 2/(1+a)
    assert cst.lattice_tail_upper(2.0, 1, 100) == pytest.approx(2.0 / 101, rel=1e-14)
    # d=2: integral of 8x (1+x)^-4 over [a, inf)
    a = 10.0
    exact = 8 * ((1 + a) ** -2 / 2 - (1 + a) ** -3 / 3 + a * 0)
    exact = 8 * (1 / (2 * (1 + a) ** 2) - 1 / (3 * (1 + a) ** 3))
    assert cst.lattice_tail_upper(4.0, 2, 10) == pytest.approx(exact, rel=1e-12)


# --- lattice sums ---------------------------------------------------------------


def test_w_sum_basel_closed_form():
    ws = cst.w_sum(2.0, 1, tol=1e-12)
    assert abs(ws.value - (math.pi**2 / 3 - 1)) < 1e-10
    assert ws.error_bound <= 1e-12


def test_w_sum_dominant_term_limit():
    assert cst.w_sum(100.0, 1, tol=1e-12).value == pytest.approx(1.0, abs=1e-12)


def test_w_sum_d2_against_zeta_oracle():
    # shells have 8n points, so W = 1 + 8 (zeta(2) - zeta(3))
    oracle = 1 + 8 * (zeta(2) - zeta(3))
    assert cst.w_sum(3.0, 2, tol=1e-12).value == pytest.approx(oracle, abs=1e-10)


def test_w_sum_monotone_decreasing_in_u():
    for d in (1, 2):
        vals = [cst.w_sum(d + off, d, tol=1e-10).value for off in (0.5, 1.0, 2.0, 4.0, 9.0)]
        assert all(a > b for a, b in zip(vals, vals[1:])), (d, vals)
        assert vals[-1] == pytest.approx(1.0, abs=0.01), d


def test_w_sum_divergence_guard():
    with pytest.raises(ValueError, match="diverges"):
        cst.w_sum(1.0, 1)
    with pytest.raises(ValueError, match="diverges"):
        cst.w_sum(2.0, 2)


def test_w_sum_unattainable_tolerance():
    # W is about 256 here, so float rounding alone allows more than 1e-13
    with pytest.raises(ValueError, match="unattainable"):
        cst.w_sum(1.0078125, 1, tol=1e-13)


def test_lattice_sum_bound_serves_dimensions_up_to_the_maximum():
    assert cst.calibrate_lattice_sum_bound(cst.MAX_BOUNDS_DIM).constant > 0
    with pytest.raises(ValueError, match="unattainable"):
        cst.calibrate_lattice_sum_bound(cst.MAX_BOUNDS_DIM + 1)


def test_w_tail_honesty_under_radius_doubling():
    # the radius is the direct-sum cutoff: doubling it moves shells from the
    # zeta tails into the direct sum, and the value by less than the bound
    for u, d in ((3.0, 1), (2.0 + 2.0**-6, 2), (4.5, 3)):
        ws = cst.w_sum(u, d, tol=1e-10)
        doubled = cst.w_sum(u, d, tol=1e-10, radius=2 * ws.radius)
        assert doubled.radius == 2 * ws.radius
        assert abs(doubled.value - ws.value) < 2 * ws.error_bound, (u, d)


def shifted_shell_coeffs(d):
    """a_p with (2m-1)^d - (2m-3)^d = sum_p a_p m^p, by numpy polynomial powers."""
    P = np.polynomial.Polynomial
    return (P([-1, 2]) ** d - P([-3, 2]) ** d).coef[:d]


# u in d + {2^-6, ..., 1/2, 1, 2, 5, 10}
W_POINTS = [(d, d + off) for d in (1, 2, 3)
            for off in [2.0**-i for i in range(6, 0, -1)] + [1.0, 2.0, 5.0, 10.0]]


@pytest.mark.parametrize("d, u", W_POINTS)
def test_w_sum_against_scipy_zeta(d, u):
    # past the origin W_u = 1 + sum_p a_p (zeta(u - p) - 1)
    oracle = 1.0 + sum(a * (zeta(u - p) - 1.0) for p, a in enumerate(shifted_shell_coeffs(d)))
    ws = cst.w_sum(u, d, tol=1e-7)
    assert type(ws.value) is float and type(ws.error_bound) is float
    assert ws.value == pytest.approx(oracle, rel=1e-12, abs=0)


def test_w_sum_error_bound_covers_true_error():
    with mpmath.workdps(30):
        for d, u in W_POINTS:
            exact = 1 + sum(int(a) * (mpmath.zeta(mpmath.mpf(u) - p) - 1)
                            for p, a in enumerate(shifted_shell_coeffs(d)))
            for radius in (None, 64):
                ws = cst.w_sum(u, d, tol=1e-7, radius=radius)
                assert abs(mpmath.mpf(ws.value) - exact) <= ws.error_bound, (d, u, radius)


def test_zeta_tail_remainder_within_first_omitted_term():
    # at small N the Euler-Maclaurin remainder is far above float rounding:
    # it lies within the first omitted term, and not far below it
    with mpmath.workdps(30):
        for N in (2, 3, 4, 6):
            for sigma in (1.5, 3.0, 7.0):
                terms, dropped = cst._zeta_tail(sigma, N)
                err = abs(mpmath.fsum(map(mpmath.mpf, terms)) - mpmath.zeta(sigma, N))
                assert dropped / 10 <= err <= dropped, (N, sigma)


def shell_loop_w(u, d, tol):
    """W_u by exact shell sums to the first radius 64 * 2^i whose tail bracket
    (between the integral comparisons from n0 and n0 + 1) is at most 2 tol
    wide, plus the bracket midpoint; returns (value, half-width)."""
    radius = 64
    while True:
        upper = cst.lattice_tail_upper(u, d, radius)
        lower = cst.lattice_tail_upper(u, d, radius + 1)
        if upper - lower <= 2.0 * tol:
            break
        radius *= 2
    n = np.arange(1, radius + 1, dtype=float)
    total = 1.0 + float(np.sum(np.polyval(cst.shell_poly(d), n) * np.power(1.0 + n, -u)))
    return total + 0.5 * (upper + lower), 0.5 * (upper - lower)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_w_sum_matches_shell_loop(d):
    for u in (d + 1.5, d + 2.0, d + 4.0):
        value, half_width = shell_loop_w(u, d, 1e-10)
        ws = cst.w_sum(u, d)
        assert abs(ws.value - value) <= half_width + ws.error_bound + 1e-14 * value, (d, u)


# --- comparison bounds ------------------------------------------------------------


def test_lattice_sum_bound_near_dimension():
    cal = cst.calibrate_lattice_sum_bound(1)
    assert math.isfinite(cal.constant)
    assert cal.constant < 3.0
    assert cal.binding[0] == min(cal.grid)  # ratio largest where both sides blow up


def test_lattice_sum_bound_stable_under_grid_refinement():
    base = cst.calibrate_lattice_sum_bound(1).constant
    refined_grid = [1 + 2.0**-i for i in range(8)] + [1 + 0.5 * k for k in range(2, 21)]
    refined = max(cst.w_sum(u, 1, 1e-7).value / (1.0 + 1.0 / (u - 1)) for u in refined_grid)
    assert refined == pytest.approx(base, rel=0.02)


def test_convolution_discrete_at_origin():
    # at k=0 the sum collapses to W_{2u}, a lower bound for the calibration
    j = lat.LatticeWindow(1, 512).indices[:, 0].astype(float)
    lhs0 = float(np.sum(np.power(1 + np.abs(j), -4.0)))
    w4 = 1 + 2 * (zeta(4) - 1)
    assert lhs0 == pytest.approx(w4, abs=1e-6)
    cal = cst.verify_convolution_discrete(2.0, 1, window=8)
    assert cal.constant >= lhs0


def test_convolution_discrete_symmetric_in_k():
    jwin = lat.LatticeWindow(1, 64).indices.astype(float)
    jw = np.power(1.0 + np.abs(jwin[:, 0]), -2.0)
    for k in (1.0, 3.0, 7.0):
        lhs_p = np.sum(np.power(1.0 + np.abs(k - jwin[:, 0]), -2.0) * jw)
        lhs_m = np.sum(np.power(1.0 + np.abs(-k - jwin[:, 0]), -2.0) * jw)
        assert lhs_p == pytest.approx(lhs_m, rel=1e-15)


def test_convolution_discrete_large_u_ratio_two():
    cal = cst.verify_convolution_discrete(40.0, 1, window=4)
    assert cal.constant == pytest.approx(2.0, abs=1e-3)


def test_convolution_discrete_needs_u_at_least_d_plus_one():
    with pytest.raises(ValueError, match="d \\+ 1"):
        cst.verify_convolution_discrete(1.5, 1, window=4)


def _cube_lhs(u, k, radius):
    """sum over the cube |j|_inf <= radius of (1+|k-j|)^-u (1+|j|)^-u, by brute force."""
    j = lat.LatticeWindow(len(k), radius).indices.astype(float)
    return float(np.sum(np.power(1.0 + lat.max_norm(np.asarray(k, float) - j), -u)
                        * np.power(1.0 + lat.max_norm(j), -u)))


@pytest.mark.parametrize("window", [16, 32, 128])
def test_convolution_discrete_at_least_far_field_limit(window):
    # the ratio tends to 2 W_u as |k| -> inf, so no valid constant is smaller;
    # a scan cut at the window edge used to report 0.963-0.9987 of it
    cal = cst.verify_convolution_discrete(2.0, 1, window=window)
    assert cal.constant >= 2.0 * cst.w_sum(2.0, 1, tol=1e-12).value
    assert cal.binding is None            # the supremum is only a limit
    assert cal.constant <= 1.01 * cal.lower


@pytest.mark.parametrize("d", [1, 2])
def test_convolution_axis_node_is_shell_maximum(d):
    u, radius = float(d + 1), 24
    for m in range(9):
        shell = [tuple(int(c) for c in k) for k in lat.LatticeWindow(d, m).indices
                 if max(abs(int(c)) for c in k) == m]
        brute = max(_cube_lhs(u, k, radius) for k in shell)
        axis = cst._axis_lhs(u, d, [m], radius)[0]
        assert axis == pytest.approx(brute, rel=1e-12)
        assert _cube_lhs(u, (m,) + (0,) * (d - 1), radius) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("u, d, window, radius", [(3.0, 1, 8, 200_000), (4.0, 2, 4, 200)])
def test_convolution_bracket_contains_wider_source_ratio(u, d, window, radius):
    cal = cst.verify_convolution_discrete(u, d, window=window)
    assert cal.binding is not None
    assert radius > 4 * cal.scan_radius      # wider than the source the scan summed
    ratio = _cube_lhs(u, cal.binding, radius) * (1.0 + max(map(abs, cal.binding))) ** u
    assert cal.lower <= ratio <= cal.constant
    assert cal.constant <= 1.01 * cal.lower


def test_default_brackets_are_the_scans_at_the_default_windows():
    """DEFAULT_BRACKETS holds, bit for bit, what verify_convolution_discrete
    returns at exactly the (u, d, window) a run asks for in d = 1 and 2, at
    the start windows conv_start_window(d).  On a mismatch the message is
    the fresh table, to paste into constants.py."""
    keys = [(float(d + off), d, cst.conv_start_window(d)) for d in (1, 2) for off in (1, 2, 4)]
    assert sorted(cst.DEFAULT_BRACKETS) == sorted(keys)
    fresh = {key: cst.verify_convolution_discrete(*key) for key in keys}
    literal = "".join(f"    {key!r}: {cal!r},\n" for key, cal in fresh.items())
    assert fresh == cst.DEFAULT_BRACKETS, f"DEFAULT_BRACKETS = {{\n{literal}}}"


# --- the dual-decay constant -------------------------------------------------------


def test_theoretical_D_unit_example():
    tb = cst.TheoreticalBound(C=1.0, A=1.0, s=4.0, t=2, d=1, E=1.0)
    assert tb.D == pytest.approx(4.0, abs=1e-14)


def test_theoretical_D_with_doubled_C():
    tb = cst.TheoreticalBound(C=2.0, A=1.0, s=4.0, t=2, d=1, E=1.0)
    assert tb.D == pytest.approx(128.0, abs=1e-12)


def test_theoretical_D_halved_A():
    base = cst.TheoreticalBound(C=1.5, A=1.0, s=4.0, t=2, d=1, E=1.0)
    halved = cst.TheoreticalBound(C=1.5, A=0.5, s=4.0, t=2, d=1, E=1.0)
    assert halved.D == pytest.approx(2.0 ** (2 + 1) * base.D, rel=1e-13)


def test_theoretical_D_monotonicity():
    for d, t in ((1, 2), (2, 3)):
        s = d + t + 2.0
        base = cst.TheoreticalBound(C=2.0, A=0.5, s=s, t=t, d=d, E=1.2)
        assert cst.TheoreticalBound(C=2.5, A=0.5, s=s, t=t, d=d, E=1.2).D > base.D, d
        assert cst.TheoreticalBound(C=2.0, A=0.5, s=s, t=t, d=d, E=1.5).D > base.D, d
        assert cst.TheoreticalBound(C=2.0, A=0.8, s=s, t=t, d=d, E=1.2).D < base.D, d
        assert cst.TheoreticalBound(C=2.0, A=0.5, s=s + 1.0, t=t, d=d, E=1.2).D < base.D, d


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(C=0.5, A=1.0, s=5.0, t=2, d=1, E=1.0), "C >= 1"),
    (dict(C=1.0, A=1.0, s=5.0, t=1, d=1, E=1.0), "t > d"),
    (dict(C=1.0, A=1.0, s=3.0, t=2, d=1, E=1.0), "s > d\\+t"),
    (dict(C=1.0, A=0.0, s=5.0, t=2, d=1, E=1.0), "A > 0"),
    (dict(C=1.0, A=1.0, s=5.0, t=2, d=1, E=0.0), "E > 0"),
])
def test_theorem_hypothesis_guards(kwargs, fragment):
    with pytest.raises(HypothesisViolation, match=fragment):
        cst.TheoreticalBound(**kwargs)


# C^(2t+1) raising OverflowError, A^(t+1) underflowing to 0, a product of
# finite powers overflowing to inf, and E^(t^2) underflowing to 0
@pytest.mark.parametrize("kwargs", [
    dict(C=1e300, A=1.0, s=105.0, t=100, d=1, E=1.0),
    dict(C=1.0, A=1e-300, s=5.0, t=3, d=1, E=1.0),
    dict(C=1e10, A=1.0, s=5.0, t=3, d=1, E=1e30),
    dict(C=1.0, A=1.0, s=5.0, t=3, d=1, E=1e-40),
], ids=["C-power-raises", "A-power-underflows", "product-overflows", "E-power-underflows"])
def test_theoretical_D_outside_the_float_range_is_a_config_error(kwargs):
    with pytest.raises(ConfigError, match=rf"D at t={kwargs['t']} is not a finite positive"):
        cst.TheoreticalBound(**kwargs).D


def test_hypothesis_requires_integer_t():
    with pytest.raises(HypothesisViolation, match="integer"):
        cst.validate_hypotheses(1.0, 5.0, 2.5, 1)


# --- E calibration ------------------------------------------------------------------


def make_case(name, D_emp, C=1.0, A=1.0, s=5.0, t=2, d=1):
    return cst.CalibrationCase(name, D_emp, C, A, s, t, d)


def test_calibrate_E_orthonormal_suite():
    suite = [make_case(f"f{i}", 4.0) for i in range(3)]
    cal = cst.calibrate_E(suite)
    base = (1 + 1.0 / (5 - 2 - 1)) ** 2  # C=A=1 leaves only the s-factor
    assert cal.E_emp == pytest.approx((4.0 / base) ** 0.25, rel=1e-12)
    for _, e in cal.per_family:
        assert cst.TheoreticalBound(C=1.0, A=1.0, s=5.0, t=2, d=1,
                                    E=max(cal.E_emp, 1e-300)).D >= 4.0 - 1e-9


def test_calibrate_E_enlarging_suite_monotone():
    small = cst.calibrate_E([make_case("a", 2.0), make_case("b", 3.0),
                             make_case("c", 4.0)])
    larger = cst.calibrate_E([make_case("a", 2.0), make_case("b", 3.0),
                              make_case("c", 4.0), make_case("d", 9.0)])
    assert larger.E_emp >= small.E_emp
    assert larger.binding_family == "d"


def test_calibrate_E_validation():
    with pytest.raises(ValueError, match=">= 3 families"):
        cst.calibrate_E([make_case("a", 1.0)])
    with pytest.raises(ValueError, match="one dimension"):
        cst.calibrate_E([make_case("a", 1.0), make_case("b", 1.0),
                         cst.CalibrationCase("c", 1.0, 1.0, 1.0, 7.0, 3, 2)])
    with pytest.raises(ValueError, match="non-finite"):
        cst.calibrate_E([make_case("a", 1.0), make_case("b", 1.0),
                         make_case("c", math.inf)])
    with pytest.raises(ConfigError, match="family 'b': theoretical D at t=2 is not"):
        cst.calibrate_E([make_case("a", 1.0), make_case("b", 1.0, C=1e200),
                         make_case("c", 1.0)])


# --- derivation algebra ----------------------------------------------------------------


def test_leibniz_identity_matrices():
    win = lat.LatticeWindow(1, 4)
    eye = gr.DecayMatrix(win, np.eye(9))
    assert leibniz_check(eye, eye, 1) == 0.0


def test_leibniz_random_pairs_machine_exact():
    rng = np.random.default_rng(1234)
    win = lat.LatticeWindow(1, 4)
    worst = 0.0
    for _ in range(100):
        p = rng.standard_normal((9, 9))
        q = rng.standard_normal((9, 9))
        P = gr.DecayMatrix(win, 0.5 * (p + p.T))
        Q = gr.DecayMatrix(win, 0.5 * (q + q.T))
        worst = max(worst, leibniz_check(P, Q, 1))
    assert worst < 1e-13


def test_leibniz_window_mismatch():
    P = gr.DecayMatrix(lat.LatticeWindow(1, 1), np.eye(3))
    Q = gr.DecayMatrix(lat.LatticeWindow(1, 2), np.eye(5))
    with pytest.raises(ValueError, match="share a window"):
        leibniz_check(P, Q, 1)


def binomial_identity_residual(coeffs, gram, h: int, u: int, eval_radius: int) -> float:
    """max over the central block of |sum_l C(u,l) D^l(inv) D^(u-l)(gram)|.

    Zero exactly when `coeffs` is the exact window inverse; with converged
    core coefficients standing in for the infinite inverse, the residual
    measures how far the finite window is from the full-lattice identity.
    """
    if coeffs.window != gram.window:
        raise ValueError("matrices must share a window")
    n = coeffs.window.size
    total = np.zeros((n, n))
    for el in range(u + 1):
        left = gr.apply_derivation(coeffs, h, el).entries
        right = gr.apply_derivation(gram, h, u - el).entries
        total += math.comb(u, el) * (left @ right)
    sub = lat.LatticeWindow(coeffs.window.d, eval_radius)
    pos = coeffs.window.positions_of(sub)
    return float(np.max(np.abs(total[np.ix_(pos, pos)])))


def test_binomial_identity_residual_shrinks_with_window():
    spec = lat.GeneratorSpec("polynomial-bump", 1, 1.0, 5.0, params={"s": 5.0})
    residuals = []
    for N in (8, 16, 32):
        grid = lat.Grid(h=1 / 64, R=2 * N + 8, d=1)
        basis = lat.BasisSet(spec, lat.LatticeWindow(1, 2 * N))
        M, _ = gr.sections(basis, (N, 2 * N), grid, RIESZ_RTOL)
        inverse, _, _ = du.invert_section(M, N, tol=1e-6)
        wN = lat.LatticeWindow(1, N)
        pos = inverse.window.positions_of(wN)
        block = inverse.entries[np.ix_(pos, pos)]
        C = gr.DecayMatrix(wN, 0.5 * (block + block.T))
        section = gr.DecayMatrix(wN, M.entries[np.ix_(pos, pos)])
        residuals.append(binomial_identity_residual(C, section, 1, 2, eval_radius=N // 4))
    assert residuals[2] < residuals[1] < residuals[0]


def test_binomial_identity_exact_for_window_inverse():
    # with the window's own inverse the alternating sum telescopes to zero
    win = lat.LatticeWindow(1, 8)
    idx = win.indices[:, 0]
    M = np.where(np.abs(idx[:, None] - idx[None, :]) == 0, 1.0, 0.0) \
        + np.where(np.abs(idx[:, None] - idx[None, :]) == 1, 0.25, 0.0)
    inv = np.linalg.inv(M)
    res = binomial_identity_residual(
        gr.DecayMatrix(win, 0.5 * (inv + inv.T)),
        gr.DecayMatrix(win, M), 1, 2, eval_radius=8)
    assert res < 1e-12


# --- recursion --------------------------------------------------------------------------


def test_recursion_trace_unit_example():
    tr = cst.recursion_trace(1.0, 1.0, 1.0, 2, schur_constant=1.0)
    assert tr == (1.0, 2.0, 8.0)
    assert tr[-1] == 8.0


def test_recursion_trace_validation():
    with pytest.raises(ValueError, match="positive"):
        cst.recursion_trace(0.0, 1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        cst.recursion_trace(1.0, 1.0, 1.0, -1, 1.0)


def test_recursion_factor_exceeds_one(d1_suite):
    # A <= ||M||_schur <= c C^2 W makes the recursion factor at least one
    for fam in d1_suite.families:
        factor = d1_suite.schur_constant * fam.C_meas**2 * fam.W_value / fam.A_est
        assert factor >= 1.0
