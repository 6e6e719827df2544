"""Every explicit constant: lattice sums W_u, convolution-inequality
calibrations, the dual-decay constant D, and the derivation recursion.

W_u = sum_{k in Z^d} (1 + |k|_inf)^(-u) is computed in closed form: the
shells up to a small cutoff are summed directly, and beyond it the shell
count is a polynomial in 1 + |k|, so the rest is a short combination of
Hurwitz-zeta tails, each evaluated by Euler-Maclaurin.  The reported error
bound is the Euler-Maclaurin remainder plus an explicit allowance for float
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HypothesisViolation

_W_CUTOFF = 32                # shells summed directly before the zeta tails
_W_ROUNDING = 8 * 2.0**-52    # relative allowance on sum |terms| for float rounding
# B_2j / (2j)! for j = 1..9, the Euler-Maclaurin weights; the last one only
# bounds the remainder
_EM_WEIGHTS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798), start=1))


def shell_count(d: int, n: int) -> int:
    """Number of lattice points with |k|_inf == n."""
    if n == 0:
        return 1
    return (2 * n + 1) ** d - (2 * n - 1) ** d


def shell_poly(d: int) -> np.ndarray:
    """Polynomial s_d with s_d(n) = shell_count(d, n) for n >= 1.

    Expanding (2x+1)^d - (2x-1)^d avoids the catastrophic cancellation of
    subtracting the two d-th powers at large x.  Highest degree first.
    """
    out = np.zeros(d)
    for p in range(d):  # coefficient of x^p survives only for d - p odd
        if (d - p) % 2 == 1:
            out[d - 1 - p] = 2.0 * math.comb(d, p) * 2.0**p
    return out


def _poly_tail_integral(coeffs: np.ndarray, u: float, a: float) -> float:
    """Exact integral of p(x) (1+x)^(-u) over [a, inf) for polynomial p.

    Requires u > deg(p) + 1; expands each x^j in powers of (1+x).
    """
    deg = len(coeffs) - 1
    if u <= deg + 1:
        raise ValueError(f"tail integral diverges: u={u} <= deg+1={deg + 1}")
    total = 0.0
    base = 1.0 + a
    for idx, c in enumerate(coeffs):
        j = deg - idx
        if c == 0.0:
            continue
        for i in range(j + 1):
            total += (float(c) * math.comb(j, i) * (-1.0) ** (j - i)
                      * base ** (i - u + 1) / (u - i - 1.0))
    return total


def lattice_tail_upper(u: float, d: int, radius: int) -> float:
    """Upper bound on sum_{|k| > radius} (1+|k|)^(-u) by integral comparison."""
    if u <= d:
        raise ValueError(f"lattice tail diverges for u <= d (u={u}, d={d})")
    radius = max(int(radius), 1)
    return _poly_tail_integral(shell_poly(d), u, float(radius))


def _shifted_shell_poly(d: int) -> list:
    """a_p with shell_count(d, m - 1) = sum_p a_p m^p for m >= 2, lowest degree first.

    (2m-1)^d - (2m-3)^d expanded in powers of 2m; the integers are exact.
    """
    return [math.comb(d, p) * 2**p * ((-1) ** (d - p) - (-3) ** (d - p)) for p in range(d)]


def _zeta_tail(sigma: float, N: int):
    """(terms, dropped): sum_{m >= N} m^(-sigma) for sigma > 1 is sum(terms)
    up to at most `dropped`.

    Euler-Maclaurin: the integral N^(1-sigma)/(sigma-1), the end term
    N^(-sigma)/2 and B_2j/(2j)! (sigma)_(2j-1) N^(1-sigma-2j) for every
    weight but the last.  Every derivative of x^(-sigma) keeps its sign, so
    the remainder is at most the first omitted term.
    """
    x = float(N)
    terms = [x ** (1.0 - sigma) / (sigma - 1.0), 0.5 * x ** -sigma]
    rising = sigma * x ** (-sigma - 1.0)     # (sigma)_(2j-1) N^(1-sigma-2j) at j = 1
    for j, weight in enumerate(_EM_WEIGHTS):
        terms.append(weight * rising)
        rising *= (sigma + 2 * j + 1) * (sigma + 2 * j + 2) / (x * x)
    return terms[:-1], abs(terms[-1])


@dataclass(frozen=True)
class WSum:
    """Lattice sum with a bound on its error."""

    value: float
    error_bound: float   # |value - W_u| <= error_bound
    radius: int          # shells summed directly before the zeta tails


def w_sum(u: float, d: int, tol: float = 1e-10, radius: int | None = None) -> WSum:
    """W_u = sum_k (1+|k|)^(-u) over Z^d, to within tol.

    The shells n <= n0 are summed directly.  Beyond them the shell count is
    sum_p a_p m^p in m = n + 1 (`_shifted_shell_poly`), so the rest is
    sum_p a_p sum_{m >= n0+2} m^(p-u), each tail by `_zeta_tail`.  All terms
    are added exactly rounded (math.fsum); each is within a few ulps, so the
    error bound is the Euler-Maclaurin remainders plus _W_ROUNDING times the
    sum of |terms|.  n0 is _W_CUTOFF unless a radius is forced (e.g. to
    double it); either way a bound above tol raises.
    """
    if u <= d:
        raise ValueError(f"W_u diverges for u <= d (u={u}, d={d})")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n0 = _W_CUTOFF if radius is None else int(radius)
    n = np.arange(1, n0 + 1, dtype=float)
    terms = [1.0] + (np.polyval(shell_poly(d), n) * np.power(1.0 + n, -u)).tolist()
    dropped = 0.0
    for p, a in enumerate(_shifted_shell_poly(d)):
        tail, rest = _zeta_tail(u - p, n0 + 2)
        terms += [a * term for term in tail]
        dropped += abs(a) * rest
    error = dropped + _W_ROUNDING * math.fsum(map(abs, terms))
    if error > tol or n0 < max(2, d):
        raise ValueError(f"tolerance {tol:g} unattainable for u={u}, d={d}" if radius is None
                         else f"forced radius {n0} does not meet tol {tol:g}")
    return WSum(value=math.fsum(terms), error_bound=error, radius=n0)


def compute_W(u: float, d: int, tol: float = 1e-10) -> float:
    return w_sum(u, d, tol).value


@dataclass(frozen=True)
class BoundCalibration:
    """Least constant making a one-sided comparison hold over a scan grid."""

    constant: float
    binding: tuple
    grid: tuple


def calibrate_lattice_sum_bound(d: int, u_grid=None, tol: float = 1e-7) -> BoundCalibration:
    """Least c with W_u <= c (1 + 1/(u-d)) over a grid of exponents in (d, d+10].

    Each W_u is the closed form of `w_sum`, which costs the same at every
    exponent; near u = d, W_u grows like 2^d / (u - d), so its float
    rounding allowance (and the least attainable tol) grows with it.
    """
    if u_grid is None:
        u_grid = [d + 2.0**-i for i in range(7)] + [d + k for k in range(2, 11)]
    u_grid = sorted(float(u) for u in u_grid)
    if not all(d < u <= d + 10 for u in u_grid):
        raise ValueError("exponent grid must lie in (d, d+10]")
    best_c, best_u = -math.inf, None
    for u in u_grid:
        ratio = compute_W(u, d, tol) / (1.0 + 1.0 / (u - d))
        if ratio > best_c:
            best_c, best_u = ratio, u
    return BoundCalibration(constant=best_c, binding=(best_u,), grid=tuple(u_grid))


@dataclass(frozen=True)
class ConvolutionCalibration:
    """Certified constants for the discrete convolution bound.

    The least c with LHS(k) <= c (1+|k|)^(-u) over all of Z^d lies in the
    bracket [lower, constant], so `constant` is a valid c.  `normalized` is
    `constant` divided by the lattice sum W_u of the single factor.  That
    scale does not remove the dependence on u: in the far field the ratio
    tends to exactly 2 W_u for every u, and the least constant adds a
    u-dependent overshoot near the origin.  `binding` is the node where
    `lower` is attained, or None when the supremum is approached only in the
    far field.
    """

    constant: float
    normalized: float
    scale: float
    binding: tuple | None
    u: float
    lower: float
    scan_radius: int   # last axis radius summed exactly


_CONV_WIDTH = 0.005          # target relative width upper/lower - 1 of the bracket
_CONV_SCAN_CAP = 4096        # largest exact-scan radius tried
_CONV_ROUNDING = 1e-12       # relative allowance for rounding in the float sums
_CONV_CHUNK = 1 << 17        # entries per temporary in the axis scan
_FAR_STEP = 2.0 ** 0.25      # ratio of consecutive far-field block edges
_FAR_SPAN = 64               # far-field blocks reach _FAR_SPAN (M+1); one bound covers the rest


def _transverse(u: float, d: int, J: int):
    """Tables over r = 0..J of the transverse sums at the axis nodes.

    Returns g(n) = (1+n)^(-u) for n <= 2J, and for d > 1 the counts
    (2r+1)^(d-1) of |j'|_inf <= r in Z^(d-1) with the suffix sums
    sum_{r < r' <= J} s(r') g(r') and sum_{r < r' <= J} s(r') g(r')^2,
    s the (d-1)-dimensional shell count.  Suffix order keeps small tails
    accurate.
    """
    n = np.arange(2 * J + 1, dtype=float)
    g = np.power(1.0 + n, -u)
    if d == 1:
        return g, None, None, None
    r = n[:J + 1]
    s = np.polyval(shell_poly(d - 1), r)
    s[0] = 1.0
    sg = s * g[:J + 1]
    su = np.append(np.cumsum(sg[::-1])[::-1][1:], 0.0)
    s2 = np.append(np.cumsum((sg * g[:J + 1])[::-1])[::-1][1:], 0.0)
    return g, np.power(2.0 * r + 1.0, d - 1), su, s2


def _axis_lhs(u: float, d: int, ms, J: int) -> np.ndarray:
    """sum_j (1+|k-j|)^(-u) (1+|j|)^(-u) over the cube |j|_inf <= J, exactly,
    at the axis nodes k = (m, 0, ..., 0) for m in `ms` (each m <= J).

    The sum runs over j_1; the transverse j' are grouped by r = |j'|_inf.
    With a = |m - j_1|, b = |j_1|, lo <= hi their order: r <= lo gives
    g(a) g(b) (2lo+1)^(d-1), lo < r <= hi gives g(hi) s(r) g(r), and r > hi
    gives s(r) g(r)^2.
    """
    g, count, su, s2 = _transverse(u, d, J)
    j = np.arange(-J, J + 1)
    b = np.abs(j)
    gb = g[b]
    ms = np.asarray(ms, dtype=np.int64)
    out = np.empty(len(ms))
    rows = max(1, _CONV_CHUNK // j.size)
    for start in range(0, len(ms), rows):
        a = np.abs(ms[start:start + rows, None] - j)
        terms = g[a] * gb
        if d > 1:
            lo = np.minimum(a, b)
            top = np.maximum(a, b)
            hi = np.minimum(top, J)
            terms *= count[lo]
            terms += g[top] * (su[lo] - su[hi]) + s2[hi]
        out[start:start + rows] = terms.sum(axis=1)
    return out


def _far_field_bound(u: float, d: int, M: int) -> float:
    """Upper bound on sup over m > M of (1+m)^u LHS(m, 0, ..., 0).

    Reflecting j -> k - j and dropping the transverse clamp gives, with the
    marginal rho(x) = sum_{j'} (1+|(x, j')|)^(-u),

        ratio(m) / 2 <= sum_x rho(x) c_m(x),

    where pairing x and -x for x < m/2 gives c_m(x) = phi(x/(1+m)) with
    phi(t) = (1-t)^(-u) + (1+t)^(-u), increasing on [0, 1).  Over a block
    lo <= m < hi each c_m(x) is bounded by phi(x/(1+lo)) for x <= lo/2, by
    phi(x/(2x+1)) below hi/2 and by (hi/(hi+x))^u from hi/2 on.  Blocks
    with geometric edges cover (M, _FAR_SPAN (M+1)), and the last edge
    bounds everything beyond; the ladder stops early once that final bound
    drops below the largest block bound.  rho is summed exactly to
    J = _FAR_SPAN (M+1), at least half of every finite block edge; the
    transverse and x > J tails are bounded with `lattice_tail_upper`.
    """
    J = _FAR_SPAN * (M + 1)
    g, count, su, _ = _transverse(u, d, J)
    x = np.arange(J + 1, dtype=float)
    if d == 1:
        rho = g[:J + 1]
    else:
        rho = count * g[:J + 1] + su + lattice_tail_upper(u, d - 1, J)
    x_tail = 0.5 * lattice_tail_upper(u, d, J)     # sum of rho(x) over x > J

    def phi(t):
        return np.power(1.0 - t, -u) + np.power(1.0 + t, -u)

    # mid_from[X] = sum over X <= x <= J of rho(x) phi(x/(2x+1))
    mid_from = np.append(np.cumsum((rho * phi(x / (2.0 * x + 1.0)))[::-1])[::-1], 0.0)

    def block(lo, hi=None):
        near = min(lo // 2, J)
        total = rho[0] + float(rho[1:near + 1] @ phi(x[1:near + 1] / (1.0 + lo)))
        if hi is None:
            return 2.0 * (total + mid_from[near + 1] + phi(0.5) * x_tail)
        far = (hi + 1) // 2                          # first x >= hi/2
        total += mid_from[near + 1] - mid_from[far]
        total += float(rho[far:] @ np.power(hi / (hi + x[far:]), u))
        return 2.0 * (total + (hi / (hi + J)) ** u * x_tail)

    best, edge = -math.inf, M + 1
    while True:
        far = block(edge)
        if far <= best or edge >= _FAR_SPAN * (M + 1):
            return max(best, far)
        nxt = max(edge + 1, math.ceil(edge * _FAR_STEP))
        best = max(best, block(edge, nxt))
        edge = nxt


def verify_convolution_discrete(u: float, d: int, window: int,
                                source_factor: int = 4) -> ConvolutionCalibration:
    """Certified bracket on the least c with
    sum_j (1+|k-j|)^(-u) (1+|j|)^(-u) <= c (1+|k|)^(-u) for all k in Z^d.

    With c_n = (1+n)^(-u) - (2+n)^(-u) >= 0 each factor is a nonnegative
    sum of cube indicators, so the left side is a nonnegative sum of
    products of 1-D interval overlaps, none increasing in |k_i|; on each
    max-norm shell |k| = m it is largest at (m, 0, ..., 0).  Those axis
    nodes are summed exactly for m <= M over the source cube
    |j| <= source_factor M; the dropped source adds at most
    (2 + J - m)^(-u) `lattice_tail_upper`(u, d, J).  `_far_field_bound`
    bounds every m > M.  `window` is the starting radius M; it doubles
    until the bracket is at most _CONV_WIDTH wide (or M reaches
    _CONV_SCAN_CAP, leaving a wider but still certified bracket).  Both
    ends carry a relative allowance of _CONV_ROUNDING for rounding in the
    float sums, which stay far below it (a few ulps times log2 of the
    number of terms).
    """
    if u < d + 1:
        raise ValueError(f"need u >= d + 1, got u={u}, d={d}")
    if source_factor < 1:
        raise ValueError(f"source_factor must be >= 1, got {source_factor}")
    M = max(int(window), 1)
    while True:
        J = int(source_factor) * M
        m = np.arange(M + 1)
        lhs = _axis_lhs(u, d, m, J)
        weight = np.power(1.0 + m, u)
        pad = np.power(2.0 + J - m, -u) * lattice_tail_upper(u, d, J)
        lows = lhs * weight
        lower = float(lows.max()) * (1.0 - _CONV_ROUNDING)
        upper = float(max(np.max((lhs + pad) * weight),
                          _far_field_bound(u, d, M))) * (1.0 + _CONV_ROUNDING)
        if upper <= (1.0 + _CONV_WIDTH) * lower or M >= _CONV_SCAN_CAP:
            break
        M *= 2
    best = int(np.argmax(lows))
    scale = compute_W(u, d, tol=1e-10)
    return ConvolutionCalibration(constant=upper, normalized=upper / scale, scale=scale,
                                  binding=None if best == M else (best,) + (0,) * (d - 1),
                                  u=u, lower=lower, scan_radius=M)


# ---------------------------------------------------------------------------
# The dual-decay constant and its calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoreticalBound:
    """Parameter tuple (C, A, s, t, d, E) for the dual-decay constant D."""

    C: float
    A: float
    s: float
    t: int
    d: int
    E: float

    def __post_init__(self):
        validate_hypotheses(self.C, self.s, self.t, self.d)
        if self.A <= 0:
            raise HypothesisViolation(f"hypothesis A > 0 violated (A={self.A})")
        if self.E <= 0:
            raise HypothesisViolation(f"hypothesis E > 0 violated (E={self.E})")

    @property
    def D(self) -> float:
        return theoretical_D(self)


def validate_hypotheses(C: float, s: float, t, d: int):
    """C >= 1, integer t > d, s > d + t; raises naming the violated one."""
    if C < 1.0:
        raise HypothesisViolation(f"hypothesis C >= 1 violated (C={C})")
    if int(t) != t:
        raise HypothesisViolation(f"hypothesis t integer violated (t={t})")
    if not t > d:
        raise HypothesisViolation(f"hypothesis t > d violated (t={t}, d={d})")
    if not s > d + t:
        raise HypothesisViolation(f"hypothesis s > d+t violated (s={s}, d={d}, t={t})")


def theoretical_D(tb: TheoreticalBound) -> float:
    """D = E^(t^2) C^(2t+1) A^-(t+1) (1 + 1/(s-t-d))^t."""
    t = int(tb.t)
    return (tb.E ** (t * t) * tb.C ** (2 * t + 1) / tb.A ** (t + 1)
            * (1.0 + 1.0 / (tb.s - t - tb.d)) ** t)


@dataclass(frozen=True)
class CalibrationCase:
    """One family's measured inputs for calibrating E."""

    family: str
    D_emp: float
    C_meas: float
    A_est: float
    s: float
    t: int
    d: int


@dataclass(frozen=True)
class ECalibration:
    E_emp: float
    binding_family: str
    per_family: tuple


def check_E_family_count(count: int):
    """E is calibrated over at least three families per dimension."""
    if count < 3:
        raise ConfigError(f"calibrating E needs >= 3 families per dimension, got {count}")


def calibrate_E(suite) -> ECalibration:
    """Least E for which the theoretical D dominates every measured one.

    D is strictly increasing in E, so per case E_i solves D(E_i) = D_emp and
    the calibrated value is the max; requires >= 3 families per dimension.
    """
    cases = list(suite)
    if not cases:
        raise ValueError("empty calibration suite")
    if len({c.d for c in cases}) != 1:
        raise ValueError("calibrate one dimension at a time")
    check_E_family_count(len(cases))
    per_family = []
    for c in cases:
        validate_hypotheses(c.C_meas, c.s, c.t, c.d)
        if not math.isfinite(c.D_emp):
            raise ValueError(f"family {c.family!r} has non-finite measured D")
        t = int(c.t)
        base = (c.C_meas ** (2 * t + 1) / c.A_est ** (t + 1)
                * (1.0 + 1.0 / (c.s - t - c.d)) ** t)
        per_family.append((c.family, (c.D_emp / base) ** (1.0 / (t * t))))
    binding, e_emp = max(per_family, key=lambda item: item[1])
    return ECalibration(E_emp=e_emp, binding_family=binding, per_family=tuple(per_family))


@dataclass(frozen=True)
class RecursionTrace:
    """Iterated bound v_u on the derivation powers of the inverse Gramian.

    v_0 = 1/A and v_u = c (C^2 W / A) 2^u v_{u-1}, where c is the calibrated
    Schur constant of the Gramian side.
    """

    values: tuple
    A_est: float
    C_meas: float
    W: float
    schur_constant: float

    @property
    def final(self) -> float:
        return self.values[-1]


def recursion_trace(A_est: float, C_meas: float, W: float, t: int,
                    schur_constant: float = 1.0) -> RecursionTrace:
    if min(A_est, C_meas, W, schur_constant) <= 0:
        raise ValueError("recursion inputs must be positive")
    if t < 0 or int(t) != t:
        raise ValueError("t must be a nonnegative integer")
    factor = schur_constant * C_meas**2 * W / A_est
    values = [1.0 / A_est]
    for u in range(1, int(t) + 1):
        values.append(factor * 2.0**u * values[-1])
    return RecursionTrace(values=tuple(values), A_est=A_est, C_meas=C_meas,
                          W=W, schur_constant=schur_constant)
