"""Numerical linear-sieve functions f, F and the Chen-switching constants.

The switching constants integrate 1/(t1 t2 (1-t1-t2)) over two windows:
the inner t2-integral in closed form, the outer t1-integral by one
Gauss-Legendre rule (chen_constants), with a Monte-Carlo oracle that
samples the 2-D integrand directly (chen_constants_monte_carlo).

The pair (f, F) satisfies the delay system (sF)' = f(s-1), (sf)' = F(s-1)
with closed initial segments F(s) = 2 e^gamma / s on [1, 3] and
f(s) = 2 e^gamma log(s-1)/s on [2, 4] (f = 0 below 2).  The grid marches
the delay system with the trapezoid rule; junction consistency between the
closed forms and the integrated representation is part of the contract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearSieveFunctions",
    "ChenConstants",
    "solve_linear_sieve_functions",
    "p3_margin",
    "chen_constants",
    "chen_constants_monte_carlo",
    "chen_margin",
    "margin_grid_end",
]

TWO_E_GAMMA = 2.0 * math.exp(np.euler_gamma)


@dataclass(frozen=True)
class LinearSieveFunctions:
    h: float
    s: np.ndarray
    f: np.ndarray
    F: np.ndarray
    junction_error: float

    def F_at(self, x: float) -> float:
        if x < 1.0:
            raise ValueError(f"F undefined below 1 (got {x})")
        if x <= 3.0:
            return TWO_E_GAMMA / x
        return self._on_grid(x, self.F)

    def f_at(self, x: float) -> float:
        if x <= 2.0:
            return 0.0
        if x <= 4.0:
            return TWO_E_GAMMA * math.log(x - 1.0) / x
        return self._on_grid(x, self.f)

    def _on_grid(self, x: float, values: np.ndarray) -> float:
        """values interpolated at x; past the last node nothing was computed."""
        if x > self.s[-1]:
            raise ValueError(f"s={x} lies past the grid's last node {self.s[-1]}")
        return float(np.interp(x, self.s, values))


def solve_linear_sieve_functions(s_max: float, h: float) -> LinearSieveFunctions:
    """March the delay system on a uniform grid from the closed segments.

    h must divide 1 exactly so that s - 1 lands on grid nodes; values
    beyond the closed windows come from trapezoidal integration of
    sF(s) = 3F(3) + int_3^s f(u-1) du and sf(s) = 4f(4) + int_4^s F(u-1) du.
    """
    if not 4 <= s_max <= 20:
        raise ValueError(
            f"s_max={s_max} outside [4, 20]: capped at 20, and the junction"
            " check integrates up to s = 4"
        )
    if not 0 < h <= 1:
        raise ValueError(f"step h={h} outside (0, 1]")
    if h > 1e-3:
        warnings.warn(f"step h={h} is coarse; accuracy targets assume h <= 1e-3")
    steps_per_unit = round(1.0 / h)
    if abs(steps_per_unit * h - 1.0) > 1e-12:
        h = 1.0 / steps_per_unit
    n = int(round((s_max - 1.0) * steps_per_unit))
    s = 1.0 + np.arange(n + 1) / steps_per_unit
    F = np.zeros(n + 1)
    f = np.zeros(n + 1)
    in_F_closed = s <= 3.0 + 1e-15
    F[in_F_closed] = TWO_E_GAMMA / s[in_F_closed]
    in_f_closed = (s >= 2.0 - 1e-15) & (s <= 4.0 + 1e-15)
    f[in_f_closed] = TWO_E_GAMMA * np.log(np.maximum(s[in_f_closed] - 1.0, 1.0)) / s[in_f_closed]
    lag = steps_per_unit
    for i in range(n):
        x_next = s[i + 1]
        if x_next > 3.0 + 1e-12:
            # (sF)' = f(s-1)
            fa = f[i - lag] if i - lag >= 0 else 0.0
            fb = f[i + 1 - lag]
            F[i + 1] = (s[i] * F[i] + 0.5 * h * (fa + fb)) / x_next
        if x_next > 4.0 + 1e-12:
            # (sf)' = F(s-1)
            Fa = F[i - lag]
            Fb = F[i + 1 - lag]
            f[i + 1] = (s[i] * f[i] + 0.5 * h * (Fa + Fb)) / x_next
    junction = _junction_error(s, f, F, h, steps_per_unit)
    return LinearSieveFunctions(h=h, s=s, f=f, F=F, junction_error=junction)


def margin_grid_end(eps: float, h: float) -> float:
    """The first node of the step-h grid (as solve_linear_sieve_functions lays
    it) at or past s = (1/2 - eps) 15, the furthest chen_margin reads f or F."""
    steps_per_unit = round(1.0 / h)
    reach = (0.5 - eps) * 15.0
    k = math.ceil((reach - 1.0) * steps_per_unit)
    k += 1.0 + k / steps_per_unit < reach  # the product rounded down past a node
    return 1.0 + k / steps_per_unit


def _junction_error(s, f, F, h, steps_per_unit) -> float:
    """Integrate each function across its closed window and compare at the far end."""
    # sf(s) = int_2^s F(u-1) du, checked at s = 4 against 2 e^gamma log 3
    i2 = int(round(1.0 * steps_per_unit))  # index of s = 2
    i4 = int(round(3.0 * steps_per_unit))  # index of s = 4
    lag = steps_per_unit
    acc = 0.0
    for i in range(i2, i4):
        acc += 0.5 * h * (F[i - lag] + F[i + 1 - lag])
    err_f = abs(acc - TWO_E_GAMMA * math.log(3.0))
    # sF(s) = F(1) + int_1^s f(u-1) du is constant on [1, 3]: f vanishes there
    i3 = int(round(2.0 * steps_per_unit))
    err_F = abs(s[i3] * F[i3] - TWO_E_GAMMA)
    return max(err_f, err_F)


def _weighted_lower(fns: LinearSieveFunctions, s: float, upper: float, nodes: int) -> float:
    """f(s) - (1/2) int_1^upper F(s - t)/t dt, trapezoid rule on ``nodes`` points."""
    grid = np.linspace(1.0, upper, nodes)
    vals = np.array([fns.F_at(s - t) / t for t in grid])
    return fns.f_at(s) - 0.5 * float(np.trapezoid(vals, grid))


def p3_margin(
    fns: LinearSieveFunctions,
    z_exp: float = 0.1,
    y_exp: float = 1.0 / 3.0,
    level_exp: float = 0.5,
) -> float:
    """f(s) - (1/2) int_1^(y_exp/z_exp) F(s - t)/t dt with s = level_exp/z_exp."""
    s = level_exp / z_exp
    upper = y_exp / z_exp
    if s > fns.s[-1] or s - 1.0 < 1.0:
        raise ValueError("margin parameters leave the computed grid")
    if upper <= 1.0:
        return fns.f_at(s)
    return _weighted_lower(fns, s, upper, 2001)


@dataclass(frozen=True)
class ChenConstants:
    c_B1: float
    c_B2: float
    c_E3star: float
    quad_error: float


def _switching_windows(eps: float) -> tuple:
    """(t1_lo, t1_hi, t2_lo) of the windows B1 and B2; t2_lo is a function of t1."""
    third = 1.0 / 3.0
    return (
        (0.1, third - eps, lambda t1: third - eps),
        (third - eps, third, lambda t1: t1),
    )


def _switching_integral(t1_lo: float, t1_hi: float, t2_lo, n: int) -> float:
    """n-node Gauss-Legendre rule in t1 over the exact inner t2-integral.

    With c = 1 - t1, int dt2 / (t1 t2 (c - t2)) = log(t2 / (c - t2)) / (c t1),
    taken between t2_lo(t1) and min((1 - t1)/2, 0.9 - t1).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    t1 = t1_lo + 0.5 * (t1_hi - t1_lo) * (x + 1.0)
    c = 1.0 - t1
    lo, hi = t2_lo(t1), np.minimum((1.0 - t1) / 2.0, 0.9 - t1)
    inner = (np.log(hi / (c - hi)) - np.log(lo / (c - lo))) / (c * t1)
    return 0.5 * (t1_hi - t1_lo) * float(w @ inner)


def chen_constants(eps: float) -> ChenConstants:
    """Integrate dt1 dt2 / (t1 t2 (1-t1-t2)) over the two switching windows.

    B1 is t1 in [1/10, 1/3 - eps], t2 >= 1/3 - eps; B2 is t1 in
    [1/3 - eps, 1/3], t2 >= t1; both have t2 <= min((1-t1)/2, 0.9 - t1).
    The inner t2-integral is closed-form and the smooth outer t1-integral
    is one Gauss-Legendre rule at 32 and 64 nodes; quad_error is the gap
    between the two.  c_E3star = c_B1/2 + c_B2 by construction.
    """
    if not 0 < eps < 0.01:
        raise ValueError("eps must lie in (0, 1/100)")
    values, quad_error = [], 0.0
    for t1_lo, t1_hi, t2_lo in _switching_windows(eps):
        coarse, fine = (_switching_integral(t1_lo, t1_hi, t2_lo, n) for n in (32, 64))
        values.append(fine)
        quad_error += abs(fine - coarse)
    c_b1, c_b2 = values
    return ChenConstants(c_b1, c_b2, 0.5 * c_b1 + c_b2, quad_error)


# samples drawn per block: the oracle holds O(block) memory at any sample count
_MC_BLOCK = 1 << 16


def chen_constants_monte_carlo(
    eps: float, samples: int = 10**7, seed: int = 0
) -> tuple[float, float, float, float]:
    """Monte-Carlo oracle: (c_B1, c_B2, stderr_B1, stderr_B2).

    Each window samples the box [t1_lo, t1_hi] x [1/3 - eps, hi(t1_lo)]
    with hi(t1) = min((1 - t1)/2, 0.9 - t1): hi decreases in t1 and t2_lo
    is at least 1/3 - eps in both windows, so the box covers the window.
    Samples are drawn in blocks of _MC_BLOCK (t1, then t2, from one
    generator) and each block's mean and sum of squared deviations is
    merged with Chan's pairwise update; the stderr is area * std(ddof=1)
    / sqrt(samples), as over one array of every sample.
    """
    if samples < 2:
        raise ValueError(f"samples={samples}: the stderr needs at least 2")
    rng = np.random.default_rng(seed)
    results = []
    for t1_lo, t1_hi, t2_lo in _switching_windows(eps):
        if t1_lo >= t1_hi:
            results.append((0.0, 0.0))
            continue
        t2_min, t2_max = 1.0 / 3.0 - eps, min((1.0 - t1_lo) / 2.0, 0.9 - t1_lo)
        n, mean, m2 = 0, 0.0, 0.0
        for start in range(0, samples, _MC_BLOCK):
            size = min(_MC_BLOCK, samples - start)
            t1 = rng.uniform(t1_lo, t1_hi, size)
            t2 = rng.uniform(t2_min, t2_max, size)
            inside = (t2 >= t2_lo(t1)) & (t2 <= np.minimum((1.0 - t1) / 2.0, 0.9 - t1))
            # 1 / (t1 t2 (1 - t1 - t2)), positive on the whole box
            vals = t1 * t2
            vals *= 1.0 - t1 - t2
            np.divide(1.0, vals, out=vals)
            vals[~inside] = 0.0
            block_mean = float(vals.mean())
            vals -= block_mean
            block_m2 = float(np.square(vals, out=vals).sum())
            delta = block_mean - mean
            total = n + size
            mean += delta * size / total
            m2 += block_m2 + delta * delta * n * size / total
            n = total
        area = (t1_hi - t1_lo) * (t2_max - t2_min)
        std = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
        results.append((area * mean, area * std))
    (b1, e1), (b2, e2) = results
    return b1, b2, e1, e2


def chen_margin(
    fns: LinearSieveFunctions, consts: ChenConstants, eps: float
) -> dict[str, float]:
    """Lower-minus-switching margin at the Chen-sieve exponents (reported).

    The weighted lower part at z = N^(1/15) evaluates
    f(s) - (1/2) int_1^((1/3-eps)*15) F(s-t)/t dt with s = (1/2-eps)*15,
    and the switching part subtracts c_E3star times the upper-sieve value,
    reported with both F(4) and F(5).  That weighted combination lands
    slightly negative; the switching inequality itself only needs the
    plain linear-sieve lower bound f(s) for its rough indicator, so the
    plain variant (clearly positive, the 1 - c_E3star regime) is reported
    alongside.
    """
    s = (0.5 - eps) * 15.0
    upper = (1.0 / 3.0 - eps) * 15.0
    f_part = _weighted_lower(fns, s, upper, 4001)
    return {
        "f_part": f_part,
        "margin_F4": f_part - consts.c_E3star * fns.F_at(4.0),
        "margin_F5": f_part - consts.c_E3star * fns.F_at(5.0),
        "f_plain": fns.f_at(s),
        "margin_plain": fns.f_at(s) - consts.c_E3star * fns.F_at(s),
    }
