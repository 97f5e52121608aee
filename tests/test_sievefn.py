import math
import tracemalloc

import numpy as np
import pytest

from twinsieve.sievefn import (
    chen_constants,
    chen_constants_monte_carlo,
    chen_margin,
    p3_margin,
    solve_linear_sieve_functions,
)


@pytest.fixture(scope="module")
def fns():
    return solve_linear_sieve_functions(10.0, 1e-3)


def test_closed_form_values(fns):
    assert fns.F_at(2.0) == pytest.approx(math.exp(np.euler_gamma), abs=1e-6)
    assert fns.f_at(2.0) == 0.0
    assert fns.F_at(1.0) == pytest.approx(2 * math.exp(np.euler_gamma), abs=1e-6)
    with pytest.raises(ValueError):
        fns.F_at(0.5)


def test_values_past_the_grid_are_refused(fns):
    # np.interp would return the last node's value: nothing was computed there
    end = float(fns.s[-1])
    assert fns.F_at(end) == fns.F[-1] and fns.f_at(end) == fns.f[-1]
    for at in (fns.F_at, fns.f_at):
        with pytest.raises(ValueError, match="past the grid"):
            at(end + 1e-9)


@pytest.mark.filterwarnings("ignore:step h=")
def test_margin_grid_end_covers_what_the_margins_read():
    from twinsieve.sievefn import margin_grid_end

    for h in (1.0, 0.5, 0.1, 1e-3, 5e-4, 3e-4):
        for eps in (1e-6, 1e-3, 5e-3, 0.0099):
            end = margin_grid_end(eps, h)
            fns = solve_linear_sieve_functions(end, h)
            assert fns.s[-1] == end >= (0.5 - eps) * 15 > end - fns.h, (h, eps)
            chen_margin(fns, chen_constants(eps), eps)  # reads nothing past the grid
    # rounded up, not to the nearest node: at h = 1 the grid ends at 8, not 7
    assert margin_grid_end(1e-3, 1.0) == 8.0


def test_junction_continuity(fns):
    assert fns.junction_error <= 10 * fns.h


def test_monotonicity(fns):
    # 0 <= f <= 1 <= F up to trapezoid discretization error O(h^2)
    assert np.all(np.diff(fns.F) <= 1e-12)
    assert np.all(np.diff(fns.f) >= -1e-12)
    assert np.all(fns.f <= 1.0 + fns.h**2)
    assert np.all(fns.F >= 1.0 - fns.h**2)


def test_fF_product_approaches_one(fns):
    # |f F - 1| decreasing in trend on [4, s_max]; f F - 1 itself changes
    # sign near s = 4.17, so strict pointwise monotonicity does not hold
    mask = fns.s >= 4.0
    gap = np.abs(fns.f[mask] * fns.F[mask] - 1.0)
    gaps = [abs(fns.f_at(x) * fns.F_at(x) - 1.0) for x in (4.0, 5.0, 6.0, 8.0)]
    assert gaps == sorted(gaps, reverse=True)
    assert gap[-1] < 1e-2 * gap[0]


def test_grid_refinement(fns):
    fine = solve_linear_sieve_functions(10.0, 5e-4)
    for x in (3.5, 4.5, 5.0, 7.5, 9.5):
        assert abs(fns.F_at(x) - fine.F_at(x)) < 1e-4
        assert abs(fns.f_at(x) - fine.f_at(x)) < 1e-4
    m1 = p3_margin(fns)
    m2 = p3_margin(fine)
    assert abs(m1 - m2) < 1e-4


def test_p3_margin_positive(fns):
    margin = p3_margin(fns)
    assert margin > 0
    # empty integral limit: margin collapses to f(s)
    assert p3_margin(fns, z_exp=0.1, y_exp=0.1) == pytest.approx(fns.f_at(5.0))
    with pytest.raises(ValueError):
        p3_margin(fns, z_exp=0.01)


def test_chen_constants_identity():
    # pinned values from an adaptive 2-D quadrature (epsabs = epsrel = 1e-12)
    pinned = {
        1e-3: (0.4987702495909776, 2.025013657962366e-05),
        5e-3: (0.5292591048557737, 0.0005063351107800683),
    }
    for eps, (c_b1, c_b2) in pinned.items():
        c = chen_constants(eps)
        assert c.c_B1 > 0 and c.c_B2 > 0
        assert c.c_E3star == 0.5 * c.c_B1 + c.c_B2
        assert c.quad_error <= 1e-6
        assert c.c_B1 == pytest.approx(c_b1, rel=1e-12, abs=0)
        assert c.c_B2 == pytest.approx(c_b2, rel=1e-12, abs=0)


def test_chen_constants_vs_monte_carlo():
    c = chen_constants(1e-3)
    b1, b2, e1, e2 = chen_constants_monte_carlo(1e-3, samples=10**6, seed=7)
    assert abs(b1 - c.c_B1) <= 3 * e1
    assert abs(b2 - c.c_B2) <= 3 * e2


def test_chen_constants_eps_sensitivity():
    eps = 1e-3
    c0 = chen_constants(eps)
    c1 = chen_constants(2 * eps)
    # continuous in eps with O(eps) movement
    assert abs(c1.c_E3star - c0.c_E3star) <= 50 * eps
    with pytest.raises(ValueError):
        chen_constants(0.5)


def test_chen_margin_report(fns):
    c = chen_constants(1e-3)
    rep = chen_margin(fns, c, 1e-3)
    assert set(rep) >= {"f_part", "margin_F4", "margin_F5", "margin_plain"}
    # c_E3star = 0 degenerate: margin is the f-part alone, positive
    from twinsieve.sievefn import ChenConstants

    z = ChenConstants(0.0, 0.0, 0.0, 0.0)
    rep0 = chen_margin(fns, z, 1e-3)
    assert rep0["margin_F4"] == rep0["f_part"] > 0
    # eps sensitivity: |d margin| <= C eps
    rep2 = chen_margin(fns, c, 2e-3)
    assert abs(rep2["margin_F4"] - rep["margin_F4"]) <= 1.0 * 1e-3 * 50
    # the plain linear-sieve variant is the positive regime
    assert rep["margin_plain"] > 0.5


def test_coarse_grid_warns():
    with pytest.warns(UserWarning):
        solve_linear_sieve_functions(6.0, 0.01)


@pytest.mark.parametrize("s_max, h, name", [
    (6.0, 0.0, "h="), (6.0, 2.0, "h="), (6.0, -0.001, "h="),
    (math.nan, 1e-3, "s_max="), (21.0, 1e-3, "s_max="), (3.0, 1e-3, "s_max="),
])
def test_out_of_range_grid_names_the_value(s_max, h, name):
    with pytest.raises(ValueError, match=name):
        solve_linear_sieve_functions(s_max, h)


@pytest.mark.parametrize("samples", [(1 << 16) - 1, 3 * (1 << 16) + 777])
def test_monte_carlo_ragged_blocks_stay_within_3_sigma(samples):
    # one sample short of a block, and a count that ends in a ragged block
    c = chen_constants(1e-3)
    b1, b2, e1, e2 = chen_constants_monte_carlo(1e-3, samples=samples, seed=7)
    assert abs(b1 - c.c_B1) <= 3 * e1
    assert abs(b2 - c.c_B2) <= 3 * e2


def test_monte_carlo_needs_two_samples():
    with pytest.raises(ValueError):
        chen_constants_monte_carlo(1e-3, samples=1)


def test_monte_carlo_memory_does_not_grow_with_samples():
    tracemalloc.start()
    try:
        chen_constants_monte_carlo(1e-3, samples=10**6, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one array of 10^6 samples alone is 7.6 MiB
