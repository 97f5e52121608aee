import math
import random
import tracemalloc

import numpy as np
import pytest

from twinsieve.arith import build_prime_table
from twinsieve.characters import ExceptionalZeroHypothesis, local_sigma
from twinsieve.singular import (
    _SUM_BLOCK,
    classical_goldbach_series,
    exceptional_sums,
    main_term_M,
    partial_singular_series,
    singular_series,
    singular_series_alt,
)


@pytest.fixture(scope="module")
def table():
    return build_prime_table(1_100_000)


def test_odd_m_vanishes(table):
    assert singular_series(7, 1000, table).value == 0.0
    assert singular_series_alt(7, 1000, table) == 0.0
    assert classical_goldbach_series(7, 1000, table).value == 0.0


def test_singular_series_m4(table):
    # m = 4: p = 3 divides m+2, contributing 1 + 2/(3-2) = 3 on top of the 2
    got = singular_series(4, 1000, table)
    direct = 2.0 * 3.0
    for p in table.primes_in(3, 1000):
        p = int(p)
        if p == 3:
            continue
        if (4 + 4) % p == 0 or 4 % p == 0:
            direct *= 1 + (p - 4) / (p - 2) ** 2
        else:
            direct *= 1 - 4 / (p - 2) ** 2
    assert got.value == pytest.approx(direct, rel=1e-12)
    assert got.tail_bound > 0


def test_two_routes_agree(table):
    rng = random.Random(41)
    ms = [2 * rng.randrange(1, 500_000) for _ in range(60)]
    # a prime beyond either cutoff divides m, m + 2 or m + 4
    for p in (101, 10_007, 100_003):
        ms += [2 * p, 6 * p - 2, 2 * p - 4]
    for cutoff in (100, 10_000):
        for m in ms:
            a = singular_series(m, cutoff, table).value
            b = singular_series_alt(m, cutoff, table)
            assert a == pytest.approx(b, rel=1e-10), (m, cutoff)


def test_cutoff_beyond_the_table_is_an_error():
    # the product would silently stop at the table's last prime
    small = build_prime_table(1000)
    for series in (singular_series, singular_series_alt, classical_goldbach_series):
        with pytest.raises(ValueError):
            series(500_002, 100_000, small)


@pytest.mark.parametrize("series", [singular_series, singular_series_alt,
                                    classical_goldbach_series])
def test_the_three_series_check_their_arguments_alike(table, series):
    # m >= 1 and 100 <= cutoff <= table.limit, even where m is odd
    for m, cutoff in ((10, 1), (10, 50), (10, 99), (0, 1000), (-4, 1000), (7, 50)):
        with pytest.raises(ValueError):
            series(m, cutoff, table)
    assert series(10, 100, table) == series(10, 100, build_prime_table(100))


def test_per_prime_match_with_local_sigma(table):
    # factors for p | m+4 match the sigma case table when compared per prime
    m1 = 2
    m2 = 2 + 4 * 3 * 5 * 7
    for p in (3, 5, 7):
        f1 = 1 + local_sigma("sigma", p, m1) / (p - 2) ** 2
        f2 = 1 + local_sigma("sigma", p, m2) / (p - 2) ** 2
        if (m1 + 4) % p == 0:
            assert f1 == pytest.approx(1 + (p - 4) / (p - 2) ** 2)
        if (m2 + 4) % p == 0:
            assert f2 == pytest.approx(1 + (p - 4) / (p - 2) ** 2)


def test_partial_series_examples():
    assert partial_singular_series(4, {2}) == 2.0
    assert partial_singular_series(7, {2}) == 0.0
    assert partial_singular_series(4, {2, 3}) == pytest.approx(6.0)


def test_large_prime_fold_in(table):
    from twinsieve.singular import _four_case_factor

    # m + 2 = 6 * p_big puts a prime beyond the cutoff into the special set
    # while keeping m = 4 mod 6 (any other even class vanishes at p = 3)
    p_big = 100_003
    m = 6 * p_big - 2
    assert m % 6 == 4
    v1 = singular_series(m, 1000, table).value
    v2 = singular_series_alt(m, 1000, table)
    assert v1 == pytest.approx(v2, rel=1e-10)
    # the bare truncated product plus explicit fold-ins reproduces the value
    from twinsieve.arith import factorize_extended

    bare = 2.0
    for p in table.primes_in(2, 1000):
        bare *= _four_case_factor(int(p), m)
    big = set()
    for x in (m, m + 2, m + 4):
        big.update(p for p, _ in factorize_extended(x, table).pairs if p > 1000)
    assert p_big in big
    expected = bare
    for p in sorted(big):
        expected *= _four_case_factor(p, m)
    assert v1 == pytest.approx(expected, rel=1e-12)
    assert abs(v1 / bare - 1) > 1e-6  # the big primes genuinely contribute


def test_lower_bound_for_4_mod_6(table):
    rng = random.Random(43)
    for _ in range(50):
        m = 6 * rng.randrange(1, 160_000) + 4
        s = singular_series(m, 100_000, table)
        assert s.value >= 1.0 - s.tail_bound


def test_classical_series(table):
    # m = 2^k tends to twice the twin-prime constant
    v = classical_goldbach_series(1 << 20, 100_000, table).value
    assert v == pytest.approx(2 * 0.6601618158468696, rel=1e-4)
    r6 = classical_goldbach_series(6, 100_000, table).value
    r4 = classical_goldbach_series(4, 100_000, table).value
    assert r6 / r4 == pytest.approx(2.0, rel=1e-12)


def test_exceptional_sums_degenerate():
    # beta = 1 collapses to pair counts
    for m, N in [(2, 10), (5, 10), (11, 10), (100, 200)]:
        j, i = exceptional_sums(m, N, 1.0)
        if m <= N + 1:
            assert j == -(m - 1)
            assert i == m - 1
    j, i = exceptional_sums(2, 50, 0.3)
    assert j == -1.0 and i == 1.0


def test_exceptional_sums_reversed_order():
    m, N, beta = 100, 10_000, 0.9
    j, i = exceptional_sums(m, N, beta)
    j2 = -sum(n1 ** (beta - 1) for n1 in range(m - 1, 0, -1) if 1 <= m - n1 <= N)
    i2 = sum(
        (n1 * (m - n1)) ** (beta - 1) for n1 in range(m - 1, 0, -1) if 1 <= m - n1 <= N
    )
    assert j == pytest.approx(j2, rel=1e-12)
    assert i == pytest.approx(i2, rel=1e-12)


def test_exceptional_sums_match_one_array_over_blocks():
    # several blocks and a ragged last one, against one np.sum over the range
    N = 3 * _SUM_BLOCK + 12345
    for m, beta in [(N + 1, 0.9), (N + _SUM_BLOCK + 3, 0.95), (N // 2, 0.5)]:
        n1 = np.arange(max(1, m - N), min(N, m - 1) + 1, dtype=float)
        want_j = -float(np.sum(n1 ** (beta - 1.0)))
        want_i = float(np.sum((n1 * (m - n1)) ** (beta - 1.0)))
        j, i = exceptional_sums(m, N, beta)
        assert j == pytest.approx(want_j, rel=1e-14, abs=0)
        assert i == pytest.approx(want_i, rel=1e-14, abs=0)


def test_exceptional_sums_in_one_block_equal_one_array_bit_for_bit():
    m, N, beta = _SUM_BLOCK + 1, _SUM_BLOCK, 0.9  # exactly one full block
    n1 = np.arange(1, m, dtype=float)
    assert exceptional_sums(m, N, beta) == (
        -float(np.sum(n1 ** (beta - 1.0))),
        float(np.sum((n1 * (m - n1)) ** (beta - 1.0))),
    )


def test_exceptional_sums_memory_does_not_grow_with_m():
    tracemalloc.start()
    try:
        exceptional_sums(10**6, 10**6, 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one array of the 10^6 terms alone is 7.6 MiB


def test_main_term_no_hypothesis():
    rep = main_term_M(12, 10_000, 100)
    assert rep.M == 1.0 and rep.E == 1.0


def test_main_term_assembly_orders_agree():
    for r, beta, m in [(3, 0.99, 10), (15, 0.95, 4), (5, 0.9, 20), (12, 0.99, 16), (24, 0.97, 16)]:
        hyp = ExceptionalZeroHypothesis.build(r, beta)
        a = main_term_M(m, 10_000, 100, hyp, assembly="divisor")
        b = main_term_M(m, 10_000, 100, hyp, assembly="grouped")
        assert a.M == pytest.approx(b.M, rel=1e-10)
        assert a.E == pytest.approx((1 - beta) * math.log(100), rel=1e-12)


def test_main_term_degenerate_inputs():
    hyp = ExceptionalZeroHypothesis.build(3, 0.9)
    with pytest.raises(ValueError):
        main_term_M(7, 1000, 10, hyp)  # odd m
    with pytest.raises(ValueError):
        main_term_M(12, 1000, 10, hyp)  # 3 | m with 3 | r: locally insoluble


def test_sigmatilde_sigma_identity(table):
    # |1 + sigma~(p,m)| / (p-2)^2 = 1 + sigma(p,m)/(p-2)^2 whenever p | m
    for p in [int(q) for q in table.primes_upto(97) if q > 2]:
        hyp = ExceptionalZeroHypothesis.build(p, 0.9)
        for mult in (1, 2, 3):
            m = p * mult
            lhs = abs(1 + local_sigma("sigma_tilde", p, m, hyp)) / (p - 2) ** 2
            rhs = 1 + local_sigma("sigma", p, m) / (p - 2) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sigma_shift_periodicity():
    rng = random.Random(47)
    for p in (3, 5, 7, 11, 13):
        for _ in range(30):
            m = rng.randrange(0, 10**6)
            assert local_sigma("sigma", p, m) == local_sigma("sigma", p, m % p)


def test_cancellation_sign_at_beta_one():
    # chi(-1) = -1 with r | m: the constant and I~ terms carry opposite signs
    # (r = 3 with 3 | m is locally insoluble, so exercise the regime at r = 7)
    hyp = ExceptionalZeroHypothesis.build(7, 1.0)
    assert hyp.legendre(-1, 7) == -1
    m = 14
    rep = main_term_M(m, 10_000, 100, hyp)
    c = rep.components
    term1 = m * c["L1_sum"]
    term3 = c["I_tilde"] * c["L3_sum"]
    assert term1 > 0
    assert term3 < 0
