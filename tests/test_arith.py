import math
import random

import numpy as np
import pytest

from twinsieve.arith import (
    ConfigurationError,
    V_product,
    almost_prime_indicator,
    arith_value,
    big_omega,
    build_prime_table,
    euler_phi,
    euler_phi2,
    factorize,
    factorize_extended,
    heath_brown_terms,
    lambda_almost_twin,
    lambda_e3star,
    lambda_weight,
    mobius,
    omega_counts,
    omega_distinct,
    radical,
    rough_indicator,
    smooth_rough_split,
    tau_k,
    von_mangoldt,
)


@pytest.fixture(scope="module")
def table():
    return build_prime_table(1_000_100)


@pytest.fixture(scope="module")
def small_table():
    return build_prime_table(10_000)


def test_prime_table_smallest_cases():
    t = build_prime_table(10)
    assert list(t.primes) == [2, 3, 5, 7]
    assert t.spf[9] == 3
    t2 = build_prime_table(2)
    assert list(t2.primes) == [2]


def test_prime_table_limits():
    with pytest.raises(ConfigurationError):
        build_prime_table(1)
    with pytest.raises(ConfigurationError):
        build_prime_table(100, budget=50)


def test_pi_of_ten_to_six(table):
    # pi(10^6) against an independent bool sieve, plus trial division spot checks
    assert np.count_nonzero(table.primes <= 10**6) == 78498
    is_p = np.ones(10**6 + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, 1001):
        if is_p[i]:
            is_p[i * i :: i] = False
    assert is_p.sum() == 78498

    def trial_division_prime(n):
        if n < 2:
            return False
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                return False
        return True

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        assert table.is_prime(n) == trial_division_prime(n)


def test_spf_invariants(table):
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(2, table.limit)
        p = int(table.spf[n])
        assert n % p == 0
        for q in range(2, p):
            assert n % q != 0 or q >= p


def test_factorize_basic(small_table):
    assert factorize(12, small_table).pairs == ((2, 2), (3, 1))
    assert factorize(1, small_table).pairs == ()
    assert factorize(97, small_table).pairs == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0, small_table)
    with pytest.raises(ValueError):
        factorize(10_001, small_table)


def test_factorize_roundtrip(small_table):
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 10_000)
        fac = factorize(n, small_table)
        assert fac.value() == n
        assert list(fac.primes) == sorted(fac.primes)
        assert all(e >= 1 for _, e in fac.pairs)


def test_factorize_extended(small_table):
    n = 9973 * 9967  # both prime, product beyond the table
    fac = factorize_extended(n, small_table)
    assert fac.pairs == ((9967, 1), (9973, 1))
    assert factorize_extended(120, small_table).value() == 120


def test_arith_values_explicit(small_table):
    assert arith_value("phi2", 15, small_table) == 3
    assert arith_value("phi2", 8, small_table) == 4
    assert arith_value("mu", 30, small_table) == -1
    assert arith_value("mu", 12, small_table) == 0
    assert arith_value("phi", 12, small_table) == 4
    assert arith_value("tau_k", 12, small_table, k=2) == 6
    assert arith_value("big_omega", 8, small_table) == 3
    assert arith_value("rad", 12, small_table) == 6
    with pytest.raises(ValueError):
        arith_value("nope", 5, small_table)


def test_agreement_with_definitional_loops(small_table):
    # mu, phi, phi2, tau_k, Omega from factorize vs direct definitional loops
    for n in range(1, 2000):
        fac = factorize(n, small_table)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert tau_k(fac, 2) == len(divisors)
        assert euler_phi(fac) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        sq = [p for p in range(2, n + 1) if small_table.spf[p] == p and n % (p * p) == 0]
        if sq:
            assert mobius(fac) == 0
        distinct = {p for p in range(2, n + 1) if small_table.spf[p] == p and n % p == 0}
        assert mobius(fac) == (0 if sq else (-1) ** len(distinct))
        phi2_direct = n
        for p in distinct:
            phi2_direct = phi2_direct // p * ((p - 1) if p == 2 else (p - 2))
        assert euler_phi2(fac) == phi2_direct
        m, count = n, 0
        while m > 1:
            m //= int(small_table.spf[m])
            count += 1
        assert big_omega(fac) == count


def test_multiplicativity(table):
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        if math.gcd(a, b) != 1:
            continue
        checked += 1
        fa = factorize(a, table)
        fb = factorize(b, table)
        fab = factorize_extended(a * b, table)
        assert mobius(fab) == mobius(fa) * mobius(fb)
        assert euler_phi(fab) == euler_phi(fa) * euler_phi(fb)
        assert euler_phi2(fab) == euler_phi2(fa) * euler_phi2(fb)
        assert radical(fab) == radical(fa) * radical(fb)
        for k in (2, 3, 4):
            assert tau_k(fab, k) == tau_k(fa, k) * tau_k(fb, k)


def test_agreement_with_sieve_oracles_at_scale(table):
    # factorize-based values vs independent sieve computations, n <= 1e5
    N = 10**5
    primes = [int(p) for p in table.primes_upto(N)]

    phi = np.arange(N + 1, dtype=np.int64)
    for p in primes:
        phi[p::p] -= phi[p::p] // p

    mu = np.ones(N + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes:
        mu[p::p] *= -1
        if p * p <= N:
            mu[p * p :: p * p] = 0

    omega = np.zeros(N + 1, dtype=np.int64)
    for p in primes:
        pk = p
        while pk <= N:
            omega[pk::pk] += 1
            pk *= p

    tau = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        tau[d::d] += 1

    phi2 = np.arange(N + 1, dtype=np.int64)
    for p in primes:
        phi2[p::p] //= p
        phi2[p::p] *= (p - 2) if p > 2 else 1

    rng = random.Random(17)
    sample = [rng.randrange(1, N + 1) for _ in range(3000)] + list(range(1, 300))
    for n in sample:
        fac = factorize(n, table)
        assert euler_phi(fac) == phi[n], n
        assert mobius(fac) == mu[n], n
        assert big_omega(fac) == omega[n], n
        assert tau_k(fac, 2) == tau[n], n
        assert euler_phi2(fac) == phi2[n], n


def test_omega_kernel_matches_factorize(small_table):
    n = np.arange(10**4 + 1)
    facs = [factorize(int(x), small_table) for x in n[1:]]
    big = omega_counts(n, small_table)
    distinct = omega_counts(n, small_table, multiplicity=False)
    assert big[0] == distinct[0] == 0
    assert np.array_equal(big[1:], [big_omega(f) for f in facs])
    assert np.array_equal(distinct[1:], [omega_distinct(f) for f in facs])
    # unsorted, with repeats and the empty products 0 and 1
    idx = np.array([9973, 0, 1024, 1, 1024, 210, 9973, 12])
    assert omega_counts(idx, small_table).tolist() == [1, 0, 10, 0, 10, 4, 1, 3]
    assert omega_counts(idx, small_table, False).tolist() == [1, 0, 1, 0, 1, 4, 1, 2]


def test_smooth_rough_split(small_table):
    assert smooth_rough_split(60, 3, small_table) == (12, 5)
    assert smooth_rough_split(7, 10, small_table) == (7, 1)
    assert smooth_rough_split(1, 2, small_table) == (1, 1)
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 10_000)
        P = rng.randrange(2, 50)
        s, r = smooth_rough_split(n, P, small_table)
        assert s * r == n
        assert all(p <= P for p, _ in factorize(s, small_table).pairs)
        assert all(p > P for p, _ in factorize(r, small_table).pairs)


def test_rough_indicator(small_table):
    assert rough_indicator(35, 1, 5, small_table) == 0
    assert rough_indicator(49, 1, 5, small_table) == 1
    assert rough_indicator(1, 1, 10**6, build_prime_table(2)) == 1
    assert rough_indicator(35, 5, 7, small_table) == 0  # 7 in (5, 7]
    assert rough_indicator(35, 4, 5, small_table) == 0  # 5 in (4, 5]
    assert rough_indicator(25, 5, 100, small_table) == 1
    with pytest.raises(ValueError):
        rough_indicator(10, 5, 3, small_table)


def test_almost_prime_indicator(small_table):
    assert almost_prime_indicator(15, 2, small_table) == 1
    assert almost_prime_indicator(8, 2, small_table) == 0
    assert almost_prime_indicator(1, 1, small_table) == 1
    # conventions differ exactly on repeated factors
    assert almost_prime_indicator(8, 2, small_table, count_multiplicity=False) == 1
    assert almost_prime_indicator(8, 1, small_table, count_multiplicity=False) == 1


def test_V_product():
    assert V_product({3, 5}) == pytest.approx(3 / 8)
    assert V_product(set()) == 1.0
    assert V_product({2, 3}) == 0.0


def test_lambda_weights(small_table):
    assert von_mangoldt(8, small_table) == pytest.approx(math.log(2))
    assert von_mangoldt(12, small_table) == 0.0
    assert lambda_weight("Lambda0", 8, 100, small_table) == 0.0
    assert lambda_weight("Lambda0", 7, 100, small_table) == pytest.approx(math.log(7))
    assert lambda_weight("vonMangoldt", 8, 100, small_table) == pytest.approx(math.log(2))
    assert lambda_weight("Lambda_k", 9, 10**6, None, k=3) == 0.0
    with pytest.raises(ValueError):
        lambda_weight("Lambda0", 101, 100, small_table)


def test_lambda_almost_twin_support(table):
    N = 10**6
    z = N ** (1 / 10)
    for n in range(2, 3000):
        val = lambda_almost_twin(n, 3, N, table)
        if val != 0.0:
            assert table.is_prime(n)
            assert big_omega(factorize(n + 2, table)) <= 3
            assert rough_indicator(n + 2, 1, z, table) == 1
            assert val == pytest.approx(math.log(n))


def test_lambda_e3star_support(table):
    N = 10**6
    eps = 1e-3
    t10 = N ** (1 / 10)
    hits = 0
    rng = random.Random(5)
    for _ in range(4000):
        n = rng.randrange(2, table.limit)
        val = lambda_e3star(n, table.limit, table, eps=eps)
        if val != 0.0:
            hits += 1
            fac = factorize(n, table)
            assert big_omega(fac) == 3
            assert all(p >= table.limit ** (1 / 10) for p in fac.primes)
    # window membership is rare but must occur for products of three primes
    n = 101 * 1009 * 1013  # hand-picked: use its own N
    N_big = 2 * n
    val = lambda_e3star(n, N_big, build_prime_table(n + 10), eps=eps)
    # all three factors >= N_big^(1/10) ~ 4.5; windows checked directly below
    t13 = N_big ** (1 / 3 - eps)
    assert 101 < t13
    assert val != 0.0


def test_heath_brown_identity_examples(small_table):
    assert heath_brown_terms(7, 2, small_table) == pytest.approx(math.log(7))
    assert heath_brown_terms(12, 2, small_table) == pytest.approx(0.0, abs=1e-12)
    assert heath_brown_terms(4, 3, small_table) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        heath_brown_terms(7, 0, small_table)
    with pytest.raises(ValueError):
        heath_brown_terms(7, 8, small_table)


def _heath_brown_bruteforce(n, J):
    # literal ordered-tuple enumeration of the decomposition
    import itertools

    def divisors(m):
        return [d for d in range(1, m + 1) if m % d == 0]

    def mu(m):
        if m == 1:
            return 1
        out, k = 1, m
        for p in range(2, m + 1):
            if p * p > k:
                break
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
        if k > 1:
            out = -out
        return out

    total = 0.0
    for j in range(1, J + 1):
        inner = 0.0

        def rec(remaining, pos, first_log):
            nonlocal inner
            if pos == 2 * j:
                if remaining == 1:
                    inner += first_log
                return
            for d in divisors(remaining):
                if pos >= j and d**J >= n:
                    continue
                w = first_log if pos > 0 else math.log(d) if d > 1 else 0.0
                if pos >= j:
                    md = mu(d)
                    if md == 0:
                        continue
                    rec(remaining // d, pos + 1, w * md)
                else:
                    rec(remaining // d, pos + 1, w)

        rec(n, 0, 0.0)
        total -= (-1) ** j * math.comb(J, j) * inner
    return total


def test_heath_brown_vs_bruteforce(small_table):
    for n, J in [(7, 2), (12, 2), (4, 3), (30, 2), (64, 3), (97, 3), (100, 2)]:
        assert heath_brown_terms(n, J, small_table) == pytest.approx(
            _heath_brown_bruteforce(n, J), abs=1e-12
        )


def test_heath_brown_equals_von_mangoldt(small_table):
    for J in (2, 3):
        for n in range(2, 400):
            got = heath_brown_terms(n, J, small_table)
            want = von_mangoldt(n, small_table)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))
