import functools
import itertools
import math
import random

import numpy as np
import pytest

from twinsieve.arith import (
    ConfigurationError,
    almost_prime_indicator,
    big_omega,
    build_prime_table,
    euler_phi,
    factorize,
    factorize_extended,
    heath_brown_terms,
    lambda_almost_twin,
    lambda_e3star,
    mobius,
    omega_counts,
    omega_distinct,
    rough_indicator,
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


def test_prime_table_primes_match_trial_division():
    for limit in range(2, 201):
        want = [n for n in range(2, limit + 1)
                if all(n % d for d in range(2, math.isqrt(n) + 1))]
        assert build_prime_table(limit).primes.tolist() == want, limit


@pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 24, 25, 48, 49, 10**4])
def test_prime_table_spf_matches_trial_division(limit):
    # limits at and next to prime squares, where the last sieving prime changes
    def spf(n):
        return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)

    want = [0, 1] + [spf(n) for n in range(2, limit + 1)]
    assert build_prime_table(limit).spf.tolist() == want


def test_prime_table_limits():
    # the int32 format bounds the limit; memory budgets are the caller's
    with pytest.raises(ConfigurationError):
        build_prime_table(1)
    with pytest.raises(ConfigurationError):
        build_prime_table(2**31 + 1)


def test_prime_table_refuses_primes_past_its_limit():
    t = build_prime_table(1000)
    assert len(t.primes_upto(1000)) == len(t.primes_in(0, 1000)) == 168
    for ask in (lambda: t.primes_upto(1001), lambda: t.primes_in(10, 2000)):
        with pytest.raises(ValueError):
            ask()


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
    # trial division up to isqrt(n) suffices: a composite n has its smallest
    # prime factor there, and n % p == 0 leaves p = n for a prime n
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(2, table.limit)
        p = int(table.spf[n])
        assert n % p == 0
        for q in range(2, min(p, math.isqrt(n) + 1)):
            assert n % q != 0


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


def test_agreement_with_definitional_loops(small_table):
    # mu, phi, tau_k, Omega from factorize vs direct definitional loops
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

    rng = random.Random(17)
    sample = [rng.randrange(1, N + 1) for _ in range(3000)] + list(range(1, 300))
    for n in sample:
        fac = factorize(n, table)
        assert euler_phi(fac) == phi[n], n
        assert mobius(fac) == mu[n], n
        assert big_omega(fac) == omega[n], n
        assert tau_k(fac, 2) == tau[n], n


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
    eps = 1e-3
    rng = random.Random(5)
    for _ in range(4000):
        n = rng.randrange(2, table.limit)
        val = lambda_e3star(n, table.limit, table, eps=eps)
        if val != 0.0:
            fac = factorize(n, table)
            assert big_omega(fac) == 3
            assert all(p >= table.limit ** (1 / 10) for p in fac.primes)
    # window membership is rare but must occur for products of three primes
    n = 11 * 151 * 409  # hand-picked: use its own N
    N_big = 2 * n
    val = lambda_e3star(n, N_big, table, eps=eps)
    # all three factors >= N_big^(1/10) ~ 4.1, and 11 < N_big^(1/3 - eps) ~ 109
    # < 151 <= sqrt(N_big / 11): the B1 window, weight (1/2) log n
    t13 = N_big ** (1 / 3 - eps)
    assert 11 < t13 < 151
    assert val == 0.5 * math.log(n)


def test_heath_brown_identity_examples(small_table):
    assert heath_brown_terms(7, 2, small_table) == pytest.approx(math.log(7))
    assert heath_brown_terms(12, 2, small_table) == pytest.approx(0.0, abs=1e-12)
    assert heath_brown_terms(4, 3, small_table) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        heath_brown_terms(7, 0, small_table)
    with pytest.raises(ValueError):
        heath_brown_terms(7, 8, small_table)



def test_heath_brown_memo_key_carries_the_cut(small_table):
    # 6 = 2 * 3 and 10 = 2 * 5 share the exponent shape (2, 2); at J = 3 the
    # corner d = 2 is kept for 10 (8 < 10) and cut for 6 (8 >= 6)
    from twinsieve.arith import _hb_coefficients

    _hb_coefficients.cache_clear()
    for n in (6, 10):
        assert heath_brown_terms(n, 3, small_table) == pytest.approx(
            von_mangoldt(n, small_table), abs=1e-12
        )
    info = _hb_coefficients.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # two keys, neither served from the other
    cut6 = (True, False, False, False)  # corners 1, 3, 2, 6 in product order
    cut10 = (True, False, True, False)  # corners 1, 5, 2, 10
    assert _hb_coefficients((2, 2), cut6, 3) == _hb_coefficients((2, 2), cut10, 3) == (0, 0)
    assert _hb_coefficients.cache_info().hits == 2
    # the lattice work reads the cut: without the corner d = 1, which every
    # n keeps, the identity fails
    assert _hb_coefficients((2, 2), (False, True, False, False), 3) == (-3, 0)


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


def _hb_cut_by_corner(n, primes, J):
    # the divisor cut d^J < n without the divisor enumerator: one math.prod
    # per squarefree corner, in product order
    return tuple(
        math.prod(p**ai for p, ai in zip(primes, a)) ** J < n
        for a in itertools.product((0, 1), repeat=len(primes))
    )


@functools.lru_cache(maxsize=None)
def _hb_coefficients_grid(shape, cut, J):
    # the coefficients by a second route, on a numpy exponent grid:
    # restricted mu by shifted adds over the kept corners, 1 by a cumsum per
    # axis (no closed form for log * 1 * ... * 1), and the pairing of the two
    # by tensordot over the flipped grid
    k = len(shape)
    mu_cut = {
        a: (-1) ** sum(a)
        for a, keep in zip(itertools.product((0, 1), repeat=k), cut)
        if keep
    }

    def conv_mu(A):
        out = np.zeros_like(A)
        for a, sign in mu_cut.items():
            dst = tuple(slice(ai, None) for ai in a)
            out[dst] += sign * A[tuple(slice(m - ai) for m, ai in zip(shape, a))]
        return out

    def conv_ones(A):
        for axis in range(k):
            A = np.cumsum(A, axis=axis)
        return A

    flip = (slice(None, None, -1),) * k
    total_vec = np.zeros(k, dtype=np.int64)
    m_conv = np.zeros(shape, dtype=np.int64)
    m_conv[(0,) * k] = 1
    l_conv = np.moveaxis(np.indices(shape, dtype=np.int64), 0, -1)
    for j in range(1, J + 1):
        m_conv = conv_mu(m_conv)
        if j > 1:
            l_conv = conv_ones(l_conv)
        inner = np.tensordot(m_conv, l_conv[flip], axes=k)
        total_vec -= (-1) ** j * math.comb(J, j) * inner
    return tuple(int(c) for c in total_vec)


def test_heath_brown_equals_the_grid_route_for_every_n(small_table):
    from twinsieve.arith import _hb_coefficients

    for J in (1, 2, 3, 4):
        for n in range(2, small_table.limit + 1):
            pairs = factorize(n, small_table).pairs
            primes = [p for p, _ in pairs]
            shape = tuple(e + 1 for _, e in pairs)
            cut = _hb_cut_by_corner(n, primes, J)
            want = _hb_coefficients_grid(shape, cut, J)
            assert _hb_coefficients(shape, cut, J) == want, (n, J)
            # the call below finds the entry just made: its own cut is this one
            hits = _hb_coefficients.cache_info().hits
            got = heath_brown_terms(n, J, small_table)
            assert _hb_coefficients.cache_info().hits == hits + 1, (n, J)
            assert got == float(sum(c * math.log(p) for c, p in zip(want, primes))), (n, J)
