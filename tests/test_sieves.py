import math
import random

import numpy as np
import pytest

from twinsieve.arith import build_prime_table, factorize, tau_k
from twinsieve.sieves import (
    LocalDensity,
    SieveWeights,
    admissible_pre_sieve,
    apply_sieve,
    apply_sieve_range,
    beta_sieve,
    curly_V,
    fundamental_lemma_envelope,
    fundlem_pointwise_check,
    linear_sieve,
    p3_minorant_eval,
    p3_minorant_range,
    p3_pointwise_check,
    rho_range,
    sie1_identity_check,
    vector_sieve_lower,
)


@pytest.fixture(scope="module")
def table():
    return build_prime_table(200_000)


def test_beta_sieve_identity_case():
    w = beta_sieve(2.0, 100.0, [], "upper")
    assert dict(w.coefficients) == {1: 1.0}
    for n in (1, 7, 100):
        assert apply_sieve(w, n) == 1.0


def test_beta_sieve_coefficients_are_mobius(table):
    primes = [int(p) for p in table.primes_upto(30)]
    for sign in ("upper", "lower"):
        w = beta_sieve(2.0, 30.0**3, primes, sign)
        for d, lam in w.coefficients.items():
            assert lam in (-1.0, 1.0)
            # squarefree support within level and range
            assert d <= w.level
            rem = d
            for p in primes:
                if rem % p == 0:
                    rem //= p
                    assert rem % p != 0
            assert rem == 1


def test_beta_sieve_sandwich(table):
    z = 30
    primes = [int(p) for p in table.primes_upto(z)]
    N = 10**5
    rho = rho_range(N, 1, z, table)
    for beta in (2.0, 3.0):
        D = float(z) ** 3
        up = apply_sieve_range(beta_sieve(beta, D, primes, "upper"), N)
        lo = apply_sieve_range(beta_sieve(beta, D, primes, "lower"), N)
        n = np.arange(1, N + 1)
        assert np.all(lo[1:] <= rho[1:] + 1e-12)
        assert np.all(rho[1:] <= up[1:] + 1e-12)


def test_beta_sieve_degenerate_level(table):
    # tiny level: upper sieve collapses to {1}, lower keeps all single
    # primes of the range (the depth-1 slot is unchecked), the Bonferroni
    # inequality 1 - #{p | n} <= rho(n, z) still holds pointwise
    primes = [int(p) for p in table.primes_upto(20)]
    up = beta_sieve(2.0, 5.0, primes, "upper")
    assert dict(up.coefficients) == {1: 1.0}
    lo = beta_sieve(2.0, 5.0, primes, "lower")
    assert set(lo.coefficients) == {1} | set(primes)
    N = 2000
    rho = rho_range(N, 1, 20, table)
    lo_vals = apply_sieve_range(lo, N)
    assert np.all(lo_vals[1:] <= rho[1:] + 1e-12)


def test_linear_sieve_sandwich(table):
    N = 10**5
    for P, z, D in [(10, 100, 10**4), (5, 50, 2500.0), (20, 200, 8000.0)]:
        rho = rho_range(N, P, z, table)
        up = apply_sieve_range(linear_sieve(D, z, P, "upper", table), N)
        lo = apply_sieve_range(linear_sieve(D, z, P, "lower", table), N)
        assert np.all(lo[1:] <= rho[1:] + 1e-12)
        assert np.all(rho[1:] <= up[1:] + 1e-12)
    with pytest.raises(ValueError):
        linear_sieve(10.0, 100.0, 5, "upper", table)


def test_linear_sieve_refuses_a_table_short_of_z():
    # a table to 1000 holds 164 of the 299 primes in (10, 2000]; sieving by
    # them alone would be a different, weaker sieve
    with pytest.raises(ValueError):
        linear_sieve(1e9, 2000, 10, "upper", build_prime_table(1000))


def test_linear_sieve_V_ordering(table):
    P, z, D = 10, 100, 10**4
    lo = linear_sieve(D, z, P, "lower", table)
    up = linear_sieve(D, z, P, "upper", table)
    V = 1.0
    for p in table.primes_in(P, z):
        V *= 1 - 1 / (int(p) - 1)
    assert curly_V(lo) <= V <= curly_V(up)


def test_admissible_pre_sieve(table):
    # r_tilde = 1: pure beta sieve on the odd primes <= P
    w = admissible_pre_sieve(20, 1e12, 1, "upper", beta=2.0, table=table)
    assert 2 not in w.primes
    # P = 3, r_tilde = 3: only the Mobius part remains
    w2 = admissible_pre_sieve(3, 1e12, 3, "lower", beta=2.0, table=table)
    assert dict(w2.coefficients) == {1: 1.0, 3: -1.0}
    # sandwich against the odd-part rough indicator
    N = 10**4
    P = 13
    for sign, cmp in (("upper", np.greater_equal), ("lower", np.less_equal)):
        w3 = admissible_pre_sieve(P, 1e30, 15, sign, beta=2.0, table=table)
        vals = apply_sieve_range(w3, N)
        rho = np.ones(N + 1)
        for p in table.primes_in(2, P):
            rho[int(p):: int(p)] = 0
        if sign == "upper":
            assert np.all(vals[1:] >= rho[1:] - 1e-12)
        else:
            assert np.all(vals[1:] <= rho[1:] + 1e-12)


def test_apply_sieve_examples():
    w = SieveWeights({1: 1.0, 3: -1.0}, level=3, primes=frozenset({3}))
    assert apply_sieve(w, 9) == 0.0
    assert apply_sieve(w, 2) == 1.0
    rng = random.Random(31)
    support = {1: 1.0, 2: 0.5, 3: -0.25, 5: 1.0, 6: -0.125}
    w2 = SieveWeights(support, level=6, primes=frozenset({2, 3, 5}))
    for _ in range(50):
        n = rng.randrange(1, 500)
        direct = sum(lam for d, lam in support.items() if n % d == 0)
        assert apply_sieve(w2, n) == pytest.approx(direct)
    arr = apply_sieve_range(w2, 500)
    for n in range(1, 501):
        assert arr[n] == pytest.approx(apply_sieve(w2, n))


def test_curly_V_examples(table):
    ident = beta_sieve(2.0, 10.0, [], "upper")
    assert curly_V(ident) == 1.0
    mob3 = SieveWeights({1: 1.0, 3: -1.0}, level=3, primes=frozenset({3}))
    assert curly_V(mob3) == pytest.approx(0.5)
    # beta sieve at s = 4 stays near V
    z = 20
    primes = [int(p) for p in table.primes_upto(z) if int(p) > 2]
    w = beta_sieve(2.0, float(z) ** 4, primes, "upper")
    V = math.prod(1 - 1 / (p - 1) for p in primes)
    assert abs(curly_V(w) / V - 1) < 0.2


def test_fundamental_lemma_envelope(table):
    w = admissible_pre_sieve(3, 3**1000, 3, "upper", table=table)
    ratio, bound, ok = fundamental_lemma_envelope(w, 3, 3**1000)
    assert ok and abs(ratio) < 1e-9
    w2 = admissible_pre_sieve(13, 13**1000, 1, "lower", beta=2.0, table=table)
    ratio2, bound2, ok2 = fundamental_lemma_envelope(w2, 13, 13**1000)
    assert ok2
    bad = SieveWeights({1: 1.0}, level=1, primes=frozenset({2, 3}))
    with pytest.raises(ValueError):
        fundamental_lemma_envelope(bad, 3, 10.0)


def test_vector_sieve_examples():
    assert vector_sieve_lower(1, 1, 1, 1, 1, 1) == pytest.approx(1.0)
    assert vector_sieve_lower(1, 2, 1, 1, 3, 1) == pytest.approx(1.0 * 1 + 0 * 3)
    with pytest.raises(ValueError):
        vector_sieve_lower(1, 1, 0.5, 0.4, 1, 1)  # A+ < A


def test_vector_sieve_randomized():
    rng = random.Random(37)
    for _ in range(10_000):
        A = rng.uniform(0, 5)
        B = rng.uniform(0, 5)
        A_minus = A - rng.uniform(0, 2)
        A_plus = A + rng.uniform(0, 2)
        B_minus = B - rng.uniform(0, 2)
        B_plus = max(B_minus, 0) + rng.uniform(0, 2) + max(0.0, B - max(B_minus, 0))
        if not (A * B_minus <= A * B and max(B_minus, 0) <= B_plus):
            continue
        got = vector_sieve_lower(A, B, A_plus, A_minus, B_plus, B_minus)
        assert got <= A * B + 1e-9


def test_p3_minorant_pointwise(table):
    N = 10**10
    eps = 1e-3
    P = 3
    bad = p3_pointwise_check(N, eps, P, 10**5, table)
    assert bad.size == 0
    # multiplicity convention: violations are exactly fourth powers of
    # primes in [z, y)
    bad_mult = p3_pointwise_check(N, eps, P, 10**5, table, count_multiplicity=True)
    assert set(bad_mult.tolist()) == {11**4, 13**4, 17**4}


def test_p3_minorant_values(table):
    N = 10**10
    eps = 1e-3
    P = 3
    vals = p3_minorant_range(N, eps, P, 10**5, table)
    z = N ** (1 / 10)
    # primes above z: value <= 1
    for p in (101, 997, 10007):
        assert vals[p] <= 1.0 + 1e-12
    # n with >= 4 distinct prime factors >= z and no small ones: minorant <= 0
    n = 11 * 13 * 17 * 19
    assert vals[n] <= 1e-12


def test_p3_minorant_range_matches_pointwise(table):
    # the vectorized minorant against its pointwise definition, every n <= 3000
    N, eps, P, n_max = 10**10, 1e-3, 3, 3000
    vals = p3_minorant_range(N, eps, P, n_max, table)
    for n in range(1, n_max + 1):
        assert p3_minorant_eval(n, N, eps, P, table) == vals[n], n


def test_sie1_identity_examples(table):
    # P = {3, 5}, lambda = Mobius, g(p) = 1/(p-1)
    lam = SieveWeights(
        {1: 1.0, 3: -1.0, 5: -1.0, 15: 1.0}, level=15, primes=frozenset({3, 5})
    )
    g = LocalDensity({3: 1 / 2, 5: 1 / 4})
    assert sie1_identity_check({3, 5}, lam, 3, 1, g)
    assert sie1_identity_check({3, 5}, lam, 1, 15, g)
    assert sie1_identity_check({3, 5}, lam, 1, 1, g)
    with pytest.raises(ValueError):
        sie1_identity_check({3, 5}, lam, 3, 3, g)  # j, e not coprime


def test_sie1_identity_random_draws(table):
    rng = random.Random(101)
    primes_pool = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    for trial in range(500):
        k = rng.randrange(1, 7)
        P_set = sorted(rng.sample(primes_pool, k))
        divs = [1]
        for p in P_set:
            divs += [d * p for d in divs]
        coeffs = {d: rng.uniform(-1, 1) for d in divs if rng.random() < 0.7}
        coeffs[1] = coeffs.get(1, 1.0)
        lam = SieveWeights(coeffs, level=max(divs), primes=frozenset(P_set))
        g = LocalDensity({p: rng.uniform(0.05, 0.9) for p in P_set})
        j = 1
        e = 1
        for p in P_set:
            r = rng.random()
            if r < 0.3:
                j *= p
            elif r < 0.6:
                e *= p
        assert sie1_identity_check(P_set, lam, j, e, g), (trial, P_set, j, e)


def _fundlem_sides_literal(theta, n, z, beta, D, table):
    """Both sides of the pointwise envelope at one n, read off its own factors."""
    s = math.log(D) / math.log(z)
    fac = [p for p in theta.primes if n % p == 0]
    indicator = 0.0 if any(p <= z for p in fac) else 1.0
    lhs = abs(apply_sieve(theta, n) - indicator)
    tau_sq = tau_k(factorize(n, table), 2) ** 2
    ratio = (beta - 1.0) / (beta + 1.0)
    r = max(math.floor((s - beta - 1.0) / 2.0) + 1, 1)
    r_last = r + 200
    total = 0.0
    while r <= r_last:
        z_r = z ** (ratio**r)
        if not theta.primes or z_r < min(theta.primes):
            total += 2.0 ** (-r + 1)
            break
        total += 2.0 ** (-r) * (0.0 if any(p <= z_r for p in fac) else 1.0)
        r += 1
    return lhs, tau_sq * total


def test_fundlem_pointwise(table):
    # (beta, s) sweeps; z chosen so the range is nontrivial
    for beta, s in [(2.0, 5.0), (3.0, 6.0)]:
        z = 10.0
        D = z**s
        primes = [int(p) for p in table.primes_upto(z)]
        for sign in ("upper", "lower"):
            theta = beta_sieve(beta, D, primes, sign)
            bad = fundlem_pointwise_check(theta, 10**4, z, beta, D)
            assert bad.size == 0, (beta, s, sign, bad[:5])
    with pytest.raises(ValueError):
        theta = beta_sieve(2.0, 8.0, [3, 5], "upper")
        fundlem_pointwise_check(theta, 7, 10.0, 2.0, 8.0)


def test_fundlem_range_sides_equal_the_per_n_evaluation_bit_for_bit(table):
    from twinsieve.sieves import _fundlem_sides

    n_max = 3000
    for beta, s, z in [(2.0, 5.0, 10.0), (3.0, 6.0, 10.0), (2.0, 3.5, 30.0),
                       (20.0, 25.0, 10.0), (2.5, 8.0, 20.0)]:
        D = z**s
        primes = [int(p) for p in table.primes_upto(z)]
        for sign in ("upper", "lower"):
            theta = beta_sieve(beta, D, primes, sign)
            lhs, rhs = _fundlem_sides(theta, n_max, z, beta, D)
            for n in range(1, n_max + 1):
                want = _fundlem_sides_literal(theta, n, z, beta, D, table)
                assert (lhs[n], rhs[n]) == want, (beta, s, z, sign, n)
    # no range primes: every n is rough and the envelope is the whole tail
    empty = beta_sieve(2.0, 1e5, [], "upper")
    lhs, rhs = _fundlem_sides(empty, 50, 10.0, 2.0, 1e5)
    assert [(lhs[n], rhs[n]) for n in range(1, 51)] == [
        _fundlem_sides_literal(empty, n, 10.0, 2.0, 1e5, table) for n in range(1, 51)
    ]


def test_fundlem_range_finds_the_violations_the_per_n_evaluation_finds(table):
    # a weight system far from any beta sieve breaks the envelope
    theta = SieveWeights({1: 1.0, 2: -10.0, 15: 7.5, 49: 3.0}, level=49.0,
                         primes=frozenset({2, 3, 5, 7}))
    z, beta, D = 10.0, 2.0, 10.0**5
    sides = {n: _fundlem_sides_literal(theta, n, z, beta, D, table) for n in range(1, 2001)}
    literal = [n for n, (lhs, rhs) in sides.items() if lhs > rhs + 1e-12]
    assert len(literal) == 171
    assert fundlem_pointwise_check(theta, 2000, z, beta, D).tolist() == literal