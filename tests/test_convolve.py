import math

import numpy as np
import pytest

from twinsieve.arith import build_prime_table
from twinsieve.convolve import (
    ArithSequence,
    T_sums,
    build_sequence,
    classify_arc,
    convolve,
    exceptional_scan,
    exp_sum,
)
from twinsieve.ntt import ReconstructionOverflow, exact_convolve, roundoff_bound


@pytest.fixture(scope="module")
def table():
    return build_prime_table(1_100_000)


def test_build_lambda0(table):
    seq = build_sequence("Lambda0", 10, table)
    support = np.nonzero(seq.values)[0]
    assert list(support) == [2, 3, 5, 7]
    assert seq.values[8] == 0.0
    full = build_sequence("Lambda", 10, table)
    assert full.values[8] == pytest.approx(math.log(2))


def test_build_lambda_k_support(table):
    N = 10**6
    seq = build_sequence("Lambda_3", 1000, table) if False else build_sequence(
        "Lambda_k", 1000, table, k=3, alpha=1 / 10
    )
    z = 1000 ** (1 / 10)
    for n in np.nonzero(seq.values)[0]:
        n = int(n)
        assert table.is_prime(n)
        from twinsieve.arith import almost_prime_indicator, rough_indicator

        assert almost_prime_indicator(n + 2, 3, table) == 1
        assert rough_indicator(n + 2, 1, z, table) == 1
    ind = build_sequence("Lambda_k", 1000, table, k=2, indicator=True)
    assert set(np.unique(ind.values)) <= {0, 1}


def test_convolution_example_indicator(table):
    seq = build_sequence("Lambda0", 10, table, indicator=True)
    conv = convolve(seq, seq, "exact")
    assert conv.values[10] == 3  # (3,7), (7,3), (5,5)


def test_convolution_example_weighted(table):
    seq = build_sequence("Lambda0", 10, table)
    conv = convolve(seq, seq, "float")
    want = 2 * math.log(3) * math.log(7) + math.log(5) ** 2
    assert conv.values[10] == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(6.8659, abs=1e-4)


def test_exact_vs_bruteforce_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = 4096
        a = rng.integers(0, 1000, n)
        b = rng.integers(0, 1000, n)
        assert np.array_equal(exact_convolve(a, b), np.convolve(a, b))


def test_exact_mode_equals_direct(table):
    rng = np.random.default_rng(6)
    N = 300
    a = ArithSequence(N, rng.integers(0, 50, N + 1), "a")
    b = ArithSequence(N, rng.integers(0, 50, N + 1), "b")
    conv = convolve(a, b, "exact")
    for m in range(2, 2 * N + 1):
        direct = sum(
            int(a.values[n1]) * int(b.values[m - n1])
            for n1 in range(max(1, m - N), min(N, m - 1) + 1)
        )
        assert conv.values[m] == direct


def test_exact_mode_guards(table):
    seq_f = build_sequence("Lambda0", 100, table)
    with pytest.raises(ValueError):
        convolve(seq_f, seq_f, "exact")  # float-valued
    big = ArithSequence(10, np.full(11, 2**32, dtype=np.int64), "big")
    with pytest.raises(ReconstructionOverflow):
        convolve(big, big, "exact")


def test_float_vs_exact_deviation(table):
    rng = np.random.default_rng(7)
    N = 1 << 16
    vals = (rng.random(N + 1) < 0.3).astype(np.int64)
    a = ArithSequence(N, vals, "ind")
    exact = exact_convolve(vals[1:], vals[1:])
    flt = convolve(a, a, "float").values[2:]
    assert np.abs(flt - exact).max() <= 1e-3


@pytest.mark.parametrize("high", [2, 1000])
def test_certified_float_path_equals_ntt(high):
    # 0/1 and 0..999 inputs stay under the 1/4 bound, so exact mode runs
    # the rounded FFT; the NTT is the oracle
    rng = np.random.default_rng(high)
    for j in range(1, 17):
        for n in (2**j - 1, 2**j, 2**j + 1):
            a = rng.integers(0, high, n + 1)
            b = rng.integers(0, high, n + 1)
            assert roundoff_bound(a[1:], b[1:]) < 0.25
            got = convolve(ArithSequence(n, a, "a"), ArithSequence(n, b, "b"), "exact")
            assert got.values.dtype == np.int64
            assert np.array_equal(got.values[2:], exact_convolve(a[1:], b[1:])), n


def test_uncertified_inputs_fall_back_to_ntt():
    rng = np.random.default_rng(9)
    vals = (2**25 - rng.integers(0, 1000, 65)).astype(np.int64)
    assert roundoff_bound(vals[1:], vals[1:]) >= 0.25
    seq = ArithSequence(64, vals, "big")
    got = convolve(seq, seq, "exact").values
    py = np.array([int(v) for v in vals[1:]], dtype=object)
    assert got[2:].tolist() == np.convolve(py, py).tolist()


def test_count_monotone_in_N(table):
    # representation count for fixed m never decreases as N grows
    seq1 = build_sequence("Lambda0", 500, table, indicator=True)
    seq2 = build_sequence("Lambda0", 1000, table, indicator=True)
    c1 = convolve(seq1, seq1, "exact").values
    c2 = convolve(seq2, seq2, "exact").values
    for m in range(2, 501):
        assert c2[m] >= c1[m]
        if m <= 500:
            assert c2[m] == c1[m]  # all pairs fit below both ranges


def test_exceptional_scan_small(table):
    rep = exceptional_scan(1000, 2, 3, 1 / 15, 1 / 10, table)
    assert rep.verified
    assert rep.clamped  # thresholds below 3 at this N
    for m in rep.exceptional:
        assert m % 6 == 4
        assert rep.counts[m] == 0


@pytest.mark.parametrize("N, alpha1, alpha2", [(5000, 1 / 6, 1 / 4), (1000, 1 / 15, 1 / 10)])
def test_scan_supports_match_pointwise_weight(table, N, alpha1, alpha2):
    from twinsieve.arith import lambda_almost_twin
    from twinsieve.convolve import _almost_twin_support

    def pointwise(k, alpha):
        return np.array(
            [lambda_almost_twin(n, k, N, table, alpha=alpha) != 0 for n in range(N + 1)]
        )

    rep = exceptional_scan(N, 2, 3, alpha1, alpha2, table, sample_count=8)
    assert rep.clamped == (N ** alpha2 < 3)
    masks = []
    for k, alpha, z in ((2, alpha1, rep.z1), (3, alpha2, rep.z2)):
        seq = build_sequence("Lambda_k", N, table, k=k, alpha=alpha, indicator=True)
        assert np.array_equal(seq.values != 0, pointwise(k, alpha))
        # a z raised to 3 sieves by {2, 3}, as N^alpha = 3.5 does
        want = pointwise(k, alpha if z > 3 else math.log(3.5) / math.log(N))
        assert np.array_equal(_almost_twin_support(N, k, z, table), want)
        masks.append(want.astype(np.int64))
    assert np.array_equal(rep.counts[2:], np.convolve(masks[0][1:], masks[1][1:]))


def test_e3star_sequence_matches_pointwise(table):
    from twinsieve.arith import lambda_e3star

    # eps = 0.05 puts primes in [N^(1/3 - eps), N^(1/3)], so both windows fill
    N, eps = 20_000, 0.05
    want = np.array([lambda_e3star(n, N, table, eps=eps) for n in range(N + 1)])
    seq = build_sequence("Lambda_E3star", N, table, eps=eps)
    assert np.array_equal(seq.values, want)
    hit = np.flatnonzero(want)
    assert set(np.round(want[hit] / np.log(hit), 9)) == {0.5, 1.0}


def test_exceptional_scan_plain_goldbach(table):
    rep = exceptional_scan(100, math.inf, math.inf, 0, 0, table)
    assert rep.verified
    # plain Goldbach with primes: only tiny m can fail
    assert all(m <= 10 for m in rep.exceptional)


def test_scan_prefix_consistency(table):
    r1 = exceptional_scan(10**4, 2, 3, 1 / 15, 1 / 10, table)
    r2 = exceptional_scan(10**5, 2, 3, 1 / 15, 1 / 10, table)
    # effective sieving sets agree ({2, 3}), so the m <= 10^4 prefix matches
    assert [m for m in r2.exceptional if m <= 10**4] == r1.exceptional
    assert np.all(r2.counts[2 : 10**4 + 1] >= r1.counts[2 : 10**4 + 1])


def test_exp_sum(table):
    seq = build_sequence("Lambda0", 100, table)
    total = exp_sum(seq, 0.0)
    assert total.real == pytest.approx(seq.values.sum())
    assert abs(total.imag) < 1e-12
    # parity split at alpha = 1/2
    val = exp_sum(seq, 0.5)
    direct = sum(
        seq.values[n] * (-1) ** n for n in range(1, 101)
    )
    assert val.real == pytest.approx(direct, abs=1e-9)
    assert abs(exp_sum(seq, 0.3)) <= seq.values.sum() + 1e-9
    with pytest.raises(ValueError):
        exp_sum(seq, 0.1, y=101)


def test_classify_arc():
    res = classify_arc(0.0, 10**6, 10**1000)
    assert res.is_major and res.q == 1 and res.b == 0
    res = classify_arc(1 / 3, 10**6, 10**3000)
    assert res.is_major and (res.b, res.q) == (1, 3)
    golden = (math.sqrt(5) - 1) / 2
    res = classify_arc(golden, 10**6, 10**1000)  # cutoff 10, Q = 10^5
    assert not res.is_major
    # boundary |alpha - b/q| = 1/Q is major (closed arcs)
    N, P = 10**6, 10**3000  # cutoff 10^3, Q = 10^3
    alpha = 0.5 + 1.0 / (N / 10**3)
    res = classify_arc(alpha, N, P)
    assert res.is_major and res.distance <= 1 / (N / 10**3) + 1e-15


def test_classify_arc_witness_invariant():
    rng = np.random.default_rng(11)
    N, P = 10**6, 10**2000  # cutoff 100
    Q = N / 100
    for _ in range(200):
        alpha = float(rng.random())
        res = classify_arc(alpha, N, P)
        if res.is_major:
            assert math.gcd(res.b, res.q) == 1
            assert res.q <= 100
            assert abs(alpha - res.b / res.q) <= 1 / Q + 1e-15


def test_T_sums(table):
    T, Tt = T_sums(0.0, 50)
    assert T == 50
    assert Tt == -50
    _, Tt_half = T_sums(0.0, 50, beta=0.5)
    assert Tt_half.real == pytest.approx(-sum(n**-0.5 for n in range(1, 51)))
    T, Tt = T_sums(0.3, 100, beta=1.0)
    assert Tt == pytest.approx(-T, abs=1e-9)
    # closed form vs direct sum
    n = np.arange(1, 101)
    direct = np.sum(np.exp(2j * np.pi * 0.3 * n))
    assert T == pytest.approx(direct, abs=1e-9)
    # |T| <= min(N, 1/(2 eta)) style bound
    for eta in (0.01, 0.1, 0.25):
        T, _ = T_sums(eta, 1000)
        assert abs(T) <= min(1000, 1 / (2 * eta)) + 1e-9
    with pytest.raises(ValueError):
        T_sums(0.7, 10)
