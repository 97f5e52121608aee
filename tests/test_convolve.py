import math

import numpy as np
import pytest

from twinsieve.arith import almost_prime_indicator, build_prime_table, lambda0, rough_indicator
from twinsieve.convolve import (
    ArithSequence,
    build_sequence,
    convolve,
    exceptional_scan,
)
from twinsieve import ntt
from twinsieve.ntt import ReconstructionOverflow, exact_convolve, roundoff_bound
from twinsieve.sieves import apply_sieve, linear_sieve


@pytest.fixture(scope="module")
def table():
    return build_prime_table(1_100_000)


def test_build_sieve_twisted_matches_pointwise(table):
    # Lambda0(n) times the sieve weight omega(n + 2), summed divisor by divisor
    w = linear_sieve(1e4, 100, 10, "lower", table)
    N = 2000
    seq = build_sequence("sieve_twisted", N, table, weights=w)
    assert seq.values[0] == 0.0
    for n in range(1, N + 1):
        assert seq.values[n] == lambda0(n, table) * apply_sieve(w, n + 2), n
    assert np.count_nonzero(seq.values) > 0
    with pytest.raises(ValueError):
        build_sequence("sieve_twisted", N, table)


def test_build_lambda0(table):
    seq = build_sequence("Lambda0", 10, table)
    support = np.nonzero(seq.values)[0]
    assert list(support) == [2, 3, 5, 7]
    assert seq.values[8] == 0.0
    full = build_sequence("Lambda", 10, table)
    assert full.values[8] == pytest.approx(math.log(2))


def test_build_lambda_k_support(table):
    seq = build_sequence("Lambda_k", 1000, table, k=3, alpha=1 / 10)
    z = 1000 ** (1 / 10)
    for n in np.nonzero(seq.values)[0]:
        n = int(n)
        assert table.is_prime(n)
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
    conv = convolve(seq, seq, "exact")
    py = np.array([int(v) for v in vals[1:]], dtype=object)
    assert conv.values[2:].tolist() == np.convolve(py, py).tolist()
    # |a|_2^2 is about 64 * 2^50, past P1: the trace names both primes
    assert conv.trace["engine"] == "ntt" and conv.trace["primes"] == 2


def _spy_ntt(monkeypatch):
    """Record (prime, invert) for every transform the NTT runs."""
    calls = []
    for name, invert in (("_dif_forward", False), ("_dit_inverse", True)):
        real = getattr(ntt, name)

        def spy(a, p, real=real, invert=invert):
            calls.append((p, invert))
            real(a, p)

        monkeypatch.setattr(ntt, name, spy)
    return calls


def _cauchy_schwarz(a, b):
    """isqrt(sum a^2 * sum b^2) in Python ints: no convolution value exceeds it."""
    return math.isqrt(sum(int(x) ** 2 for x in a) * sum(int(x) ** 2 for x in b))


@pytest.mark.parametrize("top_a, primes", [
    (3840, {ntt.P1}),  # bound 3840 * 512 * 1024 = P1 - 1: one prime, no CRT
    (3841, {ntt.P1, ntt.P2}),  # bound P1 + 524287: both primes and CRT
])
def test_exact_convolve_one_prime_bound(monkeypatch, top_a, primes):
    calls = _spy_ntt(monkeypatch)
    rng = np.random.default_rng(top_a)
    n = 1024
    # Cauchy-Schwarz is tight on the constant pair: its middle output is the bound
    inputs = [(np.full(n, top_a), np.full(n, 512))]
    for _ in range(3):
        a, b = rng.integers(0, top_a + 1, n), rng.integers(0, 513, n)
        a[rng.integers(n)], b[rng.integers(n)] = top_a, 512
        inputs.append((a, b))
    for i, (a, b) in enumerate(inputs):
        calls.clear()
        got = exact_convolve(a, b)
        want = np.convolve(a.astype(object), b.astype(object))
        assert got.tolist() == want.tolist()
        if i == 0:
            assert {p for p, _ in calls} == primes
        else:  # the random pairs' Cauchy-Schwarz bound picks one prime, even
            # where top_a = 3841 takes the crude bound past P1
            bound = min(n * top_a * 512, _cauchy_schwarz(a, b))
            assert bound < ntt.P1
            assert {p for p, _ in calls} == {ntt.P1}
    # the constant pair reaches the bound: P1 - 1, or past P1 on the CRT side
    assert max(exact_convolve(*inputs[0]).tolist()) == n * top_a * 512


@pytest.mark.parametrize("p", [ntt.P1, ntt.P2])
def test_inverse_undoes_forward_at_every_size(p):
    rng = np.random.default_rng(p % 1000)
    for k in range(13):
        x = rng.integers(0, p, 1 << k)
        y = x.copy()
        ntt._dif_forward(y, p)
        if k >= 1:  # a length-2^k DFT of e_1 is the powers of the root, bit-reversed
            e1 = np.zeros(1 << k, dtype=np.int64)
            e1[1] = 1
            ntt._dif_forward(e1, p)
            assert sorted(e1.tolist()) == sorted(ntt._pow_array(
                pow(ntt._ROOTS[p], (p - 1) >> k, p), 1 << k, p).tolist())
        ntt._dit_inverse(y, p)
        assert np.array_equal(y, x), k


def test_exact_convolve_matches_literal_convolution_at_odd_lengths(monkeypatch):
    rng = np.random.default_rng(13)
    lengths = [1, 2, 3] + [2**j + d for j in range(2, 11) for d in (-1, 1)]
    calls = _spy_ntt(monkeypatch)
    one_prime_by_cauchy_schwarz = 0
    for n in lengths:
        # edge: min(len) * max^2 near 2 P1 on equal lengths, about three times
        # the Cauchy-Schwarz bound of uniform values
        edge = math.isqrt(2 * ntt.P1 // n)
        for high, m in ((2, rng.choice(lengths)), (1000, rng.choice(lengths)),
                        (2**22, rng.choice(lengths)), (edge, n)):
            a = rng.integers(0, high, n)
            b = rng.integers(0, high, m)
            calls.clear()
            got = exact_convolve(a, b)
            want = np.convolve(a.astype(object), b.astype(object)).tolist()
            assert got.tolist() == want, (n, m, high)
            crude = min(n, m) * int(a.max()) * int(b.max())
            primes = {p for p, _ in calls}
            assert primes == ({ntt.P1} if min(crude, _cauchy_schwarz(a, b)) < ntt.P1
                              else {ntt.P1, ntt.P2})
            one_prime_by_cauchy_schwarz += primes == {ntt.P1} and crude >= ntt.P1
    assert one_prime_by_cauchy_schwarz > 0


def test_exact_convolve_past_int64_square_sums():
    # len * max^2 >= 2^63: sum a^2 is taken in Python ints, so a wrapped
    # int64 sum cannot shrink the bound
    spike = np.zeros(1001, dtype=np.int64)
    spike[[0, 500]] = 2**30
    assert len(spike) * 2**60 >= 2**63
    want = np.convolve(spike.astype(object), spike.astype(object)).tolist()
    assert exact_convolve(spike, spike).tolist() == want  # every value <= 2^61
    flat = np.full(4, 2**31, dtype=np.int64)  # sum a^2 = 2^64 wraps to 0 in int64
    with pytest.raises(ReconstructionOverflow):
        exact_convolve(flat, flat)


def test_exact_convolve_square_takes_one_forward_transform(monkeypatch):
    rng = np.random.default_rng(12)
    for high in (2, 1000, 2**20):  # one-prime and two-prime bounds
        a = rng.integers(0, high, 777)
        for p in (ntt.P1, ntt.P2):
            square = ntt._convolve_mod(a, a, p, 2048)
            assert np.array_equal(square, ntt._convolve_mod(a, a.copy(), p, 2048))
        b = a.copy()
        calls = _spy_ntt(monkeypatch)
        got = exact_convolve(a, b)  # equal contents, distinct arrays
        monkeypatch.undo()
        assert got.tolist() == np.convolve(a.astype(object), b.astype(object)).tolist()
        primes = {p for p, _ in calls}
        assert len(primes) == (1 if 777 * (high - 1) ** 2 < ntt.P1 else 2)
        assert calls.count((ntt.P1, False)) == 1  # forward
        assert len(calls) == 2 * len(primes)  # one forward and one inverse per prime


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


def test_exceptional_scan_refuses_a_table_short_of_N_plus_2():
    # spf[p + 2] for the primes p <= N reads the table up to N + 2
    for limit in (5000, 10**4 + 1):
        with pytest.raises(ValueError, match="N \\+ 2"):
            exceptional_scan(10**4, 2, 3, 0, 0, build_prime_table(limit))


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
    assert np.array_equal(rep.counts[2:], np.convolve(masks[0][1:], masks[1][1:])[: N - 1])


def test_e3star_sequence_matches_pointwise(table):
    from twinsieve.arith import lambda_e3star

    # eps = 0.05 puts primes in [N^(1/3 - eps), N^(1/3)], so both windows fill
    N, eps = 20_000, 0.05
    want = np.array([lambda_e3star(n, N, table, eps=eps) for n in range(N + 1)])
    seq = build_sequence("Lambda_E3star", N, table, eps=eps)
    assert np.array_equal(seq.values, want)
    hit = np.flatnonzero(want)
    assert set(np.round(want[hit] / np.log(hit), 9)) == {0.5, 1.0}


def test_e3star_sequence_matches_pointwise_default_eps(table):
    from twinsieve.arith import lambda_e3star

    N = 100_000
    want = np.array([lambda_e3star(n, N, table) for n in range(N + 1)])
    assert np.count_nonzero(want)
    assert np.array_equal(build_sequence("Lambda_E3star", N, table).values, want)


# (k, z) of each mask; z <= 1 drops the roughness condition and z = 3 is
# the value a clamped N^alpha is raised to
MASKS = {
    "rough": ((2, 5.0), (3, 3.5)),
    "alpha0_finite_k": ((2, 1.0), (3, 1.0)),
    "plain": ((math.inf, 1.0), (math.inf, 1.0)),
    "mixed": ((2, 3.5), (math.inf, 1.0)),
    "clamped": ((2, 3.0), (3, 3.0)),
}


@pytest.mark.parametrize("kind", sorted(MASKS))
def test_class_counts_match_full_convolution(table, kind):
    from twinsieve.convolve import _almost_twin_support, _class_counts

    # every N mod 6, N < 12 included, and two larger N
    for N in [*range(4, 18), 1000, 5000]:
        m1, m2 = (_almost_twin_support(N, k, z, table) for k, z in MASKS[kind])
        counts, trace = _class_counts(m1, m2)
        a, b = m1[1:].astype(np.int64), m2[1:].astype(np.int64)
        # the counts on m = 2..N, the prefix of the full product
        assert counts.shape == (N + 1,) and counts.dtype == np.int32
        assert not counts[:2].any()
        assert np.array_equal(counts[2:], exact_convolve(a, b)[: N - 1]), (kind, N)
        assert np.array_equal(counts[2:], np.convolve(a, b)[: N - 1]), (kind, N)
        assert trace["stride"] == {0: 0, 1: 1, 2: 3}[len(trace["classes"])]
        if kind in ("rough", "clamped"):  # rough past 3 leaves class 5 only
            assert trace["classes"] == ([5] if N >= 5 else [])
        if kind == "plain" and N >= 7:
            assert trace["classes"] == [1, 5]
        if trace["classes"]:
            assert trace["engine"] == "float" and trace["roundoff_bound"] < 0.25


@pytest.mark.parametrize("n", [0, 4, 6, 8, 9, 12])
def test_class_counts_reject_support_off_the_classes(n):
    from twinsieve.convolve import _class_counts

    mask = np.zeros(20, dtype=bool)
    mask[[2, 3, 5, 7]] = True
    _class_counts(mask, mask)
    mask[n] = True
    with pytest.raises(ValueError):
        _class_counts(mask, np.zeros(20, dtype=bool))


def test_scan_hands_over_to_the_ntt_past_the_bound(table, monkeypatch):
    # the observed rounding error is checked against the bound: a bound
    # below any observed error hands the product over to the NTT
    from twinsieve import convolve as conv_mod

    want = exceptional_scan(2000, 2, 3, 1 / 15, 1 / 10, table, sample_count=8)
    assert want.trace["engine"] == "float" and "handover" not in want.trace
    assert 0 <= want.trace["observed_error"] <= want.trace["roundoff_bound"]
    monkeypatch.setattr(conv_mod, "roundoff_bound", lambda a, b: -1.0)
    rep = exceptional_scan(2000, 2, 3, 1 / 15, 1 / 10, table, sample_count=8)
    assert rep.trace["engine"] == "ntt" and rep.trace["handover"] is True
    assert rep.trace["primes"] == 1 and rep.trace["observed_error"] >= 0
    assert np.array_equal(rep.counts, want.counts)
    assert rep.exceptional == want.exceptional and rep.verified


@pytest.mark.parametrize("size", [1, 2, 7, 10, 511, 512])
def test_scan_median_is_np_median_bit_for_bit(size):
    from twinsieve.convolve import _median

    rng = np.random.default_rng(size)
    for x in (rng.random(size), rng.normal(size=size) * 1e3, rng.integers(0, 4, size) / 3):
        assert _median(x) == np.median(x)
        assert np.float64(_median(x)).tobytes() == np.float64(np.median(x)).tobytes()


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
