import math
import random
import tracemalloc

import numpy as np
import pytest

from twinsieve.arith import build_prime_table
from twinsieve.characters import ExceptionalZeroHypothesis, local_sigma
from twinsieve.singular import (
    _SUM_BLOCK,
    _special_primes,
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


# singular_series_alt(m, cutoff, table) as float.hex at the 100 seeded
# m = 4 mod 6 of test_alt_series_bits_are_pinned (m = 0 or 2 mod 6 vanish at
# p = 3): the product of 1 + sigma(p, m)/phi2(p)^2 taken one prime at a time,
# left to right in increasing p, each factor from the case table of sigma
_ALT_SERIES_HEX = {
    10_000: (
        "0x1.b3de2c467757bp+2", "0x1.22bb1c3daf454p+3", "0x1.882bcfc270db2p+1",
        "0x1.8a598c404c100p+1", "0x1.4527c25944d23p+2", "0x1.a2118a000e0b2p+2",
        "0x1.b4b8dcc5407f0p+1", "0x1.3d7418b8a0c3fp+2", "0x1.326b73aee0f86p+1",
        "0x1.c3bd026d8f19dp+1", "0x1.346a8b66a3073p+1", "0x1.977eecdb130a0p+2",
        "0x1.d28b58f538857p+1", "0x1.14dfe1bc5bdefp+4", "0x1.11b71e3832406p+2",
        "0x1.12511ff7f6720p+2", "0x1.a0da8dce5d48ep+2", "0x1.78af86ea51256p+1",
        "0x1.9693a42c56ce0p+2", "0x1.3e2f034f47f43p+3", "0x1.05e6ac6ce581ep+3",
        "0x1.ae37c3568383ap+1", "0x1.4c1b8ba2e3e3ep+2", "0x1.5631eb15e7ecdp+2",
        "0x1.da33593d304fap+2", "0x1.666996bec1f3cp+2", "0x1.980340ee6dcb7p+1",
        "0x1.4937b33765e14p+1", "0x1.cde9ef8ffd728p+2", "0x1.06e22e15af028p+3",
        "0x1.3f3241cbf2882p+1", "0x1.bce61edefa470p+2", "0x1.36515846f9c71p+3",
        "0x1.30842ac26dbb4p+2", "0x1.30c47a8d96a34p+3", "0x1.9f058e4b86964p+3",
        "0x1.307109539d85cp+2", "0x1.61ca3595d7d22p+2", "0x1.67eb9482cf80bp+1",
        "0x1.1e81147c5fe45p+3", "0x1.96ad20207c997p+1", "0x1.39f4207d850bcp+2",
        "0x1.4774055df7933p+1", "0x1.d997eef921b7cp+2", "0x1.3384de3d9b139p+2",
        "0x1.4caf2107bb3c2p+3", "0x1.05f24155d3dd8p+3", "0x1.cce213f06f02fp+2",
        "0x1.f1f48c4285899p+1", "0x1.7d285aac816cdp+1", "0x1.26ccd703a2493p+3",
        "0x1.b5ca5237cd602p+1", "0x1.4682d5c3b9e27p+1", "0x1.b34a8473ae07ep+2",
        "0x1.a893d32676a3dp+1", "0x1.522f2083f37a3p+1", "0x1.48a02181a3a4dp+2",
        "0x1.8e9033206eec4p+1", "0x1.8c6ab619c8485p+2", "0x1.5ae97afedd735p+2",
        "0x1.b3421578cd033p+2", "0x1.43a240915353cp+3", "0x1.30d508806d7aap+1",
        "0x1.801811f4c611ep+2", "0x1.1eb93a7b76546p+2", "0x1.199c6e0a52a48p+2",
        "0x1.9e4749fd92a75p+2", "0x1.9675b306d394fp+1", "0x1.7c249e698f778p+1",
        "0x1.b302c549e1769p+1", "0x1.b5f7419e069e1p+2", "0x1.278557190a621p+2",
        "0x1.02ecfb073fde2p+2", "0x1.6185456b4ef2bp+3", "0x1.2162d81051934p+3",
        "0x1.6b9e51d0c2f3ep+1", "0x1.20209fd123cf7p+3", "0x1.ec1ded85e7b13p+2",
        "0x1.74cf1ea818a6dp+1", "0x1.35d0b5c4f226fp+1", "0x1.36bb01d236f10p+3",
        "0x1.557dbc760c2f4p+2", "0x1.37123042d1921p+3", "0x1.fe6d506215c73p+2",
        "0x1.a84621e14cba8p+2", "0x1.20f583d8b1ac2p+3", "0x1.4c3919b43f46fp+1",
        "0x1.a1f5b2d2380b9p+2", "0x1.3a9d261ccda4fp+2", "0x1.606007a345f22p+2",
        "0x1.f1bd1e3673194p+1", "0x1.1be1938c011f6p+3", "0x1.d36355a6f2205p+2",
        "0x1.30d9df22c8c4dp+2", "0x1.35b973ceba7b6p+1", "0x1.cbbbf24ced466p+2",
        "0x1.f2b181de3a40bp+1", "0x1.06b9711fecd79p+2", "0x1.22c453b248ac8p+3",
        "0x1.30e062e1ca3d9p+2",
    ),
    100_000: (
        "0x1.b3da2658a0d18p+2", "0x1.22b86d39ac92dp+3", "0x1.8828316bf5564p+1",
        "0x1.8a55e876fb0cep+1", "0x1.4524c1ea03fa4p+2", "0x1.a20dadf94c57fp+2",
        "0x1.b4b4d4a8ea6c0p+1", "0x1.3d712a7abf85ap+2", "0x1.32689f848418fp+1",
        "0x1.c3b8d6e0c5f7dp+1", "0x1.3467b2c77048bp+1", "0x1.977b2a0d14801p+2",
        "0x1.d2870a5e3691ap+1", "0x1.14dd536512bcfp+4", "0x1.11b4975845939p+2",
        "0x1.124e97ac126bbp+2", "0x1.a0d6b4a6900e4p+2", "0x1.78ac0cb8434afp+1",
        "0x1.968fe38c53dffp+2", "0x1.3e2c1357a8d37p+3", "0x1.05e441a106998p+3",
        "0x1.ae33caa77f60dp+1", "0x1.4c187aca9676cp+2", "0x1.562ec25f3a6e2p+2",
        "0x1.da2ef89955f0ap+2", "0x1.666647b462f10p+2", "0x1.97ff7cfb97498p+1",
        "0x1.4934a940f7511p+1", "0x1.cde5abea7af1bp+2", "0x1.06dfc0cf13c6dp+3",
        "0x1.3f2f4f766e860p+1", "0x1.bce203963f3fbp+2", "0x1.364e7ae647c5cp+3",
        "0x1.30815bd3b339ap+2", "0x1.30c1aa4ad7e11p+3", "0x1.9f01b9868988ap+3",
        "0x1.306e39d611ff8p+2", "0x1.61c6f1782ac5cp+2", "0x1.67e841e838b57p+1",
        "0x1.1e7e6f630e514p+3", "0x1.96a95f1cd419bp+1", "0x1.39f13aa17ecb2p+2",
        "0x1.4770ff806c9b0p+1", "0x1.d9938fb952f5cp+2", "0x1.338208b595a68p+2",
        "0x1.4cac0ecb38826p+3", "0x1.05efd68062a93p+3", "0x1.ccddd2ba80a2dp+2",
        "0x1.f1eff4a749c94p+1", "0x1.7d24d5e11f513p+1", "0x1.26ca1ec6542bep+3",
        "0x1.b5c6486bec015p+1", "0x1.467fd2ab30658p+1", "0x1.b3467fb921927p+2",
        "0x1.a88fe7bdc0e2cp+1", "0x1.522c0147e6d42p+1", "0x1.489d190594d0cp+2",
        "0x1.8e8c85327f079p+1", "0x1.8c670da497125p+2", "0x1.5ae64722574c3p+2",
        "0x1.b33e10dce114ep+2", "0x1.439f43b851652p+3", "0x1.30d2382100fddp+1",
        "0x1.8014865ca3826p+2", "0x1.1eb69529735f7p+2", "0x1.1999d4816854bp+2",
        "0x1.9e4376ebd1e6ap+2", "0x1.9671f2a63f8c7p+1", "0x1.7c211c0da9600p+1",
        "0x1.b2fec14991178p+1", "0x1.b5f337a4c6297p+2", "0x1.27829cb095222p+2",
        "0x1.02ea971b26518p+2", "0x1.618201f08e062p+3", "0x1.21602c276ef6ap+3",
        "0x1.6b9af678bb4afp+1", "0x1.201df6e1c2ad2p+3", "0x1.ec19627f48d6dp+2",
        "0x1.74cbadaa3a849p+1", "0x1.35cdd9f377a3bp+1", "0x1.36b82377ce6dap+3",
        "0x1.557a956d44d4bp+2", "0x1.370f5151e6d15p+3", "0x1.fe689a15b5365p+2",
        "0x1.a842373331eefp+2", "0x1.20f2d8f22ff49p+3", "0x1.4c3608bb98149p+1",
        "0x1.a1f1d70d42165p+2", "0x1.3a9a3e94ed7e6p+2", "0x1.605cc6dd8a5d5p+2",
        "0x1.f1b88603b4867p+1", "0x1.1bdef4ae8824fp+3", "0x1.d35f053d8d71fp+2",
        "0x1.30d70f39fee53p+2", "0x1.35b697e70bfa7p+1", "0x1.cbb7b3ce1eb4fp+2",
        "0x1.f2ace76f2e837p+1", "0x1.06b70439987e2p+2", "0x1.22c1a4860218ep+3",
        "0x1.30dd935463862p+2",
    ),
}


def test_alt_series_bits_are_pinned(table):
    rng = random.Random(30)
    ms = [6 * rng.randrange(0, 166_666) + 4 for _ in range(100)]
    for cutoff, want in _ALT_SERIES_HEX.items():
        # some m carry a special prime past the cutoff into the product
        assert any(p > cutoff for m in ms for p in _special_primes(m, table))
        got = tuple(singular_series_alt(m, cutoff, table).hex() for m in ms)
        assert got == want, cutoff


def _four_case_sigma(p: int, m: int) -> float:
    """The plain local density by its case table, one prime at a time."""
    if p == 2:
        return 1.0 if m % 2 == 0 else -1.0
    if m % p == 0 or (m + 4) % p == 0:
        return float(p - 4)
    if (m + 2) % p == 0:
        return float(2 * p - 4)
    return -4.0


def test_array_plain_sigma_equals_the_scalar_one(table):
    primes = table.primes_upto(10**4)
    rng = random.Random(31)
    ms = [1, 2, 3, 4, 7, 8, 9_999_999_967, 2 * 3 * 5 * 7 * 11 * 13 * 17 - 2]
    ms += [rng.randrange(1, 10**12) for _ in range(12)]
    for m in ms:
        got = local_sigma("sigma", primes, m)
        assert got.dtype == np.float64 and got.shape == primes.shape
        scalar = [local_sigma("sigma", int(p), m) for p in primes]
        assert all(type(v) is float for v in scalar[:3])
        oracle = [_four_case_sigma(int(p), m) for p in primes]
        assert got.tolist() == scalar == oracle, m


def test_multiply_reduce_is_sequential():
    # partial_singular_series multiplies its factors in increasing p with
    # np.multiply.reduce; its bits equal the left-to-right product only if the
    # reduce is sequential, which numpy does not document
    rng = np.random.default_rng(32)
    for n in (1, 2, 7, 16, 129, 1229, 9592):
        factors = 1.0 + rng.standard_normal(n) / 64
        value = 1.0
        for f in factors.tolist():
            value *= f
        assert float(np.multiply.reduce(factors)).hex() == value.hex(), n


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
