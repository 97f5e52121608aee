import itertools
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from twinsieve.arith import (
    _divisors, _factor_pp, build_prime_table, factorize, mobius, von_mangoldt,
)
from twinsieve.characters import _value_table, primitive_characters, u_P
from twinsieve.progressions import (
    _conductor_plan,
    _discrepancies,
    _residue_sum_table,
    _residue_sums,
    bv_discrepancy,
    bv_profile,
    profile_totals,
    weight_array,
)
from twinsieve.verify import suite_bv


@pytest.fixture(scope="module")
def table():
    return build_prime_table(1_100_000)


def test_weight_arrays(table):
    w = weight_array("Lambda", 1000, table)
    for n in range(1, 1001):
        assert w[n] == pytest.approx(von_mangoldt(n, table), abs=1e-12)
    mu = weight_array("mu", 1000, table)
    for n in range(1, 1001):
        assert mu[n] == mobius(factorize(n, table))
    with pytest.raises(ValueError):
        weight_array("tau", 10, table)


@pytest.mark.parametrize("weight", ["mu", "Lambda"])
def test_residue_sums_match_definition(table, weight):
    w = weight_array(weight, 1000, table)
    for q in (1, 2, 7, 30, len(w) - 1, len(w), len(w) + 5):
        want = [0] * q
        for n, x in enumerate(w.tolist()):
            want[n % q] += x
        got = _residue_sums(w, q)
        assert got.shape == (q,)
        if weight == "mu":
            assert np.issubdtype(got.dtype, np.integer)
            assert got.tolist() == want
        elif q == 1:
            # one contiguous column: numpy sums it pairwise, not in n order
            assert got[0] == pytest.approx(want[0], rel=len(w) * np.finfo(float).eps)
        else:
            assert got.tolist() == want
            oracle = np.bincount(np.arange(len(w)) % q, weights=w, minlength=q)
            assert np.array_equal(got, oracle)


def test_bv_discrepancy_definitional(table):
    # against the literal sum of w(n) u_P(n), u_P evaluated at every n
    N = 2000
    for weight in ("Lambda", "mu"):
        w = weight_array(weight, N, table)
        for q in (3, 4, 7, 12, 15):
            for P in (1, 2, 5):
                for a in (1, q - 1):
                    if math.gcd(a, q) != 1:
                        continue
                    got = bv_discrepancy(N, q, a, P, weight, table)
                    want = float(np.dot(w[1:], u_P(np.arange(1, N + 1), a, q, P)))
                    assert got == pytest.approx(want, abs=1e-6), (weight, q, P, a)


def test_bv_discrepancy_zero_cases(table):
    for q in (3, 7, 12):
        for a in (1, q - 1):
            if math.gcd(a, q) != 1:
                continue
            assert bv_discrepancy(10**4, q, a, q, "Lambda", table) == pytest.approx(
                0.0, abs=1e-6
            )
    assert bv_discrepancy(10**4, 1, 1, 1, "mu", table) == 0.0


def test_bv_classical_P1(table):
    # P = 1 reproduces psi(N; q, a) - psi(N)/phi(q)
    N = 10**4
    w = weight_array("Lambda", N, table)
    for q, a in [(3, 1), (5, 2), (8, 3)]:
        got = bv_discrepancy(N, q, a, 1, "Lambda", table)
        phi = sum(1 for r in range(q) if math.gcd(r, q) == 1)
        coprime_total = sum(w[n] for n in range(1, N + 1) if math.gcd(n, q) == 1)
        want = w[a::q].sum() - coprime_total / phi
        assert got == pytest.approx(want, abs=1e-6)


def test_bv_residue_sum_collapse(table):
    # summing the discrepancy over a full coprime system collapses exactly:
    # sum_a u_P picks out the principal-character complement
    N = 5000
    for weight in ("Lambda", "mu"):
        w = weight_array(weight, N, table)
        for q, P in [(12, 3), (9, 2), (10, 5)]:
            total = sum(
                bv_discrepancy(N, q, a, P, weight, table)
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1
            )
            # sum over a of u_P(n abar) = 1_{(n,q)=1} (principal cond 1 <= P
            # always included) minus ... = 0 whenever principal included
            assert total == pytest.approx(0.0, abs=1e-6), (weight, q, P)


def test_bv_profile(table):
    rows = bv_profile(10**4, 20, [1, 5, 30], "mu", table).rows
    totals = profile_totals(rows)
    # P >= q rows vanish
    for row in rows:
        if row["P"] >= row["q"]:
            assert row["discrepancy"] == pytest.approx(0.0, abs=1e-8)
    assert totals[30] == pytest.approx(0.0, abs=1e-6)
    # P = 1 column reproduces the classical discrepancy sum
    w = weight_array("mu", 10**4, table)
    classical = 0.0
    for q in range(2, 21):
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        phi = len(units)
        coprime_total = sum(w[n] for n in range(1, 10**4 + 1) if math.gcd(n, q) == 1)
        best = max(
            abs(w[a::q].sum() - coprime_total / phi)
            for a in units
        )
        classical += best
    assert totals[1] == pytest.approx(classical, rel=1e-9)


def test_bv_profile_rows_match_bv_discrepancy(table):
    # every row, intermediate P included, is the max over units a of
    # |bv_discrepancy(q, a)|
    N = 5000
    for weight in ("mu", "Lambda"):
        w = weight_array(weight, N, table)
        for row in bv_profile(N, 30, [2, 5], weight, table).rows:
            q, P = row["q"], row["P"]
            discs = {
                a: bv_discrepancy(N, q, a, P, weight, table, w=w)
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1
            }
            best = max(abs(d) for d in discs.values())
            assert abs(row["discrepancy"]) == pytest.approx(best, abs=1e-9), row
            if best > 1e-6:  # on vanishing rows the argmax is rounding noise
                assert row["discrepancy"] == pytest.approx(discs[row["a_max"]], abs=1e-9)


def test_mu_sieve_matches_factorization(table):
    mu = weight_array("mu", 10**5, table)
    assert mu.dtype == np.int8
    assert mu[0] == 0
    assert mu[1:].tolist() == [mobius(factorize(n, table)) for n in range(1, 10**5 + 1)]
    for N in range(5):
        assert weight_array("mu", N, table).tolist() == mu[: N + 1].tolist(), N


def test_mu_reads_only_the_primes_up_to_isqrt_N(table):
    # Lambda reads the primes <= N, mu only those <= isqrt(N)
    N = 10**5
    want = weight_array("mu", N, table)
    assert np.array_equal(weight_array("mu", N, build_prime_table(316)), want)
    for weight, limit in (("mu", 315), ("Lambda", N - 1)):
        with pytest.raises(ValueError, match="prime table must cover"):
            weight_array(weight, N, build_prime_table(limit))
    with pytest.raises(ValueError, match="int32"):  # refused before any allocation
        weight_array("mu", 2**31, build_prime_table(math.isqrt(2**31)))


@pytest.mark.parametrize("weight", ["mu", "Lambda"])
@pytest.mark.parametrize("N", [1, 2, 3, 10, 97, 1000, 5000])
def test_residue_sum_table_matches_residue_sums(table, weight, N):
    # Q = N and N // 2 include moduli with q(q+1) > len(w), which are not paired
    w = weight_array(weight, N, table)
    for Q in sorted({1, 2, 3, N // 2, N}):
        got = list(_residue_sum_table(w, Q))
        assert sorted(q for q, _ in got) == list(range(2, Q + 1)), Q
        if weight == "Lambda":  # the per-q route, in increasing q
            assert [q for q, _ in got] == list(range(2, Q + 1)), Q
        for q, R in got:
            assert R.dtype == (np.int32 if weight == "mu" else w.dtype)
            assert np.array_equal(R, _residue_sums(w, q)), (Q, q)


@pytest.mark.parametrize("scale,rows", [(1, 127), (1, 32767), (3, 127 // 3), (3, 32767 // 3)])
def test_residue_sum_table_is_exact_at_the_narrow_dtype_edges(scale, rows):
    # a constant w makes each column sum scale x its row count, so a sum
    # dtype one row too narrow wraps; at Q = 6 the passes are M = 20 and 6,
    # and len(w) / M lands just below, at and just above each edge
    rng = np.random.default_rng(rows)
    Q = 6
    seen = Counter()
    for M in (20, 6):
        for n in (rows * M - 1, rows * M, rows * M + 1):
            signs = rng.integers(-1, 2, n).astype(np.int8)
            for w in (np.full(n, scale, np.int8), np.full(n, -scale, np.int8), scale * signs):
                dtypes = Counter()
                got = dict(_residue_sum_table(w, Q, dtypes))
                seen.update(dtypes)
                assert sorted(got) == list(range(2, Q + 1))
                for q in range(1, Q + 1):
                    want = np.bincount(np.arange(n) % q, weights=w, minlength=q).astype(np.int64)
                    assert np.array_equal(_residue_sums(w, q), want), (M, n, q)
                    if q > 1:
                        assert got[q].dtype == np.int32
                        assert np.array_equal(got[q], want), (M, n, q)
                # 2 passes, 3 folds to q in (3, 6], 2 to q <= 3
                assert sum(dtypes.values()) == 2 + 3 + 2
    # both dtypes beside the edge ran
    assert ({"int8", "int16"} if rows == 127 // scale else {"int16", "int32"}) <= set(seen)


@pytest.mark.parametrize("weight", ["mu", "Lambda"])
def test_bv_profile_rows_match_a_per_q_drive(table, weight):
    N, Q, P_list = 10**5, 300, [1, 10, 100]
    w = weight_array(weight, N, table)
    want = [{"P": P, "q": 1, "a_max": 1, "discrepancy": 0.0} for P in P_list]
    for q in range(2, Q + 1):
        units = np.nonzero(np.gcd(np.arange(q), q) == 1)[0]
        conductors = _conductor_plan(q, P_list[-1])[q]
        # the kernel's columns are the units mod q, in increasing order
        for P, disc in zip(P_list, _discrepancies(_residue_sums(w, q), q, P_list, conductors)[0]):
            assert disc.shape == units.shape, q
            best = np.argmax(np.abs(disc))
            want.append(
                {"P": P, "q": q, "a_max": int(units[best]), "discrepancy": float(disc[best])})
    assert bv_profile(N, Q, P_list, weight, table).rows == want


def _discrepancies_per_character(R, q, P_list):
    """The kernel as one numpy round trip per character: the oracle that the
    blocked _discrepancies must equal bit for bit."""
    r = np.arange(q)
    coprime = np.gcd(r, q) == 1
    phi = int(np.count_nonzero(coprime))
    corr = np.zeros(q, dtype=complex)
    R_complex = R.astype(complex)
    conductors = iter(sorted(_divisors(_factor_pp(q))))
    f = next(conductors)
    rows = []
    for P in P_list:
        while f is not None and f <= P:
            rf = r % f
            for chi_star in primitive_characters(f):
                induced = np.where(coprime, _value_table(chi_star)[rf], 0)
                corr += np.conj(induced) * np.dot(induced, R_complex)
            f = next(conductors, None)
        if np.any(np.abs(corr.imag) >= 1e-6 * (np.abs(corr.real) + 1)):
            raise ValueError(f"character correction mod {q} is not real")
        rows.append(np.where(coprime, R - corr.real / phi, 0.0))
    return np.array(rows)


@pytest.mark.parametrize("weight", ["mu", "Lambda"])
def test_discrepancies_equal_the_per_character_loop_bit_for_bit(table, weight):
    # compared as bits: array_equal passes -0.0 as 0.0, which bv.csv prints as -0;
    # the kernel keeps the unit columns only, where the oracle's others are 0
    w = weight_array(weight, 10**5, table)
    plan = _conductor_plan(300, 300)
    for q, R in _residue_sum_table(w, 300):
        P_list = sorted({1, 10, 100, q})
        got, summed = _discrepancies(R, q, P_list, plan[q])
        want = _discrepancies_per_character(R, q, P_list)
        units = np.gcd(np.arange(q), q) == 1
        assert not np.any(want[:, ~units]), q
        want = want[:, units]
        assert got.shape == want.shape and got.dtype == want.dtype, q
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), q
        assert summed == sum(len(primitive_characters(f)) for f in _divisors(_factor_pp(q)))


def test_conductor_plan_lists_the_divisors_with_primitive_characters():
    for Q, F in ((1, 1), (12, 5), (60, 60), (100, 10), (30, 2.5)):
        plan = _conductor_plan(Q, F)
        assert len(plan) == Q + 1 and plan[0] == []
        for q in range(1, Q + 1):
            want = [(f, len(primitive_characters(f))) for f in sorted(_divisors(_factor_pp(q)))
                    if f <= F and primitive_characters(f)]
            assert plan[q] == want, (Q, F, q)


def test_bv_profile_rows_equal_the_bench_reference_sign_included(table):
    # the bv-mu workload's rows as bv.csv prints them (%.12g), so a tie whose
    # sign or zero sign flips fails here before the benchmark's check sees it
    path = Path(__file__).resolve().parents[1] / "bench" / "reference" / "bv-mu.json"
    ref = json.loads(path.read_text())
    rows = bv_profile(10**6, 500, [1, 10, 100], "mu", table).rows
    assert len(rows) == len(ref["rows"])
    for row, (P, q, disc) in zip(rows, ref["rows"]):
        assert (row["P"], row["q"]) == (P, q)
        assert "%.12g" % row["discrepancy"] == "%.12g" % disc, (P, q)


def test_bv_profile_trace_counts_its_work(table):
    # mu's 5 passes run in int8 (bound 38 at M = 132, the most rows), and its
    # 19 folds in int16 (bound 2660 at most, 380 / 20 x 20 / 2 rows times 14);
    # Lambda sums every q in float64
    for weight, passes, dtypes in (("mu", 5, {"int8": 5, "int16": 19}),
                                   ("Lambda", 19, {"float64": 19})):
        trace = bv_profile(5000, 20, [1, 3], weight, table).trace
        assert trace["kernel"] == "characters" and trace["moduli"] == 20
        assert trace["residue_sum_passes"] == passes  # q in (10, 20] in pairs, or every q
        assert trace["weight_dtype"] == {"mu": "int8", "Lambda": "float64"}[weight]
        assert trace["residue_sum_dtypes"] == dtypes
        # characters of conductor <= 3 mod q <= 20: the principal one, and
        # the one mod 3 for each of the six multiples of 3
        assert trace["characters_summed"] == 19 + 6
        assert trace["table_limit"] == table.limit
        for stage in ("weights_ms", "residue_sums_ms", "corrections_ms"):
            assert trace[stage] >= 0


def test_full_bv_suite_checks_do_not_hold_the_wall_clock(monkeypatch):
    # verify's results are compared byte for byte; a timing in a check's
    # detail would make two runs of the same tree differ.  The profile reads
    # the clock about 2000 times, so its elapsed spans run to about 0.2 s
    # and 100 s, both inside the 300 s budget
    runs = []
    for span in (1e-4, 0.05):
        ticks = itertools.count(0.0, span)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        runs.append(suite_bv(full=True))
    assert runs[0] == runs[1]
    assert all(c["passed"] for c in runs[0])
