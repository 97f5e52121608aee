"""Lemma-by-lemma verification sweeps behind the `verify` CLI subcommand.

Each suite returns a list of check dicts {check, passed, detail}; a suite
passes when every check does.  The sweeps here are the same ones the
acceptance tests pin down, parameterized so smaller smoke runs stay cheap.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from .arith import (
    _divisors,
    _factor_pp,
    build_prime_table,
    heath_brown_terms,
    von_mangoldt,
)
from .characters import (
    ExceptionalZeroHypothesis,
    F_bruteforce_all_m,
    F_bruteforce_grid,
    F_factored_grid,
    _distinct,
    _festi_bound,
    _gauss_formula_rows,
    _phase_sums,
    _restriction_mask,
    _unit_residues,
    _value_rows,
    character_group,
    local_sigma,
    principal_character,
    quadratic_character,
    u_P,
)
from .convolve import build_sequence, convolve, exceptional_scan
from .ntt import exact_convolve, float_convolve
from .progressions import bv_discrepancy, bv_profile, profile_totals, weight_array
from .sievefn import (
    chen_constants,
    chen_constants_monte_carlo,
    chen_margin,
    p3_margin,
    solve_linear_sieve_functions,
)
from .sieves import (
    LocalDensity,
    SieveWeights,
    admissible_pre_sieve,
    apply_sieve_range,
    beta_sieve,
    fundamental_lemma_envelope,
    fundlem_pointwise_check,
    linear_sieve,
    p3_pointwise_check,
    rho_range,
    sie1_identity_check,
    vector_sieve_lower,
)
from .singular import (
    exceptional_sums,
    main_term_M,
    singular_series,
    singular_series_alt,
)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


def _squarefree_upto(n: int) -> list[int]:
    out = []
    for q in range(2, n + 1):
        fac = _factor_pp(q)
        if all(e == 1 for _, e in fac):
            out.append(q)
    return out


# ---------------------------------------------------------------------------
# characters suite


def _feval_sweep(p_max: int = 97) -> dict:
    bad = []
    for p in [int(x) for x in build_prime_table(p_max).primes if x > 2]:
        chi0 = principal_character(p)
        chiq = quadratic_character(p)
        hyp = ExceptionalZeroHypothesis.build(p, 0.5)
        sigma = F_bruteforce_all_m(chi0, chi0, 1, 1)
        sigma_p = F_bruteforce_all_m(chi0, chiq, 1, 1)
        sigma_t = F_bruteforce_all_m(chiq, chiq, 1, 1)
        gcd_p1 = F_bruteforce_all_m(chi0, chi0, p, 1)
        gcd_pp = F_bruteforce_all_m(chi0, chi0, p, p)
        for m in range(p):
            checks = [
                (sigma[m], local_sigma("sigma", p, m)),
                (sigma_p[m], local_sigma("sigma_prime", p, m, hyp)),
                (sigma_t[m], local_sigma("sigma_tilde", p, m, hyp)),
                (gcd_p1[m], (-p + 2) if ((m + 2) % p == 0 or (m + 4) % p == 0) else 2),
                (gcd_pp[m], (p - 1) if (m + 4) % p == 0 else -1),
            ]
            for got, want in checks:
                if abs(round(got.real) - want) > 1e-6 or abs(got - round(got.real)) > 1e-6:
                    bad.append((p, m, got, want))
    return _check(
        "local density closed forms vs literal F (odd p <= 97, all m)",
        not bad,
        f"{len(bad)} mismatches" if bad else "all cases integer-exact",
    )


def _all_j_divisors(q: int) -> list[int]:
    """Divisors of rad(q), ascending."""
    return sorted(_divisors((p, 1) for p, _ in _factor_pp(q)))


def _fmult_sweep(q_max: int = 200) -> dict:
    bad = 0
    total = 0
    for q in _squarefree_upto(q_max):
        fac = _factor_pp(q)
        if len(fac) < 2:
            continue
        pairs = [
            (principal_character(q), principal_character(q)),
            (quadratic_character(q), quadratic_character(q)),
        ]
        js = _all_j_divisors(q)
        # all unitary splits q = q1 * q2 with q1 > 1, q2 > 1 (1 and q come first and last)
        divisors = _divisors(fac)[1:-1]
        m = np.arange(q)
        for chi1, chi2 in pairs:
            whole = F_bruteforce_grid(chi1, chi2, js, js)
            # the literal F of a component pair depends on j only through
            # gcd(j, d) (j >= 1 here): one grid per divisor d, gathered to js
            split = {}
            for d in divisors:
                ds, at = _distinct([math.gcd(j, d) for j in js])
                grid = F_bruteforce_grid(chi1.component(d), chi2.component(d), ds, ds)
                split[d] = grid[..., m % d][at][:, at]
            for d in divisors:
                gap = np.max(np.abs(whole - split[d] * split[q // d]), axis=2)
                total += gap.size * q
                bad += int(np.count_nonzero(gap > 1e-6 * q * q))
    return _check(
        "multiplicativity of F over coprime splits (squarefree q <= 200)",
        bad == 0,
        f"{bad} failing splits of {total} comparisons",
    )


def _fsimple_sweep(q_max: int = 200) -> dict:
    bad = []
    for q in range(4, q_max + 1):
        fac = _factor_pp(q)
        if all(e == 1 for _, e in fac):
            continue
        for chi in (principal_character(q), quadratic_character(q)):
            # conductor exponent at the square prime is deficient for both
            vals = F_bruteforce_all_m(chi, chi, 1, 1)
            if np.max(np.abs(vals)) > 1e-6:
                bad.append(q)
    return _check(
        "F vanishes at square prime powers with deficient conductors (q <= 200)",
        not bad,
        f"violations at q = {bad[:5]}" if bad else "all zero",
    )


def _gauss_formula_sweep(q_max: int = 300) -> dict:
    name = "prime-power Gauss sum formula vs direct summation (q <= 300)"
    worst = 0.0
    arg = None
    for q in range(1, q_max + 1):
        chars = character_group(q)
        direct = _phase_sums(_value_rows(q, chars))
        formula = _gauss_formula_rows(chars)
        devs = np.max(np.abs(formula - direct), axis=1)
        over = np.flatnonzero(devs > 1e-8 * q)
        if over.size:
            return _check(name, False, f"deviation {devs[over[0]]:.2e} at q={q}")
        if devs.max() > worst:
            worst, arg = float(devs.max()), q
    return _check(name, True, f"max |formula - direct| = {worst:.2e} (at q={arg})")


def _festi_sweep(pp_max: int = 125) -> dict:
    moduli = []
    for p in build_prime_table(pp_max).primes.tolist():
        alpha = 1
        while p**alpha <= pp_max:
            moduli.append((p, alpha))
            alpha += 1
    bad = 0
    for p, alpha in moduli:
        q = p**alpha
        chars = character_group(q)
        coprime = _unit_residues(q)[0]
        index = {chi: k for k, chi in enumerate(chars)}
        conj = [index[chi.conjugate()] for chi in chars]
        conj_pair = np.eye(len(chars), dtype=bool)[conj]  # chi1 == conj(chi2)
        # conj c(a, j) for every character, one (phi, q) stack per j: |F| is
        # |sum_a e_q(-am) c1(a) c2(a)|, the modulus of the e_q(am) sum of the
        # conjugate product
        V = _value_rows(q, chars)
        C = {j: np.conj(_phase_sums(np.where(_restriction_mask(q, j), V, 0))) for j in (1, p)}
        # F and the bound are symmetric under (chi1, j1) <-> (chi2, j2): over
        # all pairs, the (p, 1) cell counts what the (1, p) cell does
        for j1, j2, weight in ((1, 1, 1), (1, p, 2), (p, p, 1)):
            F_abs = np.abs(_phase_sums(np.where(coprime, C[j1], 0)[:, None] * C[j2][None]))
            over = F_abs > _festi_bound(p, alpha, j1, j2, False) + 1e-6
            over[conj_pair] = F_abs[conj_pair] > _festi_bound(p, alpha, j1, j2, True) + 1e-6
            bad += weight * int(np.any(over, axis=2).sum())
    return _check(
        "restricted-kernel magnitude bounds at prime powers <= 125",
        not bad,
        f"{bad} violations" if bad else "all pairs within bounds",
    )


def _ffactored_sweep(q_max: int = 200) -> dict:
    bad = 0
    total = 0
    for q in range(2, q_max + 1):
        pairs = [
            (principal_character(q), principal_character(q)),
            (quadratic_character(q), quadratic_character(q)),
            (principal_character(q), quadratic_character(q)),
        ]
        js = _all_j_divisors(q)
        for chi1, chi2 in pairs:
            factored = F_factored_grid(chi1, chi2, js, js)
            literal = F_bruteforce_grid(chi1, chi2, js, js)
            total += literal.size
            bad += int(np.count_nonzero(np.abs(factored - literal) > 1e-6 * q * q))
    return _check(
        "factored kernel equals literal summation (q <= 200, all j pairs)",
        bad == 0,
        f"{bad} of {total} comparisons off",
    )


def _orthogonality_sweep(q_max: int = 200) -> dict:
    for q in range(1, q_max + 1):
        chars = character_group(q)
        sums = _value_rows(q, chars).sum(axis=0)
        want = np.zeros(q, dtype=complex)
        want[1 % q] = len(chars)
        r = np.arange(q)
        want[np.gcd(r, q) != 1] = 0
        if np.max(np.abs(sums - want)) > 1e-9 * len(chars):
            return _check("character orthogonality (q <= 200)", False, f"q={q}")
    return _check("character orthogonality (q <= 200)", True, "")


def _uP_sweep(q_max: int = 100) -> dict:
    bad = []
    for q in range(2, q_max + 1):
        units = _unit_residues(q)[1]
        if abs(u_P(units, 1, q, 3).sum()) > 1e-9:
            bad.append((q, "mean"))
    for q in (7, 12, 20, 36, 100):
        units = _unit_residues(q)[1]
        bad.extend((q, int(n)) for n in units[np.abs(u_P(units, 1, q, q)) > 1e-10])
    return _check(
        "u_P collapses at P >= q and has zero unit mean (q <= 100)",
        not bad,
        str(bad[:3]),
    )


def suite_characters(full: bool = True) -> list[dict]:
    q_gauss = 300 if full else 60
    q_f = 200 if full else 60
    pp = 125 if full else 27
    return [
        _feval_sweep(97 if full else 23),
        _fmult_sweep(q_f),
        _fsimple_sweep(q_f),
        _ffactored_sweep(q_f),
        _gauss_formula_sweep(q_gauss),
        _festi_sweep(pp),
        _orthogonality_sweep(200 if full else 40),
        _uP_sweep(100 if full else 30),
    ]


# ---------------------------------------------------------------------------
# sieves suite


def suite_sieves(full: bool = True) -> list[dict]:
    n_max = 10**5 if full else 10**4
    table = build_prime_table(n_max)  # the sweeps read n <= n_max and primes <= 200
    out = []

    sandwich_ok = True
    detail = []
    for beta in (2.0, 3.0, 750.0):
        z = 30
        primes = [int(p) for p in table.primes_upto(z)]
        D = float(z) ** 3
        rho = rho_range(n_max, 1, z, table)
        up = apply_sieve_range(beta_sieve(beta, D, primes, "upper"), n_max)
        lo = apply_sieve_range(beta_sieve(beta, D, primes, "lower"), n_max)
        ok = bool(np.all(lo[1:] <= rho[1:] + 1e-12) and np.all(rho[1:] <= up[1:] + 1e-12))
        sandwich_ok &= ok
        detail.append(f"beta={beta:g}: {'ok' if ok else 'FAIL'}")
    for P, z, D in [(10, 100, 10**4), (5, 50, 2500.0), (20, 200, 8000.0)]:
        rho = rho_range(n_max, P, z, table)
        up = apply_sieve_range(linear_sieve(D, z, P, "upper", table), n_max)
        lo = apply_sieve_range(linear_sieve(D, z, P, "lower", table), n_max)
        ok = bool(np.all(lo[1:] <= rho[1:] + 1e-12) and np.all(rho[1:] <= up[1:] + 1e-12))
        sandwich_ok &= ok
        detail.append(f"linear({P},{z}): {'ok' if ok else 'FAIL'}")
    out.append(_check("upper/lower sandwiches on n <= 1e5", sandwich_ok, "; ".join(detail)))

    bad = p3_pointwise_check(10**10, 1e-3, 3, n_max, table)
    out.append(
        _check(
            "composed minorant pointwise bound (distinct-prime convention)",
            bad.size == 0,
            f"violations at {bad[:5].tolist()}" if bad.size else "none",
        )
    )
    bad_mult = p3_pointwise_check(10**10, 1e-3, 3, n_max, table, count_multiplicity=True)
    expected = {n for n in (11**4, 13**4, 17**4) if n <= n_max}
    out.append(
        _check(
            "multiplicity convention fails only at documented prime powers",
            set(bad_mult.tolist()) == expected,
            f"violations: {sorted(bad_mult.tolist())}",
        )
    )

    rng = random.Random(101)
    primes_pool = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    sie_ok = True
    for _ in range(500):
        k = rng.randrange(1, 7)
        P_set = sorted(rng.sample(primes_pool, k))
        divs = _divisors((p, 1) for p in P_set)
        coeffs = {d: rng.uniform(-1, 1) for d in divs if rng.random() < 0.7}
        coeffs[1] = coeffs.get(1, 1.0)
        lam = SieveWeights(coeffs, level=max(divs), primes=frozenset(P_set))
        g = LocalDensity({p: rng.uniform(0.05, 0.9) for p in P_set})
        j = e = 1
        for p in P_set:
            r = rng.random()
            if r < 0.3:
                j *= p
            elif r < 0.6:
                e *= p
        sie_ok &= sie1_identity_check(P_set, lam, j, e, g)
    out.append(_check("divisor-sum identity on 500 random draws", sie_ok, ""))

    fund_ok = True
    for beta, s in [(2.0, 5.0), (3.0, 6.0)]:
        z = 10.0
        D = z**s
        primes = [int(p) for p in table.primes_upto(z)]
        for sign in ("upper", "lower"):
            theta = beta_sieve(beta, D, primes, sign)
            bad = fundlem_pointwise_check(theta, 10**4 if full else 2000, z, beta, D)
            fund_ok &= bad.size == 0
    out.append(_check("pointwise envelope sweeps at (beta,s) in {(2,5),(3,6)}", fund_ok, ""))

    rng = random.Random(137)
    vec_ok = True
    for _ in range(10**4):
        A = rng.uniform(0, 5)
        B = rng.uniform(-1, 5)
        A_minus = A - rng.uniform(0, 2)
        A_plus = A + rng.uniform(0, 2)
        B_minus = B - rng.uniform(0, 2)
        B_plus = max(B_minus, 0) + rng.uniform(0, 2) + max(0.0, B - max(B_minus, 0))
        if not (A * B_minus <= A * B and max(B_minus, 0) <= B_plus):
            continue
        if vector_sieve_lower(A, B, A_plus, A_minus, B_plus, B_minus) > A * B + 1e-9:
            vec_ok = False
    out.append(_check("vector-sieve inequality on 1e4 random tuples", vec_ok, ""))

    w = admissible_pre_sieve(3, 3**1000, 3, "upper", table=table)
    ratio, bound, ok = fundamental_lemma_envelope(w, 3, 3**1000)
    out.append(
        _check(
            "fundamental-lemma envelope in the D0 >= P^1000 regime",
            ok,
            f"ratio={ratio:.2e} bound={bound:.2e}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# singular suite


def suite_singular(full: bool = True) -> list[dict]:
    cutoff = 100_000 if full else 10_000
    # m + 4 <= 10^6 + 4 < cutoff^2, which factorize_extended reaches by
    # trial division
    table = build_prime_table(cutoff)
    out = []
    rng = random.Random(211)
    worst = 0.0
    count = 200 if full else 40
    for _ in range(count):
        m = 2 * rng.randrange(1, 500_000)
        a = singular_series(m, cutoff, table).value
        b = singular_series_alt(m, cutoff, table)
        if a == b == 0.0:
            continue
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    out.append(
        _check(
            f"two singular-series routes agree on {count} random even m",
            worst <= 1e-10,
            f"worst relative gap {worst:.2e}",
        )
    )

    low_ok = True
    for _ in range(100 if full else 20):
        m = 6 * rng.randrange(1, 160_000) + 4
        s = singular_series(m, cutoff, table)
        if s.value < 1.0 - s.tail_bound:
            low_ok = False
    out.append(_check("series >= 1 - tail for m = 4 mod 6", low_ok, ""))

    ident_ok = True
    for p in [int(x) for x in table.primes_upto(97) if x > 2]:
        hyp = ExceptionalZeroHypothesis.build(p, 0.9)
        for mult in (1, 2):
            m = p * mult
            lhs = abs(1 + local_sigma("sigma_tilde", p, m, hyp)) / (p - 2) ** 2
            rhs = 1 + local_sigma("sigma", p, m) / (p - 2) ** 2
            if abs(lhs - rhs) > 1e-12:
                ident_ok = False
    out.append(_check("twisted/plain local density identity at p | m", ident_ok, ""))

    rep = main_term_M(10, 10_000, 100)
    out.append(_check("main term (1, 1) without hypothesis", rep.M == 1.0 and rep.E == 1.0, ""))

    agree = True
    for r, beta, m in [(3, 0.99, 10), (15, 0.95, 4), (12, 0.99, 16), (24, 0.97, 16)]:
        hyp = ExceptionalZeroHypothesis.build(r, beta)
        a = main_term_M(m, 10_000, 100, hyp, assembly="divisor").M
        b = main_term_M(m, 10_000, 100, hyp, assembly="grouped").M
        if abs(a - b) > 1e-10 * max(abs(a), abs(b), 1):
            agree = False
    out.append(_check("two main-term assembly orders agree to 1e-10", agree, ""))

    j, i = exceptional_sums(100, 10_000, 1.0)
    out.append(
        _check(
            "degenerate beta = 1 pair sums",
            j == -(100 - 1) and i == 100 - 1,
            f"J~={j}, I~={i}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# sievefn suite


def suite_sievefn(full: bool = True) -> list[dict]:
    h = 5e-4 if full else 1e-3
    fns = solve_linear_sieve_functions(10.0, h)
    out = []
    e_gamma = math.exp(np.euler_gamma)
    out.append(
        _check(
            "F(2) = e^gamma and f(2) = 0 to 1e-6",
            abs(fns.F_at(2.0) - e_gamma) < 1e-6 and fns.f_at(2.0) == 0.0,
            f"F(2)={fns.F_at(2.0):.9f}",
        )
    )
    out.append(
        _check(
            "junction continuity within 10 h",
            fns.junction_error <= 10 * fns.h,
            f"error={fns.junction_error:.2e}, h={fns.h}",
        )
    )
    margin = p3_margin(fns)
    out.append(_check("weighted minorant margin at s=5 positive", margin > 0, f"margin={margin:.6f}"))
    consts = chen_constants(1e-3)
    out.append(
        _check(
            "switching constant identity",
            consts.c_E3star == 0.5 * consts.c_B1 + consts.c_B2,
            f"c_B1={consts.c_B1:.8f}, c_B2={consts.c_B2:.3e}",
        )
    )
    b1, b2, e1, e2 = chen_constants_monte_carlo(1e-3, samples=10**7 if full else 10**6, seed=0)
    mc_ok = abs(b1 - consts.c_B1) <= 3 * e1 and abs(b2 - consts.c_B2) <= 3 * e2
    out.append(
        _check(
            "quadrature vs Monte-Carlo within 3 sigma",
            mc_ok,
            f"|d1|={abs(b1-consts.c_B1):.2e} (3s={3*e1:.2e}), |d2|={abs(b2-consts.c_B2):.2e} (3s={3*e2:.2e})",
        )
    )
    rep = chen_margin(fns, consts, 1e-3)
    out.append(
        _check(
            "switching margins computed (reported, not asserted)",
            True,
            ", ".join(f"{k}={v:.5f}" for k, v in rep.items()),
        )
    )
    return out


# ---------------------------------------------------------------------------
# convolution suite


def suite_convolution(full: bool = True) -> list[dict]:
    N = 1 << 20 if full else 1 << 16
    table = build_prime_table(N + 2)  # also covers n <= 10^4 of the decomposition sweep
    out = []
    rng = np.random.default_rng(5)
    exact_ok = True
    n = 4096
    for _ in range(50 if full else 10):
        a = rng.integers(0, 1000, n)
        b = rng.integers(0, 1000, n)
        # the direct sum in doubles is exact while every product and partial
        # sum of these nonnegative integers is an integer below 2^53; a draw
        # past that bound fails the check, since its oracle is not exact
        bounded = min(len(a), len(b)) * int(a.max()) * int(b.max()) < 2**53
        direct = np.convolve(a.astype(np.float64), b.astype(np.float64))
        if not (np.array_equal(exact_convolve(a, b), direct) and bounded):
            exact_ok = False
    out.append(_check("modular transform vs direct convolution (50 pairs at 4096)", exact_ok, ""))

    seq = build_sequence("Lambda0", 10, table)
    val = convolve(seq, seq, "float").values[10]
    want = 2 * math.log(3) * math.log(7) + math.log(5) ** 2
    out.append(
        _check(
            "weighted prime convolution at m = 10",
            abs(val - want) < 1e-9,
            f"{val:.10f} vs {want:.10f}",
        )
    )

    ind = build_sequence("Lambda0", N, table, indicator=True)
    exact = exact_convolve(ind.values[1:], ind.values[1:])
    flt = float_convolve(ind.values[1:], ind.values[1:])
    dev = float(np.abs(flt - exact).max())
    out.append(_check(f"float vs exact max deviation at N=2^{N.bit_length()-1}", dev <= 1e-3, f"max dev {dev:.2e}"))

    hb_ok = True
    hb_n = 10**4 if full else 10**3
    for J in (2, 3):
        for nn in range(2, hb_n + 1):
            got = heath_brown_terms(nn, J, table)
            want = von_mangoldt(nn, table)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                hb_ok = False
                break
    out.append(_check(f"combinatorial decomposition equals Lambda for n <= {hb_n}, J in 2,3", hb_ok, ""))
    return out


# ---------------------------------------------------------------------------
# scan suite


def suite_scan(full: bool = True) -> list[dict]:
    N = 10**6 if full else 10**4
    table = build_prime_table(N + 2)
    out = []
    rep = exceptional_scan(N, 2, 3, 1 / 15, 1 / 10, table)
    out.append(
        _check(
            f"sieved scan at N={N}: exceptional list re-verified by pair search",
            rep.verified,
            f"{len(rep.exceptional)} exceptional m, clamped={rep.clamped}",
        )
    )
    prev = exceptional_scan(N // 10, 2, 3, 1 / 15, 1 / 10, table)
    prefix_ok = [m for m in rep.exceptional if m <= N // 10] == prev.exceptional
    counts_ok = bool(np.all(rep.counts[2 : N // 10 + 1] >= prev.counts[2 : N // 10 + 1]))
    out.append(
        _check(
            "prefix consistency across N/10 vs N",
            prefix_ok and counts_ok,
            f"prefix={prefix_ok}, monotone={counts_ok}",
        )
    )
    plain = exceptional_scan(N, math.inf, math.inf, 0, 0, table)
    ratios = plain.ratios[np.isfinite(plain.ratios)]
    frac = float(np.mean((ratios >= 0.5) & (ratios <= 2.0))) if ratios.size else 0.0
    out.append(
        _check(
            "plain scan prediction ratios within [0.5, 2] for 95% of samples",
            frac >= 0.95,
            f"fraction={frac:.3f}, fitted constant={plain.fitted_constant:.4f}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# bv suite


def suite_bv(full: bool = True) -> list[dict]:
    out = []
    N = 10**4
    table = build_prime_table(N)  # the full profile's mu at 10^6 reads primes <= 10^3
    loop_ok = True
    worst = 0.0
    wl = weight_array("Lambda", N, table)
    for q in range(2, 51):
        for P in (1, 3, 10):
            for a in (1, q - 1):
                if math.gcd(a, q) != 1:
                    continue
                got = bv_discrepancy(N, q, a, P, "Lambda", table, w=wl)
                u = u_P(np.arange(q), a, q, P)  # 0 off the units
                want = float(np.dot(wl[1:], u[np.arange(1, N + 1) % q]))
                worst = max(worst, abs(got - want))
                if abs(got - want) > 1e-6:
                    loop_ok = False
    out.append(
        _check(
            "residue-sum drive equals the definitional double loop (q <= 50)",
            loop_ok,
            f"worst |gap| = {worst:.2e}",
        )
    )

    zero_ok = abs(bv_discrepancy(N, 1, 1, 1, "mu", table)) == 0.0
    for q in (7, 12, 30):
        zero_ok &= abs(bv_discrepancy(N, q, 1, q, "Lambda", table)) < 1e-6
    out.append(_check("exact zeros at q = 1 and P >= q", zero_ok, ""))

    if full:
        t0 = time.perf_counter()
        rows = bv_profile(10**6, 10**3, [1, 10, 100], "mu", table).rows
        elapsed = time.perf_counter() - t0
        totals = profile_totals(rows)
        vanish = all(
            abs(r["discrepancy"]) < 1e-5 for r in rows if r["P"] >= r["q"]
        )
        out.append(
            _check(
                "profile at N=1e6, Q=1e3 in budget with P >= q rows vanishing",
                vanish and elapsed < 300,
                "totals "
                + ", ".join(f"P={p}: {v:.1f}" for p, v in sorted(totals.items())),
            )
        )
    return out


SUITES = {
    "characters": suite_characters,
    "sieves": suite_sieves,
    "singular": suite_singular,
    "sievefn": suite_sievefn,
    "convolution": suite_convolution,
    "scan": suite_scan,
    "bv": suite_bv,
}


def run_suite(name: str, full: bool = True) -> dict:
    """Run suite ``name`` (or all of them): its checks, whether all passed, and
    a trace of {suite: {ms, checks}} for each suite run."""
    if name == "all":
        runs = [run_suite(key, full) for key in SUITES]
        checks = [c for run in runs for c in run["checks"]]
        trace = {key: value for run in runs for key, value in run["trace"].items()}
        return {"suite": "all", "passed": all(c["passed"] for c in checks), "checks": checks,
                "trace": trace}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    t0 = time.perf_counter()
    checks = SUITES[name](full=full)
    ms = (time.perf_counter() - t0) * 1000
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "trace": {name: {"ms": round(ms, 1), "checks": len(checks)}},
    }
