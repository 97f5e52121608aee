"""Singular series for the shifted binary problem and the exceptional main term.

The series attached to representing m as a sum of two primes p with p+2
sifted is an Euler product whose local factor at p depends on which of
m, m+2, m+4 the prime divides.  Two independent routes are implemented:
the explicit four-case product and the local-density form via sigma(p,m);
they must agree to high precision.

The main-term function M(m) assembles the divisor sums over the odd part
of a synthetic exceptional modulus, with the completed integrals J~, I~
evaluated by direct summation in fixed blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import PrimeTable, _divisors, factorize_extended
from .characters import ExceptionalZeroHypothesis, local_sigma

__all__ = [
    "SingularSeriesValue",
    "MainTermReport",
    "singular_series",
    "singular_series_alt",
    "partial_singular_series",
    "classical_goldbach_series",
    "exceptional_sums",
    "main_term_M",
]


@dataclass(frozen=True)
class SingularSeriesValue:
    value: float
    truncation_prime: int
    tail_bound: float


def _tail_bound(partial: float, cutoff: int) -> float:
    # |log prod_{p>cutoff} (1 - 4/(p-2)^2)| <= 2 * sum 4/(p-2)^2 <= 8/(cutoff-2)
    return abs(partial) * (math.exp(8.0 / (cutoff - 2)) - 1.0)


def _special_primes(m: int, table: PrimeTable) -> set[int]:
    """Odd primes dividing m(m+2)(m+4)."""
    out: set[int] = set()
    for x in (m, m + 2, m + 4):
        if x >= 2:
            for p, _ in factorize_extended(x, table).pairs:
                if p > 2:
                    out.add(p)
    return out


def _check_arguments(m: int, cutoff: int, table: PrimeTable) -> None:
    """The one argument check of the three series: m >= 1, and a cutoff of
    at least 100 (the tail bounds' regime) that ``table`` covers."""
    if m < 1:
        raise ValueError("m must be positive")
    if cutoff < 100:
        raise ValueError("cutoff must be at least 100")
    if cutoff > table.limit:
        raise ValueError(f"cutoff {cutoff} exceeds the prime table limit {table.limit}")


# (factor, cutoff) -> product; every table that covers the cutoff lists the
# same primes up to it, so the table is not part of the key
_GENERIC_PRODUCTS: dict = {}


def _generic_product(factor, cutoff: int, table: PrimeTable) -> float:
    """2 * prod of factor(p) over the odd primes p <= cutoff."""
    key = (factor, cutoff)
    if key not in _GENERIC_PRODUCTS:
        value = 2.0
        for p in table.primes_upto(cutoff):
            if p > 2:
                value *= factor(int(p))
        _GENERIC_PRODUCTS[key] = value
    return _GENERIC_PRODUCTS[key]


def _twin_generic_factor(p: int) -> float:
    return 1.0 - 4.0 / (p - 2) ** 2


def _four_case_factor(p: int, m: int) -> float:
    if m % p == 0 or (m + 4) % p == 0:
        return 1.0 + (p - 4) / (p - 2) ** 2
    if (m + 2) % p == 0:
        return 1.0 + 2.0 / (p - 2)
    return _twin_generic_factor(p)


def singular_series(m: int, cutoff: int, table: PrimeTable) -> SingularSeriesValue:
    """Truncated Euler product for the twin-sifted binary series.

    Odd primes up to ``cutoff`` contribute their four-case factor; primes
    beyond the cutoff dividing m(m+2)(m+4) are folded in exactly via
    factorization, so the tail bound only covers generic factors.  The
    product of the generic factors over p <= cutoff does not depend on m
    and is computed once; only the primes of m(m+2)(m+4) are priced per m.
    """
    _check_arguments(m, cutoff, table)
    if m % 2 != 0:
        return SingularSeriesValue(0.0, cutoff, 0.0)
    value = _generic_product(_twin_generic_factor, cutoff, table)
    for p in sorted(_special_primes(m, table)):
        generic = _twin_generic_factor(p) if p <= cutoff else 1.0
        value *= _four_case_factor(p, m) / generic
    return SingularSeriesValue(value, cutoff, _tail_bound(value, cutoff))


def singular_series_alt(m: int, cutoff: int, table: PrimeTable) -> float:
    """Same series through the local densities: ``partial_singular_series``
    over the primes <= cutoff and the primes > cutoff dividing m(m+2)(m+4)."""
    _check_arguments(m, cutoff, table)
    beyond = np.array([p for p in _special_primes(m, table) if p > cutoff], dtype=np.int64)
    return partial_singular_series(m, np.concatenate((table.primes_upto(cutoff), beyond)))


def partial_singular_series(m: int, primes) -> float:
    """prod over the given primes of (1 + sigma(p,m)/phi2(p)^2), each prime
    once, multiplied in increasing p (one sequential ``np.multiply.reduce``)."""
    p = np.sort(np.asarray(primes if isinstance(primes, np.ndarray) else list(primes), np.int64))
    p = p[np.diff(p, prepend=0) != 0]
    # (p - 2.0)^2 rounds once, as the exact int square does on its way to float
    phi2_sq = np.where(p == 2, 1.0, (p - 2.0) ** 2)
    return float(np.multiply.reduce(1.0 + local_sigma("sigma", p, m) / phi2_sq))


def _goldbach_generic_factor(p: int) -> float:
    return 1.0 - 1.0 / (p - 1) ** 2


def classical_goldbach_series(m: int, cutoff: int, table: PrimeTable) -> SingularSeriesValue:
    """Hardy-Littlewood series for plain Goldbach: 2 C2(cutoff) prod_{p|m, p>2} (p-1)/(p-2)."""
    _check_arguments(m, cutoff, table)
    if m % 2 != 0:
        return SingularSeriesValue(0.0, cutoff, 0.0)
    value = _generic_product(_goldbach_generic_factor, cutoff, table)
    for p, _ in factorize_extended(m, table).pairs:
        if p > 2:
            value *= (p - 1) / (p - 2)
    # generic tail: |log prod (1 - 1/(p-1)^2)| <= 2 sum 1/(p-1)^2 <= 2/(cutoff-1)
    tail = abs(value) * (math.exp(2.0 / (cutoff - 1)) - 1.0)
    return SingularSeriesValue(value, cutoff, tail)


# ---------------------------------------------------------------------------
# exceptional-zero main term


# terms summed per block: the sums hold O(block) memory at any m, and a
# range that fits one block sums exactly as one array does
_SUM_BLOCK = 1 << 16


def exceptional_sums(m: int, N: int, beta: float) -> tuple[float, float]:
    """Completed-integral pair (J~, I~) by direct summation over n1 + n2 = m.

    J~(m) = -sum n1^(beta-1), I~(m) = sum (n1 n2)^(beta-1), both over
    1 <= n_i <= N with n1 + n2 = m, summed in blocks of _SUM_BLOCK terms
    in increasing n1.
    """
    if not 2 <= m <= 2 * N:
        raise ValueError("need 2 <= m <= 2N")
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    lo = max(1, m - N)
    hi = min(N, m - 1)
    j_tilde = i_tilde = 0.0
    for start in range(lo, hi + 1, _SUM_BLOCK):
        n1 = np.arange(start, min(start + _SUM_BLOCK, hi + 1), dtype=float)
        n2 = m - n1
        j_tilde -= float(np.sum(n1 ** (beta - 1.0)))
        i_tilde += float(np.sum((n1 * n2) ** (beta - 1.0)))
    return j_tilde, i_tilde


@dataclass(frozen=True)
class MainTermReport:
    M: float
    E: float
    components: dict = field(default_factory=dict)


def main_term_M(
    m: int,
    N: int,
    P: float,
    hyp: ExceptionalZeroHypothesis | None = None,
    assembly: str = "divisor",
) -> MainTermReport:
    """Main-term function M(m) and error scale E(m).

    Without a hypothesis both are exactly 1.  With a synthetic (r, beta,
    chi) the three L-sums over s <= 3 and odd divisors of the exceptional
    modulus are assembled from the local densities, normalized by
    m * partial series over {2} + odd primes of r; E = (1 - beta) log P.

    ``assembly`` picks the summation order: "divisor" loops the divisor
    sums literally, "grouped" uses the regrouped Euler-product forms.
    The two must agree to 1e-10 relative.
    """
    if hyp is None:
        return MainTermReport(M=1.0, E=1.0, components={"L1_sum": None})
    t = hyp.t
    odd = hyp.odd_primes()
    s_partial = partial_singular_series(m, (2,) + odd)
    if s_partial == 0.0:
        # odd m, or 3 | r and 3 | m: the local factor vanishes and every
        # L-sum vanishes with it, leaving M = 0/0
        raise ValueError("partial singular series vanishes: degenerate input m")
    j_tilde, i_tilde = exceptional_sums(m, N, hyp.beta)
    phi2_r = (2 ** (t - 1) if t else 1) * math.prod(p - 2 for p in odd)
    sig = {p: local_sigma("sigma", p, m) for p in odd}
    sig_p = {p: local_sigma("sigma_prime", p, m, hyp) for p in odd}
    sig_t = {p: local_sigma("sigma_tilde", p, m, hyp) for p in odd}
    sig2 = local_sigma("sigma", 2, m)
    sig_t2 = local_sigma("sigma_tilde", 2, m, hyp)

    if assembly == "divisor":
        L1_sum = 0.0
        L2_sum = 0.0
        L3_sum = 0.0
        for q_tilde in _divisors((p, 1) for p in odd):
            ps = tuple(p for p in odd if q_tilde % p == 0)
            for s in range(4):
                if s <= 1:
                    l1 = 1.0
                    for p in ps:
                        l1 *= sig[p] / (p - 2) ** 2
                    if s == 1:
                        l1 *= sig2
                    L1_sum += l1
                if s == 0 and t == 0:
                    # chi component at r/q' times mu(r/q'), q' = q_tilde
                    co = [p for p in odd if q_tilde % p != 0]
                    sign = (-1) ** len(co)
                    chi_co = 1
                    for p in co:
                        chi_co *= hyp.legendre(-2, p)
                    l2 = 2.0 * chi_co * sign
                    for p in ps:
                        l2 *= sig_p[p]
                    phi2_q = 1
                    for p in ps:
                        phi2_q *= p - 2
                    L2_sum += l2 / (phi2_q * phi2_r)
                if s == t:
                    l3 = sig_t2
                    for p in ps:
                        l3 *= sig_t[p]
                    L3_sum += l3 / phi2_r**2
    elif assembly == "grouped":
        L1_sum = 1.0
        for p in odd:
            L1_sum *= 1.0 + sig[p] / (p - 2) ** 2
        L1_sum *= 1.0 + sig2
        if t == 0:
            L2_sum = 2.0 / phi2_r
            for p in odd:
                L2_sum *= sig_p[p] / (p - 2) - hyp.legendre(-2, p)
        else:
            L2_sum = 0.0
        L3_sum = sig_t2 / (2 ** (t - 1) if t else 1) ** 2
        for p in odd:
            L3_sum *= (1.0 + sig_t[p]) / (p - 2) ** 2
    else:
        raise ValueError(f"unknown assembly {assembly!r}")

    total = m * L1_sum + j_tilde * L2_sum + i_tilde * L3_sum
    M = total / (m * s_partial)
    E = (1.0 - hyp.beta) * math.log(P)
    components = {
        "L1_sum": L1_sum,
        "L2_sum": L2_sum,
        "L3_sum": L3_sum,
        "J_tilde": j_tilde,
        "I_tilde": i_tilde,
        "S_partial": s_partial,
        "bound_terms": {
            "one_minus_m_pow": 1.0 - m ** (hyp.beta - 1.0),
            "prod_21_over_25": math.prod(
                21.0 / 25.0 for p in odd if m % p != 0
            ),
        },
    }
    return MainTermReport(M=M, E=E, components=components)
