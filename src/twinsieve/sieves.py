"""Combinatorial sieve weight systems and their identities.

The central construction is the beta sieve: Mobius weights on descending
prime products p1 > p2 > ... > pr, truncated by the depth condition
p1...ph * ph^beta < D checked at odd depths (upper bound) or even depths
(lower bound).  The linear sieve is the beta = 2 case on a prime interval,
and the pre-sieve composes a beta sieve with an exact Mobius sieve on the
primes of an exceptional modulus.

Everything is desk-scale: weight maps are sparse dicts, applications over
ranges of n are vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .arith import PrimeTable, _divisors, factorize, omega_counts, tau_k

__all__ = [
    "SieveWeights",
    "LocalDensity",
    "beta_sieve",
    "linear_sieve",
    "admissible_pre_sieve",
    "apply_sieve",
    "apply_sieve_range",
    "curly_V",
    "fundamental_lemma_envelope",
    "p3_minorant_eval",
    "p3_minorant_range",
    "p3_pointwise_check",
    "vector_sieve_lower",
    "sie1_identity_check",
    "fundlem_pointwise_bound",
    "rho_range",
]


@dataclass(frozen=True)
class SieveWeights:
    """Sparse divisor weights d -> lambda_d with declared level and range."""

    coefficients: Mapping[int, float]
    level: float
    primes: frozenset[int]
    sign: str = "generic"


@dataclass(frozen=True)
class LocalDensity:
    """Multiplicative density g on squarefree support, with h = g/(1-g)."""

    g_on_primes: Mapping[int, float]

    def g(self, d: int) -> float:
        out = 1.0
        for p, gp in self.g_on_primes.items():
            if d % p == 0:
                out *= gp
        return out

    def h(self, d: int) -> float:
        out = 1.0
        for p, gp in self.g_on_primes.items():
            if d % p == 0:
                out *= gp / (1.0 - gp)
        return out

    @classmethod
    def totient(cls, primes: Iterable[int]) -> "LocalDensity":
        return cls({int(p): 1.0 / (p - 1) for p in primes})


def beta_sieve(
    beta: float, D: float, primes: Iterable[int], sign: str
) -> SieveWeights:
    """Combinatorial beta sieve of level D on the given prime set.

    Support: d = p1...pr with p1 > ... > pr, subject to
    p1...ph * ph^beta < D at every depth h <= r of the checked parity
    (odd for the upper sieve, even for the lower); lambda_d = mu(d).
    The empty prime set degenerates to the identity sieve {1: 1}.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if sign not in ("upper", "lower"):
        raise ValueError("sign must be 'upper' or 'lower'")
    plist = sorted({int(p) for p in primes}, reverse=True)
    logD = math.log(D) if D > 0 else -math.inf
    parity = 1 if sign == "upper" else 0  # depth h mod 2 that gets checked
    coeffs: dict[int, float] = {1: 1.0}

    # The depth conditions alone force d < D whenever D >= max prime
    # (the regime actually used); a hard d <= D cutoff would break the
    # lower-bound sandwich when D is degenerate, so the declared level
    # is widened to the actual support instead.
    def rec(start: int, prod: int, logprod: float, depth: int, mu: float):
        for i in range(start, len(plist)):
            p = plist[i]
            lp = math.log(p)
            h = depth + 1
            if h % 2 == parity and logprod + lp + beta * lp >= logD:
                continue
            d = prod * p
            coeffs[d] = mu * -1.0
            rec(i + 1, d, logprod + lp, h, -mu)

    rec(0, 1, 0.0, 0, 1.0)
    top = max(coeffs)
    return SieveWeights(
        coefficients=coeffs,
        level=D if D >= top else top,  # D may be a big int (e.g. P^1000)
        primes=frozenset(plist),
        sign=sign,
    )


def linear_sieve(D: float, z: float, P: float, sign: str, table: PrimeTable) -> SieveWeights:
    """Rosser-Iwaniec linear sieve (beta = 2) on the primes in (P, z]."""
    if not D > z > P >= 2:
        raise ValueError("need D > z > P >= 2")
    primes = [int(p) for p in table.primes_in(P, z)]
    return beta_sieve(2.0, D, primes, sign)


def admissible_pre_sieve(
    P: int,
    D0: float,
    r_tilde: int,
    sign: str,
    table: PrimeTable,
    beta: float = 750.0,
) -> SieveWeights:
    """Beta sieve on the odd primes <= P away from r_tilde, times exact
    Mobius on the odd primes dividing r_tilde."""
    p_dag = [int(p) for p in table.primes_in(2, P) if r_tilde % int(p) != 0]
    p_til = sorted(
        {int(p) for p in table.primes_upto(r_tilde) if r_tilde % int(p) == 0 and p > 2}
    )
    base = beta_sieve(beta, D0, p_dag, sign)
    coeffs: dict[int, float] = {}
    mobius_divs = [(1, 1.0)]
    for p in p_til:
        mobius_divs += [(d * p, -lam) for d, lam in mobius_divs]
    prod_til = 1
    for p in p_til:
        prod_til *= p
    for d0, lam0 in base.coefficients.items():
        for dt, lamt in mobius_divs:
            coeffs[d0 * dt] = lam0 * lamt
    return SieveWeights(
        coefficients=coeffs,
        level=D0 * prod_til,
        primes=frozenset(p_dag) | frozenset(p_til),
        sign=sign,
    )


def apply_sieve(w: SieveWeights, n: int) -> float:
    """omega(n) = sum of lambda_d over divisors d | n in the support."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(lam for d, lam in w.coefficients.items() if n % d == 0)


def apply_sieve_range(w: SieveWeights, N: int) -> np.ndarray:
    """omega(n) for n = 0..N as an array (index 0 unused, set to 0)."""
    out = np.zeros(N + 1)
    for d, lam in w.coefficients.items():
        if d <= N:
            out[d::d] += lam
    out[0] = 0.0
    return out


def rho_range(N: int, w: float, z: float, table: PrimeTable) -> np.ndarray:
    """rho(n, w, z) for n = 0..N: 1 iff no prime factor in (w, z]."""
    out = np.ones(N + 1, dtype=np.int8)
    for p in table.primes_in(w, z):
        out[int(p):: int(p)] = 0
    out[0] = 1
    return out


def curly_V(w: SieveWeights, g: LocalDensity | None = None) -> float:
    """Main-term functional sum of lambda_d * g(d) (default g = 1/phi)."""
    if g is None:
        g = LocalDensity.totient(w.primes)
    return sum(lam * g.g(d) for d, lam in w.coefficients.items())


def fundamental_lemma_envelope(
    w: SieveWeights, P: int, D0: float
) -> tuple[float, float, bool]:
    """Relative error of curly_V against the range product, with its envelope.

    Returns (ratio, bound, pass) where ratio = curly_V/V - 1 and
    bound = 100 exp(-log D0 / log P).  The envelope constant presumes
    D0 >= P^1000; outside that regime callers should treat the result
    as a report, not an assertion.
    """
    V = 1.0
    for p in sorted(w.primes):
        V *= 1.0 - 1.0 / (p - 1)
    if V == 0.0:
        raise ValueError("sieve range contains p = 2: density degenerates")
    ratio = curly_V(w) / V - 1.0
    bound = 100.0 * math.exp(-math.log(D0) / math.log(P))
    # 1e-12 absorbs float roundoff of the two product evaluations
    return ratio, bound, abs(ratio) <= bound + 1e-12


# ---------------------------------------------------------------------------
# the P3 minorant of composed linear sieves


def _dyadic_blocks(z: float, y: float):
    K = z
    while K < y:
        yield K, min(2 * K, y)
        K *= 2


@dataclass(frozen=True)
class _P3Pieces:
    lower: SieveWeights
    uppers: tuple[tuple[float, float, SieveWeights], ...]  # (K, K_hi, weights)
    z: float
    y: float


def _p3_pieces(N: int, eps: float, P: int, table: PrimeTable) -> _P3Pieces:
    z = N ** (1.0 / 10.0)
    y = N ** (1.0 / 3.0 - eps)
    D = N ** (0.5 - eps)
    lower = linear_sieve(D, z, P, "lower", table)
    uppers = []
    for K, K_hi in _dyadic_blocks(z, y):
        DK = N ** (0.5 - math.log(K) / math.log(N) - eps)
        uppers.append((K, K_hi, linear_sieve(DK, z, P, "upper", table)))
    return _P3Pieces(lower=lower, uppers=tuple(uppers), z=z, y=y)


def p3_minorant_eval(
    n: int, N: int, eps: float, P: int, table: PrimeTable
) -> float:
    """Pointwise value of the composed minorant for rough P3 numbers.

    Lower linear sieve at level N^(1/2-eps) minus half the dyadic sum over
    prime blocks [K, min(y, 2K)) of 1_{p | n} times an upper linear sieve
    at the level reduced by K.
    """
    pieces = _p3_pieces(N, eps, P, table)
    val = apply_sieve(pieces.lower, n)
    for K, K_hi, wplus in pieces.uppers:
        hit = sum(
            1 for p in table.primes_in(K - 1e-9, K_hi - 1e-9) if n % int(p) == 0
        )
        if hit:
            val -= 0.5 * hit * apply_sieve(wplus, n)
    return val


def p3_minorant_range(
    N: int, eps: float, P: int, n_max: int, table: PrimeTable
) -> np.ndarray:
    """p3_minorant_eval for every n <= n_max, vectorized."""
    pieces = _p3_pieces(N, eps, P, table)
    vals = apply_sieve_range(pieces.lower, n_max)
    for K, K_hi, wplus in pieces.uppers:
        plus = apply_sieve_range(wplus, n_max)
        hits = np.zeros(n_max + 1)
        for p in table.primes_upto(K_hi - 1e-12):
            p = int(p)
            if p >= K:
                hits[p::p] += 1.0
        vals -= 0.5 * hits * plus
    return vals


def p3_pointwise_check(
    N: int,
    eps: float,
    P: int,
    n_max: int,
    table: PrimeTable,
    count_multiplicity: bool = False,
) -> np.ndarray:
    """Indices n <= n_max violating minorant * rho(n,P) <= rho(n,z) 1_{P3}(n).

    The inequality is pointwise in n with z, y scaled from N.  Under the
    distinct-prime reading of "at most 3 prime factors" it provably holds
    everywhere; with multiplicity counting it fails exactly at high prime
    powers p^4, p^5, ... with p in [z, y) (e.g. n = 11^4 at N = 10^10), so
    the default here is the distinct convention.
    """
    z = N ** (1.0 / 10.0)
    vals = p3_minorant_range(N, eps, P, n_max, table)
    rho_P = rho_range(n_max, 1, P, table).astype(float)
    rho_z = rho_range(n_max, 1, z, table).astype(float)
    in_p3 = (omega_counts(np.arange(n_max + 1), table, count_multiplicity) <= 3).astype(float)
    lhs = vals * rho_P
    rhs = rho_z * in_p3
    bad = np.nonzero(lhs[1:] > rhs[1:] + 1e-9)[0] + 1
    return bad


def vector_sieve_lower(A, B, A_plus, A_minus, B_plus, B_minus) -> float:
    """Two-factor lower bound A+B- + (A- - A+)B+ <= AB.

    Preconditions (checked): A*B- <= A*B, max(B-, 0) <= B+, A- <= A <= A+.
    """
    if not (A * B_minus <= A * B + 1e-12):
        raise ValueError("need A B- <= A B")
    if not (max(B_minus, 0.0) <= B_plus + 1e-12):
        raise ValueError("need max(B-, 0) <= B+")
    if not (A_minus <= A + 1e-12 and A <= A_plus + 1e-12):
        raise ValueError("need A- <= A <= A+")
    return A_plus * B_minus + (A_minus - A_plus) * B_plus


# ---------------------------------------------------------------------------
# sieve identities


def sie1_identity_check(
    P_set: Iterable[int],
    lam: SieveWeights,
    j: int,
    e: int,
    g: LocalDensity,
    rel_tol: float = 1e-10,
) -> bool:
    """Both sides of the divisor-sum identity translating lambda to theta.

    LHS: g(e) sum over c | j, d | P/(ej) of lambda(cde) g(d).
    RHS: V (h(j)/g(j)) mu(e) h(e) sum over b | P/j of theta(jb) h(b)
         mu((b,e)) / h((b,e)),
    with V = prod (1 - g(p)) and theta(n) = sum_{d|n} lambda_d.

    Equality is judged relative to the larger of the two values and the
    summand magnitudes: the RHS cancels catastrophically when the true
    value is tiny, so a purely relative test would reject roundoff noise.
    """
    P_list = sorted({int(p) for p in P_set})
    prodP = 1
    for p in P_list:
        prodP *= p
    if prodP % j != 0 or prodP % e != 0 or math.gcd(j, e) != 1:
        raise ValueError("need j | P, e | P, (j, e) = 1")
    lhs = 0.0
    lhs_mag = 0.0
    over = prodP // e // j  # e, j coprime divisors of squarefree P
    for c in _divisors((p, 1) for p in P_list if j % p == 0):
        for d in _divisors((p, 1) for p in P_list if over % p == 0):
            term = lam.coefficients.get(c * d * e, 0.0) * g.g(d)
            lhs += term
            lhs_mag += abs(term)
    lhs *= g.g(e)
    lhs_mag *= g.g(e)

    V = 1.0
    for p in P_list:
        V *= 1.0 - g.g_on_primes.get(p, 0.0)
    mu_e = (-1) ** sum(1 for p in P_list if e % p == 0)
    rhs = 0.0
    rhs_mag = 0.0
    for b in _divisors((p, 1) for p in P_list if (prodP // j) % p == 0):
        theta_jb = apply_sieve(lam, j * b)
        gb = math.gcd(b, e)
        mu_gb = (-1) ** sum(1 for p in P_list if gb % p == 0)
        term = theta_jb * g.h(b) * mu_gb / g.h(gb)
        rhs += term
        rhs_mag += abs(term)
    prefactor = V * (g.h(j) / g.g(j)) * mu_e * g.h(e)
    rhs *= prefactor
    rhs_mag *= abs(prefactor)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    conditioning = lhs_mag + rhs_mag
    return abs(lhs - rhs) <= rel_tol * scale + 1e-13 * conditioning


def fundlem_pointwise_bound(
    theta: SieveWeights,
    n: int,
    z: float,
    beta: float,
    D: float,
    table: PrimeTable,
) -> bool:
    """Pointwise envelope for a beta sieve against the rough indicator.

    |theta(n) - rho(n, z)| <= tau(n)^2 sum_{r > (s-beta-1)/2} 2^-r
    rho(n, z_r), with z_r = z^(((beta-1)/(beta+1))^r) and s = log D/log z.
    Primes outside the sieve range do not count toward roughness.
    """
    s = math.log(D) / math.log(z)
    if s <= beta + 1:
        raise ValueError("need s = log D / log z > beta + 1")
    range_primes = theta.primes
    fac = [p for p in range_primes if n % p == 0]
    theta_n = apply_sieve(theta, n)
    indicator = 0.0 if any(p <= z for p in fac) else 1.0
    lhs = abs(theta_n - indicator)
    # tau(n)^2 over all of n, not only the sieve range
    tau_sq = tau_k(factorize(n, table), 2) ** 2
    ratio = (beta - 1.0) / (beta + 1.0)
    r0 = math.floor((s - beta - 1.0) / 2.0) + 1
    r0 = max(r0, 1)
    total = 0.0
    r = r0
    min_range_prime = min(range_primes) if range_primes else None
    while True:
        z_r = z ** (ratio**r)
        if min_range_prime is None or z_r < min_range_prime:
            total += 2.0 ** (-r + 1)  # geometric tail, indicator is 1 from here
            break
        rough = 0.0 if any(p <= z_r for p in fac) else 1.0
        total += 2.0 ** (-r) * rough
        r += 1
        if r > r0 + 200:
            break
    rhs = tau_sq * total
    return lhs <= rhs + 1e-12
