"""Prime tables, factorization, and the arithmetic weight functions.

Everything downstream (characters, singular series, sieves, convolutions)
consumes the objects built here.  A ``PrimeTable`` is immutable after
construction and safe to share across workers; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "PrimeTable",
    "Factorization",
    "build_prime_table",
    "factorize",
    "factorize_extended",
    "mobius",
    "euler_phi",
    "euler_phi2",
    "tau_k",
    "big_omega",
    "omega_distinct",
    "omega_counts",
    "radical",
    "arith_value",
    "smooth_rough_split",
    "rough_indicator",
    "almost_prime_indicator",
    "V_product",
    "von_mangoldt",
    "lambda0",
    "lambda_almost_twin",
    "lambda_e3star",
    "lambda_weight",
    "heath_brown_terms",
]

#: default cap on the spf table (entries are 32-bit)
DEFAULT_LIMIT_BUDGET = 2**31


class ConfigurationError(ValueError):
    """Raised when a requested table or scan exceeds the configured budget."""


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out


@dataclass(frozen=True)
class PrimeTable:
    """Segmented sieve output: primes up to ``limit`` plus an spf table.

    ``spf[n]`` is the smallest prime factor of n (spf[p] = p for primes),
    enabling O(log n) factorization for 2 <= n <= limit.
    """

    limit: int
    primes: np.ndarray = field(repr=False)
    spf: np.ndarray = field(repr=False)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise ValueError(f"n={n} outside table range [2, {self.limit}]")
        return int(self.spf[n]) == n

    def primes_upto(self, z: float) -> np.ndarray:
        """Primes p <= z as an array (z may be fractional)."""
        idx = np.searchsorted(self.primes, math.floor(z), side="right")
        return self.primes[:idx]

    def primes_in(self, w: float, z: float) -> np.ndarray:
        """Primes with w < p <= z."""
        lo = np.searchsorted(self.primes, math.floor(w), side="right")
        hi = np.searchsorted(self.primes, math.floor(z), side="right")
        return self.primes[lo:hi]


def build_prime_table(limit: int, budget: int = DEFAULT_LIMIT_BUDGET) -> PrimeTable:
    """Sieve smallest prime factors and primes up to ``limit``.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, 2 <= limit <= budget.
    budget : int
        Memory guard; one int32 per integer up to limit.
    """
    if limit < 2 or limit > budget:
        raise ConfigurationError(f"limit={limit} outside [2, {budget}]")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # untouched entries >= 2 are prime
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    primes = np.nonzero(spf == np.arange(limit + 1, dtype=np.int64))[0]
    primes = primes[primes >= 2]
    return PrimeTable(limit=limit, primes=primes, spf=spf)


@lru_cache(maxsize=4)
def _cached_table(limit: int) -> PrimeTable:
    return build_prime_table(limit)


def default_table(limit: int = 1_100_000) -> PrimeTable:
    """Shared table for module-level helpers (cached)."""
    return _cached_table(limit)


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Factor n via the spf table; n = 1 gives the empty factorization."""
    if n < 1 or n > table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    pairs = []
    spf = table.spf
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        pairs.append((p, e))
    return Factorization(tuple(pairs))


def omega_counts(n: np.ndarray, table: PrimeTable, multiplicity: bool = True) -> np.ndarray:
    """Omega(n), or the distinct-prime count omega(n) without ``multiplicity``,
    at every entry of the 1-D integer array ``n`` (0 <= n <= table.limit;
    0 and 1 give 0).  Divides out spf until every entry reaches 1, each
    pass working only on the unfinished entries; the distinct count adds
    1 only on a pass whose spf differs from the one before.
    """
    counts = np.zeros(len(n), dtype=np.int16)
    idx = np.flatnonzero(n > 1)
    rest, last = n[idx].astype(np.int32), np.zeros(len(idx), dtype=np.int32)
    while len(idx):
        p = table.spf[rest]
        rest //= p
        counts[idx] += multiplicity | (p != last)
        keep = rest > 1
        idx, rest, last = idx[keep], rest[keep], p[keep]
    return counts


def factorize_extended(n: int, table: PrimeTable) -> Factorization:
    """Trial division by table primes; valid for n up to table.limit**2."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= table.limit:
        return factorize(n, table)
    if n > table.limit**2:
        raise ValueError(f"n={n} exceeds limit^2; rebuild a larger table")
    pairs = []
    for p in table.primes:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(sorted(pairs)))


@lru_cache(maxsize=None)
def _factor_pp(q: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization (moduli here are small)."""
    pairs = []
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def _radical(q: int) -> int:
    """Product of the distinct primes dividing q."""
    return math.prod(p for p, _ in _factor_pp(q))


def _valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def _primitive_root(p: int, alpha: int) -> int:
    """Smallest primitive root mod p^alpha (odd p)."""
    mod = p**alpha
    phi = (p - 1) * p ** (alpha - 1)
    fac = [f for f, _ in _factor_pp(phi)]
    g = 2
    while True:
        if math.gcd(g, mod) == 1 and all(pow(g, phi // f, mod) != 1 for f in fac):
            return g
        g += 1


def _divisors(pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Divisors of prod p^e over the (p, e) pairs, unsorted.

    Each prime multiplies the divisors found so far, so squarefree inputs
    come out as 1, p1, p2, p1 p2, p3, ...
    """
    divs = [1]
    for p, e in pairs:
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in divs)
        divs.extend(new)
    return divs


# ---------------------------------------------------------------------------
# multiplicative / additive arithmetic functions


def mobius(fac: Factorization) -> int:
    if any(e > 1 for _, e in fac.pairs):
        return 0
    return -1 if len(fac.pairs) % 2 else 1


def euler_phi(fac: Factorization) -> int:
    out = 1
    for p, e in fac.pairs:
        out *= (p - 1) * p ** (e - 1)
    return out


def euler_phi2(fac: Factorization) -> int:
    """Modified totient: p^e(1 - 2/p) at odd p, phi(2^e) at p = 2.

    Counts residues b mod n avoiding two classes per odd prime; at p = 2
    only one class is excluded, so the 2-part falls back to phi.
    """
    out = 1
    for p, e in fac.pairs:
        if p == 2:
            out *= 2 ** (e - 1)
        else:
            out *= (p - 2) * p ** (e - 1)
    return out


def tau_k(fac: Factorization, k: int) -> int:
    """k-fold divisor function: number of ordered k-factorizations."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    for _, e in fac.pairs:
        out *= math.comb(e + k - 1, k - 1)
    return out


def big_omega(fac: Factorization) -> int:
    return sum(e for _, e in fac.pairs)


def omega_distinct(fac: Factorization) -> int:
    return len(fac.pairs)


def radical(fac: Factorization) -> int:
    out = 1
    for p, _ in fac.pairs:
        out *= p
    return out


_KINDS = {"mu", "phi", "phi2", "tau_k", "big_omega", "rad"}


def arith_value(kind: str, n: int, table: PrimeTable | None = None, k: int = 2):
    """Dispatch a named arithmetic function at n (exact integer values)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    table = table or default_table()
    fac = factorize(n, table)
    if kind == "mu":
        return mobius(fac)
    if kind == "phi":
        return euler_phi(fac)
    if kind == "phi2":
        return euler_phi2(fac)
    if kind == "tau_k":
        return tau_k(fac, k)
    if kind == "big_omega":
        return big_omega(fac)
    return radical(fac)


def smooth_rough_split(n: int, P: int, table: PrimeTable) -> tuple[int, int]:
    """Split n = n_smooth * n_rough at threshold P.

    Every prime of n_smooth is <= P, every prime of n_rough is > P.
    """
    if n < 1 or P < 2:
        raise ValueError("need n >= 1 and P >= 2")
    smooth = 1
    for p, e in factorize(n, table).pairs:
        if p <= P:
            smooth *= p**e
    return smooth, n // smooth


def rough_indicator(n: int, w: float, z: float, table: PrimeTable) -> int:
    """1 iff n has no prime factor p with w < p <= z (rho(n, w, z))."""
    if w > z:
        raise ValueError(f"need w <= z, got w={w}, z={z}")
    for p, _ in factorize(n, table).pairs:
        if w < p <= z:
            return 0
    return 1


def almost_prime_indicator(
    n: int, k: int, table: PrimeTable, count_multiplicity: bool = True
) -> int:
    """1 iff n has at most k prime factors.

    ``count_multiplicity`` selects between Omega(n) <= k (default, Chen's
    convention) and the distinct-prime count omega(n) <= k.  Both
    conventions appear in the literature and they genuinely differ on
    prime powers; see almost-prime notes in the sieve module.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    fac = factorize(n, table)
    count = big_omega(fac) if count_multiplicity else omega_distinct(fac)
    return 1 if count <= k else 0


def V_product(primes: Iterable[int]) -> float:
    """prod over the set of (1 - 1/(p-1)); empty product is 1.

    p = 2 makes the factor vanish, so the value is 0 (not an error): the
    sieve density 1/(p-1) saturates the single residue class mod 2.
    """
    out = 1.0
    for p in primes:
        out *= 1.0 - 1.0 / (p - 1)
    return out


# ---------------------------------------------------------------------------
# log-type weights


def von_mangoldt(n: int, table: PrimeTable) -> float:
    """log p if n = p^k, else 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    fac = factorize(n, table)
    if len(fac.pairs) == 1:
        return math.log(fac.pairs[0][0])
    return 0.0


def lambda0(n: int, table: PrimeTable) -> float:
    """log n on primes, 0 elsewhere (prime powers dropped)."""
    if n < 2:
        return 0.0
    return math.log(n) if table.is_prime(n) else 0.0


def lambda_almost_twin(
    n: int,
    k: int,
    N: int,
    table: PrimeTable,
    alpha: float | None = None,
) -> float:
    """Prime-supported weight log(n) * [n+2 has <= k factors] * [n+2 rough].

    Roughness cutoff is N^alpha with the standard exponents alpha_2 = 1/15,
    alpha_3 = 1/10 when ``alpha`` is not supplied.  Supported on primes only
    (prime powers contribute negligibly to the binary convolutions and are
    excluded so scan counts match direct pair searches).
    """
    if n > N:
        raise ValueError(f"n={n} exceeds N={N}")
    if alpha is None:
        if k not in (2, 3):
            raise ValueError("alpha required for k outside {2, 3}")
        alpha = 1.0 / 15.0 if k == 2 else 1.0 / 10.0
    if n < 2 or not table.is_prime(n):
        return 0.0
    z = N**alpha
    if not almost_prime_indicator(n + 2, k, table):
        return 0.0
    if alpha > 0 and not rough_indicator(n + 2, 1, z, table):
        return 0.0
    return math.log(n)


def _e3star_class(n: int, N: int, eps: float, table: PrimeTable) -> int:
    """0 if n is in neither Chen-switching window, else 1 or 2.

    Membership requires n = p1*p2*p3 with every factor >= N^(1/10) and
    (p1, p2) in the declared window; p3 is the cofactor.  Boundary
    inequalities are taken exactly as the windows are written (strict
    where strict).
    """
    fac = factorize(n, table)
    if big_omega(fac) != 3:
        return 0
    factors = []
    for p, e in fac.pairs:
        factors.extend([p] * e)
    t10 = N ** (1.0 / 10.0)
    t13 = N ** (1.0 / 3.0 - eps)
    if any(p < t10 for p in factors):
        return 0
    # choose the cofactor p3, pair the remaining two in increasing order
    for i in range(3):
        p3 = factors[i]
        rest = sorted(factors[:i] + factors[i + 1 :])
        p1, p2 = rest
        if p3 < t10:
            continue
        if t10 <= p1 < t13 < p2 <= math.sqrt(N / p1):
            return 1
        if t13 <= p1 <= p2 <= math.sqrt(N / p1):
            return 2
    return 0


def lambda_e3star(n: int, N: int, table: PrimeTable, eps: float = 1e-3) -> float:
    """Chen-switching weight: (1/2) log n on the B1 window, log n on B2."""
    if n > N:
        raise ValueError(f"n={n} exceeds N={N}")
    if n < 2:
        return 0.0
    cls = _e3star_class(n, N, eps, table)
    if cls == 1:
        return 0.5 * math.log(n)
    if cls == 2:
        return math.log(n)
    return 0.0


def lambda_weight(
    kind: str,
    n: int,
    N: int,
    table: PrimeTable | None = None,
    k: int | None = None,
    alpha: float | None = None,
    eps: float = 1e-3,
) -> float:
    """Dispatch the log-type weights by name.

    kind in {"vonMangoldt", "Lambda0", "Lambda_k", "Lambda_E3star"}.
    """
    if n > N:
        raise ValueError(f"n={n} exceeds N={N}")
    table = table or default_table()
    if kind == "vonMangoldt":
        return von_mangoldt(n, table)
    if kind == "Lambda0":
        return lambda0(n, table)
    if kind == "Lambda_k":
        if k is None:
            raise ValueError("Lambda_k needs k")
        return lambda_almost_twin(n, k, N, table, alpha=alpha)
    if kind == "Lambda_E3star":
        return lambda_e3star(n, N, table, eps=eps)
    raise ValueError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# Heath-Brown decomposition


def heath_brown_terms(n: int, J: int, table: PrimeTable | None = None) -> float:
    """Evaluate the J-fold combinatorial decomposition of Lambda at n.

    Computes -sum_{1<=j<=J} (-1)^j C(J,j) sum over n = n_1...n_{2j} with
    n_i < n^(1/J) for i > j of log(n_1) mu(n_{j+1})...mu(n_{2j}).  The
    result must equal Lambda(n); the Mobius-restricted variables are
    folded by Dirichlet convolution over the divisor lattice of n.

    Every term is an integer combination of log p over p | n, so the
    bookkeeping runs on exact integer coefficient vectors and only the
    final assembly touches floats (no cancellation noise).
    """
    if not 1 <= J <= 7:
        raise ValueError("J must be in [1, 7]")
    table = table or default_table()
    if n < 2 or n > table.limit:
        raise ValueError(f"n={n} outside [2, {table.limit}]")
    primes = list(factorize(n, table).primes)
    npr = len(primes)
    divs = sorted(_divisors(factorize(n, table).pairs))
    idx = {d: i for i, d in enumerate(divs)}
    nd = len(divs)
    # d < n^(1/J) decided exactly as d^J < n to avoid float boundary slips
    mu_cut = np.array(
        [mobius(factorize(d, table)) if d**J < n else 0 for d in divs],
        dtype=np.int64,
    )
    # log d as the exponent vector of d over the primes of n
    logvec = np.zeros((nd, npr), dtype=np.int64)
    for i, d in enumerate(divs):
        for t, (p, e) in enumerate(factorize(d, table).pairs):
            logvec[i, primes.index(p)] = e

    def dconv_scalar(a, b):
        out = np.zeros(nd, dtype=np.int64)
        for i, d in enumerate(divs):
            if a[i] == 0:
                continue
            for jj, e in enumerate(divs):
                if b[jj] == 0:
                    continue
                pos = idx.get(d * e)
                if pos is not None:
                    out[pos] += a[i] * b[jj]
        return out

    def dconv_vec_by_ones(A):
        # convolve a vector-valued array with the all-ones scalar array
        out = np.zeros_like(A)
        for i, d in enumerate(divs):
            if not A[i].any():
                continue
            for jj, e in enumerate(divs):
                pos = idx.get(d * e)
                if pos is not None:
                    out[pos] += A[i]
        return out

    total_vec = np.zeros(npr, dtype=np.int64)
    m_conv = None  # j-fold convolution of restricted mu (integer)
    l_conv = None  # j-fold convolution of (log, 1, 1, ...) as coefficient rows
    for j in range(1, J + 1):
        m_conv = mu_cut if m_conv is None else dconv_scalar(m_conv, mu_cut)
        l_conv = logvec.copy() if l_conv is None else dconv_vec_by_ones(l_conv)
        inner = np.zeros(npr, dtype=np.int64)
        for i, d in enumerate(divs):
            if m_conv[i]:
                inner += m_conv[i] * l_conv[idx[n // d]]
        total_vec -= (-1) ** j * math.comb(J, j) * inner
    return float(sum(int(c) * math.log(p) for c, p in zip(total_vec, primes)))
