"""Prime tables, factorization, and the arithmetic weight functions.

Everything downstream (characters, singular series, sieves, convolutions)
consumes the objects built here.  A ``PrimeTable`` is built by the caller
that reads it, sized by what it reads, and passed down; no module builds
or caches one of its own.  All functions are pure.
"""

from __future__ import annotations

import itertools
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
    "tau_k",
    "big_omega",
    "omega_distinct",
    "omega_counts",
    "rough_indicator",
    "almost_prime_indicator",
    "von_mangoldt",
    "lambda0",
    "lambda_almost_twin",
    "lambda_e3star",
    "heath_brown_terms",
]

#: the largest limit an spf table can hold (entries are 32-bit)
TABLE_LIMIT_MAX = 2**31


class ConfigurationError(ValueError):
    """Raised when a requested table or run is outside what can be built."""


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
    """The primes up to ``limit`` and the smallest-prime-factor table.

    ``spf[n]`` is the smallest prime factor of n (spf[p] = p for primes),
    enabling O(log n) factorization for 2 <= n <= limit.  Asking for
    primes past ``limit`` is an error, not a short answer.
    """

    limit: int
    primes: np.ndarray = field(repr=False)
    spf: np.ndarray = field(repr=False)

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise ValueError(f"n={n} outside table range [2, {self.limit}]")
        return int(self.spf[n]) == n

    def primes_upto(self, z: float) -> np.ndarray:
        """Primes p <= z as an array (z may be fractional, at most limit)."""
        return self.primes_in(0, z)

    def primes_in(self, w: float, z: float) -> np.ndarray:
        """Primes with w < p <= z (z at most limit)."""
        if z > self.limit:
            raise ValueError(f"primes up to {z} asked of a table to {self.limit}")
        lo = np.searchsorted(self.primes, math.floor(w), side="right")
        hi = np.searchsorted(self.primes, math.floor(z), side="right")
        return self.primes[lo:hi]


def _table_bytes(limit: int) -> int:
    """Bytes a PrimeTable to ``limit`` holds: spf at 4 B per entry and the
    primes at 8 B each (at most 1.26 L / ln L of them below L, by Rosser and
    Schoenfeld)."""
    return 4 * (limit + 1) + 8 * math.ceil(1.26 * limit / math.log(limit))


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve smallest prime factors and primes up to ``limit``, inclusive,
    2 <= limit <= 2^31 (the int32 format); one int32 per integer.  Callers
    that must stay within memory check the 4 B per entry beforehand."""
    if limit < 2 or limit > TABLE_LIMIT_MAX:
        raise ConfigurationError(f"limit={limit} outside [2, {TABLE_LIMIT_MAX}]")
    spf = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)  # primality up to sqrt(limit)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    # a composite n has spf(n)^2 <= n, so it is written by its spf; in
    # descending order the smallest prime writes last and no write is masked
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p :: p] = p
    # untouched entries >= 2 are prime
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    return PrimeTable(limit=limit, primes=rest, spf=spf)


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


# at most 9 distinct primes below 2^32: 0.8 kB an entry, 3.3 MiB in all
@lru_cache(maxsize=4096)
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


# one int per (p, alpha): 0.4 kB an entry with the key, 0.35 MiB in all
@lru_cache(maxsize=1024)
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


def rough_indicator(n: int, w: float, z: float, table: PrimeTable) -> int:
    """1 iff n has no prime factor p with w < p <= z (rho(n, w, z))."""
    if w > z:
        raise ValueError(f"need w <= z, got w={w}, z={z}")
    for p, _ in factorize(n, table).pairs:
        if w < p <= z:
            return 0
    return 1


def almost_prime_indicator(n: int, k: int, table: PrimeTable) -> int:
    """1 iff Omega(n) <= k (prime factors counted with multiplicity, Chen's convention)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return 1 if big_omega(factorize(n, table)) <= k else 0


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


# ---------------------------------------------------------------------------
# Heath-Brown decomposition


def heath_brown_terms(n: int, J: int, table: PrimeTable) -> float:
    """Evaluate the J-fold combinatorial decomposition of Lambda at n.

    Computes -sum_{1<=j<=J} (-1)^j C(J,j) sum over n = n_1...n_{2j} with
    n_i < n^(1/J) for i > j of log(n_1) mu(n_{j+1})...mu(n_{2j}).  The
    result must equal Lambda(n).  Every term is an integer combination of
    log p over p | n; the integer coefficients depend only on the exponent
    shape of n, the cut below and J, so ``_hb_coefficients`` computes them
    once per key and only the final assembly touches floats (no
    cancellation noise).
    """
    if not 1 <= J <= 7:
        raise ValueError("J must be in [1, 7]")
    if n < 2 or n > table.limit:
        raise ValueError(f"n={n} outside [2, {table.limit}]")
    pairs = factorize(n, table).pairs
    # restricted mu lives on the squarefree corner {0, 1}^k; d < n^(1/J) is
    # decided exactly as d^J < n to avoid float boundary slips.  With the
    # primes fed last first, the squarefree divisors come out in
    # itertools.product order over the corners.
    cut = tuple([d**J < n for d in _divisors([(p, 1) for p, _ in reversed(pairs)])])
    coeffs = _hb_coefficients(tuple([e + 1 for _, e in pairs]), cut, J)
    return float(sum([c * math.log(p) for c, (p, _) in zip(coeffs, pairs)]))


# a key's cut holds 2^k flags, k <= 9 below TABLE_LIMIT_MAX: at most 4.6 kB
# an entry, 4.5 MiB in all; 0.7 MiB while n <= 10^4 (k <= 5)
@lru_cache(maxsize=1024)
def _hb_coefficients(shape: tuple[int, ...], cut: tuple[bool, ...], J: int) -> tuple[int, ...]:
    """Integer coefficients of log p_1, ..., log p_k in heath_brown_terms.

    The divisors d of n = p_1^(e_1) ... p_k^(e_k) are the cells of the
    exponent grid ``shape`` = (e_1+1, ..., e_k+1), held flat in C order in
    a block padded by one cell along each axis, and r = (r_1, ..., r_k) are
    the exponents of n / d.  The j-fold Dirichlet convolution of the
    restricted mu is built by shifting along the squarefree corners kept
    by ``cut`` (in ``itertools.product`` order): a shift from a cell of the
    grid lands inside the padded block, so it needs no bounds test, and
    the padding is never read.  The j-fold convolution log * 1 * ... * 1
    is log(m) tau_j(m) / j at m = n / d, so its coefficient of log p_i is
    r_i tau_j(m) / j, an integer (it is C(r_i + j - 1, j) times the other
    primes' C(r + j - 1, j - 1)).  All of it is Python integers, so
    nothing can overflow.
    """
    k = len(shape)
    strides = [math.prod(m + 1 for m in shape[i + 1 :]) for i in range(k)]
    corners = [
        ((-1) ** sum(a), sum(s for s, ai in zip(strides, a) if ai))
        for a, keep in zip(itertools.product((0, 1), repeat=k), cut)
        if keep
    ]
    cells = [0]  # the flat index of every cell of the grid, in C order
    for m, s in zip(shape, strides):
        cells = [c + x * s for c in cells for x in range(m)]
    rests = list(itertools.product(*[range(m - 1, -1, -1) for m in shape]))
    m_conv = [0] * (strides[0] * (shape[0] + 1))  # j-fold convolution of restricted mu
    m_conv[0] = 1
    total = [0] * k
    for j in range(1, J + 1):
        shifted = [0] * len(m_conv)
        for c in cells:
            v = m_conv[c]
            if v:
                for sign, offset in corners:
                    shifted[c + offset] += sign * v
        m_conv = shifted
        binom = [math.comb(r + j - 1, j - 1) for r in range(max(shape))]
        acc = [0] * k  # j x the pairing of m_conv with log * 1 * ... * 1
        for c, rest in zip(cells, rests):
            v = m_conv[c]
            if v:
                v_tau = v * math.prod([binom[r] for r in rest])
                for i, r in enumerate(rest):
                    acc[i] += v_tau * r
        weight = (-1) ** j * math.comb(J, j)
        for i in range(k):
            total[i] -= weight * (acc[i] // j)  # every term of acc[i] is a multiple of j
    return tuple(total)
