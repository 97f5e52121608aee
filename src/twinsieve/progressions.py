"""Distribution of Lambda and mu in progressions with low-conductor corrections.

The discrepancy of interest replaces the classical single-main-term
approximation by the full expansion over characters of conductor <= P:
summing w(n) against the corrected indicator u_P(n a^-1; q).  Exactness
matters here - the imprimitive parts are computed by restricting to n
coprime to q via per-modulus residue sums, never by bounding.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import PrimeTable, _divisors, _factor_pp
from .characters import _value_table, primitive_characters

__all__ = [
    "weight_array",
    "bv_discrepancy",
    "bv_profile",
    "profile_totals",
]


def weight_array(weight: str, N: int, table: PrimeTable) -> np.ndarray:
    """Dense w(n) for n = 0..N, w in {Lambda, mu}.

    Lambda is float64.  mu is int32, and so are its sums in ``_residue_sums``:
    a sum of mu over any n <= N is at most the count of squarefree n <= N
    in size, below 2^31 for every N a prime table within
    ``arith.TABLE_LIMIT_MAX`` (2^31) covers, so they are exact.
    """
    if table.limit < N:
        raise ValueError("prime table must cover N")
    if weight == "Lambda":
        out = np.zeros(N + 1)
        for p in table.primes_upto(N):
            p = int(p)
            logp = math.log(p)
            pk = p
            while pk <= N:
                out[pk] = logp
                pk *= p
        return out
    if weight == "mu":
        # Sieve by the primes p <= sqrt(N) only, dividing each p^k out of
        # rest; what is left of n > 1 is then 1 or its one prime factor > sqrt(N).
        mu = np.ones(N + 1, dtype=np.int32)
        mu[0] = 0
        rest = np.arange(N + 1, dtype=np.int32)
        for p in table.primes_upto(math.isqrt(N)):
            p = int(p)
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            pk = p
            while pk <= N:
                rest[pk::pk] //= p
                pk *= p
        mu[rest > 1] *= -1
        return mu
    raise ValueError("weight must be 'Lambda' or 'mu'")


def _residue_sums(w: np.ndarray, q: int) -> np.ndarray:
    """R[r] = sum of w(n) over n = r mod q, n in [0, len(w)), in w's dtype.

    w is viewed without a copy as rows of q consecutive values.  For q >= 2
    each column is summed row by row in increasing n and the short last row
    is added last: the order of one sequential pass, so float sums equal it
    bit for bit.  At q = 1 numpy sums the single contiguous column pairwise.
    Integer w (mu, int32) stays in its dtype, and its sums are exact.
    """
    full = len(w) - len(w) % q
    R = w[:full].reshape(-1, q).sum(axis=0, dtype=w.dtype)
    R[: len(w) - full] += w[full:]
    return R


def _residue_sum_table(w: np.ndarray, Q: int):
    """Yield (q, _residue_sums(w, q)) for every 2 <= q <= Q, each q once.

    Float w (Lambda) gets one sequential pass per q, in increasing q.
    Integer w (mu) is summed only at the moduli in (Q/2, Q]: two consecutive
    ones share one pass at M = q(q+1) when M <= len(w), and each q is folded
    out of R_M with ``_residue_sums(R_M, q)``; every q <= Q/2 is folded out
    of its largest multiple <= Q.  That is about Q/4 passes over w instead
    of Q - 1.  Integer addition is exact in any order, so the folded sums
    equal the direct ones; folding regroups float additions, which changes
    last bits of Lambda's sums and so the sign and residue that bv_profile
    picks among exact ties.
    """
    if not np.issubdtype(w.dtype, np.integer):
        for q in range(2, Q + 1):
            yield q, _residue_sums(w, q)
        return
    lo = max(Q // 2 + 1, 2)
    folded = {}  # m in [lo, Q] -> the q < lo whose largest multiple <= Q is m
    for q in range(2, lo):
        folded.setdefault(q * (Q // q), []).append(q)
    q = lo
    while q <= Q:
        moduli = (q, q + 1) if q < Q and q * (q + 1) <= len(w) else (q,)
        R = _residue_sums(w, math.prod(moduli))
        for m in moduli:
            R_m = _residue_sums(R, m)
            yield m, R_m
            for d in folded.get(m, ()):
                yield d, _residue_sums(R_m, d)
        q += len(moduli)


def _discrepancies(R: np.ndarray, q: int, P_list) -> np.ndarray:
    """disc[i, a] = sum_n w(n) u_P(n a^-1; q) with P = P_list[i], all a mod q.

    ``R`` holds the residue sums of w mod q and ``P_list`` is increasing.
    Each character mod q with conductor f <= P (f a divisor of q)
    contributes its induced sum restricted to n coprime to q (the
    imprimitivity correction is exact: the value table of the induced
    character vanishes on non-units).  One walk over the conductors in
    increasing order adds each correction once and snapshots a row per P.
    Non-units a get 0.
    """
    r = np.arange(q)
    coprime = np.gcd(r, q) == 1
    phi = int(np.count_nonzero(coprime))
    corr = np.zeros(q, dtype=complex)
    R_complex = R.astype(complex)  # the cast np.dot would make per character
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


def bv_discrepancy(
    N: int,
    q: int,
    a: int,
    P: float,
    weight: str,
    table: PrimeTable,
    w: np.ndarray | None = None,
) -> float:
    """sum_n w(n) u_P(n a^-1; q), computed exactly via residue sums."""
    if math.gcd(a, q) != 1:
        raise ValueError("a must be coprime to q")
    if w is None:
        w = weight_array(weight, N, table)
    if q == 1:
        return 0.0
    return float(_discrepancies(_residue_sums(w, q), q, [P])[0, a % q])


def bv_profile(
    N: int,
    Q: int,
    P_list,
    weight: str,
    table: PrimeTable,
) -> list[dict]:
    """For each P: sum over q <= Q of max over units a of |discrepancy|.

    Returns per-(P, q) rows with the maximizing residue, plus per-P totals
    appended by the caller-facing helpers.  The trend in P is emitted for
    inspection, never asserted.
    """
    P_list = sorted(set(P_list))
    if not 1 <= Q <= N or min(P_list, default=0) < 1:
        raise ValueError(f"need 1 <= Q <= N and every P >= 1, got Q={Q}, P={P_list}")
    w = weight_array(weight, N, table)
    rows = [{"P": P, "q": 1, "a_max": 1, "discrepancy": 0.0} for P in P_list]
    for q, R in _residue_sum_table(w, Q):
        units = np.nonzero(np.gcd(np.arange(q), q) == 1)[0]
        for P, disc in zip(P_list, _discrepancies(R, q, P_list)):
            best = units[np.argmax(np.abs(disc[units]))]
            rows.append(
                {
                    "P": P,
                    "q": q,
                    "a_max": int(best),
                    "discrepancy": float(disc[best]),
                }
            )
    rows.sort(key=lambda row: row["q"])  # stable: P stays increasing within q
    return rows


def profile_totals(rows) -> dict:
    totals: dict = {}
    for row in rows:
        totals[row["P"]] = totals.get(row["P"], 0.0) + abs(row["discrepancy"])
    return totals
