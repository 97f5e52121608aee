"""Distribution of Lambda and mu in progressions with low-conductor corrections.

The discrepancy of interest replaces the classical single-main-term
approximation by the full expansion over characters of conductor <= P:
summing w(n) against the corrected indicator u_P(n a^-1; q).  Exactness
matters here - the imprimitive parts are computed by restricting to n
coprime to q via per-modulus residue sums, never by bounding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable, _divisors, _factor_pp
from .characters import _primitive_value_rows, _unit_residues, primitive_characters

__all__ = [
    "BVProfile",
    "weight_array",
    "bv_discrepancy",
    "bv_profile",
    "profile_totals",
]


def weight_array(weight: str, N: int, table: PrimeTable) -> np.ndarray:
    """Dense w(n) for n = 0..N, w in {Lambda, mu}.

    Lambda is float64 and reads the primes <= N, so ``table`` must cover N.
    mu is int32 and reads only the primes <= isqrt(N), so ``table`` need
    cover no more, and N < 2^31.  mu's sums in ``_residue_sums`` are int32
    too: a sum of mu over any n <= N is at most the count of squarefree
    n <= N in size, below 2^31, so they are exact.
    """
    if weight == "Lambda":
        if table.limit < N:
            raise ValueError("prime table must cover N")
        out = np.zeros(N + 1)
        for p in table.primes_upto(N):
            p = int(p)
            logp = math.log(p)
            pk = p
            while pk <= N:
                out[pk] = logp
                pk *= p
        return out
    if weight != "mu":
        raise ValueError("weight must be 'Lambda' or 'mu'")
    if N >= 2**31:
        raise ValueError("mu is sieved in int32: need N < 2^31")
    if table.limit < math.isqrt(N):
        raise ValueError("prime table must cover isqrt(N)")
    # Sieve by the primes p <= sqrt(N) only, multiplying each p^k into prod;
    # prod[n] is then the part of n made of those primes, and n > 1 has its
    # one prime factor > sqrt(N) exactly when prod[n] < n.
    mu = np.ones(N + 1, dtype=np.int32)
    mu[0] = 0
    prod = np.ones(N + 1, dtype=np.int32)
    for p in table.primes_upto(math.isqrt(N)):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= N:
            prod[pk::pk] *= p
            pk *= p
    mu[prod < np.arange(N + 1, dtype=np.int32)] *= -1
    return mu


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


def _residue_sum_passes(w: np.ndarray, Q: int) -> list[tuple[int, ...]]:
    """The moduli ``_residue_sum_table`` sums directly over w, one pass per tuple."""
    if not np.issubdtype(w.dtype, np.integer):
        return [(q,) for q in range(2, Q + 1)]
    passes = []
    q = max(Q // 2 + 1, 2)
    while q <= Q:
        passes.append((q, q + 1) if q < Q and q * (q + 1) <= len(w) else (q,))
        q += len(passes[-1])
    return passes


def _residue_sum_table(w: np.ndarray, Q: int):
    """Yield (q, _residue_sums(w, q)) for every 2 <= q <= Q, each q once.

    Float w (Lambda) gets one sequential pass per q, in increasing q.
    Integer w (mu) is summed only at the moduli in (Q/2, Q]: two consecutive
    ones share one pass at M = q(q+1) when M <= len(w), and each q is folded
    out of R_M with ``_residue_sums(R_M, q)``; every q <= Q/2 is folded out
    of its largest multiple <= Q.  That is about Q/4 passes over w instead
    of Q - 1 (``_residue_sum_passes`` lists them).  Integer addition is
    exact in any order, so the folded sums equal the direct ones; folding
    regroups float additions, which changes last bits of Lambda's sums and
    so the sign and residue that bv_profile picks among exact ties.
    """
    passes = _residue_sum_passes(w, Q)
    if not np.issubdtype(w.dtype, np.integer):
        for (q,) in passes:
            yield q, _residue_sums(w, q)
        return
    folded = {}  # m in (Q/2, Q] -> the q <= Q/2 whose largest multiple <= Q is m
    for q in range(2, Q // 2 + 1):
        folded.setdefault(q * (Q // q), []).append(q)
    for moduli in passes:
        R = _residue_sums(w, math.prod(moduli))
        for m in moduli:
            R_m = _residue_sums(R, m)
            yield m, R_m
            for d in folded.get(m, ()):
                yield d, _residue_sums(R_m, d)


def _discrepancies(R: np.ndarray, q: int, P_list) -> tuple[np.ndarray, int]:
    """(disc, summed): disc[i, a] = sum_n w(n) u_P(n a^-1; q) with
    P = P_list[i], all a mod q, and the count of characters summed.

    ``R`` holds the residue sums of w mod q and ``P_list`` is increasing.
    Each character mod q with conductor f <= P (f a divisor of q)
    contributes its induced sum restricted to n coprime to q (the
    imprimitivity correction is exact: the induced character vanishes on
    non-units).  One walk over the conductors in increasing order adds each
    correction once and snapshots a row per P.  Non-units a get 0.

    The characters whose conductors enter at one P are one block (see
    ``_add_corrections``), with the floats of a per-character loop
    ``corr += conj(chi) * np.dot(chi, R)`` bit for bit.
    """
    coprime, _ = _unit_residues(q)
    phi = int(np.count_nonzero(coprime))
    corr = np.zeros(q, dtype=complex)
    R_complex = R.astype(complex)  # the cast np.dot would make per character
    conductors = iter(sorted(_divisors(_factor_pp(q))))
    f = next(conductors)
    summed = 0
    rows = []
    for P in P_list:
        entered = []
        while f is not None and f <= P:
            entered.append((f, len(primitive_characters(f))))
            f = next(conductors, None)
        k = sum(k_f for _, k_f in entered)
        if k:
            corr = _add_corrections(corr, R_complex, coprime, entered, k)
            summed += k
        if np.any(np.abs(corr.imag) >= 1e-6 * (np.abs(corr.real) + 1)):
            raise ValueError(f"character correction mod {q} is not real")
        rows.append(np.where(coprime, R - corr.real / phi, 0.0))
    return np.array(rows), summed


def _add_corrections(corr, R_complex, coprime, entered, k) -> np.ndarray:
    """corr plus conj(chi) * (chi . R) over the k characters induced mod q
    from the primitive ones of each (f, k_f) in ``entered``, added in order.

    Row 0 of one C-contiguous buffer holds corr and each further row one
    induced character, tiled from its conductor's stacked table and zeroed
    off the units.  The stacked matmul runs the per-row complex dot that
    np.dot runs on a contiguous vector (a gemv over the block, or rows
    gathered F-ordered, rounds differently); an axis-0 reduce then adds the
    rows to corr one after another, as a loop of ``corr += ...`` does.
    """
    q = len(corr)
    buf = np.empty((1 + k, q), dtype=complex)
    buf[0] = corr
    i = 1
    for f, k_f in entered:
        buf[i : i + k_f].reshape(k_f, q // f, f)[...] = _primitive_value_rows(f)[:, None, :]
        i += k_f
    chars = buf[1:]
    np.copyto(chars, 0, where=~coprime)
    dots = (chars[:, None, :] @ R_complex[:, None]).ravel()
    np.conj(chars, out=chars)
    chars *= dots[:, None]
    return np.add.reduce(buf, axis=0)


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
    return float(_discrepancies(_residue_sums(w, q), q, [P])[0][0, a % q])


@dataclass(frozen=True)
class BVProfile:
    """bv_profile's rows, one per (P, q) sorted by q then P, and its ``trace``:
    the kernel, the moduli, the passes over w, the characters summed, the
    prime table's limit and the ms of each stage."""

    rows: list[dict]
    trace: dict


def bv_profile(
    N: int,
    Q: int,
    P_list,
    weight: str,
    table: PrimeTable,
) -> BVProfile:
    """For each P and q <= Q: the max over units a of |discrepancy|.

    Each row holds P, q, the maximizing residue a_max (the first one among
    ties) and its signed discrepancy.  The trend in P is emitted for
    inspection, never asserted.
    """
    P_list = sorted(set(P_list))
    if not 1 <= Q <= N or min(P_list, default=0) < 1:
        raise ValueError(f"need 1 <= Q <= N and every P >= 1, got Q={Q}, P={P_list}")
    t0 = time.perf_counter()
    w = weight_array(weight, N, table)
    clock = time.perf_counter()
    weights_s, sums_s, corrections_s = clock - t0, 0.0, 0.0
    summed = 0
    rows = [{"P": P, "q": 1, "a_max": 1, "discrepancy": 0.0} for P in P_list]
    for q, R in _residue_sum_table(w, Q):
        now = time.perf_counter()
        sums_s += now - clock
        disc, k = _discrepancies(R, q, P_list)
        summed += k
        units = _unit_residues(q)[1]
        best = units[np.argmax(np.abs(disc[:, units]), axis=1)]
        for P, a, d in zip(P_list, best.tolist(), disc[np.arange(len(P_list)), best].tolist()):
            rows.append({"P": P, "q": q, "a_max": a, "discrepancy": d})
        clock = time.perf_counter()
        corrections_s += clock - now
    rows.sort(key=lambda row: row["q"])  # stable: P stays increasing within q
    trace = {
        "kernel": "characters",
        "moduli": Q,
        "residue_sum_passes": len(_residue_sum_passes(w, Q)),
        "characters_summed": summed,
        "table_limit": table.limit,
        "weights_ms": round(weights_s * 1000, 3),
        "residue_sums_ms": round(sums_s * 1000, 3),
        "corrections_ms": round(corrections_s * 1000, 3),
    }
    return BVProfile(rows, trace)


def profile_totals(rows) -> dict:
    totals: dict = {}
    for row in rows:
        totals[row["P"]] = totals.get(row["P"], 0.0) + abs(row["discrepancy"])
    return totals
