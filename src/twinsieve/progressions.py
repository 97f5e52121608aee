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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable, _table_bytes
from .characters import _PRIMITIVE_ROWS, _primitive_count, _primitive_value_rows, _unit_residues

__all__ = [
    "BVProfile",
    "weight_array",
    "bv_discrepancy",
    "bv_profile",
    "bv_peak_bytes",
    "profile_totals",
]


def weight_array(weight: str, N: int, table: PrimeTable) -> np.ndarray:
    """Dense w(n) for n = 0..N, w in {Lambda, mu}.

    Lambda is float64 and reads the primes <= N, so ``table`` must cover N.
    mu is int8, since it lies in {-1, 0, 1}, and reads only the primes
    <= isqrt(N), so ``table`` need cover no more; its sieve keeps an int32
    product of those primes, so N < 2^31.  ``_residue_sums`` sums integer w
    in a dtype sized by a bound on each sum, so the sums stay exact.
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
    mu = np.ones(N + 1, dtype=np.int8)
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
    # one more sign per large prime factor: mu *= 1 - 2 [prod[n] < n], in int8
    flip = (prod < np.arange(N + 1, dtype=np.int32)).view(np.int8)
    flip *= -2
    flip += 1
    mu *= flip
    return mu


#: the signed dtypes integer sums run in, narrowest first, each with the
#: largest |sum| it holds
_SUM_DTYPES = tuple((np.iinfo(t).max, t) for t in (np.int8, np.int16, np.int32, np.int64))


def _column_sums(w: np.ndarray, q: int, bound: int | None = None) -> np.ndarray:
    """R[r] = sum of w(n) over n = r mod q, n in [0, len(w)), in the sum dtype.

    w is viewed without a copy as rows of q consecutive values.  For q >= 2
    each column is summed row by row in increasing n and the short last row
    is added last: the order of one sequential pass, so float sums equal it
    bit for bit.  At q = 1 numpy sums the single contiguous column pairwise.
    Float w is summed in its dtype.  Integer w is summed in the narrowest of
    int8, int16, int32 and int64 whose range holds ``bound``, a bound on
    every |R[r]|; a narrow accumulator is what makes integer passes cheap,
    and integer addition is exact in any dtype that holds every partial sum.
    """
    dtype = w.dtype if bound is None else next(t for top, t in _SUM_DTYPES if bound <= top)
    full = len(w) - len(w) % q
    R = w[:full].reshape(-1, q).sum(axis=0, dtype=dtype)
    R[: len(w) - full] += w[full:]
    return R


def _max_abs(w: np.ndarray) -> int:
    return max(int(w.max(initial=0)), -int(w.min(initial=0)))


def _widened(R: np.ndarray) -> np.ndarray:
    """Integer sums in at least int32, the dtype ``_discrepancies`` is given."""
    return R.astype(np.promote_types(R.dtype, np.int32), copy=False)


def _residue_sums(w: np.ndarray, q: int) -> np.ndarray:
    """R[r] = sum of w(n) over n = r mod q, n in [0, len(w)).

    Float w (Lambda) gives float sums in one sequential pass (see
    ``_column_sums``).  Integer w (mu) is summed under the a-priori bound
    max|w| x (len(w) // q + 1), since a column has at most that many rows,
    and returned exact in at least int32.
    """
    if not np.issubdtype(w.dtype, np.integer):
        return _column_sums(w, q)
    return _widened(_column_sums(w, q, _max_abs(w) * (len(w) // q + 1)))


def _residue_sum_passes(n: int, Q: int, integer: bool) -> list[tuple[int, ...]]:
    """The moduli ``_residue_sum_table`` sums directly over a w of length n,
    one pass per tuple (``integer`` for an integer w)."""
    if not integer:
        return [(q,) for q in range(2, Q + 1)]
    passes = []
    q = max(Q // 2 + 1, 2)
    while q <= Q:
        passes.append((q, q + 1) if q < Q and q * (q + 1) <= n else (q,))
        q += len(passes[-1])
    return passes


def _residue_sum_table(w: np.ndarray, Q: int, dtypes: Counter | None = None):
    """Yield (q, _residue_sums(w, q)) for every 2 <= q <= Q, each q once.

    Float w (Lambda) gets one sequential pass per q, in increasing q.
    Integer w (mu) is summed only at the moduli in (Q/2, Q]: two consecutive
    ones share one pass at M = q(q+1) when M <= len(w), and each q is folded
    out of R_M with ``_column_sums(R_M, q)``; every q <= Q/2 is folded out
    of its largest multiple <= Q.  That is about Q/4 passes over w instead
    of Q - 1 (``_residue_sum_passes`` lists them).  Integer addition is
    exact in any order, so the folded sums equal the direct ones; folding
    regroups float additions, which changes last bits of Lambda's sums and
    so the sign and residue that bv_profile picks among exact ties.

    Each integer sum runs in the narrowest dtype that holds its bound: a
    pass at M bounds |R_M| by max|w| x (len(w) // M + 1), and each fold
    multiplies the bound by the rows it adds, M / m and then m / d.  At
    N = 1e6, Q = 500 for mu the passes run in int8 (at most 16 rows per
    column) and the pair folds in int16.  The yielded sums are widened as
    ``_residue_sums``'s are.  ``dtypes``, if given, counts the sums run in
    each dtype, by name.
    """
    dtypes = Counter() if dtypes is None else dtypes
    integer = np.issubdtype(w.dtype, np.integer)
    passes = _residue_sum_passes(len(w), Q, integer)
    if not integer:
        for (q,) in passes:
            dtypes[w.dtype.name] += 1
            yield q, _residue_sums(w, q)
        return

    def counted_sums(R, q, bound):
        R_q = _column_sums(R, q, bound)
        dtypes[R_q.dtype.name] += 1
        return R_q

    top = _max_abs(w)
    folded = {}  # m in (Q/2, Q] -> the q <= Q/2 whose largest multiple <= Q is m
    for q in range(2, Q // 2 + 1):
        folded.setdefault(q * (Q // q), []).append(q)
    for moduli in passes:
        M = math.prod(moduli)
        bound_M = top * (len(w) // M + 1)
        R = counted_sums(w, M, bound_M)
        for m in moduli:
            bound_m = bound_M * (M // m)
            R_m = counted_sums(R, m, bound_m)
            yield m, _widened(R_m)
            for d in folded.get(m, ()):
                yield d, _widened(counted_sums(R_m, d, bound_m * (m // d)))


def _conductor_plan(Q: int, F: float) -> list[list[tuple[int, int]]]:
    """plan[q] for 0 <= q <= Q: the (f, k_f) of every conductor f | q with
    f <= F and k_f = ``_primitive_count(f)`` > 0 primitive characters, in
    increasing f.  Each f <= min(F, Q) is counted once and sieved onto its
    multiples, so a whole profile shares one plan."""
    plan = [[] for _ in range(Q + 1)]
    for f in range(1, int(min(F, Q)) + 1):
        k_f = _primitive_count(f)
        if k_f:
            conductor = (f, k_f)
            for q in range(f, Q + 1, f):
                plan[q].append(conductor)
    return plan


def _discrepancies(R: np.ndarray, q: int, P_list, conductors) -> tuple[np.ndarray, int]:
    """(disc, summed): disc[i, k] = sum_n w(n) u_P(n a^-1; q) with
    P = P_list[i] and a = ``_unit_residues(q)[1][k]``, the k-th unit mod q,
    and the count of characters summed.

    ``R`` holds the residue sums of w mod q, ``P_list`` is increasing and
    ``conductors`` is q's entry of a ``_conductor_plan`` to max P.  Each
    character mod q with conductor f <= P contributes its induced sum
    restricted to n coprime to q (the imprimitivity correction is exact:
    the induced character vanishes on non-units).

    The characters of every planned conductor are one block, in increasing
    f: row 0 of one C-contiguous buffer is the zero correction and each
    further row one character, tiled from its conductor's stacked table.
    The rows are not zeroed off the units; R is, once, so each dot sums
    chi(r) x 0 where the induced character has 0 x R(r).  The stacked
    matmul runs the per-row complex dot that np.dot runs on a contiguous
    vector (a gemv over the block, or rows gathered F-ordered, rounds
    differently); the rows become conj(chi) * (chi . R), and one axis-0
    reduce per P adds the rows up to its boundary one after another onto
    the running sum, kept in the boundary row.  So the sum at each P has
    the floats of a per-character loop ``corr += conj(chi) * np.dot(chi, R)``
    bit for bit, on the units; only the unit columns are kept.
    """
    coprime, units = _unit_residues(q)
    # the row of the last character of conductor <= P, for each P
    ends = [sum(k_f for f, k_f in conductors if f <= P) for P in P_list]
    buf = np.empty((1 + ends[-1], q), dtype=complex)
    buf[0] = 0
    i = 1
    for f, k_f in conductors:
        buf[i : i + k_f].reshape(k_f, q // f, f)[...] = _primitive_value_rows(f)[:, None, :]
        i += k_f
    chars = buf[1:]
    R_complex = R.astype(complex)  # the cast np.dot would make per character
    R_complex[~coprime] = 0
    dots = (chars[:, None, :] @ R_complex[:, None]).ravel()
    np.conj(chars, out=chars)
    chars *= dots[:, None]
    start = 0
    for end in ends:
        buf[end] = np.add.reduce(buf[start : end + 1], axis=0)
        start = end
    corr = buf[ends][:, units]
    if np.any(np.abs(corr.imag) >= 1e-6 * (np.abs(corr.real) + 1)):
        raise ValueError(f"character correction mod {q} is not real")
    return R[units] - corr.real / len(units), ends[-1]


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
    disc = _discrepancies(_residue_sums(w, q), q, [P], _conductor_plan(q, P)[q])[0]
    return float(disc[0, np.searchsorted(_unit_residues(q)[1], a % q)])


@dataclass(frozen=True)
class BVProfile:
    """bv_profile's rows, one per (P, q) sorted by q then P, and its ``trace``:
    the kernel, the moduli, the passes over w, the characters summed, the
    prime table's limit, the dtype of w and the number of residue sums run
    in each dtype, and the ms of each stage."""

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
    t1 = time.perf_counter()
    plan = _conductor_plan(Q, P_list[-1])
    clock = time.perf_counter()
    weights_s, sums_s, corrections_s = t1 - t0, 0.0, clock - t1
    summed = 0
    dtypes = Counter()
    rows = [{"P": P, "q": 1, "a_max": 1, "discrepancy": 0.0} for P in P_list]
    for q, R in _residue_sum_table(w, Q, dtypes):
        now = time.perf_counter()
        sums_s += now - clock
        disc, k = _discrepancies(R, q, P_list, plan[q])
        summed += k
        best = np.argmax(np.abs(disc), axis=1)
        a_max = _unit_residues(q)[1][best]
        for P, a, d in zip(P_list, a_max.tolist(), disc[np.arange(len(P_list)), best].tolist()):
            rows.append({"P": P, "q": q, "a_max": a, "discrepancy": d})
        clock = time.perf_counter()
        corrections_s += clock - now
    rows.sort(key=lambda row: row["q"])  # stable: P stays increasing within q
    passes = len(_residue_sum_passes(len(w), Q, np.issubdtype(w.dtype, np.integer)))
    trace = {
        "kernel": "characters",
        "moduli": Q,
        "residue_sum_passes": passes,
        "weight_dtype": w.dtype.name,
        "residue_sum_dtypes": dict(sorted(dtypes.items())),
        "characters_summed": summed,
        "table_limit": table.limit,
        "weights_ms": round(weights_s * 1000, 3),
        "residue_sums_ms": round(sums_s * 1000, 3),
        "corrections_ms": round(corrections_s * 1000, 3),
    }
    return BVProfile(rows, trace)


def bv_peak_bytes(N: int, Q: int, P: int, weight: str, table_limit: int) -> int:
    """The planned peak memory of ``bv_profile`` at N, Q and largest P, in
    bytes, from those numbers alone, before anything is built:

    - the prime table to ``table_limit`` (``_table_bytes``);
    - the weight arrays on 0..N at their widths per entry, which for mu are
      1 B for mu itself, 4 B for the int32 prime product, 4 B for the int32
      arange it is compared with and 1 B for the sign flip, and for Lambda
      8 B;
    - the largest residue-sum buffer, the largest modulus summed directly
      over w at 8 B per entry;
    - what the characters caches keep for conductors f <= F = min(Q, P)
      and moduli q <= Q, at their worst: the primitive rows, at most their
      byte cap; discrete-log tables of at most 512 prime powers <= F, 16 B
      per residue; unit masks and residues of 64 moduli, 9 B per residue;
    - the conductor plan: one list per modulus, 88 B with room for four
      entries and under 16 B per entry with its spare room (CPython grows a
      list to at most 9/8 of its length plus 6); an entry per multiple
      q <= Q of each f <= F, under Q (1 + ln F) of them; and a 112 B (f, k_f)
      tuple per conductor;
    - ``_discrepancies``' (1 + K) x q block at q <= Q, 16 B per residue for
      the zero row and each of the K characters of conductor <= P; K is
      under phi(q) < Q and at most sum_{f <= P} phi(f) <= P(P+1)/2;
    - the primitive rows of one conductor f <= F as they are built, under
      f rows of f residues at 41 B each (40.1 B measured by tracemalloc at
      f = 997): the 16 B complex row, the evaluator's float phases (8 B)
      and either their two 8 B temporaries or the 16 B complex values it
      exponentiates in place;
    - what glibc's allocator keeps of the freed blocks and rows instead of
      returning it: 16 B per residue of one more F x F stack.  At N = 1e5
      and Q = P = 700, 1000 and 1500, bv as a CLI child peaks 1.2, 4.3 and
      2.7-12.4 MiB (ru_maxrss above the import) over the terms before this
      one, which is 7.5, 15.3 and 34.3 MiB.
    """
    per_entry = {"mu": 1 + 4 + 4 + 1, "Lambda": 8}[weight]
    passes = _residue_sum_passes(N + 1, Q, weight == "mu")
    largest = max((math.prod(moduli) for moduli in passes), default=0)
    F = min(Q, P)
    caches = _PRIMITIVE_ROWS.cap + 16 * F * min(F, 512) + 64 * 9 * Q
    plan = 88 * (Q + 1) + math.ceil(16 * Q * (1 + math.log(F))) + 112 * F
    stacked = 16 * Q * (1 + min(Q, P * (P + 1) // 2))
    built = 41 * F**2
    kept = 16 * F**2
    return (_table_bytes(table_limit) + per_entry * (N + 1) + 8 * largest
            + caches + plan + stacked + built + kept)


def profile_totals(rows) -> dict:
    totals: dict = {}
    for row in rows:
        totals[row["P"]] = totals.get(row["P"], 0.0) + abs(row["discrepancy"])
    return totals
