"""Additive convolutions of arithmetic sequences and exceptional-set scans.

Sequences live on [1, N] as dense arrays; convolutions land on [2, 2N].
Exact mode (bit-exact integer counts) backs the exceptional scans: an m
is only declared representation-free after the integer count is zero AND
a direct prime-pair search confirms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import PrimeTable, default_table, lambda_e3star, omega_counts
from .ntt import exact_convolve, float_convolve, roundoff_bound
from .singular import classical_goldbach_series, singular_series
from .progressions import weight_array
from .sieves import SieveWeights, apply_sieve_range

__all__ = [
    "ArithSequence",
    "ScanReport",
    "ArcClassification",
    "build_sequence",
    "convolve",
    "exceptional_scan",
    "exp_sum",
    "classify_arc",
    "T_sums",
]

FLOAT_N_CAP = 1 << 27


@dataclass(frozen=True)
class ArithSequence:
    """Dense sequence over n = 1..N (index 0 present but unused)."""

    N: int
    values: np.ndarray = field(repr=False)
    kind: str = "generic"

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def _almost_twin_support(N: int, k: float, z: float, table: PrimeTable) -> np.ndarray:
    """Mask on 0..N of the primes p such that p + 2 has at most k prime
    factors (with multiplicity) and none <= z; k = inf drops the factor
    bound and z <= 1 the roughness condition."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    p = table.primes_upto(N)
    if k != math.inf:
        p = p[omega_counts(p + 2, table) <= k]
    if z > 1:
        p = p[table.spf[p + 2] > z]
    sel = np.zeros(N + 1, dtype=bool)
    sel[p] = True
    return sel


def build_sequence(
    kind: str,
    N: int,
    table: PrimeTable | None = None,
    k: int | None = None,
    alpha: float | None = None,
    eps: float = 1e-3,
    weights: SieveWeights | None = None,
    indicator: bool = False,
) -> ArithSequence:
    """Materialize a named weight as a dense sequence on [1, N].

    Kinds: Lambda0, Lambda (von Mangoldt), Lambda_k (needs k; alpha
    defaults to 1/15 or 1/10), Lambda_E3star, and sieve_twisted (Lambda0
    times a supplied SieveWeights applied at n + 2).  ``indicator``
    replaces log weights by 0/1 support indicators (integer dtype).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    if N > FLOAT_N_CAP:
        raise ValueError(f"N={N} beyond the dense-array budget {FLOAT_N_CAP}")
    table = table or default_table(max(N + 2, 1_100_000))
    if table.limit < N + 2:
        raise ValueError("prime table must cover N + 2")
    if kind == "Lambda":
        vals = weight_array("Lambda", N, table)
    elif kind == "Lambda0":
        primes = _almost_twin_support(N, math.inf, 1.0, table)
        vals = np.where(primes, weight_array("Lambda", N, table), 0.0)
    elif kind == "Lambda_k":
        if k is None:
            raise ValueError("Lambda_k needs k")
        if alpha is None:
            alpha = 1.0 / 15.0 if k == 2 else 1.0 / 10.0
        support = _almost_twin_support(N, k, N**alpha if alpha > 0 else 1.0, table)
        vals = np.where(support, weight_array("Lambda", N, table), 0.0)
    elif kind == "Lambda_E3star":
        vals = np.zeros(N + 1)
        for n in np.nonzero(omega_counts(np.arange(N + 1), table) == 3)[0]:
            vals[n] = lambda_e3star(int(n), N, table, eps=eps)
    elif kind == "sieve_twisted":
        if weights is None:
            raise ValueError("sieve_twisted needs weights")
        primes = _almost_twin_support(N, math.inf, 1.0, table)
        vals = np.where(primes, weight_array("Lambda", N, table), 0.0)
        vals = vals * apply_sieve_range(weights, N + 2)[2 : N + 3]
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if indicator:
        vals = (vals != 0).astype(np.int64)
    return ArithSequence(N=N, values=vals, kind=kind + ("_ind" if indicator else ""))


def convolve(f: ArithSequence, g: ArithSequence, mode: str = "float") -> ArithSequence:
    """Additive convolution (f*g)(m) = sum over n1+n2=m, as a sequence on [2, 2N].

    Exact mode requires nonnegative integer inputs and returns bit-exact
    int64 counts: the float FFT rounded to integers when its certified
    roundoff bound (``ntt.roundoff_bound``) is below 1/4, else the NTT,
    which raises ReconstructionOverflow past its CRT range.  Float mode
    returns the double-precision FFT as is.
    """
    if f.N != g.N:
        raise ValueError("sequences must share N")
    if mode == "exact":
        if not (f.is_integer and g.is_integer):
            raise ValueError("exact mode requires integer-valued sequences")
        a, b = f.values[1:], g.values[1:]
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("exact mode expects nonnegative integer inputs")
        if roundoff_bound(a, b) < 0.25:
            conv = np.rint(float_convolve(a, b)).astype(np.int64)
        else:
            conv = exact_convolve(a, b)
    elif mode == "float":
        conv = float_convolve(f.values[1:], g.values[1:])
    else:
        raise ValueError("mode must be 'float' or 'exact'")
    # index i of conv corresponds to m = i + 2
    out = np.zeros(2 * f.N + 1, dtype=conv.dtype)
    out[2 : 2 + len(conv)] = conv
    return ArithSequence(N=2 * f.N, values=out, kind=f"conv({f.kind},{g.kind})")


@dataclass(frozen=True)
class ScanReport:
    N: int
    k1: float
    k2: float
    alpha1: float
    alpha2: float
    z1: float
    z2: float
    clamped: bool
    exceptional: list[int]
    verified: bool
    counts: np.ndarray = field(repr=False)
    sampled_m: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    ratios: np.ndarray = field(repr=False)
    fitted_constant: float
    ratio_histogram: dict


def _direct_pair_count(m: int, mask1: np.ndarray, mask2: np.ndarray) -> int:
    """Ordered representations m = n1 + n2 with each n in its bool mask
    set; the masks cover 0..N and m <= N + 1."""
    return int(np.count_nonzero(mask1[1:m] & mask2[m - 1 : 0 : -1]))


def exceptional_scan(
    N: int,
    k1: float,
    k2: float,
    alpha1: float = 0.0,
    alpha2: float = 0.0,
    table: PrimeTable | None = None,
    sample_count: int = 512,
    seed: int = 0,
    cutoff: int = 10_000,
) -> ScanReport:
    """Scan m = 4 mod 6 up to N for missing two-prime representations.

    Convolves the two indicator sequences (primes n with n+2 almost-prime
    and rough past N^alpha_i) in exact mode; every m with zero count is
    re-verified by a direct pair search.  Prediction ratios against the
    appropriate singular series times m/log^2 m are attached for a seeded
    sample of m (all even m in a plain scan, else m = 4 mod 6); the
    proportionality constant is fitted, not assumed.
    """
    if N < 4 or sample_count < 1:
        raise ValueError(f"need N >= 4 and samples >= 1, got N={N}, samples={sample_count}")
    if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
        raise ValueError(f"roughness exponents must be finite, got {alpha1}, {alpha2}")
    table = table or default_table(max(N + 2, 1_100_000))

    def threshold(alpha):
        if alpha <= 0:
            return 1.0, False
        z = N**alpha
        return (3.0, True) if z < 3.0 else (z, False)

    z1, c1 = threshold(alpha1)
    z2, c2 = threshold(alpha2)

    mask1 = _almost_twin_support(N, k1, z1, table)
    mask2 = _almost_twin_support(N, k2, z2, table)
    seq1 = ArithSequence(N=N, values=mask1.astype(np.int64), kind="ind1")
    seq2 = ArithSequence(N=N, values=mask2.astype(np.int64), kind="ind2")
    counts = convolve(seq1, seq2, "exact").values

    exceptional = (np.nonzero(counts[4 : N + 1 : 6] == 0)[0] * 6 + 4).tolist()
    verified = all(_direct_pair_count(m, mask1, mask2) == 0 for m in exceptional)

    plain = k1 == math.inf and k2 == math.inf and z1 <= 1 and z2 <= 1
    rng = np.random.default_rng(seed)
    lo = max(4, N // 2)
    if plain:
        pool = np.arange(lo + lo % 2, N + 1, 2)
    else:
        pool = np.arange(lo + (4 - lo % 6) % 6, N + 1, 6)
    if len(pool) > sample_count:
        sampled = np.sort(rng.choice(pool, size=sample_count, replace=False))
    else:
        sampled = pool
    preds = np.zeros(len(sampled))
    for i, m in enumerate(sampled):
        m = int(m)
        if plain:
            series = classical_goldbach_series(m, cutoff, table).value
        else:
            series = singular_series(m, cutoff, table).value
        preds[i] = series * m / math.log(m) ** 2 if m > 2 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(preds > 0, counts[sampled] / preds, np.nan)
    good = ratios[np.isfinite(ratios)]
    fitted = float(np.median(good)) if good.size else float("nan")
    edges = [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0, np.inf]
    hist, _ = np.histogram(good, bins=edges)
    return ScanReport(
        N=N,
        k1=k1,
        k2=k2,
        alpha1=alpha1,
        alpha2=alpha2,
        z1=z1,
        z2=z2,
        clamped=c1 or c2,
        exceptional=exceptional,
        verified=verified,
        counts=counts,
        sampled_m=sampled,
        predictions=preds,
        ratios=ratios,
        fitted_constant=fitted,
        ratio_histogram={f"[{a},{b})": int(h) for a, b, h in zip(edges, edges[1:], hist)},
    )


def exp_sum(f: ArithSequence, alpha: float, y: int | None = None) -> complex:
    """sum_{n <= y} f(n) e(alpha n) by direct summation."""
    y = f.N if y is None else y
    if y > f.N:
        raise ValueError("y exceeds the sequence range")
    n = np.arange(1, y + 1)
    return complex(np.sum(f.values[1 : y + 1] * np.exp(2j * np.pi * alpha * n)))


@dataclass(frozen=True)
class ArcClassification:
    alpha: float
    is_major: bool
    b: int | None = None
    q: int | None = None
    distance: float | None = None


def classify_arc(alpha: float, N: int, P, c0: float = 1.0 / 1000.0) -> ArcClassification:
    """Major/minor classification with denominator cutoff P^c0, width 1/Q.

    Q = N / P^c0; the arcs are closed: |alpha - b/q| = 1/Q counts as
    major.  P may be a big integer (the cutoff is computed in log space).
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    cutoff = math.exp(c0 * math.log(P))
    if cutoff > 10**7:
        raise ValueError(f"denominator cutoff {cutoff:.3g} beyond the scan budget")
    Q = N / cutoff
    best = None
    # the cutoff is a tiny power of P, so a linear scan over q suffices;
    # only the floor/ceil fractions at each q can be within range
    for q in range(1, int(cutoff) + 1):
        for b in {math.floor(alpha * q), math.ceil(alpha * q)}:
            if b < 0 or b > q or math.gcd(b, q) != 1:
                continue
            dist = abs(alpha - b / q)
            if dist <= 1.0 / Q and (best is None or dist < best[2]):
                best = (b, q, dist)
    if best is None:
        return ArcClassification(alpha=alpha, is_major=False)
    return ArcClassification(
        alpha=alpha, is_major=True, b=best[0], q=best[1], distance=best[2]
    )


def T_sums(eta: float, N: int, beta: float | None = None) -> tuple[complex, complex]:
    """Geometric sum T(eta) and the beta-weighted companion T~(eta).

    T = sum_{n<=N} e(eta n) via the closed form; T~ = -sum n^(beta-1)
    e(eta n) by direct summation (equal to -T when beta = 1).
    """
    if abs(eta) > 0.5:
        raise ValueError("eta must lie in [-1/2, 1/2]")
    if eta == 0:
        T = complex(N)
    else:
        z = np.exp(2j * np.pi * eta)
        T = z * (z**N - 1) / (z - 1)
    if beta is None:
        T_tilde = -T
    else:
        n = np.arange(1, N + 1)
        T_tilde = -complex(np.sum(n ** (beta - 1.0) * np.exp(2j * np.pi * eta * n)))
    return T, T_tilde
