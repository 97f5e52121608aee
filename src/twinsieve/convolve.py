"""Additive convolutions of arithmetic sequences and exceptional-set scans.

Sequences live on [1, N] as dense arrays; convolutions land on [2, 2N].
Exact mode (bit-exact integer counts) backs the exceptional scans: an m
is only declared representation-free after the integer count is zero AND
a direct prime-pair search confirms it.  Every prime n > 3 is 1 or 5 mod
6, so the scans convolve only those residue-class slices, packed into one
sequence per side, and add n in {2, 3} as shifted copies; they round and
keep only the counts on 0..N that they read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import PrimeTable, _table_bytes, omega_counts
from .ntt import _transform_len, exact_convolve, exact_primes, float_convolve, roundoff_bound
from .singular import classical_goldbach_series, singular_series
from .progressions import weight_array
from .sieves import SieveWeights, apply_sieve_range

__all__ = [
    "ArithSequence",
    "ScanReport",
    "build_sequence",
    "convolve",
    "exceptional_scan",
    "scan_peak_bytes",
]

FLOAT_N_CAP = 1 << 27


@dataclass(frozen=True)
class ArithSequence:
    """Dense sequence over n = 1..N (index 0 present but unused).  A
    convolution's ``trace`` holds the engine facts of its product."""

    N: int
    values: np.ndarray = field(repr=False)
    kind: str = "generic"
    trace: dict | None = field(default=None, repr=False, compare=False)

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)


def _almost_twin_supports(N: int, table: PrimeTable, *bounds: tuple[float, float]) -> list:
    """One bool mask on 0..N per (k, z) in ``bounds``: the primes p such
    that p + 2 has at most k prime factors (with multiplicity) and none
    <= z; k = inf drops the factor bound and z <= 1 the roughness
    condition.  One spf gather over p + 2 for the primes p <= N and one
    Omega pass serve every mask; the Omega pass skips the p that no mask's
    roughness admits."""
    for k, _ in bounds:
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
    p = table.primes_upto(N)
    least = table.spf[p + 2]
    loosest = min(z for _, z in bounds)
    if loosest > 1:
        p, least = p[least > loosest], least[least > loosest]
    omega = omega_counts(p + 2, table) if any(k != math.inf for k, _ in bounds) else None
    masks = []
    for k, z in bounds:
        keep = np.ones(len(p), dtype=bool)
        if k != math.inf:
            keep &= omega <= k
        if z > 1:
            keep &= least > z
        sel = np.zeros(N + 1, dtype=bool)
        sel[p[keep]] = True
        masks.append(sel)
    return masks


def _almost_twin_support(N: int, k: float, z: float, table: PrimeTable) -> np.ndarray:
    """The one mask of ``_almost_twin_supports`` for a single (k, z)."""
    return _almost_twin_supports(N, table, (k, z))[0]


def build_sequence(
    kind: str,
    N: int,
    table: PrimeTable,
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
        vals = _e3star_values(N, eps, table)
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


def _e3star_values(N: int, eps: float, table: PrimeTable) -> np.ndarray:
    """``arith.lambda_e3star`` at every n in 0..N.  The Omega = 3 entries
    n = q1 q2 q3 (q1 <= q2 <= q3, peeled off with spf) meet the windows
    with the same float expressions; the cofactor p3 is tried as q1, q2,
    q3 in that order and the first match wins."""
    n = np.flatnonzero(omega_counts(np.arange(N + 1), table) == 3)
    q1 = table.spf[n].astype(np.int64)
    q2 = table.spf[n // q1].astype(np.int64)
    q3 = n // q1 // q2
    t10 = N ** (1.0 / 10.0)
    t13 = N ** (1.0 / 3.0 - eps)
    cls = np.zeros(len(n), dtype=np.int8)
    rough = q1 >= t10  # every factor >= N^(1/10); q1 is the least
    for p1, p2 in ((q2, q3), (q1, q3), (q1, q2)):  # cofactor q1, q2, q3
        top = rough & (cls == 0) & (p2 <= np.sqrt(N / p1))
        cls[top & (t10 <= p1) & (p1 < t13) & (t13 < p2)] = 1
        cls[top & (t13 <= p1) & (p1 <= p2)] = 2
    vals = np.zeros(N + 1)
    for c, w in ((1, 0.5), (2, 1.0)):
        hit = n[cls == c]
        vals[hit] = [w * math.log(m) for m in hit.tolist()]
    return vals


def _exact_counts(a: np.ndarray, b: np.ndarray, n_out: int) -> tuple[np.ndarray, dict]:
    """The first ``n_out`` outputs of the bit-exact convolution of two
    nonnegative integer-valued arrays: the float FFT rounded to integers
    (float64 values) when ``ntt.roundoff_bound`` certifies it (below 1/4)
    and the observed error, max |x - rint x| over those outputs, stays
    within that bound; else the NTT (int64 values).  Also returns the
    engine facts: which engine ran, its power-of-two transform length and
    the bound; the observed error when the float FFT ran; and when the NTT
    ran, how many primes it used, with ``handover`` set when it took over
    from a float FFT whose observed error exceeded the bound."""
    facts = _float_facts(a, b)
    if facts["roundoff_bound"] < 0.25:
        x = float_convolve(a, b)[:n_out]
        rounded = np.rint(x)
        x -= rounded  # the residuals, in float_convolve's own buffer
        facts["observed_error"] = float(max(x.max(initial=0.0), -x.min(initial=0.0)))
        if facts["observed_error"] <= facts["roundoff_bound"]:
            return rounded, facts
        facts["handover"] = True  # a NaN residual lands here too
    facts.update(engine="ntt", primes=len(exact_primes(a, b)))
    return exact_convolve(a, b)[:n_out], facts


def _float_facts(a: np.ndarray, b: np.ndarray) -> dict:
    """The float FFT's engine facts: its power-of-two length and bound."""
    return {"engine": "float", "transform_len": _transform_len(len(a), len(b)),
            "roundoff_bound": roundoff_bound(a, b)}


def convolve(f: ArithSequence, g: ArithSequence, mode: str = "float") -> ArithSequence:
    """Additive convolution (f*g)(m) = sum over n1+n2=m, as a sequence on [2, 2N].

    Exact mode requires nonnegative integer inputs and returns bit-exact
    int64 counts: the float FFT rounded to integers when its certified
    roundoff bound (``ntt.roundoff_bound``) is below 1/4 and its observed
    rounding error stays within that bound, else the NTT, which raises
    ReconstructionOverflow past its CRT range.  Float mode
    returns the double-precision FFT as is.  The result's ``trace`` holds
    the engine facts (see ``_exact_counts``).
    """
    if f.N != g.N:
        raise ValueError("sequences must share N")
    if mode == "exact":
        if not (f.is_integer and g.is_integer):
            raise ValueError("exact mode requires integer-valued sequences")
        a, b = f.values[1:], g.values[1:]
        if np.any(a < 0) or np.any(b < 0):
            raise ValueError("exact mode expects nonnegative integer inputs")
        conv, trace = _exact_counts(a, b, len(a) + len(b) - 1)
    elif mode == "float":
        a, b = f.values[1:], g.values[1:]
        conv, trace = float_convolve(a, b), _float_facts(a, b)
    else:
        raise ValueError("mode must be 'float' or 'exact'")
    # index i of conv corresponds to m = i + 2
    out = np.zeros(2 * f.N + 1, dtype=np.int64 if mode == "exact" else conv.dtype)
    out[2 : 2 + len(conv)] = conv
    return ArithSequence(N=2 * f.N, values=out, kind=f"conv({f.kind},{g.kind})", trace=trace)


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
    trace: dict


def _packing(N: int, classes: list[int]) -> tuple[int, int]:
    """Stride and slot count of the packed sequence of ``classes`` on 0..N."""
    return (1 if len(classes) == 1 else 3), len(range(classes[0], N + 1, 6))


def _class_counts(mask1: np.ndarray, mask2: np.ndarray) -> tuple[np.ndarray, dict]:
    """Pair counts c[m] = #{n1 + n2 = m : mask1[n1], mask2[n2]} on 0..N, as
    int32, for two bool masks on 0..N supported on {2, 3} and n = +-1 mod 6.

    n in {2, 3} enter as shifted copies of the other mask.  The classes r in
    (1, 5) that either mask uses are packed into one bool sequence per
    mask, with stride s = 1 for one class and 3 for two: n = 6i + r_c sits
    at s*i + c.  Slot sums c1 + c2 <= 2 < s never collide, so output
    s*j + c1 + c2 holds m = 6j + r_c1 + r_c2, and one certified exact
    product (``_exact_counts``) of a third to a sixth the full length gives
    every count; only its outputs with m <= N are rounded and read, and the
    counts are allocated once the packed inputs are freed.  Returns the
    counts and that product's engine facts, with the classes and stride
    (engine None and length 0 when neither mask holds an n > 3).
    """
    N = len(mask1) - 1
    if len(mask2) != N + 1:
        raise ValueError("masks must share N")
    for mask in (mask1, mask2):  # n = 0, 4 mod 6, or 2, 3 mod 6 past 3
        if mask[0::6].any() or mask[4::6].any() or mask[8::6].any() or mask[9::6].any():
            raise ValueError("mask support must lie in {2, 3} and n = +-1 mod 6")
    classes = [r for r in (1, 5) if mask1[r::6].any() or mask2[r::6].any()]
    trace = {"classes": classes, "stride": 0, "engine": None,
             "transform_len": 0, "roundoff_bound": 0.0, "observed_error": 0.0}
    if classes:
        s, slots = _packing(N, classes)
        packed = [np.zeros(s * slots, dtype=bool), np.zeros(s * slots, dtype=bool)]
        for x, mask in zip(packed, (mask1, mask2)):
            for c, r in enumerate(classes):
                col = mask[r::6]
                x[c::s][: len(col)] = col
        # output s*j + t holds m = 6j + 2 r_0 + 4t: j <= (N - 2 r_0) / 6 is read
        n_out = max(s * ((N - 2 * classes[0]) // 6 + 1), 0)
        conv, facts = _exact_counts(*packed, n_out)
        del packed
        trace.update(stride=s, **facts)
    counts = np.zeros(N + 1, dtype=np.int32)
    small1 = [n for n in (2, 3) if n <= N and mask1[n]]
    small2 = [n for n in (2, 3) if n <= N and mask2[n]]
    for n in small1:
        counts[n:] += mask2[: N + 1 - n]
    for n in small2:
        counts[n:] += mask1[: N + 1 - n]
    for n1 in small1:  # the (2|3, 2|3) pairs were added by both loops
        for n2 in small2:
            if n1 + n2 <= N:
                counts[n1 + n2] -= 1
    for t in range(2 * len(classes) - 1):  # slot sum t lands on m = 2 r_0 + 4t mod 6
        dest = counts[2 * classes[0] + 4 * t :: 6]
        np.add(dest, conv[t::s][: len(dest)], out=dest, casting="unsafe")
    return counts, trace


def _direct_pair_count(m: int, mask1: np.ndarray, mask2: np.ndarray) -> int:
    """Ordered representations m = n1 + n2 with each n in its bool mask
    set; the masks cover 0..N and m <= N + 1."""
    return int(np.count_nonzero(mask1[1:m] & mask2[m - 1 : 0 : -1]))


def _threshold(N: int, alpha: float) -> tuple[float, bool]:
    """A scan mask's roughness threshold z = N^alpha and whether it was
    clamped: alpha <= 0 drops the roughness (z = 1), and a z below 3 is
    raised to 3, so the mask still sieves by {2, 3}."""
    if alpha <= 0:
        return 1.0, False
    z = N**alpha
    return (3.0, True) if z < 3.0 else (z, False)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty float array without NaNs, bit for bit:
    the middle value after sorting, or (a + b) / 2 of the middle two.
    (``np.median`` imports numpy.ma on its first call.)"""
    x = np.sort(x)
    mid = len(x) // 2
    return float(x[mid] if len(x) % 2 else (x[mid - 1] + x[mid]) / 2)


#: what a scan holds whatever its N: numpy.random, imported on the first
#: sample draw (5.4 MiB of RSS), and the sampling's Python objects; scans
#: at N = 1e4 peak 7.3-7.4 MiB above the import of the CLI
_SCAN_WORKING_SET = 8 * 2**20


def scan_peak_bytes(N: int, alpha1: float, alpha2: float, table_limit: int) -> int:
    """The planned peak memory of a scan at N, in bytes, before anything is
    built.  The peak is the product's second forward transform, of length
    2^k, which holds: the prime table to ``table_limit`` (``_table_bytes``);
    the two bool masks on 0..N and the two packed bool inputs; and five
    2^k x 8 B buffers: the two half-spectra, the float64 copy of the second
    input (at most half of one), and the zero-padded copy and working array
    that numpy's FFT makes of it.  The rounded outputs and the int32 counts
    come after the transform buffers are freed, and take less.  The packing
    counts both classes unless both thresholds reach 3, which empties class
    1 (n = 1 mod 6 makes 3 divide n + 2).  The fixed working set
    ``_SCAN_WORKING_SET`` comes on top."""
    rough = min(_threshold(N, alpha1)[0], _threshold(N, alpha2)[0]) >= 3
    s, slots = _packing(N, [5] if rough else [1, 5])
    transform = _transform_len(s * slots, s * slots)
    return (_table_bytes(table_limit) + 2 * (N + 1) + 2 * s * slots + 5 * transform * 8
            + _SCAN_WORKING_SET)


def exceptional_scan(
    N: int,
    k1: float,
    k2: float,
    alpha1: float,
    alpha2: float,
    table: PrimeTable,
    sample_count: int = 512,
    seed: int = 0,
    cutoff: int = 10_000,
) -> ScanReport:
    """Scan m = 4 mod 6 up to N for missing two-prime representations.

    Counts the pairs of the two indicator masks (primes n with n+2
    almost-prime and rough past N^alpha_i) exactly on 0..N with
    ``_class_counts``: one certified product of the packed +-1 mod 6
    slices (class 5 only once n+2 is rough past 3), plus n in {2, 3} as
    shifted copies.  Every m with zero count is re-verified by a direct
    pair search.  ``trace`` holds the product's engine facts and the
    number of m re-verified.  Prediction ratios against the
    appropriate singular series times m/log^2 m are attached for a seeded
    sample of m (all even m in a plain scan, else m = 4 mod 6); the
    proportionality constant is fitted, not assumed.
    """
    if N < 4 or sample_count < 1:
        raise ValueError(f"need N >= 4 and samples >= 1, got N={N}, samples={sample_count}")
    if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
        raise ValueError(f"roughness exponents must be finite, got {alpha1}, {alpha2}")
    if table.limit < N + 2:
        raise ValueError("prime table must cover N + 2")
    z1, c1 = _threshold(N, alpha1)
    z2, c2 = _threshold(N, alpha2)
    mask1, mask2 = _almost_twin_supports(N, table, (k1, z1), (k2, z2))
    counts, trace = _class_counts(mask1, mask2)

    exceptional = (np.nonzero(counts[4 : N + 1 : 6] == 0)[0] * 6 + 4).tolist()
    verified = sum(_direct_pair_count(m, mask1, mask2) for m in exceptional) == 0
    trace["reverified"] = len(exceptional)

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
    fitted = _median(good) if good.size else float("nan")
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
        trace=trace,
    )
