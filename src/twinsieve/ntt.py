"""Convolution engines: an exact integer NTT, and a double-precision FFT
whose roundoff ``roundoff_bound`` bounds a priori.

The NTT's two word-sized primes p = c * 2^27 + 1 support transform lengths
up to 2^27; true convolution values are recovered by CRT as long as they
stay below p1 * p2 ~ 4.6e18, and by p1 alone below p1.  The primes come
from the smaller of two output bounds, min(len) * max(a) * max(b) and the
Cauchy-Schwarz bound |a|_2 |b|_2 (``exact_primes``).

No index permutation runs: the forward transform decimates in frequency
(natural order in, bit-reversed out), the pointwise product runs in
bit-reversed order and the inverse decimates in time (bit-reversed in,
natural out).  Each stage reads a strided view of one cached twiddle
table per (prime, size, direction).  All butterflies run vectorized and in
place on int64: only the twiddle product is reduced by ``%``, sums and
differences by one conditional subtract or add (``_reduce``), and products
stay under 2^63 because both primes are < 2^31.1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import arith

P1 = 2013265921  # 15 * 2^27 + 1
P2 = 2281701377  # 17 * 2^27 + 1
MAX_EXACT = P1 * P2
MAX_TRANSFORM = 1 << 27


class ReconstructionOverflow(ValueError):
    """Convolution values may exceed the CRT range; split the inputs."""


_ROOTS = {p: arith._primitive_root(p, 1) for p in (P1, P2)}


def _pow_array(base: int, n: int, p: int) -> np.ndarray:
    """base^0 .. base^(n-1) mod p via doubling (O(log n) vector ops)."""
    out = np.ones(n, dtype=np.int64)
    filled = 1
    while filled < n:
        mult = pow(base, filled, p)
        take = min(filled, n - filled)
        out[filled : filled + take] = out[:take] * mult % p
        filled *= 2
    return out


@lru_cache(maxsize=4)  # both primes, both directions, at one size
def _twiddles(p: int, n: int, inverse: bool) -> np.ndarray:
    """w^0 .. w^(n/2 - 1) mod p for the n-th root of unity w mod p (its
    inverse when ``inverse``); the stage of length L reads ``T[:: n // L]``,
    the powers of the L-th root."""
    root = pow(_ROOTS[p], (p - 1) // n, p)
    if inverse:
        root = pow(root, p - 2, p)
    table = _pow_array(root, n // 2, p)
    table.flags.writeable = False  # cached: no caller may change it
    return table


def _reduce(x: np.ndarray, shifted: np.ndarray, out: np.ndarray) -> None:
    """out = x mod p for x in [0, 2p) with shifted = x - p, or x in (-p, p)
    with shifted = x + p: the smaller of the two as uint64, where the
    negative one wraps past 2^63 (one pass where ``x -= p * (x >= p)`` takes
    three)."""
    np.minimum(x.view(np.uint64), shifted.view(np.uint64), out=out.view(np.uint64))


def _stage(a: np.ndarray, length: int, table: np.ndarray):
    """(lo, hi, twiddle) views of the stage with block length ``length``:
    the block halves as 2-D views, or for half <= 4 one long strided pair
    per column j, as 2-D views there run numpy's inner loop a few elements
    at a time.  A twiddle of None is 1."""
    half = length // 2
    w = table[:: len(a) // length]
    if half <= 4:
        for j in range(half):
            yield a[j::length], a[j + half :: length], int(w[j]) if j else None
    else:
        blocks = a.reshape(-1, length)
        yield blocks[:, :half], blocks[:, half:], w


def _dif_forward(a: np.ndarray, p: int) -> None:
    """In-place forward transform of a (length a power of two, values in
    [0, p)): natural order in, bit-reversed order out."""
    table = _twiddles(p, len(a), False)
    length = len(a)
    while length >= 2:
        for lo, hi, w in _stage(a, length, table):
            diff = lo - hi  # in (-p, p): the % below makes it nonnegative
            lo += hi
            _reduce(lo, lo - p, lo)
            if w is not None:
                diff *= w
            np.remainder(diff, p, out=hi)
        length //= 2


def _dit_inverse(a: np.ndarray, p: int) -> None:
    """In-place inverse of ``_dif_forward``, scaled by 1/n: bit-reversed
    order in, natural order out."""
    n = len(a)
    table = _twiddles(p, n, True)
    length = 2
    while length <= n:
        for lo, hi, w in _stage(a, length, table):
            if w is not None:
                hi *= w
                hi %= p
            total = lo + hi
            np.subtract(lo, hi, out=hi)
            _reduce(hi, hi + p, hi)
            _reduce(total, total - p, lo)
        length *= 2
    a *= pow(n, p - 2, p)
    a %= p


def _forward(a: np.ndarray, p: int, size: int) -> np.ndarray:
    f = np.zeros(size, dtype=np.int64)
    np.remainder(a, p, out=f[: len(a)])
    _dif_forward(f, p)
    return f


def _convolve_mod(a: np.ndarray, b: np.ndarray, p: int, size: int) -> np.ndarray:
    """a * b mod p; ``b is a`` (a square) takes one forward transform."""
    fa = _forward(a, p, size)
    fb = fa if b is a else _forward(b, p, size)
    fa *= fb  # both in bit-reversed order
    fa %= p
    _dit_inverse(fa, p)
    return fa


def _transform_len(len_a: int, len_b: int) -> int:
    """The power-of-two length of the transforms of an a * b product: the
    least 2^k >= len_a + len_b - 1, the length both engines run."""
    return 1 << max(len_a + len_b - 2, 0).bit_length()


def _square_sum(a: np.ndarray) -> int:
    """sum(a^2), exactly: in int64 when it cannot wrap, else in Python ints."""
    a = np.asarray(a, dtype=np.int64)
    top = int(a.max(initial=0))
    if len(a) * top * top < 2**63:
        return int(np.dot(a, a))
    return sum(x * x for x in a.tolist())


def exact_primes(a: np.ndarray, b: np.ndarray) -> tuple[int, ...]:
    """The NTT primes ``exact_convolve`` runs for nonnegative a and b.

    The output bound is the smaller of min(len) * max(a) * max(b) and the
    Cauchy-Schwarz bound: c_k = sum a_i b_(k-i) <= |a|_2 |b|_2, and c_k is
    an integer, so c_k <= isqrt(sum a^2 * sum b^2).  Below P1 one prime
    gives the values directly, else P1 and P2 are combined by CRT, and past
    the CRT range ReconstructionOverflow is raised.
    """
    crude = min(len(a), len(b)) * int(a.max(initial=0)) * int(b.max(initial=0))
    bound = min(crude, math.isqrt(_square_sum(a) * _square_sum(b)))
    if bound >= MAX_EXACT:
        raise ReconstructionOverflow(
            f"output bound {bound} exceeds CRT range {MAX_EXACT}; split the inputs"
        )
    return (P1,) if bound < P1 else (P1, P2)


def exact_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact nonnegative-integer convolution of two int arrays.

    Result length len(a) + len(b) - 1; ``exact_primes`` picks one prime or
    two (with CRT), or raises ReconstructionOverflow past the CRT range.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("exact mode expects nonnegative integer inputs")
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    primes = exact_primes(a, b)
    out_len = len(a) + len(b) - 1
    size = _transform_len(len(a), len(b))
    if size > MAX_TRANSFORM:
        raise ValueError("transform size exceeds 2^27")
    if np.array_equal(a, b):
        b = a  # a square: one forward transform per prime
    r1 = _convolve_mod(a, b, P1, size)[:out_len]
    if len(primes) == 1:
        return r1  # every output lies in [0, bound] within [0, P1): no CRT
    r2 = _convolve_mod(a, b, P2, size)[:out_len]
    # CRT: x = r1 + P1 * ((r2 - r1) * inv(P1) mod P2); all interim products
    # stay below 2^62
    inv_p1 = pow(P1, P2 - 2, P2)
    t = (r2 - r1) % P2 * inv_p1 % P2
    return r1 + P1 * t


def roundoff_bound(a: np.ndarray, b: np.ndarray) -> float:
    """A-priori bound on max |float_convolve(a, b) - a * b| (C. Percival,
    Math. Comp. 72 (2003)): |a|_2 |b|_2 ((1+e)^3k (1+e sqrt5)^(3k+1)
    (1+2e)^3k - 1) for a length-2^k radix-2 FFT, e = 2^-53.  Below 1/4 the
    rounded float result is exact; the NTT oracle checks numpy's FFT
    against it.  np.linalg.norm casts to float64 (int64 squares can wrap).
    """
    k = _transform_len(len(a), len(b)).bit_length() - 1  # float_convolve's size is 2^k
    eps = 2.0**-53
    growth = math.expm1(3 * k * (math.log1p(eps) + math.log1p(2 * eps))
                        + (3 * k + 1) * math.log1p(eps * math.sqrt(5)))
    return float(np.linalg.norm(a) * np.linalg.norm(b) * growth)


def float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FFT convolution in doubles; ``roundoff_bound`` bounds its error.

    Each input is cast to float64 only for its own transform, and the
    second half-spectrum lives only for the pointwise product."""
    out_len = len(a) + len(b) - 1
    size = _transform_len(len(a), len(b))
    fa = np.fft.rfft(np.asarray(a, dtype=np.float64), size)
    fa *= np.fft.rfft(np.asarray(b, dtype=np.float64), size)
    return np.fft.irfft(fa, size)[:out_len]
