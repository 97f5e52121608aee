"""Convolution engines: an exact integer NTT, and a double-precision FFT
whose roundoff ``roundoff_bound`` bounds a priori.

The NTT's two word-sized primes p = c * 2^27 + 1 support transform lengths
up to 2^27; true convolution values are recovered by CRT as long as they
stay below p1 * p2 ~ 4.6e18, and by p1 alone below p1.  All butterflies
run vectorized on int64 (products stay under 2^63 because both primes are
< 2^31.1).
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


@lru_cache(maxsize=4)
def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.flags.writeable = False  # cached: no caller may change it
    return rev


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


def _ntt(a: np.ndarray, p: int, invert: bool) -> np.ndarray:
    n = len(a)
    a = a[_bit_reverse_permutation(n)].copy()
    root = pow(_ROOTS[p], (p - 1) // n, p)
    if invert:
        root = pow(root, p - 2, p)
    length = 2
    while length <= n:
        w_len = pow(root, n // length, p)
        half = length // 2
        w = _pow_array(w_len, half, p)
        blocks = a.reshape(-1, length)
        lo = blocks[:, :half].copy()
        hi = blocks[:, half:] * w % p
        blocks[:, :half] = (lo + hi) % p
        blocks[:, half:] = (lo - hi) % p
        a = blocks.reshape(-1)
        length *= 2
    if invert:
        n_inv = pow(n, p - 2, p)
        a = a * n_inv % p
    return a


def _forward(a: np.ndarray, p: int, size: int) -> np.ndarray:
    f = np.zeros(size, dtype=np.int64)
    f[: len(a)] = a % p
    return _ntt(f, p, invert=False)


def _convolve_mod(a: np.ndarray, b: np.ndarray, p: int, size: int) -> np.ndarray:
    """a * b mod p; ``b is a`` (a square) takes one forward transform."""
    fa = _forward(a, p, size)
    fb = fa if b is a else _forward(b, p, size)
    return _ntt(fa * fb % p, p, invert=True)


def exact_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact nonnegative-integer convolution of two int arrays.

    Result length len(a) + len(b) - 1.  The a-priori output bound
    min(len) * max(a) * max(b) picks the primes: below P1 one prime gives
    the values directly, else two are combined by CRT, and past the CRT
    range ReconstructionOverflow is raised.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("exact mode expects nonnegative integer inputs")
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    bound = (
        int(min(len(a), len(b)))
        * int(a.max(initial=0))
        * int(b.max(initial=0))
    )
    if bound >= MAX_EXACT:
        raise ReconstructionOverflow(
            f"output bound {bound} exceeds CRT range {MAX_EXACT}; split the inputs"
        )
    out_len = len(a) + len(b) - 1
    size = 1
    while size < out_len:
        size *= 2
    if size > MAX_TRANSFORM:
        raise ValueError("transform size exceeds 2^27")
    if np.array_equal(a, b):
        b = a  # a square: one forward transform per prime
    r1 = _convolve_mod(a, b, P1, size)[:out_len]
    if bound < P1:
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
    k = max(len(a) + len(b) - 2, 0).bit_length()  # float_convolve's size is 2^k
    eps = 2.0**-53
    growth = math.expm1(3 * k * (math.log1p(eps) + math.log1p(2 * eps))
                        + (3 * k + 1) * math.log1p(eps * math.sqrt(5)))
    return float(np.linalg.norm(a) * np.linalg.norm(b) * growth)


def float_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FFT convolution in doubles; ``roundoff_bound`` bounds its error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out_len = len(a) + len(b) - 1
    size = 1
    while size < out_len:
        size *= 2
    fa = np.fft.rfft(a, size)
    fa *= np.fft.rfft(b, size)
    return np.fft.irfft(fa, size)[:out_len]
