"""Dirichlet characters, Gauss sums with gcd restriction, and the local kernel F.

Characters mod q are stored through their prime-power components: one
exponent per cyclic generator of (Z/p^a)^x, the smallest primitive root
for odd p and {-1, 5} at 2^a.  This makes multiplication, conjugation,
evaluation and enumeration one loop over the generators, deterministic
in order; only conductors treat 2 apart.  One
evaluator, ``_character_values``, turns discrete logs into values, for a
whole stack of characters mod q in one pass; the value tables of one
character, of the primitive characters of a conductor and of a whole
group are all stacks of ``_value_rows``.

The kernel F(chi1, chi2, j1, j2, m) couples two restricted Gauss sums
against an additive phase.  It is computed two independent ways, each for
a grid of restrictions (j1, j2) and every m mod q at once, with the tables
of one (j1, j2) as 1x1 views: literal summation (the oracle) and a factored
route through the Ramanujan fold at each prime power; the two share only
the restricted value rows.  The singular series reads neither, only the
closed-form local densities of ``local_sigma``.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import _factor_pp, _primitive_root, _radical, _valuation

__all__ = [
    "DirichletCharacter",
    "ExceptionalZeroHypothesis",
    "character_group",
    "primitive_characters",
    "principal_character",
    "quadratic_character",
    "gauss_sum",
    "gauss_sum_formula",
    "gauss_sum_formula_all",
    "modified_gauss_sum",
    "F_bruteforce",
    "F_bruteforce_all_m",
    "F_bruteforce_grid",
    "F_factored",
    "F_factored_all_m",
    "F_factored_grid",
    "local_sigma",
    "u_P",
    "festi_bound_check",
]

GROUP_BUDGET = 10**6


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change what later readers get."""
    a.flags.writeable = False
    return a


def _generator_orders(p: int, alpha: int) -> tuple[int, ...]:
    """Orders of the generators of (Z/p^alpha)^x: a primitive root for odd p;
    -1 (alpha >= 2) and 5 (alpha >= 3) at 2^alpha."""
    if p != 2:
        return ((p - 1) * p ** (alpha - 1),)
    if alpha == 1:
        return ()
    if alpha == 2:
        return (2,)
    return (2, 2 ** (alpha - 2))


@lru_cache(maxsize=512)  # 16 B x p^alpha each at most: 8 MiB if p^alpha <= 1024
def _dlog_tables(p: int, alpha: int) -> tuple[np.ndarray, ...]:
    """One read-only table per generator of (Z/p^alpha)^x: dl[x] is x's exponent
    on that generator (x = prod g_i^dl_i[x] mod p^alpha), -1 off the units."""
    mod = p**alpha
    orders = _generator_orders(p, alpha)
    gens = (_primitive_root(p, alpha),) if p != 2 else (mod - 1, 5)[: len(orders)]
    x = np.ones((), dtype=np.int64)  # x[e_1, ...] = prod g_i^e_i mod p^alpha
    for g, o in zip(gens, orders):
        x = np.multiply.outer(x, [pow(g, k, mod) for k in range(o)]) % mod
    tables = [np.full(mod, -1, dtype=np.int64) for _ in orders]
    for table, e in zip(tables, np.indices(orders)):
        table[x] = e
    return tuple(_read_only(t) for t in tables)


@dataclass(frozen=True)
class _Part:
    """A character's component mod p^alpha: one exponent per generator of
    (Z/p^alpha)^x, each in [0, order) (see _generator_orders)."""

    p: int
    alpha: int
    exponents: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.alpha

    @property
    def orders(self) -> tuple[int, ...]:
        return _generator_orders(self.p, self.alpha)

    def with_exponents(self, exponents) -> "_Part":
        """The component at the same p^alpha with ``exponents`` reduced mod the orders."""
        return _Part(self.p, self.alpha, tuple(e % o for e, o in zip(exponents, self.orders)))


def _part_specs(q: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(p, alpha, generator orders) per prime power of q: odd primes increasing, then 2."""
    return tuple(
        (p, a, _generator_orders(p, a))
        for p, a in sorted(_factor_pp(q), key=lambda pa: pa[0] == 2)
    )


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q given by its prime-power components (odd primes first, then 2).

    Most caches in this module are keyed by characters, so the hash is
    computed on first use and kept on the object (the generated dataclass
    hash walks the nested parts on every lookup).  The constructors
    ``principal_character``, ``quadratic_character`` and ``component`` are
    memoised, so equal characters they return are one object and a cache
    lookup settles on identity before it compares fields.
    """

    q: int
    parts: tuple[_Part, ...]

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.q, self.parts))
            return h

    # -- evaluation ---------------------------------------------------------

    def value(self, n: int) -> complex:
        return complex(_value_table(self)[n % self.q])

    # -- structure ----------------------------------------------------------

    @property
    def is_principal(self) -> bool:
        return not any(e for part in self.parts for e in part.exponents)

    def order(self) -> int:
        out = 1
        for part in self.parts:
            for o, e in zip(part.orders, part.exponents):
                out = math.lcm(out, o // math.gcd(o, e))
        return out

    def is_real(self) -> bool:
        return self.order() <= 2

    @cached_property
    def conductor(self) -> int:
        """The conductor, from the component exponents; computed once per object."""
        out = 1
        for part in self.parts:
            if part.p == 2:
                e_minus, e_five = (*part.exponents, 0, 0)[:2]
                if e_five:
                    out *= 2 ** (part.alpha - _valuation(e_five, 2))
                elif e_minus:
                    out *= 4
            elif part.exponents[0]:
                (phi,), (e,) = part.orders, part.exponents
                out *= part.p ** (1 + _valuation(phi // math.gcd(phi, e), part.p))
        return out

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.q, tuple(part.with_exponents(-e for e in part.exponents) for part in self.parts)
        )

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.q != other.q:
            raise ValueError("can only multiply characters to the same modulus")
        return DirichletCharacter(
            self.q,
            tuple(
                a.with_exponents(x + y for x, y in zip(a.exponents, b.exponents))
                for a, b in zip(self.parts, other.parts)
            ),
        )

    @lru_cache(maxsize=2048)  # 1.6 kB each, with the character in its key: 3.2 MiB
    def component(self, modulus: int) -> "DirichletCharacter":
        """The character mod ``modulus`` in the factorization over prime powers.

        ``modulus`` must be a product of full prime-power parts of q.  Memoised:
        the same (character, modulus) gives the same object.
        """
        if self.q % modulus != 0 or math.gcd(modulus, self.q // modulus) != 1:
            raise ValueError(f"{modulus} is not a unitary divisor of {self.q}")
        return DirichletCharacter(
            modulus, tuple(part for part in self.parts if modulus % part.modulus == 0)
        )


def _character(q: int, exponents) -> DirichletCharacter:
    """The character mod q whose part at p^a has exponents(p, generator orders)."""
    return DirichletCharacter(
        q, tuple(_Part(p, a, exponents(p, orders)) for p, a, orders in _part_specs(q))
    )


@lru_cache(maxsize=1024)  # 1.2 kB each: 1.2 MiB
def principal_character(q: int) -> DirichletCharacter:
    return _character(q, lambda p, orders: (0,) * len(orders))


@lru_cache(maxsize=1024)  # 1.2 kB each: 1.2 MiB
def quadratic_character(q: int) -> DirichletCharacter:
    """Real character mod q: Legendre component at each odd prime, principal at 2."""
    return _character(
        q, lambda p, orders: (0,) * len(orders) if p == 2 else (orders[0] // 2,)
    )


@lru_cache(maxsize=64)  # phi(q) x 0.5 kB each: 8.8 MiB if q <= 300
def character_group(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, their exponents in lexicographic order."""
    if not 1 <= q <= GROUP_BUDGET:
        raise ValueError(f"q={q} outside enumeration budget [1, {GROUP_BUDGET}]")
    choices = [
        [_Part(p, a, exps) for exps in itertools.product(*map(range, orders))]
        for p, a, orders in _part_specs(q)
    ]
    return tuple(DirichletCharacter(q, parts) for parts in itertools.product(*choices))


@lru_cache(maxsize=64)  # 9 B x q each (bool mask, int64 units): 0.8 MiB if q <= 1500
def _unit_residues(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, units): the residues r mod q coprime to q, as a read-only mask and
    array; the mask has the multiples of each prime of q sieved out."""
    coprime = np.ones(q, dtype=bool)
    for p, _ in _factor_pp(q):
        coprime[::p] = False
    return _read_only(coprime), _read_only(np.flatnonzero(coprime))


def _character_values(q: int, chars, r) -> np.ndarray:
    """chi(r) for every chi of ``chars`` (all mod q) at a unit r mod q, or at an
    int array of units: the one evaluator, shape (len(chars), *shape(r)).

    The phases of the whole stack add exponent * dlog(r) / order over every
    generator of every prime-power component, then take one ``exp``.  A
    zero exponent adds 0.0 to a phase >= 0, which changes no bit, so each
    row has the floats of its character evaluated alone.
    """
    frac = np.zeros((len(chars), *np.shape(r)))
    for j, (p, alpha, orders) in enumerate(_part_specs(q)):
        for g, (o, dl) in enumerate(zip(orders, _dlog_tables(p, alpha))):
            e = np.array([chi.parts[j].exponents[g] for chi in chars], dtype=np.int64)
            frac += e.reshape(-1, *[1] * np.ndim(r)) * dl[r % p**alpha] / o
    out = np.multiply(frac, 2j * np.pi)
    return np.exp(out, out=out)


def _value_rows(q: int, chars) -> np.ndarray:
    """The value tables of ``chars`` (all mod q, possibly none), stacked in that
    order: a read-only C-contiguous (len(chars), q) array, 0 on the non-units."""
    coprime, units = _unit_residues(q)
    out = np.zeros((len(chars), q), dtype=np.complex128)
    out[:, coprime] = _character_values(q, chars, units)
    return _read_only(out)


@lru_cache(maxsize=4096)  # 16 B x q each: 18.75 MiB if q <= 300
def _value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(r) for every residue r mod q (0 on non-units), read-only: the
    one-row case of ``_value_rows``."""
    return _value_rows(chi.q, (chi,))[0]


def _primitive_exponents(p: int, alpha: int, orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The exponents, in lexicographic order, of the components mod p^alpha
    whose conductor is p^alpha: p does not divide e at an odd p (at alpha = 1
    that is e != 0); at 2^alpha, e_-1 = 1 at 4 and e_5 odd from 8 on; none
    at 2."""
    if p != 2:
        return [(e,) for e in range(orders[0]) if e % p]
    if alpha < 3:
        return [(1,)] if alpha == 2 else []
    return [(e_minus, e_five) for e_minus in range(2) for e_five in range(1, orders[1], 2)]


def primitive_characters(f: int) -> tuple[DirichletCharacter, ...]:
    """All primitive characters of conductor exactly f, in the order of
    ``character_group(f)``: the product of every prime-power part's
    primitive components."""
    choices = [
        [_Part(p, a, exps) for exps in _primitive_exponents(p, a, orders)]
        for p, a, orders in _part_specs(f)
    ]
    return tuple(DirichletCharacter(f, parts) for parts in itertools.product(*choices))


def _primitive_count(f: int) -> int:
    """len(primitive_characters(f)) without building a character: the product
    over p^a || f of phi(p^a) - phi(p^(a-1)), the primitive ones mod p^a."""
    return math.prod(p - 2 if a == 1 else p ** (a - 2) * (p - 1) ** 2 for p, a in _factor_pp(f))


class _BytesLRU:
    """Least-recently-used map from keys to arrays holding at most ``cap`` bytes
    of them; an array larger than ``cap`` is returned but not kept."""

    def __init__(self, cap: int):
        self.cap = cap
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()

    def get(self, key, build):
        """The array at ``key``, from ``build(key)`` on a miss."""
        if key in self._items:
            self._items.move_to_end(key)
            return self._items[key]
        value = build(key)
        if value.nbytes <= self.cap:
            self._items[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > self.cap:
                self.nbytes -= self._items.popitem(last=False)[1].nbytes
        return value


#: the stacked primitive tables by conductor: 8 MiB holds all of them for
#: f <= 162 at once (1.8 MiB for f <= 100); a larger cap mostly keeps tables of
#: large f that only their few multiples reuse, and raises the peak RSS
_PRIMITIVE_ROWS = _BytesLRU(8 * 2**20)


def _primitive_value_rows(f: int) -> np.ndarray:
    """``_value_rows(f, primitive_characters(f))``, kept in ``_PRIMITIVE_ROWS``:
    row i equals ``_value_table(primitive_characters(f)[i])`` bit for bit.
    A conductor f = 2 mod 4 has no primitive characters and no rows."""
    return _PRIMITIVE_ROWS.get(f, lambda f: _value_rows(f, primitive_characters(f)))


# ---------------------------------------------------------------------------
# Gauss sums


def _phase_sums(x: np.ndarray) -> np.ndarray:
    """sum over b mod q of x[..., b] e_q(ab), for every a mod q (q = the last
    axis's length): the one direct sum of this module, a length-q DFT of
    each row.  A row of a stack has the bits of that row transformed alone."""
    return np.fft.ifft(x, axis=-1, norm="forward")


def gauss_sum(chi: DirichletCharacter, a: int) -> complex:
    """sum over units b mod q of chi(b) e_q(ab), by direct summation."""
    return modified_gauss_sum(chi, a, 0)


def gauss_sum_formula(chi: DirichletCharacter, a: int) -> complex:
    """c_chi(a) from the closed forms: gauss_sum_formula_all at a mod q."""
    return complex(gauss_sum_formula_all(chi)[a % chi.q])


def _local_gauss_formulas(parts) -> np.ndarray:
    """Closed-form c values for every residue mod p^alpha, one row per part of
    ``parts`` (components of characters, all at one p^alpha).

    A non-principal component with conductor p^alpha0 lives only where
    v_p(r) = alpha - alpha0: c(u p^(alpha-alpha0)) = conj chi(u)
    p^(alpha-alpha0) tau(chi*) at the units u < p^alpha0, where the
    primitive part chi* agrees with chi, so one evaluation per conductor
    exponent gives both the values and tau(chi*).  The principal component
    gives the Ramanujan sum.  tau is summed row by row, not by a matrix
    product, so a row has the bits of its part built alone.
    """
    p, alpha, mod = parts[0].p, parts[0].alpha, parts[0].modulus
    comps = [DirichletCharacter(mod, (part,)) for part in parts]
    alpha0 = np.array([_valuation(comp.conductor, p) for comp in comps])
    out = np.zeros((len(parts), mod), dtype=np.complex128)
    principal = np.flatnonzero(alpha0 == 0)
    out[principal, 0] = (p - 1) * p ** (alpha - 1)
    out[np.ix_(principal, p ** (alpha - 1) * np.arange(1, p))] = -(p ** (alpha - 1))
    for a0 in set(alpha0.tolist()) - {0}:
        rows = np.flatnonzero(alpha0 == a0)
        units = _unit_residues(p**a0)[1]
        vals = _character_values(mod, [comps[i] for i in rows], units)
        tau = (vals * np.exp(2j * np.pi * units / p**a0)).sum(axis=1)
        out[np.ix_(rows, units * p ** (alpha - a0))] = (
            np.conj(vals) * p ** (alpha - a0) * tau[:, None]
        )
    return out


def _gauss_formula_rows(chars) -> np.ndarray:
    """c_chi(a) for every shift a mod q, one row per character of ``chars`` (all mod q).

    Each row is assembled from the prime-power closed forms of
    _local_gauss_formulas, one stack per prime power, glued with the
    twisted-argument multiplicativity c(a) = prod_i c_i(inv(q/q_i) * a).
    """
    q = chars[0].q
    out = np.ones((len(chars), q), dtype=np.complex128)
    a = np.arange(q)
    for i, part in enumerate(chars[0].parts):
        mod = part.modulus
        inv = pow(q // mod, -1, mod)
        out *= _local_gauss_formulas([chi.parts[i] for chi in chars])[:, (inv * a) % mod]
    return out


def gauss_sum_formula_all(chi: DirichletCharacter) -> np.ndarray:
    """c_chi(a) for every shift a mod q from the closed forms: one row of
    _gauss_formula_rows."""
    return _gauss_formula_rows((chi,))[0]


@lru_cache(maxsize=64)  # q bytes each: 19 kB if q <= 300
def _restriction_mask(q: int, j: int) -> np.ndarray:
    """Residues b mod q with (b+2, rad q) = (j, rad q), as a read-only mask."""
    rad = _radical(q)
    return _read_only(np.gcd(np.arange(q) + 2, rad) == math.gcd(j, rad))


def _check_restrictions(q: int, js) -> None:
    """Refuse a restriction j of ``js`` that is neither 0 nor a divisor of rad(q)."""
    rad = _radical(q)
    for j in js:
        if j != 0 and rad % j != 0:
            raise ValueError(f"j={j} does not divide rad(q)={rad}")


def modified_gauss_sum(chi: DirichletCharacter, a: int, j: int) -> complex:
    """Gauss sum over units b with (b+2, rad q) = (j, rad q); j=0 lifts the
    restriction: entry a mod q of its row of _restricted_c_rows."""
    _check_restrictions(chi.q, (j,))
    return complex(_restricted_c_rows(chi, (j,))[0, a % chi.q])


def _restricted_rows(chi: DirichletCharacter, js) -> np.ndarray:
    """chi(b) on the b of each restriction j of ``js`` and 0 elsewhere (j=0
    means unrestricted): the value rows both routes of F start from, (len(js), q)."""
    q = chi.q
    keep = [np.ones(q, dtype=bool) if j == 0 else _restriction_mask(q, j) for j in js]
    return np.where(keep, _value_table(chi), 0)


def _restricted_c_rows(chi: DirichletCharacter, js) -> np.ndarray:
    """c_chi(a, j) for all a mod q by direct summation, one row per j of ``js``
    (j=0 means unrestricted), as a (len(js), q) array; each row has the bits
    of its j summed alone."""
    return _phase_sums(_restricted_rows(chi, js))


# ---------------------------------------------------------------------------
# the local kernel F


def _check_pair(chi1: DirichletCharacter, chi2: DirichletCharacter):
    if chi1.q != chi2.q:
        raise ValueError("characters must share a modulus")


def F_bruteforce(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    j1: int,
    j2: int,
    m: int,
) -> complex:
    """F by literal summation over units a: F_bruteforce_all_m at m mod q."""
    return complex(F_bruteforce_all_m(chi1, chi2, j1, j2)[m % chi1.q])


def F_bruteforce_all_m(
    chi1: DirichletCharacter, chi2: DirichletCharacter, j1: int, j2: int
) -> np.ndarray:
    """F for every m mod q by literal summation: the 1x1 view of F_bruteforce_grid."""
    return F_bruteforce_grid(chi1, chi2, (j1,), (j2,))[0, 0]


def F_bruteforce_grid(chi1: DirichletCharacter, chi2: DirichletCharacter, js1, js2) -> np.ndarray:
    """F(chi1, chi2, j1, j2, m) for every j1 of ``js1``, j2 of ``js2`` and m mod q
    by literal summation over units a: the oracle route, shape (len js1, len js2, q).

    Every (j1, j2) cell is its own transform, so it has the bits of that
    cell summed alone."""
    _check_pair(chi1, chi2)
    q = chi1.q
    _check_restrictions(q, (*js1, *js2))
    prod = _restricted_c_rows(chi1, js1)[:, None] * _restricted_c_rows(chi2, js2)
    prod[..., ~_unit_residues(q)[0]] = 0
    # the sum of e_q(-am) prod(a) is the conjugate of the e_q(am) sum of conj(prod)
    return np.conj(_phase_sums(np.conj(prod)))


def _F_local(chi1: DirichletCharacter, chi2: DirichletCharacter, s1, s2) -> np.ndarray:
    """F at a prime power q = p^alpha by the Ramanujan fold, for every
    restriction state of ``s1`` and ``s2`` (0, 1 or p) and every m mod q.

    Summing e_q(a(b1 + b2 - m)) over the units a first gives the Ramanujan
    sum r_q(n) = q [q | n] - (q/p) [(q/p) | n], so with K the cyclic
    convolution of the two restricted value rows and K' its fold mod q/p,
    F(m) = q K(m) - (q/p) K'(m mod q/p).  K is one FFT per stack and one
    inverse FFT of their product; no Gauss sum is formed.
    """
    q = chi1.q
    p = _radical(q)
    spectra = [np.fft.fft(_restricted_rows(chi, s)) for chi, s in ((chi1, s1), (chi2, s2))]
    K = np.fft.ifft(spectra[0][:, None] * spectra[1])
    folded = K.reshape(len(s1), len(s2), p, q // p).sum(axis=2)
    return q * K - q // p * np.tile(folded, p)


def F_factored(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    j1: int,
    j2: int,
    m: int,
) -> complex:
    """F as a product of prime-power local values: F_factored_all_m at m mod q."""
    return complex(F_factored_all_m(chi1, chi2, j1, j2)[m % chi1.q])


def F_factored_all_m(
    chi1: DirichletCharacter, chi2: DirichletCharacter, j1: int, j2: int
) -> np.ndarray:
    """F for every m mod q from local values: the 1x1 view of F_factored_grid."""
    return F_factored_grid(chi1, chi2, (j1,), (j2,))[0, 0]


def _distinct(keys: list) -> tuple[list, list[int]]:
    """The distinct values of ``keys``, ascending, and each key's index among them."""
    values = sorted(set(keys))
    return values, [values.index(k) for k in keys]


def F_factored_grid(chi1: DirichletCharacter, chi2: DirichletCharacter, js1, js2) -> np.ndarray:
    """F for every j1 of ``js1``, j2 of ``js2`` and m mod q, shape (len js1,
    len js2, q): the product of the components' local all-m tables.

    F is exactly 0 at a square prime power not matched by both conductors.
    Elsewhere, at p^alpha a restriction j acts only through its state, 0 for
    j = 0 and gcd(j, p) otherwise, so each component folds one local table
    per pair of states that occurs (_F_local) and gathers them into the grid.
    """
    _check_pair(chi1, chi2)
    q = chi1.q
    _check_restrictions(q, (*js1, *js2))
    out = np.ones((len(js1), len(js2), q), dtype=np.complex128)
    m = np.arange(q)
    for part in chi1.parts:
        p, mod = part.p, part.modulus
        comp1, comp2 = chi1.component(mod), chi2.component(mod)
        if part.alpha > 1 and min(comp1.conductor, comp2.conductor) < mod:
            return np.zeros_like(out)  # an unmatched square prime power
        (s1, i1), (s2, i2) = (_distinct([j and math.gcd(j, p) for j in js]) for js in (js1, js2))
        out *= _F_local(comp1, comp2, s1, s2)[..., m % mod][i1][:, i2]
    return out


# ---------------------------------------------------------------------------
# exceptional hypotheses and the closed-form local densities


@dataclass(frozen=True)
class ExceptionalZeroHypothesis:
    """Synthetic (r, beta, chi) triple driving the exceptional main-term branch.

    chi is the real primitive quadratic character mod r.  The modulus must
    be 2^t times an odd squarefree number with t in {0, 2, 3}.
    """

    r: int
    beta: float
    chi: DirichletCharacter

    @classmethod
    def build(cls, r: int, beta: float) -> "ExceptionalZeroHypothesis":
        # beta = 1 is admitted as the degenerate endpoint used in tests
        if not 0 < beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if r < 3:
            raise ValueError("r must be at least 3")
        t = _valuation(r, 2)
        rr = r >> t
        if t not in (0, 2, 3):
            raise ValueError(f"2-adic valuation of r must be 0, 2 or 3, got {t}")
        pairs = _factor_pp(rr)
        if any(e > 1 for _, e in pairs):
            raise ValueError("odd part of r must be squarefree")
        parts = [_Part(p, 1, ((p - 1) // 2,)) for p, _ in pairs]
        if t == 2:
            parts.append(_Part(2, 2, (1,)))
        elif t == 3:
            parts.append(_Part(2, 3, (0, 1)))  # the even character mod 8
        chi = DirichletCharacter(r, tuple(parts))
        return cls(r=r, beta=beta, chi=chi)

    @property
    def t(self) -> int:
        return _valuation(self.r, 2)

    def odd_primes(self) -> tuple[int, ...]:
        return tuple(part.p for part in self.chi.parts if part.p != 2)

    def legendre(self, x: int, p: int) -> int:
        """chi's component at odd p, i.e. the Legendre symbol (x/p)."""
        x %= p
        if x == 0:
            return 0
        v = pow(x, (p - 1) // 2, p)
        return 1 if v == 1 else -1


def local_sigma(
    kind: str,
    p: int,
    m: int,
    hyp: ExceptionalZeroHypothesis | None = None,
) -> float:
    """Closed-form local density at p: plain, chi-twisted, or doubly twisted.

    kind "sigma" is F(principal, principal); "sigma_prime" pairs the
    principal character with the exceptional one; "sigma_tilde" pairs the
    exceptional character with itself (at p = 2 this is evaluated literally
    at modulus 2^t, the only case without a stated closed form).
    """
    if kind == "sigma":
        if p == 2:
            return 1.0 if m % 2 == 0 else -1.0
        if m % p == 0 or (m + 4) % p == 0:
            return float(p - 4)
        if (m + 2) % p == 0:
            return float(2 * p - 4)
        return -4.0
    if hyp is None:
        raise ValueError(f"kind={kind!r} requires an exceptional hypothesis")

    # Both twisted densities come from expanding F through the four
    # unrestricted Gauss-sum pieces and the conductor reduction; with
    # chi quadratic mod p the pieces collapse to Legendre symbols and
    # Ramanujan sums.  (The case tables sometimes quoted for these two
    # densities disagree with literal summation; the forms below are
    # re-derived and are checked against F_bruteforce in the tests.)
    def ram(x: int) -> int:
        return p - 1 if x % p == 0 else -1

    if kind == "sigma_prime":
        if p == 2 or p not in hyp.odd_primes():
            raise ValueError("sigma_prime needs an odd prime dividing the exceptional modulus")
        ell = lambda x: hyp.legendre(x, p)
        return float(-p * (ell(m) + ell(m + 2)) + ell(-2) * (ram(m + 2) + ram(m + 4)))
    if kind == "sigma_tilde":
        if p == 2:
            t = hyp.t
            if t == 0:
                return 1.0
            comp = hyp.chi.component(2**t)
            val = F_bruteforce(comp, comp, 1, 1, m)
            if abs(val.imag) >= 1e-9:
                raise ValueError(f"sigma_tilde at 2 is not real: {val}")
            return float(val.real)
        if p not in hyp.odd_primes():
            raise ValueError("sigma_tilde needs a prime dividing the exceptional modulus")
        ell = lambda x: hyp.legendre(x, p)
        return float(ell(-1) * p * ram(m) - 2 * p * ell(-2 * (m + 2)) + ram(m + 4))
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# character-corrected progression indicator and the Festi-type bounds


def u_P(n: int | np.ndarray, a: int, q: int, P: float) -> float | np.ndarray:
    """Progression indicator minus its low-conductor character expansion.

    Equals 1_{n = a mod q} - (1/phi(q)) sum over characters mod q with
    conductor <= P of psi(n / a); vanishing mean over units, and 0 when
    every character is included (P >= q).  ``n`` is an int (a float comes
    back) or an int array (an array of the same shape comes back).  The
    kept characters are evaluated in one ``_character_values`` call, at the
    units among x = n / a alone, with no value table.
    """
    if math.gcd(a, q) != 1:
        raise ValueError("a must be coprime to q")
    if q == 1:
        return 0.0 if np.ndim(n) == 0 else np.zeros(np.shape(n))
    x = np.asarray(n % q * pow(a, -1, q) % q)  # an int n of any size reduces exactly
    chars = character_group(q)
    unit = np.gcd(x, q) == 1  # every character vanishes off the units
    xu = x[unit]
    if x.ndim == 0 and xu.size:
        xu = int(xu[0])  # numpy's scalar arithmetic is cheaper than 1-element arrays
    kept = [chi for chi in chars if chi.conductor <= P] if np.size(xu) else []
    total = np.zeros(np.shape(xu), dtype=np.complex128)
    for row in _character_values(q, kept, xu):
        total += row  # one row after another, where .sum(axis=0) adds pairwise
    val = np.where(x == 1, 1.0, 0.0)
    val[unit] -= total.real / len(chars)
    return float(val) if x.ndim == 0 else val


def _festi_bound(p: int, alpha: int, j1: int, j2: int, conj_pair: bool) -> np.ndarray:
    """The prime-power case bound on |F(chi1, chi2, j1, j2, m)| for every m mod p^alpha.

    Cases: 2^{2a} at p = 2; 2 p^{2a-1} when p divides j1 j2; otherwise
    p^{2a} - 3p^{2a-1} + 1 for a conjugate pair at p^a | m, else
    p^{2a-1/2} + 3 p^{2a-1}.
    """
    q = p**alpha
    if p == 2:
        return np.full(q, 2.0 ** (2 * alpha))
    if (j1 * j2) % p == 0:
        return np.full(q, 2.0 * p ** (2 * alpha - 1))
    bound = np.full(q, p ** (2 * alpha - 0.5) + 3.0 * p ** (2 * alpha - 1))
    if conj_pair:
        bound[0] = p ** (2 * alpha) - 3 * p ** (2 * alpha - 1) + 1
    return bound


def festi_bound_check(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    j1: int,
    j2: int,
    m: int,
    slack: float = 1e-6,
) -> bool:
    """Check |F| against the stated prime-power case bound (_festi_bound)."""
    q = chi1.q
    fac = _factor_pp(q)
    if len(fac) != 1:
        raise ValueError("festi_bound_check needs a prime-power modulus")
    p, alpha = fac[0]
    bound = _festi_bound(p, alpha, j1, j2, chi1 == chi2.conjugate())[m % q]
    return abs(F_bruteforce(chi1, chi2, j1, j2, m)) <= bound + slack
