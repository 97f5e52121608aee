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
route through prime-power local values.  The singular series reads
neither, only the closed-form local densities of ``local_sigma``.
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
#: largest prime-power modulus at which F falls back to literal summation
F_BRUTE_CAP = 4096


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change what later readers get."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=512)
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


@lru_cache(maxsize=512)
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


@lru_cache(maxsize=1024)
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

    @lru_cache(maxsize=2048)
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


@lru_cache(maxsize=1024)
def principal_character(q: int) -> DirichletCharacter:
    return _character(q, lambda p, orders: (0,) * len(orders))


@lru_cache(maxsize=1024)
def quadratic_character(q: int) -> DirichletCharacter:
    """Real character mod q: Legendre component at each odd prime, principal at 2."""
    return _character(
        q, lambda p, orders: (0,) * len(orders) if p == 2 else (orders[0] // 2,)
    )


@lru_cache(maxsize=64)
def character_group(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, their exponents in lexicographic order."""
    if not 1 <= q <= GROUP_BUDGET:
        raise ValueError(f"q={q} outside enumeration budget [1, {GROUP_BUDGET}]")
    choices = [
        [_Part(p, a, exps) for exps in itertools.product(*map(range, orders))]
        for p, a, orders in _part_specs(q)
    ]
    return tuple(DirichletCharacter(q, parts) for parts in itertools.product(*choices))


@lru_cache(maxsize=64)
def _unit_residues(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, units): the residues r mod q coprime to q, as a read-only mask and array."""
    r = np.arange(q)
    coprime = np.gcd(r, q) == 1
    return _read_only(coprime), _read_only(r[coprime])


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
            frac = frac + e.reshape(-1, *[1] * np.ndim(r)) * dl[r % p**alpha] / o
    return np.exp(2j * np.pi * frac)


def _value_rows(q: int, chars) -> np.ndarray:
    """The value tables of ``chars`` (all mod q, possibly none), stacked in that
    order: a read-only C-contiguous (len(chars), q) array, 0 on the non-units."""
    coprime, units = _unit_residues(q)
    out = np.zeros((len(chars), q), dtype=np.complex128)
    out[:, coprime] = _character_values(q, chars, units)
    return _read_only(out)


@lru_cache(maxsize=4096)
def _value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(r) for every residue r mod q (0 on non-units), read-only: the
    one-row case of ``_value_rows``."""
    return _value_rows(chi.q, (chi,))[0]


@lru_cache(maxsize=128)
def primitive_characters(f: int) -> tuple[DirichletCharacter, ...]:
    """All primitive characters of conductor exactly f."""
    return tuple(chi for chi in character_group(f) if chi.conductor == f)


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


#: the phase matrices by q: 32 MiB keeps one of any q <= 1448 (16 q^2 bytes);
#: a larger one, up to q = F_BRUTE_CAP, is built for its call and let go
_PHASE_MATRICES = _BytesLRU(32 * 2**20)


def _phase_matrix(q: int) -> np.ndarray:
    """e_q(a*b) as a read-only q x q matrix (used by the brute-force oracles),
    kept in ``_PHASE_MATRICES``.

    Each entry is the q-th root of unity at a*b mod q: q complex
    exponentials instead of q^2, and the argument is reduced exactly.
    """

    def build(q: int) -> np.ndarray:
        a = np.arange(q)
        return _read_only(np.exp(2j * np.pi * a / q)[np.outer(a, a) % q])

    return _PHASE_MATRICES.get(q, build)


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


@lru_cache(maxsize=64)
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
    """Gauss sum over units b with (b+2, rad q) = (j, rad q); j=0 lifts the restriction."""
    q = chi.q
    _check_restrictions(q, (j,))
    vals = _value_table(chi)
    b = np.arange(q)
    if j != 0:
        keep = _restriction_mask(q, j)
        vals, b = vals[keep], b[keep]
    return complex(np.sum(vals * np.exp(2j * np.pi * (a % q) * b / q)))


@lru_cache(maxsize=128)
def _restricted_c_rows(chi: DirichletCharacter, js: tuple[int, ...]) -> np.ndarray:
    """c_chi(a, j) for all a mod q by direct summation, one row per j of ``js``
    (j=0 means unrestricted), as a read-only (len(js), q) array.

    The rows go through the phase matrix as a stack of matrix-vector
    products, so each row has the bits of its j summed alone."""
    q = chi.q
    keep = [np.ones(q, dtype=bool) if j == 0 else _restriction_mask(q, j) for j in js]
    rows = np.where(keep, _value_table(chi), 0)
    return _read_only((_phase_matrix(q) @ rows[..., None])[..., 0])


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

    Every (j1, j2) cell is its own matrix-vector product with the phase
    matrix, so it has the bits of that cell summed alone."""
    _check_pair(chi1, chi2)
    q = chi1.q
    _check_restrictions(q, (*js1, *js2))
    prod = _restricted_c_rows(chi1, tuple(js1))[:, None] * _restricted_c_rows(chi2, tuple(js2))
    prod[..., ~_unit_residues(q)[0]] = 0
    # sum of e_q(-am) prod(a) as conj(E @ conj(prod)): the same floats with one E per q
    return np.conj(_phase_matrix(q) @ np.conj(prod)[..., None])[..., 0]


@lru_cache(maxsize=1024)
def _F_local_odd_prime(chi1: DirichletCharacter, chi2: DirichletCharacter) -> np.ndarray:
    """F at an odd prime modulus p via Gauss-sum reductions, for each
    restriction state of j1 and of j2 (j = 0, gcd 1, gcd p, in that order)
    and every m mod p: a cached, read-only (3, 3, p) array.

    Each restricted slot is expanded through c(a,1) = c(a) - c(a,p) into the
    four primitive pieces:

      F(-,-,m) = tau(chi1) tau(chi2) c_{conj(chi1 chi2)}(-m)
      F(-,p,m) = chi2(-2) (p chi1(m+2) - (p-1) [chi1 principal])
      F(p,-,m) = chi1(-2) (p chi2(m+2) - (p-1) [chi2 principal])
      F(p,p,m) = chi1 chi2(-2) c_p(-(m+4))

    Each piece is read off for all m at once: tau and c from
    _gauss_formula_rows (the closed form, never the direct sums that check
    it), the value tables and the Ramanujan sum c_p.
    """
    p = chi1.q
    m = np.arange(p)
    v1, v2 = _value_table(chi1), _value_table(chi2)
    c1, c2, c12 = _gauss_formula_rows((chi1, chi2, (chi1 * chi2).conjugate()))
    pieces = np.array([
        [c1[1] * c2[1] * c12[-m % p],
         v2[-2 % p] * (p * v1[(m + 2) % p] - (p - 1) * chi1.is_principal)],
        [v1[-2 % p] * (p * v2[(m + 2) % p] - (p - 1) * chi2.is_principal),
         v1[-2 % p] * v2[-2 % p] * np.where((m + 4) % p == 0, p - 1, -1)],
    ])
    # j = 0 takes the unrestricted piece, gcd 1 the difference, gcd p the restricted one
    expand = np.array([[1, 0], [1, -1], [0, 1]])
    return _read_only(np.einsum("ax,by,xym->abm", expand, expand, pieces))


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

    At p^alpha a restriction j acts only through its state, 0 for j = 0 and
    gcd(j, p) otherwise, so each component builds one local table per pair
    of states that occurs and gathers them into the grid: zeros at a square
    prime power not matched by both conductors; the cached table of
    _F_local_odd_prime at odd primes; literal summation at the other prime
    powers up to F_BRUTE_CAP.  Past the cap a surviving primitive pair
    raises ValueError for every m, also where another component's local
    value vanishes (no closed form covers that corner).
    """
    _check_pair(chi1, chi2)
    q = chi1.q
    _check_restrictions(q, (*js1, *js2))
    out = np.ones((len(js1), len(js2), q), dtype=np.complex128)
    m = np.arange(q)
    for part in chi1.parts:
        p, alpha, mod = part.p, part.alpha, part.modulus
        comp1, comp2 = chi1.component(mod), chi2.component(mod)
        (s1, i1), (s2, i2) = (_distinct([j and math.gcd(j, p) for j in js]) for js in (js1, js2))
        if alpha > 1 and (comp1.conductor < mod or comp2.conductor < mod):
            local = np.zeros((len(s1), len(s2), mod))  # unmatched square prime powers
        elif p != 2 and alpha == 1:
            # the state s sits at index min(s, 2) of the local table
            local = _F_local_odd_prime(comp1, comp2)[np.minimum(s1, 2)][:, np.minimum(s2, 2)]
        elif mod <= F_BRUTE_CAP:
            local = F_bruteforce_grid(comp1, comp2, s1, s2)
        else:
            raise ValueError(
                f"no closed form for a primitive pair at {p}^{alpha} > cap {F_BRUTE_CAP}"
            )
        out *= local[..., m % mod][i1][:, i2]
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
            assert abs(val.imag) < 1e-9
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
