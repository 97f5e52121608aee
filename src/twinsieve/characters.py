"""Dirichlet characters, Gauss sums with gcd restriction, and the local kernel F.

Characters mod q are stored through their prime-power components: a
discrete-log exponent against the smallest primitive root for odd p^a,
and a pair of exponents on the {-1, 5} generators for 2^a (a >= 3).
This makes multiplication, conjugation, conductors and primitive parts
cheap and keeps enumeration deterministic.

The kernel F(chi1, chi2, j1, j2, m) couples two restricted Gauss sums
against an additive phase.  It is computed two independent ways: literal
summation (the oracle) and a factored route through prime-power local
values, which is what the singular-series machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import _factor_pp, _primitive_root, _radical, _valuation, default_table, factorize

__all__ = [
    "DirichletCharacter",
    "ExceptionalZeroHypothesis",
    "character_group",
    "primitive_characters",
    "principal_character",
    "quadratic_character",
    "conductor",
    "primitive_part",
    "gauss_sum",
    "gauss_sum_formula",
    "gauss_sum_formula_all",
    "modified_gauss_sum",
    "F_bruteforce",
    "F_bruteforce_all_m",
    "F_factored",
    "local_sigma",
    "u_P",
    "festi_bound_check",
]

GROUP_BUDGET = 10**6
#: largest prime-power modulus at which F falls back to literal summation
F_BRUTE_CAP = 4096


@lru_cache(maxsize=None)
def _dlog_table(p: int, alpha: int) -> np.ndarray:
    """dl[x] with g^dl[x] = x mod p^alpha for coprime x, -1 otherwise."""
    mod = p**alpha
    phi = (p - 1) * p ** (alpha - 1)
    g = _primitive_root(p, alpha)
    table = np.full(mod, -1, dtype=np.int64)
    acc = 1
    for k in range(phi):
        table[acc] = k
        acc = acc * g % mod
    return table


@lru_cache(maxsize=None)
def _two_decomp_table(alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) with x = (-1)^s 5^t mod 2^alpha for odd x (alpha >= 3)."""
    mod = 2**alpha
    half = mod // 4
    s_tab = np.full(mod, -1, dtype=np.int64)
    t_tab = np.full(mod, -1, dtype=np.int64)
    acc = 1
    for t in range(half):
        s_tab[acc], t_tab[acc] = 0, t
        s_tab[(-acc) % mod], t_tab[(-acc) % mod] = 1, t
        acc = acc * 5 % mod
    return s_tab, t_tab


@dataclass(frozen=True)
class _OddPart:
    p: int
    alpha: int
    exponent: int  # in [0, phi(p^alpha))

    @property
    def modulus(self) -> int:
        return self.p**self.alpha

    @property
    def phi(self) -> int:
        return (self.p - 1) * self.p ** (self.alpha - 1)


@dataclass(frozen=True)
class _TwoPart:
    alpha: int
    e_minus: int = 0  # exponent on -1 (alpha >= 2)
    e_five: int = 0  # exponent on 5 (alpha >= 3)

    @property
    def modulus(self) -> int:
        return 2**self.alpha


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q given by its prime-power component exponents."""

    q: int
    odd_parts: tuple[_OddPart, ...]
    two_part: _TwoPart | None

    # -- evaluation ---------------------------------------------------------

    def value(self, n: int) -> complex:
        return complex(_value_table(self)[n % self.q])

    def __call__(self, n: int) -> complex:
        return self.value(n)

    # -- structure ----------------------------------------------------------

    @property
    def is_principal(self) -> bool:
        if any(part.exponent for part in self.odd_parts):
            return False
        tp = self.two_part
        return tp is None or (tp.e_minus == 0 and tp.e_five == 0)

    def order(self) -> int:
        out = 1
        for part in self.odd_parts:
            out = math.lcm(out, part.phi // math.gcd(part.phi, part.exponent))
        tp = self.two_part
        if tp is not None:
            if tp.e_minus:
                out = math.lcm(out, 2)
            if tp.e_five:
                half = 2 ** (tp.alpha - 2)
                out = math.lcm(out, half // math.gcd(half, tp.e_five))
        return out

    def is_real(self) -> bool:
        return self.order() <= 2

    def conjugate(self) -> "DirichletCharacter":
        odd = tuple(
            _OddPart(p.p, p.alpha, (-p.exponent) % p.phi) for p in self.odd_parts
        )
        tp = self.two_part
        if tp is not None and tp.alpha >= 3:
            tp = _TwoPart(tp.alpha, tp.e_minus, (-tp.e_five) % 2 ** (tp.alpha - 2))
        return DirichletCharacter(self.q, odd, tp)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.q != other.q:
            raise ValueError("can only multiply characters to the same modulus")
        odd = tuple(
            _OddPart(a.p, a.alpha, (a.exponent + b.exponent) % a.phi)
            for a, b in zip(self.odd_parts, other.odd_parts)
        )
        tp1, tp2 = self.two_part, other.two_part
        tp = None
        if tp1 is not None:
            if tp1.alpha >= 3:
                tp = _TwoPart(
                    tp1.alpha,
                    (tp1.e_minus + tp2.e_minus) % 2,
                    (tp1.e_five + tp2.e_five) % 2 ** (tp1.alpha - 2),
                )
            else:
                tp = _TwoPart(tp1.alpha, (tp1.e_minus + tp2.e_minus) % 2, 0)
        return DirichletCharacter(self.q, odd, tp)

    def component(self, modulus: int) -> "DirichletCharacter":
        """The character mod ``modulus`` in the factorization over prime powers.

        ``modulus`` must be a product of full prime-power parts of q.
        """
        if self.q % modulus != 0 or math.gcd(modulus, self.q // modulus) != 1:
            raise ValueError(f"{modulus} is not a unitary divisor of {self.q}")
        odd = tuple(p for p in self.odd_parts if modulus % p.modulus == 0)
        tp = self.two_part if self.two_part and modulus % 2 == 0 else None
        return DirichletCharacter(modulus, odd, tp)


def _two_part_for(alpha: int, e_minus: int = 0, e_five: int = 0) -> _TwoPart | None:
    if alpha == 0:
        return None
    return _TwoPart(alpha, e_minus if alpha >= 2 else 0, e_five if alpha >= 3 else 0)


def principal_character(q: int) -> DirichletCharacter:
    odd, a2 = [], 0
    for p, a in _factor_pp(q):
        if p == 2:
            a2 = a
        else:
            odd.append(_OddPart(p, a, 0))
    return DirichletCharacter(q, tuple(odd), _two_part_for(a2))


def quadratic_character(q: int) -> DirichletCharacter:
    """Real character mod q: Legendre component at each odd prime, principal at 2."""
    odd, a2 = [], 0
    for p, a in _factor_pp(q):
        if p == 2:
            a2 = a
        else:
            odd.append(_OddPart(p, a, ((p - 1) * p ** (a - 1)) // 2))
    return DirichletCharacter(q, tuple(odd), _two_part_for(a2))


@lru_cache(maxsize=64)
def character_group(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q, in a fixed deterministic order."""
    if not 1 <= q <= GROUP_BUDGET:
        raise ValueError(f"q={q} outside enumeration budget [1, {GROUP_BUDGET}]")
    odd_specs, a2 = [], 0
    for p, a in _factor_pp(q):
        if p == 2:
            a2 = a
        else:
            odd_specs.append((p, a, (p - 1) * p ** (a - 1)))
    chars: list[DirichletCharacter] = []

    def two_choices():
        if a2 <= 1:
            yield _two_part_for(a2)
        elif a2 == 2:
            for em in range(2):
                yield _TwoPart(a2, em, 0)
        else:
            for em in range(2):
                for ef in range(2 ** (a2 - 2)):
                    yield _TwoPart(a2, em, ef)

    def rec(i, acc):
        if i == len(odd_specs):
            for tp in two_choices():
                chars.append(DirichletCharacter(q, tuple(acc), tp))
            return
        p, a, phi = odd_specs[i]
        for e in range(phi):
            rec(i + 1, acc + [_OddPart(p, a, e)])

    rec(0, [])
    return tuple(chars)


def conductor(chi: DirichletCharacter) -> int:
    out = 1
    for part in chi.odd_parts:
        if part.exponent == 0:
            continue
        d = part.phi // math.gcd(part.phi, part.exponent)
        out *= part.p ** (1 + _valuation(d, part.p))
    tp = chi.two_part
    if tp is not None:
        if tp.e_five:
            out *= 2 ** (tp.alpha - _valuation(tp.e_five, 2))
        elif tp.e_minus:
            out *= 4
    return out


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi (to the modulus conductor(chi))."""
    f = conductor(chi)
    odd = []
    for part in chi.odd_parts:
        if part.exponent == 0:
            continue
        beta = _valuation(f, part.p)
        phi_new = (part.p - 1) * part.p ** (beta - 1)
        g_new = _primitive_root(part.p, beta)
        dl = int(_dlog_table(part.p, part.alpha)[g_new % part.modulus])
        num = part.exponent * dl * phi_new
        if num % part.phi != 0:
            raise AssertionError("conductor/exponent mismatch")
        odd.append(_OddPart(part.p, beta, (num // part.phi) % phi_new))
    tp = chi.two_part
    new_tp = None
    f2 = 1
    if tp is not None:
        if tp.e_five:
            v = _valuation(tp.e_five, 2)
            beta = tp.alpha - v
            new_tp = _TwoPart(beta, tp.e_minus, tp.e_five >> v)
            f2 = 2**beta
        elif tp.e_minus:
            new_tp = _TwoPart(2, 1, 0)
            f2 = 4
    q_new = f2
    for part in odd:
        q_new *= part.modulus
    assert q_new == f
    return DirichletCharacter(f, tuple(odd), new_tp)


@lru_cache(maxsize=4096)
def _value_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(r) for every residue r mod q (0 on non-units)."""
    q = chi.q
    out = np.zeros(q, dtype=np.complex128)
    if q == 1:
        out[0] = 1.0
        return out
    r = np.arange(q)
    coprime = np.gcd(r, q) == 1
    frac = np.zeros(q)
    for part in chi.odd_parts:
        dl = _dlog_table(part.p, part.alpha)[r % part.modulus]
        frac += part.exponent * np.where(dl >= 0, dl, 0) / part.phi
    tp = chi.two_part
    if tp is not None and tp.alpha >= 2:
        rr = r % tp.modulus
        if tp.alpha == 2:
            frac += tp.e_minus * np.where(rr == 3, 0.5, 0.0)
        else:
            s_tab, t_tab = _two_decomp_table(tp.alpha)
            frac += tp.e_minus * np.where(s_tab[rr] >= 0, s_tab[rr], 0) / 2
            frac += tp.e_five * np.where(t_tab[rr] >= 0, t_tab[rr], 0) / 2 ** (tp.alpha - 2)
    out[coprime] = np.exp(2j * np.pi * frac[coprime])
    return out


@lru_cache(maxsize=128)
def primitive_characters(f: int) -> tuple[DirichletCharacter, ...]:
    """All primitive characters of conductor exactly f."""
    return tuple(chi for chi in character_group(f) if conductor(chi) == f)


# ---------------------------------------------------------------------------
# Gauss sums


@lru_cache(maxsize=48)
def _phase_matrix(q: int) -> np.ndarray:
    """e_q(a*b) as a q x q matrix (kept small; used by the brute-force oracles)."""
    a = np.arange(q)
    return np.exp(2j * np.pi * np.outer(a, a) / q)


def gauss_sum(chi: DirichletCharacter, a: int) -> complex:
    """sum over units b mod q of chi(b) e_q(ab), by direct summation."""
    return modified_gauss_sum(chi, a, 0)


@lru_cache(maxsize=4096)
def _tau_primitive(chi: DirichletCharacter) -> complex:
    """tau(chi) = c_chi(1) by direct summation."""
    return gauss_sum(chi, 1)


def _phi_pp(p: int, alpha: int) -> int:
    return 1 if alpha == 0 else (p - 1) * p ** (alpha - 1)


def _components_with_meta(chi: DirichletCharacter):
    """Per prime power: (p, alpha, modulus, chi_component, chi*, alpha0)."""
    out = []
    parts: list[tuple[int, int, int]] = []
    for part in chi.odd_parts:
        parts.append((part.p, part.alpha, part.modulus))
    tp = chi.two_part
    if tp is not None:
        parts.append((2, tp.alpha, tp.modulus))
    for p, alpha, mod in parts:
        comp = chi.component(mod)
        alpha0 = _valuation(conductor(comp), p)
        star = primitive_part(comp)
        out.append((p, alpha, mod, comp, star, alpha0))
    return out


def gauss_sum_formula(chi: DirichletCharacter, a: int) -> complex:
    """c_chi(a) from the closed forms: gauss_sum_formula_all at a mod q."""
    return complex(gauss_sum_formula_all(chi)[a % chi.q])


def _component_gauss_formula_all(
    p: int, alpha: int, star: DirichletCharacter, alpha0: int
) -> np.ndarray:
    """Closed-form c values for every residue mod p^alpha, by v_p class.

    The conductor reduction gives c(r) with v = v_p(r) as
    conj(chi*)(r / p^v) mu(p^k) phi(p^alpha) / phi(p^(alpha-v)) tau(chi*),
    k = alpha - v - alpha0; it vanishes when k < 0, when k >= 2, and when
    k = 1 with a non-principal chi* (chi*(p) = 0).
    """
    mod = p**alpha
    out = np.zeros(mod, dtype=np.complex128)
    tau = _tau_primitive(star)
    conj_vals = _value_table(star.conjugate())
    for v in range(alpha + 1):
        alpha_m = v
        if alpha0 > alpha - alpha_m:
            continue
        k = alpha - alpha_m - alpha0
        if k >= 2 or (k == 1 and alpha0 >= 1):
            continue
        mu_k = 1.0 if k == 0 else -1.0
        phi_ratio = _phi_pp(p, alpha) / _phi_pp(p, alpha - alpha_m)
        if v == alpha:
            # r = 0 survives only for principal components (alpha0 = 0)
            out[0] = mu_k * phi_ratio * tau
            continue
        u = np.arange(1, p ** (alpha - v))
        u = u[u % p != 0]
        r = u * p**v
        lead = conj_vals[u % star.q] if alpha0 >= 1 else np.ones(len(u))
        out[r] = lead * mu_k * phi_ratio * tau
    return out


def gauss_sum_formula_all(chi: DirichletCharacter) -> np.ndarray:
    """c_chi(a) for every shift a mod q, assembled from prime-power closed forms.

    Components are glued with the twisted-argument multiplicativity
    c(a) = prod_i c_i(inv(q/q_i) * a).
    """
    q = chi.q
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    result = np.ones(q, dtype=np.complex128)
    a = np.arange(q)
    for p, alpha, mod, _comp, star, alpha0 in _components_with_meta(chi):
        local = _component_gauss_formula_all(p, alpha, star, alpha0)
        cof = q // mod
        inv = pow(cof, -1, mod)
        result *= local[(inv * a) % mod]
    return result


@lru_cache(maxsize=64)
def _restriction_mask(q: int, j: int) -> np.ndarray:
    """Residues b mod q with (b+2, rad q) = (j, rad q), as a read-only mask."""
    rad = _radical(q)
    mask = np.gcd(np.arange(q) + 2, rad) == math.gcd(j, rad)
    mask.flags.writeable = False
    return mask


def modified_gauss_sum(chi: DirichletCharacter, a: int, j: int) -> complex:
    """Gauss sum over units b with (b+2, rad q) = (j, rad q); j=0 lifts the restriction."""
    q = chi.q
    if j != 0 and _radical(q) % j != 0:
        raise ValueError(f"j={j} does not divide rad(q)={_radical(q)}")
    if q == 1:
        return 1 + 0j
    vals = _value_table(chi)
    b = np.arange(q)
    keep = np.ones(q, dtype=bool) if j == 0 else _restriction_mask(q, j)
    return complex(np.sum(vals[keep] * np.exp(2j * np.pi * (a % q) * b[keep] / q)))


def _restricted_c_all(chi: DirichletCharacter, j: int) -> np.ndarray:
    """c_chi(a, j) for all a mod q (vectorized; j=0 means unrestricted)."""
    q = chi.q
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    vals = _value_table(chi)
    if j != 0:
        vals = np.where(_restriction_mask(q, j), vals, 0)
    return _phase_matrix(q) @ vals


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
    """F for every m mod q by literal summation over units a: the oracle route."""
    _check_pair(chi1, chi2)
    q = chi1.q
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    c1 = _restricted_c_all(chi1, j1)
    c2 = _restricted_c_all(chi2, j2)
    a = np.arange(q)
    prod = c1 * c2
    prod[np.gcd(a, q) != 1] = 0
    return np.conjugate(_phase_matrix(q)) @ prod


def _F_local_odd_prime(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    j1: int,
    j2: int,
    m: int,
) -> complex:
    """F at an odd prime modulus p via O(p) Gauss-sum reductions.

    Each restricted slot is expanded through c(a,1) = c(a) - c(a,p) into the
    three primitive pieces:

      F(-,-,m) = tau(chi1) tau(chi2) c_{conj(chi1 chi2)}(-m)
      F(-,p,m) = chi2(-2) (p chi1(m+2) - (p-1) [chi1 principal])
      F(p,p,m) = chi1 chi2(-2) c_p(-(m+4))
    """
    p = chi1.q

    def pieces(j):
        if j == 0:
            return [("-", 1)]
        if j == 1:
            return [("-", 1), ("p", -1)]
        return [("p", 1)]

    def F_unrestricted() -> complex:
        prod = chi1 * chi2
        t1 = _tau_primitive(chi1)
        t2 = _tau_primitive(chi2)
        return t1 * t2 * gauss_sum_formula(prod.conjugate(), -m)

    def F_second_restricted(ca: DirichletCharacter, cb: DirichletCharacter) -> complex:
        # gcd condition on cb's slot only
        val = p * ca.value(m + 2)
        if ca.is_principal:
            val -= p - 1
        return cb.value(-2) * val

    def F_both_restricted() -> complex:
        ram = (p - 1) if (m + 4) % p == 0 else -1
        return chi1.value(-2) * chi2.value(-2) * ram

    total = 0j
    for s1, sign1 in pieces(j1):
        for s2, sign2 in pieces(j2):
            if s1 == "-" and s2 == "-":
                term = F_unrestricted()
            elif s1 == "-" and s2 == "p":
                term = F_second_restricted(chi1, chi2)
            elif s1 == "p" and s2 == "-":
                term = F_second_restricted(chi2, chi1)
            else:
                term = F_both_restricted()
            total += sign1 * sign2 * term
    return total


def F_factored(
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    j1: int,
    j2: int,
    m: int,
) -> complex:
    """F as a product of prime-power local values.

    Local dispatch: exact zero when a square prime power is not matched by
    both conductors; closed O(p) evaluation at odd prime moduli; literal
    summation for the remaining small prime-power cases.  Prime-power
    components beyond F_BRUTE_CAP with surviving primitive pairs are
    rejected (no closed form is implemented for that corner).
    """
    _check_pair(chi1, chi2)
    q = chi1.q
    if q == 1:
        return 1 + 0j
    rad = _radical(q)
    for j in (j1, j2):
        if j != 0 and rad % j != 0:
            raise ValueError(f"j={j} does not divide rad(q)={rad}")
    out = 1 + 0j
    for p, alpha, mod, comp1, star1, a1 in _components_with_meta(chi1):
        comp2 = chi2.component(mod)
        a2 = _valuation(conductor(comp2), p)
        jl1 = 0 if j1 == 0 else (p if j1 % p == 0 else 1)
        jl2 = 0 if j2 == 0 else (p if j2 % p == 0 else 1)
        if alpha > 1 and (a1 < alpha or a2 < alpha):
            return 0j  # vanishing at unmatched square prime powers
        if p != 2 and alpha == 1:
            local = _F_local_odd_prime(comp1, comp2, jl1, jl2, m)
        elif mod <= F_BRUTE_CAP:
            local = F_bruteforce(comp1, comp2, jl1, jl2, m)
        else:
            raise ValueError(
                f"no closed form for a primitive pair at {p}^{alpha} > cap {F_BRUTE_CAP}"
            )
        if local == 0:
            return 0j
        out *= local
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
        fac = factorize(rr, default_table(max(rr, 10)))
        if any(e > 1 for _, e in fac.pairs):
            raise ValueError("odd part of r must be squarefree")
        odd = tuple(_OddPart(p, 1, (p - 1) // 2) for p, _ in fac.pairs)
        tp = None
        if t == 2:
            tp = _TwoPart(2, 1, 0)
        elif t == 3:
            tp = _TwoPart(3, 0, 1)  # the even character mod 8
        chi = DirichletCharacter(r, odd, tp)
        return cls(r=r, beta=beta, chi=chi)

    @property
    def t(self) -> int:
        return _valuation(self.r, 2)

    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p.p for p in self.chi.odd_parts)

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


def u_P(n: int, a: int, q: int, P: float) -> float:
    """Progression indicator minus its low-conductor character expansion.

    Equals 1_{n = a mod q} - (1/phi(q)) sum over characters mod q with
    conductor <= P of psi(n / a); vanishing mean over units, and 0 when
    every character is included (P >= q).
    """
    if math.gcd(a, q) != 1:
        raise ValueError("a must be coprime to q")
    if q == 1:
        return 0.0
    abar = pow(a, -1, q)
    x = n * abar % q
    chars = character_group(q)
    phi = len(chars)
    total = 0j
    for chi in chars:
        if conductor(chi) <= P:
            total += chi.value(x)
    val = (1.0 if x == 1 else 0.0) - total.real / phi
    return val


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
