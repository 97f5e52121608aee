import ast
import cmath
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from twinsieve.arith import _factor_pp
from twinsieve.characters import (
    DirichletCharacter,
    ExceptionalZeroHypothesis,
    F_bruteforce,
    F_bruteforce_all_m,
    F_factored,
    F_factored_all_m,
    character_group,
    festi_bound_check,
    gauss_sum,
    gauss_sum_formula,
    gauss_sum_formula_all,
    local_sigma,
    modified_gauss_sum,
    primitive_characters,
    principal_character,
    quadratic_character,
    u_P,
)
from twinsieve.characters import _value_table


def test_group_sizes_and_orders():
    assert len(character_group(1)) == 1
    g5 = character_group(5)
    assert len(g5) == 4
    # cached per q, so the group is shared and must be immutable
    assert isinstance(g5, tuple) and character_group(5) is g5
    assert sorted(chi.order() for chi in g5) == [1, 2, 4, 4]
    g8 = character_group(8)
    assert len(g8) == 4
    assert all(chi.is_real() for chi in g8)
    assert sum(chi.is_principal for chi in g8) == 1
    for _ in range(2):  # the budget error is raised on every call, not cached
        with pytest.raises(ValueError):
            character_group(10**6 + 1)


def test_group_sizes_match_phi():
    from twinsieve.arith import euler_phi, factorize, build_prime_table

    t = build_prime_table(300)
    for q in range(1, 80):
        assert len(character_group(q)) == euler_phi(factorize(q, t))


def test_character_values_multiplicative():
    rng = random.Random(11)
    for q in (5, 8, 9, 12, 15, 16, 24, 45):
        for chi in character_group(q):
            for _ in range(20):
                a = rng.randrange(q)
                b = rng.randrange(q)
                lhs = chi.value(a * b)
                rhs = chi.value(a) * chi.value(b)
                assert cmath.isclose(lhs, rhs, abs_tol=1e-10)
            for n in range(q):
                v = chi.value(n)
                if math.gcd(n, q) == 1:
                    assert abs(abs(v) - 1) < 1e-12
                else:
                    assert v == 0


def test_component_algebra_matches_the_value_tables():
    # products, conjugates, orders and the principal/real flags come from the
    # component exponents alone; the value tables are their definition.  Every
    # q <= 128 covers each 2^a with a <= 7 and mixed moduli.
    rng = np.random.default_rng(16)

    def on_units(chars):
        return np.stack([_value_table(chi)[units] for chi in chars])

    for q in range(1, 129):
        group = character_group(q)
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        n = len(units)
        assert len(group) == n
        tables = on_units(group)
        dist2 = 2 * n - 2 * (tables @ tables.conj().T).real  # |row_i - row_j|^2
        assert np.all(dist2[~np.eye(n, dtype=bool)] > 1e-3), q
        for j in [*range(min(3, n)), *rng.integers(n, size=2)]:
            prods = [chi * group[j] for chi in group]
            assert all(prod.q == q for prod in prods)
            assert np.allclose(on_units(prods), tables * tables[j]), (q, j)
        assert np.allclose(on_units([chi.conjugate() for chi in group]), tables.conj())
        orders = np.array([chi.order() for chi in group])
        assert np.allclose(tables ** orders[:, None], 1), q
        for ell, _ in _factor_pp(n):  # no chi^(order / ell) is principal
            has = orders % ell == 0
            powers = tables[has] ** (orders[has] // ell)[:, None]
            assert np.all(np.abs(powers - 1).max(axis=1) > 1e-6), (q, ell)
        principal = np.abs(tables - 1).max(axis=1) < 1e-9
        real = np.abs(tables.imag).max(axis=1) < 1e-9
        assert [chi.is_principal for chi in group] == principal.tolist()
        assert [chi.is_real() for chi in group] == real.tolist()


def test_orthogonality():
    for q in list(range(1, 60)) + [96, 120, 200]:
        chars = character_group(q)
        for n in range(1, min(q + 1, 25)):
            if q > 1 and math.gcd(n, q) != 1:
                continue
            total = sum(chi.value(n) for chi in chars)
            want = len(chars) if (n % q) == 1 % q else 0
            assert abs(total - want) < 1e-9


def test_conductors_explicit():
    assert principal_character(12).conductor == 1
    # quadratic character mod 3 lifted to mod 9
    lifted = quadratic_character(9)
    assert lifted.conductor == 3
    assert quadratic_character(5).conductor == 5


def test_conductor_definitional():
    # conductor is the least f | q with chi trivial on units = 1 mod f
    for q in (8, 9, 12, 16, 24, 36, 40, 45):
        for chi in character_group(q):
            f = chi.conductor
            assert q % f == 0

            def trivial_on(d):
                return all(
                    abs(chi.value(n) - 1) < 1e-9
                    for n in range(1, q + 1)
                    if n % d == 1 % d and math.gcd(n, q) == 1
                )

            assert trivial_on(f)
            smaller = [d for d in range(1, f) if f % d == 0 and trivial_on(d)]
            assert not smaller



def test_conductor_matches_definition_on_value_tables():
    # the least f | q with chi(n) = 1 for every unit n = 1 mod f, read off
    # the value table, for every character mod q <= 120
    from twinsieve.characters import _value_table

    for q in range(1, 121):
        r = np.arange(q)
        units = np.gcd(r, q) == 1
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        for chi in character_group(q):
            vals = _value_table(chi)
            want = next(
                d for d in divisors
                if np.all(np.abs(vals[units & (r % d == 1 % d)] - 1) < 1e-9)
            )
            assert chi.conductor == want, (q, chi)
            assert vars(chi)["conductor"] == want  # computed once, kept on the object


def test_primitive_characters_count():
    # sum over f | q of #primitive(f) = phi(q)
    for q in (12, 24, 40):
        total = 0
        for f in range(1, q + 1):
            if q % f == 0:
                total += len(primitive_characters(f))
        assert total == len(character_group(q))


def test_primitive_value_rows_stack_the_value_tables_bit_for_bit():
    from twinsieve.characters import _primitive_value_rows, _value_rows

    # a stack of rows is one pass over all its characters, a table one
    # character alone; compared as bits, so even a sign of zero would show
    def same_bits(rows, chars, q):
        assert rows.shape == (len(chars), q) and rows.flags.c_contiguous, q
        for row, chi in zip(rows, chars):
            assert np.array_equal(row.view(np.uint64), _value_table(chi).view(np.uint64)), (q, chi)

    for f in range(1, 301):
        same_bits(_primitive_value_rows(f), primitive_characters(f), f)
    # whole groups: zero exponents on every generator, and both 2-adic ones
    for q in range(1, 129):
        same_bits(_value_rows(q, character_group(q)), character_group(q), q)
    # a conductor f = 2 mod 4 has no primitive characters: an empty stack
    for f in range(2, 301, 4):
        assert _value_rows(f, primitive_characters(f)).shape == (0, f)


def test_one_function_turns_discrete_logs_into_values():
    # every value comes from _character_values: no other function reads discrete logs
    from twinsieve import characters as ch

    tree = ast.parse(Path(ch.__file__).read_text())
    readers = {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name != "_dlog_tables"
        and any(getattr(n, "id", None) == "_dlog_tables" for n in ast.walk(node))
    }
    assert readers == {"_character_values"}


def test_primitive_value_rows_are_kept_under_a_byte_cap():
    from twinsieve import characters as ch

    assert ch._PRIMITIVE_ROWS.cap == 8 * 2**20
    cache = ch._BytesLRU(cap=3000)
    for f in [7, 9, 11, 7, 13, 15, 16, 23, 7, 60, 5]:
        rows = cache.get(f, lambda f: ch._value_rows(f, primitive_characters(f)))
        assert np.array_equal(rows, ch._primitive_value_rows(f))
        assert cache.nbytes == sum(a.nbytes for a in cache._items.values()) <= cache.cap
    # 60 has 32 primitive characters: 30720 bytes, over the cap and never kept
    assert 60 not in cache._items and 5 in cache._items


def test_phase_matrices_are_kept_under_a_byte_cap():
    from twinsieve import characters as ch

    cache = ch._PHASE_MATRICES
    assert cache.cap == 32 * 2**20
    small = ch._phase_matrix(60)
    assert ch._phase_matrix(60) is small  # kept: built once
    big = ch._phase_matrix(2048)  # 64 MiB: returned for its call, never kept
    assert big.shape == (2048, 2048) and not big.flags.writeable
    assert cache.nbytes == sum(a.nbytes for a in cache._items.values()) <= cache.cap
    assert 2048 not in cache._items and ch._phase_matrix(60) is small
    # the largest q whose matrix fits the cap
    assert 16 * 1448**2 <= cache.cap < 16 * 1449**2


def test_gauss_sum_examples():
    assert cmath.isclose(gauss_sum(principal_character(3), 1), -1, abs_tol=1e-12)
    chi5 = quadratic_character(5)
    assert abs(abs(gauss_sum(chi5, 1)) - math.sqrt(5)) < 1e-10
    assert gauss_sum(principal_character(1), 0) == 1


def test_gauss_sum_formula_examples():
    assert abs(gauss_sum_formula(principal_character(9), 1)) == 0.0
    chi7 = quadratic_character(7)
    got = gauss_sum_formula(chi7, 3)
    want = chi7.conjugate().value(3) * gauss_sum(chi7, 1)
    assert cmath.isclose(got, want, abs_tol=1e-10)
    for chi in character_group(15):
        assert cmath.isclose(
            gauss_sum_formula(chi, 2), gauss_sum(chi, 2), abs_tol=1e-8 * 15
        )


def test_gauss_sum_formula_full_sweep():
    for q in range(1, 61):
        for chi in character_group(q):
            formula = gauss_sum_formula_all(chi)
            for a in range(q):
                assert cmath.isclose(
                    formula[a], gauss_sum(chi, a), abs_tol=1e-8 * max(q, 1)
                ), (q, a)


def test_gauss_formula_rows_stack_the_single_rows_bit_for_bit():
    from twinsieve.characters import _gauss_formula_rows

    # tau is summed row by row, so a row of the whole group's stack has the
    # bits of its character built alone (a matrix product would not)
    for q in range(1, 129):
        chars = character_group(q)
        rows = _gauss_formula_rows(chars)
        for row, chi in zip(rows, chars):
            alone = gauss_sum_formula_all(chi)
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64)), (q, chi)


def test_closed_form_gauss_sums_call_no_direct_summation():
    # the closed form and the direct sums are an oracle pair: nothing the
    # closed form calls in this module, however indirectly, sums directly
    from twinsieve import characters as ch

    tree = ast.parse(Path(ch.__file__).read_text())
    defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def reached(name, seen):
        if name in seen:
            return seen
        seen.add(name)
        for n in ast.walk(defs[name]):
            if isinstance(n, ast.Name) and n.id in defs:
                reached(n.id, seen)
        return seen

    direct = {"_phase_matrix", "_restricted_c_all", "modified_gauss_sum", "gauss_sum"}
    for name in ("_local_gauss_formulas", "_gauss_formula_rows", "_F_local_odd_prime"):
        assert not reached(name, set()) & direct, name


def test_modified_gauss_sum_examples():
    chi = principal_character(3)
    assert cmath.isclose(
        modified_gauss_sum(chi, 1, 1), cmath.exp(2j * math.pi * 2 / 3), abs_tol=1e-12
    )
    assert cmath.isclose(
        modified_gauss_sum(chi, 1, 3), cmath.exp(2j * math.pi * 1 / 3), abs_tol=1e-12
    )
    with pytest.raises(ValueError):
        modified_gauss_sum(chi, 1, 2)


def test_modified_gauss_sum_splitting():
    # c(a,1) + c(a,p) = c(a) at prime modulus
    for p in (3, 5, 7, 11):
        for chi in character_group(p):
            for a in range(p):
                total = modified_gauss_sum(chi, a, 1) + modified_gauss_sum(chi, a, p)
                assert cmath.isclose(total, gauss_sum(chi, a), abs_tol=1e-10)


def test_F_examples():
    chi3 = principal_character(3)
    assert cmath.isclose(F_bruteforce(chi3, chi3, 1, 1, 3), -1, abs_tol=1e-9)
    assert cmath.isclose(F_bruteforce(chi3, chi3, 3, 3, 2), 2, abs_tol=1e-9)
    chi5 = principal_character(5)
    assert cmath.isclose(F_bruteforce(chi5, chi5, 1, 1, 3), 6, abs_tol=1e-9)


def test_F_factored_examples():
    chi15 = principal_character(15)
    got = F_factored(chi15, chi15, 1, 1, 4)
    want = local_sigma("sigma", 3, 4) * local_sigma("sigma", 5, 4)
    assert cmath.isclose(got, want, abs_tol=1e-8)
    chi9 = principal_character(9)
    assert F_factored(chi9, chi9, 1, 1, 2) == 0
    chiq = quadratic_character(3)
    assert cmath.isclose(
        F_factored(chiq, chiq, 1, 1, 1), F_bruteforce(chiq, chiq, 1, 1, 1), abs_tol=1e-8
    )


def _all_j(q):
    from twinsieve.characters import _factor_pp

    rad = 1
    for p, _ in _factor_pp(q):
        rad *= p
    return [d for d in range(1, rad + 1) if rad % d == 0]


def test_F_factored_vs_bruteforce_sweep():
    rng = random.Random(23)
    for q in (3, 5, 9, 15, 21, 35, 45, 50, 105):
        pairs = [(principal_character(q), principal_character(q))]
        quad = quadratic_character(q)
        pairs.append((quad, quad))
        pairs.append((principal_character(q), quad))
        for chi1, chi2 in pairs:
            for j1 in _all_j(q):
                for j2 in _all_j(q):
                    m = rng.randrange(q)
                    a = F_factored(chi1, chi2, j1, j2, m)
                    b = F_bruteforce(chi1, chi2, j1, j2, m)
                    assert abs(a - b) <= 1e-6 * q * q, (q, j1, j2, m)


def test_F_factored_vs_bruteforce_all_pairs_all_m():
    # every pair of characters mod p, so the all-m local tables are read at
    # (-m) % p and (m + 2) % p for complex characters too; at composite q a
    # spread of the group (principal, quadratic and every k-th character),
    # so components of every conductor meet
    from twinsieve.characters import F_factored_all_m

    for q in (3, 5, 7, 11, 13, 15, 45, 50, 105):
        group = character_group(q)
        chars = list(group[:: max(1, len(group) // 8)]) + [quadratic_character(q)]
        js = [0] + _all_j(q)
        for chi1 in chars:
            for chi2 in chars:
                for j1 in js:
                    for j2 in js:
                        literal = F_bruteforce_all_m(chi1, chi2, j1, j2)
                        factored = F_factored_all_m(chi1, chi2, j1, j2)
                        gap = np.max(np.abs(factored - literal))
                        assert gap <= 1e-9 * q * q, (q, chi1, chi2, j1, j2, gap)


def test_F_factored_past_the_cap_raises_for_every_m():
    from twinsieve.characters import F_BRUTE_CAP, F_factored_all_m, _Part

    # 5 generates the units mod 2^13 to order 2^11; an odd exponent on it
    # makes the component primitive, so the pair survives past the cap
    q = 2**13
    assert q > F_BRUTE_CAP
    chi = DirichletCharacter(q, (_Part(2, 13, (0, 1)),))
    assert chi.conductor == q
    with pytest.raises(ValueError, match="no closed form"):
        F_factored_all_m(chi, chi, 1, 1)
    with pytest.raises(ValueError, match="no closed form"):
        F_factored(chi, chi, 1, 1, 0)
    # a deficient conductor at 2^13 is an unmatched square: zeros, no raise
    chi0 = principal_character(q)
    assert not np.any(F_factored_all_m(chi0, chi, 1, 1))


def test_literal_F_matches_its_definition():
    # c(a, j) and F(m) summed term by term with cmath.exp, against the
    # phase-matrix routes, for every pair of characters mod q <= 12
    from twinsieve.characters import _restricted_c_rows

    for q in range(1, 13):
        chars = character_group(q)
        js = [0] + _all_j(q)
        rad = math.prod(p for p, _ in _factor_pp(q))

        def e(x):
            return cmath.exp(2j * math.pi * x / q)

        c = {}
        for chi in chars:
            for j, row in zip(js, _restricted_c_rows(chi, tuple(js))):
                kept = [
                    b for b in range(q)
                    if j == 0 or math.gcd(b + 2, rad) == math.gcd(j, rad)
                ]
                c[chi, j] = [sum(chi.value(b) * e(a * b) for b in kept) for a in range(q)]
                gap = np.max(np.abs(row - c[chi, j]))
                assert gap <= 1e-9, (q, chi, j, gap)
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        for chi1 in chars:
            for chi2 in chars:
                for j1 in js:
                    for j2 in js:
                        want = [
                            sum(c[chi1, j1][a] * c[chi2, j2][a] * e(-a * m) for a in units)
                            for m in range(q)
                        ]
                        gap = np.max(np.abs(F_bruteforce_all_m(chi1, chi2, j1, j2) - want))
                        assert gap <= 1e-9, (q, chi1, chi2, j1, j2, gap)


def _grid_characters(q):
    """The principal and quadratic characters mod q and a spread of the group."""
    group = character_group(q)
    return [principal_character(q), quadratic_character(q), *group[1 :: max(1, len(group) // 3)]]


def test_literal_grid_matches_a_plain_double_sum():
    # F over the whole (j1, j2) grid against the double sum over units a and
    # restricted b1, b2, summed in plain Python with cmath.exp
    from twinsieve.characters import F_bruteforce_grid

    for q in (5, 9, 12, 15, 20):
        js = [0] + _all_j(q)
        rad = math.prod(p for p, _ in _factor_pp(q))
        units = [a for a in range(q) if math.gcd(a, q) == 1]

        def e(x):
            return cmath.exp(2j * math.pi * x / q)

        def c(chi, j, a):
            return sum(
                chi.value(b) * e(a * b) for b in range(q)
                if j == 0 or math.gcd(b + 2, rad) == math.gcd(j, rad)
            )

        chars = _grid_characters(q)[:3]
        for chi1 in chars:
            for chi2 in chars:
                grid = F_bruteforce_grid(chi1, chi2, js, js)
                assert grid.shape == (len(js), len(js), q)
                for k1, j1 in enumerate(js):
                    for k2, j2 in enumerate(js):
                        pair = [c(chi1, j1, a) * c(chi2, j2, a) for a in units]
                        want = [sum(x * e(-a * m) for x, a in zip(pair, units)) for m in range(q)]
                        gap = np.max(np.abs(grid[k1, k2] - want))
                        assert gap <= 1e-9 * q * q, (q, chi1, chi2, j1, j2, gap)


def test_grid_views_equal_their_grid_cells_bit_for_bit():
    from twinsieve.characters import F_bruteforce_grid, F_factored_all_m, F_factored_grid

    for q in (2, 5, 8, 12, 15, 30, 60):
        js1 = [0] + _all_j(q)
        js2 = js1[:0:-1]  # another order, without j = 0
        for chi1 in _grid_characters(q):
            for chi2 in _grid_characters(q)[:3]:
                literal = F_bruteforce_grid(chi1, chi2, js1, js2)
                factored = F_factored_grid(chi1, chi2, js1, js2)
                for k1, j1 in enumerate(js1):
                    for k2, j2 in enumerate(js2):
                        view = F_bruteforce_all_m(chi1, chi2, j1, j2)
                        assert view.tobytes() == literal[k1, k2].tobytes(), (q, j1, j2)
                        view = F_factored_all_m(chi1, chi2, j1, j2)
                        assert view.tobytes() == factored[k1, k2].tobytes(), (q, j1, j2)


def test_factored_grid_equals_literal_grid_at_every_m():
    from twinsieve.characters import F_bruteforce_grid, F_factored_grid

    for q in (3, 4, 7, 12, 15, 20, 45, 50, 60, 105):
        js1 = [0] + _all_j(q)
        js2 = js1[::-1]
        for chi1 in _grid_characters(q):
            for chi2 in _grid_characters(q):
                literal = F_bruteforce_grid(chi1, chi2, js1, js2)
                factored = F_factored_grid(chi1, chi2, js1, js2)
                gap = np.max(np.abs(factored - literal))
                assert gap <= 1e-9 * q * q, (q, chi1, chi2, gap)


def test_both_F_routes_refuse_a_j_off_the_radical_alike():
    from twinsieve.characters import F_bruteforce_grid, F_factored_grid

    chi = character_group(15)[3]
    routes = (F_bruteforce_all_m, F_factored_all_m, F_bruteforce_grid, F_factored_grid)
    for route, args in zip(routes, ((7, 1), (7, 1), ((0, 7), (1,)), ((0, 7), (1,)))):
        with pytest.raises(ValueError) as err:
            route(chi, chi, *args)
        assert str(err.value) == "j=7 does not divide rad(q)=15", route
    for route, args in zip(routes, ((1, 9), (1, 9), ((1,), (3, 9)), ((1,), (3, 9)))):
        with pytest.raises(ValueError, match="j=9 does not divide rad"):
            route(chi, chi, *args)
    with pytest.raises(ValueError, match="j=7 does not divide rad"):
        modified_gauss_sum(chi, 1, 7)


def test_factored_grid_past_the_cap_raises():
    from twinsieve.characters import F_BRUTE_CAP, F_factored_grid, _Part

    # the primitive pair of test_F_factored_past_the_cap_raises_for_every_m,
    # behind a component mod 3 whose local value may vanish
    q = 3 * 2**13
    assert 2**13 > F_BRUTE_CAP
    chi = DirichletCharacter(q, (_Part(3, 1, (0,)), _Part(2, 13, (0, 1))))
    with pytest.raises(ValueError, match="no closed form"):
        F_factored_grid(chi, chi, (0, 1, 3), (1, 2, 6))
    for view in (F_factored_all_m, lambda *args: F_factored(*args, 5)):
        with pytest.raises(ValueError, match="no closed form"):
            view(chi, chi, 3, 3)
    chi0 = principal_character(q)
    assert not np.any(F_factored_grid(chi0, chi, (0, 1), (2, 6)))


def test_F_multiplicativity():
    rng = random.Random(29)
    for q1, q2 in [(3, 5), (5, 7), (3, 7), (4, 3), (8, 5), (9, 5)]:
        q = q1 * q2
        for chi in (principal_character(q), quadratic_character(q)):
            c1 = chi.component(q1)
            c2 = chi.component(q2)
            for _ in range(4):
                m = rng.randrange(q)
                for j1 in (1,):
                    whole = F_bruteforce(chi, chi, j1, 1, m)
                    split = F_bruteforce(c1, c1, j1, 1, m) * F_bruteforce(c2, c2, j1, 1, m)
                    assert abs(whole - split) < 1e-6 * q * q


def test_le_Fsimple_vanishing():
    # square prime power with a deficient conductor forces F = 0
    for q in (9, 25, 18, 45, 75):
        chi0 = principal_character(q)
        vals = F_bruteforce_all_m(chi0, chi0, 1, 1)
        assert np.max(np.abs(vals)) < 1e-6


def test_local_sigma_closed_forms():
    for p in (3, 5, 7, 11, 13):
        chi0 = principal_character(p)
        for m in range(p):
            want = F_bruteforce(chi0, chi0, 1, 1, m)
            got = local_sigma("sigma", p, m)
            assert abs(got - want) < 1e-9
    assert local_sigma("sigma", 7, 1) == -4.0
    assert local_sigma("sigma", 2, 4) == 1.0
    assert local_sigma("sigma", 2, 3) == -1.0


def test_local_sigma_prime_and_tilde():
    # literal summation: only b=2 survives the gcd condition mod 3, so
    # F(chi0, chi, 1, 1, 1) = -sum_a e_3(3a) = -2
    hyp = ExceptionalZeroHypothesis.build(3, 0.9)
    assert local_sigma("sigma_prime", 3, 1, hyp) == -2.0
    for r in (3, 5, 7, 11, 15):
        hyp = ExceptionalZeroHypothesis.build(r, 0.9)
        for p in hyp.odd_primes():
            chi_p = hyp.chi.component(p)
            chi0 = principal_character(p)
            for m in range(p):
                want_prime = F_bruteforce(chi0, chi_p, 1, 1, m)
                got_prime = local_sigma("sigma_prime", p, m, hyp)
                assert abs(got_prime - want_prime) < 1e-8, (p, m)
                want_tilde = F_bruteforce(chi_p, chi_p, 1, 1, m)
                got_tilde = local_sigma("sigma_tilde", p, m, hyp)
                assert abs(got_tilde - want_tilde) < 1e-8, (p, m)
    with pytest.raises(ValueError):
        local_sigma("sigma_prime", 3, 1, None)


def test_sigma_tilde_two_part_bound():
    for r, t in [(12, 2), (24, 3), (3, 0)]:
        hyp = ExceptionalZeroHypothesis.build(r, 0.9)
        assert hyp.t == t
        for m in range(16):
            v = local_sigma("sigma_tilde", 2, m, hyp)
            if t == 0:
                assert v == 1.0
            elif m % 2 == 0:
                assert abs(v) <= 2 ** (2 * t - 1) + 1e-9
            else:
                assert abs(v) < 1e-9


def test_exceptional_hypothesis_validation():
    with pytest.raises(ValueError):
        ExceptionalZeroHypothesis.build(6, 0.9)  # t = 1 not allowed
    with pytest.raises(ValueError):
        ExceptionalZeroHypothesis.build(9, 0.9)  # odd part not squarefree
    with pytest.raises(ValueError):
        ExceptionalZeroHypothesis.build(15, 1.5)
    hyp = ExceptionalZeroHypothesis.build(15, 0.99)
    assert hyp.chi.is_real()
    assert hyp.chi.conductor == 15
    sq = hyp.chi * hyp.chi
    assert sq.is_principal


def test_building_the_hypotheses_builds_no_prime_table(monkeypatch):
    # r is factored by trial division; a prime table is the caller's to build
    def refuse(limit):
        raise AssertionError(f"a prime table to {limit} was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("twinsieve.") and hasattr(module, "build_prime_table"):
            monkeypatch.setattr(module, "build_prime_table", refuse)
    for r in range(3, 98):
        try:
            ExceptionalZeroHypothesis.build(r, 0.9)
        except ValueError:
            pass  # t = 1 or a square in the odd part


def test_u_P_examples():
    assert u_P(1, 1, 7, 1) == pytest.approx(5 / 6)
    assert u_P(3, 1, 7, 1) == pytest.approx(-1 / 6)
    for q in (7, 12, 15):
        for n in range(1, q):
            if math.gcd(n, q) == 1:
                assert u_P(n, 1, q, q) == pytest.approx(0, abs=1e-10)
    with pytest.raises(ValueError):
        u_P(1, 3, 9, 1)


def test_u_P_zero_mean():
    for q in (7, 9, 12, 20):
        total = sum(u_P(n, 1, q, 2) for n in range(1, q + 1) if math.gcd(n, q) == 1)
        assert abs(total) < 1e-9



def test_u_P_evaluates_only_the_residue_it_needs():
    from twinsieve.characters import _value_table

    before = _value_table.cache_info()
    assert u_P(2, 1, 2003, 2003) == pytest.approx(0, abs=1e-10)
    after = _value_table.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_u_P_array_equals_scalar():
    for q in range(2, 31):
        n = np.arange(-1, q + 2)
        for a in {1, q - 1}:
            for P in (1, 3, q):
                got = u_P(n, a, q, P)
                assert got.shape == n.shape
                want = [u_P(int(k), a, q, P) for k in n]
                assert got.tolist() == want, (q, a, P)
    assert u_P(np.arange(4).reshape(2, 2), 1, 1, 1).shape == (2, 2)
    assert u_P(7 * 10**20 + 3, 1, 7, 1) == u_P(3, 1, 7, 1)


def test_u_P_equals_the_value_table_sum():
    from twinsieve.characters import _value_table

    for q in range(2, 61):
        chars = character_group(q)
        for a in {1, q - 1}:
            abar = pow(a, -1, q)
            for P in (1, 3, q):
                kept = [_value_table(chi) for chi in chars if chi.conductor <= P]
                for n in range(q):
                    x = n * abar % q
                    total = sum((complex(vals[x]) for vals in kept), 0j)
                    want = (1.0 if x == 1 else 0.0) - total.real / len(chars)
                    assert u_P(n, a, q, P) == pytest.approx(want, abs=1e-12), (q, a, P, n)


def test_festi_bounds_small():
    for q in (3, 9, 4, 8, 5, 25):
        chars = character_group(q)
        p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else 5)
        for chi1 in chars:
            for chi2 in chars:
                for j1 in (1, p):
                    for j2 in (1, p):
                        for m in range(q):
                            assert festi_bound_check(chi1, chi2, j1, j2, m), (
                                q,
                                j1,
                                j2,
                                m,
                            )
    with pytest.raises(ValueError):
        festi_bound_check(
            principal_character(6), principal_character(6), 1, 1, 0
        )


def test_equal_characters_are_shared():
    for q in (5, 12, 15, 16, 45, 105):
        assert principal_character(q) is principal_character(q)
        assert quadratic_character(q) is quadratic_character(q)
        chi = quadratic_character(q)
        for p, a in _factor_pp(q):
            assert chi.component(p**a) is chi.component(p**a)
        group = character_group(q)
        for named in (principal_character(q), quadratic_character(q)):
            (same,) = [c for c in group if c == named]
            assert same is not named
            assert hash(same) == hash(named)
            assert {same: 1}[named] == 1


def test_cached_arrays_are_read_only():
    from twinsieve import characters as ch
    from twinsieve import ntt

    chi = character_group(7)[1]
    arrays = [
        ch._value_table(chi),
        ch._phase_matrix(7),
        *ch._dlog_tables(7, 2),
        *ch._dlog_tables(2, 4),
        ch._unit_residues(12)[0],
        ch._unit_residues(12)[1],
        ch._restriction_mask(15, 3),
        ch._restricted_c_rows(chi, (0, 1, 7)),
        ch._F_local_odd_prime(chi, chi),
        ch._primitive_value_rows(13),
        ch._value_rows(12, character_group(12)),
        ntt._twiddles(ntt.P1, 16, False),
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_caches_are_bounded():
    from twinsieve import arith, ntt
    from twinsieve import characters as ch

    funcs = [
        f for mod in (arith, ch, ntt) for f in vars(mod).values()
        if hasattr(f, "cache_info") and f.__module__ == mod.__name__
    ]
    funcs.append(ch.DirichletCharacter.component)
    assert len(funcs) > 10
    for f in funcs:
        assert f.cache_info().maxsize is not None, f.__name__
