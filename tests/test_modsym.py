"""Tests for modular symbol spaces and geometric operators.

Oracles used here are independent of the implementation:
- the genus and cusp-count formulas for X_0(n), and through them the rank
  of the new subspace at squarefree level,
- eta-product q-expansions for the weight-2 newforms at genus-one levels,
- commutativity of the Hecke operators and the Weil bound |a_ell| <= 2 sqrt(ell)
  on their eigenvalues, checked exactly by sympy's real-root counting.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from maninforge.exact_linalg import IntMatrix, kernel_saturated, restrict_operator
from maninforge.hecke_algebra import primes_upto, sturm_bound
from maninforge.modsym import (
    MR_BOUND,
    build_space,
    factorize,
    hecke,
    is_prime,
    is_squarefree,
    new_lattice,
    p1_list,
    star_involution,
)
from maninforge.polyarith import charpoly_int


# --- oracles ---------------------------------------------------------------


def factorization(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def psi(n):
    """Index of Gamma_0(n): n * prod_{p | n} (1 + 1/p)."""
    r = n
    for p in factorization(n):
        r = r // p * (p + 1)
    return r


def euler_phi(n):
    r = n
    for p in factorization(n):
        r = r // p * (p - 1)
    return r


def cusp_count(n):
    return sum(
        euler_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0
    )


def genus_x0(n):
    fac = factorization(n)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in fac:
            if p == 2:
                continue
            if p % 4 == 3:
                nu2 = 0
                break
            nu2 *= 2
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in fac:
            if p == 3:
                continue
            if p % 3 == 2:
                nu3 = 0
                break
            nu3 *= 2
    g = Fraction(1) + Fraction(psi(n), 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(cusp_count(n), 2)
    assert g.denominator == 1
    return int(g)


def eta_product(pairs, terms):
    """q-expansion coefficients a_1..a_terms of prod eta(q^d)^e, weight 2.

    Each eta(q^d)^e contributes q^(d*e/24) * prod (1 - q^(d*k))^e; the pairs
    used here always give total leading exponent 1.
    """
    shift = sum(d * e for d, e in pairs)
    assert shift % 24 == 0
    shift //= 24
    size = terms + 1
    coeffs = [0] * size
    coeffs[0] = 1
    for d, e in pairs:
        for _ in range(e):
            new = [0] * size
            # (1 - q^d - q^{2d} ... ) use pentagonal number theorem for eta/q^{1/24}
            pent = [0] * size
            j = 0
            while True:
                for sign_j in ([j] if j == 0 else [j, -j]):
                    exp = d * (sign_j * (3 * sign_j - 1)) // 2
                    if 0 <= exp < size:
                        pent[exp] += (-1) ** abs(sign_j)
                if d * (j * (3 * j - 1)) // 2 >= size and \
                        d * (j * (3 * j + 1)) // 2 >= size:
                    break
                j += 1
            for i, a in enumerate(coeffs):
                if a:
                    for k in range(size - i):
                        if pent[k]:
                            new[i + k] += a * pent[k]
            coeffs = new
    # multiply by q^shift and read a_1..a_terms
    out = [0] * (terms + 1)
    for i, a in enumerate(coeffs):
        if 1 <= i + shift <= terms:
            out[i + shift] = a
    return out


ETA_NEWFORMS = {
    11: [(1, 2), (11, 2)],
    14: [(1, 1), (2, 1), (7, 1), (14, 1)],
    15: [(1, 1), (3, 1), (5, 1), (15, 1)],
    20: [(2, 2), (10, 2)],
}


def test_eta_oracle_self_check():
    # well-known expansion of level 11: q - 2q^2 - q^3 + 2q^4 + q^5 + ...
    a = eta_product(ETA_NEWFORMS[11], 10)
    assert a[1:8] == [1, -2, -1, 2, 1, 2, -2]


# --- P^1 and space construction -------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 11, 12, 15, 24, 30, 49])
def test_p1_size(n):
    assert len(p1_list(n)) == (1 if n == 1 else psi(n))


def test_p1_normalization_is_orbit_invariant():
    from maninforge.modsym import P1

    for n in [12, 15, 35]:
        p1 = P1(n)
        for c, d in p1.points:
            for u in range(1, n):
                if gcd(u, n) == 1:
                    assert p1.normalize(c * u, d * u) == (c, d)


@pytest.mark.parametrize("n", [1, 12, 15, 35, 66])
def test_p1_table_matches_normalize(n):
    from maninforge.modsym import P1

    p1 = P1(n)
    for c in range(n):
        for d in range(n):
            p = p1.normalize(c, d)
            assert (p is None) == (gcd(gcd(c, d), n) > 1)
            assert p1.index_of(c, d) == (None if p is None else p1.points.index(p))


@pytest.mark.parametrize("n", list(range(1, 73)))
def test_space_matches_genus_and_cusp_formulas(n):
    sp = build_space(n)
    assert sp.cusp_count == cusp_count(n)
    assert sp.cuspidal_rank == 2 * genus_x0(n)


# --- Hecke operators against eta-product eigenvalues ------------------------


@pytest.mark.parametrize("n", [11, 14, 15])
def test_hecke_eigenvalues_genus_one(n):
    sp = build_space(n)
    assert sp.cuspidal_rank == 2
    a = eta_product(ETA_NEWFORMS[n], 13)
    for ell in [2, 3, 5, 7, 13]:
        t = hecke(sp, ell).matrix
        cp = charpoly_int(t)
        # (x - a_ell)^2
        assert cp.coeffs == (a[ell] * a[ell], -2 * a[ell], 1), (n, ell)


@pytest.mark.parametrize("n", [11, 14, 15])
def test_module_generators_match_eta_coefficients(n):
    # T_m from the Hecke recurrences, U_p powers at p | n included
    from maninforge.hecke_algebra import _module_generators

    sp = build_space(n)
    a = eta_product(ETA_NEWFORMS[n], 12)
    prime_ops = {p: hecke(sp, p).matrix for p in primes_upto(12)}
    got = list(_module_generators(sp, prime_ops, 12))
    assert [m for m, _t in got] == list(range(1, 13))
    for m, t in got:
        assert charpoly_int(t).coeffs == (a[m] * a[m], -2 * a[m], 1), (n, m)


def test_hecke_operators_commute():
    sp = build_space(34)
    ops = [hecke(sp, ell).matrix for ell in [2, 3, 5, 17]]
    for i in range(len(ops)):
        for j in range(i):
            assert ops[i] * ops[j] == ops[j] * ops[i]


@pytest.fixture(scope="module")
def hecke_431():
    """The algebra's generators at 431: T_ell up to the Sturm bound, U_431."""
    sp = build_space(431)
    return {ell: hecke(sp, ell).matrix for ell in primes_upto(sturm_bound(431)) + [431]}


def test_hecke_operators_commute_at_431(hecke_431):
    ops = list(hecke_431.values())
    assert len(ops) == 21
    for i in range(len(ops)):
        for j in range(i):
            assert ops[i] * ops[j] == ops[j] * ops[i]


def _meets_weil_bound(coeffs, ell):
    """Every root r of the polynomial is real with r^2 <= 4*ell (exact)."""
    x = sympy.Symbol("x")
    # count_roots counts distinct roots, so count on irreducible factors
    _c, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
    for g, _e in factors:
        if g.count_roots() != g.degree():
            return False
        # g(x) g(-x) = +-h(x^2), and the roots of h are the squares r^2
        even = (g * g.compose(sympy.Poly(-x, x))).all_coeffs()
        h = sympy.Poly(even[::2], x).sqf_part()
        if h.count_roots(0, 4 * ell) != h.degree():
            return False
    return True


def test_weil_bound_oracle_self_check():
    assert _meets_weil_bound((2, 0, 1), 2) is False  # x^2 + 2: not real
    assert _meets_weil_bound((-9, 0, 1), 2) is False  # roots +-3 > 2*sqrt(2)
    assert _meets_weil_bound((-8, 0, 1), 2) is True  # roots +-2*sqrt(2)
    assert _meets_weil_bound((1, -2, 1), 2) is True  # (x - 1)^2


def test_hecke_charpolys_meet_weil_bound_at_431(hecke_431):
    # U_431 acts on newforms of prime level by a_431 = +-1
    for ell, t in hecke_431.items():
        assert _meets_weil_bound(charpoly_int(t).coeffs, ell), ell


def test_hecke_charpolys_meet_weil_bound_at_66():
    # the bound is for T_ell with ell prime to the level: U_p at p | 66
    # acts on oldforms with the non-real roots of x^2 - a_p x + p
    sp = build_space(66)
    good = [ell for ell in primes_upto(sturm_bound(66) + 1) if 66 % ell]
    assert good == [5, 7, 13, 17, 19, 23]
    for ell in good:
        assert _meets_weil_bound(charpoly_int(hecke(sp, ell).matrix).coeffs, ell), ell


# --- involutions -----------------------------------------------------------


def test_star_involution():
    for n in [11, 14, 22, 37]:
        sp = build_space(n)
        s = star_involution(sp).matrix
        assert s * s == IntMatrix.identity(s.rows)
        t = hecke(sp, 3 if n % 3 else 5).matrix
        assert s * t == t * s


# --- the new lattice --------------------------------------------------------


def new_rank(n):
    """Rank of the new lattice at squarefree n, twice dim S_2(n)^new.

    The genus of X_0(n) is sum_{d | n} 2^omega(n/d) g_new(d), since each
    newform of level d has one old image per divisor of n/d; Moebius
    inversion of 2^omega over squarefree divisors gives (-2)^omega.
    """
    return 2 * sum((-2) ** len(factorization(n // d)) * genus_x0(d)
                   for d in range(1, n + 1) if n % d == 0)


SQUAREFREE_CUSPIDAL = [n for n in range(11, 111)
                       if all(e == 1 for e in factorization(n).values())
                       and genus_x0(n)]


@pytest.mark.parametrize("n", SQUAREFREE_CUSPIDAL)
def test_new_lattice_is_the_p_new_part(n):
    # rank against the genus formula, and U_p = -w_p an involution on it
    sp = build_space(n)
    new = new_lattice(sp)
    assert new.rank == new_rank(n)
    ident = IntMatrix.identity(new.rank)
    for p in factorization(n):
        u = restrict_operator(new, hecke(sp, p).matrix)
        assert u * u == ident, p


def test_report_at_66_builds_one_space():
    # U_p on the level itself decides newness: no lower level is built
    from maninforge import invariants as inv

    build_space.cache_clear()
    inv.level_data.cache_clear()
    inv.deg_cong_report(66)
    assert build_space.cache_info().currsize == 1


@pytest.mark.parametrize(
    "n,expected_new_rank", [(22, 0), (26, 4), (33, 2), (37, 4), (57, 6)]
)
def test_new_lattice_rank(n, expected_new_rank):
    sp = build_space(n)
    assert new_lattice(sp).rank == expected_new_rank


def test_new_lattice_is_hecke_stable():
    sp = build_space(33)
    nl = new_lattice(sp)
    for ell in [2, 5]:
        restrict_operator(nl, hecke(sp, ell).matrix)  # raises if not stable


def test_degeneracy_requires_squarefree():
    sp = build_space(12)
    with pytest.raises(ValueError):
        new_lattice(sp)


def test_factorize_matches_sympy():
    assert factorize(1) == {}
    for n in range(2, 2001):
        assert factorize(n) == sympy.factorint(n), n
    assert list(factorize(2 * 3 * 5 * 7 * 11)) == [2, 3, 5, 7, 11]


def test_factorize_splits_large_semiprimes():
    # trial division alone would take minutes on these
    for p, q in [(1000000007, 1000000009), (999999929, 999999937),
                 (2147483647, 2147483647), (4294967279, 4294967291)]:
        assert factorize(p * q) == sympy.factorint(p * q)
    assert factorize(2**10 * 6947 * 1000000007) == {
        2: 10, 6947: 1, 1000000007: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**64 - 1))
def test_hypothesis_factorize_matches_sympy(n):
    assert factorize(n) == sympy.factorint(n)


def test_factorize_refuses_an_uncertifiable_factor():
    # MR_BOUND is a product of two primes above 2^40, and the next prime
    # above it cannot be certified at all
    for n in (MR_BOUND, 12 * sympy.nextprime(MR_BOUND)):
        with pytest.raises(ArithmeticError):
            factorize(n)


def test_is_prime_matches_sympy():
    assert [n for n in range(10**5) if is_prime(n)] == \
        list(sympy.primerange(10**5))
    # a Carmichael number and strong pseudoprimes to the first 1, 4, 9 and
    # 12 prime bases
    for n in (561, 2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**14 + 31) and is_prime(9999999999999999961)
    assert is_prime(MR_BOUND - 1) == sympy.isprime(MR_BOUND - 1)
    with pytest.raises(ValueError):
        is_prime(MR_BOUND)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(30) and is_squarefree(431)
    assert not is_squarefree(12) and not is_squarefree(49)
