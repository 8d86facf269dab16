"""Tests for the Hecke algebra, newform decomposition, and local structure."""

import numpy as np
import pytest

from maninforge.exact_linalg import IntMatrix, restrict_operator
from maninforge.hecke_algebra import (
    GorensteinVerdict,
    build_hecke_algebra,
    decompose_new,
    eigenvalue_table,
    is_dvr,
    is_gorenstein,
    lift_idempotent,
    maximal_ideals,
    order_of,
    primes_upto,
    saturation_index,
    socle_dim,
    sturm_bound,
    u_p_unit_check,
)
from maninforge.modsym import build_space, hecke, is_squarefree, new_lattice
from maninforge.polyarith import charpoly_int


def test_sturm_bound_examples():
    assert sturm_bound(11) == 2
    assert sturm_bound(431) == 72
    assert sturm_bound(1) == 1


def test_primes_upto():
    import sympy

    assert primes_upto(13) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []
    for bound in (2, 3, 100, 7919, 10**4):
        assert primes_upto(bound) == list(sympy.primerange(bound + 1))
    assert primes_upto((1 << 20) - 1)[-1] == 1048573
    with pytest.raises(ValueError):
        primes_upto(1 << 20)


@pytest.mark.parametrize("n", [23, 29, 31, 37, 43])
def test_algebra_rank_is_genus_at_prime_level(n):
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    assert alg.rank == sp.cuspidal_rank // 2


def test_algebra_contains_and_coords_roundtrip():
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    t3 = hecke(sp, 3).matrix
    coords = alg.coords_of(t3, verify=True)
    assert coords is not None
    assert alg.matrix_of(coords) == t3


@pytest.mark.parametrize("n", [23, 26, 33, 35, 39, 57, 65])
def test_decomposition_fills_new_space(n):
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    classes = decompose_new(sp, alg)
    assert sum(2 * c.dimension for c in classes) == new_lattice(sp).rank
    # labels deterministic and ordered by dimension
    dims = [c.dimension for c in classes]
    assert dims == sorted(dims)
    for i, c in enumerate(classes):
        assert c.label == (n, i)


def test_idempotents_are_orthogonal():
    # e_f + e_perp = 1 and e_f * e_perp = 0 say, on lattices, that the two
    # kernels of each carrier have complementary ranks and meet in 0, and
    # that T[e_perp] kills S[e_f] and T[e_f] kills S_f.  S[e_f] is sympy's
    # saturated kernel of g_rest(t), g_rest the other factors of the
    # separator's radical; it lies in W^perp, W the column kernel of g(t)
    from test_invariants import sympy_old_lattices

    from maninforge.exact_linalg import hnf_basis
    from maninforge.hecke_algebra import poly_kernel_saturated
    from maninforge.invariants import level_data

    data = level_data(57)
    r, d = data.space.cuspidal_rank, data.algebra.rank
    for cls in data.classes:
        s_ef = sympy_old_lattices(57, cls.label[1])[0]
        s_f = [list(v) for v in cls.lattice.basis.data]
        t_rows = data.module(cls, "T")[0]
        t_ef, t_eperp = t_rows[:d - cls.dimension], t_rows[d - cls.dimension:]
        for rank, k1, k2 in [(r, s_ef, s_f), (d, t_ef, t_eperp)]:
            assert len(k1) + len(k2) == rank
            assert len(hnf_basis([list(v) for v in k1 + k2], rank)) == rank
        s_ef = IntMatrix.from_rows(s_ef, r)
        for x in t_eperp:
            assert (s_ef * data.algebra.matrix_of(list(x))).is_zero()
        for x in t_ef:
            assert (cls.lattice.basis
                    * data.algebra.matrix_of(list(x))).is_zero()
        w = poly_kernel_saturated(cls.separator.transpose(), cls.g_poly)
        assert w.rank == 2 * cls.dimension
        assert (s_ef * w.basis.transpose()).is_zero()
        assert (cls.lattice.basis
                * cls.g_poly.evaluate_matrix(cls.separator)).is_zero()


def test_order_at_23_is_golden_ratio_ring():
    # the unique class at 23 has dimension 2 with Hecke field Q(sqrt 5)
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    (cls,) = decompose_new(sp, alg)
    assert cls.dimension == 2
    order = order_of(alg, cls)
    assert order.discriminant() == 5
    # a_2 has minimal polynomial x^2 + x - 1
    table = eigenvalue_table(alg, cls, order, [2])
    a2 = order.matrix_of(table[2])
    cp = charpoly_int(a2)
    # charpoly on the rank-4 lattice is (x^2 + x - 1)^2
    from maninforge.polyarith import IntPoly

    assert cp == IntPoly((-1, 1, 1)) * IntPoly((-1, 1, 1))


def test_residue_field_f4_at_23():
    # 2 is inert in Z[(1+sqrt5)/2]: a single maximal ideal with residue F_4
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    ideals = maximal_ideals(alg, 2)
    assert len(ideals) == 1
    assert ideals[0].residue_degree == 2


@pytest.mark.parametrize("n", [23, 29, 31, 37, 41, 43, 47, 53])
def test_gorenstein_inequality_prime_levels(n):
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    for p in [2, 3, 5, 7, 11, 13]:
        for m in maximal_ideals(alg, p):
            verdict = is_gorenstein(alg, m)
            assert verdict.status in ("true", "false")
            assert verdict.fiber_dimension <= socle_dim(alg, m) + 1


def test_gorenstein_true_means_fiber_two():
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    (m,) = maximal_ideals(alg, 2)
    verdict = is_gorenstein(alg, m)
    assert verdict.status == "true"
    assert verdict.fiber_dimension == 2


def test_gorenstein_fiber_two_at_a_prime_past_int64_products():
    # p^2 passes 2^63: the residue products must not wrap
    import sympy

    p = 8589934609
    assert sympy.isprime(p) and p * p >= 1 << 63
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    ideals = maximal_ideals(alg, p)
    assert [m.residue_degree for m in ideals] == [1, 1]
    for m in ideals:
        assert is_gorenstein(alg, m) == GorensteinVerdict("true", 2)


@pytest.mark.parametrize("n", [23, 29, 31, 33, 35, 37, 39, 41, 43, 47])
def test_saturation_index_is_one_odd_squarefree(n):
    assert is_squarefree(n) and n % 2
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    assert saturation_index(alg) == 1


def test_dvr_at_small_levels():
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    (cls,) = decompose_new(sp, alg)
    order = order_of(alg, cls)
    # Z[(1+sqrt5)/2] is maximal, hence a DVR at every maximal ideal
    for p in [2, 3, 5, 7]:
        for m in maximal_ideals(order, p):
            assert is_dvr(order, m) is True


def test_lift_idempotent_is_idempotent_mod_pk():
    sp = build_space(33)
    alg = build_hecke_algebra(sp)
    for p in [2, 3, 5]:
        for m in maximal_ideals(alg, p):
            pk = p**6
            e = lift_idempotent(alg, m, pk)
            e2 = tuple(alg.mult_coords(e, e, pk))
            assert e2 == tuple(c % pk for c in e)
    # the lifts over a fixed p sum to the identity mod p^k
    for p in [2, 3]:
        pk = p**6
        total = [0] * alg.rank
        for m in maximal_ideals(alg, p):
            e = lift_idempotent(alg, m, pk)
            total = [a + b for a, b in zip(total, e)]
        unit = alg.unit_coords()
        assert all((a - u) % pk == 0 for a, u in zip(total, unit))


@pytest.mark.parametrize("p, modulus", [(3, 81), (5, 125)])
def test_lift_idempotent_refuses_a_non_idempotent(p, modulus):
    # 2 is not idempotent mod 3 or mod 5; iterating e <- 3e^2 - 2e^3 to a
    # fixed point ends at 1/2 mod 81, which is not idempotent, and at 1
    # from 2 mod 5, which does not reduce to the planted residue
    from maninforge.exact_linalg import InvariantViolation
    from maninforge.hecke_algebra import MaxIdeal

    alg = build_hecke_algebra(build_space(11))
    assert alg.rank == 1
    planted = MaxIdeal(alg, p, (2,), 1)
    with pytest.raises(InvariantViolation, match="does not lift"):
        lift_idempotent(alg, planted, modulus)


def test_u_p_unit_check_signs():
    sp = build_space(26)
    alg = build_hecke_algebra(sp)
    classes = decompose_new(sp, alg)
    signs = sorted(u_p_unit_check(c, 2) for c in classes)
    assert signs == [-1, 1]
    for c in classes:
        assert u_p_unit_check(c, 13) in (-1, 1)


def test_class_lattice_is_hecke_stable():
    sp = build_space(35)
    alg = build_hecke_algebra(sp)
    for cls in decompose_new(sp, alg):
        for ell in [2, 3, 11]:
            restrict_operator(cls.lattice, hecke(sp, ell).matrix)


def test_empty_level_has_no_classes():
    sp = build_space(13)  # genus 0
    alg = build_hecke_algebra(sp)
    assert alg.rank == 0 or sp.cuspidal_rank == 0
    assert decompose_new(sp, alg) == []


def test_poly_kernel_saturated_characterized():
    # row kernels of g(t) and of sympy's g_rest(t), and column kernels
    # W = poly_kernel_saturated(t^T, g), with g(t) W^T = 0
    from test_invariants import sympy_g_rest

    from maninforge.exact_linalg import hnf_basis, snf
    from maninforge.hecke_algebra import poly_kernel_saturated
    from maninforge.invariants import level_data
    from maninforge.polyarith import IntPoly

    for n in (89, 66):  # 66 has old forms
        for cls in level_data(n).classes:
            g_rest = IntPoly(sympy_g_rest(n, cls.label[1]))
            for t in (cls.separator, cls.separator.transpose()):
                for g in (cls.g_poly, g_rest):
                    if g.degree == 0:
                        continue
                    k = poly_kernel_saturated(t, g)
                    g_t = g.evaluate_matrix(t)
                    assert (k.basis * g_t).is_zero()
                    assert k.rank == g_t.rows - len(
                        hnf_basis([list(r) for r in g_t.data], g_t.cols))
                    assert snf(k.basis) == (1,) * k.rank


@pytest.mark.parametrize("n, n_classes", [(78, 1), (130, 3)])
def test_decompose_certifies_one_kernel_per_class(monkeypatch, n, n_classes):
    # losing candidates are rejected by their mod-p coranks, so certified
    # kernels are computed for the winning separator only, one per class
    from maninforge import hecke_algebra

    calls = []
    real = hecke_algebra.poly_kernel_saturated

    def counting(t, g):
        calls.append(g)
        return real(t, g)

    monkeypatch.setattr(hecke_algebra, "poly_kernel_saturated", counting)
    space = build_space(n)
    classes = decompose_new(space, build_hecke_algebra(space))
    assert len(classes) == n_classes
    assert calls == [c.g_poly for c in classes]


def test_decompose_tripwire_catches_a_wrong_kernel(monkeypatch):
    # the exact certificate of the winning separator is what stands behind
    # the mod-p corank test: a kernel of the wrong rank must raise
    from maninforge import hecke_algebra
    from maninforge.exact_linalg import IntLattice, InvariantViolation

    def too_small(t, g):
        return IntLattice(t.rows, [[1] + [0] * (t.rows - 1)])

    monkeypatch.setattr(hecke_algebra, "poly_kernel_saturated", too_small)
    space = build_space(57)
    with pytest.raises(InvariantViolation):
        decompose_new(space, build_hecke_algebra(space))


def test_decompose_tripwire_catches_a_kernel_outside_the_new_lattice(
        monkeypatch):
    # at 33 the new lattice has rank 2 in S of rank 6; a kernel of the right
    # rank 2 that is not inside it must raise, not become a class
    from maninforge import hecke_algebra
    from maninforge.exact_linalg import IntLattice, InvariantViolation, hnf_basis

    space = build_space(33)
    algebra = build_hecke_algebra(space)
    new = new_lattice(space)
    assert (new.rank, space.cuspidal_rank) == (2, 6)
    outside = IntLattice(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    # new + outside has rank above 2, so outside is not in new
    rows = [list(v) for v in new.basis.data + outside.basis.data]
    assert len(hnf_basis(rows, 6)) > new.rank

    monkeypatch.setattr(hecke_algebra, "poly_kernel_saturated",
                        lambda t, g: outside)
    with pytest.raises(InvariantViolation, match="leaves the new lattice"):
        decompose_new(space, algebra)


@pytest.mark.parametrize("n", [102, 105, 110])
def test_algebra_rank_is_genus(n):
    from test_modsym import genus_x0

    assert build_hecke_algebra(build_space(n)).rank == genus_x0(n)


def test_closure_is_exact_at_102():
    # every basis x seed product, checked over Z: past 120 pairs the
    # builder's own closure check samples
    sp = build_space(102)
    alg = build_hecke_algebra(sp)
    assert alg.rank * len(alg.gens) > 120
    for b in alg.basis_mats:
        for g in alg.gens.values():
            prod = b * g
            z = alg._solver.solve([x for row in prod.data for x in row])
            assert z is not None
            assert alg.matrix_of(z) == prod


@pytest.mark.parametrize("n", [46, 57])
def test_structure_constants_match_matrix_products(n):
    import random

    from maninforge.exact_linalg import _mod_p_product, _rref_mod_p
    from maninforge.hecke_algebra import _PIVOT_PRIME

    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    # at 46, T is not saturated in End(S) and its matrix embedding
    # degenerates mod 2; at 57 it is saturated
    rows = [[x for r in m.data for x in r] for m in alg.basis_mats]
    assert (saturation_index(alg) > 1) == (n == 46)
    assert (len(_rref_mod_p(rows, 2)[1]) < alg.rank) == (n == 46)
    rings = [alg] + [order_of(alg, cls) for cls in decompose_new(sp, alg)]
    # prime powers on both product paths: 2^23 on float64, 3^18 (past
    # 2^27) and _PIVOT_PRIME past exact float64 products, on Python ints
    powers = (2**23, 3**18)
    assert _mod_p_product(2**23)[0] is np.float64
    assert _mod_p_product(3**18)[0] is object
    rng = random.Random(n)
    for ring in rings:
        xs, ys, wants = [], [], []
        for _ in range(20):
            x = [rng.randint(-40, 40) for _ in range(ring.rank)]
            y = [rng.randint(-40, 40) for _ in range(ring.rank)]
            want = ring.coords_of(ring.matrix_of(x) * ring.matrix_of(y),
                                  verify=True)
            assert want is not None
            xs.append(x)
            ys.append(y)
            wants.append(want)
        # one pair at a time, and the 20 pairs as one stack
        for q in powers + (2, 3, 5, _PIVOT_PRIME):
            reduced = [[c % q for c in want] for want in wants]
            assert [ring.mult_coords(x, y, q)
                    for x, y in zip(xs, ys)] == reduced
            assert ring.mult_coords(xs, ys, q) == reduced


def test_closure_tripwire_catches_a_corrupted_basis_row():
    from maninforge.hecke_algebra import HeckeAlgebra, _check_closure

    sp = build_space(46)
    alg = build_hecke_algebra(sp)
    _check_closure(alg, alg.gens)  # clean: passes
    r = sp.cuspidal_rank
    # an entry in a row that holds no pivot column: every product still
    # solves through the (untouched) pivot entries, so only the exact
    # comparison can catch it
    pivot_rows = {c // r for c in alg._solver.pivot_cols}
    a = next(i for i in range(r) if i not in pivot_rows)
    mats = list(alg.basis_mats)
    data = [list(row) for row in mats[-1].data]
    data[a][0] += 1
    mats[-1] = IntMatrix(r, r, data)
    bad = HeckeAlgebra(alg.level, sp, alg.gens, tuple(mats), alg.rank,
                       alg._solver)
    with pytest.raises(ValueError, match="closure verification failed"):
        _check_closure(bad, alg.gens)


def test_span_check_uses_enough_primes():
    from maninforge.exact_linalg import _ModReducer, _vanishes, _word_primes

    alg = build_hecke_algebra(build_space(46))
    unit = alg.unit_coords()
    primes = _word_primes()
    m = next(primes) * next(primes)
    ident = [x for row in IntMatrix.identity(alg.dim_s).data for x in row]
    assert alg._combines_to([unit], _ModReducer(ident, (1, len(ident))).mod, 1)
    # off by the product of the first two primes: only a third one sees it
    ident[1] += m
    assert not alg._combines_to(
        [unit], _ModReducer(ident, (1, len(ident))).mod, m)
    # the same array, zero modulo the first two primes, checked directly
    assert not _vanishes(lambda p: [0, m % p], m)
    assert _vanishes(lambda p: [0, 0], m)


def _mod_p_rank(rows, p):
    from maninforge.exact_linalg import _rref_mod_p

    return len(_rref_mod_p(rows, p)[1]) if rows else 0


def _power(ring, x, e, p):
    """x^e modulo p by square-and-multiply through mult_coords."""
    out = [c % p for c in ring.unit_coords()]
    while e:
        if e & 1:
            out = ring.mult_coords(out, x, p)
        x = ring.mult_coords(x, x, p)
        e >>= 1
    return out


@pytest.mark.parametrize("n, primes", [
    (46, [2, 3, 5, 7, 11]),
    (57, [2, 3, 5, 7]),
    (77, [2, 3, 5, 7]),
    (23, [2, 5, 8589934609]),
])
def test_maximal_ideals_are_a_complete_local_decomposition(n, primes):
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    rings = [alg] + [order_of(alg, cls) for cls in decompose_new(sp, alg)]
    for ring in rings:
        for p in primes:
            ideals = maximal_ideals(ring, p)
            unit = [c % p for c in ring.unit_coords()]
            es = [list(m.idempotent) for m in ideals]
            # idempotent, pairwise orthogonal, summing to the unit
            for i, e in enumerate(es):
                assert ring.mult_coords(e, e, p) == e
                for f in es[i + 1:]:
                    assert not any(ring.mult_coords(e, f, p))
            assert [sum(col) % p for col in zip(*es)] == unit
            assert sum(len(m.comp_basis) for m in ideals) == ring.rank
            for m in ideals:
                rad = [list(v) for v in m.radical_basis]
                # x^(p^f) - x lies in the radical: comp / rad is F_(p^f)
                for x in m.comp_basis:
                    y = _power(ring, list(x), p ** m.residue_degree, p)
                    diff = [(a - b) % p for a, b in zip(y, x)]
                    assert _mod_p_rank(rad + [diff], p) == len(rad)
                # the radical is nilpotent: rad^c = 0, c = dim of the factor
                power = rad
                for _ in range(len(m.comp_basis)):
                    power = [ring.mult_coords(a, r, p)
                             for a in power for r in rad]
                    power = [v for v in power if any(v)]
                    if not power:
                        break
                assert not power


@pytest.mark.parametrize("n, index", [
    (23, 0), (53, 1), (62, 1), (79, 1), (91, 3), (95, 1), (97, 0),
])
def test_order_ideals_match_dedekind_kummer(n, index):
    # when disc(g) = disc(O_f) for the minimal polynomial g of a_ell, O_f
    # is Z[a_ell], so its ideals over p are the factors of g mod p: one
    # per irreducible factor, of that degree, with local length its
    # multiplicity
    import sympy
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    from maninforge.polyarith import squarefree_radical

    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    cls = decompose_new(sp, alg)[index]
    order = order_of(alg, cls)
    ell = next(q for q in primes_upto(50) if n % q)
    a_ell = restrict_operator(cls.lattice, hecke(sp, ell).matrix)
    g = list(reversed(squarefree_radical(charpoly_int(a_ell)).coeffs))
    assert len(g) == cls.dimension + 1
    x = sympy.symbols("x")
    assert sympy.discriminant(sympy.Poly(g, x)) == order.discriminant()
    for p in primes_upto(13):
        want = sorted((len(h) - 1, e) for h, e in gf_factor(ZZ.map(g), p, ZZ)[1])
        got = sorted((m.residue_degree, len(m.comp_basis) // m.residue_degree)
                     for m in maximal_ideals(order, p))
        assert got == want, p
