"""Tests for the Hecke algebra, newform decomposition, and local structure."""

import pytest

from maninforge.exact_linalg import IntLattice, IntMatrix, restrict_operator
from maninforge.hecke_algebra import (
    build_hecke_algebra,
    decompose_new,
    eigenvalue_table,
    fiber_dim,
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
    assert primes_upto(13) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []


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
    sp = build_space(57)
    alg = build_hecke_algebra(sp)
    classes = decompose_new(sp, alg)
    for c in classes:
        e = c.e_f
        assert e.is_idempotent()
        assert (e * c.e_perp).clear_denominators()[0].is_zero()
    # distinct classes have orthogonal idempotents
    assert (classes[0].e_f * classes[1].e_f).clear_denominators()[0].is_zero()


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


def test_fiber_dim_of_algebra_itself_is_one():
    sp = build_space(37)
    alg = build_hecke_algebra(sp)
    for p in [2, 3, 5]:
        for m in maximal_ideals(alg, p):
            assert fiber_dim(alg, m) == 1


@pytest.mark.parametrize("n", [23, 29, 31, 37, 41, 43, 47, 53])
def test_gorenstein_inequality_prime_levels(n):
    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    s_std = IntLattice.standard(sp.cuspidal_rank)
    for p in [2, 3, 5, 7, 11, 13]:
        for m in maximal_ideals(alg, p):
            verdict = is_gorenstein(alg, m, s_std)
            assert verdict.status in ("true", "false")
            assert verdict.fiber_dimension <= socle_dim(alg, m) + 1


def test_gorenstein_true_means_fiber_two():
    sp = build_space(23)
    alg = build_hecke_algebra(sp)
    s_std = IntLattice.standard(sp.cuspidal_rank)
    (m,) = maximal_ideals(alg, 2)
    verdict = is_gorenstein(alg, m, s_std)
    assert verdict.status == "true"
    assert verdict.fiber_dimension == 2


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
            e2 = tuple(c % pk for c in alg.mult_coords(e, e))
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
    from maninforge.exact_linalg import hnf_basis, snf
    from maninforge.hecke_algebra import _exact_quotient, poly_kernel_saturated

    space = build_space(89)
    algebra = build_hecke_algebra(space)
    for cls in decompose_new(space, algebra):
        for g in [cls.g_poly,
                  _exact_quotient(cls.radical_full, cls.g_poly)]:
            if g.degree == 0:
                continue
            k = poly_kernel_saturated(cls.separator, g)
            g_t = g.evaluate_matrix(cls.separator)
            assert (k.basis * g_t).is_zero()
            assert k.rank == g_t.rows - len(
                hnf_basis([list(r) for r in g_t.data], g_t.cols))
            assert snf(k.basis) == (1,) * k.rank


def test_big_algebra_build_matches_default():
    from maninforge.hecke_algebra import _build_algebra_big

    for n in [67, 89]:
        space = build_space(n)
        small = build_hecke_algebra(space)
        big = _build_algebra_big(space)
        assert big.rank == small.rank
        assert list(big.basis_mats) == list(small.basis_mats)


@pytest.mark.parametrize("n", [46, 57])
def test_structure_constants_match_matrix_products(n):
    import random

    from maninforge.hecke_algebra import _PIVOT_PRIME, _fp_rank, _ModPAlgebra

    sp = build_space(n)
    alg = build_hecke_algebra(sp)
    # at 46, T is not saturated in End(S) and its matrix embedding
    # degenerates mod 2; at 57 it is saturated
    rows = [[x for r in m.data for x in r] for m in alg.basis_mats]
    assert (saturation_index(alg) > 1) == (n == 46)
    assert (_fp_rank(rows, 2) < alg.rank) == (n == 46)
    rings = [alg] + [order_of(alg, cls) for cls in decompose_new(sp, alg)]
    rng = random.Random(n)
    for ring in rings:
        # _PIVOT_PRIME is past exact float64 products: Python-int path
        mod_p = {p: _ModPAlgebra(ring, p) for p in (2, 3, 5, _PIVOT_PRIME)}
        for _ in range(20):
            x = [rng.randint(-40, 40) for _ in range(ring.rank)]
            y = [rng.randint(-40, 40) for _ in range(ring.rank)]
            want = ring.coords_of(ring.matrix_of(x) * ring.matrix_of(y),
                                  verify=True)
            assert want is not None
            assert ring.mult_coords(x, y) == want
            for p, alg_p in mod_p.items():
                assert alg_p.mul(x, y) == tuple(c % p for c in want)


def test_closure_tripwire_catches_a_corrupted_basis_row():
    from maninforge.hecke_algebra import _BIG_GENUS, _closure_tripwire_big

    # 204 is the smallest level of genus >= _BIG_GENUS, the first that
    # build_hecke_algebra sends through _build_algebra_big
    sp = build_space(204)
    assert sp.cuspidal_rank >= 2 * _BIG_GENUS
    alg = build_hecke_algebra(sp)
    r = sp.cuspidal_rank
    b_rows = [[x for row in m.data for x in row] for m in alg.basis_mats]
    pivots = alg._solver.pivot_cols
    pos = [divmod(c, r) for c in pivots]
    _closure_tripwire_big(alg, alg.gens, b_rows, pos)  # clean: passes
    col = next(c for c in range(r * r) if c not in set(pivots))
    b_rows[alg.rank // 2][col] += 1
    with pytest.raises(ValueError, match="closure verification failed"):
        _closure_tripwire_big(alg, alg.gens, b_rows, pos)
