"""Tests for exact polynomial arithmetic and factorization."""

import random

from hypothesis import given, settings, strategies as st
import pytest
import sympy

from maninforge.exact_linalg import IntMatrix
from maninforge.polyarith import (
    FpPoly,
    IntPoly,
    charpoly_int,
    factor_fp,
    factor_q,
    squarefree_radical,
)

coeff = st.integers(min_value=-8, max_value=8)


def poly_product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def test_intpoly_basics():
    f = IntPoly((1, 2, 3))  # 3x^2 + 2x + 1
    assert f.degree == 2
    assert f.evaluate(2) == 17
    assert f.derivative().coeffs == (2, 6)
    assert IntPoly((2, 4, 6)).content() == 2
    assert IntPoly((2, 4, 6)).primitive().coeffs == (1, 2, 3)
    assert IntPoly((0,)).is_zero()


def test_evaluate_matrix():
    m = IntMatrix.from_rows([[0, 1], [1, 0]], 2)
    f = IntPoly((-1, 0, 1))  # x^2 - 1 kills the swap matrix
    assert f.evaluate_matrix(m).is_zero()


def test_squarefree_radical():
    f = IntPoly((1, 1)) * IntPoly((1, 1)) * IntPoly((2, 0, 1))
    rad = squarefree_radical(f)
    assert rad == (IntPoly((1, 1)) * IntPoly((2, 0, 1))).primitive()


def test_factor_fp():
    f = FpPoly(2, (1, 1, 1))
    assert factor_fp(f) == [f]
    # x^p - x splits completely mod p
    p = 7
    f = FpPoly(p, tuple([0, p - 1] + [0] * (p - 2) + [1]))
    fac = factor_fp(f)
    assert len(fac) == p
    assert all(g.degree == 1 for g in fac)
    assert poly_product(fac) == f


def test_factor_fp_refuses_repeated_factors():
    with pytest.raises(ValueError):
        factor_fp(FpPoly(5, (0, 0, 1)))  # x^2
    x_plus_1_to_5 = FpPoly(5, (1, 5, 10, 10, 5, 1))
    assert x_plus_1_to_5.derivative().is_zero()
    with pytest.raises(ValueError):
        factor_fp(x_plus_1_to_5)


def test_factor_q_known():
    f1 = IntPoly((1, -1, 1))
    f2 = IntPoly((3, 3, 1))
    f3 = IntPoly((-1, 0, 0, 1, 1))
    prod = poly_product([f1, f2, f3])
    fac = factor_q(prod)
    assert poly_product(fac) == prod
    assert fac == [f1, f2, f3]


def test_factor_q_refuses_repeated_factors():
    with pytest.raises(ValueError):
        factor_q(poly_product([IntPoly((1, -1, 1)), IntPoly((3, 3, 1)),
                               IntPoly((3, 3, 1))]))


def test_factor_q_nonmonic_and_constant():
    f = IntPoly((6,)) * IntPoly((1, 2)) * IntPoly((-3, 2))
    fac = factor_q(f)
    # factorization is into primitive irreducibles; content may be dropped
    assert poly_product(fac) == f.primitive()
    assert all(g.degree >= 1 for g in fac)


def _sympy_sqf_part(f, x):
    """The squarefree part of f, by sympy, as a primitive IntPoly."""
    part = sympy.Poly(list(reversed(f.coeffs)), x).sqf_part()
    return IntPoly([int(c) for c in reversed(part.all_coeffs())]).primitive()


def _positive_leading(g):
    return -g if g.leading() < 0 else g


def test_factor_q_matches_sympy():
    rng = random.Random(99)
    x = sympy.Symbol("x")
    for _ in range(10):
        deg = rng.randint(2, 9)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        f = _sympy_sqf_part(IntPoly(tuple(coeffs)), x)
        fac = factor_q(f)
        _c, sympy_fac = sympy.Poly(list(reversed(f.coeffs)), x).factor_list()
        theirs = []
        for g, e in sympy_fac:
            assert e == 1
            cs = [int(c) for c in reversed(sympy.Poly(g, x).all_coeffs())]
            theirs.append(_positive_leading(IntPoly(tuple(cs)).primitive()).coeffs)
        ours = [_positive_leading(g).coeffs for g in fac]
        assert sorted(ours) == sorted(theirs)


def test_charpoly_int_matches_sympy():
    rng = random.Random(4)
    cases = [[[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
             for size in [1, 2, 3, 5, 8, 13, 20]]
    # entries past 2^62 are reduced per prime in Python ints
    cases.append([[rng.randint(-(2**70), 2**70) for _ in range(4)]
                  for _ in range(4)])
    for m in cases:
        cp = charpoly_int(IntMatrix.from_rows(m, len(m)))
        sm = sympy.Matrix(m)
        expected = [int(c) for c in reversed(sm.charpoly().all_coeffs())]
        assert list(cp.coeffs) == expected


def test_charpoly_cayley_hamilton():
    rng = random.Random(21)
    m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)], 6)
    cp = charpoly_int(m)
    assert cp.evaluate_matrix(m).is_zero()


@given(st.lists(coeff, min_size=1, max_size=6), st.lists(coeff, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_hypothesis_factor_roundtrip(c1, c2):
    f = IntPoly(tuple(c1)) * IntPoly(tuple(c2))
    if f.is_zero() or f.degree < 1:
        return
    sqf = _sympy_sqf_part(f, sympy.Symbol("x"))
    if sqf.degree < f.degree:
        with pytest.raises(ValueError):
            factor_q(f)
    fac = factor_q(sqf)
    assert poly_product(fac).primitive() == sqf.primitive()
    for g in fac:
        assert g.degree >= 1
        assert g.content() == 1


def test_charpoly_int_large_block_companion():
    # size 66, against a known block-companion answer
    rng = random.Random(12)
    polys = []
    left = 66
    while left:
        d = min(left, rng.randint(1, 9))
        polys.append(IntPoly([rng.randint(-6, 6) for _ in range(d)] + [1]))
        left -= d
    n = sum(p.degree for p in polys)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for p in polys:
        d = p.degree
        for i in range(d - 1):
            rows[off + i + 1][off + i] = 1
        for i in range(d):
            rows[off + i][off + d - 1] = -p.coeffs[i]
        off += d
    cp = charpoly_int(IntMatrix.from_rows(rows, n))
    expected = poly_product(polys)
    assert cp == expected


def test_int_poly_gcd_matches_rat_gcd():
    from maninforge.polyarith import int_poly_gcd

    x = sympy.Symbol("x")
    rng = random.Random(5)
    for _ in range(25):
        g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
        a = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
        b = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)])
        f1, f2 = g * a, g * b
        gc = int_poly_gcd(f1, f2)
        # oracle: sympy's gcd over Q, made primitive with a positive lead
        want = sympy.Poly(list(reversed(f1.coeffs)), x, domain="QQ").gcd(
            sympy.Poly(list(reversed(f2.coeffs)), x, domain="QQ"))
        _c, want = want.clear_denoms(convert=True)
        want = want.primitive()[1]
        if want.LC() < 0:
            want = -want
        assert gc.coeffs == tuple(int(c) for c in reversed(want.all_coeffs()))


def test_squarefree_radical_multiplicities():
    f = IntPoly([1, 1]) * IntPoly([1, 1]) * IntPoly([-2, 0, 1]) * IntPoly([3, 2])
    rad = squarefree_radical(f)
    expected = (IntPoly([1, 1]) * IntPoly([-2, 0, 1]) * IntPoly([3, 2])).primitive()
    assert rad == expected or rad == -expected
