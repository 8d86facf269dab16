"""Tests for the exact integer linear algebra kernel."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maninforge.exact_linalg import (
    IntLattice,
    IntMatrix,
    complement_projection,
    coordinates_of,
    det,
    gcdex,
    hnf,
    hnf_basis,
    kernel_saturated,
    quotient_invariants,
    restrict_operator,
    snf,
)

small_int = st.integers(min_value=-30, max_value=30)


def hb(m):
    """Nonzero HNF rows of an IntMatrix, as a list of lists."""
    return hnf_basis([list(r) for r in m.data], m.cols)


def rand_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
    )


def test_gcdex():
    for a, b in [(12, 18), (0, 5), (5, 0), (-4, 6), (0, 0), (7, -3)]:
        g, x, y = gcdex(a, b)
        assert g == a * x + b * y
        assert g >= 0
        import math

        assert g == math.gcd(a, b)


def test_hnf_spec_example():
    m = IntMatrix.from_rows([[2, 4], [1, 1]], 2)
    h, u = hnf(m)
    assert h.data == ((1, 1), (0, 2))
    assert u * m == h


def test_hnf_properties():
    rng = random.Random(7)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hnf(m)
        assert abs(det(u)) == 1 if u.rows == u.cols else True
        assert u * m == h
        # pivots positive, entries above reduced
        prev = -1
        for i in range(h.rows):
            row = h.data[i]
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                assert all(not any(r) for r in h.data[i:])
                break
            j = nz[0]
            assert j > prev
            prev = j
            assert row[j] > 0
            for k in range(i):
                assert 0 <= h.data[k][j] < row[j]


def test_snf_spec_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]], 2)
    assert snf(m) == (1, 6)


def test_snf_divisibility_and_det():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 4)
        m = rand_matrix(rng, k, k)
        d = snf(m)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        prod = 1
        for x in d:
            prod *= x
        if len(d) == k:
            assert prod == abs(det(m))
        else:
            assert det(m) == 0


def test_kernel_saturated_spec_example():
    m = IntMatrix.from_rows([[2, 4]], 2)
    k = kernel_saturated(m)
    assert k.rank == 1
    assert k.basis.data == ((2, -1),)


@pytest.mark.parametrize("extra", [[], [[2, 0, 0], [0, 3, 3], [1, 2, 2]]])
def test_kernel_survives_an_unlucky_first_prime(extra):
    # the first word prime p kills the second row, so the pivot set (and,
    # for the taller matrix, the rows) fixed there give a kernel too large
    # at every later prime: only a restart from a fresh prime recovers it
    from maninforge.exact_linalg import _word_primes

    p = next(_word_primes())
    rows = [[1, 0, 0], [0, p, p]] + [[a, b * p, c * p] for a, b, c in extra]
    k = kernel_saturated(IntMatrix.from_rows(rows, 3))
    assert k.basis.data == ((0, 1, -1),)


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        k = kernel_saturated(m)
        for row in k.basis.data:
            assert all(sum(mr[j] * row[j] for j in range(m.cols)) == 0 for mr in m.data)
        assert snf(k.basis) == (1,) * k.rank


def test_lattice_membership_and_coordinates():
    lat = IntLattice(3, [[1, 0, 2], [0, 3, 1]])
    assert lat.contains([1, 3, 3])
    assert not lat.contains([0, 1, 0])
    coords = coordinates_of(lat, [[2, 3, 5]])
    assert coords == [[2, 1]]
    assert coordinates_of(lat, [[0, 1, 0]]) is None
    lat2 = IntLattice(2, [[2, 0], [0, 1]])
    assert coordinates_of(lat2, [[1, 0]]) is None


def test_coordinates_of_rejects_a_non_integral_entry():
    # the half-integral entry sits on a pivot column in the first vectors
    # and off every pivot column in the last one
    lat = IntLattice(3, [[1, 0, 2], [0, 3, 1]])
    for v in ([Fraction(1, 2), 0, 1], [1, Fraction(1, 2), 2],
              [0, 0, Fraction(1, 2)]):
        assert coordinates_of(lat, [v]) is None
    std = IntLattice.standard(2)
    assert coordinates_of(std, [[Fraction(1, 2), 0]]) is None


def test_quotient_invariants():
    big = IntLattice.standard(2)
    small = IntLattice(2, [[2, 0], [0, 6]])
    factors, free = quotient_invariants(big, small)
    assert factors == (2, 6)
    assert free == 0
    part = IntLattice(2, [[3, 0]])
    factors, free = quotient_invariants(big, part)
    assert factors == (3,)
    assert free == 1


def test_complement_projection_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        amb = rng.randint(2, 6)
        m = rand_matrix(rng, rng.randint(1, amb), amb)
        # the kernel of the kernel is the saturation of the row span of m
        lat = kernel_saturated(kernel_saturated(m).basis)
        if lat.rank == 0 or lat.rank == amb:
            continue
        proj, sec, coords = complement_projection(lat)
        assert (sec * proj) == IntMatrix.identity(proj.cols)
        # lattice rows map to zero is NOT expected; rows of lat span the kernel
        # of proj composed appropriately: proj kills exactly the lattice
        img = lat.basis * proj
        assert all(not any(r) for r in img.data)
        # coords reads lattice coordinates: B * C = I, and [C | P] is
        # unimodular, so x -> x * C maps Z^n onto Z^rank
        assert lat.basis * coords == IntMatrix.identity(lat.rank)
        stacked = [list(c) + list(p) for c, p in zip(coords.data, proj.data)]
        assert abs(det(IntMatrix.from_rows(stacked, amb))) == 1


def test_restrict_operator():
    lat = IntLattice(3, [[1, 0, 0], [0, 2, 0]])
    a = IntMatrix.from_rows([[1, 2, 0], [2, 3, 0], [0, 0, 5]], 3)
    r = restrict_operator(lat, a)
    # basis rows times a, in basis coordinates
    assert r.data == ((1, 1), (4, 3))
    bad = IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3)
    with pytest.raises(ValueError):
        restrict_operator(lat, bad)


def test_det_consistency():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 5)
        m = rand_matrix(rng, k, k, 20)
        d = det(m)
        diag = snf(m)
        prod = 1
        for x in diag:
            prod *= x
        if len(diag) < k:
            assert d == 0
        else:
            assert abs(d) == prod


def test_matrix_text_roundtrip():
    m = IntMatrix.from_rows([[1, -2, 3], [0, 5, 70]], 3)
    assert IntMatrix.from_text(m.to_text()) == m
    lat = IntLattice(3, [[1, -2, 3], [0, 5, 70]])
    assert IntLattice.from_text(lat.to_text()).basis == lat.basis


@given(
    st.lists(
        st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_hnf_rowspace_invariant(rows):
    m = IntMatrix.from_rows(rows, 3)
    h, u = hnf(m)
    assert u * m == h
    # HNF is a canonical form: HNF of shuffled rows agrees
    m2 = IntMatrix.from_rows(list(reversed(rows)), 3)
    assert hb(m) == hb(m2)


@given(
    st.lists(
        st.lists(small_int, min_size=4, max_size=4), min_size=1, max_size=3
    )
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_kernel_orthogonal(rows):
    m = IntMatrix.from_rows(rows, 4)
    k = kernel_saturated(m)
    rank_row = len(hb(m))
    assert k.rank == 4 - rank_row
    for v in k.basis.data:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def assert_saturated_kernel(m, k):
    """k is the saturated kernel of m, checked without computing a kernel:
    every basis row is in it exactly, its rank is the corank of m and its
    invariant factors are all one."""
    assert k.ambient_dim == m.cols
    for v in k.basis.data:
        for r in m.data:
            assert sum(a * b for a, b in zip(r, v)) == 0
    assert k.rank == m.cols - len(hb(m))
    assert snf(k.basis) == (1,) * k.rank


def test_kernel_saturated_characterized():
    rng = random.Random(91)
    for _ in range(20):
        rows = rng.randint(2, 7)
        cols = rng.randint(2, 7)
        m = rand_matrix(rng, rows, cols, 40)
        # occasionally force dependent rows for nontrivial kernels
        if rng.random() < 0.5 and rows >= 2:
            m = IntMatrix.from_rows(
                [list(m.data[0])] + [list(r) for r in m.data[:-1]], cols
            )
        assert_saturated_kernel(m, kernel_saturated(m))


def test_kernel_saturated_modular_huge_entries():
    big = 10**40
    m = IntMatrix.from_rows(
        [[big, big, 0], [0, big, big], [big, 2 * big, big]], 3
    )
    k = kernel_saturated(m)
    assert k.rank == 1
    assert_saturated_kernel(m, k)


def test_hnf_with_modulus_matches_hnf_basis():
    from maninforge.exact_linalg import hnf_with_modulus

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n + 1)]
        d = rng.randint(1, 50)
        expected = hnf_basis(
            rows + [[d if i == j else 0 for j in range(n)] for i in range(n)],
            n,
        )
        assert hnf_with_modulus(rows, n, d) == expected


def test_det_matches_sympy():
    # oracle: sympy's determinant over ZZ, at ranks on both sides of 64,
    # with entries near 2^100 and singular matrices among them
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(3)
    big = 2**100
    cases = []
    for k in [1, 2, 3, 5, 8, 12]:
        cases.append([[rng.randint(big - 2**20, big) * rng.choice((1, -1))
                       for _ in range(k)] for _ in range(k)])
    for k in [20, 40, 64, 65, 90]:
        rows = rand_matrix(rng, k, k, 9).data
        # one row of entries near 2^100 keeps the minors small enough to
        # be quick at rank 90
        cases.append([list(r) for r in rows[:-1]]
                     + [[big - rng.randrange(2**20) for _ in range(k)]])
    for k in [4, 65, 90]:
        # rank k - 1: the last row is a combination of two others
        rows = [list(r) for r in rand_matrix(rng, k - 1, k, 9).data]
        rows.append([big * x - 3 * y for x, y in zip(rows[0], rows[-1])])
        cases.append(rows)
    cases.append([[0] * 66 for _ in range(66)])
    for rows in cases:
        k = len(rows)
        want = DomainMatrix([[ZZ(x) for x in r] for r in rows], (k, k),
                            ZZ).det()
        assert det(IntMatrix.from_rows(rows, k)) == int(want), k
    assert det(IntMatrix.zeros(0, 0)) == 1


def test_mod_reducer_matches_direct():
    from maninforge.exact_linalg import _ModReducer, _word_primes

    rng = random.Random(7)
    flat = [rng.randint(-(10**90), 10**90) for _ in range(300)]
    flat += [0, 1, -1, 2**200, -(2**199)]
    red = _ModReducer(flat, (len(flat),))
    assert red._limbs is not None  # bigint limb path engaged
    primes = _word_primes()
    for _ in range(4):
        p = next(primes)
        got = red.mod(p)
        assert [int(g) for g in got] == [x % p for x in flat]
    small = [rng.randint(-(10**9), 10**9) for _ in range(100)]
    red64 = _ModReducer(small, (10, 10))
    assert red64._limbs is None  # machine-word fast path
    assert red64.mod(1048573).reshape(-1).tolist() == [x % 1048573 for x in small]


# the largest word prime, a prime past 2^31 (Python-int limb dot) and one
# past 2^63 (Python-int residues)
@pytest.mark.parametrize("p", [2, 65537, 1048573, 8589934609, 2**64 + 13])
@pytest.mark.parametrize("kind", ["int64", "past_2_62", "past_2_63",
                                  "negative", "empty", "past_old_limit"])
def test_mod_reducer_matches_python_mod_at_every_entry_size(p, kind):
    import numpy as np

    from maninforge.exact_linalg import _ModReducer, _word_primes

    assert next(_word_primes()) == 1048573
    rng = random.Random(kind)
    rows = {
        "int64": [[rng.randint(-(2**62), 2**62) for _ in range(5)]
                  for _ in range(4)],
        "past_2_62": [[2**62 + i, 2**63 - 1 - i, -(2**63) + i] for i in range(3)],
        "past_2_63": [[2**63, -(2**63) - 1, 2**64 + 3, 7]],
        "negative": [[-rng.randint(1, 2**200) for _ in range(3)]
                     for _ in range(3)],
        "empty": [],
        # 2049 limbs: p * nlimbs passes 2^31 at the largest word prime
        "past_old_limit": [[2**65600 + rng.randint(0, 2**70), -(3**41500), 1],
                           [0, -1, -(2**65599) - 12345]],
    }[kind]
    red = _ModReducer(rows, (len(rows), len(rows[0]) if rows else 0))
    got = red.mod(p)
    assert got.dtype == (np.int64 if p < 2**63 else object)
    assert got.shape == red.shape
    assert got.tolist() == [[x % p for x in row] for row in rows]


def test_word_primes_are_every_prime_below_2_20_descending():
    from maninforge.exact_linalg import _word_primes

    n = 1 << 20
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, 1 << 10):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    want = [q for q in range(n - 1, 1, -1) if sieve[q]]
    assert len(want) == 82025  # pi(2^20)
    primes = _word_primes()
    assert list(itertools.islice(primes, len(want))) == want
    assert want[0] == 1048573 and want[-1] == 2
    with pytest.raises(ArithmeticError, match="exhausted"):
        next(primes)


def _py_matmul_mod(a, b, p):
    """(a @ b) mod p in Python integers, for nested lists of rank 1 or 2."""
    a2 = a if isinstance(a[0], list) else [a]
    b2 = b if isinstance(b[0], list) else [[x] for x in b]
    out = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b2)]
           for row in a2]
    if not isinstance(b[0], list):
        out = [row[0] for row in out]
    return out if isinstance(a[0], list) else out[0]


def test_matmul_mod_exact_past_one_float_block():
    import numpy as np

    from maninforge.exact_linalg import _matmul_mod

    p = 1048573  # the largest prime below 2^20
    k = 8200  # floor((2^53 - 1) / (p - 1)^2) = 8192 terms fit one block
    assert ((1 << 53) - 1) // (p - 1) ** 2 < k
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 2), p - 1, dtype=np.int64)
    want = (k * (p - 1) ** 2) % p
    assert _matmul_mod(a, b, p).tolist() == [[want, want], [want, want]]
    # (p-1)^2 is even, and float64 holds every even integer below 2^54,
    # so odd terms near (p-1)^2 are what an unblocked sum would round
    rng = random.Random(11)
    a = [[rng.randrange(p - 64, p) for _ in range(k)] for _ in range(2)]
    b = [[rng.randrange(p - 64, p) for _ in range(3)] for _ in range(k)]
    got = _matmul_mod(np.array(a), np.array(b), p)
    assert got.dtype == np.int64
    assert got.tolist() == _py_matmul_mod(a, b, p)
    # 1-D operands on either side
    v = [row[0] for row in b]
    assert _matmul_mod(np.array(a[0]), np.array(b), p).tolist() == \
        _py_matmul_mod(a[0], b, p)
    assert _matmul_mod(np.array(a), np.array(v), p).tolist() == \
        _py_matmul_mod(a, v, p)
    assert int(_matmul_mod(np.array(a[1]), np.array(v), p)) == \
        _py_matmul_mod(a[1], v, p)


def test_matmul_mod_batched_matches_python_ints():
    import numpy as np

    from maninforge.exact_linalg import _matmul_mod

    p = 1048573
    rng = random.Random(12)

    def rand(*shape):  # entries near p, so that sums pass 2^53
        return np.array([rng.randrange(p - 64, p)
                         for _ in range(int(np.prod(shape)))]).reshape(shape)

    a, b = rand(3, 2, 8200), rand(3, 8200, 2)
    got = _matmul_mod(a, b, p)
    assert got.shape == (3, 2, 2)
    for t in range(3):
        assert got[t].tolist() == _py_matmul_mod(a[t].tolist(),
                                                 b[t].tolist(), p)
    # a 2-D left operand broadcasts against a batch
    left, batch = rand(4, 5), rand(6, 5, 7)
    got = _matmul_mod(left, batch, p)
    assert [g.tolist() for g in got] == [
        _py_matmul_mod(left.tolist(), m.tolist(), p) for m in batch]


def test_matmul_mod_refuses_primes_past_float_exactness():
    import numpy as np

    from maninforge.exact_linalg import _matmul_mod
    from maninforge.hecke_algebra import _PIVOT_PRIME

    one = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        _matmul_mod(one, one, _PIVOT_PRIME)
    # the largest modulus with (m-1)^2 below 2^53 is still exact
    m = 94906266
    assert (m - 1) ** 2 < 1 << 53 <= m ** 2
    a = np.full((1, 1), m - 1, dtype=np.int64)
    assert _matmul_mod(a, a, m).tolist() == [[(m - 1) ** 2 % m]]
    with pytest.raises(ValueError):
        _matmul_mod(a, a, m + 1)


def _walk_max_abs(m):
    return max((abs(x) for row in m.data for x in row), default=0)


@pytest.mark.parametrize("a_rows, b_rows", [
    # int64 path: the bound 2 * 2^30 * 2^30 is below 2^62
    ([[-(2**30), 1], [3, -4]], [[2**30, 0], [0, -1]]),
    # object path: entries past any machine word, negative extremes
    ([[-(2**70), 5], [7, 2**69]], [[-(2**65), 1], [0, -(2**66)]]),
])
def test_max_abs_after_products_matches_walk(a_rows, b_rows):
    a, b = IntMatrix.from_rows(a_rows), IntMatrix.from_rows(b_rows)
    for m in (a, b, a * b, b * a, a * a):
        assert m.max_abs() == _walk_max_abs(m)
    assert (a * b).max_abs() >= 2**60


def test_max_abs_of_empty_products_is_zero():
    for m in (IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 2),
              IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3),
              IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 3)):
        assert m.max_abs() == 0 == _walk_max_abs(m)
        assert m.is_zero()
    assert (IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3)) == \
        IntMatrix.zeros(2, 3)


def test_cached_bound_keeps_pickle_and_text_roundtrips_equal():
    import pickle

    m = IntMatrix.from_rows([[-(2**63), 3], [2**20, -1]])
    prod = m * IntMatrix.identity(2)
    assert prod.max_abs() == 2**63  # cached on one copy only
    for copy in (pickle.loads(pickle.dumps(prod)),
                 IntMatrix.from_text(prod.to_text())):
        assert copy == prod and hash(copy) == hash(prod)
        assert copy.max_abs() == prod.max_abs()
    with pytest.raises(AttributeError):
        prod._max_abs = 0


def _sympy_rref_mod_p(rows, ncols, p):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    m = DomainMatrix([[field(x) for x in row] for row in rows],
                     (len(rows), ncols), field)
    red, piv = m.rref()
    return [[int(x) % p for x in row] for row in red.to_list()], list(piv)


@pytest.mark.parametrize("p", [2, 3, 1048573, 2147483629, 8589934609])
def test_rref_mod_p_matches_sympy(p):
    import numpy as np

    from maninforge.exact_linalg import _rref_mod_p
    from maninforge.hecke_algebra import _PIVOT_PRIME

    assert p != 2147483629 or p == _PIVOT_PRIME
    rng = random.Random(p)
    for nrows, ncols, rank in [(5, 7, 3), (7, 4, 4), (6, 6, 2), (1, 5, 1),
                               (4, 3, 0)]:
        # a product of random factors, so the rank is (generically) `rank`
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum(x * y for x, y in zip(row, col)) % p
                 for col in zip(*right)] if rank else [0] * ncols
                for row in left]
        want, want_piv = _sympy_rref_mod_p(rows, ncols, p)
        red, piv = _rref_mod_p(rows, p)
        assert red.tolist() == want and piv == want_piv
        # pivots searched in a permuted column order: the RREF of the
        # permuted matrix, read back in the original columns
        order = list(range(ncols))
        rng.shuffle(order)
        want, want_piv = _sympy_rref_mod_p([[row[j] for j in order]
                                            for row in rows], ncols, p)
        red, piv = _rref_mod_p(np.array(rows, dtype=object), p,
                               pivot_order=order)
        assert red[:, order].tolist() == want
        assert piv == [order[j] for j in want_piv]
    for shape in [(0, 4), (3, 0), (0, 0)]:
        red, piv = _rref_mod_p(np.zeros(shape, dtype=np.int64), p)
        assert red.shape == shape and piv == []


def test_crt_rows_lifts_to_the_symmetric_range():
    import numpy as np

    from maninforge.exact_linalg import _crt_rows

    primes = [1048573, 1048571, 1048559]
    modulus = primes[0] * primes[1] * primes[2]
    want = [[0, 1, -1, modulus // 2, -(modulus // 2), 123456789012345]]
    parts = [(p, np.array([[x % p for x in want[0]]])) for p in primes]
    assert _crt_rows(parts, modulus) == want
