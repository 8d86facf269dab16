"""Tests for the exact integer linear algebra kernel."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maninforge.exact_linalg import (
    IntLattice,
    IntMatrix,
    RatMatrix,
    complement_projection,
    coordinates_of,
    det,
    gcdex,
    hnf,
    hnf_basis,
    idempotent_kernel_sublattice,
    kernel_saturated,
    lattice_intersect,
    lattice_sum,
    quotient_invariants,
    rational_coordinates_of,
    restrict_operator,
    saturate,
    snf,
    snf_with_col_transform,
    sublattice_index,
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


def test_snf_with_col_transform_models_quotient():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag, v, vinv = snf_with_col_transform(m)
        assert v * vinv == IntMatrix.identity(m.cols)
        h = hb(m * v)
        h2 = hb(
            IntMatrix.from_rows(
                [[diag[i] if i == j else 0 for j in range(m.cols)] for i in range(len(diag))],
                m.cols,
            )
        )
        assert h == h2


def test_kernel_saturated_spec_example():
    m = IntMatrix.from_rows([[2, 4]], 2)
    k = kernel_saturated(m)
    assert k.rank == 1
    assert k.basis.data == ((2, -1),)


def test_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        k = kernel_saturated(m)
        for row in k.basis.data:
            assert all(sum(mr[j] * row[j] for j in range(m.cols)) == 0 for mr in m.data)
        if k.rank:
            assert saturate(k).basis == k.basis


def test_lattice_membership_and_coordinates():
    lat = IntLattice(3, [[1, 0, 2], [0, 3, 1]])
    assert lat.contains([1, 3, 3])
    assert not lat.contains([0, 1, 0])
    coords = coordinates_of(lat, [[2, 3, 5]])
    assert coords == [[2, 1]]
    assert coordinates_of(lat, [[0, 1, 0]]) is None
    lat2 = IntLattice(2, [[2, 0], [0, 1]])
    assert coordinates_of(lat2, [[1, 0]]) is None
    rc = rational_coordinates_of(lat2, [[1, 0]])
    assert rc == [[Fraction(1, 2), Fraction(0)]]
    assert rational_coordinates_of(lat, [[0, 1, 0]]) is None


def test_lattice_sum_intersect_index():
    l1 = IntLattice(2, [[2, 0], [0, 2]])
    l2 = IntLattice(2, [[3, 0], [0, 3]])
    s = lattice_sum(l1, l2)
    assert s.basis == IntLattice.standard(2).basis
    i = lattice_intersect(l1, l2)
    assert i.basis.data == ((6, 0), (0, 6))
    assert sublattice_index(i, IntLattice.standard(2)) == 36


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


def test_idempotent_kernel_sublattice():
    # projection onto first coordinate
    e = RatMatrix.from_rows([[1, 0], [0, 0]])
    lat = IntLattice.standard(2)
    k = idempotent_kernel_sublattice(lat, e)
    assert k.basis.data == ((0, 1),)
    bad = RatMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        idempotent_kernel_sublattice(lat, bad)


def test_complement_projection_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        amb = rng.randint(2, 6)
        m = rand_matrix(rng, rng.randint(1, amb), amb)
        lat = saturate(IntLattice.from_matrix(m))
        if lat.rank == 0 or lat.rank == amb:
            continue
        proj, sec = complement_projection(lat)
        assert (sec * proj) == IntMatrix.identity(proj.cols)
        # lattice rows map to zero is NOT expected; rows of lat span the kernel
        # of proj composed appropriately: proj kills exactly the lattice
        img = lat.basis * proj
        assert all(not any(r) for r in img.data)


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


def test_det_multimodular_matches_small_path():
    from maninforge.exact_linalg import _det_multimodular

    rng = random.Random(3)
    for k in [1, 3, 8, 15]:
        m = rand_matrix(rng, k, k, 25)
        assert _det_multimodular([list(r) for r in m.data]) == det(m)


def test_lattice_ops_standard_shortcuts():
    lat = IntLattice(3, [[2, 1, 0], [0, 0, 5]])
    std = IntLattice.standard(3)
    assert lattice_sum(lat, std) == std
    assert lattice_sum(std, lat) == std
    assert lattice_intersect(lat, std) == lat
    assert lattice_intersect(std, lat) == lat


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
    with pytest.raises(RuntimeError, match="exhausted"):
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
