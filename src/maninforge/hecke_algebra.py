"""The Hecke algebra as an exact Z-algebra acting on the cuspidal lattice.

Builds T as the Z-span of Hecke operators up to the Sturm bound (closed
under multiplication), decomposes the new subspace into newform classes
with exact rational idempotents, constructs the orders O_f, and runs the
local ring diagnostics (maximal ideals, fiber/socle dimensions, Gorenstein
and DVR tests, saturation, U_p signs).

T and O_f share one ring representation: a Z-basis of matrices for their
action on S (on S_f for O_f), plus structure constants built on first use.
Products are contractions with the structure constants, and the
reductions mod p used by the local diagnostics are those constants mod p.

Large vectorized lattices are handled through a fixed set of pivot
coordinates: the projection onto those coordinates is injective on the
rational span of the algebra, so exact membership and coordinate solving
reduce to a small triangular system, verified against the full matrices.
"""

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, isqrt

import numpy as np

_logger = logging.getLogger(__name__)

from .exact_linalg import (
    IntLattice,
    IntMatrix,
    InvariantViolation,
    RatMatrix,
    _matmul_mod,
    _ModReducer,
    _word_primes,
    lattice_intersect,
    quotient_invariants,
    restrict_operator,
)
from .modsym import hecke, new_lattice
from .polyarith import (
    FpPoly,
    charpoly_int,
    crt_split,
    factor_fp,
    factor_q,
    squarefree_radical,
    _fp_xgcd,
)

__all__ = [
    "sturm_bound",
    "HeckeAlgebra",
    "NewformClass",
    "OrderOf",
    "MaxIdeal",
    "GorensteinVerdict",
    "build_hecke_algebra",
    "decompose_new",
    "poly_kernel_saturated",
    "order_of",
    "maximal_ideals",
    "fiber_dim",
    "socle_dim",
    "is_gorenstein",
    "is_dvr",
    "saturation_index",
    "u_p_unit_check",
    "lift_idempotent",
    "eigenvalue_table",
]

_PIVOT_PRIME = 2147483629  # large prime for pivot-column selection
_RESIDUE_CACHE_BYTES = 1 << 30  # budget of each ring's basis-residue cache


def primes_upto(bound):
    if bound < 2:
        return []
    sieve = [True] * (bound + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, ok in enumerate(sieve) if ok]


def sturm_bound(n):
    """Weight-2 Sturm bound ceil(mu / 6), mu the index of Gamma_0(n)."""
    mu = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            mu = mu // p * (p + 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        mu = mu // m * (m + 1)
    return -(-mu // 6)


# ---------------------------------------------------------------------------
# exact coordinate solving through pivot columns


class _PivotSolver:
    """Exact coordinates with respect to a Z-basis of matrices.

    Stores the basis projected to a set of pivot columns on which the
    projection is invertible over Q; solving is back-substitution through
    the HNF of the projected block, so membership tests are exact.
    """

    def __init__(self, basis_rows_full, pivot_cols):
        from .exact_linalg import _hnf_rows

        self.pivot_cols = list(pivot_cols)
        proj = [[row[j] for j in self.pivot_cols] for row in basis_rows_full]
        H, r, U = _hnf_rows(proj, transform=True, ncols=len(self.pivot_cols))
        if r != len(basis_rows_full):
            raise ValueError("pivot columns do not separate the basis")
        self.hnf = H[:r]
        self.transform = U[:r]
        self.dim = r

    def solve(self, full_row):
        """Integer coordinates of a vector known to lie in the Q-span."""
        return self.solve_projected([full_row[j] for j in self.pivot_cols])

    def solve_projected(self, w):
        """Like solve, but from the pivot-column entries directly."""
        d = self.dim
        piv = []
        for i in range(d):
            k = next(j for j, x in enumerate(self.hnf[i]) if x)
            piv.append(k)
        z = [0] * d
        for i in range(d):
            k = piv[i]
            acc = w[k] - sum(z[t] * self.hnf[t][k] for t in range(i))
            q, r = divmod(acc, self.hnf[i][k])
            if r:
                return None
            z[i] = q
        # check the non-pivot columns too
        for k in range(len(self.pivot_cols)):
            if sum(z[t] * self.hnf[t][k] for t in range(d)) != w[k]:
                return None
        return [
            sum(z[t] * self.transform[t][i] for t in range(d))
            for i in range(len(self.transform[0]))
        ]


def _pivot_columns(rows_int64):
    """Pivot columns of a row-major int64 array, computed modulo a prime."""
    p = _PIVOT_PRIME
    a = np.mod(rows_int64, p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        mask = np.nonzero(a[:, c])[0]
        mask = mask[mask != r]
        if len(mask):
            a[mask] = (a[mask] - np.outer(a[mask, c], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots, r


# ---------------------------------------------------------------------------
# the algebra


def _combination(coeffs, mats, n):
    """The n x n matrix sum of c_i * M_i, built as one IntMatrix."""
    acc = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        c = int(c)
        if c:
            for a, row in enumerate(m.data):
                acc[a] = [u + c * x for u, x in zip(acc[a], row)]
    return IntMatrix(n, n, acc)


class _BasisRing:
    """A commutative ring with a Z-basis of integer matrices: T or O_f.

    Elements are coordinate vectors in `basis_mats`, which act on a lattice
    of rank `dim_s`; `_solver` recovers coordinates from a matrix through
    pivot columns.  Products use the structure constants `mult_table`,
    built on first use, so no matrix is formed per product; the reductions
    mod p (`_ModPAlgebra`) read the same table.
    """

    def coords_of(self, mat, verify=False):
        """Coordinates of a matrix in the basis, or None if not in the ring.

        With verify=True the solution is checked against the full matrix
        (needed when the candidate may lie outside the rational span).
        """
        row = [x for r in mat.data for x in r]
        coords = self._solver.solve(row)
        if coords is None:
            return None
        if verify and not self._verify_coords(coords, row, mat):
            return None
        return coords

    @cached_property
    def _fast_rows(self):
        """(int64 basis rows or None, largest basis entry, residues).

        residues(p) is the basis modulo a word prime p as a (rank, dim_s^2)
        array: the one residue source for the basis, kept per prime up to
        a byte budget.
        """
        bmax = max((m.max_abs() for m in self.basis_mats), default=0)
        shape = (self.rank, self.dim_s * self.dim_s)
        if 0 < bmax < 2**62:
            arr = np.array([m.data for m in self.basis_mats],
                           dtype=np.int64).reshape(shape)
            reduce = partial(np.mod, arr)
        else:
            arr = None
            reduce = _ModReducer([x for m in self.basis_mats
                                  for r in m.data for x in r], shape).mod
        cache = {}

        def residues(p):
            rp = cache.get(p)
            if rp is None:
                rp = reduce(p).astype(np.int32)  # p < 2^20
                if (len(cache) + 1) * rp.nbytes <= _RESIDUE_CACHE_BYTES:
                    cache[p] = rp
            return rp

        return arr, bmax, residues

    def _verify_coords(self, coords, row, mat):
        """Exact check that sum coords_i * basis_i reproduces the matrix."""
        arr, bmax, residues = self._fast_rows
        cmax = max((abs(int(c)) for c in coords), default=0)
        tmax = mat.max_abs()
        # int64 path is exact when no intermediate can overflow
        if (arr is not None and tmax < 2**62
                and self.rank * cmax * bmax < 2**62):
            got = np.array([int(c) for c in coords], dtype=np.int64) @ arr
            want = np.array(row, dtype=np.int64)
            return bool(np.array_equal(got, want))
        if arr is not None and tmax < 2**62:
            # multimodular check: congruence modulo enough primes pins the
            # (bounded) difference down to zero exactly
            need = 2 * (self.rank * cmax * bmax + tmax) + 1
            want = np.array(row, dtype=np.int64)
            modulus = 1
            for p in _word_primes():
                zp = np.array([int(c) % p for c in coords], dtype=np.int64)
                if np.any(_matmul_mod(zp, residues(p), p) != want % p):
                    return False
                modulus *= p
                if modulus >= need:
                    return True
        return self.matrix_of(coords) == mat

    def matrix_of(self, coords):
        return _combination(coords, self.basis_mats, self.dim_s)

    def unit_coords(self):
        """Coordinates of the identity, checked to lie in the ring."""
        coords = self.coords_of(IntMatrix.identity(self.dim_s), verify=True)
        if coords is None:
            raise ValueError("identity missing from the ring")
        return tuple(coords)

    @cached_property
    def mult_table(self):
        """mult_table[i][j] = coordinates of b_i * b_j.

        The ring is commutative, so d(d+1)/2 products suffice, and only
        their pivot entries are formed: a product lies in the ring, on
        whose rational span the pivot projection is injective.
        """
        d, n = self.rank, self.dim_s
        pos = [divmod(c, n) for c in self._solver.pivot_cols]
        cols = [list(zip(*m.data)) for m in self.basis_mats]
        table = [[None] * d for _ in range(d)]
        for i, bi in enumerate(self.basis_mats):
            for j in range(i, d):
                w = [sum(x * y for x, y in zip(bi.data[a], cols[j][c]))
                     for a, c in pos]
                z = self._solver.solve_projected(w)
                if z is None:
                    raise ValueError("ring not closed under multiplication")
                table[i][j] = table[j][i] = tuple(z)
        return tuple(tuple(row) for row in table)

    @cached_property
    def _table_array(self):
        """mult_table as a (d, d*d) array, int64 when it fits, and its max."""
        tmax = max((abs(c) for row in self.mult_table for cell in row
                    for c in cell), default=0)
        arr = np.array(self.mult_table,
                       dtype=np.int64 if tmax < 2**63 else object)
        return arr.reshape(self.rank, -1), tmax

    def mult_coords(self, x, y):
        """Coordinates of x * y: the sum of x_i y_j mult_table[i][j]."""
        table, tmax = self._table_array
        d = self.rank
        # every partial sum is bounded by d^2 * max|x| * max|y| * max|table|
        bound = (d * d * tmax * max(map(abs, x), default=0)
                 * max(map(abs, y), default=0))
        dtype = np.int64 if bound < 2**63 else object
        xv = np.array([int(c) for c in x], dtype=dtype)
        yv = np.array([int(c) for c in y], dtype=dtype)
        xt = (xv @ table.astype(dtype, copy=False)).reshape(d, d)
        return (yv @ xt).tolist()


@dataclass
class HeckeAlgebra(_BasisRing):
    """The Hecke algebra T of a level, as a lattice of operators on S."""

    level: int
    space: object
    gens: dict
    basis_mats: tuple
    rank: int
    _solver: object = field(repr=False, default=None)

    # bound on the class itself: perfbench/tracer.py instruments these
    # through HeckeAlgebra.__dict__
    coords_of = _BasisRing.coords_of
    matrix_of = _BasisRing.matrix_of
    mult_coords = _BasisRing.mult_coords

    @property
    def dim_s(self):
        return self.space.cuspidal_rank


_FOLD_CAP = 200  # max pending products before folding into the HNF basis
_BIG_GENUS = 30  # genus threshold for the modular (large-level) build


def build_hecke_algebra(space):
    """Build T = Z-span of the T_l / U_l, closed under multiplication."""
    n = space.n
    r = space.cuspidal_rank
    if r == 0:
        return HeckeAlgebra(n, space, {}, (), 0)
    if r >= 2 * _BIG_GENUS:
        return _build_algebra_big(space)
    bound = sturm_bound(n)
    seeds = {}
    prime_ops = {}
    for ell in primes_upto(bound):
        op = hecke(space, ell)
        seeds[op.name] = op.matrix
        prime_ops[ell] = op.matrix
    for q in primes_upto(n):
        if n % q == 0:
            op = hecke(space, q)
            seeds.setdefault(op.name, op.matrix)
            prime_ops.setdefault(q, op.matrix)
    # module generators: T_m for m <= Sturm bound via the Hecke recurrences
    # (T_{p^k} = T_p T_{p^{k-1}} - p T_{p^{k-2}} for p coprime to n,
    #  U_{p^k} = U_p^k for p | n, multiplicative across coprime factors).
    # These span T as a Z-module; the closure sweep below re-verifies that.
    tn = {1: IntMatrix.identity(r)}

    def t_of(m):
        if m in tn:
            return tn[m]
        p = next(q for q in primes_upto(m) if m % q == 0)
        k, rest = 0, m
        while rest % p == 0:
            rest //= p
            k += 1
        if rest > 1:
            val = t_of(p**k) * t_of(rest)
        elif k == 1:
            val = prime_ops[p]
        elif n % p == 0:
            val = prime_ops[p] * t_of(p ** (k - 1))
        else:
            val = (prime_ops[p] * t_of(p ** (k - 1))
                   + t_of(p ** (k - 2)).scale(-p))
        tn[m] = val
        return val

    gen_list = [t_of(m) for m in range(1, bound + 1)]
    tn = None

    def vec(m):
        return [x for row in m.data for x in row]

    from .exact_linalg import _hnf_rows

    def fold(mats):
        """HNF basis of the Z-span of `mats`, packaged as an algebra."""
        rows = [vec(m) for m in mats]
        arr = np.array([[x % _PIVOT_PRIME for x in row] for row in rows],
                       dtype=np.int64)
        pivots, rank = _pivot_columns(arr)
        proj = [[row[j] for j in pivots] for row in rows]
        _h, r_exact, u = _hnf_rows(proj, transform=True, ncols=len(pivots))
        if r_exact != rank:
            raise ValueError("pivot-column rank disagrees with exact rank")
        # basis rows from the HNF transform over the pivot block
        basis_mats = _combine_rows(u[:rank], mats, rows, r)
        alg = HeckeAlgebra(n, space, dict(seeds), tuple(basis_mats), rank)
        alg._solver = _PivotSolver([vec(m) for m in basis_mats], pivots)
        return alg

    algebra = fold(gen_list)
    while True:
        # close under multiplication by the generators; fold newly found
        # elements into the lattice in small batches so memory stays
        # bounded by ~(rank + _FOLD_CAP) matrices rather than one batch
        # per full sweep (rank * #generators products at large levels)
        sweep_basis = list(algebra.basis_mats)
        extra = []
        grew = False
        for b in sweep_basis:
            for g in seeds.values():
                prod = b * g
                if algebra.coords_of(prod, verify=True) is None:
                    extra.append(prod)
                    grew = True
                    if len(extra) >= _FOLD_CAP:
                        algebra = fold(list(algebra.basis_mats) + extra)
                        extra = []
        if extra:
            algebra = fold(list(algebra.basis_mats) + extra)
        if not grew:
            break
    _verify_closure(algebra)
    return algebra


def _module_generators(space, prime_ops, bound):
    """Yield (m, T_m) for 1 <= m <= bound via the Hecke recurrences.

    Composites are rebuilt from memoized prime powers on each pass, so peak
    memory stays at the prime operators plus a handful of prime powers.
    """
    n = space.n
    r = space.cuspidal_rank
    ident = IntMatrix.identity(r)
    powers = {}

    def t_pk(p, k):
        lst = powers.setdefault(p, [prime_ops[p]])
        while len(lst) < k:
            j = len(lst)
            if n % p == 0:
                lst.append(prime_ops[p] * lst[-1])
            else:
                prev2 = lst[j - 2] if j >= 2 else ident
                lst.append(prime_ops[p] * lst[-1] + prev2.scale(-p))
        return lst[k - 1]

    for m in range(1, bound + 1):
        mm = m
        val = None
        p = 2
        while p * p <= mm:
            if mm % p == 0:
                k = 0
                while mm % p == 0:
                    mm //= p
                    k += 1
                t = t_pk(p, k)
                val = t if val is None else val * t
            p += 1
        if mm > 1:
            t = t_pk(mm, 1)
            val = t if val is None else val * t
        yield m, (val if val is not None else ident)


def _inv_mod_p(a, p):
    """Inverse of a square int64 matrix modulo p, or None if singular."""
    from .exact_linalg import _rref_mod_p

    n = a.shape[0]
    aug = np.concatenate(
        [np.mod(a, p), np.eye(n, dtype=np.int64)], axis=1)
    red, piv = _rref_mod_p(aug, p, pivot_order=range(n))
    if piv != list(range(n)):
        return None
    return red[:, n:]


def _crt_rows(parts, modulus):
    """Symmetric-range CRT lift of per-prime int64 row arrays."""
    from .exact_linalg import gcdex

    res = None
    mod = 1
    for p, bp in parts:
        lst = bp.tolist()
        if res is None:
            res, mod = lst, p
            continue
        _g, inv, _ = gcdex(mod % p, p)
        for ri, si in zip(res, lst):
            for j in range(len(ri)):
                ri[j] += mod * ((si[j] - ri[j]) * inv % p)
        mod *= p
    half = modulus // 2
    for ri in res:
        for j in range(len(ri)):
            if ri[j] > half:
                ri[j] -= modulus
    return res


def _build_algebra_big(space):
    """Build T at large genus without naive HNF on the huge vectorized rows.

    The modular steps are all backed by exact certificates:
      * D = |det| of a projected independent generator subset R certifies
        the rank and that the pivot projection is injective on span_Q(R);
      * hnf_with_modulus certifies H = HNF of the projected generator
        lattice (D is a multiple of its determinant since span(R) is a
        full-rank sublattice);
      * proj(B) == H plus integer coordinates for every generator force
        span_Q(B) = span_Q(R) (both have dimension = rank) and then
        span_Z(B) = the generator lattice exactly;
      * a full basis x seeds product sweep proves multiplicative closure
        (every T_m is a polynomial in the seeds by construction).
    """
    from .exact_linalg import det, hnf_with_modulus

    n = space.n
    r = space.cuspidal_rank
    bound = sturm_bound(n)
    seeds = {}
    prime_ops = {}
    for ell in primes_upto(bound):
        op = hecke(space, ell)
        seeds[op.name] = op.matrix
        prime_ops[ell] = op.matrix
    for q in primes_upto(n):
        if n % q == 0:
            op = hecke(space, q)
            seeds.setdefault(op.name, op.matrix)
            prime_ops.setdefault(q, op.matrix)
    n2 = r * r
    p0 = _PIVOT_PRIME
    # pass 1: mod-p vectorized rows -> pivot columns and an independent
    # generator subset (tracked sequentially so `sel` is reproducible)
    arr = np.empty((bound, n2), dtype=np.int64)
    for idx, (_m, mat) in enumerate(
            _module_generators(space, prime_ops, bound)):
        arr[idx] = np.array(mat.data, dtype=np.int64).reshape(-1)
    arr %= p0
    _logger.debug("big build: %d generators vectorized", bound)
    pivots, rank = _pivot_columns(arr)
    projp = arr[:, pivots]
    sel = []
    ech = []
    for i in range(bound):
        v = projp[i].copy()
        for bv, pos in ech:
            c = int(v[pos])
            if c:
                c = c * pow(int(bv[pos]), p0 - 2, p0) % p0
                v = (v - c * bv) % p0
        nz = np.nonzero(v)[0]
        if len(nz):
            ech.append((v, int(nz[0])))
            sel.append(i)
            if len(sel) == rank:
                break
    del arr, projp, ech
    if len(sel) != rank:
        raise ValueError("generator subset selection lost rank")
    # pass 2: exact projected rows for all generators, full rows for sel
    pos = [(c // r, c % r) for c in pivots]
    proj_rows = []
    sel_set = set(sel)
    r_rows = np.empty((rank, n2), dtype=np.int64)
    si = 0
    for idx, (_m, mat) in enumerate(
            _module_generators(space, prime_ops, bound)):
        d = mat.data
        proj_rows.append([d[a][b] for a, b in pos])
        if idx in sel_set:
            r_rows[si] = np.array(d, dtype=np.int64).reshape(-1)
            si += 1
    r_proj_rows = [proj_rows[i] for i in sel]
    _logger.debug("big build: rank %d, computing projected determinant", rank)
    big_d = abs(det(IntMatrix.from_rows(r_proj_rows, rank)))
    if big_d == 0:
        raise ValueError("projected generator subset is singular")
    _logger.debug("big build: det has %d digits, reducing HNF", len(str(big_d)))
    h_rows = hnf_with_modulus(proj_rows, rank, big_d)
    # reconstruct the (small) canonical basis B = H * R_proj^-1 * R by CRT
    # over small primes; correctness is certified afterwards, so the prime
    # budget only affects how often we have to retry
    prime_gen = _word_primes()
    x_parts = []  # (p, xp) with xp = H * R_proj^-1 mod p; full-width rows
    # are reconstructed from these in column chunks to bound memory
    modulus = 1
    target_bits = 100
    algebra = None
    chunk = max(1, (1 << 22) // max(1, rank))
    for _attempt in range(6):
        while modulus.bit_length() < target_bits:
            p = next(prime_gen)
            rproj_p = np.array(
                [[x % p for x in row] for row in r_proj_rows],
                dtype=np.int64)
            inv_p = _inv_mod_p(rproj_p, p)
            if inv_p is None:
                continue
            hp = np.array([[x % p for x in row] for row in h_rows],
                          dtype=np.int64)
            x_parts.append((p, _matmul_mod(hp, inv_p, p)))
            modulus *= p
        _logger.debug("big build: HNF done, reconstructing basis (%d bits)", target_bits)
        b_rows = [[] for _ in range(rank)]
        for lo in range(0, n2, chunk):
            cols = _crt_rows(
                [(p, _matmul_mod(xp, np.mod(r_rows[:, lo:lo + chunk], p), p))
                 for p, xp in x_parts],
                modulus)
            for bi, ci in zip(b_rows, cols):
                bi.extend(ci)
        if all(b_rows[i][pivots[j]] == h_rows[i][j]
               for i in range(rank) for j in range(rank)):
            basis_mats = tuple(
                IntMatrix(r, r, [row[t * r:(t + 1) * r] for t in range(r)])
                for row in b_rows)
            cand = HeckeAlgebra(n, space, dict(seeds), basis_mats, rank)
            cand._solver = _PivotSolver(b_rows, pivots)
            _logger.debug("big build: certifying generators")
            if _certify_generators_big(cand, space, prime_ops, bound, r):
                algebra = cand
                break
        target_bits *= 2
    del r_rows
    if algebra is None:
        raise ValueError("basis reconstruction failed to certify")
    _logger.debug("big build: basis certified, closure tripwire")
    _closure_tripwire_big(algebra, seeds, b_rows, pos)
    _logger.debug("big build: done")
    return algebra


def _certify_generators_big(cand, space, prime_ops, bound, r):
    """Exact proof that every generator (and the identity) lies in span_Z(B).

    Integer coordinates are solved through the pivot columns; the full
    congruence z_g * B == g is then checked for all generators at once
    modulo primes whose product exceeds twice the a-priori entry bound,
    which pins it down exactly.  Together with proj(B) == H this forces
    span_Z(B) to equal the generator lattice: the generator span_Q sits
    inside span_Q(B) with equal dimension, so B lies in the generator
    span_Q, and the projection isomorphism then identifies span_Z(B) with
    the HNF of the projected generator lattice.
    """
    n2 = r * r
    rank = cand.rank
    gen_rows = np.empty((bound + 1, n2), dtype=np.int64)
    zs = []
    count = 0
    for _m, mat in _module_generators(space, prime_ops, bound):
        row = [x for rr in mat.data for x in rr]
        z = cand._solver.solve(row)
        if z is None:
            return False
        gen_rows[count] = row
        zs.append(z)
        count += 1
    ident = [x for rr in IntMatrix.identity(r).data for x in rr]
    z = cand._solver.solve(ident)
    if z is None:
        return False
    gen_rows[count] = ident
    zs.append(z)
    count += 1
    gen_rows = gen_rows[:count]
    _arr, bmax, residues = cand._fast_rows
    cmax = max((abs(c) for z in zs for c in z), default=0)
    tmax = int(np.abs(gen_rows).max()) if count else 0
    need = 2 * (rank * cmax * bmax + tmax) + 1
    modulus = 1
    for p in _word_primes():
        zp = np.array([[c % p for c in z] for z in zs], dtype=np.int64)
        if np.any(_matmul_mod(zp, residues(p), p) != np.mod(gen_rows, p)):
            return False
        modulus *= p
        if modulus >= need:
            return True


_TRIPWIRE_CHUNK = 16  # pairs per batched product: bounds the working set


def _closure_tripwire_big(algebra, seeds, b_rows, pos):
    """Spot-check multiplicative closure at large rank.

    Closure of the span holds by construction (every T_m is a polynomial
    in the seeds), so this is a tripwire against implementation bugs:
    coordinates of sampled basis-times-seed products are solved exactly
    through the pivot columns, and the remaining columns, z * b_rows
    against basis_i * seed_j, are compared modulo a couple of word-sized
    primes in batches of _TRIPWIRE_CHUNK pairs.
    """
    import random

    rank, r = algebra.rank, algebra.dim_s
    seed_list = list(seeds.values())
    pairs = [(i, j) for i in range(rank) for j in range(len(seed_list))]
    rng = random.Random(rank)
    if len(pairs) > 120:
        pairs = rng.sample(pairs, 120)
    zs = []
    for i, j in pairs:
        bmat = algebra.basis_mats[i]
        gcols = list(zip(*seed_list[j].data))
        w = [sum(x * y for x, y in zip(bmat.data[a], gcols[c]))
             for a, c in pos]
        z = algebra._solver.solve_projected(w)
        if z is None:
            raise ValueError("Hecke algebra closure verification failed")
        zs.append(z)
    b_red = _ModReducer([x for row in b_rows for x in row], (rank, r * r))
    g_red = _ModReducer([x for g in seed_list for row in g.data for x in row],
                        (len(seed_list), r, r))
    _arr, _bmax, residues = algebra._fast_rows
    left = np.array([i for i, _j in pairs])
    right = np.array([j for _i, j in pairs])
    prime_gen = _word_primes()
    for _ in range(2):
        p = next(prime_gen)
        bp = b_red.mod(p)
        basis_p = residues(p).reshape(rank, r, r)
        gp = g_red.mod(p)
        zp = np.array([[c % p for c in z] for z in zs], dtype=np.int64)
        for lo in range(0, len(pairs), _TRIPWIRE_CHUNK):
            sl = slice(lo, lo + _TRIPWIRE_CHUNK)
            want = _matmul_mod(basis_p[left[sl]], gp[right[sl]], p)
            if np.any(_matmul_mod(zp[sl], bp, p)
                      != want.reshape(len(want), -1)):
                raise ValueError(
                    "Hecke algebra closure verification failed")


def _combine_rows(combos, mats, vec_rows, r):
    """Integer combinations of matrices, via int64 matmul when safe."""
    cmax = max((abs(int(c)) for combo in combos for c in combo), default=0)
    emax = max((abs(x) for row in vec_rows for x in row), default=0)
    if 0 < emax < 2**31 and len(vec_rows) * cmax * emax < 2**62:
        arr = np.array(vec_rows, dtype=np.int64)
        carr = np.array([[int(c) for c in combo] for combo in combos],
                        dtype=np.int64)
        prod = carr @ arr
        return [
            IntMatrix(r, r, [list(row[i * r:(i + 1) * r]) for i in range(r)])
            for row in prod.tolist()
        ]
    return [_combination(combo, mats, r) for combo in combos]


def _verify_closure(algebra):
    """Check products of basis elements stay in the lattice.

    Exhaustive for moderate ranks, deterministically sampled for large ones
    (the construction closes under generator products, which already spans
    all monomials; this is a tripwire against implementation bugs).
    """
    d = algebra.rank
    if d == 0:
        return
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    if len(pairs) > 600:
        import random

        rng = random.Random(d)
        pairs = rng.sample(pairs, 600)
    for i, j in pairs:
        prod = algebra.basis_mats[i] * algebra.basis_mats[j]
        if algebra.coords_of(prod, verify=True) is None:
            raise ValueError("Hecke algebra closure verification failed")
    algebra.unit_coords()  # raises when the identity is missing


# ---------------------------------------------------------------------------
# newform decomposition


@dataclass
class NewformClass:
    """An isotypic newform class inside the cuspidal lattice."""

    label: tuple
    dimension: int
    lattice: object  # saturated isotypic sublattice S_f of S, rank 2*dim
    g_poly: object  # irreducible defining factor of the separating element
    space: object = field(repr=False, default=None)
    separator: object = field(repr=False, default=None)  # t on S
    radical_full: object = field(repr=False, default=None)  # radical of charpoly(t | S)
    eigenvalues: dict = field(default_factory=dict)
    _e_f: object = field(repr=False, default=None)
    _e_perp: object = field(repr=False, default=None)

    @property
    def e_f(self):
        """The exact rational idempotent cutting out this class."""
        if self._e_f is None:
            self._build_idempotent()
        return self._e_f

    @property
    def e_perp(self):
        if self._e_perp is None:
            self._build_idempotent()
        return self._e_perp

    def _build_idempotent(self):
        g = self.g_poly
        rest = _exact_quotient(self.radical_full, g)
        h, den = crt_split(g, rest)
        num = h.evaluate_matrix(self.separator)
        e = RatMatrix.from_rows(
            [[Fraction(x, den) for x in row] for row in num.data]
        )
        if not e.is_idempotent():
            raise ValueError("constructed projector is not idempotent")
        ident = RatMatrix.identity(e.rows)
        self._e_f = e
        self._e_perp = ident - e


def _exact_quotient(f, g):
    """f / g for integer polynomials with exact division."""
    fr, rem = f.to_rational().divmod(g.to_rational())
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    num, den = fr.clear_denominators()
    if den != 1:
        raise ValueError("inexact polynomial division")
    return num


def poly_kernel_saturated(t, g):
    """Saturated lattice {v : v * g(t) == 0} for an integer matrix t.

    g(t), whose entries blow up with deg g, is never formed: its kernel is
    reconstructed from g(t) modulo word-sized primes (see
    exact_linalg._modular_kernel) and saturated, and the candidate is
    certified exactly by restricting t to it and checking that g of the
    restriction vanishes — this proves containment in the kernel, and the
    mod-p corank pins the rank.
    """
    from .exact_linalg import _modular_kernel, _saturate_kernel_rows

    n = t.rows
    cs = g.coeffs
    t64 = np.array(t.data, dtype=np.int64) if t.max_abs() < 2**62 else None

    def matrix_mod(ps):
        for p in ps:
            tp = (np.mod(t64, p) if t64 is not None else
                  np.array([[x % p for x in row] for row in t.data],
                           dtype=np.int64))
            yield np.ascontiguousarray(_poly_mod_horner(tp, cs, p).T)

    def accept(w_rows, free):
        try:
            lat = _saturate_kernel_rows(w_rows, free, n)
        except ArithmeticError:
            return None
        if lat.rank == len(free) and _certify_poly_kernel(t, g, lat):
            return lat
        return None

    return _modular_kernel(n, matrix_mod, accept)


def _poly_mod_horner(mat_p, cs, p):
    """g(mat) modulo p for an int64 residue matrix, Horner form."""
    n = mat_p.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    diag = np.arange(n)
    acc[diag, diag] = cs[-1] % p
    for c in reversed(cs[:-1]):
        acc = _matmul_mod(acc, mat_p, p)
        cp = c % p
        if cp:
            acc[diag, diag] = (acc[diag, diag] + cp) % p
    return acc


def _certify_poly_kernel(t, g, lat):
    """Exact proof that lat * g(t) == 0: t-stability plus g(restriction)=0.

    If B*t == M*B for integer M then B*g(t) == g(M)*B, so g(M) == 0
    certifies containment of the lattice in the row kernel of g(t); g(M)
    is checked modulo primes whose product exceeds twice an a-priori
    entry bound, which makes the vanishing exact.
    """
    from .exact_linalg import coordinates_of

    k = lat.rank
    if k == 0:
        return True
    bt = lat.basis * t
    coords = coordinates_of(lat, [list(row) for row in bt.data])
    if coords is None:
        return False
    cs = g.coeffs
    mmax = max((abs(x) for row in coords for x in row), default=0)
    bound = 0
    powb = 1  # bound on entries of M^i
    for c in cs:
        bound += abs(c) * powb
        powb *= max(1, k * mmax)
    bound = 2 * bound
    m64 = np.array(coords, dtype=np.int64) if mmax < 2**62 else None
    modulus = 1
    for p in _word_primes():
        mp = (np.mod(m64, p) if m64 is not None else
              np.array([[x % p for x in row] for row in coords],
                       dtype=np.int64))
        if np.any(_poly_mod_horner(mp, cs, p)):
            return False
        modulus *= p
        if modulus > bound:
            return True


def _candidate_separators(space, algebra):
    """Deterministic sequence of candidate separating operators.

    Single T_ell and pairs T_ell0 + c*T_ell over the first eight good
    primes come first; they separate at most levels.  When a newform
    shares its eigenvalues at those primes with an oldform, only a later
    prime tells them apart, so pseudo-random integer combinations of every
    good T_ell up to the search bound follow (fixed seed, so the sequence
    is the same on every run).
    """
    n = space.n
    good = [ell for ell in primes_upto(max(60, sturm_bound(n) + 1)) if n % ell]
    mats = {ell: hecke(space, ell).matrix for ell in good[:8]}
    for ell in good[:8]:
        yield f"T_{ell}", mats[ell]
    for c in range(1, 30):
        for ell in good[1:8]:
            yield (f"T_{good[0]}+{c}*T_{ell}",
                   mats[good[0]] + mats[ell].scale(c))
    mats.update((ell, hecke(space, ell).matrix) for ell in good[8:])
    rng = random.Random(0)
    for _ in range(20):
        coeffs = [rng.randint(1, 9) for _ in good]
        yield ("+".join(f"{c}*T_{ell}" for c, ell in zip(coeffs, good)),
               _combination(coeffs, [mats[ell] for ell in good],
                            mats[good[0]].rows))


def decompose_new(space, algebra):
    """Decompose the new subspace into newform classes with idempotents."""
    n = space.n
    new = new_lattice(space)
    if new.rank == 0:
        return []
    if new.rank % 2:
        raise ValueError("new lattice has odd rank")
    target = new.rank // 2
    for name, t in _candidate_separators(space, algebra):
        t_new = restrict_operator(new, t)
        _logger.debug("decompose: charpoly of %s on the new lattice", name)
        cp_new = charpoly_int(t_new)
        rad_new = squarefree_radical(cp_new)
        if rad_new.degree != target:
            continue
        _logger.debug("decompose: factoring radical of degree %d", rad_new.degree)
        factors = factor_q(rad_new)
        if any(e != 1 for _g, e in factors):
            continue
        # validate against the full space: each factor must cut exactly 2d
        # dimensions out of S, all inside the new lattice
        pieces = []
        ok = True
        for g, _e in sorted(factors, key=lambda fe: (fe[0].degree, fe[0].coeffs)):
            _logger.debug("decompose: isotypic kernel for degree-%d factor", g.degree)
            k = poly_kernel_saturated(t, g)
            if k.rank != 2 * g.degree:
                ok = False
                break
            if lattice_intersect(k, new).rank != k.rank:
                ok = False
                break
            pieces.append((g, k))
        if not ok:
            continue
        if sum(2 * g.degree for g, _k in pieces) != new.rank:
            continue
        if new.rank == space.cuspidal_rank:
            rad_full = rad_new
        else:
            rad_full = squarefree_radical(charpoly_int(t))
        classes = []
        for idx, (g, k) in enumerate(pieces):
            classes.append(
                NewformClass(
                    label=(n, idx),
                    dimension=g.degree,
                    lattice=k,
                    g_poly=g,
                    space=space,
                    separator=t,
                    radical_full=rad_full,
                )
            )
        return classes
    raise ValueError(
        f"no separating element found for level {n} within the search bound"
    )


# ---------------------------------------------------------------------------
# the order O_f = image of T on the isotypic lattice


@dataclass
class OrderOf(_BasisRing):
    """The order O_f: image of T acting on the isotypic lattice S_f."""

    rank: int
    basis_mats: tuple  # matrices on S_f coordinates
    _solver: object = field(repr=False, default=None)

    @property
    def dim_s(self):
        return self.basis_mats[0].rows if self.basis_mats else 0

    def discriminant(self):
        """det of the trace form on the basis (nonzero for an order)."""
        d = self.rank
        basis_traces = [sum(b.data[k][k] for k in range(b.rows))
                        for b in self.basis_mats]
        traces = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                # trace of multiplication on S_f is 2 * trace on O_f
                tr = sum(c * t for c, t in
                         zip(self.mult_table[i][j], basis_traces))
                if tr % 2:
                    raise ValueError("odd trace on a doubled module")
                traces[i][j] = traces[j][i] = tr // 2
        from .exact_linalg import det

        return det(IntMatrix.from_rows(traces, d))


def _unit_vec(d, i):
    return tuple(1 if j == i else 0 for j in range(d))


def order_of(algebra, cls):
    """Build O_f = T / T[e_f] as matrices on S_f."""
    restricted = [restrict_operator(cls.lattice, b) for b in algebra.basis_mats]
    rows = [[x for r in m.data for x in r] for m in restricted]
    arr = np.array(
        [[x % _PIVOT_PRIME for x in row] for row in rows], dtype=np.int64
    )
    pivots, rank = _pivot_columns(arr)
    if rank != cls.dimension:
        raise ValueError("order rank does not match class dimension")
    # the restrictions are dependent (T[e_f] dies); a Z-basis of the image
    # comes from the HNF of the pivot-column projection, which is injective
    # on the Q-span of the image
    from .exact_linalg import _hnf_rows

    proj = [[row[j] for j in pivots] for row in rows]
    _h, r_exact, u_rows = _hnf_rows(proj, transform=True, ncols=len(pivots))
    if r_exact != rank:
        raise ValueError("exact image rank disagrees with the mod-p rank")
    basis_mats = _combine_rows(u_rows[:rank], restricted, rows,
                               cls.lattice.rank)
    order = OrderOf(rank, tuple(basis_mats))
    order._solver = _PivotSolver(
        [[x for r in m.data for x in r] for m in basis_mats], pivots
    )
    order.unit_coords()  # raises when the identity is missing
    return order


# ---------------------------------------------------------------------------
# mod-p algebra decomposition


class _ModPAlgebra:
    """A commutative ring (T or O_f) reduced modulo p, via its structure
    constants (which present ring/p faithfully even where the matrix
    embedding degenerates mod p)."""

    def __init__(self, ring, p):
        self.p = p
        self.d = ring.rank
        table, _tmax = ring._table_array
        if (p - 1) ** 2 < 1 << 53:
            # kept as float64, the dtype _matmul_mod computes in
            self.table = np.mod(table, p).astype(np.float64)
            self._matmul = partial(_matmul_mod, p=p)
        else:  # residues too wide for exact float64 products
            self.table = np.mod(table, p).astype(object)
            self._matmul = lambda a, b: a @ b % p
        self.unit = tuple(c % p for c in ring.unit_coords())

    def mul(self, x, y):
        p, d, dtype = self.p, self.d, self.table.dtype
        xv = np.array([int(c) % p for c in x], dtype=dtype)
        yv = np.array([int(c) % p for c in y], dtype=dtype)
        xt = self._matmul(xv, self.table).reshape(d, d)
        return tuple(self._matmul(yv, xt).tolist())

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def scale(self, c, x):
        return tuple((c * a) % self.p for a in x)

    def power(self, x, e):
        result = self.unit
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def minpoly_rel(self, x, unit):
        """Minimal polynomial of x in the subalgebra with identity `unit`."""
        p = self.p
        echelon = []  # (vector, pivot, expression over powers of x)
        cur = unit
        deg = 0
        while True:
            v = list(cur)
            expr = [0] * deg + [1]
            coeffs = []
            for ev, pos, _eexpr in echelon:
                c = v[pos]
                if c:
                    c = (c * pow(ev[pos], p - 2, p)) % p
                    v = [(a - c * b) % p for a, b in zip(v, ev)]
                coeffs.append(c)
            nz = next((k for k, a in enumerate(v) if a), None)
            if nz is None:
                # cur = sum c_i * ev_i, so x^deg - sum c_i expr_i(x) kills x
                out = [0] * deg + [1]
                for c, (_ev, _pos, eexpr) in zip(coeffs, echelon):
                    for k, a in enumerate(eexpr):
                        out[k] = (out[k] - c * a) % p
                out[deg] = 1
                return FpPoly(p, tuple(out))
            for c, (_ev, _pos, eexpr) in zip(coeffs, echelon):
                for k, a in enumerate(eexpr):
                    expr[k] = (expr[k] - c * a) % p
            echelon.append((v, nz, expr))
            cur = self.mul(cur, x)
            deg += 1
            if deg > self.d + 1:
                raise RuntimeError("minimal polynomial search overran")

    def eval_poly(self, coeffs, x, unit):
        """Evaluate a polynomial (ascending coeffs mod p) at x, with 1 = unit."""
        acc = self.scale(0, unit)
        for c in reversed(coeffs):
            acc = self.mul(acc, x)
            acc = self.add(acc, self.scale(c, unit))
        return acc


@dataclass
class MaxIdeal:
    """A maximal ideal of T (or O_f) of residue characteristic p."""

    parent: object
    p: int
    idempotent: tuple  # coordinates mod p of the local idempotent
    residue_degree: int
    comp_basis: tuple = field(repr=False, default=None)  # mod-p basis of the local factor
    radical_basis: tuple = field(repr=False, default=None)  # mod-p basis of its radical

    @property
    def local_dim(self):
        return len(self.comp_basis)


def _fp_row_space(vectors, p):
    """Echelon basis of the F_p span of integer vectors."""
    basis = []
    for v in vectors:
        v = [x % p for x in v]
        for bv, pos in basis:
            c = v[pos]
            if c:
                c = (c * pow(bv[pos], p - 2, p)) % p
                v = [(a - c * b) % p for a, b in zip(v, bv)]
        nz = next((k for k, a in enumerate(v) if a), None)
        if nz is not None:
            basis.append((v, nz))
    return [bv for bv, _pos in basis]


def _fp_rank(vectors, p):
    return len(_fp_row_space(vectors, p))


def maximal_ideals(ring, p):
    """Maximal ideals of residue characteristic p, via local idempotents."""
    if ring.rank == 0:
        return []
    alg = _ModPAlgebra(ring, p)
    comps = [alg.unit]
    for b_idx in range(ring.rank):
        x_b = _unit_vec(ring.rank, b_idx)
        refined = []
        for e in comps:
            x = alg.mul(tuple(c % p for c in x_b), e)
            m = alg.minpoly_rel(x, e)
            fac = factor_fp(m)
            if len(fac) == 1:
                refined.append(e)
                continue
            primary = [_fp_pow(g, mult) for g, mult in fac]
            for i, gi in enumerate(primary):
                rest = None
                for j, gj in enumerate(primary):
                    if j != i:
                        rest = gj if rest is None else rest * gj
                # h ≡ 1 mod gi, 0 mod rest
                g0, u, v = _fp_xgcd(gi, rest)
                if g0.degree != 0:
                    raise InvariantViolation(
                        f"primary factors of a minimal polynomial mod {p} "
                        "are not coprime")
                inv = pow(g0.coeffs[0], p - 2, p)
                h = v * rest
                h = FpPoly(p, tuple((c * inv) % p for c in h.coeffs))
                e_new = alg.eval_poly(h.coeffs, x, e)
                refined.append(e_new)
        comps = refined
    ideals = []
    for e in comps:
        # basis of the component eA
        comp_vecs = []
        for i in range(ring.rank):
            comp_vecs.append(alg.mul(e, _unit_vec(ring.rank, i)))
        comp_basis = _fp_row_space(comp_vecs, p)
        c = len(comp_basis)
        # radical = kernel of iterated Frobenius on the component
        npow = 1
        pk = p
        while pk < c + 1:
            pk *= p
            npow += 1
        frob_images = [alg.power(tuple(v), p) for v in comp_basis]
        # iterate Frobenius npow times in coordinates of comp_basis
        def in_comp_coords(vec):
            v = list(vec)
            out = [0] * c
            for i, bv in enumerate(comp_basis):
                pos = next(k for k, a in enumerate(bv) if a)
                coef = (v[pos] * pow(bv[pos], p - 2, p)) % p
                out[i] = coef
                v = [(a - coef * b) % p for a, b in zip(v, bv)]
            if any(v):
                raise InvariantViolation(
                    f"Frobenius image left its component mod {p}")
            return out

        fmat = [in_comp_coords(img) for img in frob_images]  # c x c
        # fmat maps comp coords -> comp coords (row convention: x -> x @ fmat)
        power = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
        for _ in range(npow):
            power = [
                [sum(power[i][k] * fmat[k][j] for k in range(c)) % p for j in range(c)]
                for i in range(c)
            ]
        rad_coords = _fp_nullspace_left(power, p)
        radical_basis = [
            tuple(
                sum(rc[i] * comp_basis[i][k] for i in range(c)) % p
                for k in range(ring.rank)
            )
            for rc in rad_coords
        ]
        ideals.append(
            MaxIdeal(
                parent=ring,
                p=p,
                idempotent=tuple(e),
                residue_degree=c - len(radical_basis),
                comp_basis=tuple(tuple(v) for v in comp_basis),
                radical_basis=tuple(radical_basis),
            )
        )
    ideals.sort(key=lambda m: (m.residue_degree, m.idempotent))
    return ideals


def _fp_pow(g, e):
    out = FpPoly(g.p, (1,))
    for _ in range(e):
        out = out * g
    return out


def _fp_nullspace_left(mat, p):
    """Basis of {x : x @ mat = 0} over F_p (mat as list of rows)."""
    c = len(mat)
    if c == 0:
        return []
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(c)] for i in range(c)]
    basis = []
    out = []
    width = len(mat[0])
    for v in aug:
        w = [x % p for x in v]
        for bv, pos in basis:
            coef = w[pos]
            if coef:
                coef = (coef * pow(bv[pos], p - 2, p)) % p
                w = [(a - coef * b) % p for a, b in zip(w, bv)]
        nz = next((t for t, a in enumerate(w[:width]) if a), None)
        if nz is None:
            out.append(w[width:])
        else:
            basis.append((w, nz))
    return out


# ---------------------------------------------------------------------------
# module-theoretic diagnostics


def _restricted_action(algebra, lattice):
    """Basis matrices of the algebra restricted to a stable sublattice."""
    return [restrict_operator(lattice, b) for b in algebra.basis_mats]


def fiber_dim(module, m):
    """dim over T/m of (module / m*module), for the local piece at m.

    `module` is an IntLattice inside the cuspidal coordinate space (acted on
    by the parent algebra of m), or the algebra itself (regular module).
    """
    ring = m.parent
    p = m.p
    if isinstance(module, (HeckeAlgebra, OrderOf)):
        # regular module: fiber of a cyclic module is 1-dimensional
        if module is not ring:
            raise ValueError("ideal does not belong to this ring")
        return 1
    acts = _restricted_action(ring, module)
    r = module.rank
    if r == 0:
        return 0
    mats = [np.mod(np.array(a.data, dtype=object), p).astype(np.int64) for a in acts]
    e_mat = np.zeros((r, r), dtype=np.int64)
    for c, a in zip(m.idempotent, mats):
        if c:
            e_mat = (e_mat + c * a) % p
    v_basis = _fp_row_space([[int(x) for x in row] for row in e_mat], p)
    dim_v = len(v_basis)
    if dim_v == 0:
        return 0
    mv_rows = []
    for rad in m.radical_basis:
        rad_mat = np.zeros((r, r), dtype=np.int64)
        for c, a in zip(rad, mats):
            if c:
                rad_mat = (rad_mat + c * a) % p
        for v in v_basis:
            mv_rows.append([int(x) for x in (np.array(v, dtype=np.int64) @ rad_mat) % p])
    dim_mv = _fp_rank(mv_rows, p) if mv_rows else 0
    total = dim_v - dim_mv
    if total % m.residue_degree:
        raise ValueError("fiber dimension not divisible by residue degree")
    return total // m.residue_degree


def socle_dim(algebra, m):
    """dim over T/m of the m-torsion of (ring mod p), at the local factor."""
    p = m.p
    c = len(m.comp_basis)
    if not m.radical_basis:
        return 1  # the local factor is a field
    alg = _ModPAlgebra(m.parent, p)
    stacked = []
    for v in m.comp_basis:
        row = []
        for rad in m.radical_basis:
            row.extend(alg.mul(tuple(v), tuple(rad)))
        stacked.append(row)
    kern = len(stacked) - _fp_rank(stacked, p)
    if kern % m.residue_degree:
        raise ValueError("socle dimension not divisible by residue degree")
    return kern // m.residue_degree


@dataclass(frozen=True)
class GorensteinVerdict:
    status: str  # "true" | "false" | "not_certified"
    fiber_dimension: int


def is_gorenstein(algebra, m, s_lattice):
    """Gorenstein test at m via the fiber dimension of S, with guards.

    Applicable when (i) p does not divide the level, (ii) p is odd with
    ord_p(n) = 1, or (iii) ord_p(n) = 1 and U_p is a unit mod m; otherwise
    the verdict is not_certified (with the raw dimension attached).
    """
    n = algebra.level
    p = m.p
    dim = fiber_dim(s_lattice, m)
    ordp = 0
    nn = n
    while nn % p == 0:
        ordp += 1
        nn //= p
    applicable = ordp == 0
    if not applicable and ordp == 1:
        if p % 2 == 1:
            applicable = True
        else:
            applicable = _u_p_unit_mod_m(algebra, m, p)
    if not applicable:
        return GorensteinVerdict("not_certified", dim)
    return GorensteinVerdict("true" if dim == 2 else "false", dim)


def _u_p_unit_mod_m(algebra, m, p):
    """Whether U_p is a unit in the local factor at m."""
    u = algebra.gens.get(f"U_{p}")
    if u is None:
        u = hecke(algebra.space, p).matrix
    coords = algebra.coords_of(u)
    if coords is None:
        raise ValueError("U_p not in the Hecke algebra")
    alg = _ModPAlgebra(algebra, m.p)
    x = alg.mul(tuple(c % m.p for c in coords), m.idempotent)
    # unit iff x is not in the radical of the local factor
    rows = [list(v) for v in m.radical_basis] + [list(x)]
    return _fp_rank(rows, m.p) > len(m.radical_basis)


def _m_ideal_lattice(order, m):
    """The maximal ideal m as a finite-index sublattice of O_f (coords)."""
    d = order.rank
    p = m.p
    rows = [[p if i == j else 0 for j in range(d)] for i in range(d)]
    # lifts of (1 - e) * basis and of the radical
    alg = _ModPAlgebra(order, p)
    one_minus_e = tuple((u - e) % p for u, e in zip(alg.unit, m.idempotent))
    for i in range(d):
        rows.append([int(c) for c in alg.mul(one_minus_e, _unit_vec(d, i))])
    for rad in m.radical_basis:
        rows.append([int(c) for c in rad])
    return IntLattice(d, rows)


def is_dvr(order, m):
    """Whether the localization of O_f at m is a discrete valuation ring."""
    if not isinstance(order, OrderOf):
        raise ValueError("is_dvr expects an order")
    mm = _m_ideal_lattice(order, m)
    # m^2: span of pairwise products of the generators of m
    gens = [tuple(row) for row in mm.basis.data]
    prod_rows = []
    for i, x in enumerate(gens):
        for y in gens[i:]:
            prod_rows.append(list(order.mult_coords(x, y)))
    m2 = IntLattice(order.rank, prod_rows)
    factors, free = quotient_invariants(mm, m2)
    if free:
        raise ValueError("m^2 does not have finite index in m")
    for f in factors:
        if f % m.p or f != m.p:
            raise ValueError("cotangent space not killed by p")
    dim_fp = len(factors)
    if dim_fp % m.residue_degree:
        raise ValueError("cotangent dimension not divisible by residue degree")
    return dim_fp // m.residue_degree == 1


def saturation_index(algebra, s_lattice=None):
    """Index of T in its saturation T_Q ∩ End(S).

    Since S is the standard lattice in its own coordinates, the saturation
    is the set of integer matrices in the rational span of T; the index is
    the covolume of the coordinate projection, i.e. the gcd of the maximal
    minors of the vectorized basis.  Computed by column-insertion HNF with
    early exit once the running index reaches 1.
    """
    d = algebra.rank
    if d == 0:
        return 1
    rows = [[x for r in m.data for x in r] for m in algebra.basis_mats]
    return _column_span_index(rows, d)


def _column_span_index(rows, d):
    """[Z^d : column span] for a full-row-rank d x N integer matrix."""
    from .exact_linalg import _hnf_rows

    n_cols = len(rows[0])
    echelon = []  # rows of a triangular basis of the span of the columns
    index_known_one = False
    for j in range(n_cols):
        v = [rows[i][j] for i in range(d)]
        echelon.append(v)
        if len(echelon) >= d and (len(echelon) % d == 0 or j == n_cols - 1):
            H, r, _ = _hnf_rows(echelon, ncols=d)
            echelon = [list(row) for row in H[:r]]
            if r == d:
                prod = 1
                for i in range(d):
                    pos = next(k for k, a in enumerate(echelon[i]) if a)
                    prod *= echelon[i][pos]
                if prod == 1:
                    index_known_one = True
                    break
    if index_known_one:
        return 1
    H, r, _ = _hnf_rows(echelon, ncols=d)
    if r < d:
        raise ValueError("basis rows are dependent")
    prod = 1
    for i in range(r):
        pos = next(k for k, a in enumerate(H[i]) if a)
        prod *= H[i][pos]
    return prod


def u_p_unit_check(cls, p):
    """Sign of U_p on the isotypic lattice (must be an exact ±identity)."""
    n = cls.space.n
    if n % p:
        raise ValueError("not applicable: p does not divide the level")
    if (n // p) % p == 0:
        raise ValueError("not applicable: p^2 divides the level")
    u = hecke(cls.space, p).matrix
    restr = restrict_operator(cls.lattice, u)
    ident = IntMatrix.identity(restr.rows)
    if restr == ident:
        return 1
    if restr == ident.scale(-1):
        return -1
    raise ValueError("U_p does not act as ±1 on the isotypic lattice")


def lift_idempotent(ring, m, modulus):
    """Lift the local idempotent of m to an idempotent of ring / modulus.

    modulus must be a power of m.p; iterates e <- 3e^2 - 2e^3 with exact
    integer coordinates until stable.
    """
    p = m.p
    pk = modulus
    if pk < p or pk % p:
        raise ValueError("modulus must be a power of p")
    e = tuple(int(c) % pk for c in m.idempotent)
    for _ in range(200):
        e2 = ring.mult_coords(e, e)
        e3 = ring.mult_coords(tuple(c % pk for c in e2), e)
        new = tuple((3 * a - 2 * b) % pk for a, b in zip(e2, e3))
        if new == e:
            return e
        e = new
    raise RuntimeError("idempotent lifting did not converge")


def eigenvalue_table(algebra, cls, order, primes):
    """Integer coordinates of a_ell in the O_f basis, for the given primes."""
    out = {}
    for ell in primes:
        t = hecke(cls.space, ell).matrix
        restr = restrict_operator(cls.lattice, t)
        coords = order.coords_of(restr, verify=True)
        if coords is None:
            raise ValueError("Hecke eigenvalue outside the order")
        out[ell] = tuple(coords)
    cls.eigenvalues.update(out)
    return out
