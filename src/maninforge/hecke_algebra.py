"""The Hecke algebra as an exact Z-algebra acting on the cuspidal lattice.

Builds T as the Z-span of Hecke operators up to the Sturm bound (closed
under multiplication), decomposes the new subspace into newform classes
cut out by integer polynomial kernels, constructs the orders O_f, and runs the
local ring diagnostics (maximal ideals, fiber/socle dimensions, Gorenstein
and DVR tests, saturation, U_p signs).

T and O_f share one ring representation: a Z-basis of matrices for their
action on S (on S_f for O_f), plus structure constants built on first use.
Products are contractions with the structure constants reduced modulo
the working modulus: a prime p, or a power of p for the m-primary work.

The maximal ideals over p come from the Frobenius-fixed subalgebra of
ring / p: Frobenius is F_p-linear there, and its fixed space is spanned by
the primitive idempotents, because in a local factor x^p = x holds only
on F_p * 1.

Large vectorized lattices are handled through a fixed set of pivot
coordinates: the projection onto those coordinates is injective on the
rational span of the algebra, so exact membership and coordinate solving
reduce to a small triangular system, verified against the full matrices.
"""

import logging
import random
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from operator import mul

import numpy as np

_logger = logging.getLogger(__name__)

from .exact_linalg import (
    IntLattice,
    IntMatrix,
    InvariantViolation,
    _crt_rows,
    _hnf_rows,
    _matmul_mod,
    _mod_p_product,
    _ModReducer,
    _pivots,
    _rref_mod_p,
    _solve_hnf_int,
    _vanishes,
    _word_primes,
    coordinates_of,
    primes_upto,
    quotient_invariants,
    restrict_operator,
)
from .modsym import factorize, hecke, new_lattice
from .polyarith import (
    FpPoly,
    charpoly_int,
    factor_fp,
    factor_q,
    squarefree_radical,
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
_RESIDUE_CACHE_BYTES = 1 << 30  # budget of each of a ring's residue caches


def sturm_bound(n):
    """Weight-2 Sturm bound ceil(mu / 6), mu the index of Gamma_0(n)."""
    mu = n
    for p in factorize(n):
        mu = mu // p * (p + 1)
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
        self.pivot_cols = list(pivot_cols)
        proj = [[row[j] for j in self.pivot_cols] for row in basis_rows_full]
        H, r, U = _hnf_rows(proj, transform=True, ncols=len(self.pivot_cols))
        if r != len(basis_rows_full):
            raise ValueError("pivot columns do not separate the basis")
        self.hnf = H[:r]
        self.hnf_pivots = _pivots(self.hnf)
        self._transform_cols = list(zip(*U[:r]))

    def solve(self, full_row):
        """Integer coordinates of a vector known to lie in the Q-span."""
        return self.solve_projected([full_row[j] for j in self.pivot_cols])

    def solve_projected(self, w):
        """Like solve, but from the pivot-column entries directly."""
        z = _solve_hnf_int(self.hnf, self.hnf_pivots, w)
        if z is None:
            return None
        return [sum(map(mul, z, col)) for col in self._transform_cols]


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
    built on first use, so no matrix is formed per product; every product
    is taken modulo some q (`mult_coords`), from the table reduced mod q.
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
        if verify and not self._combines_to(
                [coords], _ModReducer(mat.data, (1, -1)).mod, mat.max_abs()):
            return None
        return coords

    @cached_property
    def _fast_rows(self):
        """(largest basis entry, residues).

        residues(p) is the basis modulo a word prime p as a (rank, dim_s^2)
        int32 array, read from _basis_reducer (_residue_cache).
        """
        bmax = max((m.max_abs() for m in self.basis_mats), default=0)
        reduce = self._basis_reducer.mod
        return bmax, _residue_cache(lambda p: reduce(p).astype(np.int32))

    @cached_property
    def _basis_reducer(self):
        """The basis matrices as a (rank, dim_s^2) _ModReducer."""
        return _ModReducer([m.data for m in self.basis_mats],
                           (self.rank, self.dim_s * self.dim_s))

    def _combines_to(self, zs, targets, tmax):
        """Exact check that each row of zs, as basis coordinates, gives the
        matching target row.

        targets(p) gives the target rows modulo p, and tmax bounds their
        entries.  An entry of the difference is at most rank * max|z| *
        max|basis| + tmax in size (_vanishes).
        """
        bmax, residues = self._fast_rows
        cmax = max((abs(int(c)) for z in zs for c in z), default=0)
        z_mod = _ModReducer(zs, (len(zs), self.rank)).mod
        return _vanishes(
            lambda p: _matmul_mod(z_mod(p), residues(p), p) != targets(p),
            self.rank * cmax * bmax + tmax)

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

        The ring is commutative, so d(d+1)/2 products suffice, each from
        its pivot entries alone (_product_coords).
        """
        d = self.rank
        cols = [list(zip(*m.data)) for m in self.basis_mats]
        table = [[None] * d for _ in range(d)]
        for i, bi in enumerate(self.basis_mats):
            for j in range(i, d):
                table[i][j] = table[j][i] = tuple(
                    self._product_coords(bi.data, cols[j]))
        return tuple(tuple(row) for row in table)

    def _product_coords(self, a_rows, b_cols):
        """Coordinates of the product of the matrices with rows a_rows and
        columns b_cols, from its pivot entries alone.

        A product that lies in the ring is fixed by them, since the pivot
        projection is injective on the ring's rational span; one that has
        no integer solution there raises ValueError.
        """
        n = self.dim_s
        w = [sum(map(mul, a_rows[a], b_cols[c]))
             for a, c in (divmod(c, n) for c in self._solver.pivot_cols)]
        z = self._solver.solve_projected(w)
        if z is None:
            raise ValueError("ring not closed under multiplication")
        return z

    @cached_property
    def _table_residues(self):
        """residues(q): mult_table modulo q as a (rank, rank^2) array, in
        the dtype of _mod_p_product(q) (_residue_cache)."""
        d = self.rank
        reduce = _ModReducer(self.mult_table, (d, d * d)).mod
        return _residue_cache(
            lambda q: reduce(q).astype(_mod_p_product(q)[0]))

    def mult_matrix(self, x, q):
        """The matrix of y -> y * x modulo q on coordinates: row i holds the
        coordinates of b_i * x, x contracted with the table.  For a stack
        of elements x, the stack of their matrices."""
        dtype, matmul = _mod_p_product(q)
        xv = _residues(x, q, dtype)
        return matmul(xv, self._table_residues(q)).reshape(
            xv.shape[:-1] + (self.rank, self.rank))

    def mult_coords(self, x, y, q):
        """Coordinates of x * y modulo q.  x and y are coordinate vectors,
        or stacks of equally many of them, multiplied row by row."""
        dtype, matmul = _mod_p_product(q)
        yv = _residues(y, q, dtype)[..., None, :]
        return matmul(yv, self.mult_matrix(x, q))[..., 0, :].tolist()


def _residues(x, q, dtype):
    """Integer coordinates (a vector or a stack of them) modulo q, reduced
    as Python ints and held in dtype."""
    return (np.array(x, dtype=object) % q).astype(dtype)


def _residue_cache(reduce):
    """reduce(q), kept per modulus q while the kept arrays fit in
    _RESIDUE_CACHE_BYTES.

    reduce must not close over its ring: that is a reference cycle, which
    keeps a dropped ring's cache alive until the cyclic garbage collector
    runs.
    """
    cache = {}

    def residues(q):
        rq = cache.get(q)
        if rq is None:
            rq = reduce(q)
            if (len(cache) + 1) * rq.nbytes <= _RESIDUE_CACHE_BYTES:
                cache[q] = rq
        return rq

    return residues


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


def build_hecke_algebra(space):
    """Build T, the Z-span of the Hecke operators T_1..T_B on S.

    B is the Sturm bound, and T_1..T_B span T as a Z-module (Sturm's
    theorem; Stein, Modular Forms: A Computational Approach, ch. 9), so the
    span needs no closure under products.  Its basis is found by modular
    steps, each backed by an exact certificate:
      * D = |det| of a projected independent generator subset R certifies
        the rank and that the pivot projection is injective on span_Q(R);
      * hnf_with_modulus certifies H = HNF of the projected generator
        lattice (D is a multiple of its determinant since span(R) is a
        full-rank sublattice);
      * proj(B) == H plus integer coordinates for every generator force
        span_Q(B) = span_Q(R) (both have dimension = rank) and then
        span_Z(B) = the generator lattice exactly (_certify_generators);
      * exact basis x seed products are a tripwire (_check_closure).
    """
    from .exact_linalg import det, hnf_with_modulus

    n = space.n
    r = space.cuspidal_rank
    if r == 0:
        return HeckeAlgebra(n, space, {}, (), 0)
    bound = sturm_bound(n)
    ops = {ell: hecke(space, ell) for ell in
           primes_upto(bound) + [q for q in factorize(n) if q > bound]}
    prime_ops = {ell: op.matrix for ell, op in ops.items()}
    seeds = {op.name: op.matrix for op in ops.values()}
    n2 = r * r
    p0 = _PIVOT_PRIME
    # pass 1: mod-p vectorized rows -> pivot columns, and the first
    # independent generator subset `sel` (the pivot rows of the projection)
    arr = np.empty((bound, n2), dtype=np.int64)
    for idx, (_m, mat) in enumerate(
            _module_generators(space, prime_ops, bound)):
        arr[idx] = np.array(mat.data, dtype=np.int64).reshape(-1)
    arr %= p0
    _logger.debug("algebra build: %d generators vectorized", bound)
    _red, pivots = _rref_mod_p(arr, p0)
    rank = len(pivots)
    _red, sel = _rref_mod_p(arr[:, pivots].T, p0)
    del arr, _red
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
    _logger.debug("algebra build: rank %d, computing projected determinant", rank)
    big_d = abs(det(IntMatrix.from_rows(r_proj_rows, rank)))
    if big_d == 0:
        raise ValueError("projected generator subset is singular")
    _logger.debug("algebra build: det has %d digits, reducing HNF", len(str(big_d)))
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
    rproj_mod = _ModReducer(r_proj_rows).mod
    h_mod = _ModReducer(h_rows).mod
    for _attempt in range(6):
        while modulus.bit_length() < target_bits:
            p = next(prime_gen)
            inv_p = _inv_mod_p(rproj_mod(p), p)
            if inv_p is None:
                continue
            x_parts.append((p, _matmul_mod(h_mod(p), inv_p, p)))
            modulus *= p
        _logger.debug("algebra build: HNF done, reconstructing basis (%d bits)", target_bits)
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
            cand = HeckeAlgebra(n, space, seeds, basis_mats, rank)
            cand._solver = _PivotSolver(b_rows, pivots)
            _logger.debug("algebra build: certifying generators")
            if _certify_generators(cand, space, prime_ops, bound):
                algebra = cand
                break
        target_bits *= 2
    del r_rows, b_rows
    if algebra is None:
        raise ValueError("basis reconstruction failed to certify")
    _logger.debug("algebra build: basis certified, closure tripwire")
    _check_closure(algebra, seeds)
    return algebra


def _module_generators(space, prime_ops, bound):
    """Yield (m, T_m) for 1 <= m <= bound via the Hecke recurrences.

    T_{p^k} = T_p T_{p^{k-1}} - p T_{p^{k-2}} for p prime to n,
    U_{p^k} = U_p^k for p | n, multiplicative across coprime factors.
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
        val = None
        for p, k in factorize(m).items():
            t = t_pk(p, k)
            val = t if val is None else val * t
        yield m, (val if val is not None else ident)


def _inv_mod_p(a, p):
    """Inverse of a square int64 matrix modulo p, or None if singular."""
    n = a.shape[0]
    aug = np.concatenate(
        [np.mod(a, p), np.eye(n, dtype=np.int64)], axis=1)
    red, piv = _rref_mod_p(aug, p, pivot_order=range(n))
    if piv != list(range(n)):
        return None
    return red[:, n:]


def _certify_generators(cand, space, prime_ops, bound):
    """Exact proof that every generator T_1..T_B lies in span_Z(B).

    Integer coordinates are solved through the pivot columns, and
    z_g * B == g is then proven for all generators at once
    (_BasisRing._combines_to).  Together with proj(B) == H this forces
    span_Z(B) to equal the generator lattice: the generator span_Q sits
    inside span_Q(B) with equal dimension, so B lies in the generator
    span_Q, and the projection isomorphism then identifies span_Z(B) with
    the HNF of the projected generator lattice.  T_1 is the identity, so
    the unit is among the generators.
    """
    gen_rows = np.empty((bound, space.cuspidal_rank ** 2), dtype=np.int64)
    zs = []
    for idx, (_m, mat) in enumerate(
            _module_generators(space, prime_ops, bound)):
        row = [x for rr in mat.data for x in rr]
        z = cand._solver.solve(row)
        if z is None:
            return False
        gen_rows[idx] = row
        zs.append(z)
    return cand._combines_to(zs, partial(np.mod, gen_rows),
                             int(np.abs(gen_rows).max()))


_CLOSURE_PAIRS = 120  # basis x seed products checked, all of them up to this
_CLOSURE_CHUNK = 16  # pairs per batched product: bounds the working set


def _check_closure(algebra, seeds):
    """Exact check of basis x seed products, all of them up to
    _CLOSURE_PAIRS and a fixed sample of that many beyond.

    Closure itself is a theorem: T_1..T_B span T for the Sturm bound B
    (Sturm; Stein, op. cit., ch. 9), and the generator certificate proves
    that the basis spans exactly those.  So this is a tripwire against
    implementation bugs.  Each checked product gets integer coordinates z
    through the pivot columns, and z * B == basis_i * seed_j is then proven
    exactly (_BasisRing._combines_to), _CLOSURE_CHUNK pairs at a time.
    """
    rank, r = algebra.rank, algebra.dim_s
    seed_list = list(seeds.values())
    pairs = [(i, j) for i in range(rank) for j in range(len(seed_list))]
    if len(pairs) > _CLOSURE_PAIRS:
        pairs = random.Random(rank).sample(pairs, _CLOSURE_PAIRS)
    seed_cols = [list(zip(*g.data)) for g in seed_list]
    seed_mod = cache(_ModReducer([g.data for g in seed_list]).mod)
    bmax, residues = algebra._fast_rows
    tmax = r * bmax * max(g.max_abs() for g in seed_list)
    for lo in range(0, len(pairs), _CLOSURE_CHUNK):
        chunk = pairs[lo:lo + _CLOSURE_CHUNK]
        zs = [algebra._product_coords(algebra.basis_mats[i].data,
                                      seed_cols[j]) for i, j in chunk]
        left = [i for i, _j in chunk]
        right = [j for _i, j in chunk]

        def products(p):
            basis_p = residues(p).reshape(rank, r, r)
            return _matmul_mod(basis_p[left], seed_mod(p)[right],
                               p).reshape(len(chunk), -1)

        if not algebra._combines_to(zs, products, tmax):
            raise ValueError("Hecke algebra closure verification failed")


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
    eigenvalues: dict = field(default_factory=dict)


def poly_kernel_saturated(t, g):
    """Saturated lattice {v : v * g(t) == 0} for an integer matrix t.

    g(t), whose entries blow up with deg g, is never formed: its kernel is
    reconstructed from g(t) modulo word-sized primes (see
    exact_linalg._modular_kernel) and saturated, and the candidate is
    certified exactly by restricting t to it and checking that g of the
    restriction vanishes — this proves containment in the kernel, and the
    mod-p corank pins the rank.
    """
    from .exact_linalg import _modular_kernel

    cs = g.coeffs
    t_mod = _ModReducer(t.data).mod

    def matrix_mod(ps):
        for p in ps:
            yield np.ascontiguousarray(_poly_mod_horner(t_mod(p), cs, p).T)

    return _modular_kernel(t.rows, matrix_mod,
                           partial(_certify_poly_kernel, t, g))


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
    m_mod = _ModReducer(coords).mod
    return _vanishes(lambda p: _poly_mod_horner(m_mod(p), cs, p), bound)


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
    """Decompose the new subspace into newform classes.

    A candidate t (_candidate_separators) is a Z-combination of T_ell with
    ell prime to the level.  Those operators are normal for the Petersson
    product, so t is semisimple on S (x) Q, and it preserves the new and
    the old subspaces.  Every eigenvalue system occurs at least twice on
    the new lattice, so when the radical r of its charpoly there has
    degree rank/2, each irreducible factor g of r occurs exactly twice, and
    corank_Q g(t) >= 2 deg g on S, with equality exactly when ker g(t)
    lies in the new subspace.  The factors are coprime, so ker r(t) is the
    direct sum of the ker g(t): corank_Q r(t) >= rank(new), with equality
    exactly when t separates.  When S is new, that always holds.
    Otherwise, since a rank modulo p never exceeds the rank over Q,
    corank_p r(t) = rank(new) at one prime proves that t separates; a
    candidate is rejected only when that test fails at two primes, so a
    single bad prime cannot change the separator chosen.  Only the
    separator that wins is factored and gets certified kernels: each must
    have rank 2 deg g and lie in the new lattice, or InvariantViolation is
    raised.
    """
    n = space.n
    new = new_lattice(space)
    if new.rank == 0:
        return []
    if new.rank % 2:
        raise ValueError("new lattice has odd rank")
    target = new.rank // 2
    word = _word_primes()
    primes = (next(word), next(word))
    for name, t in _candidate_separators(space, algebra):
        t_new = restrict_operator(new, t)
        _logger.debug("decompose: charpoly of %s on the new lattice", name)
        rad_new = squarefree_radical(charpoly_int(t_new))
        if rad_new.degree != target:
            continue
        if new.rank != space.cuspidal_rank:
            t_mod = _ModReducer(t.data).mod
            if not any(_corank_mod_p(t_mod(p), rad_new, p) == new.rank
                       for p in primes):
                continue
        _logger.debug("decompose: factoring radical of degree %d", rad_new.degree)
        classes = []
        for idx, g in enumerate(factor_q(rad_new)):
            _logger.debug("decompose: isotypic kernel for degree-%d factor", g.degree)
            k = poly_kernel_saturated(t, g)
            if (k.rank != 2 * g.degree
                    or coordinates_of(new, k.basis.data) is None):
                raise InvariantViolation(
                    f"level {n}: {name} passed the corank test, but the "
                    f"kernel of a degree-{g.degree} factor has rank {k.rank} "
                    "or leaves the new lattice")
            classes.append(
                NewformClass(
                    label=(n, idx),
                    dimension=g.degree,
                    lattice=k,
                    g_poly=g,
                    space=space,
                    separator=t,
                )
            )
        return classes
    raise ValueError(
        f"no separating element found for level {n} within the search bound"
    )


def _corank_mod_p(t_p, f, p):
    """The corank of f(t) modulo p, t given by its residues t_p."""
    return t_p.shape[0] - len(
        _rref_mod_p(_poly_mod_horner(t_p, f.coeffs, p), p)[1])


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


def order_of(algebra, cls):
    """Build O_f = T / T[e_f] as matrices on S_f."""
    restricted = [restrict_operator(cls.lattice, b) for b in algebra.basis_mats]
    rows = [[x for r in m.data for x in r] for m in restricted]
    _red, pivots = _rref_mod_p(
        [[x % _PIVOT_PRIME for x in row] for row in rows], _PIVOT_PRIME)
    rank = len(pivots)
    if rank != cls.dimension:
        raise ValueError("order rank does not match class dimension")
    # the restrictions are dependent (T[e_f] dies); a Z-basis of the image
    # comes from the HNF of the pivot-column projection, which is injective
    # on the Q-span of the image
    proj = [[row[j] for j in pivots] for row in rows]
    _h, r_exact, u_rows = _hnf_rows(proj, transform=True, ncols=len(pivots))
    if r_exact != rank:
        raise ValueError("exact image rank disagrees with the mod-p rank")
    r = cls.lattice.rank
    basis_rows = (IntMatrix.from_rows(u_rows[:rank], len(rows))
                  * IntMatrix.from_rows(rows, r * r)).data
    order = OrderOf(rank, tuple(
        IntMatrix(r, r, [row[i * r:(i + 1) * r] for i in range(r)])
        for row in basis_rows))
    order._solver = _PivotSolver(basis_rows, pivots)
    order.unit_coords()  # raises when the identity is missing
    return order


# ---------------------------------------------------------------------------
# mod-p algebra decomposition


@dataclass
class MaxIdeal:
    """A maximal ideal of T (or O_f) of residue characteristic p."""

    parent: object
    p: int
    idempotent: tuple  # coordinates mod p of the local idempotent
    residue_degree: int
    comp_basis: tuple = field(repr=False, default=None)  # mod-p basis of the local factor
    radical_basis: tuple = field(repr=False, default=None)  # mod-p basis of its radical


def maximal_ideals(ring, p):
    """Maximal ideals of residue characteristic p, via local idempotents.

    A = ring / p, presented by its structure constants (faithful even where
    the matrix embedding degenerates mod p), is commutative of
    characteristic p, so Frobenius x -> x^p is F_p-linear on it, with
    matrix F of rows b_i^p.  In a local factor of A, x^p = x only for x in
    F_p * 1: such an x is a root of the split, squarefree X^p - X, so F_p[x]
    is a product of copies of F_p, and a local ring has no idempotents but
    0 and 1.  So the fixed space B = ker(F - 1) is spanned by the primitive
    idempotents, one per maximal ideal (Cohen, GTM 138, 3.4; Ronyai,
    J. Symbolic Comput. 9, 1990), and its elements split A along distinct
    roots (_split).  Each component eA and its radical, the kernel of a
    power of Frobenius on eA, are then read from F.
    """
    d = ring.rank
    if d == 0:
        return []
    dtype, matmul = _mod_p_product(p)
    unit = [c % p for c in ring.unit_coords()]
    frob = np.array(_frobenius_rows(ring, p), dtype=dtype)
    fixed = _left_kernel_mod_p(frob - np.eye(d, dtype=dtype), p).tolist()
    comps = [unit]
    for b in fixed:
        if len(comps) == len(fixed):
            break
        comps = [part for e in comps
                 for part in _split(ring, b, e, len(fixed), p)]
    if len(comps) != len(fixed):
        raise InvariantViolation(
            f"the number of idempotents mod {p} is not dim B = {len(fixed)}")
    if [sum(col) % p for col in zip(*comps)] != unit:
        raise InvariantViolation(f"the idempotents mod {p} do not sum to 1")
    ideals = []
    for e in comps:
        # RREF basis of the component eA: the identity on its pivot columns
        red, piv = _rref_mod_p(ring.mult_matrix(e, p), p)
        c = len(piv)
        comp = red[:c].astype(dtype)
        # Frobenius in comp_basis coordinates, x -> x @ fmat: the
        # coordinates of a vector of the component are its pivot entries
        image = matmul(comp, frob)
        fmat = image[:, piv]
        if np.any(matmul(fmat, comp) != image):
            raise InvariantViolation(
                f"Frobenius image left its component mod {p}")
        # radical = kernel of Frobenius^n on the component, p^n > c
        power, pk = fmat, p
        while pk <= c:
            power, pk = matmul(power, fmat), pk * p
        radical_basis = matmul(
            _left_kernel_mod_p(power, p).astype(dtype), comp).tolist()
        ideals.append(
            MaxIdeal(
                parent=ring,
                p=p,
                idempotent=tuple(e),
                residue_degree=c - len(radical_basis),
                comp_basis=tuple(map(tuple, red[:c].tolist())),
                radical_basis=tuple(map(tuple, radical_basis)),
            )
        )
    ideals.sort(key=lambda m: (m.residue_degree, m.idempotent))
    return ideals


def _frobenius_rows(ring, p):
    """b_i^p modulo p for every basis element b_i: square-and-multiply,
    left to right over the bits of p, on the stack of all of them."""
    basis = np.eye(ring.rank, dtype=np.int64).tolist()
    rows = basis
    for bit in bin(p)[3:]:
        rows = ring.mult_coords(rows, rows, p)
        if bit == "1":
            rows = ring.mult_coords(rows, basis, p)
    return rows


def _left_kernel_mod_p(m, p):
    """A basis of {v : v m = 0 mod p} for a square residue matrix m: the
    rows of the RREF of [m | I] past the pivots of m."""
    c = m.shape[0]
    red, piv = _rref_mod_p(
        np.concatenate([m, np.eye(c, dtype=m.dtype)], axis=1), p)
    rank = sum(1 for j in piv if j < c)
    return red[rank:, c:]


def _split(ring, b, e, k, p):
    """The idempotents that the fixed element b cuts out of the component
    with idempotent e.

    y = b e lies in the split semisimple algebra B e, so its minimal
    polynomial over eA, read from the RREF of the transposed Krylov rows
    e, y, y^2, ..., is a product of distinct linear factors X - lambda, and
    each root lambda gives the idempotent prod_(mu != lambda) (y - mu e) /
    (lambda - mu).
    """
    y = ring.mult_coords(b, e, p)
    krylov = [e, y]
    while len(krylov) <= k:
        krylov.append(ring.mult_coords(krylov[-1], y, p))
    # the pivots are 0..deg-1; column deg, when there is one, holds the
    # relation y^deg = sum_j c_j y^j
    red, piv = _rref_mod_p(list(zip(*krylov)), p)
    deg = len(piv)
    fac = []
    if deg <= k:
        minpoly = FpPoly(p, [-int(c) for c in red[:deg, deg]] + [1])
        if minpoly.gcd(minpoly.derivative()).degree == 0:
            fac = factor_fp(minpoly)
    # squarefree of degree deg: deg factors exactly when all are linear
    if len(fac) != deg:
        raise InvariantViolation(
            f"a fixed element's minimal polynomial mod {p} does not split "
            "into distinct linear factors")
    if deg == 1:
        return [e]
    roots = [-g.coeffs[0] % p for g in fac]
    parts = []
    for lam in roots:
        part = e
        for mu in roots:
            if mu != lam:
                scale = pow(lam - mu, -1, p)
                part = ring.mult_coords(
                    part, [(a - mu * c) * scale for a, c in zip(y, e)], p)
        parts.append(part)
    return parts


# ---------------------------------------------------------------------------
# module-theoretic diagnostics


def fiber_dim(m):
    """dim over T/m of S/mS, at the local piece at m.

    S is the lattice the basis matrices of the ring of m act on (the
    cuspidal lattice for T), so e and the radical elements act on S/pS
    through the residues of those matrices, with products exact at every
    p (_mod_p_product).
    """
    ring = m.parent
    p = m.p
    r = ring.dim_s
    if r == 0:
        return 0
    dtype, matmul = _mod_p_product(p)
    acts_p = ring._basis_reducer.mod(p).astype(dtype)
    e_mat = matmul(np.array([m.idempotent], dtype=dtype), acts_p)
    red, piv = _rref_mod_p(e_mat.reshape(r, r), p)
    dim_v = len(piv)
    if dim_v == 0:
        return 0
    rad_mats = matmul(np.array(m.radical_basis, dtype=dtype).reshape(
        -1, ring.rank), acts_p).reshape(-1, r, r)
    mv_rows = matmul(red[:dim_v].astype(dtype), rad_mats)
    dim_mv = len(_rref_mod_p(mv_rows.reshape(-1, r), p)[1])
    total = dim_v - dim_mv
    if total % m.residue_degree:
        raise ValueError("fiber dimension not divisible by residue degree")
    return total // m.residue_degree


def socle_dim(algebra, m):
    """dim over T/m of the m-torsion of (ring mod p), at the local factor."""
    p = m.p
    if not m.radical_basis:
        return 1  # the local factor is a field
    ring = m.parent
    stacked = [[a for rad in m.radical_basis
                for a in ring.mult_coords(v, rad, p)] for v in m.comp_basis]
    kern = len(stacked) - len(_rref_mod_p(stacked, p)[1])
    if kern % m.residue_degree:
        raise ValueError("socle dimension not divisible by residue degree")
    return kern // m.residue_degree


@dataclass(frozen=True)
class GorensteinVerdict:
    status: str  # "true" | "false" | "not_certified"
    fiber_dimension: int


def is_gorenstein(algebra, m):
    """Gorenstein test at m via the fiber dimension of S, with guards.

    Applicable when (i) p does not divide the level, (ii) p is odd with
    ord_p(n) = 1, or (iii) ord_p(n) = 1 and U_p is a unit mod m; otherwise
    the verdict is not_certified (with the raw dimension attached).
    """
    n = algebra.level
    p = m.p
    dim = fiber_dim(m)
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
    return _is_unit_at(m, coords)


def _is_unit_at(m, x):
    """Whether x is a unit in the local factor at m: x * e lies outside
    the radical of that factor."""
    y = m.parent.mult_coords(x, m.idempotent, m.p)
    rows = [list(v) for v in m.radical_basis] + [y]
    return len(_rref_mod_p(rows, m.p)[1]) > len(m.radical_basis)


def _m_ideal_lattice(order, m):
    """The maximal ideal m as a finite-index sublattice of O_f (coords)."""
    d = order.rank
    p = m.p
    rows = [[p if i == j else 0 for j in range(d)] for i in range(d)]
    # lifts of (1 - e) * basis and of the radical
    one_minus_e = [(u - e) % p for u, e in zip(order.unit_coords(),
                                                m.idempotent)]
    rows += order.mult_matrix(one_minus_e, p).tolist()
    rows += [list(rad) for rad in m.radical_basis]
    return IntLattice(d, rows)


def is_dvr(order, m):
    """Whether the localization of O_f at m is a discrete valuation ring."""
    if not isinstance(order, OrderOf):
        raise ValueError("is_dvr expects an order")
    mm = _m_ideal_lattice(order, m)
    # m^2 is spanned by the pairwise products of the generators of m, and
    # contains p^2 O since m contains pO: so the products are needed mod p^2
    d, p2 = order.rank, m.p * m.p
    gens = mm.basis.data
    xs, ys = zip(*[(x, y) for i, x in enumerate(gens) for y in gens[i:]])
    prod_rows = [[p2 if i == j else 0 for j in range(d)] for i in range(d)]
    prod_rows += order.mult_coords(xs, ys, p2)
    m2 = IntLattice(d, prod_rows)
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
    """Sign of U_p on the isotypic lattice: B * U_p == ±B exactly for its
    basis B, as U_p = -w_p on p-new forms and w_p is an involution.  Any
    other action is a bug, and raises InvariantViolation."""
    n = cls.space.n
    if n % p:
        raise ValueError("not applicable: p does not divide the level")
    if (n // p) % p == 0:
        raise ValueError("not applicable: p^2 divides the level")
    basis = cls.lattice.basis
    image = basis * hecke(cls.space, p).matrix
    for sign in (1, -1):
        if image == basis.scale(sign):
            return sign
    raise InvariantViolation(
        f"level {n} class {cls.label}: U_{p} does not act as ±1 on the "
        "isotypic lattice")


def lift_idempotent(ring, m, modulus):
    """Lift the local idempotent of m to an idempotent of ring / modulus.

    modulus must be a power p^k of m.p.  Each Newton step e <- 3e^2 - 2e^3
    doubles the p-adic precision of an idempotent, so ceil(log2 k) steps
    from the idempotent mod p reach p^k; the result is then checked to be
    idempotent mod p^k and to reduce to m.idempotent mod p.
    """
    p = m.p
    k = 1
    while p ** k < modulus:
        k += 1
    if p ** k != modulus:
        raise ValueError("modulus must be a power of p")
    e = [int(c) % modulus for c in m.idempotent]
    for _ in range((k - 1).bit_length()):
        e2 = ring.mult_coords(e, e, modulus)
        e3 = ring.mult_coords(e2, e, modulus)
        e = [(3 * a - 2 * b) % modulus for a, b in zip(e2, e3)]
    if (ring.mult_coords(e, e, modulus) != e
            or [c % p for c in e] != [int(c) % p for c in m.idempotent]):
        raise InvariantViolation(
            f"idempotent mod {p} does not lift to an idempotent mod {modulus}")
    return tuple(e)


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
