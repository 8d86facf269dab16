"""Exact linear algebra over Z: normal forms, kernels, lattice calculus.

Everything here is arbitrary precision.  Matrices are immutable; all
functions are pure, so concurrent use is safe.  Lattices are kept in a
canonical row Hermite normal form, which makes equality bit-identical.
"""

import logging
from functools import cache, partial
from itertools import takewhile
from math import gcd, lcm

import numpy as np

_logger = logging.getLogger(__name__)

__all__ = [
    "InvariantViolation",
    "IntMatrix",
    "IntLattice",
    "hnf",
    "snf",
    "kernel_saturated",
    "quotient_invariants",
    "det",
    "primes_upto",
]


class InvariantViolation(AssertionError):
    """A mathematical tripwire failed: a result that must hold does not.

    Raised explicitly, so it survives ``python -O``; it subclasses
    AssertionError, which the CLI maps to its invariant-violation exit code.
    """


def gcdex(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix:
    """Dense integer matrix with exact arithmetic, stored row-major."""

    __slots__ = ("rows", "cols", "data", "_max_abs")

    def __init__(self, rows, cols, data):
        data = tuple(tuple(map(int, row)) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_max_abs", None)

    def __setattr__(self, *args):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return (self.__class__, (self.rows, self.cols, self.data))

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count from empty rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def row(self, i):
        return self.data[i]

    def transpose(self):
        return IntMatrix(self.cols, self.rows, list(zip(*self.data)) if self.data else [[] for _ in range(self.cols)])

    def is_zero(self):
        return self.max_abs() == 0

    def max_abs(self):
        """Largest absolute entry (0 when empty), computed once."""
        m = self._max_abs
        if m is None:
            m = (max(max(map(max, self.data)), -min(map(min, self.data)))
                 if self.rows and self.cols else 0)
            object.__setattr__(self, "_max_abs", m)
        return m

    def __add__(self, other):
        self._check_shape(other)
        return IntMatrix(
            self.rows, self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        self._check_shape(other)
        return IntMatrix(
            self.rows, self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = int(c)
        return IntMatrix(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        # int64 fast path when no overflow is possible
        bound = self.cols * self.max_abs() * other.max_abs()
        if bound < 2**62 and self.rows and self.cols and other.cols:
            a = np.array(self.data, dtype=np.int64)
            b = np.array(other.data, dtype=np.int64)
            prod = a @ b
            out = IntMatrix(self.rows, other.cols, prod.tolist())
            object.__setattr__(out, "_max_abs", int(np.abs(prod).max()))
            return out
        bt = list(zip(*other.data)) if other.rows else [()] * other.cols
        out = [
            [sum(x * y for x, y in zip(row, col)) for col in bt]
            for row in self.data
        ]
        return IntMatrix(self.rows, other.cols, out)

    def to_text(self):
        lines = [f"{self.rows} {self.cols}"]
        for row in self.data:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("truncated matrix text")
        rows, cols = int(tokens[0]), int(tokens[1])
        entries = [int(t) for t in tokens[2:]]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match header")
        data = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
        return cls(rows, cols, data)


# ---------------------------------------------------------------------------
# Hermite normal form


def _hnf_rows(rows, transform=False, ncols=None):
    """Row HNF of a list of rows (lists of ints).

    Returns (hnf_rows, rank, U_rows).  U is tracked only when transform is
    True.  Pivots are positive, entries above pivots reduced into [0, pivot),
    zero rows last.
    """
    A = [list(r) for r in rows]
    n = len(A)
    cols = ncols if ncols is not None else (len(A[0]) if A else 0)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if transform else None
    r = 0
    for c in range(cols):
        if r >= n:
            break
        while True:
            nz = [i for i in range(r, n) if A[i][c]]
            if not nz:
                break
            if len(nz) == 1:
                i0 = nz[0]
                if i0 != r:
                    A[r], A[i0] = A[i0], A[r]
                    if transform:
                        U[r], U[i0] = U[i0], U[r]
                break
            i0 = min(nz, key=lambda i: (abs(A[i][c]), i))
            p = A[i0][c]
            for i in nz:
                if i == i0:
                    continue
                q = A[i][c] // p
                if q:
                    Ai, A0 = A[i], A[i0]
                    A[i] = [x - q * y for x, y in zip(Ai, A0)]
                    if transform:
                        Ui, U0 = U[i], U[i0]
                        U[i] = [x - q * y for x, y in zip(Ui, U0)]
        if A[r][c]:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
                if transform:
                    U[r] = [-x for x in U[r]]
            p = A[r][c]
            for i in range(r):
                q = A[i][c] // p
                if q:
                    Ai, Ar = A[i], A[r]
                    A[i] = [x - q * y for x, y in zip(Ai, Ar)]
                    if transform:
                        Ui, Ur = U[i], U[r]
                        U[i] = [x - q * y for x, y in zip(Ui, Ur)]
            r += 1
    return A, r, U


def hnf(m):
    """Row Hermite normal form.  Returns (H, U) with U unimodular, U*M = H."""
    H, _rank, U = _hnf_rows(m.data, transform=True, ncols=m.cols)
    return IntMatrix(m.rows, m.cols, H), IntMatrix(m.rows, m.rows, U)


def hnf_basis(rows, ncols):
    """Nonzero rows of the row HNF, as a list (no transform)."""
    H, r, _ = _hnf_rows(rows, ncols=ncols)
    return H[:r]


# ---------------------------------------------------------------------------
# Smith normal form


def _smallest_entry(A, t, nrows, ncols):
    best = None
    for i in range(t, nrows):
        row = A[i]
        for j in range(t, ncols):
            x = row[j]
            if x:
                k = (abs(x), i, j)
                if best is None or k < best:
                    best = k
    return best


def snf(m):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""
    A = [list(r) for r in m.data]
    nrows = len(A)
    ncols = len(A[0]) if A else 0

    def col_op_add(src, dst, q):
        # column dst += q * column src
        for row in A:
            row[dst] += q * row[src]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    diag = []
    t = 0
    while t < min(nrows, ncols):
        loc = _smallest_entry(A, t, nrows, ncols)
        if loc is None:
            break
        _, pi, pj = loc
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        At = A[t]
                        A[i] = [x - q * y for x, y in zip(A[i], At)]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            if dirty:
                continue
            # clear row t right of the pivot
            dirty = False
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_op_add(t, j, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            p = A[t][t]
            bad = None
            for i in range(t + 1, nrows):
                row = A[i]
                for j in range(t + 1, ncols):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            At = A[t]
            A[t] = [x + y for x, y in zip(At, A[bad])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        diag.append(A[t][t])
        t += 1
    return tuple(diag)


# ---------------------------------------------------------------------------
# Determinant


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate is a minor of m, so entries stay bounded by
    Hadamard's bound and every division is exact.  There is no
    multimodular route above some size: it runs one elimination per word
    prime until their product passes twice the Hadamard bound, and on the
    rank-154 congruence modules of level 390 that was slower than this
    single elimination.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    A = [list(r) for r in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Word-size primes and exact products modulo them


@cache
def _odd_prime_sieve():
    """Byte i is 1 exactly when 2i + 1 is a prime below 2^20."""
    n = 1 << 19
    sieve = bytearray([1]) * n
    sieve[0] = 0
    for i in range(1, 512):  # odd q = 2i + 1 up to sqrt(2^20)
        if sieve[i]:
            q = 2 * i + 1
            start = q * q // 2
            sieve[start::q] = bytes(len(range(start, n, q)))
    return bytes(sieve)


def _word_primes():
    """Primes below 2^20, descending: the primes of every mod-p loop.

    Their residues multiply exactly through _matmul_mod.
    """
    sieve = _odd_prime_sieve()
    i = sieve.rfind(1)
    while i > 0:
        yield 2 * i + 1
        i = sieve.rfind(1, 0, i)
    yield 2
    raise ArithmeticError("prime supply exhausted")


def _small_primes():
    """Primes below 2^20, ascending, from the same sieve."""
    yield 2
    sieve = _odd_prime_sieve()
    i = sieve.find(1)
    while i >= 0:
        yield 2 * i + 1
        i = sieve.find(1, i + 1)


def primes_upto(bound):
    """The primes p <= bound, ascending; bound must be below 2^20."""
    if bound >= 1 << 20:
        raise ValueError(f"primes_upto reads the sieve below 2^20, not {bound}")
    return list(takewhile(lambda p: p <= bound, _small_primes()))


def _crt_rows(parts, modulus):
    """Symmetric-range CRT lift of per-prime int64 row arrays."""
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


def _matmul_mod(a, b, p):
    """(a @ b) mod p for arrays of integers in [0, p), as int64.

    The operands are integer arrays, or float64 arrays holding integers,
    of any shape `@` takes: 1-D, 2-D or batched.  The product runs on
    float64 BLAS, exactly: each term is at most (p-1)^2, and the inner
    dimension is summed in blocks of at most floor((2^53 - 1) / (p-1)^2)
    terms (8192 near 2^20), so every partial sum is an integer that
    float64 represents exactly (Dumas, Giorgi and Pernet, "Dense linear
    algebra over word-size prime fields: the FFLAS and FFPACK packages",
    ACM TOMS 35(3), 2008).  Raises ValueError when (p-1)^2 >= 2^53,
    where a single term may already be inexact.
    """
    sq = (p - 1) ** 2
    if sq >= 1 << 53:
        raise ValueError(f"modulus {p} is too large for exact float64 products")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = a.shape[-1]
    block = ((1 << 53) - 1) // max(sq, 1)
    if k <= block:
        return (a @ b).astype(np.int64) % p
    out = 0
    for lo in range(0, k, block):
        bb = b[lo:lo + block] if b.ndim == 1 else b[..., lo:lo + block, :]
        out = (out + (a[..., lo:lo + block] @ bb).astype(np.int64)) % p
    return out


def _mod_p_product(p):
    """(dtype, matmul): exact residue products modulo p, prime or not.

    matmul(a, b) is (a @ b) mod p for arrays of residues held in dtype:
    float64 through _matmul_mod when (p-1)^2 < 2^53, and Python-int object
    arrays above, where neither float64 nor int64 holds every product.
    """
    if (p - 1) ** 2 < 1 << 53:
        return np.float64, partial(_matmul_mod, p=p)
    return object, lambda a, b: a @ b % p


class _ModReducer:
    """Reduce a fixed integer array modulo many primes, quickly.

    This is the one place that decides whether an integer array is held
    in int64 (IntMatrix.__mul__ decides it for exact products).  data is
    an integer array or nested rows of Python ints, reshaped to shape
    when one is given.  When every entry fits in int64 the array is
    stored as int64 and reduced with ``np.mod``.  Otherwise each |entry|
    is decomposed once into base-2**32 limbs (via ``int.to_bytes``);
    reduction modulo p is then a vectorized dot with the powers of 2**32
    mod p, which avoids re-walking millions of Python bigints for every
    prime.
    """

    def __init__(self, data, shape=None):
        try:
            arr = np.array(data, dtype=np.int64)
        except OverflowError:
            arr = np.array(data, dtype=object)
        if shape is not None:
            arr = arr.reshape(shape)
        self.shape = arr.shape
        if arr.dtype == np.int64:
            self._arr = arr
            self._limbs = None
        else:
            self._arr = None
            flat = arr.ravel().tolist()
            amax = max(max(flat), -min(flat))
            nbytes = ((amax.bit_length() + 31) // 32) * 4
            # stream into one preallocated buffer: a bytes-join would hold
            # millions of transient bytes objects alive at once
            buf = bytearray(len(flat) * nbytes)
            pos = 0
            for x in flat:
                buf[pos:pos + nbytes] = abs(x).to_bytes(nbytes, "little")
                pos += nbytes
            self._limbs = np.frombuffer(buf, dtype="<u4").reshape(
                len(flat), nbytes // 4)
            self._signs = np.fromiter(
                ((-1 if x < 0 else 1) for x in flat),
                dtype=np.int8, count=len(flat))

    def mod(self, p):
        """Entries reduced into [0, p), in an array of self.shape.

        The array is int64 when p < 2^63 and holds Python ints above.
        """
        wide = p >= 1 << 63
        if self._arr is not None:
            return self._arr.astype(object) % p if wide else np.mod(self._arr, p)
        # a term limb * (2^32i mod p) is below 2^32 * p: the limb dot runs
        # in int64 blocks of as many terms as sum without wrapping, and in
        # Python ints when not even one term fits (p above 2^31)
        block = ((1 << 63) - 1) // (((1 << 32) - 1) * max(p - 1, 1))
        if block:
            pows = self._powers(p, np.int64)
            r = 0
            for lo in range(0, len(pows), block):
                r = (r + self._limbs[:, lo:lo + block] @ pows[lo:lo + block]
                     % p) % p
        else:
            r = self._limbs.astype(object) @ self._powers(p, object) % p
        r = r * self._signs % p
        return (r if wide else r.astype(np.int64)).reshape(self.shape)

    def _powers(self, p, dtype):
        """2^(32 i) mod p for each limb position i."""
        return np.array([pow(2, 32 * i, p)
                         for i in range(self._limbs.shape[1])], dtype=dtype)


# ---------------------------------------------------------------------------
# Lattices


class IntLattice:
    """Finite-rank sublattice of Z^d with canonical HNF basis."""

    __slots__ = ("ambient_dim", "basis", "rank")

    def __init__(self, ambient_dim, rows):
        basis_rows = hnf_basis([list(r) for r in rows], ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", IntMatrix.from_rows(basis_rows, ambient_dim)
                           if basis_rows else IntMatrix.zeros(0, ambient_dim))
        object.__setattr__(self, "rank", len(basis_rows))

    def __setattr__(self, *args):
        raise AttributeError("IntLattice is immutable")

    def __reduce__(self):
        return (self.__class__, (self.ambient_dim,
                                 [list(r) for r in self.basis.data]))

    @classmethod
    def from_matrix(cls, m):
        return cls(m.cols, m.data)

    @classmethod
    def standard(cls, n):
        return cls(n, IntMatrix.identity(n).data)

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    def __eq__(self, other):
        return (
            isinstance(other, IntLattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"IntLattice(rank {self.rank} in Z^{self.ambient_dim})"

    def is_zero(self):
        return self.rank == 0

    def contains(self, vector):
        c = coordinates_of(self, [list(vector)])
        return c is not None

    def to_text(self):
        return f"{self.ambient_dim}\n" + self.basis.to_text()

    @classmethod
    def from_text(cls, text):
        first, rest = text.split("\n", 1)
        ambient = int(first.strip())
        basis = IntMatrix.from_text(rest)
        return cls(ambient, basis.data)


def _solve_hnf_int(hnf_rows_, pivots, target):
    """Integer solve x * H = target for an integer target; None if unsolvable."""
    t = list(target)
    x = [0] * len(hnf_rows_)
    for i, (row, p) in enumerate(zip(hnf_rows_, pivots)):
        if t[p]:
            c, rem = divmod(t[p], row[p])
            if rem:
                return None
            x[i] = c
            for j in range(p, len(t)):
                if row[j]:
                    t[j] -= c * row[j]
    if any(t):
        return None
    return x


def _pivots(rows):
    piv = []
    for row in rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is not None:
            piv.append(p)
    return piv


def coordinates_of(lattice, vectors):
    """Integer coordinates of vectors in the lattice basis; None if outside.

    A vector with a non-integral entry is outside: that entry survives the
    integer elimination, as a pivot that does not divide it or as a
    nonzero residue.
    """
    rows = [list(r) for r in lattice.basis.data]
    piv = _pivots(rows)
    out = []
    for v in vectors:
        if len(v) != lattice.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        x = _solve_hnf_int(rows, piv, v)
        if x is None:
            return None
        out.append(x)
    return out


def hnf_with_modulus(rows, ncols, d):
    """HNF basis of L = span(rows) + d*Z^ncols, entries kept below d.

    Returns ncols rows forming an upper-triangular HNF with positive
    diagonal.  When d*Z^ncols is already contained in span(rows) — e.g. d a
    nonzero multiple of the determinant of a full-column-rank span — the
    result is exactly the canonical HNF basis of span(rows).  Every working
    entry stays reduced modulo d, so intermediates never explode.  The
    containment span(rows) <= span(result) is certified exactly at the end
    (the reverse containment holds by construction), so a bad modulus raises
    instead of returning a wrong basis.
    """
    d = abs(int(d))
    if d == 0:
        raise ValueError("modulus must be nonzero")
    M = [[d if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    for v in rows:
        v = [x % d for x in v]
        for c in range(ncols):
            vc = v[c]
            if vc == 0:
                continue
            row = M[c]
            pc = row[c]
            if vc % pc == 0:
                q = vc // pc
                v = [(a - q * b) % d for a, b in zip(v, row)]
            else:
                g, x, y = gcdex(pc, vc)
                new = [(x * a + y * b) % d for a, b in zip(row, v)]
                # the pair (new, v') comes from a unimodular 2x2 transform
                v = [((pc // g) * b - (vc // g) * a) % d
                     for a, b in zip(row, v)]
                new[c] = g
                v[c] = 0
                M[c] = new
    # reduce entries above each pivot into [0, pivot)
    for c in range(ncols):
        row = M[c]
        p = row[c]
        for i in range(c):
            q = M[i][c] // p
            if q:
                M[i] = [(a - q * b) % d if j > c else a - q * b
                        for j, (a, b) in enumerate(zip(M[i], row))]
    piv = list(range(ncols))
    for v in rows:
        if _solve_hnf_int(M, piv, v) is None:
            raise ArithmeticError(
                "modular HNF dropped a lattice vector; "
                "modulus is not a multiple of the lattice determinant")
    return M


def _rat_recon(r, m):
    """Rational reconstruction of r mod m (Wang): (num, den) or None.

    Returns num/den with num == r*den (mod m), |num| and den both below
    sqrt(m/2), den > 0 and coprime to num.
    """
    v0, v1 = m, r % m
    s0, s1 = 0, 1
    while 2 * v1 * v1 >= m:
        q = v0 // v1
        v0, v1 = v1, v0 - q * v1
        s0, s1 = s1, s0 - q * s1
    num, den = v1, s1
    if den == 0:
        return None
    if den < 0:
        num, den = -num, -den
    if 2 * den * den > m or gcd(num, den) != 1:
        return None
    return num, den


def _rref_mod_p(a, p, pivot_order=None):
    """Reduced row echelon form of an integer matrix modulo a prime p.

    a is a 2-D integer array or a list of integer rows; when p < 2^31 its
    entries must fit in int64.  Returns (reduced, pivot_cols): the rows of
    the reduced form, the first len(pivot_cols) of which are a basis of the
    row space with a 1 in their own pivot column and 0 in the others, and
    the pivot columns in row order.  The work is in int64 when p < 2^31,
    where every product of two residues is below 2^62, and in Python-int
    object arrays above.  With pivot_order given, pivots are searched only
    along those columns in order; the caller must check that all of them
    were found.
    """
    if p < 1 << 31:
        a = np.mod(np.array(a, dtype=np.int64), p)
    else:
        a = np.array(a, dtype=object) % p
    nrows, n = a.shape
    order = range(n) if pivot_order is None else pivot_order
    piv = []
    r = 0
    for c in order:
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if len(others):
            a[others] -= np.outer(a[others, c], a[r])
            a[others] %= p
        piv.append(c)
        r += 1
    return a, piv


def _vanishes(residues, bound):
    """Whether an integer array with entries at most bound in absolute
    value is zero, from residues(p): the array modulo a word prime p, or
    any array that is nonzero exactly where that one is.  Zero modulo
    primes whose product exceeds 2 * bound is zero.
    """
    modulus = 1
    for p in _word_primes():
        if np.any(residues(p)):
            return False
        modulus *= p
        if modulus > 2 * bound:
            return True


def _modular_kernel(n, matrix_mod, certify):
    """Saturated kernel of an n-column integer matrix seen only modulo
    primes, as a lattice.

    matrix_mod(primes) yields the matrix modulo each of the primes, as
    arrays of residues.  A run fixes, at its first prime, the rows (those
    independent there, when there are more rows than columns) and the
    pivot set; a later prime that misses the pivot set is skipped.  The
    residues of the reduced kernel basis are combined by _crt_rows and,
    each time a prime batch is complete, rationally reconstructed (one row
    per free column f, with w_f[f] > 0 and zeros at the other free
    columns) and saturated.  certify(lattice) proves exactly that the
    candidate lies in the kernel of every row; one that does not asks for
    a batch twice as large, and a reconstruction that repeats across two
    batches and still fails restarts the run from the next prime.

    This is sound: the mod-p rank never exceeds the rank over Q, so a
    certified row per free column spans the whole rational kernel, while
    rows or pivots chosen at a prime that undercounts the rank give a
    kernel too large to pass certify, which checks against every row.
    """
    primes = _word_primes()
    while True:
        pivots = prev = None
        parts, modulus, batch = [], 1, 2
        while True:
            got = 0
            while got < batch:
                ps = [next(primes) for _ in range(batch - got)]
                for p, a in zip(ps, matrix_mod(ps)):
                    if pivots is None:
                        rows = (_rref_mod_p(a.T, p)[1] if len(a) > n
                                else slice(None))
                        red, pivots = _rref_mod_p(a[rows], p)
                        free = sorted(set(range(n)).difference(pivots))
                    else:
                        red, piv = _rref_mod_p(a[rows], p,
                                               pivot_order=pivots)
                        if piv != pivots:
                            continue  # unlucky prime for this pivot set
                    parts.append((p, red[:len(pivots)][:, free]))
                    modulus *= p
                    got += 1
            w_rows = _reconstruct_kernel_rows(_crt_rows(parts, modulus),
                                              modulus, pivots, free, n)
            if w_rows is not None:
                try:
                    lat = _saturate_kernel_rows(w_rows, free, n)
                except ArithmeticError:
                    lat = None
                if lat is not None and certify(lat):
                    return lat
                if w_rows == prev:
                    break
            prev = w_rows
            _logger.debug("modular kernel: no certified candidate at %d "
                          "bits, extending", modulus.bit_length())
            batch = min(2 * batch, 64)


def _reconstruct_kernel_rows(residues, modulus, pivots, free, n):
    rank = len(pivots)
    w_rows = []
    for jf, f in enumerate(free):
        entries = []
        den_l = 1
        for i in range(rank):
            rec = _rat_recon(residues[i][jf], modulus)
            if rec is None:
                return None
            entries.append(rec)
            den_l = lcm(den_l, rec[1])
        w = [0] * n
        w[f] = den_l
        for i, (num, dv) in enumerate(entries):
            w[pivots[i]] = -num * (den_l // dv)
        g_all = gcd(*w)
        w_rows.append([x // g_all for x in w])
    return w_rows


def _in_kernel_exact(rows, w):
    nz = [(j, x) for j, x in enumerate(w) if x]
    for row in rows:
        if sum(row[j] * x for j, x in nz):
            return False
    return True


def kernel_saturated(m):
    """Saturated integer kernel {v in Z^cols : M * v = 0} as a lattice.

    The rational kernel is reconstructed from kernels modulo word-sized
    primes and saturated (see _modular_kernel); every basis vector is then
    checked to be in the kernel exactly, so the result is exact and no
    intermediate blows up with the dimension.
    """
    n = m.cols
    if n == 0:
        return IntLattice.zero(0)
    if m.rows == 0 or m.is_zero():
        return IntLattice.standard(n)
    rows = m.data
    return _modular_kernel(
        n, partial(map, _ModReducer(rows).mod),
        lambda lat: all(_in_kernel_exact(rows, w) for w in lat.basis.data))


def _saturate_kernel_rows(w_rows, free, n):
    """Saturation of the span of reconstructed kernel rows.

    w_rows must have the shape produced by _reconstruct_kernel_rows: one
    row per free column f with w_f[f] > 0 and zeros at the other free
    columns.  The saturation is pure lattice arithmetic on the rows and
    does not need the matrix they are a kernel of.
    """
    k = len(free)
    # sigma_f := w_f / w_f[f] is the unique rational kernel basis that is the
    # identity on the free columns; the saturated kernel K satisfies
    # K = sigma(Lambda) with Lambda = {y in Z^k : y * sigma integral}, since
    # projection onto the free columns is inverse to sigma on ker_Q.
    d_f = [w[f] for w, f in zip(w_rows, free)]
    delta = lcm(*d_f)
    if delta == 1:
        return IntLattice(n, w_rows)
    _logger.debug("saturation: k=%d n=%d, delta %d bits", k, n,
                  delta.bit_length())
    nmat = [[(delta // df) * x for x in w] for w, df in zip(w_rows, d_f)]
    # Lambda = {y : y*N == 0 mod delta}: read it off the HNF of the lattice
    # spanned by the rows [N_f | e_f] and delta*Z^(n+k); the trailing k rows
    # of the upper-triangular HNF have zero left block and their right parts
    # form a basis of Lambda.
    gamma_rows = [list(nrow) + [1 if i == j else 0 for j in range(k)]
                  for i, nrow in enumerate(nmat)]
    H = hnf_with_modulus(gamma_rows, n + k, delta)
    _logger.debug("saturation: HNF done, lifting basis")
    basis_rows = []
    for i in range(n, n + k):
        y = H[i][n:]
        v = [0] * n
        for c, nrow in zip(y, nmat):
            if c:
                for j, x in enumerate(nrow):
                    if x:
                        v[j] += c * x
        row = []
        for x in v:
            q, rem = divmod(x, delta)
            if rem:
                raise ArithmeticError("saturation lift is not integral")
            row.append(q)
        basis_rows.append(row)
    lat = IntLattice(n, basis_rows)
    if lat.rank != k:
        raise ArithmeticError("saturated kernel has wrong rank")
    return lat


def quotient_invariants(l, l_sub):
    """Elementary divisors (> 1) of L / L_sub, and the free rank.

    Returns (factors, free_rank).
    """
    if l_sub.ambient_dim != l.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coords = coordinates_of(l, [list(r) for r in l_sub.basis.data])
    if coords is None:
        raise ValueError("not a sublattice")
    factors = [d for d in snf(IntMatrix.from_rows(coords, l.rank)) if d > 1]
    return tuple(factors), l.rank - l_sub.rank


def complement_projection(lattice):
    """Projection, section and coordinates for Z^n / L (L saturated).

    Returns (P, S, C): P is n x m with x -> x*P the quotient map onto Z^m,
    S is m x n with S*P = identity, and C is n x r with B*C = identity for
    L's basis B.  [C | P] is the column reduction V with B*V = [I | 0].
    Raises if L is not saturated.
    """
    n = lattice.ambient_dim
    r = lattice.rank
    m = n - r
    if r == 0:
        ident = IntMatrix.identity(n)
        return ident, ident, IntMatrix.zeros(n, 0)
    B = [list(row) for row in lattice.basis.data]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_add(src, dst, q):
        for row in B:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        W[src] = [x - q * y for x, y in zip(W[src], W[dst])]

    def col_swap(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def col_negate(i):
        for row in B:
            row[i] = -row[i]
        for row in V:
            row[i] = -row[i]
        W[i] = [-x for x in W[i]]

    for i in range(r):
        while True:
            nz = [j for j in range(i, n) if B[i][j]]
            if not nz:
                raise ValueError("basis rows are dependent")
            if len(nz) == 1:
                if nz[0] != i:
                    col_swap(i, nz[0])
                break
            j0 = min(nz, key=lambda j: (abs(B[i][j]), j))
            p = B[i][j0]
            for j in nz:
                if j != j0:
                    q = B[i][j] // p
                    if q:
                        col_add(j0, j, -q)
        if B[i][i] < 0:
            col_negate(i)
        if B[i][i] != 1:
            raise ValueError("lattice is not saturated")
        # clear earlier columns in this row so the left block is identity
        for j in range(i):
            if B[i][j]:
                col_add(i, j, -B[i][j])
    P = IntMatrix.from_rows([row[r:] for row in V], m)
    S = IntMatrix.from_rows(W[r:], n)
    C = IntMatrix.from_rows([row[:r] for row in V], r)
    return P, S, C


def restrict_operator(lattice, action):
    """Matrix of a row-action operator in the lattice basis.

    Raises if the operator does not map the lattice into itself integrally.
    """
    r = lattice.rank
    if r == 0:
        return IntMatrix.zeros(0, 0)
    ba = lattice.basis * action
    coords = coordinates_of(lattice, [list(row) for row in ba.data])
    if coords is None:
        raise ValueError("operator does not stabilize the lattice")
    return IntMatrix.from_rows(coords, r)
