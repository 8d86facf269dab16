"""Exact linear algebra over Z and Q: normal forms, kernels, lattice calculus.

Everything here is arbitrary precision.  Matrices are immutable; all
functions are pure, so concurrent use is safe.  Lattices are kept in a
canonical row Hermite normal form, which makes equality bit-identical.
"""

import logging
from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np

_logger = logging.getLogger(__name__)

__all__ = [
    "InvariantViolation",
    "IntMatrix",
    "RatMatrix",
    "IntLattice",
    "hnf",
    "snf",
    "kernel_saturated",
    "lattice_sum",
    "lattice_intersect",
    "sublattice_index",
    "quotient_invariants",
    "idempotent_kernel_sublattice",
    "saturate",
    "det",
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
        if isinstance(other, RatMatrix):
            return RatMatrix.from_int_matrix(self) * other
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

    def mul_vec(self, v):
        """Row vector v times this matrix."""
        if len(v) != self.rows:
            raise ValueError("length mismatch")
        out = [0] * self.cols
        for x, row in zip(v, self.data):
            if x:
                for j, y in enumerate(row):
                    if y:
                        out[j] += x * y
        return out

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


class RatMatrix:
    """Dense matrix of exact rationals, entries in lowest terms."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(tuple(Fraction(x) for x in row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("RatMatrix is immutable")

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
    def from_int_matrix(cls, m):
        return cls(m.rows, m.cols, m.data)

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
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix(
            self.rows, self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix(
            self.rows, self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return RatMatrix(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            other = RatMatrix.from_int_matrix(other)
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bt = list(zip(*other.data))
        out = [
            [sum(x * y for x, y in zip(row, col)) for col in bt]
            for row in self.data
        ]
        return RatMatrix(self.rows, other.cols, out)

    def is_idempotent(self):
        return self.rows == self.cols and self * self == self

    def clear_denominators(self):
        """Return (M, d) with M integral and self == M / d, d > 0 minimal."""
        d = 1
        for row in self.data:
            for x in row:
                d = d * x.denominator // gcd(d, x.denominator)
        m = IntMatrix(self.rows, self.cols,
                      [[int(x * d) for x in row] for row in self.data])
        return m, d


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


def _snf_diagonal(A, track_cols=None):
    """Diagonalize A in place; returns list of diagonal entries (positive).

    track_cols, when given, is a pair (V, W) of square matrices (lists) over
    the column space with W = V^-1; column operations are mirrored there.
    """
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    V, W = track_cols if track_cols is not None else (None, None)

    def col_op_add(src, dst, q):
        # column dst += q * column src
        for row in A:
            row[dst] += q * row[src]
        if V is not None:
            for row in V:
                row[dst] += q * row[src]
            W[src] = [x - q * y for x, y in zip(W[src], W[dst])]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]
            W[i], W[j] = W[j], W[i]

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
    return diag


def snf(m):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""
    A = [list(r) for r in m.data]
    diag = _snf_diagonal(A)
    return tuple(diag)


def snf_with_col_transform(m):
    """SNF restricted data for quotient bookkeeping.

    Returns (diag, V, Vinv) where U*M*V has the diagonal `diag` for some
    unimodular U, and Vinv = V^-1.
    """
    A = [list(r) for r in m.data]
    n = m.cols
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = _snf_diagonal(A, track_cols=(V, W))
    return tuple(diag), IntMatrix(n, n, V), IntMatrix(n, n, W)


# ---------------------------------------------------------------------------
# Determinant and rank


def _det_bareiss(data):
    n = len(data)
    if n == 0:
        return 1
    A = [list(r) for r in data]
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


def _primes_from(start):
    p = start
    while True:
        p += 1
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            yield p


def _hadamard_bound(data):
    bound = 1
    for row in data:
        s = sum(x * x for x in row)
        bound *= max(s, 1)
    # ceil sqrt of the product
    r = int(bound ** 0.5) if bound < 2**52 else None
    if r is None:
        lo, hi = 0, 1 << ((bound.bit_length() + 1) // 2 + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid * mid >= bound:
                hi = mid
            else:
                lo = mid + 1
        r = lo
    else:
        while r * r < bound:
            r += 1
    return r


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
    raise RuntimeError("prime supply exhausted")


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


class _ModReducer:
    """Reduce a fixed integer array modulo many small primes, quickly.

    When every entry fits in a machine word the array is stored as int64
    and reduced with ``np.mod``.  Otherwise each |entry| is decomposed
    once into base-2**32 limbs (via ``int.to_bytes``); reduction modulo p
    is then a single vectorized dot with the powers of 2**32 mod p, which
    avoids re-walking millions of Python bigints for every prime.
    Requires p < 2**31 / nlimbs so the int64 accumulation cannot overflow.
    """

    def __init__(self, flat, shape):
        self.shape = shape
        amax = max(max(flat), -min(flat)) if flat else 0
        if amax < 2**62:
            self._arr = np.array(flat, dtype=np.int64).reshape(shape)
            self._limbs = None
        else:
            self._arr = None
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
        """Entries reduced into [0, p) as an int64 array of self.shape."""
        if self._arr is not None:
            return np.mod(self._arr, p)
        nlimbs = self._limbs.shape[1]
        if p * nlimbs >= 1 << 31:
            raise ValueError("prime too large for limb reduction")
        pows = np.empty(nlimbs, dtype=np.int64)
        acc = 1
        for i in range(nlimbs):
            pows[i] = acc
            acc = (acc << 32) % p
        r = (self._limbs @ pows) % p
        return (r * self._signs % p).reshape(self.shape)


def _det_mod_p_numpy(a, p):
    """Determinant mod p of an int64 array already reduced mod p (p < 2^20)."""
    a = np.array(a, dtype=np.int64)
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if len(nz) == 0:
            return 0
        i = k + int(nz[0])
        if i != k:
            a[[k, i]] = a[[i, k]]
            det = -det
        akk = int(a[k, k])
        det = det * akk % p
        inv = pow(akk, p - 2, p)
        rows = a[k + 1:]
        f = rows[:, k] * inv % p
        rows -= np.outer(f, a[k])
        rows %= p
    return det % p


def _det_multimodular(data):
    n = len(data)
    bound = 2 * _hadamard_bound(data) + 1
    residue, modulus = 0, 1
    small = all(abs(x) < 2**62 for row in data for x in row)
    arr = np.array(data, dtype=np.int64) if small else None
    for p in _word_primes():
        if arr is not None:
            A = np.mod(arr, p)
        else:
            A = np.array([[x % p for x in row] for row in data], dtype=np.int64)
        d = _det_mod_p_numpy(A, p)
        # CRT combine
        g, inv, _ = gcdex(modulus % p, p)
        residue = residue + modulus * ((d - residue) * inv % p)
        modulus *= p
        if modulus > bound:
            break
    residue %= modulus
    if residue > modulus // 2:
        residue -= modulus
    return residue


def det(m):
    """Exact determinant; multimodular CRT above dimension 64."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    if m.rows <= 64:
        return _det_bareiss(m.data)
    return _det_multimodular(m.data)


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


def _solve_hnf(hnf_rows_, pivots, target):
    """Solve x * H = target for x (Fractions); None if unsolvable."""
    t = [Fraction(v) for v in target]
    x = [Fraction(0)] * len(hnf_rows_)
    for i, (row, p) in enumerate(zip(hnf_rows_, pivots)):
        if t[p]:
            c = t[p] / row[p]
            x[i] = c
            for j in range(p, len(t)):
                if row[j]:
                    t[j] -= c * row[j]
    if any(t):
        return None
    return x


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
    """Integer coordinates of vectors in the lattice basis; None if outside."""
    rows = [list(r) for r in lattice.basis.data]
    piv = _pivots(rows)
    out = []
    for v in vectors:
        if len(v) != lattice.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if all(isinstance(c, int) for c in v):
            x = _solve_hnf_int(rows, piv, v)
            if x is None:
                return None
            out.append(x)
            continue
        x = _solve_hnf(rows, piv, v)
        if x is None or any(c.denominator != 1 for c in x):
            return None
        out.append([int(c) for c in x])
    return out


def rational_coordinates_of(lattice, vectors):
    """Rational coordinates in the lattice basis; None if outside the span."""
    rows = [list(r) for r in lattice.basis.data]
    piv = _pivots(rows)
    out = []
    for v in vectors:
        x = _solve_hnf(rows, piv, v)
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
    """Reduced row echelon form of an int64 array modulo p (p < 2^20).

    Returns (reduced, pivot_cols).  With pivot_order given, pivots are
    searched only along those columns in order; the caller must check that
    all of them were found.
    """
    a = np.mod(np.array(a, dtype=np.int64), p)
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


_RECON_BIT_CAP = 2_000_000


def _modular_kernel(n, matrix_mod, accept):
    """Kernel of an n-column integer matrix seen only modulo primes.

    matrix_mod(primes) yields the matrix modulo each of the primes, as
    arrays of residues.  The pivot set is fixed at the first prime, and a
    later prime that misses it is skipped; the residues of the reduced
    kernel basis are combined by CRT, and each time the prime batch is
    complete the rows are rationally reconstructed (one row per free column
    f, with w_f[f] > 0 and zeros at the other free columns) and handed to
    accept(w_rows, free).  accept certifies them exactly and returns the
    result, or None to ask for more primes; batches double up to a bit cap,
    after which the pivot set is drawn afresh.  The mod-p rank never
    exceeds the rational rank, so a certified row per free column spans
    the whole rational kernel, and a pivot set that undercounts the rank
    never certifies.
    """
    prime_iter = _word_primes()
    for _restart in range(5):
        pivots = None
        residues = None
        modulus = 1
        batch = 2
        while modulus.bit_length() <= _RECON_BIT_CAP:
            got = 0
            while got < batch:
                ps = [next(prime_iter) for _ in range(batch - got)]
                for p, a in zip(ps, matrix_mod(ps)):
                    if pivots is None:
                        red, pivots = _rref_mod_p(a, p)
                        pivot_set = set(pivots)
                        free = [j for j in range(n) if j not in pivot_set]
                    else:
                        red, piv = _rref_mod_p(a, p, pivot_order=pivots)
                        if piv != pivots:
                            continue  # unlucky prime for this pivot set
                    sol = (red[:len(pivots)][:, free].tolist()
                           if free else [])
                    if residues is None:
                        residues = sol
                        modulus = p
                    else:
                        _g, inv, _ = gcdex(modulus % p, p)
                        for ri, si in zip(residues, sol):
                            for j in range(len(ri)):
                                ri[j] += modulus * (
                                    (si[j] - ri[j]) * inv % p)
                        modulus *= p
                    got += 1
            w_rows = _reconstruct_kernel_rows(residues, modulus, pivots,
                                              free, n)
            if w_rows is not None:
                result = accept(w_rows, free)
                if result is not None:
                    return result
            _logger.debug("modular kernel: no certified candidate at %d "
                          "bits, extending", modulus.bit_length())
            batch = min(2 * batch, 64)
    raise ArithmeticError("modular kernel reconstruction did not converge")


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
            den_l = den_l * rec[1] // gcd(den_l, rec[1])
        w = [0] * n
        w[f] = den_l
        for i, (num, dv) in enumerate(entries):
            w[pivots[i]] = -num * (den_l // dv)
        g_all = 0
        for x in w:
            g_all = gcd(g_all, x)
        if g_all > 1:
            w = [x // g_all for x in w]
        w_rows.append(w)
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
    primes (see _modular_kernel); every reconstructed vector is checked to
    be in the kernel exactly before the span is saturated, so the result
    is exact and no intermediate blows up with the dimension.
    """
    n = m.cols
    if n == 0:
        return IntLattice.zero(0)
    if m.rows == 0 or m.is_zero():
        return IntLattice.standard(n)
    rows = m.data

    def matrix_mod(ps):
        # one big reduction mod the batch product, then cheap per-prime
        # mods of the small residues
        prod_p = 1
        for p in ps:
            prod_p *= p
        red_rows = [[x % prod_p for x in row] for row in rows]
        return ([[x % p for x in row] for row in red_rows] for p in ps)

    def accept(w_rows, free):
        if all(_in_kernel_exact(rows, w) for w in w_rows):
            return _saturate_kernel_rows(w_rows, free, n)
        return None

    return _modular_kernel(n, matrix_mod, accept)


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
    delta = 1
    for x in d_f:
        delta = delta * x // gcd(delta, x)
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


def saturate(lattice):
    """Smallest saturated lattice containing the given one."""
    if lattice.rank == 0:
        return lattice
    k = kernel_saturated(lattice.basis)
    if k.rank == 0:
        return IntLattice.standard(lattice.ambient_dim)
    return kernel_saturated(k.basis)


def _is_standard_lattice(l):
    if l.rank != l.ambient_dim:
        return False
    return all(
        x == (1 if i == j else 0)
        for i, row in enumerate(l.basis.data)
        for j, x in enumerate(row)
    )


def lattice_sum(l1, l2):
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if _is_standard_lattice(l1) or _is_standard_lattice(l2):
        return IntLattice.standard(l1.ambient_dim)
    return IntLattice(l1.ambient_dim, list(l1.basis.data) + list(l2.basis.data))


def lattice_intersect(l1, l2):
    if l1.ambient_dim != l2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if l1.rank == 0 or l2.rank == 0:
        return IntLattice.zero(l1.ambient_dim)
    if _is_standard_lattice(l1):
        return l2
    if _is_standard_lattice(l2):
        return l1
    stacked = IntMatrix.from_rows(
        list(l1.basis.data) + [[-x for x in row] for row in l2.basis.data],
        l1.ambient_dim,
    )
    # solutions (x, y) with x*B1 = y*B2 form the row kernel of the stack
    k = kernel_saturated(stacked.transpose())
    rows = []
    for w in k.basis.data:
        x = w[:l1.rank]
        rows.append([sum(c * b for c, b in zip(x, col)) for col in zip(*l1.basis.data)])
    return IntLattice(l1.ambient_dim, rows)


def _coordinate_matrix(l_sub, l):
    if l_sub.ambient_dim != l.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coords = coordinates_of(l, [list(r) for r in l_sub.basis.data])
    if coords is None:
        raise ValueError("not a sublattice")
    return IntMatrix.from_rows(coords, l.rank) if coords else IntMatrix.zeros(0, l.rank)


def sublattice_index(l_sub, l):
    """Index [L : L_sub]; raises if not a finite-index sublattice."""
    x = _coordinate_matrix(l_sub, l)
    if l_sub.rank != l.rank:
        raise ValueError("infinite index: rank drop")
    d = abs(det(x))
    if d == 0:
        raise ValueError("infinite index: rank drop")
    return d


def quotient_invariants(l, l_sub):
    """Elementary divisors (> 1) of L / L_sub, and the free rank.

    Returns (factors, free_rank).
    """
    x = _coordinate_matrix(l_sub, l)
    factors = [d for d in snf(x) if d > 1]
    return tuple(factors), l.rank - l_sub.rank


def idempotent_kernel_sublattice(lattice, e):
    """L[e] = L ∩ Ker(e) for an exact rational idempotent e on the ambient."""
    if not isinstance(e, RatMatrix):
        e = RatMatrix.from_int_matrix(e)
    if e.rows != e.cols or e.rows != lattice.ambient_dim:
        raise ValueError("idempotent must act on the ambient space")
    if not e.is_idempotent():
        raise ValueError("matrix is not idempotent")
    if lattice.rank == 0:
        return lattice
    be = RatMatrix.from_int_matrix(lattice.basis) * e
    m, _d = be.clear_denominators()
    # kernel in basis coordinates: {t : t * (B e) = 0}
    k = kernel_saturated(m.transpose())
    rows = [
        [sum(c * b for c, b in zip(t, col)) for col in zip(*lattice.basis.data)]
        for t in k.basis.data
    ]
    return IntLattice(lattice.ambient_dim, rows)


def complement_projection(lattice):
    """Projection and section for the free quotient Z^n / L (L saturated).

    Returns (P, S): P is n x m with x -> x*P the quotient map onto Z^m,
    S is m x n with S*P = identity.  Raises if L is not saturated.
    """
    n = lattice.ambient_dim
    r = lattice.rank
    m = n - r
    if r == 0:
        ident = IntMatrix.identity(n)
        return ident, ident
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
    return P, S


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
