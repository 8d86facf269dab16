"""Weight-2 modular symbols for Gamma_0(n).

Builds the Manin-symbol presentation, the torsion-free quotient M, the
boundary map to cusp classes, and the saturated cuspidal lattice S (an
integral model of H_1 of the modular curve).  Provides the Hecke
operators T_l / U_l, the star involution, and the new sublattice, which
at squarefree level is the joint kernel of U_p^2 - 1 over p | n.

Conventions: elements are integer row vectors; operators act on the right,
so composing operators left-to-right multiplies their matrices in order.
All spaces and operators are immutable once built.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd

import numpy as np

from .exact_linalg import (
    IntMatrix,
    IntLattice,
    InvariantViolation,
    complement_projection,
    gcdex,
    kernel_saturated,
    restrict_operator,
)

__all__ = [
    "P1",
    "p1_list",
    "ModSymSpace",
    "OperatorMatrix",
    "build_space",
    "hecke",
    "new_lattice",
    "star_involution",
    "factorize",
    "is_prime",
    "is_squarefree",
]


# entries of the (symbols x matrices) temporaries of one operator_from_images step
_CHUNK_ENTRIES = 1 << 16


def factorize(n):
    """{p: e} with n = prod p^e for n >= 1, primes ascending.

    Trial division below 2^10; each cofactor left is then certified prime
    by is_prime or split by Brent-Pollard rho.  A cofactor at or above
    MR_BOUND, which is_prime cannot certify, raises ArithmeticError.
    """
    out = {}
    d = 2
    while d < 1 << 10 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m >= MR_BOUND:
            raise ArithmeticError(f"cannot certify the factors of {m}, "
                                  f"which is not below {MR_BOUND}")
        if d * d > m or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return dict(sorted(out.items()))


def _rho_factor(n):
    """A proper factor of an odd composite n: Pollard's rho on x^2 + c for
    c = 1, 2, ... in turn, with Brent's cycle search (R. P. Brent, "An
    improved Monte Carlo factorization algorithm", BIT 20, 1980).
    """
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


# Miller-Rabin with the first 13 prime bases (2..41) is deterministic below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017); the first 12 bases only suffice below 318665857834031151167461
MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Whether n is prime, for integers n below MR_BOUND (deterministic)."""
    if n >= MR_BOUND:
        raise ValueError(f"is_prime is deterministic only below {MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(n):
    return all(e == 1 for e in factorize(n).values())


def _lift_unit(n, d, a):
    """Lift a unit a modulo d (a divisor of n) to a unit modulo n."""
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    # n = u*v with gcd(u, v) = 1 and d | u
    _g, x, y = gcdex(u, v)
    return (u * x + a * y * v) % n


class P1:
    """The projective line over Z/nZ with canonical representatives.

    The representative of an orbit under unit scaling minimizes c, then d.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("level must be positive")
        self.n = n
        if n == 1:
            self.points = [(0, 0)]
        else:
            seen = set()
            points = []
            for c in [0, 1]:
                for d in range(n):
                    p = self.normalize(c, d)
                    if p is not None and p not in seen:
                        seen.add(p)
                        points.append(p)
            for c in range(2, n + 1):
                if n % c == 0:
                    for d in range(n):
                        p = self.normalize(c, d)
                        if p is not None and p not in seen:
                            seen.add(p)
                            points.append(p)
            points.sort()
            self.points = points
        # table[c, d] is the index of (c : d), or -1 off P^1: every point
        # of P^1(Z/nZ) is a unit multiple of exactly one representative
        pts = np.array(self.points, dtype=np.int64)
        units = np.array([u for u in range(n) if gcd(u, n) == 1], dtype=np.int64)
        cs = np.multiply.outer(pts[:, 0], units)
        cs %= n
        ds = np.multiply.outer(pts[:, 1], units)
        ds %= n
        self.table = np.full((n, n), -1, dtype=np.int32)
        self.table[cs, ds] = np.arange(len(pts), dtype=np.int32)[:, None]

    def __len__(self):
        return len(self.points)

    def normalize(self, c, d):
        """Canonical representative of (c : d), or None if not a P^1 point."""
        n = self.n
        if n == 1:
            return (0, 0)
        c %= n
        d %= n
        if c == 0:
            return (0, 1) if gcd(d, n) == 1 else None
        g, _x, s = gcdex(n, c)
        if gcd(g, gcd(d, n)) > 1:
            return None
        s = _lift_unit(n, n // g, s % n)
        c, d = g, (s * d) % n
        if g > 1:
            d = min((d * t) % n for t in range(1, n, n // g) if gcd(n, t) == 1)
        return (c, d)

    def index_of(self, c, d):
        """Index of (c : d), or None if gcd(c, d, n) > 1."""
        i = int(self.table[c % self.n, d % self.n])
        return None if i < 0 else i


def p1_list(n):
    """All points of P^1(Z/nZ), sorted canonically."""
    return list(P1(n).points)


def _merel_matrices(m):
    """Merel's set of integer matrices of determinant m for the T_m action."""
    out = []
    for a in range(1, m + 1):
        lo = (m + a - 1) // a
        for d in range(lo, m + 2 - a):
            bc = a * d - m
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return out


def _lift_to_sl2(c, d, n):
    """An SL_2(Z) matrix [[a, b], [c', d']] with (c', d') ≡ (c, d) mod n."""
    c %= n
    d %= n
    if c == 0 and d == 0:
        # only at n = 1
        return 1, 0, 0, 1
    while gcd(c, d) != 1:
        d += n
    g, x, y = gcdex(c, d)
    if g != 1:
        raise InvariantViolation(f"({c} : {d}) has no SL_2 lift mod {n}")
    return y, -x, c, d


def _cusp_normalize(p, q):
    g = gcd(p, q)
    if g:
        p //= g
        q //= g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        p = 1
    return (p, q)


def _cusps_equivalent(n, c1, c2):
    """Gamma_0(n)-equivalence of cusps p1/q1 and p2/q2 (lowest terms)."""
    (p1, q1), (p2, q2) = c1, c2
    _g, s1, _ = gcdex(p1, q1)
    _g, s2, _ = gcdex(p2, q2)
    g = gcd(q1 * q2, n)
    return (s1 * q2 - s2 * q1) % g == 0


@dataclass(frozen=True)
class OperatorMatrix:
    """A named operator acting on the cuspidal lattice coordinates."""

    name: str
    matrix: IntMatrix


class ModSymSpace:
    """Weight-2 modular symbol space for Gamma_0(n).

    The torsion-free quotient M of the Manin presentation lives in Z^rank;
    the cuspidal lattice S sits inside it as the saturated kernel of the
    boundary map.  Operators returned by module functions act on the
    coordinates of the basis of S.
    """

    def __init__(self, n):
        self.n = n
        self.p1 = P1(n)
        npts = len(self.p1)

        # two-term relations x + x*sigma = 0 pair up the Manin generators;
        # sigma-fixed generators are 2-torsion and die in the quotient.
        # gen_sign[i] is sign * (pos + 1) for the symbol of P^1 point i, 0
        # for a torsion symbol; its extra last entry 0 is what a table
        # lookup of -1 (off P^1) reads.
        gen_sign = np.zeros(npts + 1, dtype=np.int32)
        seen = [False] * npts
        reps = []
        for i, (c, d) in enumerate(self.p1.points):
            if seen[i]:
                continue
            j = self.p1.index_of(d, -c)
            seen[i] = seen[j] = True
            if j != i:
                reps.append(i)
                gen_sign[i] = len(reps)
                gen_sign[j] = -len(reps)
        self.reps = reps
        self.gen_sign = gen_sign
        m0 = len(reps)

        # three-term relations x + x*tau + x*tau^2 = 0
        rel_rows = []
        done = [False] * npts
        for i, (c, d) in enumerate(self.p1.points):
            if done[i]:
                continue
            orbit = [i]
            cc, dd = c, d
            for _ in range(2):
                cc, dd = dd % n, (-cc - dd) % n
                orbit.append(self.p1.index_of(cc, dd))
            row = [0] * m0
            for j in orbit:
                done[j] = True
                s = int(gen_sign[j])
                if s:
                    row[abs(s) - 1] += 1 if s > 0 else -1
            if any(row):
                rel_rows.append(row)
        relations = (IntMatrix.from_rows(rel_rows, m0)
                     if rel_rows else IntMatrix.zeros(0, m0))
        self.relations = relations

        # torsion-free quotient M = Z^m0 / (saturation of the relation rows)
        ortho = kernel_saturated(relations)
        sat_rows = kernel_saturated(ortho.basis) if ortho.rank else IntLattice.standard(m0)
        self.proj, self.sec, _coords = complement_projection(sat_rows)
        self.rank = self.proj.cols
        # a map on M is sec * (generator images) * proj, and sec reads only
        # the generators in `need`, so only their images are ever computed
        need = [j for j in range(m0) if any(row[j] for row in self.sec.data)]
        self._sec_need = IntMatrix(self.rank, len(need),
                                   [[row[j] for j in need] for row in self.sec.data])
        self.need_points = np.array([self.p1.points[reps[j]] for j in need],
                                    dtype=np.int64).reshape(-1, 2)

        # boundary map to cusp classes (collect classes from every symbol so
        # the cusp count is right even when a generator dies in the quotient)
        self.cusps = []
        for c, d in self.p1.points:
            a, b, cc, dd = _lift_to_sl2(c, d, n)
            self._cusp_index(_cusp_normalize(a, cc))
            self._cusp_index(_cusp_normalize(b, dd))
        bd_rows = []
        for i in reps:
            c, d = self.p1.points[i]
            a, b, cc, dd = _lift_to_sl2(c, d, n)
            row = [0] * (len(self.cusps) + 2)
            for cusp, coef in (((a, cc), 1), ((b, dd), -1)):
                idx = self._cusp_index(_cusp_normalize(*cusp))
                if idx >= len(row):
                    row.extend([0] * (idx + 1 - len(row)))
                row[idx] += coef
            bd_rows.append(row)
        ncusps = len(self.cusps)
        bd_rows = [row[:ncusps] + [0] * (ncusps - len(row[:ncusps])) for row in bd_rows]
        bd_rows = [row + [0] * (ncusps - len(row)) for row in bd_rows]
        bd_gen = (IntMatrix.from_rows(bd_rows, ncusps)
                  if bd_rows else IntMatrix.zeros(0, ncusps))
        self.boundary = self.sec * bd_gen if self.rank else IntMatrix.zeros(0, ncusps)

        # S = saturated kernel of the boundary inside M
        self.cuspidal = kernel_saturated(self.boundary.transpose())
        self._ops = {}

    def _cusp_index(self, cusp):
        for i, c in enumerate(self.cusps):
            if _cusps_equivalent(self.n, c, cusp):
                return i
        self.cusps.append(cusp)
        return len(self.cusps) - 1

    @property
    def cusp_count(self):
        return len(self.cusps)

    @property
    def cuspidal_rank(self):
        return self.cuspidal.rank

    def symbol_rows(self, c, d, coef):
        """Rows sum_j coef[j] * (c[i, j] : d[i, j]) on the reduced generators.

        c and d are k x L integer arrays, coef broadcasts against them; the
        result is a k x m0 int64 array.  Symbols off P^1 or 2-torsion add 0.
        """
        s = self.gen_sign[self.p1.table[c % self.n, d % self.n]]
        out = np.zeros((s.shape[0], len(self.reps) + 1), dtype=np.int64)
        np.add.at(out, (np.arange(s.shape[0])[:, None], np.abs(s)),
                  np.sign(s) * coef)
        return out[:, 1:]

    def operator_from_images(self, mats):
        """Matrix on M of the operator sum coef * [[a, b], [c, d]].

        mats lists rows (a, b, c, d, coef); the Manin symbol (u : v) maps
        to the sum of coef * (a*u + c*v : b*u + d*v).
        """
        a, b, c, d, coef = np.array(mats, dtype=np.int64).reshape(-1, 5).T
        pts = self.need_points
        rows = np.zeros((len(pts), len(self.reps)), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // len(coef))
        for lo in range(0, len(pts), step):
            u, v = pts[lo:lo + step, :1], pts[lo:lo + step, 1:]
            rows[lo:lo + step] = self.symbol_rows(a * u + c * v, b * u + d * v, coef)
        images = IntMatrix.from_rows(rows.tolist(), len(self.reps))
        return self._sec_need * images * self.proj

    def on_cuspidal(self, m_matrix):
        """Restrict an operator on M to coordinates of the S basis."""
        return restrict_operator(self.cuspidal, m_matrix)


@lru_cache(maxsize=None)
def build_space(n):
    """Build (and memoize) the modular symbol space of level n."""
    if n < 1:
        raise ValueError("level must be positive")
    return ModSymSpace(n)


def hecke(space, ell):
    """Hecke operator T_ell (ell prime to n) or U_ell (ell dividing n) on S.

    Both are computed through Merel's determinant-ell matrix set acting on
    Manin symbols; images falling off P^1 (bad gcd) are skipped, which at
    ell | n is exactly the U_ell coset sum.
    """
    name = f"U_{ell}" if space.n % ell == 0 else f"T_{ell}"
    cached = space._ops.get(name)
    if cached is not None:
        return cached
    m_matrix = space.operator_from_images(
        [(a, b, c, d, 1) for a, b, c, d in _merel_matrices(ell)])
    op = OperatorMatrix(name, space.on_cuspidal(m_matrix))
    space._ops[name] = op
    return op


def star_involution(space):
    """The complex-conjugation involution on S."""
    cached = space._ops.get("star")
    if cached is not None:
        return cached
    m_matrix = space.operator_from_images([(-1, 0, 0, 1, -1)])
    op = OperatorMatrix("star", space.on_cuspidal(m_matrix))
    space._ops["star"] = op
    return op


def new_lattice(space):
    """The new sublattice of S: the joint kernel of U_p^2 - 1 over p | n.

    At squarefree n, S (x) Q is the sum of the images of the newforms f of
    the levels d | n.  For p | d, U_p commutes with the maps f(z) -> f(mz)
    for m | n/d (prime to p) and acts as a_p(f) = -w_p = ±1 (Atkin and
    Lehner, "Hecke operators on Gamma_0(m)", Math. Ann. 185, 1970), so
    U_p^2 = 1 there.  For p not dividing d, U_p satisfies X^2 - a_p X + p
    on each p-old pair, and both roots have absolute value sqrt(p) (the
    Ramanujan-Petersson bound, proved in weight 2 by Eichler-Shimura and
    Weil), so U_p^2 - 1 is injective there.  So the p-new subspace is
    ker(U_p^2 - 1), and the new lattice is the saturated joint kernel; at
    a prime level U_n^2 = 1 and it is all of S.
    """
    n = space.n
    if not is_squarefree(n):
        raise ValueError("new subspace requires squarefree level")
    r = space.cuspidal.rank
    ident = IntMatrix.identity(r)
    rows = []
    for p in factorize(n):
        u = hecke(space, p).matrix
        # v * (U^2 - 1) = 0 for row vectors v: the rows of the transposes
        rows.extend((u * u - ident).transpose().data)
    return kernel_saturated(IntMatrix.from_rows(rows, r))
