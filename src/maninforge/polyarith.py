"""Exact univariate polynomial arithmetic over Z and F_p.

Integer characteristic polynomials (multimodular), factorization of
squarefree polynomials over F_p (Cantor-Zassenhaus) and over Q (Zassenhaus:
factor mod p, Hensel lift, subset recombination), and exact division and
gcds in Z[x].  Both factorizers refuse a polynomial with a repeated factor:
every caller factors a radical or a minimal polynomial of a split
semisimple element.
"""

import random
from itertools import combinations
from math import comb, gcd, isqrt

import numpy as np

from .exact_linalg import _crt_rows, _ModReducer, _small_primes, _word_primes

__all__ = [
    "IntPoly",
    "FpPoly",
    "charpoly_int",
    "factor_fp",
    "factor_q",
    "squarefree_radical",
]


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class IntPoly:
    """Integer polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(_trim(int(x) for x in coeffs)))

    def __setattr__(self, *args):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return (self.__class__, (self.coeffs,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                        for i in range(n)])

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                        for i in range(n)])

    def __neg__(self):
        return IntPoly([-x for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * x for x in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPoly([i * x for i, x in enumerate(self.coeffs)][1:])

    def content(self):
        g = 0
        for x in self.coeffs:
            g = gcd(g, x)
        return g

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading() < 0:
            g = -g
        return IntPoly([x // g for x in self.coeffs])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_matrix(self, m):
        """Evaluate at a square IntMatrix (Horner)."""
        from .exact_linalg import IntMatrix
        n = m.rows
        acc = IntMatrix.zeros(n, n)
        ident = IntMatrix.identity(n)
        for c in reversed(self.coeffs):
            acc = acc * m + ident.scale(c)
        return acc


def squarefree_radical(f):
    """Primitive radical f / gcd(f, f') of a nonzero integer polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    work = f.primitive()
    if work.degree == 0:
        return IntPoly([1])
    g = int_poly_gcd(work, work.derivative())
    q = _exact_poly_div(work, g)
    if q is None:
        raise ArithmeticError("radical division was not exact")
    return q.primitive()


def int_poly_gcd(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient.

    Modular: gcds mod word-size primes at the minimal stable degree are
    CRT-combined and certified by exact division into both inputs, which
    together with the mod-p degree bound pins the gcd down exactly.
    """
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    a = a.primitive()
    b = b.primitive()
    if a.degree == 0 or b.degree == 0:
        return IntPoly([1])
    la, lb = a.leading(), b.leading()
    gl = gcd(la, lb)
    best_deg = None
    parts = []  # (p, coefficients of gl * (monic gcd) mod p) at best_deg
    modulus = 1
    attempt_at = 1
    for p in _word_primes():
        if la % p == 0 or lb % p == 0:
            continue
        gp = FpPoly.from_int_poly(a, p).gcd(FpPoly.from_int_poly(b, p))
        d = gp.degree
        if d == 0:
            # deg gcd <= deg(gcd mod p) for p not dividing the leadings
            return IntPoly([1])
        if best_deg is None or d < best_deg:
            best_deg = d
            parts, modulus = [], 1
        elif d > best_deg:
            continue
        parts.append((p, np.array([[gl % p * c % p for c in gp.coeffs]])))
        modulus *= p
        attempt_at -= 1
        if attempt_at <= 0:
            cand = IntPoly(_crt_rows(parts, modulus)[0]).primitive()
            if (_exact_poly_div(a, cand) is not None
                    and _exact_poly_div(b, cand) is not None):
                return cand
            attempt_at = max(2, (modulus.bit_length() // 20) or 1)
    raise ArithmeticError("modular polynomial gcd did not converge")


# ---------------------------------------------------------------------------
# F_p polynomials


class FpPoly:
    """Polynomial over F_p, coefficients reduced, ascending degree."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        c = [int(x) % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *args):
        raise AttributeError("FpPoly is immutable")

    def __reduce__(self):
        return (self.__class__, (self.p, self.coeffs))

    @classmethod
    def from_int_poly(cls, f, p):
        return cls(p, f.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, FpPoly) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"FpPoly(p={self.p}, {list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FpPoly(self.p, [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                               for i in range(n)])

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FpPoly(self.p, [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                               for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, [other * x for x in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly(self.p, [])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % self.p
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        qlen = max(len(rem) - len(other.coeffs) + 1, 0)
        q = [0] * qlen
        d = other.degree
        inv = pow(other.coeffs[-1], p - 2, p)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                c = rem[i] * inv % p
                q[i - d] = c
                for j, y in enumerate(other.coeffs):
                    rem[i - d + j] = (rem[i - d + j] - c * y) % p
        return FpPoly(p, q), FpPoly(p, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self * pow(self.coeffs[-1], self.p - 2, self.p)

    def derivative(self):
        return FpPoly(self.p, [i * x for i, x in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, e, modulus):
        result = FpPoly(self.p, [1])
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result


def _distinct_degree(f):
    """Distinct-degree factorization of a squarefree monic polynomial."""
    p = f.p
    out = []
    x = FpPoly(p, [0, 1])
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = h.pow_mod(p, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            rest, _ = rest.divmod(g)
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _equal_degree_split(f, d, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    p = f.p
    n = f.degree
    if n == d:
        return [f]
    while True:
        r = FpPoly(p, [rng.randrange(p) for _ in range(n)])
        if r.degree <= 0:
            continue
        g = f.gcd(r)
        if 0 < g.degree < n:
            break
        if p == 2:
            # trace map over F_{2^d}
            t = FpPoly(2, [])
            acc = r % f
            for _ in range(d):
                t = (t + acc) % f
                acc = (acc * acc) % f
            g = f.gcd(t)
        else:
            e = (p ** d - 1) // 2
            g = f.gcd(r.pow_mod(e, f) - FpPoly(p, [1]))
        if 0 < g.degree < n:
            break
    rest, _ = f.divmod(g)
    return _equal_degree_split(g.monic(), d, rng) + _equal_degree_split(rest.monic(), d, rng)


def factor_fp(f):
    """The monic irreducible factors of a squarefree polynomial over F_p,
    sorted by (degree, coefficients).

    Raises ValueError unless gcd(f, f') = 1; a p-th power, whose
    derivative vanishes, is refused by the same test.  Deterministic: the
    equal-degree splitting PRNG is seeded from the coefficients.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree <= 0:
        return []
    if f.gcd(f.derivative()).degree > 0:
        raise ValueError("factor_fp takes a squarefree polynomial")
    rng = random.Random(hash((f.p,) + f.coeffs) & 0xFFFFFFFF)
    result = [irr.monic() for part, d in _distinct_degree(f.monic())
              for irr in _equal_degree_split(part.monic(), d, rng)]
    result.sort(key=lambda g: (g.degree, g.coeffs))
    return result


# ---------------------------------------------------------------------------
# Factorization over Q (Zassenhaus)


def _mignotte_bound(f):
    """Bound on the coefficients of any integer factor of f."""
    n = f.degree
    norm = sum(c * c for c in f.coeffs)
    norm_root = isqrt(norm - 1) + 1  # ceil(sqrt(norm)), norm >= 1
    half = n // 2
    return comb(half, half // 2) * (norm_root + abs(f.leading()))


def _modm(poly, m):
    return IntPoly([_sym(c, m) for c in poly.coeffs])


def _hensel_lift_pair(f, g, h, p, target):
    """Quadratic Hensel lifting of a coprime monic split f ≡ g*h (mod p).

    All of f, g, h monic.  Returns (g, h, modulus) with modulus >= target
    and f ≡ g*h (mod modulus).
    """
    gp = FpPoly.from_int_poly(g, p)
    hp = FpPoly.from_int_poly(h, p)
    _one, sp, tp = _fp_xgcd(gp, hp)
    s = IntPoly(sp.coeffs)
    t = IntPoly(tp.coeffs)
    m = p
    while m < target:
        m2 = m * m
        e = _modm(f - g * h, m2)
        q, r = _poly_divmod_modm(s * e, h, m2)
        g = _modm(g + t * e + q * g, m2)
        h = _modm(h + r, m2)
        b = _modm(s * g + t * h - IntPoly([1]), m2)
        c, d = _poly_divmod_modm(s * b, h, m2)
        s = _modm(s - d, m2)
        t = _modm(t - t * b - c * g, m2)
        m = m2
    return g, h, m


def _sym(c, m):
    c %= m
    if c > m // 2:
        c -= m
    return c


def _poly_divmod_modm(a, b, m):
    """Division a = q*b + r mod m with b monic."""
    rem = [c % m for c in a.coeffs]
    d = b.degree
    q = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % m
        if c:
            q[i - d] = c
            for j, y in enumerate(b.coeffs):
                rem[i - d + j] = (rem[i - d + j] - c * y) % m
    return IntPoly(q), IntPoly(rem[:d])


def _fp_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g over F_p, g monic."""
    p = a.p
    r0, r1 = a, b
    s0, s1 = FpPoly(p, [1]), FpPoly(p, [])
    t0, t1 = FpPoly(p, []), FpPoly(p, [1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv = pow(r0.coeffs[-1], p - 2, p)
    return r0 * inv, s0 * inv, t0 * inv


def _hensel_lift_all(f, factors, p, target):
    """Lift monic factors of f mod p to mod >= target via a product tree."""
    if len(factors) == 1:
        return [f]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    gp = FpPoly(p, [1])
    for fac in left:
        gp = gp * fac
    hp = FpPoly(p, [1])
    for fac in right:
        hp = hp * fac
    g0 = IntPoly([_sym(c, p) for c in gp.coeffs])
    h0 = IntPoly([_sym(c, p) for c in hp.coeffs])
    g, h, _m = _hensel_lift_pair(f, g0, h0, p, target)
    return _hensel_lift_all(g, left, p, target) + _hensel_lift_all(h, right, p, target)


def _next_power(p, target):
    m = p
    while m < target:
        m *= m
    return m


def _factor_monic_squarefree(f):
    """Factor a monic squarefree integer polynomial of degree at least 2
    into monic irreducibles."""
    for p in _small_primes():
        try:
            modular = factor_fp(FpPoly.from_int_poly(f, p))
        except ValueError:  # f is not squarefree mod p
            continue
        break
    else:
        raise ArithmeticError("no prime below 2^20 keeps f squarefree")
    if len(modular) == 1:
        return [f]
    target = 2 * _mignotte_bound(f) + 1
    lifted = _hensel_lift_all(f, modular, p, target)
    modulus = _next_power(p, target)
    found = []
    remaining = list(range(len(lifted)))
    current = f
    k = 1
    while 2 * k <= len(remaining):
        advanced = False
        for subset in combinations(remaining, k):
            cand = IntPoly([1])
            for i in subset:
                cand = IntPoly([_sym(c, modulus) for c in (cand * lifted[i]).coeffs])
            q = _exact_poly_div(current, cand)
            if q is not None:
                found.append(cand)
                current = q
                remaining = [i for i in remaining if i not in subset]
                advanced = True
                break
        if not advanced:
            k += 1
    if current.degree > 0:
        found.append(current)
    found.sort(key=lambda g: (g.degree, g.coeffs))
    return found


def _exact_poly_div(a, b):
    """a / b in Z[x] if exact (up to making the quotient primitive-safe)."""
    if b.is_zero() or b.degree > a.degree:
        return None
    rem = list(a.coeffs)
    d = b.degree
    lead = b.leading()
    q = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            if rem[i] % lead:
                return None
            c = rem[i] // lead
            q[i - d] = c
            for j, y in enumerate(b.coeffs):
                rem[i - d + j] -= c * y
    if any(rem):
        return None
    return IntPoly(q)


def factor_q(f):
    """The primitive irreducible factors over Q of a squarefree integer
    polynomial, sorted by (degree, coefficients).

    Raises ValueError unless gcd(f, f') = 1 in Q[x].
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = f.primitive()
    if f.degree <= 0:
        return []
    if int_poly_gcd(f, f.derivative()).degree > 0:
        raise ValueError("factor_q takes a squarefree polynomial")
    if f.degree == 1:
        return [f]
    c = f.leading()
    if c == 1:
        return _factor_monic_squarefree(f)
    # pass to the monic associate F(x) = c^(n-1) * f(x/c), then substitute back
    n = f.degree
    monic = IntPoly([coef * c ** (n - 1 - i) for i, coef in enumerate(f.coeffs[:-1])] + [1])
    out = []
    for g in _factor_monic_squarefree(monic):
        out.append(IntPoly([coef * c ** i for i, coef in enumerate(g.coeffs)]).primitive())
    out.sort(key=lambda g: (g.degree, g.coeffs))
    return out


# ---------------------------------------------------------------------------
# Characteristic polynomial (multimodular)


def _charpoly_mod_p(a, p):
    """Hessenberg charpoly mod p (p < 2^20) of a residue matrix, ascending.

    a is an int64 array of residues in [0, p); it is overwritten.
    """
    n = a.shape[0]
    for k in range(1, n - 1):
        nz = np.nonzero(a[k:, k - 1])[0]
        if len(nz) == 0:
            continue
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            a[:, [k, piv]] = a[:, [piv, k]]
        inv = pow(int(a[k, k - 1]), p - 2, p)
        f = a[k + 1:, k - 1] * inv % p
        a[k + 1:] = (a[k + 1:] - np.outer(f, a[k])) % p
        # compensating column operation (inverse similarity transform)
        a[:, k] = (a[:, k] + a[:, k + 1:] @ f) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for m in range(1, n + 1):
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[1:m + 1] = polys[m - 1][:m]
        cur = (cur - int(a[m - 1, m - 1]) * polys[m - 1]) % p
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * int(a[i, i - 1]) % p
            if prod == 0:
                break
            coef = prod * int(a[i - 1, m - 1]) % p
            if coef:
                cur = (cur - coef * polys[i - 1]) % p
        polys[m] = cur
    return polys[n]


def charpoly_int(m):
    """Exact characteristic polynomial of a square integer matrix.

    Multimodular: the vectorized Hessenberg charpoly modulo the word primes
    (exact_linalg._word_primes) until their product passes twice a
    Hadamard-style coefficient bound, then one CRT lift.
    """
    if m.rows != m.cols:
        raise ValueError("matrix is not square")
    n = m.rows
    if n == 0:
        return IntPoly([1])
    amax = max(m.max_abs(), 1)
    # |c_k| <= C(n, k) * (sqrt(k) * amax)^k <= 2^n * (sqrt(n) * amax)^n
    s = isqrt(n - 1) + 1  # ceil(sqrt(n))
    bound = 2 * 2 ** n * (s * amax) ** n + 1
    parts = []
    modulus = 1
    reducer = _ModReducer(m.data)
    for p in _word_primes():
        parts.append((p, _charpoly_mod_p(reducer.mod(p), p)[None]))
        modulus *= p
        if modulus > bound:
            break
    return IntPoly(_crt_rows(parts, modulus)[0])
