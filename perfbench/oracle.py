"""Facts about X_0(n) and J_0(n) computed apart from maninforge.

Nothing here imports the program.  The genus and cusp counts come from the
classical formulas for Gamma_0(n); the new-subspace dimension at a
squarefree level is the Moebius-type inversion of the genus over the
divisors; the remaining values are published modular degrees of elliptic
curves and the level-431 class data of the source paper.
"""

from fractions import Fraction
from math import gcd


def factorize(n):
    """{p: e} with n = prod p^e, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def is_squarefree(n):
    return all(e == 1 for e in factorize(n).values())


def ord_p(x, p):
    if x == 0:
        raise ValueError("ord_p(0) is infinite")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def index_psl2(n):
    """[PSL_2(Z) : Gamma_0(n)] = n * prod_{p | n} (1 + 1/p)."""
    out = Fraction(n)
    for p in factorize(n):
        out *= Fraction(p + 1, p)
    return int(out)


def elliptic_points(n, order):
    """Number of elliptic points of the given order (2 or 3) on X_0(n)."""
    square = 4 if order == 2 else 9
    if n % square == 0:
        return 0
    disc = -1 if order == 2 else -3
    count = 1
    for p in factorize(n):
        if p == order:
            # p = 2 for order 2, p = 3 for order 3: the symbol (d/p) is 0
            continue
        count *= 1 + _legendre(disc, p)
    return count


def cusp_count(n):
    """Number of cusps of X_0(n): sum over d | n of phi(gcd(d, n/d))."""
    return sum(_euler_phi(gcd(d, n // d)) for d in divisors(n))


def genus(n):
    """Genus of X_0(n) by Riemann-Hurwitz."""
    g = (1 + Fraction(index_psl2(n), 12) - Fraction(elliptic_points(n, 2), 4)
         - Fraction(elliptic_points(n, 3), 3) - Fraction(cusp_count(n), 2))
    if g.denominator != 1:
        raise ArithmeticError(f"non-integral genus at level {n}")
    return int(g)


def new_dimension(n):
    """dim S_2(Gamma_0(n))^new for squarefree n.

    Each newform of level d | n contributes 2^omega(n/d) oldforms at level
    n, so g(n) = sum_{d | n} 2^omega(n/d) g_new(d); inverting that sum gives
    g_new(n) = sum_{d | n} (-2)^omega(n/d) g(d).
    """
    if not is_squarefree(n):
        raise ValueError("the inversion formula here needs a squarefree level")
    return sum((-2) ** len(factorize(n // d)) * genus(d) for d in divisors(n))


# Modular degrees of the optimal elliptic curves of conductor n, one per
# isogeny class, sorted (Cremona's tables; Zagier, "Modular parametrizations
# of elliptic curves", 1985).
ELLIPTIC_DEGREES = {
    11: [1],
    14: [1],
    15: [1],
    17: [1],
    19: [1],
    21: [1],
    26: [2, 2],
    37: [2, 2],
    57: [3, 4, 12],
}

# Level 431: the newform classes have dimensions 1, 1, 3, 3, 4, 24, and the
# 24-dimensional class has deg = 2^11 * 6947 and cong = 2^10 * 6947.
LEVEL_431 = {
    "class_dimensions": [1, 1, 3, 3, 4, 24],
    "headline_dimension": 24,
    "deg": 2**11 * 6947,
    "cong": 2**10 * 6947,
}
