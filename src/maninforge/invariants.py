"""Headline arithmetic invariants: congruence modules, cong_f and deg_f.

cong_f is the order of T/(T[e_f] + T[e_perp]); deg_f is the square root of
the order of S/(S[e_f] + S[e_perp]) (asserted to be a perfect square — a
hard internal tripwire).  Each module is Z^m / K, of order |det K|: for T,
K stacks the bases of T[e_f] and T[e_perp] (_t_module); for S, K is
A W^T in Z^(2 dim f) (_s_module), so S[e_f] is never formed.  Local
(m-primary) orders are indices modulo p^k: the image of a lifted
idempotent of T/p^k in the congruence module mod p^k, one modular HNF
each.  The certification / anomaly pipelines check the divisibility and
equality relations these invariants must satisfy.
"""

from dataclasses import dataclass
from functools import cache, lru_cache
from math import isqrt, prod

import numpy as np

from .exact_linalg import (
    IntMatrix,
    InvariantViolation,
    complement_projection,
    det,
    hnf_with_modulus,
    _mod_p_product,
    _ModReducer,
    restrict_operator,
)
from .hecke_algebra import (
    _is_unit_at,
    _residues,
    build_hecke_algebra,
    decompose_new,
    poly_kernel_saturated,
    is_dvr,
    is_gorenstein,
    lift_idempotent,
    maximal_ideals,
    order_of,
    u_p_unit_check,
)
from .modsym import build_space, factorize

__all__ = [
    "CongModuleReport",
    "DegCongReport",
    "ManinCertificate",
    "cong_number",
    "modular_degree",
    "deg_cong_report",
    "manin_certify",
    "anomaly_scan",
    "divisibility_check",
    "level_data",
    "report_to_json",
]


def _ord_p(n, p):
    e = 0
    while n % p == 0 and n:
        e += 1
        n //= p
    return e


# ---------------------------------------------------------------------------
# level pipeline cache


class LevelData:
    """Shared per-level state: space, algebra, classes, and lazy caches."""

    def __init__(self, n):
        self.n = n
        self.space = build_space(n)
        self.algebra = build_hecke_algebra(self.space)
        self.classes = decompose_new(self.space, self.algebra)
        self._orders = {}
        self._modules = {}
        self._cong_reports = {}
        self._m_primary = {}
        self._max_ideals = {}
        self._order_ideals = {}
        self._gorenstein = {}
        self._matched_ideals = {}
        self._reports = {}

    def order(self, cls):
        if cls.label not in self._orders:
            self._orders[cls.label] = order_of(self.algebra, cls)
        return self._orders[cls.label]

    def module(self, cls, carrier):
        """The "S" or "T" congruence module of a class, once: (K, act) for
        Z^m / K, K the m rows of a nonsingular matrix, and act(e, q) the
        matrix mod q of x -> x * e for e in T / q."""
        key = (carrier, cls.label)
        if key not in self._modules:
            build = _s_module if carrier == "S" else _t_module
            self._modules[key] = build(self.algebra, cls)
        return self._modules[key]

    def cong_report(self, cls, carrier):
        """The checked "S" or "T" congruence report of a class, computed once."""
        key = (carrier, cls.label)
        if key not in self._cong_reports:
            self._cong_reports[key] = _cong_report(
                carrier, cls.label, self.module(cls, carrier)[0])
        return self._cong_reports[key]

    def deg_cong(self, cls):
        """(deg_f, cong_f, the primes dividing either, ascending), read off
        the two congruence reports."""
        s_rep, t_rep = self.cong_report(cls, "S"), self.cong_report(cls, "T")
        primes = sorted(s_rep.p_parts.keys() | t_rep.p_parts.keys())
        return isqrt(s_rep.total_order), t_rep.total_order, primes

    def m_primary_orders(self, cls, p, carrier):
        """The m-primary orders of a class's "S" or "T" module over p, once."""
        key = (cls.label, p, carrier)
        if key not in self._m_primary:
            self._m_primary[key] = _m_primary_orders(self, cls, p, carrier)
        return self._m_primary[key]

    def max_ideals(self, p):
        if p not in self._max_ideals:
            self._max_ideals[p] = maximal_ideals(self.algebra, p)
        return self._max_ideals[p]

    def order_ideals(self, cls, p):
        """The maximal ideals of O_f over p, computed once."""
        key = (cls.label, p)
        if key not in self._order_ideals:
            self._order_ideals[key] = maximal_ideals(self.order(cls), p)
        return self._order_ideals[key]

    def gorenstein(self, p, mi):
        """The Gorenstein verdict at the mi-th T-ideal over p, once: it
        depends on the ideal, not on the class."""
        if (p, mi) not in self._gorenstein:
            self._gorenstein[p, mi] = is_gorenstein(
                self.algebra, self.max_ideals(p)[mi])
        return self._gorenstein[p, mi]

    def matched_order_ideal(self, cls, p, mi):
        """The ideal of O_f matching the mi-th T-ideal over p (or None),
        once."""
        key = (cls.label, p, mi)
        if key not in self._matched_ideals:
            self._matched_ideals[key] = _match_order_ideal(
                self, cls, self.max_ideals(p)[mi])
        return self._matched_ideals[key]


@lru_cache(maxsize=8)
def level_data(n):
    return LevelData(n)


def _annihilator_of(algebra, sublattice):
    """{t in T : t acts as zero on the sublattice}, in T-coordinates.

    x annihilates the sublattice iff sum_m x_m (L b_m) == 0, with L the
    lattice basis, so with R the stacked action (row m is L b_m flattened)
    the annihilator is the saturated kernel of the tall R^T: one
    _modular_kernel call, which sees R only modulo word primes.  A
    candidate is proved to kill all of R exactly, an entry of v R being at
    most d max|v| n max|L| max|b| in size (_vanishes).  This is sound
    because the mod-p rank never exceeds the rank over Q: an unlucky prime
    can only leave a candidate too large, which that check against all of R
    rejects.
    """
    from .exact_linalg import _matmul_mod, _modular_kernel, _vanishes

    d = algebra.rank
    lb = sublattice.basis
    k, n = lb.rows, lb.cols
    bmax, b_residues = algebra._fast_rows
    ebound = n * lb.max_abs() * bmax  # bound on any entry of R
    l_mod = _ModReducer(lb.data).mod

    def rows_mod(p):
        bp = b_residues(p).reshape(d, n, n)
        return _matmul_mod(l_mod(p), bp, p).reshape(d, k * n)

    def kills_r(lat):
        v_mod = _ModReducer(lat.basis.data, (lat.rank, d)).mod
        return _vanishes(lambda p: _matmul_mod(v_mod(p), rows_mod(p), p),
                         d * lat.basis.max_abs() * ebound)

    return _modular_kernel(d, lambda ps: (rows_mod(p).T for p in ps),
                           kills_r)


# ---------------------------------------------------------------------------
# congruence modules


def _t_module(algebra, cls):
    """T / (T[e_f] + T[e_perp]) in T-coordinates, as LevelData.module.

    T[e_f] = Ann_T(S_f), and T[e_perp] = Ann_T(S[e_f]) = {x : x g(t) = 0},
    as T (x) Q is a product of fields and g(t) vanishes exactly on the
    factor of f: the kernel of g(M_t), M_t the matrix of y -> y t (row i
    the coordinates of b_i t, in T as t is).  Kernels of complementary
    idempotents meet in 0, so ranks not adding up to rank T raise.
    """
    d = algebra.rank
    t_cols = list(zip(*cls.separator.data))
    m_t = IntMatrix.from_rows([algebra._product_coords(b.data, t_cols)
                               for b in algebra.basis_mats], d)
    t_ef = _annihilator_of(algebra, cls.lattice)
    t_eperp = poly_kernel_saturated(m_t, cls.g_poly)
    if t_ef.rank + t_eperp.rank != d:
        raise InvariantViolation(f"T module {cls.label}: ranks {t_ef.rank} + "
                                 f"{t_eperp.rank} are not complementary")
    return t_ef.basis.data + t_eperp.basis.data, algebra.mult_matrix


def _s_module(algebra, cls):
    """S / (S[e_f] + S_f) as Z^2k / (A W^T), k = dim f, as LevelData.module.

    A is the basis of S_f, the row kernel of g(t), and W (rank 2k) the
    saturated column kernel.  t is semisimple, and left and right
    eigenvectors u, w of distinct eigenvalues are orthogonal (u t w =
    lambda u w = mu u w).  S[e_f] is spanned by left eigenvectors of the
    non-roots of g, W by right ones of the roots, so S[e_f] = W^perp, and
    v -> v W^T maps Z^r onto Z^2k with kernel S[e_f]: |det(A W^T)| = deg_f^2.
    x in T, with matrix E on S, preserves S[e_f] and acts on Z^2k by
    E_W = C^T E W^T, W C = I (complement_projection): y lifts to y C^T.
    """
    r2 = cls.lattice.rank
    w = poly_kernel_saturated(cls.separator.transpose(), cls.g_poly)
    if w.rank != r2:
        raise InvariantViolation(f"S module {cls.label}: the column kernel of "
                                 f"g(t) has rank {w.rank}, not {r2}")
    w_t = w.basis.transpose()

    @cache
    def basis_acts():  # C^T b W^T for the basis of T, exactly
        c_t = complement_projection(w)[2].transpose()
        return _ModReducer([(c_t * b * w_t).data for b in algebra.basis_mats],
                           (algebra.rank, r2 * r2))

    def act(x, q):
        dtype, matmul = _mod_p_product(q)
        return matmul(_residues(x, q, dtype),
                      basis_acts().mod(q).astype(dtype)).reshape(r2, r2)

    return (cls.lattice.basis * w_t).data, act


@dataclass
class CongModuleReport:
    carrier: str  # "T" | "S"
    label: tuple
    total_order: int
    p_parts: dict  # p -> p-part of the total order

    def check(self):
        total = prod(self.p_parts.values())
        if total != self.total_order:
            raise InvariantViolation(
                f"{self.carrier} module {self.label}: p-parts multiply to "
                f"{total}, not the order {self.total_order}")


def _cong_report(carrier, label, rows):
    """The checked report on Z^m / K, K given by its m rows: the order is
    |det K|, and a zero determinant leaves an infinite module.  An "S"
    module's order must be a perfect square, deg_f^2."""
    total = abs(det(IntMatrix.from_rows(rows, len(rows))))
    if total == 0:
        raise ValueError("congruence module is not finite")
    rep = CongModuleReport(carrier, label, total,
                           {p: p**e for p, e in factorize(total).items()})
    rep.check()
    if carrier == "S" and isqrt(total) ** 2 != total:
        raise AssertionError(
            "S-congruence module order is not a perfect square: "
            f"level {label[0]} class {label} order {total} "
            f"p-parts {rep.p_parts}")
    return rep


def cong_number(algebra, cls):
    """cong_f = #(T / (T[e_f] + T[e_perp]))."""
    return level_data(algebra.level).cong_report(cls, "T").total_order


def modular_degree(space, cls):
    """deg_f, the square root of the order of the S-congruence module."""
    return isqrt(level_data(space.n).cong_report(cls, "S").total_order)


# ---------------------------------------------------------------------------
# m-primary orders via lifted idempotents


def _m_primary_orders(data, cls, p, carrier):
    """Orders of the m-primary pieces of a congruence module, per MaxIdeal.

    Returns {MaxIdeal index: order} aligned with data.max_ideals(p), for
    the "T" (cong) or "S" (deg^2) module M = Z^m / K, (K, act) =
    data.module(cls, carrier).  Its p-part M_p has order p^a (from
    cong_report), so with q = p^(a+1) M_p is M / qM (the part prime to p
    is divisible by q), and the lift e of the idempotent of m to T / q acts
    on it as E = act(e, q).  The m-primary piece e M_p is then
    Z^m / (K + (1 - E) Z^m + q Z^m), whose order is the product of the
    diagonal of a modular HNF.  H, the HNF of K + q Z^m, is found once.  A column c where H has pivot 1 carries nothing: x and
    x - x_c H[c] agree in the quotient, and H, being reduced, is zero on
    the other such columns.  So proj, which clears those columns, maps Z^m
    onto the live columns, where H's live block presents M / qM, and each
    ideal costs one HNF of (I - E) proj there.
    """
    ideals = data.max_ideals(p)
    p_part = data.cong_report(cls, carrier).p_parts.get(p, 1)
    if p_part == 1:
        return {i: 1 for i in range(len(ideals))}
    q = p * p_part
    k_rows, act = data.module(cls, carrier)
    r = len(k_rows)
    h = hnf_with_modulus(k_rows, r, q)
    live = [c for c in range(r) if h[c][c] != 1]
    h_live = [[h[c][j] for j in live] for c in live]
    dtype, matmul = _mod_p_product(q)
    proj = np.array([[(-h[c][j]) % q for j in live] if h[c][c] == 1 else
                     [int(c == j) for j in live] for c in range(r)],
                    dtype=dtype)
    out = {}
    for mi, m in enumerate(ideals):
        e_mat = act(lift_idempotent(data.algebra, m, q), q)
        rows = matmul((np.eye(r, dtype=dtype) - e_mat) % q, proj).tolist()
        quot = hnf_with_modulus(rows + h_live, len(live), q)
        out[mi] = prod(quot[i][i] for i in range(len(live)))
    if prod(out.values()) != p_part:
        raise InvariantViolation(
            f"m-primary orders do not multiply to the p-part at p={p}: "
            f"{prod(out.values())} vs {p_part}"
        )
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class DegCongReport:
    label: tuple
    dimension: int
    deg: int
    cong: int
    primes: list  # [{p, ord_deg, ord_cong, inferred_coker}]
    ideals: list  # [{p, residue_degree, gorenstein, dvr, u_p_sign, ...}]


@dataclass
class ManinCertificate:
    label: tuple
    checked_primes: list
    verdicts: dict  # p -> bool
    overall: bool


def _match_order_ideal(data, cls, m_t):
    """The maximal ideal of O_f corresponding to a T-ideal, or None."""
    mat = data.algebra.matrix_of([int(c) for c in m_t.idempotent])
    coords = data.order(cls).coords_of(restrict_operator(cls.lattice, mat))
    if coords is None:
        raise ValueError("T-idempotent image missing from the order")
    for m_o in data.order_ideals(cls, m_t.p):
        if _is_unit_at(m_o, coords):
            return m_o
    return None


def _ideal_diagnostics(data, cls, p, cong_orders, deg_orders):
    """Per-maximal-ideal diagnostic records at residue characteristic p."""
    n = data.n
    u_sign = None
    if n % p == 0 and (n // p) % p:
        u_sign = u_p_unit_check(cls, p)
    records = []
    for mi, m_t in enumerate(data.max_ideals(p)):
        cong_m = cong_orders[mi]
        deg2_m = deg_orders[mi]
        root = isqrt(deg2_m)
        if root * root != deg2_m:
            raise AssertionError("m-primary S-order is not a perfect square")
        in_support = cong_m > 1 or deg2_m > 1
        if not in_support:
            continue
        gor = data.gorenstein(p, mi)
        m_o = data.matched_order_ideal(cls, p, mi)
        dvr = is_dvr(data.order(cls), m_o) if m_o is not None else None
        records.append(
            {
                "p": p,
                "residue_degree": m_t.residue_degree,
                "gorenstein": gor.status,
                "fiber_dim": gor.fiber_dimension,
                "dvr": dvr,
                "u_p_sign": u_sign,
                "cong_m": cong_m,
                "deg_m": root,
                "ideal": m_t,
                "order_ideal": m_o,
            }
        )
    return records


def deg_cong_report(n, analyze_ideals=True, primes=None, class_index=None):
    """Per-class deg/cong report with per-prime orders and diagnostics.

    primes restricts the local (per-ideal) analysis; class_index restricts
    to a single class label index.
    """
    data = level_data(n)
    cache_key = (analyze_ideals,
                 None if primes is None else tuple(primes), class_index)
    if cache_key in data._reports:
        return data._reports[cache_key]
    reports = []
    for cls in data.classes:
        if class_index is not None and cls.label[1] != class_index:
            continue
        deg, cong, prime_set = data.deg_cong(cls)
        prime_entries = []
        for p in prime_set:
            od, oc = _ord_p(deg, p), _ord_p(cong, p)
            if p != 2 and od != oc:
                raise AssertionError(
                    f"odd-prime deg/cong mismatch at p={p}, level {n}, "
                    f"class {cls.label}: ord_deg={od} ord_cong={oc}"
                )
            prime_entries.append(
                {
                    "p": p,
                    "ord_deg": od,
                    "ord_cong": oc,
                    "inferred_coker": od - oc,
                }
            )
        ideal_entries = []
        local_primes = prime_set if primes is None else [
            p for p in prime_set if p in primes
        ]
        if analyze_ideals:
            for p in local_primes:
                cong_orders = data.m_primary_orders(cls, p, "T")
                deg_orders = data.m_primary_orders(cls, p, "S")
                ideal_entries.extend(
                    _ideal_diagnostics(data, cls, p, cong_orders, deg_orders)
                )
            _check_local_laws(n, cls, ideal_entries)
        reports.append(
            DegCongReport(cls.label, cls.dimension, deg, cong,
                          prime_entries, ideal_entries)
        )
    data._reports[cache_key] = reports
    return reports


def _check_local_laws(n, cls, ideal_entries):
    """Local divisibility and equality laws for m-primary orders."""
    for rec in ideal_entries:
        p = rec["p"]
        if n % (p * p) == 0:
            continue
        # cong | deg at semistable m
        if rec["deg_m"] % rec["cong_m"]:
            raise AssertionError(
                f"cong does not divide deg at m | {p}, level {n}, "
                f"class {cls.label}: deg_m={rec['deg_m']} cong_m={rec['cong_m']}"
            )
        if rec["dvr"] is True or rec["gorenstein"] == "true":
            if rec["deg_m"] != rec["cong_m"]:
                raise AssertionError(
                    f"DVR/Gorenstein m with deg_m != cong_m at p={p}, "
                    f"level {n}, class {cls.label}"
                )


def manin_certify(n):
    """Certificates that deg and cong agree prime-by-prime, dim-1 classes."""
    data = level_data(n)
    out = []
    for cls in data.classes:
        if cls.dimension != 1:
            continue
        deg, cong, primes = data.deg_cong(cls)
        verdicts = {}
        for p in primes:
            if n % (p * p) == 0:
                continue
            verdicts[p] = _ord_p(deg, p) == _ord_p(cong, p)
        out.append(
            ManinCertificate(cls.label, sorted(verdicts), verdicts,
                             all(verdicts.values()))
        )
    return out


def anomaly_scan(n):
    """Classes with a deg/cong mismatch at 2, with forced local diagnostics.

    A mismatch at some m | 2 must come with a non-DVR order and a
    non-Gorenstein Hecke algebra at that m; a violation is a hard failure.
    """
    reports = deg_cong_report(n)
    flagged = []
    for rep in reports:
        if _ord_p(rep.deg, 2) == _ord_p(rep.cong, 2):
            continue
        bad_ideals = []
        for rec in rep.ideals:
            if rec["p"] != 2:
                continue
            if rec["deg_m"] != rec["cong_m"]:
                if rec["dvr"] is not False:
                    raise AssertionError(
                        f"deg/cong mismatch at a DVR m | 2: level {n}, "
                        f"class {rep.label}"
                    )
                if rec["gorenstein"] == "true":
                    raise AssertionError(
                        f"deg/cong mismatch at a Gorenstein m | 2: level {n}, "
                        f"class {rep.label}"
                    )
                bad_ideals.append(rec)
        if not bad_ideals:
            raise AssertionError(
                f"global deg/cong mismatch with no local witness: level {n}, "
                f"class {rep.label}"
            )
        flagged.append({"label": rep.label, "report": rep, "ideals": bad_ideals})
    return flagged


def divisibility_check(cls, m):
    """deg_{f,m} | cong_{f,m} at a DVR maximal ideal of O_f.

    Returns True/False when applicable; the string "not_applicable" when
    the DVR precondition fails.
    """
    data = level_data(cls.space.n)
    order = data.order(cls)
    if not is_dvr(order, m):
        return "not_applicable"
    p = m.p
    cong_orders = data.m_primary_orders(cls, p, "T")
    deg_orders = data.m_primary_orders(cls, p, "S")
    for mi in range(len(data.max_ideals(p))):
        match = data.matched_order_ideal(cls, p, mi)
        if match is not None and match.idempotent == m.idempotent:
            deg_m = isqrt(deg_orders[mi])
            return cong_orders[mi] % deg_m == 0
    # the ideal does not meet the support: both localizations are trivial
    return True


# ---------------------------------------------------------------------------
# JSON serialization (integers as decimal strings)


def report_to_json(n, reports):
    classes = []
    for rep in sorted(reports, key=lambda r: r.label):
        classes.append(
            {
                "label": f"{rep.label[0]}.{rep.label[1]}",
                "dim": rep.dimension,
                "deg": str(rep.deg),
                "cong": str(rep.cong),
                "primes": [
                    {
                        "p": str(e["p"]),
                        "ord_deg": e["ord_deg"],
                        "ord_cong": e["ord_cong"],
                        "inferred_coker": e["inferred_coker"],
                    }
                    for e in rep.primes
                ],
                "ideals": [
                    {
                        "p": str(e["p"]),
                        "residue_degree": e["residue_degree"],
                        "gorenstein": e["gorenstein"],
                        "dvr": e["dvr"],
                        "u_p_sign": e["u_p_sign"],
                    }
                    for e in rep.ideals
                ],
            }
        )
    return {"level": n, "classes": classes}
