"""Headline arithmetic invariants: congruence modules, cong_f and deg_f.

The congruence number cong_f is the order of T/(T[e_f] + T[e_perp]); the
modular degree deg_f is the square root of the order of the analogous
congruence module of the cuspidal lattice S (that order is asserted to be
a perfect square — a hard internal tripwire).  Local (m-primary) orders
are extracted by decomposing the finite congruence module under lifted
idempotents of T/p^k, and the certification / anomaly pipelines check the
divisibility and equality relations these invariants must satisfy.
"""

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

_logger = logging.getLogger(__name__)

from .exact_linalg import (
    IntLattice,
    IntMatrix,
    InvariantViolation,
    idempotent_kernel_sublattice,
    kernel_saturated,
    lattice_sum,
    quotient_invariants,
    restrict_operator,
    snf_with_col_transform,
)
from .hecke_algebra import (
    _ModPAlgebra,
    _exact_quotient,
    _fp_rank,
    _unit_vec,
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
from .modsym import build_space

__all__ = [
    "CongModuleReport",
    "DegCongReport",
    "ManinCertificate",
    "congruence_module",
    "cong_number",
    "modular_degree",
    "deg_cong_report",
    "manin_certify",
    "anomaly_scan",
    "divisibility_check",
    "level_data",
    "report_to_json",
]


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
        self._s_kernels = {}
        self._t_kernels = {}
        self._cong_reports = {}
        self._max_ideals = {}
        self._presentations = {}
        self._reports = {}

    def order(self, cls):
        if cls.label not in self._orders:
            self._orders[cls.label] = order_of(self.algebra, cls)
        return self._orders[cls.label]

    def s_kernels(self, cls):
        """(S[e_f], S[e_perp]) via integer polynomial kernels."""
        if cls.label not in self._s_kernels:
            g_rest = _exact_quotient(cls.radical_full, cls.g_poly)
            s_ef = poly_kernel_saturated(cls.separator, g_rest)
            self._s_kernels[cls.label] = (s_ef, cls.lattice)
        return self._s_kernels[cls.label]

    def t_kernels(self, cls):
        """(T[e_f], T[e_perp]) as sublattices of the T-coordinate space."""
        if cls.label not in self._t_kernels:
            s_ef, s_eperp = self.s_kernels(cls)
            t_ef = _annihilator_of(self.algebra, s_eperp)
            t_eperp = _annihilator_of(self.algebra, s_ef)
            self._t_kernels[cls.label] = (t_ef, t_eperp)
        return self._t_kernels[cls.label]

    def cong_report(self, cls, carrier):
        """The checked "S" or "T" congruence report of a class, computed once."""
        key = (carrier, cls.label)
        if key not in self._cong_reports:
            build = (_s_congruence_report if carrier == "S"
                     else _t_congruence_report)
            self._cong_reports[key] = build(self, cls)
        return self._cong_reports[key]

    def max_ideals(self, p):
        if p not in self._max_ideals:
            self._max_ideals[p] = maximal_ideals(self.algebra, p)
        return self._max_ideals[p]


@lru_cache(maxsize=8)
def level_data(n):
    return LevelData(n)


def _annihilator_of(algebra, sublattice):
    """{t in T : t acts as zero on the sublattice}, in T-coordinates.

    T[e_f] is the annihilator of the isotypic piece, so both idempotent
    kernels of T are instances of this computation.

    The stacked action matrix is never formed exactly: x annihilates the
    sublattice iff sum_m x_m (L b_m) == 0, with L the lattice basis: the
    condition in lattice coordinates differs by the injective map "express
    in the basis", so the kernels agree.  Row m of the action matrix R is
    L b_m flattened.  A pivot-column set is chosen modulo one prime; the
    exact values of R on those columns come from a CRT whose modulus
    exceeds twice the a-priori entry bound n*lmax*bmax, so they are exact.
    The saturated kernel of that exact projection contains the
    annihilator; the final bound-aware multimodular check that it kills
    all of R proves the reverse inclusion.
    """
    import numpy as np

    from .exact_linalg import (
        _matmul_mod,
        _ModReducer,
        _rref_mod_p,
        _word_primes,
        gcdex,
    )

    d = algebra.rank
    if sublattice.rank == 0:
        return IntLattice.standard(d)
    lb = sublattice.basis
    k, n = lb.rows, lb.cols
    lmax = lb.max_abs()
    _arr, bmax, b_residues = algebra._fast_rows
    ebound = n * lmax * bmax  # bound on any entry of R
    _logger.debug(
        "annihilator: d=%d k=%d n=%d lmax %d bits, bmax %d bits",
        d, k, n, lmax.bit_length(), bmax.bit_length())
    l_red = _ModReducer([x for row in lb.data for x in row], (k, n))

    def rows_mod(p):
        bp = b_residues(p).reshape(d, n, n)
        return _matmul_mod(l_red.mod(p), bp, p).reshape(d, k * n)

    prime_iter = _word_primes()
    for _attempt in range(3):
        p0 = next(prime_iter)
        _red, pivots = _rref_mod_p(rows_mod(p0), p0)
        r = len(pivots)
        _logger.debug("annihilator: rank %d mod %d", r, p0)
        if r == 0:
            return IntLattice.standard(d)
        kk_list = [j // n for j in pivots]
        nn_list = [j % n for j in pivots]

        def proj_mod(p):
            # entry (m, i) is row kk_i of L times column nn_i of b_m
            lsel = l_red.mod(p)[kk_list][:, None, :]
            sel = b_residues(p).reshape(d, n, n)[:, :, nn_list]
            return _matmul_mod(lsel, sel.transpose(2, 1, 0), p)[:, 0, :].T

        # exact pivot columns of R by CRT against the a-priori bound
        res = None
        modulus = 1
        p = p0
        while True:
            part = proj_mod(p).tolist()
            if res is None:
                res, modulus = part, p
            else:
                _g, inv, _ = gcdex(modulus % p, p)
                for ri, si in zip(res, part):
                    for j in range(r):
                        ri[j] += modulus * ((si[j] - ri[j]) * inv % p)
                modulus *= p
            if modulus > 2 * ebound:
                break
            p = next(prime_iter)
        half = modulus // 2
        proj_rows = [[x - modulus if x > half else x for x in ri]
                     for ri in res]
        proj = IntMatrix.from_rows(proj_rows, r)
        _logger.debug("annihilator: exact projection built (%d bits), "
                      "computing saturated kernel", modulus.bit_length())
        kern = kernel_saturated(proj.transpose())
        _logger.debug("annihilator: kernel rank %d, verifying", kern.rank)
        if kern.rank == 0:
            return kern
        # tripwire: the kernel must kill all of R, proved multimodularly;
        # a failure means the pivot prime undercounted the rank — retry
        vmax = kern.basis.max_abs()
        need = 2 * d * vmax * ebound
        _logger.debug("annihilator: vmax %d bits, verification needs "
                      "%d bits", vmax.bit_length(), need.bit_length())
        v64 = (np.array(kern.basis.data, dtype=np.int64)
               if vmax < 2**62 else None)
        modulus = 1
        good = True
        checked = 0
        for p in _word_primes():
            vp = (np.mod(v64, p) if v64 is not None else
                  np.array([[x % p for x in row]
                            for row in kern.basis.data], dtype=np.int64))
            if np.any(_matmul_mod(vp, rows_mod(p), p)):
                good = False
                break
            modulus *= p
            checked += 1
            if checked % 200 == 0:
                _logger.debug("annihilator: verification at %d / %d bits",
                              modulus.bit_length(), need.bit_length())
            if modulus > need:
                break
        if good:
            _logger.debug("annihilator: verified")
            return kern
    raise ValueError("projected annihilator kernel is not exact")


# ---------------------------------------------------------------------------
# congruence modules


@dataclass
class CongModuleReport:
    carrier: str  # "T" | "S" | "lattice"
    label: tuple
    invariant_factors: tuple
    total_order: int
    p_parts: dict  # p -> p-part of the total order
    m_orders: dict = field(default_factory=dict)  # MaxIdeal-keyed orders

    def check(self):
        if self.invariant_factors is not None:
            prod = 1
            for f in self.invariant_factors:
                prod *= f
            if prod != self.total_order:
                raise InvariantViolation(
                    f"{self.carrier} module {self.label}: invariant factors "
                    f"multiply to {prod}, not the order {self.total_order}")
        prod = 1
        for v in self.p_parts.values():
            prod *= v
        if prod != self.total_order:
            raise InvariantViolation(
                f"{self.carrier} module {self.label}: p-parts multiply to "
                f"{prod}, not the order {self.total_order}")


def _module_report(carrier, label, big, small):
    factors, free = quotient_invariants(big, small)
    if free:
        raise ValueError("congruence module is not finite")
    total = 1
    for f in factors:
        total *= f
    p_parts = {}
    for p, e in _factorize(total).items():
        p_parts[p] = p**e
    return CongModuleReport(carrier, label, tuple(factors), total, p_parts)


_BIG_MODULE = 120


def _cong_report(carrier, label, big_rank, k1, k2):
    """Report on Z^r / (K1 + K2) for two complementary kernel lattices.

    At large ranks, when the two kernels have complementary ranks their
    stacked bases generate the sum, so the order of the quotient is the
    absolute determinant of the stack (no Smith form needed; the
    invariant factors are then not reported).
    """
    if big_rank >= _BIG_MODULE and k1.rank + k2.rank == big_rank:
        from .exact_linalg import _det_multimodular

        stacked = list(k1.basis.data) + list(k2.basis.data)
        d = _det_multimodular(stacked)
        if d == 0:
            raise ValueError("congruence module is not finite")
        total = abs(d)
        p_parts = {p: p**e for p, e in _factorize(total).items()}
        return CongModuleReport(carrier, label, None, total, p_parts)
    return _module_report(carrier, label, IntLattice.standard(big_rank),
                          lattice_sum(k1, k2))


def congruence_module(m_lattice, e_f, carrier="lattice", label=()):
    """Generic congruence module M/(M[e_f] + M[e_perp]) via idempotents."""
    from .exact_linalg import RatMatrix

    if not isinstance(e_f, RatMatrix):
        raise ValueError("e_f must be a rational idempotent matrix")
    ident = RatMatrix.identity(e_f.rows)
    e_perp = ident - e_f
    m_ef = idempotent_kernel_sublattice(m_lattice, e_f)
    m_eperp = idempotent_kernel_sublattice(m_lattice, e_perp)
    return _module_report(carrier, label, m_lattice, lattice_sum(m_ef, m_eperp))


def cong_number(algebra, cls):
    """cong_f = #(T / (T[e_f] + T[e_perp]))."""
    return level_data(algebra.level).cong_report(cls, "T").total_order


def modular_degree(space, cls):
    """deg_f, the square root of the order of the S-congruence module."""
    return isqrt(level_data(space.n).cong_report(cls, "S").total_order)


def _s_congruence_report(data, cls):
    """The S-congruence report, whose order must be a perfect square."""
    s_ef, s_eperp = data.s_kernels(cls)
    rep = _cong_report("S", cls.label, data.space.cuspidal_rank,
                       s_ef, s_eperp)
    rep.check()
    root = isqrt(rep.total_order)
    if root * root != rep.total_order:
        raise AssertionError(
            "S-congruence module order is not a perfect square: "
            f"level {data.n} class {cls.label} order {rep.total_order} "
            f"factors {rep.invariant_factors}"
        )
    return rep


def _t_congruence_report(data, cls):
    t_ef, t_eperp = data.t_kernels(cls)
    rep = _cong_report("T", cls.label, data.algebra.rank, t_ef, t_eperp)
    rep.check()
    return rep


# ---------------------------------------------------------------------------
# m-primary orders via lifted idempotents


def _finite_module_presentation(big_rank, sum_lattice):
    """SNF model of Z^r / K: (diag, V, Vinv) with the quotient = ⊕ Z/diag_i."""
    basis = sum_lattice.basis
    if basis.rows != big_rank:
        raise ValueError("congruence module is not finite")
    return snf_with_col_transform(basis)


def _subgroup_order_in_p_part(diag, p, image_rows):
    """Order of the subgroup generated by image_rows inside ⊕ Z/p^{a_i}.

    diag are the invariant factors; image_rows are vectors in the p-part
    coordinates (entry j taken mod p^{a_j}).
    """
    from .exact_linalg import _hnf_rows

    a = [_ord_p(d, p) for d in diag]
    idx = [j for j, e in enumerate(a) if e > 0]
    if not idx:
        return 1
    moduli = [p ** a[j] for j in idx]
    rows = [[row[t] % moduli[t] for t in range(len(idx))] for row in image_rows]
    for t, m in enumerate(moduli):
        rows.append([m if s == t else 0 for s in range(len(idx))])
    H, r, _ = _hnf_rows(rows, ncols=len(idx))
    if r != len(idx):
        raise InvariantViolation(
            f"relations of the {p}-part do not have full rank")
    det = 1
    for i in range(r):
        piv = next(x for x in H[i] if x)
        det *= piv
    total = 1
    for m in moduli:
        total *= m
    if total % det:
        raise InvariantViolation(
            f"relation index {det} does not divide the {p}-part order {total}")
    return total // det


def _m_primary_orders(data, cls, p, carrier):
    """Orders of the m-primary pieces of a congruence module, per MaxIdeal.

    carrier "T" uses the T-congruence module (cong), "S" the S-module
    (square of deg).  Returns {MaxIdeal index: order} aligned with
    data.max_ideals(p).
    """
    algebra = data.algebra
    key = (cls.label, carrier)
    if key not in data._presentations:
        if carrier == "T":
            t_ef, t_eperp = data.t_kernels(cls)
            big_rank = algebra.rank
            ksum = lattice_sum(t_ef, t_eperp)
        else:
            s_ef, s_eperp = data.s_kernels(cls)
            big_rank = data.space.cuspidal_rank
            ksum = lattice_sum(s_ef, s_eperp)
        data._presentations[key] = _finite_module_presentation(big_rank, ksum)
    diag, v, vinv = data._presentations[key]
    p_exp = sum(_ord_p(d, p) for d in diag)
    if p_exp == 0:
        return {i: 1 for i in range(len(data.max_ideals(p)))}
    pk = p ** (p_exp + 1)
    a = [_ord_p(d, p) for d in diag]
    idx = [j for j, e in enumerate(a) if e > 0]
    out = {}
    total_check = 1
    for mi, m in enumerate(data.max_ideals(p)):
        e_coords = lift_idempotent(algebra, m, pk)
        if carrier == "T":
            # action of e on T-coordinates: x -> coordinates of x * e
            e_rows = [
                list(algebra.mult_coords(_unit_vec(algebra.rank, i), e_coords))
                for i in range(algebra.rank)
            ]
            e_mat = IntMatrix.from_rows(e_rows, algebra.rank)
        else:
            e_mat = algebra.matrix_of(e_coords)
        e_c = vinv * e_mat * v
        image_rows = []
        for j in idx:
            m_j = diag[j] // (p ** a[j])
            row = []
            for t in idx:
                val = (m_j * e_c.data[j][t]) % diag[t]
                m_t = diag[t] // (p ** a[t])
                if val % m_t:
                    raise AssertionError("idempotent image left the p-part")
                row.append(val // m_t)
            image_rows.append(row)
        order = _subgroup_order_in_p_part(diag, p, image_rows)
        out[mi] = order
        total_check *= order
    if total_check != p**p_exp:
        raise AssertionError(
            f"m-primary orders do not multiply to the p-part at p={p}: "
            f"{total_check} vs {p**p_exp}"
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
    order = data.order(cls)
    p = m_t.p
    lift = [int(c) for c in m_t.idempotent]
    mat = data.algebra.matrix_of(lift)
    restr = restrict_operator(cls.lattice, mat)
    coords = order.coords_of(restr)
    if coords is None:
        raise ValueError("T-idempotent image missing from the order")
    alg_o = _ModPAlgebra(order, p)
    x = tuple(int(c) % p for c in coords)
    for m_o in maximal_ideals(order, p):
        y = alg_o.mul(x, m_o.idempotent)
        rows = [list(v) for v in m_o.radical_basis] + [list(y)]
        if _fp_rank(rows, p) > len(m_o.radical_basis):
            return m_o
    return None


def _ideal_diagnostics(data, cls, p, cong_orders, deg_orders):
    """Per-maximal-ideal diagnostic records at residue characteristic p."""
    n = data.n
    s_std = IntLattice.standard(data.space.cuspidal_rank)
    u_sign = None
    if n % p == 0 and (n // p) % p:
        try:
            u_sign = u_p_unit_check(cls, p)
        except ValueError:
            u_sign = None
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
        gor = is_gorenstein(data.algebra, m_t, s_std)
        m_o = _match_order_ideal(data, cls, m_t)
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
        deg = isqrt(data.cong_report(cls, "S").total_order)
        cong = data.cong_report(cls, "T").total_order
        prime_set = sorted(set(_factorize(deg)) | set(_factorize(cong)))
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
                cong_orders = _m_primary_orders(data, cls, p, "T")
                deg_orders = _m_primary_orders(data, cls, p, "S")
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
        deg = modular_degree(data.space, cls)
        cong = cong_number(data.algebra, cls)
        primes = sorted(set(_factorize(deg)) | set(_factorize(cong)))
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
    cong_orders = _m_primary_orders(data, cls, p, "T")
    deg_orders = _m_primary_orders(data, cls, p, "S")
    for mi, m_t in enumerate(data.max_ideals(p)):
        match = _match_order_ideal(data, cls, m_t)
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
