"""Tests for congruence numbers, modular degrees, and local reports.

External oracles: modular degrees and congruence numbers of elliptic
curves at small levels (classical values: deg = cong for semistable
elliptic curves, deg(X_0(11) identity) = 1, the 37 and 26 isogeny
classes have degree 2, ...).
"""

import json
from functools import cache

import pytest

from maninforge.exact_linalg import IntLattice, InvariantViolation
from maninforge.hecke_algebra import is_dvr, maximal_ideals
from maninforge.invariants import (
    anomaly_scan,
    cong_number,
    deg_cong_report,
    divisibility_check,
    level_data,
    manin_certify,
    modular_degree,
    report_to_json,
)


def sympy_saturated_kernel(rows):
    """{v in Z^n : v M = 0} for the n integer rows of M, from sympy's Smith
    decomposition S = U M V: v M = 0 iff (v U^-1) S = 0, so the rows of the
    unimodular U past the rank of M are a basis, and a saturated one."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    smith, u, _v = smith_normal_decomp(Matrix(rows), domain=ZZ)
    rank = sum(1 for i in range(min(smith.shape)) if smith[i, i])
    return [[int(x) for x in u.row(i)] for i in range(rank, smith.rows)]


@cache
def sympy_g_rest(n, index):
    """sqf_part(charpoly t) / g, ascending, for class index at level n."""
    from sympy import Matrix, Poly, div, sqf_part, symbols

    cls = level_data(n).classes[index]
    x = symbols("x")
    rad = sqf_part(Poly(Matrix(cls.separator.data).charpoly(x).as_expr(), x))
    quo, rem = div(rad, Poly(list(reversed(cls.g_poly.coeffs)), x))
    assert rem.is_zero
    return [int(c) for c in reversed(quo.all_coeffs())]


@cache
def sympy_old_lattices(n, index):
    """The big lattices deg and cong were once read from, built by sympy
    alone: S[e_f], the saturated kernel of g_rest(t), and T[e_f] and
    T[e_perp], the saturated annihilators in T of S_f and of S[e_f].

    x annihilates L iff x R = 0, R the stacked action (row m is L b_m
    flattened), iff x R R^T = 0 over Q: the same saturated kernel.
    """
    from sympy import Matrix, eye, zeros

    data = level_data(n)
    cls = data.classes[index]
    t = Matrix(cls.separator.data)
    g_rest = zeros(t.rows)
    for c in reversed(sympy_g_rest(n, index)):
        g_rest = g_rest * t + c * eye(t.rows)
    s_ef = sympy_saturated_kernel(g_rest.tolist())
    mats = [Matrix(b.data) for b in data.algebra.basis_mats]

    def annihilator(rows):
        action = Matrix([list(Matrix(rows) * b) for b in mats])
        return sympy_saturated_kernel((action * action.T).tolist())

    return (s_ef, annihilator([list(v) for v in cls.lattice.basis.data]),
            annihilator(s_ef))


KNOWN_DEGREES = {
    # level -> sorted modular degrees of the dimension-1 (elliptic) classes
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


@pytest.mark.parametrize("n", sorted(KNOWN_DEGREES))
def test_modular_degrees_match_known_values(n):
    data = level_data(n)
    degs = sorted(
        modular_degree(data.space, c)
        for c in data.classes
        if c.dimension == 1
    )
    assert degs == KNOWN_DEGREES[n]


@pytest.mark.parametrize("n", [11, 26, 37, 57, 65, 77])
def test_deg_equals_cong_for_elliptic_semistable(n):
    data = level_data(n)
    for cls in data.classes:
        if cls.dimension != 1:
            continue
        assert modular_degree(data.space, cls) == cong_number(data.algebra, cls)


@pytest.mark.parametrize("n", [23, 29, 31, 35, 39, 41, 51])
def test_square_tripwire_and_odd_prime_equality(n):
    # deg_cong_report raises on a non-square S-module order or an odd-prime
    # mismatch; a clean pass exercises both tripwires
    reports = deg_cong_report(n, analyze_ideals=False)
    for rep in reports:
        for e in rep.primes:
            if e["p"] != 2:
                assert e["ord_deg"] == e["ord_cong"]


def test_m_primary_orders_multiply_to_global():
    reports = deg_cong_report(57)
    for rep in reports:
        for p in {e["p"] for e in rep.primes}:
            cong_p = 1
            deg_p = 1
            for rec in rep.ideals:
                if rec["p"] == p:
                    cong_p *= rec["cong_m"]
                    deg_p *= rec["deg_m"]
            ord_c = next(e["ord_cong"] for e in rep.primes if e["p"] == p)
            ord_d = next(e["ord_deg"] for e in rep.primes if e["p"] == p)
            assert cong_p == p**ord_c
            assert deg_p == p**ord_d


@pytest.mark.parametrize("n", [57, 66, 86])
def test_m_primary_orders_match_sympy_smith_form(n):
    # oracle: the order of e M_p is the product of the Smith invariants of
    # [K; I - E; qI], with K the old stacked kernel bases built by sympy
    # (S[e_f] + S_f in Z^r, T[e_f] + T[e_perp] in Z^d), E the action of the
    # lifted idempotent formed from exact matrix products, and sympy's
    # Smith form over Z
    from math import prod

    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    from maninforge.hecke_algebra import lift_idempotent
    from maninforge.invariants import _m_primary_orders

    data = level_data(n)
    alg = data.algebra
    checked = set()
    for cls in data.classes:
        s_ef, t_ef, t_eperp = sympy_old_lattices(n, cls.label[1])
        stacks = {"S": s_ef + [list(v) for v in cls.lattice.basis.data],
                  "T": t_ef + t_eperp}
        for carrier, stack in stacks.items():
            r = len(stack)
            p_parts = data.cong_report(cls, carrier).p_parts
            for p, p_part in p_parts.items():
                q = p * p_part
                orders = _m_primary_orders(data, cls, p, carrier)
                for mi, m in enumerate(data.max_ideals(p)):
                    e_mat = alg.matrix_of(lift_idempotent(alg, m, q))
                    if carrier == "T":
                        e_rows = [alg.coords_of(b * e_mat, verify=True)
                                  for b in alg.basis_mats]
                    else:
                        e_rows = e_mat.data
                    stacked = (
                        stack
                        + [[(int(i == j) - x) % q for j, x in enumerate(row)]
                           for i, row in enumerate(e_rows)]
                        + [[q * int(i == j) for j in range(r)]
                           for i in range(r)])
                    smith = smith_normal_form(Matrix(stacked), domain=ZZ)
                    want = prod(abs(int(smith[i, i])) for i in range(r))
                    assert orders[mi] == want, (cls.label, carrier, p, mi)
                    checked.add(carrier)
    assert checked == {"T", "S"}


def test_m_primary_product_tripwire_raises(monkeypatch):
    # a zero idempotent gives every m-primary piece order 1, so the product
    # check against the p-part of the congruence module must fire
    from maninforge import invariants as inv
    from maninforge.exact_linalg import InvariantViolation

    data = level_data(57)
    cls, p = next((c, p) for c in data.classes
                  for p in data.cong_report(c, "S").p_parts)
    monkeypatch.setattr(inv, "lift_idempotent",
                        lambda ring, m, q: (0,) * ring.rank)
    with pytest.raises(InvariantViolation, match="do not multiply"):
        inv._m_primary_orders(data, cls, p, "S")


def test_manin_certify_small_levels():
    for n in [11, 26, 37, 57]:
        certs = manin_certify(n)
        assert certs, n
        assert all(c.overall for c in certs)


def test_level_210_separates_newforms_from_oldforms():
    # a newform at 210 shares its eigenvalues at 11..37 with an oldform, so
    # no operator built from those primes alone separates it
    data = level_data(210)
    assert [cls.dimension for cls in data.classes] == [1] * 5
    certs = manin_certify(210)
    assert len(certs) == 5
    assert all(c.overall for c in certs)
    for rep in deg_cong_report(210, analyze_ideals=False):
        assert rep.deg == rep.cong


def test_anomaly_scan_empty_at_small_levels():
    for n in [11, 26, 37, 57, 65]:
        assert anomaly_scan(n) == []


def test_divisibility_check_applicable_and_not():
    data = level_data(26)
    cls = data.classes[0]
    order = data.order(cls)
    for m in maximal_ideals(order, 2):
        if is_dvr(order, m):
            assert divisibility_check(cls, m) is True
    # a rank-1 order is Z: every maximal ideal is a DVR ideal, so fabricate
    # non-applicability via a non-DVR check instead at a higher-dim class
    data23 = level_data(23)
    cls23 = data23.classes[0]
    order23 = data23.order(cls23)
    for m in maximal_ideals(order23, 5):
        # 5 is ramified in Z[(1+sqrt5)/2] but the order is maximal: still DVR
        verdict = divisibility_check(cls23, m)
        assert verdict in (True, False, "not_applicable")


def test_report_json_schema_and_decimal_strings():
    reports = deg_cong_report(57)
    doc = report_to_json(57, reports)
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["level"] == 57
    assert len(parsed["classes"]) == 3
    for rec in parsed["classes"]:
        assert set(rec) == {"label", "dim", "deg", "cong", "primes", "ideals"}
        assert isinstance(rec["deg"], str) and rec["deg"].isdigit()
        assert isinstance(rec["cong"], str) and rec["cong"].isdigit()
        for e in rec["primes"]:
            assert set(e) == {"p", "ord_deg", "ord_cong", "inferred_coker"}
            assert isinstance(e["p"], str)
        for e in rec["ideals"]:
            assert set(e) == {"p", "residue_degree", "gorenstein", "dvr",
                              "u_p_sign"}


def test_report_class_and_prime_filters():
    reports = deg_cong_report(57, primes=[3], class_index=1)
    assert len(reports) == 1
    assert reports[0].label == (57, 1)
    assert all(rec["p"] == 3 for rec in reports[0].ideals)


def test_trivial_class_at_11():
    data = level_data(11)
    (cls,) = data.classes
    assert modular_degree(data.space, cls) == 1
    assert cong_number(data.algebra, cls) == 1


def test_annihilator_characterized():
    # _annihilator_of on S_f and on sympy's S[e_f], each characterized
    # exactly; the program's T[e_f] and T[e_perp] must be those two
    from maninforge.exact_linalg import hnf_basis, snf
    from maninforge.invariants import _annihilator_of

    for n in (67, 66):  # 66 has old forms
        data = level_data(n)
        algebra = data.algebra
        d = algebra.rank
        for cls in data.classes:
            s_ef = IntLattice(data.space.cuspidal_rank,
                              sympy_old_lattices(n, cls.label[1])[0])
            anns = []
            for sub in (cls.lattice, s_ef):
                ann = _annihilator_of(algebra, sub)
                for x in ann.basis.data:
                    assert (sub.basis * algebra.matrix_of(list(x))).is_zero()
                action = [[v for row in (sub.basis * b).data for v in row]
                          for b in algebra.basis_mats]
                assert ann.rank == d - len(hnf_basis(action, len(action[0])))
                assert snf(ann.basis) == (1,) * ann.rank
                anns.append(ann)
            rows = data.module(cls, "T")[0]
            split = d - cls.dimension
            assert [IntLattice(d, rows[:split]),
                    IntLattice(d, rows[split:])] == anns


def test_cong_report_det_path_matches_snf():
    # oracle: the order of each congruence module is the product of sympy's
    # Smith invariants of the old stacked kernel bases, S[e_f] + S_f in Z^r
    # and T[e_f] + T[e_perp] in Z^d, all built by sympy
    from math import prod

    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    checked = set()
    for n in [57, 66, 86]:
        data = level_data(n)
        for cls in data.classes:
            s_ef, t_ef, t_eperp = sympy_old_lattices(n, cls.label[1])
            stacks = {"S": s_ef + [list(v) for v in cls.lattice.basis.data],
                      "T": t_ef + t_eperp}
            for carrier, stacked in stacks.items():
                smith = smith_normal_form(Matrix(stacked), domain=ZZ)
                want = prod(abs(int(smith[i, i]))
                            for i in range(min(smith.shape)))
                rep = data.cong_report(cls, carrier)
                assert rep.total_order == want, (cls.label, carrier)
                assert prod(rep.p_parts.values()) == want
                checked.add(carrier)
    assert checked == {"T", "S"}


def test_cong_report_refuses_kernels_that_are_not_complementary(monkeypatch):
    # a column kernel W of g(t) of rank other than 2 dim f, or a T[e_perp]
    # whose rank does not complement T[e_f], is a violated invariant
    from maninforge import invariants as inv

    data = inv.LevelData(57)
    cls = data.classes[0]
    real = inv.poly_kernel_saturated
    for carrier, size, match in [
            ("S", data.space.cuspidal_rank, "column kernel of g"),
            ("T", data.algebra.rank, "not complementary")]:
        def one_row_short(t, g, size=size):
            k = real(t, g)
            return IntLattice(t.cols, k.basis.data[1:]) if t.rows == size else k

        monkeypatch.setattr(inv, "poly_kernel_saturated", one_row_short)
        with pytest.raises(InvariantViolation, match=match):
            data.module(cls, carrier)
    # a singular K: the module is infinite
    with pytest.raises(ValueError, match="not finite"):
        inv._cong_report("S", (0, 0), [[1, 2], [2, 4]])


def test_perfect_square_tripwire_catches_a_doubled_row_of_w(monkeypatch):
    # doubling one basis row of W doubles |det(A W^T)| = deg^2, which is
    # then not a square
    from maninforge import invariants as inv

    data = inv.LevelData(57)
    r = data.space.cuspidal_rank
    real = inv.poly_kernel_saturated

    def doubled(t, g):
        k = real(t, g)
        if t.rows != r:
            return k
        rows = [list(v) for v in k.basis.data]
        rows[0] = [2 * x for x in rows[0]]
        return IntLattice(r, rows)

    monkeypatch.setattr(inv, "poly_kernel_saturated", doubled)
    with pytest.raises(AssertionError, match="not a perfect square"):
        data.cong_report(data.classes[0], "S")


def test_u_p_that_is_not_plus_or_minus_one_raises(monkeypatch):
    # U_p = -w_p on p-new forms: a U_2 acting as +-2 is a violated
    # invariant, named with its level, class and p, not a null sign
    from types import SimpleNamespace

    from maninforge import hecke_algebra as ha
    from maninforge import invariants as inv

    data = inv.LevelData(26)
    monkeypatch.setattr(inv, "level_data", lambda n: data)
    real = ha.hecke

    def planted(space, ell):
        op = real(space, ell)
        return SimpleNamespace(matrix=op.matrix.scale(2)) if ell == 2 else op

    monkeypatch.setattr(ha, "hecke", planted)
    with pytest.raises(InvariantViolation,
                       match=r"level 26 class \(26, \d\): U_2 does not act"):
        deg_cong_report(26)


def test_divisibility_check_reads_memoized_m_primary_orders(monkeypatch):
    # 2 divides deg = cong = 2 of both classes at 26, whose orders are Z:
    # after the report, the check must not redo any modular HNF
    from maninforge import invariants as inv

    data = level_data(26)
    deg_cong_report(26)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = inv.hnf_with_modulus
    monkeypatch.setattr(inv, "hnf_with_modulus", counted)
    checked = []
    for cls in data.classes:
        assert cls.dimension == 1
        order = data.order(cls)
        for m in maximal_ideals(order, 2):
            assert is_dvr(order, m)
            assert divisibility_check(cls, m) is True
            checked.append((cls, m))
    assert len(checked) == 2 and calls == []
    # without the memo, the same check recomputes the orders
    monkeypatch.setattr(data, "_m_primary", {})
    assert divisibility_check(*checked[0]) is True
    assert calls


def test_gorenstein_verdict_runs_once_per_ideal(monkeypatch):
    # both classes at 37 meet the one ideal over 2: its fiber dimension is
    # computed once, not once per class
    from maninforge import hecke_algebra as ha
    from maninforge import invariants as inv

    data = inv.LevelData(37)
    monkeypatch.setattr(inv, "level_data", lambda n: data)
    calls = []
    real = ha.fiber_dim
    monkeypatch.setattr(ha, "fiber_dim", lambda m: calls.append(m) or real(m))
    reports = deg_cong_report(37)
    ideals = {(rec["p"], rec["ideal"].idempotent)
              for rep in reports for rec in rep.ideals}
    assert len(reports) == 2 and all(rep.ideals for rep in reports)
    assert len(calls) == len(ideals) == 1


def test_report_tripwire_raises_under_python_O():
    # the check must not be an `assert`, which `python -O` strips
    import os
    import subprocess
    import sys

    import maninforge

    script = (
        "from maninforge.exact_linalg import InvariantViolation\n"
        "from maninforge.invariants import CongModuleReport\n"
        "assert False, 'python -O keeps asserts'\n"
        "rep = CongModuleReport('S', (1, 1), 12, {2: 4, 3: 5})\n"
        "try:\n"
        "    rep.check()\n"
        "except InvariantViolation as exc:\n"
        "    print('raised', isinstance(exc, AssertionError), exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(maninforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised True"), out.stdout
    assert "p-parts multiply to 20" in out.stdout
