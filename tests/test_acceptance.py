"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Criterion 2 (level 2089) is hours-scale and runs only under
`pytest -m long_running`.
"""

import random
from functools import lru_cache
from math import isqrt

import pytest

from maninforge.exact_linalg import IntLattice, IntMatrix, hnf, snf
from maninforge.hecke_algebra import (
    build_hecke_algebra,
    is_gorenstein,
    maximal_ideals,
    saturation_index,
    socle_dim,
)
from maninforge.invariants import (
    cong_number,
    deg_cong_report,
    divisibility_check,
    level_data,
    manin_certify,
    modular_degree,
)
from maninforge.modsym import build_space, hecke, is_squarefree


def _criterion(num, desc, fn):
    try:
        fn()
    except Exception:
        print(f"\nCRITERION {num}: FAIL — {desc}")
        raise
    print(f"\nCRITERION {num}: PASS — {desc}")


SQUAREFREE_100 = [n for n in range(11, 101) if is_squarefree(n)]


@lru_cache(maxsize=None)
def _reports_no_ideals(n):
    return deg_cong_report(n, analyze_ideals=False)


@lru_cache(maxsize=None)
def _reports_full(n):
    return deg_cong_report(n)


def test_criterion_1_level_431_reproduction():
    def body():
        data = level_data(431)
        big = [c for c in data.classes if c.dimension == 24]
        assert len(big) == 1
        cls = big[0]
        assert modular_degree(data.space, cls) == 2**11 * 6947
        assert cong_number(data.algebra, cls) == 2**10 * 6947

    _criterion(1, "level 431: dim-24 class has deg = 2^11*6947, "
                  "cong = 2^10*6947", body)


@pytest.mark.long_running
def test_criterion_2_level_2089_reproduction():
    def body():
        odd = 3 * 5 * 11 * 19 * 73 * 139
        data = level_data(2089)
        big = [c for c in data.classes if c.dimension == 91]
        assert len(big) == 1
        cls = big[0]
        assert modular_degree(data.space, cls) == 2**80 * odd
        assert cong_number(data.algebra, cls) == 2**79 * odd

    _criterion(2, "level 2089: dim-91 class has deg = 2^80*o, "
                  "cong = 2^79*o, o = 3*5*11*19*73*139", body)


def test_criterion_3_odd_prime_equality():
    def body():
        for n in SQUAREFREE_100:
            for rep in _reports_no_ideals(n):
                for e in rep.primes:
                    if e["p"] != 2:
                        assert e["ord_deg"] == e["ord_cong"], (n, rep.label, e)

    _criterion(3, "ord_p(deg) = ord_p(cong) at every odd p, all classes, "
                  "squarefree n <= 100", body)


def test_criterion_4_elliptic_semistable_equality():
    def body():
        found = 0
        for n in SQUAREFREE_100:
            for rep in _reports_no_ideals(n):
                if rep.dimension == 1:
                    assert rep.deg == rep.cong, (n, rep.label)
                    found += 1
            for cert in manin_certify(n):
                assert cert.overall, (n, cert.label)
        assert found > 40  # the range really contains elliptic classes

    _criterion(4, "deg = cong exactly (including p = 2) for every dim-1 "
                  "class, squarefree n <= 100", body)


def test_criterion_5_anomaly_diagnosis_431():
    def body():
        reps = _reports_full(431)
        (rep,) = [r for r in reps if r.dimension == 24]
        assert rep.deg != rep.cong  # the 2-adic mismatch
        witnesses = [
            rec for rec in rep.ideals
            if rec["p"] == 2 and rec["deg_m"] != rec["cong_m"]
        ]
        assert witnesses
        for rec in witnesses:
            assert rec["gorenstein"] == "false"
            assert rec["fiber_dim"] > 2
            assert rec["dvr"] is False

    _criterion(5, "level 431 flagged class has m | 2 with "
                  "is_gorenstein = false and is_dvr = false", body)


def test_criterion_6_gorenstein_inequality():
    def body():
        primes = [n for n in range(11, 101)
                  if all(n % d for d in range(2, isqrt(n) + 1))]
        for n in primes:
            sp = build_space(n)
            if sp.cuspidal_rank == 0:
                continue
            alg = build_hecke_algebra(sp)
            for p in [2, 3, 5, 7, 11, 13]:
                for m in maximal_ideals(alg, p):
                    verdict = is_gorenstein(alg, m)
                    assert verdict.fiber_dimension <= socle_dim(alg, m) + 1, \
                        (n, p)

    _criterion(6, "fiber_dim(S, m) <= socle_dim(T, m) + 1 for all prime "
                  "n <= 100, p <= 13", body)


def test_criterion_7_saturation():
    def body():
        for n in range(11, 51, 2):
            if not is_squarefree(n):
                continue
            sp = build_space(n)
            alg = build_hecke_algebra(sp)
            assert saturation_index(alg) == 1, n

    _criterion(7, "saturation_index = 1 for all odd squarefree n <= 50", body)


def test_criterion_8_semistable_divisibility():
    def body():
        checked = 0
        for n in SQUAREFREE_100:
            data = level_data(n)
            for rep in _reports_full(n):
                for rec in rep.ideals:
                    # semistable (n squarefree): cong_m divides deg_m
                    assert rec["deg_m"] % rec["cong_m"] == 0, (n, rep.label)
                    if rec["dvr"] is True:
                        assert rec["cong_m"] % rec["deg_m"] == 0, (n, rep.label)
                    checked += 1
            # cross-check through the public divisibility predicate
            for cls in data.classes:
                order = data.order(cls)
                for m in maximal_ideals(order, 2):
                    assert divisibility_check(cls, m) in (True,
                                                          "not_applicable")
        assert checked > 50

    _criterion(8, "cong_m | deg_m at all semistable m and deg_m | cong_m "
                  "at DVR m, squarefree n <= 100", body)


def test_criterion_9_engine_oracles():
    def body():
        import sympy
        from sympy.matrices.normalforms import (
            hermite_normal_form,
            smith_normal_form,
        )

        rng = random.Random(20250823)
        for _ in range(200):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            data = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            m = IntMatrix.from_rows(data, c)
            sm = sympy.Matrix(data)
            ours = [d for d in snf(m) if d != 0]
            theirs = [
                int(x) for x in smith_normal_form(sm).diagonal() if x != 0
            ]
            theirs = [abs(t) for t in theirs]
            assert ours == theirs, data
            if sm.rank() == r:
                h_ours, _u = hnf(m)
                h_sym = hermite_normal_form(sm.T).T
                # sympy uses a column-style convention; compare the row span
                ours_lat = IntLattice.from_matrix(h_ours)
                theirs_lat = IntLattice(
                    c, [[int(x) for x in h_sym.row(i)] for i in range(r)]
                )
                assert ours_lat == theirs_lat, data
        # eigenvalue spot-check at level 11 against the eta-product oracle
        from test_modsym import ETA_NEWFORMS, eta_product

        a = eta_product(ETA_NEWFORMS[11], 5)
        assert (a[2], a[3]) == (-2, -1)
        sp = build_space(11)
        for ell in (2, 3):
            t = hecke(sp, ell).matrix
            assert t == IntMatrix.identity(2).scale(a[ell])
        # the perfect-square assertion has not fired in any run above

    _criterion(9, "SNF/HNF vs independent implementation (200 random "
                  "matrices); a_2 = -2, a_3 = -1 at level 11; "
                  "square tripwire silent", body)
