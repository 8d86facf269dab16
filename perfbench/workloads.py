"""The four workloads: their inputs, their requests and the checks on them.

A workload turns a seed into an ordered list of levels and serves them one
request at a time.  Every output is checked against `oracle` (formulas and
published values computed apart from the program) and against properties
the method must have; a failed check is reported as a `CheckError`.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import namedtuple

import oracle

CLOCK = time.perf_counter


class CheckError(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckError(message)


# one timed pass: its latency, and whether it ran against filled caches
Timing = namedtuple("Timing", "seconds warm")


# ---------------------------------------------------------------------------
# checks shared by the library workloads


def check_space(n, space):
    expect(space.cuspidal_rank == 2 * oracle.genus(n),
           f"level {n}: cuspidal rank {space.cuspidal_rank} != 2g = "
           f"{2 * oracle.genus(n)}")
    expect(space.cusp_count == oracle.cusp_count(n),
           f"level {n}: {space.cusp_count} cusps, formula gives "
           f"{oracle.cusp_count(n)}")


def check_class_dimensions(n, dims):
    expect(sum(dims) == oracle.new_dimension(n),
           f"level {n}: class dimensions {dims} do not sum to the new "
           f"dimension {oracle.new_dimension(n)}")
    if n in oracle.ELLIPTIC_DEGREES:
        expect(dims.count(1) == len(oracle.ELLIPTIC_DEGREES[n]),
               f"level {n}: {dims.count(1)} dimension-1 classes, expected "
               f"{len(oracle.ELLIPTIC_DEGREES[n])} isogeny classes")
    if n == 431:
        expect(sorted(dims) == oracle.LEVEL_431["class_dimensions"],
               f"level 431: class dimensions {sorted(dims)}")


def check_deg_cong(n, label, dim, deg, cong):
    expect(deg > 0 and cong > 0, f"level {n} class {label}: non-positive")
    for p in oracle.factorize(deg * cong):
        if p != 2:
            expect(oracle.ord_p(deg, p) == oracle.ord_p(cong, p),
                   f"level {n} class {label}: ord_{p} deg != ord_{p} cong")
    if dim == 1:
        expect(deg == cong, f"level {n} class {label}: dimension 1 with "
                            f"deg {deg} != cong {cong}")
    if n == 431 and dim == oracle.LEVEL_431["headline_dimension"]:
        expect((deg, cong) == (oracle.LEVEL_431["deg"], oracle.LEVEL_431["cong"]),
               f"level 431 class {label}: deg {deg}, cong {cong}")


def check_elliptic_degrees(n, pairs):
    """pairs: (dimension, deg) of every class."""
    if n in oracle.ELLIPTIC_DEGREES:
        degs = sorted(deg for dim, deg in pairs if dim == 1)
        expect(degs == oracle.ELLIPTIC_DEGREES[n],
               f"level {n}: elliptic modular degrees {degs}, published "
               f"{oracle.ELLIPTIC_DEGREES[n]}")


def check_local(n, rep):
    """The m-primary orders of one class against its global invariants."""
    by_p = {}
    for rec in rep.ideals:
        p, cong_m, deg_m = rec["p"], rec["cong_m"], rec["deg_m"]
        expect(deg_m % cong_m == 0,
               f"level {n} class {rep.label}: cong_m {cong_m} does not divide "
               f"deg_m {deg_m} at m | {p}")
        if rec["gorenstein"] == "true" or rec["dvr"] is True:
            expect(deg_m == cong_m,
                   f"level {n} class {rep.label}: deg_m != cong_m at a "
                   f"Gorenstein or DVR m | {p}")
        acc = by_p.setdefault(p, [1, 1])
        acc[0] *= cong_m
        acc[1] *= deg_m
    for p in oracle.factorize(rep.deg * rep.cong):
        cong_p, deg_p = by_p.get(p, (1, 1))
        expect(cong_p == p ** oracle.ord_p(rep.cong, p),
               f"level {n} class {rep.label}: prod cong_m over m | {p} is "
               f"{cong_p}, the {p}-part of cong is "
               f"{p ** oracle.ord_p(rep.cong, p)}")
        expect(deg_p == p ** oracle.ord_p(rep.deg, p),
               f"level {n} class {rep.label}: prod deg_m over m | {p} is "
               f"{deg_p}, the {p}-part of deg is {p ** oracle.ord_p(rep.deg, p)}")
    expect(set(by_p) <= set(oracle.factorize(rep.deg * rep.cong)),
           f"level {n} class {rep.label}: local data at a prime not dividing "
           f"deg * cong")


def _report_key(reports):
    return [(r.label, r.dimension, r.deg, r.cong,
             [(e["p"], e["cong_m"], e["deg_m"], e["gorenstein"], e["dvr"])
              for e in r.ideals]) for r in reports]


# ---------------------------------------------------------------------------
# workloads


class LibraryWorkload:
    """Requests served in this process through maninforge's library API.

    Each request is cold: the program's in-process caches are emptied
    first.  It is then repeated WARM_REPEATS times against the filled
    caches (warm passes).
    """

    name = None
    WARM_REPEATS = 5
    passes = 1 + WARM_REPEATS  # operations attempted per request

    def __init__(self, prog):
        self.prog = prog  # the maninforge modules, as imported by the runner

    def levels(self, seed):
        raise NotImplementedError

    def run(self, n, tracer, results):
        clear_program_caches(self.prog)
        if tracer is not None:
            tracer.request = f"{self.name}:{n}:cold"
        t0 = CLOCK()
        out = self.serve(n)
        cold = CLOCK() - t0
        results.append(Timing(cold, False))
        if tracer is not None:
            tracer.request = f"{self.name}:{n}:warm"
        for _ in range(self.WARM_REPEATS):
            t0 = CLOCK()
            again = self.serve(n)
            results.append(Timing(CLOCK() - t0, True))
        if tracer is not None:
            tracer.request = None
        self.check(n, out, again)


class GlobalScan(LibraryWorkload):
    name = "global-scan"
    LEVEL_BOUND = 110

    def levels(self, seed):
        levels = [n for n in range(11, self.LEVEL_BOUND + 1)
                  if oracle.is_squarefree(n)]
        random.Random(seed).shuffle(levels)
        return levels

    def serve(self, n):
        inv = self.prog.invariants
        return inv.deg_cong_report(n, analyze_ideals=False), inv.manin_certify(n)

    def check(self, n, out, again):
        reports, certs = out
        check_space(n, self.prog.modsym.build_space(n))
        check_class_dimensions(n, [r.dimension for r in reports])
        for r in reports:
            check_deg_cong(n, r.label, r.dimension, r.deg, r.cong)
            expect(not r.ideals, f"level {n}: local data without analyze_ideals")
        check_elliptic_degrees(n, [(r.dimension, r.deg) for r in reports])
        dim1 = sorted(r.label for r in reports if r.dimension == 1)
        expect(sorted(c.label for c in certs) == dim1,
               f"level {n}: certificates do not match the dimension-1 classes")
        for c in certs:
            expect(c.overall and all(c.verdicts.values()),
                   f"level {n} class {c.label}: certificate fails")
        expect(_report_key(again[0]) == _report_key(reports)
               and [c.verdicts for c in again[1]] == [c.verdicts for c in certs],
               f"level {n}: warm repeat differs from the cold request")


class LocalDiag(LibraryWorkload):
    name = "local-diag"
    # squarefree levels whose local (m-primary) phase is 65-75 % of the
    # full report, of similar cost, so that a run repeats each a few times
    POOL = (66, 78, 86, 87, 94)
    # levels with published elliptic modular degrees, checked once a run
    # before the timed rounds (they are too small to time usefully)
    VERIFY = tuple(sorted(oracle.ELLIPTIC_DEGREES))

    def levels(self, seed):
        levels = list(self.POOL)
        random.Random(seed).shuffle(levels)
        return levels

    def serve(self, n):
        return self.prog.invariants.deg_cong_report(n)

    def check(self, n, reports, again):
        check_space(n, self.prog.modsym.build_space(n))
        check_class_dimensions(n, [r.dimension for r in reports])
        for r in reports:
            check_deg_cong(n, r.label, r.dimension, r.deg, r.cong)
            check_local(n, r)
        check_elliptic_degrees(n, [(r.dimension, r.deg) for r in reports])
        expect(_report_key(again) == _report_key(reports),
               f"level {n}: warm repeat differs from the cold request")

    def verify(self, n):
        clear_program_caches(self.prog)
        reports = self.serve(n)
        self.check(n, reports, reports)


class Level431(LibraryWorkload):
    name = "level-431"

    def levels(self, seed):
        return [431]

    def serve(self, n):
        inv = self.prog.invariants
        data = inv.level_data(n)
        return [(c.label, c.dimension, inv.modular_degree(data.space, c),
                 inv.cong_number(data.algebra, c)) for c in data.classes]

    def check(self, n, rows, again):
        check_space(n, self.prog.modsym.build_space(n))
        check_class_dimensions(n, [dim for _l, dim, _d, _c in rows])
        for label, dim, deg, cong in rows:
            check_deg_cong(n, label, dim, deg, cong)
        expect(any(dim == oracle.LEVEL_431["headline_dimension"]
                   for _l, dim, _d, _c in rows), "level 431: no 24-dim class")
        expect(again == rows, f"level {n}: warm repeat differs")


def clear_program_caches(prog):
    """Empty every functools cache of the program (memoized spaces, level
    data), so that the next request computes its level from scratch."""
    for clear in prog.cache_clears:
        clear()


class CliCache:
    """`maninforge certify|decompose N --json` as subprocesses.

    Each (level, command) pair runs twice against its own --cache-dir: cold
    (empty, so it computes and writes artifacts), then warm (reads them).
    """

    name = "cli-cache"
    POOL = (58, 62, 66, 69, 70, 74, 77, 82, 85, 91)
    COMMANDS = ("certify", "decompose")
    TIMEOUT_S = 120
    passes = 2  # cold and warm invocation

    def __init__(self, root, scratch):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._dims = {}  # level -> decompose dimensions, for cross-checks
        self._certs = {}

    def levels(self, seed):
        pairs = [(n, cmd) for n in self.POOL for cmd in self.COMMANDS]
        random.Random(seed).shuffle(pairs)
        return pairs

    def command(self, request, trace_out):
        if trace_out is None:
            return [sys.executable, "-m", "maninforge.cli"]
        return [sys.executable, os.path.join(self.root, "perfbench", "traced_cli.py"),
                "--trace-out", trace_out, "--request", request, "--"]

    def invoke(self, argv):
        t0 = CLOCK()
        proc = subprocess.run(argv, capture_output=True, env=self.env,
                              cwd=self.root, timeout=self.TIMEOUT_S)
        return CLOCK() - t0, proc

    def run(self, pair, tracer, results, trace_dir=None):
        n, cmd = pair
        cache = os.path.join(self.scratch, f"{cmd}-{n}")
        shutil.rmtree(cache, ignore_errors=True)
        outs = []
        try:
            for phase in ("cold", "warm"):
                request = f"{cmd}:{n}:{phase}"
                trace_out = (os.path.join(trace_dir, request.replace(":", "-") + ".jsonl")
                             if trace_dir is not None else None)
                argv = self.command(request, trace_out) + [
                    "--cache-dir", cache, cmd, str(n), "--json"]
                seconds, proc = self.invoke(argv)
                results.append(Timing(seconds, phase == "warm"))
                expect(proc.returncode == 0,
                       f"{cmd} {n} ({phase}) exited {proc.returncode}: "
                       f"{proc.stderr.decode(errors='replace')[-400:]}")
                outs.append(proc.stdout)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        expect(outs[0] == outs[1], f"{cmd} {n}: warm JSON differs from cold")
        self.check(n, cmd, json.loads(outs[0]))

    def check(self, n, cmd, doc):
        expect(doc["level"] == n, f"{cmd} {n}: wrong level in the JSON")
        if cmd == "decompose":
            dims = [c["dim"] for c in doc["classes"]]
            check_class_dimensions(n, dims)
            self._dims[n] = dims
        else:
            for c in doc["certificates"]:
                expect(c["pass"] and all(c["verdicts"].values()),
                       f"certify {n}: class {c['label']} fails")
            self._certs[n] = len(doc["certificates"])
        if n in self._dims and n in self._certs:
            expect(self._certs.pop(n) == self._dims.pop(n).count(1),
                   f"level {n}: certify and decompose disagree on the number "
                   f"of dimension-1 classes")
