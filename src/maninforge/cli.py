"""Command-line front end with persistent operator caching.

Exit-code contract: 0 = all checks pass, 2 = a theorem-level invariant was
violated (hard internal assertion) or the level could not be computed (a
certified step failed: no separating element, a kernel that did not
certify, a congruence module that is not finite), 3 = applicability
refused (guard violation such as a non-squarefree level or a missing
--long-running flag).  Exit 2 always comes with one stderr line naming
the cause.
"""

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import partial
from math import gcd

import click

from .exact_linalg import IntMatrix
from .modsym import (MR_BOUND, OperatorMatrix, build_space, factorize,
                     is_prime, is_squarefree)
from . import invariants as inv

CACHE_VERSION = 1
LONG_RUNNING_RANK = 160

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_REFUSED = 3


# ---------------------------------------------------------------------------
# cache: one directory per level, text artifacts with sha256 sidecars


def _cache_root(cache_dir):
    if cache_dir:
        return cache_dir
    return os.environ.get("MANINFORGE_CACHE", "./.maninforge")


def _artifact_paths(root, n, name):
    base = os.path.join(root, str(n), f"{name}.v{CACHE_VERSION}.txt")
    return base, base + ".sha256"


def _read_artifact(root, n, name):
    path, sidecar = _artifact_paths(root, n, name)
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(sidecar, "r", encoding="ascii") as fh:
            recorded = fh.read().strip()
    except OSError:
        return None
    if hashlib.sha256(payload).hexdigest() != recorded:
        return None  # corrupt entries are recomputed, never trusted
    return payload.decode("ascii")


def _write_artifact(root, n, name, text):
    path, sidecar = _artifact_paths(root, n, name)
    payload = text.encode("ascii")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    for target, data in ((path, payload),
                         (sidecar, (hashlib.sha256(payload).hexdigest() + "\n").encode("ascii"))):
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, target)


def _basis_digest(space):
    """sha256 of the cuspidal basis the cached operators are written in."""
    return hashlib.sha256(space.cuspidal.basis.to_text().encode("ascii")).hexdigest()


def _load_op_cache(space, root):
    index = _read_artifact(root, space.n, "op_index")
    if index is None:
        return
    digest, _, names = index.partition("\n")
    if digest != _basis_digest(space):
        return  # written in another basis: recompute, never trust
    r = space.cuspidal_rank
    for name in names.split():
        text = _read_artifact(root, space.n, f"op_{name}")
        if text is None:
            continue
        try:
            mat = IntMatrix.from_text(text)
        except (ValueError, IndexError):
            continue
        if mat.rows == mat.cols == r:
            space._ops[name] = OperatorMatrix(name, mat)


def _save_op_cache(space, root):
    if not space._ops:
        return
    for name, op in space._ops.items():
        _write_artifact(root, space.n, f"op_{name}", op.matrix.to_text())
    _write_artifact(root, space.n, "op_index",
                    f"{_basis_digest(space)}\n" + " ".join(sorted(space._ops)) + "\n")


# ---------------------------------------------------------------------------
# cheap cost estimate (genus formula, no space construction)


def _euler_phi(n):
    r = n
    for p in factorize(n):
        r = r // p * (p - 1)
    return r


def _cuspidal_rank_estimate(n):
    fac = factorize(n)
    psi = n
    for p in fac:
        psi = psi // p * (p + 1)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in fac:
            if p != 2:
                nu2 = 0 if p % 4 == 3 else nu2 * 2
            if nu2 == 0:
                break
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in fac:
            if p != 3:
                nu3 = 0 if p % 3 == 2 else nu3 * 2
            if nu3 == 0:
                break
    cusps = sum(_euler_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
    g = Fraction(1) + Fraction(psi, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(cusps, 2)
    return 2 * int(g)


def _gate_long_running(n, long_running):
    if _cuspidal_rank_estimate(n) > LONG_RUNNING_RANK and not long_running:
        click.echo(
            f"level {n} has cuspidal rank > {LONG_RUNNING_RANK}; "
            "rerun with --long-running",
            err=True,
        )
        sys.exit(EXIT_REFUSED)


def _parse_prime(entry):
    """The prime written as `entry`, or exit refused naming the entry."""
    try:
        p = int(entry)
    except ValueError:
        p = None
    if p is not None and p >= MR_BOUND:
        click.echo(f"--primes entry {entry!r} is too large to test "
                   f"(limit {MR_BOUND}); refused", err=True)
        sys.exit(EXIT_REFUSED)
    if p is None or not is_prime(p):
        click.echo(f"--primes entry {entry!r} is not a prime; refused", err=True)
        sys.exit(EXIT_REFUSED)
    return p


def _require_level(n):
    if n < 1:
        click.echo("level must be >= 1", err=True)
        sys.exit(EXIT_REFUSED)


def _is_squarefree(n):
    """is_squarefree(n), or exit refused when n cannot be factored."""
    try:
        return is_squarefree(n)
    except ArithmeticError as exc:
        click.echo(f"level {n}: {exc}; refused", err=True)
        sys.exit(EXIT_REFUSED)


def _require_squarefree(n):
    _require_level(n)
    if not _is_squarefree(n):
        click.echo(f"level {n} is not squarefree; refused", err=True)
        sys.exit(EXIT_REFUSED)


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.option("--cache-dir", default=None, help="cache directory "
              "(default ./.maninforge, env MANINFORGE_CACHE overrides)")
@click.pass_context
def main(ctx, cache_dir):
    """Exact invariants of weight-2 modular Jacobians."""
    ctx.ensure_object(dict)
    ctx.obj["cache"] = _cache_root(cache_dir)


def _cached_space(root, n):
    """The level-n space with the operators cached under root loaded."""
    space = build_space(n)
    _load_op_cache(space, root)
    return space


def _computed(n, compute, space=None, root=None):
    """compute(), with every pipeline failure at level n mapped to exit 2.

    An invariant violation (AssertionError) and a computation that could
    not finish (ValueError, ArithmeticError) each print one stderr line.
    The operators of space, when given, are saved under root either way.
    """
    try:
        return compute()
    except AssertionError as exc:
        click.echo(f"invariant violated: {exc}", err=True)
        sys.exit(EXIT_VIOLATION)
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"could not compute at level {n}: {exc}", err=True)
        sys.exit(EXIT_VIOLATION)
    finally:
        if space is not None:
            _save_op_cache(space, root)


@main.command("space")
@click.argument("n", type=int)
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def cmd_space(ctx, n, as_json):
    """Print the dimensions of the level-n modular symbol space."""
    _require_level(n)
    space = build_space(n)
    info = {
        "level": n,
        "p1_size": len(space.p1.points),
        "full_rank": space.rank,
        "cuspidal_rank": space.cuspidal_rank,
        "cusp_count": space.cusp_count,
    }
    if as_json:
        click.echo(json.dumps(info, indent=2))
    else:
        click.echo(f"level {n}: P^1 size {info['p1_size']}, "
                   f"full rank {info['full_rank']}, "
                   f"cuspidal rank {info['cuspidal_rank']}, "
                   f"{info['cusp_count']} cusps")


@main.command("decompose")
@click.argument("n", type=int)
@click.option("--json", "as_json", is_flag=True)
@click.option("--long-running", is_flag=True)
@click.pass_context
def cmd_decompose(ctx, n, as_json, long_running):
    """List the newform classes at squarefree level n."""
    _require_squarefree(n)
    _gate_long_running(n, long_running)
    root = ctx.obj["cache"]
    space = _cached_space(root, n)
    classes = _computed(n, lambda: inv.level_data(n).classes, space, root)
    out = [{"label": f"{cls.label[0]}.{cls.label[1]}", "dim": cls.dimension}
           for cls in classes]
    if as_json:
        click.echo(json.dumps({"level": n, "classes": out}, indent=2))
    else:
        if not out:
            click.echo(f"level {n}: no new classes")
        for rec in out:
            click.echo(f"{rec['label']}: dimension {rec['dim']}")


@main.command("invariants")
@click.argument("n", type=int)
@click.option("--json", "as_json", is_flag=True)
@click.option("--class", "class_index", type=int, default=None,
              help="restrict to one class index")
@click.option("--primes", default=None,
              help="comma-separated primes for local analysis")
@click.option("--long-running", is_flag=True)
@click.pass_context
def cmd_invariants(ctx, n, as_json, class_index, primes, long_running):
    """deg_f / cong_f report with local diagnostics at squarefree level n."""
    _require_squarefree(n)
    _gate_long_running(n, long_running)
    prime_list = None
    if primes:
        prime_list = sorted({_parse_prime(p) for p in primes.split(",")})
    root = ctx.obj["cache"]
    space = _cached_space(root, n)
    reports = _computed(n, lambda: inv.deg_cong_report(
        n, primes=prime_list, class_index=class_index), space, root)
    doc = inv.report_to_json(n, reports)
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        for rep in reports:
            click.echo(f"{rep.label[0]}.{rep.label[1]} (dim {rep.dimension}): "
                       f"deg = {rep.deg}, cong = {rep.cong}")
            for e in rep.primes:
                click.echo(f"  p={e['p']}: ord_deg={e['ord_deg']} "
                           f"ord_cong={e['ord_cong']} "
                           f"inferred_coker={e['inferred_coker']}")
            for e in rep.ideals:
                click.echo(f"  m | {e['p']} (f={e['residue_degree']}): "
                           f"gorenstein={e['gorenstein']} dvr={e['dvr']} "
                           f"u_p_sign={e['u_p_sign']} "
                           f"deg_m={e['deg_m']} cong_m={e['cong_m']}")


@main.command("certify")
@click.argument("n", type=int)
@click.option("--json", "as_json", is_flag=True)
@click.option("--long-running", is_flag=True)
@click.pass_context
def cmd_certify(ctx, n, as_json, long_running):
    """Check deg_f = cong_f prime-by-prime for dimension-1 classes."""
    _require_squarefree(n)
    _gate_long_running(n, long_running)
    root = ctx.obj["cache"]
    space = _cached_space(root, n)
    certs = _computed(n, lambda: inv.manin_certify(n), space, root)
    doc = {
        "level": n,
        "certificates": [
            {
                "label": f"{c.label[0]}.{c.label[1]}",
                "primes": [str(p) for p in c.checked_primes],
                "verdicts": {str(p): v for p, v in c.verdicts.items()},
                "pass": c.overall,
            }
            for c in certs
        ],
    }
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        for rec in doc["certificates"]:
            click.echo(f"{rec['label']}: {'pass' if rec['pass'] else 'FAIL'} "
                       f"(primes {', '.join(rec['primes']) or 'none'})")
    if any(not rec["pass"] for rec in doc["certificates"]):
        sys.exit(EXIT_VIOLATION)


def _scan_level(n, root):
    """anomaly_scan at level n, reading and filling the cache under root."""
    space = _cached_space(root, n)
    try:
        flagged = inv.anomaly_scan(n)
    finally:
        _save_op_cache(space, root)
    return [
        {
            "label": f"{a['label'][0]}.{a['label'][1]}",
            "ideals": [
                {
                    "p": str(rec["p"]),
                    "residue_degree": rec["residue_degree"],
                    "gorenstein": rec["gorenstein"],
                    "dvr": rec["dvr"],
                }
                for rec in a["ideals"]
            ],
        }
        for a in flagged
    ]


@main.command("scan")
@click.argument("n_min", type=int)
@click.argument("n_max", type=int)
@click.option("--json", "as_json", is_flag=True)
@click.option("--long-running", is_flag=True)
@click.option("--threads", type=int, default=1)
@click.pass_context
def cmd_scan(ctx, n_min, n_max, as_json, long_running, threads):
    """Scan squarefree levels for classes with a deg/cong mismatch at 2."""
    _require_level(n_min)
    levels = [n for n in range(n_min, n_max + 1) if _is_squarefree(n)]
    for n in levels:
        _gate_long_running(n, long_running)
    root = ctx.obj["cache"]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_scan_level, n, root) for n in levels]
        scans = [fut.result for fut in futures]
    else:
        scans = [partial(_scan_level, n, root) for n in levels]
    results = {n: _computed(n, scan) for n, scan in zip(levels, scans)}
    doc = {
        "range": [n_min, n_max],
        "anomalies": [
            {"level": n, "classes": res} for n, res in results.items() if res
        ],
    }
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        if not doc["anomalies"]:
            click.echo(f"no anomalies in [{n_min}, {n_max}]")
        for entry in doc["anomalies"]:
            for rec in entry["classes"]:
                click.echo(f"level {entry['level']}: class {rec['label']} "
                           "has a deg/cong mismatch at 2")


if __name__ == "__main__":
    main()
