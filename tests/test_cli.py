"""Tests for the command-line interface and its cache."""

import json
import os

import pytest
from click.testing import CliRunner

from maninforge import invariants as inv
from maninforge.cli import (
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_VIOLATION,
    _cuspidal_rank_estimate,
    _read_artifact,
    _write_artifact,
    main,
)


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("MANINFORGE_CACHE", str(tmp_path / "cache"))
    return CliRunner()


def test_space_command(runner):
    res = runner.invoke(main, ["space", "11"])
    assert res.exit_code == EXIT_OK
    assert "cuspidal rank 2" in res.output
    res = runner.invoke(main, ["space", "13"])
    assert "cuspidal rank 0" in res.output
    res = runner.invoke(main, ["space", "1"])
    assert "cuspidal rank 0" in res.output


def test_space_json(runner):
    res = runner.invoke(main, ["space", "26", "--json"])
    doc = json.loads(res.output)
    assert doc == {
        "level": 26,
        "p1_size": 42,
        "full_rank": 7,  # 2g + (cusps - 1)
        "cuspidal_rank": 4,
        "cusp_count": 4,
    }


def test_decompose_command(runner):
    res = runner.invoke(main, ["decompose", "11"])
    assert res.exit_code == EXIT_OK
    assert res.output.strip() == "11.0: dimension 1"
    res = runner.invoke(main, ["decompose", "12"])
    assert res.exit_code == EXIT_REFUSED


def test_invariants_command_json(runner):
    res = runner.invoke(main, ["invariants", "11", "--json"])
    assert res.exit_code == EXIT_OK
    doc = json.loads(res.output)
    assert doc["classes"][0]["deg"] == "1"
    assert doc["classes"][0]["cong"] == "1"


def test_invariants_flags(runner):
    res = runner.invoke(
        main, ["invariants", "57", "--json", "--class", "1", "--primes", "3"]
    )
    assert res.exit_code == EXIT_OK
    doc = json.loads(res.output)
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["label"] == "57.1"
    assert all(e["p"] == "3" for e in doc["classes"][0]["ideals"])


@pytest.mark.parametrize("primes, entry", [
    ("x", "'x'"), ("3,,5", "''"), ("4", "'4'"), ("3,561", "'561'"),
    ("2047", "'2047'"), ("3215031751", "'3215031751'"),
    ("3825123056546413051", "'3825123056546413051'"),
    ("318665857834031151167461", "'318665857834031151167461'")])
def test_invariants_refuses_a_bad_primes_entry(runner, primes, entry):
    res = runner.invoke(main, ["invariants", "11", "--primes", primes])
    assert res.exit_code == EXIT_REFUSED
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip().splitlines() == [
        f"--primes entry {entry} is not a prime; refused"]


def test_invariants_refuses_a_primes_entry_past_the_test_bound(runner):
    from maninforge.modsym import MR_BOUND

    res = runner.invoke(main, ["invariants", "11", "--primes",
                               f"5,{MR_BOUND + 2}"])
    assert res.exit_code == EXIT_REFUSED
    assert res.output.strip().splitlines() == [
        f"--primes entry '{MR_BOUND + 2}' is too large to test "
        f"(limit {MR_BOUND}); refused"]


@pytest.mark.parametrize("command", ["invariants", "scan"])
def test_level_that_cannot_be_factored_is_refused(runner, command):
    from maninforge.modsym import MR_BOUND

    # MR_BOUND is the product of two primes above 2^40
    level = str(MR_BOUND)
    res = runner.invoke(main, [command, level] + [level] * (command == "scan"))
    assert res.exit_code == EXIT_REFUSED
    assert res.output.strip().endswith("; refused")


def test_invariants_accepts_large_primes(runner):
    # primality is decided by Miller-Rabin, not by trial division up to sqrt
    res = runner.invoke(main, ["invariants", "11", "--json", "--primes",
                               "100000000000031,9999999999999999961"])
    assert res.exit_code == EXIT_OK
    doc = json.loads(res.output)
    assert [c["label"] for c in doc["classes"]] == ["11.0"]


def test_certify_and_scan(runner):
    res = runner.invoke(main, ["certify", "37"])
    assert res.exit_code == EXIT_OK
    assert "pass" in res.output
    res = runner.invoke(main, ["scan", "11", "30"])
    assert res.exit_code == EXIT_OK
    assert "no anomalies" in res.output


@pytest.mark.parametrize("args", [
    ["space", "0"], ["decompose", "0"], ["certify", "0"],
    ["invariants", "0"], ["scan", "0", "3"], ["scan", "--", "-4", "3"]])
def test_level_below_one_is_refused(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == EXIT_REFUSED
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip().splitlines() == ["level must be >= 1"]


@pytest.mark.parametrize("args, stage", [
    (["decompose", "11"], "level_data"),
    (["invariants", "11"], "deg_cong_report"),
    (["certify", "11"], "manin_certify"),
    (["scan", "11", "11"], "anomaly_scan"),
    # a computation that cannot finish (a ValueError from the pipeline)
    pytest.param(["invariants", "11"], ("deg_cong_report", ValueError),
                 id="args4-could-not-compute")])
def test_invariant_violation_exits_2(runner, monkeypatch, args, stage):
    from maninforge.exact_linalg import InvariantViolation

    stage, error = stage if isinstance(stage, tuple) else (
        stage, InvariantViolation)

    def violated(*_args, **_kwargs):
        raise error("planted violation")

    monkeypatch.setattr(inv, stage, violated)
    res = runner.invoke(main, args)
    assert res.exit_code == EXIT_VIOLATION
    assert res.exception is None or isinstance(res.exception, SystemExit)
    want = ("invariant violated" if error is InvariantViolation
            else "could not compute at level 11")
    assert res.output.strip().splitlines() == [f"{want}: planted violation"]


def test_long_running_gate(runner):
    res = runner.invoke(main, ["invariants", "2089"])
    assert res.exit_code == EXIT_REFUSED
    assert "--long-running" in res.output


def test_rank_estimate_matches_spaces():
    from maninforge.modsym import build_space

    for n in [1, 11, 26, 37, 57, 60]:
        assert _cuspidal_rank_estimate(n) == build_space(n).cuspidal_rank


def test_cache_roundtrip_and_corruption(tmp_path):
    root = str(tmp_path)
    _write_artifact(root, 11, "op_test", "2 2\n1 0 0 1\n")
    assert _read_artifact(root, 11, "op_test") == "2 2\n1 0 0 1\n"
    # corrupt the payload: the hash check must reject it
    path = os.path.join(root, "11", "op_test.v1.txt")
    with open(path, "w") as fh:
        fh.write("2 2\n9 9 9 9\n")
    assert _read_artifact(root, 11, "op_test") is None
    assert _read_artifact(root, 11, "missing") is None


def test_cache_warm_run_is_bit_identical(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("MANINFORGE_CACHE", str(tmp_path / "c2"))
    first = runner.invoke(main, ["invariants", "26", "--json"])
    assert first.exit_code == EXIT_OK
    second = runner.invoke(main, ["invariants", "26", "--json"])
    assert second.output == first.output


def test_decompose_warm_cache_computes_no_operator(tmp_path, monkeypatch):
    from maninforge import invariants as inv
    from maninforge.modsym import ModSymSpace, build_space

    args = ["--cache-dir", str(tmp_path / "c3"), "decompose", "66", "--json"]
    build_space.cache_clear()
    inv.level_data.cache_clear()
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == EXIT_OK
    build_space.cache_clear()
    inv.level_data.cache_clear()
    calls = []
    compute = ModSymSpace.operator_from_images

    def counted(space, image_fn):
        calls.append(space.n)
        return compute(space, image_fn)

    monkeypatch.setattr(ModSymSpace, "operator_from_images", counted)
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == EXIT_OK
    assert calls == []
    assert warm.stdout_bytes == cold.stdout_bytes


def test_cache_written_in_another_basis_is_recomputed(tmp_path, monkeypatch):
    # op_index starts with the digest of the cuspidal basis its matrices are
    # written in; under another digest nothing is loaded, not even a matrix
    # of the right shape with a valid sidecar
    from maninforge import invariants as inv
    from maninforge.exact_linalg import IntMatrix
    from maninforge.modsym import ModSymSpace, build_space

    root = str(tmp_path / "c5")
    args = ["--cache-dir", root, "decompose", "66", "--json"]
    calls = []
    compute = ModSymSpace.operator_from_images

    def counted(space, image_fn):
        calls.append(space.n)
        return compute(space, image_fn)

    monkeypatch.setattr(ModSymSpace, "operator_from_images", counted)
    build_space.cache_clear()
    inv.level_data.cache_clear()
    cold = CliRunner().invoke(main, args)
    assert cold.exit_code == EXIT_OK
    cold_calls, calls[:] = list(calls), []
    _digest, _, names = _read_artifact(root, 66, "op_index").partition("\n")
    assert "T_5" in names.split()
    _write_artifact(root, 66, "op_index", "0" * 64 + "\n" + names)
    t5 = IntMatrix.from_text(_read_artifact(root, 66, "op_T_5"))
    wrong = t5.scale(-1)
    _write_artifact(root, 66, "op_T_5", wrong.to_text())

    build_space.cache_clear()
    inv.level_data.cache_clear()
    warm = CliRunner().invoke(main, args)
    assert warm.exit_code == EXIT_OK
    assert calls == cold_calls
    assert build_space(66)._ops["T_5"].matrix == t5
    assert warm.stdout_bytes == cold.stdout_bytes


def test_parallel_scan_fills_the_cache(tmp_path):
    from maninforge.modsym import build_space, is_squarefree

    root = str(tmp_path / "c4")
    res = CliRunner().invoke(
        main, ["--cache-dir", root, "scan", "11", "30", "--threads", "2"])
    assert res.exit_code == EXIT_OK
    assert "no anomalies" in res.output
    scanned = [n for n in range(11, 31)
               if is_squarefree(n) and build_space(n).cuspidal_rank]
    assert scanned
    for n in scanned:
        assert _read_artifact(root, n, "op_index") is not None, n
