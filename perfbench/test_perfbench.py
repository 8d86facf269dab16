"""Fast tests of the benchmark's oracle and of its span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import pytest

import oracle
import run
import tracer


@pytest.mark.parametrize("n, g", [(1, 0), (11, 1), (23, 2), (24, 1), (36, 1),
                                  (37, 2), (60, 7), (100, 7), (431, 36)])
def test_genus_of_x0(n, g):
    assert oracle.genus(n) == g


@pytest.mark.parametrize("n, c", [(1, 1), (11, 2), (30, 8), (36, 12), (49, 8)])
def test_cusp_count(n, c):
    assert oracle.cusp_count(n) == c


@pytest.mark.parametrize("n, d", [(11, 1), (22, 0), (30, 1), (37, 2),
                                  (57, 3), (431, 36)])
def test_new_dimension(n, d):
    # 22 = 2 * 11 has only the two oldforms from 11; 57 has three elliptic
    # curves and no higher-dimensional newform
    assert oracle.new_dimension(n) == d


def test_new_dimension_refuses_square_levels():
    with pytest.raises(ValueError):
        oracle.new_dimension(50)


def test_level_431_headline_values():
    v = oracle.LEVEL_431
    assert sum(v["class_dimensions"]) == oracle.new_dimension(431)
    assert v["deg"] == 14227456 and v["cong"] == 7113728
    assert oracle.ord_p(v["deg"], 2) == oracle.ord_p(v["cong"], 2) + 1


def _span(name, start, end, parent=None, request="r", tags=()):
    return [name, start, end, parent, request, set(tags)]


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span("invariants.deg_cong_report", 0.0, 10.0),
        _span("modsym.hecke", 1.0, 4.0, 0),
        _span("modsym.hecke", 3.0, 6.0, 0),  # overlaps its sibling
        _span("exact_linalg.snf", 8.0, 12.0, 0),  # runs past its parent
        _span("exact_linalg.kernel_saturated", 2.0, 3.0, 1),
    ]
    # the root loses [1, 6] and [8, 10]; the first child loses [2, 3]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    m = tracer.layer_metrics(spans, {})
    assert m["modsym.hecke_s"] == (pytest.approx(5.0), "s")
    assert m["exact_linalg.kernel_saturated_calls"] == (1, "count")
    assert m["invariants.self_s"] == (pytest.approx(3.0), "s")
    assert m["invariants.deg_cong_report_s"] == (pytest.approx(10.0), "s")


def test_inclusive_time_counts_nested_calls_once():
    spans = [
        _span("invariants.level_data", 0.0, 5.0),
        _span("invariants.level_data", 1.0, 2.0, 0),
        _span("modsym.build_space", 2.0, 3.0, 0),
        _span("invariants.level_data", 2.5, 2.75, 2),
        _span("invariants.level_data", 6.0, 7.0),
    ]
    assert tracer.outer_durations(spans, "invariants.level_data") == pytest.approx(6.0)


def test_cache_hit_ratio_over_warm_operator_requests():
    spans = [
        _span("modsym.hecke", 0, 1, request="certify:66:cold", tags={"computed"}),
        _span("modsym.hecke", 1, 2, request="certify:66:warm", tags={"from_artifact"}),
        _span("modsym.atkin_lehner", 2, 3, request="certify:66:warm"),
        _span("modsym.hecke", 3, 4, request="decompose:66:warm", tags={"computed"}),
    ]
    warm = {"certify:66:warm", "decompose:66:warm"}
    m = tracer.layer_metrics(spans, {}, warm)
    assert m["cli.warm_operator_requests"] == (3, "count")
    assert m["cli.cache_hit_ratio"][0] == pytest.approx(1 / 3)
    assert m["cli.certify_cache_hit_ratio"][0] == pytest.approx(1 / 2)
    assert m["cli.decompose_cache_hit_ratio"][0] == 0.0
    assert m["modsym.hecke_computed_calls"] == (2, "count")
    assert m["modsym.warm_hecke_computed_calls"] == (1, "count")


def test_tail_percentile_leaves_ten_samples_above():
    lat = [float(i) for i in range(1, 61)]  # 60 requests in one round
    q, value = run.tail(lat, 60)
    assert q == 83 and sum(x > value for x in lat) >= 10
    q, value = run.tail(lat[:30], 30)
    assert q == 50 and value == 15.5


def test_benchmark_json_lists_every_reported_layer_metric():
    import json
    import os

    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = tracer.layer_metrics([], {}, set())
    reported["trace.overhead_pct"] = (0.0, "%")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: unit for k, (_v, unit) in reported.items()}
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
