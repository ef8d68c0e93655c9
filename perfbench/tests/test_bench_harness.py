"""Tests of the benchmark harness itself (no qkron work is timed here)."""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import common  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import ID, INFO, LEAF_S, NAME, OUTER, PARENT, T0, T1  # noqa: E402


# -- the tail percentile ---------------------------------------------------------------


def test_tail_percentile_is_p99_when_enough_samples():
    samples = list(range(1, 1501))          # 1500 requests: 15 samples beyond p99
    assert common.tail_percentile(samples) == (99, 1485)


def test_tail_percentile_backs_off_to_keep_ten_beyond():
    samples = list(range(1, 46))            # 45 samples: p99 would have none beyond
    p, value = common.tail_percentile(samples)
    assert p == 77 and value == 35
    assert sum(1 for s in samples if s > value) == 10
    # one percentile higher would leave fewer than ten beyond
    assert len(samples) - math.ceil(78 * len(samples) / 100) < 10


def test_tail_percentile_order_independent_and_slowest_when_too_few():
    assert common.tail_percentile([5, 1, 4, 2, 3] * 5) == (60, 3)
    # nine verify suites: not even the median has ten samples beyond it
    assert common.tail_percentile([3, 9, 1, 4, 7, 2, 8, 6, 5]) == (100, 9)


# -- the per-op estimator ----------------------------------------------------------


def test_best_op_s_takes_each_ops_fastest_repetition():
    reps = [{"op_s": [1.0, 5.0, 2.0]}, {"op_s": [0.5, 6.0, 3.0]}, {"op_s": [2.0, 4.5, 2.5]}]
    assert run.best_op_s(reps) == [0.5, 4.5, 2.0]


def test_median_op_s_takes_each_ops_median_repetition():
    reps = [{"op_norm_s": [1.0, 5.0]}, {"op_norm_s": [0.5, 6.0]}, {"op_norm_s": [2.0, 4.5]}]
    assert run.median_op_s(reps, "op_norm_s") == [1.0, 5.0]


# -- the host-speed probe ----------------------------------------------------------


def test_slowdown_is_harmonic_mean_probe_time_around_the_op_over_ref():
    r = probe.REF_S
    ends = [1.0, 1.1, 1.2, 1.3, 2.0]
    durations = [2 * r, 3 * r, 6 * r, 2 * r, 4 * r]
    # probes ending within MARGIN_S of [1.12, 1.21]: 1.1, 1.2 and 1.3
    assert probe.MARGIN_S == pytest.approx(0.1)
    assert probe.slowdown(ends, durations, 1.12, 1.21) == pytest.approx(3 / (1/3 + 1/6 + 1/2))
    # a long op takes every probe inside it: its work is its time times the
    # mean speed, 1 / slowdown
    mean_speed = (1/2 + 1/3 + 1/6 + 1/2 + 1/4) / 5
    assert probe.slowdown(ends, durations, 0.95, 2.05) == pytest.approx(1 / mean_speed)
    # none within the margin: the nearest probe on each side, 1.3 and 2.0
    assert probe.slowdown(ends, durations, 1.5, 1.6) == pytest.approx(2 / (1/2 + 1/4))


def test_probe_records_warm_passes_and_its_busy_time():
    p = probe.Probe()
    p._tick(None, None)
    p._tick(None, None)
    assert len(p.ends) == len(p.durations) == 2 and p.ends[0] <= p.ends[1]
    # busy time covers the untimed warm-up pass too
    assert p.busy_s > sum(p.durations) * probe.WARM_PASSES


# -- self time from nested spans -----------------------------------------------------------


def _span(sid, parent, name, t0, t1, leaf_s=0.0):
    return [sid, parent, name, t0, t1, None, leaf_s, True, None]


def test_self_times_subtract_children_and_leaves():
    # cli.main [0, 10] -> layer_table [1, 7] -> compute_layer [2, 6]
    #                                        -> check [3, 5], check [5.5, 6]
    recs = [_span(4, 3, "dcb.check", 3.0, 5.0),
            _span(5, 3, "dcb.check", 5.5, 6.0),
            _span(3, 2, "dcb.compute_layer", 2.0, 6.0, leaf_s=0.5),
            _span(2, 1, "dcb.layer_table", 1.0, 7.0),
            _span(1, 0, "cli.main", 0.0, 10.0, leaf_s=1.0)]
    selfs = spans.self_times(recs)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 0.5})


def test_self_times_of_recursive_b_element_spans():
    # b_element(3,0,0,3) -> b_element(3,0,0,2) -> b_element(2,0,0,2)
    recs = [_span(3, 2, "dcb.b_element", 2.0, 3.0, leaf_s=0.25),
            _span(2, 1, "dcb.b_element", 1.0, 4.0, leaf_s=1.0),
            _span(1, 0, "dcb.b_element", 0.0, 5.0)]
    selfs = spans.self_times(recs)
    assert selfs == pytest.approx({1: 2.0, 2: 1.0, 3: 0.75})
    assert sum(selfs.values()) + 1.25 == pytest.approx(5.0)


def test_tracer_nests_recursive_spans_and_leaves():
    tracer = spans.Tracer()
    mul = tracer.leaf("qarith.mul", lambda x, y: x * y)

    def fact(n):
        return 1 if n <= 1 else mul(n, traced(n - 1))

    traced = tracer.span("dcb.b_element", fact)
    assert traced(4) == 24
    recs = sorted(tracer.spans, key=lambda s: s[ID])
    assert [s[PARENT] for s in recs] == [0] + [s[ID] for s in recs[:-1]]
    assert [s[OUTER] for s in recs] == [True, False, False, False]
    assert all(s[NAME] == "dcb.b_element" and s[INFO] is None for s in recs)
    # three multiplications, each under the span that made it
    assert sum(rec[0] for rec in tracer.leaf_agg.values()) == 3
    assert {sid for sid, _op in tracer.leaf_agg} == {s[ID] for s in recs[:3]}
    selfs = spans.self_times(recs)
    assert min(selfs.values()) >= 0
    leaf = sum(s[LEAF_S] for s in recs)
    assert sum(selfs.values()) + leaf == pytest.approx(recs[0][T1] - recs[0][T0])


# -- the queries generator ---------------------------------------------------------


def test_queries_same_seed_same_list():
    assert common.generate_queries(7) == common.generate_queries(7)


def test_queries_different_seed_different_list():
    assert common.generate_queries(7) != common.generate_queries(8)


def test_queries_every_seed_sends_the_same_multiset():
    assert sorted(common.generate_queries(7)) == sorted(common.generate_queries(8))


def test_queries_follow_the_mix_and_index_the_pool():
    pool = common.flat_pool()
    reqs = common.generate_queries(3)
    assert len(reqs) == common.N_QUERIES
    counts = {}
    for idx, argv in reqs:
        cat, pooled = pool[idx]
        assert pooled == argv
        counts[cat] = counts.get(cat, 0) + 1
    assert counts == {cat: round(share * common.N_QUERIES)
                      for cat, share in common.QUERY_MIX}


# -- golden digests ----------------------------------------------------------------------


def test_perturbed_output_counts_as_failed():
    golden = common.load_golden("layers")
    record = common.Record()
    record.op("0,0,0,0", "1", golden)           # B[0,0,0,0] is the unit
    assert (record.attempted, record.failed) == (1, 0)
    record.op("0,0,0,0", "2", golden)           # a changed output
    record.op("0,0,0,0", None, golden)          # an op that raised
    record.op("9,9,9,9", "1", golden)           # an op with no golden entry
    assert (record.attempted, record.failed) == (4, 3)


def test_golden_covers_every_op():
    assert len(common.load_golden("queries")) == len(common.flat_pool())
    layers = common.load_golden("layers")
    assert set(layers) == {common.exp_key(a) for k in range(common.K_TOP + 1)
                           for a in common.layer_exponents(k)}
    assert set(common.load_golden("verify")) == set(common.SUITES)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_names()
