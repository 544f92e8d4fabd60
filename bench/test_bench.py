"""Tests of the benchmark itself: deterministic inputs, checks that catch a
wrong route, the pinned instance counts, the tracer, and agreement between
the code and BENCHMARK.json."""

import json
import time
from pathlib import Path

import hostclock
import ops
import run
import spans
from pathpairs import formulas, oracle

ROOT = Path(__file__).resolve().parent.parent


def test_query_stream_is_deterministic_per_seed():
    first = [argv for argv, _ in ops.query_stream(7, 3)]
    again = [argv for argv, _ in ops.query_stream(7, 3)]
    other = [argv for argv, _ in ops.query_stream(8, 3)]
    assert first == again
    assert first != other
    assert len(first) == 280
    assert len({tuple(argv) for argv in first}) == 280  # whole answers never repeat


def test_large_jobs_are_deterministic_per_seed():
    labels = [op.label for op in ops.large_jobs(11, 0)]
    assert labels == [op.label for op in ops.large_jobs(11, 0)]
    assert labels != [op.label for op in ops.large_jobs(12, 0)]
    assert len(labels) == 14


def _cheap_ops(pattern):
    chosen = [(argv, check) for argv, check in ops.query_stream(1, 0) if pattern in argv]
    return [
        ops.Op(" ".join(argv), (lambda argv=argv: ops.run_cli(argv)), ops._cli_check(check), ops._cli_digest)
        for argv, check in chosen
        if int(argv[argv.index("--n") + 1]) <= 300
    ]


def test_unpatched_routes_pass_their_checks():
    report = ops.serve(_cheap_ops("formula-a") + _cheap_ops("avg"))
    assert report.ops
    assert [op.failure for op in report.ops if op.failure] == []


def test_route_off_by_one_is_a_failed_op(monkeypatch):
    original = formulas.rect_pair_count_a
    monkeypatch.setattr(formulas, "rect_pair_count_a", lambda n, r, k: original(n, r, k) + 1)
    report = ops.serve(_cheap_ops("formula-a"))
    assert report.ops
    assert all(op.failure for op in report.ops)


def test_inconsistent_record_is_a_failed_op(monkeypatch):
    original = formulas.rect_pair_count_b
    monkeypatch.setattr(formulas, "rect_pair_count_b", lambda n, r, k: original(n, r, k) + 1)
    op = ops.Op("nkr all", lambda: ops.run_cli(["nkr", "--n", "6", "--r", "2", "--k", "1", "--method", "all"]),
                ops._cli_check(ops._q_nkr_all(6, 2, 1)[1]), ops._cli_digest)
    (record,) = ops.serve([op]).ops
    assert "consistency" in record.failure


def _rows(counts):
    return [{"check": s, "status": "pass", "instances": str(n), "first_failure": ""} for s, n in counts.items()]


def test_pinned_counts_pass_and_total():
    assert sum(ops.PINNED_SUITES.values()) == 21398
    assert ops.PINNED_SUITES["barrier"] == 12565
    assert set(ops.check_verify_records(0, _rows(ops.PINNED_SUITES)).values()) == {None}


def test_dropping_a_suite_fails_the_instance_check():
    counts = dict(ops.PINNED_SUITES)
    del counts["lagrange"]
    failures = ops.check_verify_records(0, _rows(counts))
    assert [s for s, f in failures.items() if f] == ["lagrange"]
    counts = dict(ops.PINNED_SUITES, barrier=12000)
    failures = ops.check_verify_records(0, _rows(counts))
    assert [s for s, f in failures.items() if f] == ["barrier"]


def test_tracer_times_layers_and_restores_modules():
    before = oracle.barrier_meet_prob
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        result = ops.run_cli(["barrier", "--a", "2", "--b", "1", "--x", "1", "--p", "1/3"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert oracle.barrier_meet_prob is before
    assert result.code == 0
    metrics = tracer.metrics(ops.PINNED_SUITES, 1.0, len(result.out))
    assert metrics["oracle.walker.calls"] == 2  # pair DP and single walker
    assert metrics["oracle.walker_steps"] == 2 * (2 + 1 + 1)
    assert metrics["oracle.walker.distinct_ratio"] == 1.0
    assert metrics["cli.build_parser.calls"] == 1
    assert metrics["cli.calls"] >= 4  # main, build_parser, cmd_barrier, emit, ...
    assert all(t >= 0 for t in tracer.self_times())
    assert abs(sum(tracer.self_times()) - (tracer.spans[0][2] - tracer.spans[0][1])) < 1e-6


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0, 10)
    assert run.tail([2.0, 1.0]) == (100.0, 2.0, 0)  # too few samples: the maximum


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NOMINAL_PASS_S) == list(ops.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics(ops.PINNED_SUITES)


def test_host_clock_leaves_out_sampling_and_scales_additively():
    clock = hostclock.HostClock()
    with clock:
        a = clock.now()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        b = clock.now()
    assert len(clock.slices) >= 2
    assert b - a < time.perf_counter() - t0  # slice time is not on the clock
    mid = (a + b) / 2
    assert clock.scaled(a, b) > 0
    assert abs(clock.scaled(a, mid) + clock.scaled(mid, b) - clock.scaled(a, b)) < 1e-9
    assert hostclock.PlainClock().scaled(a, b) == b - a
