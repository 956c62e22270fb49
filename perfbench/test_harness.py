"""Self-tests of the benchmark harness (not of the program).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from repro import DataTuple  # noqa: E402

from perfbench import run, spans  # noqa: E402
from perfbench.oracle import Oracle  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    RoundResult,
    latency_from_due,
    send_open_loop,
    tails,
)


def _stream(n):
    return [DataTuple(key=i % 17, ts=float(i), payload=i) for i in range(n)]


# --- oracle ------------------------------------------------------------------

def test_oracle_accepts_exact_result():
    oracle = Oracle()
    data = _stream(200)
    oracle.acknowledge(data)
    got = [t for t in data if 3 <= t.key <= 5 and 10.0 <= t.ts <= 150.0]
    assert not oracle.check(got, 3, 5, 10.0, 150.0)


def test_oracle_flags_one_dropped_tuple():
    oracle = Oracle()
    data = _stream(200)
    oracle.acknowledge(data)
    got = [t for t in data if 3 <= t.key <= 5 and 10.0 <= t.ts <= 150.0]
    mismatch = oracle.check(got[1:], 3, 5, 10.0, 150.0)
    assert (mismatch.lost, mismatch.duplicated, mismatch.spurious) == (1, 0, 0)


def test_oracle_flags_one_duplicated_tuple():
    oracle = Oracle()
    data = _stream(200)
    oracle.acknowledge(data)
    got = [t for t in data if 3 <= t.key <= 5 and 10.0 <= t.ts <= 150.0]
    mismatch = oracle.check(got + got[:1], 3, 5, 10.0, 150.0)
    assert (mismatch.lost, mismatch.duplicated, mismatch.spurious) == (0, 1, 0)


def test_oracle_ignores_unacknowledged_tuples():
    oracle = Oracle()
    data = _stream(100)
    oracle.acknowledge(data[:50])
    mismatch = oracle.check(data, 0, 16, 0.0, 99.0)
    assert mismatch.spurious == 50 and mismatch.lost == 0


def test_oracle_handles_out_of_order_acknowledgement():
    oracle = Oracle()
    data = _stream(60)
    oracle.acknowledge(data[30:])
    oracle.acknowledge(data[:30])
    assert not oracle.check(data, 0, 16, 0.0, 59.0)
    assert oracle.time_span() == (0.0, 59.0)


# --- tail rule ------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(20, 50), (100, 90), (108, 90), (150, 93), (200, 95), (300, 96), (1000, 99), (1875, 99)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p < 99:
        assert n * (100 - p) / 100 >= 10
        assert n * (100 - (p + 1)) / 100 < 10 or p == 50


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 90) == 5.0


def test_spec_records_the_tails_the_code_uses():
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as fh:
        spec = json.load(fh)
    for name, cls in WORKLOADS.items():
        assert spec["workloads"][name]["tails"] == tails(cls)


# --- spans ----------------------------------------------------------------------

def _span(i, parent, start, end, thread="MainThread", layer="x"):
    return {
        "kind": "span", "id": i, "parent": parent, "name": f"s{i}", "layer": layer,
        "start": start, "end": end, "request": None, "thread": thread,
        "round": 1, "phase": "run",
    }


def test_self_time_on_nested_tree():
    #   1 [0, 10]
    #   +- 2 [1, 4]
    #   |  +- 4 [2, 3]
    #   +- 3 [5, 9]
    tree = [
        _span(4, 2, 2.0, 3.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 9.0),
        _span(1, None, 0.0, 10.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    assert sum(selfs.values()) == 10.0


def test_round_ledger_reconciles_with_wall_time():
    records = [
        _span(2, 1, 1.0, 4.0, layer="btree"),
        _span(1, None, 0.5, 5.0, layer="system"),
        _span(3, None, 5.0, 7.9, layer="harness"),
        _span(5, None, 2.0, 3.0, thread="worker", layer="dfs"),
        {"kind": "phase", "name": "run", "start": 0.0, "end": 8.0, "round": 1, "thread": "MainThread"},
    ]
    ledger = spans.round_ledger(records, 1, "MainThread")
    assert ledger["by_layer"] == pytest.approx({"btree": 3.0, "system": 1.5, "harness": 2.9})
    assert ledger["unattributed_s"] == pytest.approx(8.0 - 7.4)
    assert ledger["self_sum_s"] + ledger["unattributed_s"] == pytest.approx(ledger["wall_s"])
    assert ledger["threads"]["worker"]["remainder_s"] == pytest.approx(7.0)
    # 0.6 s of the 8 s run phase is outside every span: within 10 %, not 5 %.
    assert run.reconciles(ledger, 8.0, 0.10)
    assert not run.reconciles(ledger, 8.0, 0.05)
    # Work the spans miss shows against the separately timed wall time.
    assert not run.reconciles(ledger, 9.0, 0.10)


def test_tracer_nests_spans_and_writes_json_lines(tmp_path):
    tracer = spans.Tracer()
    tracer.phase = "run"
    tracer.set_request("batch:0")
    outer = tracer.open("a.outer", "a")
    inner = tracer.open("b.inner", "b", request="ignored:inherited")
    tracer.close(inner)
    tracer.close(outer)
    path = str(tmp_path / "t.jsonl")
    tracer.write(path)
    back = spans.load(path)
    assert [r["name"] for r in back] == ["b.inner", "a.outer"]
    assert back[0]["parent"] == back[1]["id"]
    assert {r["request"] for r in back} == {"batch:0"}


def test_hooks_install_and_restore():
    from repro.core.indexing_server import IndexingServer
    import repro.core.indexing_server as indexing_module

    before = (IndexingServer.ingest_run, indexing_module.serialize_chunk)
    restore = spans.install(spans.Tracer())
    try:
        assert IndexingServer.ingest_run is not before[0]
        assert indexing_module.serialize_chunk is not before[1]
    finally:
        restore()
    assert (IndexingServer.ingest_run, indexing_module.serialize_chunk) == before


def _rounds(workload, n=3):
    out = []
    for r in range(n):
        res = RoundResult(setup_s=[0.01 + r], tuples=1000, recover_s=[0.5, 0.4 + r])
        res.batch_lat = [0.001 * (i + r) for i in range(workload.batch_samples // workload.inputs)]
        res.query_lat = [0.002 * (i + r) for i in range(workload.query_samples // workload.inputs)]
        out.append(res)
    return out


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for cls in WORKLOADS.values():
        printed = set(run.end_to_end(_rounds(cls), cls))
        assert {m["name"] for m in bench["end_to_end"]} == printed
    ledger = {
        "by_name": {}, "gauges": {}, "by_layer": {}, "detect_s": 0.0,
        "wall_s": 1.0, "unattributed_s": 1.0, "spans": 0,
    }
    printed = set(run.layer_metrics(ledger)) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == printed
    for name, workload in spec["workloads"].items():
        assert set(workload["layer_to_e2e"]) <= printed, name
    units = run.metric_units(bench)
    assert units["ingest_tps"] == "1/s" and units["dfs.get_ranges.calls"] == "count"


def test_round_counts_are_fixed_and_recorded():
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as fh:
        spec = json.load(fh)
    for name, cls in WORKLOADS.items():
        assert spec["workloads"][name]["rounds"] == cls.rounds
        assert spec["workloads"][name].get("inputs", 1) == cls.inputs
        assert run.rounds_for(cls, 30, 30) == cls.rounds
        assert run.rounds_for(cls, 1, 30) == 2


def test_closed_loop_takes_each_operations_fastest_repetition():
    cls = WORKLOADS["mixed_small"]
    m = run.end_to_end(_rounds(cls), cls)
    # Round 0 holds every operation's fastest repetition.
    assert m["ingest_batch_p50_ms"] == pytest.approx(1e3 * percentile(
        [0.001 * i for i in range(cls.batch_samples)], 50))
    assert m["recover_s"] == pytest.approx(0.45)  # servers 0 and 1: fastest 0.5 and 0.4
    assert m["setup_s"] == pytest.approx(1.01)


def test_inputs_pool_their_operations():
    cls = WORKLOADS["ingest_16m"]
    rounds = _rounds(cls, n=2 * cls.inputs)
    for i, res in enumerate(rounds):
        res.input_no = i % cls.inputs
    m = run.end_to_end(rounds, cls)
    # Input j ran rounds j and j + inputs; round j holds its fastest
    # repetitions, and the tail is taken over every input's operations.
    firsts = rounds[: cls.inputs]
    pooled = [x for r in firsts for x in r.batch_lat]
    assert len(pooled) == cls.batch_samples
    assert m["ingest_batch_tail_ms"] == pytest.approx(
        1e3 * percentile(pooled, tails(cls)["batch_tail"]))
    assert m["ingest_tps"] == pytest.approx(cls.inputs * 1000 / sum(pooled))
    assert m["recover_s"] == pytest.approx(
        sum(percentile(r.recover_s, 50) for r in firsts) / cls.inputs)
    assert m["setup_s"] == pytest.approx(percentile([r.setup_s[0] for r in rounds], 50))


def test_open_loop_reports_a_tail_within_one_round():
    cls = WORKLOADS["scan_io"]
    rounds = _rounds(cls)
    # Round 1 is the least disturbed, but round 2 holds the lowest
    # latency of the operations round 1 is slowest on: a per-operation
    # minimum would mix the two rounds.
    rounds[0].query_lat = [x + 1.0 for x in rounds[0].query_lat]
    rounds[2].query_lat = [x + 0.05 for x in rounds[1].query_lat[:-10]] + [0.0] * 10
    m = run.end_to_end(rounds, cls)
    tail = tails(cls)["query_tail"]
    assert m["query_tail_ms"] == pytest.approx(1e3 * percentile(rounds[1].query_lat, tail))
    assert m["query_p50_ms"] == pytest.approx(1e3 * percentile(rounds[1].query_lat, 50))


# --- open loop ----------------------------------------------------------------------

class _FakeTicket:
    def __init__(self, submitted_at, latency):
        self.submitted_at = submitted_at
        self.latency = latency


def test_late_open_loop_query_is_timed_from_its_due_time():
    clock = {"now": 100.0}

    def now():
        return clock["now"]

    def sleep(secs):
        clock["now"] += secs

    def submit(i, spec):
        ticket = _FakeTicket(now(), 0.010)
        if i == 0:
            clock["now"] += 0.5  # the generator stalls after the first send
        return ticket

    sent, lateness = send_open_loop(["q0", "q1", "q2"], 10.0, submit, now, sleep)
    dues = [due for due, _spec, _ticket in sent]
    assert dues == pytest.approx([100.1, 100.2, 100.3])
    assert lateness == pytest.approx([0.0, 0.4, 0.3])
    measured = [latency_from_due(due, ticket) for due, _spec, ticket in sent]
    # Sent 0.4 s late and served in 10 ms: 0.41 s from its due time.
    assert measured == pytest.approx([0.010, 0.410, 0.310])
