"""Exporter contracts: JSONL schema v1 lock, Chrome trace, report CLI.

The JSONL span/metric schema is **v1 and locked**: the exact header
keys, span-record field set and metric-record keys asserted here are a
compatibility contract (the same way ``tests/test_lint_cli.py`` locks
the lint JSON schema).  Changing any of them requires bumping
``repro.obs.export.SCHEMA_VERSION`` and updating this file in the same
commit.
"""

import json

import pytest

from repro import obs
from repro.content.keywords import Keyword
from repro.measure.driver import run_dataset_a
from repro.obs.export import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SPAN_FIELDS,
    chrome_trace_events,
    flatten_spans,
    jsonl_lines,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.testbed.scenario import Scenario, ScenarioConfig


@pytest.fixture(autouse=True)
def _obs_isolation():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def capture():
    """One small traced campaign shared by every test in this file."""
    obs.disable()
    obs.reset()
    obs.enable()
    scenario = Scenario(ScenarioConfig(seed=11, vantage_count=3,
                                       keyed_service_draws=True,
                                       deterministic_services=True))
    keyword = Keyword(text="export schema", popularity=0.6,
                      complexity=0.5)
    dataset = run_dataset_a(scenario, [keyword], repeats=2, interval=4.0,
                            services=[Scenario.GOOGLE])
    trace = dataset.trace
    snapshot = dataset.obs_metrics
    obs.disable()
    obs.reset()
    return trace, snapshot


# ---------------------------------------------------------------------------
# JSONL schema v1 lock
# ---------------------------------------------------------------------------
def test_jsonl_header_is_schema_v1(capture, tmp_path):
    trace, snapshot = capture
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, trace, snapshot)
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header == {
        "kind": "header",
        "schema": "repro.obs",
        "version": 1,
        "span_count": header["span_count"],
        "metric_count": header["metric_count"],
    }
    assert set(header) == {"kind", "schema", "version", "span_count",
                           "metric_count"}
    assert (SCHEMA_NAME, SCHEMA_VERSION) == ("repro.obs", 1)
    assert header["span_count"] > len(trace)      # children flattened in
    assert header["metric_count"] > 0


def test_jsonl_span_records_carry_exactly_the_locked_fields(capture):
    trace, snapshot = capture
    lines = jsonl_lines(trace, snapshot)
    spans = [json.loads(line) for line in lines[1:]
             if json.loads(line)["kind"] == "span"]
    assert spans
    for record in spans:
        assert tuple(sorted(record)) == tuple(sorted(SPAN_FIELDS))
    # Dense DFS-preorder ids with valid parent pointers.
    assert [record["id"] for record in spans] == list(range(len(spans)))
    for record in spans:
        if record["parent"] is not None:
            assert 0 <= record["parent"] < record["id"]
    roots = [record for record in spans if record["parent"] is None]
    assert len(roots) == len(trace)
    assert all(record["name"] == "session" for record in roots)


def test_jsonl_metric_records_schema(capture):
    trace, snapshot = capture
    records = snapshot.as_records()
    assert records
    for record in records:
        assert record["kind"] == "metric"
        if record["type"] in ("counter", "gauge"):
            assert set(record) == {"kind", "type", "name", "scope",
                                   "value"}
        else:
            assert record["type"] == "histogram"
            assert set(record) == {"kind", "type", "name", "scope",
                                   "count", "sum", "min", "max",
                                   "bounds", "counts"}
    # Deterministic order: sorted by name within each type group.
    by_type = {}
    for record in records:
        by_type.setdefault(record["type"], []).append(record["name"])
    for names in by_type.values():
        assert names == sorted(names)
    assert "campaign.sessions.completed" in by_type["counter"]


def test_jsonl_round_trips_and_rejects_foreign_files(capture, tmp_path):
    trace, snapshot = capture
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, trace, snapshot)
    payload = read_jsonl(path)
    assert payload["header"]["span_count"] == len(payload["spans"])
    assert payload["header"]["metric_count"] == len(payload["metrics"])
    assert payload["spans"] == flatten_spans(trace)

    headerless = str(tmp_path / "other.jsonl")
    with open(headerless, "w", encoding="utf-8") as handle:
        handle.write('{"kind":"span"}\n')
    with pytest.raises(ValueError, match="no header"):
        read_jsonl(headerless)

    future = str(tmp_path / "future.jsonl")
    with open(future, "w", encoding="utf-8") as handle:
        handle.write('{"kind":"header","schema":"repro.obs",'
                     '"version":99,"span_count":0,"metric_count":0}\n')
    with pytest.raises(ValueError, match="unsupported schema"):
        read_jsonl(future)


def test_jsonl_export_is_byte_deterministic(capture, tmp_path):
    trace, snapshot = capture
    first = "\n".join(jsonl_lines(trace, snapshot))
    second = "\n".join(jsonl_lines(trace, snapshot))
    assert first == second


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------
def test_chrome_trace_is_structurally_valid(capture, tmp_path):
    trace, snapshot = capture
    path = str(tmp_path / "chrome.json")
    write_chrome_trace(path, trace)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert set(payload) == {"traceEvents", "displayTimeUnit"}
    events = payload["traceEvents"]
    assert events == chrome_trace_events(trace)

    by_phase = {}
    for event in events:
        by_phase.setdefault(event["ph"], []).append(event)
    # Metadata: one process name + one thread per vantage point.
    meta = by_phase["M"]
    assert meta[0]["args"]["name"] == "repro simulated campaign"
    thread_tids = sorted(e["tid"] for e in meta if e["name"] ==
                         "thread_name")
    assert thread_tids == list(range(1, len(thread_tids) + 1))
    # Complete events cover every span; durations are non-negative µs.
    assert len(by_phase["X"]) == len(flatten_spans(trace))
    for event in by_phase["X"]:
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["tid"] in thread_tids
    # Instant events mark the packet landmarks on the session threads.
    landmark_names = {e["name"] for e in by_phase["i"]}
    assert {"tb", "t1", "t2", "t3", "te"} <= landmark_names
    assert all(e["s"] == "t" for e in by_phase["i"])


# ---------------------------------------------------------------------------
# `repro report` CLI
# ---------------------------------------------------------------------------
def test_report_cli_summarizes_an_export(capture, tmp_path, capsys):
    from repro.__main__ import main
    trace, snapshot = capture
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, trace, snapshot)
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    assert "schema repro.obs v1" in out
    assert "session" in out
    assert "campaign.sessions.completed" in out


def test_cli_trace_exports_each_session_once(tmp_path, capsys, monkeypatch):
    # An inline experiment records its spans live and also hands them
    # back as its payload; main() must roll the live copy back before
    # absorbing the payload, or every session is exported twice.
    from repro.__main__ import main
    # main() sets REPRO_TRACE only when it is unset; a falsy value
    # keeps its switch from leaking into later tests.
    monkeypatch.setenv("REPRO_TRACE", "0")
    path = str(tmp_path / "trace.jsonl")
    assert main(["fig5", "--scale", "tiny", "--seed", "1",
                 "--trace", path]) == 0
    capsys.readouterr()
    sessions = [(span["start"], json.dumps(span["attrs"], sort_keys=True))
                for span in read_jsonl(path)["spans"]
                if span["name"] == "session"]
    assert sessions and len(set(sessions)) == len(sessions)


def test_report_cli_fails_cleanly_on_bad_input(tmp_path, capsys):
    from repro.__main__ import main
    missing = str(tmp_path / "does-not-exist.jsonl")
    assert main(["report", missing]) == 2
    assert "repro report:" in capsys.readouterr().out
