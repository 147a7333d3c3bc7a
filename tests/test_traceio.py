"""Tests for trace serialization (save/load query sessions)."""

import io
import json

import pytest

from repro.analysis.boundary import BoundaryCalibration
from repro.content.keywords import Keyword
from repro.core.metrics import extract_all_calibrated
from repro.measure.driver import run_queries
from repro.measure.traceio import (
    TraceFormatError,
    load_sessions,
    read_sessions,
    render_tcpdump,
    save_sessions,
    write_sessions,
)
from repro.testbed.scenario import Scenario, ScenarioConfig


def query_default(scenario, keywords, store_payload=False):
    """Google queries from the first VP to its default FE, at once."""
    vp = scenario.vantage_points[0]
    frontend = scenario.default_frontend(Scenario.GOOGLE, vp)
    plan = [(scenario.sim.now, vp, Scenario.GOOGLE, frontend, keyword)
            for keyword in keywords]
    return run_queries(scenario, plan, store_payload=store_payload)[vp.name]


@pytest.fixture(scope="module")
def captured_sessions():
    scenario = Scenario(ScenarioConfig(seed=8, vantage_count=4))
    sessions = query_default(
        scenario, [Keyword(text=t, popularity=0.4, complexity=0.4)
                   for t in ("roundtrip one", "roundtrip two")],
        store_payload=True)
    assert all(s.complete for s in sessions)
    return sessions


def roundtrip(sessions):
    buffer = io.StringIO()
    write_sessions(sessions, buffer)
    buffer.seek(0)
    return list(read_sessions(buffer))


def test_roundtrip_preserves_metadata(captured_sessions):
    loaded = roundtrip(captured_sessions)
    assert len(loaded) == len(captured_sessions)
    for original, restored in zip(captured_sessions, loaded):
        assert restored.query_id == original.query_id
        assert restored.service == original.service
        assert restored.vp_name == original.vp_name
        assert restored.fe_name == original.fe_name
        assert restored.keyword == original.keyword
        assert restored.local_port == original.local_port
        assert restored.started_at == original.started_at
        assert restored.completed_at == original.completed_at
        assert restored.response_size == original.response_size
        assert restored.path_rtt == original.path_rtt
        assert restored.complete


def test_roundtrip_preserves_packet_events(captured_sessions):
    loaded = roundtrip(captured_sessions)
    for original, restored in zip(captured_sessions, loaded):
        assert len(restored.events) == len(original.events)
        for oe, re_ in zip(original.events, restored.events):
            assert re_.time == oe.time
            assert re_.direction == oe.direction
            assert re_.seq == oe.seq and re_.ack == oe.ack
            assert re_.payload_len == oe.payload_len
            assert re_.syn == oe.syn and re_.fin == oe.fin
            assert re_.ack_flag == oe.ack_flag
            assert re_.payload == oe.payload


def test_analysis_runs_on_reloaded_traces(captured_sessions):
    """The whole inference pipeline must work on deserialized traces."""
    loaded = roundtrip(captured_sessions)
    calibration = BoundaryCalibration.from_sessions(loaded)
    metrics = extract_all_calibrated(loaded, calibration)
    assert len(metrics) == len(loaded)
    for m in metrics:
        assert m.tdynamic >= m.tdelta >= 0


def test_save_and_load_files(captured_sessions, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    written = save_sessions(captured_sessions, path)
    assert written == len(captured_sessions)
    loaded = load_sessions(path)
    assert [s.query_id for s in loaded] == \
        [s.query_id for s in captured_sessions]


def test_payloadless_sessions_roundtrip():
    scenario = Scenario(ScenarioConfig(seed=9, vantage_count=4))
    sessions = query_default(scenario, [
        Keyword(text="no payload", popularity=0.4, complexity=0.4)])
    (restored,) = roundtrip(sessions)
    assert all(e.payload is None for e in restored.events)
    assert sum(e.payload_len for e in restored.events) > 0


def test_truncated_file_detected(captured_sessions):
    buffer = io.StringIO()
    write_sessions(captured_sessions, buffer)
    lines = buffer.getvalue().splitlines()
    # Cut a few packet lines off the tail so the last session is short.
    truncated = "\n".join(lines[:-3])
    with pytest.raises(TraceFormatError):
        list(read_sessions(io.StringIO(truncated)))


def test_malformed_lines_detected():
    with pytest.raises(TraceFormatError):
        list(read_sessions(io.StringIO("not json\n")))
    with pytest.raises(TraceFormatError):
        list(read_sessions(io.StringIO('{"kind": "pkt"}\n')))
    with pytest.raises(TraceFormatError):
        list(read_sessions(io.StringIO('{"kind": "mystery"}\n')))


def test_wrong_version_rejected():
    header = ('{"kind": "session", "version": 99, "query_id": "q", '
              '"service": "s", "vp_name": "v", "fe_name": "f", '
              '"keyword": {"text": "t", "popularity": 0.1, '
              '"complexity": 0.1, "granularity": 1, "suggested": false}, '
              '"local_port": 1, "started_at": 0, "completed_at": 1, '
              '"failed": null, "response_size": 0, "path_rtt": 0.1, '
              '"n_events": 0}')
    with pytest.raises(TraceFormatError):
        list(read_sessions(io.StringIO(header + "\n")))


def _trace_records(captured_sessions):
    """The first session's trace as decoded JSON records."""
    buffer = io.StringIO()
    write_sessions(captured_sessions[:1], buffer)
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def _read_records(records):
    """Read back records, writing raw strings as they are."""
    lines = [record if isinstance(record, str) else json.dumps(record)
             for record in records]
    return list(read_sessions(io.StringIO("\n".join(lines) + "\n")))


def test_one_trace_format_error_for_both_readers():
    from repro.workload import TraceFormatError as workload_error
    assert TraceFormatError is workload_error
    assert issubclass(TraceFormatError, ValueError)


def test_header_without_keyword_names_its_line(captured_sessions):
    records = _trace_records(captured_sessions)
    del records[0]["keyword"]
    with pytest.raises(TraceFormatError,
                       match=r"^line 1: .*KeyError: 'keyword'"):
        _read_records(records)


def test_packet_without_seq_names_its_line(captured_sessions):
    records = _trace_records(captured_sessions)
    del records[3]["seq"]
    with pytest.raises(TraceFormatError,
                       match=r"^line 4: .*KeyError: 'seq'"):
        _read_records(records)


@pytest.mark.parametrize("line", ["[1, 2]", '"session"', "7", "null"])
def test_non_object_line_names_its_line(captured_sessions, line):
    records = _trace_records(captured_sessions)
    records.insert(2, line)
    with pytest.raises(TraceFormatError,
                       match=r"^line 3: expected a JSON object"):
        _read_records(records)


def test_truncated_session_names_its_header_line(captured_sessions):
    records = _trace_records(captured_sessions)
    with pytest.raises(TraceFormatError,
                       match=r"^line 1: session q-\S+: expected %d events, "
                             r"found %d" % (len(records) - 1,
                                            len(records) - 3)):
        _read_records(records[:-2])


def test_render_tcpdump(captured_sessions):
    session = captured_sessions[0]
    text = render_tcpdump(session)
    lines = text.splitlines()
    assert lines[0].startswith("# session")
    assert session.query_id in lines[0]
    assert len(lines) == 1 + len(session.events)
    # First packet is the SYN at t=0.
    assert "[S]" in lines[1]
    assert lines[1].strip().startswith("0.000000")


def test_render_tcpdump_truncation(captured_sessions):
    session = captured_sessions[0]
    text = render_tcpdump(session, max_events=3)
    assert "more packets" in text
    assert len(text.splitlines()) == 5
