"""JSONL batch protocol tests: parsing, ordering, error records, serve."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.context import RunContext
from repro.service import (
    PROTOCOL_VERSION,
    Query,
    TimingService,
    run_batch,
    serve,
    write_responses,
)
from repro.service.batch import parse_request
from repro.service.registry import CONTROL_OPS


@pytest.fixture()
def service(tmp_path):
    return TimingService(context=RunContext.from_env(
        workers=1, backend="serial", cache_dir=str(tmp_path / "cache"),
        solver="direct", k_per_endpoint=6, pba_k=8,
    ))


def lines(*records):
    return [json.dumps(r) for r in records]


class TestRunBatch:
    def test_responses_in_request_order_with_ids(self, service):
        out = run_batch(service, lines(
            {"id": "a", "op": "pba_slacks", "design": "fig2", "k": 8},
            {"id": "b", "op": "sta", "design": "fig2"},
        ))
        assert [r["id"] for r in out] == ["a", "b"]
        assert [r["op"] for r in out] == ["pba_slacks", "sta"]
        assert all(r["ok"] for r in out)
        assert all(r["v"] == PROTOCOL_VERSION for r in out)
        assert out[1]["result"]["design"] == "fig2"

    def test_malformed_line_becomes_error_record(self, service):
        out = run_batch(service, [
            "this is not json",
            json.dumps({"id": 2, "op": "sta", "design": "fig2"}),
        ])
        assert out[0]["ok"] is False and "line 1" in out[0]["error"]
        assert out[0]["v"] == PROTOCOL_VERSION  # errors are versioned too
        assert out[1]["ok"] is True and out[1]["id"] == 2

    def test_missing_op_is_an_error(self, service):
        out = run_batch(service, lines({"design": "fig2"}))
        assert out[0]["ok"] is False

    def test_failed_parse_echoes_the_line_id(self, service):
        """A line that parsed as an object keeps its ``id`` on the error
        record, under ``run_batch`` as under ``serve``."""
        text = json.dumps({"id": 5, "design": "fig2"}) + "\n{not json\n"
        sink = io.StringIO()
        serve(service, io.StringIO(text), sink)
        served = [json.loads(l) for l in sink.getvalue().splitlines()]
        batched = run_batch(service, io.StringIO(text))
        assert [r.get("id") for r in batched] == [5, None]
        assert batched == served
        assert all(r["ok"] is False for r in batched)

    def test_blank_lines_skipped(self, service):
        out = run_batch(service, [
            "", "   ", json.dumps({"op": "sta", "design": "fig2"}),
        ])
        assert len(out) == 1 and out[0]["ok"]

    def test_responses_are_json_serializable(self, service):
        out = run_batch(service, lines(
            {"op": "mgba_fit", "design": "fig2"},
        ))
        text = json.dumps(out)
        assert json.loads(text)[0]["result"]["converged"] is True

    def test_write_responses(self, service):
        out = run_batch(service, lines({"op": "sta", "design": "fig2"}))
        sink = io.StringIO()
        assert write_responses(out, sink) == 1
        assert json.loads(sink.getvalue().splitlines()[0])["ok"]


class TestServe:
    def test_line_by_line_with_flush(self, service):
        source = io.StringIO("\n".join(lines(
            {"id": 1, "op": "sta", "design": "fig2"},
            {"id": 2, "op": "sta", "design": "fig2"},
        )) + "\n")
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 2 and stats.errors == 0
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["id"] for r in records] == [1, 2]
        assert records[0]["cached"] is False
        assert records[1]["cached"] is True  # same query, warm

    def test_malformed_line_keeps_serving(self, service):
        source = io.StringIO(
            "garbage\n"
            + json.dumps({"id": 7, "op": "sta", "design": "fig2"}) + "\n"
        )
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 2 and stats.errors == 1
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert records[0]["ok"] is False
        assert records[1]["ok"] is True and records[1]["id"] == 7

    def test_failed_query_counts_as_error(self, service):
        source = io.StringIO(json.dumps(
            {"id": 1, "op": "sta", "design": "no_such_design"}
        ) + "\n")
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 1 and stats.errors == 1
        record = json.loads(sink.getvalue().splitlines()[0])
        assert record["ok"] is False and "error" in record

    def test_unknown_op_is_error_record(self, service):
        source = io.StringIO(json.dumps({"op": "explode"}) + "\n")
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 1 and stats.errors == 1


class TestProtocolVersion:
    """Every record — success, control, error — carries ``"v"``."""

    def test_all_record_shapes_are_versioned(self, service):
        out = run_batch(service, [
            json.dumps({"id": 1, "op": "sta", "design": "fig2"}),
            json.dumps({"id": 2, "op": "health"}),
            json.dumps({"id": 3, "op": "sta", "design": "missing"}),
            "not json at all",
        ])
        assert len(out) == 4
        assert [r["v"] for r in out] == [PROTOCOL_VERSION] * 4
        assert [r.get("ok") for r in out] == [True, True, False, False]

    def test_serve_records_are_versioned(self, service):
        source = io.StringIO(
            "garbage\n"
            + json.dumps({"id": 1, "op": "stats"}) + "\n"
        )
        sink = io.StringIO()
        serve(service, source, sink)
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [r["v"] for r in records] == [PROTOCOL_VERSION] * 2


class TestServeErrorPaths:
    """Schema-stable ``ok: false`` records for every failure shape."""

    ERROR_KEYS = {"v", "ok", "error"}

    def _serve(self, service, text):
        sink = io.StringIO()
        stats = serve(service, io.StringIO(text), sink)
        return stats, [json.loads(l) for l in sink.getvalue().splitlines()]

    def test_unknown_op_record_shape(self, service):
        stats, records = self._serve(
            service, json.dumps({"id": 5, "op": "explode"}) + "\n"
        )
        assert stats.errors == 1
        (record,) = records
        assert record["ok"] is False and record["v"] == PROTOCOL_VERSION
        assert record["id"] == 5  # the id survives an op failure
        assert "explode" in record["error"]
        assert self.ERROR_KEYS <= set(record)

    def test_malformed_json_record_shape(self, service):
        stats, records = self._serve(service, "{not json\n")
        assert stats.errors == 1
        (record,) = records
        assert record["ok"] is False and record["v"] == PROTOCOL_VERSION
        assert self.ERROR_KEYS <= set(record)

    def test_mid_batch_exception_keeps_serving(self, service):
        stats, records = self._serve(service, "\n".join([
            json.dumps({"id": 1, "op": "sta", "design": "fig2"}),
            json.dumps({"id": 2, "op": "sta", "design": "no_such"}),
            json.dumps({"id": 3, "op": "sta", "design": "fig2"}),
        ]) + "\n")
        assert stats.served == 3 and stats.errors == 1
        assert [r["ok"] for r in records] == [True, False, True]
        failed = records[1]
        assert failed["id"] == 2 and failed["v"] == PROTOCOL_VERSION
        assert failed["error"]
        assert records[2]["cached"] is True  # the failure poisoned nothing

    def test_exit_code_2_per_error_path(self, monkeypatch, capsys,
                                        tmp_path):
        from repro.cli import main

        for i, text in enumerate((
            json.dumps({"op": "explode"}) + "\n",
            "{not json\n",
            json.dumps({"op": "sta", "design": "no_such"}) + "\n",
        )):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            dump = tmp_path / f"flight{i}.json"
            assert main([
                "serve", "--no-cache", "--flight-dump", str(dump),
            ]) == 2
            assert dump.is_file()
            captured = capsys.readouterr()
            record = json.loads(captured.out.splitlines()[0])
            assert record["ok"] is False
            assert record["v"] == PROTOCOL_VERSION


class TestRequestIds:
    def test_serve_mints_distinct_request_ids(self, service):
        source = io.StringIO("\n".join(lines(
            {"id": 1, "op": "sta", "design": "fig2"},
            {"id": 2, "op": "pba_slacks", "design": "fig2", "k": 8},
        )) + "\n")
        sink = io.StringIO()
        serve(service, source, sink)
        records = [json.loads(l) for l in sink.getvalue().splitlines()]
        ids = [r["request_id"] for r in records]
        assert len(set(ids)) == 2
        assert all(rid.startswith("r") for rid in ids)

    def test_request_id_lands_on_descendant_spans(self, service):
        from repro.obs import tracing

        source = io.StringIO("\n".join(lines(
            {"id": 1, "op": "sta", "design": "fig2"},
            {"id": 2, "op": "pba_slacks", "design": "fig2", "k": 8},
        )) + "\n")
        with tracing() as tracer:
            serve(service, source, io.StringIO())
        tagged = {}
        for root in tracer.roots:
            for span_obj in root.walk():
                rid = span_obj.attrs.get("request_id")
                if rid is not None:
                    tagged.setdefault(rid, []).append(span_obj.name)
        # Two requests -> two distinct IDs, each tagging a subtree that
        # reaches below the service layer (engine/PBA spans included).
        assert len(tagged) == 2
        deep = [names for names in tagged.values()
                if any(not n.startswith("service.") for n in names)]
        assert deep, f"no request-tagged engine spans: {tagged}"

    def test_coalesced_duplicates_share_the_computing_id(self, service):
        out = run_batch(service, lines(
            {"id": "a", "op": "sta", "design": "fig2"},
            {"id": "b", "op": "sta", "design": "fig2"},
        ))
        assert out[0]["request_id"] == out[1]["request_id"]


class TestControlVerbs:
    def test_stats_reports_cache_traffic(self, service):
        source = io.StringIO("\n".join(lines(
            {"id": 1, "op": "sta", "design": "fig2"},
            {"id": 2, "op": "sta", "design": "fig2"},
            {"id": 3, "op": "stats"},
        )) + "\n")
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 3 and stats.errors == 0
        record = json.loads(sink.getvalue().splitlines()[2])
        assert record["ok"] is True and record["op"] == "stats"
        payload = record["result"]
        assert payload["cache"]["hit"] >= 1     # the repeated sta query
        assert payload["cache"]["miss"] >= 1
        assert payload["latency"]["count"] >= 2
        assert payload["queries"] >= 2
        assert "fig2" in payload["design_names"]

    def test_health_is_cheap_and_ok(self, service):
        out = run_batch(service, lines({"id": 9, "op": "health"}))
        assert out[0]["ok"] is True and out[0]["id"] == 9
        payload = out[0]["result"]
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0
        assert payload["cache_enabled"] is True

    def test_stats_in_batch_sees_the_batch_traffic(self, service):
        out = run_batch(service, lines(
            {"op": "stats"},
            {"id": 1, "op": "sta", "design": "fig2"},
        ))
        # Control verbs answer after the batch computes, so even a
        # leading stats line observes the sta query's cache traffic.
        assert out[0]["result"]["queries"] >= 1
        assert out[1]["ok"] is True


#: A valid request stream: fig2 timing queries and both control verbs.
STREAM = "\n".join(lines(
    {"id": 1, "op": "sta", "design": "fig2"},
    {"op": "health"},
    {"id": "s", "op": "stats"},
    {"id": 4, "op": "sta", "design": "fig2"},
)) + "\n"

#: What a one-character mutation writes: JSON punctuation, quotes,
#: whitespace, and name and number text.
MUTATION_CHARS = st.sampled_from(list('{}[]":,. \n\tazAZ09-e'))


@st.composite
def mutated_streams(draw) -> str:
    """``STREAM`` after one to three one-character replacements,
    insertions or deletions, then truncated."""
    text = STREAM
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        char = draw(MUTATION_CHARS)
        text = draw(st.sampled_from((
            text[:i] + char + text[i + 1:],
            text[:i] + char + text[i:],
            text[:i] + text[i + 1:],
        )))
    return text[:draw(st.integers(0, len(text)))]


def _parsed(text):
    """The line's request record, or None when it fails to parse."""
    try:
        record = parse_request(text)
        if record.get("op") not in CONTROL_OPS:
            Query.from_any(record)
    except Exception:
        return None
    return record


@pytest.fixture(scope="module")
def fuzz_service():
    return TimingService(context=RunContext.from_env(
        workers=1, backend="serial", cache=False,
    ))


class TestProtocolFuzz:
    """Mutated and truncated streams, through both entry points."""

    @settings(max_examples=60, deadline=None)
    @given(text=mutated_streams())
    def test_one_versioned_response_per_line(self, fuzz_service, text):
        requests = [
            (lineno, _parsed(line.strip()))
            for lineno, line in enumerate(io.StringIO(text), start=1)
            if line.strip()
        ]
        sink = io.StringIO()
        stats = serve(fuzz_service, io.StringIO(text), sink)
        served = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert stats.served == len(served)
        for responses in (run_batch(fuzz_service, io.StringIO(text)),
                          served):
            assert len(responses) == len(requests)
            for (lineno, record), response in zip(requests, responses):
                assert response["v"] == PROTOCOL_VERSION
                if record is None:
                    assert response["ok"] is False
                    assert response["error"].startswith(f"line {lineno}: ")
                else:
                    assert response.get("id") == record.get("id")
