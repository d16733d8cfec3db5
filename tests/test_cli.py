"""CLI tests (invoking main() in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solver_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mgba", "D1", "--solver", "magic"])


class TestCommands:
    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "D1" in out and "D10" in out

    def test_sta(self, capsys):
        assert main(["sta", "D1", "--paths", "1"]) == 0
        out = capsys.readouterr().out
        assert "WNS" in out and "Endpoint:" in out

    def test_mgba(self, capsys):
        assert main(["mgba", "D1", "--k", "5", "--solver", "direct"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "mse" in out

    def test_closure(self, capsys):
        assert main([
            "closure", "D1", "--max-transforms", "10"
        ]) == 0
        out = capsys.readouterr().out
        assert "before" in out and "after" in out

    def test_unknown_design_exits_2(self, capsys):
        assert main(["sta", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sta: unknown design 'NOPE'")
        assert "'D1'" in err and "'D10'" in err

    def test_scenarios(self, capsys):
        assert main(["scenarios", "D1"]) == 0
        out = capsys.readouterr().out
        assert "\nss " in out and "dominant setup corner" in out
        assert main(["scenarios", "D1", "--corners", "bogus"]) == 2
        assert "bad corner" in capsys.readouterr().err

    def test_generate(self, tmp_path, capsys):
        assert main(["generate", "D1", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "D1.v").exists()
        assert (tmp_path / "D1.sdc").exists()
        assert (tmp_path / "D1.aocv").exists()

    def test_generated_files_parse_back(self, tmp_path):
        main(["generate", "D1", "-o", str(tmp_path)])
        from repro.aocv.table import load_aocv
        from repro.liberty.builder import make_default_library
        from repro.netlist.verilog import load_verilog
        from repro.sdc.parser import load_sdc

        netlist = load_verilog(tmp_path / "D1.v", make_default_library())
        constraints = load_sdc(tmp_path / "D1.sdc")
        table = load_aocv(tmp_path / "D1.aocv")
        assert len(netlist.gates) > 100
        assert constraints.primary_clock().period > 0
        assert table.validate_monotonic() == []


class TestExplainCommand:
    def test_json_matches_documented_schema(self, capsys):
        import json

        assert main([
            "explain", "fig2", "--format", "json", "--top-k", "2"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "paper_fig2"
        assert set(payload) == {"design", "summary", "paths"}
        summary = payload["summary"]
        assert {"endpoints", "arcs", "pessimism", "removed",
                "residual", "crpr", "top_endpoints",
                "top_arcs"} <= set(summary)
        assert summary["endpoints"] == 4
        assert len(payload["paths"]) == 2
        row = payload["paths"][0]["rows"][0]
        assert {"edge", "src", "dst", "domain", "base_delay",
                "derate", "delay", "arrival", "provenance",
                "pessimism", "removed", "residual"} <= set(row)

    def test_markdown_renders_accounting(self, capsys):
        assert main(["explain", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Pessimism accounting" in out
        assert "FF4/D" in out

    def test_endpoint_narrowing(self, capsys):
        import json

        assert main([
            "explain", "fig2", "--endpoint", "FF4/D",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["endpoints"] == 1
        assert payload["paths"][0]["endpoint"] == "FF4/D"

    def test_unknown_endpoint_fails(self, capsys):
        assert main(["explain", "fig2", "--endpoint", "NO/SUCH"]) != 0


class TestServiceCommands:
    def test_batch_round_trip(self, tmp_path, capsys):
        import json

        requests = tmp_path / "queries.jsonl"
        requests.write_text(
            json.dumps({"id": 1, "op": "sta", "design": "fig2"}) + "\n"
            + json.dumps({"id": 2, "op": "pba_slacks", "design": "fig2",
                          "k": 8}) + "\n"
        )
        out_path = tmp_path / "responses.jsonl"
        code = main([
            "batch", str(requests), "-o", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "2 response(s)" in capsys.readouterr().out
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert [r["id"] for r in records] == [1, 2]
        assert all(r["ok"] for r in records)

    def test_batch_error_exit_code(self, tmp_path, capsys):
        requests = tmp_path / "queries.jsonl"
        requests.write_text("not json\n")
        code = main([
            "batch", str(requests), "-o", str(tmp_path / "out.jsonl"),
            "--no-cache",
        ])
        assert code == 2
        capsys.readouterr()

    def test_batch_stdout(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps({"op": "sta", "design": "fig2"}) + "\n"),
        )
        assert main(["batch", "-", "--no-cache"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["ok"] and record["op"] == "sta"


class TestWhatIfCommand:
    CANDS = [[{"kind": "insert_buffer", "net": "n3",
               "buffer_cell": "BUF_U"}]]

    def _write(self, tmp_path):
        import json

        path = tmp_path / "cands.json"
        path.write_text(json.dumps(self.CANDS))
        return str(path)

    def test_table_output_marks_best(self, tmp_path, capsys):
        code = main(["what-if", "fig2", "--candidates",
                     self._write(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 candidate(s)" in out
        assert "best candidate:" in out
        assert "insert_buffer n3 BUF_U" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        code = main(["what-if", "fig2", "--json", "--candidates",
                     self._write(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "paper_fig2"
        assert payload["candidates"][0]["ok"] is True

    def test_eco_file_is_a_candidate(self, tmp_path, capsys):
        import json

        eco = tmp_path / "fix.eco"
        eco.write_text("insert_buffer n3 BUF_U b0 net0 G4/A L1/A\n")
        code = main(["what-if", "fig2", "--json", "--eco", str(eco)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidates"][0]["eco"] == [
            "insert_buffer n3 BUF_U b0 net0 G4/A L1/A"
        ]

    def test_malformed_eco_file_exits_2(self, tmp_path, capsys):
        eco = tmp_path / "bad.eco"
        eco.write_text("insert_buffer n3 BUF_U b0 net0 G4/A L1/A\nwibble u1\n")
        assert main(["what-if", "fig2", "--eco", str(eco)]) == 2
        assert f"{eco}:2: cannot parse 'wibble u1'" in capsys.readouterr().err

    def test_no_candidates_is_usage_error(self, capsys):
        assert main(["what-if", "fig2"]) == 2
        assert "no candidates" in capsys.readouterr().err

    def test_unreadable_candidates_file_exits_2(self, tmp_path, capsys):
        assert main(["what-if", "fig2", "--candidates",
                     str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_malformed_candidate_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[{"kind": "teleport"}]]))
        assert main(["what-if", "fig2", "--candidates", str(path)]) == 2
        assert "unknown edit kind" in capsys.readouterr().err


class TestMinPeriodCommand:
    def test_human_output(self, capsys):
        assert main(["min-period", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "clock clk" in out
        assert "min period:" in out and "bracket:" in out

    def test_json_output_with_corner(self, capsys):
        import json

        code = main(["min-period", "fig2", "--json",
                     "--corner", "ss:1.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corner"] == "ss:1.2"
        assert payload["wns_at_period"] >= 0.0

    def test_bad_corner_spec_exits_2(self, capsys):
        assert main(["min-period", "fig2", "--corner", "nonsense"]) == 2
        capsys.readouterr()

    def test_unknown_clock_exits_2(self, capsys):
        assert main(["min-period", "fig2", "--clock", "ghost"]) == 2
        capsys.readouterr()


class TestObsReportMetrics:
    def test_missing_metrics_file_is_tolerated(self, tmp_path, capsys):
        code = main([
            "obs-report", "--metrics", str(tmp_path / "absent.json"),
        ])
        assert code == 0
        assert "missing or empty" in capsys.readouterr().out

    def test_metrics_table(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "cache.hit": {"type": "counter", "value": 3},
        }))
        assert main(["obs-report", "--metrics", str(metrics)]) == 0
        assert "cache.hit" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main(["obs-report"]) == 2
        capsys.readouterr()


class TestServeCommand:
    def _serve(self, monkeypatch, text, extra=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return main(["serve", "--no-cache", *extra])

    def test_serve_round_trip(self, tmp_path, capsys, monkeypatch):
        import json

        code = self._serve(monkeypatch, "\n".join([
            json.dumps({"id": 1, "op": "sta", "design": "fig2"}),
            json.dumps({"id": 2, "op": "stats"}),
        ]) + "\n")
        assert code == 0
        captured = capsys.readouterr()
        assert "served 2 request(s) (0 error(s))" in captured.err
        records = [json.loads(l) for l in captured.out.splitlines()]
        assert records[0]["ok"] and records[0]["request_id"]
        assert records[1]["op"] == "stats"
        assert records[1]["result"]["queries"] >= 1

    def test_serve_malformed_line_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        import json

        dump = tmp_path / "flight.json"
        code = self._serve(
            monkeypatch,
            "garbage\n" + json.dumps({"op": "health"}) + "\n",
            extra=["--flight-dump", str(dump)],
        )
        assert code == 2
        assert dump.is_file()
        captured = capsys.readouterr()
        assert "served 2 request(s) (1 error(s))" in captured.err
        records = [json.loads(l) for l in captured.out.splitlines()]
        assert records[0]["ok"] is False and "error" in records[0]
        assert records[1]["result"]["status"] == "ok"


class TestProfileFlag:
    def test_profile_writes_json_and_report_renders_it(
            self, tmp_path, capsys):
        import json

        profile_path = tmp_path / "profile.json"
        assert main([
            "--profile", str(profile_path),
            "mgba", "fig2", "--k", "5", "--solver", "direct",
        ]) == 0
        capsys.readouterr()
        data = json.loads(profile_path.read_text())
        assert data["spans_profiled"] >= 1
        assert data["rows"]
        assert main([
            "obs-report", "--profile", str(profile_path), "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "span(s) profiled" in out and "self(s)" in out

    def test_missing_profile_dir_is_usage_error(self, tmp_path, capsys):
        code = main([
            "--profile", str(tmp_path / "no_such_dir" / "p.json"),
            "designs",
        ])
        assert code == 2
        capsys.readouterr()


class TestObsReportSortTop:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main([
            "--trace", str(path),
            "sta", "fig2", "--paths", "1",
        ]) == 0
        capsys.readouterr()
        return path

    def test_sort_and_top(self, trace_path, capsys):
        assert main([
            "obs-report", str(trace_path), "--sort", "self", "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "root span(s)" in out

    def test_bad_sort_rejected(self, trace_path, capsys):
        with pytest.raises(SystemExit):
            main(["obs-report", str(trace_path), "--sort", "nope"])
        capsys.readouterr()


class TestObservabilityCommands:
    def _serve(self, monkeypatch, tmp_path, lines, extra=()):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        return main([
            "serve", "--cache-dir", str(tmp_path / "cache"), *extra,
        ])

    def test_serve_error_exit_dumps_flight(self, tmp_path, capsys,
                                           monkeypatch):
        import json

        dump = tmp_path / "flight.json"
        code = self._serve(
            monkeypatch, tmp_path,
            json.dumps({"id": 1, "op": "sta", "design": "zzz"}) + "\n",
            extra=["--flight-dump", str(dump)],
        )
        assert code == 2
        captured = capsys.readouterr()
        assert f"flight recorder dumped to {dump}" in captured.err
        assert json.loads(dump.read_text())["schema_version"] == 1

    def test_serve_no_flight_dump_flag(self, tmp_path, capsys,
                                       monkeypatch):
        import json

        code = self._serve(
            monkeypatch, tmp_path,
            json.dumps({"op": "sta", "design": "zzz"}) + "\n",
            extra=["--flight-dump", str(tmp_path / "f.json"),
                   "--no-flight-dump"],
        )
        assert code == 2
        assert not (tmp_path / "f.json").exists()
        capsys.readouterr()

    def test_serve_with_slo_reports_status(self, tmp_path, capsys,
                                           monkeypatch):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "min_requests": 1,
            "latency": {"*": {"p95": 60.0}},
        }))
        code = self._serve(
            monkeypatch, tmp_path,
            json.dumps({"op": "sta", "design": "fig2"}) + "\n",
            extra=["--slo", str(spec)],
        )
        assert code == 0
        assert "SLO ok" in capsys.readouterr().err

    def test_serve_bad_slo_spec_exits_2(self, tmp_path, capsys,
                                        monkeypatch):
        spec = tmp_path / "slo.json"
        spec.write_text("{}")
        code = self._serve(monkeypatch, tmp_path, "", ["--slo", str(spec)])
        assert code == 2
        assert "serve:" in capsys.readouterr().err

    def test_serve_expose_metrics_scrapes(self, tmp_path, capsys,
                                          monkeypatch):
        import json
        import re
        import urllib.request

        real_serve = None

        def scraping_serve(service, in_stream, out_stream, **kwargs):
            # Scrape while the endpoint is alive, mid-session.
            err = capsys.readouterr().err
            match = re.search(r"http://[\d.]+:\d+/metrics", err)
            assert match, f"no endpoint URL announced: {err!r}"
            body = urllib.request.urlopen(match.group(0), timeout=5) \
                .read().decode()
            assert body.endswith("# EOF\n")
            assert 'service_requests_total{verb="sta"}' in body
            return real_serve(service, in_stream, out_stream, **kwargs)

        from repro.service import batch

        real_serve = batch.serve
        monkeypatch.setattr("repro.service.batch.serve", scraping_serve)
        monkeypatch.setattr("repro.service.serve", scraping_serve)
        code = self._serve(
            monkeypatch, tmp_path,
            json.dumps({"op": "health"}) + "\n",
            extra=["--expose-metrics", "0"],
        )
        assert code == 0

    def test_metrics_export_from_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs.metrics import MetricsRegistry, labeled

        registry = MetricsRegistry()
        registry.counter(labeled("service.requests", verb="sta")).inc(5)
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(json.dumps(registry.snapshot()))
        code = main(["metrics-export", "--metrics", str(snapshot)])
        assert code == 0
        out = capsys.readouterr().out
        assert 'service_requests_total{verb="sta"} 5' in out
        assert out.endswith("# EOF\n")

    def test_metrics_export_missing_snapshot_exits_2(self, tmp_path,
                                                     capsys):
        code = main(["metrics-export", "--metrics",
                     str(tmp_path / "nope.json")])
        assert code == 2
        capsys.readouterr()

    def test_slo_check_pass_and_fail_exit_codes(self, tmp_path, capsys):
        import json

        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder()
        recorder.record_request("sta", seconds=5.0, ok=True, cached=True)
        dump = tmp_path / "flight.json"
        recorder.save_json(dump)
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({
            "schema_version": 1, "min_requests": 1,
            "latency": {"*": {"p95": 10.0}},
        }))
        assert main(["slo-check", "--spec", str(spec),
                     "--flight", str(dump)]) == 0
        assert "PASS" in capsys.readouterr().out
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps({
            "schema_version": 1, "min_requests": 1,
            "latency": {"*": {"p95": 1.0}},
        }))
        assert main(["slo-check", "--spec", str(tight),
                     "--flight", str(dump)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_slo_check_unreadable_inputs_exit_2(self, tmp_path, capsys):
        assert main(["slo-check", "--spec", str(tmp_path / "no.json"),
                     "--flight", str(tmp_path / "no2.json")]) == 2
        spec = tmp_path / "slo.json"
        spec.write_text('{"schema_version": 1, "error_rate_max": 0.1}')
        assert main(["slo-check", "--spec", str(spec),
                     "--flight", str(tmp_path / "no2.json")]) == 2
        capsys.readouterr()

    def test_obs_report_flight(self, tmp_path, capsys):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder()
        recorder.record_request("sta", design="fig2", cached=False,
                                seconds=0.2, request_id="r1-1")
        recorder.record_error("ServiceError", "bad op")
        dump = tmp_path / "flight.json"
        recorder.save_json(dump)
        assert main(["obs-report", "--flight", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "ServiceError" in out

    def test_trace_stream_is_durable_jsonl(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["--trace", str(trace), "sta", "fig2"]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records and any(r["parent"] is None for r in records)


class TestCache:
    """The ``cache`` subcommand over the on-disk artifact store."""

    def test_stats_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "artifact store" in out

    def test_warm_persists_then_hydrates(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["cache", "warm", "fig2", "--cache-dir", store]) == 0
        first = capsys.readouterr().out
        assert "persisted" in first
        assert main(["cache", "warm", "fig2", "--cache-dir", store]) == 0
        second = capsys.readouterr().out
        assert "already warm" in second
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        stats = capsys.readouterr().out
        assert "layout" in stats

    def test_warm_requires_design(self, tmp_path, capsys):
        assert main(["cache", "warm",
                     "--cache-dir", str(tmp_path / "store")]) == 2
        assert "design" in capsys.readouterr().err

    def test_clear_class_and_all(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["cache", "warm", "fig2", "--cache-dir", store]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--class", "layout",
                     "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "removed 1 entry" in out
        assert main(["cache", "clear", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries" in out

    def test_clear_unknown_class_exits_2(self, tmp_path, capsys):
        assert main(["cache", "clear", "--class", "nope",
                     "--cache-dir", str(tmp_path / "store")]) == 2
        assert "unknown class" in capsys.readouterr().err
