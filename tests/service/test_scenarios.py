"""Service-layer scenario_sweep verb: caching, batch, key rotation."""

import io
import json

import pytest

from repro.context import RunContext
from repro.designs.generator import generate_design
from repro.netlist.edit import resize_gate
from repro.service import Query, TimingService, run_batch, serve
from tests.conftest import SMALL_SPEC


@pytest.fixture()
def service(tmp_path):
    return TimingService(context=RunContext.from_env(
        workers=1, backend="serial", cache_dir=str(tmp_path / "cache"),
    ))


def _submit(service, design="fig2", **params):
    query = Query(op="scenario_sweep", design=design,
                  params=tuple(sorted(params.items())))
    return service.submit([query])[0]


class TestScenarioSweepVerb:
    def test_cold_then_warm(self, service):
        cold = _submit(service)
        warm = _submit(service)
        assert cold.ok and warm.ok
        assert cold.cached is False
        assert warm.cached is True
        assert cold.result == warm.result
        assert cold.result.stacked is True

    def test_corner_set_changes_the_cache_key(self, service):
        _submit(service)
        custom = _submit(service, corners=(("slow", 1.2), ("fast", 0.8)))
        assert custom.cached is False
        again = _submit(service, corners=(("slow", 1.2), ("fast", 0.8)))
        assert again.cached is True
        # Order is part of the artifact (merge tie-breaks depend on it).
        reordered = _submit(
            service, corners=(("fast", 0.8), ("slow", 1.2))
        )
        assert reordered.cached is False

    def test_convenience_method_matches_default_query(self, service):
        direct = service.scenario_sweep("fig2")
        assert _submit(service).cached is True  # same key as the default
        assert direct.corners == (("ss", 1.15), ("tt", 1.0), ("ff", 0.87))

    def test_disk_cache_survives_a_new_service(self, service, tmp_path):
        service.scenario_sweep("fig2")
        fresh = TimingService(context=RunContext.from_env(
            workers=1, backend="serial",
            cache_dir=str(tmp_path / "cache"),
        ))
        assert _submit(fresh).cached is True

    def test_change_rotates_the_key(self, service):
        service.register_design("dut", design=generate_design(SMALL_SPEC))
        before = _submit(service, design="dut")
        assert before.ok and before.cached is False
        netlist = service.design("dut").netlist
        gate = netlist.combinational_gates()[0]
        change = resize_gate(netlist, gate, up=True)
        if change is None:
            change = resize_gate(netlist, gate, up=False)
        service.apply_change(change, design="dut")
        after = _submit(service, design="dut")
        assert after.cached is False  # rotated key: stale entry missed
        assert after.result != before.result


class TestScenarioSweepBatch:
    def test_jsonl_round_trip_with_request_id(self, service):
        source = io.StringIO(json.dumps({
            "id": 7, "op": "scenario_sweep", "design": "fig2",
            "corners": [["slow", 1.1], ["fast", 0.9]],
        }) + "\n")
        sink = io.StringIO()
        stats = serve(service, source, sink)
        assert stats.served == 1 and stats.errors == 0
        record = json.loads(sink.getvalue())
        assert record["id"] == 7 and record["ok"]
        assert record["op"] == "scenario_sweep"
        assert record["request_id"].startswith("r")
        result = record["result"]
        assert result["design"] == "fig2"
        assert [c[0] for c in result["corners"]] == ["slow", "fast"]
        assert {"setup", "hold", "merged", "dominant", "stacked"} \
            <= set(result)

    def test_run_batch_coalesces_duplicates(self, service):
        out = run_batch(service, [
            json.dumps({"id": "a", "op": "scenario_sweep",
                        "design": "fig2"}),
            json.dumps({"id": "b", "op": "scenario_sweep",
                        "design": "fig2"}),
        ])
        assert all(r["ok"] for r in out)
        assert out[0]["request_id"] == out[1]["request_id"]
        assert out[0]["result"] == out[1]["result"]

    def test_bad_corner_shape_is_an_error_record(self, service):
        out = run_batch(service, [json.dumps({
            "id": 1, "op": "scenario_sweep", "design": "fig2",
            "corners": [["only-a-name"]],
        })])
        assert out[0]["ok"] is False and "error" in out[0]
