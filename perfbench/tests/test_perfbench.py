"""Tests of the benchmark's own helpers (no workload is run here)."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from perfbench import inputs, layers, pipeline, stats
from perfbench.common import Outcome
from perfbench.servework import ServeClient

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_summary_reports_median_tail_and_count():
    summary = stats.summarize([float(value) for value in range(1000, 0, -1)])
    assert summary.count == 1000
    assert summary.median == 500.5
    # p99 leaves exactly 10 samples beyond it; p99.5 would leave 5.
    assert summary.percentile == 99.0
    assert summary.value == 990.0


def test_summary_picks_highest_percentile_with_ten_beyond():
    summary = stats.summarize([float(value) for value in range(1, 501)])
    assert summary.percentile == 98.0
    assert summary.value == 490.0
    assert stats.samples_beyond(500, summary.percentile) >= 10
    assert stats.samples_beyond(500, 99.0) < 10


def test_summary_of_few_samples_falls_back_to_median():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert (summary.median, summary.percentile, summary.count) == \
        (2.0, 50.0, 3)


def test_relative_spread_is_iqr_over_median():
    assert stats.relative_spread([10.0] * 5) == 0.0
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
        pytest.approx((4.5 - 1.5) / 3.0)


# ---------------------------------------------------------------------- #
# serve client
# ---------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server API
        if self.path == "/reset":
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                       b"\x01\x00\x00\x00\x00\x00\x00\x00")
            self.close_connection = True
            self.connection.close()
            return
        status = {"/missing": 404, "/stale": 409}.get(self.path, 200)
        body = json.dumps({"path": self.path}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def http_port():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_client_accepts_matching_reply(http_port):
    client = ServeClient("127.0.0.1", http_port, timeout=10)
    try:
        ok, latency, size, reason = client.request(
            "/ok", ("json", {"path": "/ok"}))
        assert ok and reason == "" and size > 0 and latency > 0
        assert not client.request("/ok", ("bytes", b"other"))[0]
    finally:
        client.close()


@pytest.mark.parametrize("path", ["/missing", "/stale", "/reset"])
def test_client_counts_errors_and_resets_as_failures(http_port, path):
    client = ServeClient("127.0.0.1", http_port, timeout=10)
    try:
        ok, _, _, reason = client.request(path, ("json", {"path": path}))
        assert not ok and reason
        # The connection recovers for the next request.
        assert client.request("/ok", ("json", {"path": "/ok"}))[0]
    finally:
        client.close()


def test_client_counts_refused_connection_as_failure():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    ok, _, _, reason = ServeClient("127.0.0.1", port, timeout=5).request(
        "/ok", ("bytes", b""))
    assert not ok and "Refused" in reason


# ---------------------------------------------------------------------- #
# layer map and attribution
# ---------------------------------------------------------------------- #
def test_layer_map_covers_the_tree():
    mapping = layers.check_coverage(SRC)
    assert mapping["repro.sim.engine"] == "sim.engine"
    assert mapping["repro.net.channel"] == "net.channel"
    assert mapping["repro.exec.cache"] == "exec.cache"
    assert mapping["repro.cli.serve"] == "cli.serve"
    assert mapping["repro.core.mts"] == "core.mts"


def test_layer_map_refuses_an_unmapped_package(tmp_path):
    for name in ("__init__.py", "sim/__init__.py", "sim/engine.py",
                 "obs/__init__.py", "obs/log.py"):
        path = tmp_path / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    with pytest.raises(layers.LayerMapError, match="repro.obs"):
        layers.check_coverage(tmp_path)


def test_attribution_folds_foreign_time_into_the_calling_layer(tmp_path):
    src = tmp_path
    engine = (str(src / "repro" / "sim" / "engine.py"), 1, "run")
    schedule = (str(src / "repro" / "sim" / "engine.py"), 9, "schedule")
    channel = (str(src / "repro" / "net" / "channel.py"), 1, "transmit")
    numpy_call = ("~", 0, "<built-in method numpy.array>")
    bench = ("/bench/run.py", 1, "main")
    stats_table = {
        bench: (1, 1, 0.1, 10.0, {}),
        engine: (1, 1, 2.0, 9.9, {bench: (1, 1, 2.0, 9.9)}),
        schedule: (1, 1, 0.5, 0.5, {engine: (1, 1, 0.5, 0.5)}),
        channel: (5, 5, 3.0, 7.9, {engine: (2, 2, 1.0, 3.0),
                                   schedule: (3, 3, 2.0, 4.9)}),
        numpy_call: (5, 5, 4.9, 4.9, {channel: (5, 5, 4.9, 4.9)}),
    }
    mapping = {"repro.sim.engine": "sim.engine",
               "repro.net.channel": "net.channel"}
    totals = layers.attribute(stats_table, src, mapping)
    assert totals.self_s["net.channel"] == pytest.approx(7.9)
    assert totals.self_s["sim.engine"] == pytest.approx(2.5)
    assert totals.span_calls == {"sim.engine": 1, "net.channel": 5}
    assert totals.incl_s["net.channel"] == pytest.approx(7.9)
    # Both engine callers of the channel add up in one crossing.
    assert totals.crossings[("sim.engine", channel)] == \
        pytest.approx((5, 7.9))


def test_combine_sums_the_figures_of_several_profiles():
    key = ("engine.py", 1, "run")
    one = layers.LayerTotals(self_s={"sim.engine": 1.0}, span_calls={},
                             incl_s={"sim.engine": 2.0}, calls={key: 3},
                             crossings={("outside", key): (1, 2.0)})
    two = layers.LayerTotals(self_s={"sim.engine": 0.5, "cli.serve": 4.0},
                             span_calls={"cli.serve": 7}, incl_s={},
                             calls={key: 1},
                             crossings={("outside", key): (2, 1.0)})
    total = layers.combine([one, two])
    assert total.self_s == {"sim.engine": 1.5, "cli.serve": 4.0}
    assert total.span_calls == {"cli.serve": 7}
    assert total.incl_s == {"sim.engine": 2.0}
    assert total.calls == {key: 4}
    assert total.crossings == {("outside", key): (3, 3.0)}
    assert one.self_s == {"sim.engine": 1.0}


# ---------------------------------------------------------------------- #
# phases and the manifest
# ---------------------------------------------------------------------- #
def test_absorbed_phases_add_up_and_keep_their_names_apart():
    kernel = Outcome(attempted=6, failed=1, exact={"cell0": "d"},
                     notes=["slow"], traced_s=2.0, untraced_s=1.0)
    kernel.put("setup_s", 0.25, "s")
    kernel.put("sim_s_per_cpu_s", 8.0, "sim-s/CPU-s")
    serve = Outcome(attempted=10, exact={"cell0": "e"}, traced_s=3.0,
                    untraced_s=2.0)
    serve.put("setup_s", 0.5, "s")
    total = Outcome()
    total.absorb("kernel", kernel)
    total.absorb("serve", serve)
    assert (total.attempted, total.failed) == (16, 1)
    assert total.metrics == {"setup_s": (0.75, "s"),
                             "sim_s_per_cpu_s": (8.0, "sim-s/CPU-s")}
    assert total.exact == {"kernel.cell0": "d", "serve.cell0": "e"}
    assert total.notes == ["kernel: slow"]
    total.put_overhead()
    assert total.metrics["trace.overhead_s"] == (2.0, "s")
    assert total.metrics["trace.overhead_ratio"] == (5.0 / 3.0, "ratio")
    with pytest.raises(ValueError, match="sim_s_per_cpu_s"):
        total.absorb("again", kernel)


def test_manifest_matches_what_the_runs_report():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [one["name"] for one in manifest["workloads"]] == \
        list(inputs.SIM_SHAPES)
    per_layer = {one["name"] for one in manifest["per_layer"]}
    timed_layers = {name[:-len(".self_s")] for name in per_layer
                    if name.endswith(".self_s")}
    assert timed_layers == (set(pipeline.LAYERS)
                            | set(pipeline.LAYERS_SELF_ONLY))
    for layer in pipeline.LAYERS:
        assert {f"{layer}.span_calls", f"{layer}.incl_s"} <= per_layer


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _fake_index():
    def record(tag):
        return {"sweep": f"s{tag}", "figures_all": f"a{tag}",
                "figures": {"fig5": f"f5{tag}", "fig7": f"f7{tag}"},
                "table1": f"t{tag}", "cells": 6}
    return {"entries": {"e00": record(0), "e01": record(1)}}


def test_same_seed_gives_same_inputs():
    for workload in inputs.SIM_SHAPES:
        assert inputs.sim_cells(workload, 7) == inputs.sim_cells(workload, 7)
        assert inputs.sim_cells(workload, 7) != inputs.sim_cells(workload, 8)
    assert inputs.campaign_manifest(7) == inputs.campaign_manifest(7)
    assert inputs.campaign_manifest(7) != inputs.campaign_manifest(8)
    assert inputs.serve_manifest(7) == inputs.serve_manifest(7)
    index = _fake_index()
    first = inputs.serve_queries(7, "c", index, 200)
    assert first == inputs.serve_queries(7, "c", index, 200)
    assert first != inputs.serve_queries(8, "c", index, 200)


def test_inputs_have_the_documented_shape():
    entries = inputs.campaign_manifest(1)["entries"]
    assert sum(len(entry["protocols"]) * len(entry["speeds"])
               * entry["replications"] for entry in entries) > 1000
    for workload in inputs.SIM_SHAPES:
        protocols = {cell["protocol"] for cell in
                     inputs.sim_cells(workload, 1)}
        assert protocols == set(inputs.PROTOCOLS)
    paths = inputs.serve_queries(3, "c", _fake_index(), 400)
    kinds = {path.split("/")[-1] if "entries" in path else path.split("/")[1]
             for path in paths}
    assert {"campaigns", "artifacts", "sweep", "figures", "table1",
            "fig5"} <= kinds
