"""Tests for the gateway server and client (:mod:`repro.gateway`).

End-to-end over real loopback sockets: the HTTP operations surface, the
newline-JSON TCP ingest path through :class:`StreamClient`, the SSE alarm
feed, and the error-code mapping.  The flush interval is short and ports
are ephemeral, so the whole file runs in seconds.
"""

import json
import socket
import time
import urllib.error
import urllib.request
import uuid

import pytest

from repro.common.config import GatewayConfig
from repro.common.exceptions import (
    GatewayError,
    StreamRejectedError,
    UnknownStreamError,
)
from repro.gateway.pool import MonitorPool
from repro.gateway.server import GatewayServer
from repro.gateway.client import StreamClient
from repro.live.monitor import LiveMonitor
from repro._version import __version__

ANOMALY_START = 4.0


def canonical(mapping) -> str:
    return json.dumps(mapping, sort_keys=True)


def unique_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:8]}"


@pytest.fixture(scope="module")
def server(small_evaluation):
    pool = MonitorPool(
        small_evaluation.analyzer,
        GatewayConfig(
            port=0,
            ingest_port=0,
            scoring_batch_size=16,
            flush_interval_seconds=0.02,
        ),
    )
    with GatewayServer(pool) as gateway:
        yield gateway


@pytest.fixture
def client(server):
    with StreamClient(server.url, timeout=10.0) as stream_client:
        yield stream_client


def replay(client, stream_id, result, limit=None):
    controller = result.controller_data
    process = result.process_data
    n = controller.n_observations if limit is None else limit
    for i in range(n):
        client.feed(
            stream_id,
            controller.values[i],
            process.values[i],
            float(controller.timestamps[i]),
        )


def reference_report(analyzer, result, onset, limit=None):
    monitor = LiveMonitor(analyzer, anomaly_start_hour=onset)
    controller = result.controller_data
    n = controller.n_observations if limit is None else limit
    for i in range(n):
        monitor.observe(
            controller.values[i],
            result.process_data.values[i],
            float(controller.timestamps[i]),
        )
    return monitor.report().to_mapping()


# ----------------------------------------------------------------------
# Operational endpoints
# ----------------------------------------------------------------------
class TestOpsEndpoints:
    def test_health_reports_version_and_ingest_address(self, server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert (health["ingest_host"], health["ingest_port"]) == (
            server.ingest_address
        )
        assert health["max_streams"] == server.pool.config.max_streams

    def test_ready_probe(self, client):
        assert client.ready() is True

    def test_metrics_document_is_prometheus_text(self, client):
        text = client.metrics_text()
        assert "# TYPE gateway_streams_active gauge" in text
        assert "# TYPE gateway_samples_ingested_total counter" in text
        assert "# TYPE gateway_ingest_latency_seconds histogram" in text

    def test_streams_listing_tracks_open_streams(self, client):
        stream_id = unique_id("listed")
        client.open_stream(stream_id)
        try:
            assert stream_id in client.streams()
        finally:
            client.close_stream(stream_id)
        assert stream_id not in client.streams()

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/bogus", timeout=5.0)
        assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# TCP ingest path (the StreamClient data plane)
# ----------------------------------------------------------------------
class TestTCPIngest:
    def test_fed_stream_is_bitwise_identical_to_in_process(
        self, small_evaluation, server, client, attack_xmv3_run
    ):
        stream_id = unique_id("tcp")
        client.open_stream(stream_id, anomaly_start_hour=ANOMALY_START)
        replay(client, stream_id, attack_xmv3_run)
        report = client.close_stream(stream_id)
        expected = reference_report(
            small_evaluation.analyzer, attack_xmv3_run, ANOMALY_START
        )
        assert canonical(report) == canonical(expected)

    def test_sync_forces_scoring_and_reports_the_count(
        self, client, idv6_run
    ):
        stream_id = unique_id("sync")
        client.open_stream(stream_id, anomaly_start_hour=ANOMALY_START)
        replay(client, stream_id, idv6_run, limit=9)
        scored = client.sync(stream_id)
        assert 0 <= scored <= 9  # the flusher may have raced us
        status = client.status(stream_id)
        assert status["n_samples"] + status["n_pending"] == 9
        client.sync(stream_id)
        assert client.status(stream_id)["n_pending"] == 0
        client.close_stream(stream_id)

    def test_status_alarms_and_report_queries(
        self, client, attack_xmv3_run
    ):
        stream_id = unique_id("query")
        client.open_stream(stream_id, anomaly_start_hour=ANOMALY_START)
        replay(client, stream_id, attack_xmv3_run)
        client.sync(stream_id)
        status = client.status(stream_id)
        assert status["detected"] is True
        alarms = client.alarms(stream_id)
        assert any(alarms.values())
        open_report = client.report(stream_id)
        closed_report = client.close_stream(stream_id)
        assert canonical(open_report) == canonical(closed_report)
        # the archived report stays queryable after close
        assert canonical(client.report(stream_id)) == canonical(closed_report)

    def test_rejected_sample_ends_only_its_own_stream(
        self, server, client, normal_run
    ):
        good, bad = unique_id("goodtcp"), unique_id("badtcp")
        client.open_stream(good)
        client.open_stream(bad)
        replay(client, good, normal_run, limit=5)
        client.feed(bad, [1.0], [2.0], 0.0)  # wrong-length vectors
        with pytest.raises(GatewayError, match="rejected sample"):
            client.sync(bad)  # drains the rejection reply
        # the bad stream's connection is dropped server-side...
        deadline = time.monotonic() + 10.0
        while bad in client.streams() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert bad not in client.streams()
        # ...while the good stream keeps every sample it fed
        assert good in client.streams()
        client.sync(good)
        status = client.status(good)
        assert status["n_samples"] + status["n_pending"] == 5
        client.close_stream(good)

    def test_malformed_onset_is_refused_with_a_reply(self, server):
        with socket.create_connection(server.ingest_address, timeout=10.0) as sock:
            sock.sendall(
                json.dumps(
                    {"op": "open", "stream": unique_id("tcponset"),
                     "anomaly_start_hour": "abc"}
                ).encode() + b"\n"
            )
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert "anomaly_start_hour" in reply["error"]

    def test_oversized_ingest_line_is_rejected_bounded(self, server):
        host, port = server.ingest_address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            # one byte past the cap, no newline: the bounded readline must
            # reject without waiting for (or buffering) an endless line
            sock.sendall(b"x" * (1024 * 1024 + 1))
            reply = json.loads(sock.makefile("rb").readline())
        assert reply == {"ok": False, "error": "line too long"}


# ----------------------------------------------------------------------
# HTTP sample path (POST /streams/<id>/samples)
# ----------------------------------------------------------------------
class TestHTTPSamples:
    def test_http_fed_stream_matches_in_process(
        self, small_evaluation, client, idv6_run
    ):
        stream_id = unique_id("http")
        client._request("POST", "/streams", {"stream_id": stream_id,
                                             "anomaly_start_hour": ANOMALY_START})
        controller = idv6_run.controller_data
        process = idv6_run.process_data
        limit = 40
        samples = [
            {
                "controller": [float(v) for v in controller.values[i]],
                "process": [float(v) for v in process.values[i]],
                "time_hours": float(controller.timestamps[i]),
            }
            for i in range(limit)
        ]
        reply = client._request(
            "POST", f"/streams/{stream_id}/samples", {"samples": samples}
        )
        assert reply["accepted"] == limit
        reply = client._request("POST", f"/streams/{stream_id}/close", {})
        expected = reference_report(
            small_evaluation.analyzer, idv6_run, ANOMALY_START, limit=limit
        )
        assert canonical(reply["report"]) == canonical(expected)

    def test_samples_body_must_carry_a_list(self, client):
        stream_id = unique_id("badbody")
        client._request("POST", "/streams", {"stream_id": stream_id})
        with pytest.raises(GatewayError, match="samples"):
            client._request(
                "POST", f"/streams/{stream_id}/samples", {"samples": 7}
            )
        client._request("POST", f"/streams/{stream_id}/close", {})

    def test_bad_batch_entry_names_its_index_and_buffers_nothing(
        self, server, client, idv6_run
    ):
        stream_id = unique_id("atomic")
        client._request("POST", "/streams", {"stream_id": stream_id})
        controller = idv6_run.controller_data
        process = idv6_run.process_data
        good = {
            "controller": [float(v) for v in controller.values[0]],
            "process": [float(v) for v in process.values[0]],
            "time_hours": float(controller.timestamps[0]),
        }
        bad = {"controller": [1.0], "process": [2.0], "time_hours": 0.0}
        with pytest.raises(GatewayError, match="sample 1"):
            client._request(
                "POST",
                f"/streams/{stream_id}/samples",
                {"samples": [good, bad, good]},
            )
        # atomic rejection: not even the valid leading sample was buffered
        status = client.status(stream_id)
        assert status["n_samples"] + status["n_pending"] == 0
        with pytest.raises(GatewayError, match="sample 0"):
            client._request(
                "POST",
                f"/streams/{stream_id}/samples",
                {"samples": [{"controller": [1.0]}]},
            )
        client._request("POST", f"/streams/{stream_id}/close", {})


# ----------------------------------------------------------------------
# SSE alarm feed
# ----------------------------------------------------------------------
class TestEventsFeed:
    def test_events_stream_delivers_alarm_transitions(
        self, server, client, attack_xmv3_run
    ):
        stream_id = unique_id("sse")
        client.open_stream(stream_id, anomaly_start_hour=ANOMALY_START)
        replay(client, stream_id, attack_xmv3_run)
        client.sync(stream_id)
        response = urllib.request.urlopen(
            f"{server.url}/streams/{stream_id}/events", timeout=5.0
        )
        try:
            assert response.headers["Content-Type"] == "text/event-stream"
            payloads = []
            for _ in range(200):
                line = response.readline().decode("utf-8").rstrip("\n")
                if line.startswith("data:"):
                    payloads.append(json.loads(line[len("data:"):]))
                if line == ": keepalive":
                    break
            assert payloads, "no alarm events before the first keepalive"
            assert payloads[0]["kind"] == "raised"
            assert payloads[0]["view"] in ("controller", "process")
        finally:
            response.close()
            client.close_stream(stream_id)

    def test_events_for_unknown_stream_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{server.url}/streams/ghost/events", timeout=5.0
            )
        assert excinfo.value.code == 404


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
class TestErrorMapping:
    def test_unknown_stream_maps_to_unknown_stream_error(self, client):
        with pytest.raises(UnknownStreamError):
            client.status("ghost")
        with pytest.raises(UnknownStreamError):
            client.report("ghost")

    def test_duplicate_open_maps_to_stream_rejected(self, client):
        stream_id = unique_id("dup")
        client._request("POST", "/streams", {"stream_id": stream_id})
        with pytest.raises(StreamRejectedError, match="already open"):
            client._request("POST", "/streams", {"stream_id": stream_id})
        client._request("POST", f"/streams/{stream_id}/close", {})

    def test_duplicate_tcp_open_is_refused(self, client):
        stream_id = unique_id("tcpdup")
        client.open_stream(stream_id)
        other = StreamClient(client.base_url, timeout=5.0)
        try:
            with pytest.raises(GatewayError, match="already open"):
                other.open_stream(stream_id)
        finally:
            other.close()
            client.close_stream(stream_id)

    def test_feed_before_open_is_rejected_locally(self, client):
        with pytest.raises(UnknownStreamError, match="not open on this client"):
            client.feed("never-opened", [0.0], [0.0], 0.0)

    def test_unreachable_gateway_maps_to_gateway_error(self):
        dead = StreamClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(GatewayError, match="cannot reach"):
            dead.health()

    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_bad_content_length_is_a_prompt_400(self, server, content_length):
        with socket.create_connection(server.address, timeout=3.0) as sock:
            sock.sendall(
                f"POST /streams HTTP/1.1\r\nHost: test\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n".encode()
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_malformed_onset_is_a_400_not_a_500(self, server, client):
        stream_id = unique_id("badonset")
        request = urllib.request.Request(
            f"{server.url}/streams",
            data=json.dumps(
                {"stream_id": stream_id, "anomaly_start_hour": "abc"}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400
        assert b"anomaly_start_hour" in excinfo.value.read()
        assert stream_id not in client.streams()

    def test_wrong_method_is_rejected(self, client):
        stream_id = unique_id("method")
        client._request("POST", "/streams", {"stream_id": stream_id})
        with pytest.raises(GatewayError, match="requires POST"):
            client._request("GET", f"/streams/{stream_id}/close")
        client._request("POST", f"/streams/{stream_id}/close", {})
