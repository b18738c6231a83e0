"""Tests for the shared JSON-over-HTTP transport (:mod:`repro.common.jsonhttp`).

Both surfaces built on it — the coordinator's REST API and the gateway's
operations surface — are driven over raw loopback sockets: a stalled body
is bounded by the handler's socket timeout, a client hang-up never escapes
a handler, and a protocol fuzzer finds no request that gets a 500 or a
non-JSON refusal.
"""

import http.client
import json
import socket
import string
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import CampaignSpec
from repro.common.config import GatewayConfig
from repro.common.exceptions import (
    GatewayError,
    GatewayUnavailableError,
    RetryExhaustedError,
)
from repro.common.jsonhttp import JsonHandler
from repro.common.retry import RetryPolicy
from repro.gateway.client import StreamClient
from repro.gateway.pool import MonitorPool
from repro.gateway.server import GatewayServer
from repro.service import CampaignCoordinator, CoordinatorClient, CoordinatorServer

#: The lowered socket timeout the timeout tests run under.
SHORT_TIMEOUT = 0.3


@pytest.fixture(scope="module")
def coordinator_server(tmp_path_factory):
    coordinator = CampaignCoordinator(tmp_path_factory.mktemp("coordinator"))
    with CoordinatorServer(coordinator, port=0) as server:
        yield server


@pytest.fixture(scope="module")
def gateway_server(small_evaluation):
    pool = MonitorPool(
        small_evaluation.analyzer,
        GatewayConfig(port=0, ingest_port=0, flush_interval_seconds=0.05),
    )
    with GatewayServer(pool) as gateway:
        yield gateway


@pytest.fixture(params=["coordinator", "gateway"])
def surface(request):
    """Each HTTP surface in turn: (server, a POST path that reads a body)."""
    if request.param == "coordinator":
        return request.getfixturevalue("coordinator_server"), "/campaigns"
    return request.getfixturevalue("gateway_server"), "/streams"


@pytest.fixture
def short_timeout(monkeypatch):
    """Lower the socket timeout every bound handler class inherits."""
    monkeypatch.setattr(JsonHandler, "timeout", SHORT_TIMEOUT)


def handler_threads():
    return sum(
        "process_request_thread" in thread.name
        for thread in threading.enumerate()
    )


def health_status(address) -> int:
    connection = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        connection.request("GET", "/health")
        return connection.getresponse().status
    finally:
        connection.close()


def read_reply(sock):
    """Status, content type and (for a JSON reply) the decoded body."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    content_type = response.headers.get_content_type()
    body = None
    if content_type == "application/json":
        body = json.loads(response.read().decode("utf-8"))
    response.close()
    return response.status, content_type, body


# ----------------------------------------------------------------------
# Bounded body read
# ----------------------------------------------------------------------
class TestBodyTimeout:
    def test_stalled_body_gets_a_408_and_frees_its_thread(
        self, surface, short_timeout
    ):
        server, path = surface
        before = handler_threads()
        started = time.monotonic()
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 10\r\n\r\n".encode()
            )
            status, _, body = read_reply(sock)
            assert sock.recv(1) == b""  # the server closed the connection
        assert time.monotonic() - started < SHORT_TIMEOUT + 2.0
        assert status == 408
        assert "timed out" in body["error"]
        deadline = time.monotonic() + 2.0
        while handler_threads() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handler_threads() <= before
        assert health_status(server.address) == 200

    def test_sse_feed_outlives_the_socket_timeout(
        self, gateway_server, short_timeout
    ):
        client = StreamClient(gateway_server.url, timeout=5.0)
        client._request("POST", "/streams", {"stream_id": "sse-timeout"})
        try:
            with socket.create_connection(
                gateway_server.address, timeout=5.0
            ) as sock:
                sock.sendall(
                    b"GET /streams/sse-timeout/events HTTP/1.1\r\n"
                    b"Host: test\r\n\r\n"
                )
                reader = sock.makefile("rb")
                assert reader.readline().split()[1] == b"200"
                started = time.monotonic()
                late_keepalives = 0
                while time.monotonic() - started < 4 * SHORT_TIMEOUT:
                    line = reader.readline()
                    assert line, "the feed ended"
                    if (
                        line == b": keepalive\n"
                        and time.monotonic() - started > 2 * SHORT_TIMEOUT
                    ):
                        late_keepalives += 1
                assert late_keepalives > 0
        finally:
            client._request("POST", "/streams/sse-timeout/close", {})


# ----------------------------------------------------------------------
# Client hang-ups
# ----------------------------------------------------------------------
class TestHangups:
    def test_mid_body_reset_leaves_no_traceback(self, surface, capfd):
        server, path = surface
        capfd.readouterr()
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 100\r\n\r\n{\"stream".encode()
            )
            # Linger 0: close() sends a reset, not a FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        time.sleep(0.2)
        assert health_status(server.address) == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_hangup_before_the_reply_leaves_no_traceback(
        self, surface, capfd
    ):
        server, path = surface
        capfd.readouterr()
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                "Content-Length: 10\r\n\r\n".encode()
            )
            sock.close()
        time.sleep(0.2)
        assert health_status(server.address) == 200
        assert "Traceback" not in capfd.readouterr().err


class TestMalformedRequestLine:
    def test_unencoded_space_in_path_gets_a_json_400(self, surface):
        server, _ = surface
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"GET /health now HTTP/1.1\r\nHost: test\r\n\r\n")
            status, content_type, body = read_reply(sock)
        assert (status, content_type) == (400, "application/json")
        assert isinstance(body["error"], str)
        assert health_status(server.address) == 200


# ----------------------------------------------------------------------
# Gateway metrics through the shared client
# ----------------------------------------------------------------------
class TestGatewayMetricsText:
    def test_unreachable_gateway_is_gateway_unavailable(self):
        dead = StreamClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(GatewayUnavailableError, match="cannot reach"):
            dead.metrics_text()
        assert issubclass(GatewayUnavailableError, GatewayError)

    def test_metrics_text_is_retried_under_a_policy(self):
        dead = StreamClient(
            "http://127.0.0.1:9",
            timeout=0.5,
            retry=RetryPolicy(max_attempts=3, base_delay_seconds=0.0),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            dead.metrics_text()
        assert len(excinfo.value.attempts) == 3
        assert isinstance(excinfo.value.last_error, GatewayUnavailableError)

    def test_metrics_text_reads_the_document(self, gateway_server):
        text = StreamClient(gateway_server.url).metrics_text()
        assert text.startswith("#")


# ----------------------------------------------------------------------
# Protocol fuzzing
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

_KEYS = st.sampled_from(
    [
        "spec", "worker_id", "n_simulated", "n_cache_hits", "spans",
        "stream_id", "anomaly_start_hour", "samples",
    ]
)

_BODY = st.one_of(
    st.just(b""),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.dictionaries(_KEYS, _JSON, max_size=4).map(
        lambda value: json.dumps(value).encode()
    ),
    st.binary(max_size=48),
)

_SUFFIX = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.:/%?=&~", max_size=24
)


def _request_strategy(prefixes):
    return st.tuples(
        st.sampled_from(["GET", "POST"]),
        st.tuples(st.sampled_from(prefixes), _SUFFIX | st.just("")).map(
            "".join
        ),
        _BODY,
        st.one_of(
            st.none(),  # the true length
            st.integers(-8, 16),  # off by this much
            st.sampled_from(["-1", "abc", "", "1e3"]),
        ),
    )


def _exchange(address, method, path, body, length):
    """Send one raw request and half-close; returns the reply."""
    if length is None:
        declared = str(len(body))
    elif isinstance(length, int):
        declared = str(max(0, len(body) + length))
    else:
        declared = length
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: fuzz\r\n"
        f"Content-Type: application/json\r\nContent-Length: {declared}\r\n\r\n"
    )
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(head.encode() + body)
        # The half-close turns a Content-Length that over-declares into a
        # short read instead of a wait for the socket timeout.
        sock.shutdown(socket.SHUT_WR)
        return read_reply(sock)


def _assert_contract(status, content_type, body):
    assert status != 500, body
    assert 200 <= status < 300 or 400 <= status < 500, (status, body)
    if status >= 400:
        assert content_type == "application/json"
        assert isinstance(body, dict) and isinstance(body.get("error"), str)


FUZZ = settings(max_examples=120, deadline=None)


class TestProtocolFuzz:
    @pytest.fixture(scope="class")
    def coordinator_routes(self, coordinator_server):
        client = CoordinatorClient(coordinator_server.url)
        campaign_id = client.submit(CampaignSpec(name="fuzz", scenarios=["idv6"]))
        chunk_id = client.chunk_states(campaign_id)[0]["chunk_id"]
        base = f"/campaigns/{campaign_id}"
        return [
            "/health", "/metrics", "/campaigns", "/campaigns/", f"{base}",
            f"{base}/", f"{base}/spec", f"{base}/tables", f"{base}/claim",
            f"{base}/chunks/", f"{base}/chunks/{chunk_id}/heartbeat",
            f"{base}/chunks/{chunk_id}/ack", "/campaigns/00ff/",
        ]

    @pytest.fixture(scope="class")
    def gateway_routes(self, gateway_server):
        client = StreamClient(gateway_server.url)
        client._request("POST", "/streams", {"stream_id": "fuzz-live"})
        base = "/streams/fuzz-live"
        return [
            "/health", "/ready", "/metrics", "/streams", "/streams/", base,
            f"{base}/", f"{base}/alarms", f"{base}/report", f"{base}/samples",
            f"{base}/events", "/streams/ghost/", f"{base}/close",
        ]

    def test_coordinator_answers_every_request_in_contract(
        self, coordinator_server, coordinator_routes
    ):
        self._fuzz(coordinator_server, coordinator_routes)

    def test_gateway_answers_every_request_in_contract(
        self, gateway_server, gateway_routes
    ):
        self._fuzz(gateway_server, gateway_routes)

    @staticmethod
    def _fuzz(server, routes):
        @FUZZ
        @given(request=_request_strategy(routes))
        def check(request):
            method, path, body, length = request
            _assert_contract(*_exchange(server.address, method, path, body, length))

        check()
        assert health_status(server.address) == 200
