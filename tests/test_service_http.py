"""Tests for the REST control surface and its urllib client."""

import json
import socket
import urllib.request

import pytest

from repro import api
from repro.api.spec import CampaignSpec
from repro.common.config import (
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import (
    CampaignIncompleteError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service import (
    CampaignCoordinator,
    ChunkWorker,
    CoordinatorClient,
    CoordinatorServer,
)

SMALL_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


def small_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="http", scenarios=["idv6"])
    defaults.update(kwargs)
    return CampaignSpec(**defaults).with_experiment(SMALL_EXPERIMENT)


def raw_post_status(address, path: str, content_length: str) -> int:
    """POST with a hand-written Content-Length header; the reply's status.

    Raises ``socket.timeout`` when the server sends nothing within 3 s.
    """
    with socket.create_connection(address, timeout=3.0) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


def post_status(url: str, payload) -> int:
    """The HTTP status of a JSON POST."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


@pytest.fixture
def service(tmp_path):
    coordinator = CampaignCoordinator(tmp_path / "shared")
    with CoordinatorServer(coordinator, port=0) as server:
        yield coordinator, server, CoordinatorClient(server.url)


class TestRoutes:
    def test_health(self, service):
        _, _, client = service
        health = client.health()
        assert health["status"] == "ok"

    def test_submit_and_list(self, service):
        _, _, client = service
        campaign_id = client.submit(small_spec())
        assert client.campaign_ids() == [campaign_id]
        assert client.submit(small_spec()) == campaign_id

    def test_spec_round_trips_over_the_wire(self, service):
        coordinator, _, client = service
        campaign_id = client.submit(small_spec())
        fetched = CampaignSpec.from_mapping(client.spec_mapping(campaign_id))
        assert fetched == coordinator._campaigns[campaign_id].spec

    def test_progress_chunks_events(self, service):
        _, _, client = service
        campaign_id = client.submit(small_spec())
        progress = client.progress(campaign_id)
        assert progress["n_chunks"] == len(client.chunk_states(campaign_id))
        assert any("submitted" in event for event in client.events(campaign_id))

    def test_full_protocol_over_http(self, service):
        coordinator, _, client = service
        campaign_id = client.submit(small_spec())
        worker = ChunkWorker(client, worker_id="http-worker")
        executed = worker.drain(campaign_id)
        assert executed > 0
        assert client.progress(campaign_id)["complete"]
        tables = client.tables(campaign_id)
        # HTTP tables == in-process coordinator tables == single-host run
        assert tables == coordinator.tables(campaign_id)
        local = api.run(coordinator.normalize(small_spec()))
        assert tables == local.tables()


class TestErrors:
    def test_unreachable_coordinator(self):
        client = CoordinatorClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.health()

    def test_unknown_campaign_is_service_error(self, service):
        _, _, client = service
        with pytest.raises(ServiceError, match="unknown campaign"):
            client.progress("deadbeef01234567")

    def test_tables_before_completion_is_conflict(self, service):
        _, server, client = service
        campaign_id = client.submit(small_spec())
        # The typed error lets --no-wait submitters poll without
        # string-matching; it is still a ServiceError for old callers.
        with pytest.raises(CampaignIncompleteError, match="not complete"):
            client.tables(campaign_id)
        assert issubclass(CampaignIncompleteError, ServiceError)
        # and the raw status code is 409, not 404/500
        try:
            urllib.request.urlopen(f"{server.url}/campaigns/{campaign_id}/tables")
        except urllib.error.HTTPError as error:
            assert error.code == 409
        else:
            pytest.fail("expected HTTP 409")

    def test_bad_submission_body(self, service):
        _, server, _ = service
        request = urllib.request.Request(
            f"{server.url}/campaigns",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_bad_content_length_is_a_prompt_400(self, service, content_length):
        _, server, _ = service
        assert raw_post_status(server.address, "/campaigns", content_length) == 400

    def test_malformed_ack_count_is_a_400_not_a_500(self, service):
        _, server, client = service
        campaign_id = client.submit(small_spec())
        chunk = client.claim(campaign_id, "w")
        url = (
            f"{server.url}/campaigns/{campaign_id}/chunks/"
            f"{chunk['chunk_id']}/ack"
        )
        assert post_status(url, {"worker_id": "w", "n_simulated": "abc"}) == 400
        assert post_status(url, {"worker_id": "w", "n_cache_hits": 1.5}) == 400
        assert not client.progress(campaign_id)["complete"]

    def test_invalid_spec_is_a_400_not_a_500(self, service):
        _, server, _ = service
        body = json.dumps({"spec": {"name": "x", "scenarios": ["no-such"]}})
        request = urllib.request.Request(
            f"{server.url}/campaigns",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    def test_unknown_route_is_404(self, service):
        _, server, _ = service
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"{server.url}/nope")
        assert info.value.code == 404


class TestFacade:
    def test_submit_poll_fetch(self, service, tmp_path):
        _, server, client = service
        spec = small_spec()
        campaign_id = api.submit_spec(spec, url=server.url)
        progress = api.poll(spec, url=server.url)
        assert progress["campaign_id"] == campaign_id
        ChunkWorker(client, worker_id="w").drain(campaign_id)
        tables = api.fetch_tables(spec, url=server.url)
        assert set(tables) == set(spec.analysis.tables)

    def test_session_methods_share_the_campaign_id(self, service):
        _, server, client = service
        session = api.Session(small_spec())
        campaign_id = session.submit(url=server.url)
        assert session.status(url=server.url)["campaign_id"] == campaign_id

    def test_facade_surfaces_unreachable_coordinator(self):
        with pytest.raises(ServiceUnavailableError):
            api.submit_spec(small_spec(), url="http://127.0.0.1:1")


class TestObservabilityRoutes:
    def test_metrics_route_serves_prometheus_text(self, service):
        _, server, client = service
        client.submit(small_spec())
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5.0) as reply:
            assert reply.status == 200
            content_type = reply.headers.get("Content-Type")
            body = reply.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE service_campaigns gauge" in body
        assert "service_campaigns 1" in body
        assert "service_submissions_total 1" in body
        assert body == client.metrics_text()

    def test_trace_route_round_trips_worker_spans(self, service):
        from repro.common.config import ObsConfig
        from repro.obs.trace import Tracer, validate_chrome_trace

        _, _, client = service
        campaign_id = client.submit(
            small_spec(obs=ObsConfig(enabled=True, trace=True))
        )
        ChunkWorker(client, worker_id="http-worker").drain(campaign_id)
        spans = client.trace(campaign_id)
        assert spans and all(span["process"] == "http-worker" for span in spans)
        merged = Tracer(enabled=False)
        merged.absorb(spans)
        validate_chrome_trace(merged.chrome_trace())

    def test_trace_route_is_empty_without_obs(self, service):
        _, _, client = service
        campaign_id = client.submit(small_spec())
        ChunkWorker(client, worker_id="http-worker").drain(campaign_id)
        assert client.trace(campaign_id) == []
