"""Tests for the campaign coordinator: leases, acks, reaping, reduction."""

import pytest

from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.common.config import (
    ExperimentConfig,
    LiveConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError, ServiceError
from repro.experiments.parallel import CampaignEngine
from repro.service import CampaignCoordinator, ChunkWorker

SMALL_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


def small_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="coord", scenarios=["idv6", "attack_xmv3"])
    defaults.update(kwargs)
    return CampaignSpec(**defaults).with_experiment(SMALL_EXPERIMENT)


class FakeClock:
    """Injectable monotonic clock for lease-expiry tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def coordinator(tmp_path, clock):
    return CampaignCoordinator(tmp_path / "shared", clock=clock)


class TestSubmit:
    def test_submission_is_idempotent(self, coordinator):
        first = coordinator.submit(small_spec())
        second = coordinator.submit(small_spec())
        assert first == second
        assert coordinator.campaign_ids() == [first]

    def test_normalization_rebases_the_cache(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        mapping = coordinator.spec_mapping(campaign_id)
        assert mapping["experiment"]["parallel"]["cache_dir"] == coordinator.cache_dir

    def test_specs_differing_only_in_cache_dir_are_one_campaign(
        self, coordinator, tmp_path
    ):
        from dataclasses import replace

        other = small_spec().with_experiment(
            SMALL_EXPERIMENT.with_parallel(
                replace(
                    SMALL_EXPERIMENT.parallel,
                    cache_dir=str(tmp_path / "elsewhere"),
                )
            )
        )
        assert coordinator.submit(small_spec()) == coordinator.submit(other)

    def test_live_specs_are_rejected(self, coordinator):
        spec = small_spec(live=LiveConfig(enabled=True))
        with pytest.raises(ConfigurationError, match="live"):
            coordinator.submit(spec)

    def test_unknown_campaign_raises(self, coordinator):
        with pytest.raises(ServiceError, match="unknown campaign"):
            coordinator.progress("deadbeef")


class TestLeases:
    def test_claims_hand_out_distinct_chunks(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        a = coordinator.claim(campaign_id, "worker-a")
        b = coordinator.claim(campaign_id, "worker-b")
        assert a["chunk_id"] != b["chunk_id"]

    def test_claims_run_dry_when_everything_is_leased(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        while coordinator.claim(campaign_id, "worker-a") is not None:
            pass
        progress = coordinator.progress(campaign_id)
        assert progress["n_pending"] == 0 and progress["n_leased"] > 0

    def test_expired_lease_returns_to_pending(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        clock.advance(chunk["lease_seconds"] + 1)
        progress = coordinator.progress(campaign_id)
        assert progress["n_leased"] == 0
        reclaimed = coordinator.claim(campaign_id, "worker-b")
        assert reclaimed["chunk_id"] == chunk["chunk_id"]

    def test_heartbeat_extends_the_lease(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        clock.advance(chunk["lease_seconds"] - 1)
        assert coordinator.heartbeat(campaign_id, chunk["chunk_id"], "worker-a")
        clock.advance(chunk["lease_seconds"] - 1)
        assert coordinator.progress(campaign_id)["n_leased"] == 1

    def test_heartbeat_refused_after_reclaim(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        clock.advance(chunk["lease_seconds"] + 1)
        coordinator.claim(campaign_id, "worker-b")
        assert not coordinator.heartbeat(campaign_id, chunk["chunk_id"], "worker-a")

    def test_spec_service_section_sets_the_lease(self, tmp_path, clock):
        from repro.common.config import ServiceConfig

        coordinator = CampaignCoordinator(tmp_path / "s", clock=clock)
        spec = small_spec(service=ServiceConfig(lease_seconds=5.0,
                                                heartbeat_seconds=2.5))
        campaign_id = coordinator.submit(spec)
        chunk = coordinator.claim(campaign_id, "worker-a")
        assert chunk["lease_seconds"] == 5.0


class TestAcks:
    def test_ack_without_results_is_rejected(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        response = coordinator.ack(campaign_id, chunk["chunk_id"], "worker-a")
        assert not response["accepted"]
        assert response["missing"] == chunk["stop"] - chunk["start"]
        # the chunk went back to the pool
        assert coordinator.claim(campaign_id, "worker-b") is not None

    def test_ack_accepts_once_results_are_cached(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
        worker = ChunkWorker(coordinator, worker_id="worker-a")
        executed = worker.drain(campaign_id)
        assert executed == coordinator.progress(campaign_id)["n_chunks"]
        assert coordinator.progress(campaign_id)["complete"]
        assert spec.experiment.parallel.cache_dir == coordinator.cache_dir

    def test_ack_is_idempotent(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        worker = ChunkWorker(coordinator, worker_id="worker-a")
        worker.drain(campaign_id)
        response = coordinator.ack(campaign_id, "c0000", "anyone-at-all")
        assert response["accepted"] and response["missing"] == 0

    def test_ack_is_ownership_blind(self, coordinator, clock):
        """Results under the right cache keys count, whoever produced them."""
        campaign_id = coordinator.submit(small_spec())
        spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
        chunk = coordinator.claim(campaign_id, "worker-a")
        # worker-a simulates but its lease expires before it can ack
        from repro.service.chunks import WorkChunk

        specs = WorkChunk.from_claim(chunk).specs_of(spec)
        CampaignEngine(spec.experiment.parallel).run(specs, prune=False)
        clock.advance(chunk["lease_seconds"] + 1)
        # worker-b re-claims and acks instantly: everything is cached
        reclaimed = coordinator.claim(campaign_id, "worker-b")
        assert reclaimed["chunk_id"] == chunk["chunk_id"]
        response = coordinator.ack(
            campaign_id, reclaimed["chunk_id"], "worker-b", n_cache_hits=len(specs)
        )
        assert response["accepted"]


class TestReduction:
    def test_result_refused_while_incomplete(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        with pytest.raises(ServiceError, match="not complete"):
            coordinator.result(campaign_id)

    def test_tables_match_single_host_run_bitwise(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        ChunkWorker(coordinator, worker_id="worker-a").drain(campaign_id)
        distributed = coordinator.tables(campaign_id)
        local = Session(coordinator.normalize(small_spec())).run().tables()
        assert distributed == local

    def test_result_is_memoized(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        ChunkWorker(coordinator, worker_id="worker-a").drain(campaign_id)
        assert coordinator.result(campaign_id) is coordinator.result(campaign_id)

    def test_events_tell_the_story(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        ChunkWorker(coordinator, worker_id="worker-a").drain(campaign_id)
        coordinator.tables(campaign_id)
        events = coordinator.events(campaign_id)
        assert any("submitted" in event for event in events)
        assert any("claim" in event for event in events)
        assert any("campaign complete" in event for event in events)
        assert any("reduced" in event for event in events)

    def test_health(self, coordinator):
        health = coordinator.health()
        assert health["status"] == "ok"
        assert health["n_campaigns"] == 0


class TestObservability:
    """The coordinator's /metrics registry and worker trace merging."""

    def test_metrics_follow_the_chunk_lifecycle(self, coordinator, clock):
        text = coordinator.metrics_render()
        assert "# TYPE service_campaigns gauge" in text
        assert "service_campaigns 0" in text

        campaign_id = coordinator.submit(small_spec())
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["service_submissions_total"] == 1.0
        text = coordinator.metrics_render()
        assert "service_campaigns 1" in text
        progress = coordinator.progress(campaign_id)
        assert (
            f"service_chunks_pending {progress['n_pending']}" in text
        )

        chunk = coordinator.claim(campaign_id, "worker-a")
        text = coordinator.metrics_render()
        assert "service_chunks_leased 1" in text
        assert "service_workers_active 1" in text
        assert coordinator.metrics.snapshot()["service_claims_total"] == 1.0

        # Let the manual lease lapse so the drain below can finish the
        # campaign (the fake clock never expires it on its own).
        clock.advance(chunk["lease_seconds"] + 1)
        ChunkWorker(coordinator, worker_id="worker-a").drain(campaign_id)
        text = coordinator.metrics_render()
        assert "service_chunks_leased 0" in text
        assert "service_workers_active 0" in text
        assert f"service_chunks_done {progress['n_chunks']}" in text
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["service_acks_total"] >= progress["n_chunks"]

    def test_rejected_ack_and_reaped_lease_are_counted(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        coordinator.ack(campaign_id, chunk["chunk_id"], "worker-a")
        assert coordinator.metrics.snapshot()["service_acks_rejected_total"] == 1.0
        coordinator.claim(campaign_id, "worker-a")
        clock.advance(chunk["lease_seconds"] + 1)
        coordinator.progress(campaign_id)  # triggers the reaper
        assert coordinator.metrics.snapshot()["service_leases_reaped_total"] >= 1.0

    def test_heartbeats_are_counted(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        chunk = coordinator.claim(campaign_id, "worker-a")
        coordinator.heartbeat(campaign_id, chunk["chunk_id"], "worker-a")
        assert coordinator.metrics.snapshot()["service_heartbeats_total"] == 1.0

    def test_ack_spans_are_stored_per_campaign(self, coordinator):
        from repro.service.chunks import WorkChunk

        campaign_id = coordinator.submit(small_spec())
        spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
        chunk = coordinator.claim(campaign_id, "worker-a")
        specs = WorkChunk.from_claim(chunk).specs_of(spec)
        CampaignEngine(spec.experiment.parallel).run(specs, prune=False)
        spans = [{"name": "worker.chunk", "start": 1.0, "duration": 2.0,
                  "process": "worker-a", "thread": "main"}]
        response = coordinator.ack(
            campaign_id, chunk["chunk_id"], "worker-a",
            n_cache_hits=len(specs), spans=spans,
        )
        assert response["accepted"]
        assert coordinator.trace(campaign_id) == spans

    def test_two_workers_merge_into_one_valid_trace(self, coordinator):
        from repro.common.config import ObsConfig
        from repro.obs.trace import Tracer, chrome_trace, validate_chrome_trace

        spec = small_spec(obs=ObsConfig(enabled=True, trace=True))
        campaign_id = coordinator.submit(spec)
        workers = [
            ChunkWorker(coordinator, worker_id="worker-a"),
            ChunkWorker(coordinator, worker_id="worker-b"),
        ]
        index = 0
        while any(worker.run_once(campaign_id) for worker in [workers[index % 2]]):
            index += 1
        assert coordinator.progress(campaign_id)["complete"]

        spans = coordinator.trace(campaign_id)
        assert spans, "tracing-enabled campaign shipped no spans"
        assert {span["process"] for span in spans} == {"worker-a", "worker-b"}
        names = {span["name"] for span in spans}
        assert "worker.chunk" in names
        assert "engine.chunk" in names  # inner engine spans ride along

        # The merged buffer exports as one schema-valid Chrome trace.
        merged = Tracer(enabled=False)
        merged.absorb(spans)
        document = merged.chrome_trace(metadata={"campaign": campaign_id})
        events = validate_chrome_trace(document)
        assert len(events) == len(spans)
        assert chrome_trace(spans)["traceEvents"] == document["traceEvents"]

    def test_default_spec_ships_no_spans(self, coordinator):
        campaign_id = coordinator.submit(small_spec())
        ChunkWorker(coordinator, worker_id="worker-a").drain(campaign_id)
        assert coordinator.trace(campaign_id) == []
