"""Fault-injection tests: dead workers, partial chunks, coordinator restarts.

The service's recovery guarantees all reduce to one invariant: simulation
results live in the shared cache under content-derived keys, so whatever
dies — a worker mid-chunk, a whole worker fleet, the coordinator itself —
completed runs are never lost and never simulated twice.
"""

import pytest

from repro import faults
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.common.config import (
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ServiceUnavailableError
from repro.common.retry import RetryPolicy
from repro.experiments.parallel import CampaignEngine
from repro.faults import FaultPlan, FaultRule
from repro.service import (
    CampaignCoordinator,
    ChunkWorker,
    CoordinatorClient,
    CoordinatorServer,
    WorkChunk,
)

SMALL_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


def small_spec() -> CampaignSpec:
    return CampaignSpec(
        name="faults", scenarios=["idv6", "attack_xmv3"]
    ).with_experiment(SMALL_EXPERIMENT)


class FakeClock:
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


def die_mid_chunk(coordinator, campaign_id, worker_id, n_completed):
    """Simulate a worker that claims a chunk, finishes ``n_completed`` of
    its runs into the shared cache, then dies without acking."""
    descriptor = coordinator.claim(campaign_id, worker_id)
    spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
    specs = WorkChunk.from_claim(descriptor).specs_of(spec)
    if n_completed:
        CampaignEngine(spec.experiment.parallel).run(
            specs[:n_completed], prune=False
        )
    return descriptor, len(specs)


class TestDeadWorkers:
    def test_killed_worker_chunk_is_recovered_without_resimulation(
        self, coordinator, clock
    ):
        """The pinned guarantee: a worker dying mid-chunk costs nothing.

        Its finished runs are reused as cache hits by whoever re-claims the
        chunk, only the unfinished remainder is simulated, and the final
        tables are bitwise-identical to a single-host run.
        """
        campaign_id = coordinator.submit(small_spec())
        n_runs = coordinator.progress(campaign_id)["n_runs"]

        descriptor, chunk_runs = die_mid_chunk(
            coordinator, campaign_id, "doomed", n_completed=1
        )
        clock.advance(descriptor["lease_seconds"] + 1)

        survivor = ChunkWorker(coordinator, worker_id="survivor")
        survivor.drain(campaign_id)

        assert coordinator.progress(campaign_id)["complete"]
        # every run simulated exactly once across the dead and live worker:
        # the survivor re-claimed the doomed chunk but only simulated the
        # run the dead worker never finished
        assert survivor.n_simulated == n_runs - 1
        assert survivor.n_cache_hits == 1
        # and the tables are the single-host tables, bit for bit
        distributed = coordinator.tables(campaign_id)
        local = Session(coordinator.normalize(small_spec())).run().tables()
        assert distributed == local

    def test_worker_killed_before_any_progress(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        n_runs = coordinator.progress(campaign_id)["n_runs"]
        descriptor, _ = die_mid_chunk(coordinator, campaign_id, "doomed", 0)
        clock.advance(descriptor["lease_seconds"] + 1)
        survivor = ChunkWorker(coordinator, worker_id="survivor")
        survivor.drain(campaign_id)
        assert survivor.n_simulated == n_runs
        assert survivor.n_cache_hits == 0
        attempts = {
            chunk["chunk_id"]: chunk["attempts"]
            for chunk in coordinator.chunk_states(campaign_id)
        }
        assert attempts[descriptor["chunk_id"]] == 2

    def test_whole_fleet_dies_and_a_new_fleet_finishes(self, coordinator, clock):
        campaign_id = coordinator.submit(small_spec())
        n_runs = coordinator.progress(campaign_id)["n_runs"]
        # the first fleet claims everything, completes it all in the cache,
        # but dies before acking a single chunk
        claimed = []
        while True:
            descriptor = coordinator.claim(campaign_id, "fleet-1")
            if descriptor is None:
                break
            claimed.append(descriptor)
        spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
        for descriptor in claimed:
            CampaignEngine(spec.experiment.parallel).run(
                WorkChunk.from_claim(descriptor).specs_of(spec), prune=False
            )
        clock.advance(max(d["lease_seconds"] for d in claimed) + 1)
        # the second fleet acks everything from cache without simulating
        survivor = ChunkWorker(coordinator, worker_id="fleet-2")
        survivor.drain(campaign_id)
        assert survivor.n_simulated == 0
        assert survivor.n_cache_hits == n_runs
        assert coordinator.progress(campaign_id)["complete"]


class TestCoordinatorRestart:
    def test_restarted_coordinator_resumes_from_the_cache(
        self, tmp_path, clock
    ):
        """Killing the coordinator mid-campaign loses scheduling state only.

        A fresh coordinator over the same shared cache re-shards the spec
        identically (deterministic chunking) and the replacement workers'
        engines turn every already-simulated run into a cache hit.
        """
        shared = tmp_path / "shared"
        first = CampaignCoordinator(shared, clock=clock)
        campaign_id = first.submit(small_spec())
        n_runs = first.progress(campaign_id)["n_runs"]
        n_chunks = first.progress(campaign_id)["n_chunks"]

        # phase 1: one chunk fully done and acked, then the coordinator dies
        worker = ChunkWorker(first, worker_id="phase-1")
        assert worker.run_once(campaign_id)
        phase1_simulated = worker.n_simulated
        assert 0 < phase1_simulated < n_runs

        # phase 2: a new coordinator process over the same shared cache
        second = CampaignCoordinator(shared, clock=clock)
        assert second.submit(small_spec()) == campaign_id  # same id: same spec
        assert second.progress(campaign_id)["n_chunks"] == n_chunks
        survivor = ChunkWorker(second, worker_id="phase-2")
        survivor.drain(campaign_id)

        # nothing simulated twice: phase 2 only simulated what phase 1 didn't
        assert phase1_simulated + survivor.n_simulated == n_runs
        assert survivor.n_cache_hits == phase1_simulated
        distributed = second.tables(campaign_id)
        local = Session(second.normalize(small_spec())).run().tables()
        assert distributed == local

    def test_lost_lease_makes_worker_abandon_not_ack(self, coordinator, clock):
        """A worker whose lease was reclaimed mid-simulation must not ack."""
        campaign_id = coordinator.submit(small_spec())
        descriptor = coordinator.claim(campaign_id, "slow-worker")
        chunk_id = descriptor["chunk_id"]
        # lease expires and someone else claims the chunk
        clock.advance(descriptor["lease_seconds"] + 1)
        stolen = coordinator.claim(campaign_id, "fast-worker")
        assert stolen["chunk_id"] == chunk_id
        # the slow worker's heartbeat now tells it to stand down
        assert not coordinator.heartbeat(campaign_id, chunk_id, "slow-worker")


class TestLeaseExpiryRaces:
    """Races between an evicted worker and the lease's new holder.

    An evicted worker may keep talking to the coordinator long after its
    lease was reaped and reassigned.  None of its stale messages may
    disturb the new holder's lease.
    """

    def evict_and_reassign(self, coordinator, clock, n_completed=0):
        campaign_id = coordinator.submit(small_spec())
        descriptor, chunk_runs = die_mid_chunk(
            coordinator, campaign_id, "slow-worker", n_completed=n_completed
        )
        clock.advance(descriptor["lease_seconds"] + 1)
        stolen = coordinator.claim(campaign_id, "fast-worker")
        assert stolen["chunk_id"] == descriptor["chunk_id"]
        return campaign_id, descriptor["chunk_id"], chunk_runs

    def chunk_state(self, coordinator, campaign_id, chunk_id):
        return next(
            c
            for c in coordinator.chunk_states(campaign_id)
            if c["chunk_id"] == chunk_id
        )

    def test_stale_heartbeat_does_not_corrupt_the_reassigned_lease(
        self, coordinator, clock
    ):
        campaign_id, chunk_id, _ = self.evict_and_reassign(coordinator, clock)
        # The evicted worker heartbeats after the reap: refused...
        assert not coordinator.heartbeat(campaign_id, chunk_id, "slow-worker")
        # ...and the new holder's lease is untouched by the refusal.
        state = self.chunk_state(coordinator, campaign_id, chunk_id)
        assert state["state"] == "leased"
        assert state["worker_id"] == "fast-worker"
        assert coordinator.heartbeat(campaign_id, chunk_id, "fast-worker")

    def test_evicted_workers_rejected_ack_does_not_release_the_new_lease(
        self, coordinator, clock
    ):
        campaign_id, chunk_id, _ = self.evict_and_reassign(coordinator, clock)
        # The evicted worker acks with nothing in the cache: rejected,
        # and the rejection must not knock the chunk back to pending out
        # from under fast-worker's live lease.
        response = coordinator.ack(campaign_id, chunk_id, "slow-worker")
        assert not response["accepted"]
        state = self.chunk_state(coordinator, campaign_id, chunk_id)
        assert state["state"] == "leased"
        assert state["worker_id"] == "fast-worker"
        assert coordinator.heartbeat(campaign_id, chunk_id, "fast-worker")

    def test_evicted_workers_completed_ack_is_cache_verified_idempotent(
        self, coordinator, clock
    ):
        # This time the slow worker actually finished every run before its
        # lease expired — it just never managed to ack in time.
        campaign_id = coordinator.submit(small_spec())
        descriptor = coordinator.claim(campaign_id, "slow-worker")
        chunk_id = descriptor["chunk_id"]
        spec = CampaignSpec.from_mapping(coordinator.spec_mapping(campaign_id))
        specs = WorkChunk.from_claim(descriptor).specs_of(spec)
        CampaignEngine(spec.experiment.parallel).run(specs, prune=False)
        clock.advance(descriptor["lease_seconds"] + 1)
        stolen = coordinator.claim(campaign_id, "fast-worker")
        assert stolen["chunk_id"] == chunk_id
        # The evicted worker's late ack is accepted: results under the
        # right cache keys are correct no matter whose lease produced them.
        late = coordinator.ack(
            campaign_id, chunk_id, "slow-worker", n_simulated=len(specs)
        )
        assert late["accepted"]
        # The new holder's own ack of the now-done chunk stays idempotent.
        again = coordinator.ack(campaign_id, chunk_id, "fast-worker")
        assert again["accepted"]
        assert again["missing"] == 0
        assert (
            self.chunk_state(coordinator, campaign_id, chunk_id)["state"]
            == "done"
        )


@pytest.fixture
def flaky_cleanup():
    yield
    faults.uninstall()


def plan_of(*rules: FaultRule) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), seed=7)


def fast_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=4,
        base_delay_seconds=0.001,
        max_delay_seconds=0.01,
        budget_seconds=5.0,
        seed=3,
    )


class TestRetryingClients:
    """Injected transport faults against the real HTTP stack."""

    def test_client_retries_idempotent_ops_through_transient_faults(
        self, coordinator, flaky_cleanup
    ):
        campaign_id = coordinator.submit(small_spec())
        with CoordinatorServer(coordinator, port=0) as server:
            client = CoordinatorClient(server.url, retry=fast_retry())
            faults.install(
                plan_of(
                    FaultRule(
                        site="service.client.progress",
                        action="error",
                        times=2,
                    )
                )
            )
            progress = client.progress(campaign_id)
        assert progress["n_chunks"] >= 1
        [rule] = faults.current().summary()["rules"]
        assert rule["site"] == "service.client.progress"
        assert rule["fired"] == 2

    def test_claim_is_never_retried_by_the_client(
        self, coordinator, flaky_cleanup
    ):
        campaign_id = coordinator.submit(small_spec())
        with CoordinatorServer(coordinator, port=0) as server:
            client = CoordinatorClient(server.url, retry=fast_retry())
            faults.install(
                plan_of(
                    FaultRule(
                        site="service.client.claim", action="error", times=1
                    )
                )
            )
            # A single injected failure is fatal to the call: the client
            # must not blindly re-send a non-idempotent claim.
            with pytest.raises(ServiceUnavailableError):
                client.claim(campaign_id, "w1")
        # No chunk was leased server-side — the fault fired upstream of
        # the transport, so the coordinator never saw the claim.
        states = coordinator.chunk_states(campaign_id)
        assert all(c["state"] == "pending" for c in states)

    def test_retrying_worker_drains_a_flaky_coordinator(
        self, coordinator, flaky_cleanup
    ):
        """The end-to-end satellite: claim and ack both fail transiently,
        the worker-level retry (claim) and client-level retry (ack) absorb
        it, and the tables still match the single-host run bitwise."""
        campaign_id = coordinator.submit(small_spec())
        with CoordinatorServer(coordinator, port=0) as server:
            client = CoordinatorClient(server.url, retry=fast_retry())
            worker = ChunkWorker(
                client, worker_id="flaky", retry=fast_retry()
            )
            faults.install(
                plan_of(
                    FaultRule(
                        site="service.client.claim", action="error", times=1
                    ),
                    FaultRule(
                        site="service.client.ack", action="error", times=1
                    ),
                )
            )
            worker.drain(campaign_id)
            fired = {
                rule["site"]: rule["fired"]
                for rule in faults.current().summary()["rules"]
            }
        assert coordinator.progress(campaign_id)["complete"]
        assert fired["service.client.claim"] == 1
        assert fired["service.client.ack"] == 1
        distributed = coordinator.tables(campaign_id)
        local = Session(coordinator.normalize(small_spec())).run().tables()
        assert distributed == local

    def test_duplicated_ack_is_idempotent_on_the_wire(
        self, coordinator, flaky_cleanup
    ):
        """A duplicated ack (the retry-after-lost-response case) reaches
        the coordinator twice and both answers are accepted."""
        campaign_id = coordinator.submit(small_spec())
        with CoordinatorServer(coordinator, port=0) as server:
            client = CoordinatorClient(server.url, retry=fast_retry())
            worker = ChunkWorker(client, worker_id="dup")
            faults.install(
                plan_of(
                    FaultRule(
                        site="service.client.ack",
                        action="duplicate",
                        times=0,
                    )
                )
            )
            worker.drain(campaign_id)
        assert coordinator.progress(campaign_id)["complete"]
        distributed = coordinator.tables(campaign_id)
        local = Session(coordinator.normalize(small_spec())).run().tables()
        assert distributed == local
