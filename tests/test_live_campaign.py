"""Tests for live campaigns: specs, cache keys, engine wiring, the facade.

Covers the campaign-side half of :mod:`repro.live`: early-stop
:class:`RunSpec` fields and cache-key separation, the engine's live-analyzer
installation (serial and process pools), verdict identity of
``Evaluation.evaluate_all(..., early_stop=)`` with the batch path, the
``[live]`` spec section and ``Session.run_live``.
"""

import numpy as np
import pytest

from repro import api
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    LiveConfig,
    MSPCConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import CampaignEngine, RunSpec
from repro.experiments.scenarios import (
    disturbance_idv6_scenario,
    integrity_attack_on_xmv3_scenario,
    normal_scenario,
)
from repro.live.campaign import live_context_token, live_scenario_specs

TINY = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=2,
    anomaly_start_hour=4.0,
    simulation=SimulationConfig(duration_hours=9.0, samples_per_hour=20, seed=33),
    mspc=MSPCConfig(),
    parallel=ParallelConfig.serial(),
    seed=33,
)

POLICY = EarlyStopPolicy(grace_samples=10)


@pytest.fixture(scope="module")
def calibrated():
    evaluation = Evaluation(TINY)
    evaluation.calibrate(keep_results=False)
    return evaluation


def scenario_pair():
    return [disturbance_idv6_scenario(), integrity_attack_on_xmv3_scenario()]


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
class TestCacheKeys:
    def _spec(self, **overrides):
        options = dict(
            scenario=integrity_attack_on_xmv3_scenario(),
            simulation=TINY.simulation,
            anomaly_start_hour=4.0,
        )
        options.update(overrides)
        return RunSpec(**options)

    def test_plain_spec_token_has_no_live_entry(self):
        """Legacy cache keys are untouched when no early stop is attached."""
        assert "live" not in self._spec().cache_token()

    def test_live_spec_key_differs_from_plain(self):
        plain = self._spec()
        live = self._spec(early_stop=POLICY, live_token="abc")
        assert plain.cache_key() != live.cache_key()
        assert live.cache_token()["live"] == {
            "early_stop": {"grace_samples": 10, "min_samples": 0},
            "context": "abc",
        }

    def test_different_policies_and_contexts_get_different_keys(self):
        first = self._spec(early_stop=POLICY, live_token="abc")
        other_grace = self._spec(
            early_stop=EarlyStopPolicy(grace_samples=11), live_token="abc"
        )
        other_context = self._spec(early_stop=POLICY, live_token="xyz")
        assert len({first.cache_key(), other_grace.cache_key(), other_context.cache_key()}) == 3

    def test_live_context_token_tracks_calibration_identity(self):
        base = live_context_token(TINY)
        assert base == live_context_token(TINY)
        assert base != live_context_token(TINY.with_seed(34))
        from dataclasses import replace

        assert base != live_context_token(replace(TINY, n_calibration_runs=3))
        # The execution plan does not change what the models are fitted on.
        assert base == live_context_token(
            TINY.with_parallel(ParallelConfig(n_workers=4))
        )

    def test_live_scenario_specs_spare_normal_scenarios(self):
        specs = live_scenario_specs(TINY, normal_scenario(), POLICY)
        assert all(spec.early_stop is None for spec in specs)
        armed = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY
        )
        assert all(spec.early_stop == POLICY for spec in armed)
        assert all(spec.live_token == live_context_token(TINY) for spec in armed)
        unarmed = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), None
        )
        assert all(spec.early_stop is None for spec in unarmed)


# ----------------------------------------------------------------------
# Engine execution
# ----------------------------------------------------------------------
class TestEngineExecution:
    def test_live_spec_without_analyzer_raises(self):
        engine = CampaignEngine(ParallelConfig.serial())
        specs = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY, n_runs=1
        )
        with pytest.raises(ConfigurationError):
            engine.run(specs)

    def test_stale_analyzer_does_not_leak_between_engines(self, calibrated):
        """A serial live campaign must not leave its analyzer in the module
        global: a fresh engine without set_live_analyzer still raises."""
        armed = CampaignEngine(ParallelConfig.serial())
        armed.set_live_analyzer(calibrated.analyzer)
        specs = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY, n_runs=1
        )
        armed.run(specs)

        fresh = CampaignEngine(ParallelConfig.serial())
        with pytest.raises(ConfigurationError):
            fresh.run(specs)

    def test_serial_engine_truncates_live_specs(self, calibrated):
        engine = CampaignEngine(ParallelConfig.serial())
        engine.set_live_analyzer(calibrated.analyzer)
        specs = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY, n_runs=1
        )
        (result,) = engine.run(specs)
        assert result.stopped_early
        assert result.controller_data.n_observations < TINY.simulation.total_samples

    def test_process_pool_ships_the_analyzer(self, calibrated):
        engine = CampaignEngine(ParallelConfig(n_workers=2, backend="process"))
        engine.set_live_analyzer(calibrated.analyzer)
        specs = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY, n_runs=2
        )
        results = engine.run(specs)
        assert all(result.stopped_early for result in results)

        serial_engine = CampaignEngine(ParallelConfig.serial())
        serial_engine.set_live_analyzer(calibrated.analyzer)
        serial_results = serial_engine.run(specs)
        for parallel_result, serial_result in zip(results, serial_results):
            assert np.array_equal(
                parallel_result.controller_data.values,
                serial_result.controller_data.values,
            )

    def test_truncated_results_round_trip_through_the_cache(
        self, calibrated, tmp_path
    ):
        engine = CampaignEngine(
            ParallelConfig.serial(cache_dir=str(tmp_path / "cache"))
        )
        engine.set_live_analyzer(calibrated.analyzer)
        specs = live_scenario_specs(
            TINY, integrity_attack_on_xmv3_scenario(), POLICY, n_runs=1
        )
        (first,) = engine.run(specs)
        assert engine.last_stats.n_simulated == 1
        (replayed,) = engine.run(specs)
        assert engine.last_stats.n_cache_hits == 1
        assert replayed.stopped_early
        assert np.array_equal(
            first.controller_data.values, replayed.controller_data.values
        )


# ----------------------------------------------------------------------
# Evaluation.evaluate_all(early_stop=) — verdict identity with the batch path
# ----------------------------------------------------------------------
class TestEvaluateAllLive:
    @pytest.fixture(scope="class")
    def verdicts(self, calibrated):
        scenarios = scenario_pair()
        batch = calibrated.evaluate_all(scenarios)
        live = calibrated.evaluate_all(scenarios, early_stop=POLICY)
        return scenarios, batch, live

    def test_detection_verdicts_identical(self, verdicts):
        scenarios, batch, live = verdicts
        for scenario in scenarios:
            assert (
                live[scenario.name].run_lengths == batch[scenario.name].run_lengths
            )
            assert live[scenario.name].arl_hours == batch[scenario.name].arl_hours
            assert (
                live[scenario.name].n_detected == batch[scenario.name].n_detected
            )

    def test_detected_runs_are_truncated(self, verdicts):
        scenarios, batch, live = verdicts
        for scenario in scenarios:
            for full, short in zip(
                batch[scenario.name].results, live[scenario.name].results
            ):
                if short.stopped_early:
                    assert (
                        short.controller_data.n_observations
                        < full.controller_data.n_observations
                    )
            assert any(run.stopped_early for run in live[scenario.name].results)

    def test_streaming_live_matches_eager_live(self, calibrated, verdicts):
        scenarios, _, live = verdicts
        streamed = calibrated.evaluate_all_streaming(
            scenarios, early_stop=POLICY
        )
        for scenario in scenarios:
            assert (
                streamed[scenario.name].run_lengths
                == live[scenario.name].run_lengths
            )
            assert (
                streamed[scenario.name].classification_counts()
                == live[scenario.name].classification_counts()
            )

    def test_policy_none_disables_early_stopping(self, calibrated):
        results = calibrated.evaluate_all(
            [integrity_attack_on_xmv3_scenario()], early_stop=None
        )
        runs = results["attack_xmv3"].results
        assert all(not run.stopped_early for run in runs)

    def test_on_run_callback_sees_every_run(self, calibrated):
        seen = []
        calibrated.evaluate_all(
            [integrity_attack_on_xmv3_scenario()],
            early_stop=POLICY,
            on_run=lambda run: seen.append((run.scenario_name, run.run_index)),
        )
        assert seen == [("attack_xmv3", 0), ("attack_xmv3", 1)]


# ----------------------------------------------------------------------
# [live] spec section and Session.run_live
# ----------------------------------------------------------------------
def tiny_live_spec(enabled=True, **live_overrides):
    live = dict(enabled=enabled, early_stop=True, grace_samples=10)
    live.update(live_overrides)
    return api.CampaignSpec(
        name="tiny-live",
        experiment=TINY,
        scenarios=(integrity_attack_on_xmv3_scenario(),),
        live=LiveConfig(**live),
    )


class TestLiveSpecSection:
    def test_live_config_round_trips_through_toml_and_json(self):
        spec = tiny_live_spec(grace_samples=17, min_samples=3)
        for format in ("toml", "json"):
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
            assert reparsed == spec
            assert reparsed.live.policy() == EarlyStopPolicy(
                grace_samples=17, min_samples=3
            )

    def test_default_live_section_is_omitted_from_the_mapping(self):
        spec = api.CampaignSpec(
            name="plain",
            experiment=TINY,
            scenarios=(integrity_attack_on_xmv3_scenario(),),
        )
        assert "live" not in spec.to_mapping()
        assert spec.live == LiveConfig()

    def test_unknown_live_keys_are_rejected(self):
        with pytest.raises(ConfigurationError):
            LiveConfig.from_mapping({"enabled": True, "bogus": 1})
        with pytest.raises(ConfigurationError):
            LiveConfig.from_mapping({"enabled": "yes"})

    def test_policy_resolution(self):
        assert LiveConfig().policy() is None
        assert LiveConfig(enabled=True, early_stop=False).policy() is None
        assert LiveConfig(enabled=True, grace_samples=5).policy() == EarlyStopPolicy(
            grace_samples=5
        )

    def test_validation_rejects_negative_windows(self):
        with pytest.raises(ConfigurationError):
            LiveConfig(grace_samples=-1)
        with pytest.raises(ConfigurationError):
            LiveConfig(min_samples=-2)


class TestSessionRunLive:
    def test_run_live_requires_an_enabled_live_section(self):
        session = api.Session(tiny_live_spec(enabled=False))
        with pytest.raises(ConfigurationError):
            session.run_live()

    def test_run_live_matches_run_verdicts_and_truncates(self):
        spec = tiny_live_spec()
        batch = api.Session(spec).run()
        live = api.Session(spec).run_live()
        assert batch.arl_table() == live.arl_table()
        live_runs = live.scenario_results["attack_xmv3"].results
        batch_runs = batch.scenario_results["attack_xmv3"].results
        assert all(run.stopped_early for run in live_runs)
        assert all(not run.stopped_early for run in batch_runs)

    def test_traced_run_live_emits_seed_spans(self):
        from repro.obs.trace import Tracer, get_tracer, set_tracer

        previous = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            api.Session(tiny_live_spec()).run_live()
        finally:
            set_tracer(previous)
        names = [record["name"] for record in tracer.records()]
        assert names.count("session.run") == 1
        assert names.count("session.seed") == 1

    def test_module_level_run_live_facade(self):
        result = api.run_live(tiny_live_spec())
        rows = result.classification_table()
        assert {row["scenario"] for row in rows} == {"attack_xmv3"}
