"""End-to-end evaluation campaign reproducing the paper's Section V.

:class:`Evaluation` orchestrates the full experiment: a calibration campaign
to fit the dual-level MSPC models, repeated runs of every anomalous scenario,
Average Run Length computation and per-view oMEDA diagnosis — i.e. everything
needed to regenerate Figures 4 and 5 and the ARL discussion of the paper.

Every scenario evaluation is one pass of the campaign driver
:meth:`~repro.experiments.analysis.AnalysisPipeline.iter_campaign`.
:meth:`Evaluation.evaluate_all` and :meth:`Evaluation.evaluate_scenario`
run it with retention, keeping every result and diagnosis alive for
inspection; :meth:`Evaluation.evaluate_all_streaming` runs it without, for
campaigns too large to hold in memory.  Both take an optional live
early-stop policy, and their tables are bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anomaly.diagnosis import DualLevelAnalyzer, DualLevelDiagnosis
from repro.common.config import EarlyStopPolicy, ExperimentConfig
from repro.common.exceptions import NotFittedError
from repro.experiments.analysis import (
    AnalysisPipeline,
    AnalyzedRun,
    ScenarioReducer,
    ScenarioSummary,
    build_arl_table,
    build_classification_table,
)
from repro.experiments.parallel import CampaignEngine
from repro.experiments.runner import CalibrationData, run_calibration_campaign
from repro.experiments.scenarios import Scenario, paper_scenarios
from repro.process.simulator import SimulationResult

__all__ = ["ScenarioEvaluation", "Evaluation"]


@dataclass
class ScenarioEvaluation:
    """Aggregated results of one scenario over its repeated runs.

    The eager, fully-retained record: every simulation result and diagnosis
    stays accessible.  All aggregates delegate to the same
    :class:`~repro.experiments.analysis.ScenarioReducer` the streaming path
    uses, so the two paths cannot drift apart.
    """

    scenario: Scenario
    results: List[SimulationResult]
    diagnoses: List[DualLevelDiagnosis]
    run_lengths: List[Optional[float]]
    # Lazily-built aggregate; the retained lists are write-once after
    # construction, so one replay through the reducer serves every property.
    _summary_cache: Optional[ScenarioSummary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_summary(self) -> ScenarioSummary:
        """Replay the retained runs through the streaming reducer (cached).

        The cache is invalidated when runs are appended/removed; in-place
        mutation of an existing entry is not tracked.
        """
        if (
            self._summary_cache is not None
            and self._summary_cache.n_runs == len(self.diagnoses)
        ):
            return self._summary_cache
        reducer = ScenarioReducer(self.scenario)
        for index, (diagnosis, length) in enumerate(
            zip(self.diagnoses, self.run_lengths)
        ):
            # results may legitimately be empty/shorter (lean retention);
            # the diagnosis/run-length pair drives the aggregates.
            result = self.results[index] if index < len(self.results) else None
            reducer.update(
                AnalyzedRun(
                    scenario_name=self.scenario.name,
                    run_index=index,
                    diagnosis=diagnosis,
                    run_length=length,
                    shutdown_time_hours=(
                        result.shutdown_time_hours if result is not None else None
                    ),
                    result=result,
                )
            )
        self._summary_cache = reducer.summary()
        return self._summary_cache

    @property
    def n_runs(self) -> int:
        """Number of runs executed."""
        return len(self.results)

    @property
    def n_detected(self) -> int:
        """Number of runs in which the anomaly was detected."""
        return self.to_summary().n_detected

    @property
    def detection_rate(self) -> float:
        """Fraction of runs in which the anomaly was detected."""
        return self.to_summary().detection_rate

    @property
    def n_false_alarms(self) -> int:
        """Runs in which a detection fired before the anomaly even began."""
        return self.to_summary().n_false_alarms

    @property
    def arl_hours(self) -> Optional[float]:
        """Average Run Length over the detected runs, in hours."""
        return self.to_summary().arl_hours

    def mean_omeda(self, view: str) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Average oMEDA vector over runs for ``view`` ("controller"/"process")."""
        return self.to_summary().mean_omeda(view)

    def classification_counts(self) -> Dict[str, int]:
        """How many runs were classified into each anomaly class."""
        return self.to_summary().classification_counts()

    def shutdown_times(self) -> List[Optional[float]]:
        """Per-run safety shutdown time (None when the run completed)."""
        return [result.shutdown_time_hours for result in self.results]


class Evaluation:
    """The complete evaluation campaign.

    Parameters
    ----------
    config:
        Campaign configuration (number of runs, simulation and MSPC settings).
    analyzer:
        Optional pre-built analyzer; a default dual-level analyzer using the
        configuration's MSPC settings is created otherwise.
    engine:
        Optional pre-built campaign engine; a default one following the
        configuration's :class:`~repro.common.config.ParallelConfig` is
        created otherwise.  All simulation batches — calibration and
        per-scenario repeats — are dispatched through it.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        analyzer: Optional[DualLevelAnalyzer] = None,
        engine: Optional[CampaignEngine] = None,
    ):
        self.config = config or ExperimentConfig()
        self.analyzer = analyzer or DualLevelAnalyzer(self.config.mspc)
        self.engine = engine or CampaignEngine(self.config.parallel)
        self.calibration: Optional[CalibrationData] = None
        self._scenario_results: Dict[str, ScenarioEvaluation] = {}
        # The pipeline of the most recent evaluate_* call, for its
        # accumulated simulation_stats / analysis_stats.
        self.last_pipeline: Optional[AnalysisPipeline] = None

    # ------------------------------------------------------------------
    @property
    def is_calibrated(self) -> bool:
        """Whether the calibration campaign has been run and models fitted."""
        return self.calibration is not None and self.analyzer.is_fitted

    def calibrate(self, keep_results: bool = True) -> CalibrationData:
        """Run the calibration campaign and fit both MSPC models.

        ``keep_results=False`` (the streaming campaigns' choice) releases
        each calibration run's :class:`SimulationResult` once its data has
        been folded into the concatenated calibration matrices, instead of
        retaining all of them on :attr:`calibration` for the process
        lifetime.
        """
        self.calibration = run_calibration_campaign(
            self.config, engine=self.engine, keep_results=keep_results
        )
        self.analyzer.fit(
            self.calibration.controller_data, self.calibration.process_data
        )
        return self.calibration

    # ------------------------------------------------------------------
    def _pipeline(self, retain: bool, **options) -> AnalysisPipeline:
        """A driver sharing this evaluation's engine and analyzer."""
        if not self.is_calibrated:
            raise NotFittedError("call calibrate() before evaluating scenarios")
        pipeline = AnalysisPipeline(
            self.analyzer, self.config, engine=self.engine, retain=retain, **options
        )
        self.last_pipeline = pipeline
        return pipeline

    def _evaluate(
        self,
        scenarios: Sequence[Scenario],
        n_runs: Optional[int] = None,
        early_stop: Optional[EarlyStopPolicy] = None,
        on_run=None,
    ) -> Dict[str, ScenarioEvaluation]:
        """Drive the scenarios with retention into eager per-scenario records."""
        pipeline = self._pipeline(retain=True, early_stop=early_stop)
        runs: Dict[str, List[AnalyzedRun]] = {scenario.name: [] for scenario in scenarios}
        for run in pipeline.iter_campaign(scenarios, n_runs):
            runs[run.scenario_name].append(run)
            if on_run is not None:
                on_run(run)
        evaluated = {
            scenario.name: ScenarioEvaluation(
                scenario=scenario,
                results=[run.result for run in runs[scenario.name]],
                diagnoses=[run.diagnosis for run in runs[scenario.name]],
                run_lengths=[run.run_length for run in runs[scenario.name]],
            )
            for scenario in scenarios
        }
        self._scenario_results.update(evaluated)
        return evaluated

    def evaluate_scenario(
        self, scenario: Scenario, n_runs: Optional[int] = None
    ) -> ScenarioEvaluation:
        """Run one scenario ``n_runs`` times and aggregate its results."""
        return self._evaluate([scenario], n_runs)[scenario.name]

    def evaluate_all(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        early_stop: Optional[EarlyStopPolicy] = None,
        on_run=None,
    ) -> Dict[str, ScenarioEvaluation]:
        """Evaluate every scenario (defaults to the paper's four).

        The runs of *all* scenarios are submitted to the engine as one
        sweep, so the simulation fan-out spans every scenario; per-run
        seeds make the outcome bitwise-identical whatever the batching,
        chunking, worker count or backend.  Returns every scenario
        evaluated so far.  ``on_run`` is called with every
        :class:`~repro.experiments.analysis.AnalyzedRun` as it completes
        (progress reporting).

        ``early_stop`` scores anomalous runs sample by sample *while they
        simulate* (see :mod:`repro.live`) and terminates them
        ``early_stop.grace_samples`` samples after a confirmed detection.
        Detection verdicts (detected / detection time / run length) are
        identical to the full-horizon campaign, because the truncation
        point is strictly after the confirming sample; truncated results
        are cached under dedicated keys
        (:meth:`~repro.experiments.parallel.RunSpec.cache_token`) and never
        mix with full-horizon entries.  Normal scenarios always run their
        whole horizon.
        """
        self._evaluate(
            list(scenarios or paper_scenarios()), early_stop=early_stop, on_run=on_run
        )
        return dict(self._scenario_results)

    def evaluate_all_streaming(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        chunk_size: Optional[int] = None,
        early_stop: Optional[EarlyStopPolicy] = None,
        on_run=None,
    ) -> Dict[str, ScenarioSummary]:
        """Evaluate every scenario without retaining per-run data.

        The memory-bounded path: results stream out of the (cache-backed)
        engine in chunks, workers return compact diagnosis summaries, and
        only the incremental aggregates survive — peak memory is O(chunk)
        rather than O(campaign).  The returned
        :class:`~repro.experiments.analysis.ScenarioSummary` objects expose
        the same table API as :class:`ScenarioEvaluation` and are
        bitwise-identical to the eager path's tables.  ``early_stop`` works
        as in :meth:`evaluate_all`.
        """
        pipeline = self._pipeline(
            retain=False, chunk_size=chunk_size, early_stop=early_stop
        )
        return pipeline.analyze_all(scenarios, on_run=on_run)

    @property
    def scenario_results(self) -> Dict[str, ScenarioEvaluation]:
        """Results of the scenarios evaluated so far, keyed by scenario name."""
        return dict(self._scenario_results)

    # ------------------------------------------------------------------
    def arl_table(self) -> List[Dict[str, object]]:
        """One row per evaluated scenario: detection rate and ARL in hours."""
        return build_arl_table(self._scenario_results)

    def classification_table(self) -> List[Dict[str, object]]:
        """One row per scenario: how its runs were classified."""
        return build_classification_table(self._scenario_results)
