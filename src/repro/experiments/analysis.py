"""The campaign driver: simulation, sharded scoring and streaming reduction.

The paper's evaluation is calibration runs, then repeated runs of each
scenario, reduced to ARL and classification tables.  This module holds the
one loop behind every way of running the scenario part of it:

* :meth:`AnalysisPipeline.iter_campaign` flattens every scenario's run
  specs into one sweep, streams results out of
  :meth:`~repro.experiments.parallel.CampaignEngine.iter_run`, and scores
  them chunk by chunk on :class:`AnalysisEngine`, a worker pool running MSPC
  scoring and oMEDA diagnosis;
* *retention* is its only mode switch.  With it, every run keeps its
  :class:`~repro.process.simulator.SimulationResult` and full diagnosis.
  Without it, cached runs reach the scoring workers as NPZ paths (so the
  decompression is sharded too), workers return compact
  :class:`~repro.anomaly.diagnosis.DiagnosisSummary` records, and peak
  memory is O(chunk) rather than O(campaign);
* aggregation happens in **incremental reducers** (:class:`ScenarioReducer`:
  detection counts, ARL, classification tallies, mean-oMEDA) so a finished
  run can be dropped immediately.

Live early stopping is an option of the same loop, not a separate driver,
and the tables of every mode are bitwise-identical.
"""

from __future__ import annotations

import numbers
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.anomaly.diagnosis import (
    DiagnosisSummary,
    DualLevelAnalyzer,
    DualLevelDiagnosis,
)
from repro.common.config import EarlyStopPolicy, ExperimentConfig, ParallelConfig
from repro.common.exceptions import ConfigurationError
from repro.experiments.parallel import CampaignEngine, CampaignStats, scenario_specs
from repro.experiments.scenarios import Scenario, paper_scenarios
from repro.mspc.arl import RunLengthAccumulator, run_length
from repro.mspc.model import OmedaResult
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.process.simulator import SimulationResult

__all__ = [
    "AnalyzedRun",
    "AnalysisStats",
    "AnalysisEngine",
    "OmedaMeanReducer",
    "ScenarioReducer",
    "ScenarioSummary",
    "ScoredRun",
    "AnalysisPipeline",
    "build_arl_table",
    "build_classification_table",
]

_LOG = get_logger("analysis")

DiagnosisLike = Union[DualLevelDiagnosis, DiagnosisSummary]

#: What the scoring stage accepts: an in-memory result, or the path of an
#: NPZ :class:`~repro.experiments.parallel.ResultCache` entry that the
#: *worker* loads — so cached campaigns are re-analyzed without the parent
#: process ever materializing the run data.
ResultSource = Union[SimulationResult, str, Path]


# ----------------------------------------------------------------------
# Per-run record
# ----------------------------------------------------------------------
@dataclass
class AnalyzedRun:
    """The analysis outcome of one run of one scenario.

    ``result`` is set only when the pipeline retains runs; without
    retention it is ``None``, so the run's arrays can be freed as soon as
    the reducers have consumed this record.
    """

    scenario_name: str
    run_index: int
    diagnosis: DiagnosisLike
    run_length: Optional[float]
    shutdown_time_hours: Optional[float]
    result: Optional[SimulationResult] = None


# ----------------------------------------------------------------------
# Sharded scoring engine
# ----------------------------------------------------------------------
class ScoredRun(NamedTuple):
    """What the scoring stage returns per run: verdict plus shutdown state."""

    diagnosis: DiagnosisLike
    shutdown_time_hours: Optional[float]


# The fitted analyzer of this worker process, installed once by the pool
# initializer so it is pickled per *worker*, not per task.
_WORKER_ANALYZER: Optional[DualLevelAnalyzer] = None


def _init_analysis_worker(analyzer: DualLevelAnalyzer) -> None:
    """Pool initializer: pin the fitted analyzer in the worker process."""
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = analyzer


def _analyze_one(task) -> ScoredRun:
    """Score one run (top-level so it is picklable by worker pools).

    ``task`` carries ``None`` as its analyzer when running on a pool (the
    initializer already installed it); the serial path passes the analyzer
    directly.  A path source is loaded from the NPZ cache *inside the
    worker*, so both the decompression and the scoring parallelize and the
    parent process never holds the run's arrays.
    """
    analyzer, source, anomaly_start_hour, summarize = task
    if analyzer is None:
        analyzer = _WORKER_ANALYZER
    if isinstance(source, (str, Path)):
        from repro.datasets.io import load_result_npz

        result = load_result_npz(source)
    else:
        result = source
    diagnosis = analyzer.analyze(
        result.controller_data,
        result.process_data,
        anomaly_start_hour=anomaly_start_hour,
    )
    if summarize:
        diagnosis = diagnosis.summarize()
    return ScoredRun(diagnosis, result.shutdown_time_hours)


@dataclass
class AnalysisStats:
    """What the analysis engine actually did for the last stream it scored."""

    n_runs: int = 0
    n_workers: int = 1
    backend: str = "serial"
    wall_seconds: float = 0.0

    def absorb(self, other: "AnalysisStats") -> "AnalysisStats":
        """Fold another stream's stats into this one (multi-scenario sweeps)."""
        self.n_runs += other.n_runs
        self.n_workers = max(self.n_workers, other.n_workers)
        if other.backend in ("process", "batch"):
            self.backend = other.backend
        self.wall_seconds += other.wall_seconds
        return self


class AnalysisEngine:
    """Fans per-run MSPC scoring + oMEDA diagnosis out over a worker pool.

    Mirrors :class:`~repro.experiments.parallel.CampaignEngine`, but for the
    analysis stage: the fitted analyzer and each run's two data views are
    shipped to a worker, which returns the diagnosis.  Scoring is a pure
    deterministic function of (analyzer, data), so serial and parallel
    execution produce identical diagnoses, and results are yielded in input
    order regardless of completion order.

    The pool is created lazily and persists across chunks; call
    :meth:`close` (or use the instance as a context manager) to release it.
    """

    def __init__(
        self,
        analyzer: DualLevelAnalyzer,
        config: Optional[ParallelConfig] = None,
    ):
        self.analyzer = analyzer
        self.config = config or ParallelConfig()
        self.last_stats = AnalysisStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "AnalysisEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (a later map creates a fresh one)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_size = 0

    # ------------------------------------------------------------------
    def map(
        self,
        sources: Iterable[ResultSource],
        anomaly_start_hour: Union[
            Optional[float], Sequence[Optional[float]]
        ] = None,
        summarize: bool = True,
        chunk_size: Optional[int] = None,
    ) -> Iterator[ScoredRun]:
        """Score a stream of result sources, yielding verdicts in input order.

        The stream is consumed in chunks of ``chunk_size`` (default
        :attr:`ParallelConfig.resolved_chunk_size`), so at most one chunk of
        sources is alive in this process at a time.  A source may be an
        in-memory :class:`SimulationResult` or the path of an NPZ cache
        entry, which the worker loads itself; with ``summarize=True``
        workers return :class:`DiagnosisSummary` records (a few hundred
        bytes) instead of full per-observation charts, so for a fully
        cached campaign neither the inputs nor the outputs of the pool ever
        transit the parent process.  ``anomaly_start_hour`` may be a single
        value for the whole stream or one value per source (multi-scenario
        sweeps mixing anomalous and normal runs).
        """
        size = (
            int(chunk_size)
            if chunk_size is not None
            else self.config.resolved_chunk_size
        )
        if size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        stats = AnalysisStats(backend="serial", n_workers=1)
        # Numeric scalars (incl. numpy scalar types, which register with
        # numbers.Number) and None are a single start for the whole stream;
        # anything else — list, tuple, ndarray, range — is one per source.
        if anomaly_start_hour is None or isinstance(
            anomaly_start_hour, numbers.Number
        ):
            starts: Optional[Iterator[Optional[float]]] = None
        else:
            starts = iter(anomaly_start_hour)
        try:
            iterator = iter(sources)
            while True:
                chunk: List[Tuple[ResultSource, Optional[float]]] = []
                for source in iterator:
                    if starts is not None:
                        try:
                            start = next(starts)
                        except StopIteration:
                            raise ValueError(
                                "anomaly_start_hour sequence is shorter than "
                                "the source stream"
                            ) from None
                    else:
                        start = anomaly_start_hour
                    chunk.append((source, start))
                    if len(chunk) >= size:
                        break
                if not chunk:
                    break
                stats.n_runs += len(chunk)
                # Time only the scoring itself: pulling sources from the
                # iterator may include simulation (the engine's stream), and
                # the consumer's reducer work happens between yields.
                scoring_started = time.perf_counter()
                with obs_span(
                    "analysis.score_chunk", n_runs=len(chunk)
                ) as score_span:
                    scored = self._score_chunk(chunk, summarize, stats)
                    score_span.annotate(backend=stats.backend)
                stats.wall_seconds += time.perf_counter() - scoring_started
                yield from scored
            if starts is not None:
                leftover = object()
                if next(starts, leftover) is not leftover:
                    raise ValueError(
                        "anomaly_start_hour sequence is longer than the "
                        "source stream"
                    )
        finally:
            self.last_stats = stats

    def _score_chunk(
        self,
        chunk: List[Tuple[ResultSource, Optional[float]]],
        summarize: bool,
        stats: AnalysisStats,
    ) -> List[ScoredRun]:
        n_workers = min(self.config.resolved_workers, len(chunk))
        # The batch backend vectorizes *simulation*; scoring still fans out
        # over the process pool whenever workers allow.
        use_pool = (
            self.config.backend in ("process", "batch")
            and n_workers > 1
            and len(chunk) > 1
        )
        if not use_pool:
            return [
                _analyze_one((self.analyzer, source, start, summarize))
                for source, start in chunk
            ]

        if self._pool is not None and self._pool_size < n_workers:
            # A later chunk outgrew the pool: rebuild at the larger size.
            self.close()
        if self._pool is None:
            # The initializer ships the analyzer once per worker; the pool is
            # bound to the analyzer it was created with (close() to rebind).
            # Sized to the chunk at hand: workers beyond it would only idle.
            self._pool = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_analysis_worker,
                initargs=(self.analyzer,),
            )
            self._pool_size = n_workers
        futures = {
            self._pool.submit(_analyze_one, (None, source, start, summarize)): index
            for index, (source, start) in enumerate(chunk)
        }
        scored: List[Optional[ScoredRun]] = [None] * len(chunk)
        for future in as_completed(futures):
            scored[futures[future]] = future.result()
        stats.backend = "process"
        stats.n_workers = max(stats.n_workers, n_workers)
        return scored  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Incremental reducers
# ----------------------------------------------------------------------
class OmedaMeanReducer:
    """Accumulates per-view oMEDA vectors and averages them at the end.

    The vectors themselves are retained (one small array of per-variable
    contributions per run) so the final reduction can use the exact
    ``np.mean(np.vstack(...), axis=0)`` of the eager path — bitwise-identical
    output for a few hundred bytes per run.
    """

    def __init__(self) -> None:
        self._vectors: List[np.ndarray] = []
        self._names: Optional[Tuple[str, ...]] = None

    def update(self, omeda: Optional[OmedaResult]) -> None:
        """Record one run's oMEDA diagnosis (``None`` when unavailable)."""
        if omeda is None:
            return
        self._vectors.append(np.asarray(omeda.contributions, dtype=float))
        self._names = omeda.variable_names

    @property
    def n_vectors(self) -> int:
        """Number of diagnoses recorded so far."""
        return len(self._vectors)

    def finalize(self) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Variable names and the mean oMEDA vector over recorded runs."""
        if not self._vectors or self._names is None:
            return tuple(), np.array([])
        return self._names, np.mean(np.vstack(self._vectors), axis=0)


class ScenarioReducer:
    """Streaming aggregation of one scenario's runs.

    Consumes :class:`AnalyzedRun` records one at a time and maintains the
    aggregates the paper's tables need — detection counts and ARL
    (:class:`~repro.mspc.arl.RunLengthAccumulator`), classification tallies,
    false-alarm counts, shutdown times and per-view mean-oMEDA — without
    keeping any per-run simulation data alive.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._run_lengths = RunLengthAccumulator()
        self._counts: Dict[str, int] = {}
        self._false_alarms = 0
        self._shutdown_times: List[Optional[float]] = []
        self._omeda = {
            "controller": OmedaMeanReducer(),
            "process": OmedaMeanReducer(),
        }

    def update(self, run: AnalyzedRun) -> None:
        """Fold one analyzed run into the aggregates."""
        diagnosis = run.diagnosis
        self._run_lengths.update(run.run_length)
        key = diagnosis.classification.value
        self._counts[key] = self._counts.get(key, 0) + 1
        if diagnosis.metadata.get("false_alarm_time_hours") is not None:
            self._false_alarms += 1
        self._shutdown_times.append(run.shutdown_time_hours)
        self._omeda["controller"].update(diagnosis.controller_omeda)
        self._omeda["process"].update(diagnosis.process_omeda)

    @property
    def n_runs(self) -> int:
        """Number of runs folded in so far."""
        return self._run_lengths.n_runs

    def summary(self) -> "ScenarioSummary":
        """Finalize the aggregates into a :class:`ScenarioSummary`."""
        return ScenarioSummary(
            scenario=self.scenario,
            run_lengths=self._run_lengths.run_lengths,
            counts=dict(self._counts),
            false_alarm_count=self._false_alarms,
            shutdown_times_hours=list(self._shutdown_times),
            omeda_means={
                view: reducer.finalize() for view, reducer in self._omeda.items()
            },
        )


# eq=False: omeda_means holds numpy arrays, whose elementwise == would make
# the generated __eq__ raise; compare the table fields explicitly instead.
@dataclass(eq=False)
class ScenarioSummary:
    """Aggregates of one scenario — the streaming counterpart of
    :class:`~repro.experiments.evaluation.ScenarioEvaluation`.

    Exposes the same table-facing API (``n_runs``, ``n_detected``,
    ``detection_rate``, ``arl_hours``, ``n_false_alarms``, ``mean_omeda``,
    ``classification_counts``, ``shutdown_times``) while holding only
    per-run scalars and per-view mean vectors, never simulation data.
    """

    scenario: Scenario
    run_lengths: List[Optional[float]]
    counts: Dict[str, int] = field(default_factory=dict)
    false_alarm_count: int = 0
    shutdown_times_hours: List[Optional[float]] = field(default_factory=list)
    omeda_means: Dict[str, Tuple[Tuple[str, ...], np.ndarray]] = field(
        default_factory=dict
    )

    def _accumulator(self) -> RunLengthAccumulator:
        """The stored run lengths, replayed through the canonical reducer."""
        accumulator = RunLengthAccumulator()
        for length in self.run_lengths:
            accumulator.update(length)
        return accumulator

    @property
    def n_runs(self) -> int:
        """Number of runs aggregated."""
        return len(self.run_lengths)

    @property
    def n_detected(self) -> int:
        """Number of runs in which the anomaly was detected."""
        return self._accumulator().n_detected

    @property
    def detection_rate(self) -> float:
        """Fraction of runs in which the anomaly was detected."""
        return self._accumulator().detection_rate

    @property
    def n_false_alarms(self) -> int:
        """Runs in which a detection fired before the anomaly even began."""
        return self.false_alarm_count

    @property
    def arl_hours(self) -> Optional[float]:
        """Average Run Length over the detected runs, in hours."""
        return self._accumulator().arl_hours

    def mean_omeda(self, view: str) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Average oMEDA vector over runs for ``view`` ("controller"/"process")."""
        if view not in self.omeda_means:
            return tuple(), np.array([])
        return self.omeda_means[view]

    def classification_counts(self) -> Dict[str, int]:
        """How many runs were classified into each anomaly class."""
        return dict(self.counts)

    def shutdown_times(self) -> List[Optional[float]]:
        """Per-run safety shutdown time (None when the run completed)."""
        return list(self.shutdown_times_hours)

    # ------------------------------------------------------------------
    def to_mapping(self) -> Dict[str, object]:
        """A JSON-safe mapping capturing this summary exactly.

        Everything a summary holds is scalars and mean vectors, so the wire
        form round-trips losslessly: ``from_mapping(to_mapping())`` rebuilds
        a summary whose every table-facing accessor agrees with the
        original.  This is what lets campaign results cross the REST
        boundary of :mod:`repro.service`.
        """
        return {
            "scenario": self.scenario.to_mapping(),
            "run_lengths": [
                None if length is None else float(length)
                for length in self.run_lengths
            ],
            "counts": {str(key): int(value) for key, value in self.counts.items()},
            "false_alarm_count": int(self.false_alarm_count),
            "shutdown_times_hours": [
                None if value is None else float(value)
                for value in self.shutdown_times_hours
            ],
            "omeda_means": {
                view: {
                    "names": list(names),
                    "values": [float(v) for v in values],
                }
                for view, (names, values) in self.omeda_means.items()
            },
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ScenarioSummary":
        """Rebuild a summary from its :meth:`to_mapping` form."""
        omeda_means = {
            str(view): (
                tuple(str(name) for name in entry["names"]),
                np.asarray(entry["values"], dtype=float),
            )
            for view, entry in dict(mapping.get("omeda_means", {})).items()
        }
        return cls(
            scenario=Scenario.from_mapping(mapping["scenario"]),
            run_lengths=[
                None if length is None else float(length)
                for length in mapping.get("run_lengths", [])
            ],
            counts={
                str(key): int(value)
                for key, value in dict(mapping.get("counts", {})).items()
            },
            false_alarm_count=int(mapping.get("false_alarm_count", 0)),
            shutdown_times_hours=[
                None if value is None else float(value)
                for value in mapping.get("shutdown_times_hours", [])
            ],
            omeda_means=omeda_means,
        )


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class AnalysisPipeline:
    """Drives a campaign through simulation, sharded scoring and reducers.

    Parameters
    ----------
    analyzer:
        A fitted :class:`DualLevelAnalyzer` (both views calibrated).
    config:
        Campaign configuration; ``config.parallel`` supplies worker count,
        chunk size and cache settings for both stages.
    engine:
        Optional pre-built simulation engine (shared with
        :class:`~repro.experiments.evaluation.Evaluation` so cache state and
        stats are visible to the caller).
    chunk_size:
        Runs per simulation and scoring chunk.  ``None`` picks one chunk
        for the whole sweep with retention, and the configuration's
        simulation and analysis chunk sizes without it.
    retain:
        When ``True`` each :class:`AnalyzedRun` carries its
        :class:`SimulationResult` and full :class:`DualLevelDiagnosis`;
        cached runs are loaded in this process.  When ``False`` cached
        runs reach the scoring workers as paths, workers return compact
        :class:`DiagnosisSummary` records, and peak memory is O(chunk).
    early_stop:
        Optional :class:`~repro.common.config.EarlyStopPolicy`: anomalous
        scenarios' runs are then live-monitored while they simulate and
        truncated once a detection is confirmed (the pipeline installs its
        analyzer on the engine via
        :meth:`CampaignEngine.set_live_analyzer`).  Detection verdicts are
        unaffected — the truncation point is strictly after the confirming
        sample.
    """

    def __init__(
        self,
        analyzer: DualLevelAnalyzer,
        config: ExperimentConfig,
        engine: Optional[CampaignEngine] = None,
        chunk_size: Optional[int] = None,
        retain: bool = False,
        early_stop: Optional[EarlyStopPolicy] = None,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.config = config
        self.analyzer = analyzer
        self.engine = engine or CampaignEngine(config.parallel)
        self.analysis_engine = AnalysisEngine(analyzer, config.parallel)
        self.chunk_size = chunk_size
        self.retain = retain
        self.early_stop = early_stop
        if early_stop is not None:
            self.engine.set_live_analyzer(analyzer)
        # Accumulated over every campaign driven through this pipeline.
        self.simulation_stats = CampaignStats()
        self.analysis_stats = AnalysisStats()

    def _specs(self, scenario: Scenario, n_runs: Optional[int]) -> List:
        """The scenario's run specs, live early stopping attached if set."""
        if self.early_stop is None:
            return scenario_specs(self.config, scenario, n_runs)
        from repro.live.campaign import live_scenario_specs

        return live_scenario_specs(self.config, scenario, self.early_stop, n_runs)

    def _chunk_sizes(self, n_specs: int) -> Tuple[int, int]:
        """Runs per simulation chunk and per scoring chunk."""
        if self.chunk_size is not None:
            return int(self.chunk_size), int(self.chunk_size)
        if self.retain:
            # Retention makes O(chunk) memory moot: one chunk, one pool
            # whose fan-out spans every scenario of the sweep.
            return n_specs, n_specs
        parallel = self.config.parallel
        return parallel.resolved_simulation_chunk_size, parallel.resolved_chunk_size

    # ------------------------------------------------------------------
    def iter_campaign(
        self,
        scenarios: Sequence[Scenario],
        n_runs: Optional[int] = None,
    ) -> Iterator[AnalyzedRun]:
        """Simulate, score and yield every run of a sweep, in scenario order.

        Every scenario's specs are flattened into one sweep, so simulation
        batches span scenario boundaries; per-run seeds make the outcome
        bitwise-identical whatever the chunking, worker count or backend.
        Results stream out of :meth:`CampaignEngine.iter_run` — loaded
        cache hits with retention, validated cache paths without — and are
        scored chunk by chunk on the analysis pool.  Every yielded record
        is final, so the caller can fold it into reducers and drop it.

        A scoring chunk that fails while it holds cache paths (an entry
        pruned by another campaign, or arrays corrupt past the peeked JSON
        members) is re-run with cache-miss semantics, with a warning.  The
        configured cache eviction policy runs once, after the last run:
        pruning earlier could delete entries whose paths are in flight.
        """
        plan: List[Tuple[Scenario, int]] = []
        specs: List = []
        for scenario in scenarios:
            scenario_runs = self._specs(scenario, n_runs)
            plan.extend((scenario, index) for index in range(len(scenario_runs)))
            specs.extend(scenario_runs)
        if not specs:
            return
        starts = [
            self.config.anomaly_start_hour if scenario.is_anomalous else None
            for scenario, _ in plan
        ]
        simulation_chunk, scoring_chunk = self._chunk_sizes(len(specs))
        stream = self.engine.iter_run(
            specs, simulation_chunk, prune=False, load_hits=self.retain
        )

        def score(sources: List[ResultSource], window: slice) -> List[ScoredRun]:
            return list(
                self.analysis_engine.map(
                    sources,
                    anomaly_start_hour=starts[window],
                    summarize=not self.retain,
                    chunk_size=len(sources),
                )
            )

        resimulated = 0
        try:
            for offset in range(0, len(specs), scoring_chunk):
                sources = list(islice(stream, scoring_chunk))
                window = slice(offset, offset + len(sources))
                try:
                    verdicts = score(sources, window)
                except Exception as error:
                    # Only cache paths can have gone bad under us; any other
                    # failure is a genuine scoring error and propagates.
                    if not any(
                        isinstance(source, (str, Path)) for source in sources
                    ):
                        raise
                    warnings.warn(
                        f"chunk scoring failed ({error!r}); retrying with "
                        "cache-miss semantics",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    _LOG.warning(
                        "chunk scoring failed; retrying with cache-miss "
                        "semantics",
                        extra={
                            "chunk": offset // scoring_chunk,
                            "error": repr(error),
                        },
                    )
                    # Rebuild the pool (a dead worker poisons it), reload
                    # sound entries / re-simulate broken ones, and rescore
                    # from memory.
                    self.analysis_engine.close()
                    sources = self.engine.run(specs[window], prune=False)
                    resimulated += self.engine.last_stats.n_simulated
                    verdicts = score(sources, window)
                self.analysis_stats.absorb(self.analysis_engine.last_stats)
                for (scenario, run_index), verdict, source in zip(
                    plan[window], verdicts, sources
                ):
                    yield self._record(
                        scenario, run_index, verdict, source if self.retain else None
                    )
        finally:
            # Close the stream first so its stats are final; early
            # termination by the consumer then still books the work done.
            stream.close()
            stats = self.engine.last_stats
            # Re-simulated entries were counted as hits when they passed
            # the cache check.
            stats.n_simulated += resimulated
            stats.n_cache_hits = max(0, stats.n_cache_hits - resimulated)
            self.simulation_stats.absorb(stats)
            self.analysis_engine.close()
            self.engine.prune_cache()

    def _record(
        self,
        scenario: Scenario,
        run_index: int,
        verdict: ScoredRun,
        result: Optional[SimulationResult],
    ) -> AnalyzedRun:
        """Assemble the reducer-facing record of one scored run."""
        if scenario.is_anomalous:
            length = run_length(
                verdict.diagnosis.detection_time_hours,
                self.config.anomaly_start_hour,
            )
        else:
            length = None
        return AnalyzedRun(
            scenario_name=scenario.name,
            run_index=run_index,
            diagnosis=verdict.diagnosis,
            run_length=length,
            shutdown_time_hours=verdict.shutdown_time_hours,
            result=result,
        )

    def analyze_all(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        on_run=None,
    ) -> Dict[str, ScenarioSummary]:
        """Fold every scenario's runs into reducers (defaults to the paper's four).

        ``on_run`` is called with every :class:`AnalyzedRun` as it streams
        through (progress reporting).
        """
        scenarios = list(scenarios or paper_scenarios())
        reducers = {scenario.name: ScenarioReducer(scenario) for scenario in scenarios}
        for run in self.iter_campaign(scenarios):
            reducers[run.scenario_name].update(run)
            if on_run is not None:
                on_run(run)
        summaries = {name: reducer.summary() for name, reducer in reducers.items()}
        for name, summary in summaries.items():
            _LOG.info(
                "scenario analyzed",
                extra={
                    "scenario": name,
                    "n_runs": summary.n_runs,
                    "n_detected": summary.n_detected,
                },
            )
        return summaries

    # ------------------------------------------------------------------
    def arl_table(
        self, summaries: Dict[str, ScenarioSummary]
    ) -> List[Dict[str, object]]:
        """One row per scenario: detection rate and ARL in hours."""
        return build_arl_table(summaries)

    def classification_table(
        self, summaries: Dict[str, ScenarioSummary]
    ) -> List[Dict[str, object]]:
        """One row per scenario: how its runs were classified."""
        return build_classification_table(summaries)


# ----------------------------------------------------------------------
# Table builders — shared by the eager and streaming paths
# ----------------------------------------------------------------------
def build_arl_table(
    summaries: Mapping[str, object]
) -> List[Dict[str, object]]:
    """One row per scenario: detection rate and ARL in hours.

    Accepts any mapping of scenario name to a summary-like object (a
    :class:`ScenarioSummary` or an eager
    :class:`~repro.experiments.evaluation.ScenarioEvaluation` — they share
    the table API), so the eager and streaming tables cannot drift apart.
    """
    rows: List[Dict[str, object]] = []
    for name, summary in summaries.items():
        rows.append(
            {
                "scenario": name,
                "title": summary.scenario.title,
                "n_runs": summary.n_runs,
                "n_detected": summary.n_detected,
                "detection_rate": summary.detection_rate,
                "arl_hours": summary.arl_hours,
            }
        )
    return rows


def build_classification_table(
    summaries: Mapping[str, object]
) -> List[Dict[str, object]]:
    """One row per scenario: how its runs were classified."""
    rows: List[Dict[str, object]] = []
    for name, summary in summaries.items():
        row: Dict[str, object] = {
            "scenario": name,
            "ground_truth": summary.scenario.expected_ground_truth,
        }
        row.update(summary.classification_counts())
        rows.append(row)
    return rows
