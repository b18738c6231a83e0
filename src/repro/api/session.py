"""Campaign execution on top of a spec: ``Session`` and ``CampaignResult``.

:class:`Session` is the single place where a :class:`~repro.api.spec.
CampaignSpec` meets the execution machinery — it owns one
:class:`~repro.experiments.parallel.CampaignEngine` (so every sweep seed
shares the worker pool settings and the on-disk result cache) and one
calibrated :class:`~repro.experiments.evaluation.Evaluation` per root seed.
:func:`run` / :func:`analyze` are the one-shot conveniences the CLI and the
examples use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.spec import CampaignSpec, load_spec
from repro.common.exceptions import ConfigurationError
from repro.experiments.analysis import (
    ScenarioSummary,
    build_arl_table,
    build_classification_table,
)
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import CampaignEngine
from repro.obs.logs import get_logger, log_context
from repro.obs.trace import span as obs_span

__all__ = [
    "CampaignResult",
    "ResponseCampaignResult",
    "Session",
    "run",
    "analyze",
    "submit_spec",
    "poll",
    "fetch_tables",
    "serve_gateway",
]

SpecLike = Union[CampaignSpec, str, Path]

_LOG = get_logger("session")


def _as_spec(spec: SpecLike) -> CampaignSpec:
    if isinstance(spec, CampaignSpec):
        return spec
    return load_spec(spec)


@dataclass
class CampaignResult:
    """What a campaign produced, across every sweep seed.

    ``per_seed`` maps each root seed to its scenario results — eager
    :class:`~repro.experiments.evaluation.ScenarioEvaluation` records or
    streaming :class:`~repro.experiments.analysis.ScenarioSummary` records;
    both expose the shared table API, so every accessor here works with
    either.
    """

    spec: CampaignSpec
    per_seed: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def seeds(self) -> List[int]:
        """The sweep seeds, in execution order."""
        return list(self.per_seed)

    @property
    def is_sweep(self) -> bool:
        """Whether the campaign ran at more than one root seed."""
        return len(self.per_seed) > 1

    @property
    def scenario_results(self) -> Dict[str, Any]:
        """Scenario results of a single-seed campaign, keyed by name."""
        if self.is_sweep:
            raise ConfigurationError(
                "this campaign swept several seeds; index per_seed[seed] instead"
            )
        (results,) = self.per_seed.values() or ({},)
        return dict(results)

    # ------------------------------------------------------------------
    def _table(self, builder) -> List[Dict[str, object]]:
        """One table over every seed (a ``seed`` column is added on sweeps)."""
        rows: List[Dict[str, object]] = []
        for seed, results in self.per_seed.items():
            for row in builder(results):
                if self.is_sweep:
                    row = {"seed": seed, **row}
                rows.append(row)
        return rows

    def arl_table(self) -> List[Dict[str, object]]:
        """One row per scenario (and seed): detection rate and ARL in hours."""
        return self._table(build_arl_table)

    def classification_table(self) -> List[Dict[str, object]]:
        """One row per scenario (and seed): how its runs were classified."""
        return self._table(build_classification_table)

    def tables(self) -> Dict[str, List[Dict[str, object]]]:
        """The tables selected by the spec's analysis options, by name."""
        builders = {
            "arl": self.arl_table,
            "classification": self.classification_table,
        }
        return {name: builders[name]() for name in self.spec.analysis.tables}

    # ------------------------------------------------------------------
    def to_mapping(self) -> Dict[str, object]:
        """A JSON-safe mapping of this result.

        Eager :class:`~repro.experiments.evaluation.ScenarioEvaluation`
        records are folded through their streaming summaries first, so the
        wire form always carries
        :class:`~repro.experiments.analysis.ScenarioSummary` mappings —
        per-run scalars and mean vectors, never simulation arrays.  The
        round-trip is table-exact: ``from_mapping(to_mapping()).tables()``
        equals :meth:`tables`.
        """
        per_seed: Dict[str, Dict[str, object]] = {}
        for seed, results in self.per_seed.items():
            per_seed[str(int(seed))] = {
                name: (
                    record if isinstance(record, ScenarioSummary)
                    else record.to_summary()
                ).to_mapping()
                for name, record in results.items()
            }
        return {"spec": self.spec.to_mapping(), "per_seed": per_seed}

    @classmethod
    def from_mapping(cls, mapping: Dict[str, object]) -> "CampaignResult":
        """Rebuild a result from its :meth:`to_mapping` form."""
        per_seed: Dict[int, Dict[str, Any]] = {}
        for seed, results in dict(mapping.get("per_seed", {})).items():
            per_seed[int(seed)] = {
                str(name): ScenarioSummary.from_mapping(record)
                for name, record in dict(results).items()
            }
        return cls(
            spec=CampaignSpec.from_mapping(mapping["spec"]),
            per_seed=per_seed,
        )


@dataclass
class ResponseCampaignResult:
    """What a response-enabled campaign produced, across every sweep seed.

    ``per_seed`` maps each root seed to its
    :class:`~repro.response.campaign.ResponseScenarioResult` records, keyed
    by scenario name.
    """

    spec: CampaignSpec
    per_seed: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def seeds(self) -> List[int]:
        """The sweep seeds, in execution order."""
        return list(self.per_seed)

    @property
    def is_sweep(self) -> bool:
        """Whether the campaign ran at more than one root seed."""
        return len(self.per_seed) > 1

    def response_table(self) -> List[Dict[str, object]]:
        """The per-scenario recovery table (a ``seed`` column on sweeps)."""
        from repro.response.metrics import build_response_table

        rows: List[Dict[str, object]] = []
        for seed, results in self.per_seed.items():
            seed_rows = build_response_table(
                [record.to_summary() for record in results.values()]
            )
            for row in seed_rows:
                if self.is_sweep:
                    row = {"seed": seed, **row}
                rows.append(row)
        return rows

    def tables(self) -> Dict[str, List[Dict[str, object]]]:
        """Every table this result produces, by name."""
        return {"response": self.response_table()}

    def to_mapping(self) -> Dict[str, object]:
        """A JSON-safe mapping: the spec plus every per-run report."""
        per_seed: Dict[str, Dict[str, object]] = {}
        for seed, results in self.per_seed.items():
            per_seed[str(int(seed))] = {
                name: record.to_mapping() for name, record in results.items()
            }
        return {"spec": self.spec.to_mapping(), "per_seed": per_seed}


class Session:
    """A reusable execution context for one campaign spec.

    Parameters
    ----------
    spec:
        A :class:`CampaignSpec`, or the path of a TOML/JSON spec file.
    engine:
        Optional pre-built campaign engine; by default one is created from
        the spec's :class:`~repro.common.config.ParallelConfig` and shared
        by every sweep seed, so cache state and pool settings are common to
        the whole session.

    Notes
    -----
    Calibration is the expensive, anomaly-independent part of a campaign;
    the session runs it lazily, once per root seed, and reuses the fitted
    models for every subsequent :meth:`run` / :meth:`analyze` call.
    """

    def __init__(self, spec: SpecLike, engine: Optional[CampaignEngine] = None):
        self.spec = _as_spec(spec)
        self.engine = engine or CampaignEngine(self.spec.experiment.parallel)
        self._evaluations: Dict[int, Evaluation] = {}
        self._campaign_id: Optional[str] = None
        if not self.spec.obs.is_default:
            # A non-default [obs] section owns the process-wide tracer and
            # logging setup; specs without one leave whatever the embedding
            # script configured (e.g. run_campaign.py --trace) untouched.
            from repro.obs import configure as _configure_obs

            _configure_obs(self.spec.obs)

    def fingerprint(self) -> str:
        """The campaign id of this spec (the coordinator's fingerprint)."""
        # Imported lazily: repro.service sits on top of repro.api.
        from repro.service.chunks import campaign_fingerprint

        return campaign_fingerprint(self.spec)

    # ------------------------------------------------------------------
    def evaluation(self, seed: Optional[int] = None) -> Evaluation:
        """The (lazily created) evaluation of one sweep seed."""
        seed = self.spec.experiment.seed if seed is None else int(seed)
        if seed not in self._evaluations:
            self._evaluations[seed] = Evaluation(
                self.spec.experiment_for(seed), engine=self.engine
            )
        return self._evaluations[seed]

    def _calibrated(self, seed: int, keep_results: bool) -> Evaluation:
        evaluation = self.evaluation(seed)
        if not evaluation.is_calibrated:
            with obs_span("session.calibrate", seed=seed):
                evaluation.calibrate(keep_results=keep_results)
            _LOG.info("calibrated", extra={"seed": seed})
        return evaluation

    # ------------------------------------------------------------------
    def run(
        self, streaming: Optional[bool] = None, on_run=None
    ) -> CampaignResult:
        """Execute the campaign: every sweep seed, every expanded scenario.

        ``streaming`` overrides the spec's ``analysis.streaming`` choice;
        with ``False`` (the default spec setting) the per-seed results are
        fully-retained :class:`ScenarioEvaluation` records, bitwise-identical
        to :meth:`Evaluation.evaluate_all` on the same configuration.
        ``on_run`` is called with every analyzed run as it completes
        (progress reporting).
        """
        return self._run_seeds(streaming, on_run, early_stop=None)

    def run_live(
        self, streaming: Optional[bool] = None, on_run=None
    ) -> CampaignResult:
        """Execute the campaign with live monitoring and early stopping.

        Requires the spec's ``[live]`` section to be enabled.  Anomalous
        runs are scored sample-by-sample while they simulate and — unless
        ``live.early_stop`` is off — terminated a grace window after a
        confirmed detection (the ``early_stop`` option of
        :meth:`~repro.experiments.evaluation.Evaluation.evaluate_all`).
        Detection verdicts match :meth:`run` exactly; anomalous runs just
        stop simulating once the verdict is in, so the campaign finishes
        measurably faster.
        """
        if not self.spec.live.enabled:
            raise ConfigurationError(
                "the spec's [live] section is not enabled; set "
                "live.enabled = true (or use Session.run for batch execution)"
            )
        return self._run_seeds(streaming, on_run, early_stop=self.spec.live.policy())

    def _run_seeds(self, streaming, on_run, early_stop) -> CampaignResult:
        """The per-seed loop behind :meth:`run` and :meth:`run_live`."""
        streaming = (
            self.spec.analysis.streaming if streaming is None else bool(streaming)
        )
        scenarios = self.spec.expanded_scenarios()
        result = CampaignResult(spec=self.spec)
        with log_context(campaign=self.fingerprint()), obs_span(
            "session.run",
            n_seeds=len(self.spec.seeds()),
            n_scenarios=len(scenarios),
            streaming=streaming,
        ):
            for seed in self.spec.seeds():
                evaluation = self._calibrated(seed, keep_results=not streaming)
                with obs_span("session.seed", seed=seed), log_context(seed=seed):
                    if streaming:
                        results = evaluation.evaluate_all_streaming(
                            scenarios,
                            chunk_size=self.spec.analysis.chunk_size,
                            early_stop=early_stop,
                            on_run=on_run,
                        )
                    else:
                        results = evaluation.evaluate_all(
                            scenarios, early_stop=early_stop, on_run=on_run
                        )
                result.per_seed[seed] = results
            _LOG.info(
                "campaign complete",
                extra={
                    "n_seeds": len(result.per_seed),
                    "n_scenarios": len(scenarios),
                    "streaming": streaming,
                },
            )
        return result

    def run_response(self, on_report=None) -> ResponseCampaignResult:
        """Execute the campaign with the closed-loop response stack attached.

        Requires the spec's ``[response]`` section to be enabled.  Every run
        simulates in-process (response actions mutate the trajectory, so the
        campaign cache is bypassed) with a
        :class:`~repro.response.runner.ResponseRunner` riding behind the
        live monitor; per-run seeds match the engine's derivation, so a run
        in which no action fires is bitwise-identical to its :meth:`run`
        counterpart.  ``on_report`` is called with
        ``(scenario_name, run_index, report)`` as each run completes.
        """
        # Imported lazily: repro.response reaches into the live/experiments
        # stack; keep the session importable without it fully loaded.
        from repro.response.campaign import evaluate_all_response

        if not self.spec.response.enabled:
            raise ConfigurationError(
                "the spec's [response] section is not enabled; set "
                "response.enabled = true (or use Session.run for batch "
                "execution)"
            )
        scenarios = self.spec.expanded_scenarios()
        result = ResponseCampaignResult(spec=self.spec)
        for seed in self.spec.seeds():
            evaluation = self._calibrated(seed, keep_results=False)
            result.per_seed[seed] = evaluate_all_response(
                evaluation,
                scenarios,
                self.spec.response,
                on_report=on_report,
            )
        return result

    def analyze(self) -> CampaignResult:
        """Execute the campaign on the streaming path (O(chunk) memory)."""
        return self.run(streaming=True)

    # ------------------------------------------------------------------
    # Distributed execution (repro.service)
    # ------------------------------------------------------------------
    def _client(self, url: Optional[str]):
        # Imported lazily: repro.service sits on top of repro.api, so a
        # module-level import would be circular.
        from repro.service.client import CoordinatorClient

        return CoordinatorClient(url or self.spec.service.url)

    def submit(self, url: Optional[str] = None) -> str:
        """Submit this campaign to a coordinator; returns its campaign id.

        ``url`` defaults to the spec's ``[service]`` section
        (``http://{host}:{port}``).  Submission is idempotent — the id is
        the fingerprint of the coordinator-normalized spec, so re-submitting
        (or submitting from several clients) never duplicates work.
        Raises :class:`~repro.common.exceptions.ServiceUnavailableError`
        when the coordinator cannot be reached.
        """
        campaign_id = self._client(url).submit(self.spec)
        self._campaign_id = campaign_id
        return campaign_id

    def status(self, url: Optional[str] = None) -> Dict[str, Any]:
        """Scheduling progress of this campaign at the coordinator.

        Submits first (idempotently) when this session has not submitted
        yet — the coordinator assigns ids to normalized specs, so the only
        way to learn ours is to ask.
        """
        client = self._client(url)
        campaign_id = self._campaign_id or client.submit(self.spec)
        self._campaign_id = campaign_id
        return client.progress(campaign_id)

    # ------------------------------------------------------------------
    # Streaming gateway (repro.gateway)
    # ------------------------------------------------------------------
    def serve_gateway(self, seed: Optional[int] = None, journal=None):
        """Build a streaming gateway server around this spec's monitor.

        Calibrates the spec's experiment (lazily, shared with :meth:`run`)
        and wraps the fitted analyzer in a
        :class:`~repro.gateway.server.GatewayServer` configured from the
        spec's ``[gateway]`` section.  The server is returned unstarted —
        use it as a context manager, call
        :meth:`~repro.gateway.server.GatewayServer.start` for background
        serving, or :meth:`~repro.gateway.server.GatewayServer.serve_forever`
        to block (the ``run_gateway.py --serve`` mode).

        ``journal`` (a path) makes the pool persist confirmed alarm
        transitions; a restarted gateway over the same journal serves a
        re-opened stream's pre-crash alarm history.  Deliberately a
        parameter, not a spec field: where the journal lives is a
        deployment concern and must not alter the campaign fingerprint.
        """
        # Imported lazily: repro.gateway sits on top of repro.api, so a
        # module-level import would be circular.
        from repro.gateway.pool import MonitorPool
        from repro.gateway.server import GatewayServer

        evaluation = self._calibrated(
            self.spec.experiment.seed if seed is None else int(seed),
            keep_results=False,
        )
        pool = MonitorPool(
            evaluation.analyzer, self.spec.gateway, journal=journal
        )
        return GatewayServer(pool)

    def fetch(self, url: Optional[str] = None) -> Dict[str, List[Dict[str, Any]]]:
        """The reduced tables of this campaign, from the coordinator.

        Raises :class:`~repro.common.exceptions.ServiceError` while the
        campaign is still incomplete (poll :meth:`status` first).  The
        returned tables are bitwise-identical to ``self.run().tables()`` —
        the coordinator's reduction *is* the single-host path, run over the
        shared cache.
        """
        client = self._client(url)
        campaign_id = self._campaign_id or client.submit(self.spec)
        self._campaign_id = campaign_id
        return client.tables(campaign_id)


def run(spec: SpecLike, streaming: Optional[bool] = None) -> CampaignResult:
    """Load (if needed) and execute a campaign spec in one call."""
    return Session(spec).run(streaming=streaming)


def run_live(spec: SpecLike, streaming: Optional[bool] = None) -> CampaignResult:
    """Load (if needed) and execute a campaign spec with live early stopping."""
    return Session(spec).run_live(streaming=streaming)


def run_response(spec: SpecLike, on_report=None) -> ResponseCampaignResult:
    """Load (if needed) and execute a campaign spec with closed-loop response."""
    return Session(spec).run_response(on_report=on_report)


def analyze(spec: SpecLike) -> CampaignResult:
    """Load (if needed) and execute a campaign spec on the streaming path."""
    return Session(spec).analyze()


def submit_spec(spec: SpecLike, url: Optional[str] = None) -> str:
    """Submit a campaign spec to a coordinator; returns the campaign id.

    The distributed counterpart of :func:`run`: the coordinator shards the
    campaign into chunks for its workers, and the tables eventually fetched
    via :func:`fetch_tables` are bitwise-identical to ``run(spec).tables()``.
    ``url`` defaults to the spec's ``[service]`` section.
    """
    return Session(spec).submit(url=url)


def poll(spec: SpecLike, url: Optional[str] = None) -> Dict[str, Any]:
    """Scheduling progress of a spec's campaign at the coordinator.

    Idempotently (re-)submits the spec to resolve its campaign id, so
    polling works from any client, not just the submitting one.
    """
    return Session(spec).status(url=url)


def fetch_tables(
    spec: SpecLike, url: Optional[str] = None
) -> Dict[str, List[Dict[str, Any]]]:
    """The reduced tables of a spec's campaign at the coordinator.

    Raises :class:`~repro.common.exceptions.ServiceError` while the
    campaign is incomplete and
    :class:`~repro.common.exceptions.ServiceUnavailableError` when the
    coordinator is unreachable.
    """
    return Session(spec).fetch(url=url)


def serve_gateway(spec: SpecLike):
    """Calibrate a spec's monitor and build its streaming gateway server.

    The streaming counterpart of :func:`run`: instead of simulating a
    campaign, the spec's calibrated dual-level analyzer is put behind a
    :class:`~repro.gateway.server.GatewayServer` that scores external
    plant streams against it (``[gateway]`` section for host/port,
    capacity and batching).  The server is returned unstarted; every
    stream it serves produces scores and alarm events bitwise-identical
    to an in-process :class:`~repro.live.monitor.LiveMonitor`.
    """
    return Session(spec).serve_gateway()
