"""Run the paper's evaluation campaign through the parallel engine.

The CLI front end of :class:`repro.experiments.evaluation.Evaluation`:
calibrates the dual-level MSPC models, fans the scenario runs out over a
process pool, and prints the ARL and classification tables.  Simulation
results are cached on disk (``--cache-dir``, default ``.repro-cache``), so a
re-run with unchanged settings only replays the analysis.

Examples
--------
Fast campaign on all CPUs with caching::

    PYTHONPATH=src python scripts/run_campaign.py

Paper-fidelity campaign on 8 workers::

    PYTHONPATH=src python scripts/run_campaign.py --scale paper --workers 8

Serial, cache-less run of two scenarios::

    PYTHONPATH=src python scripts/run_campaign.py --workers 1 --no-cache \
        --scenarios idv6 dos_xmv3

Batched vectorized simulation — each worker steps a whole chunk of runs in
one lockstep loop (bitwise-identical results, several times faster per
core, multiplicative with the process fan-out)::

    PYTHONPATH=src python scripts/run_campaign.py --backend batch --batch-size 16

Streaming sharded analysis (peak memory O(chunk), not O(campaign))::

    PYTHONPATH=src python scripts/run_campaign.py --analyze --chunk-size 4

Prune the cache down to 256 MiB, dropping entries older than a week::

    PYTHONPATH=src python scripts/run_campaign.py --cache-prune \
        --cache-max-bytes 268435456 --cache-max-age 604800

Run a declarative campaign spec (scenario selection, sweeps and analysis
options all come from the file; operational flags like ``--workers`` and
``--chunk-size`` still override)::

    PYTHONPATH=src python scripts/run_campaign.py --spec examples/specs/paper.toml

Live campaign with early stopping — anomalous runs are scored while they
simulate and stop a grace window after the detection is confirmed::

    PYTHONPATH=src python scripts/run_campaign.py \
        --spec examples/specs/live_paper.toml --live

Closed-loop response campaign — confirmed alarms trigger the spec's
``[response]`` rules mid-run (quarantine, fallback gains, ...) and the
per-scenario recovery table prints at the end::

    PYTHONPATH=src python scripts/run_campaign.py \
        --spec examples/specs/response_paper.toml --respond

Per-run progress lines while the campaign streams (or no chatter at all)::

    PYTHONPATH=src python scripts/run_campaign.py --progress
    PYTHONPATH=src python scripts/run_campaign.py --quiet

Distributed campaign — boot a coordinator, attach workers (any number,
any host sharing the cache directory), submit a spec and collect tables
bitwise-identical to a single-host run::

    PYTHONPATH=src python scripts/run_campaign.py --serve \
        --spec examples/specs/paper.toml --cache-dir /shared/cache
    PYTHONPATH=src python scripts/run_campaign.py --worker http://127.0.0.1:8765
    PYTHONPATH=src python scripts/run_campaign.py --submit http://127.0.0.1:8765 \
        --spec examples/specs/paper.toml

Traced campaign — every stage records spans, written as a Chrome
trace-event JSON loadable in Perfetto / about://tracing (with --submit the
workers' span buffers are fetched from the coordinator and merged in)::

    PYTHONPATH=src python scripts/run_campaign.py \
        --spec examples/specs/paper.toml --trace trace.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro import api
from repro.common.config import EarlyStopPolicy, ExperimentConfig, ParallelConfig
from repro.common.exceptions import ConfigurationError
from repro.experiments.evaluation import Evaluation
from repro.experiments.parallel import ResultCache
from repro.experiments.registry import (
    get_scenario,
    paper_scenario_names,
    scenario_names,
)

DEFAULT_CACHE_DIR = ".repro-cache"


def build_config(arguments: argparse.Namespace) -> ExperimentConfig:
    if arguments.scale == "paper":
        config = ExperimentConfig.paper_settings(seed=arguments.seed)
    elif arguments.scale == "fast":
        config = ExperimentConfig.fast(seed=arguments.seed)
    else:
        config = ExperimentConfig.smoke(seed=arguments.seed)
    if arguments.calibration_runs is not None:
        config = replace(config, n_calibration_runs=arguments.calibration_runs)
    if arguments.runs_per_scenario is not None:
        config = replace(config, n_runs_per_scenario=arguments.runs_per_scenario)
    parallel = ParallelConfig(
        n_workers=arguments.workers,
        backend=arguments.backend or "process",
        cache_dir=(
            None
            if arguments.no_cache
            else str(arguments.cache_dir or DEFAULT_CACHE_DIR)
        ),
        cache_max_bytes=arguments.cache_max_bytes,
        cache_max_age=arguments.cache_max_age,
        chunk_size=arguments.chunk_size,
        batch_size=arguments.batch_size,
    )
    return config.with_parallel(parallel)


def select_scenarios(names):
    """Resolve scenario names through the registry (default: the paper four)."""
    if not names:
        names = list(paper_scenario_names())
    unknown = [name for name in names if name not in scenario_names()]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(registered: {', '.join(scenario_names())})"
        )
    return [get_scenario(name) for name in names]


def _seed_prefix(row) -> str:
    return f"seed {row['seed']:<6} " if "seed" in row else ""


def make_run_printer(enabled: bool):
    """Per-run progress callback (``--progress``), or ``None``.

    Prints one line per analyzed run as it streams out of the pipeline —
    between all-or-nothing silence and the summary tables.
    """
    if not enabled:
        return None

    def on_run(run) -> None:
        diagnosis = run.diagnosis
        detection = (
            "no detection"
            if diagnosis.detection_time_hours is None
            else f"detected at {diagnosis.detection_time_hours:.3f} h"
        )
        truncated = ""
        result = getattr(run, "result", None)
        if result is not None and result.stopped_early:
            truncated = f"  [early stop at {result.early_stop_time_hours:.3f} h]"
        print(
            f"  run {run.scenario_name}#{run.run_index}: {detection} "
            f"-> {diagnosis.classification.value}{truncated}",
            flush=True,
        )

    return on_run


def make_report_printer(enabled: bool):
    """Per-run response progress callback (``--progress``), or ``None``."""
    if not enabled:
        return None

    def on_report(scenario_name, run_index, report) -> None:
        verdict = "no response"
        if report.responded:
            verdict = f"{report.n_actions} action(s)"
            if report.recovered:
                verdict += f", recovered in {report.time_to_recovery_hours:.3f} h"
            elif report.shutdown_reason is not None:
                verdict += ", tripped"
        print(
            f"  run {scenario_name}#{run_index}: "
            f"{'detected' if report.detected else 'no detection'} -> {verdict}",
            flush=True,
        )

    return on_report


def print_tables(tables) -> None:
    """Print whichever result tables the campaign produced."""
    if "arl" in tables:
        print("=== ARL table (Section V) ===")
        for row in tables["arl"]:
            arl = "n/a" if row["arl_hours"] is None else f"{row['arl_hours']:.3f} h"
            print(
                f"  {_seed_prefix(row)}{row['scenario']:<16} "
                f"detected {row['n_detected']}/{row['n_runs']}  ARL {arl}"
            )

    if "classification" in tables:
        print("\n=== classification (disturbance vs intrusion) ===")
        for row in tables["classification"]:
            counts = ", ".join(
                f"{key}: {value}"
                for key, value in row.items()
                if key not in ("seed", "scenario", "ground_truth")
            )
            print(
                f"  {_seed_prefix(row)}{row['scenario']:<16} "
                f"ground truth {row['ground_truth']:<12} -> {counts}"
            )

    if "response" in tables:
        print("\n=== closed-loop response (recovery) ===")
        for row in tables["response"]:
            ttr = (
                "n/a"
                if row["time_to_recovery_hours"] is None
                else f"{row['time_to_recovery_hours']:.3f} h"
            )
            print(
                f"  {_seed_prefix(row)}{row['scenario']:<16} "
                f"responded {row['n_responded']}/{row['n_runs']}  "
                f"actions {row['n_actions']}  "
                f"recovered {row['n_recovered']}  TTR {ttr}  "
                f"trips avoided {row['trip_avoidance_rate']:.2f}"
            )


def apply_spec_overrides(
    spec: "api.CampaignSpec", arguments: argparse.Namespace
) -> "api.CampaignSpec":
    """Fold the operational CLI flags into a loaded spec.

    Only execution-plan settings can be overridden from the command line;
    the scientific content (scenarios, sweeps, fidelity) always comes from
    the reviewed file.
    """
    parallel = spec.experiment.parallel
    if arguments.workers is not None:
        parallel = replace(parallel, n_workers=arguments.workers)
    if arguments.backend is not None:
        parallel = replace(parallel, backend=arguments.backend)
    if arguments.no_cache:
        parallel = replace(parallel, cache_dir=None)
    elif arguments.cache_dir is not None:
        parallel = replace(parallel, cache_dir=str(arguments.cache_dir))
    if arguments.chunk_size is not None:
        parallel = replace(parallel, chunk_size=arguments.chunk_size)
    if arguments.batch_size is not None:
        parallel = replace(parallel, batch_size=arguments.batch_size)
    if arguments.cache_max_bytes is not None:
        parallel = replace(parallel, cache_max_bytes=arguments.cache_max_bytes)
    if arguments.cache_max_age is not None:
        parallel = replace(parallel, cache_max_age=arguments.cache_max_age)
    if parallel == spec.experiment.parallel:
        return spec
    return spec.with_experiment(spec.experiment.with_parallel(parallel))


def run_spec(arguments: argparse.Namespace) -> int:
    """Execute a declarative campaign spec through the ``repro.api`` facade."""
    try:
        spec = apply_spec_overrides(api.load_spec(arguments.spec), arguments)
    except ConfigurationError as error:
        raise SystemExit(f"invalid spec: {error}")
    experiment = spec.experiment
    scenarios = spec.expanded_scenarios()
    streaming = True if arguments.analyze else None
    if not arguments.quiet:
        print(
            f"spec: {spec.name}"
            + (f" — {spec.description}" if spec.description else "")
        )
        print(
            f"campaign: {experiment.n_calibration_runs} calibration runs, "
            f"{experiment.n_runs_per_scenario} runs per scenario, "
            f"{experiment.simulation.duration_hours:g} h per run"
        )
        print(
            f"scenarios: {', '.join(scenario.name for scenario in scenarios)}"
        )
        if len(spec.seeds()) > 1:
            print(f"sweep: seeds {', '.join(str(seed) for seed in spec.seeds())}")
        mode = "streaming" if (streaming or spec.analysis.streaming) else "eager"
        if arguments.live:
            mode += ", live early-stop"
        if arguments.respond:
            mode = "closed-loop response (in-process, cache bypassed)"
        print(
            f"engine: backend={experiment.parallel.backend} "
            f"workers={experiment.parallel.resolved_workers} "
            f"cache={'off' if not experiment.parallel.caching else experiment.parallel.cache_dir}"
            f" analysis={mode}\n"
        )
    on_run = make_run_printer(arguments.progress)
    session = api.Session(spec)
    try:
        if arguments.respond:
            result = session.run_response(
                on_report=make_report_printer(arguments.progress)
            )
        elif arguments.live:
            result = session.run_live(streaming=streaming, on_run=on_run)
        else:
            result = session.run(streaming=streaming, on_run=on_run)
    except ConfigurationError as error:
        raise SystemExit(f"cannot run spec: {error}")
    print_tables(result.tables())
    return 0


def serve(arguments: argparse.Namespace, cache_dir: Path) -> int:
    """``--serve``: boot a campaign coordinator and block until killed."""
    from repro.common.config import ServiceConfig
    from repro.service import CampaignCoordinator, CoordinatorServer

    spec = None
    service = ServiceConfig()
    if arguments.spec is not None:
        try:
            spec = apply_spec_overrides(api.load_spec(arguments.spec), arguments)
        except ConfigurationError as error:
            raise SystemExit(f"invalid spec: {error}")
        service = spec.service
    coordinator = CampaignCoordinator(cache_dir, journal=arguments.journal)
    server = CoordinatorServer(coordinator, host=service.host, port=service.port)
    if arguments.journal is not None:
        print(f"scheduling journal at {arguments.journal}")
    if spec is not None:
        campaign_id = coordinator.submit(spec)
        progress = coordinator.progress(campaign_id)
        print(
            f"submitted campaign {campaign_id}: {spec.name!r}, "
            f"{progress['n_runs']} runs in {progress['n_chunks']} chunks"
        )
    print(f"coordinator listening on {server.url} (shared cache: {cache_dir})")
    print("attach workers with: --worker " + server.url)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ncoordinator stopped")
    return 0


def work(arguments: argparse.Namespace) -> int:
    """``--worker URL``: execute chunks for a remote coordinator.

    Transient coordinator outages are absorbed by a retry policy (both
    inside the HTTP client for idempotent ops and around the worker's
    claim loop).  The exit code is honest: retry exhaustion and a vanished
    coordinator exit 1, an operator's Ctrl-C exits 130 — a supervisor
    restarting non-zero workers does the right thing in every case.
    """
    from repro.common.exceptions import (
        RetryExhaustedError,
        ServiceUnavailableError,
    )
    from repro.common.retry import RetryPolicy
    from repro.service import ChunkWorker, CoordinatorClient

    # A worker must outlive a coordinator *restart*, not just a dropped
    # packet: 10 attempts of capped exponential backoff sleep ~21 s
    # (within the 30 s budget), spanning a restart-from-journal.
    retry = RetryPolicy(seed=arguments.seed, max_attempts=10)
    client = CoordinatorClient(arguments.worker, retry=retry)
    try:
        health = client.health()
    except (ServiceUnavailableError, RetryExhaustedError) as error:
        raise SystemExit(f"error: {error}")
    worker = ChunkWorker(
        client,
        cache_dir=(
            str(arguments.cache_dir) if arguments.cache_dir is not None else None
        ),
        n_workers=arguments.workers,
        retry=retry,
    )
    print(
        f"worker {worker.worker_id} attached to {arguments.worker} "
        f"({health['n_campaigns']} campaign(s) known)"
    )

    def summarize(executed: int) -> None:
        print(
            f"worker {worker.worker_id}: {executed} chunks executed "
            f"({worker.n_simulated} simulated, {worker.n_cache_hits} cached, "
            f"{worker.n_chunks_abandoned} abandoned)"
        )

    try:
        executed = worker.drain_all(max_idle=arguments.max_idle)
    except RetryExhaustedError as error:
        summarize(worker.n_chunks_done)
        raise SystemExit(f"error: coordinator kept failing: {error}")
    except ServiceUnavailableError as error:
        summarize(worker.n_chunks_done)
        raise SystemExit(f"error: coordinator went away: {error}")
    except KeyboardInterrupt:
        summarize(worker.n_chunks_done)
        print("worker interrupted")
        return 130
    summarize(executed)
    return 0


def submit(arguments: argparse.Namespace) -> int:
    """``--submit URL``: push a spec to a coordinator and await its tables."""
    import time as _time

    from repro.common.exceptions import ServiceUnavailableError
    from repro.service import CoordinatorClient

    if arguments.spec is None:
        raise SystemExit("--submit needs --spec FILE")
    try:
        spec = apply_spec_overrides(api.load_spec(arguments.spec), arguments)
    except ConfigurationError as error:
        raise SystemExit(f"invalid spec: {error}")
    if arguments.trace is not None:
        # Tracing rides the spec: workers see [obs].trace and ship their
        # span buffers back in acks, which we fetch and merge below.
        spec = replace(
            spec, obs=spec.obs.with_trace_path(str(arguments.trace))
        )
    client = CoordinatorClient(arguments.submit)
    try:
        campaign_id = client.submit(spec)
        progress = client.progress(campaign_id)
        print(
            f"submitted campaign {campaign_id}: {spec.name!r}, "
            f"{progress['n_runs']} runs in {progress['n_chunks']} chunks"
        )
        if arguments.no_wait:
            return 0
        last_done = -1
        while not progress["complete"]:
            if progress["n_done"] != last_done and not arguments.quiet:
                print(
                    f"  {progress['n_done']}/{progress['n_chunks']} chunks done "
                    f"({progress['n_leased']} leased, "
                    f"{progress['n_pending']} pending)"
                )
                last_done = progress["n_done"]
            _time.sleep(float(spec.service.poll_seconds))
            progress = client.progress(campaign_id)
        tables = client.tables(campaign_id)
        if arguments.trace is not None:
            from repro.obs.trace import get_tracer

            spans = client.trace(campaign_id)
            get_tracer().absorb(spans)
            print(f"merged {len(spans)} worker span(s) into the campaign trace")
    except ServiceUnavailableError as error:
        raise SystemExit(f"error: {error}")
    print_tables(tables)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="declarative campaign spec (TOML/JSON); scenario selection, "
        "sweeps and analysis options come from the file, and only "
        "operational flags (--workers, --backend, --no-cache, --cache-dir, "
        "--chunk-size, --cache-max-*, --analyze) override it",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "fast", "paper"),
        default="smoke",
        help="campaign size preset (default: smoke; ignored with --spec)",
    )
    parser.add_argument("--seed", type=int, default=2016, help="campaign root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all CPUs; 1 forces serial)",
    )
    parser.add_argument(
        "--backend",
        choices=("process", "serial", "batch"),
        default=None,
        help="execution backend (default: process; 'batch' steps whole "
        "chunks of runs through the vectorized lockstep simulator, "
        "multiplicative with the process fan-out)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help="runs stepped together per vectorized batch of the batch "
        "backend (default: 16)",
    )
    parser.add_argument(
        "--calibration-runs", type=int, default=None, help="override calibration runs"
    )
    parser.add_argument(
        "--runs-per-scenario", type=int, default=None, help="override scenario repeats"
    )
    parser.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of scenarios to evaluate (default: the paper's four)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the cache directory and exit",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="streaming sharded analysis: chunked result loads, pooled MSPC "
        "scoring + oMEDA diagnosis, incremental reducers (peak memory "
        "O(chunk) instead of O(campaign))",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="live co-simulation monitoring with early stopping: anomalous "
        "runs are scored sample-by-sample while they simulate and stop a "
        "grace window after a confirmed detection (with --spec the [live] "
        "section must be enabled; without it a default policy is used)",
    )
    parser.add_argument(
        "--respond",
        action="store_true",
        help="closed-loop response: run the spec's [response] rules against "
        "confirmed alarms mid-run and print the recovery table (needs "
        "--spec with an enabled [response] section; runs execute "
        "in-process, bypassing the result cache)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per analyzed run as the campaign streams",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational output; only the result tables print",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="runs per streaming shard (default: 2x the worker count)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="evict oldest cache entries beyond this total size",
    )
    parser.add_argument(
        "--cache-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict cache entries older than this many seconds",
    )
    parser.add_argument(
        "--cache-prune",
        action="store_true",
        help="apply --cache-max-bytes/--cache-max-age to the cache and exit",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="boot a campaign coordinator (REST, [service] host/port from "
        "--spec when given) over the shared --cache-dir and block; with "
        "--spec the campaign is submitted immediately",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="with --serve: persist scheduling events (submit/claim/ack/"
        "reap) to this journal; a restarted coordinator over the same "
        "path resumes with chunk attempt counts and worker history intact",
    )
    parser.add_argument(
        "--worker",
        metavar="URL",
        default=None,
        help="attach to a coordinator as a chunk worker; exits non-zero "
        "when the coordinator is unreachable",
    )
    parser.add_argument(
        "--submit",
        metavar="URL",
        default=None,
        help="submit --spec to a coordinator, wait for completion and "
        "print the tables (see --no-wait); exits non-zero when the "
        "coordinator is unreachable",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="with --submit: print the campaign id and return immediately",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --worker: exit once every known campaign has been "
        "complete for this long (default: keep serving forever)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="record spans for every campaign stage and write them as "
        "Chrome trace-event JSON (open in Perfetto or about://tracing); "
        "with --submit the workers' span buffers are merged in",
    )
    arguments = parser.parse_args(argv)

    # Chaos harness hook: a REPRO_FAULT_PLAN env var installs the fault
    # plan in this process (coordinator, worker and submitter alike), so a
    # whole multi-process deployment runs under one pinned plan.
    from repro import faults

    faults.configure_from_env()

    tracer = None
    if arguments.trace is not None:
        from repro.common.config import ObsConfig
        from repro.obs import configure

        tracer = configure(ObsConfig().with_trace_path(str(arguments.trace)))
    try:
        return _dispatch(arguments)
    finally:
        if tracer is not None and tracer.n_spans:
            tracer.write_chrome_trace(
                arguments.trace, metadata={"argv": list(argv or sys.argv[1:])}
            )
            print(f"trace: {tracer.n_spans} span(s) written to {arguments.trace}")


def _dispatch(arguments: argparse.Namespace) -> int:
    cache_dir = arguments.cache_dir or Path(DEFAULT_CACHE_DIR)

    service_modes = sum(
        1 for chosen in (arguments.serve, arguments.worker, arguments.submit)
        if chosen
    )
    if service_modes > 1:
        raise SystemExit("--serve, --worker and --submit are mutually exclusive")
    if arguments.serve:
        return serve(arguments, cache_dir)
    if arguments.worker is not None:
        return work(arguments)
    if arguments.submit is not None:
        return submit(arguments)

    if arguments.clear_cache:
        removed = ResultCache(cache_dir).clear()
        print(f"removed {removed} cache entries from {cache_dir}")
        return 0

    if arguments.cache_prune:
        if arguments.cache_max_bytes is None and arguments.cache_max_age is None:
            raise SystemExit(
                "--cache-prune needs --cache-max-bytes and/or --cache-max-age"
            )
        try:
            stats = ResultCache(cache_dir).prune(
                max_bytes=arguments.cache_max_bytes,
                max_age_seconds=arguments.cache_max_age,
            )
        except ConfigurationError as error:
            raise SystemExit(f"invalid cache policy: {error}")
        print(
            f"pruned {stats.n_removed} entries ({stats.bytes_removed} bytes) "
            f"from {cache_dir}; "
            f"{stats.n_kept} entries ({stats.bytes_kept} bytes) kept"
        )
        return 0

    if arguments.respond and arguments.spec is None:
        raise SystemExit(
            "--respond needs --spec FILE with an enabled [response] section"
        )

    if arguments.spec is not None:
        return run_spec(arguments)

    try:
        config = build_config(arguments)
    except ConfigurationError as error:
        raise SystemExit(f"invalid configuration: {error}")
    scenarios = select_scenarios(arguments.scenarios)
    quiet = arguments.quiet
    if not quiet:
        print(
            f"campaign: {config.n_calibration_runs} calibration runs, "
            f"{config.n_runs_per_scenario} runs per scenario, "
            f"{config.simulation.duration_hours:g} h per run"
        )
        print(
            f"engine: backend={config.parallel.backend} "
            f"workers={config.parallel.resolved_workers} "
            f"cache={'off' if not config.parallel.caching else config.parallel.cache_dir}"
        )

    evaluation = Evaluation(config)
    if not quiet:
        print("\ncalibrating...")
    # The streaming path drops per-run calibration results once the
    # concatenated matrices are built, keeping peak memory O(chunk).
    evaluation.calibrate(keep_results=not arguments.analyze)
    stats = evaluation.engine.last_stats
    if not quiet:
        print(
            f"  {stats.n_simulated} simulated, {stats.n_cache_hits} cached, "
            f"{stats.wall_seconds:.1f} s"
        )

    on_run = make_run_printer(arguments.progress)
    mode = (
        " (live monitoring, early stop)" if arguments.live
        else " (streaming sharded analysis)" if arguments.analyze
        else ""
    )
    if not quiet:
        print(f"evaluating scenarios{mode}...")
    # --chunk-size already sits in config.parallel, which the streaming
    # path reads; the eager path runs the whole sweep as one chunk.
    evaluate = (
        evaluation.evaluate_all_streaming if arguments.analyze
        else evaluation.evaluate_all
    )
    results = evaluate(
        scenarios,
        early_stop=EarlyStopPolicy() if arguments.live else None,
        on_run=on_run,
    )
    pipeline = evaluation.last_pipeline
    arl_rows = pipeline.arl_table(results)
    classification_rows = pipeline.classification_table(results)
    simulation = pipeline.simulation_stats
    analysis = pipeline.analysis_stats
    if not quiet:
        print(
            f"  {simulation.n_simulated} simulated, {simulation.n_cache_hits} cached, "
            f"{simulation.wall_seconds:.1f} s"
        )
        print(
            f"  analysis: {analysis.n_runs} runs scored "
            f"({analysis.backend}, {analysis.n_workers} workers)\n"
        )

    print_tables(
        {"arl": arl_rows, "classification": classification_rows}
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
