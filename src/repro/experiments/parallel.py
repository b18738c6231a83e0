"""Parallel campaign engine with deterministic fan-out and result caching.

The paper's evaluation (Section V) is a large batch of independent closed-loop
simulations: a calibration campaign plus repeated runs of every anomalous
scenario.  :class:`CampaignEngine` executes such a batch over a
``ProcessPoolExecutor`` while guaranteeing that parallel and serial execution
produce **bitwise-identical** results:

* every run is fully described by an immutable :class:`RunSpec` whose seed is
  derived *before* dispatch, so no run depends on execution order or on
  shared random state;
* results are returned in spec order regardless of completion order.

On top of the executor sits an optional on-disk :class:`ResultCache` keyed by
(scenario, simulation config, seed, code version): re-running a campaign
after a config tweak only simulates the runs whose key actually changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro._version import __version__
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.scenarios import Scenario, normal_scenario
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.process.simulator import SimulationResult

__all__ = [
    "RunSpec",
    "CampaignStats",
    "PruneStats",
    "ResultCache",
    "CampaignEngine",
    "calibration_run_seed",
    "scenario_run_seed",
    "calibration_specs",
    "scenario_specs",
]

_LOG = get_logger("engine")


# ----------------------------------------------------------------------
# Deterministic per-run seed derivation
# ----------------------------------------------------------------------
def calibration_run_seed(root_seed: int, run_index: int) -> int:
    """Seed of the ``run_index``-th calibration run of a campaign."""
    return root_seed * 100_003 + run_index


def scenario_run_seed(root_seed: int, run_index: int) -> int:
    """Seed of the ``run_index``-th evaluation run of a scenario."""
    return root_seed * 7_919 + 1000 + run_index


# ----------------------------------------------------------------------
# Run specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """An immutable, self-contained description of one closed-loop run.

    A spec carries everything a worker process needs — scenario, simulation
    configuration (including the derived per-run seed), anomaly onset and
    safety switch — so runs can execute in any order, in any process, and
    still produce exactly the result a serial loop would have produced.
    """

    scenario: Scenario
    simulation: SimulationConfig
    anomaly_start_hour: float = 10.0
    enable_safety: bool = True
    #: Optional live early-stop policy: the run is monitored while it
    #: simulates and truncated once a detection is confirmed.  Executing
    #: such a spec needs a fitted analyzer installed on the engine
    #: (:meth:`CampaignEngine.set_live_analyzer`).
    early_stop: Optional[EarlyStopPolicy] = None
    #: Identity of the calibration behind the live models (see
    #: :func:`repro.live.campaign.live_context_token`); part of the cache
    #: key, because a truncated result depends on what the monitor was
    #: fitted on.
    live_token: str = ""

    def cache_token(self) -> Dict[str, object]:
        """The canonical content this run's cache key is derived from.

        The scenario enters through :meth:`Scenario.to_mapping` — its
        canonical serialized form — so a scenario loaded from a spec file
        and one built in code hash identically.  Live early-stop runs add a
        ``live`` entry (policy + calibration identity), so truncated results
        can never shadow — or be shadowed by — full-horizon results of the
        same run.
        """
        token: Dict[str, object] = {
            "code_version": __version__,
            "scenario": self.scenario.to_mapping(),
            "simulation": asdict(self.simulation),
            "anomaly_start_hour": float(self.anomaly_start_hour),
            "enable_safety": bool(self.enable_safety),
        }
        if self.early_stop is not None:
            token["live"] = {
                "early_stop": self.early_stop.to_mapping(),
                "context": self.live_token,
            }
        return token

    def cache_key(self) -> str:
        """A stable hex digest identifying this run's inputs and code version."""
        blob = json.dumps(self.cache_token(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def calibration_specs(
    config: ExperimentConfig, scenario: Optional[Scenario] = None
) -> List[RunSpec]:
    """Specs of the attack-free calibration campaign of a configuration."""
    base_scenario = scenario or normal_scenario()
    return [
        RunSpec(
            scenario=base_scenario,
            simulation=config.simulation.with_seed(
                calibration_run_seed(config.seed, run_index)
            ),
            anomaly_start_hour=config.anomaly_start_hour,
            enable_safety=True,
        )
        for run_index in range(config.n_calibration_runs)
    ]


def scenario_specs(
    config: ExperimentConfig,
    scenario: Scenario,
    n_runs: Optional[int] = None,
) -> List[RunSpec]:
    """Specs of the repeated evaluation runs of one scenario."""
    n_runs = n_runs if n_runs is not None else config.n_runs_per_scenario
    return [
        RunSpec(
            scenario=scenario,
            simulation=config.simulation.with_seed(
                scenario_run_seed(config.seed, run_index)
            ),
            anomaly_start_hour=config.anomaly_start_hour,
            enable_safety=True,
        )
        for run_index in range(n_runs)
    ]


# How long a ``.tmp.npz`` must sit untouched before prune treats it as the
# debris of a crashed writer rather than an in-flight store.
_TMP_GRACE_SECONDS = 3600.0


def _unlink_quietly(path: Path) -> bool:
    """Remove a file; report whether it is actually gone.

    A concurrent removal by another process counts as success (the file is
    gone either way); a permission or I/O error does not — the caller must
    not book the entry as evicted.
    """
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return True
    except OSError:
        return False


# The fitted dual-level analyzer live early-stop runs score against,
# installed once per worker by the pool initializer (or in-process on the
# serial path) so it is pickled per *worker*, not per task.
_LIVE_ANALYZER = None


def _install_live_analyzer(analyzer) -> None:
    """Pool initializer: pin the fitted live analyzer in this process."""
    global _LIVE_ANALYZER
    _LIVE_ANALYZER = analyzer


def _execute_spec(spec: RunSpec) -> SimulationResult:
    """Execute one spec (top-level so it is picklable by worker pools)."""
    from repro.experiments.runner import run_scenario

    live_analyzer = None
    if spec.early_stop is not None:
        live_analyzer = _LIVE_ANALYZER
        if live_analyzer is None:
            raise ConfigurationError(
                "the spec requests live early stopping but no fitted analyzer "
                "is installed; call CampaignEngine.set_live_analyzer first"
            )
    return run_scenario(
        spec.scenario,
        spec.simulation,
        anomaly_start_hour=spec.anomaly_start_hour,
        enable_safety=spec.enable_safety,
        early_stop=spec.early_stop,
        live_analyzer=live_analyzer,
    )


def _execute_specs_batch(
    specs: Sequence[RunSpec], batch_size: Optional[int]
) -> List[SimulationResult]:
    """Execute a group of specs through the vectorized lockstep backend.

    Top-level so worker pools can pickle it; each pool task steps one whole
    batch of runs in a single vectorized loop, which is what makes the
    batch backend's speedup multiplicative with the process fan-out.
    """
    from repro.batch import run_specs_batched

    live_analyzer = None
    if any(spec.early_stop is not None for spec in specs):
        live_analyzer = _LIVE_ANALYZER
        if live_analyzer is None:
            raise ConfigurationError(
                "the spec requests live early stopping but no fitted analyzer "
                "is installed; call CampaignEngine.set_live_analyzer first"
            )
    with obs_span("engine.batch", n_runs=len(specs)):
        results = run_specs_batched(
            specs, batch_size=batch_size, live_analyzer=live_analyzer
        )
    _LOG.debug(
        "batch executed",
        extra={"n_runs": len(specs), "batch_size": batch_size},
    )
    return results


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
@dataclass
class PruneStats:
    """What a :meth:`ResultCache.prune` pass removed and what remains."""

    n_removed: int = 0
    bytes_removed: int = 0
    n_kept: int = 0
    bytes_kept: int = 0


class ResultCache:
    """A directory of ``<cache_key>.npz`` files, one per completed run.

    Entries are written atomically (tmp file + rename) so a crashed or
    interrupted campaign never leaves a truncated entry behind; unreadable
    entries are treated as misses and overwritten.  Eviction is either
    manual — :meth:`clear` drops everything, and bumping the package version
    invalidates every old key (the key embeds the code version) — or policy
    driven: :meth:`prune` applies size and age caps, evicting the oldest
    entries first.  :class:`CampaignEngine` calls :meth:`prune`
    automatically after each campaign when its
    :class:`~repro.common.config.ParallelConfig` carries
    ``cache_max_bytes`` / ``cache_max_age``.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, spec: RunSpec) -> Path:
        """The cache file a spec maps to (whether or not it exists)."""
        return self.directory / f"{spec.cache_key()}.npz"

    def load(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Return the cached result of a spec, or ``None`` on a miss."""
        from repro.datasets.io import load_result_npz

        path = self.path_for(spec)
        if not path.is_file():
            return None
        try:
            return load_result_npz(path)
        except Exception:
            return None

    def peek(self, spec: RunSpec) -> Optional[Path]:
        """The spec's entry path if present and structurally sound, else ``None``.

        Reads only the small JSON members
        (:func:`~repro.datasets.io.peek_result_npz`): a corrupt or truncated
        entry is a miss, as in :meth:`load`, without loading the arrays.
        """
        from repro.datasets.io import peek_result_npz

        path = self.path_for(spec)
        if not path.is_file():
            return None
        try:
            peek_result_npz(path)
        except Exception:
            return None
        return path

    def store(self, spec: RunSpec, result: SimulationResult) -> Path:
        """Persist the result of a spec and return its cache path."""
        from repro.datasets.io import save_result_npz

        path = self.path_for(spec)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Unique per-writer tmp name: concurrent campaigns sharing a cache
        # directory must never interleave writes into the same file.  The
        # ``.npz`` suffix is required (numpy appends it otherwise); tmp files
        # are told apart by the ``.tmp.npz`` tail.
        handle, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp.npz")
        os.close(handle)
        save_result_npz(result, tmp_name)
        os.replace(tmp_name, path)
        return path

    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return [
            entry
            for entry in self.directory.glob("*.npz")
            if not entry.name.endswith(".tmp.npz")
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Total size of all cache entries, in bytes."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneStats:
        """Evict entries until the cache satisfies the given caps.

        The age cap removes every entry whose modification time is older
        than ``now - max_age_seconds``; the size cap then removes the
        oldest remaining entries until the total size fits ``max_bytes``.
        Either cap may be ``None`` (policy disabled).  ``now`` is
        overridable for tests.  Entries that vanish concurrently are
        skipped, so parallel campaigns sharing a cache cannot trip a prune.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0 or None")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ConfigurationError("max_age_seconds must be >= 0 or None")
        now = time.time() if now is None else float(now)
        stamped: List[tuple] = []
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, entry))
        stamped.sort(key=lambda item: item[0])  # oldest first

        stats = PruneStats()
        keep: List[tuple] = []
        for mtime, size, entry in stamped:
            expired = max_age_seconds is not None and now - mtime > max_age_seconds
            if expired and _unlink_quietly(entry):
                stats.n_removed += 1
                stats.bytes_removed += size
            else:
                # Still on disk (not expired, or the unlink failed): it
                # keeps counting toward the size cap below.
                keep.append((mtime, size, entry))

        if max_bytes is not None:
            remaining = sum(size for _, size, _ in keep)
            survivors = []
            for mtime, size, entry in keep:  # oldest evicted first
                if remaining > max_bytes and _unlink_quietly(entry):
                    stats.n_removed += 1
                    stats.bytes_removed += size
                    remaining -= size
                else:
                    survivors.append((mtime, size, entry))
            keep = survivors

        stats.n_kept = len(keep)
        stats.bytes_kept = sum(size for _, size, _ in keep)

        # Stray tmp files from a crashed writer are not entries, but they do
        # occupy disk; sweep the ones old enough that no live writer can
        # still hold them (a store takes seconds, the grace period is an
        # hour).
        if self.directory.is_dir():
            for leftover in self.directory.glob("*.tmp.npz"):
                try:
                    age = now - leftover.stat().st_mtime
                except OSError:
                    continue
                if age > _TMP_GRACE_SECONDS:
                    _unlink_quietly(leftover)
        return stats

    def clear(self) -> int:
        """Delete every cache entry (and stray tmp files); count the entries."""
        entries = self._entries()
        for entry in entries:
            entry.unlink()
        if self.directory.is_dir():
            for leftover in self.directory.glob("*.tmp.npz"):
                leftover.unlink()
        return len(entries)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class CampaignStats:
    """What the engine actually did for the last batch it executed."""

    n_runs: int = 0
    n_cache_hits: int = 0
    n_simulated: int = 0
    n_workers: int = 1
    backend: str = "serial"
    wall_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of runs served from the cache."""
        if self.n_runs == 0:
            return 0.0
        return self.n_cache_hits / self.n_runs

    def absorb(self, other: "CampaignStats") -> "CampaignStats":
        """Fold another batch's stats into this one (multi-batch campaigns)."""
        self.n_runs += other.n_runs
        self.n_cache_hits += other.n_cache_hits
        self.n_simulated += other.n_simulated
        self.n_workers = max(self.n_workers, other.n_workers)
        if other.backend in ("process", "batch"):
            self.backend = other.backend
        self.wall_seconds += other.wall_seconds
        return self


class CampaignEngine:
    """Executes batches of :class:`RunSpec` — parallel, cached, deterministic.

    Parameters
    ----------
    config:
        Execution plan (worker count, backend, cache directory).  The
        default fans out over all CPUs with no cache.

    Notes
    -----
    Results are bitwise-identical across backends and worker counts because
    every run is seeded in its spec and returned in spec order.  The pool is
    only spun up when more than one run actually needs simulating.
    """

    def __init__(self, config: Optional[ParallelConfig] = None):
        self.config = config or ParallelConfig()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir) if self.config.caching else None
        )
        self.last_stats = CampaignStats()
        self._live_analyzer = None

    def set_live_analyzer(self, analyzer) -> None:
        """Install the fitted analyzer live early-stop specs score against.

        The analyzer is shipped once per worker process when the next pool
        spins up (and installed in-process for the serial path).  Specs
        without an :attr:`RunSpec.early_stop` policy ignore it entirely.
        """
        self._live_analyzer = analyzer

    def run(
        self, specs: Sequence[RunSpec], prune: bool = True
    ) -> List[SimulationResult]:
        """Execute every spec and return results in spec order.

        One batch, one pool: equivalent to draining :meth:`iter_run` with a
        single campaign-sized chunk.  ``prune=False`` defers the configured
        cache eviction policy to the caller.
        """
        specs = list(specs)
        return list(
            self.iter_run(specs, chunk_size=max(1, len(specs)), prune=prune)
        )

    def iter_run(
        self,
        specs: Sequence[RunSpec],
        chunk_size: Optional[int] = None,
        prune: bool = True,
        load_hits: bool = True,
    ) -> Iterator[Union[SimulationResult, Path]]:
        """Execute specs in chunks, yielding results in spec order.

        The streaming counterpart of :meth:`run`: at most ``chunk_size``
        results (default
        :attr:`ParallelConfig.resolved_simulation_chunk_size`) are alive at
        once, so peak memory is O(chunk) instead of O(campaign).  Cached
        entries are resolved lazily, chunk by chunk; pending runs of a
        chunk fan out over a worker pool that persists across chunks, and
        results are cached as they complete, so an interrupted campaign
        resumes from the runs that already finished.  Results are
        bitwise-identical to :meth:`run` for the same specs.

        ``load_hits=False`` yields a cache hit as the path of its entry,
        checked with :meth:`ResultCache.peek` instead of loaded, so a
        consumer that scores in other processes never holds its arrays.
        Such a consumer should pass ``prune=False`` too and prune once the
        paths are used: eviction must not delete entries still in flight.

        :attr:`last_stats` covers the chunks actually consumed and is
        finalized when the generator is exhausted or closed.
        """
        specs = list(specs)
        size = (
            int(chunk_size)
            if chunk_size is not None
            else self.config.resolved_simulation_chunk_size
        )
        if size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        stats = CampaignStats(backend="serial", n_workers=1)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            for offset in range(0, len(specs), size):
                # Time only this generator's own work (cache loads and
                # simulation), not whatever the consumer does between yields.
                chunk_started = time.perf_counter()
                chunk = specs[offset : offset + size]
                chunk_index = offset // size
                with obs_span(
                    "engine.chunk", chunk=chunk_index, n_runs=len(chunk)
                ) as chunk_span:
                    results: List[Union[SimulationResult, Path, None]]
                    results = [None] * len(chunk)
                    pending: List[int] = []
                    with obs_span("engine.cache_load", chunk=chunk_index):
                        for index, spec in enumerate(chunk):
                            cached = None
                            if self.cache is not None:
                                cached = (
                                    self.cache.load(spec)
                                    if load_hits
                                    else self.cache.peek(spec)
                                )
                            if cached is not None:
                                results[index] = cached
                            else:
                                pending.append(index)
                    stats.n_runs += len(chunk)
                    stats.n_cache_hits += len(chunk) - len(pending)

                    def book(index: int, result: SimulationResult) -> None:
                        """Record one simulated result (and cache it)."""
                        results[index] = result
                        if self.cache is not None:
                            self.cache.store(chunk[index], result)

                    n_workers = self.config.resolved_workers
                    batching = self.config.backend == "batch"
                    use_pool = (
                        self.config.backend in ("process", "batch")
                        and n_workers > 1
                        and len(pending) > 1
                    )
                    if batching and not use_pool:
                        # In-process vectorized execution: one lockstep loop
                        # steps the whole pending chunk.  Install the analyzer
                        # unconditionally (including None), as the serial path
                        # does, so no stale calibration can linger.
                        _install_live_analyzer(self._live_analyzer)
                        batch_results = _execute_specs_batch(
                            [chunk[index] for index in pending],
                            self.config.batch_size,
                        )
                        for index, result in zip(pending, batch_results):
                            book(index, result)
                        stats.backend = "batch"
                    elif use_pool:
                        if pool is None:
                            # A chunk can never hold more than ``size`` pending
                            # runs, so a larger pool would only idle.
                            initializer, initargs = None, ()
                            if self._live_analyzer is not None:
                                initializer = _install_live_analyzer
                                initargs = (self._live_analyzer,)
                            pool = ProcessPoolExecutor(
                                max_workers=min(n_workers, size),
                                initializer=initializer,
                                initargs=initargs,
                            )
                        if batching:
                            # Fan whole batches out: every task advances up to
                            # ``batch_size`` runs in one vectorized loop, so the
                            # batch speedup multiplies with the process fan-out.
                            group_size = self.config.resolved_batch_size
                            futures = {}
                            for start in range(0, len(pending), group_size):
                                group = pending[start : start + group_size]
                                future = pool.submit(
                                    _execute_specs_batch,
                                    [chunk[index] for index in group],
                                    self.config.batch_size,
                                )
                                futures[future] = group
                            for future in as_completed(futures):
                                group = futures[future]
                                for index, result in zip(group, future.result()):
                                    book(index, result)
                            stats.backend = "batch"
                            # Batching submits one task per batch, so that —
                            # not the pending-run count — bounds the workers
                            # actually busy.
                            stats.n_workers = max(
                                stats.n_workers, min(n_workers, len(futures))
                            )
                        else:
                            futures = {
                                pool.submit(_execute_spec, chunk[index]): index
                                for index in pending
                            }
                            for future in as_completed(futures):
                                book(futures[future], future.result())
                            stats.backend = "process"
                            stats.n_workers = max(
                                stats.n_workers, min(n_workers, len(pending))
                            )
                    else:
                        # Install unconditionally — including None: a previous
                        # campaign's analyzer must not linger in the module
                        # global, or an engine that was never given one would
                        # silently score live specs against a stale calibration
                        # instead of raising.
                        _install_live_analyzer(self._live_analyzer)
                        for index in pending:
                            book(index, _execute_spec(chunk[index]))
                    stats.n_simulated += len(pending)
                    stats.wall_seconds += time.perf_counter() - chunk_started
                    chunk_span.annotate(
                        backend=stats.backend,
                        n_cache_hits=len(chunk) - len(pending),
                        n_simulated=len(pending),
                    )
                    _LOG.info(
                        "chunk executed",
                        extra={
                            "chunk": chunk_index,
                            "n_runs": len(chunk),
                            "n_cache_hits": len(chunk) - len(pending),
                            "n_simulated": len(pending),
                            "backend": stats.backend,
                        },
                    )
                yield from results  # type: ignore[misc]
        finally:
            if pool is not None:
                pool.shutdown()
            self.last_stats = stats
            if prune:
                self.prune_cache()

    def prune_cache(self) -> Optional[PruneStats]:
        """Apply the configured cache eviction policy, if any."""
        if self.cache is None or not self.config.has_eviction_policy:
            return None
        return self.cache.prune(
            max_bytes=self.config.cache_max_bytes,
            max_age_seconds=self.config.cache_max_age,
        )
