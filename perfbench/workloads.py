"""The four benchmark workloads, each driven through the public API.

Every workload has the same life cycle, run by ``run.py``:

1. :meth:`Workload.setup` brings it from a clean state to ready; the
   benchmark times process start to ready in three processes and reports
   the median as ``setup_s``.
2. :meth:`Workload.run_pass` runs and times one pass (one campaign, or one
   replay of the recorded campaign through the gateway).
3. :meth:`Workload.finish` runs the output checks that need every pass
   (and, in a traced run of ``gateway_soak``, the open-loop ladder).

Campaign workloads run in-process with ``n_workers = 1``.  The gateway
workload runs the server in its own process (``gateway_server.py``) and
drives it from at most ``nproc`` threads and ingest connections.
"""

from __future__ import annotations

import json
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import benchspec

__all__ = ["WORKLOADS", "Workload"]


def _canonical(mapping) -> str:
    return json.dumps(mapping, sort_keys=True)


class Workload:
    """Shared bookkeeping: operations attempted and failed, with reasons."""

    name = ""
    #: Passes a run makes at least, whatever ``--seconds`` says.
    min_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # Life cycle -------------------------------------------------------
    def warm_up(self) -> None:
        """Pay the once-per-process costs (lazy imports, first calls).

        Runs a tiny campaign and a tiny response campaign without a cache,
        so the set-ups and passes that follow all run warm.
        """
        from repro.api.session import Session
        from repro.api.spec import CampaignSpec

        mapping = benchspec.spec_mapping("response", 0)
        mapping["experiment"].update(n_calibration_runs=1, n_runs_per_scenario=1)
        mapping["experiment"]["simulation"].update(duration_hours=4.0, samples_per_hour=10)
        mapping["scenarios"] = [{"use": "normal"}, {"use": "attack_xmv3"}]
        spec = CampaignSpec.from_mapping(mapping)
        Session(spec).run_response()
        Session(spec).run()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> float:
        """Run one pass and return the seconds of its timed part."""
        raise NotImplementedError

    def check_pass(self) -> None:
        """Check the pass just run, with tracing off (default: nothing)."""

    def set_server_trace(self, on: bool) -> None:
        """Switch tracing in a server process (default: there is none)."""

    def finish(self, trace: bool) -> None:
        """Output checks over every pass (default: none beyond per pass)."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process under test, in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def server_snapshot(self) -> Optional[Dict[str, Dict[str, float]]]:
        """The traced aggregates of a server process, if the workload has one."""
        return None

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself (traced runs)."""
        return {
            "gateway_p50_ms": 0.0,
            "gateway_p99_ms": 0.0,
            "gateway_sustained_sps": 0.0,
            "gateway_send_lag_p99_ms": 0.0,
        }

    def shape_problems(self, layers: Dict[str, float]) -> List[str]:
        """Violations of what the traced counts must show on this workload."""
        return []

    def close(self) -> None:
        """Stop every process the workload started."""


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
class CampaignCold(Workload):
    """The paper campaign on the batch backend from an empty result cache."""

    name = "campaign_cold"

    def setup(self) -> None:
        self.cache = self.fresh_dir("cache")
        self.spec = benchspec.load("campaign", self.seed, self.cache)

    def run_pass(self) -> float:
        from repro.api.session import Session

        shutil.rmtree(self.cache, ignore_errors=True)
        self.attempted += 1
        started = time.perf_counter()
        self.tables = Session(self.spec).run().tables()
        return time.perf_counter() - started

    def check_pass(self) -> None:
        from repro.api.session import Session

        # Second path: re-analyse the cache the pass just wrote.
        if Session(self.spec).run().tables() != self.tables:
            self.fail("cold tables differ from a re-analysis of the cache they wrote")

    def shape_problems(self, layers):
        problems = []
        if layers["engine.cache_hit_ratio"] != 0.0:
            problems.append(
                f"campaign_cold hit the cache (hit ratio {layers['engine.cache_hit_ratio']})"
            )
        if layers["te.step_batch_calls"] <= 0:
            problems.append("campaign_cold made no batch-kernel calls")
        return problems


class CampaignWarm(Workload):
    """The same campaign re-analysed over a cache that set-up filled."""

    name = "campaign_warm"

    #: Detection settings an analyst's sensitivity sweep draws from.
    CONFIDENCE = (0.95, 0.99)
    CONSECUTIVE = (2, 3, 4, 5)

    def setup(self) -> None:
        from repro.api.session import Session

        self.cache = self.fresh_dir("cache")
        self.spec = benchspec.load("campaign", self.seed, self.cache)
        self.fill_tables = Session(self.spec).run().tables()
        self.draws = random.Random(benchspec.root_seed(self.seed))

    def run_pass(self) -> float:
        from repro.api.session import Session

        mspc = {
            "detection_confidence": self.draws.choice(self.CONFIDENCE),
            "consecutive_violations": self.draws.choice(self.CONSECUTIVE),
        }
        spec = benchspec.load("campaign", self.seed, self.cache, mspc=mspc)
        self.attempted += 1
        started = time.perf_counter()
        Session(spec).run().tables()
        return time.perf_counter() - started

    def finish(self, trace: bool) -> None:
        from repro.api.session import Session

        self.attempted += 1
        if Session(self.spec).run().tables() != self.fill_tables:
            self.fail("warm tables at the spec's settings differ from the fill run's")

    def shape_problems(self, layers):
        problems = []
        if layers["te.step_batch_calls"] != 0:
            problems.append("campaign_warm ran the batch kernel")
        if layers["engine.cache_hit_ratio"] != 1.0:
            problems.append(
                f"campaign_warm missed the cache (hit ratio {layers['engine.cache_hit_ratio']})"
            )
        return problems


class ResponseLoop(Workload):
    """The campaign with the closed-loop response policy, serial kernel."""

    name = "response_loop"
    min_passes = 2

    def setup(self) -> None:
        self.spec = benchspec.load("response", self.seed)
        self.tables: List[Any] = []

    def run_pass(self) -> float:
        from repro.api.session import Session

        self.attempted += 1
        started = time.perf_counter()
        tables = Session(self.spec).run_response().tables()
        elapsed = time.perf_counter() - started
        self.tables.append(tables)
        return elapsed

    def finish(self, trace: bool) -> None:
        for index, tables in enumerate(self.tables[1:], start=2):
            if tables != self.tables[0]:
                self.fail(f"response tables of pass {index} differ from pass 1")

    def shape_problems(self, layers):
        if layers["te.step_calls"] <= 0:
            return ["response_loop made no serial-kernel calls"]
        return []


# ----------------------------------------------------------------------
# Gateway workload
# ----------------------------------------------------------------------
class _ServerProcess:
    """``gateway_server.py`` in its own process, driven over its stdin."""

    def __init__(self, seed: int, cache_dir: Path, journal: Path):
        launcher = Path(__file__).resolve().parent / "gateway_server.py"
        self.process = subprocess.Popen(
            [sys.executable, str(launcher), "--seed", str(seed),
             "--cache-dir", str(cache_dir), "--journal", str(journal)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url: Optional[str] = None

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the server printed its ready line."""
        self.url = self.reply(timeout)["url"]

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def reply(self, timeout: float = 60.0) -> Dict[str, Any]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError("gateway server did not answer in time") from None
        if line is None:
            raise RuntimeError(
                f"gateway server exited with code {self.process.wait()}"
            )
        return json.loads(line)

    def command(self, text: str) -> Dict[str, Any]:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.reply()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
                self.process.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class _Replay:
    """One recorded run: its samples and the onset the stream declares."""

    def __init__(self, key: str, result, onset: Optional[float]):
        self.key = key
        self.controller = result.controller_data.values
        self.process = result.process_data.values
        self.times = [float(t) for t in result.controller_data.timestamps]
        self.onset = onset

    def __len__(self) -> int:
        return len(self.times)


class GatewaySoak(Workload):
    """Recorded runs replayed over sockets into a gateway in its own process."""

    name = "gateway_soak"
    #: Recorded runs per scenario; half the connections replay each scenario.
    RUNS_PER_SCENARIO = 2
    #: Open-loop ladder of offered rates (samples/s over all connections).
    LADDER = (200, 400, 800, 1200, 1600)
    #: Seconds spent at each ladder rate; the lowest rate gets more probes.
    STEP_SECONDS = (5.0, 2.0, 2.0, 2.0, 2.0)
    #: Every k-th tick is a sync probe.
    PROBE_EVERY = 10
    LATENCY_LIMIT_MS = 100.0
    #: Untimed wait after a pass, a few flush intervals, so the server's
    #: last flushes and journal writes on the other core are over before the
    #: reference routine is timed (overlapping them, it read up to 1.5x slow).
    SETTLE_SECONDS = 0.2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.connections = min(2, os.cpu_count() or 1)
        self.server: Optional[_ServerProcess] = None
        self.reports: List[Tuple[str, int, str]] = []
        self.ladder: Dict[str, float] = {}
        self._pass = 0

    def setup(self) -> None:
        from repro.api.session import Session
        from repro.experiments.parallel import scenario_specs
        from repro.experiments.registry import get_scenario

        if self.server is not None:
            self.server.stop()
            self.server = None
        base = self.fresh_dir("gateway")
        cache = base / "cache"
        spec = benchspec.load("gateway", self.seed, cache)
        session = Session(spec)
        evaluation = session.evaluation()
        evaluation.calibrate(keep_results=False)
        self.analyzer = evaluation.analyzer
        # The server calibrates from the cache just filled; it starts on the
        # other core while this process records the runs to replay.
        self.server = _ServerProcess(self.seed, cache, base / "alarms.journal")
        config = spec.experiment
        replays: Dict[str, List[_Replay]] = {}
        for name in ("attack_xmv3", "normal"):
            scenario = get_scenario(name)
            specs = scenario_specs(config, scenario, self.RUNS_PER_SCENARIO)
            onset = config.anomaly_start_hour if scenario.is_anomalous else None
            replays[name] = [
                _Replay(f"{name}/{index}", result, onset)
                for index, result in enumerate(session.engine.run(specs))
            ]
        # Half the connections replay the attack (alarms, oMEDA snapshots,
        # journal appends), half replay normal operation.
        self.plan = [
            replays["attack_xmv3" if index % 2 == 0 else "normal"]
            for index in range(self.connections)
        ]
        self.replays = {replay.key: replay for runs in replays.values() for replay in runs}
        self.server.wait_ready()

    # Closed-loop replay pass ------------------------------------------
    def _replay_all(self, connection: int, runs: List[_Replay], errors: List[str]) -> None:
        from repro.gateway.client import StreamClient

        try:
            with StreamClient(self.server.url) as client:
                for replay in runs:
                    stream = f"p{self._pass}-c{connection}-{replay.key}"
                    client.open_stream(stream, anomaly_start_hour=replay.onset)
                    for index in range(len(replay)):
                        client.feed(
                            stream,
                            replay.controller[index],
                            replay.process[index],
                            replay.times[index],
                        )
                    client.sync(stream)
                    report = client.close_stream(stream)
                    self.reports.append((replay.key, len(replay), _canonical(report)))
        except Exception as error:  # noqa: BLE001 - counted as a failure
            errors.append(f"connection {connection}: {error!r}")

    def set_server_trace(self, on: bool) -> None:
        self.server.command("trace on" if on else "trace off")

    def run_pass(self) -> float:
        self._pass += 1
        errors: List[str] = []
        threads = [
            threading.Thread(target=self._replay_all, args=(index, runs, errors))
            for index, runs in enumerate(self.plan)
        ]
        self.attempted += sum(len(runs) for runs in self.plan)
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for error in errors:
            self.fail(error)
        time.sleep(self.SETTLE_SECONDS)
        return elapsed

    # Open-loop ladder ---------------------------------------------------
    def _ladder_sender(self, connection, runs, rate, seconds, probes, lags, errors):
        from repro.gateway.client import StreamClient

        interval = self.connections / float(rate)
        position, run_index, stream = 0, 0, None
        try:
            with StreamClient(self.server.url) as client:
                started = time.perf_counter()
                tick = 0
                while True:
                    due = started + tick * interval
                    if due - started >= seconds:
                        break
                    if stream is None:
                        replay = runs[run_index % len(runs)]
                        stream = f"l{rate}-c{connection}-{run_index}"
                        client.open_stream(stream, anomaly_start_hour=replay.onset)
                        position = 0
                    now = time.perf_counter()
                    if now < due:
                        time.sleep(due - now)
                    lags.append(time.perf_counter() - due)
                    client.feed(
                        stream,
                        replay.controller[position],
                        replay.process[position],
                        replay.times[position],
                    )
                    position += 1
                    tick += 1
                    if tick % self.PROBE_EVERY == 0:
                        try:
                            client.sync(stream)
                            probes.append(time.perf_counter() - due)
                        except Exception as error:  # noqa: BLE001
                            probes.append(float("inf"))
                            errors.append(f"probe failed: {error!r}")
                    if position == len(replay):
                        report = client.close_stream(stream)
                        self.reports.append((replay.key, position, _canonical(report)))
                        stream, run_index = None, run_index + 1
                if stream is not None:
                    report = client.close_stream(stream)
                    self.reports.append((replay.key, position, _canonical(report)))
        except Exception as error:  # noqa: BLE001 - counted as a failure
            errors.append(f"ladder connection {connection} at {rate}/s: {error!r}")

    def run_ladder(self) -> None:
        from metrics import high_percentile

        sustained = 0.0
        for rate, seconds in zip(self.LADDER, self.STEP_SECONDS):
            probes: List[float] = []
            lags: List[float] = []
            errors: List[str] = []
            threads = [
                threading.Thread(
                    target=self._ladder_sender,
                    args=(index, runs, rate, seconds, probes, lags, errors),
                )
                for index, runs in enumerate(self.plan)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.attempted += len(probes) + 1
            for error in errors:
                self.fail(error)
            # A failed probe is infinitely late, so it always misses the limit.
            latency_ms = [1000.0 * value for value in probes] or [float("inf")]
            lag_ms = [1000.0 * value for value in lags] or [float("inf")]
            tail = high_percentile(latency_ms)
            p_tail = tail[1] if tail else max(latency_ms)
            final_lag = max(lag_ms[-self.connections:])
            passed = (
                not errors
                and p_tail <= self.LATENCY_LIMIT_MS
                and final_lag <= self.LATENCY_LIMIT_MS
            )
            print(
                f"ladder {rate:>5}/s: {len(probes)} probes, "
                f"p50 {statistics.median(latency_ms):.2f} ms, "
                f"p{tail[0] if tail else 'max'} {p_tail:.2f} ms, "
                f"final lag {final_lag:.2f} ms -> {'ok' if passed else 'over limit'}"
            )
            if rate == self.LADDER[0]:
                lag_tail = high_percentile(lag_ms)
                self.ladder = {
                    "gateway_p50_ms": statistics.median(latency_ms),
                    "gateway_p99_ms": p_tail,
                    "gateway_send_lag_p99_ms": lag_tail[1] if lag_tail else max(lag_ms),
                }
            if passed:
                sustained = float(rate)
            else:
                break
        self.ladder["gateway_sustained_sps"] = sustained
        # At paper settings (2000 samples/h) a plant sends one sample per 1.8 s.
        print(f"sustained {sustained:.0f} samples/s, about {sustained * 1.8:.0f} "
              "plants at paper settings")

    # Checks -------------------------------------------------------------
    def _reference(self, key: str, n_samples: int) -> str:
        from repro.live.monitor import LiveMonitor

        replay = self.replays[key]
        monitor = LiveMonitor(self.analyzer, anomaly_start_hour=replay.onset)
        for index in range(n_samples):
            monitor.observe(replay.controller[index], replay.process[index], replay.times[index])
        return _canonical(monitor.report().to_mapping())

    def finish(self, trace: bool) -> None:
        if trace:
            self.run_ladder()
        references: Dict[Tuple[str, int], str] = {}
        for key, n_samples, report in self.reports:
            if (key, n_samples) not in references:
                references[(key, n_samples)] = self._reference(key, n_samples)
            if report != references[(key, n_samples)]:
                self.fail(f"gateway report of {key} ({n_samples} samples) differs "
                          "from an in-process LiveMonitor")
        stats = self.server.command("stats")
        self.rejected = stats["samples_rejected"]
        if self.rejected:
            self.fail(f"gateway rejected {self.rejected} samples")
        self.server_rss_mb = stats["vm_hwm_mb"]
        self._server_snapshot = stats["tracer"]

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def server_snapshot(self):
        return self._server_snapshot

    def extra_layer_metrics(self) -> Dict[str, float]:
        calls = self._server_snapshot["calls"].get("mspc.statistics", 0)
        rows = self._server_snapshot["counts"].get("mspc.statistics.rows", 0.0)
        return {
            **self.ladder,
            "gateway.rows_per_scoring_batch": rows / calls if calls else 0.0,
            "gateway.samples_rejected": float(self.rejected),
        }

    def shape_problems(self, layers):
        from metrics import BATCH_KERNEL, SERIAL_KERNEL

        calls = self._server_snapshot.get("calls", {})
        kernel = [
            layer for layer in BATCH_KERNEL + SERIAL_KERNEL + ("batch.run_specs",)
            if layer not in ("live.observe", "response.on_sample") and calls.get(layer)
        ]
        if kernel:
            return [f"gateway server made kernel calls: {', '.join(kernel)}"]
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignCold, CampaignWarm, GatewaySoak, ResponseLoop)
}
