"""Live early-stop campaign — the wall-clock case for ``repro.live``.

Runs the paper's five-scenario campaign twice on one calibrated evaluation:
once batch (every run simulates its whole horizon) and once live (anomalous
runs terminate a grace window after the online monitor confirms the
detection).  Asserts the detection verdicts — run lengths, ARL, detection
counts — are identical, and records the measured speedup.  The speedup is
always reported (``extra_info``); it becomes a hard >= 1.3x gate only when
``REPRO_BENCH_STRICT=1`` (the CI bench-smoke job).  Both campaigns run on
the serial backend: under a wide process pool the wall-clock of either path
degenerates to the one full-horizon normal run, which measures the pool,
not the early stop.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.common.config import EarlyStopPolicy, ParallelConfig
from repro.experiments.evaluation import Evaluation
from repro.experiments.registry import get_scenario
from repro.experiments.scenarios import normal_scenario, paper_scenarios

MIN_SPEEDUP = 1.3
GRACE_SAMPLES = 10


def five_paper_scenarios():
    """Normal operation plus the four anomalous paper scenarios."""
    return [normal_scenario(), *paper_scenarios()]


@pytest.mark.benchmark(group="live-campaign")
def test_live_early_stop_speedup(benchmark, bench_config):
    config = bench_config.with_parallel(ParallelConfig.serial())
    evaluation = Evaluation(config)
    evaluation.calibrate(keep_results=False)
    scenarios = five_paper_scenarios()

    started = time.perf_counter()
    batch = evaluation.evaluate_all(scenarios)
    batch_seconds = time.perf_counter() - started

    policy = EarlyStopPolicy(grace_samples=GRACE_SAMPLES)
    live = benchmark.pedantic(
        evaluation.evaluate_all,
        args=(scenarios,),
        kwargs={"early_stop": policy},
        rounds=1,
        iterations=1,
    )
    live_seconds = benchmark.stats.stats.mean

    # Identical detection verdicts: the early stop only skips simulation
    # that happens strictly after the confirming sample.
    for scenario in scenarios:
        name = scenario.name
        assert live[name].run_lengths == batch[name].run_lengths, name
        assert live[name].arl_hours == batch[name].arl_hours, name
        assert live[name].n_detected == batch[name].n_detected, name

    # The anomalous, detected runs really were truncated; normal runs never.
    truncated = sum(
        1
        for scenario in scenarios
        for run in live[scenario.name].results
        if run.stopped_early
    )
    assert truncated > 0
    assert all(not run.stopped_early for run in live["normal"].results)
    assert all(
        not run.stopped_early
        for run in batch[get_scenario("idv6").name].results
    )

    speedup = batch_seconds / live_seconds if live_seconds > 0 else 1.0
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 3)
    benchmark.extra_info["live_seconds"] = round(live_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["n_truncated_runs"] = truncated

    print()
    print("Live early-stop campaign (five paper scenarios, serial backend)")
    print(f"  batch {batch_seconds:7.2f} s")
    print(f"  live  {live_seconds:7.2f} s   speedup {speedup:.2f}x   "
          f"{truncated} runs truncated")

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        assert speedup >= MIN_SPEEDUP, (
            f"live early-stop campaign only {speedup:.2f}x faster than batch "
            f"(expected >= {MIN_SPEEDUP}x)"
        )
