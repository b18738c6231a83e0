"""Self-tests of the benchmark: its declaration, its tracer, every workload.

    python3 -m pytest perfbench -q

The workload tests run ``run.py`` end to end with ``--seconds 1`` in both
trace modes, so they take a few minutes.
"""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------
def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_follow_the_grammar():
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    names += [entry["name"] for entry in BENCHMARK["end_to_end"]]
    names += [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry


def test_setup_time_has_the_largest_bound():
    bounds = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in bounds.values())


def test_declared_workloads_are_the_implemented_ones():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == sorted(WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    declared = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert set(metrics.LAYER_EFFECTS) == declared
    known = declared | {entry["name"] for entry in BENCHMARK["end_to_end"]}
    for name, effects in metrics.LAYER_EFFECTS.items():
        assert effects, name
        for target, workloads in effects:
            assert target in known, (name, target)
            assert set(workloads) <= set(WORKLOADS), (name, workloads)


def test_layer_metrics_cover_the_declared_layer_metrics():
    measured = set(metrics.layer_metrics({}, 1))
    added_by_run = {
        "gateway_p50_ms", "gateway_p99_ms", "gateway_sustained_sps",
        "gateway_send_lag_p99_ms", "failed_frac", "trace_overhead_frac",
    }
    assert measured | added_by_run == {entry["name"] for entry in BENCHMARK["per_layer"]}


def test_every_layer_target_exists():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == sum(len(t) for t in tracing.LAYERS.values())
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
def _fake_layers():
    module = types.SimpleNamespace()

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return module.leaf(seconds) + module.leaf(seconds)

    module.leaf, module.outer = leaf, outer
    sys.modules["_perfbench_fake"] = module
    return module, {
        "outer": (("_perfbench_fake", "outer", None),),
        "leaf": (("_perfbench_fake", "leaf", None),),
    }


def test_self_time_is_span_minus_covered_child_time():
    module, layers = _fake_layers()
    originals = (module.outer, module.leaf)
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        assert module.outer is not originals[0]
        module.outer(0.02)
    finally:
        tracer.uninstall()
    assert (module.outer, module.leaf) == originals
    snapshot = tracer.snapshot()
    assert snapshot["calls"] == {"outer": 1, "leaf": 2}
    total, own = snapshot["total"], snapshot["self_time"]
    assert own["leaf"] == pytest.approx(total["leaf"])
    assert own["outer"] == pytest.approx(total["outer"] - total["leaf"])
    assert own["outer"] == pytest.approx(0.02, abs=0.015)


def test_spans_of_threads_do_not_nest_into_each_other(tmp_path):
    module, layers = _fake_layers()
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        threads = [threading.Thread(target=module.leaf, args=(0.02,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        module.outer(0.01)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        tracer.uninstall()
    snapshot = tracer.snapshot()
    assert snapshot["calls"]["leaf"] == 4
    assert snapshot["self_time"]["outer"] == pytest.approx(0.01, abs=0.015)
    path = tmp_path / "trace.json.gz"
    tracer.write_chrome_trace(path)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        assert len(json.load(handle)["traceEvents"]) == 5
    assert tracer.n_spans == 5


def test_high_percentile_needs_ten_samples_beyond():
    assert metrics.high_percentile(list(range(19))) is None
    assert metrics.high_percentile(list(range(20)))[0] == 50
    assert metrics.high_percentile(list(range(1000)))[0] == 99
    assert metrics.high_percentile(list(range(1000)))[1] == pytest.approx(989.01)


def test_scaling_maps_the_nominal_reference_time_to_itself():
    assert reference.reference_seconds() > 0.0
    assert reference.scale(2.0, reference.NOMINAL_SECONDS) == pytest.approx(2.0)
    # A host twice as slow doubles both the pass and the routine.
    assert reference.scale(4.0, 2 * reference.NOMINAL_SECONDS) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Every workload, end to end
# ----------------------------------------------------------------------
def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_short_run_emits_every_declared_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        for value in result["metrics"].values():
            assert value["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    completed = _run("campaign_cold", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
