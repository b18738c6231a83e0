"""Per-layer spans recorded around calls into the program's public functions.

The benchmark does not instrument ``src/``: :class:`Tracer` wraps the
public functions and methods listed in :data:`LAYERS` for the duration of
a traced pass and restores the originals afterwards.  Every wrapped call
is one span (name, start, end, thread).  A span's *self time* is its
duration minus the time its child spans on the same thread cover, so the
self times of all layers add up to at most the wall time of the pass.

Spans are kept in memory and written out once, at the end of the run
(:meth:`Tracer.write_chrome_trace`), in the Chrome ``trace_event`` format
that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["LAYERS", "Tracer", "merge_snapshots"]


def _rows_of_second_argument(tracer, args, kwargs, result) -> None:
    tracer.counts["te.step_batch.rows"] += np.shape(args[1])[0]


def _rows_of_statistics(tracer, args, kwargs, result) -> None:
    tracer.counts["mspc.statistics.rows"] += np.size(result[0])


def _rows_of_monitor(tracer, args, kwargs, result) -> None:
    tracer.counts["mspc.statistics.rows"] += np.size(result.d_chart.values)


def _bytes_of_stored_file(tracer, args, kwargs, result) -> None:
    tracer.counts["engine.cache_store.bytes"] += os.path.getsize(result)


#: Layer name -> the public callables whose calls are that layer's spans,
#: as ``(module, "Owner.attribute" or "function", optional counter hook)``.
#: A hook is called after each call as ``hook(tracer, args, kwargs,
#: result)`` and adds to :attr:`Tracer.counts`.
LAYERS: Dict[str, Tuple[Tuple[str, str, Optional[Callable]], ...]] = {
    # Batch simulation kernel.
    "te.step_batch": (
        ("repro.te.batch", "BatchTEPlant.step_batch", _rows_of_second_argument),
    ),
    "te.measure_batch": (("repro.te.batch", "BatchTEPlant.measure", None),),
    "control.update_batch": (
        ("repro.control.batch", "BatchDecentralizedController.update", None),
    ),
    "network.transmit_batch": (
        ("repro.network.channel", "BatchChannel.transmit", None),
    ),
    "process.safety_batch": (
        ("repro.process.safety", "BatchSafetyMonitor.check", None),
    ),
    "process.disturbance": (
        ("repro.process.disturbances", "BatchDisturbanceView.at", None),
    ),
    "batch.run_specs": (("repro.batch.simulator", "BatchSimulator.run_specs", None),),
    # Serial simulation kernel and the per-sample riders.
    "te.step": (("repro.te.plant", "TEPlant.step", None),),
    "te.measure": (("repro.te.plant", "TEPlant.measure", None),),
    "control.update": (
        ("repro.control.te_controller", "TEDecentralizedController.update", None),
    ),
    "network.transmit": (("repro.network.channel", "Channel.transmit", None),),
    "process.safety": (("repro.process.safety", "SafetyMonitor.check", None),),
    "process.record": (("repro.process.recorder", "SimulationRecorder.record", None),),
    "process.simulate": (("repro.process.simulator", "ClosedLoopSimulator.run", None),),
    "live.observe": (("repro.live.monitor", "LiveMonitor.observe", None),),
    "response.on_sample": (("repro.response.runner", "ResponseRunner.on_sample", None),),
    "response.action": (("repro.response.runner", "apply_action", None),),
    # Result cache.
    "engine.cache_load": (("repro.datasets.io", "load_result_npz", None),),
    "engine.cache_store": (
        ("repro.experiments.parallel", "ResultCache.store", _bytes_of_stored_file),
    ),
    # Detection.
    "api.calibrate": (("repro.experiments.evaluation", "Evaluation.calibrate", None),),
    "api.evaluate": (
        ("repro.experiments.evaluation", "Evaluation.evaluate_all", None),
        ("repro.experiments.evaluation", "Evaluation.evaluate_all_streaming", None),
        ("repro.response.campaign", "evaluate_all_response", None),
    ),
    "mspc.fit": (("repro.mspc.model", "MSPCMonitor.fit", None),),
    # T2/SPE scoring: per sample or per (B, M) batch, and per whole run.
    "mspc.statistics": (
        ("repro.mspc.model", "MSPCMonitor.statistics", _rows_of_statistics),
        ("repro.mspc.model", "MSPCMonitor.monitor", _rows_of_monitor),
    ),
    "mspc.omeda": (("repro.mspc.model", "MSPCMonitor.diagnose", None),),
    "anomaly.analyze": (("repro.anomaly.diagnosis", "DualLevelAnalyzer.analyze", None),),
    # Gateway, server side.
    "gateway.feed": (("repro.gateway.pool", "MonitorPool.feed", None),),
    "gateway.flush": (
        ("repro.gateway.pool", "MonitorPool.flush", None),
        ("repro.gateway.pool", "MonitorPool.flush_stream", None),
    ),
    "journal.append": (("repro.common.journal", "Journal.append", None),),
    # Gateway, client side.
    "gateway.client_feed": (("repro.gateway.client", "StreamClient.feed", None),),
    "gateway.sync": (("repro.gateway.client", "StreamClient.sync", None),),
}

class Tracer:
    """Wraps the layer callables and aggregates their spans.

    :meth:`install` and :meth:`uninstall` bracket a traced pass; between
    passes the program runs its own, unwrapped code.  Aggregates
    (:attr:`calls`, :attr:`total`, :attr:`self_time`, :attr:`counts`)
    accumulate across every traced pass.
    """

    def __init__(self, layers=None) -> None:
        #: The layer table to wrap (:data:`LAYERS` unless a test passes its own).
        self.layers = LAYERS if layers is None else layers
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._names: List[str] = list(self.layers)
        self._name_index = {name: index for index, name in enumerate(self._names)}
        self._threads: Dict[int, int] = {}
        # Spans as flat columns: (name index, thread index) and (start, end).
        self._span_ids = array("q")
        self._span_times = array("d")
        self.origin = perf_counter()
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every layer callable by its spanning wrapper."""
        if self._patches:
            return
        for layer, targets in self.layers.items():
            for module_name, qualname, hook in targets:
                module = importlib.import_module(module_name)
                owner_path, _, attribute = qualname.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self._wrap(layer, original, hook))
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, function, hook):
        tracer = self
        name_index = self._name_index[layer]

        @functools.wraps(function)
        def spanned(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer._record(layer, name_index, start, end, duration - children[0])
            if hook is not None:
                with tracer._lock:
                    hook(tracer, args, kwargs, result)
            return result

        return spanned

    def _record(self, layer, name_index, start, end, self_seconds) -> None:
        thread = threading.get_ident()
        with self._lock:
            thread_index = self._threads.setdefault(thread, len(self._threads))
            self.calls[layer] += 1
            self.total[layer] += end - start
            self.self_time[layer] += self_seconds
            self._span_ids.append(name_index)
            self._span_ids.append(thread_index)
            self._span_times.append(start)
            self._span_times.append(end)

    # ------------------------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self._span_times) // 2

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """The aggregates as a JSON-safe mapping."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total": dict(self.total),
                "self_time": dict(self.self_time),
                "counts": dict(self.counts),
            }

    def write_chrome_trace(self, path, pid: int = 1) -> None:
        """Write every recorded span as a gzipped Chrome trace."""
        with self._lock:
            ids = np.frombuffer(self._span_ids, dtype=np.int64).reshape(-1, 2).copy()
            times = np.frombuffer(self._span_times, dtype=np.float64).reshape(-1, 2).copy()
        starts = (times[:, 0] - self.origin) * 1e6
        durations = (times[:, 1] - times[:, 0]) * 1e6
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[')
            for index in range(len(ids)):
                if index:
                    handle.write(",")
                handle.write(
                    '{"name":"%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f}'
                    % (
                        self._names[ids[index, 0]],
                        pid,
                        ids[index, 1],
                        starts[index],
                        durations[index],
                    )
                )
            handle.write("]}")


def merge_snapshots(*snapshots: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum several :meth:`Tracer.snapshot` mappings (e.g. client + server)."""
    merged: Dict[str, Dict[str, float]] = {
        "calls": defaultdict(float),
        "total": defaultdict(float),
        "self_time": defaultdict(float),
        "counts": defaultdict(float),
    }
    for snapshot in snapshots:
        for section, values in snapshot.items():
            for key, value in values.items():
                merged[section][key] += value
    return {section: dict(values) for section, values in merged.items()}
