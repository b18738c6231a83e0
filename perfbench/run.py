"""The repository benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/`` and ``BENCHMARK.json`` beside
``perfbench/``).  Workloads (``BENCHMARK.json`` says why each exists):

* ``campaign_cold`` — the five-scenario paper campaign on the batch backend
  from an empty result cache;
* ``campaign_warm`` — the same campaign re-analysed over a cache set-up filled;
* ``gateway_soak``  — recorded runs replayed over loopback sockets into a
  gateway running in its own process;
* ``response_loop`` — the campaign with closed-loop response on the serial
  kernel.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median, over this process and two fresh ones, of process start to ready:
imports, a warm-up campaign and the workload's set-up from a clean
state), ``campaign_s`` (the median wall clock of one pass: a campaign up
to its tables, or for ``gateway_soak`` the recorded runs streamed through
the gateway to their final reports) and ``peak_rss_mb``.  ``README.md``
has the details.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (see
``tracing.py`` and ``metrics.py``), prints each layer's share of the
traced wall time, and writes the spans under ``perfbench/out/``.  Every
run checks its workload's outputs; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``setup_s`` and ``campaign_s`` are scaled to a nominal host speed with the
reference routine of ``reference.py``, timed next to every pass and set-up;
the run prints them as measured too.

BLAS runs single-threaded (unless the environment says otherwise): the
campaigns run with ``n_workers = 1``, and a second BLAS thread on a
shared two-core machine measures the other tenants, not the program.
"""

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Processes whose set-up a run times (this one and fresh ones);
#: ``setup_s`` reports their median.
SETUP_PROCESSES = 3
#: Reference-routine timings after each pass, and after each set-up.
PASS_REFERENCES = 3
SETUP_REFERENCES = 15


def _load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_references(count: int) -> list:
    from reference import reference_seconds

    return [reference_seconds() for _ in range(count)]


def measure_setup_elsewhere(arguments) -> dict:
    """Process start to ready of a fresh run of this workload and seed,
    as measured and scaled."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", arguments.workload, "--seed", str(arguments.seed),
         "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, trace: bool, tracer):
    """Run passes for ``seconds`` (when tracing, alternating untraced and
    traced passes), each followed by reference timings; return the lists
    of untraced and traced pass times and of reference times."""
    untraced, traced, references = [], [], []
    budget = seconds
    started = time.perf_counter()
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        index += 1
        if tracing:
            tracer.install()
            workload.set_server_trace(True)
        try:
            elapsed = workload.run_pass()
        except Exception as error:  # noqa: BLE001 - counted, then reported
            workload.fail(f"pass {index} raised {error!r}")
            elapsed = None
        finally:
            if tracing:
                tracer.uninstall()
                workload.set_server_trace(False)
        if elapsed is not None:
            (traced if tracing else untraced).append(elapsed)
            try:
                workload.check_pass()
            except Exception as error:  # noqa: BLE001
                workload.fail(f"check of pass {index} raised {error!r}")
        references.extend(timed_references(PASS_REFERENCES))
        enough = len(untraced) >= workload.min_passes and (
            not trace or len(traced) >= workload.min_passes
        )
        if time.perf_counter() - started >= budget and (enough or index >= 50):
            return untraced, traced, references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, print the set-up time and exit (see measure_setup_elsewhere).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    benchmark = _load_benchmark()
    sys.path.insert(0, str(ROOT / "src"))

    import metrics  # noqa: E402 - needs numpy, like the program
    from reference import NOMINAL_SECONDS, scale  # noqa: E402
    from tracing import Tracer, merge_snapshots  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    if arguments.workload not in WORKLOADS:
        print(f"error: unknown workload {arguments.workload!r}; "
              f"choose from {', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2

    trace = bool(arguments.trace)
    workdir = HERE / ".work" / f"{arguments.workload}-{os.getpid()}"
    workload = WORKLOADS[arguments.workload](arguments.seed, workdir)
    tracer = Tracer() if trace else None
    try:
        workload.warm_up()
        workload.setup()
        setup_raw = time.perf_counter() - PROCESS_STARTED
        here = {
            "raw": setup_raw,
            "scaled": scale(setup_raw, statistics.median(timed_references(SETUP_REFERENCES))),
        }
        if arguments.setup_only:
            print(json.dumps(here))
            return 0
        setups = [here] + [
            measure_setup_elsewhere(arguments) for _ in range(SETUP_PROCESSES - 1)
        ]
        untraced, traced, references = measure(workload, arguments.seconds, trace, tracer)
        workload.finish(trace)
        peak_rss_mb = workload.peak_rss_mb()
        if not untraced or (trace and not traced):
            for problem in workload.problems:
                print(f"FAILED: {problem}")
            print("error: no pass completed", file=sys.stderr)
            return 1

        speed = statistics.median(references)
        print(f"reference routine after passes: median {speed * 1e3:.3f} ms over "
              f"{len(references)} timings (nominal {NOMINAL_SECONDS * 1e3:.3f} ms)")
        campaign_s = scale(statistics.median(untraced), speed)
        print(metrics.summarize("setup_s as measured", [v["raw"] for v in setups], "s"))
        print(metrics.summarize("setup_s scaled", [v["scaled"] for v in setups], "s"))
        print(metrics.summarize("campaign_s as measured (untraced passes)", untraced, "s"))
        print(f"campaign_s reported: {campaign_s:.6g} s")
        if trace:
            print(metrics.summarize("campaign_s as measured (traced passes)", traced, "s"))
            client = tracer.snapshot()
            server = workload.server_snapshot()
            layers = metrics.layer_metrics(
                merge_snapshots(client, server) if server else client, len(traced)
            )
            layers.update(workload.extra_layer_metrics())
            problems = workload.shape_problems(layers)
            workload.attempted += 1
            for problem in problems:
                workload.fail(f"workload shape: {problem}")
            layers["failed_frac"] = workload.failed / max(1, workload.attempted)
            layers["trace_overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1.0
            )
            wall = sum(traced)
            print(f"layer self time over {len(traced)} traced passes ({wall:.3f} s wall):")
            for line in metrics.layer_shares(client, wall):
                print("  " + line)
            if server:
                print("gateway server process, same passes:")
                for line in metrics.layer_shares(server, wall):
                    print("  " + line)
            trace_path = HERE / "out" / f"trace-{arguments.workload}.json.gz"
            tracer.write_chrome_trace(trace_path)
            print(f"spans: {tracer.n_spans} written to {trace_path.relative_to(ROOT)}")
            values = layers
            declared = benchmark["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(v["scaled"] for v in setups),
                "campaign_s": campaign_s,
                "peak_rss_mb": peak_rss_mb,
            }
            declared = benchmark["end_to_end"]
        for problem in workload.problems:
            print(f"FAILED: {problem}")
        missing = [entry["name"] for entry in declared if entry["name"] not in values]
        if missing:
            print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
            return 1
        unmeasurable = [name for name, value in values.items() if not math.isfinite(value)]
        if unmeasurable:
            print(f"error: no finite value for {', '.join(unmeasurable)}", file=sys.stderr)
            return 1
        result = {
            "correct": workload.failed == 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {
                entry["name"]: _metric(values[entry["name"]], entry["unit"])
                for entry in declared
            },
        }
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
