"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace PATH]
    python3 perfbench/worker.py --setup-only

Run from the root of a source checkout.  Prints one JSON object as its last
line: the set-up time (imports plus ``load_dataset()``), and for a pass the
wall time, request latencies, failures and peak memory.  Times are in
calibrated seconds (see ``speed.py``); the raw wall time is kept beside.
With ``--trace`` the pass runs under the span tracer, the spans are written
to PATH and the per-layer counters (span times in raw seconds) are added.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

from speed import SpeedProbe, calibrated_over  # noqa: E402


def _layer_metrics(tracer, spans, wall_s: float) -> tuple[dict, dict]:
    """Per-layer counters of one traced pass, keyed as in BENCHMARK.json."""
    from tracer import aggregate, cross_thread_busy

    agg = aggregate(spans)
    out: dict[str, float] = {}
    for name, a in agg.items():
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.self_s"] = a["self_s"]
    for name, cached in tracer.caches.items():
        info = cached.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    for field in ("hits", "misses"):
        out[f"matrep.module_cache.{field}"] = sum(
            v for k, v in out.items() if k.startswith("matrep.") and k.endswith(f".{field}")
        )
    ranks = out.get("linalg.complex_rank.calls", 0)
    tests = out.get("mforacle.mf_test.calls", 0)
    out["linalg.bareiss_fallback_ratio"] = (
        out.get("linalg.int_rank_bareiss.calls", 0) / ranks if ranks else 0.0
    )
    out["mforacle.rank_evals_per_mf_test"] = ranks / tests if tests else 0.0
    busy = cross_thread_busy(spans, tracer.home_thread)
    out["classify.pool_busy_ratio"] = busy / (wall_s * 2) if wall_s > 0 else 0.0
    return out, agg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", default=None, help="write spans to this path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # one CPU, so that the speed probe measures the CPU the work runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    probes = [SpeedProbe()]
    probes[0].start()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from coisotropy import cli, repdata  # noqa: F401  (the whole package)

    repdata.load_dataset()
    setup_end = time.perf_counter()
    if args.setup_only:
        probes[0].stop()
        print(json.dumps({
            "setup_s": calibrated_over(probes, _T0, setup_end),
            "setup_wall_s": setup_end - _T0,
        }))
        return 0

    import numpy

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if workload.threads > 1:
        os.sched_setaffinity(0, cpus)
        probes += [SpeedProbe(cpu) for cpu in sorted(cpus) if cpu != min(cpus)]
        for p in probes[1:]:
            p.start()
    with tracer.suspended() if tracer else contextlib.nullcontext():
        inputs = workload.make_inputs(args.seed) if workload.make_inputs else None

    start = time.perf_counter()
    res = workload.run(args.seed, inputs)
    end = time.perf_counter()
    for p in probes:
        p.stop()
    chunk_times = [d for p in probes for _, d in p.samples]

    result = dict(
        wall_s=calibrated_over(probes, start, end),
        raw_wall_s=end - start,
        latencies=[calibrated_over(probes, a, b) for a, b in res.intervals],
        attempted=res.attempted,
        failures=res.failures,
        info=res.info,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        chunk_ms_median=1000 * statistics.median(chunk_times),
        chunk_samples=len(chunk_times),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer is not None:
        tracer.uninstall()
        spans = list(tracer.spans)
        result["layers"], agg = _layer_metrics(tracer, spans, end - start)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"home_thread": tracer.home_thread, "aggregate": agg,
                       "spans": spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
