"""Benchmark of the coisotropy verification toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh interpreter (``perfbench/worker.py``); passes repeat while they
fit in S seconds, and at least one runs.  Every pass sends the same requests
(a ``table N`` command, a scan check or an mf-check query).  All times are
in calibrated seconds (``speed.py``): wall time scaled by the speed the
worker's CPU had at that moment, because the shared machine this was
written on slows down by up to 2x for seconds at a time.  Each request is
timed by its median over the passes; ``wall_s`` is the sum of those times,
``query_p50_ms`` and ``query_p95_ms`` are their median and 95th
percentile.  ``setup_s`` is the median over several fresh interpreters that
only import the package and load the dataset.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` every pass is run twice, untraced and under the span
tracer, and the per-layer metrics are reported; ``trace.overhead_s`` is the
traced minus the untraced wall time.  The last line of standard output is
one JSON object; details of every pass, the environment and the spans go
to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
RUN_BUDGET_S = 160.0


class BenchError(RuntimeError):
    pass


def run_worker(root: str, args: list[str], deadline: float) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def environment(root: str) -> dict:
    revision = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def request_times(passes: list[dict]) -> list[float]:
    """Each request's median latency over the passes."""
    return [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "coisotropy", "__init__.py")):
        print("error: run from the root of a coisotropy source checkout", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, "perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_BUDGET_S
    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_worker(root, ["--setup-only"], deadline)  # byte-compile once
        setups = [run_worker(root, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes, traced, durations = [], [], []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            passes.append(run_worker(root, pass_args, deadline))
            if args.trace:
                span_path = os.path.join(out_dir, f"spans-{tag}-{len(traced)}.json")
                traced.append(run_worker(root, pass_args + ["--trace", span_path], deadline))
            now = time.monotonic()
            durations.append(now - began)
            # start another pass only if it is expected to end within S seconds
            expected_end = now + statistics.median(durations)
            if expected_end - start > args.seconds or expected_end > deadline - 10:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + traced
    failures = [f for p in runs for f in p["failures"]]
    attempted = sum(p["attempted"] for p in runs)
    latencies = request_times(passes)
    wall = sum(latencies)
    env = environment(root)
    env["numpy"] = passes[0]["numpy"]

    if args.trace:
        layer_values = {
            m["name"]: statistics.median(p["layers"].get(m["name"], 0) for p in traced)
            for m in spec["per_layer"] if m["name"] != "trace.overhead_s"
        }
        layer_values["trace.overhead_s"] = sum(request_times(traced)) - wall
        chosen = spec["per_layer"]
    else:
        layer_values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_p95_ms": 1000 * percentile(latencies, 95),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]} for m in chosen}

    tags = collections.Counter(t for _, t in failures)
    info_keys = sorted({k for p in passes for k in p["info"]})
    print(f"# {tag}: {len(passes)} passes, revision {env['git_revision'] or '-'}, "
          f"source {env['source_sha256'][:12]}, python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}")
    print(f"# requests per pass: {len(latencies)}; raw wall per pass "
          f"{[round(p['raw_wall_s'], 3) for p in passes]} s; calibration chunk "
          f"{[round(p['chunk_ms_median'], 3) for p in passes]} ms")
    print(f"# failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted})"
          + (f" tags {dict(tags)}" if tags else ""))
    for key in info_keys:
        print(f"# {key}: {[p['info'].get(key) for p in passes]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "setup_s": setups, "passes": passes,
                   "traced_passes": traced, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
