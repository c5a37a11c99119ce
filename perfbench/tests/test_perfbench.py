"""Tests of the benchmark itself: inputs, checks and span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import concurrent.futures
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from coisotropy.dsl import parse_repspec  # noqa: E402


def test_same_seed_same_queries_other_seed_differs():
    a = workloads.make_queries(1)
    assert a == workloads.make_queries(1)
    assert a != workloads.make_queries(2)
    # the group mix is fixed; only charges and order depend on the seed
    assert sorted((q.table, q.row, q.inst, q.variant[:5]) for q in a) == sorted(
        (q.table, q.row, q.inst, q.variant[:5]) for q in workloads.make_queries(2)
    )


def test_queries_fit_the_program():
    for q in workloads.make_queries(3):
        group, rep = parse_repspec(q.spec)
        assert group.dim > 0, q
        for line in group.torus_lines:
            assert math.gcd(*line) == 1, q
            assert all(abs(c) <= workloads.CHARGE_RANGE for c in line), q
        if q.variant == "bare":
            assert group.n_circles == 0
            assert all(s.charges == () for s in rep.summands)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        # id, parent, name, thread, start, end
        (1, None, "root", 1, 0.0, 10.0),
        (2, 1, "a", 1, 1.0, 3.0),
        (3, 2, "a.inner", 1, 1.5, 2.0),
        (4, 1, "w", 2, 2.0, 6.0),  # worker-thread child overlapping "a"
        (5, 1, "w", 3, 5.0, 12.0),  # runs past its parent's end: clipped
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (10.0 - 1.0))  # union [1, 10]
    assert selfs[2] == pytest.approx(2.0 - 0.5)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(4.0)
    agg = tracer.aggregate(spans)
    assert agg["w"]["calls"] == 2 and agg["w"]["self_s"] == pytest.approx(11.0)
    assert tracer.cross_thread_busy(spans, home_tid=1) == pytest.approx(11.0)
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_calibrated_time_scales_by_the_measured_speed():
    ref = speed.REF_CHUNK_S
    steady = [(t / 10, ref) for t in range(11)]
    assert speed.calibrated(steady, 0.2, 0.7) == pytest.approx(0.5)
    # twice as slow from the sample at 0.5 on, which covers 0.45 onwards
    mixed = [(t / 10, ref if t < 5 else 2 * ref) for t in range(11)]
    assert speed.calibrated(mixed, 0.0, 1.0) == pytest.approx(0.45 + 0.55 / 2)
    # one disturbed sample is outvoted by its neighbours
    spike = list(steady)
    spike[5] = (0.5, 50 * ref)
    assert speed.calibrated(spike, 0.2, 0.7) == pytest.approx(0.5)
    # intervals outside the sampled range use the nearest sample
    assert speed.calibrated(steady, 2.0, 3.0) == pytest.approx(1.0)


def test_golden_projection_and_its_check():
    golden = workloads.load_golden()
    assert len(golden) == 131
    assert all(v[5] for v in golden)
    assert len({(v[0], v[1]) for v in golden if v[6]}) == 8
    assert workloads.check_projection(golden, golden) == []
    flipped = [list(v) for v in golden]
    flipped[17][3] = "non-polar" if flipped[17][3] != "non-polar" else "coisotropic"
    assert workloads.check_projection(flipped, golden) == [(tuple(golden[17][:3]), "mismatch")]
    assert workloads.check_projection(golden[1:], golden) == [(tuple(golden[0][:3]), "missing")]


def test_record_projection_parses_a_record_line():
    line = (
        'table=1 row=sp2 inst="n=2" candidate="sp(n)" space="so:2" '
        "outcome=coisotropic expected=coisotropic ok=True corrected evidence=\"x\""
    )
    assert workloads.project_records(line) == [
        ["1", "sp2", "n=2", "coisotropic", "coisotropic", True, True]
    ]


def test_tracer_binds_imported_names_and_pool_spans_attach():
    t = tracer.Tracer()
    classify = t.modules["classify"]
    original = classify.realize
    t.install()
    try:
        assert classify.realize is not original
        assert t.modules["matrep"].realize is classify.realize
        assert t.modules["cli"].realize is classify.realize

        def outer():
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda k: t.modules["rootsys"].borel_dim(
                    t.modules["rootsys"].build_root_system(
                        t.modules["rootsys"].SimpleType("A", k))), (1, 2, 3)))

        wrapped = t._wrap("outer", outer)
        wrapped()
    finally:
        t.uninstall()
    assert classify.realize is original
    by_id = {s[0]: s for s in t.spans}
    roots = [s for s in t.spans if s[3] != t.home_thread and by_id.get(s[1], s)[3] != s[3]]
    assert roots and all(by_id[s[1]][2] == "outer" for s in roots)


def test_every_per_layer_metric_has_a_source():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    names = set(t.originals)
    derived = {
        "matrep.module_cache.hits", "matrep.module_cache.misses",
        "linalg.bareiss_fallback_ratio", "mforacle.rank_evals_per_mf_test",
        "classify.pool_busy_ratio", "trace.overhead_s",
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            continue
        base, _, field = name.rpartition(".")
        assert base in names, name
        assert field in ("calls", "self_s") or (field in ("hits", "misses") and base in t.caches)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert "{" not in capsys.readouterr().out
