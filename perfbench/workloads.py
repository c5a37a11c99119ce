"""The four benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop from one process: the next request starts
only after the previous one returned.  A workload returns the start and
end of each request it made, in an order fixed by the seed, how many
items it attempted and which failed.  A request is one ``table N``
command, one scan check or one mf-check query.

- ``tables``: ``coisotropy table N`` for N = 1..4 with one job; the paper
  reproduction a reader runs, mixing every layer.  Single-threaded baseline.
- ``tables_jobs2``: tables 1 and 2 with ``--jobs 2``; the only workload that
  runs the row worker pool in ``classify``.
- ``mf_stream``: a seeded stream of mf-check queries drawn from the
  multiplicity-free tables; exercises construction, validation and the
  exact rank kernel, and bypasses the root-system scans and the
  principal-isotropy path.
- ``scans``: the Borel-dimension inequality lists, the real-spin scan and
  the polynomial families; almost all root-system work and no linear
  algebra, so a linalg or matrep change predicts no change here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from coisotropy import classify, cli, mforacle, repdata
from coisotropy.dsl import parse_repspec, print_repspec
from coisotropy.matrep import GroupSpec, RepSpec, Summand, realize

# project_records() of ``table N --format records`` for N = 1..4 at the
# default seed; the verdicts do not depend on the seed.
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_tables.json")
STREAM_ROUNDS = 3
CHARGE_RANGE = 3

_RECORD_RE = re.compile(
    r'table=(\S+) row=(\S+) inst="([^"]*)" candidate=".*?" space=".*?" '
    r"outcome=(\S+) expected=(\S+) ok=(True|False)( corrected)? evidence="
)


@dataclass
class PassResult:
    intervals: list[tuple[float, float]]
    attempted: int
    failures: list[tuple[str, str]] = field(default_factory=list)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# golden verdict projection for the table workloads


def project_records(text: str) -> list[list]:
    """The (table, row, inst, outcome, expected, ok, corrected) fields of
    every verdict line of ``--format records`` output."""
    out = []
    for line in text.splitlines():
        m = _RECORD_RE.match(line)
        if m:
            table, row, inst, outcome, expected, ok, corrected = m.groups()
            out.append([table, row, inst, outcome, expected, ok == "True", bool(corrected)])
    return out


def load_golden() -> list[list]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_projection(got: list[list], golden: list[list]) -> list[tuple[tuple, str]]:
    """Failures of a table projection against the golden one, per verdict,
    as (table, row, inst) keys with a tag."""
    want = {tuple(v[:3]): v for v in golden}
    have = {tuple(v[:3]): v for v in got}
    failures = []
    for key, v in want.items():
        if key not in have:
            failures.append((key, "missing"))
        elif have[key] != v:
            failures.append((key, "mismatch"))
    for key in have.keys() - want.keys():
        failures.append((key, "unexpected"))
    if not failures and got != golden:
        failures.append((("order",), "mismatch"))
    return failures


def _run_tables(tables: tuple[int, ...], jobs: int, seed: int) -> PassResult:
    golden = [v for v in load_golden() if int(v[0]) in tables]
    got: list[list] = []
    raised: dict[str, str] = {}
    intervals = []
    for n in tables:
        argv = ["--seed", str(seed), "--format", "records", "table", str(n)]
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
        except Exception as exc:  # one table must not abort the pass
            raised[str(n)] = type(exc).__name__
        intervals.append((start, time.perf_counter()))
        got.extend(project_records(buf.getvalue()))
    failures = [
        (" ".join(key), raised.get(key[0], tag) if tag == "missing" else tag)
        for key, tag in check_projection(got, golden)
    ]
    return PassResult(
        intervals=intervals,
        attempted=len(golden),
        failures=failures,
        info={"verdicts": len(got), "corrected_rows": len({(v[0], v[1]) for v in got if v[6]})},
    )


def run_tables(seed: int, inputs=None) -> PassResult:
    return _run_tables((1, 2, 3, 4), 1, seed)


def run_tables_jobs2(seed: int, inputs=None) -> PassResult:
    return _run_tables((1, 2), 2, seed)


# ---------------------------------------------------------------------------
# the seeded mf-check stream


@dataclass(frozen=True)
class Query:
    table: str
    row: str
    inst: str
    variant: str
    spec: str


def _primitive_line(rng: random.Random) -> tuple[int, int]:
    # GroupSpec rejects non-primitive torus lines such as (-3, 0)
    while True:
        line = (rng.randint(-CHARGE_RANGE, CHARGE_RANGE), rng.randint(-CHARGE_RANGE, CHARGE_RANGE))
        if math.gcd(*line) == 1:
            return line


def make_queries(seed: int, ds=None) -> list[Query]:
    """The mf-check stream for one seed, in the order it is sent.

    Every instantiation listed in tables Ia, IIa and IIb appears once per
    round, so the mix of groups is the same for every seed.  Ia rows come
    bare (no circles, no charges) and with one scalar; IIa and IIb rows get
    one or two random primitive charge lines on circles acting on the two
    summands.  Bare queries whose group is trivial are left out.
    """
    ds = ds or repdata.load_dataset()
    rng = random.Random(f"mf_stream:{seed}")
    queries: list[Query] = []
    for _ in range(STREAM_ROUNDS):
        for table in ("Ia", "IIa", "IIb"):
            for entry in ds.mf_rows(table):
                for env in entry.instantiations() or [{}]:
                    group, rep = entry.pattern.instantiate(env)
                    inst = ",".join(f"{k}={v}" for k, v in sorted(env.items()))
                    variants = []
                    if table == "Ia":
                        if group.dim:
                            variants.append(("bare", group, rep))
                        variants.append((
                            "scalar",
                            GroupSpec(factors=group.factors, torus_lines=((1,),)),
                            RepSpec(summands=tuple(
                                Summand(terms=s.terms, dual=s.dual, charges=(1,))
                                for s in rep.summands
                            )),
                        ))
                    else:
                        lines = tuple(_primitive_line(rng) for _ in range(rng.choice((1, 2))))
                        first, second = rep.summands
                        variants.append((
                            "lines=" + ";".join(f"{a},{b}" for a, b in lines),
                            GroupSpec(factors=group.factors, torus_lines=lines),
                            RepSpec(summands=(
                                Summand(terms=first.terms, dual=first.dual, charges=(1, 0)),
                                Summand(terms=second.terms, dual=second.dual, charges=(0, 1)),
                            )),
                        ))
                    for variant, g, r in variants:
                        queries.append(Query(table, entry.row, inst, variant, print_repspec(g, r)))
    rng.shuffle(queries)
    return queries


def run_mf_stream(seed: int, queries: list[Query]) -> PassResult:
    intervals: list[tuple[float, float]] = []
    failures: list[tuple[str, str]] = []
    mf_false = 0
    for q in queries:
        label = f"{q.table} row={q.row} [{q.inst}] {q.variant}"
        start = time.perf_counter()
        try:
            group, rep = parse_repspec(q.spec)
            got = mforacle.mf_test(realize(group, rep), seed=seed)
            want = repdata.lookup_mf(group, rep).mf
        except Exception as exc:  # one query must not abort the stream
            intervals.append((start, time.perf_counter()))
            failures.append((label, type(exc).__name__))
            continue
        intervals.append((start, time.perf_counter()))
        mf_false += not got
        if want is None or got != want:
            failures.append((label, "mismatch"))
    return PassResult(
        intervals=intervals,
        attempted=len(queries),
        failures=failures,
        info={"mf_false_share": mf_false / max(1, len(queries))},
    )


# ---------------------------------------------------------------------------
# the root-system scans


def run_scans(seed: int, inputs=None) -> PassResult:
    failures: list[tuple[str, str]] = []

    intervals: list[tuple[float, float]] = []

    def check(label, fn):
        start = time.perf_counter()
        try:
            if not fn():
                failures.append((label, "mismatch"))
        except Exception as exc:  # one scan must not abort the pass
            failures.append((label, type(exc).__name__))
        intervals.append((start, time.perf_counter()))

    def lemma21():
        got = classify.verify_lemma21(12)
        enc1, enc2 = classify.encoded_lemma_exceptions(12)
        return got.part1 == enc1 and got.part2 == enc2

    def spin_scan():
        proper = [
            (str(e["type"]), e["weight"].coeffs)
            for e in classify.spin_inequality_scan(12)
            if not e["defining"] and e["degree"] >= 7
        ]
        return proper == [("G2", (1, 0))]

    def polyscan():
        entries = classify.polynomial_scan(200)
        return len(entries) == 4 and all(e["all_hold"] for e in entries)

    check("lemma21", lemma21)
    check("spin-scan", spin_scan)
    check("polyscan", polyscan)
    return PassResult(intervals=intervals, attempted=3, failures=failures)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], list] | None
    run: Callable[[int, list | None], PassResult]
    threads: int  # threads doing the work; one-thread workloads run pinned


WORKLOADS = {
    "tables": Workload(None, run_tables, 1),
    "tables_jobs2": Workload(None, run_tables_jobs2, 2),
    "mf_stream": Workload(make_queries, run_mf_stream, 1),
    "scans": Workload(None, run_scans, 1),
}
