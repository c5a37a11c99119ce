"""Command-line front end.

Subcommands cover every pipeline stage; exit codes are 0 for verified, 1
for a verification mismatch, 2 for usage errors (rejected input, runs
that would check nothing, unreadable spec files and unwritable reports)
and 3 for a table with undecided rows and no mismatch, independent of
timing or parallelism.
"""

from __future__ import annotations

import argparse
import sys

from . import classify, mforacle, repdata
from .dsl import parse_repspec, print_repspec
from .linalg import realify
from .matrep import realize
from .rootsys import (
    DominantWeight,
    RootSystemError,
    SimpleType,
    borel_dim,
    build_root_system,
    classify_rep_field,
    weyl_dim,
)


class _Reporter:
    def __init__(self, path: str | None, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []
        self.path = path

    def emit(self, text: str):
        self.lines.append(text)

    def ok_line(self, ok: bool, label: str, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        self.emit(f"{tag:4s} {label:58s} {detail}".rstrip())

    def flush(self):
        out = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(out)
        sys.stdout.write(out)


def _parse_type(text: str) -> SimpleType:
    if not text[1:].isdigit():
        raise RootSystemError(f"malformed simple type {text!r}, expected e.g. G2")
    return SimpleType(text[0].upper(), int(text[1:]))


def _parse_weight(text: str) -> DominantWeight:
    try:
        coeffs = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise RootSystemError(
            f"malformed weight {text!r}, expected comma-separated integers"
        ) from None
    return DominantWeight(coeffs)


def _cmd_weyldim(args, rep: _Reporter) -> int:
    rs = build_root_system(_parse_type(args.type))
    w = _parse_weight(args.weight)
    d = weyl_dim(rs, w)
    rep.emit(str(d))
    if args.verbose:
        rep.emit(f"borel dimension {borel_dim(rs)}")
        rep.emit(f"reality class {classify_rep_field(rs, w)}")
    return 0


def _cmd_lemma21(args, rep: _Reporter) -> int:
    got = classify.verify_lemma21(args.max_rank)
    enc1, enc2 = classify.encoded_lemma_exceptions(args.max_rank)
    if rep.fmt == "records":
        for st, w in sorted(got.part1, key=lambda t: (str(t[0]), t[1].coeffs)):
            rep.emit(f"part=1 type={st} weight={w}")
        for st, w in sorted(got.part2, key=lambda t: (str(t[0]), t[1].coeffs)):
            rep.emit(f"part=2 type={st} weight={w}")
    else:
        rep.emit("first inequality exceptions:")
        for st, w in sorted(got.part1, key=lambda t: (str(t[0]), t[1].coeffs)):
            rep.emit(f"  {st}  weight {w}")
        rep.emit("second inequality exceptions:")
        for st, w in sorted(got.part2, key=lambda t: (str(t[0]), t[1].coeffs)):
            rep.emit(f"  {st}  weight {w}")
    rep.ok_line(got.part1 == enc1, "first inequality exception list")
    rep.ok_line(got.part2 == enc2, "second inequality exception list")
    for note in repdata.load_dataset().notes:
        if note.id.startswith("borel"):
            rep.emit(f"note: {note.id} stated={note.stated} formula={note.formula}")
    return 0 if (got.part1 == enc1 and got.part2 == enc2) else 1


def _read_spec(args) -> str:
    if args.spec == "-":
        return sys.stdin.read()
    if args.from_file:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return fh.read()
    return args.spec


def _cmd_mf_check(args, rep: _Reporter) -> int:
    group, module = parse_repspec(_read_spec(args))
    mrep = realize(group, module)
    verdict = mforacle.mf_test(mrep, seed=args.seed)
    rep.emit(f"spec: {print_repspec(group, module)}")
    rep.emit(f"dimension: {mrep.space_dim}")
    rep.emit(f"multiplicity free: {verdict}")
    look = repdata.lookup_mf(group, module)
    if look.match is not None:
        params = ", ".join(f"{k}={v}" for k, v in sorted(look.parameters.items()))
        rep.emit(
            f"table match: {look.match.table} row {look.match.row} "
            f"({params + '; ' if params else ''}policy {look.scalar_policy}, "
            f"condition {look.condition_evaluated})"
            + "".join(f"; {note}" for note in look.notes)
        )
        if look.mf is not None and look.mf != verdict:
            rep.ok_line(False, "table row agrees with the rank oracle")
            return 1
    else:
        rep.emit("table match: none " + "; ".join(look.notes))
    return 0


def _cmd_cohom(args, rep: _Reporter) -> int:
    group, module = parse_repspec(_read_spec(args))
    mrep = realize(group, module)
    report = mforacle.coisotropic_by_rank(mrep, seed=args.seed)
    rep.emit(f"spec: {print_repspec(group, module)}")
    rep.emit(f"cohomogeneity: {report.cohomogeneity}")
    rep.emit(f"group rank: {report.group_rank}")
    rep.emit(f"principal isotropy rank: {report.principal_isotropy_rank}")
    rep.emit(f"coisotropic: {report.coisotropic}")
    rep.emit(f"isotropy rank certified: {report.isotropy_certified}")
    return 0


def _cmd_table(args, rep: _Reporter) -> int:
    rows = args.rows.split(",") if args.rows else None
    verdicts = classify.reproduce_table(
        args.table,
        widen=args.widen_params,
        seed=args.seed,
        jobs=args.jobs,
        rows=rows,
    )
    if rep.fmt == "records":
        for v in verdicts:
            rep.emit(v.record())
    else:
        for v in verdicts:
            inst = ",".join(f"{k}={val}" for k, val in sorted(v.instantiation.items()))
            label = f"table {v.table} {v.row} [{inst}] {v.candidate}"
            detail = v.outcome + (" (corrected row)" if v.corrected else "")
            rep.ok_line(v.ok, label, detail)
    undecided = sum(v.outcome == "undecided" for v in verdicts)
    mismatches = sum(not v.ok for v in verdicts) - undecided
    tail = f", {undecided} undecided" if undecided else ""
    rep.emit(f"{len(verdicts)} verdicts, {mismatches} mismatches{tail}")
    return 1 if mismatches else 3 if undecided else 0


def _cmd_spin_scan(args, rep: _Reporter) -> int:
    entries = classify.spin_inequality_scan(args.max_rank)
    for e in entries:
        tag = "defining" if e["defining"] else "proper"
        rep.emit(
            f"{e['type']} weight {e['weight']} degree {e['degree']} "
            f"borel {e['borel_dim']} [{tag}]"
        )
    proper = [
        (str(e["type"]), e["weight"].coeffs)
        for e in entries
        if not e["defining"] and e["degree"] >= 7
    ]
    rep.ok_line(
        proper == [("G2", (1, 0))],
        "only proper solution of degree at least 7",
        str(proper),
    )
    return 0 if proper == [("G2", (1, 0))] else 1


def _cmd_polyscan(args, rep: _Reporter) -> int:
    entries = classify.polynomial_scan()
    for e in entries:
        rep.ok_line(e["all_hold"], f"family {e['id']}: {e['definition']} > 0")
        if not e["stated_matches"]:
            rep.emit(
                f"  note: stated f(3) values {e['f3_stated']} differ from the "
                f"definition's {e['f3_actual']}; {e['note']}"
            )
    return 0 if all(e["all_hold"] for e in entries) else 1


def _cmd_triple_test(args, rep: _Reporter) -> int:
    raw, cross = classify.standard_triple_witness()
    rep.ok_line(not raw.closed, "recorded witness plane is not closed", f"witness {raw.witness}")
    rep.emit(
        "note: the equivariant orthogonal-model embedding of the same pair is "
        f"closed={cross.closed}; the verdict follows the slice-coordinate model"
    )
    single = mforacle.lie_triple_closure([realify(*classify.WITNESS_PLANE[0])])
    rep.ok_line(single.closed, "one-dimensional candidate is closed")
    pair = mforacle.sp_u_pair(2)
    plane = mforacle.maximal_abelian_in_p(pair, seed=args.seed)
    res = mforacle.lie_triple_test(pair, plane)
    flat = mforacle.brackets_vanish(plane)
    rep.ok_line(
        res.closed and flat and len(plane) == 2,
        "abelian plane section is closed and flat",
        f"dim {len(plane)}",
    )
    ok = (not raw.closed) and single.closed and res.closed and flat
    return 0 if ok else 1


def _cmd_validate_data(args, rep: _Reporter) -> int:
    # every record is checked as it loads; a malformed one is a DataError
    ds = repdata.load_dataset()
    rep.emit(
        f"tables: {len(ds.mf_entries)} multiplicity-free rows, "
        f"{len(ds.maxsub_entries)} maximal-subgroup rows, "
        f"{len(ds.slice_facts)} slice facts, {len(ds.result_rows)} result rows"
    )
    return 0


def _int_at_least(least: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coisotropy",
        description=(
            "Exact verification toolkit for coisotropic and polar actions "
            "on compact irreducible Hermitian symmetric spaces"
        ),
    )
    ap.add_argument("--seed", type=int, default=mforacle.DEFAULT_SEED, help="oracle sampling seed")
    ap.add_argument("--report", default=None, help="also write the output to a file")
    ap.add_argument("--format", choices=("text", "records"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weyldim", help="exact dimension of a highest-weight module")
    p.add_argument("type", help="simple type, e.g. G2, A3, E7")
    p.add_argument("weight", help="comma-separated fundamental coefficients")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_weyldim)

    p = sub.add_parser("lemma21", help="verify the Borel-dimension inequalities")
    p.add_argument("--max-rank", type=int, default=12)
    p.set_defaults(func=_cmd_lemma21)

    p = sub.add_parser("mf-check", help="multiplicity-freeness of a spec")
    p.add_argument("spec", help="representation spec, or - for stdin")
    p.add_argument("--from-file", action="store_true")
    p.set_defaults(func=_cmd_mf_check)

    p = sub.add_parser("cohom", help="cohomogeneity report of a spec")
    p.add_argument("spec")
    p.add_argument("--from-file", action="store_true")
    p.set_defaults(func=_cmd_cohom)

    p = sub.add_parser("table", help="reproduce one result table")
    p.add_argument("table", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--widen-params", type=_int_at_least(0), default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--rows", default=None, help="comma-separated row filter")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("spin-scan", help="real odd-degree inequality scan")
    p.add_argument("--max-rank", type=int, default=12)
    p.set_defaults(func=_cmd_spin_scan)

    p = sub.add_parser("polyscan", help="prove the polynomial elimination families")
    p.set_defaults(func=_cmd_polyscan)

    p = sub.add_parser("triple-test", help="tangent-plane closure witnesses")
    p.set_defaults(func=_cmd_triple_test)

    p = sub.add_parser("validate-data", help="load and check the dataset")
    p.set_defaults(func=_cmd_validate_data)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    rep = _Reporter(args.report, args.format)
    try:
        code = args.func(args, rep)
    except (ValueError, OSError) as exc:
        # rejected input: malformed specs, types and weights, unrealizable
        # modules, scan ranks that leave nothing to check, rows a table does
        # not have, and spec files that cannot be read
        rep.emit(f"error: {exc}")
        code = 2
    try:
        rep.flush()
    except OSError as exc:  # a report file that cannot be written
        sys.stdout.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
