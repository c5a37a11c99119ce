import dataclasses

import pytest

from coisotropy import classify
from coisotropy.classify import (
    dimensional_condition,
    encoded_lemma_exceptions,
    irrep_scan,
    polynomial_scan,
    reproduce_table,
    spin_inequality_scan,
    standard_triple_witness,
    verify_lemma21,
)
from coisotropy.cli import main
from coisotropy.dsl import parse_pattern
from coisotropy.matrep import Factor, GroupSpec
from coisotropy.repdata import DataError, HSSpace, load_dataset
from coisotropy.rootsys import DominantWeight, SimpleType
from reference import POLY_FAMILY_FUNCTIONS


def test_lemma21_matches_encoded_lists_stably():
    # stability of the exception lists across the enumeration cut-off
    for max_rank in range(6, 13):
        got = verify_lemma21(max_rank)
        enc1, enc2 = encoded_lemma_exceptions(max_rank)
        assert got.part1 == enc1, max_rank
        assert got.part2 == enc2, max_rank


def test_lemma21_exception_content():
    got = verify_lemma21(6)
    assert (SimpleType("B", 2), DominantWeight((0, 1))) in got.part1
    assert (SimpleType("D", 3), DominantWeight((0, 1, 0))) in got.part1
    assert (SimpleType("A", 1), DominantWeight((2,))) in got.part1
    assert (SimpleType("A", 1), DominantWeight((2,))) not in got.part2
    # no exceptional type contributes
    assert not any(t.family in ("G", "F", "E") for t, _ in got.part1)


def test_lemma21_rejects_small_rank():
    with pytest.raises(ValueError):
        verify_lemma21(5)


def test_spin_scan_returns_expected_entries():
    entries = spin_inequality_scan(8)
    keyed = {(str(e["type"]), e["weight"].coeffs) for e in entries}
    assert ("A1", (2,)) in keyed
    assert ("G2", (1, 0)) in keyed
    assert ("B3", (1, 0, 0)) in keyed
    proper = [
        (str(e["type"]), e["weight"].coeffs)
        for e in entries
        if not e["defining"] and e["degree"] >= 7
    ]
    assert proper == [("G2", (1, 0))]
    # the adjoint of su(m) never qualifies for m >= 3
    assert not any(k[0].startswith("A") and k[1] != (2,) for k in keyed)


def test_polynomial_scan_families_hold():
    entries = polynomial_scan()
    # the benchmark still passes the old grid size, which is ignored
    assert polynomial_scan(200) == entries
    assert len(entries) == 4
    assert all(e["all_hold"] and not e["violations"] for e in entries)
    by_id = {e["id"]: e for e in entries}
    assert {pid: (e["from"], e["constant"]) for pid, e in by_id.items()} == {
        "3.2": ((3, 2), 26),
        "3.3": ((3, 1), 7),
        "4.2": ((3, 2), 14),
        "4.5": ((3, 3), 44),
    }
    # shifted[i][j] is the coefficient of s^i t^j in f(x_min + s, q_min + t)
    assert {pid: e["shifted"] for pid, e in by_id.items()} == {
        "3.2": [[26, 34, 8], [19, 25, 6], [3, 4, 1]],
        "3.3": [[7, 30, 14], [8, 26, 12], [1, 4, 2]],
        "4.2": [[14, 28, 8], [15, 23, 6], [3, 4, 1]],
        "4.5": [[44, 42, 7], [42, 36, 6], [7, 6, 1]],
    }
    assert by_id["3.2"]["range"] == "x >= 3, q >= 2"
    assert by_id["3.2"]["stated_matches"]
    assert by_id["3.3"]["stated_matches"]
    assert not by_id["4.5"]["stated_matches"]
    assert by_id["4.5"]["f3_actual"][3] == 44  # 7 p^2 - 19 at p = 3
    assert by_id["4.5"]["f3_stated"][3] == -10  # stated p^2 - 19 at p = 3


def test_polynomial_certificate_needs_a_non_negative_leading_coefficient(monkeypatch):
    # f = -x^2 + 1000 x is positive for 3 <= x < 1000, but its shift
    # g(s) = 2991 + 994 s - s^2 has a negative leading coefficient
    monkeypatch.setitem(
        classify.POLY_FAMILIES,
        "t",
        {
            "coeffs": ((0, 0, 0), (1000, 0, 0), (-1, 0, 0)),
            "x_min": 3,
            "q_min": 2,
            "f3_claimed": (2991, 0, 0),
            "definition": "-x^2 + 1000 x",
        },
    )
    entry = classify.polynomial_family("t")
    assert not entry["all_hold"]
    assert entry["constant"] == 2991
    assert entry["violations"] == [(2, 0, -1)]
    assert entry["stated_matches"]


def test_a_corrupted_polynomial_coefficient_fails_the_proof(monkeypatch, capsys):
    # lowering the constant term of 3.2 by its shifted constant 26 leaves
    # g(0, 0) = f(3, 2) = 0, which proves nothing
    fam = classify.POLY_FAMILIES["3.2"]
    (c00, *rest), *rows = fam["coeffs"]
    coeffs = ((c00 - 26, *rest), *rows)
    monkeypatch.setitem(classify.POLY_FAMILIES, "3.2", {**fam, "coeffs": coeffs})
    entry = classify.polynomial_family("3.2")
    assert not entry["all_hold"]
    assert entry["constant"] == 0 and entry["violations"] == [(0, 0, 0)]
    assert main(["--format", "records", "table", "1"]) == 1
    records = capsys.readouterr().out.splitlines()
    failed = [line for line in records if "ok=False" in line]
    assert len(failed) == 1 and "row=spP1" in failed[0]
    assert "'all_hold': False, 'from': (3, 2), 'constant': 0" in failed[0]
    assert records[-1].endswith(" verdicts, 1 mismatches")


def test_the_coefficient_tables_equal_the_reference_functions():
    for pid, ref in POLY_FAMILY_FUNCTIONS.items():
        fam = classify.POLY_FAMILIES[pid]
        for x in range(-10, 41):
            for q in range(-10, 41):
                got = sum(
                    c * x**i * q**j
                    for i, row in enumerate(fam["coeffs"])
                    for j, c in enumerate(row)
                )
                assert got == ref["f"](x, q), (pid, x, q)
            stated = sum(c * x**j for j, c in enumerate(fam["f3_claimed"]))
            assert stated == ref["f3_claimed"](x), (pid, x)


def test_dimensional_condition_examples():
    # tensor pair of small rotation groups: fails on SO(12)/U(6)
    g = GroupSpec(factors=(Factor("so", 3), Factor("so", 3)))
    rep = dimensional_condition(g, HSSpace("so", 6))
    assert not rep.ok and rep.borel_dim == 4 and rep.space_dim == 15

    g = GroupSpec(factors=(Factor("e6", 6),), torus_lines=((1,),))
    rep = dimensional_condition(g, HSSpace("e7"))
    assert rep.ok and rep.borel_dim == 43 and rep.space_dim == 27


def test_dimensional_condition_monotone():
    small = GroupSpec(factors=(Factor("su", 3),))
    big = GroupSpec(factors=(Factor("su", 3), Factor("sp", 2)), torus_lines=((1,),))
    space = HSSpace("sp", 3)
    if dimensional_condition(small, space).ok:
        assert dimensional_condition(big, space).ok


def test_irrep_scans_are_empty():
    assert irrep_scan("R", 12, 47) == []
    assert irrep_scan("C", 8, 47) == []
    assert irrep_scan("H", 8, 26) == []
    # sanity: with no dimension floor the defining-module exclusion matters
    found = irrep_scan("R", 7, 0)
    assert ("G2", (1, 0)) in {(str(e["type"]), e["weight"].coeffs) for e in found}


def test_standard_triple_witness_discrepancy_is_reported():
    raw, cross = standard_triple_witness()
    assert not raw.closed
    assert cross.closed


def test_reproduce_single_rows():
    v = reproduce_table(1, rows=["sp3"])
    assert v and all(x.ok and x.outcome == "coisotropic" for x in v)
    v = reproduce_table(1, rows=["spE1"])
    assert v and all(x.outcome == "eliminated-dimension" for x in v)
    v = reproduce_table(3, rows=["pE1"])
    assert v[0].outcome == "non-polar" and v[0].ok
    v = reproduce_table(2, rows=["e7r1"])
    assert v[0].outcome == "coisotropic"
    rules = [e.rule for e in v[0].evidence]
    assert "table-row-match" in rules  # the 27-dimensional slice matches Ia


def test_the_orthogonal_model_closure_is_stated_once():
    # pE1's dataset note explains the closed cross check, which the second
    # evidence entry carries; the record does not restate it
    (v,) = reproduce_table(3, rows=["pE1"])
    assert [e.numbers for e in v.evidence][1] == {"closed": True}
    record = v.record()
    assert record.count("orthogonal-model embedding of the same pair") == 1
    assert v.notes == [next(r for r in load_dataset().result_rows if r.row == "pE1").note]


def test_malformed_space_field_raises_data_error():
    # a row whose space field does not parse is a data error when the row
    # is built, not an AttributeError inside dimensional_condition
    row = next(r for r in load_dataset().result_rows if r.row == "spE1")
    with pytest.raises(DataError, match="bad space field"):
        dataclasses.replace(row, space="Sq:m")


@pytest.mark.parametrize("failing", [1, 2])
def test_a_data_error_in_a_row_aborts_the_table(monkeypatch, failing):
    # not an undecided row: the run stops, whether the first or a later
    # row of the table is the one that fails
    real = classify._run_row
    rows = ["sp1", "sp3"]

    def broken(row, env, ds, seed):
        if row.row == rows[failing - 1]:
            raise DataError("injected")
        return real(row, env, ds, seed)

    monkeypatch.setattr(classify, "_run_row", broken)
    with pytest.raises(DataError, match="injected"):
        reproduce_table(1, rows=rows)


def test_an_unknown_polynomial_family_is_a_value_error():
    with pytest.raises(ValueError, match="unknown polynomial family '3.9'"):
        classify.polynomial_family("3.9")


def test_cohom_one_compares_the_slice_cohomogeneity_with_expect():
    ds = load_dataset()
    rows = [dataclasses.replace(r, expect="ch=2") if r.row == "p8" else r for r in ds.result_rows]
    (v,) = reproduce_table(3, rows=["p8"], dataset=dataclasses.replace(ds, result_rows=rows))
    assert v.outcome == "mismatch" and v.evidence[-1].numbers == {"ch": 1}
    (v,) = reproduce_table(3, rows=["p8"], dataset=ds)
    assert v.ok


def test_cohom_slice_compares_the_slice_group_rank_with_expect():
    # soE5's slice group su(3) + su(s) + u1 has rank s + 2, which the row
    # states; a stated rank the slice does not have is a mismatch, never
    # the rank the report is read against
    ds = load_dataset()
    rows = [dataclasses.replace(r, expect="ch=7;coiso=0;rank=s+3") if r.row == "soE5" else r for r in ds.result_rows]
    wrong = reproduce_table(1, rows=["soE5"], dataset=dataclasses.replace(ds, result_rows=rows))
    assert [(v.outcome, v.evidence[-1].numbers["rank"]) for v in wrong] == [("mismatch", 5), ("mismatch", 6)]
    assert all(v.ok for v in reproduce_table(1, rows=["soE5"], dataset=ds))


def test_reproduce_widen_adds_instances():
    base = reproduce_table(1, rows=["sp3"])
    widened = reproduce_table(1, rows=["sp3"], widen=1)
    assert len(widened) == len(base) + 1


def test_verdict_record_format():
    v = reproduce_table(1, rows=["sp1"])[0]
    text = v.record()
    assert "table=1" in text and "row=sp1" in text and "outcome=" in text
    assert "ok=True" in text


def test_reproduce_is_deterministic():
    a = reproduce_table(1, rows=["so3"], seed=99)
    b = reproduce_table(1, rows=["so3"], seed=99)
    assert [x.record() for x in a] == [x.record() for x in b]


SO8_NOTE = (
    "stated as coisotropic with non-removable scalar, but the single center acts with the same "
    "weight on both summands and the exact Borel rank is 5 of 6; the corrected table drops this row"
)


def test_a_record_prints_the_evidence_texts_and_the_notes():
    (v,) = reproduce_table(1, rows=["so8"])
    assert v.record().endswith(
        f"evidence=\"borel-orbit-rank[z+sp(2) on SO(8)/U(4)] {{'mf': False, 'dim': 6}}\" notes=\"{SO8_NOTE}\""
    )
    # an undecided row prints the message of the exception it names
    ds = load_dataset()
    spin13 = parse_pattern("so(13) + u1[1] on spin(1) @ 1")
    rows = [dataclasses.replace(r, slice=spin13) if r.row == "so8" else r for r in ds.result_rows]
    (v,) = reproduce_table(1, rows=["so8"], dataset=dataclasses.replace(ds, result_rows=rows))
    assert v.outcome == "undecided"
    assert v.record().endswith(
        "evidence=\"undecided[z+sp(2) on SO(8)/U(4)] {'error': 'NotRealizable'} "
        f"spin modules are provided for 3 <= n <= 12\" notes=\"{SO8_NOTE}\""
    )
