import itertools
import math
import os
import random
import re
import shutil
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from coisotropy import classify, repdata
from coisotropy.dsl import eval_condition, eval_int_expr, parse_pattern, parse_repspec
from coisotropy.matrep import Factor, GroupSpec, RepresentationError, RepSpec, Summand, Term, realize
from coisotropy.mforacle import mf_test
from coisotropy.repdata import (
    DATA_ENV_VAR,
    DataError,
    HSSpace,
    RECIPES,
    ResultRow,
    load_dataset,
    lookup_mf,
    parse_instantiations,
    space_from_text,
)
from reference import kinds_fit, permutation_factor_maps, solve_rank


@pytest.fixture(scope="module")
def ds():
    return load_dataset()


def look(ds, text):
    group, rep = parse_repspec(text)
    return lookup_mf(group, rep, ds)


def test_dataset_loads_every_file(ds):
    assert ds.mf_rows("Ia") and ds.mf_rows("Ib") and ds.mf_rows("IIa") and ds.mf_rows("IIb")
    assert len(ds.maxsub_entries) == 14
    assert ds.slice_facts and ds.result_rows and ds.symmetric_pairs


def test_ia_removability_comes_from_the_ib_row_with_the_same_pattern(ds):
    removable = {
        e.row: e.removable_cond for e in ds.mf_rows("Ia") if e.scalar_policy == "removable"
    }
    assert removable == {
        "1": "n >= 2",
        "3": "n >= 2",
        "5": "n >= 5 and n % 2 == 1",
        "6": "n >= 2 and m >= 2 and n != m",
        "9": "n >= 5",
        "12": "",
    }
    required = [e for e in ds.mf_rows("Ia") if e.scalar_policy == "required"]
    assert len(required) == 8 and not any(e.removable_cond for e in required)


def test_hsspace_dimensions():
    assert HSSpace("sp", 3).complex_dim == 6
    assert HSSpace("so", 4).complex_dim == 6
    assert HSSpace("e7").complex_dim == 27
    assert HSSpace("e6").complex_dim == 16
    assert space_from_text("sp:m", {"m": 5}).complex_dim == 15
    with pytest.raises(DataError):
        HSSpace("x7")


def test_parse_instantiations():
    assert parse_instantiations("k=1,m=2|k=1,m=3") == [
        {"k": 1, "m": 2},
        {"k": 1, "m": 3},
    ]
    assert parse_instantiations("") == []


def test_lookup_irreducible_rows(ds):
    res = look(ds, "su(6) + u1[1] on alt2(1) @ 1")
    assert res.match.table == "Ia" and res.match.row == "5"
    assert res.mf is True
    res = look(ds, "su(6) on alt2(1)")
    assert res.mf is False  # even rank: scalar required
    res = look(ds, "su(7) on alt2(1)")
    assert res.mf is True and res.scalar_policy == "removable"


@pytest.mark.parametrize("slot", ["std(2)", "sym2(2)", "std(3)", "sym2(3)"])
def test_a_one_dimensional_slot_changes_neither_the_module_nor_its_row(ds, slot):
    # std and sym2 of su(1) (factor 2) and so(1) (factor 3) are C^1
    plain, padded = "su(6) + u1[1] on alt2(1) @ 1", f"su(6) + su(1) + so(1) + u1[1] on alt2(1) (x) {slot} @ 1"
    a, b = (realize(*parse_repspec(text)).gens for text in (padded, plain))
    assert (a.shape, a.den, a.dense().tolist()) == (b.shape, b.den, b.dense().tolist())
    assert look(ds, padded) == look(ds, plain)


def test_lookup_reducible_rows(ds):
    res = look(ds, "su(5) + u1[1,1] on std(1) @ 1,0 (+) alt2(1) @ 0,1")
    assert res.match.table == "IIa" and res.match.row == "4"
    assert res.condition_evaluated is True and res.mf is True
    res = look(ds, "su(3) + u1[1,1] on std(1) @ 1,0 (+) std(1) @ 0,1")
    assert res.match.row == "1" and res.mf is False
    res = look(ds, "su(2) + u1[1,0] + u1[0,1] on std(1) @ 1,0 (+) std(1) @ 0,1")
    assert res.match.table == "IIb" and res.mf is True
    # su(4) std is not self-dual but its alt2 is, so rows 3 and 5 both fit;
    # the row whose dual flags agree exactly wins
    res = look(ds, "su(4) + u1[1,1] on std(1) * @ 1,0 (+) alt2(1) @ 0,1")
    assert res.match.row == "5" and res.parameters == {"m": 2}


def test_lookup_maps_pattern_factors_injectively(ds):
    # two pattern factors may not land on one concrete factor (Ia row 6 with
    # n = m = 3), and so(2) std is a two-dimensional slot, not a trivial one
    for text in (
        "su(3) + u1[1] on std(1) (x) std(1) @ 1",
        "su(3) on std(1) (x) std(1)",
        "so(2) + u1[1] on std(1) @ 1",
    ):
        res = look(ds, text)
        assert res.match is None and res.mf is False, text


def _mf_stream_round(ds, rng):
    """The queries of one round of the mf-check stream: every instantiation
    of tables Ia (bare, and with one scalar line) and IIa and IIb (with one
    or two random primitive charge lines on their two summands)."""
    for table in ("Ia", "IIa", "IIb"):
        for entry in ds.mf_rows(table):
            for env in entry.instantiations() or [{}]:
                group, rep = entry.pattern.instantiate(env)
                if table == "Ia":
                    if group.dim:
                        yield group, rep
                    yield GroupSpec(group.factors, ((1,),)), RepSpec(
                        tuple(Summand(s.terms, s.dual, (1,)) for s in rep.summands)
                    )
                    continue
                lines = []
                while len(lines) < rng.choice((1, 2)):
                    line = (rng.randint(-3, 3), rng.randint(-3, 3))
                    lines += [line] * (math.gcd(*line) == 1)
                first, second = rep.summands
                charged = (Summand(first.terms, first.dual, (1, 0)), Summand(second.terms, second.dual, (0, 1)))
                yield GroupSpec(group.factors, tuple(lines)), RepSpec(charged)


def test_factor_maps_equal_the_permutation_reference(ds, monkeypatch):
    """lookup_mf visits only the rows whose factor kinds can fit: for every
    lookup of one mf-stream round and of table 1..4, the rows the index
    gives are those of the table, in order, with the query's summand count
    that pass the kind check, and a row it skips never reaches
    _factor_maps.  Each call yields the (order, env) pairs of the reference
    that tries every injective image, in the same order, and every lookup
    is that of the reference that visits every row of the summand count."""
    queries = list(_mf_stream_round(ds, random.Random(5)))
    monkeypatch.setattr(classify, "lookup_mf", lambda *args: queries.append(args[:2]) or lookup_mf(*args))
    for table in (1, 2, 3, 4):
        classify.reproduce_table(table)
    monkeypatch.undo()
    assert len(queries) == 91 + 33
    maps, permutations, calls, tried = repdata._factor_maps, itertools.permutations, [], []

    def used_factors(group, rep):
        return list(dict.fromkeys(f for sm in rep.summands for _, f in repdata._slots(group, sm)))

    skipped = 0
    for group, rep in queries:
        r, used = len(rep.summands), used_factors(group, rep)
        for table in ["Ia"] if r == 1 else ["IIa", "IIb"]:
            rows = [e for e in ds.mf_rows(table) if len(e.pattern.summands) == r]
            fitting = [e for e in rows if kinds_fit(group, e.pattern, used)]
            assert ds.mf_rows_fitting(table, r, [group.factors[f].kind for f in used]) == fitting
            skipped += len(rows) - len(fitting)

    def reference_maps(group, pat, faces):
        for order, faced, used in faces:
            for env in permutation_factor_maps(group, pat, faced, used):
                yield order, env

    def compared_maps(*args):
        group, pat, faces = args
        assert kinds_fit(group, pat, faces[0][2])  # no skipped row reaches a map
        start = len(tried)
        found = list(maps(*args))
        calls.append((found, len(tried) > start))
        assert found == list(reference_maps(*args))
        return iter(found)

    monkeypatch.setattr(itertools, "permutations", lambda *args: tried.append(args) or permutations(*args))
    monkeypatch.setattr(repdata, "_factor_maps", compared_maps)
    # each pass on a dataset of its own, whose candidate memo starts empty
    looked = [lookup_mf(group, rep, fresh) for fresh in [replace(ds)] for group, rep in queries]
    assert sum(bool(found) for found, _ in calls) > 100
    # rows the index skips and rows that try no image
    assert skipped + sum(not any_image for _, any_image in calls) > 500
    monkeypatch.setattr(repdata, "_factor_maps", reference_maps)
    monkeypatch.setattr(
        repdata.Dataset,
        "mf_rows_fitting",
        lambda self, table, r, kinds: [e for e in self.mf_rows(table) if len(e.pattern.summands) == r],
    )
    assert [lookup_mf(group, rep, fresh) for fresh in [replace(ds)] for group, rep in queries] == looked


def _structure(group, rep):
    """The charge-free structure of a query, as lookup_mf keys its memo."""
    return group.factors, tuple(Summand(sm.terms, sm.dual) for sm in rep.summands)


def test_lookups_equal_those_that_solve_each_input_anew(ds, monkeypatch):
    """With the candidates memoized per charge-free structure and
    _solve_rank and the row conditions memoized, every lookup of the
    mf-stream rounds at seeds 1 and 5 and of table 1..4 returns the
    MFLookup of the solver that evaluates every candidate on every call.
    Each pass runs on a dataset of its own, so the reference pass reads
    no candidate the memoized pass left."""
    queries = list(_mf_stream_round(ds, random.Random(1))) + list(_mf_stream_round(ds, random.Random(5)))
    monkeypatch.setattr(classify, "lookup_mf", lambda *args: queries.append(args[:2]) or lookup_mf(*args))
    for table in (1, 2, 3, 4):
        classify.reproduce_table(table)
    monkeypatch.undo()
    assert len(queries) == 2 * 91 + 33
    repdata._rank_solution.cache_clear()
    repdata._condition.cache_clear()
    built, candidates = [], repdata._mf_candidates
    monkeypatch.setattr(repdata, "_mf_candidates", lambda *args: built.append(args[:2]) or candidates(*args))
    fresh = replace(ds)
    looked = [lookup_mf(group, rep, fresh) for group, rep in queries]
    # one build per structure, so every other lookup is a memo hit:
    # hits = lookups - distinct structures
    structures = {_structure(group, rep) for group, rep in queries}
    assert sorted(map(_structure, *zip(*built)), key=repr) == sorted(structures, key=repr)
    assert fresh._candidates.keys() == structures
    hits = len(queries) - len(built)
    assert hits == len(queries) - len(structures) and hits > len(structures)
    conditions = repdata._condition.cache_info()
    assert conditions.hits > conditions.misses
    monkeypatch.undo()
    monkeypatch.setattr(repdata, "_solve_rank", solve_rank)
    monkeypatch.setattr(repdata, "_condition", lambda text, bound: eval_condition(text, dict(bound)))
    assert [lookup_mf(group, rep, replace(ds)) for group, rep in queries] == looked


def test_the_candidate_memo_reads_no_charge(ds, monkeypatch):
    """One IIb structure, su(2) + su(2) on a starred std (+) std (x) std,
    looked up with one torus line and then with two: the second lookup
    reads the candidates of the first, with no _factor_maps call, and each
    verdict is that of a dataset that looks the module up anew.  The star
    differs from row 2a's on a self-dual summand, so 2a is a candidate
    ahead of row 2b, and the first exact match, 2b, still wins."""
    one, two = (
        parse_repspec(f"su(2) + su(2) + {lines} on std(1) * @ 1,0 (+) std(1) (x) std(2) @ 0,1")
        for lines in ("u1[1,1]", "u1[1,0] + u1[0,1]")
    )
    calls, maps = [], repdata._factor_maps
    monkeypatch.setattr(repdata, "_factor_maps", lambda *args: calls.append(args) or maps(*args))
    memo, verdicts, made = replace(ds), [], []
    for group, rep in (one, two):
        verdicts.append(lookup_mf(group, rep, memo))
        made.append(len(calls) - sum(made))
    assert made[0] > 0 and made[1] == 0
    assert verdicts == [lookup_mf(group, rep, replace(ds)) for group, rep in (one, two)]
    assert [(v.match.table, v.match.row, v.mf) for v in verdicts] == [("IIb", "2b", False), ("IIb", "2b", True)]
    [candidates] = memo._candidates.values()
    iib = [(entry.row, exact) for entry, *_, exact in candidates if entry.table == "IIb"]
    assert iib == [("2a", False), ("2a", False), ("2b", True), ("2b", False)]


def test_a_memoized_rank_solution_is_a_fresh_dict_each_call():
    first = repdata._solve_rank("2*m+1", 7, {"n": 4})
    assert first == {"n": 4, "m": 3}
    first["m"] = 0
    again = repdata._solve_rank("2*m+1", 7, {"n": 4})
    assert again == {"n": 4, "m": 3} and again is not first
    env = {"m": 3}
    assert repdata._solve_rank("2*m+1", 7, env) == env and repdata._solve_rank("2*m+1", 7, env) is not env
    assert repdata._solve_rank("m+k", 7, {}) is None and repdata._solve_rank("2*m", 7, {}) is None


def test_lookup_three_summands(ds):
    text = (
        "su(3) + u1[1,1,0] + u1[1,0,1] + u1[0,1,1] on "
        "std(1) @ 1,0,0 (+) std(1) @ 0,1,0 (+) triv @ 0,0,1"
    )
    res = look(ds, text)
    assert res.match is None and res.mf is False
    assert any("two" in n for n in res.notes)


@pytest.mark.parametrize("n_summands", [2, 3])
def test_the_lookup_checks_charge_arity_as_realize_does(ds, n_summands):
    # one charge per summand on a group of two circles: no module, so no
    # table answer either, also where more than two summands would answer
    group = GroupSpec((Factor("su", 3),), ((1, 0), (0, 1)))
    rep = RepSpec((Summand((Term("std", 1),), charges=(1,)),) * n_summands)
    for build in (realize, lambda g, r: lookup_mf(g, r, ds)):
        with pytest.raises(RepresentationError, match="summand charge arity 1 != circles 2"):
            build(group, rep)


def test_lookup_matches_oracle_on_every_ia_row(ds):
    for entry in ds.mf_rows("Ia"):
        env = (entry.instantiations() or [{}])[0]
        group, rep = entry.pattern.instantiate(env)
        scal = GroupSpec(factors=group.factors, torus_lines=((1,),))
        rep_s = RepSpec(
            summands=tuple(
                Summand(terms=s.terms, dual=s.dual, charges=(1,))
                for s in rep.summands
            )
        )
        m = realize(scal, rep_s)
        if m.space_dim > 40:
            continue
        res = lookup_mf(scal, rep_s, ds)
        assert res.match is not None, entry.row
        assert res.mf == mf_test(m), (entry.row, env)


def test_lookup_matches_oracle_on_every_reducible_row_under_any_stars(ds):
    """Every IIa/IIb row at its first instantiation, under all four dual
    flag patterns and two independent scalars, matches a row whose verdict
    is the rank oracle's: a star on a self-dual summand is not compared."""
    checked = 0
    for entry in ds.mf_rows("IIa") + ds.mf_rows("IIb"):
        env = (entry.instantiations() or [{}])[0]
        group, rep = entry.pattern.instantiate(env)
        full = GroupSpec(factors=group.factors, torus_lines=((1, 0), (0, 1)))
        for stars in itertools.product((False, True), repeat=2):
            starred = RepSpec(
                summands=tuple(
                    Summand(terms=s.terms, dual=star, charges=(int(i == 0), int(i == 1)))
                    for i, (s, star) in enumerate(zip(rep.summands, stars))
                )
            )
            res = lookup_mf(full, starred, ds)
            assert res.match is not None, (entry.row, stars)
            assert res.mf == mf_test(realize(full, starred)), (entry.row, stars)
            checked += 1
    assert checked == 88


def test_slice_facts_lookup(ds):
    def slice_facts(space, subgroup):
        return [f for f in ds.slice_facts if f.space == space and f.subgroup == subgroup]

    facts = slice_facts("sp", "sp(k)+sp(m-k)")
    assert len(facts) == 1 and "std(1) (x) std(2)" in facts[0].slice
    facts = slice_facts("e7", "t1+e6")
    assert facts[0].orbit == "fixed-point"
    assert slice_facts("so", "u(m)")
    assert slice_facts("sp", "nothing-here") == []


def test_slice_dimension_identity(ds):
    """dim slice + dim orbit = dim_C M wherever the orbit dimension is
    recorded (the classical cases and symmetric exceptional orbits)."""
    from coisotropy.repdata import _summand_dim

    checked = 0
    for fact in ds.slice_facts:
        if not fact.orbitdim or not fact.slice:
            continue
        pat = parse_pattern(fact.slice)
        names = sorted(pat.parameters() | set())
        envs = []
        if not names:
            envs = [{}]
        else:
            for values in ((5, 2), (7, 3), (6, 2), (9, 4)):
                env = {n: v for n, v in zip(names, values)}
                try:
                    pat.instantiate(env)
                except Exception:
                    continue
                envs.append(env)
                if len(envs) == 2:
                    break
        for env in envs:
            group, rep = pat.instantiate(env)
            sdim = sum(_summand_dim(group, s) for s in rep.summands)
            orbit = eval_int_expr(fact.orbitdim, env) if fact.orbitdim else 0
            if fact.space in ("e7", "e6"):
                total = HSSpace(fact.space).complex_dim
            else:
                space_param = eval_int_expr(fact.param, env)
                total = HSSpace(fact.space, space_param).complex_dim
            assert sdim + orbit == total, fact.id
            checked += 1
    assert checked >= 10


def test_closed_form_summand_dimensions_match_the_matrix_models(ds):
    """The loader checks an instantiation by the closed-form dimension of
    each summand (_summand_dim, built on Factor.std_dim); it must be the
    dimension of the summand's matrix model, for every summand of the
    first three instantiations of every mftables.txt row."""
    from coisotropy.repdata import _summand_dim

    checked = 0
    for entry in ds.mf_entries:
        for env in entry.instantiations()[:3] or [{}]:
            group, rep = entry.pattern.instantiate(env)
            for sm in rep.summands:
                assert _summand_dim(group, sm) == realize(group, RepSpec((sm,))).space_dim, (entry.row, env)
                checked += 1
    assert checked == 120


def test_result_table_totality(ds):
    for table in ("1", "2", "3", "4"):
        rows = ds.results_for(table)
        assert rows
        for row in rows:
            assert row.verify
            assert row.outcome
            if row.verify in ("encoded-only", "encoded-nonpolar"):
                assert row.note or row.anchor


def test_the_recipe_vocabulary_is_one_list(ds):
    # the kinds documented in the results.txt header, the recipes of the
    # packaged rows and the recipes the loader accepts are the same names
    header = resources.files("coisotropy").joinpath("data", "results.txt").read_text()
    documented = re.findall(r"^#   ([a-z][a-z-]*) ", header, re.M)
    assert len(RECIPES) == 15
    assert sorted(documented) == sorted(RECIPES)
    assert {r.verify for r in ds.result_rows} == set(RECIPES)


def test_result_row_fields_are_parsed_on_construction(ds):
    rows = {r.row: r for r in ds.result_rows}
    assert rows["so14"].lines == ((1, 0, 0), (0, 1, 0), (2, 1, 0))
    assert rows["so14"].forbidden == ((1, 1, 0), (1, -1, 0))
    assert rows["e7S1"].scan == ("R", 12, 47)
    assert rows["sp5"].expect == (("ch", "4"), ("princ", "m-2"), ("coiso", "1"))
    assert rows["spE1"].candidate == parse_pattern("so(p) + sp(q) on triv")
    assert rows["so16"].slice is None and rows["so16"].slice_id == "S11"
    assert replace(rows["so14"], note="").lines == rows["so14"].lines


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"verify": "mf-slice"}, "needs slice="),
        ({"verify": "cohom-real"}, "needs realslice="),
        ({"verify": "scan", "scan": "R,12"}, "is not reality,degree,min_dim"),
        ({"verify": "poly", "poly": ""}, "needs poly="),
        ({"verify": "encoded-only"}, "needs a note"),
        ({"verify": "dim-fail", "lines": "1,x"}, "invalid literal"),
    ],
)
def test_a_result_row_checks_its_recipe_fields(fields, message):
    keys = {"table": "1", "row": "x", "algebra": "a", "space": "sp:1", "outcome": "o"}
    with pytest.raises(ValueError, match=message):
        ResultRow(**keys, **fields)


@pytest.mark.parametrize("slice_id", ["S1", "S11"])
def test_a_row_without_a_slice_takes_the_slice_of_its_fact(ds, tmp_path, slice_id):
    data = tmp_path / "data"
    shutil.copytree(Path(resources.files("coisotropy").joinpath("data")), data)
    path = data / "results.txt"
    text = path.read_text(encoding="utf-8")
    row_text = next(line for line in text.split("\n") if "row=sp2 " in line)
    edited = row_text.replace(' slice="su(m) + u1[1] on sym2(1) @ 2"', "")
    path.write_text(text.replace(row_text, edited.replace("slice_id=S1", f"slice_id={slice_id}")))
    if slice_id == "S11":  # a fact without a slice cannot serve a slice recipe
        with pytest.raises(DataError, match="S11 has no slice"):
            load_dataset(str(data))
        return
    sp2 = next(r for r in load_dataset(str(data)).result_rows if r.row == "sp2")
    assert sp2.slice == next(r for r in ds.result_rows if r.row == "sp2").slice


def test_a_cohom_real_row_without_its_model_rank_fails_at_its_line(tmp_path, monkeypatch):
    # the rank is the group rank the real block model is built with
    data = tmp_path / "data"
    shutil.copytree(Path(resources.files("coisotropy").joinpath("data")), data)
    path = data / "results.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lineno = next(n for n, line in enumerate(lines, start=1) if "row=e7r7 " in line)
    lines[lineno - 1] = lines[lineno - 1].replace(";rank=6", "")
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setenv(DATA_ENV_VAR, str(data))
    with pytest.raises(DataError, match=rf"results\.txt:{lineno}: verify=cohom-real needs expect=rank"):
        load_dataset()


@pytest.mark.parametrize(
    "row,spelling", [("e7r1", "e7/t1.e6"), ("e6r1", "e6/t1.spin(10)")], ids=["e7", "e6"]
)
def test_a_long_space_spelling_fails_at_its_line(tmp_path, monkeypatch, row, spelling):
    # a space field is sp:EXPR, so:EXPR, e7 or e6
    data = tmp_path / "data"
    shutil.copytree(Path(resources.files("coisotropy").joinpath("data")), data)
    path = data / "results.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lineno = next(n for n, line in enumerate(lines, start=1) if f"row={row} " in line)
    short = f'space="{spelling[:2]}"'
    assert short in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(short, f'space="{spelling}"')
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setenv(DATA_ENV_VAR, str(data))
    with pytest.raises(DataError, match=rf"results\.txt:{lineno}: bad space field '{re.escape(spelling)}'"):
        load_dataset()


def _empty_dataset(directory):
    for name in ("mftables.txt", "maxsub.txt", "slices.txt", "results.txt", "sympairs.txt", "lemma21.txt"):
        (directory / name).write_text(f"format={name[:-4]} version=1\n")


@pytest.mark.parametrize(
    "old,new,message",
    [
        ('degree="2*m"', 'degree="2*"', "bad expression '2\\*'"),
        ('cond="p * q == m and p >= 3 and q >= 1"', 'cond="p q == m"', "bad expression 'p q == m'"),
        ('subgroup="U({m})"', 'subgroup="U({m/2})"', "use // for division"),
        ("kind=unitary ", "kind=unitarian ", "unknown kind 'unitarian'"),
        ("ambient=sp row=i ", "ambient=spin row=i ", "unknown ambient 'spin'"),
    ],
    ids=["degree", "cond", "subgroup", "kind", "ambient"],
)
def test_a_malformed_maxsub_row_fails_at_its_line(tmp_path, monkeypatch, old, new, message):
    # nothing evaluates tables III-V, so their rows are checked on loading
    data = tmp_path / "data"
    shutil.copytree(Path(resources.files("coisotropy").joinpath("data")), data)
    path = data / "maxsub.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lineno = next(n for n, line in enumerate(lines, start=1) if old in line)
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setenv(DATA_ENV_VAR, str(data))
    with pytest.raises(DataError, match=rf"maxsub\.txt:{lineno}: {message}"):
        load_dataset()


def test_environment_override(tmp_path, monkeypatch):
    # a dataset directory override must be honored and validated
    _empty_dataset(tmp_path)
    assert load_dataset(str(tmp_path)).mf_entries == []
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    assert load_dataset() is load_dataset(str(tmp_path))


def test_a_changed_data_variable_is_read_on_the_next_load(tmp_path, monkeypatch):
    monkeypatch.delenv(DATA_ENV_VAR, raising=False)
    packaged = load_dataset()
    assert packaged.mf_entries
    _empty_dataset(tmp_path)
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    assert load_dataset().mf_entries == []
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path / "nonexistent"))
    with pytest.raises(OSError):
        load_dataset()
    monkeypatch.delenv(DATA_ENV_VAR)
    assert load_dataset() is packaged


def test_corrected_rows_are_the_documented_set(ds):
    corrected = {
        (r.table, r.row)
        for r in ds.result_rows
        if r.algebra_corrected
        or r.space_corrected
        or r.cond_corrected
        or (r.verbatim_outcome and r.verbatim_outcome != r.outcome)
    }
    assert corrected == {
        ("1", "sp2"),
        ("1", "so7"),
        ("1", "so8"),
        ("1", "so14"),
        ("2", "e6E2"),
        ("3", "p2"),
        ("3", "p7"),
        ("4", "q6"),
    }


def test_every_iib_row_needs_both_scalars(ds):
    """Each reducible row of the both-scalars table passes with independent
    scalars and fails whenever one of the two is dropped."""
    for entry in ds.mf_rows("IIb"):
        env = (entry.instantiations() or [{}])[0]
        group, rep = entry.pattern.instantiate(env)
        lines = ((1, 0), (0, 1))
        full_rep = RepSpec(
            summands=tuple(
                Summand(
                    terms=s.terms,
                    dual=s.dual,
                    charges=tuple(int(j == i) for j in range(2)),
                )
                for i, s in enumerate(rep.summands)
            )
        )
        full = GroupSpec(factors=group.factors, torus_lines=lines)
        m = realize(full, full_rep)
        if m.space_dim > 64:
            continue
        assert mf_test(m), (entry.row, env)
        for idx in range(2):
            single = GroupSpec(factors=group.factors, torus_lines=(lines[idx],))
            assert not mf_test(realize(single, full_rep)), (entry.row, env, idx)
