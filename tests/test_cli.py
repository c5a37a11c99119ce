import io
import itertools
import shutil
import sys
from pathlib import Path

import pytest

from coisotropy import classify, repdata
from coisotropy.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_weyldim(capsys):
    code, out = run_cli(["weyldim", "G2", "1,0"], capsys)
    assert code == 0 and out.strip() == "7"
    code, out = run_cli(["weyldim", "E7", "0,0,0,0,0,0,1"], capsys)
    assert code == 0 and out.strip() == "56"


def test_weyldim_verbose(capsys):
    code, out = run_cli(["weyldim", "A1", "1", "--verbose"], capsys)
    assert code == 0 and "borel dimension 2" in out
    assert "quaternionic" in out


def test_mf_check(capsys):
    code, out = run_cli(["mf-check", "su(4) + u1[1] on alt2(1) @ 1"], capsys)
    assert code == 0
    assert "multiplicity free: True" in out
    assert "table match: Ia row 5 (n=4; policy required, condition True)" in out
    assert "removability condition fails" in out
    # two pattern factors on one concrete factor match no row
    code, out = run_cli(["mf-check", "su(3) + u1[1] on std(1) (x) std(1) @ 1"], capsys)
    assert code == 0
    assert "multiplicity free: False" in out and "table match: none" in out


def test_mf_check_parse_error(capsys):
    code, out = run_cli(["mf-check", "su(4 on std(1)"], capsys)
    assert code == 2 and "error:" in out


def test_cohom(capsys):
    code, out = run_cli(["cohom", "su(3) + u1[1] on std(1) @ 1"], capsys)
    assert code == 0
    assert "cohomogeneity: 1" in out
    assert "coisotropic: True" in out


def test_polyscan(capsys):
    code, out = run_cli(["polyscan"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "PASS family 3.2: x^2 (q^2 - 1) + x (q - 1) - q^2 - q + 2 > 0",
        "PASS family 3.3: x^2 (2 q^2 - 1) + 2 x q - 4 q^2 - 4 q > 0",
        "PASS family 4.2: x^2 (q^2 - 1) - x (q + 1) - q^2 - q + 2 > 0",
        "  note: stated f(3) values {2: 16, 3: 52, 4: 104} differ from the definition's "
        "{2: 14, 3: 50, 4: 102}; the restated value of f(3) carries a +4 for the defining +2",
        "PASS family 4.5: x^2 (p^2 - 2) - 2 p^2 - 1 > 0",
        "  note: stated f(3) values {3: -10, 4: -3, 5: 6} differ from the definition's "
        "{3: 44, 4: 93, 5: 156}; the stated f(3) = p^2 - 19 disagrees with the definition, "
        "whose value is 7 p^2 - 19; the claimed form is positive only from p = 5 while the "
        "true value is positive on the whole range",
    ]


def test_spin_scan(capsys):
    code, out = run_cli(["spin-scan", "--max-rank", "8"], capsys)
    assert code == 0 and "G2" in out


def test_triple_test(capsys):
    code, out = run_cli(["triple-test"], capsys)
    assert code == 0 and out.count("PASS") == 3


def test_table_rows_and_records(capsys, tmp_path):
    report = tmp_path / "out.txt"
    code, out = run_cli(
        ["--report", str(report), "--format", "records", "table", "1", "--rows", "sp1,sp3"],
        capsys,
    )
    assert code == 0
    assert "row=sp1" in out and "outcome=coisotropic" in out
    assert report.read_text() == out


def test_table_text_format(capsys):
    code, out = run_cli(["table", "3", "--rows", "p6,pE1"], capsys)
    assert code == 0
    assert "PASS" in out and "0 mismatches" in out


@pytest.mark.parametrize(
    "error", ["GenericityError", "OracleDisagreement", "NotRealizable", "RepresentationError"]
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_undecided_row_leaves_the_other_verdicts(monkeypatch, capsys, error, jobs):
    real, calls = classify.mf_test, itertools.count()

    def flaky(rep, seed):
        # the first oracle call of the run raises; every other call answers
        if next(calls) == 0:
            raise getattr(classify, error)("injected")
        return real(rep, seed=seed)

    argv = ["--format", "records", "table", "1", "--rows", "sp1,sp3", "--jobs", jobs]
    code, out = run_cli(argv, capsys)
    assert code == 0
    decided = out.splitlines()
    monkeypatch.setattr(classify, "mf_test", flaky)
    code, out = run_cli(argv, capsys)
    assert code == 3
    records = out.splitlines()
    assert records[-1] == f"{len(decided) - 1} verdicts, 0 mismatches, 1 undecided"
    undecided = [line for line in records if "outcome=undecided" in line]
    assert len(undecided) == 1 and "ok=False" in undecided[0]
    assert "evidence=\"undecided[" in undecided[0] and f"'error': '{error}'" in undecided[0]
    # the other rows print the verdicts of an undisturbed run
    assert set(records[:-1]) - set(undecided) == set(decided[:-1]) - {decided[records.index(undecided[0])]}


def test_validate_data(capsys):
    code, out = run_cli(["validate-data"], capsys)
    assert code == 0 and out == (
        "tables: 42 multiplicity-free rows, 14 maximal-subgroup rows, "
        "28 slice facts, 103 result rows\n"
    )



def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("command", ["mf-check", "cohom"])
def test_there_is_no_chirality_option(command, capsys):
    # a spin term is the omega_r half-spin; the other is a weight term
    assert main([command, "so(10) on spin(1)", "--negative-chirality"]) == 2
    assert "--negative-chirality" in capsys.readouterr().err


def test_there_is_no_limit_option(capsys):
    # polyscan proves each family for every parameter value; there is no grid
    assert main(["polyscan", "--limit", "60"]) == 2
    assert "--limit" in capsys.readouterr().err


def test_lemma21_small(capsys):
    code, out = run_cli(["lemma21", "--max-rank", "6"], capsys)
    assert code == 0
    assert "PASS first inequality exception list" in out
    assert "borel-f4 stated=31 formula=28" in out


@pytest.mark.parametrize("jobs", ["0", "-4", "two"])
def test_table_jobs_must_be_positive(jobs, capsys):
    assert main(["table", "3", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("widen", ["-1", "-5", "x"])
def test_table_widen_params_must_not_be_negative(widen, capsys):
    assert main(["table", "3", "--widen-params", widen]) == 2
    assert "--widen-params" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["weyldim", "A", "1"],
        ["weyldim", "A3", "1,x,0"],
        ["lemma21", "--max-rank", "5"],
        ["spin-scan", "--max-rank", "3"],
    ],
)
def test_rejected_arguments_are_usage_errors(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert [line for line in out.splitlines() if line] == [out.strip()]
    assert out.startswith("error: ")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["table", "1", "--rows", "zz"], ["table 1 has no rows zz"]),
        (["table", "3", "--rows", "p6,nope,zz"], ["no rows nope, zz"]),
    ],
    ids=["table-unknown-row", "table-some-unknown-rows"],
)
def test_runs_that_would_check_nothing_are_usage_errors(argv, names, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert [line for line in out.splitlines() if line] == [out.strip()]
    assert out.startswith("error: ") and all(name in out for name in names)
    assert "PASS" not in out and "verdicts" not in out


@pytest.mark.parametrize("command", ["mf-check", "cohom"])
def test_a_missing_spec_file_is_a_usage_error(command, capsys, tmp_path):
    missing = tmp_path / "no-such-spec.txt"
    code, out = run_cli([command, str(missing), "--from-file"], capsys)
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1 and str(missing) in out


def test_an_unwritable_report_is_a_usage_error(capsys, tmp_path):
    report = tmp_path / "no-such-dir" / "x.txt"
    code, out = run_cli(["--report", str(report), "weyldim", "G2", "1,0"], capsys)
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1 and str(report) in out
    assert not report.parent.exists()


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A copy of the packaged dataset that LIE_COISO_DATA points at."""
    data = tmp_path / "data"
    shutil.copytree(Path(repdata.__file__).parent / "data", data)
    monkeypatch.setenv(repdata.DATA_ENV_VAR, str(data))
    return data


def _edit_line(path, marker, old, new):
    """Replace old by new on the first line of path holding marker; returns
    the path and the line's number."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lineno = next(i for i, line in enumerate(lines, 1) if marker in line)
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path, lineno


@pytest.mark.parametrize(
    "name, marker, old, new, names",
    [
        ("results.txt", "row=so14 ", " verify=slice-fail", "", ["missing", "'verify'"]),
        ("results.txt", "row=so14 ", " forbidden=", " forbiden=", ["'forbiden'"]),
        ("slices.txt", "id=S10 ", " source=", " colour=red source=", ["'colour'"]),
        ("mftables.txt", "row=5 ", "alt2(1)", "alt3(1)", ["expected a term"]),
        ("results.txt", "row=sp5 ", "verify=cohom-slice", "verify=cohom-slise", ["'cohom-slise'"]),
        ("results.txt", "row=sp2 ", "drop=false", "drop=flase", ["'flase'"]),
        ("results.txt", "row=sp5 ", 'expect="ch=4;', 'expect="chh=4;', ["'chh=4'"]),
        ("mftables.txt", "row=5 ", 'inst="n=4|n=5"', 'inst="n=3|n=5"', ["{'n': 3} violates"]),
        ("mftables.txt", "row=1 ", 'inst="n=1|n=2|n=3"', 'inst="n=1|n2"', ["inst chunk 'n2' is not name=integer"]),
        ("results.txt", "row=so16 ", "slice_id=S11", "slice_id=S99", ["'S99'"]),
        ("results.txt", "row=e6S2 ", 'scan="H,8,26"', 'scan="X,8,26"', ["'X,8,26'"]),
        ("results.txt", "row=spE1 ", 'space="sp:p*q"', 'space="Sq:m"', ["'Sq:m'"]),
        ("results.txt", "row=spE1 ", 'space="sp:p*q"', 'space="sp:p*"', ["bad expression 'p*'"]),
        ("results.txt", "row=spP1 ", "poly=3.2", "poly=3.9", ["'3.9'"]),
        ("results.txt", "row=e7r7 ", "spin8", "spin9", ["'spin9'"]),
        ("mftables.txt", "row=1 ", "std(1)", "std(2)", ["factor index 2 out of range"]),
        ("slices.txt", "id=S10 ", 'orbitdim="1"', 'orbitdim="1', ["unclosed or misplaced quote"]),
        ("slices.txt", "id=S10 ", " source=", " stray source=", ["field 'stray' is not key=value"]),
    ],
    ids=[
        "missing-key",
        "misspelt-key",
        "unknown-key",
        "malformed-pattern",
        "unknown-recipe",
        "unknown-drop",
        "unknown-expect-name",
        "inst-outside-cond",
        "malformed-inst",
        "unknown-slice-id",
        "unknown-scan-reality",
        "unknown-space-label",
        "malformed-space-expression",
        "unknown-poly",
        "unknown-real-block",
        "factor-index-out-of-range",
        "unclosed-quote",
        "bare-field",
    ],
)
def test_a_bad_dataset_record_is_a_usage_error(data_copy, name, marker, old, new, names, capsys):
    path, lineno = _edit_line(data_copy / name, marker, old, new)
    code, out = run_cli(["table", "1"], capsys)
    assert code == 2
    assert out.count("\n") == 1 and out.startswith(f"error: {path}:{lineno}: ")
    assert all(n in out for n in names)


@pytest.mark.parametrize(
    "marker, old, new",
    [
        ("row=spE1 ", 'space="sp:p*q"', 'space="Sq:m"'),
        ("row=spP1 ", "poly=3.2", "poly=3.9"),
        ("row=e7r7 ", "spin8", "spin9"),
    ],
    ids=["unknown-space-label", "unknown-poly", "unknown-real-block"],
)
def test_a_bad_recipe_value_fails_every_table(data_copy, marker, old, new, capsys):
    # the row is checked when the dataset loads, not when its table runs
    path, lineno = _edit_line(data_copy / "results.txt", marker, old, new)
    for table in ("1", "2", "3", "4"):
        code, out = run_cli(["table", table], capsys)
        assert code == 2
        assert out.count("\n") == 1 and out.startswith(f"error: {path}:{lineno}: ")


def test_validate_data_reports_a_malformed_record(data_copy, capsys):
    path, lineno = _edit_line(data_copy / "slices.txt", "id=S10 ", " source=", " stray source=")
    code, out = run_cli(["validate-data"], capsys)
    assert code == 2 and out.startswith(f"error: {path}:{lineno}: ")
