import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coisotropy import dsl
from coisotropy.dsl import (
    ParseError,
    eval_condition,
    eval_int_expr,
    parse_pattern,
    parse_repspec,
    print_repspec,
)
from coisotropy.matrep import Factor, GroupSpec, RepSpec, Summand, Term
from reference import match_tokenize


def test_basic_spec():
    group, rep = parse_repspec("su(4) + u1[1] on alt2(1) @ 1")
    assert group.factors == (Factor("su", 4),)
    assert group.torus_lines == ((1,),)
    assert rep.summands[0].terms[0].kind == "alt2"
    assert rep.summands[0].charges == (1,)


def test_two_summand_spec():
    group, rep = parse_repspec(
        "su(5) + u1[1,1] on std(1) @ 1,0 (+) alt2(1) @ 0,1"
    )
    assert len(rep.summands) == 2
    assert group.n_circles == 2


def test_dual_marker_and_tensor():
    group, rep = parse_repspec("su(2) + sp(3) on std(1) (x) std(2) *")
    assert rep.summands[0].dual
    assert [t.factor for t in rep.summands[0].terms] == [1, 2]


def test_empty_input_position():
    with pytest.raises(ParseError) as err:
        parse_repspec("")
    assert err.value.line == 1 and err.value.col == 1


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_repspec("su(4) on bogus(1)")
    assert err.value.line == 1 and err.value.col == 10
    with pytest.raises(ParseError):
        parse_repspec("su(4)")  # missing module
    with pytest.raises(ParseError):
        parse_repspec("su(n) on std(1)")  # symbolic in concrete mode
    with pytest.raises(ParseError):
        parse_repspec("su(4) on std(1) trailing")


def test_error_positions_past_the_first_line():
    # line 2 counts its columns from its own start; trailing whitespace,
    # on a line or at the end of the input, is no token
    with pytest.raises(ParseError) as err:
        parse_repspec("su(4) +\n  u1[1] on $td(1)")
    assert (err.value.line, err.value.col) == (2, 12)
    assert str(err.value) == "2:12: unexpected character ' $'"
    with pytest.raises(ParseError) as err:
        parse_repspec("su(4) on   \nstd(1) @ 1 \t\n  bogus(1)  ")
    assert (err.value.line, err.value.col) == (3, 3)
    with pytest.raises(ParseError) as err:
        parse_repspec("su(4) on std(1) @   \n  ")
    assert (err.value.line, err.value.col) == (2, 1)  # at end of input
    assert parse_repspec("su(4) on  \n std(1)  \n") == parse_repspec("su(4) on std(1)")


def _dataset_pattern_texts():
    """Every text the dataset loader parses as a pattern."""
    from coisotropy import repdata

    texts, tokenize = [], dsl._tokenize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_tokenize", lambda text: texts.append(text) or tokenize(text))
        repdata._load_dataset.__wrapped__(None)
    return texts


def _stream_round_specs():
    """The spec texts of one mf_stream round: every instantiation of tables
    Ia (bare and with one scalar line), IIa and IIb (with the charge lines
    (1, -2) and (1, -2), (2, 3))."""
    from coisotropy.repdata import load_dataset

    for table in ("Ia", "IIa", "IIb"):
        for entry in load_dataset().mf_rows(table):
            for env in entry.instantiations() or [{}]:
                group, rep = entry.pattern.instantiate(env)
                if table == "Ia":
                    if group.dim:
                        yield print_repspec(group, rep)
                    charged = tuple(Summand(s.terms, s.dual, (1,)) for s in rep.summands)
                    yield print_repspec(GroupSpec(group.factors, ((1,),)), RepSpec(charged))
                    continue
                first, second = rep.summands
                charged = (Summand(first.terms, first.dual, (1, 0)), Summand(second.terms, second.dual, (0, 1)))
                for lines in (((1, -2),), ((1, -2), (2, 3))):
                    yield print_repspec(GroupSpec(group.factors, lines), RepSpec(charged))


def test_tokens_equal_the_match_reference():
    """One finditer pass per line gives the tokens of one match at a time,
    on every dataset pattern, every spec of an mf_stream round and the
    error cases."""
    patterns, specs = _dataset_pattern_texts(), list(_stream_round_specs())
    assert (len(patterns), len(specs)) == (109, 133)
    texts = patterns + specs
    texts += ["", "  ", "su(4) on std(1) $", "su(4) +\n u1[-1] on\ttriv  \n", "a//b-1 (x)(+)*@[,]"]
    for text in texts:
        try:
            want = match_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                dsl._tokenize(text)
            assert (str(err.value), err.value.line, err.value.col) == (str(exc), exc.line, exc.col)
            continue
        assert dsl._tokenize(text) == want, text


def test_pattern_parameters_and_instantiation():
    pat = parse_pattern("su(2*m+1) + u1[1,0] on std(1) @ a,0 (+) alt2(1) @ 0,1")
    assert pat.parameters() == {"m", "a"}
    group, rep = pat.instantiate({"m": 2, "a": -3})
    assert group.factors[0].n == 5
    assert rep.summands[0].charges == (-3, 0)


def test_pattern_line_normalization():
    pat = parse_pattern("u1[2*k,2] on triv @ 1,1")
    group, _ = pat.instantiate({"k": 2})
    assert group.torus_lines == ((2, 1),)  # primitive form


def test_eval_int_expr_guards():
    assert eval_int_expr("2*m + 1", {"m": 3}) == 7
    assert eval_int_expr("(m - k) // 2", {"m": 7, "k": 3}) == 2
    with pytest.raises(ValueError):
        eval_int_expr("__import__('os')", {})
    with pytest.raises(ValueError):
        eval_int_expr("m / 2", {"m": 4})
    with pytest.raises(ValueError):
        eval_int_expr("q", {"m": 1})


def test_eval_condition():
    assert eval_condition("", {})
    assert eval_condition("n >= 4", {"n": 5})
    assert not eval_condition("a != b", {"a": 2, "b": 2})
    assert eval_condition("a != -m*b", {"a": 1, "b": 1, "m": 2})


_factor_kinds = st.sampled_from(["su", "so", "sp"])


@st.composite
def _specs(draw):
    n_factors = draw(st.integers(min_value=1, max_value=3))
    factors = []
    for _ in range(n_factors):
        kind = draw(_factor_kinds)
        low = {"su": 2, "so": 5, "sp": 1}[kind]
        factors.append(Factor(kind, draw(st.integers(min_value=low, max_value=7))))
    n_circles = draw(st.integers(min_value=0, max_value=2))
    lines = []
    if n_circles:
        for i in range(n_circles):
            vec = [0] * n_circles
            vec[i] = 1
            lines.append(tuple(vec))
    group = GroupSpec(factors=tuple(factors), torus_lines=tuple(lines))
    summands = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            fidx = draw(st.integers(min_value=1, max_value=n_factors))
            kind = draw(st.sampled_from(["std", "sym2", "alt2"]))
            terms.append(Term(kind, fidx))
        charges = tuple(
            draw(st.integers(min_value=-3, max_value=3)) for _ in range(n_circles)
        )
        summands.append(
            Summand(terms=tuple(terms), dual=draw(st.booleans()), charges=charges)
        )
    return group, RepSpec(tuple(summands))


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_print_parse_round_trip(spec):
    group, rep = spec
    text = print_repspec(group, rep)
    group2, rep2 = parse_repspec(text)
    assert (group2, rep2) == (group, rep)


def test_round_trip_on_dataset_examples():
    for text in (
        "su(4) + u1[1] on alt2(1) @ 1",
        "su(5) + u1[1,1] on std(1) @ 1,0 (+) alt2(1) @ 0,1",
        "so(10) + u1[1,0] + u1[0,1] on spin(1) @ 0,1 (+) triv @ 1,0",
        "e6(6) + u1[1] on std(1) @ 1",
    ):
        group, rep = parse_repspec(text)
        assert parse_repspec(print_repspec(group, rep)) == (group, rep)


def test_every_slice_fact_round_trips_through_the_printer():
    # each slice pattern at its first small instantiation that elaborates
    from coisotropy.repdata import load_dataset

    untested = []
    for fact in load_dataset().slice_facts:
        if not fact.slice:
            continue
        pat = parse_pattern(fact.slice)
        names = sorted(pat.parameters())
        small = ((5, 2), (7, 3), (2, 5), (3, 6), (9, 4), (6, 1))
        for env in [dict(zip(names, values)) for values in small] if names else [{}]:
            try:
                group, rep = pat.instantiate(env)
            except ValueError:
                continue  # instantiation guards are fact-specific
            assert parse_repspec(print_repspec(group, rep)) == (group, rep), fact.id
            break
        else:
            untested.append(fact.id)
    assert untested == []


def test_an_out_of_range_factor_index_is_rejected():
    with pytest.raises(ValueError, match="factor index 2 out of range"):
        parse_repspec("su(2) on std(2)")
    with pytest.raises(ValueError, match="factor index 3 out of range"):
        parse_pattern("su(n) + sp(m) on std(1) (x) std(3)").instantiate({"n": 2, "m": 1})


def test_print_repspec_rejects_a_weight_term():
    # the grammar has no weight term, so printing one could not round-trip
    group = GroupSpec(factors=(Factor("sp", 2),))
    rep = RepSpec(summands=(Summand(terms=(Term("weight", 1, (0, 1)),)),))
    with pytest.raises(ValueError, match=r"weight\(1\) term \(0, 1\)"):
        print_repspec(group, rep)
