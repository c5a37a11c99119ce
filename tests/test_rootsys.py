import copy
import gc
import itertools
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coisotropy import classify, rootsys
from coisotropy.rootsys import (
    DominantWeight,
    RootSystemError,
    SimpleType,
    _exact_div,
    _weyl_dims,
    _simple_roots_orthogonal,
    borel_dim,
    build_root_system,
    classify_rep_field,
    enumerate_dominant_weights,
    lemma_search_bound,
    paper_family_types,
    spin_search_bound,
    weyl_dim,
)
from reference import recursive_dominant_weights, string_probe_positive_roots


def rs(fam, r):
    return build_root_system(SimpleType(fam, r))


def w(*coeffs):
    return DominantWeight(tuple(coeffs))


def fund(r, i):
    return DominantWeight.fundamental(r, i)


def test_simple_type_validation():
    with pytest.raises(RootSystemError):
        SimpleType("D", 2)
    with pytest.raises(RootSystemError):
        SimpleType("E", 5)
    with pytest.raises(RootSystemError):
        SimpleType("X", 3)
    with pytest.raises(RootSystemError):
        SimpleType("F", 3)
    assert str(SimpleType("G", 2)) == "G2"


@pytest.mark.parametrize(
    "fam,r,npos",
    [
        ("A", 1, 1),
        ("A", 5, 15),
        ("B", 2, 4),
        ("B", 4, 16),
        ("C", 3, 9),
        ("D", 3, 6),
        ("D", 4, 12),
        ("D", 6, 30),
        ("G", 2, 6),
        ("F", 4, 24),
        ("E", 6, 36),
        ("E", 7, 63),
        ("E", 8, 120),
    ],
)
def test_positive_root_counts(fam, r, npos):
    system = rs(fam, r)
    assert system.n_positive_roots == npos
    # |positive roots| = borel dim - rank
    assert system.n_positive_roots == borel_dim(system) - r


def test_rho_pairings_are_one_on_simple_roots():
    for fam, r in [("A", 3), ("B", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]:
        system = rs(fam, r)
        for i, root in enumerate(system.positive_roots):
            if sum(root) == 1:
                assert system.rho_pairings[i] == 1


def test_weyl_dim_defining_modules():
    assert weyl_dim(rs("A", 1), w(1)) == 2
    assert weyl_dim(rs("A", 3), fund(3, 0)) == 4
    assert weyl_dim(rs("B", 3), fund(3, 0)) == 7
    for m in range(2, 13):
        assert weyl_dim(rs("C", m), fund(m, 0)) == 2 * m


def test_weyl_dim_minimal_exceptional_degrees():
    minima = {("G", 2): 7, ("F", 4): 26, ("E", 6): 27, ("E", 7): 56, ("E", 8): 248}
    for (fam, r), value in minima.items():
        system = rs(fam, r)
        assert min(weyl_dim(system, fund(r, i)) for i in range(r)) == value


def test_weyl_dim_rank_three_orthogonal():
    d3 = rs("D", 3)
    assert weyl_dim(d3, w(2, 0, 0)) == 20
    assert weyl_dim(d3, w(1, 1, 0)) == 20
    assert weyl_dim(d3, w(0, 1, 1)) == 15
    assert weyl_dim(d3, w(0, 2, 0)) == 10
    assert weyl_dim(d3, w(0, 0, 2)) == 10
    # the two spin weights are four dimensional
    assert weyl_dim(d3, w(0, 1, 0)) == 4
    assert weyl_dim(d3, w(0, 0, 1)) == 4


def test_weyl_dim_adjoint_family():
    for m in range(3, 13):
        system = rs("A", m - 1)
        adjoint = DominantWeight(
            tuple(1 if i in (0, m - 2) else 0 for i in range(m - 1))
        )
        assert weyl_dim(system, adjoint) == m * m - 1


def test_weyl_dim_zero_weight_is_one():
    for fam, r in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("E", 6)]:
        system = rs(fam, r)
        assert weyl_dim(system, DominantWeight((0,) * r)) == 1


def test_weyl_dim_highest_root_is_adjoint():
    for fam, r in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        system = rs(fam, r)
        k = system.positive_roots.index(max(system.positive_roots, key=sum))
        highest = DominantWeight(tuple(system.root_pairings[k].tolist()))
        assert weyl_dim(system, highest) == system.dim_g


@pytest.mark.parametrize(
    "fam,r,expected",
    [("A", 3, 9), ("C", 3, 12), ("G", 2, 8), ("E", 6, 42), ("E", 7, 70), ("F", 4, 28), ("E", 8, 128)],
)
def test_borel_dims(fam, r, expected):
    assert borel_dim(rs(fam, r)) == expected


def test_duality_table():
    a3 = rs("A", 3)
    assert a3.dual_weight(w(1, 0, 0)) == w(0, 0, 1)
    assert a3.dual_weight(w(1, 2, 0)) == w(0, 2, 1)
    d5 = rs("D", 5)
    assert d5.dual_weight(w(0, 0, 0, 1, 0)) == w(0, 0, 0, 0, 1)
    d4 = rs("D", 4)
    assert d4.dual_weight(w(0, 0, 1, 0)) == w(0, 0, 1, 0)
    e6 = rs("E", 6)
    assert e6.dual_weight(w(1, 0, 0, 0, 0, 0)) == w(0, 0, 0, 0, 0, 1)
    for fam, r in [("B", 3), ("C", 4), ("G", 2), ("F", 4), ("E", 7)]:
        system = rs(fam, r)
        x = DominantWeight(tuple(range(1, r + 1)))
        assert system.dual_weight(x) == x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_duality_preserves_dimension(data):
    fam, r = data.draw(
        st.sampled_from([("A", 4), ("D", 5), ("E", 6), ("B", 3), ("C", 3)])
    )
    system = rs(fam, r)
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=2)) for _ in range(r)
    )
    x = DominantWeight(coeffs)
    assert weyl_dim(system, x) == weyl_dim(system, system.dual_weight(x))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dimension_monotone_under_coefficient_increase(data):
    fam, r = data.draw(st.sampled_from([("A", 3), ("B", 3), ("G", 2), ("D", 4)]))
    system = rs(fam, r)
    lo = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(r))
    hi = tuple(c + data.draw(st.integers(min_value=0, max_value=2)) for c in lo)
    dlo = weyl_dim(system, DominantWeight(lo))
    dhi = weyl_dim(system, DominantWeight(hi))
    assert dhi >= dlo
    if hi != lo:
        assert dhi > dlo


def test_enumerate_small_rank_one():
    got = dict(enumerate_dominant_weights(rs("A", 1), 3))
    assert got == {w(1): 2, w(2): 3}


def test_enumerate_seven_exceptional():
    got = dict(enumerate_dominant_weights(rs("G", 2), 7))
    assert got == {w(1, 0): 7}


def test_enumerate_matches_box_search():
    # independent oracle: direct scan of a coefficient box
    system = rs("D", 3)
    bound = 10
    expected = {}
    for coeffs in itertools.product(range(4), repeat=3):
        if not any(coeffs):
            continue
        d = weyl_dim(system, DominantWeight(coeffs))
        if d <= bound:
            expected[DominantWeight(coeffs)] = d
    got = dict(enumerate_dominant_weights(system, bound))
    assert got == expected
    assert got[w(0, 2, 0)] == 10 and got[w(0, 0, 2)] == 10


def test_enumerate_rejects_bad_bound():
    with pytest.raises(RootSystemError):
        enumerate_dominant_weights(rs("A", 1), 0)


@pytest.mark.parametrize("stype", paper_family_types(16), ids=str)
def test_enumerate_equals_the_recursive_reference(stype):
    system = build_root_system(stype)
    for bound in (1, 3, 12, 30, 100, 500):
        got = [(x.coeffs, d) for x, d in enumerate_dominant_weights(system, bound)]
        assert got == [(x.coeffs, d) for x, d in recursive_dominant_weights(system, bound)]


def test_enumerate_has_no_recursion_limit():
    # one search level per coefficient sum, 4999 of them for A1
    got = enumerate_dominant_weights(rs("A", 1), 5000)
    assert got == [(w(k), k + 1) for k in range(1, 5000)]


def test_a_batch_across_the_int64_guard_equals_weyl_dim():
    # one row above the guard puts the whole batch in Python ints; in
    # int64 its pairings with the highest coroot would wrap
    e8 = rs("E", 8)
    big = (2**60, 0, 0, 2**61, 0, 0, 0, 1)
    assert max(big) >= e8._int64_weights_below
    rows = [(0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0), big, (0, 0, 0, 0, 0, 0, 2, 1)]
    dims = _weyl_dims(e8, rows)
    assert dims == [weyl_dim(e8, DominantWeight(row)) for row in rows]
    assert dims[:2] == [1, 3875] and all(type(d) is int for d in dims)
    # the small rows alone stay below the guard
    assert _weyl_dims(e8, rows[:2] + rows[3:]) == dims[:2] + dims[3:]


def test_a_non_divisible_weyl_product_names_the_weight():
    # the corrupted A2 of test_corrupted_pairing_row_is_caught
    system = copy.deepcopy(rs("A", 2))
    system._pairing[system.positive_roots.index((1, 0))] = np.array([2, 0])
    message = "Weyl product for 1,0 is not divisible by 2"
    with pytest.raises(RootSystemError, match=message):
        weyl_dim(system, w(1, 0))
    with pytest.raises(RootSystemError, match=message):
        enumerate_dominant_weights(system, 10)


@pytest.mark.parametrize(
    "fam,r,coeffs,expected",
    [
        ("A", 1, (1,), "quaternionic"),
        ("A", 1, (2,), "real"),
        ("A", 2, (1, 0), "complex"),
        ("B", 2, (0, 1), "quaternionic"),
        ("B", 3, (0, 0, 1), "real"),
        ("D", 4, (1, 0, 0, 0), "real"),
        ("D", 5, (0, 0, 0, 0, 1), "complex"),
        ("C", 3, (1, 0, 0), "quaternionic"),
        ("G", 2, (1, 0), "real"),
        ("E", 6, (1, 0, 0, 0, 0, 0), "complex"),
        ("E", 7, (0, 0, 0, 0, 0, 0, 1), "quaternionic"),
    ],
)
def test_classify_rep_field(fam, r, coeffs, expected):
    assert classify_rep_field(rs(fam, r), w(*coeffs)) == expected


def test_paper_family_types_basis():
    types = paper_family_types(6)
    names = {str(t) for t in types}
    assert "A1" in names and "B2" in names and "C3" in names and "D3" in names
    assert "C2" not in names and "B1" not in names and "D2" not in names
    assert {"G2", "F4", "E6", "E7", "E8"} <= names


def test_lemma_search_bound_certificate():
    for fam, r in [("A", 3), ("B", 4), ("E", 8)]:
        system = rs(fam, r)
        bound = lemma_search_bound(system)
        b = borel_dim(system)
        d0 = bound + 1
        assert d0 * (d0 - 1) > 2 * (1 + b)


def test_failed_self_certificates_raise(monkeypatch):
    # these checks must hold under python -O too, so they raise, not assert
    with pytest.raises(RootSystemError, match="dim g \\+ rank = 5 is odd"):
        borel_dim(SimpleNamespace(dim_g=4, rank=1))
    monkeypatch.setattr(rootsys, "isqrt", lambda n: 0)
    with pytest.raises(RootSystemError, match="lemma search bound 3 fails its own certificate"):
        lemma_search_bound(rs("A", 3))
    with pytest.raises(RootSystemError, match="spin search bound 1 fails its own certificate"):
        spin_search_bound(rs("A", 3))


def _reference_positive_roots(system):
    """Positive roots from the orthogonal simple roots, with exact rationals.

    Roots are the orbit of the simple roots under the simple reflections,
    each tracked with its simple-root coordinates; the positive ones have
    nonnegative coordinates.  Returns them with the squared lengths of the
    simple roots.
    """
    rows, den = _simple_roots_orthogonal(system.type)
    simple = [[Fraction(x, den) for x in a] for a in rows]
    r = len(simple)
    norms = [sum(x * x for x in a) for a in simple]
    seen = {
        tuple(a): tuple(int(i == j) for j in range(r)) for i, a in enumerate(simple)
    }
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for orth, beta in frontier:
            for i, a in enumerate(simple):
                k = 2 * sum(x * y for x, y in zip(orth, a)) / norms[i]
                image = tuple(x - k * y for x, y in zip(orth, a))
                if image not in seen:
                    coords = tuple(b - k * (j == i) for j, b in enumerate(beta))
                    seen[image] = coords
                    nxt.append((image, coords))
        frontier = nxt
    positive = [tuple(int(b) for b in beta) for beta in seen.values() if min(beta) >= 0]
    return positive, norms


def _reference_weyl_dim(positive, norms, coeffs):
    """Weyl's product: (lambda + rho, beta) / (rho, beta) for
    beta = sum b_i alpha_i is sum b_i (c_i + 1) |alpha_i|^2 / sum b_i |alpha_i|^2."""
    num = Fraction(1)
    for beta in positive:
        num *= Fraction(
            sum(b * (c + 1) * n for b, c, n in zip(beta, coeffs, norms)),
            sum(b * n for b, n in zip(beta, norms)),
        )
    assert num.denominator == 1
    return num.numerator


@pytest.mark.parametrize("stype", paper_family_types(8), ids=str)
def test_weyl_dim_agrees_with_rational_reference(stype):
    system = build_root_system(stype)
    positive, norms = _reference_positive_roots(system)
    assert sorted(positive) == sorted(system.positive_roots)
    box = list(itertools.product(range(3), repeat=stype.rank))
    for coeffs in box[:: max(1, len(box) // 24)]:
        expected = _reference_weyl_dim(positive, norms, coeffs)
        assert weyl_dim(system, DominantWeight(coeffs)) == expected


def test_weyl_dim_e8_pinned():
    e8 = rs("E", 8)
    assert weyl_dim(e8, fund(8, 7)) == 248
    assert weyl_dim(e8, fund(8, 0)) == 3875
    assert weyl_dim(e8, fund(8, 6)) == 30380
    assert weyl_dim(e8, fund(8, 1)) == 147250


def test_pairings_are_integers():
    for stype in paper_family_types(4):
        system = build_root_system(stype)
        assert system._pairing.dtype == system.root_pairings.dtype == np.int64
        assert all(type(p) is int for p in system.rho_pairings)
        assert type(system.rho_product) is int
        for x in (tuple(range(1, stype.rank + 1)), (2**70,) * stype.rank):
            x = DominantWeight(x)
            assert type(weyl_dim(system, x)) is int
            assert type(system.frobenius_schur_exponent(x)) is int


def test_weyl_dim_is_exact_above_int64():
    assert weyl_dim(rs("A", 1), w(2**70)) == 2**70 + 1
    e8 = rs("E", 8)
    positive, norms = _reference_positive_roots(e8)
    # int64 would wrap: the highest coroot pairs to 6 with Lambda_3
    for coeffs in [(2**60, 0, 0, 2**61, 0, 0, 0, 1), (1, 2, 0, 3, 0, 0, 2**62 + 7, 0)]:
        assert weyl_dim(e8, DominantWeight(coeffs)) == _reference_weyl_dim(positive, norms, coeffs)
    # A1 has one positive coroot, so the exponent is the weight itself
    assert rs("A", 1).frobenius_schur_exponent(w(2**70)) == 2**70


def test_an_inexact_division_is_caught():
    assert _exact_div(np.array([[4, -6]]), np.array([[2]]), "x").tolist() == [[2, -3]]
    with pytest.raises(RootSystemError, match="x is not integral"):
        _exact_div(np.array([[4, 3]]), np.array([[2]]), "x")


def test_a_wrong_denominator_is_caught(monkeypatch):
    rows, den = _simple_roots_orthogonal(SimpleType("F", 4))
    assert den == 2
    # the Cartan matrix does not see the scale; the squared lengths do
    monkeypatch.setattr(rootsys, "_simple_roots_orthogonal", lambda st: (rows, 3))
    with pytest.raises(RootSystemError, match="a squared simple root length is not integral"):
        rootsys.RootSystem(SimpleType("F", 4))


def test_corrupted_pairing_row_is_caught():
    # A2 with alpha_1 paired as (2, 0): the product (1+2)(0+1)(1+2) = 9 at
    # weight (1, 0) is not divisible by prod <rho, coroot> = 1 * 1 * 2
    system = copy.deepcopy(rs("A", 2))
    system._pairing[system.positive_roots.index((1, 0))] = np.array([2, 0])
    with pytest.raises(RootSystemError):
        weyl_dim(system, w(1, 0))
    assert weyl_dim(rs("A", 2), w(1, 0)) == 3


@pytest.mark.parametrize("stype", paper_family_types(16), ids=str)
def test_positive_roots_equal_the_string_probe_reference(stype):
    system = build_root_system(stype)
    assert system.positive_roots == string_probe_positive_roots(system.cartan_matrix)
    assert (system.root_pairings == np.array(system.positive_roots) @ np.array(system.cartan_matrix).T).all()


HIGHEST_ROOTS = {
    "A": lambda r: (1,) * r,
    "B": lambda r: (1,) + (2,) * (r - 1),
    "C": lambda r: (2,) * (r - 1) + (1,),
    "D": lambda r: (1,) + (2,) * (r - 3) + (1, 1),  # (1, 1, 1) for D3
    "E": lambda r: {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)}[r],
    "F": lambda r: (2, 3, 4, 2),
    "G": lambda r: (3, 2),
}


@pytest.mark.parametrize("stype", paper_family_types(16), ids=str)
def test_highest_root_of_every_family(stype):
    system = build_root_system(stype)
    assert system.positive_roots[-1] == HIGHEST_ROOTS[stype.family](stype.rank)


POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


@pytest.mark.parametrize("stype", paper_family_types(16), ids=str)
def test_integer_cartan_matrix_agrees_with_rational_dot_products(stype):
    system = build_root_system(stype)
    rows, den = _simple_roots_orthogonal(system.type)
    simple = [[Fraction(x, den) for x in a] for a in rows]
    r = stype.rank

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    gram = [[dot(a, b) for b in simple] for a in simple]
    cartan = [[2 * gram[i][j] / gram[i][i] for j in range(r)] for i in range(r)]
    assert [list(row) for row in system.cartan_matrix] == cartan
    assert all(type(x) is int for row in system.cartan_matrix for x in row)
    # the positive roots, against the reflection orbit up to rank 8 (see
    # test_weyl_dim_agrees_with_rational_reference) and by their number here
    assert system.n_positive_roots == POSITIVE_ROOT_COUNTS[stype.family](r)
    # <rho, beta^vee> = 2 (rho, beta) / (beta, beta), and 2 (rho, alpha_i) =
    # |alpha_i|^2; the orthogonal coordinates are halves at worst, so four
    # times the Gram matrix is integral
    gram4 = [[int(4 * x) for x in row] for row in gram]
    assert gram4 == [[4 * x for x in row] for row in gram]
    rho = []
    for beta in system.positive_roots:
        support = [(i, b) for i, b in enumerate(beta) if b]
        norm = sum(b * c * gram4[i][j] for i, b in support for j, c in support)
        rho.append(Fraction(sum(b * gram4[i][i] for i, b in support), norm))
    assert list(system.rho_pairings) == rho


# -- restriction to a sub-diagram -------------------------------------------

TOPS = ["A12", "B12", "C12", "D12", "E8", "F4", "G2"]
RANK_12_TYPES = (
    [SimpleType(f, r) for f in "ABC" for r in range(1, 13)]
    + [SimpleType("D", r) for r in range(3, 13)]
    + [SimpleType("E", r) for r in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)


@pytest.fixture
def walks(monkeypatch):
    """Starts from an empty cache, no walked systems and no kept searches,
    and records the type of every positive-root walk."""
    seen = []
    walk = rootsys.RootSystem.__init__

    def recorded(self, stype):
        seen.append(str(stype))
        walk(self, stype)

    def clear():
        build_root_system.cache_clear()
        rootsys._WALKED.clear()
        rootsys._SEARCHES.clear()

    clear()
    monkeypatch.setattr(rootsys.RootSystem, "__init__", recorded)
    yield seen
    clear()


def _fields(system):
    return (
        system.type,
        system.cartan_matrix,
        system.positive_roots,
        system.root_pairings.tolist(),
        system._pairing.tolist(),
        system.rho.tolist(),
        system.rho_pairings,
        system.rho_product,
        system._int64_weights_below,
    )


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_a_restricted_system_equals_its_walk(order, walks):
    types = sorted(RANK_12_TYPES, key=lambda st: st.rank, reverse=order == "descending")
    built = [build_root_system(st) for st in types]
    # the largest rank of a family is walked first when descending; the
    # ascending order walks every type, each larger than the one before
    assert sorted(walks) == sorted(TOPS if order == "descending" else map(str, types))
    for stype, system in zip(types, built):
        walked = rootsys.RootSystem(stype)
        assert _fields(system) == _fields(walked), stype
        for a in (system._roots, system.root_pairings, system._pairing, system.rho):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert system._roots.tolist() == [list(beta) for beta in walked.positive_roots]


def test_a_single_request_walks_only_its_own_rank(walks):
    # no family top is walked for one small system; a later larger one
    # is walked, and a smaller one after it is restricted
    build_root_system(SimpleType("B", 3))
    build_root_system(SimpleType("B", 5))
    build_root_system(SimpleType("B", 4))
    build_root_system(SimpleType("E", 7))
    build_root_system(SimpleType("E", 6))
    assert walks == ["B3", "B5", "E7"]


def test_a_cold_lemma21_walks_each_family_once(walks):
    classify.verify_lemma21(12)
    assert walks == TOPS
    assert build_root_system.cache_info().misses == len(paper_family_types(12)) == 48


IRREP_SCANS = [("R", 7, 0), ("R", 14, 0), ("C", 10, 0), ("C", 27, 0), ("H", 8, 0), ("H", 56, 0)]


def _scans():
    lemma = classify.verify_lemma21(12)
    return (
        lemma.part1,
        lemma.part2,
        classify.spin_inequality_scan(12),
        [classify.irrep_scan(*args) for args in IRREP_SCANS],
    )


def test_the_scans_read_the_same_from_a_cold_and_a_warm_cache(walks):
    cold = _scans()
    assert walks == TOPS
    assert _scans() == cold  # warm: every system a cache hit
    # every system walked, smallest rank first
    build_root_system.cache_clear()
    rootsys._WALKED.clear()
    for stype in sorted(paper_family_types(12), key=lambda st: st.rank):
        build_root_system(stype)
    assert len(walks) == len(TOPS) + 48
    assert _scans() == cold
    # irrep_scan keeps the order of paper_family_types
    order = {st: k for k, st in enumerate(paper_family_types(8))}
    for found in cold[3]:
        assert found
        keys = [order[e["type"]] for e in found]
        assert keys == sorted(keys)
    assert any(len({e["type"] for e in found}) > 1 for found in cold[3])


# -- the kept search ---------------------------------------------------------

RANK_12_PAPER_TYPES = paper_family_types(12)
_REFERENCE: dict = {}


def _reference(stype, bound):
    """recursive_dominant_weights of stype at bound, as (coeffs, dim) pairs,
    computed once for this module."""
    if (stype, bound) not in _REFERENCE:
        got = recursive_dominant_weights(build_root_system(stype), bound)
        _REFERENCE[stype, bound] = [(x.coeffs, d) for x, d in got]
    return _REFERENCE[stype, bound]


def _searched(stype, bound):
    return [(x.coeffs, d) for x, d in enumerate_dominant_weights(build_root_system(stype), bound)]


def _counted_weyl_dims(monkeypatch):
    """Patches rootsys._weyl_dims to record the rows of every product, each
    row with its system's type."""
    batches = []

    def counted(system, rows):
        batches.append([(system.type, tuple(row)) for row in rows])
        return _weyl_dims(system, rows)

    monkeypatch.setattr(rootsys, "_weyl_dims", counted)
    return batches


@pytest.mark.parametrize(
    "bounds",
    [(1, 3, 12, 30, 100), (100, 30, 12, 3, 1), (30, 30, 31, 31, 12, 100, 100)],
    ids=["ascending", "descending", "repeated"],
)
def test_every_call_of_a_bound_sequence_equals_the_reference(bounds):
    rootsys._SEARCHES.clear()
    for bound in bounds:
        for stype in RANK_12_PAPER_TYPES:
            assert _searched(stype, bound) == _reference(stype, bound), (stype, bound)


def test_interleaved_calls_equal_the_reference():
    # each type gets its own shuffled bounds, the calls of all types mixed
    rootsys._SEARCHES.clear()
    rng = random.Random(34)
    calls = [(st, b) for st in RANK_12_PAPER_TYPES for b in rng.sample((1, 3, 7, 12, 30, 31, 100), 5)]
    rng.shuffle(calls)
    for stype, bound in calls:
        assert _searched(stype, bound) == _reference(stype, bound), (stype, bound)


def test_each_weight_is_evaluated_once_across_calls(monkeypatch):
    rootsys._SEARCHES.clear()
    batches = _counted_weyl_dims(monkeypatch)
    for stype in RANK_12_PAPER_TYPES:
        for bound in (3, 12, 30, 12, 100):
            _searched(stype, bound)
    resumed = [row for batch in batches for row in batch]
    assert len(resumed) == len(set(resumed))
    # the rows of one search at the largest bound, with nothing kept
    rootsys._SEARCHES.clear()
    batches.clear()
    for stype in RANK_12_PAPER_TYPES:
        _searched(stype, 100)
    assert sorted(resumed) == sorted(row for batch in batches for row in batch)


def test_the_spin_scan_resumes_the_lemma_searches(walks, monkeypatch):
    batches = _counted_weyl_dims(monkeypatch)
    classify.verify_lemma21(12)
    lemma = len(batches), sum(map(len, batches))
    classify.spin_inequality_scan(12)
    # each search from scratch makes 171 products over 1149 rows
    assert (len(batches), sum(map(len, batches))) == (97, 671)
    assert lemma == (75, 478)


def test_a_returned_list_is_a_copy():
    rootsys._SEARCHES.clear()
    system = rs("B", 4)
    for bound in (30, 12, 100):
        got = enumerate_dominant_weights(system, bound)
        expected = list(got)
        got.reverse()
        got.append((w(9, 9, 9, 9), 1))
        got[0] = None
        assert enumerate_dominant_weights(system, bound) == expected
    assert _searched(SimpleType("B", 4), 100) == _reference(SimpleType("B", 4), 100)


def test_a_search_that_raises_keeps_nothing(monkeypatch):
    rootsys._SEARCHES.clear()
    system = rs("C", 5)
    enumerate_dominant_weights(system, 12)
    kept = rootsys._SEARCHES[system]

    batches = []

    def fails_at_the_second_batch(system_, rows):
        batches.append(rows)
        if len(batches) == 2:
            raise RootSystemError("injected")
        return _weyl_dims(system_, rows)

    monkeypatch.setattr(rootsys, "_weyl_dims", fails_at_the_second_batch)
    with pytest.raises(RootSystemError, match="injected"):
        enumerate_dominant_weights(system, 500)
    assert rootsys._SEARCHES[system] is kept
    monkeypatch.undo()
    assert _searched(SimpleType("C", 5), 500) == _reference(SimpleType("C", 5), 500)


def test_a_copy_of_a_searched_system_searches_anew():
    # the corruption of test_a_non_divisible_weyl_product_names_the_weight,
    # on a copy of a system whose search is kept up to a larger bound
    system = rs("A", 2)
    enumerate_dominant_weights(system, 30)
    assert system in rootsys._SEARCHES
    corrupted = copy.deepcopy(system)
    assert corrupted not in rootsys._SEARCHES
    corrupted._pairing[corrupted.positive_roots.index((1, 0))] = np.array([2, 0])
    for bound in (10, 30):
        with pytest.raises(RootSystemError, match="Weyl product for 1,0 is not divisible by 2"):
            enumerate_dominant_weights(corrupted, bound)
    assert corrupted not in rootsys._SEARCHES


def test_the_walks_fixture_starts_with_no_search(walks):
    # the tests above leave searches of systems they built
    assert not rootsys._SEARCHES and not rootsys._WALKED
    assert build_root_system.cache_info().currsize == 0


def _searched_systems(bound):
    """Weak references to the systems of paper_family_types(12), each
    searched at bound."""
    systems = [build_root_system(st) for st in RANK_12_PAPER_TYPES]
    for system in systems:
        enumerate_dominant_weights(system, bound)
    return [weakref.ref(system) for system in systems]


def test_clearing_the_cache_drops_the_searches():
    held = _searched_systems(12)
    assert all(ref() in rootsys._SEARCHES for ref in held)
    build_root_system.cache_clear()
    gc.collect()
    # _WALKED held the family tops weakly, so nothing keeps a system alive
    assert all(ref() is None for ref in held)
    assert not rootsys._SEARCHES and not rootsys._WALKED
