import copy
import math

import pytest

from fractions import Fraction

from coisotropy.linalg import QMat, QQi, commutator, complex_rank, kron
from coisotropy.matrep import (
    Factor,
    GroupSpec,
    NotRealizable,
    RepresentationError,
    RepSpec,
    Summand,
    Term,
    _alt2_of,
    _certify,
    _factor_module,
    _inverse_solver,
    _spin_module,
    _std_module,
    _sym2_of,
    _weight_module,
    intertwiner_space,
    invariant_bilinear_form,
    octonion_left_mult,
    real_block_rep,
    realize,
    so_vector_gens,
    spin7_real_gens,
    spin_rep,
)
from coisotropy.rootsys import DominantWeight, SimpleType, build_root_system, weyl_dim


def grp(*facs, lines=()):
    return GroupSpec(factors=tuple(facs), torus_lines=tuple(lines))


def S(*terms, dual=False, charges=()):
    return Summand(terms=tuple(terms), dual=dual, charges=tuple(charges))


def R(*sums):
    return RepSpec(summands=tuple(sums))


def test_factor_closed_forms():
    assert Factor("su", 4).dim == 15 and Factor("su", 4).rank == 3
    assert Factor("so", 7).dim == 21 and Factor("so", 7).rank == 3
    assert Factor("sp", 3).dim == 21 and Factor("sp", 3).rank == 3
    assert Factor("e6", 6).dim == 78
    assert Factor("so", 2).dim == 1 and Factor("so", 2).rank == 1
    assert Factor("su", 1).simple_type is None
    with pytest.raises(RepresentationError):
        Factor("so", 4).simple_type


def test_group_spec_validation():
    with pytest.raises(RepresentationError):
        GroupSpec(torus_lines=((2, 4),))  # not primitive
    with pytest.raises(RepresentationError):
        GroupSpec(torus_lines=((0, 0),))
    with pytest.raises(RepresentationError):
        GroupSpec(torus_lines=((1, 1),), forbidden_lines=((2, 2),))
    g = GroupSpec(
        factors=(Factor("su", 3),),
        torus_lines=((1, 0),),
        forbidden_lines=((1, 1),),
    )
    assert g.rank == 3 and g.n_circles == 2
    assert g.borel_dim == 5 + 1


@pytest.mark.parametrize(
    "fam,n,dim",
    [("A", 3, 4), ("B", 2, 5), ("B", 3, 7), ("C", 2, 4), ("C", 3, 6), ("D", 3, 6), ("D", 4, 8)],
)
def test_std_module_dims(fam, n, dim):
    mod = _std_module(SimpleType(fam, n))
    assert mod.dim == dim
    rs = build_root_system(SimpleType(fam, n))
    assert len(mod.raising) == rs.n_positive_roots
    for h in mod.cartan:
        assert h.is_diagonal()
    for e in mod.raising:
        assert e.is_strictly_upper()


@pytest.mark.parametrize("n,dim", [(3, 2), (5, 4), (7, 8), (9, 16), (10, 16), (11, 32)])
def test_spin_module_dims(n, dim):
    mod = _spin_module(n)
    assert mod.dim == dim


def test_spin_weights_are_half_integers():
    for n in (5, 7, 8, 10):
        mod = _spin_module(n)
        rs = build_root_system(
            SimpleType("B", n // 2) if n % 2 else SimpleType("D", n // 2)
        )
        # Cartan generators are diagonal; in orthogonal coordinates every
        # basis weight entry is +-1/2, so simple-root pairings are integers
        for h in mod.cartan:
            assert h.is_diagonal()
            for v in h.diagonal():
                assert v.im == 0 and v.re.denominator == 1


def test_spin_chirality_halves():
    plus = _spin_module(10, 1)
    minus = _spin_module(10, -1)
    assert plus.dim == minus.dim == 16


def test_weight_module_dimensions_match_formula():
    cases = [
        (SimpleType("C", 2), (0, 1)),
        (SimpleType("G", 2), (1, 0)),
        (SimpleType("A", 3), (1, 0, 1)),
        (SimpleType("B", 3), (0, 0, 1)),
        (SimpleType("E", 6), (1, 0, 0, 0, 0, 0)),
        (SimpleType("A", 2), (2, 1)),
    ]
    for st, coeffs in cases:
        mod = _weight_module(st, coeffs)
        assert mod.dim == weyl_dim(build_root_system(st), DominantWeight(coeffs))


def test_weight_module_cap():
    with pytest.raises(NotRealizable):
        _weight_module(SimpleType("E", 8), (1, 0, 0, 0, 0, 0, 0, 0))


def test_realize_dimensions_sum_and_product():
    m = realize(
        grp(Factor("su", 2), Factor("sp", 2), lines=[(1,)]),
        R(
            S(Term("std", 1), Term("std", 2), charges=(1,)),
            S(Term("alt2", 2), charges=(0,)),
        ),
    )
    assert m.space_dim == 2 * 4 + 6
    assert len(m.torus_gens) == 1


def test_realize_trivial_factor_slots():
    m = realize(
        grp(Factor("su", 1), Factor("su", 3), lines=[(1,)]),
        R(S(Term("std", 1), Term("std", 2), charges=(1,))),
    )
    assert m.space_dim == 3


def test_realize_errors():
    with pytest.raises(RepresentationError):
        realize(grp(Factor("su", 2)), R(S(Term("std", 2))))
    with pytest.raises(NotRealizable):
        realize(grp(Factor("su", 2)), R(S(Term("spin", 1))))
    with pytest.raises(NotRealizable):
        realize(grp(Factor("so", 2)), R(S(Term("std", 1))))
    with pytest.raises(RepresentationError):
        realize(
            grp(Factor("su", 2), lines=[(1,)]),
            R(S(Term("std", 1), charges=(1, 2))),
        )


def test_validation_catches_broken_generators():
    from coisotropy.matrep import validate_matrix_rep

    m = realize(grp(Factor("su", 2)), R(S(Term("std", 1))))
    m.raising_gens[0] = QMat(2, 2, {(1, 0): QQi(1)})  # lower triangular junk
    with pytest.raises(RepresentationError):
        validate_matrix_rep(m)


@pytest.mark.parametrize("entry", [(0, 2), (0, 3)], ids=["cartan-weight", "torus-weight"])
def test_validation_catches_assembly_faults(entry):
    from coisotropy.matrep import validate_matrix_rep

    # h = diag(1, -1, 1, -1) and torus t = diag(1, 1, 0, 0); e on (0, 2)
    # has h-weight 0 instead of 2, e on (0, 3) does not commute with t
    m = realize(
        grp(Factor("su", 2), lines=[(1,)]),
        R(S(Term("std", 1), charges=(1,)), S(Term("std", 1), charges=(0,))),
    )
    m.raising_gens[0] = QMat(4, 4, {entry: QQi(1)})
    with pytest.raises(RepresentationError, match="weight relation"):
        validate_matrix_rep(m)


def test_dual_module_is_dual_action():
    m = realize(grp(Factor("su", 3)), R(S(Term("std", 1))))
    md = realize(grp(Factor("su", 3)), R(S(Term("std", 1), dual=True)))
    # duality sends X to -X^T up to basis reversal: traces of squares agree
    for a, b in zip(m.all_complex_generators(), md.all_complex_generators()):
        assert (a @ a).trace() == (b @ b).trace()


def test_spin5_equivalent_to_sp2_standard():
    spin5 = _spin_module(5)
    sp2 = _std_module(SimpleType("C", 2))
    rb = build_root_system(SimpleType("B", 2))
    rc = build_root_system(SimpleType("C", 2))
    ib1 = rb.positive_roots.index((1, 0))
    ib2 = rb.positive_roots.index((0, 1))
    ic1 = rc.positive_roots.index((1, 0))
    ic2 = rc.positive_roots.index((0, 1))
    # the isomorphism swaps the two simple nodes
    gens_a = [spin5.cartan[0], spin5.cartan[1], spin5.raising[ib1], spin5.raising[ib2], spin5.lowering[ib1], spin5.lowering[ib2]]
    gens_b = [sp2.cartan[1], sp2.cartan[0], sp2.raising[ic2], sp2.raising[ic1], sp2.lowering[ic2], sp2.lowering[ic1]]
    space = intertwiner_space(gens_a, gens_b, 4, 4)
    assert space
    t = space[0]
    rows = [tuple(t.get(i, j) for j in range(4)) for i in range(4)]
    assert complex_rank(rows) == 4


@pytest.mark.parametrize(
    "spec,expected",
    [
        (("su", 2, "std"), "antisymmetric"),
        (("su", 3, "std"), "none"),
        (("so", 5, "std"), "symmetric"),
        (("so", 4, "tensor"), "symmetric"),
        (("sp", 3, "std"), "antisymmetric"),
    ],
)
def test_invariant_bilinear_form(spec, expected):
    fam, n, kind = spec
    if kind == "tensor":
        m = realize(
            grp(Factor("su", 2), Factor("su", 2)),
            R(S(Term("std", 1), Term("std", 2))),
        )
    else:
        m = realize(grp(Factor(fam, n)), R(S(Term("std", 1))))
    assert invariant_bilinear_form(m) == expected


def test_invariant_form_agrees_with_weight_classification():
    """Cross validation of the two reality oracles on every constructible
    irreducible of dimension at most 64."""
    from coisotropy.rootsys import classify_rep_field

    cases = [
        (grp(Factor("su", 2)), R(S(Term("std", 1))), ("A", 1, (1,))),
        (grp(Factor("su", 2)), R(S(Term("sym2", 1))), ("A", 1, (2,))),
        (grp(Factor("su", 4)), R(S(Term("alt2", 1))), ("A", 3, (0, 1, 0))),
        (grp(Factor("so", 7)), R(S(Term("std", 1))), ("B", 3, (1, 0, 0))),
        (grp(Factor("so", 7)), R(S(Term("spin", 1))), ("B", 3, (0, 0, 1))),
        (grp(Factor("so", 9)), R(S(Term("spin", 1))), ("B", 4, (0, 0, 0, 1))),
        (grp(Factor("so", 10)), R(S(Term("spin", 1))), ("D", 5, (0, 0, 0, 0, 1))),
        (grp(Factor("sp", 2)), R(S(Term("std", 1))), ("C", 2, (1, 0))),
        (grp(Factor("g2", 2)), R(S(Term("std", 1))), ("G", 2, (1, 0))),
        (grp(Factor("e6", 6)), R(S(Term("std", 1))), ("E", 6, (1, 0, 0, 0, 0, 0))),
        (grp(Factor("su", 5)), R(S(Term("alt2", 1))), ("A", 4, (0, 1, 0, 0))),
    ]
    to_form = {"real": "symmetric", "quaternionic": "antisymmetric", "complex": "none"}
    for group, rep, (fam, r, coeffs) in cases:
        m = realize(group, rep)
        assert m.space_dim <= 64
        predicted = classify_rep_field(
            build_root_system(SimpleType(fam, r)), DominantWeight(coeffs)
        )
        assert invariant_bilinear_form(m) == to_form[predicted]


def test_octonion_clifford_relations():
    L = octonion_left_mult()
    minus_two = QMat.identity(8).scale(QQi(-2))
    for a in range(7):
        for b in range(7):
            anti = L[a] @ L[b] + L[b] @ L[a]
            assert anti == (minus_two if a == b else QMat.zeros(8, 8))


def test_spin7_real_structure_constants():
    vec = so_vector_gens(7)
    spin = spin7_real_gens()
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    index = {p: k for k, p in enumerate(pairs)}
    for k1 in (0, 5, 11, 17):
        for k2 in (3, 8, 20):
            bracket_v = commutator(vec[k1], vec[k2])
            coeffs = {
                index[(i, j)]: v
                for (i, j), v in bracket_v.entries.items()
                if i < j
            }
            recon = QMat.zeros(8, 8)
            for k, c in coeffs.items():
                recon = recon + spin[k].scale(c)
            assert recon == commutator(spin[k1], spin[k2])


def test_real_block_rep_shapes():
    rep = real_block_rep([("triv", 2), ("vec7", 7), ("spin8", 8)])
    assert rep.dim == 17
    assert len(rep.gens) == 21


def test_spin_rep_wrapper():
    m = spin_rep(7)
    assert m.space_dim == 8
    with pytest.raises(NotRealizable):
        spin_rep(13)


# ---------------------------------------------------------------------------
# the module certificate


CERTIFIED = {
    "std C2": (lambda: _std_module(SimpleType("C", 2)), SimpleType("C", 2)),
    "spin B3": (lambda: _spin_module(7), SimpleType("B", 3)),
    "weight G2 (1,0)": (lambda: _weight_module(SimpleType("G", 2), (1, 0)), SimpleType("G", 2)),
}


def _corrupt(mat: QMat, index: int = 0, negate: bool = False) -> None:
    # in place; callers pass deep copies, never the cached modules
    key = sorted(mat.entries)[index]
    mat.entries[key] = -mat.entries[key] if negate else mat.entries[key] + QQi(1)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_accepts_cached_module(name):
    build, st = CERTIFIED[name]
    _certify(build(), build_root_system(st))


@pytest.mark.parametrize("which", ["cartan", "raising", "lowering"])
@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_corrupted_entry(name, which):
    build, st = CERTIFIED[name]
    mod = copy.deepcopy(build())
    # a generator with one nonzero entry stays valid when that entry is
    # rescaled, so corrupt one whose entries are tied to each other
    gen = next(g for g in getattr(mod, which) if len(g.entries) >= 2)
    _corrupt(gen)
    with pytest.raises(RepresentationError):
        _certify(mod, build_root_system(st))


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_root_vector_off_its_bracket(name):
    build, st = CERTIFIED[name]
    rs = build_root_system(st)
    mod = copy.deepcopy(build())
    k = next(
        k
        for k, root in enumerate(rs.positive_roots)
        if sum(root) > 1 and len(mod.raising[k].entries) >= 2
    )
    # same nonzero positions, so every weight relation still holds
    _corrupt(mod.raising[k], negate=True)
    with pytest.raises(RepresentationError, match="multiple of its bracket"):
        _certify(mod, rs)


def test_certificate_accepts_trivial_alt2_of_su2():
    mod = _factor_module(Factor("su", 2), "alt2")
    assert mod.dim == 1
    assert all(g.is_zero() for g in mod.cartan + mod.raising + mod.lowering)
    _certify(mod, build_root_system(SimpleType("A", 1)))
    assert realize(grp(Factor("su", 2)), R(S(Term("alt2", 1)))).space_dim == 1


def test_sym2_and_alt2_are_cached():
    fac = Factor("su", 4)
    assert _factor_module(fac, "sym2") is _factor_module(fac, "sym2")
    assert _factor_module(fac, "alt2") is _factor_module(fac, "alt2")


# ---------------------------------------------------------------------------
# functor identities of the symmetric and exterior squares


@pytest.mark.parametrize("fam,n", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_sym2_alt2_split_the_tensor_square(fam, n):
    std = _std_module(SimpleType(fam, n))
    d = std.dim
    sym, alt = _sym2_of(std), _alt2_of(std)
    assert sym.dim + alt.dim == d * d
    # V (x) V = S2 V (+) L2 V with tr_S2(xy) = (d + 2) tr(xy) and
    # tr_L2(xy) = (d - 2) tr(xy) for traceless x, y
    pairs = list(zip(std.raising, std.lowering)) + [(h, h) for h in std.cartan]
    sym_pairs = list(zip(sym.raising, sym.lowering)) + [(h, h) for h in sym.cartan]
    alt_pairs = list(zip(alt.raising, alt.lowering)) + [(h, h) for h in alt.cartan]
    for (x, y), (xs, ys), (xa, ya) in zip(pairs, sym_pairs, alt_pairs):
        t = (x @ y).trace()
        assert (xs @ ys).trace() == t * (d + 2)
        assert (xa @ ya).trace() == t * (d - 2)


def _simple_generators(mod, rs):
    simple = [k for k, root in enumerate(rs.positive_roots) if sum(root) == 1]
    return [mod.raising[k] for k in simple] + [mod.lowering[k] for k in simple]


@pytest.mark.parametrize(
    "functor,weight", [(_sym2_of, (2, 0, 0)), (_alt2_of, (0, 1, 0))], ids=["sym2", "alt2"]
)
def test_square_of_su4_std_is_its_weight_module(functor, weight):
    st = SimpleType("A", 3)
    rs = build_root_system(st)
    square = functor(_std_module(st))
    target = _weight_module(st, weight)
    assert square.dim == target.dim
    # simple e_i, f_i with [e_i, f_i] = h_i on both sides generate the algebra
    space = intertwiner_space(
        _simple_generators(square, rs),
        _simple_generators(target, rs),
        square.dim,
        target.dim,
    )
    assert space
    t = space[0]
    rows = [tuple(t.get(i, j) for j in range(square.dim)) for i in range(target.dim)]
    assert complex_rank(rows) == square.dim


def test_inverse_solver_rejects_singular_block():
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(RepresentationError, match="singular"):
        _inverse_solver(singular)
    solve = _inverse_solver([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert solve([Fraction(3), Fraction(2)]) == [1, 1]


def test_slot_embedding_matches_kron():
    # factor 1 fills the first and the last slot of std(1) (x) std(2) (x) std(1)
    g = grp(Factor("su", 2), Factor("su", 3))
    slots = (Term("std", 1), Term("std", 2), Term("std", 1))
    m = realize(g, RepSpec(summands=(Summand(terms=slots),)))
    mods = [_factor_module(g.factors[t.factor - 1], "std") for t in slots]
    dims = [mod.dim for mod in mods]

    def embedded(fidx, which, gi):
        acc = QMat.zeros(m.space_dim, m.space_dim)
        for k, t in enumerate(slots):
            if t.factor - 1 == fidx:
                before = QMat.identity(math.prod(dims[:k]))
                after = QMat.identity(math.prod(dims[k + 1 :]))
                acc = acc + kron(kron(before, getattr(mods[k], which)[gi]), after)
        return acc

    for (fidx, i), h in zip(m.cartan_labels, m.cartan_gens):
        assert h == embedded(fidx, "cartan", i)
    fac_roots: dict[int, int] = {}
    for (fidx, _), e, f in zip(m.root_labels, m.raising_gens, m.lowering_gens):
        ri = fac_roots[fidx] = fac_roots.get(fidx, -1) + 1
        assert e == embedded(fidx, "raising", ri)
        assert f == embedded(fidx, "lowering", ri)


def test_integer_views_scale_the_generators():
    m = realize(grp(Factor("so", 5), lines=[(1,)]), RepSpec(
        summands=(Summand(terms=(Term("spin", 1),), charges=(1,)),)
    ))
    for view, gens in ((m.borel_stack, m.borel_generators()), (m.compact_stack, m.compact_gens)):
        stack = view.dense()
        assert stack.den > 0 and stack.re.shape == (len(gens), 4, 4)
        for k, g in enumerate(gens):
            for i in range(4):
                for j in range(4):
                    z = g.get(i, j)
                    assert Fraction(int(stack.re[k, i, j]), stack.den) == z.re
                    assert Fraction(int(stack.im[k, i, j]), stack.den) == z.im
    rr = real_block_rep([("vec7", 7)])
    assert rr.compact_stack.shape == (21, 7, 7) and not rr.compact_stack.im.any()
