import math

import numpy as np
import pytest

from fractions import Fraction

from coisotropy.linalg import (
    QMat,
    QQi,
    block_diag,
    commutator,
    complex_rank,
    frac_nullspace,
    kron,
)
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
    invariant_bilinear_form,
    octonion_left_mult,
    real_block_rep,
    realize,
    so_vector_gens,
    spin7_real_gens,
    spin_rep,
    validate_matrix_rep,
)
from coisotropy.repdata import load_dataset
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
    assert m.n_torus == 1


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


def _with_generator(stack, k, entries):
    """A copy of an integer stack with generator k replaced by entries
    {(row, col): integer value}."""
    keep = stack.k != k
    pos = list(entries)
    add = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    return stack._replace(
        k=np.concatenate([stack.k[keep], add([k] * len(pos))]),
        row=np.concatenate([stack.row[keep], add([i for i, _ in pos])]),
        col=np.concatenate([stack.col[keep], add([j for _, j in pos])]),
        re=np.concatenate([stack.re[keep], add([v * stack.den for v in entries.values()])]),
        im=np.concatenate([stack.im[keep], add([0] * len(pos))]),
    )


def test_validation_catches_broken_generators():
    m = realize(grp(Factor("su", 2)), R(S(Term("std", 1))))
    # the raising generator follows the one Cartan generator
    m.gens = _with_generator(m.gens, 1, {(1, 0): 1})  # lower triangular junk
    with pytest.raises(RepresentationError, match="strictly upper"):
        validate_matrix_rep(m)


@pytest.mark.parametrize("entry", [(0, 2), (0, 3)], ids=["cartan-weight", "torus-weight"])
def test_validation_catches_assembly_faults(entry):
    # h = diag(1, -1, 1, -1) and torus t = diag(1, 1, 0, 0); e on (0, 2)
    # has h-weight 0 instead of 2, e on (0, 3) does not commute with t
    m = realize(
        grp(Factor("su", 2), lines=[(1,)]),
        R(S(Term("std", 1), charges=(1,)), S(Term("std", 1), charges=(0,))),
    )
    m.gens = _with_generator(m.gens, 1, {entry: 1})
    with pytest.raises(RepresentationError, match="weight relation"):
        validate_matrix_rep(m)


# ---------------------------------------------------------------------------
# the assembly against a kron / block_diag reference


def _reference_generators(m, chirality=1) -> list[QMat]:
    """cartan | raising | lowering | torus of a realized m, rebuilt from the
    QMat module constructors: kron with identities for each slot, -x^T in
    the reversed basis for a dual summand, block_diag over the summands."""
    group, rep = m.group, m.rep

    def slot(term):
        if term.kind == "triv" or group.factors[term.factor - 1].simple_type is None:
            return -1, None, 1
        fac = group.factors[term.factor - 1]
        st = fac.simple_type
        mod = {
            "std": lambda: _std_module(st),
            "sym2": lambda: _sym2_of(_std_module(st)),
            "alt2": lambda: _alt2_of(_std_module(st)),
            "spin": lambda: _spin_module(fac.n, chirality),
            "weight": lambda: _weight_module(st, term.weight),
        }[term.kind]()
        return term.factor - 1, mod, mod.dim

    summands = [(sm, [slot(t) for t in sm.terms]) for sm in rep.summands]

    def on_summand(sm, slots, fidx, which, gi):
        dims = [d for *_, d in slots]
        dim = math.prod(dims)
        acc = QMat.zeros(dim, dim)
        for s, (f, mod, _) in enumerate(slots):
            if f == fidx:
                before = QMat.identity(math.prod(dims[:s]))
                after = QMat.identity(math.prod(dims[s + 1 :]))
                acc = acc + kron(kron(before, getattr(mod, which)[gi]), after)
        if sm.dual:
            acc = QMat(dim, dim, {(dim - 1 - j, dim - 1 - i): -v for (i, j), v in acc.entries.items()})
        return acc

    def assembled(fidx, which, gi):
        return block_diag([on_summand(sm, slots, fidx, which, gi) for sm, slots in summands])

    def root_index(fidx, root):
        return build_root_system(group.factors[fidx].simple_type).positive_roots.index(root)

    gens = [assembled(fidx, "cartan", i) for fidx, i in m.cartan_labels]
    for which in ("raising", "lowering"):
        gens += [assembled(f, which, root_index(f, root)) for f, root in m.root_labels]
    for line in group.torus_lines:
        diag = []
        for sm, slots in summands:
            charges = sm.charges or (0,) * group.n_circles
            net = sum(a * c for a, c in zip(line, charges))
            diag += [QQi(net)] * math.prod(d for *_, d in slots)
        gens.append(QMat.diag(diag))
    return gens


def _reference_views(m, chirality=1) -> tuple[list[QMat], list[QMat]]:
    """(Borel generators, compact generators) of the reference."""
    gens = _reference_generators(m, chirality)
    nc, npos = len(m.cartan_labels), len(m.root_labels)
    cartan, torus = gens[:nc], gens[nc + 2 * npos :]
    raising, lowering = gens[nc : nc + npos], gens[nc + npos : nc + 2 * npos]
    i = QQi(0, 1)
    compact = [h.scale(i) for h in cartan]
    for e, f in zip(raising, lowering):
        compact += [e - f, (e + f).scale(i)]
    return cartan + raising + torus, compact + [t.scale(i) for t in torus]


def _values(stack) -> tuple[tuple, dict]:
    """Shape and nonzero entries {(k, row, col): (re, im)} of a stack, as
    Fractions."""
    ent = {
        (int(k), int(i), int(j)): (Fraction(int(a), stack.den), Fraction(int(b), stack.den))
        for k, i, j, a, b in zip(stack.k, stack.row, stack.col, stack.re, stack.im)
        if a or b
    }
    return stack.shape, ent


def _qmat_values(mats, dim) -> tuple[tuple, dict]:
    ent = {(k, i, j): (v.re, v.im) for k, g in enumerate(mats) for (i, j), v in g.entries.items()}
    return (len(mats), dim, dim), ent


def _assert_matches_reference(m, chirality=1):
    borel, compact = _reference_views(m, chirality)
    assert m.borel_stack.den > 0 and m.compact_stack.den > 0
    assert _values(m.borel_stack) == _qmat_values(borel, m.space_dim)
    assert _values(m.compact_stack) == _qmat_values(compact, m.space_dim)


def _table_instantiations():
    """Every instantiation of tables Ia, IIa and IIb: bare and with one
    scalar line (Ia) or one charge line on the two summands (IIa, IIb)."""
    ds = load_dataset()
    for table in ("Ia", "IIa", "IIb"):
        for entry in ds.mf_rows(table):
            for env in entry.instantiations() or [{}]:
                group, rep = entry.pattern.instantiate(env)
                if table == "Ia":
                    if group.dim:
                        yield group, rep
                    charged = tuple(Summand(s.terms, s.dual, (1,)) for s in rep.summands)
                    yield GroupSpec(group.factors, ((1,),)), RepSpec(charged)
                else:
                    first, second = rep.summands
                    charged = (
                        Summand(first.terms, first.dual, (1, 0)),
                        Summand(second.terms, second.dual, (0, 1)),
                    )
                    yield GroupSpec(group.factors, ((1, -2),)), RepSpec(charged)


def test_assembly_matches_kron_reference_on_the_mf_tables():
    seen = set()
    for group, rep in _table_instantiations():
        if (group, rep) in seen:
            continue
        seen.add((group, rep))
        _assert_matches_reference(realize(group, rep))
    assert len(seen) == 91  # the 91 queries of one mf_stream round


def test_dual_module_is_dual_action():
    m = realize(grp(Factor("su", 3)), R(S(Term("std", 1))))
    md = realize(grp(Factor("su", 3)), R(S(Term("std", 1), dual=True)))
    _assert_matches_reference(md)
    # duality sends X to -X^T up to basis reversal: traces of squares agree
    a, b = m.gens.dense(), md.gens.dense()
    for k in range(m.gens.shape[0]):
        assert _trace_of_square(a, k) == _trace_of_square(b, k)


def _trace_of_square(z, k) -> tuple[Fraction, Fraction]:
    re, im = z.re[k].astype(object), z.im[k].astype(object)
    return (
        Fraction(int(np.trace(re @ re - im @ im)), z.den**2),
        Fraction(int(np.trace(re @ im + im @ re)), z.den**2),
    )


def _intertwiners(gens_a, gens_b, dim_a: int, dim_b: int) -> list[QMat]:
    """Basis of {T : T a_k = b_k T} for QMat generator lists, exact."""
    assert len(gens_a) == len(gens_b)
    nu = dim_b * dim_a
    rows = []
    for a, b in zip(gens_a, gens_b):
        coeff: dict[tuple[int, int], dict[int, QQi]] = {}
        for (i, j), v in a.entries.items():
            # (T a)_{r j} gains T_{r i} * v
            for rr in range(dim_b):
                cof = coeff.setdefault((rr, j), {})
                cof[rr * dim_a + i] = cof.get(rr * dim_a + i, QQi(0)) + v
        for (i, j), v in b.entries.items():
            # (b T)_{i c} gains v * T_{j c}
            for cc in range(dim_a):
                cof = coeff.setdefault((i, cc), {})
                cof[j * dim_a + cc] = cof.get(j * dim_a + cc, QQi(0)) - v
        for cof in coeff.values():
            re_row = [Fraction(0)] * (2 * nu)
            im_row = [Fraction(0)] * (2 * nu)
            for k, v in cof.items():
                re_row[k], re_row[nu + k] = v.re, -v.im
                im_row[k], im_row[nu + k] = v.im, v.re
            if any(re_row) or any(im_row):
                rows += [re_row, im_row]
    out = []
    for vec in frac_nullspace(rows, 2 * nu) if rows else []:
        ent = {(k // dim_a, k % dim_a): QQi(vec[k], vec[nu + k]) for k in range(nu)}
        m = QMat(dim_b, dim_a, ent)
        if not m.is_zero() and m not in out:
            out.append(m)
    return out


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
    space = _intertwiners(gens_a, gens_b, 4, 4)
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
    "std C2": (Factor("sp", 2), "std", None),
    "spin B3": (Factor("so", 7), "spin", 1),
    "weight G2 (1,0)": (Factor("g2", 2), "weight", (1, 0)),
}


def _module_and_roots(name):
    fac, kind, arg = CERTIFIED[name]
    return _factor_module(fac, kind, arg), build_root_system(fac.simple_type)


def _entries_of(stack, k):
    """Positions in the stack arrays of generator k's entries, by (row, col)."""
    at = np.flatnonzero(stack.k == k)
    return at[np.lexsort((stack.col[at], stack.row[at]))]


def _corrupt(stack, k, index=0, negate=False):
    # a copy with one entry of generator k negated or raised by 1; the
    # cached module itself is never touched
    t = _entries_of(stack, k)[index]
    re, im = stack.re.copy(), stack.im.copy()
    if negate:
        re[t], im[t] = -re[t], -im[t]
    else:
        re[t] += stack.den
    return stack._replace(re=re, im=im)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_accepts_cached_module(name):
    _certify(*_module_and_roots(name))


@pytest.mark.parametrize("which", ["cartan", "raising", "lowering"])
@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_corrupted_entry(name, which):
    mod, rs = _module_and_roots(name)
    r, npos = rs.rank, rs.n_positive_roots
    first, count = {"cartan": (0, r), "raising": (r, npos), "lowering": (r + npos, npos)}[which]
    # a generator with one nonzero entry stays valid when that entry is
    # rescaled, so corrupt one whose entries are tied to each other
    k = next(k for k in range(first, first + count) if len(_entries_of(mod, k)) >= 2)
    with pytest.raises(RepresentationError):
        _certify(_corrupt(mod, k), rs)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_root_vector_off_its_bracket(name):
    mod, rs = _module_and_roots(name)
    r = rs.rank
    k = next(
        r + j
        for j, root in enumerate(rs.positive_roots)
        if sum(root) > 1 and len(_entries_of(mod, r + j)) >= 2
    )
    # same nonzero positions, so every weight relation still holds
    with pytest.raises(RepresentationError, match="multiple of its bracket"):
        _certify(_corrupt(mod, k, negate=True), rs)


def test_certificate_rejects_a_non_real_cartan_multiple():
    # su(2) on C^2: h, e, f; i*f keeps every weight but [e, i*f] = i*h
    mod = _factor_module(Factor("su", 2), "std")
    rs = build_root_system(SimpleType("A", 1))
    lowering = mod.k == 2
    times = lambda re, im: mod._replace(  # noqa: E731  (f times re + i*im)
        re=np.where(lowering, re * mod.re - im * mod.im, mod.re),
        im=np.where(lowering, im * mod.re + re * mod.im, mod.im),
    )
    _certify(times(2, 0), rs)
    with pytest.raises(RepresentationError, match=r"\[e_0, f_0\] is not c h_0"):
        _certify(times(0, 1), rs)


def test_certificate_accepts_trivial_alt2_of_su2():
    mod = _factor_module(Factor("su", 2), "alt2")
    assert mod.shape == (3, 1, 1)
    assert not mod.re.any() and not mod.im.any()
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
    space = _intertwiners(
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
    g = grp(Factor("su", 2), Factor("su", 3), lines=[(1,)])
    slots = (Term("std", 1), Term("std", 2), Term("std", 1))
    m = realize(g, RepSpec(summands=(Summand(terms=slots, charges=(1,)),)))
    assert _values(m.gens) == _qmat_values(_reference_generators(m), m.space_dim)
    _assert_matches_reference(m)


def test_integer_views_scale_the_generators():
    m = realize(grp(Factor("so", 5), lines=[(1,)]), RepSpec(
        summands=(Summand(terms=(Term("spin", 1),), charges=(1,)),)
    ))
    borel, compact = _reference_views(m)
    for view, gens in ((m.borel_stack, borel), (m.compact_stack, compact)):
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
