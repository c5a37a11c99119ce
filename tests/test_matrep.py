import hashlib
import math

import numpy as np
import pytest

from fractions import Fraction

from coisotropy.linalg import int_apply, int_kernel, int_rank
from coisotropy.matrep import (
    Factor,
    GroupSpec,
    NotRealizable,
    RepresentationError,
    RepSpec,
    Summand,
    Term,
    _certify,
    _factor_module,
    _highest_weight,
    _square,
    _weight_module,
    _weights,
    octonion_left_mult,
    real_block_rep,
    realize,
    so_vector_gens,
    spin7_real_gens,
    validate_matrix_rep,
)
from coisotropy.repdata import load_dataset
from coisotropy.rootsys import DominantWeight, SimpleType, build_root_system, weyl_dim
from reference import (
    invariant_bilinear_form,
    mask_borel_stack,
    pairwise_certify,
    per_root_vectors,
    root_vector_faults,
    spin_rep,
)


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
    g = GroupSpec(
        factors=(Factor("su", 3),),
        torus_lines=((1, 0),),
    )
    assert g.rank == 3 and g.n_circles == 2
    assert g.borel_dim == 5 + 1


def _simple_module(fac, kind, weight=None):
    """The simple stack h | e | f of an irreducible std, spin or weight
    term."""
    return _weight_module(fac.simple_type, _highest_weight(fac, kind, weight))


def _simple_stack(fac, kind, weight=None):
    """The simple stack that _factor_module certifies and completes."""
    if kind in ("sym2", "alt2"):
        return _square(_simple_module(fac, "std"), alt=kind == "alt2")
    return _simple_module(fac, kind, weight)


def _other_half_spin(n):
    """Highest weight of the half-spin module of so(n), n even, that a spin
    term is not: omega_(r-1), given as a weight term."""
    r = n // 2
    return DominantWeight.fundamental(r, r - 2).coeffs


def _factor_of(stype):
    """The Factor whose simple type is stype."""
    f, r = stype.family, stype.rank
    classical = {"A": ("su", r + 1), "B": ("so", 2 * r + 1), "C": ("sp", r), "D": ("so", 2 * r)}
    return Factor(*classical.get(f, (f.lower() + str(r), r)))


@pytest.mark.parametrize(
    "fam,n,dim",
    [("A", 3, 4), ("B", 2, 5), ("B", 3, 7), ("C", 2, 4), ("C", 3, 6), ("D", 3, 6), ("D", 4, 8),
     ("A", 1, 2), ("B", 1, 3), ("G", 2, 7), ("F", 4, 26), ("E", 6, 27), ("E", 7, 56)],
)
def test_std_module_dims(fam, n, dim):
    fac = _factor_of(SimpleType(fam, n))
    mod = _simple_module(fac, "std")
    assert mod.shape == (3 * n, dim, dim)
    assert _factor_module(fac, "std").shape[1] == fac.std_dim == dim
    cartan, raising = mod.k < n, (mod.k >= n) & (mod.k < 2 * n)
    assert (mod.row[cartan] == mod.col[cartan]).all()
    assert (mod.row[raising] < mod.col[raising]).all()


@pytest.mark.parametrize(
    "n,dim", [(3, 2), (5, 4), (7, 8), (9, 16), (10, 16), (11, 32), (6, 4), (8, 8), (12, 32)]
)
def test_spin_module_dims(n, dim):
    fac = Factor("so", n)
    assert _simple_module(fac, "spin").shape[1] == dim
    if n % 2 == 0:
        assert _simple_module(fac, "weight", _other_half_spin(n)).shape[1] == dim


def test_spin_weights_are_half_integers():
    for n in (5, 7, 8, 10):
        mod = _simple_module(Factor("so", n), "spin")
        rs = build_root_system(
            SimpleType("B", n // 2) if n % 2 else SimpleType("D", n // 2)
        )
        # Cartan generators are diagonal; in orthogonal coordinates every
        # basis weight entry is +-1/2, so simple-root pairings are integers
        cartan = mod.k < rs.rank
        assert (mod.row[cartan] == mod.col[cartan]).all()
        assert not (mod.val[cartan] % mod.den).any()


def test_spin_chirality_halves():
    plus = _simple_module(Factor("so", 10), "spin")
    minus = _simple_module(Factor("so", 10), "weight", _other_half_spin(10))
    assert plus.shape[1] == minus.shape[1] == 16


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_the_other_half_spin_is_dual_to_spin_exactly_for_so_4k_plus_2(n):
    """The certified weight module at omega_(r-1) has the negated weights
    of the spin module for so(6) and so(10); for so(8) and so(12) each
    half-spin module is self-dual and the two differ."""
    fac = Factor("so", n)
    r = n // 2

    def weights(mod):
        z = mod.dense()
        return sorted(tuple(Fraction(int(z[i, j, j]), mod.den) for i in range(r)) for j in range(mod.shape[1]))

    spin = weights(_factor_module(fac, "spin", None))
    other = weights(_factor_module(fac, "weight", _other_half_spin(n)))
    negated = sorted(tuple(-x for x in w) for w in other)
    if n % 4 == 2:
        assert negated == spin != other
    else:
        assert negated == other != spin


def test_every_spin_module_is_certified_with_transposed_lowering():
    for n in range(3, 13):
        fac = Factor("so", n)
        if n == 4:  # so(4) = su(2) + su(2) is not simple
            with pytest.raises(RepresentationError):
                _factor_module(fac, "spin", None)
            continue
        rs = build_root_system(fac.simple_type)
        r, npos = rs.rank, rs.n_positive_roots
        dim = 2 ** ((n - 1) // 2)
        # both half-spin modules when n is even
        for kind, weight in [("spin", None)] + [("weight", _other_half_spin(n))] * (n % 2 == 0):
            simple = _simple_module(fac, kind, weight)
            _certify(simple, rs)
            assert simple.shape == (3 * r, dim, dim) and simple.den == 1
            z = simple.dense()
            assert (z[2 * r :] == z[r : 2 * r].transpose(0, 2, 1)).all()
            # the derived lowering generators are transposes as well
            z = _factor_module(fac, kind, weight).dense()
            assert z.shape == (r + 2 * npos, dim, dim)
            assert (z[r + npos :] == z[r : r + npos].transpose(0, 2, 1)).all()


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
        assert mod.shape[1] == weyl_dim(build_root_system(st), DominantWeight(coeffs))


def test_weight_module_cap():
    with pytest.raises(NotRealizable):
        _weight_module(SimpleType("E", 8), (1, 0, 0, 0, 0, 0, 0, 0))


@pytest.fixture
def unbuilt_weight_modules():
    """Empties the _weight_module memo before and after the test, so that
    each module it asks for is built under its patches; yields the clear."""
    _weight_module.cache_clear()
    yield _weight_module.cache_clear
    _weight_module.cache_clear()


def test_weight_module_stops_once_it_exceeds_the_weyl_dimension(monkeypatch, unbuilt_weight_modules):
    # a build that outgrows its target raises at once instead of running on
    from coisotropy import matrep

    st, weight = SimpleType("E", 6), (1, 0, 0, 0, 0, 0)
    calls, kernel = [], matrep._kernel_of
    monkeypatch.setattr(matrep, "_kernel_of", lambda shape, data: calls.append(shape[0]) or kernel(shape, data))
    assert _weight_module(st, weight).shape[1] == 27
    full = len(calls)
    calls.clear()
    unbuilt_weight_modules()
    monkeypatch.setattr(matrep, "weyl_dim", lambda rs, lam: 12)
    with pytest.raises(RepresentationError, match="exceeds dimension 12"):
        _weight_module(st, weight)
    assert len(calls) < full


def test_realize_dimensions_sum_and_product():
    m = realize(
        grp(Factor("su", 2), Factor("sp", 2), lines=[(1,)]),
        R(
            S(Term("std", 1), Term("std", 2), charges=(1,)),
            S(Term("alt2", 2), charges=(0,)),
        ),
    )
    assert m.space_dim == 2 * 4 + 6
    # one torus generator after the cartan, raising and lowering ones
    assert m.gens.shape[0] == len(m.cartan_labels) + 2 * len(m.root_labels) + 1


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


@pytest.mark.parametrize(
    "group, rep, error, message",
    [
        (
            grp(Factor("su", 2), lines=[(1,)]),
            R(S(Term("std", 1), charges=(1, 2))),
            RepresentationError,
            "summand charge arity 2 != circles 1",
        ),
        (
            grp(Factor("su", 2), lines=[(1,)]),
            R(S(Term("std", 1), charges=(1,)), S(Term("std", 2), charges=(0,))),
            RepresentationError,
            "factor index 2 out of range",
        ),
        (
            grp(Factor("so", 2), lines=[(1,)]),
            R(S(Term("std", 1), charges=(1,))),
            NotRealizable,
            "term std of so(2): the factor has no semisimple part; "
            "encode its circle action as a torus line",
        ),
    ],
    ids=["charge-arity", "factor-index", "not-realizable"],
)
def test_a_failed_realize_names_its_fault_and_caches_nothing(group, rep, error, message):
    from coisotropy import matrep

    before = matrep._semisimple.cache_info().currsize
    with pytest.raises(ValueError) as exc:
        realize(group, rep)
    assert (type(exc.value), str(exc.value)) == (error, message)
    assert matrep._semisimple.cache_info().currsize == before


def test_a_nonzero_linking_two_summands_is_rejected_at_assembly(monkeypatch):
    # su(2) on std + weight(3) has h = diag(1, -1 | 3, 1, -1, -3), so e at
    # (0, 4) has h-weight 2 and passes the weight check; it links the two
    # summands, where torus lines constant on each could break the relation,
    # and _semisimple rejects it before realize returns, caching nothing
    from coisotropy import matrep

    group, rep = grp(Factor("su", 2)), R(S(Term("std", 1)), S(Term("weight", 1, (3,))))
    m = realize(group, rep)
    m.gens = _with_generator(m.gens, 1, {(0, 1): 1, (0, 4): 1})
    validate_matrix_rep(m)

    original = matrep._factor_module

    def linked(fac, kind, weight=None):
        mod = original(fac, kind, weight)
        # e of the std module also at (0, 4), outside its 2 x 2 block
        return _with_generator(mod, 1, {(0, 1): 1, (0, 4): 1}) if kind == "std" else mod

    monkeypatch.setattr(matrep, "_factor_module", linked)
    matrep._semisimple.cache_clear()
    charged = R(S(Term("std", 1), charges=(1,)), S(Term("weight", 1, (3,)), charges=(0,)))
    for g, r in ((group, rep), (grp(Factor("su", 2), lines=[(1,)]), charged)):
        with pytest.raises(RepresentationError, match="a generator entry links two summands"):
            realize(g, r)
    assert matrep._semisimple.cache_info().currsize == 0


def test_validation_rejects_entries_out_of_order():
    m = realize(grp(Factor("su", 3)), R(S(Term("std", 1))))
    g = m.gens
    m.gens = g._replace(k=g.k[::-1].copy(), row=g.row[::-1].copy(), col=g.col[::-1].copy(), val=g.val[::-1].copy())
    with pytest.raises(RepresentationError, match=r"not in \(k, row, col\) order"):
        validate_matrix_rep(m)


def test_every_built_stack_is_in_order():
    def ordered(stack):
        d = stack.shape[1]
        key = (stack.k * d + stack.row) * d + stack.col
        return bool((key[1:] > key[:-1]).all())

    m = realize(grp(Factor("su", 3), lines=[(1,)]), R(S(Term("std", 1), charges=(1,)), S(Term("alt2", 1), charges=(2,))))
    stacks = [m.gens, m.borel_stack, m.compact_stack, so_vector_gens(7), octonion_left_mult(), spin7_real_gens()]
    stacks += [real_block_rep("triv:2,vec7,spin8", 6).compact_stack, real_block_rep("vec7,vec7", 3).compact_stack]
    assert all(map(ordered, stacks))


def test_simple_type_is_read_once_per_factor():
    fac = Factor("so", 10)
    assert fac.simple_type is fac.simple_type == SimpleType("D", 5)
    assert fac == Factor("so", 10) and hash(fac) == hash(Factor("so", 10))
    assert "simple_type" not in repr(fac)


def test_the_shared_semisimple_stack_is_read_only():
    from coisotropy import linalg, mforacle

    group, rep = grp(Factor("su", 3)), R(S(Term("std", 1)), S(Term("sym2", 1), dual=True))
    m = realize(group, rep)
    before = m.gens.dense()
    with pytest.raises(ValueError):
        m.gens.val[0] = 7
    again = realize(group, rep)
    assert again.gens.den == m.gens.den and (again.gens.dense() == before).all()
    # the kernel of the Borel rows that mf_test caches is read-only too
    v = mforacle._sample_vector(m.space_dim, mforacle._rng(0, 0, 0), mforacle.MF_SAMPLE_BOUND)
    rows = int_apply(m.borel_stack, v)
    kernel = linalg._kernel_of(rows.shape, rows.tobytes())
    with pytest.raises(ValueError):
        kernel[0, 0] = 1


def _with_generator(stack, k, entries):
    """A copy of an integer stack with generator k replaced by entries
    {(row, col): integer value}, in (k, row, col) order like every stack."""
    keep = stack.k != k
    pos = list(entries)
    add = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    ks = np.concatenate([stack.k[keep], add([k] * len(pos))])
    row = np.concatenate([stack.row[keep], add([i for i, _ in pos])])
    col = np.concatenate([stack.col[keep], add([j for _, j in pos])])
    val = np.concatenate([stack.val[keep], add([v * stack.den for v in entries.values()])])
    o = np.lexsort((col, row, ks))
    return stack._replace(k=ks[o], row=row[o], col=col[o], val=val[o])


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
# the assembly against a dense np.kron / block reference


def _reference_generators(m) -> tuple[np.ndarray, int]:
    """(gens, den): cartan | raising | lowering | torus of a realized m as a
    dense (n, d, d) array of Python ints over one denominator, rebuilt from
    the per-factor stacks: np.kron with identities for each slot, -x^T in
    the reversed basis for a dual summand, blocks on the diagonal for the
    summands."""
    group, rep = m.group, m.rep

    def slot(term):
        if term.kind == "triv" or group.factors[term.factor - 1].simple_type is None:
            return -1, None, 1
        weight = term.weight if term.kind == "weight" else None
        mod = _factor_module(group.factors[term.factor - 1], term.kind, weight)
        return term.factor - 1, mod, mod.shape[1]

    summands = [(sm, [slot(t) for t in sm.terms]) for sm in rep.summands]
    den = math.lcm(*(mod.den for _, slots in summands for _, mod, _ in slots if mod is not None))
    total = sum(math.prod(d for *_, d in slots) for _, slots in summands)

    def assembled(fidx, g):
        out = np.zeros((total, total), object)
        off = 0
        for sm, slots in summands:
            dims = [d for *_, d in slots]
            dim = math.prod(dims)
            for s, (f, mod, _) in enumerate(slots):
                if f == fidx:
                    before = np.eye(math.prod(dims[:s]), dtype=object)
                    after = np.eye(math.prod(dims[s + 1 :]), dtype=object)
                    x = mod.dense()[g].astype(object) * (den // mod.den)
                    block = np.kron(np.kron(before, x), after)
                    if sm.dual:
                        block = -block.T[::-1, ::-1]
                    out[off : off + dim, off : off + dim] += block
            off += dim
        return out

    def first(fidx, which, root):
        rs = build_root_system(group.factors[fidx].simple_type)
        return rs.rank + which * rs.n_positive_roots + rs.positive_roots.index(root)

    gens = [assembled(fidx, i) for fidx, i in m.cartan_labels]
    for which in (0, 1):
        gens += [assembled(f, first(f, which, root)) for f, root in m.root_labels]
    for line in group.torus_lines:
        diag = []
        for sm, slots in summands:
            charges = sm.charges or (0,) * group.n_circles
            net = sum(a * c for a, c in zip(line, charges))
            diag += [net * den] * math.prod(d for *_, d in slots)
        gens.append(np.diag(np.array(diag, dtype=object)))
    return np.stack(gens), den


def _realified(re, im, den) -> tuple:
    """The real (gens, den) of a stack (re + i*im) / den acting on R^(2d),
    (Re v_a, Im v_a) at (2a, 2a + 1): an entry x + iy is [[x, -y], [y, x]]."""
    out = np.zeros((re.shape[0], 2 * re.shape[1], 2 * re.shape[2]), dtype=object)
    out[:, 0::2, 0::2] = out[:, 1::2, 1::2] = re
    out[:, 0::2, 1::2], out[:, 1::2, 0::2] = -im, im
    return out, den


def _reference_complex_compact(gens, den, m) -> tuple:
    """The compact generators (re, im, den) on C^d of the real reference
    generators (gens, den) of m: i h, then e - f and i (e + f) per root,
    then i t."""
    nc, npos = len(m.cartan_labels), len(m.root_labels)
    h, t = gens[:nc], gens[nc + 2 * npos :]
    c_re, c_im = [0 * h], [h]
    for a in range(nc, nc + npos):
        e, f = gens[a : a + 1], gens[a + npos : a + npos + 1]
        c_re += [e - f, 0 * e]
        c_im += [0 * e, e + f]
    c_re.append(0 * t)
    c_im.append(t)
    return np.concatenate(c_re), np.concatenate(c_im), den


def _reference_views(m) -> tuple[tuple, tuple]:
    """(Borel generators, real compact generators) of the reference, each
    as (gens, den)."""
    gens, den = _reference_generators(m)
    nc, npos = len(m.cartan_labels), len(m.root_labels)
    borel = np.r_[0 : nc + npos, nc + 2 * npos : gens.shape[0]]
    compact = _realified(*_reference_complex_compact(gens, den, m))
    return (gens[borel], den), compact


def _values(stack) -> tuple[tuple, dict]:
    """Shape and nonzero entries {(k, row, col): value} of a stack, as
    Fractions."""
    ent = {
        (int(k), int(i), int(j)): Fraction(int(x), stack.den)
        for k, i, j, x in zip(stack.k, stack.row, stack.col, stack.val)
        if x
    }
    return stack.shape, ent


def _dense_values(gens, den) -> tuple[tuple, dict]:
    """_values of the dense stack gens / den."""
    ent = {(int(k), int(i), int(j)): Fraction(int(gens[k, i, j]), den) for k, i, j in zip(*np.nonzero(gens))}
    return gens.shape, ent


def _assert_matches_reference(m):
    borel, compact = _reference_views(m)
    assert m.borel_stack.den > 0 and m.compact_stack.den > 0
    assert _values(m.borel_stack) == _dense_values(*borel)
    assert _values(m.compact_stack) == _dense_values(*compact)


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


@pytest.fixture(scope="module")
def realized_specs():
    """Every (group, rep) realized by table 1..4, in call order, then those
    of one mf_stream round, with one and (tables IIa and IIb) with two
    charge lines."""
    from coisotropy import classify

    specs, original = {}, classify.realize

    def recording(group, rep):
        specs[group, rep] = None
        return original(group, rep)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "realize", recording)
        for table in (1, 2, 3, 4):
            classify.reproduce_table(table)
    for group, rep in _table_instantiations():
        specs[group, rep] = None
        if group.n_circles == 2:
            specs[GroupSpec(group.factors, ((1, -2), (2, 3))), rep] = None
    assert any(len(group.torus_lines) == 2 for group, _ in specs)
    return list(specs)


def test_each_module_is_its_semisimple_part_and_torus_lines(realized_specs):
    """Every module reached by table 1..4 and by one mf_stream round, the
    latter with one and with two charge lines: its stack is that of the
    factors on the charge-free summands, followed by diag(net_t) * den for
    each torus line t, and at mf_test's first draw the split rank is the
    rank of the full Borel rows."""
    from coisotropy import mforacle

    for group, rep in realized_specs:
        m = realize(group, rep)
        bare = GroupSpec(group.factors)
        ss = realize(bare, RepSpec(tuple(Summand(sm.terms, sm.dual) for sm in rep.summands)))
        sizes = [realize(bare, RepSpec((Summand(sm.terms, sm.dual),))).space_dim for sm in rep.summands]
        want = [x.astype(object) for x in ss.gens.dense()]
        for line in group.torus_lines:
            net = [sum(a * c for a, c in zip(line, sm.charges)) for sm in rep.summands]
            want.append(np.diag(np.repeat(np.array(net, dtype=object), sizes)) * ss.gens.den)
        assert m.gens.den == ss.gens.den and (m.gens.dense() == np.array(want)).all(), (group, rep)
        rng = mforacle._rng(mforacle.DEFAULT_SEED, 0, 0)
        rows = int_apply(m.borel_stack, mforacle._sample_vector(m.space_dim, rng, mforacle.MF_SAMPLE_BOUND))
        assert mforacle._split_rank(rows, rows.shape[0] - len(group.torus_lines)) == int_rank(rows), (group, rep)


def test_every_semisimple_module_is_block_diagonal_by_summand(realized_specs):
    """Every semisimple module of table 1..4 and of one mf_stream round
    keeps each nonzero inside one summand, so realize's torus lines, constant
    on each summand, commute with it."""
    from coisotropy import matrep

    for group, rep in realized_specs:
        ss = matrep._semisimple(group.factors, tuple(Summand(sm.terms, sm.dual) for sm in rep.summands))
        assert len(ss.sizes) == len(rep.summands) and sum(ss.sizes) == ss.gens.shape[1], (group, rep)
        summand = np.repeat(np.arange(len(ss.sizes)), ss.sizes)
        assert (summand[ss.gens.row] == summand[ss.gens.col]).all(), (group, rep)


def test_borel_stack_equals_the_mask_reference(realized_specs):
    """Sliced from the ordered stack, the Borel view of every module of
    table 1..4 and of one mf_stream round is the masked one: shape, den,
    and k, row, col and val with their dtypes."""
    for group, rep in realized_specs:
        m = realize(group, rep)
        got, want = m.borel_stack, mask_borel_stack(m)
        assert (got.shape, got.den) == (want.shape, want.den), (group, rep)
        for a, b in zip(got[1:5], want[1:5]):
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), (group, rep)


def _digest_stack(digest, stack):
    digest.update(repr((stack.shape, stack.den)).encode())
    for x in stack[1:5]:
        digest.update(x.dtype.str.encode())
        digest.update(repr(x.tolist()).encode() if x.dtype == object else x.tobytes())


# SHA-256 of every stack (gens, then the Borel view) that realize builds
# for realized_specs, taken when the torus check and the Borel view still
# read every nonzero; a change to realize that moves a byte moves it
REALIZED_STACKS_SHA256 = "6b180103b696c8d0dfe55e76aa42d34f71e52b3a9d5eb294a3af751fab855bf4"


def test_the_realized_stacks_match_their_pinned_digest(realized_specs):
    digest = hashlib.sha256()
    for group, rep in realized_specs:
        m = realize(group, rep)
        digest.update(repr((group, rep)).encode())
        _digest_stack(digest, m.gens)
        _digest_stack(digest, m.borel_stack)
    assert len(realized_specs) == 209
    assert digest.hexdigest() == REALIZED_STACKS_SHA256


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
        assert _trace_of_product(a, m.gens.den, k, k) == _trace_of_product(b, md.gens.den, k, k)


def _trace_of_product(z, den, j, k) -> Fraction:
    """tr(z_j z_k) of the dense stack z / den, exactly."""
    return Fraction(int(np.trace(z[j].astype(object) @ z[k].astype(object))), den**2)


def _intertwiners(a: tuple, b: tuple) -> list[np.ndarray]:
    """Basis of the solution space of T a_k = b_k T, for dense generator
    stacks a = (gens, den) and b of equal length, exact (int_kernel).  The
    generators are real, so the complex solutions are the complex span of
    the real ones."""
    (x, x_den), (y, y_den) = a, b
    n, da, _ = x.shape
    db = y.shape[1]
    # y_den T A - x_den B T = 0 for numerators A, B; in row-major order
    # vec(T A) = (I (x) A^T) vec(T) and vec(B T) = (B (x) I) vec(T)
    blocks = [
        y_den * np.kron(np.eye(db, dtype=object), x[k].T.astype(object))
        - x_den * np.kron(y[k].astype(object), np.eye(da, dtype=object))
        for k in range(n)
    ]
    _, kernel = int_kernel(np.concatenate(blocks))
    return [v.reshape(db, da) for v in kernel.T]


def _pick(mod, ks) -> tuple:
    """Generators ks of a module stack, densely, with its denominator."""
    return mod.dense()[ks], mod.den


def test_spin5_equivalent_to_sp2_standard():
    # the simple stacks h_1, h_2 | e_1, e_2 | f_1, f_2; the isomorphism
    # swaps the two simple nodes
    gens_a = _pick(_simple_module(Factor("so", 5), "spin"), [0, 1, 2, 3, 4, 5])
    gens_b = _pick(_simple_module(Factor("sp", 2), "std"), [1, 0, 3, 2, 5, 4])
    space = _intertwiners(gens_a, gens_b)
    assert space
    assert int_rank(space[0]) == 4


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
    assert octonion_left_mult().den == 1
    L = octonion_left_mult().dense()
    minus_two = -2 * np.eye(8, dtype=np.int64)
    for a in range(7):
        for b in range(7):
            anti = L[a] @ L[b] + L[b] @ L[a]
            assert (anti == (minus_two if a == b else 0)).all()


def test_spin7_real_structure_constants():
    vec, spin = so_vector_gens(7), spin7_real_gens()
    assert vec.den == 1
    # s / spin.den are the generators; den * recon = [S_k1, S_k2] in numerators
    v, s = vec.dense(), spin.dense()
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    index = {p: k for k, p in enumerate(pairs)}
    for k1 in (0, 5, 11, 17):
        for k2 in (3, 8, 20):
            bracket_v = v[k1] @ v[k2] - v[k2] @ v[k1]
            coeffs = {
                index[(i, j)]: int(bracket_v[i, j])
                for i, j in zip(*np.nonzero(bracket_v))
                if i < j
            }
            recon = sum(c * s[k] for k, c in coeffs.items())
            assert (spin.den * recon == s[k1] @ s[k2] - s[k2] @ s[k1]).all()


def test_real_block_rep_shapes():
    rep = real_block_rep("triv:2,vec7,spin8", 6)
    assert rep.compact_stack.shape == (21, 17, 17)
    assert (rep.group_rank, rep.trivial_gap) == (6, 0)


@pytest.mark.parametrize("text", ["triv:2,vec7,spin9", "triv,vec7", "vec7,,spin8"])
def test_real_block_rep_rejects_an_unknown_block(text):
    with pytest.raises(RepresentationError, match="unknown real block"):
        real_block_rep(text, 6)


def test_spin_rep_wrapper():
    m = spin_rep(7)
    assert m.space_dim == 8
    with pytest.raises(NotRealizable):
        spin_rep(13)


# ---------------------------------------------------------------------------
# the module certificate


CERTIFIED = {
    "std C2": (Factor("sp", 2), "std", None),
    "spin B3": (Factor("so", 7), "spin", None),
    "weight G2 (1,0)": (Factor("g2", 2), "weight", (1, 0)),
}


def _simple_part(stack, rs):
    """The simple stack h | e | f inside a module stack cartan | raising |
    lowering, as a new stack."""
    r, npos = rs.rank, rs.n_positive_roots
    units = [rs.positive_roots.index(tuple(int(t == i) for t in range(r))) for i in range(r)]
    new = np.full(stack.shape[0], -1)
    new[list(range(r)) + [r + j for j in units] + [r + npos + j for j in units]] = np.arange(3 * r)
    keep = new[stack.k] >= 0
    return stack._replace(
        shape=(3 * r, *stack.shape[1:]),
        k=new[stack.k[keep]],
        **{name: getattr(stack, name)[keep] for name in ("row", "col", "val")},
    )


def _module_and_roots(name):
    """The simple stack of the cached module, and its root system."""
    fac, kind, arg = CERTIFIED[name]
    rs = build_root_system(fac.simple_type)
    return _simple_part(_factor_module(fac, kind, arg), rs), rs


def _entries_of(stack, k):
    """Positions in the stack arrays of generator k's entries, by (row, col)."""
    at = np.flatnonzero(stack.k == k)
    return at[np.lexsort((stack.col[at], stack.row[at]))]


def _corrupt(stack, k, index=0, negate=False):
    # a copy with one entry of generator k negated or raised by 1; the
    # cached module itself is never touched
    t = _entries_of(stack, k)[index]
    val = stack.val.copy()
    val[t] = -val[t] if negate else val[t] + stack.den
    return stack._replace(val=val)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_accepts_cached_module(name):
    _certify(*_module_and_roots(name))


@pytest.mark.parametrize("which", ["cartan", "raising", "lowering"])
@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_corrupted_entry(name, which):
    mod, rs = _module_and_roots(name)
    r = rs.rank
    first, count = {"cartan": (0, r), "raising": (r, r), "lowering": (2 * r, r)}[which]
    # a generator with one nonzero entry stays valid when that entry is
    # rescaled, so corrupt one whose entries are tied to each other
    k = next(k for k in range(first, first + count) if len(_entries_of(mod, k)) >= 2)
    with pytest.raises(RepresentationError):
        _certify(_corrupt(mod, k), rs)


def test_certificate_rejects_a_full_module_stack():
    # the certificate reads exactly the 3r simple generators
    fac = Factor("su", 3)
    rs = build_root_system(fac.simple_type)
    full = _factor_module(fac, "std")
    assert full.shape[0] == rs.rank + 2 * rs.n_positive_roots > 3 * rs.rank
    with pytest.raises(RepresentationError, match="wrong number of generators"):
        _certify(full, rs)
    _certify(_simple_part(full, rs), rs)


def test_a_weight_fault_names_the_simple_root():
    mod, rs = _module_and_roots("weight G2 (1,0)")
    # the entries of e_0 moved into e_1: their h-weights are those of alpha_0
    k = mod.k.copy()
    k[_entries_of(mod, 2)] = 3
    with pytest.raises(RepresentationError, match=r"fails on e_1 of the simple root alpha_1"):
        _certify(mod._replace(k=k), rs)


def test_certificate_accepts_a_positive_cartan_multiple():
    # su(2) on C^2: h, e, 2f keeps every weight, and [e, 2f] = 2h
    mod = _simple_module(Factor("su", 2), "std")
    _certify(mod._replace(val=np.where(mod.k == 2, 2 * mod.val, mod.val)), build_root_system(SimpleType("A", 1)))


def _negated(stack, k):
    """A copy with generator k negated; the cached module is not touched."""
    return stack._replace(val=np.where(stack.k == k, -stack.val, stack.val))


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_a_negated_simple_lowering_generator(name):
    # [e_i, -f_i] = -c h_i with c > 0
    mod, rs = _module_and_roots(name)
    for i in range(rs.rank):
        with pytest.raises(RepresentationError, match=r"c > 0"):
            _certify(_negated(mod, 2 * rs.rank + i), rs)


def test_certificate_accepts_trivial_alt2_of_su2():
    simple = _square(_simple_module(Factor("su", 2), "std"), alt=True)
    assert simple.shape == (3, 1, 1)
    assert not simple.val.any()
    _certify(simple, build_root_system(SimpleType("A", 1)))
    mod = _factor_module(Factor("su", 2), "alt2")
    assert mod.shape == (3, 1, 1) and not mod.val.any()
    assert realize(grp(Factor("su", 2)), R(S(Term("alt2", 1)))).space_dim == 1


def _certificate_outcome(certify, simple, rs):
    """None if certify accepts the stack, else its RepresentationError's message."""
    try:
        certify(simple, rs)
    except RepresentationError as exc:
        return str(exc)
    return None


def _added(stack, k):
    """A copy with den added to generator k at the first empty (a, b) whose
    weight difference is that of its first entry; None if there is none."""
    w = _weights(stack, list(range(stack.shape[0] // 3)))
    t = _entries_of(stack, k)[0]
    fits = (w[:, None] - w[None] == w[stack.row[t]] - w[stack.col[t]]).all(axis=2)
    fits[stack.row[stack.k == k], stack.col[stack.k == k]] = False
    for a, b in np.argwhere(fits)[:1]:
        return stack._replace(
            k=np.append(stack.k, k), row=np.append(stack.row, a), col=np.append(stack.col, b),
            val=np.append(stack.val, stack.den),
        )
    return None


def _fault_injections():
    """(label, simple stack, root system): the CERTIFIED modules and five
    more, each as cached and with every fault the certificate tests above
    inject (one entry raised by den or negated, the first three entries of
    every generator; each generator negated), one entry added where the
    weights allow it, each lowering generator zeroed, and the single cases
    above."""
    su2, su3 = _simple_module(Factor("su", 2), "std"), Factor("su", 3)
    a1 = build_root_system(SimpleType("A", 1))
    extra = {"std A3": (Factor("su", 4), "std", None), "spin D4": (Factor("so", 8), "spin", None),
             "std G2": (Factor("g2", 2), "std", None), "adjoint A2": (su3, "weight", (1, 1)),
             "adjoint B2": (Factor("so", 5), "weight", (0, 2))}
    for name, (fac, kind, arg) in {**CERTIFIED, **extra}.items():
        rs = build_root_system(fac.simple_type)
        mod = _simple_part(_factor_module(fac, kind, arg), rs)
        yield name, mod, rs
        for k in range(mod.shape[0]):
            yield f"{name} -{k}", _negated(mod, k), rs
            if (added := _added(mod, k)) is not None:
                yield f"{name} +{k}", added, rs
            if k >= 2 * rs.rank:
                yield f"{name} 0*{k}", mod._replace(val=np.where(mod.k == k, 0, mod.val)), rs
            for index in range(min(3, len(_entries_of(mod, k)))):
                for negate in (False, True):
                    yield f"{name} {k}/{index}/{negate}", _corrupt(mod, k, index, negate), rs
    g2, rs = _module_and_roots("weight G2 (1,0)")
    k = g2.k.copy()
    k[_entries_of(g2, 2)] = 3
    yield "moved weights", g2._replace(k=k), rs
    yield "positive multiple", su2._replace(val=np.where(su2.k == 2, 2 * su2.val, su2.val)), a1
    yield "trivial alt2", _square(su2, alt=True), a1
    yield "full stack", _factor_module(su3, "std"), build_root_system(su3.simple_type)


def test_certificate_matches_the_pairwise_reference():
    """The stacked certificate accepts or rejects every injected fault as
    the pairwise reference does, naming the same first relation."""
    kinds = ("wrong number", "weight relation", "is not c h", "does not vanish", "Serre relation")
    outcomes = set()
    for label, simple, rs in _fault_injections():
        got = _certificate_outcome(_certify, simple, rs)
        assert got == _certificate_outcome(pairwise_certify, simple, rs), label
        outcomes.add(got and next(kind for kind in kinds if kind in got))
    # acceptance and every kind of failure occur
    assert outcomes == {None, *kinds}


def test_sym2_and_alt2_are_cached():
    fac = Factor("su", 4)
    assert _factor_module(fac, "sym2") is _factor_module(fac, "sym2")
    assert _factor_module(fac, "alt2") is _factor_module(fac, "alt2")


def test_derived_root_vectors_match_the_reference(monkeypatch):
    """Every module reached by table 1..4, by the instantiations of one
    mf_stream round and E7 (0,...,0,1): each non-simple e_beta is
    [e_i, e_beta'], f_beta is [f_beta', f_i], and [e_beta, f_beta] is
    c h_beta with c > 0 (reference.root_vector_faults)."""
    from coisotropy import classify, matrep

    keys, original = set(), matrep._factor_module
    monkeypatch.setattr(matrep, "_factor_module", lambda *key: keys.add(key) or original(*key))
    matrep._semisimple.cache_clear()  # a cached part would reach no _factor_module
    for table in (1, 2, 3, 4):
        classify.reproduce_table(table)
    for group, rep in _table_instantiations():
        realize(group, rep)
    keys.add((Factor("e7", 7), "weight", (0, 0, 0, 0, 0, 0, 1)))
    assert len(keys) == 30  # 21 of them reached by table 1..4
    for key in keys:
        rs = build_root_system(key[0].simple_type)
        assert root_vector_faults(original(*key), rs) == [], key
        # byte for byte the stack of the per-root reference derivation
        got, want = original(*key), per_root_vectors(_simple_stack(*key), rs)
        assert got.shape == want.shape and type(got.den) is type(want.den) and got.den == want.den, key
        for name in ("k", "row", "col", "val"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), (key, name)


def test_lowering_generators_pair_positively_with_raising():
    """[e_beta, f_beta] = c h_beta with c > 0 for every positive root beta,
    h_beta acting by <mu, beta^vee> on the weight mu.  This holds when
    f_beta is the adjoint of e_beta under a positive invariant form; the
    certificate checks it on the simple roots, the derivation carries it to
    the others, and this is the direct check."""
    modules = [
        (Factor("su", 4), "std", None),
        (Factor("so", 7), "std", None),
        (Factor("sp", 3), "std", None),
        (Factor("so", 8), "std", None),
        (Factor("su", 4), "sym2", None),
        (Factor("sp", 3), "alt2", None),
        (Factor("so", 9), "spin", None),
        (Factor("so", 10), "weight", _other_half_spin(10)),
        (Factor("g2", 2), "std", None),
        (Factor("f4", 4), "std", None),
        (Factor("e6", 6), "std", None),
        (Factor("g2", 2), "weight", (0, 1)),
        (Factor("sp", 2), "weight", (0, 1)),
        (Factor("su", 3), "weight", (2, 1)),
    ]
    for fac, kind, arg in modules:
        rs = build_root_system(fac.simple_type)
        r, npos = rs.rank, rs.n_positive_roots
        gens = _factor_module(fac, kind, arg).dense().astype(object)
        weights = np.array([np.diag(gens[i]) for i in range(r)]).T  # den * <mu, alpha_i^vee>
        for k in range(npos):
            h = weights @ rs._pairing[k].astype(object)  # den * <mu, beta^vee>
            e, f = gens[r + k], gens[r + npos + k]
            b = e @ f - f @ e
            s = np.flatnonzero(h)[0]
            assert (b * h[s] == b[s, s] * np.diag(h)).all(), (fac, kind, rs.positive_roots[k])
            assert b[s, s] * h[s] > 0, (fac, kind, rs.positive_roots[k])


# ---------------------------------------------------------------------------
# functor identities of the symmetric and exterior squares


@pytest.mark.parametrize("fam,n", [("A", 3), ("B", 2), ("C", 3), ("D", 4)])
def test_sym2_alt2_split_the_tensor_square(fam, n):
    factor = {"A": ("su", n + 1), "B": ("so", 2 * n + 1), "C": ("sp", n), "D": ("so", 2 * n)}[fam]
    std = _factor_module(Factor(*factor), "std")
    rs = build_root_system(SimpleType(fam, n))
    r, npos, d = rs.rank, rs.n_positive_roots, std.shape[1]
    sym, alt = _square(std, alt=False), _square(std, alt=True)
    assert sym.shape[1] + alt.shape[1] == d * d
    # V (x) V = S2 V (+) L2 V with tr_S2(xy) = (d + 2) tr(xy) and
    # tr_L2(xy) = (d - 2) tr(xy) for traceless x, y
    pairs = [(r + j, r + npos + j) for j in range(npos)] + [(i, i) for i in range(r)]
    z, zs, za = std.dense(), sym.dense(), alt.dense()
    for x, y in pairs:
        t = _trace_of_product(z, std.den, x, y)
        assert _trace_of_product(zs, sym.den, x, y) == t * (d + 2)
        assert _trace_of_product(za, alt.den, x, y) == t * (d - 2)


def _simple_generators(mod, rs) -> tuple:
    r, npos = rs.rank, rs.n_positive_roots
    simple = [r + k for k, root in enumerate(rs.positive_roots) if sum(root) == 1]
    return _pick(mod, simple + [k + npos for k in simple])


def test_each_weight_module_is_built_once_and_read_only(unbuilt_weight_modules):
    # std, sym2 and alt2 of su(5) need one build, the std module
    fac = Factor("su", 5)
    for kind in ("std", "sym2", "alt2"):
        _factor_module.__wrapped__(fac, kind)
    info = _weight_module.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    std = _weight_module(SimpleType("A", 4), (1, 0, 0, 0))
    fresh = _weight_module.__wrapped__(SimpleType("A", 4), (1, 0, 0, 0))
    assert (std.shape, std.den) == (fresh.shape, fresh.den)
    for x, y in zip(std[1:5], fresh[1:5]):
        assert x.tolist() == y.tolist() and not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        std.val[0] = 7


@pytest.mark.parametrize(
    "build",
    [lambda: _factor_module(Factor("su", 3), "std"), spin7_real_gens],
    ids=["factor-module", "spin7"],
)
def test_each_cached_stack_is_read_only(build):
    # every caller shares the cached stack, so an in-place write must fail
    # and leave the next call's entries as they were
    stack = build()
    before = [x.copy() for x in stack[1:5]]
    for x in stack[1:5]:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 99
    assert all((x == y).all() for x, y in zip(build()[1:5], before))


@pytest.mark.parametrize(
    "kind,weight", [("sym2", (2, 0, 0)), ("alt2", (0, 1, 0))], ids=["sym2", "alt2"]
)
def test_square_of_su4_std_is_its_weight_module(kind, weight):
    rs = build_root_system(SimpleType("A", 3))
    square = _factor_module(Factor("su", 4), kind)
    target = _factor_module(Factor("su", 4), "weight", weight)
    d = square.shape[1]
    assert d == target.shape[1]
    # simple e_i, f_i with [e_i, f_i] = h_i on both sides generate the algebra
    space = _intertwiners(_simple_generators(square, rs), _simple_generators(target, rs))
    assert space
    assert int_rank(space[0]) == d


@pytest.mark.parametrize("stype, weight", [(SimpleType("A", 2), (2, 1)), (SimpleType("G", 2), (1, 1))])
def test_gram_blocks_choose_the_fraction_rref_pivots(stype, weight, monkeypatch, unbuilt_weight_modules):
    """Every Gram block that reaches the kernel is nonzero with more than
    one candidate, and the states chosen from it (its non-free columns) are
    the pivot columns of the Fraction RREF, on which the block has a
    nonsingular principal part."""
    from reference import frac_rref

    from coisotropy import matrep

    blocks, memo = [], matrep._kernel_of

    def kernel_of(shape, data):
        blocks.append(np.array(data, dtype=object).reshape(shape))
        return memo(shape, data)

    monkeypatch.setattr(matrep, "_kernel_of", kernel_of)
    _weight_module(stype, weight)
    assert any(len(int_kernel(g)[0]) < len(g) for g in blocks)  # some candidates are dependent
    for g in blocks:
        assert len(g) > 1 and any(x for row in g for x in row)
        _, k = int_kernel(g)
        free = {int(np.flatnonzero(k[:, j])[-1]) for j in range(k.shape[1])}
        pivots = frac_rref([[Fraction(x) for x in row] for row in g])[1]
        assert [c for c in range(len(g)) if c not in free] == pivots
        sub = [[Fraction(g[a][b]) for b in pivots] for a in pivots]
        assert frac_rref(sub)[1] == list(range(len(pivots)))


def test_slot_embedding_matches_kron():
    # factor 1 fills the first and the last slot of std(1) (x) std(2) (x) std(1)
    g = grp(Factor("su", 2), Factor("su", 3), lines=[(1,)])
    slots = (Term("std", 1), Term("std", 2), Term("std", 1))
    m = realize(g, RepSpec(summands=(Summand(terms=slots, charges=(1,)),)))
    assert _values(m.gens) == _dense_values(*_reference_generators(m))
    _assert_matches_reference(m)


def test_integer_views_scale_the_generators():
    m = realize(grp(Factor("so", 5), lines=[(1,)]), RepSpec(
        summands=(Summand(terms=(Term("spin", 1),), charges=(1,)),)
    ))
    borel, compact = _reference_views(m)
    assert borel[0].shape[1:] == (4, 4) and compact[0].shape[1:] == (8, 8)
    for view, (gens, den) in ((m.borel_stack, borel), (m.compact_stack, compact)):
        stack = view.dense()
        assert view.den > 0 and stack.shape == gens.shape
        for at in np.ndindex(gens.shape):
            assert Fraction(int(stack[at]), view.den) == Fraction(int(gens[at]), den)
    assert real_block_rep("vec7", 3).compact_stack.shape == (21, 7, 7)


@pytest.mark.parametrize(
    "group, summand",
    [
        (grp(Factor("so", 5), lines=[(1,)]), S(Term("spin", 1), charges=(1,))),
        (grp(Factor("su", 3), Factor("su", 2)), S(Term("std", 1), Term("std", 2), dual=True)),
        (grp(Factor("sp", 2), lines=[(1,)]), S(Term("weight", 1, (0, 1)), charges=(2,))),
    ],
)
def test_real_orbit_rows_are_the_complex_action_interleaved(group, summand):
    # the rows g.v of the real compact stack at an integer v in R^(2d) are
    # (Re, Im) of the complex compact generators at v[0::2] + i*v[1::2],
    # the real part of coordinate a in column 2a, its imaginary part in 2a + 1
    m = realize(group, R(summand))
    c_re, c_im, den = _reference_complex_compact(*_reference_generators(m), m)
    v = np.array([(7 * t) % 11 - 5 for t in range(2 * m.space_dim)], dtype=object)
    x, y = v[0::2], v[1::2]
    want = np.zeros((len(c_re), 2 * m.space_dim), dtype=object)
    want[:, 0::2], want[:, 1::2] = c_re @ x - c_im @ y, c_re @ y + c_im @ x
    rows = int_apply(m.compact_stack, v.astype(np.int64))
    assert want.any() and (rows * den == want * m.compact_stack.den).all()


def _diagonal_weights(m) -> list[tuple[Fraction, ...]]:
    """The sorted weights of the basis of m: the diagonals of its Cartan
    and torus generators, which are diagonal."""
    dense = m.gens.dense()
    n, nc = dense.shape[0], len(m.cartan_labels)
    diagonal = [k for k in range(n) if k < nc or k >= n - len(m.group.torus_lines)]
    assert not (dense[diagonal] * (1 - np.eye(m.space_dim, dtype=np.int64))).any()
    return sorted(
        tuple(Fraction(int(dense[k, t, t]), m.gens.den) for k in diagonal) for t in range(m.space_dim)
    )


@pytest.mark.parametrize(
    "group, summand, charges",
    [
        ("su(3) + u1[1]", "std(1)", "1"),
        ("e6(6) + u1[1]", "std(1)", "2"),
        ("g2(2) + u1[1]", "std(1)", "1"),
        ("so(10) + u1[1]", "spin(1)", "3"),
        ("su(4) + u1[1]", "alt2(1)", "1"),
        ("su(3) + u1[1,0] + u1[0,1]", "sym2(1)", "2,-1"),
    ],
)
def test_the_dual_with_negated_charges_negates_every_weight(group, summand, charges):
    """X* @ -c has exactly the negated weight multiset of X @ c."""
    from coisotropy.dsl import parse_repspec

    def weights(text):
        return _diagonal_weights(realize(*parse_repspec(text)))

    negated = ",".join(str(-int(c)) for c in charges.split(","))
    plain = weights(f"{group} on {summand} @ {charges}")
    dual = weights(f"{group} on {summand} * @ {negated}")
    assert dual == sorted(tuple(-x for x in mu) for mu in plain)
    assert dual != plain  # the charges alone tell X from X*
