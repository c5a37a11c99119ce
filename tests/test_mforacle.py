import threading

import pytest

import numpy as np

from coisotropy.classify import WITNESS_PLANE
from coisotropy.dsl import parse_repspec
from coisotropy.linalg import int_apply, int_rank, realify
from coisotropy.matrep import Factor, GroupSpec, RepresentationError, RepSpec, Summand, Term, real_block_rep, realize
from coisotropy.mforacle import (
    CohomReport,
    brackets_vanish,
    cohomogeneity,
    coisotropic_by_rank,
    embed_p_so_even,
    lie_triple_closure,
    lie_triple_test,
    maximal_abelian_in_p,
    mf_test,
    principal_isotropy_rank,
    so_even_u_pair,
    sp_u_pair,
)
from coisotropy.rootsys import DominantWeight


def rep_of(text):
    group, module = parse_repspec(text)
    return realize(group, module)


def test_mf_scalar_on_line():
    assert mf_test(rep_of("u1[1] on triv @ 1")) is True


def test_mf_so5_needs_scalar():
    assert mf_test(rep_of("so(5) + u1[1] on std(1) @ 1")) is True
    assert mf_test(rep_of("so(5) on std(1)")) is False


def test_mf_through_rank_three_symplectic_model():
    # the five-dimensional module through the sp(2) weight construction
    from coisotropy.matrep import GroupSpec, Factor, RepSpec, Summand, Term

    g = GroupSpec(factors=(Factor("sp", 2),), torus_lines=((1,),))
    r = RepSpec(summands=(Summand(terms=(Term("weight", 1, (0, 1)),), charges=(1,)),))
    assert mf_test(realize(g, r)) is True
    g0 = GroupSpec(factors=(Factor("sp", 2),))
    r0 = RepSpec(summands=(Summand(terms=(Term("weight", 1, (0, 1)),)),))
    assert mf_test(realize(g0, r0)) is False


def test_mf_dual_invariance():
    for text in (
        "su(4) + u1[1] on alt2(1) @ 1",
        "su(2) + sp(2) + u1[1] on std(1) (x) std(2) @ 1",
        "su(3) on sym2(1)",
    ):
        group, module = parse_repspec(text)
        from coisotropy.matrep import RepSpec, Summand

        dualized = RepSpec(
            summands=tuple(
                Summand(terms=s.terms, dual=not s.dual, charges=s.charges)
                for s in module.summands
            )
        )
        assert mf_test(realize(group, module)) == mf_test(realize(group, dualized))


def test_mf_rank_scale_invariance():
    # the Borel rank at v equals the rank at any nonzero multiple of v
    from coisotropy.linalg import float_rank

    b = rep_of("su(3) + u1[1] on std(1) @ 1").borel_stack
    x = np.array([1, 2, 3])

    def rank_at(t):
        rows = int_apply(b, t * x)
        assert float_rank(rows) == int_rank(rows)
        return int_rank(rows)

    assert rank_at(1) == rank_at(3) == rank_at(-2)


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("line", [False, True], ids=["bare", "u1"])
def test_either_half_spin_gives_the_same_answers(n, line):
    """The outer automorphism of so(2r) exchanges the spin module with the
    other half-spin module omega_(r-1), a weight term, and fixes the torus
    line, so the two realize conjugate images."""
    r = n // 2
    other = DominantWeight.fundamental(r, r - 2).coeffs
    group = GroupSpec((Factor("so", n),), ((1,),) if line else ())
    charges = (1,) if line else ()
    answers = []
    for term in (Term("spin", 1), Term("weight", 1, other)):
        m = realize(group, RepSpec((Summand((term,), charges=charges),)))
        answers.append((mf_test(m), coisotropic_by_rank(m)))
    assert answers[0] == answers[1]


def test_cohomogeneity_sphere():
    m = rep_of("su(3) + u1[1] on std(1) @ 1")
    assert cohomogeneity(m) == 1
    assert principal_isotropy_rank(m) == 2


def test_cohomogeneity_orbit_dimension_identity():
    from coisotropy.mforacle import _sample_vector
    import random

    m = rep_of("su(2) + u1[1] on std(1) @ 1")
    rng = random.Random(7)
    v = _sample_vector(4, rng, 97)
    orbit = int_rank(int_apply(m.compact_stack, v))
    assert cohomogeneity(m) + orbit == 4


def test_checkpoint_symplectic_chain():
    # two circles and a unitary factor on C^k + C^k + C
    for k, princ in ((3, 1), (4, 2)):
        text = (
            f"su({k}) + u1[1,1,0] + u1[1,0,1] + u1[0,1,1] on "
            "std(1) @ 1,0,0 (+) std(1) @ 0,1,0 (+) triv @ 0,0,1"
        )
        m = rep_of(text)
        report = coisotropic_by_rank(m)
        assert report.cohomogeneity == 4
        assert report.group_rank == k + 2
        assert report.principal_isotropy_rank == princ
        assert report.coisotropic


def test_checkpoint_exceptional_slice_rank_gap():
    text = "su(3) + su(3) + u1[1] on std(1) @ 0 (+) std(1) (x) std(2) @ 1"
    report = coisotropic_by_rank(rep_of(text))
    assert report.cohomogeneity == 7
    assert report.group_rank == 5
    assert report.principal_isotropy_rank == 0
    assert not report.coisotropic


def test_checkpoint_real_spin_block():
    rep = real_block_rep("triv:2,vec7,spin8", 6)
    assert cohomogeneity(rep) == 4
    assert principal_isotropy_rank(rep) == 2
    report = coisotropic_by_rank(rep)
    assert report.group_rank == 6 and report.coisotropic  # 4 == 6 - 2


def test_coisotropic_report_consistency_with_mf():
    cases = [
        ("su(2) + u1[1] on std(1) @ 1", True),
        ("so(5) + u1[1] on std(1) @ 1", True),
        ("so(5) on std(1)", False),
        ("su(2) + su(3) + u1[1] on std(1) (x) std(2) @ 1", True),
        ("su(3) on sym2(1)", False),
    ]
    for text, _ in cases:
        m = rep_of(text)
        assert coisotropic_by_rank(m).coisotropic == mf_test(m)


def test_a_real_rep_states_the_rank_it_is_built_with():
    # so(7) on R^7: a sphere, isotropy so(6) of rank 3
    for rank in (3, 5):
        report = coisotropic_by_rank(real_block_rep("vec7", rank))
        assert (report.cohomogeneity, report.group_rank, report.principal_isotropy_rank) == (1, rank, 3)
    assert real_block_rep("vec7", 3).trivial_gap == 0


def test_symmetric_pair_axioms():
    so_even_u_pair(3).validate()
    sp_u_pair(2).validate()


def _complex_bracket(x, y):
    """[x, y] of complex matrices given as (re, im) integer pairs."""
    (a, b), (c, d) = x, y
    return a @ c - b @ d - (c @ a - d @ b), a @ d + b @ c - (c @ b + d @ a)


def test_lie_triple_raw_witness_not_closed():
    res = lie_triple_closure([realify(*w) for w in WITNESS_PLANE])
    assert not res.closed
    assert res.witness == (0, 1, 0)
    assert res.witness_bracket is not None
    # the reported bracket is [[x_i, x_j], x_k] realified, and it leaves the real span
    x = [(re.astype(object), im.astype(object)) for re, im in WITNESS_PLANE]
    i, j, k = res.witness
    want = _complex_bracket(_complex_bracket(x[i], x[j]), x[k])
    assert (res.witness_bracket == realify(*want)).all()
    rows = [realify(*w).ravel() for w in WITNESS_PLANE]
    grown = rows + [res.witness_bracket.ravel()]
    assert int_rank(np.array(grown, dtype=object)) == int_rank(np.array(rows, dtype=object)) + 1


def test_lie_triple_single_vector_closed():
    assert lie_triple_closure([realify(*WITNESS_PLANE[0])]).closed


def _complex_of(m):
    """The complex matrix A + iB whose realification is m = [[A, -B], [B, A]]."""
    n = m.shape[0] // 2
    assert (m == realify(m[:n, :n], m[n:, :n])).all()
    return m[:n, :n] + 1j * m[n:, :n]


@pytest.mark.parametrize(
    "basis",
    [[realify(*w) for w in WITNESS_PLANE], sp_u_pair(2).k_basis + sp_u_pair(2).p_basis],
    ids=["witness-plane", "sp(2)/u(2)"],
)
def test_realified_brackets_are_the_complex_commutators(basis):
    from coisotropy.linalg import _bracket

    for x in basis:
        for y in basis:
            cx, cy = _complex_of(x), _complex_of(y)
            c = cx @ cy - cy @ cx
            assert (_bracket(x, y) == realify(c.real, c.imag)).all()


def test_lie_triple_embedded_model_closes():
    # identification dependence: the equivariant orthogonal embedding of the
    # same plane is a genuine triple system; recorded, not hidden
    pair = so_even_u_pair(3)
    res = lie_triple_test(pair, [embed_p_so_even(w) for w in WITNESS_PLANE])
    assert res.closed


def test_lie_triple_membership_guard():
    pair = so_even_u_pair(3)
    bad = np.zeros((6, 6), dtype=np.int64)
    bad[0, 1], bad[1, 0] = 1, -1  # lives in k, not p
    with pytest.raises(ValueError, match="not contained in p"):
        lie_triple_test(pair, [bad])


def test_abelian_plane_section():
    pair = sp_u_pair(2)
    plane = maximal_abelian_in_p(pair)
    assert len(plane) == 2
    assert brackets_vanish(plane)
    assert lie_triple_test(pair, plane).closed


def test_cohom_report_flag():
    r = CohomReport(cohomogeneity=4, group_rank=6, principal_isotropy_rank=2)
    assert r.coisotropic
    r2 = CohomReport(cohomogeneity=7, group_rank=5, principal_isotropy_rank=0)
    assert not r2.coisotropic


@pytest.mark.parametrize("oracle", [mf_test, cohomogeneity, coisotropic_by_rank], ids=lambda f: f.__name__)
def test_a_zero_dimensional_model_is_rejected(oracle):
    # realize makes no such model (every summand has dimension >= 1), and
    # one built by hand has no nonzero point to sample: every orbit oracle
    # samples through _stabilize, which rejects it before drawing
    from coisotropy.linalg import _int_stack
    from coisotropy.matrep import MatrixRep

    none = np.zeros(0, dtype=np.int64)
    rep = MatrixRep(
        group=GroupSpec(torus_lines=((1,),)),
        rep=RepSpec(summands=(Summand(terms=(Term("triv"),), charges=(0,)),)),
        gens=_int_stack((1, 0, 0), none, none, none, none, 1),
        cartan_labels=(),
        root_labels=(),
    )
    assert rep.space_dim == 0
    # in a daemon thread with a time limit, so that an oracle that samples
    # Z^0 forever fails the test rather than hangs the suite
    outcome = []

    def run():
        try:
            oracle(rep)
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), f"{oracle.__name__} still samples a model of dimension 0"
    with pytest.raises(ValueError, match="dimension 0 has no point to sample"):
        if outcome[0] is not None:
            raise outcome[0]


def test_mf_implies_dimensional_condition():
    cases = [
        "u1[1] on triv @ 1",
        "su(2) + u1[1] on std(1) @ 1",
        "so(5) + u1[1] on std(1) @ 1",
        "su(2) + su(3) + u1[1] on std(1) (x) std(2) @ 1",
        "su(4) + u1[1] on alt2(1) @ 1",
    ]
    for text in cases:
        group, module = parse_repspec(text)
        m = realize(group, module)
        if mf_test(m):
            assert group.borel_dim >= m.space_dim


# ---------------------------------------------------------------------------
# failure paths, by fault injection


def test_float_rank_disagreement_raises(monkeypatch):
    from coisotropy import mforacle

    monkeypatch.setattr(mforacle, "float_rank", lambda rows: int_rank(rows) - 1)
    with pytest.raises(mforacle.OracleDisagreement):
        mf_test(rep_of("so(5) + u1[1] on std(1) @ 1"))


def test_unstable_samples_raise_genericity_error(monkeypatch):
    from coisotropy import mforacle

    for rounds in (mforacle.MAX_ROUNDS, 2):  # the message names the rounds run
        monkeypatch.setattr(mforacle, "MAX_ROUNDS", rounds)
        calls = []

        def evaluate(v):
            calls.append(v)
            return len(calls)  # a different value on every sample

        with pytest.raises(mforacle.GenericityError, match=f"after {rounds} rounds"):
            mforacle._stabilize(evaluate, 6, 7, mforacle.SAMPLE_BOUND)
        assert len(calls) == rounds * mforacle.N_SAMPLES


# ---------------------------------------------------------------------------
# early stop: a sample at the rank ceiling certifies and ends sampling


@pytest.fixture
def probes(monkeypatch):
    """Counts the rank evaluations of the oracles and keeps their probes."""
    from coisotropy import mforacle

    seen = {"int_rank": 0, "float_rank": 0, "probes": []}
    stabilize = mforacle._stabilize

    def counting(name):
        inner = getattr(mforacle, name)

        def wrapped(*args):
            seen[name] += 1
            return inner(*args)

        return wrapped

    def keep(*args):
        probe = stabilize(*args)
        seen["probes"].append(probe)
        return probe

    monkeypatch.setattr(mforacle, "int_rank", counting("int_rank"))
    monkeypatch.setattr(mforacle, "float_rank", counting("float_rank"))
    monkeypatch.setattr(mforacle, "_stabilize", keep)
    return seen


def test_full_rank_sample_certifies_mf_after_one_sample(probes):
    assert mf_test(rep_of("so(5) + u1[1] on std(1) @ 1")) is True
    assert probes["int_rank"] == 1
    (probe,) = probes["probes"]
    assert probe.certified and probe.value == 5 and len(probe.sample_points) == 1


def test_mf_test_ranks_the_borel_rows_at_its_first_draw(monkeypatch):
    # the first point drawn for C^5 is an integer point of Z^5 with
    # coordinates in [-MF_SAMPLE_BOUND, MF_SAMPLE_BOUND]
    from coisotropy import mforacle

    # float_rank receives the full Borel rows of every draw
    seen, inner = [], mforacle.float_rank
    monkeypatch.setattr(mforacle, "float_rank", lambda rows: seen.append(rows) or inner(rows))
    m = rep_of("so(5) + u1[1] on std(1) @ 1")
    assert mf_test(m) is True
    rng = mforacle._rng(mforacle.DEFAULT_SEED, 0, 0)
    v = mforacle._sample_vector(5, rng, mforacle.MF_SAMPLE_BOUND)
    assert np.abs(v).max() > mforacle.SAMPLE_BOUND
    (rows,) = seen
    assert (rows == int_apply(m.borel_stack, v)).all()


def test_the_integer_sample_has_the_rank_of_a_gaussian_point(monkeypatch):
    # the Borel rows are rational in v, so their rank over C at mf_test's
    # integer sample equals the rank at a Gaussian-integer point, taken
    # here through the realification, for every module of table 1..4
    import random

    from coisotropy import classify, mforacle

    modules, mf = {}, classify.mf_test

    def recording(m, seed):
        modules.setdefault((m.group, m.rep), m)
        return mf(m, seed)

    monkeypatch.setattr(classify, "mf_test", recording)
    for table in (1, 2, 3, 4):
        classify.reproduce_table(table)
    monkeypatch.undo()
    probes, stabilize = [], mforacle._stabilize
    monkeypatch.setattr(mforacle, "_stabilize", lambda *a: probes.append(stabilize(*a)) or probes[-1])
    assert len(modules) >= 80
    for t, m in enumerate(modules.values()):
        probes.clear()
        mf_test(m)
        (probe,) = probes
        v = probe.sample_points[0]
        b = m.borel_stack
        rng = random.Random(f"gaussian:{t}")
        x, y = ([rng.randint(-97, 97) for _ in range(m.space_dim)] for _ in range(2))
        gaussian = int_rank(realify(int_apply(b, np.array(x)), int_apply(b, np.array(y)))) // 2
        assert int_rank(int_apply(b, v)) == gaussian


def test_a_nearly_singular_full_rank_sample_passes_the_float_check(monkeypatch):
    # at seed 1933 the first sample of this module gives a full-rank 28 x 28
    # matrix whose smallest singular value is about 3e-9 of its largest; the
    # float rank must see the exact rank 28 there
    from coisotropy import mforacle
    from coisotropy.linalg import float_rank

    seen, inner = [], mforacle.float_rank
    monkeypatch.setattr(
        mforacle, "float_rank", lambda rows: seen.append(rows) or inner(rows)
    )
    m = rep_of("su(7) + u1[1,0] on std(1) * @ 1,0 (+) alt2(1) @ 0,1")
    assert mf_test(m, seed=1933) is True
    (rows,) = seen
    sv = np.linalg.svd(rows.astype(float), compute_uv=False)
    assert sv[-1] < 1e-8 * sv[0]
    assert float_rank(rows) == int_rank(rows) == m.space_dim == 28


def test_fewer_borel_rows_than_dim_is_false_after_one_sample(probes):
    m = rep_of("su(3) on sym2(1)")
    assert m.borel_stack.shape[0] < m.space_dim
    assert mf_test(m) is False
    assert probes["float_rank"] == 1
    assert probes["probes"][0].certified


def test_rank_deficient_mf_test_keeps_every_sample(probes):
    from coisotropy.mforacle import N_SAMPLES

    m = rep_of("so(5) on std(1)")
    assert m.borel_stack.shape[0] >= m.space_dim
    assert mf_test(m) is False
    assert probes["float_rank"] == N_SAMPLES
    (probe,) = probes["probes"]
    assert not probe.certified and probe.value == 4 and len(probe.sample_points) == N_SAMPLES


def test_stabilize_stops_at_the_first_value_on_the_ceiling():
    from coisotropy import mforacle

    values = iter([3, 5, 4, 5])
    probe = mforacle._stabilize(lambda v: next(values), 6, 7, mforacle.SAMPLE_BOUND, ceiling=5)
    assert (probe.value, probe.certified, probe.rounds_used, probe.seeds) == (5, True, 1, ["7:0:0", "7:1:0"])
    assert next(values) == 4  # the third sample was never drawn


def test_a_probe_records_the_key_of_every_point():
    # round 1 disagrees, round 2 agrees at ten times the bound; each point
    # is drawn again from the key the probe lists for it
    import random

    from coisotropy import mforacle

    values = iter([1, 2, 3, 4, 4, 4])
    probe = mforacle._stabilize(lambda v: next(values), 6, 7, mforacle.SAMPLE_BOUND)
    assert (probe.value, probe.rounds_used) == (4, 2)
    assert probe.seeds == [f"7:{idx}:1" for idx in range(mforacle.N_SAMPLES)]
    for key, point in zip(probe.seeds, probe.sample_points, strict=True):
        redrawn = mforacle._sample_vector(6, random.Random(key), 10 * mforacle.SAMPLE_BOUND)
        assert (redrawn == point).all()


def test_cohomogeneity_stops_at_its_ceiling(probes):
    # 17 compact generators on a real 24-dimensional space, acting with
    # finite generic stabilizer: the orbit rank reaches 17 at once
    m = rep_of("su(3) + su(3) + u1[1] on std(1) @ 0 (+) std(1) (x) std(2) @ 1")
    assert cohomogeneity(m) == 24 - 17
    assert probes["int_rank"] == 1
    assert probes["probes"][0].certified


def test_cohomogeneity_below_its_ceiling_keeps_every_sample(probes):
    from coisotropy.mforacle import N_SAMPLES

    assert cohomogeneity(rep_of("su(3) + u1[1] on std(1) @ 1")) == 1
    assert probes["int_rank"] == N_SAMPLES
    assert not probes["probes"][0].certified


# ---------------------------------------------------------------------------
# the Lie triple code ranks each fixed basis once


def test_symmetric_pair_validate_ranks_each_basis_once(monkeypatch):
    from coisotropy import mforacle

    calls = {"int_rank": 0, "int_kernel": 0}
    for name in calls:
        inner = getattr(mforacle, name)

        def wrapped(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(mforacle, name, wrapped)
    so_even_u_pair(4).validate()
    assert calls == {"int_rank": 0, "int_kernel": 2}  # k and p, once each


def test_symmetric_pair_validate_rejects_a_misplaced_element():
    pair = so_even_u_pair(3)
    pair.k_basis.append(pair.p_basis[0])
    with pytest.raises(ValueError, match="escapes"):
        pair.validate()


# ---------------------------------------------------------------------------
# the oracles on the modular kernel against a Fraction reference


def _reference_isotropy_algebra(rep, v):
    """A basis of the matrices of the isotropy algebra at v, as a stack of
    real integer matrices: the Fraction RREF kernel of the orbit map, its
    matrices reduced to independent ones by a Fraction RREF."""
    from fractions import Fraction
    from math import lcm

    import numpy as np

    from reference import frac_nullspace, frac_rref

    gens = rep.compact_stack.dense()
    n, d = gens.shape[:2]
    flat = gens.reshape(n, -1).tolist()
    system = [[Fraction(x) for x in comp] for comp in int_apply(rep.compact_stack, v).T.tolist()]
    matrices = [
        [sum(c * row[e] for c, row in zip(vec, flat)) for e in range(d * d)]
        for vec in frac_nullspace(system, n)
    ]
    rref, pivots = frac_rref(matrices) if matrices else ([], [])
    basis = []
    for row in rref[: len(pivots)]:
        scale = lcm(*(x.denominator for x in row))
        basis.append([int(x * scale) for x in row])
    return np.array(basis, dtype=object).reshape(len(basis), d, d)


def _reference_algebra_rank(basis, rng, bound=97):
    """n minus the Bareiss rank of the commutators [X_k, z]."""
    import numpy as np

    from reference import bareiss_rank

    n = len(basis)
    if n == 0:
        return 0
    c = np.array([rng.randint(-bound, bound) for _ in range(n)], dtype=object)
    z = np.tensordot(c, basis, axes=1)
    return n - bareiss_rank((basis @ z - z @ basis).reshape(n, -1).tolist())


def _reference_principal_rank(rep, seed, kernel_rank):
    """The principal isotropy rank at the oracle's sample points, from the
    reference isotropy algebra; kernel_rank is the rank of the kernel of
    the action, which no matrix shows."""
    import random

    from coisotropy import mforacle

    def rank_at(v):
        basis = _reference_isotropy_algebra(rep, v)
        ranks = {_reference_algebra_rank(basis, random.Random(t)) for t in range(3)}
        assert len(ranks) == 1
        return ranks.pop() + kernel_rank

    dim = rep.compact_stack.shape[1]
    return mforacle._stabilize(rank_at, dim, seed, mforacle.SAMPLE_BOUND).value


# name -> (module, rank of the kernel of its action)
ISOTROPY_CASES = {
    "sphere": (lambda: rep_of("su(3) + u1[1] on std(1) @ 1"), 0),
    "chain": (
        lambda: rep_of(
            "su(3) + u1[1,1,0] + u1[1,0,1] + u1[0,1,1] on "
            "std(1) @ 1,0,0 (+) std(1) @ 0,1,0 (+) triv @ 0,0,1"
        ),
        0,
    ),
    "slice": (lambda: rep_of("su(3) + su(3) + u1[1] on std(1) @ 0 (+) std(1) (x) std(2) @ 1"), 0),
    "spin": (lambda: real_block_rep("triv:2,vec7,spin8", 6), 0),
    "trivial-factor": (lambda: rep_of("su(3) + so(5) + u1[1] on std(1) @ 1"), 2),
}


@pytest.mark.parametrize("name", sorted(ISOTROPY_CASES))
def test_isotropy_oracles_match_the_fraction_reference(name):
    make, kernel_rank = ISOTROPY_CASES[name]
    rep = make()
    for seed in (20240101, 7, 918273):
        want = _reference_principal_rank(rep, seed, kernel_rank)
        assert principal_isotropy_rank(rep, seed) == want
        report = coisotropic_by_rank(rep, seed)
        assert report.principal_isotropy_rank == want and report.isotropy_certified
        assert report.cohomogeneity == cohomogeneity(rep, seed)
        assert report.coisotropic == (report.cohomogeneity == report.group_rank - want)


@pytest.mark.parametrize("name", sorted(ISOTROPY_CASES))
def test_coisotropic_by_rank_eliminates_the_orbit_map_once_per_point(name, monkeypatch):
    # both ranks come from one int_kernel of the transposed orbit rows at
    # each drawn point; every other elimination is the frame's or a
    # centralizer's, and nothing is ranked with int_rank
    from coisotropy import mforacle

    make, _ = ISOTROPY_CASES[name]
    rep = make()
    orbit_systems, ranked, probes, inside = [], [], [], []
    kernel, stabilize = mforacle.int_kernel, mforacle._stabilize

    def within(f):
        def wrapped(*args):
            inside.append(f)
            try:
                return f(*args)
            finally:
                inside.pop()

        return wrapped

    def counting(a):
        if not inside:
            orbit_systems.append(a)
        return kernel(a)

    monkeypatch.setattr(mforacle, "int_kernel", counting)
    monkeypatch.setattr(mforacle, "int_rank", lambda a: ranked.append(a))
    monkeypatch.setattr(mforacle, "_frame", within(mforacle._frame))
    monkeypatch.setattr(mforacle, "_centralizer", within(mforacle._centralizer))
    monkeypatch.setattr(mforacle, "_stabilize", lambda *a: probes.append(stabilize(*a)) or probes[-1])
    coisotropic_by_rank(rep)
    assert not ranked
    (probe,) = probes
    assert len(orbit_systems) == len(probe.sample_points)
    for a, v in zip(orbit_systems, probe.sample_points):
        assert (a == int_apply(rep.compact_stack, v).T).all()


def test_the_report_names_the_points_both_ranks_were_read_at():
    import random

    from coisotropy import mforacle

    rep = ISOTROPY_CASES["sphere"][0]()
    report = coisotropic_by_rank(rep)
    assert report.points == ("20240101:0:0", "20240101:1:0", "20240101:2:0")
    dim = rep.compact_stack.shape[1]
    for key in report.points:
        v = mforacle._sample_vector(dim, random.Random(key), mforacle.SAMPLE_BOUND)
        assert int_rank(int_apply(rep.compact_stack, v)) == dim - report.cohomogeneity


def test_every_point_read_is_the_fresh_draw_of_its_key(monkeypatch):
    """Every point _stabilize reads on table 1..4 and on one mf_stream
    round is the point _sample_vector draws afresh from its key, and
    read-only."""
    import random

    from test_repdata import _mf_stream_round

    from coisotropy import classify, mforacle
    from coisotropy.repdata import load_dataset

    memo, read = mforacle._sample_point, []

    def recording(*key):
        read.append((key, memo(*key)))
        return read[-1][1]

    monkeypatch.setattr(mforacle, "_sample_point", recording)
    for table in (1, 2, 3, 4):
        classify.reproduce_table(table)
    tables = len(read)
    for group, rep in _mf_stream_round(load_dataset(), random.Random(5)):
        mf_test(realize(group, rep), seed=5)
    assert tables > 100 and len(read) > tables + 50
    assert len({key for key, _ in read}) < len(read) // 2  # the points recur
    for (seed, idx, rnd, dim, bound), v in read:
        fresh = mforacle._sample_vector(dim, mforacle._rng(seed, idx, rnd), bound)
        assert v.dtype == fresh.dtype and np.array_equal(v, fresh) and not v.flags.writeable


def _chain_with_special_points(monkeypatch, special):
    """The chain module, with the draw of each key in special sent to a
    smaller orbit: its C^1 part zeroed at an odd index, its first C^3 part
    at an even one; and the list that the key of each special point drawn
    is appended to.  The points are memoized in an empty memo of their
    own, so every point is drawn here and none reaches the process's."""
    import functools
    import random

    from coisotropy import mforacle

    draw, drawn = mforacle._sample_vector, []

    def sample(dim, rng, bound):
        state = rng.getstate()
        v = draw(dim, rng, bound)
        for key in special:
            if state == random.Random(key).getstate():
                drawn.append(key)
                v[slice(12, None) if int(key.split(":")[1]) % 2 else slice(0, 6)] = 0
        return v

    monkeypatch.setattr(mforacle, "_sample_vector", sample)
    monkeypatch.setattr(mforacle, "_sample_point", functools.lru_cache(mforacle._sample_point.__wrapped__))
    return ISOTROPY_CASES["chain"][0](), drawn


def test_a_special_point_moves_the_probe_to_the_next_round(monkeypatch):
    # the generic orbit of chain has dimension 10, below its 11 generators,
    # so no draw certifies it alone; the orbit of the draw at key
    # 20240101:1:0 has dimension 9
    import dataclasses

    clean = coisotropic_by_rank(ISOTROPY_CASES["chain"][0]())
    rep, drawn = _chain_with_special_points(monkeypatch, {"20240101:1:0"})
    report = coisotropic_by_rank(rep)
    assert drawn == ["20240101:1:0"]
    assert report.points == ("20240101:0:1", "20240101:1:1", "20240101:2:1")
    assert dataclasses.replace(report, points=clean.points) == clean


def test_special_points_at_every_draw_are_a_genericity_error(monkeypatch):
    from coisotropy import mforacle

    special = {
        f"20240101:{idx}:{rnd}"
        for idx in range(mforacle.N_SAMPLES)
        for rnd in range(mforacle.MAX_ROUNDS)
    }
    rep, drawn = _chain_with_special_points(monkeypatch, special)
    with pytest.raises(mforacle.GenericityError, match="stabilize"):
        coisotropic_by_rank(rep)
    assert sorted(drawn) == sorted(special)


def test_an_orbit_of_full_rank_certifies_the_probe_at_one_point(monkeypatch):
    # slice's 17 compact generators stay independent at its first draw in
    # R^24: h_v = 0 there, so one elimination certifies (17, 0)
    from coisotropy import mforacle

    rep = ISOTROPY_CASES["slice"][0]()
    eliminated, kernel = [], mforacle.int_kernel
    monkeypatch.setattr(mforacle, "int_kernel", lambda a: eliminated.append(a) or kernel(a))
    probe = mforacle._orbit_probe(rep, mforacle.DEFAULT_SEED)
    assert probe.certified and probe.value == (17, 0)
    assert probe.seeds == ["20240101:0:0"] and len(eliminated) == 1
    report = coisotropic_by_rank(rep)
    assert report.points == ("20240101:0:0",) and report.cohomogeneity == 24 - 17


@pytest.mark.parametrize("name", sorted(ISOTROPY_CASES))
def test_isotropy_entries_are_injective_on_the_compact_algebra(name):
    from coisotropy import mforacle

    rep = ISOTROPY_CASES[name][0]()
    frame = mforacle._frame(rep)
    gens = rep.compact_stack.dense()
    flat = gens.reshape(len(gens), -1)
    assert int_rank(flat[:, frame.at]) == int_rank(flat) == frame.at.size


def test_the_centralizer_of_zero_is_not_abelian():
    # h_v = u(2) on the sphere: c(0) is all of it, c(z) a maximal torus
    import random

    from coisotropy import mforacle
    from coisotropy.linalg import int_kernel

    rep = rep_of("su(3) + u1[1] on std(1) @ 1")
    frame = mforacle._frame(rep)
    v = mforacle._sample_vector(6, random.Random(3), 97)
    _, kernel = int_kernel(int_apply(rep.compact_stack, v).T)
    assert kernel.shape[1] == 4
    everything = mforacle._centralizer(frame, kernel, np.zeros(len(kernel), dtype=object))
    assert everything.shape[1] == 4 and not mforacle._abelian(frame, everything)
    w = kernel @ np.array([3, -5, 7, 2], dtype=object)
    torus = mforacle._centralizer(frame, kernel, w)
    assert torus.shape[1] == 2 and mforacle._abelian(frame, torus)


def test_no_abelian_centralizer_is_a_genericity_error(monkeypatch):
    from coisotropy import mforacle

    monkeypatch.setattr(mforacle, "_abelian", lambda frame, basis: False)
    with pytest.raises(mforacle.GenericityError, match="abelian"):
        principal_isotropy_rank(rep_of("su(3) + u1[1] on std(1) @ 1"))


def test_an_unlucky_first_prime_moves_on_to_the_next_with_the_same_entries(monkeypatch):
    # modulo an unlucky prime the first generator vanishes, so a pivot is
    # dropped; the kernel check rejects that prime and the next one finds
    # the entries P of a lucky first prime.  A prime can be unlucky only
    # when it divides a minor of the stack, which these small entries keep
    # below 2**30, so the prime budget is raised with the fault
    from coisotropy import linalg, mforacle

    rep = rep_of("su(3) + u1[1] on std(1) @ 1")
    expected = mforacle._frame(rep).at
    p1, p2 = linalg._RANK_PRIMES
    primes, reduce = [], linalg._modp_reduce

    def unlucky_first(a, p):
        primes.append(p)
        if p == p1:
            a = a.copy()
            a[:, 0] = 0
        return reduce(a, p)

    monkeypatch.setattr(linalg, "_modp_reduce", unlucky_first)
    monkeypatch.setattr(linalg, "_prime_budget", lambda a: 2)
    assert mforacle._frame(rep).at.tolist() == expected.tolist()
    assert primes == [p1, p2]


def test_a_real_rep_with_a_kernel_is_rejected():
    # so(7) is simple, so only a model without a vec7 or spin8 block has a
    # kernel, and its trivial_gap of 0 would be wrong: it is not built
    with pytest.raises(RepresentationError, match="no vec7 or spin8"):
        real_block_rep("triv:3", 6)


@pytest.mark.parametrize(
    "text, princ",
    [
        ("su(3) + so(5) + u1[1] on std(1) @ 1", 4),
        ("su(3) + su(2) on std(1)", 2),
        ("so(2) + su(3) on std(2)", 2),
        ("so(2) + su(2) on triv (+) std(2)", 1),
    ],
)
def test_a_trivially_acting_factor_counts_its_rank(text, princ):
    # the factor that acts trivially adds its rank to both the group rank
    # and the principal isotropy rank; the first three act as su(3) on C^3
    # (cohomogeneity 1, principal isotropy su(2)), the last as su(2) on
    # C^2 + C (cohomogeneity 3, trivial principal isotropy)
    report = coisotropic_by_rank(rep_of(text))
    assert report.principal_isotropy_rank == princ
    assert report.coisotropic == (report.cohomogeneity == 1)


@pytest.mark.parametrize("pair", [sp_u_pair(2), so_even_u_pair(3)], ids=lambda p: p.name)
def test_maximal_abelian_matches_the_fraction_reference(pair):
    import random
    from fractions import Fraction

    from reference import frac_nullspace
    from coisotropy.mforacle import SAMPLE_BOUND

    def _combination(coeffs, basis):
        return sum(c * g for c, g in zip(coeffs, basis))

    basis = [g.astype(object) for g in pair.p_basis]
    rng = random.Random("20240101:abelian")
    z = _combination([rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in basis], basis)
    rows = [[Fraction(x) for x in (g @ z - z @ g).ravel()] for g in basis]
    system = [[row[comp] for row in rows] for comp in range(len(rows[0]))]
    reference = [_combination(coeffs, basis) for coeffs in frac_nullspace(system, len(basis))]
    plane = maximal_abelian_in_p(pair)
    assert len(plane) == len(reference)
    for got, want in zip(plane, reference):
        # the same element, times a positive integer
        got, want = got.ravel(), want.ravel()
        key = np.flatnonzero(want)[0]
        scale = Fraction(int(got[key])) / want[key]
        assert scale > 0 and scale.denominator == 1 and (got == want * scale).all()
