from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    bareiss_rank,
    frac_nullspace,
    frac_rref,
    probe_int_kernel,
    row_swapping_reduce,
)

from coisotropy import linalg, mforacle
from coisotropy.dsl import parse_repspec
from coisotropy.linalg import (
    _RANK_PRIMES,
    INT64_SAFE,
    IntStack,
    _bracket,
    _exact_product,
    _kernel_primes,
    _prime_budget,
    float_rank,
    int_apply,
    int_kernel,
    int_rank,
    realify,
)
from coisotropy.matrep import realize


def _ints(rows) -> np.ndarray:
    """Integer rows as the program stores them: int64 below INT64_SAFE,
    Python ints beyond."""
    big = max(abs(x) for row in rows for x in row) >= INT64_SAFE
    return np.array(rows, object if big else np.int64)


def _stack(d, entries, den=1) -> IntStack:
    """One d x d matrix given by its entries (row, col, val) over den."""
    row, col, val = zip(*entries)
    val = _ints([val])[0]
    return IntStack((1, d, d), np.zeros(len(row), np.int64), np.array(row), np.array(col), val, den)


def test_frac_rref_and_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    rref, piv = frac_rref(rows)
    assert piv == [0]
    ns = frac_nullspace(rows, 3)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0


def test_int_rank_agrees_with_bareiss():
    rows = [[2, 4, 1], [1, 2, 0], [3, 6, 1], [0, 0, 1]]
    assert bareiss_rank(rows) == 2
    assert int_rank(rows) == 2
    full = [[1, 0], [0, 7]]
    assert int_rank(full) == 2


def test_float_rank_is_relative_to_the_largest_singular_value():
    # a scale, such as a common denominator, changes no rank
    for scale in (1, 2**40):
        assert float_rank(np.eye(3, dtype=np.int64) * scale) == 3
    # row 2 = 3 * row 1
    rows = _ints([[3, 2], [9, 6], [6, 0]])
    assert float_rank(rows[:2]) == int_rank(rows[:2]) == 1
    assert float_rank(rows) == int_rank(rows) == 2
    assert float_rank(np.zeros((2, 3), np.int64)) == 0


# ---------------------------------------------------------------------------
# rank primes, large entries, integer stacks and realification


def _realified(re, im) -> list[list[int]]:
    return np.block([[re, -im], [im, re]]).tolist()


@st.composite
def _deficient_products(draw):
    """(re, im) of A @ B for random Gaussian-integer A (n x k), B (k x d)."""
    n, k, d = draw(st.integers(1, 6)), draw(st.integers(0, 4)), draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    a = np.array(draw(st.lists(entry, min_size=2 * n * k, max_size=2 * n * k)), dtype=np.int64)
    b = np.array(draw(st.lists(entry, min_size=2 * k * d, max_size=2 * k * d)), dtype=np.int64)
    ar, ai = a[: n * k].reshape(n, k), a[n * k :].reshape(n, k)
    br, bi = b[: k * d].reshape(k, d), b[k * d :].reshape(k, d)
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def test_rank_primes_are_primes_one_mod_four():
    assert _RANK_PRIMES == (2147483629, 2147483549)
    for p in _RANK_PRIMES:
        assert p % 4 == 1 and p < 2**31
        assert all(p % q for q in range(2, isqrt(p) + 1))


def _record_primes(monkeypatch) -> list[int]:
    """The primes int_kernel tries, in order, from now on."""
    primes = []
    kernel_mod = linalg._kernel_mod
    monkeypatch.setattr(linalg, "_kernel_mod", lambda a, p: primes.append(p) or kernel_mod(a, p))
    return primes


def _record_calls(monkeypatch, name: str) -> list:
    """The results of linalg.<name>, in order, from now on."""
    results = []
    original = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *args: results.append(original(*args)) or results[-1])
    return results


def test_kernel_primes_descend_below_the_rank_primes():
    primes = list(islice(_kernel_primes(), 6))
    assert primes[:2] == list(_RANK_PRIMES)
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 6
    for p in primes:
        assert p % 4 == 1 and 2**30 < p < 2**31
        assert all(p % q for q in range(2, isqrt(p) + 1))
    # no prime p = 1 (mod 4) is skipped between the third and the second
    third = primes[2]
    assert not any(all(q % t for t in range(2, isqrt(q) + 1)) for q in range(third + 4, primes[1], 4))


def test_unlucky_primes_move_on_to_a_third_prime(monkeypatch):
    p1, p2 = _RANK_PRIMES
    primes = _record_primes(monkeypatch)
    steps = _record_calls(monkeypatch, "_lifting_steps")
    # p1 * p2 vanishes modulo both primes; int_kernel itself, as int_rank
    # reads a 2 x 2 matrix off its minor
    assert len(int_kernel(np.array([[p1 * p2, 0], [0, 1]], dtype=np.int64))[0]) == 2
    third = list(islice(_kernel_primes(), 3))[-1]
    assert primes == [p1, p2, third]
    # each unlucky prime is rejected at its first digit, whose kernel (1, 0)
    # leaves p1 * p2 outside the pivot rows of A @ K, before any Hadamard
    # bound is formed; the third has full rank and lifts nothing
    assert steps == []


def test_large_entries_take_the_python_int_path():
    big = 2**62
    full = _ints([[big + 1, big], [big, big - 1]])  # determinant -1
    half = _ints([[big, 2 * big], [big // 2, big]])
    for a, expected in ((full, 2), (half, 1)):
        assert a.dtype == object
        assert int_rank(a) == bareiss_rank(a.tolist()) == expected
    # a product past the int64 bound is formed in Python ints, exactly
    g = _stack(2, [(0, 0, -3), (0, 1, 2**40), (1, 1, 1)])
    rows = int_apply(g, np.array([5, 2**30], dtype=np.int64))
    assert rows.dtype == object
    assert rows.tolist() == [[2**70 - 15, 2**30]]


def test_int_apply_keeps_the_small_product_in_int64():
    g = _stack(2, [(0, 0, 1), (0, 1, 2)], den=2)  # entries 1/2 and 1
    assert g.den == 2
    rows = int_apply(g, np.array([3, -1]))
    assert rows.dtype == np.int64
    # 2 g v = (1 * 3 + 2 * (-1), 0)
    assert rows.tolist() == [[1, 0]]


def _bracket_pair(b: int) -> tuple[np.ndarray, np.ndarray]:
    """16 x 16 int64 matrices x, y with max |x| = max |y| = b, so that the
    bound of [x, y] is 32 b^2: x is b but for x[0, 0] = b - 1, and y is b
    but for -b along its first row right of y[0, 0].  Then (x y)[0, 0] =
    16 b^2 - b, (y x)[0, 0] = -14 b^2 - b and [x, y][0, 0] = 30 b^2."""
    x = np.full((16, 16), b, dtype=np.int64)
    x[0, 0] = b - 1
    y = np.full((16, 16), b, dtype=np.int64)
    y[0, 1:] = -b
    return x, y


@pytest.mark.parametrize(
    "b, dtype",
    [
        (isqrt((2**53 - 1) // 32), np.int64),  # bound just below 2**53: float64
        # from 2**53 on Python ints, also where int64 would hold the bound
        (isqrt(2**53 // 32) + 1, object),  # just above 2**53
        (isqrt(2**53 // 16) + 1 | 1, object),  # past 2**54: a product leaves float64
        (2**30 + 1, object),  # above INT64_SAFE
    ],
    ids=["float64", "int64", "int64-past-2**54", "python-int"],
)
def test_bracket_is_exact_on_each_path(b, dtype):
    x, y = _bracket_pair(b)
    bound = 32 * b * b
    assert (bound < 2**53) == (b < 2**24) == (dtype is np.int64)
    if bound > 2**54:
        # (x y)[0, 0] is odd and past 2**53, so no double holds it
        assert 16 * b * b - b > 2**53 and float(16 * b * b - b) != 16 * b * b - b
    # a (d, d) matrix against a stack of two, broadcast
    out = _bracket(x, np.stack([y, -y]))
    ox, oy = x.astype(object), y.astype(object)
    exact = ox @ oy - oy @ ox
    assert out.dtype == dtype
    assert out.tolist() == [exact.tolist(), (-exact).tolist()]
    assert out[0, 0, 0] == 30 * b * b


def test_realify_is_a_ring_map_that_doubles_the_rank():
    rng = np.random.default_rng(7)
    a, b, c, e = rng.integers(-9, 10, (4, 3, 3))
    # (a + ib)(c + ie) = (ac - be) + i(ae + bc)
    assert (realify(a, b) @ realify(c, e) == realify(a @ c - b @ e, a @ e + b @ c)).all()
    assert realify(a, b).tolist() == _realified(a, b)
    stack = realify(np.stack([a, c]), np.stack([b, e]))
    assert (stack == np.stack([realify(a, b), realify(c, e)])).all()
    assert int_rank(realify(a, b)) == 2 * np.linalg.matrix_rank(a + 1j * b)
    assert int_rank(realify(a[:2], b[:2])) == 4


# ---------------------------------------------------------------------------
# the verified modular kernel


def _check_kernel(a, pivots, k):
    """The properties int_kernel promises, against the Fraction RREF: as
    many independent pivot rows as the rank, and the reduced-echelon
    kernel."""
    a = np.array(a, dtype=object)
    n = a.shape[1]
    rank = len(pivots)
    assert rank == len(set(pivots)) == bareiss_rank(a.tolist())
    assert bareiss_rank(a[list(pivots)].tolist()) == rank
    assert k.shape == (n, n - rank) and k.dtype == object
    assert not (a @ k).any()
    frac_rows = [[Fraction(int(x)) for x in row] for row in a.tolist()]
    pivots = frac_rref(frac_rows)[1]
    free = [j for j in range(n) if j not in pivots]
    assert len(free) == n - rank
    block = k[free]
    assert (block == np.diag(np.diag(block))).all() and all(d > 0 for d in np.diag(block))
    for j, vec in enumerate(frac_nullspace(frac_rows, n)):
        assert [Fraction(int(x), int(k[free[j], j])) for x in k[:, j]] == vec


@st.composite
def _integer_products(draw):
    """A @ B for random integer A (n x k), B (k x d): rank at most k."""
    n, k, d = draw(st.integers(1, 7)), draw(st.integers(0, 5)), draw(st.integers(1, 7))
    entry = st.integers(-30, 30)
    a = np.array(draw(st.lists(entry, min_size=n * k, max_size=n * k)), dtype=np.int64)
    b = np.array(draw(st.lists(entry, min_size=k * d, max_size=k * d)), dtype=np.int64)
    return a.reshape(n, k) @ b.reshape(k, d)


@settings(max_examples=60, deadline=None)
@given(_integer_products())
def test_int_kernel_on_integer_products(a):
    pivots, k = int_kernel(a)
    _check_kernel(a, pivots, k)
    assert int_rank(a) == len(pivots) == int_rank(a.T)


@settings(max_examples=40, deadline=None)
@given(_deficient_products())
def test_int_kernel_on_realified_gaussian_products(product):
    real = np.array(_realified(*product), dtype=np.int64)
    pivots, k = int_kernel(real)
    _check_kernel(real, pivots, k)
    assert len(pivots) % 2 == 0


def test_int_kernel_rank_zero_and_full_rank():
    pivots, k = int_kernel(np.zeros((3, 4), dtype=np.int64))
    assert pivots == [] and k.tolist() == np.eye(4, dtype=int).tolist()
    full = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    pivots, k = int_kernel(full)
    assert sorted(pivots) == [0, 1, 2] and k.shape == (3, 0)
    pivots, k = int_kernel(np.zeros((0, 2), dtype=np.int64))
    assert pivots == [] and k.shape == (2, 2)


def test_int_kernel_on_a_wide_matrix():
    wide = np.array([[1, 2, 3, 4, 5], [2, 4, 6, 8, 11]], dtype=np.int64)
    pivots, k = int_kernel(wide)
    _check_kernel(wide, pivots, k)
    assert len(pivots) == 2 and k.shape == (5, 3)
    # int_rank reads two rows (or columns) off their 2 x 2 minors
    assert int_rank(wide) == int_rank(wide.T) == 2


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)])
def test_one_row_or_column_is_ranked_by_inspection(shape, dtype, monkeypatch):
    # rank 1 iff nonzero, as the int_kernel route counts, with no elimination
    big = 2**70 if dtype is object else 7
    cases = [np.zeros(shape, dtype)]
    for value in (1, -3, big):
        a = np.zeros(shape, dtype)
        a.flat[-1] = value
        cases.append(a)
    kernel, eliminated = linalg.int_kernel, []
    monkeypatch.setattr(linalg, "int_kernel", lambda a: eliminated.append(a) or kernel(a))
    for a in cases:
        want = len(kernel(a if a.shape[0] >= a.shape[1] else a.T)[0])
        assert int_rank(a) == want == int(a.any())
    assert not eliminated


def _two_line_cases(dtype, c):
    """2 x c matrices of rank 0, 1 and 2: zero columns before the first
    nonzero one, a first nonzero column with one zero entry, rank 1 with a
    ratio that is not an integer, and minors of +-1 or 0 whose products
    pass int64 (entries near 2**62 in int64, 2**70 as Python ints)."""
    big = 2**70 if dtype is object else 2**62
    rng = np.random.default_rng(c)
    w = [int(x) for x in rng.integers(-9, 10, c)]
    w[0] = 0
    cases = [[[0] * c, [0] * c], [[3 * x for x in w], [-2 * x for x in w]], [[0] * c, w]]
    edge = [[big] + [0] * (c - 1), [big - 1] + [0] * (c - 1)]
    edge[0][-1], edge[1][-1] = big - 1, big - 2  # det big (big - 2) - (big - 1)^2 = -1
    cases.append(edge)
    cases.append([[big - 1] * c, [big - 2] * c])
    scale = big if dtype is object else 2**58  # 9 * 2**58 is in int64
    cases.append([[scale * x for x in w], [(scale - 1) * x for x in w]])
    cases.append([[scale * x for x in w], [(scale - 1) * x + (j == c - 1) for j, x in enumerate(w)]])
    return [np.array(rows, dtype) for rows in cases]


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("c", [2, 3, 7])
def test_two_rows_or_columns_are_ranked_by_their_minors(c, dtype, monkeypatch):
    cases = _two_line_cases(dtype, c)
    cases += [a.T for a in cases]
    want = [len(int_kernel(a if a.shape[0] >= a.shape[1] else a.T)[0]) for a in cases]
    assert {0, 1, 2} <= set(want)
    eliminated = []
    kernel_mod = linalg._kernel_mod
    monkeypatch.setattr(linalg, "_kernel_mod", lambda a, p: eliminated.append(a) or kernel_mod(a, p))
    assert [int_rank(a) for a in cases] == want
    assert not eliminated


def test_int_rank_takes_only_a_matrix():
    for rows in ([1, 2, 3], np.zeros((2, 2, 2), np.int64), np.int64(4)):
        with pytest.raises(ValueError, match="expected a matrix"):
            int_rank(rows)
        with pytest.raises(ValueError, match="expected a matrix"):
            int_kernel(rows)
    assert int_rank(np.zeros((0, 3), np.int64)) == int_rank([[]]) == int_rank(np.zeros((4, 0), object)) == 0


def test_int_kernel_past_int64():
    big = 2**62
    u = np.array([big + 1, 3, -(big // 3), 7], dtype=object)
    w = np.array([5, big - 1, 11], dtype=object)
    a = np.outer(u, w) + np.outer(np.array([1, 0, 2, 1], dtype=object), [0, big, 1])
    assert a.dtype == object
    pivots, k = int_kernel(a)
    _check_kernel(a, pivots, k)
    assert len(pivots) == 2


def test_int_kernel_with_entries_past_2_200(monkeypatch):
    # a 9 x 10 system with 30-bit entries: by Cramer's rule its kernel
    # vector is a column of 9 x 9 minors, about 270 bits, so the lifting
    # runs for many p-adic steps before the entries reconstruct
    rng = np.random.default_rng(2024)
    a = rng.integers(-(2**30), 2**30, size=(9, 10), dtype=np.int64)
    primes = _record_primes(monkeypatch)
    pivots, k = int_kernel(a)
    monkeypatch.undo()
    assert primes == [_RANK_PRIMES[0]]
    assert len(pivots) == 9 and k.shape == (10, 1)
    assert not (a.astype(object) @ k).any()
    assert max(abs(int(x)) for x in k[:, 0]).bit_length() > 200
    assert len(pivots) == bareiss_rank(a.tolist())


def test_failed_reconstruction_raises_after_the_prime_budget(monkeypatch):
    p1, p2 = _RANK_PRIMES
    small = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    # column norms (p1 p2, 0, 1): H is about 2**62, so three primes
    large = np.array([[p1 * p2, 0, 1]], dtype=object)
    monkeypatch.setattr(linalg, "_reconstruct_column", lambda col, m, bound: None)
    for a, budget in ((small, 1), (large, 3)):
        assert _prime_budget(a) == budget
        primes = _record_primes(monkeypatch)
        with pytest.raises(ArithmeticError):
            int_kernel(a)
        assert primes == list(islice(_kernel_primes(), budget))


def test_matrix_vanishing_mod_both_primes_has_rank_one(monkeypatch):
    p1, p2 = _RANK_PRIMES
    primes = _record_primes(monkeypatch)
    pivots, k = int_kernel([[p1 * p2, 0]])
    assert pivots == [0] and k.tolist() == [[0], [1]]
    assert primes == list(islice(_kernel_primes(), 3))


def test_pivots_mod_p_must_be_the_leftmost_over_q(monkeypatch):
    # mod p1 the first column vanishes and the second becomes the pivot;
    # A @ K == 0 holds for the kernel (1, -p1) of those pivots, but over Q
    # the pivot is the first column, so p1 is rejected
    p1, p2 = _RANK_PRIMES
    primes = _record_primes(monkeypatch)
    pivots, k = int_kernel([[p1, 1]])
    assert (pivots, k.tolist()) == ([0], [[-1], [p1]])
    assert primes == [p1, p2]
    _check_kernel([[p1, 1]], pivots, k)


def test_a_kernel_read_from_the_elimination_lifts_nothing(monkeypatch):
    # entries near 2**200 would give a Hadamard bound of about 14 steps,
    # but the kernel is (-2, 1): the first digit, read off the reduced
    # pivot rows, reconstructs it, so no residue product and no Hadamard
    # bound is formed
    big = 2**200
    a = np.array([[big, 2 * big], [3 * big, 6 * big]], dtype=object)
    bounds = _record_calls(monkeypatch, "_lifting_steps")
    digits = _record_calls(monkeypatch, "_matmul_mod")
    pivots, k = int_kernel(a)
    assert len(pivots) == 1 and k.tolist() == [[-2], [1]]
    assert bounds == [] and digits == []
    assert linalg._lifting_steps(np.array([[big]]), np.array([[-2 * big]]), _RANK_PRIMES[0]) >= 10


def test_a_kernel_entry_past_2_15_is_lifted(monkeypatch):
    # a first digit reconstructs only numerators and denominators up to
    # isqrt(p // 2) < 2**15; the kernel (-5 * 2**16, 3) needs a second one
    a = np.array([[3, 5 * 2**16], [6, 10 * 2**16]], dtype=np.int64)
    bounds = _record_calls(monkeypatch, "_lifting_steps")
    digits = _record_calls(monkeypatch, "_matmul_mod")
    pivots, k = int_kernel(a)
    assert (pivots, k.tolist()) == ([0], [[-5 * 2**16], [3]])
    assert len(bounds) == 1 and len(digits) == 1
    expected = probe_int_kernel(a)
    assert (pivots, k.tolist()) == (expected[0], expected[1].tolist())


@pytest.mark.parametrize("m, dtype", [(2**26 - 1, np.float64), (2**26, object)])
def test_the_kernel_check_is_float64_below_2_53(monkeypatch, m, dtype):
    # the kernel of [[1, -m]] is (m, 1), so n * max|A| * max|K| = 2 m**2:
    # just below 2**53 for m = 2**26 - 1, at it for m = 2**26
    checks = _record_calls(monkeypatch, "_exact_product")
    pivots, k = int_kernel(np.array([[1, -m]], dtype=np.int64))
    assert (pivots, k.tolist()) == ([0], [[m], [1]])
    # the first digit reconstructs a wrong kernel with entries below 2**6,
    # which a float64 check rejects; the lifted (m, 1) is checked on the
    # path its bound selects
    assert [c.dtype for c in checks] == [np.float64, dtype]
    assert checks[-1].tolist() == [[0]]
    # the float64 product is exact below the bound; beyond it the Python-int
    # one holds 2**54 - 1, which no double does
    x = np.array([[2**26 - 1, 2**26 - 1]], dtype=np.int64)
    y = np.array([[2**26 - 1], [2**26 - 1]], dtype=object)
    assert _exact_product(x, y).dtype == np.float64
    assert _exact_product(x, y)[0, 0] == 2 * (2**26 - 1) ** 2
    past = _exact_product(np.array([[2**27 + 1]], dtype=np.int64), np.array([[2**27 - 1]]))
    assert past.dtype == object and past.tolist() == [[2**54 - 1]]


def test_a_premature_reconstruction_keeps_lifting(monkeypatch):
    # a wrong reconstruction before the Hadamard bound shows in the pivot
    # rows of A @ K; the lifting goes on at the same prime instead of
    # giving the prime up
    big = 2**200
    a = np.array([[big, 2 * big], [3 * big, 6 * big]], dtype=object)
    expected = int_kernel(a)
    reduce_calls, attempts = [], []
    modp_reduce, reconstruct = linalg._modp_reduce, linalg._reconstruct_column

    def wrong_first(col, m, bound):
        attempts.append(m)
        return ([0] * len(col), 1) if len(attempts) == 1 else reconstruct(col, m, bound)

    monkeypatch.setattr(linalg, "_reconstruct_column", wrong_first)
    monkeypatch.setattr(
        linalg, "_modp_reduce", lambda x, p: reduce_calls.append(p) or modp_reduce(x, p)
    )
    pivots, k = int_kernel(a)
    assert (pivots, k.tolist()) == (expected[0], expected[1].tolist())
    assert len(reduce_calls) == 1 and len(attempts) > 1


# ---------------------------------------------------------------------------
# the elimination and the kernel against the row-swapping reference


def _assert_matches_the_reference(a) -> None:
    """_modp_reduce gives the reference's (P, Q, B^-1) and the reduced
    pivot rows B^-1 a[P] mod p beside them; int_kernel the reference's
    (P, K)."""
    a = np.asarray(a)
    n = a.shape[1]
    for p in _RANK_PRIMES:
        residues = (a % p).astype(np.int64)
        prow, pcol, reduced = linalg._modp_reduce(residues, p)
        ref_prow, ref_pcol, ref_binv = row_swapping_reduce(residues, p)
        assert (prow, pcol) == (ref_prow, ref_pcol)
        assert reduced.shape == (len(prow), n + len(prow))
        assert reduced[:, n:].tolist() == ref_binv.tolist()
        assert reduced[:, :n].tolist() == linalg._matmul_mod(ref_binv, residues[prow], p).tolist()
    pivots, k = int_kernel(a)
    ref_pivots, ref_k = probe_int_kernel(a)
    assert pivots == ref_pivots
    assert k.dtype == ref_k.dtype == object and k.shape == ref_k.shape
    assert k.tolist() == ref_k.tolist()


@settings(max_examples=60, deadline=None)
@given(_integer_products())
def test_integer_products_match_the_reference(a):
    _assert_matches_the_reference(a)
    _assert_matches_the_reference(a.T)


@settings(max_examples=40, deadline=None)
@given(_deficient_products())
def test_realified_gaussian_products_match_the_reference(product):
    _assert_matches_the_reference(np.array(_realified(*product), dtype=np.int64))


@pytest.mark.parametrize(
    "text",
    ["e6(6) + u1[1] on std(1) @ 1", "so(10) on spin(1)", "su(7) on alt2(1)"],
)
def test_borel_rows_at_the_first_sample_match_the_reference(text):
    # the rows mf_test ranks at the first point _stabilize draws, in both
    # orientations
    rep = realize(*parse_repspec(text))
    v = mforacle._sample_vector(
        rep.space_dim, mforacle._rng(mforacle.DEFAULT_SEED, 0, 0), mforacle.MF_SAMPLE_BOUND
    )
    rows = int_apply(rep.borel_stack, v)
    assert rows.dtype == np.int64 and min(rows.shape) > 10
    _assert_matches_the_reference(rows)
    _assert_matches_the_reference(rows.T)


def test_the_isotropy_systems_match_the_reference(monkeypatch):
    # principal_isotropy_rank eliminates the orbit map, the frame's stack
    # and, in Python ints, the centralizer systems
    systems = []
    kernel = mforacle.int_kernel
    monkeypatch.setattr(mforacle, "int_kernel", lambda a: systems.append(a) or kernel(a))
    assert mforacle.principal_isotropy_rank(realize(*parse_repspec("su(4) on alt2(1)"))) == 2
    assert any(a.dtype == object for a in systems)
    for a in systems:
        _assert_matches_the_reference(a)
