from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coisotropy import linalg
from coisotropy.linalg import (
    _RANK_PRIMES,
    QMat,
    QQi,
    ZiArray,
    _modp_rank,
    block_diag,
    commutator,
    complex_rank,
    float_rank,
    frac_nullspace,
    frac_rank,
    frac_rref,
    int_rank,
    int_rank_bareiss,
    kron,
    zi_apply,
    zi_rows,
    zi_stack,
)


def test_qqi_arithmetic():
    a = QQi(1, 2)
    b = QQi(Fraction(1, 2), -1)
    assert a + b == QQi(Fraction(3, 2), 1)
    assert a * b == QQi(Fraction(1, 2) + 2, Fraction(-1) + 1)
    assert (a * b).re == Fraction(5, 2)
    assert a.conj() == QQi(1, -2)
    assert a - a == QQi(0)
    assert not QQi(0, 0)
    assert QQi(0, 3)
    assert (a / a) == QQi(1)


def test_qqi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQi(1) / QQi(0)


def test_qmat_matmul_and_apply():
    a = QMat.from_rows([[1, 2], [0, 1]])
    b = QMat.from_rows([[0, 1], [1, 0]])
    assert (a @ b) == QMat.from_rows([[2, 1], [1, 0]])
    v = (QQi(1), QQi(0, 1))
    assert a.apply(v) == (QQi(1, 2), QQi(0, 1))
    assert commutator(a, b) == a @ b - b @ a


def test_qmat_structure_helpers():
    d = QMat.diag([1, 2, 3])
    assert d.is_diagonal()
    u = QMat(3, 3, {(0, 2): QQi(5)})
    assert u.is_strictly_upper()
    assert not d.is_strictly_upper()
    assert (d.transpose()) == d
    m = QMat(2, 2, {(0, 1): QQi(0, 1)})
    assert m.conj_transpose() == QMat(2, 2, {(1, 0): QQi(0, -1)})
    assert block_diag([d, u]).nrows == 6
    assert kron(QMat.identity(2), d).nrows == 6
    assert d.trace() == QQi(6)


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
    assert int_rank_bareiss(rows) == 2
    assert int_rank(rows) == 2
    full = [[1, 0], [0, 7]]
    assert int_rank(full) == 2


def test_complex_rank_matches_float():
    i = QQi(0, 1)
    rows = [
        (QQi(1), i),
        (i, QQi(-1)),  # i * row1
        (QQi(2), QQi(0)),
    ]
    assert complex_rank(rows) == 2
    assert float_rank(rows) == 2


def test_realify_vector():
    v = (QQi(1, 2), QQi(0, -1))
    z = zi_rows([v])
    assert np.concatenate([z.re, z.im], axis=1).tolist() == [[1, 0, 2, -1]]


def test_frac_rank_with_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert frac_rank(rows) == 1


def test_complex_rank_with_denominators():
    rows = [(QQi(Fraction(1, 2)), QQi(Fraction(1, 3))), (QQi(Fraction(3, 2)), QQi(1))]
    assert zi_rows(rows).den == 6
    assert complex_rank(rows) == 1


# ---------------------------------------------------------------------------
# the Gaussian-integer rank kernel against the other exact ranks


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


@settings(max_examples=80, deadline=None)
@given(_deficient_products())
def test_complex_rank_agrees_with_every_exact_rank(product):
    re, im = product
    rank = complex_rank(ZiArray(re, im))
    real = _realified(re, im)
    assert int_rank_bareiss(real) == 2 * rank
    assert int_rank(real) == 2 * rank
    frac_rows = [[Fraction(x, 3) for x in row] for row in real]
    assert len(frac_rref(frac_rows)[1]) == 2 * rank
    assert frac_rank(frac_rows) == 2 * rank
    assert rank <= min(re.shape)
    sv = np.linalg.svd(re + 1j * im, compute_uv=False)
    if rank == 0 or sv[rank - 1] > 1e-6 * sv[0]:
        assert float_rank(ZiArray(re, im)) == rank


def test_rank_primes_are_primes_with_a_root_of_minus_one():
    assert len(_RANK_PRIMES) == 2
    for p, s in _RANK_PRIMES:
        assert p % 4 == 1 and p < 2**31
        assert all(p % q for q in range(2, isqrt(p) + 1))
        assert s * s % p == p - 1


def test_unlucky_primes_fall_back_to_bareiss(monkeypatch):
    (p1, s1), (p2, s2) = _RANK_PRIMES
    calls = []
    monkeypatch.setattr(
        linalg, "int_rank_bareiss", lambda rows: calls.append(rows) or int_rank_bareiss(rows)
    )
    # p1 * p2 vanishes modulo both primes
    re = np.array([[p1 * p2, 0], [0, 1]], dtype=np.int64)
    for p, _ in _RANK_PRIMES:
        assert _modp_rank(re % p, p) == 1
    assert complex_rank(ZiArray(re, np.zeros_like(re))) == 2
    # (s1 - i)(s2 - i) vanishes when i maps to s1 and when it maps to s2
    z = QQi(s1, -1) * QQi(s2, -1)
    assert complex_rank([(z, QQi(0)), (QQi(0), QQi(1))]) == 2
    assert len(calls) == 2


def test_large_entries_take_the_python_int_path():
    big = 2**62
    full = [(QQi(big + 1), QQi(big)), (QQi(big), QQi(big - 1))]  # determinant -1
    half = [(QQi(big, big), QQi(2 * big, 2 * big)), (QQi(big // 2), QQi(big))]
    for rows, expected in ((full, 2), (half, 1)):
        z = zi_rows(rows)
        assert z.re.dtype == object
        assert complex_rank(z) == expected
        assert int_rank_bareiss(_realified(z.re, z.im)) == 2 * expected
        assert int_rank(z.re) == int_rank_bareiss(z.re.tolist())
    # a product past the int64 bound is formed in Python ints, exactly
    g = zi_stack([QMat(2, 2, {(0, 1): QQi(2**40, -3), (1, 1): QQi(1)})], 2)
    v_re = np.array([5, 2**30], dtype=np.int64)
    v_im = np.array([0, -7], dtype=np.int64)
    rows = zi_apply(g, v_re, v_im)
    assert rows.re.dtype == object
    assert rows.re.tolist() == [[2**70 - 21, 2**30]]
    assert rows.im.tolist() == [[-7 * 2**40 - 3 * 2**30, -7]]


def test_zi_apply_keeps_the_small_product_in_int64():
    g = zi_stack([QMat(2, 2, {(0, 0): QQi(Fraction(1, 2)), (0, 1): QQi(0, 1)})], 2)
    assert g.den == 2
    rows = zi_apply(g, np.array([3, 1]), np.array([0, 2]))
    assert rows.re.dtype == np.int64 and rows.den == 2
    # 2 g v = (1 * 3 + 2i * (1 + 2i), 0) = (-1 + 2i, 0)
    assert rows.re.tolist() == [[-1, 0]] and rows.im.tolist() == [[2, 0]]


def test_odd_realified_rank_raises(monkeypatch):
    monkeypatch.setattr(linalg, "int_rank_bareiss", lambda rows: 3)
    rows = [(QQi(1), QQi(1)), (QQi(2), QQi(2))]
    with pytest.raises(ArithmeticError):
        complex_rank(rows)
