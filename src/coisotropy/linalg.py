"""Exact linear algebra over the rationals and the Gaussian rationals.

Everything downstream (rank tests, isotropy kernels, bilinear-form solves)
reduces to integer or rational elimination implemented here.  Complex ranks
are computed through realification: a matrix M = A + iB over Q(i) has
rank_C(M) = rank_R([[A, -B], [B, A]]) / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


class QQi:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in QQi")
        return QQi(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conj(self):
        return QQi(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    return QQi(x)


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)


class QMat:
    """Immutable sparse matrix over the Gaussian rationals."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                v = _coerce(v)
                if v:
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "QMat":
        return cls(n, m if m is not None else n)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls(n, n, {(i, i): QQI_ONE for i in range(n)})

    @classmethod
    def diag(cls, values) -> "QMat":
        values = [_coerce(v) for v in values]
        n = len(values)
        return cls(n, n, {(i, i): v for i, v in enumerate(values) if v})

    @classmethod
    def from_rows(cls, rows) -> "QMat":
        n = len(rows)
        m = len(rows[0]) if n else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = _coerce(v)
                if v:
                    ent[(i, j)] = v
        return cls(n, m, ent)

    def get(self, i: int, j: int) -> QQi:
        return self.entries.get((i, j), QQI_ZERO)

    def __add__(self, other: "QMat") -> "QMat":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            s = ent.get(k, QQI_ZERO) + v
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        out = QMat(self.nrows, self.ncols)
        out.entries = ent
        return out

    def __sub__(self, other: "QMat") -> "QMat":
        return self + other.scale(QQi(-1))

    def scale(self, c) -> "QMat":
        c = _coerce(c)
        out = QMat(self.nrows, self.ncols)
        if c:
            out.entries = {k: c * v for k, v in self.entries.items()}
        return out

    def __neg__(self) -> "QMat":
        return self.scale(QQi(-1))

    def __matmul__(self, other: "QMat") -> "QMat":
        assert self.ncols == other.nrows, "shape mismatch"
        # index rows of other for sparse product
        rows_of_other: dict[int, list] = {}
        for (k, j), v in other.entries.items():
            rows_of_other.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], QQi] = {}
        for (i, k), a in self.entries.items():
            hits = rows_of_other.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                s = acc.get(key, QQI_ZERO) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        out = QMat(self.nrows, other.ncols)
        out.entries = acc
        return out

    def transpose(self) -> "QMat":
        out = QMat(self.ncols, self.nrows)
        out.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return out

    def conj_transpose(self) -> "QMat":
        out = QMat(self.ncols, self.nrows)
        out.entries = {(j, i): v.conj() for (i, j), v in self.entries.items()}
        return out

    def apply(self, vec: tuple) -> tuple:
        """Matrix-vector product; vec is a tuple of QQi of length ncols."""
        assert len(vec) == self.ncols
        out = [QQI_ZERO] * self.nrows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] = out[i] + v * vec[j]
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def trace(self) -> QQi:
        t = QQI_ZERO
        for i in range(min(self.nrows, self.ncols)):
            t = t + self.get(i, i)
        return t

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def is_strictly_upper(self) -> bool:
        return all(i < j for (i, j) in self.entries)

    def diagonal(self) -> list[QQi]:
        return [self.get(i, i) for i in range(min(self.nrows, self.ncols))]

    def __eq__(self, other):
        if not isinstance(other, QMat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"QMat({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


def commutator(a: QMat, b: QMat) -> QMat:
    return a @ b - b @ a


def block_diag(blocks: list[QMat]) -> QMat:
    n = sum(b.nrows for b in blocks)
    m = sum(b.ncols for b in blocks)
    ent = {}
    ro = co = 0
    for b in blocks:
        for (i, j), v in b.entries.items():
            ent[(ro + i, co + j)] = v
        ro += b.nrows
        co += b.ncols
    out = QMat(n, m)
    out.entries = ent
    return out


def kron(a: QMat, b: QMat) -> QMat:
    out = QMat(a.nrows * b.nrows, a.ncols * b.ncols)
    ent = {}
    for (i, j), u in a.entries.items():
        for (k, l), v in b.entries.items():
            ent[(i * b.nrows + k, j * b.ncols + l)] = u * v
    out.entries = ent
    return out


# ---------------------------------------------------------------------------
# rational elimination


def frac_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rref, pivot columns)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def frac_rank(rows: list[list[Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    return int_rank(_rows_to_int(rows))


def frac_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {x : rows @ x = 0}, each vector of length ncols."""
    if not rows:
        return [
            [Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)
        ]
    rref, pivots = frac_rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def _rows_to_int(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def int_rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination rank (Bareiss)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        pr = None
        best = None
        for i in range(r, nr):
            v = m[i][c]
            if v:
                a = abs(v)
                if best is None or a < best:
                    best = a
                    pr = i
                    if a == 1:
                        break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nr):
            if not any(m[i][c:]):
                continue
            fi = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, nc):
                row_i[j] = (piv * row_i[j] - fi * row_r[j]) // prev
        prev = piv
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


_RANK_PRIMES = (2147483629, 2147483587)


def _modp_rank(rows: list[list[int]], p: int) -> int:
    a = np.array(rows, dtype=np.int64) % p
    nr, nc = a.shape
    rank = 0
    r = 0
    for c in range(nc):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        rest = np.nonzero(a[r + 1 :, c])[0]
        if rest.size:
            idx = rest + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % p
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def int_rank(rows: list[list[int]]) -> int:
    """Exact integer matrix rank.

    Modular elimination gives a fast certified answer when the modular rank
    hits the maximum possible value (modular rank never exceeds the true
    rank); otherwise falls back to exact Bareiss elimination.
    """
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    full = min(nr, nc)
    if max(max(abs(x) for x in row) for row in rows) < 2**62:
        for p in _RANK_PRIMES:
            if _modp_rank(rows, p) == full:
                return full
    return int_rank_bareiss(rows)


# ---------------------------------------------------------------------------
# realification helpers


def realify_vector(vec: tuple) -> list[Fraction]:
    """ (z_1..z_d) in Q(i)^d  ->  (Re z, Im z) in Q^{2d}. """
    return [z.re for z in vec] + [z.im for z in vec]


def complex_rank(rows_of_vectors: list[tuple]) -> int:
    """Rank over Q(i) of a list of complex vectors (tuples of QQi)."""
    if not rows_of_vectors:
        return 0
    d = len(rows_of_vectors[0])
    real_rows = []
    for vec in rows_of_vectors:
        real_rows.append([z.re for z in vec] + [-z.im for z in vec])
        real_rows.append([z.im for z in vec] + [z.re for z in vec])
    r = int_rank(_rows_to_int(real_rows))
    assert r % 2 == 0, "realified rank of a complex space must be even"
    return r // 2


def float_rank(rows_of_vectors: list[tuple], tol: float = 1e-8) -> int:
    """Double-precision rank via SVD; singular values below tol count as 0."""
    if not rows_of_vectors:
        return 0
    a = np.array(
        [[z.to_complex() for z in vec] for vec in rows_of_vectors],
        dtype=complex,
    )
    if not a.any():
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, float(sv[0]))))
