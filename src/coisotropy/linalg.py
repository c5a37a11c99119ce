"""Exact linear algebra over the rationals and the Gaussian rationals.

Everything downstream (rank tests, isotropy kernels, bilinear-form solves)
reduces to integer or rational elimination implemented here.  The sampled
oracles work on exact integer numpy arrays: a matrix over Q(i) is held as a
ZiArray, integer real and imaginary parts over one common denominator.  Its
complex rank is computed modulo two primes p = 1 (mod 4), with i mapped to a
square root of -1 mod p; a full modular rank is certified, because a ring
map never raises the rank.  Otherwise exact Bareiss elimination decides, on
the realification: M = A + iB has rank_C(M) = rank_R([[A, -B], [B, A]]) / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

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
    """Exact rank of a rational matrix: int_rank with each row's denominators cleared."""
    if not rows or not rows[0]:
        return 0
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
    return int_rank(ints)


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


# ---------------------------------------------------------------------------
# Gaussian-integer arrays and the exact rank kernel

# Primes p = 1 (mod 4) below 2**31, each with a square root s of -1 mod p.
# Residues stay below 2**31, so a product of two residues fits in int64.
_RANK_PRIMES = ((2147483629, 629208553), (2147483549, 895500278))

# int64 holds an integer array only while its entries, and every sum of
# products formed from them, stay below this bound in absolute value.
INT64_SAFE = 2**62


class ZiArray(NamedTuple):
    """The array (re + i*im) / den over the Gaussian rationals.

    re and im are integer arrays of one shape: int64 while the entries are
    below INT64_SAFE in absolute value, Python ints (dtype object) beyond.
    den is a positive integer.  Scaling by den changes no rank and no
    kernel, so the exact kernels read re and im only.
    """

    re: np.ndarray
    im: np.ndarray
    den: int = 1


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _numerators(values) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, re, im): QQi values as integer numerators over one denominator."""
    den = lcm(*(x.denominator for z in values for x in (z.re, z.im)))
    re = [z.re.numerator * (den // z.re.denominator) for z in values]
    im = [z.im.numerator * (den // z.im.denominator) for z in values]
    big = max(map(abs, re + im), default=0) >= INT64_SAFE
    dtype = object if big else np.int64
    return den, np.array(re, dtype), np.array(im, dtype)


class ZiStack(NamedTuple):
    """A stack of n matrices of size d x d over Q(i), held by its nonzeros.

    Entry t is (re[t] + i*im[t]) / den at row row[t], column col[t] of
    matrix k[t]; re and im are integer arrays as in a ZiArray.  Generators
    are sparse, so this is the (n, d, d) stack without its zeros.
    """

    shape: tuple[int, int, int]
    k: np.ndarray
    row: np.ndarray
    col: np.ndarray
    re: np.ndarray
    im: np.ndarray
    den: int

    def dense(self) -> ZiArray:
        """The (n, d, d) arrays, zeros included."""
        re = np.zeros(self.shape, self.re.dtype)
        im = np.zeros(self.shape, self.im.dtype)
        re[self.k, self.row, self.col] = self.re
        im[self.k, self.row, self.col] = self.im
        return ZiArray(re, im, self.den)


def zi_stack(mats: list[QMat], dim: int) -> ZiStack:
    """The integer stack of n dim x dim matrices over one denominator."""
    entries = {
        (k, i, j): v for k, m in enumerate(mats) for (i, j), v in m.entries.items()
    }
    den, re, im = _numerators(list(entries.values()))
    k, row, col = np.array(list(entries), dtype=np.int64).reshape(-1, 3).T
    return ZiStack((len(mats), dim, dim), k, row, col, re, im, den)


def zi_rows(rows: list[tuple]) -> ZiArray:
    """The (n, d) integer array of n vectors (tuples of QQi) of length d."""
    shape = (len(rows), len(rows[0]) if rows else 0)
    entries = {(i, j): z for i, row in enumerate(rows) for j, z in enumerate(row) if z}
    den, re, im = _numerators(list(entries.values()))
    out = ZiArray(np.zeros(shape, re.dtype), np.zeros(shape, im.dtype), den)
    if entries:
        idx = tuple(np.array(list(entries)).T)
        out.re[idx], out.im[idx] = re, im
    return out


def zi_apply(gens: ZiStack, v_re: np.ndarray, v_im: np.ndarray) -> ZiArray:
    """The rows g_k v of a stack of d x d matrices at the vector v_re + i*v_im.

    v is integral and the rows keep the stack's denominator.  Every entry
    of a row is bounded by 2 * max|g| * max|v| * d; while that is below
    INT64_SAFE the product is computed in int64, beyond it in Python ints.
    """
    n, d, _ = gens.shape
    g_max = max(_max_abs(gens.re), _max_abs(gens.im))
    v_max = max(_max_abs(v_re), _max_abs(v_im))
    dtype = np.int64 if 2 * g_max * v_max * d < INT64_SAFE else object
    g_re, g_im = gens.re.astype(dtype, copy=False), gens.im.astype(dtype, copy=False)
    v_re, v_im = v_re[gens.col].astype(dtype), v_im[gens.col].astype(dtype)
    out = ZiArray(np.zeros((n, d), dtype), np.zeros((n, d), dtype), gens.den)
    np.add.at(out.re, (gens.k, gens.row), g_re * v_re - g_im * v_im)
    np.add.at(out.im, (gens.k, gens.row), g_re * v_im + g_im * v_re)
    return out


def _as_zi(rows) -> ZiArray:
    return rows if isinstance(rows, ZiArray) else zi_rows(rows)


def _modp_rank(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix of residues mod p; eliminates in place."""
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


def int_rank(rows) -> int:
    """Exact rank of an integer matrix, given as an array or a list of rows.

    The rank modulo a prime never exceeds the true rank, so a modular rank
    equal to min(rows, columns) is certified; otherwise exact Bareiss
    elimination decides.
    """
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if a.ndim != 2 or 0 in a.shape:
        return 0
    full = min(a.shape)
    for p, _ in _RANK_PRIMES:
        if _modp_rank((a % p).astype(np.int64), p) == full:
            return full
    return int_rank_bareiss(a.tolist())


def complex_rank(rows) -> int:
    """Rank over Q(i) of a ZiArray of row vectors (or a list of QQi tuples).

    For each (p, s) in _RANK_PRIMES, i -> s is a ring map Z[i] -> Z/p, so
    the rank of the n x d residue matrix never exceeds the true rank and a
    full one (min(n, d)) is certified.  Otherwise the rank is half the
    Bareiss rank of the realification [[re, -im], [im, re]].
    """
    m = _as_zi(rows)
    if m.re.ndim != 2 or 0 in m.re.shape:
        return 0
    full = min(m.re.shape)
    for p, s in _RANK_PRIMES:
        residues = ((m.re % p).astype(np.int64) + s * (m.im % p).astype(np.int64)) % p
        if _modp_rank(residues, p) == full:
            return full
    r = int_rank_bareiss(np.block([[m.re, -m.im], [m.im, m.re]]).tolist())
    if r % 2:
        raise ArithmeticError(f"realified rank {r} of a complex space is odd")
    return r // 2


def float_rank(rows, tol: float = 1e-8) -> int:
    """Double-precision rank via SVD; singular values below tol count as 0.

    Reads the values (re + i*im) / den themselves, not the scaled integers,
    so the tolerance is relative to the matrix as given.
    """
    m = _as_zi(rows)
    if m.re.size == 0:
        return 0
    a = np.empty(m.re.shape, dtype=complex)
    a.real = m.re.astype(float) / m.den
    a.imag = m.im.astype(float) / m.den
    if not a.any():
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, float(sv[0]))))
