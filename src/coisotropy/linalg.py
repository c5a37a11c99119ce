"""Exact linear algebra over the integers.

Everything downstream (rank tests, isotropy kernels, bilinear-form solves,
the Gram blocks of the weight modules) reduces to integer elimination
implemented here.  Every generator matrix is real and integral: an
IntStack holds a set of generators by its nonzeros over one denominator,
and _bracket, the one commutator of dense integer matrices or stacks of
them, serves the module certificate, the derived root vectors, the real
slice models and the Lie-triple test alike, in float64 (BLAS) while that
is exact (_FLOAT_EXACT) and in Python ints beyond.  Complex data enters
only as realify(re, im), the real matrix of re + i*im.

One verified modular kernel is the only elimination.  int_kernel
eliminates an integer matrix modulo a prime p ~ 2**31 for its pivots and
the kernel's first p-adic digit, lifts p-adically (Dixon 1982) only while
rational reconstruction (Wang 1981) fails, and checks A @ K == 0 exactly
and that K is in reduced-echelon form, which holds iff the pivots mod p
are the leftmost independent columns over Q.  The nonsingular pivot block
bounds the rank from below and the verified kernel from above, so the rank
is exact.  int_kernel returns the certified pivot rows with the kernel:
int_rank counts them, and the isotropy frame of mforacle reads its entries
from them.  _kernel_of keeps K, read-only, for systems that recur: the
semisimple Borel rows of mforacle and the Gram blocks of matrep.  A prime
that fails a check is replaced by the next one, and a bound from
Hadamard's inequality caps the number of primes.  float_rank is the
double-precision cross-check.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt, prod
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# integer stacks and the exact rank kernel

# The first primes int_kernel tries: p = 1 (mod 4) below 2**31.  Residues
# stay below 2**31, so a product of two residues fits in int64.
_RANK_PRIMES = (2147483629, 2147483549)

# int64 holds an integer array only while its entries, and every sum of
# products formed from them, stay below this bound in absolute value.
INT64_SAFE = 2**62


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def realify(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real matrix [[re, -im], [im, re]] of re + i*im, or the stack of
    them along leading axes: an injective homomorphism of rings, and so of
    Lie algebras, that doubles the rank."""
    return np.block([[re, -im], [im, re]])


class IntStack(NamedTuple):
    """A stack of n integer matrices of size d x d over one denominator,
    held by its nonzeros.

    Entry t is val[t] / den at row row[t], column col[t] of matrix k[t];
    val is an integer array: int64 while its entries are
    below INT64_SAFE in absolute value, Python ints (dtype object) beyond.  Generators are sparse, so
    this is the (n, d, d) stack without its zeros.  The entries are held in
    (k, row, col) order, one per position, so the entries of a run of
    consecutive generators are a slice (matrep.validate_matrix_rep checks
    this of an assembled module).
    """

    shape: tuple[int, int, int]
    k: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    den: int

    def dense(self) -> np.ndarray:
        """The (n, d, d) numerators, zeros included."""
        out = np.zeros(self.shape, self.val.dtype)
        out[self.k, self.row, self.col] = self.val
        return out


def int_apply(gens: IntStack, v: np.ndarray) -> np.ndarray:
    """The integer rows g_k v of a stack of d x d matrices at an integer
    vector v, over the stack's denominator.

    Every entry of a row is bounded by max|g| * max|v| * d; while that is
    below INT64_SAFE the product is computed in int64, beyond it in Python
    ints.
    """
    n, d, _ = gens.shape
    dtype = np.int64 if _max_abs(gens.val) * _max_abs(v) * d < INT64_SAFE else object
    out = np.zeros((n, d), dtype)
    np.add.at(out, (gens.k, gens.row), gens.val.astype(dtype, copy=False) * v[gens.col].astype(dtype))
    return out


# A double holds every integer below 2**53 in absolute value.  A product of
# integer matrices, or the difference of two, is exact in float64 (BLAS) when
# the absolute terms of each entry sum to less: then every partial sum does.
_FLOAT_EXACT = 2**53


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of integer matrices, broadcast over leading stack axes, exactly.

    The terms of an entry of x y - y x sum in absolute value to at most
    2 * d * max|x| * max|y|.  Below _FLOAT_EXACT it is formed in float64
    and returned in int64, from there on in Python ints (dtype object)."""
    if 2 * x.shape[-1] * _max_abs(x) * _max_abs(y) < _FLOAT_EXACT:
        a, b = x.astype(np.float64), y.astype(np.float64)
        return (a @ b - b @ a).astype(np.int64)
    a, b = x.astype(object), y.astype(object)
    return a @ b - b @ a


def _modp_reduce(a: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """(P, Q, R) for an int64 matrix of residues mod p.

    Gauss-Jordan elimination, column by column from the left with the first
    nonzero entry as pivot, finds pivot rows P (indices into the input, in
    pivot order) and pivot columns Q; the pivot block B = a[P, Q] is
    invertible mod p.  Beside the matrix it carries, for each row, the
    combination of pivot rows it has received, so that the reduced pivot
    rows are R = [B^-1 a[P] | B^-1] mod p.  No row moves, and the matrix is
    held by columns, so that a pivot's update is one run of memory.
    """
    nr, nc = a.shape
    m = np.concatenate([a.T, np.zeros((min(nr, nc), nr), dtype=np.int64)]).T
    order = list(range(nr))
    pcol: list[int] = []
    r = 0
    for c in range(nc):
        col = m[:, c].tolist()
        for i in range(r, nr):
            if col[order[i]]:
                break
        else:
            continue
        order[r], order[i] = order[i], order[r]
        pr = order[r]
        inv = pow(col[pr], -1, p)
        # the pivot row is zero left of c, every row right of nc + r
        row = m[pr, c : nc + r + 1] * inv % p
        row[-1] = inv
        block = m[:, c : nc + r + 1]
        block -= (row[:, None] * m[:, c]).T
        block %= p
        block[pr] = row
        pcol.append(c)
        r += 1
    return order[:r], pcol, m[order[:r], : nc + r]


# Residue products are split into 16-bit halves of the left factor; every
# partial sum stays in int64 while the inner dimension is below this bound.
_SPLIT_DEPTH = 2**15


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for int64 residue matrices, p < 2**31."""
    if a.shape[1] >= _SPLIT_DEPTH:
        raise ValueError(f"inner dimension {a.shape[1]} too large for int64 residues")
    hi, lo = a >> 16, a & 0xFFFF
    return ((hi @ b) % p * 65536 + (lo @ b) % p) % p


def _rational(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """(a, b) with a / b = u (mod m), |a| <= bound and 0 < b <= bound.

    Wang's reconstruction by the half-extended Euclidean algorithm; the
    fraction is unique when 2 * bound**2 < m.  None when there is none.
    """
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not s1 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct_column(col, m: int, bound: int) -> tuple[list[int], int] | None:
    """(nums, den) with nums[i] / den = col[i] (mod m), den the least common
    denominator, every numerator and den within bound; None if there is none.

    The entries share a denominator (Cramer's rule), so after the first
    fraction most entries times den are already small integers.
    """
    den = 1
    nums: list[int] = []
    half = m // 2
    for u in col:
        t = int(u) * den % m
        if t > half:
            t -= m
        if abs(t) <= bound:
            nums.append(t)
            continue
        frac = _rational(t, m, bound)
        if frac is None or den * frac[1] > bound:
            return None
        num, extra = frac
        den *= extra
        nums = [x * extra for x in nums]
        nums.append(num)
    return nums, den


def _lifting_steps(b: np.ndarray, c: np.ndarray, p: int) -> int:
    """p-adic steps after which B X = C is certain to be reconstructed.

    By Cramer's rule every entry of X is a ratio of r x r minors of [B | C].
    Hadamard's inequality bounds the squares of det B and of each numerator
    by products of squared column norms, H2; reconstruction succeeds once
    p**k > 2 * H2.
    """
    col2 = (b.astype(object) ** 2).sum(axis=0).tolist()
    det2 = prod(col2)
    rhs2 = max((c.astype(object) ** 2).sum(axis=0).tolist())
    h2 = max(det2, -(-det2 * rhs2 // min(col2)))
    steps, pk = 0, 1
    while pk <= 2 * h2:
        steps, pk = steps + 1, pk * p
    return steps


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of integer matrices, exactly: in float64 while n * max|a| * max|b|,
    which bounds the absolute terms of an entry, is below _FLOAT_EXACT."""
    if a.shape[1] * _max_abs(a) * _max_abs(b) < _FLOAT_EXACT:
        return a.astype(np.float64) @ b.astype(np.float64)
    return a.astype(object) @ b.astype(object)


def _kernel_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray] | None:
    """(P, K) from the pivots of a mod p, verified; None if p is unlucky.

    The pivot block B = a[P, Q] is invertible mod p, so X = -B^-1 a[P, F]
    (F the free columns) has no p in its denominators.  Its first p-adic
    digit, X mod p, is read off the reduced pivot rows.  Reconstruction is
    tried at every digit, and a @ K is formed exactly: a nonzero in the
    pivot rows means the digits were too few (X is the only solution of
    B X = -a[P, F]), a nonzero in the other rows that the rank mod p is
    below the rank.  Too few digits are lifted, X_i = B^-1 R_i mod p with
    R_0 = -a[P, F], R_(i+1) = (R_i - B X_i) / p, up to the Hadamard bound.
    Last, K must be in reduced-echelon form: a nonzero at a pivot column
    right of a vector's free column means that the pivots mod p are not the
    leftmost independent columns over Q (as for [[p, 1]]).  P are the pivot
    rows, in pivot order: a[P, Q] is nonsingular and |P| is the rank.
    """
    n = a.shape[1]
    prow, pcol, reduced = _modp_reduce((a % p).astype(np.int64, copy=False), p)
    r = len(pcol)
    free = sorted(set(range(n)) - set(pcol))
    kernel = np.zeros((n, len(free)), dtype=object)
    if not free:
        return prow, kernel
    if not r:
        kernel[free, range(len(free))] = 1
        return (prow, kernel) if not a.any() else None
    digit = -reduced[:, free] % p
    x, pk, step, steps = digit.astype(object), p, 1, None
    while True:
        bound = isqrt(pk // 2)
        for j in range(len(free)):
            col = _reconstruct_column(x[:, j], pk, bound)
            if col is None:
                break
            kernel[pcol, j], kernel[free[j], j] = col
        else:
            check = _exact_product(a, kernel)
            if not check[prow].any():
                # free column j depends on the pivot columns left of it only
                # iff the pivots are the leftmost independent columns over Q
                late = np.array(pcol)[:, None] > np.array(free)
                return None if check.any() or kernel[pcol][late].any() else (prow, kernel)
        if steps is None:
            b, c = a[np.ix_(prow, pcol)], -a[np.ix_(prow, free)]
            steps = _lifting_steps(b, c, p)
            # |R_i| <= max|C| + r max|B| p: int64 below INT64_SAFE, Python ints beyond
            dtype = np.int64 if _max_abs(c) + r * _max_abs(b) * p < INT64_SAFE else object
            b, resid, binv = b.astype(dtype), c.astype(dtype), reduced[:, n:]
        if step == steps:
            return None
        resid = (resid - b @ digit.astype(dtype)) // p
        digit = _matmul_mod(binv, (resid % p).astype(np.int64), p)
        x += digit.astype(object) * pk
        pk, step = pk * p, step + 1


def _kernel_primes():
    """The primes of _RANK_PRIMES, then the primes p = 1 (mod 4) below
    them in descending order."""
    yield from _RANK_PRIMES
    p = _RANK_PRIMES[-1]
    while True:
        p -= 4
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p


def _prime_budget(a: np.ndarray) -> int:
    """1 + floor(log2 H / 30), H the Hadamard bound of the columns of a."""
    h2 = prod(max(1, x) for x in (a.astype(object) ** 2).sum(axis=0).tolist())
    return 1 + (h2.bit_length() - 1) // 60


def _matrix(rows) -> np.ndarray:
    """rows as an array (a list of rows as Python ints); ValueError unless
    it is a matrix."""
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


def int_kernel(rows) -> tuple[list[int], np.ndarray]:
    """(P, K) of an integer matrix A (an array or a list of rows).

    P are row indices of A, as many as its rank, whose rows are independent:
    the pivot rows of the elimination, in pivot order, with a nonsingular
    pivot block.  K is an n x (n - rank) array of Python ints whose columns
    are a basis of {x : A x = 0}: the reduced-echelon kernel vectors, one
    per free column, each with its denominators cleared, so that K
    restricted to the free rows is diagonal and positive.  One elimination
    mod p gives both when the first p-adic digit reconstructs K, and every
    result passed the checks of _kernel_mod.

    The primes are those of _kernel_primes, at most _prime_budget(A) of
    them.  A prime that does not divide the nonzero minor D of A on its
    leftmost independent columns finds those pivots and passes both checks.
    Every prime tried is above 2**30 and |D| <= H, so at most
    floor(log2 H / 30) of them divide D: the budget is never exhausted; if
    it were, ArithmeticError is raised.
    """
    a = _matrix(rows)
    m, n = a.shape
    if not m:
        return [], np.eye(n, dtype=np.int64).astype(object)
    budget = None
    for tried, p in enumerate(_kernel_primes()):
        if tried == budget:
            raise ArithmeticError(f"no verified kernel modulo {tried} primes")
        found = _kernel_mod(a, p)
        if found is not None:
            return found
        if budget is None:
            budget = _prime_budget(a)


def int_rank(rows) -> int:
    """Exact rank of an integer matrix, given as an array or a list of rows;
    ValueError for anything but a matrix, as int_kernel.

    A matrix of one or two rows or columns is ranked off its entries, in
    Python ints (the torus block T K_S of mforacle._split_rank for one or
    two torus lines): one line has rank 1 iff it is nonzero, and two lines
    u, v with a nonzero column (u_k, v_k) have rank 2 iff some 2 x 2 minor
    u_k v_j - u_j v_k is nonzero, since every column is a multiple of
    column k otherwise.  Any other matrix has the number of pivot rows of
    int_kernel on its narrower side; a full rank mod p is certified by the
    elimination alone.
    """
    a = _matrix(rows)
    if 0 in a.shape:
        return 0
    if 1 in a.shape:
        return int(bool(a.any()))
    if 2 in a.shape:
        u, v = (a if a.shape[0] == 2 else a.T).tolist()
        k = next((j for j, pair in enumerate(zip(u, v)) if any(pair)), None)
        if k is None:
            return 0
        return 2 if any(u[k] * y != x * v[k] for x, y in zip(u, v)) else 1
    return len(int_kernel(a if a.shape[0] >= a.shape[1] else a.T)[0])


# The kernels _kernel_of keeps: one per semisimple part and draw of
# mforacle._split_rank, about a hundred on the paper's tables, and the few
# distinct Gram blocks of matrep._weight_module
SEMISIMPLE_KERNELS = 256


@functools.lru_cache(maxsize=SEMISIMPLE_KERNELS)
def _kernel_of(shape: tuple[int, int], data: bytes | tuple[int, ...]) -> np.ndarray:
    """int_kernel's K of the matrix of this shape held by data, read-only:
    its int64 bytes, or its Python ints in row order."""
    kernel = int_kernel(
        np.frombuffer(data, np.int64).reshape(shape)
        if isinstance(data, bytes)
        else np.array(data, dtype=object).reshape(shape)
    )[1]
    kernel.flags.writeable = False  # shared through the cache
    return kernel


# Between rounding noise and the smallest true singular value, with a wide
# margin to each.  On the Borel rows of mf_test at its integer samples, a
# singular value that is zero in exact arithmetic comes out below
# 0.15 * max(m, n) * 2**-52 (about 1e-15) times the largest, and a nonzero
# one can fall to 3e-9 times the largest: a real matrix comes near a
# singular one far more often than a complex one, whose samples stayed
# above 3e-5.
_FLOAT_RANK_TOL = 1e-12


def float_rank(m: np.ndarray) -> int:
    """Double-precision rank of the integer matrix m via SVD; singular
    values at most _FLOAT_RANK_TOL times the largest count as 0.

    The tolerance is relative, so a common denominator of the rows, which
    scales every singular value alike, does not change the rank.
    """
    a = m.astype(float)
    if not a.any():
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sv > _FLOAT_RANK_TOL * sv[0]))
