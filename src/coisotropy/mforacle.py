"""Independent computational oracles on explicit matrix actions.

Multiplicity-freeness is decided by openness of a generic Borel orbit
(exact rank at an integer point with a double-precision cross-check),
cohomogeneity by generic orbit dimension of the compact real form, the
rank of a principal isotropy subalgebra by the centralizer of a sampled
element, certified at each point by being abelian (a maximal torus), and
polarity candidates are killed by the Lie triple system test on explicit
tangent data.  The coisotropy test reads both ranks from one elimination of
the orbit map per sample point, and its report names the points' keys.

Every matrix here is a real integer matrix.  The orbit oracles read the
compact action in one model, the integer stack compact_stack on R^n, with
the model's group_rank and trivial_gap: a RealRep gives the stack
directly, and a MatrixRep on C^d gives its realification on R^(2d).
Every sample is an integer point (_sample_vector) drawn by _stabilize,
which rejects a model of dimension 0 (realize and real_block_rep make
none): of R^n for the compact oracles, and of Z^d inside C^d for mf_test,
whose Borel rows depend on the point with rational coefficients, so their
generic rank over C is reached at integer points.  The Lie-triple test takes complex
tangent data realified (linalg.realify), which changes no span and no
bracket.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    INT64_SAFE,
    IntStack,
    _bracket,
    _kernel_of,
    _max_abs,
    float_rank,
    int_kernel,
    int_apply,
    int_rank,
    realify,
)
from .matrep import MatrixRep


DEFAULT_SEED = 20240101
SAMPLE_BOUND = 97
# mf_test draws each coordinate from [-MF_SAMPLE_BOUND, MF_SAMPLE_BOUND]:
# 38025 = 195**2 values, as many as a Gaussian integer with real and
# imaginary part in [-97, 97], so its Schwartz-Zippel bound is dim / 38025
MF_SAMPLE_BOUND = 19012
N_SAMPLES = 3
MAX_ROUNDS = 5


class GenericityError(RuntimeError):
    """Sampled ranks failed to stabilize; never silently answered."""


class OracleDisagreement(RuntimeError):
    """Exact rank and floating-point rank disagreed; hard failure."""


@dataclass
class OrbitProbe:
    """Bookkeeping for one stabilized sampling run: the evaluated points and
    the _rng key each was drawn from, and whether the value is certified (a
    sample reached the ceiling) rather than agreed on by N_SAMPLES samples."""

    sample_points: list[np.ndarray]
    seeds: list[str]
    value: int | tuple[int, ...]
    rounds_used: int
    certified: bool = False


@dataclass
class CohomReport:
    cohomogeneity: int
    group_rank: int
    principal_isotropy_rank: int
    # the isotropy rank at each sampled point was shown by an abelian
    # centralizer (principal_isotropy_rank)
    isotropy_certified: bool = False
    # the _rng keys of the points both ranks were read at (OrbitProbe.seeds)
    points: tuple[str, ...] = ()

    @property
    def coisotropic(self) -> bool:
        return self.cohomogeneity == self.group_rank - self.principal_isotropy_rank


def _rng_key(seed: int, idx: int, rnd: int) -> str:
    return f"{seed}:{idx}:{rnd}"


def _rng(seed: int, idx: int, rnd: int) -> random.Random:
    return random.Random(_rng_key(seed, idx, rnd))


def _sample_vector(dim: int, rng: random.Random, bound: int) -> np.ndarray:
    """A nonzero integer point of Z^dim, each coordinate drawn uniformly
    from [-bound, bound]."""
    while True:
        draws = [rng.randint(-bound, bound) for _ in range(dim)]
        if any(draws):
            return np.array(draws, dtype=np.int64)


# The points _sample_point keeps: every module of a dimension draws the same
# points, about sixty on the paper's tables
SAMPLE_POINTS = 1024


@functools.lru_cache(maxsize=SAMPLE_POINTS)
def _sample_point(seed: int, idx: int, rnd: int, dim: int, bound: int) -> np.ndarray:
    """The point _sample_vector draws from _rng(seed, idx, rnd), read-only."""
    v = _sample_vector(dim, _rng(seed, idx, rnd), bound)
    v.flags.writeable = False  # shared through the cache
    return v


def _stabilize(
    evaluate, dim: int, seed: int, bound: int, ceiling: int | None = None
) -> OrbitProbe:
    """Evaluate an invariant, an int or a tuple of ints, at N_SAMPLES generic
    points of Z^dim, with coordinates in [-bound, bound] in the first round.
    The point of each key (seed, idx, rnd) is a function of the key, the
    dimension and the range, drawn once per process (_sample_point).

    For a rank whose generic value is its maximum over all points, ceiling
    is the largest value it can take: a sample reaching it certifies the
    generic value and ends sampling at once (OrbitProbe.certified).
    Otherwise the samples must agree, on every entry of a tuple; on
    disagreement the integer entry range is scaled up tenfold, up to
    MAX_ROUNDS times, after which a GenericityError is raised rather than
    returning a possibly non-generic answer.  Z^0 has no nonzero point,
    so a dim below 1 is a ValueError.
    """
    if dim < 1:
        raise ValueError(f"a model of dimension {dim} has no point to sample")
    for rnd in range(MAX_ROUNDS):
        points = []
        values = []
        seeds = []
        for idx in range(N_SAMPLES):
            v = _sample_point(seed, idx, rnd, dim, bound)
            points.append(v)
            seeds.append(_rng_key(seed, idx, rnd))
            values.append(evaluate(v))
            if values[-1] == ceiling:
                return OrbitProbe(
                    sample_points=points, seeds=seeds, value=ceiling, rounds_used=rnd + 1,
                    certified=True,
                )
        if len(set(values)) == 1:
            return OrbitProbe(
                sample_points=points, seeds=seeds, value=values[0], rounds_used=rnd + 1
            )
        bound *= 10
    raise GenericityError(f"sample ranks did not stabilize after {MAX_ROUNDS} rounds")


def _split_rank(rows: np.ndarray, n_ss: int) -> int:
    """Exact rank of the Borel rows [S; T], S their first n_ss rows.

    The verified kernel K_S of S is cached by the value of S
    (linalg._kernel_of): its int64 bytes, or the Python ints of an object
    array (whose bytes are pointers).  K_S is a basis of ker S, so
    ker [S; T] = K_S ker(T K_S), and the rank is dim - cols(K_S) +
    int_rank(T K_S); for one or two torus lines T K_S has one or two rows,
    whose rank int_rank reads off its entries.
    """
    s = rows[:n_ss]
    kernel = _kernel_of(s.shape, s.tobytes() if s.dtype == np.int64 else tuple(s.ravel().tolist()))
    return rows.shape[1] - kernel.shape[1] + int_rank(rows[n_ss:] @ kernel)


def mf_test(rep: MatrixRep, seed: int = DEFAULT_SEED) -> bool:
    """True iff a Borel subgroup of the complexified group has an open orbit.

    The rank of {b . v : b Borel generator} at a generic v is compared with
    the module dimension.  The Borel generators are rational matrices, so
    the rank over C is at its generic value on a Zariski-open set defined
    over Q, and v is an integer point with coordinates in
    [-MF_SAMPLE_BOUND, MF_SAMPLE_BOUND]: a rank-deficient sample has
    probability at most dim / 38025 (Schwartz 1980; Zippel 1979).  The rows
    b . v are one batched integer product (int_apply), and a float_rank
    that differs from their exact rank raises OracleDisagreement.  The rank
    is at most min(#Borel generators, dim); a sample reaching that ceiling
    certifies the answer and ends sampling, so a True, and a False for a
    Borel algebra with fewer generators than dim, take one sample.

    The exact rank splits along b = b_ss + t (_split_rank): the rows S of
    the Cartan and raising generators do not depend on the charges, so
    modules that share a semisimple part eliminate S once per draw, and
    each adds the rank of its torus rows on ker S.
    """
    dim, borel = rep.space_dim, rep.borel_stack
    n_ss = borel.shape[0] - len(rep.group.torus_lines)

    def rank_at(v) -> int:
        rows = int_apply(borel, v)
        exact, approx = _split_rank(rows, n_ss), float_rank(rows)
        if exact != approx:
            raise OracleDisagreement(
                f"exact rank {exact} vs floating rank {approx}; inputs are suspect"
            )
        return exact

    ceiling = min(borel.shape[0], dim)
    probe = _stabilize(rank_at, dim, seed, MF_SAMPLE_BOUND, ceiling)
    return probe.value == dim


def cohomogeneity(rep, seed: int = DEFAULT_SEED) -> int:
    """Real codimension of a generic orbit of the compact group.

    The orbit rank is at most min(#compact generators, real dim); a sample
    reaching that ceiling certifies it and ends sampling.
    """
    n, dim, _ = rep.compact_stack.shape

    def orbit_rank(v) -> int:
        return int_rank(int_apply(rep.compact_stack, v))

    probe = _stabilize(orbit_rank, dim, seed, SAMPLE_BOUND, min(n, dim))
    return dim - probe.value


class _Frame(NamedTuple):
    """What the isotropy rank reads of a module, computed once per call.

    at: the entries P of the flattened real generator stack on which the
    span of the compact generators restricts injectively, as indices into
    the row of d**2 entries of a generator.  The other fields list the
    products that land at P in a bracket [g_i, z] (_brackets_at): the
    generator k and the index j into P they add to, the entry (a, b) of z
    they read and the stack entry they multiply it by, sign included.
    """

    stack: IntStack
    at: np.ndarray
    k: np.ndarray
    j: np.ndarray
    a: np.ndarray
    b: np.ndarray
    val: np.ndarray


def _frame(rep) -> _Frame:
    """P from the verified pivot rows of the transposed stack (int_kernel):
    they are as many as the rank and independent, so a matrix of the span
    is zero iff it is zero at P."""
    s = rep.compact_stack
    n, d, _ = s.shape
    pos = s.row * d + s.col
    used = np.zeros(d * d, dtype=bool)
    used[pos] = True
    entries = np.flatnonzero(used)
    stack_t = np.zeros((entries.size, n), dtype=s.val.dtype)
    stack_t[np.searchsorted(entries, pos), s.k] = s.val
    pivots, _ = int_kernel(stack_t)
    at = entries[pivots]
    row, col = at // d, at % d
    # an entry g[a, b] of g_i meets z in (g_i z)[a, q] = g[a, b] z[b, q] at
    # the entries of P in row a, and in -(z g_i)[p, b] = -z[p, a] g[a, b]
    # at the entries of P in column b
    t, j = np.nonzero(s.row[:, None] == row)
    u, i = np.nonzero(s.col[:, None] == col)
    return _Frame(
        s,
        at,
        np.r_[s.k[t], s.k[u]],
        np.r_[j, i],
        np.r_[s.col[t], row[i]],
        np.r_[col[j], s.row[u]],
        np.r_[s.val[t], -s.val[u]],
    )


def _element(frame: _Frame, w: np.ndarray) -> np.ndarray:
    """The d x d matrix of sum_i w_i g_i, in Python ints."""
    s = frame.stack
    z = np.zeros(s.shape[1:], dtype=object)
    np.add.at(z, (s.row, s.col), w[s.k] * s.val)
    return z


def _brackets_at(f: _Frame, z: np.ndarray) -> np.ndarray:
    """The n x |P| matrix of the brackets [g_i, z] read at P."""
    out = np.zeros((f.stack.shape[0], f.at.size), dtype=object)
    np.add.at(out, (f.k, f.j), f.val * z[f.a, f.b])
    return out


def _centralizer(frame: _Frame, kernel: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Generator coordinates of a basis of the centralizer of
    z = sum_i w_i g_i in the algebra spanned by the columns of kernel:
    the combinations of its columns whose bracket with z is zero at P."""
    brackets = kernel.T @ _brackets_at(frame, _element(frame, w))
    return kernel @ int_kernel(brackets.T)[1]


def _abelian(frame: _Frame, basis: np.ndarray) -> bool:
    """True iff the elements with generator coordinates the columns of
    basis commute: [Y_a, Y_b] = sum_i Y_ia [g_i, Y_b] is zero at P."""
    for b in range(1, basis.shape[1]):
        if (basis[:, :b].T @ _brackets_at(frame, _element(frame, basis[:, b]))).any():
            return False
    return True


def _orbit_probe(rep, seed: int) -> OrbitProbe:
    """(orbit rank, isotropy rank) at generic points v, from one elimination
    of the orbit map at each: int_kernel of its transposed rows gives pivots
    P, as many as the orbit rank, and K, h_v in generator coordinates.

    In a compact algebra the centralizer c(z) of an element z contains a
    maximal torus, and an abelian c(z) cannot exceed one, so an abelian
    c(z) has the rank as its dimension, certified.  z is drawn from h_v;
    when c(z) is not abelian the next of N_SAMPLES draws is tried, and
    GenericityError is raised after the last.  The brackets are read at
    the entries P of _frame only, and no matrix of h_v is formed.  The
    factors that act trivially count with their rank (the model's
    trivial_gap).  The sampled points must agree on the pair (_stabilize),
    unless one reaches the orbit rank n of the n compact generators: h_v is
    then 0 there and at a generic point, which certifies (n, trivial_gap)
    at once.
    """
    n, dim, _ = rep.compact_stack.shape
    gap = rep.trivial_gap
    frame = None

    def ranks_at(v) -> tuple[int, int]:
        nonlocal frame
        pivots, kernel = int_kernel(int_apply(rep.compact_stack, v).T)
        if not kernel.shape[1]:
            return len(pivots), gap
        if frame is None:
            frame = _frame(rep)
        for t in range(N_SAMPLES):
            rng = _rng(seed, 1000 + t, 0)
            c = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(kernel.shape[1])]
            basis = _centralizer(frame, kernel, kernel @ np.array(c, dtype=object))
            if _abelian(frame, basis):
                return len(pivots), basis.shape[1] + gap
        raise GenericityError("no sampled centralizer in the isotropy algebra is abelian")

    return _stabilize(ranks_at, dim, seed, SAMPLE_BOUND, (n, gap) if n <= dim else None)


def principal_isotropy_rank(rep, seed: int = DEFAULT_SEED) -> int:
    """Rank of the isotropy subalgebra h_v at a generic point v (_orbit_probe)."""
    return _orbit_probe(rep, seed).value[1]


def coisotropic_by_rank(rep, seed: int = DEFAULT_SEED) -> CohomReport:
    """Cohomogeneity against rank difference, both read at the same points
    (_orbit_probe), and the group rank the model states."""
    probe = _orbit_probe(rep, seed)
    return CohomReport(
        cohomogeneity=rep.compact_stack.shape[1] - probe.value[0],
        group_rank=rep.group_rank,
        principal_isotropy_rank=probe.value[1],
        isotropy_certified=True,
        points=tuple(probe.seeds),
    )


# ---------------------------------------------------------------------------
# symmetric pairs and the Lie triple system test


# A matrix here is an integer array; a (k, n, n) array is a stack of k
# matrices.  Complex data enters realified (linalg.realify).


def _unit(d: int, a: int, b: int, sign: int) -> np.ndarray:
    """The integer d x d matrix E_ab + sign * E_ba; E_aa when a == b."""
    out = np.zeros((d, d), dtype=np.int64)
    out[b, a] = sign
    out[a, b] = 1
    return out


@dataclass
class SymmetricPair:
    """Exact bases of k and p in g = k + p for a symmetric-space isotropy
    splitting, each a list of integer matrices."""

    name: str
    k_basis: list[tuple]
    p_basis: list[tuple]

    def validate(self) -> None:
        in_k, in_p = _span_test(self.k_basis), _span_test(self.p_basis)
        k, p = np.stack(self.k_basis), np.stack(self.p_basis)
        for inside, x, y, message in (
            (in_k, k, k, "[k, k] escapes k"),
            (in_p, k, p, "[k, p] escapes p"),
            (in_k, p, p, "[p, p] escapes k"),
        ):
            # every bracket [x_a, y_b] at once, broadcast over (a, b)
            pairs = _bracket(x[:, None], y[None])
            if not inside(pairs).all():
                raise ValueError(message)


@dataclass
class LieTripleResult:
    closed: bool
    witness: tuple[int, int, int] | None = None
    witness_bracket: np.ndarray | None = None

    def __bool__(self):
        return self.closed


def _span_test(basis: list[np.ndarray]):
    """Membership in the real span of a nonempty basis, ranked once.

    Returns a test that maps a stack of shape (..., n, n) to a bool array
    of shape (...), True where the matrix lies in the span.
    The span of the flattened basis rows is the orthogonal complement of
    their verified integer kernel K (int_kernel), so a target lies in it
    iff its flattened row times K is zero: one exact product per target.
    """
    kernel = int_kernel(np.stack(basis).reshape(len(basis), -1))[1]
    k_max = _max_abs(kernel)

    def inside(target: np.ndarray) -> np.ndarray:
        rows = target.reshape(*target.shape[:-2], -1)
        small = _max_abs(rows) * k_max * rows.shape[-1] < INT64_SAFE
        k = kernel.astype(np.int64) if small else kernel
        rows = rows if small else rows.astype(object)
        return ~(rows @ k).any(axis=-1)

    return inside


def lie_triple_test(pair: SymmetricPair, m_basis: list[np.ndarray]) -> LieTripleResult:
    """Closure of span(m_basis) under the double bracket, exactly.

    m_basis must lie inside p; the candidate section exp(m) is totally
    geodesic precisely when every [[X, Y], Z] stays in the span.
    """
    if m_basis and not _span_test(pair.p_basis)(np.stack(m_basis)).all():
        raise ValueError("m_basis is not contained in p")
    return lie_triple_closure(m_basis)


def lie_triple_closure(m_basis: list[np.ndarray]) -> LieTripleResult:
    """Closure of the real span of m_basis under double matrix brackets.

    This is the raw test applied directly to tangent data written in slice
    coordinates (brackets are plain matrix commutators there); embedding
    the coordinates into an ambient orthogonal algebra first can change
    the verdict, so callers record which model produced their numbers.
    """
    if not m_basis:
        return LieTripleResult(closed=True)
    inside = _span_test(m_basis)
    for i, x in enumerate(m_basis):
        for j, y in enumerate(m_basis):
            inner = _bracket(x, y)
            for k, z in enumerate(m_basis):
                triple = _bracket(inner, z)
                if not inside(triple):
                    return LieTripleResult(closed=False, witness=(i, j, k), witness_bracket=triple)
    return LieTripleResult(closed=True)


def brackets_vanish(m_basis: list[np.ndarray]) -> bool:
    return not any(_bracket(x, y).any() for x in m_basis for y in m_basis)


def so_even_u_pair(m: int) -> SymmetricPair:
    """so(2m) = u(m) + p with p the (anti)holomorphic tangent of SO(2m)/U(m).

    Real matrices; the complex structure is J = [[0, -I], [I, 0]], k is its
    commutant, p its anticommutant:  k = [[A, -B], [B, A]] (A skew, B sym),
    p = [[P, Q], [Q, -P]] (P, Q skew).
    """
    n = 2 * m
    zero = np.zeros((m, m), dtype=np.int64)
    k_basis, p_basis = [], []
    for a, b in zip(*np.triu_indices(m, 1)):
        x = _unit(m, a, b, -1)
        k_basis.append(np.block([[x, zero], [zero, x]]))
        p_basis += [np.block([[x, zero], [zero, -x]]), np.block([[zero, x], [x, zero]])]
    for a, b in zip(*np.triu_indices(m)):
        sym = _unit(m, a, b, 1)
        k_basis.append(np.block([[zero, -sym], [sym, zero]]))
    return SymmetricPair(f"so({n})/u({m})", k_basis, p_basis)


def embed_p_so_even(w: tuple) -> np.ndarray:
    """Skew complex m x m matrix W = P + iQ, given as (P, Q), -> [[P, Q],
    [Q, -P]] in p."""
    p, q = w
    return np.block([[p, q], [q, -p]])


def sp_u_pair(m: int) -> SymmetricPair:
    """Compact sp(m) = u(m) + p inside 2m x 2m complex matrices.

    Elements are [[A, B], [-conj(B), conj(A)]] with A antihermitian and B
    symmetric; k is the B = 0 part, p the A = 0 part (p is Sym^2 C^m as a
    real space).  Each is held as its realification, a 4m x 4m integer
    matrix.
    """
    zero = np.zeros((m, m), dtype=np.int64)

    def a_block(re, im):
        return realify(np.block([[re, zero], [zero, re]]), np.block([[im, zero], [zero, -im]]))

    def b_block(re, im):
        return realify(np.block([[zero, re], [-re, zero]]), np.block([[zero, im], [im, zero]]))

    k_basis, p_basis = [], []
    for a, b in zip(*np.triu_indices(m)):
        sym = _unit(m, a, b, 1)
        if a == b:
            k_basis.append(a_block(zero, sym))
        else:
            k_basis += [a_block(_unit(m, a, b, -1), zero), a_block(zero, sym)]
        p_basis += [b_block(sym, zero), b_block(zero, sym)]
    return SymmetricPair(f"sp({m})/u({m})", k_basis, p_basis)


def maximal_abelian_in_p(
    pair: SymmetricPair, seed: int = DEFAULT_SEED
) -> list[np.ndarray]:
    """Commutant of a generic p-element inside p: a maximal abelian subspace."""
    rng = random.Random(f"{seed}:abelian")
    p = np.stack(pair.p_basis)
    c = np.array([rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in pair.p_basis])
    _, kernel = int_kernel(_bracket(p, np.tensordot(c, p, axes=1)).reshape(len(p), -1).T)
    return [np.tensordot(v, p, axes=1) for v in kernel.T]
