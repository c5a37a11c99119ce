"""Independent references that the tests check the program against.

The program has one exact elimination, the verified modular kernel
``linalg.int_kernel``.  These references stay in the tests only: the
reduced row echelon form over Fraction, the kernel read off it and the
fraction-free (Bareiss) rank of an integer matrix; the modular
elimination and the lifting schedule that ``int_kernel`` used before it
read its first p-adic digit off the elimination; the solver of the
invariant bilinear form of a realized module and the standalone spin
representation it is tried on; the check of the root vectors that
``matrep._root_vectors`` derives from a certified simple stack; the
pairwise module certificate and the per-root derivation of the root
vectors, formed one d x d integer product at a time, that the stacked
``matrep._certify`` and ``matrep._root_vectors`` replaced; the
``repdata._factor_maps`` that tried every injective image of the used
factors before it compared kinds, the kind check it made of every row
before ``repdata.lookup_mf`` indexed the rows, and the
``repdata._solve_rank`` that
tried each candidate rank on every call; the Borel view that
``MatrixRep.borel_stack`` selected by a mask over every nonzero before it
sliced the ordered stack; the tokenizer that ``dsl._tokenize`` ran one
match at a time; the recursive dominant-weight search,
one ``weyl_dim`` per weight, that ``rootsys.enumerate_dominant_weights``
ran before it went one level at a time; and the elimination polynomials
of ``repdata.POLY_FAMILIES`` written as functions.
"""

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from coisotropy.dsl import _TOKEN_RE, ParseError, eval_int_expr, expr_names
from coisotropy.linalg import (
    INT64_SAFE,
    IntStack,
    _kernel_primes,
    _lifting_steps,
    _matmul_mod,
    _max_abs,
    _prime_budget,
    _rational,
    _reconstruct_column,
    int_kernel,
    int_rank,
)
from coisotropy.matrep import (
    Factor,
    GroupSpec,
    MatrixRep,
    RepresentationError,
    RepSpec,
    Summand,
    Term,
    _weight_fault,
    _weights,
    realize,
)
from coisotropy.repdata import _SU1
from coisotropy.rootsys import DominantWeight, weyl_dim


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


def bareiss_rank(rows: list[list[int]]) -> int:
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


# The modular elimination that swaps rows and updates every column, and the
# lifting that always forms the Hadamard bound and the first digit by a
# residue product, then tries a reconstruction only when a probed entry
# repeats; linalg._modp_reduce and linalg._kernel_mod replaced them.


def row_swapping_reduce(a: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """(P, Q, B^-1 mod p) for an int64 matrix of residues mod p, by
    Gauss-Jordan elimination that moves each pivot row into place."""
    nr, nc = a.shape
    m = np.concatenate([a, np.zeros((nr, min(nr, nc)), dtype=np.int64)], axis=1)
    order = list(range(nr))
    pcol: list[int] = []
    r = 0
    for c in range(nc):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
            order[r], order[pr] = order[pr], order[r]
        m[r, nc + r] = 1
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        f = m[:, c, None].copy()
        f[r] = 0
        m[:, c:] = (m[:, c:] - f * m[r, c:]) % p
        pcol.append(c)
        r += 1
        if r == nr:
            break
    return order[:r], pcol, m[:r, nc : nc + r]


def probe_kernel_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray] | None:
    """(P, K) from the pivots of a mod p, verified; None if p is unlucky.
    The digits are B^-1 R_i mod p from the first on, and reconstruction is
    tried when the last entry reconstructs to the same fraction at two
    successive steps, and at the Hadamard bound."""
    n = a.shape[1]
    prow, pcol, binv = row_swapping_reduce((a % p).astype(np.int64), p)
    r = len(pcol)
    free = [j for j in range(n) if j not in set(pcol)]
    kernel = np.zeros((n, len(free)), dtype=object)
    if not free:
        return prow, kernel
    if not r:
        kernel[free, range(len(free))] = 1
        return (prow, kernel) if not a.any() else None
    b = a[np.ix_(prow, pcol)]
    c = -a[np.ix_(prow, free)]
    steps = _lifting_steps(b, c, p)
    dtype = np.int64 if _max_abs(c) + r * _max_abs(b) * p < INT64_SAFE else object
    b, resid = b.astype(dtype), c.astype(dtype)
    x = np.zeros(c.shape, dtype=object)
    pk, probe = 1, None
    for step in range(1, steps + 1):
        digit = _matmul_mod(binv, (resid % p).astype(np.int64), p)
        x += digit.astype(object) * pk
        resid = (resid - b @ digit.astype(dtype)) // p
        pk *= p
        bound = isqrt(pk // 2)
        last, probe = probe, _rational(int(x[-1, -1]), pk, bound)
        if step < steps and (probe is None or probe != last):
            continue
        for j in range(len(free)):
            col = _reconstruct_column(x[:, j], pk, bound)
            if col is None:
                break
            kernel[pcol, j], kernel[free[j], j] = col
        else:
            check = a.astype(object) @ kernel
            if check[prow].any():
                continue
            if check.any():
                return None
            late = np.array(pcol)[:, None] > np.array(free)
            return None if kernel[pcol][late].any() else (prow, kernel)
    return None


def probe_int_kernel(rows) -> tuple[list[int], np.ndarray]:
    """int_kernel on probe_kernel_mod: the same primes and prime budget."""
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    budget = None
    for tried, p in enumerate(_kernel_primes()):
        if tried == budget:
            raise ArithmeticError(f"no verified kernel modulo {tried} primes")
        found = probe_kernel_mod(a, p)
        if found is not None:
            return found
        if budget is None:
            budget = _prime_budget(a)


def spin_rep(n: int) -> MatrixRep:
    """Spin module of so(n) as a standalone representation, 3 <= n <= 12:
    the half-spin module omega_r when n is even."""
    group = GroupSpec(factors=(Factor("so", n),))
    rep = RepSpec(summands=(Summand(terms=(Term("spin", 1),)),))
    return realize(group, rep)


def _join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs (s, t) with a[s] == b[t]."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, "left")
    count = np.searchsorted(b[order], a, "right") - lo
    s = np.repeat(np.arange(a.size), count)
    start = np.repeat(lo - np.cumsum(count) + count, count)
    return s, order[start + np.arange(s.size)]


def invariant_bilinear_form(rep: MatrixRep) -> str:
    """Classify the invariant bilinear form of an irreducible module.

    Solves B x + x^T B = 0 exactly, one equation per generator x and matrix
    position, with the unknowns restricted to opposite-weight pairs; the
    generators are real, so the complex solutions are the complex span of
    the real ones, and the integer system goes to int_kernel.  Returns one
    of 'none', 'symmetric', 'antisymmetric', 'degenerate-space'.  A
    solution space of dimension above one flags a reducible input.
    """
    g, d, nc, npos = rep.gens, rep.space_dim, len(rep.cartan_labels), len(rep.root_labels)
    w = _weights(g, [*range(nc), *range(nc + 2 * npos, g.shape[0])])
    ui, uj = np.nonzero((w[:, None, :] + w[None, :, :] == 0).all(axis=2))
    nu = ui.size
    if not nu:
        return "none"
    # (B x)[i, c] gains B[i, j] x[j, c]: unknowns whose column is the entry's row
    s1, u1 = _join(g.row, uj)
    # (x^T B)[a, j] gains x[i, a] B[i, j]: unknowns whose row is the entry's row
    s2, u2 = _join(g.row, ui)
    eq = np.concatenate([
        (g.k[s1] * d + ui[u1]) * d + g.col[s1],
        (g.k[s2] * d + g.col[s2]) * d + uj[u2],
    ])
    s, u = np.concatenate([s1, s2]), np.concatenate([u1, u2])
    eqs, at = np.unique(eq, return_inverse=True)
    a = np.zeros((eqs.size, nu), g.val.dtype)
    np.add.at(a, (at, u), g.val[s])
    _, kernel = int_kernel(a)
    if not kernel.shape[1]:
        return "none"
    if kernel.shape[1] > 1:
        raise RepresentationError(
            "invariant form space has dimension above one: input is reducible"
        )
    b = np.zeros((d, d), object)
    b[ui, uj] = kernel[:, 0]
    if (b.T == b).all():
        sym = "symmetric"
    elif (b.T == -b).all():
        sym = "antisymmetric"
    else:
        raise RepresentationError("invariant form is neither symmetric nor skew")
    if int_rank(b) < d:
        return "degenerate-space"
    return sym


def root_vector_faults(stack, rs) -> list[str]:
    """The faults of the root vectors of a module stack cartan | raising |
    lowering, by dense Python-int products.

    For each non-simple positive root beta and the first i with beta' =
    beta - alpha_i a positive root, e_beta must equal [e_i, e_beta'] and
    f_beta must equal [f_beta', f_i].  For every positive root,
    [e_beta, f_beta] must be c h_beta with c > 0, where h_beta acts by
    <mu, beta^vee> on the weight mu: f_beta is then a positive multiple of
    the adjoint of e_beta.
    """
    r, roots = rs.rank, rs.positive_roots
    npos, den = len(roots), stack.den
    gens = stack.dense().astype(object)
    e = {root: gens[r + j] for j, root in enumerate(roots)}
    f = {root: gens[r + npos + j] for j, root in enumerate(roots)}
    bracket = lambda x, y: x @ y - y @ x  # noqa: E731  (den^2 times the bracket)
    weights = np.array([np.diag(gens[i]) for i in range(r)]).T  # den * <mu, alpha_i^vee>
    faults = []
    for j, root in enumerate(roots):
        if sum(root) > 1:
            i, beta = next(
                (i, b) for i in range(r)
                if root[i] and (b := tuple(c - (t == i) for t, c in enumerate(root))) in e
            )
            unit = tuple(int(t == i) for t in range(r))
            if (den * e[root] != bracket(e[unit], e[beta])).any():
                faults.append(f"e{root} is not [e_{i}, e{beta}]")
            if (den * f[root] != bracket(f[beta], f[unit])).any():
                faults.append(f"f{root} is not [f{beta}, f_{i}]")
        h = weights @ rs._pairing[j].astype(object)  # den * <mu, beta^vee>
        b = bracket(e[root], f[root])
        s = np.flatnonzero(h)[0]
        if (b * h[s] != b[s, s] * np.diag(h)).any() or b[s, s] * h[s] <= 0:
            faults.append(f"[e{root}, f{root}] is not c h{root} with c > 0")
    return faults


def string_probe_positive_roots(cartan) -> tuple[tuple[int, ...], ...]:
    """The positive roots of a Cartan matrix (rows of Python ints), in
    (height, tuple) order, one root and one direction at a time.

    For a root beta and each simple root alpha_i, p is found by probing
    beta - alpha_i, beta - 2 alpha_i, ... among the roots already known,
    and beta + alpha_i is a root when p - <beta, alpha_i^vee> >= 1.
    """
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    known = set(simple)
    level = simple
    while level:
        nxt = []
        for beta in level:
            for i, row in enumerate(cartan):
                pairing = sum(c * a for c, a in zip(beta, row))
                p = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    if min(probe) < 0 or tuple(probe) not in known:
                        break
                    p += 1
                if p - pairing >= 1:
                    cand = tuple(c + (t == i) for t, c in enumerate(beta))
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        level = nxt
    return tuple(sorted(known, key=lambda v: (sum(v), v)))


# The module certificate and the root-vector derivation, one d x d pair at
# a time in int64 or Python ints, with the helpers they used.


class _Dense(NamedTuple):
    """An integer matrix, or a stack of them along leading axes, whose
    entries are at most bound in absolute value."""

    val: np.ndarray
    bound: int


def _bracket(x: _Dense, y: _Dense) -> _Dense:
    """[x, y], broadcast over leading stack axes; formed in int64 while its
    bound 2 * d * x.bound * y.bound is below INT64_SAFE, in Python ints
    beyond it."""
    bound = 2 * x.val.shape[-1] * x.bound * y.bound
    dtype = object if bound >= INT64_SAFE else np.int64
    a, b = x.val.astype(dtype, copy=False), y.val.astype(dtype, copy=False)
    return _Dense(a @ b - b @ a, bound)


def _multiple(x: _Dense, y: _Dense) -> int | None:
    """x_p * y_p at the first nonzero p of y if x = c y, else None (also
    when y is zero).  It is a positive multiple of c, so it is positive
    iff c is."""
    dtype = object if x.bound * y.bound >= INT64_SAFE else np.int64
    a, b = x.val.astype(dtype, copy=False), y.val.astype(dtype, copy=False)
    nz = np.flatnonzero(b)
    if not nz.size:
        return None
    xp, yp = int(a.flat[nz[0]]), int(b.flat[nz[0]])
    # x yp = y xp, entrywise
    if (a * yp != b * xp).any():
        return None
    return xp * yp


def _dense(gens: IntStack, k: int, bound: int) -> _Dense:
    """Generator k of a stack whose entries are at most bound, densely."""
    sel, d = gens.k == k, gens.shape[1]
    val = np.zeros((d, d), gens.val.dtype)
    val[gens.row[sel], gens.col[sel]] = gens.val[sel]
    return _Dense(val, bound)


def _sparse(full: np.ndarray, den: int) -> IntStack:
    """The stack of the (n, d, d) numerators full over den."""
    k, row, col = np.nonzero(full)
    return IntStack(full.shape, k, row, col, full[k, row, col], den)


def _reduced(x: _Dense, den: int) -> tuple[_Dense, int]:
    """The matrix x / den in lowest terms: (numerators, denominator)
    divided by their gcd, in int64 below INT64_SAFE."""
    g = gcd(den, *x.val[x.val != 0].tolist())
    val = x.val // g
    bound = _max_abs(val)
    return _Dense(val.astype(object if bound >= INT64_SAFE else np.int64), bound), den // g


def per_root_vectors(simple: IntStack, rs) -> IntStack:
    """The module stack cartan | raising | lowering of a simple stack:
    over the positive roots in order, e_beta = [e_i, e_beta'] and f_beta =
    [f_beta', f_i] for the first i with beta' = beta - alpha_i a positive
    root, each in lowest terms, then all over one denominator."""
    r = rs.rank
    bound = _max_abs(simple.val)
    gens = [_reduced(_dense(simple, k, bound), simple.den) for k in range(3 * r)]
    units = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    e, f = dict(zip(units, gens[r : 2 * r])), dict(zip(units, gens[2 * r :]))
    bracket = lambda p, q: _reduced(_bracket(p[0], q[0]), p[1] * q[1])  # noqa: E731
    for root in rs.positive_roots:
        if root in e:
            continue
        i, beta = next(
            (i, b) for i in range(r)
            if root[i] and (b := tuple(c - (t == i) for t, c in enumerate(root))) in e
        )
        e[root] = bracket(e[units[i]], e[beta])
        f[root] = bracket(f[beta], f[units[i]])
    gens = gens[:r] + [e[root] for root in rs.positive_roots] + [f[root] for root in rs.positive_roots]
    den = lcm(*(g for _, g in gens))
    big = max(x.bound * (den // g) for x, g in gens) >= INT64_SAFE
    return _sparse(np.stack([x.val.astype(object if big else np.int64) * (den // g) for x, g in gens]), den)


def pairwise_certify(simple: IntStack, rs) -> None:
    """Certify that a simple stack h | e | f represents the algebra of rs.

    With every h_i diagonal, these are the Chevalley-Serre relations on the
    3r simple generators, which present the algebra (Serre's theorem):
    [h_j, e_i] = a_ji e_i and [h_j, f_i] = -a_ji f_i for the Cartan matrix
    a, checked entrywise; [e_i, f_j] = delta_ij c_i h_i with c_i > 0, so
    that f_i / c_i is the Chevalley partner of e_i and f_i the
    adjoint of e_i under an invariant positive form; ad(e_i)^(1 - a_ij) e_j
    = 0 and ad(f_i)^(1 - a_ij) f_j = 0 for i != j.  The root vectors that
    _root_vectors derives need no check: brackets of adjoints are adjoints.
    A module whose generators are all zero is the trivial module.  Products
    are formed one d x d pair at a time; no elimination is used.
    """
    r, A = rs.rank, rs.cartan_matrix
    n, d, d2 = simple.shape
    if n != 3 * r:
        raise RepresentationError("module has the wrong number of generators")
    if d2 != d or ((simple.row < 0) | (simple.row >= d) | (simple.col < 0) | (simple.col >= d)).any():
        raise RepresentationError("generator shape differs from the module dimension")
    if not simple.val.any():
        return
    eig = np.zeros((n, r), dtype=np.int64)
    eig[r : 2 * r] = np.array(A).T
    eig[2 * r :] = -eig[r : 2 * r]
    fault = _weight_fault(simple, _weights(simple, list(range(r))), eig, r, r)
    if fault:
        i, kind = fault
        raise RepresentationError(f"weight relation fails on {kind}_{i} of the simple root alpha_{i}")

    bound = _max_abs(simple.val)
    e = [_dense(simple, r + i, bound) for i in range(r)]
    f = [_dense(simple, 2 * r + i, bound) for i in range(r)]
    for i in range(r):
        for j in range(r):
            b = _bracket(e[i], f[j])
            if i == j:
                c = _multiple(b, _dense(simple, i, bound))
                if c is None or c <= 0:
                    raise RepresentationError(f"[e_{i}, f_{i}] is not c h_{i} with c > 0")
                continue
            if b.val.any():
                raise RepresentationError(f"[e_{i}, f_{j}] does not vanish")
            for gens in (e, f):
                x = gens[j]
                for _ in range(1 - A[i][j]):
                    x = _bracket(gens[i], x)
                if x.val.any():
                    raise RepresentationError(f"Serre relation fails for ({i}, {j})")


# f(x, q) and the paper's stated f(3) of each elimination family, as the
# functions the coefficient tables of repdata.POLY_FAMILIES must agree with
POLY_FAMILY_FUNCTIONS = {
    "3.2": {
        "f": lambda x, q: x * x * (q * q - 1) + x * (q - 1) - q * q - q + 2,
        "f3_claimed": lambda q: 9 * (q * q - 1) + 3 * (q - 1) - q * q - q + 2,
    },
    "3.3": {
        "f": lambda x, q: x * x * (2 * q * q - 1) + 2 * x * q - 4 * q * q - 4 * q,
        "f3_claimed": lambda q: 9 * (2 * q * q - 1) + 6 * q - 4 * q * q - 4 * q,
    },
    "4.2": {
        "f": lambda x, q: x * x * (q * q - 1) - x * (q + 1) - q * q - q + 2,
        "f3_claimed": lambda q: 9 * (q * q - 1) - 3 * (q + 1) - q * q - q + 4,
    },
    "4.5": {
        "f": lambda x, q: x * x * (q * q - 2) - 2 * q * q - 1,
        "f3_claimed": lambda q: q * q - 19,
    },
}


def kinds_fit(group, pat, used: list[int]) -> bool:
    """The kind check that repdata._factor_maps made of every row of the
    summand count before lookup_mf indexed the rows: the pattern's factor
    kinds are those of the used factors and su for the rest."""
    kinds = sorted(kind for kind, _ in pat.factors)
    return kinds == sorted([group.factors[f].kind for f in used] + ["su"] * (len(kinds) - len(used)))


def permutation_factor_maps(group, pat, faced: list, used: list[int]):
    """The environments of repdata._factor_maps, over every injective image
    of the used factors, in lexicographic order."""
    for image in itertools.permutations(range(len(pat.factors)), len(used)):
        fmap = dict(zip(image, used))
        facs = [group.factors[fmap[pf]] if pf in fmap else _SU1 for pf in range(len(pat.factors))]
        if any(kind != fac.kind for (kind, _), fac in zip(pat.factors, facs)):
            continue
        if not all(
            sorted((k, fmap[f - 1]) for k, f in p_terms if f - 1 in fmap) == sorted(sl)
            and all(k in ("std", "sym2", "triv") for k, f in p_terms if f - 1 not in fmap)
            for (p_terms, _, _), sl in zip(pat.summands, faced)
        ):
            continue
        env: dict[str, int] | None = {}
        for (_, expr), fac in zip(pat.factors, facs):
            env = solve_rank(expr, fac.n, env)
            if env is None:
                break
        else:
            yield env


def solve_rank(expr_text: str, value: int, env: dict[str, int]) -> dict[str, int] | None:
    """Extend env so expr evaluates to value; None if impossible: every
    candidate tried with eval on every call."""
    names = [n for n in expr_names(expr_text) if n not in env]
    if not names:
        try:
            return dict(env) if eval_int_expr(expr_text, env) == value else None
        except ValueError:
            return None
    if len(names) > 1:
        return None
    name = names[0]
    for cand in range(0, value + 3):
        trial = dict(env)
        trial[name] = cand
        try:
            if eval_int_expr(expr_text, trial) == value:
                return trial
        except ValueError:
            pass
    return None


def mask_borel_stack(m: MatrixRep) -> IntStack:
    """The Borel generators cartan | raising | torus of m.gens, selected by
    a mask over every nonzero."""
    g, nc, npos = m.gens, len(m.cartan_labels), len(m.root_labels)
    keep = (g.k < nc + npos) | (g.k >= nc + 2 * npos)
    k = g.k[keep] - npos * (g.k[keep] >= nc + npos)
    shape = (g.shape[0] - npos, *g.shape[1:])
    return IntStack(shape, k, g.row[keep], g.col[keep], g.val[keep], g.den)


def match_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens (kind, text, line, col) of a spec, one regex match at a
    time from the end of the previous one."""
    toks = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if not m or m.end() == pos:
                break
            col = m.start(m.lastgroup) + 1
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, col)
            toks.append((m.lastgroup, m.group(m.lastgroup), lineno, col))
            pos = m.end()
    return toks


def recursive_dominant_weights(rs, dim_bound: int):
    """All nonzero dominant weights of dimension at most dim_bound, sorted
    by (dimension, coefficients), from a recursion that raises one
    coordinate at a time, calls weyl_dim on each weight and prunes above
    the bound."""
    r = rs.rank
    found = []

    def visit(coeffs: list[int], min_index: int):
        for i in range(min_index, r):
            if coeffs[i] + 1 > dim_bound:
                continue
            coeffs[i] += 1
            w = DominantWeight(tuple(coeffs))
            d = weyl_dim(rs, w)
            if d <= dim_bound:
                found.append((w, d))
                visit(coeffs, i)
            coeffs[i] -= 1

    visit([0] * r, 0)
    found.sort(key=lambda t: (t[1], t[0].coeffs))
    return found
