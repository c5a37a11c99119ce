"""Independent references that the tests check the program against.

The program has one exact elimination, the verified modular kernel
``linalg.int_kernel``.  These references stay in the tests only: the
reduced row echelon form over Fraction, the kernel read off it and the
fraction-free (Bareiss) rank of an integer matrix; the solver of the
invariant bilinear form of a realized module and the standalone spin
representation it is tried on; the check of the root vectors that
``matrep._root_vectors`` derives from a certified simple stack; and the
elimination polynomials of ``repdata.POLY_FAMILIES`` written as functions.
"""

from fractions import Fraction

import numpy as np

from coisotropy.linalg import int_kernel, int_rank
from coisotropy.matrep import (
    Factor,
    GroupSpec,
    MatrixRep,
    RepresentationError,
    RepSpec,
    Summand,
    Term,
    _weights,
    realize,
)


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
