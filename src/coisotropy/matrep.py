"""Explicit integer matrix realizations of the modules.

Every per-factor module is built directly as one integer stack
(linalg.IntStack: numerators over one denominator) of its simple generators
h_i, e_i, f_i, certified once with [e_i, f_j] for every j at once, and
completed by one derivation of the other root vectors, e_beta = [e_i,
e_beta'] and f_beta = [f_beta', f_i], for the roots of one height at once.
Every irreducible module (std, spin and weight terms) is the highest-weight
module of the exact contravariant-form construction, whose basis is graded
by depth so that Cartan generators are diagonal and raising generators are
strictly upper triangular; symmetric and exterior squares are induced from
the standard stack by index arithmetic.  Tensor products, duals, direct
sums and torus charge lines are assembled from the stacks by index
arithmetic too, and so are the real slice models (RealRep) of so(7) on R^7
and on the octonions, each put in canonical form, read-only, by _coalesce.
The semisimple part of an assembled module depends on its factors and
charge-free summands only, so it is built and validated once for them, as
a frozen MatrixRep, which realize returns for a group with no torus line
and otherwise extends by the torus lines of the charges.

The Chevalley generators h, e, f and the torus charges are rational
matrices, so a module C^d of the complexified algebra is held by real
integer matrices.  For every module the lowering generator of a positive
root is the adjoint of the raising generator with respect to an invariant
positive form, so the real span of {i*h, e - f, i*(e + f)}, together with
i times the torus charge matrices, is exactly the compact real form
acting on the module.  MatrixRep.compact_stack holds it realified, as
real matrices on R^(2d), which is the contract of RealRep.compact_stack
too: the orbit oracles read that stack, group_rank and trivial_gap of either.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .linalg import (
    INT64_SAFE,
    IntStack,
    _bracket,
    _int_stack,
    _kernel_of,
    _max_abs,
)
from .rootsys import (
    DominantWeight,
    RootSystem,
    SimpleType,
    _weyl_dims,
    build_root_system,
    weyl_dim,
)


class NotRealizable(ValueError):
    """Raised for module terms with no matrix model; use encoded slice data."""


class RepresentationError(ValueError):
    pass


WEIGHT_MODULE_DIM_CAP = 256

FACTOR_KINDS = ("su", "so", "sp", "g2", "f4", "e6", "e7", "e8")


# ---------------------------------------------------------------------------
# group and module specifications


@dataclass(frozen=True)
class Factor:
    """One factor of a reductive group: su/so/sp family or exceptional."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise RepresentationError(f"unknown factor kind {self.kind!r}")
        if self.kind in ("su", "so", "sp") and self.n < 1:
            raise RepresentationError(f"{self.kind}(n) needs n >= 1")
        if self.kind in ("g2", "f4", "e6", "e7", "e8"):
            expected = int(self.kind[1])
            if self.n != expected:
                raise RepresentationError(f"{self.kind}({self.n}) is not valid")

    @property
    def dim(self) -> int:
        k, n = self.kind, self.n
        if k == "su":
            return n * n - 1
        if k == "so":
            return n * (n - 1) // 2
        if k == "sp":
            return n * (2 * n + 1)
        return {"g2": 14, "f4": 52, "e6": 78, "e7": 133, "e8": 248}[k]

    @property
    def rank(self) -> int:
        k, n = self.kind, self.n
        if k == "su":
            return n - 1
        if k == "so":
            return n // 2
        if k == "sp":
            return n
        return self.n

    @functools.cached_property
    def simple_type(self) -> SimpleType | None:
        """Simple type of the factor, or None when the factor is trivial;
        computed once per factor (cached in the instance dict, outside the
        fields that equality and hashing read)."""
        k, n = self.kind, self.n
        if k == "su":
            return SimpleType("A", n - 1) if n >= 2 else None
        if k == "so":
            if n in (1, 2):
                return None
            if n == 4:
                raise RepresentationError("so(4) is not simple; use su(2)+su(2)")
            return SimpleType("B", (n - 1) // 2) if n % 2 else SimpleType("D", n // 2)
        if k == "sp":
            return SimpleType("C", n)
        fam = {"g2": "G", "f4": "F", "e6": "E", "e7": "E", "e8": "E"}[k]
        return SimpleType(fam, self.n)

    @property
    def std_dim(self) -> int:
        """Dimension of the module the DSL term std() denotes."""
        k, n = self.kind, self.n
        if k == "su":
            return n
        if k == "so":
            return n
        if k == "sp":
            return 2 * n
        return {"g2": 7, "f4": 26, "e6": 27, "e7": 56, "e8": 248}[k]

    def __str__(self):
        return f"{self.kind}({self.n})"


def one_dimensional(fac: Factor, kind: str) -> bool:
    """Whether a term of this kind of fac is a one-dimensional slot: a std
    or sym2 term of a factor whose std module is C^1."""
    return kind in ("std", "sym2") and fac.std_dim == 1


@functools.lru_cache(maxsize=None)
def self_dual(fac: Factor, kind: str) -> bool:
    """Whether a std, sym2, alt2 or spin term of one factor is isomorphic to
    its dual: the weights of its cached matrix model, read off the Cartan
    diagonal, are symmetric under negation.  A term with no matrix model
    counts as not self-dual."""
    try:
        if fac.simple_type is None:
            return False
        mod = _factor_module(fac, kind, None)
    except (NotRealizable, RepresentationError):
        return False
    w = _weights(mod, list(range(fac.rank)))
    return sorted(w.tolist()) == sorted((-w).tolist())


@dataclass(frozen=True)
class GroupSpec:
    """Simple factors plus torus lines in an ambient product of circles.

    Each torus line is a primitive integer direction vector over the
    ambient circle coordinates.
    """

    factors: tuple[Factor, ...] = ()
    torus_lines: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if len({len(line) for line in self.torus_lines}) > 1:
            raise RepresentationError("torus lines must share the circle arity")
        for line in self.torus_lines:
            if not any(line):
                raise RepresentationError("torus line must be nonzero")
            g = 0
            for c in line:
                g = gcd(g, c)
            if g != 1:
                raise RepresentationError(f"torus line {line} is not primitive")

    @property
    def n_circles(self) -> int:
        return len(self.torus_lines[0]) if self.torus_lines else 0

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors) + len(self.torus_lines)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors) + len(self.torus_lines)

    @property
    def borel_dim(self) -> int:
        """(dim + rank)/2: dim + rank is even for every factor (so(2) too)."""
        return (self.dim + self.rank) // 2

    def __str__(self):
        parts = [str(f) for f in self.factors]
        parts += [
            "u1[" + ",".join(str(c) for c in line) + "]" for line in self.torus_lines
        ]
        return " + ".join(parts) if parts else "(trivial group)"


@dataclass(frozen=True)
class Term:
    """One tensor slot of a summand: a module of a single factor."""

    kind: str  # std | sym2 | alt2 | spin | weight | triv
    factor: int = 0  # 1-based factor index; 0 for triv
    weight: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("std", "sym2", "alt2", "spin", "weight", "triv"):
            raise RepresentationError(f"unknown term kind {self.kind!r}")
        if self.kind == "triv" and self.factor:
            raise RepresentationError("triv takes no factor index")
        if self.kind != "triv" and self.factor < 1:
            raise RepresentationError("term needs a 1-based factor index")
        if self.kind == "weight" and self.weight is None:
            raise RepresentationError("weight term needs coefficients")


@dataclass(frozen=True)
class Summand:
    terms: tuple[Term, ...]
    dual: bool = False
    charges: tuple[int, ...] = ()


@dataclass(frozen=True)
class RepSpec:
    summands: tuple[Summand, ...]

    def __post_init__(self):
        if not self.summands:
            raise RepresentationError("module needs at least one summand")


# ---------------------------------------------------------------------------
# per-factor modules, built as integer stacks
#
# _weight_module emits the simple stack h | e | f of an irreducible module
# of a simple factor: the 3r generators h_i, e_i, f_i of its simple roots,
# over one denominator; _square induces the symmetric and exterior squares
# of the standard module from it.  _root_vectors completes a simple stack to
# the module stack cartan | raising | lowering: the simple roots, then the
# positive roots in positive_roots order.


def _highest_weight(fac: Factor, kind: str, weight=None) -> tuple[int, ...]:
    """Highest weight, on the fundamental weights, of a std, spin or weight
    term of a simple factor (weight: the highest weight of a weight term).

    std is the first fundamental module of a classical algebra (twice the
    weight for so(3) = B1) and the smallest fundamental module of an
    exceptional one; spin of so(n), 3 <= n <= 12, is the (half-)spin module
    omega_r.  The other half-spin module of so(2r) is the weight term
    omega_(r-1): the outer automorphism of so(2r) exchanges the two and
    fixes std, sym2, alt2 and triv, so the choice changes no verdict.
    """
    st = fac.simple_type
    if kind == "weight":
        return weight
    if kind == "spin":
        if fac.kind != "so":
            raise NotRealizable("spin terms need an so(n) factor")
        if not 3 <= fac.n <= 12:
            raise NotRealizable("spin modules are provided for 3 <= n <= 12")
        r = st.rank
        node = r - 1
    elif kind == "std":
        r = st.rank
        if st.family in "ABCD":
            return (2 if st == SimpleType("B", 1) else 1,) + (0,) * (r - 1)
        fundamental = [DominantWeight.fundamental(r, i).coeffs for i in range(r)]
        dims = _weyl_dims(build_root_system(st), fundamental)
        node = dims.index(min(dims))
    else:
        raise RepresentationError(f"unhandled term kind {kind!r}")
    return DominantWeight.fundamental(r, node).coeffs


@functools.lru_cache(maxsize=None)
def _weight_module(stype: SimpleType, coeffs: tuple[int, ...]) -> IntStack:
    """Simple stack of the irreducible module with highest weight coeffs.

    States are lowering words applied to a highest vector; dependencies are
    resolved through the contravariant form, whose Gram matrices stay exact
    rationals.  The basis is graded by depth, so Cartan matrices come out
    diagonal and raising matrices strictly upper triangular.  Weights are
    integer tuples on the fundamental weights: the highest weight and the
    Cartan matrix are integral.  The build stops with RepresentationError
    as soon as it has more states than the Weyl dimension.  The stack is
    diag(weights) | e_i | f_i over one denominator, built once per input
    (sym2 and alt2 square the std module) and read-only.
    """
    rs = build_root_system(stype)
    lam = DominantWeight(coeffs)
    target = weyl_dim(rs, lam)
    if target > WEIGHT_MODULE_DIM_CAP:
        raise NotRealizable(
            f"weight module dimension {target} exceeds cap {WEIGHT_MODULE_DIM_CAP}"
        )
    r = rs.rank
    A = rs.cartan_matrix
    alpha_fund = [tuple(A[j][i] for j in range(r)) for i in range(r)]

    wts: list[tuple[int, ...]] = [tuple(coeffs)]
    # e_act[s][i]: expansion of e_i * v_s over earlier states, or None
    e_act: list[list[list[tuple[int, Fraction]] | None]] = [[None] * r]
    f_act: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    gram: dict[tuple[int, int], Fraction] = {(0, 0): 1}
    level_states = [0]

    def pairing(s: int, t: int) -> Fraction:
        if s <= t:
            return gram.get((s, t), 0)
        return gram.get((t, s), 0)

    while level_states:
        by_weight: dict[tuple, list[tuple[int, int]]] = {}
        for s in level_states:
            for i in range(r):
                mu = tuple(w - a for w, a in zip(wts[s], alpha_fund[i]))
                by_weight.setdefault(mu, []).append((i, s))
        next_states: list[int] = []
        for mu in sorted(by_weight):
            cands = by_weight[mu]
            nc = len(cands)
            g = [[0] * nc for _ in range(nc)]
            for a in range(nc):
                i, s = cands[a]
                for b in range(a, nc):
                    j, t = cands[b]
                    # <f_i v_s, f_j v_t> = <v_s, f_j e_i v_t> + d_ij wt_i(t) <v_s, v_t>
                    val = 0
                    x = e_act[t][i]
                    if x is not None:
                        y = e_act[s][j]
                        if y is not None:
                            for (u, cu) in x:
                                for (v, cv) in y:
                                    val += cu * cv * pairing(v, u)
                    if i == j:
                        val += wts[t][i] * pairing(s, t)
                    g[a][b] = val
                    g[b][a] = val
            if not any(x for row in g for x in row):
                for i, s in cands:
                    f_act[(i, s)] = []
                continue
            free = {}  # the one candidate of a nonzero 1 x 1 block is chosen
            if nc > 1:
                # _kernel_of gives int_kernel's reduced-echelon kernel of g,
                # memoized: a few Gram blocks recur across modules; column j
                # ends at its free candidate c, and -K[chosen, j] / K[c, j]
                # expands c over the chosen (pivot) states, as
                # sub^-1 g[chosen, c] would; a symmetric g is nonsingular on
                # any set of columns that spans its column space
                den = lcm(*(x.denominator for row in g for x in row))
                kernel = _kernel_of((nc, nc), tuple(x.numerator * (den // x.denominator) for row in g for x in row))
                free = {int(np.flatnonzero(kernel[:, j])[-1]): j for j in range(kernel.shape[1])}
            chosen = [c for c in range(nc) if c not in free]
            base = len(wts)
            globals_new = []
            for local, ci in enumerate(chosen):
                gi = base + local
                globals_new.append(gi)
                wts.append(mu)
                e_act.append([None] * r)
            if len(wts) > target:
                raise RepresentationError(
                    f"weight module for {stype} {coeffs} exceeds dimension {target}"
                )
            # Gram of the new states
            for a_loc, ca in enumerate(chosen):
                for b_loc, cb in enumerate(chosen):
                    if a_loc <= b_loc:
                        gram[(globals_new[a_loc], globals_new[b_loc])] = g[ca][cb]
            # expansion of every candidate over the chosen states
            for c_idx, (i, s) in enumerate(cands):
                if c_idx not in free:
                    f_act[(i, s)] = [(globals_new[chosen.index(c_idx)], 1)]
                    continue
                j = free[c_idx]
                f_act[(i, s)] = [
                    (globals_new[loc], Fraction(-int(kernel[ci, j]), int(kernel[c_idx, j])))
                    for loc, ci in enumerate(chosen)
                    if kernel[ci, j]
                ]
            # e_j action on the new basis states
            for local, ci in enumerate(chosen):
                i, s = cands[ci]
                gi = globals_new[local]
                for j in range(r):
                    acc: dict[int, Fraction] = {}
                    x = e_act[s][j]
                    if x is not None:
                        for (u, cu) in x:
                            for (w, cw) in f_act.get((i, u), []):
                                acc[w] = acc.get(w, 0) + cu * cw
                    if i == j:
                        hval = wts[s][j]
                        if hval:
                            acc[s] = acc.get(s, 0) + hval
                    ex = [(w, c) for w, c in sorted(acc.items()) if c]
                    e_act[gi][j] = ex if ex else None
            next_states.extend(globals_new)
        level_states = next_states

    n = len(wts)
    if n != target:
        raise RepresentationError(
            f"weight module for {stype} {coeffs} built dimension {n}, "
            f"expected {target}"
        )
    ent = [(i, s, s, mu[i]) for s, mu in enumerate(wts) for i in range(r)]
    ent += [(r + i, u, s, c) for s in range(n) for i in range(r) for u, c in e_act[s][i] or ()]
    ent += [(2 * r + i, u, s, c) for (i, s), x in f_act.items() for u, c in x]
    den = lcm(*(c.denominator for *_, c in ent))
    k, row, col = np.array([x[:3] for x in ent], dtype=np.int64).T
    val = np.array([c.numerator * (den // c.denominator) for *_, c in ent])
    return _coalesce((3 * r, n, n), k, row, col, val, den)


def _root_vectors(simple: IntStack, rs: RootSystem) -> IntStack:
    """The module stack cartan | raising | lowering of a simple stack:
    over the positive roots in order, e_beta = [e_i, e_beta'] and f_beta =
    [f_beta', f_i] for the first i with beta' = beta - alpha_i a positive
    root, each in lowest terms, then all over one denominator.  Each height
    takes one bracket of stacks: simple generators with the height below."""
    r, roots = rs.rank, rs.positive_roots
    npos, rows, index = len(roots), np.array(roots), {root: p for p, root in enumerate(roots)}
    val, den = _lowest(simple.dense(), simple.den)
    # height 1: the simple roots, alpha_(r-1) first; e and f of a height are one stack
    level, p = np.arange(r), [r + root.index(1) for root in roots[:r]]
    ef, dd = val[p + [t + r for t in p]], den[p + [t + r for t in p]]
    # (generator indices, numerators, denominators) of the cartan part and of each height
    parts = [(level, val[:r], den[:r]), (np.concatenate([level, level + npos]) + r, ef, dd)]
    for _, nxt in itertools.groupby(range(r, npos), key=lambda p: sum(roots[p])):
        below, level = level, np.array(list(nxt))
        # beta' = beta - alpha_i, a root below, for the first i that gives one: at q
        lowered = (rows[level, None] - np.eye(r, dtype=np.int64)).tolist()
        i, q = np.array([
            next((r + t, index[b] - below[0]) for t, b in enumerate(map(tuple, low)) if b in index)
            for low in lowered
        ]).T
        x, y = np.concatenate([val[i], ef[q + len(below)]]), np.concatenate([ef[q], val[i + r]])
        ef, dd = _lowest(_bracket(x, y), np.concatenate([den[i] * dd[q], dd[q + len(below)] * den[i + r]]))
        parts.append((np.concatenate([level, level + npos]) + r, ef, dd))
    nonzeros = []  # (generator, row, col, numerator, denominator of its matrix)
    for ks, v, d in parts:
        m, row, col = np.nonzero(v)
        nonzeros.append((ks[m], row, col, v[m, row, col], d[m]))
    k, row, col, num, dens = (np.concatenate(x) for x in zip(*nonzeros))
    common = lcm(*set(dens.tolist()))
    if common > 1:
        num = num * (common // dens)
    return _coalesce((r + 2 * npos, *simple.shape[1:]), k, row, col, num, common)


def _lowest(val: np.ndarray, den) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of the stack val over den (one integer, or one per matrix)
    in lowest terms: (numerators, Python-int denominators); 0 is 0 / 1."""
    g = np.gcd(np.gcd.reduce(val.reshape(len(val), -1), axis=1).astype(object), den)
    return val // g.astype(val.dtype)[:, None, None], den // g


def _coalesce(shape, k, row, col, val, den) -> IntStack:
    """The canonical, read-only stack of the entries val / den: those at one
    position summed (in val's dtype, so Python ints where int64 could
    overflow), zeros dropped, in (k, row, col) order, and stored in int64
    while every sum is below INT64_SAFE, in Python ints beyond."""
    d = max(shape[1], 1)
    key = (k * d + row) * d + col
    o = np.argsort(key)
    key, val = key[o], val[o]
    # the first entry at each position: keys are >= 0, so key[:1] >= 0 marks the first of all
    first = np.flatnonzero(np.concatenate([key[:1] >= 0, key[1:] != key[:-1]]))
    key, total = key[first], np.add.reduceat(val, first)
    keep = total != 0
    key, total = key[keep], total[keep]
    total = total.astype(object if _max_abs(total) >= INT64_SAFE else np.int64, copy=False)
    return _int_stack(shape, key // (d * d), key // d % d, key % d, total, den)


# ---------------------------------------------------------------------------
# symmetric and exterior squares


def _square(mod: IntStack, alt: bool) -> IntStack:
    """The induced action on the symmetric (alt False) or exterior square.

    x e_b = sum_a x_ab e_a acts on each factor of e_b e_c, which doubles
    the term c = b of a monomial; on e_b ^ e_c (c != a, b) it gives
    x_ab e_a ^ e_c, and storing both wedges with the smaller index first
    fixes the sign.  Pairs {i, j} (i <= j, or i < j) are indexed in
    lexicographic order.
    """
    n, d, _ = mod.shape
    if alt and d < 2:
        raise NotRealizable("alt2 needs a module of dimension >= 2")
    i, j = np.triu_indices(d, 1 if alt else 0)
    idx = np.full((d, d), -1)
    idx[i, j] = idx[j, i] = np.arange(i.size)
    a, b, c = mod.row[:, None], mod.col[:, None], np.arange(d)[None, :]
    if alt:
        mult = np.where((a < c) == (b < c), 1, -1) * ((c != a) & (c != b))
    else:
        mult = 1 + (c == b)
    t, other = np.nonzero(mult)
    mult = mult[t, other]
    return _coalesce(
        (n, i.size, i.size),
        mod.k[t],
        idx[mod.row[t], other],
        idx[mod.col[t], other],
        mod.val[t] * mult,
        mod.den,
    )


# ---------------------------------------------------------------------------
# the per-factor modules, each certified once


@functools.lru_cache(maxsize=None)
def _factor_module(fac: Factor, kind: str, weight=None) -> IntStack:
    """Module of a simple factor for a std, sym2, alt2, spin or weight term,
    as one integer stack ordered cartan | raising | lowering (simple roots,
    then positive roots in positive_roots order) over one denominator.

    weight is the highest weight of a weight term and None otherwise;
    callers pass it positionally, so that each module has one cache key.
    The simple stack h | e | f of the irreducible module (_weight_module at
    _highest_weight) or of the square of the standard module is certified
    (_certify) and then completed by _root_vectors.
    """
    st = fac.simple_type
    if kind in ("sym2", "alt2"):
        simple = _square(_weight_module(st, _highest_weight(fac, "std")), alt=kind == "alt2")
    else:
        simple = _weight_module(st, _highest_weight(fac, kind, weight))
    rs = build_root_system(st)
    _certify(simple, rs)
    return _root_vectors(simple, rs)


def _weights(gens: IntStack, diag: list[int]) -> np.ndarray:
    """The d x len(diag) numerators W[a, t] = (generator diag[t])[a, a];
    raises unless each of those generators is diagonal."""
    n, d, _ = gens.shape
    column = np.full(n, -1)
    column[diag] = np.arange(len(diag))
    sel = column[gens.k] >= 0
    if (gens.row[sel] != gens.col[sel]).any():
        raise RepresentationError("Cartan or torus generator is not diagonal")
    w = np.zeros((d, len(diag)), gens.val.dtype)
    w[gens.row[sel], column[gens.k[sel]]] = gens.val[sel]
    return w


def _weight_fault(gens: IntStack, w: np.ndarray, eig: np.ndarray, first: int, npos: int):
    """(j, 'e' or 'f') of the first root generator, in root order, with a
    nonzero (a, b) where W[a] - W[b] != eig[k] * den, that is where
    [h, x] = eig x fails for a diagonal h; None if there is none.  Root j
    has generators first + j (raising) and first + npos + j (lowering).
    """
    big = max(2 * _max_abs(w), gens.den * _max_abs(eig)) >= INT64_SAFE
    dtype = object if big else np.int64
    w = w.astype(dtype, copy=False)
    wrong = (w[gens.row] - w[gens.col] != eig[gens.k].astype(dtype) * gens.den).any(axis=1)
    bad = set(gens.k[wrong].tolist())
    if not bad:
        return None
    k = min(bad, key=lambda k: ((k - first) % npos, k >= first + npos))
    return (k - first) % npos, "e" if k < first + npos else "f"


def _certify(simple: IntStack, rs: RootSystem) -> None:
    """Certify that a simple stack h | e | f represents the algebra of rs.

    With every h_i diagonal, these are the Chevalley-Serre relations on the
    3r simple generators, which present the algebra (Serre's theorem):
    [h_j, e_i] = a_ji e_i and [h_j, f_i] = -a_ji f_i for the Cartan matrix
    a, checked entrywise; [e_i, f_j] = delta_ij c_i h_i with c_i > 0, so
    that f_i / c_i is the Chevalley partner of e_i and f_i the
    adjoint of e_i under an invariant positive form; ad(e_i)^(1 - a_ij) e_j
    = 0 and ad(f_i)^(1 - a_ij) f_j = 0 for i != j.  The root vectors that
    _root_vectors derives need no check: brackets of adjoints are adjoints.
    A module whose generators are all zero is the trivial module.  For each
    i, one broadcast bracket forms [e_i, f_j] for every j, and the Serre
    brackets are one stack over j, from which a j leaves after its 1 - a_ij
    powers (at most 4, for G2); no elimination is used.  The relations are
    read in the order i, j, so the first that fails is named.
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
    fault = _weight_fault(simple, w := _weights(simple, list(range(r))), eig, r, r)
    if fault:
        i, kind = fault
        raise RepresentationError(f"weight relation fails on {kind}_{i} of the simple root alpha_{i}")

    z = simple.dense()
    vanish, serre, cartan = np.zeros((r, r), dtype=bool), np.zeros((r, r), dtype=bool), []
    for i in range(r):
        ef = _bracket(z[r + i], z[2 * r :])
        vanish[i], cartan = ef.any(axis=(1, 2)), cartan + [ef[i].copy()]  # not a view of ef
        # ad(e_i)^(1 - a_ij) e_j and ad(f_i)^(1 - a_ij) f_j for every j != i,
        # by rising power: those j that are done at a power lead the stack
        js, lo = sorted((j for j in range(r) if j != i), key=lambda j: -A[i][j]), 0
        ad, x = z[[[r + i], [2 * r + i]]], z[[[r + j for j in js], [2 * r + j for j in js]]]
        for power in range(1, 2 - min(A[i])):
            x, hi = _bracket(ad, x), sum(1 - A[i][j] <= power for j in js)
            serre[i, js[lo:hi]] = x[:, : hi - lo].any(axis=(0, 2, 3))
            x, lo = x[:, hi - lo :], hi
    # [e_i, f_i] = c h_i with c > 0: diagonal, with c W[:, i] on its diagonal
    cartan = np.array(cartan)
    b, h = np.diagonal(cartan, axis1=1, axis2=2).astype(object), w.T.astype(object)
    p = (h != 0).argmax(axis=1)
    bp, hp = b[range(r), p], h[range(r), p]
    positive = (b * hp[:, None] == h * bp[:, None]).all(axis=1) & (bp * hp > 0)
    positive &= np.count_nonzero(cartan, axis=(1, 2)) == np.count_nonzero(b, axis=1)
    for i, j in np.ndindex(r, r):
        if i == j and not positive[i]:
            raise RepresentationError(f"[e_{i}, f_{i}] is not c h_{i} with c > 0")
        if i != j and vanish[i, j]:
            raise RepresentationError(f"[e_{i}, f_{j}] does not vanish")
        if serre[i, j]:
            raise RepresentationError(f"Serre relation fails for ({i}, {j})")


# ---------------------------------------------------------------------------
# the assembled representation


@dataclass(frozen=True)
class MatrixRep:
    """A concrete complexified action of a GroupSpec on a module C^d.

    gens is the one store of its generators: an integer stack over one
    denominator, ordered cartan | raising | lowering | torus, of which
    space_dim reads d.  cartan_labels and root_labels say which factor and
    which simple or positive root each Cartan generator and each
    raising/lowering pair belongs to; the torus generators follow the
    group's torus lines.  borel_stack and compact_stack are the views the
    oracles sample: borel_stack acts on C^d, compact_stack is the real
    compact form acting on R^(2d), with Re v_a and Im v_a at coordinates
    2a and 2a + 1.  A model is frozen, its views are computed once, and
    realize shares the model of a group with no torus line.
    """

    group: GroupSpec
    rep: RepSpec
    gens: IntStack
    cartan_labels: tuple[tuple[int, int], ...]  # (factor index, simple root index)
    root_labels: tuple[tuple[int, tuple[int, ...]], ...]  # (factor index, root coords)

    @property
    def space_dim(self) -> int:
        return self.gens.shape[1]

    @functools.cached_property
    def summand_dims(self) -> tuple[int, ...]:
        """The dimension of each summand, in the order of rep."""
        return tuple(prod(_term_module(self.group, t)[2] for t in sm.terms) for sm in self.rep.summands)

    @functools.cached_property
    def borel_stack(self) -> IntStack:
        """The Borel generators cartan | raising | torus of gens: in (k, row,
        col) order they are the nonzeros below the first lowering generator
        and those from the first torus generator on.  realize gives a
        charged model this stack ready-made, from the cached borel_stack of
        its semisimple model; a model with no torus line slices it here."""
        g, nc, npos = self.gens, len(self.cartan_labels), len(self.root_labels)
        lo, hi = g.k.searchsorted([nc + npos, nc + 2 * npos]).tolist()
        cut = lambda x: np.concatenate([x[:lo], x[hi:]])  # noqa: E731
        shape = (g.shape[0] - npos, *g.shape[1:])
        return _int_stack(shape, np.concatenate([g.k[:lo], g.k[hi:] - npos]), cut(g.row), cut(g.col), cut(g.val), g.den)

    @functools.cached_property
    def compact_stack(self) -> IntStack:
        """The compact real form acting on R^(2d), as one real stack: i*h,
        then e - f and i*(e + f) for each positive root, then i*t.  The
        coordinates (Re v_a, Im v_a) sit at (2a, 2a + 1), so a real entry x
        becomes the block [[x, 0], [0, x]], and i*x the block [[0, -x], [x, 0]]."""
        g, nc, npos = self.gens, len(self.cartan_labels), len(self.root_labels)
        lowering = (g.k >= nc + npos) & (g.k < nc + 2 * npos)
        root = (g.k >= nc) & (g.k < nc + 2 * npos)
        j = g.k - nc - npos * lowering
        # i * x at k for h and t, at nc + 2j + 1 for e and f; e - f at nc + 2j
        ki, ke = np.where(root, nc + 2 * j + 1, g.k), (nc + 2 * j)[root]
        r, c, x = 2 * g.row, 2 * g.col, g.val
        er, ec, ex = r[root], c[root], (np.where(lowering, -1, 1) * x)[root]
        n, d, _ = g.shape
        return _coalesce(
            (n, 2 * d, 2 * d),
            np.r_[ki, ki, ke, ke],
            np.r_[r, r + 1, er, er + 1],
            np.r_[c + 1, c, ec, ec + 1],
            np.r_[-x, x, ex, ex],
            g.den,
        )

    @property
    def group_rank(self) -> int:
        return self.group.rank

    @functools.cached_property
    def trivial_gap(self) -> int:
        """Rank minus dimension in compact_stack of the factors that act
        trivially: their kernel lies in every isotropy algebra, where a
        centralizer counts it by dimension (so(2), with no generator, by 0).
        compact_stack's order gives each generator's factor: i*h, then e - f
        and i*(e + f) per root."""
        owner = [f for f, _ in self.cartan_labels] + [f for f, _ in self.root_labels for _ in (0, 1)]
        acting = {owner[k] for k in set(self.compact_stack.k.tolist()) if k < len(owner)}
        return sum(
            fac.rank - (fac.dim if fac.simple_type is not None else 0)
            for f, fac in enumerate(self.group.factors)
            if f not in acting
        )


def _term_module(group: GroupSpec, term: Term) -> tuple[int, IntStack | None, int]:
    """(factor index, module, dimension) of one term; (-1, None, 1) for a
    triv or one_dimensional slot."""
    if term.kind == "triv":
        return -1, None, 1
    fidx = term.factor - 1
    if fidx >= len(group.factors):
        raise RepresentationError(f"factor index {term.factor} out of range")
    fac = group.factors[fidx]
    if one_dimensional(fac, term.kind):
        return -1, None, 1
    if fac.simple_type is None:
        raise NotRealizable(
            f"term {term.kind} of {fac}: the factor has no semisimple part; "
            f"encode its circle action as a torus line"
        )
    mod = _factor_module(fac, term.kind, term.weight if term.kind == "weight" else None)
    return fidx, mod, mod.shape[1]


@functools.lru_cache(maxsize=None)
def _semisimple(factors: tuple[Factor, ...], summands: tuple[Summand, ...]) -> MatrixRep:
    """The validated model of the factors on summands that carry no
    charges, shared by every realize call with those factors and summands.

    Assembly is index arithmetic on the certified module stacks: a slot's
    entries are spread over the identity factors before and after it, a
    dual summand maps x to -x^T in the reversed basis and summands sit at
    their offsets.  Entries at one position, from a factor filling two
    slots, are summed.  No entry may link two summands: realize's torus
    lines, constant on each summand, commute with the module only then.
    """
    group = GroupSpec(factors)
    layout = []
    off = 0
    for sm in summands:
        slots = [_term_module(group, t) for t in sm.terms]
        d = prod(n for _, _, n in slots)
        layout.append((off, d, sm, slots))
        off += d
    total = off

    cartan_labels, root_labels, first = [], [], {}
    for fidx, fac in enumerate(factors):
        if fac.simple_type is not None:
            rs = build_root_system(fac.simple_type)
            first[fidx] = (len(cartan_labels), len(root_labels), rs.rank, rs.n_positive_roots)
            cartan_labels += [(fidx, i) for i in range(rs.rank)]
            root_labels += [(fidx, root) for root in rs.positive_roots]
    nc, npos = len(cartan_labels), len(root_labels)
    # generator index in a factor's module -> index in the assembled stack
    kmaps = {
        f: np.r_[c : c + r, nc + p : nc + p + n, nc + npos + p : nc + npos + p + n]
        for f, (c, p, r, n) in first.items()
    }

    den = lcm(*(m.den for *_, slots in layout for _, m, _ in slots if m is not None))
    parts = []
    for off, d, sm, slots in layout:
        before = 1
        for fidx, m, n in slots:
            after = d // (before * n)
            if m is not None and m.k.size:
                # the entries of I_before (x) x (x) I_after
                b = (np.arange(before) * n)[:, None, None]
                a = np.arange(after)[None, None, :]
                row = ((b + m.row[None, :, None]) * after + a).ravel()
                col = ((b + m.col[None, :, None]) * after + a).ravel()
                shape = (before, m.k.size, after)
                spread = lambda x: np.broadcast_to(x[None, :, None], shape).ravel()  # noqa: E731
                # a sum of len(slots) such entries stays in int64 below INT64_SAFE
                scale = den // m.den
                big = len(slots) * scale * _max_abs(m.val) >= INT64_SAFE
                val = spread(m.val).astype(object if big else np.int64) * scale
                if sm.dual:
                    row, col, val = d - 1 - col, d - 1 - row, -val
                parts.append((kmaps[fidx][spread(m.k)], row + off, col + off, val))
            before *= n

    k, row, col, val = (
        np.concatenate([p[t] for p in parts]) if parts else np.zeros(0, np.int64)
        for t in range(4)
    )
    gens = _coalesce((nc + 2 * npos, total, total), k, row, col, val, den)
    model = MatrixRep(group, RepSpec(summands), gens, tuple(cartan_labels), tuple(root_labels))
    summand = np.repeat(np.arange(len(summands)), model.summand_dims)
    if (summand[gens.row] != summand[gens.col]).any():
        raise RepresentationError("a generator entry links two summands")
    validate_matrix_rep(model)
    return model


def net_charges(group: GroupSpec, rep: RepSpec) -> list[list[int]]:
    """The net charge of each summand on each torus line, no charges being
    zero; RepresentationError for charges of another arity than the lines."""
    n_circ = group.n_circles
    for sm in rep.summands:
        if len(sm.charges) not in (0, n_circ):
            raise RepresentationError(f"summand charge arity {len(sm.charges)} != circles {n_circ}")
    return [[sum(a * c for a, c in zip(line, sm.charges)) for line in group.torus_lines] for sm in rep.summands]


def realize(group: GroupSpec, rep: RepSpec) -> MatrixRep:
    """Build the matrix model of a representation specification.

    The module splits along b = b_ss + t.  The semisimple part, the
    factors on the summands with their charges stripped, is assembled and
    validated once (_semisimple); for a group with no torus line it is the
    model, the same object on every call.  Otherwise each torus line t
    adds its generator diag(net_t) over the same denominator, net_t the
    line's net charge on each summand (net_charges), after the generators
    of both gens and the borel_stack of the semisimple model (_with_torus):
    the charged model's borel_stack is the stack it would slice from its
    gens, with no slicing.  A torus weight is constant on each summand and
    _semisimple keeps every nonzero inside one summand, so the torus
    commutes with the semisimple part and needs no check here.
    """
    net, lines = net_charges(group, rep), group.torus_lines
    ss = _semisimple(group.factors, tuple(Summand(sm.terms, sm.dual) for sm in rep.summands))
    if not lines:
        return ss
    g = ss.gens
    big = max(abs(x) for row in net for x in row) * g.den >= INT64_SAFE
    w = np.repeat(np.array(net, dtype=object if big else np.int64), ss.summand_dims, axis=0)
    # diag(net_t) * den for each line t: (line, index, value) of each nonzero
    t, a = np.nonzero(w.T)
    torus = (len(lines), t, a, w[a, t] * g.den)
    model = MatrixRep(group, rep, _with_torus(g, *torus), ss.cartan_labels, ss.root_labels)
    model.__dict__["borel_stack"] = _with_torus(ss.borel_stack, *torus)  # the cached_property's value
    return model


def _with_torus(stack: IntStack, n_lines: int, t: np.ndarray, a: np.ndarray, val: np.ndarray) -> IntStack:
    """stack followed by n_lines diagonal generators, line t[i] holding
    val[i] at (a[i], a[i]): appended after every generator of the stack,
    in line and then index order, the entries keep the (k, row, col) order."""
    n, d, _ = stack.shape
    return _int_stack(
        (n + n_lines, d, d),
        np.concatenate([stack.k, n + t]),
        np.concatenate([stack.row, a]),
        np.concatenate([stack.col, a]),
        np.concatenate([stack.val, val]),
        stack.den,
    )


# ---------------------------------------------------------------------------
# validation


def validate_matrix_rep(rep: MatrixRep) -> None:
    """Structural checks on an assembled representation, linear in its nonzeros.

    Each per-factor module is certified once, when it is built (_certify).
    Kron with identities, block sums and the dual map x -> -x^T in the
    reversed basis are Lie-algebra homomorphisms, so assembly only needs
    guarding: the entries are in (k, row, col) order (the IntStack
    invariant that borel_stack slices by), Cartan and torus generators are
    diagonal, raising generators strictly upper triangular, and every root
    vector satisfies the weight relation entrywise, W[a] - W[b] = +-eig on
    each nonzero (a, b) for the weight matrix W of the Cartan and torus
    diagonals, with eigenvalue 0 under the Cartan generators of the other
    factors and under the torus, so the torus commutes with it.
    """
    g, nc, npos = rep.gens, len(rep.cartan_labels), len(rep.root_labels)
    d = g.shape[1]
    key = (g.k * d + g.row) * d + g.col
    if (key[1:] <= key[:-1]).any():
        raise RepresentationError("generator entries are not in (k, row, col) order")
    raising = (g.k >= nc) & (g.k < nc + npos)
    if (g.row[raising] >= g.col[raising]).any():
        raise RepresentationError("raising generator is not strictly upper")
    diag = [*range(nc), *range(nc + 2 * npos, g.shape[0])]
    w = _weights(g, diag)
    eig = np.zeros((g.shape[0], len(diag)), dtype=np.int64)
    for fidx in dict.fromkeys(f for f, _ in rep.root_labels):
        rs = build_root_system(rep.group.factors[fidx].simple_type)
        # a factor's roots, and its simple roots, are consecutive and in rs order
        j, c = rep.root_labels.index((fidx, rs.positive_roots[0])), rep.cartan_labels.index((fidx, 0))
        eig[nc + j : nc + j + rs.n_positive_roots, c : c + rs.rank] = rs.root_pairings
    eig[nc + npos : nc + 2 * npos] = -eig[nc : nc + npos]
    fault = _weight_fault(g, w, eig, nc, npos)
    if fault:
        j, kind = fault
        fidx, root = rep.root_labels[j]
        raise RepresentationError(f"weight relation fails on {kind}{root} of factor {fidx}")


# ---------------------------------------------------------------------------
# genuinely real representations (for slice chains over the reals)


@dataclass
class RealRep:
    """A compact Lie algebra acting faithfully by real matrices, as one
    integer stack, and the rank of its group; faithful, it has no trivial
    factor to add rank (trivial_gap)."""

    compact_stack: IntStack
    group_rank: int
    trivial_gap = 0


def so_vector_gens(n: int) -> IntStack:
    """Basis E_ab - E_ba (a < b) of so(n) on R^n."""
    a, b = np.triu_indices(n, 1)
    k, one = np.arange(a.size), np.ones(a.size, np.int64)
    return _coalesce((a.size, n, n), np.r_[k, k], np.r_[a, b], np.r_[b, a], np.r_[one, -one], 1)


_OCT_TRIPLES = tuple(
    tuple((x - 1) % 7 + 1 for x in (1 + t, 2 + t, 4 + t)) for t in range(7)
)


def octonion_left_mult() -> IntStack:
    """Left multiplication by e_1..e_7 on the octonions, real 8x8 matrices."""
    mult: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(1, 8):
        mult[(a, 0)] = (1, a)
        mult[(0, a)] = (1, a)
        mult[(a, a)] = (-1, 0)
    for (a, b, c) in _OCT_TRIPLES:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            mult[(x, y)] = (1, z)
            mult[(y, x)] = (-1, z)
    ent = [(a - 1, mult[(a, j)][1], j, mult[(a, j)][0]) for a in range(1, 8) for j in range(8)]
    return _coalesce((7, 8, 8), *np.array(ent, dtype=np.int64).T, 1)


@functools.lru_cache(maxsize=1)
def spin7_real_gens() -> IntStack:
    """Real 8x8 spin generators paired with the E_ab - E_ba order of so(7).

    Built from octonion left multiplications L_a with L_a^2 = -1; the map
    E_ab - E_ba -> -[L_a, L_b]/4 matches the vector structure constants.
    """
    L = octonion_left_mult().dense()
    a, b = np.triu_indices(7, 1)
    x = -_bracket(L[a], L[b])
    # x / 4 over the least denominator
    g = gcd(int(np.gcd.reduce(x.ravel())), 4)
    m, row, col = np.nonzero(x)
    return _coalesce(x.shape, m, row, col, x[m, row, col] // g, 4 // g)


def real_blocks(text: str) -> list[str | int]:
    """The blocks of a real block model, 'triv:2,vec7,spin8' -> [2, 'vec7',
    'spin8']: N for N trivial lines, else the block's name."""
    out: list[str | int] = []
    for block in text.split(","):
        block = block.strip()
        if block in ("vec7", "spin8"):
            out.append(block)
        elif block.startswith("triv:") and block[5:].isdigit():
            out.append(int(block[5:]))
        else:
            raise RepresentationError(f"unknown real block {block!r}")
    return out


def real_block_rep(text: str, group_rank: int) -> RealRep:
    """Diagonal so(7) action on a sum of blocks, 'triv:2,vec7,spin8', as the
    model of a group of rank group_rank.

    Blocks, comma separated: 'triv:N' (N trivial lines), 'vec7' (R^7
    vector action), 'spin8' (R^8 real spin action).  Generators are indexed
    by the pairs (a, b), a < b, of so(7); each block's entries sit at its
    offset, over one denominator.  so(7) is simple, so it acts faithfully
    iff a block is vec7 or spin8, and a model without one is rejected.
    """
    blocks = real_blocks(text)
    if not {"vec7", "spin8"} & set(blocks):
        raise RepresentationError(f"real block model {text!r} has no vec7 or spin8 block: so(7) acts with a kernel")
    models = {"vec7": so_vector_gens(7), "spin8": spin7_real_gens()}
    den = lcm(*(m.den for m in models.values()))
    parts, off = [], 0
    for block in blocks:
        if isinstance(block, int):
            off += block
        else:
            m = models[block]
            parts.append((m.k, m.row + off, m.col + off, m.val * (den // m.den)))
            off += m.shape[1]
    k, row, col, val = (np.concatenate([p[t] for p in parts]) for t in range(4))
    return RealRep(_coalesce((models["vec7"].shape[0], off, off), k, row, col, val, den), group_rank)
