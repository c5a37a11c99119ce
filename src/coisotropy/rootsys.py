"""Exact root-system combinatorics for the simple Lie algebras.

No rationals are used.  The simple roots in orthogonal coordinates (Bourbaki
numbering) are integer rows over one stated denominator (1 for A-D and G, 2
for E and F); the Gram matrix of the rows gives the integer Cartan matrix
and the integer squared lengths of the simple roots, each division checked.
Positive roots come from a root-string walk, one height at a time, on
Python integer tuples, which carries each root's pairings with the simple
coroots along.  numpy then builds, once per walk, the int64 arrays of the
roots, of those pairings (root_pairings), of the coroot pairings with the
fundamental weights (_pairing, from the symmetrized form by one exact
division) and of rho.  The walk runs once per family top: a smaller rank
of a family whose larger system is built is a sub-diagram of it, and its
system is the larger one's arrays restricted to those nodes
(RootSystem.restrict); paper_family_root_systems builds the scans' types
largest first to that end.  The Weyl dimension is the product of the
<w + rho, beta^vee> (in int64 while they stay below linalg.INT64_SAFE, in
Python ints beyond) divided by the product of the rho pairings, aborting
on any remainder.  One integer product gives these pairings for a whole
batch of weights (_weyl_dims): the dominant-weight search makes one per
search level and resumes each system's search at a larger bound, and
weyl_dim is a batch of one.  Every public result is a Python int.  numpy
is imported inside the functions, since loading it before the other
package modules compile raises peak memory.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from math import isqrt, prod
from operator import add

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie algebra family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        f, r = self.family, self.rank
        if f not in FAMILIES:
            raise RootSystemError(f"unknown family {f!r}")
        if r < 1:
            raise RootSystemError("rank must be positive")
        if f == "D" and r < 3:
            raise RootSystemError("D requires rank >= 3")
        if f == "E" and r not in (6, 7, 8):
            raise RootSystemError("E requires rank in {6, 7, 8}")
        if f == "F" and r != 4:
            raise RootSystemError("F requires rank 4")
        if f == "G" and r != 2:
            raise RootSystemError("G requires rank 2")

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, order=True)
class DominantWeight:
    """Nonnegative integer coefficients on the fundamental weights."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise RootSystemError("dominant weight needs nonnegative coefficients")

    @classmethod
    def fundamental(cls, rank: int, i: int) -> "DominantWeight":
        c = [0] * rank
        c[i] = 1
        return cls(tuple(c))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)


def _simple_roots_orthogonal(st: SimpleType) -> tuple[list[list[int]], int]:
    """The simple roots in orthogonal coordinates (Bourbaki numbering), as
    integer rows over one denominator: the roots are rows / den, with den 1
    for A-D and G and 2 for E and F."""
    f, r = st.family, st.rank

    def diff(i, dim, s=1):
        """s (e_i - e_(i+1)) in dimension dim."""
        return [s * (int(j == i) - int(j == i + 1)) for j in range(dim)]

    if f == "A":
        return [diff(i, r + 1) for i in range(r)], 1
    if f in ("B", "C", "D"):
        last = [0] * r  # e_r for B, 2 e_r for C, e_(r-1) + e_r for D
        last[r - 1] = 2 if f == "C" else 1
        if f == "D":
            last[r - 2] = 1
        return [diff(i, r) for i in range(r - 1)] + [last], 1
    if f == "G":
        return [[1, -1, 0], [-2, 1, 1]], 1
    if f == "F":
        return [diff(1, 4, 2), diff(2, 4, 2), [0, 0, 0, 2], [1, -1, -1, -1]], 2
    # E6, E7, E8 share the E8 simple roots
    e8 = [[1, -1, -1, -1, -1, -1, -1, 1], [2, 2, 0, 0, 0, 0, 0, 0]] + [diff(i, 8, -2) for i in range(6)]
    return e8[:r], 2


class RootSystem:
    """Cartan data and positive roots of a simple type.

    positive_roots are integer coefficient vectors on the simple roots, in
    (height, tuple) order.  In that order, root_pairings[k, i] =
    <beta_k, alpha_i^vee> and _pairing[k, j] = <Lambda_j, beta_k^vee> are
    int64 arrays, and rho[k] = <rho, beta_k^vee> is their int64 vector.
    """

    def __init__(self, stype: SimpleType):
        """Walk the positive roots of stype."""
        import numpy as np

        self.type = stype
        simple, den = _simple_roots_orthogonal(stype)
        # 2 (a_i, a_j) / (a_i, a_i) is unchanged by the denominator
        scaled = np.array(simple, dtype=np.int64)
        gram = scaled @ scaled.T
        cartan = _exact_div(2 * gram, gram.diagonal()[:, None], "the Cartan matrix")
        self.cartan_matrix = tuple(map(tuple, cartan.tolist()))
        self.positive_roots, pairings = _positive_roots(self.cartan_matrix)
        roots = np.array(self.positive_roots, dtype=np.int64)
        root_pairings = np.array(pairings, dtype=np.int64)
        # <Lambda_j, beta^vee> = 2 beta_j |alpha_j|^2 / 2 (beta, beta), and the
        # symmetrized form gives 2 (beta, beta) = sum_i beta_i |alpha_i|^2 <beta, alpha_i^vee>
        sq = _exact_div(gram.diagonal(), den * den, "a squared simple root length")
        norm2 = (roots * sq * root_pairings).sum(axis=1)
        self._set_arrays(
            roots, root_pairings, _exact_div(2 * roots * sq, norm2[:, None], "<Lambda_j, beta^vee>")
        )

    def _set_arrays(self, roots, root_pairings, pairing) -> None:
        """Keep the int64 arrays of the roots, their pairings and their
        coroots' pairings, read-only, and derive rho and the int64 bound of
        _weyl_dims from them."""
        from .linalg import INT64_SAFE

        self._roots, self.root_pairings, self._pairing = roots, root_pairings, pairing
        self.rho = pairing.sum(axis=1)
        self.rho_pairings = tuple(self.rho.tolist())
        self.rho_product = prod(self.rho_pairings)
        for a in (roots, root_pairings, pairing, self.rho):
            a.flags.writeable = False  # shared through build_root_system's cache
        # _weyl_dims stays in int64 while max(w) * max(_pairing) * rank + max(rho) < INT64_SAFE
        self._int64_weights_below = (INT64_SAFE - int(self.rho.max())) // (int(pairing.max()) * self.rank)

    def restrict(self, stype: SimpleType, first: int) -> "RootSystem":
        """The root system of stype, the sub-diagram J of the stype.rank
        nodes from node first, with no walk.  Its roots are the roots of
        this system in the span of J (Bourbaki, Lie Groups and Lie
        Algebras, Ch. VI, section 1), so its positive roots are the ones
        that vanish off J, in the same (height, tuple) order; their
        pairings with the simple coroots of J and their coroots'
        coefficients on J are the columns J of this system's."""
        stop = first + stype.rank
        keep = ~(self._roots[:, :first].any(axis=1) | self._roots[:, stop:].any(axis=1))
        roots = self._roots[keep, first:stop]
        sub = object.__new__(RootSystem)
        sub.type = stype
        sub.cartan_matrix = tuple(row[first:stop] for row in self.cartan_matrix[first:stop])
        sub.positive_roots = tuple(map(tuple, roots.tolist()))
        sub._set_arrays(roots, self.root_pairings[keep, first:stop], self._pairing[keep, first:stop])
        return sub

    # -- basic quantities -----------------------------------------------------

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def n_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_g(self) -> int:
        return 2 * self.n_positive_roots + self.rank

    # -- duality and reality ----------------------------------------------------

    def dual_weight(self, w: DominantWeight) -> DominantWeight:
        """Highest weight of the dual representation, -w0(w)."""
        f, r = self.type.family, self.type.rank
        c = w.coeffs
        if f == "A":
            return DominantWeight(tuple(reversed(c)))
        if f == "D" and r % 2 == 1:
            return DominantWeight(c[: r - 2] + (c[r - 1], c[r - 2]))
        if f == "E" and r == 6:
            perm = (5, 1, 4, 3, 2, 0)
            return DominantWeight(tuple(c[p] for p in perm))
        return w

    def frobenius_schur_exponent(self, w: DominantWeight) -> int:
        """<w, sum of positive coroots>, always a nonnegative integer."""
        return sum(c * s for c, s in zip(w.coeffs, self._pairing.sum(axis=0).tolist()))


# The largest walked root system of each family, from which build_root_system
# restricts the smaller ranks.  It holds them weakly: build_root_system's
# cache owns every system, so a cache_clear() lets the walked systems go,
# and with them their searches (_SEARCHES).
_WALKED: weakref.WeakValueDictionary[str, RootSystem] = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=None)
def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct (and cache) the root system of a valid simple type: the
    restriction of the larger walked system of its family, if there is
    one, or else a walk.  In the Bourbaki numbering A_r and E_r are the
    first r nodes of a larger diagram of their family, and B_r, C_r and
    D_r the last r; F4 and G2, alone in their families, are walked."""
    top = _WALKED.get(stype.family)
    if top is not None and top.rank > stype.rank:
        return top.restrict(stype, top.rank - stype.rank if stype.family in "BCD" else 0)
    rs = RootSystem(stype)
    _WALKED[stype.family] = rs
    return rs


def paper_family_root_systems(max_classical_rank: int) -> list[tuple[SimpleType, RootSystem]]:
    """(type, root system) for paper_family_types(max_classical_rank), in its
    order; the systems are built largest rank first, so that each family is
    walked once, at its top, and its smaller ranks are restricted."""
    types = paper_family_types(max_classical_rank)
    built = {st: build_root_system(st) for st in sorted(types, key=lambda st: -st.rank)}
    return [(st, built[st]) for st in types]


def _exact_div(a, b, what: str):
    """a // b for int64 arrays, raising unless every division is exact."""
    q, rem = divmod(a, b)
    if rem.any():
        raise RootSystemError(f"{what} is not integral")
    return q


def _positive_roots(cartan):
    """The positive roots of a Cartan matrix (tuple rows) as integer
    coefficient tuples in (height, tuple) order, and for each root beta
    the tuple of its pairings <beta, alpha_i^vee>.

    They are generated one height at a time.  The alpha_j-string through a
    root beta runs from beta - p_j alpha_j to beta + q_j alpha_j with
    q_j = p_j - <beta, alpha_j^vee>, so beta + alpha_j is a root exactly
    when q_j >= 1; its pairings are beta's plus Cartan column j, and its
    p_j is p_j(beta) + 1.  Every other p_i of a root of the next height is
    0, since gamma - alpha_i, if a root, would have reached gamma by the
    same step (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 9.4).
    """
    r = len(cartan)
    columns = list(zip(*cartan))
    # each level maps a root to its pairings and its p_j
    level = {tuple(int(i == j) for i in range(r)): (columns[j], [0] * r) for j in range(r)}
    roots, pairings = [], []
    while level:
        up = {}
        for beta in sorted(level):
            pair, p = level[beta]
            roots.append(beta)
            pairings.append(pair)
            for j in range(r):
                if p[j] > pair[j]:
                    gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1 :]
                    if gamma not in up:
                        up[gamma] = (tuple(map(add, pair, columns[j])), [0] * r)
                    up[gamma][1][j] = p[j] + 1
        level = up
    return tuple(roots), pairings


def _weyl_dims(rs: RootSystem, rows) -> list[int]:
    """Weyl dimensions of the dominant weights whose coefficients are the
    rows, from one integer product rows @ _pairing.T + rho: in int64 while
    the largest coefficient of the batch is below _int64_weights_below, in
    Python ints beyond.  Each row's product is divided exactly by
    rho_product."""
    import numpy as np

    big = max(map(max, rows)) >= rs._int64_weights_below
    pairing = rs._pairing.astype(object) if big else rs._pairing
    factors = (np.array(rows, dtype=object if big else np.int64) @ pairing.T + rs.rho).tolist()
    dims = []
    for row, f in zip(rows, factors):
        dim, rem = divmod(prod(f), rs.rho_product)
        if rem:
            raise RootSystemError(
                f"Weyl product for {DominantWeight(tuple(row))} is not divisible by {rs.rho_product}"
            )
        dims.append(dim)
    return dims


def weyl_dim(rs: RootSystem, w: DominantWeight) -> int:
    """Dimension of the irreducible module with highest weight w, exactly."""
    if len(w.coeffs) != rs.rank:
        raise RootSystemError("weight length does not match rank")
    return _weyl_dims(rs, [w.coeffs])[0]


def borel_dim(rs: RootSystem) -> int:
    """(dim g + rank)/2, the dimension of a Borel subalgebra."""
    total = rs.dim_g + rs.rank
    if total % 2:
        raise RootSystemError(f"dim g + rank = {total} is odd")
    return total // 2


# Each searched root system's dominant-weight search: (the largest bound
# searched, the weights found, sorted by (dim, coeffs), the frontier).  It is
# keyed by the system object itself and holds it weakly, so a copy of a
# system starts with no search and a system's search goes with the system.
_SEARCHES: weakref.WeakKeyDictionary[RootSystem, tuple] = weakref.WeakKeyDictionary()


def enumerate_dominant_weights(
    rs: RootSystem, dim_bound: int
) -> list[tuple[DominantWeight, int]]:
    """All nonzero dominant weights of dimension at most dim_bound, sorted
    by (dimension, coefficients), as a new list.

    The search raises coordinates one at a time and prunes as soon as a
    weight exceeds the bound, which is sound because the dimension is
    monotone under coordinatewise increase.  A weight is raised only at
    indices from the last one it was raised at, so each is reached once.
    The search runs one level at a time, and the dimensions of a whole
    level come from one _weyl_dims product.  Coefficients are additionally
    capped at dim_bound, so termination never rests on the pruning.

    The search of each system is kept (_SEARCHES) and resumed, so each
    weight's dimension is computed once per process.  The frontier holds
    every pruned child (a weight with the first index it may still raise)
    with its dimension.  A call at a bound no larger than the largest
    searched filters the weights found.  A larger bound resumes: the
    frontier weights that now pass are the first level, and the search
    goes on from them.  No raise the cap blocked at a smaller bound B is
    lost, because the cap blocks none: the dimension rises strictly along
    each coordinate from 1 at the zero weight, so a weight that passed,
    of dimension d <= B, has every c_i <= d - 1 < B.
    """
    if dim_bound < 1:
        raise RootSystemError("dim_bound must be >= 1")
    # the zero weight, of dimension 1, is the frontier of a new search
    searched, found, frontier = _SEARCHES.get(rs, (0, [], [(((0,) * rs.rank, 0), 1)]))
    if dim_bound <= searched:
        return [t for t in found if t[1] <= dim_bound]
    r = rs.rank
    # each weight that passed, with the first index it may still raise
    level = [c for c, d in frontier if d <= dim_bound]
    found = found + [(DominantWeight(c), d) for (c, _), d in frontier if d <= dim_bound and any(c)]
    frontier = [t for t in frontier if t[1] > dim_bound]
    while children := [
        (c[:i] + (c[i] + 1,) + c[i + 1 :], i)
        for c, low in level
        for i in range(low, r)
        if c[i] < dim_bound
    ]:
        level = []
        for child, d in zip(children, _weyl_dims(rs, [c for c, _ in children])):
            if d <= dim_bound:
                level.append(child)
                found.append((DominantWeight(child[0]), d))
            else:
                frontier.append((child, d))
    found.sort(key=lambda t: (t[1], t[0].coeffs))
    _SEARCHES[rs] = (dim_bound, found, frontier)
    return found[:]


def classify_rep_field(rs: RootSystem, w: DominantWeight) -> str:
    """'real', 'complex' or 'quaternionic' for the irreducible module w.

    Complex when the dual weight differs from w; otherwise the parity of the
    pairing with the sum of positive coroots decides real (even) against
    quaternionic (odd).  Cross-validated against the invariant bilinear form
    of explicit matrix models where those exist.
    """
    if rs.dual_weight(w) != w:
        return "complex"
    return "quaternionic" if rs.frobenius_schur_exponent(w) % 2 else "real"


def lemma_search_bound(rs: RootSystem) -> int:
    """Degree bound that certifies the inequality searches are exhaustive.

    Any d above the bound satisfies 1 + dim b < d(d-1)/2 automatically; the
    closure is checked here rather than assumed.
    """
    b = borel_dim(rs)
    bound = isqrt(2 * b + 2) + 3
    d0 = bound + 1
    if d0 * (d0 - 1) <= 2 * (1 + b):
        raise RootSystemError(f"lemma search bound {bound} fails its own certificate")
    return bound


def spin_search_bound(rs: RootSystem) -> int:
    """Degree bound for the d^2 <= 8*dim b + 1 inequality search."""
    b = borel_dim(rs)
    bound = isqrt(8 * b + 1) + 1
    d0 = bound + 1
    if d0 * d0 <= 8 * b + 1:
        raise RootSystemError(f"spin search bound {bound} fails its own certificate")
    return bound


def paper_family_types(max_classical_rank: int) -> list[SimpleType]:
    """Enumeration basis over the simple algebras: every classical type of
    rank up to max_classical_rank, then the five exceptional types.

    Classical families start at A1, B2, C3, D3, which leaves out B1 and C1
    (both A1), C2 (B2) and D2 (not simple).  The one isomorphism class that
    appears twice is A3 = D3, on purpose: lemma21.txt records the Lemma 2.1
    exceptions of D3 under its own name and node labels (its D3 rows and
    the d3-labels note).
    """
    if max_classical_rank < 3:
        raise RootSystemError("max_classical_rank must be >= 3")
    out: list[SimpleType] = []
    out += [SimpleType("A", r) for r in range(1, max_classical_rank + 1)]
    out += [SimpleType("B", r) for r in range(2, max_classical_rank + 1)]
    out += [SimpleType("C", r) for r in range(3, max_classical_rank + 1)]
    out += [SimpleType("D", r) for r in range(3, max_classical_rank + 1)]
    out += [
        SimpleType("G", 2),
        SimpleType("F", 4),
        SimpleType("E", 6),
        SimpleType("E", 7),
        SimpleType("E", 8),
    ]
    return out
