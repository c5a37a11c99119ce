"""Exact root-system combinatorics for the simple Lie algebras.

Simple roots are realized in orthogonal coordinates (Bourbaki numbering),
with exact rational entries.  Scaled by one common denominator they are
integer vectors, whose dot products give the integer Cartan matrix and the
integer squared lengths of the simple roots, each division checked.
Everything after that is exact arithmetic on small int64 arrays: positive
roots are generated by root strings one height at a time, the coroot
pairings come from the symmetrized form by one exact division, and the
Weyl dimension is the product of the <w + rho, beta^vee> (in int64 while
they stay below linalg.INT64_SAFE, in Python ints beyond) divided by the
product of the rho pairings, aborting on any remainder.  Every public
result is a Python int.  numpy is imported inside the functions, since
loading it before the other package modules compile raises peak memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

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


def _simple_roots_orthogonal(st: SimpleType) -> list[list[Fraction]]:
    f, r = st.family, st.rank
    F = Fraction

    def e(i, dim):
        v = [F(0)] * dim
        v[i] = F(1)
        return v

    if f == "A":
        return [
            [F(int(j == i) - int(j == i + 1)) for j in range(r + 1)]
            for i in range(r)
        ]
    if f in ("B", "C", "D"):
        roots = [
            [F(int(j == i) - int(j == i + 1)) for j in range(r)]
            for i in range(r - 1)
        ]
        if f == "B":
            roots.append(e(r - 1, r))
        elif f == "C":
            last = e(r - 1, r)
            roots.append([2 * x for x in last])
        else:
            v = e(r - 2, r)
            v[r - 1] = F(1)
            roots.append(v)
        return roots
    if f == "G":
        return [
            [F(1), F(-1), F(0)],
            [F(-2), F(1), F(1)],
        ]
    if f == "F":
        return [
            [F(0), F(1), F(-1), F(0)],
            [F(0), F(0), F(1), F(-1)],
            [F(0), F(0), F(0), F(1)],
            [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)],
        ]
    # E6, E7, E8 share the E8 simple roots
    alpha = [
        [F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), F(1, 2)],
        [F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)],
        [F(-1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(-1), F(1), F(0), F(0), F(0), F(0), F(0)],
        [F(0), F(0), F(-1), F(1), F(0), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(-1), F(1), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(-1), F(1), F(0), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(-1), F(1), F(0)],
    ]
    return alpha[:r]


class RootSystem:
    """Cartan data and positive roots of a simple type.

    positive_roots are integer coefficient vectors on the simple roots, in
    (height, tuple) order.  In that order, root_pairings[k, i] =
    <beta_k, alpha_i^vee> and _pairing[k, j] = <Lambda_j, beta_k^vee> are
    int64 arrays, and rho[k] = <rho, beta_k^vee> is their int64 vector.
    """

    def __init__(self, stype: SimpleType):
        import numpy as np

        from .linalg import INT64_SAFE

        self.type = stype
        r = stype.rank
        simple = _simple_roots_orthogonal(stype)
        # the simple roots times one common denominator are integer vectors,
        # and 2 (a_i, a_j) / (a_i, a_i) is unchanged by the scale
        den = lcm(*(x.denominator for a in simple for x in a))
        scaled = np.array([[x.numerator * den // x.denominator for x in a] for a in simple], dtype=np.int64)
        gram = scaled @ scaled.T
        cartan = _exact_div(2 * gram, gram.diagonal()[:, None], "the Cartan matrix")
        self.cartan_matrix = tuple(map(tuple, cartan.tolist()))
        roots = _positive_roots(cartan)
        self.positive_roots = tuple(map(tuple, roots.tolist()))
        self.root_pairings = roots @ cartan.T
        # <Lambda_j, beta^vee> = 2 beta_j |alpha_j|^2 / 2 (beta, beta), and the
        # symmetrized form gives 2 (beta, beta) = sum_i beta_i |alpha_i|^2 <beta, alpha_i^vee>
        sq = _exact_div(gram.diagonal(), den * den, "a squared simple root length")
        norm2 = (roots * sq * self.root_pairings).sum(axis=1)
        self._pairing = _exact_div(2 * roots * sq, norm2[:, None], "<Lambda_j, beta^vee>")
        self.rho = self._pairing.sum(axis=1)
        self.rho_pairings = tuple(self.rho.tolist())
        self.rho_product = prod(self.rho_pairings)
        for a in (self.root_pairings, self._pairing, self.rho):
            a.flags.writeable = False  # shared through build_root_system's cache
        # weyl_dim stays in int64 while max(w) * max(_pairing) * rank + max(rho) < INT64_SAFE
        self._int64_weights_below = (INT64_SAFE - int(self.rho.max())) // (int(self._pairing.max()) * r)

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


@functools.lru_cache(maxsize=None)
def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct (and cache) the root system of a valid simple type."""
    return RootSystem(stype)


def _exact_div(a, b, what: str):
    """a // b for int64 arrays, raising unless every division is exact."""
    q, rem = divmod(a, b)
    if rem.any():
        raise RootSystemError(f"{what} is not integral")
    return q


def _positive_roots(cartan):
    """The positive roots of an int64 Cartan matrix as int64 coefficient
    rows, in (height, tuple) order.

    They are generated one height at a time.  The alpha_j-string through a
    root beta runs from beta - p_j alpha_j to beta + q_j alpha_j with
    q_j = p_j - <beta, alpha_j^vee>, so beta + alpha_j is a root exactly
    when q_j >= 1, and its p_j is then p_j(beta) + 1.  Every other p_i of a
    root of the next height is 0, since gamma - alpha_i, if a root, would
    have reached gamma by the same step.
    """
    import numpy as np

    r = len(cartan)
    # each level in tuple order, the simple roots from (0, ..., 0, 1) up
    level, down = np.eye(r, dtype=np.int64)[::-1], np.zeros((r, r), dtype=np.int64)
    levels = [level]
    while True:
        k, j = np.nonzero(down - level @ cartan.T >= 1)
        if not k.size:
            break
        grown = level[k]
        grown[np.arange(k.size), j] += 1
        keys = list(map(tuple, grown.tolist()))
        # a dict, not np.unique(axis=0), which costs more than the rest
        at = {key: n for n, key in enumerate(sorted(set(keys)))}
        level = np.array(list(at), dtype=np.int64)
        down, prev = np.zeros_like(level), down
        down[[at[key] for key in keys], j] = prev[k, j] + 1
        levels.append(level)
    return np.concatenate(levels)


def weyl_dim(rs: RootSystem, w: DominantWeight) -> int:
    """Dimension of the irreducible module with highest weight w, exactly."""
    if len(w.coeffs) != rs.rank:
        raise RootSystemError("weight length does not match rank")
    c = w.coeffs
    pairing = rs._pairing if max(c) < rs._int64_weights_below else rs._pairing.astype(object)
    num = prod((pairing @ c + rs.rho).tolist())
    dim, rem = divmod(num, rs.rho_product)
    if rem:
        raise RootSystemError(
            f"Weyl product for {w} is not divisible by {rs.rho_product}"
        )
    return dim


def borel_dim(rs: RootSystem) -> int:
    """(dim g + rank)/2, the dimension of a Borel subalgebra."""
    total = rs.dim_g + rs.rank
    assert total % 2 == 0
    return total // 2


def enumerate_dominant_weights(
    rs: RootSystem, dim_bound: int
) -> list[tuple[DominantWeight, int]]:
    """All nonzero dominant weights of dimension at most dim_bound.

    The search increases coordinates one at a time and prunes as soon as a
    weight exceeds the bound, which is sound because the dimension is
    monotone under coordinatewise increase.  Coefficients are additionally
    capped at dim_bound, so termination never rests on the pruning.
    """
    if dim_bound < 1:
        raise RootSystemError("dim_bound must be >= 1")
    r = rs.rank
    found: list[tuple[DominantWeight, int]] = []

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
    closure is asserted here rather than assumed.
    """
    b = borel_dim(rs)
    bound = isqrt(2 * b + 2) + 3
    d0 = bound + 1
    assert d0 * (d0 - 1) > 2 * (1 + b), "search bound fails its own certificate"
    return bound


def spin_search_bound(rs: RootSystem) -> int:
    """Degree bound for the d^2 <= 8*dim b + 1 inequality search."""
    b = borel_dim(rs)
    bound = isqrt(8 * b + 1) + 1
    d0 = bound + 1
    assert d0 * d0 > 8 * b + 1
    return bound


def paper_family_types(max_classical_rank: int) -> list[SimpleType]:
    """Non-redundant enumeration basis over the simple algebras.

    Classical families start at A1, B2, C3, D3 so each isomorphism class of
    algebras appears exactly once (B1, C1 are A1; C2 is B2; D2 is not
    simple); all five exceptional types are appended.
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
