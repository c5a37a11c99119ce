"""Exact root-system combinatorics for the simple Lie algebras.

Simple roots are realized in orthogonal coordinates (Bourbaki numbering),
with exact rational entries; their dot products give the integer Cartan
matrix and the integer squared lengths of the simple roots.  Everything
after that is integer arithmetic: positive roots are generated by root
strings from the Cartan matrix, coroot pairings come from the symmetrized
form, and the dimension formula is one arbitrary-precision integer product
divided by the product of the rho pairings, aborting if the division
leaves a remainder.  Orthogonal coordinates of roots (_orth) are kept for
the explicit matrix models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

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

    @property
    def algebra_name(self) -> str:
        f, r = self.family, self.rank
        if f == "A":
            return f"su({r + 1})"
        if f == "B":
            return f"so({2 * r + 1})"
        if f == "C":
            return f"sp({r})"
        if f == "D":
            return f"so({2 * r})"
        return f"{f.lower()}{r}"


@dataclass(frozen=True, order=True)
class DominantWeight:
    """Nonnegative integer coefficients on the fundamental weights."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise RootSystemError("dominant weight needs nonnegative coefficients")

    @classmethod
    def fundamental(cls, rank: int, i: int, mult: int = 1) -> "DominantWeight":
        c = [0] * rank
        c[i] = mult
        return cls(tuple(c))

    @classmethod
    def zero(cls, rank: int) -> "DominantWeight":
        return cls((0,) * rank)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
            [F(int(j == i)) - F(int(j == i + 1)) for j in range(r + 1)]
            for i in range(r)
        ]
    if f in ("B", "C", "D"):
        roots = [
            [F(int(j == i)) - F(int(j == i + 1)) for j in range(r)]
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


def _dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


class RootSystem:
    """Cartan data and positive roots of a simple type.

    positive_roots are integer coefficient vectors on the simple roots;
    pairings with coroots are cached integers.
    """

    def __init__(self, stype: SimpleType):
        self.type = stype
        r = stype.rank
        self.simple_orth = _simple_roots_orthogonal(stype)
        norms = [_dot(a, a) for a in self.simple_orth]
        self.cartan_matrix = tuple(
            tuple(
                _as_int(2 * _dot(self.simple_orth[i], self.simple_orth[j]) / norms[i])
                for j in range(r)
            )
            for i in range(r)
        )
        self.positive_roots = self._generate_positive_roots()
        # pairing[k][j] = <Lambda_j, beta^vee> = 2 beta_j |alpha_j|^2 / 2 (beta, beta)
        # for the positive root beta at k; the symmetrized form gives
        # 2 (beta, beta) = sum_i beta_i |alpha_i|^2 <beta, alpha_i^vee>
        sq = [_as_int(n) for n in norms]
        self._pairing = []
        for root in self.positive_roots:
            own = self.simple_coroot_pairings(root)
            nn = sum(b * n * p for b, n, p in zip(root, sq, own))
            row = []
            for j in range(r):
                q, rem = divmod(2 * root[j] * sq[j], nn)
                if rem:
                    raise RootSystemError(
                        f"<Lambda_{j}, coroot> not integral for root {root}"
                    )
                row.append(q)
            self._pairing.append(tuple(row))
        self.rho_pairings = tuple(sum(row) for row in self._pairing)
        self.rho_product = prod(self.rho_pairings)

    # -- construction helpers ------------------------------------------------

    def _orth(self, root_coords) -> list[Fraction]:
        dim = len(self.simple_orth[0])
        out = [Fraction(0)] * dim
        for c, alpha in zip(root_coords, self.simple_orth):
            if c:
                for i in range(dim):
                    out[i] += c * alpha[i]
        return out

    def _generate_positive_roots(self) -> tuple[tuple[int, ...], ...]:
        r = self.type.rank
        simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        known = set(simple)
        by_height = {1: list(simple)}
        h = 1
        while by_height.get(h):
            nxt = []
            for beta in by_height[h]:
                for i, pairing in enumerate(self.simple_coroot_pairings(beta)):
                    p = 0
                    probe = list(beta)
                    while True:
                        probe[i] -= 1
                        if min(probe) < 0 or tuple(probe) not in known:
                            break
                        p += 1
                    if p - pairing >= 1:
                        cand = list(beta)
                        cand[i] += 1
                        tcand = tuple(cand)
                        if tcand not in known:
                            known.add(tcand)
                            nxt.append(tcand)
            h += 1
            if nxt:
                by_height[h] = nxt
        ordered = sorted(known, key=lambda v: (sum(v), v))
        return tuple(ordered)

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

    def highest_root(self) -> tuple[int, ...]:
        return max(self.positive_roots, key=sum)

    def highest_root_as_weight(self) -> DominantWeight:
        return DominantWeight(self.simple_coroot_pairings(self.highest_root()))

    def simple_coroot_pairings(self, beta) -> tuple[int, ...]:
        """<beta, alpha_i^vee> for every simple root alpha_i; beta is given by
        its coefficients on the simple roots."""
        return tuple(
            sum(c * a for c, a in zip(beta, row)) for row in self.cartan_matrix
        )

    def pair_coroot(self, w: DominantWeight, root_index: int) -> int:
        """<w, alpha_coroot> for the positive root at root_index."""
        row = self._pairing[root_index]
        return sum(c * p for c, p in zip(w.coeffs, row))

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
        return sum(self.pair_coroot(w, k) for k in range(self.n_positive_roots))


@functools.lru_cache(maxsize=None)
def build_root_system(stype: SimpleType) -> RootSystem:
    """Construct (and cache) the root system of a valid simple type."""
    return RootSystem(stype)


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise RootSystemError(f"expected integer, got {x}")
    return x.numerator


def weyl_dim(rs: RootSystem, w: DominantWeight) -> int:
    """Dimension of the irreducible module with highest weight w, exactly."""
    if len(w.coeffs) != rs.rank:
        raise RootSystemError("weight length does not match rank")
    num = 1
    for row, rho in zip(rs._pairing, rs.rho_pairings):
        num *= sum(c * p for c, p in zip(w.coeffs, row)) + rho
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
