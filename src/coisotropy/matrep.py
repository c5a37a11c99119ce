"""Explicit matrix realizations over the Gaussian rationals, stored as integers.

Standard modules of the classical algebras are realized in split form so
that Cartan generators are diagonal and positive root vectors are strictly
upper triangular in the constructed weight basis.  Spin modules come from a
Clifford algebra built out of Pauli tensor products; arbitrary dominant
weights are realized through an exact contravariant-form construction;
symmetric and exterior squares act on these QMat generator lists.  Each
per-factor module is converted once into an integer stack (linalg.ZiStack,
numerators over one denominator) and certified there.  Tensor products,
duals, direct sums and torus charge lines are assembled from the stacks by
index arithmetic, and nothing after construction reads a QMat.

For every module the lowering generator of a positive root is the adjoint
of the raising generator with respect to an invariant positive form, so
the real span of {i*h, e - f, i*(e + f)}, together with i times the torus
charge matrices, is exactly the compact real form acting on the module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .linalg import (
    INT64_SAFE,
    QMat,
    QQi,
    QQI_I,
    QQI_ONE,
    QQI_ZERO,
    ZiArray,
    ZiStack,
    _max_abs,
    block_diag,
    commutator,
    complex_rank,
    frac_rref,
    int_kernel,
    kron,
    zi_stack,
)
from .rootsys import (
    DominantWeight,
    RootSystem,
    SimpleType,
    build_root_system,
    weyl_dim,
)


class NotRealizable(ValueError):
    """Raised for module terms with no matrix model; use encoded slice data."""


class RepresentationError(ValueError):
    pass


WEIGHT_MODULE_DIM_CAP = 256


# ---------------------------------------------------------------------------
# group and module specifications


@dataclass(frozen=True)
class Factor:
    """One factor of a reductive group: su/so/sp family or exceptional."""

    kind: str
    n: int

    def __post_init__(self):
        kinds = ("su", "so", "sp", "g2", "f4", "e6", "e7", "e8")
        if self.kind not in kinds:
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

    @property
    def borel_dim(self) -> int:
        """(dim + rank)/2, from closed forms (valid for so(2) etc. as well)."""
        return (self.dim + self.rank) // 2

    @property
    def simple_type(self) -> SimpleType | None:
        """Simple type of the factor, or None when the factor is trivial."""
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


def _parallel(u, v) -> bool:
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True


@dataclass(frozen=True)
class GroupSpec:
    """Simple factors plus torus lines in an ambient product of circles.

    Each torus line is a primitive integer direction vector over the
    ambient circle coordinates; forbidden directions record the
    slope-exclusion conditions and are rejected at construction.
    """

    factors: tuple[Factor, ...] = ()
    torus_lines: tuple[tuple[int, ...], ...] = ()
    forbidden_lines: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        arities = {len(line) for line in self.torus_lines}
        arities |= {len(line) for line in self.forbidden_lines}
        if len(arities) > 1:
            raise RepresentationError("torus lines must share the circle arity")
        for line in self.torus_lines:
            if not any(line):
                raise RepresentationError("torus line must be nonzero")
            g = 0
            for c in line:
                g = gcd(g, c)
            if g != 1:
                raise RepresentationError(f"torus line {line} is not primitive")
            for bad in self.forbidden_lines:
                if _parallel(line, bad):
                    raise RepresentationError(
                        f"torus line {line} lies on the excluded direction {bad}"
                    )

    @property
    def n_circles(self) -> int:
        for line in self.torus_lines + self.forbidden_lines:
            return len(line)
        return 0

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors) + len(self.torus_lines)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors) + len(self.torus_lines)

    @property
    def borel_dim(self) -> int:
        return sum(f.borel_dim for f in self.factors) + len(self.torus_lines)

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
# per-factor modules with a Chevalley split


@dataclass
class ModuleGens:
    """Generator matrices of one simple factor acting on one module.

    cartan is indexed by simple roots, raising/lowering by the positive
    roots of the factor root system, in its positive_roots order.  Each
    lowering generator is the adjoint of its raising partner with respect
    to an invariant positive form.
    """

    dim: int
    cartan: list[QMat] = field(default_factory=list)
    raising: list[QMat] = field(default_factory=list)
    lowering: list[QMat] = field(default_factory=list)

    def map_all(self, f) -> "ModuleGens":
        return ModuleGens(
            dim=-1,  # caller fixes
            cartan=[f(m) for m in self.cartan],
            raising=[f(m) for m in self.raising],
            lowering=[f(m) for m in self.lowering],
        )


def _orth_coords(rs: RootSystem):
    return [rs._orth(root) for root in rs.positive_roots]


@functools.lru_cache(maxsize=None)
def _std_module(stype: SimpleType) -> ModuleGens:
    fam, r = stype.family, stype.rank
    rs = build_root_system(stype)
    if fam == "A":
        return _std_A(rs, r)
    if fam == "C":
        return _std_C(rs, r)
    if fam in ("B", "D"):
        return _std_BD(rs, r, odd=(fam == "B"))
    # exceptional standard module = smallest fundamental module
    best = min(
        range(r),
        key=lambda i: weyl_dim(rs, DominantWeight.fundamental(r, i)),
    )
    return _weight_module(stype, tuple(int(i == best) for i in range(r)))


def _std_A(rs: RootSystem, r: int) -> ModuleGens:
    n = r + 1
    mod = ModuleGens(dim=n)
    for i in range(r):
        mod.cartan.append(QMat(n, n, {(i, i): QQI_ONE, (i + 1, i + 1): QQi(-1)}))
    for orth in _orth_coords(rs):
        i = next(k for k, v in enumerate(orth) if v == 1)
        j = next(k for k, v in enumerate(orth) if v == -1)
        mod.raising.append(QMat(n, n, {(i, j): QQI_ONE}))
        mod.lowering.append(QMat(n, n, {(j, i): QQI_ONE}))
    return mod


def _std_C(rs: RootSystem, r: int) -> ModuleGens:
    # weight-ordered basis (e_1..e_r, f_r..f_1)
    n = 2 * r
    pp = lambda i: i  # noqa: E731
    pm = lambda i: 2 * r - 1 - i  # noqa: E731
    mod = ModuleGens(dim=n)
    hd = [
        {(pp(i), pp(i)): QQI_ONE, (pm(i), pm(i)): QQi(-1)} for i in range(r)
    ]
    for i in range(r - 1):
        d = dict(hd[i])
        d[(pp(i + 1), pp(i + 1))] = QQi(-1)
        d[(pm(i + 1), pm(i + 1))] = QQI_ONE
        mod.cartan.append(QMat(n, n, d))
    mod.cartan.append(QMat(n, n, hd[r - 1]))
    for orth in _orth_coords(rs):
        pos = [k for k, v in enumerate(orth) if v > 0]
        neg = [k for k, v in enumerate(orth) if v < 0]
        if 2 in orth:
            i = orth.index(2)
            e = QMat(n, n, {(pp(i), pm(i)): QQI_ONE})
        elif len(pos) == 2:
            i, j = pos
            e = QMat(n, n, {(pp(i), pm(j)): QQI_ONE, (pp(j), pm(i)): QQI_ONE})
        else:
            i, j = pos[0], neg[0]
            e = QMat(n, n, {(pp(i), pp(j)): QQI_ONE, (pm(j), pm(i)): QQi(-1)})
        mod.raising.append(e)
        mod.lowering.append(e.transpose())
    return mod


def _std_BD(rs: RootSystem, r: int, odd: bool) -> ModuleGens:
    # split realization for the antidiagonal symmetric form; basis
    # (e_1..e_r, [middle], f_r..f_1) carries strictly decreasing weights
    n = 2 * r + 1 if odd else 2 * r
    pp = lambda i: i  # noqa: E731
    pm = lambda i: n - 1 - i  # noqa: E731
    mid = r
    mod = ModuleGens(dim=n)
    hd = [
        {(pp(i), pp(i)): QQI_ONE, (pm(i), pm(i)): QQi(-1)} for i in range(r)
    ]
    for i in range(r - 1):
        d = dict(hd[i])
        d[(pp(i + 1), pp(i + 1))] = QQi(-1)
        d[(pm(i + 1), pm(i + 1))] = QQI_ONE
        mod.cartan.append(QMat(n, n, d))
    if odd:
        mod.cartan.append(QMat(n, n, {k: v + v for k, v in hd[r - 1].items()}))
    else:
        d = dict(hd[r - 2])
        for k, v in hd[r - 1].items():
            d[k] = d.get(k, QQI_ZERO) + v
        mod.cartan.append(QMat(n, n, d))
    for orth in _orth_coords(rs):
        pos = [k for k, v in enumerate(orth) if v > 0]
        neg = [k for k, v in enumerate(orth) if v < 0]
        if len(pos) == 1 and not neg:
            i = pos[0]
            e = QMat(n, n, {(pp(i), mid): QQI_ONE, (mid, pm(i)): QQi(-1)})
        elif len(pos) == 2:
            i, j = pos
            e = QMat(n, n, {(pp(i), pm(j)): QQI_ONE, (pp(j), pm(i)): QQi(-1)})
        else:
            i, j = pos[0], neg[0]
            e = QMat(n, n, {(pp(i), pp(j)): QQI_ONE, (pm(j), pm(i)): QQi(-1)})
        mod.raising.append(e)
        mod.lowering.append(e.transpose())
    return mod


# ---------------------------------------------------------------------------
# spin modules via Pauli tensor products


_SX = QMat(2, 2, {(0, 1): QQI_ONE, (1, 0): QQI_ONE})
_SY = QMat(2, 2, {(0, 1): QQi(0, -1), (1, 0): QQI_I})
_SZ = QMat(2, 2, {(0, 0): QQI_ONE, (1, 1): QQi(-1)})


def _pauli_chain(k: int, pos: int, op: QMat) -> QMat:
    out = QMat.identity(1)
    for t in range(k):
        if t < pos:
            out = kron(out, _SZ)
        elif t == pos:
            out = kron(out, op)
        else:
            out = kron(out, QMat.identity(2))
    return out


@functools.lru_cache(maxsize=None)
def _spin_module(n: int, chirality: int = 1) -> ModuleGens:
    if not 3 <= n <= 12:
        raise NotRealizable("spin modules are provided for 3 <= n <= 12")
    k = n // 2
    odd = n % 2 == 1
    gammas = []
    for j in range(k):
        gammas.append(_pauli_chain(k, j, _SX))
        gammas.append(_pauli_chain(k, j, _SY))
    chain_z = functools.reduce(kron, [_SZ] * k)
    if odd:
        gammas.append(chain_z)
    dim_full = 2**k
    stype = SimpleType("B", k) if odd else SimpleType("D", k)
    rs = build_root_system(stype)

    half = QQi(Fraction(1, 2))
    ihalf = QQi(0, Fraction(1, 2))
    raisers = [
        gammas[2 * j].scale(half) + gammas[2 * j + 1].scale(ihalf) for j in range(k)
    ]
    lowerers = [m.conj_transpose() for m in raisers]

    def root_vector(orth) -> QMat:
        pos = [t for t, v in enumerate(orth) if v > 0]
        neg = [t for t, v in enumerate(orth) if v < 0]
        if len(pos) == 1 and not neg:
            return raisers[pos[0]] @ gammas[-1]
        if len(pos) == 2:
            return raisers[pos[0]] @ raisers[pos[1]]
        return raisers[pos[0]] @ lowerers[neg[0]]

    horth = []
    for j in range(k):
        m = (gammas[2 * j] @ gammas[2 * j + 1]).scale(QQi(0, Fraction(-1, 2)))
        assert m.is_diagonal()
        horth.append(m)

    if odd:
        indices = list(range(dim_full))
    else:
        want = QQI_ONE if chirality > 0 else QQi(-1)
        indices = [i for i in range(dim_full) if chain_z.get(i, i) == want]
    weights = [
        tuple(h.get(idx, idx).re for h in horth) for idx in indices
    ]
    scale = [Fraction(3 ** (k - j)) for j in range(k)]
    order = sorted(
        range(len(indices)),
        key=lambda t: sum(s * w for s, w in zip(scale, weights[t])),
        reverse=True,
    )
    sel = [indices[t] for t in order]
    posmap = {old: new for new, old in enumerate(sel)}

    def restrict(m: QMat) -> QMat:
        ent = {}
        for (i, j), v in m.entries.items():
            if i in posmap and j in posmap:
                ent[(posmap[i], posmap[j])] = v
            elif (i in posmap) != (j in posmap):
                raise RepresentationError("operator does not preserve chirality")
        return QMat(len(sel), len(sel), ent)

    mod = ModuleGens(dim=len(sel))
    for i in range(k - 1):
        mod.cartan.append(restrict(horth[i] - horth[i + 1]))
    if odd:
        mod.cartan.append(restrict(horth[k - 1].scale(QQi(2))))
    else:
        mod.cartan.append(restrict(horth[k - 2] + horth[k - 1]))
    for root in rs.positive_roots:
        e = restrict(root_vector(rs._orth(root)))
        if e.is_zero():
            raise RepresentationError(f"vanishing spin root vector for {root}")
        mod.raising.append(e)
        mod.lowering.append(e.conj_transpose())
    return mod


# ---------------------------------------------------------------------------
# arbitrary dominant weights by the exact contravariant-form construction


@functools.lru_cache(maxsize=None)
def _weight_module(stype: SimpleType, coeffs: tuple[int, ...]) -> ModuleGens:
    """Irreducible module with highest weight coeffs, over the rationals.

    States are lowering words applied to a highest vector; dependencies are
    resolved through the contravariant form, whose Gram matrices stay exact
    rationals.  The basis is graded by depth, so Cartan matrices come out
    diagonal and raising matrices strictly upper triangular.
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
    alpha_fund = [tuple(Fraction(A[j][i]) for j in range(r)) for i in range(r)]

    wts: list[tuple[Fraction, ...]] = [tuple(Fraction(c) for c in coeffs)]
    # e_act[s][i]: expansion of e_i * v_s over earlier states, or None
    e_act: list[list[list[tuple[int, Fraction]] | None]] = [[None] * r]
    f_act: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    gram: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    level_states = [0]

    def pairing(s: int, t: int) -> Fraction:
        if s <= t:
            return gram.get((s, t), Fraction(0))
        return gram.get((t, s), Fraction(0))

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
            g = [[Fraction(0)] * nc for _ in range(nc)]
            for a in range(nc):
                i, s = cands[a]
                for b in range(a, nc):
                    j, t = cands[b]
                    # <f_i v_s, f_j v_t> = <v_s, f_j e_i v_t> + d_ij wt_i(t) <v_s, v_t>
                    val = Fraction(0)
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
            _, chosen = frac_rref([list(row) for row in g])
            if not chosen:
                for i, s in cands:
                    f_act[(i, s)] = []
                continue
            sub = [[g[a][b] for b in chosen] for a in chosen]
            solve = _inverse_solver(sub)
            base = len(wts)
            globals_new = []
            for local, ci in enumerate(chosen):
                gi = base + local
                globals_new.append(gi)
                wts.append(mu)
                e_act.append([None] * r)
            # Gram of the new states
            for a_loc, ca in enumerate(chosen):
                for b_loc, cb in enumerate(chosen):
                    if a_loc <= b_loc:
                        gram[(globals_new[a_loc], globals_new[b_loc])] = g[ca][cb]
            # expansion of every candidate over the chosen states
            for c_idx, (i, s) in enumerate(cands):
                col = [g[ci][c_idx] for ci in chosen]
                coords = solve(col)
                f_act[(i, s)] = [
                    (globals_new[loc], coords[loc])
                    for loc in range(len(chosen))
                    if coords[loc]
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
                                acc[w] = acc.get(w, Fraction(0)) + cu * cw
                    if i == j:
                        hval = wts[s][j]
                        if hval:
                            acc[s] = acc.get(s, Fraction(0)) + hval
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
    mod = ModuleGens(dim=n)
    for i in range(r):
        diag = {}
        for s in range(n):
            val = wts[s][i]
            if val.denominator != 1:
                raise RepresentationError("non-integral weight in module build")
            if val:
                diag[(s, s)] = QQi(val)
        mod.cartan.append(QMat(n, n, diag))
    e_mats = []
    f_mats = []
    for i in range(r):
        ent_e = {}
        ent_f = {}
        for s in range(n):
            x = e_act[s][i]
            if x:
                for (u, c) in x:
                    ent_e[(u, s)] = QQi(c)
            for (u, c) in f_act.get((i, s), []):
                ent_f[(u, s)] = QQi(c)
        e_mats.append(QMat(n, n, ent_e))
        f_mats.append(QMat(n, n, ent_f))

    # extend to all positive roots: brackets for e, form-adjoints for f
    # symmetrize sparse storage
    full_gram = {}
    for (s, t), v in gram.items():
        full_gram[(s, t)] = QQi(v)
        full_gram[(t, s)] = QQi(v)
    gram_mat = QMat(n, n, full_gram)
    gram_inv = _invert_block_diag(gram_mat, wts)

    simple_idx = {}
    for idx, root in enumerate(rs.positive_roots):
        if sum(root) == 1:
            simple_idx[root.index(1)] = idx
    e_by_root: dict[tuple[int, ...], QMat] = {}
    for i, idx in simple_idx.items():
        e_by_root[rs.positive_roots[idx]] = e_mats[i]
    for root in sorted(rs.positive_roots, key=sum):
        if sum(root) == 1:
            continue
        for i in range(r):
            if root[i] > 0:
                beta = list(root)
                beta[i] -= 1
                tb = tuple(beta)
                if tb in e_by_root:
                    e_by_root[root] = commutator(e_mats[i], e_by_root[tb])
                    break
        else:
            raise RepresentationError(f"no decomposition for root {root}")
        if e_by_root[root].is_zero():
            raise RepresentationError(f"vanishing root vector for {root}")
    for root in rs.positive_roots:
        e = e_by_root[root]
        if sum(root) == 1:
            mod.raising.append(e)
            mod.lowering.append(f_mats[root.index(1)])
        else:
            mod.raising.append(e)
            mod.lowering.append(gram_inv @ e.transpose() @ gram_mat)
    return mod


def _inverse_solver(mat: list[list[Fraction]]):
    n = len(mat)
    aug = [list(mat[i]) + [Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    rref, piv = frac_rref(aug)
    if piv != list(range(n)):
        raise RepresentationError("singular gram block")
    inv = [row[n:] for row in rref]

    def solve(col):
        return [sum(inv[i][j] * col[j] for j in range(n)) for i in range(n)]

    return solve


def _invert_block_diag(g: QMat, wts) -> QMat:
    """Inverse of a weight-block-diagonal symmetric rational matrix."""
    n = g.nrows
    blocks: dict[tuple, list[int]] = {}
    for s in range(n):
        blocks.setdefault(wts[s], []).append(s)
    ent = {}
    for idxs in blocks.values():
        m = len(idxs)
        sub = [[g.get(idxs[a], idxs[b]).re for b in range(m)] for a in range(m)]
        solve = _inverse_solver(sub)
        for b in range(m):
            col = [Fraction(int(a == b)) for a in range(m)]
            inv_col = solve(col)
            for a in range(m):
                if inv_col[a]:
                    ent[(idxs[a], idxs[b])] = QQi(inv_col[a])
    return QMat(n, n, ent)


# ---------------------------------------------------------------------------
# functors: sym2, alt2, tensor, dual, sums


def _pair_index(d: int, diagonal: bool) -> tuple[int, list[list[int]]]:
    """(count, idx) with idx[i][j] = idx[j][i] the position of the unordered
    pair {i, j} among i <= j (diagonal) or i < j in lexicographic order."""
    idx = [[-1] * d for _ in range(d)]
    k = 0
    for i in range(d):
        for j in range(i if diagonal else i + 1, d):
            idx[i][j] = idx[j][i] = k
            k += 1
    return k, idx


def _sym2_of(mod: ModuleGens) -> ModuleGens:
    d = mod.dim
    n, idx = _pair_index(d, diagonal=True)

    def induce(x: QMat) -> QMat:
        # x e_b = sum_a x_ab e_a acts on each slot of the monomial e_b e_other
        ent: dict[tuple[int, int], QQi] = {}
        for (a, b), v in x.entries.items():
            for other in range(d):
                key = (idx[a][other], idx[b][other])
                ent[key] = ent.get(key, QQI_ZERO) + (v + v if other == b else v)
        return QMat(n, n, ent)

    out = mod.map_all(induce)
    out.dim = n
    return out


def _alt2_of(mod: ModuleGens) -> ModuleGens:
    d = mod.dim
    if d < 2:
        raise NotRealizable("alt2 needs a module of dimension >= 2")
    n, idx = _pair_index(d, diagonal=False)

    def induce(x: QMat) -> QMat:
        # x(e_b ^ e_other) gains x_ab e_a ^ e_other; both wedges are stored
        # with the smaller index first, which fixes the sign
        ent: dict[tuple[int, int], QQi] = {}
        for (a, b), v in x.entries.items():
            for other in range(d):
                if other == a or other == b:
                    continue
                key = (idx[a][other], idx[b][other])
                ent[key] = ent.get(key, QQI_ZERO) + (
                    v if (a < other) == (b < other) else -v
                )
        return QMat(n, n, ent)

    out = mod.map_all(induce)
    out.dim = n
    return out


# ---------------------------------------------------------------------------
# the per-factor modules as integer stacks, each certified once


@functools.lru_cache(maxsize=None)
def _factor_module(fac: Factor, kind: str, arg=None) -> ZiStack:
    """Module of a simple factor for a std, sym2, alt2, spin or weight term,
    as one certified integer stack.

    arg is the chirality of a spin term and the highest weight of a weight
    term.  The generators are ordered cartan | raising | lowering (simple
    roots, then positive roots in positive_roots order) over one
    denominator; nothing after this point reads the QMat matrices.
    """
    st = fac.simple_type
    if kind == "std":  # for exceptional factors, the smallest fundamental module
        mod = _std_module(st)
    elif kind == "sym2":
        mod = _sym2_of(_std_module(st))
    elif kind == "alt2":
        mod = _alt2_of(_std_module(st))
    elif kind == "spin":
        if fac.kind != "so":
            raise NotRealizable("spin terms need an so(n) factor")
        mod = _spin_module(fac.n, arg)
    elif kind == "weight":
        mod = _weight_module(st, arg)
    else:
        raise RepresentationError(f"unhandled term kind {kind!r}")
    stack = zi_stack(mod.cartan + mod.raising + mod.lowering, mod.dim)
    _certify(stack, build_root_system(st))
    return stack


def _root_pairings(rs: RootSystem) -> np.ndarray:
    """<beta, alpha_i^vee>, one row per positive root beta."""
    return np.array(rs.positive_roots) @ np.array(rs.cartan_matrix).T


class _Dense(NamedTuple):
    """A d x d Gaussian-integer matrix re + i*im (im None when it is real)
    whose entries are at most bound in absolute value."""

    re: np.ndarray
    im: np.ndarray | None
    bound: int

    def is_zero(self) -> bool:
        return not self.re.any() and (self.im is None or not self.im.any())


def _dense(gens: ZiStack, k: int, bound: int) -> _Dense:
    """Generator k of a stack whose entries are at most bound, densely."""
    sel, d = gens.k == k, gens.shape[1]
    re, im = np.zeros((2, d, d), gens.re.dtype)
    re[gens.row[sel], gens.col[sel]] = gens.re[sel]
    im[gens.row[sel], gens.col[sel]] = gens.im[sel]
    return _Dense(re, im if im.any() else None, bound)


def _bracket(x: _Dense, y: _Dense) -> _Dense:
    """[x, y], formed in int64 while its bound 4 * d * x.bound * y.bound
    is below INT64_SAFE, in Python ints beyond it."""
    bound = 4 * len(x.re) * x.bound * y.bound
    if bound >= INT64_SAFE:
        big = lambda a: None if a is None else a.astype(object)  # noqa: E731
        x, y = (_Dense(big(z.re), big(z.im), z.bound) for z in (x, y))
    re = x.re @ y.re - y.re @ x.re
    im = None
    if x.im is not None:
        im = x.im @ y.re - y.re @ x.im
        if y.im is not None:
            re = re - (x.im @ y.im - y.im @ x.im)
    if y.im is not None:
        part = x.re @ y.im - y.im @ x.re
        im = part if im is None else im + part
    return _Dense(re, im, bound)


def _multiple(x: _Dense, y: _Dense) -> tuple[int, int] | None:
    """x_p * conj(y_p) at the first nonzero p of y if x = c y, else None
    (also when y is zero).  It is a positive multiple of c, so c is
    nonzero iff it is nonzero and real iff its imaginary part is 0."""
    dtype = object if 2 * x.bound * y.bound >= INT64_SAFE else np.int64
    xr, xi, yr, yi = (
        np.zeros(x.re.shape, dtype) if a is None else a.astype(dtype, copy=False)
        for a in (x.re, x.im, y.re, y.im)
    )
    nz = np.flatnonzero((yr != 0) | (yi != 0))
    if not nz.size:
        return None
    a, b, c, e = (int(m.flat[nz[0]]) for m in (xr, xi, yr, yi))
    # x (c + ie) = y (a + ib), entrywise
    if (xr * c - xi * e != yr * a - yi * b).any() or (xr * e + xi * c != yr * b + yi * a).any():
        return None
    return a * c + b * e, b * c - a * e


def _weights(gens: ZiStack, diag: list[int]) -> np.ndarray:
    """The d x len(diag) numerators W[a, t] = (generator diag[t])[a, a];
    raises unless each of those generators is real and diagonal."""
    n, d, _ = gens.shape
    column = np.full(n, -1)
    column[diag] = np.arange(len(diag))
    sel = column[gens.k] >= 0
    if (gens.row[sel] != gens.col[sel]).any() or gens.im[sel].any():
        raise RepresentationError("Cartan or torus generator is not real diagonal")
    w = np.zeros((d, len(diag)), gens.re.dtype)
    w[gens.row[sel], column[gens.k[sel]]] = gens.re[sel]
    return w


def _weight_fault(gens: ZiStack, w: np.ndarray, eig: np.ndarray, first: int, npos: int):
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


def _certify(mod: ZiStack, rs: RootSystem) -> None:
    """Certify that an integer module stack represents the algebra of rs.

    With every h_i diagonal, these are the Chevalley-Serre relations on the
    simple generators, which present the algebra (Serre's theorem):
    [h_i, x] = <alpha, alpha_i^vee> x on each e_alpha and the negative on
    f_alpha, checked entrywise; [e_i, f_j] = delta_ij c_i h_i with c_i a
    nonzero real, so that f_i / c_i is the Chevalley partner of e_i;
    ad(e_i)^(1 - a_ij) e_j = 0 and ad(f_i)^(1 - a_ij) f_j = 0 for i != j.
    Every other root vector must be a nonzero multiple of the bracket of a
    simple root vector with the root vector it is built from.  A module
    whose generators are all zero is the trivial module.  Products are
    formed one d x d pair at a time; no elimination is used.
    """
    r, A, roots = rs.rank, rs.cartan_matrix, rs.positive_roots
    npos = len(roots)
    n, d, d2 = mod.shape
    if n != r + 2 * npos:
        raise RepresentationError("module has the wrong number of generators")
    if d2 != d or ((mod.row < 0) | (mod.row >= d) | (mod.col < 0) | (mod.col >= d)).any():
        raise RepresentationError("generator shape differs from the module dimension")
    if not (mod.re.any() or mod.im.any()):
        return
    eig = np.zeros((n, r), dtype=np.int64)
    eig[r : r + npos] = _root_pairings(rs)
    eig[r + npos :] = -eig[r : r + npos]
    fault = _weight_fault(mod, _weights(mod, list(range(r))), eig, r, npos)
    if fault:
        j, kind = fault
        raise RepresentationError(f"weight relation fails on {kind}{roots[j]}")

    where = {root: k for k, root in enumerate(roots)}
    simple = [where[tuple(int(j == i) for j in range(r))] for i in range(r)]
    bound = max(_max_abs(mod.re), _max_abs(mod.im))
    e = [_dense(mod, r + k, bound) for k in simple]
    f = [_dense(mod, r + npos + k, bound) for k in simple]
    for i in range(r):
        for j in range(r):
            b = _bracket(e[i], f[j])
            if i == j:
                c = _multiple(b, _dense(mod, i, bound))
                if c is None or c == (0, 0) or c[1]:
                    raise RepresentationError(f"[e_{i}, f_{i}] is not c h_{i}")
                continue
            if not b.is_zero():
                raise RepresentationError(f"[e_{i}, f_{j}] does not vanish")
            for gens in (e, f):
                x = gens[j]
                for _ in range(1 - A[i][j]):
                    x = _bracket(gens[i], x)
                if not x.is_zero():
                    raise RepresentationError(f"Serre relation fails for ({i}, {j})")

    for k, root in enumerate(roots):
        if k in simple:
            continue
        for i in range(r):
            beta = tuple(c - (t == i) for t, c in enumerate(root))
            if beta in where:
                break
        for base, gens in ((r, e), (r + npos, f)):
            b = _bracket(gens[i], _dense(mod, base + where[beta], bound))
            if _multiple(_dense(mod, base + k, bound), b) in (None, (0, 0)):
                raise RepresentationError(
                    f"root vector of {root} is not a multiple of its bracket"
                )


# ---------------------------------------------------------------------------
# the assembled representation


@dataclass
class MatrixRep:
    """A concrete complexified action of a GroupSpec on a module.

    gens is the one store of its generators: an integer stack over one
    denominator, ordered cartan | raising | lowering | torus.
    cartan_labels and root_labels say which factor and which simple or
    positive root each Cartan generator and each raising/lowering pair
    belongs to; the torus generators follow the group's torus lines.
    borel_stack and compact_stack are the views the oracles sample.
    """

    group: GroupSpec
    rep: RepSpec
    space_dim: int
    gens: ZiStack
    cartan_labels: list[tuple[int, int]]  # (factor index, simple root index)
    root_labels: list[tuple[int, tuple[int, ...]]]  # (factor index, root coords)
    summand_slices: list[tuple[int, int]]

    @property
    def n_torus(self) -> int:
        return self.gens.shape[0] - len(self.cartan_labels) - 2 * len(self.root_labels)

    @functools.cached_property
    def borel_stack(self) -> ZiStack:
        """The Borel generators cartan | raising | torus, selected from gens."""
        g, nc, npos = self.gens, len(self.cartan_labels), len(self.root_labels)
        keep = (g.k < nc + npos) | (g.k >= nc + 2 * npos)
        k = g.k[keep] - npos * (g.k[keep] >= nc + npos)
        shape = (g.shape[0] - npos, *g.shape[1:])
        return ZiStack(shape, k, g.row[keep], g.col[keep], g.re[keep], g.im[keep], g.den)

    @functools.cached_property
    def compact_stack(self) -> ZiStack:
        """The compact real form: i*h, then e - f and i*(e + f) for each
        positive root, then i*t, as one stack."""
        g, nc, npos = self.gens, len(self.cartan_labels), len(self.root_labels)
        lowering = (g.k >= nc + npos) & (g.k < nc + 2 * npos)
        root = (g.k >= nc) & (g.k < nc + 2 * npos)
        j = g.k - nc - npos * lowering
        sign = np.where(lowering, -1, 1)
        # i * x at k for h and t, at nc + 2j + 1 for e and f; e - f at nc + 2j
        k = np.concatenate([np.where(root, nc + 2 * j + 1, g.k), (nc + 2 * j)[root]])
        row = np.concatenate([g.row, g.row[root]])
        col = np.concatenate([g.col, g.col[root]])
        re = np.concatenate([-g.im, (sign * g.re)[root]])
        im = np.concatenate([g.re, (sign * g.im)[root]])
        return _coalesce(g.shape, k, row, col, re, im, g.den)


def _coalesce(shape, k, row, col, re, im, den) -> ZiStack:
    """The stack of these entries with the ones at one position summed and
    zeros dropped, in (k, row, col) order."""
    d = max(shape[1], 1)
    key = (k * d + row) * d + col
    uniq, at = np.unique(key, return_inverse=True)
    sre, sim = np.zeros(uniq.size, re.dtype), np.zeros(uniq.size, im.dtype)
    np.add.at(sre, at, re)
    np.add.at(sim, at, im)
    keep = (sre != 0) | (sim != 0)
    uniq = uniq[keep]
    return ZiStack(shape, uniq // (d * d), uniq // d % d, uniq % d, sre[keep], sim[keep], den)


def _term_module(group: GroupSpec, term: Term, chirality: int) -> tuple[int, ZiStack | None, int]:
    """(factor index, module, dimension) of one term; (-1, None, 1) for a
    trivial slot."""
    if term.kind == "triv":
        return -1, None, 1
    fidx = term.factor - 1
    if fidx >= len(group.factors):
        raise RepresentationError(f"factor index {term.factor} out of range")
    fac = group.factors[fidx]
    if fac.simple_type is None:
        # genuinely trivial factors contribute one-dimensional slots
        if fac.std_dim == 1 and term.kind in ("std", "sym2"):
            return -1, None, 1
        raise NotRealizable(
            f"term {term.kind} of {fac}: the factor has no semisimple part; "
            f"encode its circle action as a torus line"
        )
    arg = {"spin": chirality, "weight": term.weight}.get(term.kind)
    mod = _factor_module(fac, term.kind, arg)
    return fidx, mod, mod.shape[1]


def realize(
    group: GroupSpec,
    rep: RepSpec,
    chirality: int = 1,
) -> MatrixRep:
    """Build the matrix model of a representation specification.

    Assembly is index arithmetic on the certified module stacks: a slot's
    entries are spread over the identity factors before and after it, a
    dual summand maps x to -x^T in the reversed basis, summands sit at
    their offsets and torus lines add their charges on the diagonal.
    Entries at one position, from a factor filling two slots, are summed.
    """
    n_circ = group.n_circles
    summands = []
    off = 0
    for sm in rep.summands:
        if len(sm.charges) not in (0, n_circ):
            raise RepresentationError(
                f"summand charge arity {len(sm.charges)} != circles {n_circ}"
            )
        slots = [_term_module(group, t, chirality) for t in sm.terms]
        d = prod(n for _, _, n in slots)
        if d < 1:
            raise RepresentationError("summand has dimension < 1")
        summands.append((off, d, sm, slots))
        off += d
    total = off

    cartan_labels, root_labels, first = [], [], {}
    for fidx, fac in enumerate(group.factors):
        if fac.simple_type is not None:
            rs = build_root_system(fac.simple_type)
            first[fidx] = (len(cartan_labels), len(root_labels), rs.rank, rs.n_positive_roots)
            cartan_labels += [(fidx, i) for i in range(rs.rank)]
            root_labels += [(fidx, root) for root in rs.positive_roots]
    nc, npos, n_torus = len(cartan_labels), len(root_labels), len(group.torus_lines)
    # generator index in a factor's module -> index in the assembled stack
    kmaps = {
        f: np.r_[c : c + r, nc + p : nc + p + n, nc + npos + p : nc + npos + p + n]
        for f, (c, p, r, n) in first.items()
    }

    den = lcm(*(m.den for *_, slots in summands for _, m, _ in slots if m is not None))

    def values(x, scale: int, terms: int) -> np.ndarray:
        # a sum of terms such entries stays in int64 below INT64_SAFE
        big = terms * scale * _max_abs(x) >= INT64_SAFE
        return x.astype(object if big else np.int64) * scale

    parts = []
    for off, d, sm, slots in summands:
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
                re, im = (values(spread(x), den // m.den, len(slots)) for x in (m.re, m.im))
                if sm.dual:
                    row, col, re, im = d - 1 - col, d - 1 - row, -re, -im
                parts.append((kmaps[fidx][spread(m.k)], row + off, col + off, re, im))
            before *= n
        charges = sm.charges or (0,) * n_circ
        for t, line in enumerate(group.torus_lines):
            net = sum(a * c for a, c in zip(line, charges))
            if net:
                idx = np.arange(off, off + d)
                val = values(np.full(d, net), den, 1)
                parts.append((np.full(d, nc + 2 * npos + t), idx, idx, val, 0 * val))

    k, row, col, re, im = (
        np.concatenate([p[t] for p in parts]) if parts else np.zeros(0, np.int64)
        for t in range(5)
    )
    out = MatrixRep(
        group=group,
        rep=rep,
        space_dim=total,
        gens=_coalesce((nc + 2 * npos + n_torus, total, total), k, row, col, re, im, den),
        cartan_labels=cartan_labels,
        root_labels=root_labels,
        summand_slices=[(o, o + d) for o, d, _, _ in summands],
    )
    validate_matrix_rep(out)
    return out


def spin_rep(n: int, chirality: int = 1) -> MatrixRep:
    """Spin module of so(n) as a standalone representation, 3 <= n <= 12."""
    group = GroupSpec(factors=(Factor("so", n),))
    rep = RepSpec(summands=(Summand(terms=(Term("spin", 1),)),))
    return realize(group, rep, chirality=chirality)


# ---------------------------------------------------------------------------
# validation


def validate_matrix_rep(rep: MatrixRep) -> None:
    """Structural checks on an assembled representation, linear in its nonzeros.

    Each per-factor module is certified once, when it is built (_certify).
    Kron with identities, block sums and the dual map x -> -x^T in the
    reversed basis are Lie-algebra homomorphisms, so assembly only needs
    guarding: Cartan and torus generators are real diagonal, raising
    generators strictly upper triangular, and every root vector satisfies
    the weight relation entrywise, W[a] - W[b] = +-eig on each nonzero
    (a, b) for the weight matrix W of the Cartan and torus diagonals, with
    eigenvalue 0 under the Cartan generators of the other factors and under
    the torus, so the torus commutes with it.
    """
    g, nc, npos = rep.gens, len(rep.cartan_labels), len(rep.root_labels)
    raising = (g.k >= nc) & (g.k < nc + npos)
    if (g.row[raising] >= g.col[raising]).any():
        raise RepresentationError("raising generator is not strictly upper")
    diag = [*range(nc), *range(nc + 2 * npos, g.shape[0])]
    w = _weights(g, diag)
    column = {label: t for t, label in enumerate(rep.cartan_labels)}
    eig = np.zeros((g.shape[0], len(diag)), dtype=np.int64)
    for fidx in dict.fromkeys(f for f, _ in rep.root_labels):
        rs = build_root_system(rep.group.factors[fidx].simple_type)
        own = dict(zip(rs.positive_roots, _root_pairings(rs)))
        rows = [j for j, (f, _) in enumerate(rep.root_labels) if f == fidx]
        cols = [column[(fidx, i)] for i in range(rs.rank)]
        eig[np.ix_([nc + j for j in rows], cols)] = [own[rep.root_labels[j][1]] for j in rows]
    eig[nc + npos : nc + 2 * npos] = -eig[nc : nc + npos]
    fault = _weight_fault(g, w, eig, nc, npos)
    if fault:
        j, kind = fault
        fidx, root = rep.root_labels[j]
        raise RepresentationError(f"weight relation fails on {kind}{root} of factor {fidx}")


# ---------------------------------------------------------------------------
# invariant bilinear forms


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
    realified integer system goes to int_kernel.  Returns one of 'none',
    'symmetric', 'antisymmetric', 'degenerate-space'.  A solution space of
    complex dimension above one flags a reducible input.
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
    m = eqs.size
    # the realification [[re, -im], [im, re]] of the complex system
    a = np.zeros((2 * m, 2 * nu), g.re.dtype)
    np.add.at(a, (at, u), g.re[s])
    np.add.at(a, (at, nu + u), -g.im[s])
    np.add.at(a, (m + at, u), g.im[s])
    np.add.at(a, (m + at, nu + u), g.re[s])
    _, kernel = int_kernel(a)
    if not kernel.shape[1]:
        return "none"
    if kernel.shape[1] > 2:
        raise RepresentationError(
            "invariant form space has dimension above one: input is reducible"
        )
    b_re, b_im = np.zeros((d, d), object), np.zeros((d, d), object)
    b_re[ui, uj], b_im[ui, uj] = kernel[:nu, 0], kernel[nu:, 0]
    if (b_re.T == b_re).all() and (b_im.T == b_im).all():
        sym = "symmetric"
    elif (b_re.T == -b_re).all() and (b_im.T == -b_im).all():
        sym = "antisymmetric"
    else:
        raise RepresentationError("invariant form is neither symmetric nor skew")
    if complex_rank(ZiArray(b_re, b_im)) < d:
        return "degenerate-space"
    return sym


# ---------------------------------------------------------------------------
# genuinely real representations (for slice chains over the reals)


@dataclass
class RealRep:
    """A compact Lie algebra acting by real matrices on a real vector space."""

    dim: int
    gens: list[QMat]  # entries are real rationals

    def __post_init__(self):
        for g in self.gens:
            for v in g.entries.values():
                if v.im:
                    raise RepresentationError("RealRep generator must be real")

    @functools.cached_property
    def compact_stack(self) -> ZiStack:
        """Integer view of gens: one (n, dim, dim) stack."""
        return zi_stack(self.gens, self.dim)


def so_vector_gens(n: int) -> list[QMat]:
    """Basis E_ab - E_ba (a < b) of so(n) on R^n."""
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            out.append(QMat(n, n, {(a, b): QQI_ONE, (b, a): QQi(-1)}))
    return out


_OCT_TRIPLES = tuple(
    tuple((x - 1) % 7 + 1 for x in (1 + t, 2 + t, 4 + t)) for t in range(7)
)


@functools.lru_cache(maxsize=1)
def octonion_left_mult() -> list[QMat]:
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
    out = []
    for a in range(1, 8):
        ent = {}
        for j in range(8):
            sgn, tgt = mult[(a, j)]
            ent[(tgt, j)] = QQi(sgn)
        out.append(QMat(8, 8, ent))
    return out


@functools.lru_cache(maxsize=1)
def spin7_real_gens() -> list[QMat]:
    """Real 8x8 spin generators paired with the E_ab - E_ba order of so(7).

    Built from octonion left multiplications L_a with L_a^2 = -1; the map
    E_ab - E_ba -> -[L_a, L_b]/4 matches the vector structure constants.
    """
    L = octonion_left_mult()
    quarter = QQi(Fraction(-1, 4))
    out = []
    for a in range(7):
        for b in range(a + 1, 7):
            out.append(commutator(L[a], L[b]).scale(quarter))
    return out


def real_block_rep(blocks: list[tuple[str, int]]) -> RealRep:
    """Diagonal so(7) action on a sum of blocks.

    Block kinds: 'triv' (given dimension), 'vec7' (R^7 vector action),
    'spin8' (R^8 real spin action).  Generators are indexed by the pairs
    (a, b), a < b, of so(7).
    """
    vec = so_vector_gens(7)
    spn = spin7_real_gens()
    n_gens = len(vec)
    gens = []
    for gi in range(n_gens):
        parts = []
        for kind, d in blocks:
            if kind == "triv":
                parts.append(QMat.zeros(d, d))
            elif kind == "vec7":
                parts.append(vec[gi])
            elif kind == "spin8":
                parts.append(spn[gi])
            else:
                raise RepresentationError(f"unknown real block {kind!r}")
        gens.append(block_diag(parts))
    dim = sum(d for _, d in blocks)
    return RealRep(dim=dim, gens=gens)
