"""Textbook exact eliminations that the tests check the program against.

The program has one exact elimination, the verified modular kernel
``linalg.int_kernel``.  These independent references stay in the tests
only: the reduced row echelon form over Fraction, the kernel read off it,
and the fraction-free (Bareiss) rank of an integer matrix.
"""

from fractions import Fraction


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
