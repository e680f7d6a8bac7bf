"""Reference lattice arithmetic for the tests: normal forms, determinants
and integer solving.

`hermite_normal_form`, `smith_normal_form` and `unimodular_inverse` are the
library's earlier versions, which kept each transform in a list of its own
updated beside the rows; the library's must return exactly their matrices.
`determinant` is Bareiss's fraction-free elimination, which shares no code
with the Hermite and Smith forms it checks; `in_integer_span` answers
lattice membership from its minors alone.  `solve_integer` answers lattice
membership from one reference Hermite form; the tests use it as an oracle
for kernels and zero-sum solutions.
"""

import itertools
import math

from preordgrp.errors import DimensionError
from preordgrp.intmat import IntMatrix, Vec, row_times_matrix, solve_left, xgcd


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF: returns (h, u) with u * m = h and u unimodular.

    h is in row echelon form with strictly increasing pivot columns,
    positive pivots, entries above each pivot reduced into [0, pivot),
    and zero rows collected at the bottom.
    """
    work = [list(m.row(i)) for i in range(m.rows)]
    u = [list(IntMatrix.identity(m.rows).row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivot = 0
    for col in range(ncols):
        if pivot >= nrows:
            break
        # Clear the column below `pivot` by pairwise unimodular combinations.
        for i in range(pivot + 1, nrows):
            if work[i][col] == 0:
                continue
            a, b = work[pivot][col], work[i][col]
            if a == 0:
                work[pivot], work[i] = work[i], work[pivot]
                u[pivot], u[i] = u[i], u[pivot]
                continue
            if b % a == 0:
                q = b // a
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot])]
                continue
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            rp, ri = work[pivot], work[i]
            up, ui = u[pivot], u[i]
            work[pivot] = [s * p + t * q for p, q in zip(rp, ri)]
            work[i] = [-bb * p + aa * q for p, q in zip(rp, ri)]
            u[pivot] = [s * p + t * q for p, q in zip(up, ui)]
            u[i] = [-bb * p + aa * q for p, q in zip(up, ui)]
        if work[pivot][col] == 0:
            continue
        if work[pivot][col] < 0:
            work[pivot] = [-x for x in work[pivot]]
            u[pivot] = [-x for x in u[pivot]]
        p = work[pivot][col]
        for i in range(pivot):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot])]
        pivot += 1
    h = IntMatrix.from_rows(work, cols=ncols)
    return h, IntMatrix.from_rows(u, cols=nrows)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (d, u, v) with u * m * v = d, u and v unimodular.

    d is diagonal with nonnegative entries and d[i] divides d[i+1].
    """
    work = [list(m.row(i)) for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    u = [list(IntMatrix.identity(nrows).row(i)) for i in range(nrows)]
    v = [list(IntMatrix.identity(ncols).row(i)) for i in range(ncols)]

    def col_combine(j0: int, j1: int, a: int, b: int, c: int, d_: int):
        # columns (j0, j1) <- (a*j0 + c*j1, b*j0 + d*j1); right-multiplying
        # by a unimodular block keeps u * m * v = work.
        for r in work:
            x, y = r[j0], r[j1]
            r[j0], r[j1] = a * x + c * y, b * x + d_ * y
        for r in v:
            x, y = r[j0], r[j1]
            r[j0], r[j1] = a * x + c * y, b * x + d_ * y

    def row_combine(i0: int, i1: int, a: int, b: int, c: int, d_: int):
        # rows (i0, i1) <- (a*i0 + b*i1, c*i0 + d*i1)
        r0 = [a * x + b * y for x, y in zip(work[i0], work[i1])]
        r1 = [c * x + d_ * y for x, y in zip(work[i0], work[i1])]
        work[i0], work[i1] = r0, r1
        s0 = [a * x + b * y for x, y in zip(u[i0], u[i1])]
        s1 = [c * x + d_ * y for x, y in zip(u[i0], u[i1])]
        u[i0], u[i1] = s0, s1

    for k in range(min(nrows, ncols)):
        while True:
            # Pick the nonzero entry of smallest magnitude in the trailing block.
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    e = work[i][j]
                    if e and (best is None or abs(e) < abs(work[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != k:
                work[k], work[bi] = work[bi], work[k]
                u[k], u[bi] = u[bi], u[k]
            if bj != k:
                for r in work:
                    r[k], r[bj] = r[bj], r[k]
                for r in v:
                    r[k], r[bj] = r[bj], r[k]
            # Clear row k and column k.  When the pivot divides the target,
            # plain subtraction leaves the pivot row/column untouched; the
            # full xgcd transform strictly shrinks the pivot otherwise, so
            # the surrounding while loop terminates.
            for i in range(k + 1, nrows):
                if work[i][k]:
                    a, b = work[k][k], work[i][k]
                    if b % a == 0:
                        row_combine(k, i, 1, 0, -(b // a), 1)
                    else:
                        g, s, t = xgcd(a, b)
                        row_combine(k, i, s, t, -(b // g), a // g)
            for j in range(k + 1, ncols):
                if work[k][j]:
                    a, b = work[k][k], work[k][j]
                    if b % a == 0:
                        col_combine(k, j, 1, -(b // a), 0, 1)
                    else:
                        g, s, t = xgcd(a, b)
                        col_combine(k, j, s, -(b // g), t, a // g)
            if any(work[i][k] for i in range(k + 1, nrows)):
                continue
            if any(work[k][j] for j in range(k + 1, ncols)):
                continue
            # Enforce divisibility of the trailing block by the pivot.
            pivot_val = work[k][k]
            culprit = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if pivot_val and work[i][j] % pivot_val:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_combine(k, culprit, 1, 1, 0, 1)
        if work[k][k] < 0:
            for j in range(ncols):
                work[k][j] = -work[k][j]
            u[k] = [-x for x in u[k]]
    d = IntMatrix.from_rows(work, cols=ncols)
    return d, IntMatrix.from_rows(u, cols=nrows), IntMatrix.from_rows(v, cols=ncols)


def unimodular_inverse(v: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix, computed exactly."""
    if v.rows != v.cols:
        raise DimensionError("inverse of non-square matrix")
    rows = []
    ident = IntMatrix.identity(v.rows)
    h, u = hermite_normal_form(v)
    for i in range(v.rows):
        y = solve_left(h, ident.row(i))
        if y is None:
            raise DimensionError("matrix is not unimodular")
        rows.append(row_times_matrix(y, u))
    return IntMatrix.from_rows(rows, cols=v.rows)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise DimensionError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(m.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_integer(a: IntMatrix, b: Vec) -> Vec | None:
    """Find an integer row x with x * a = b, or None if there is none."""
    h, u = hermite_normal_form(a)
    y = solve_left(h, b)
    if y is None:
        return None
    return row_times_matrix(y, u)


def _minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of the k x k minors of m: 1 for k = 0, 0 when all vanish."""
    return math.gcd(*(
        determinant(IntMatrix.from_rows([[m.entry(r, c) for c in cs] for r in rs], cols=k))
        for rs in itertools.combinations(range(m.rows), k)
        for cs in itertools.combinations(range(m.cols), k)
    ))


def in_integer_span(m: IntMatrix, x: Vec) -> bool:
    """x lies in the integer row span of m.

    Appending x to m's rows gives a lattice holding m's.  When both have
    rank r = rank(m), m's has index d_r(m) / d_r(m, x) in it, where d_r is
    the gcd of the r x r minors; so x lies in m's lattice exactly when the
    rank stays r and d_r stays the same.
    """
    with_x = IntMatrix.from_rows([*m.to_rows(), tuple(x)], cols=m.cols)
    r = max(k for k in range(min(m.rows, m.cols) + 1) if _minors_gcd(m, k))
    return _minors_gcd(with_x, r + 1) == 0 and _minors_gcd(with_x, r) == _minors_gcd(m, r)
