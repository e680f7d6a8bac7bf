"""Reference lattice arithmetic for the tests: determinants and integer solving.

`determinant` is Bareiss's fraction-free elimination, which shares no code
with the Hermite and Smith forms it checks; `in_integer_span` answers
lattice membership from its minors alone.  `solve_integer` answers lattice
membership from one Hermite form; the tests use it as an oracle for kernels
and zero-sum solutions.
"""

import itertools
import math

from preordgrp.errors import DimensionError
from preordgrp.intmat import IntMatrix, Vec, hermite_normal_form, row_times_matrix, solve_left


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
