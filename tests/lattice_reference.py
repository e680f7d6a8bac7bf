"""Reference lattice arithmetic for the tests: determinants and integer solving.

`determinant` is Bareiss's fraction-free elimination, which shares no code
with the Hermite and Smith forms it checks.  `solve_integer` answers lattice
membership from one Hermite form; the tests use it as an oracle for kernels
and zero-sum solutions.
"""

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
