"""Exact integer matrix arithmetic: normal forms, solving, Hilbert bases.

Everything here is over Python's arbitrary-precision integers; no floating
point enters any decision.  Vectors are rows, and matrices act on the right
(x * m), so composing morphisms multiplies their matrices in application
order.

Conventions fixed here and relied on elsewhere:
  * hermite_normal_form(m) returns (h, u) with u * m = h, u unimodular,
    h in row echelon form with positive pivots and reduced entries above.
  * smith_normal_form(m) returns (d, v) with u * m * v = d diagonal,
    nonnegative, each entry dividing the next, for some unimodular u.
  * Transforms ride along as extra columns (row operations) or rows
    (column operations) of the working matrix, so each operation updates
    its transform with it.  Like hnf_reduced, which builds none, the Smith
    form builds only the transform its callers read, v.  A unimodular
    matrix's HNF is the identity, so its HNF transform is its inverse.
  * hilbert_basis(a) returns the minimal nonzero solutions of a * x = 0,
    x >= 0, via the Contejean-Devie completion procedure.  It visits the
    same states as the plain loop in tests/hilbert_reference.py, each
    packed into two ints: the state t in fields of
    (state_cap + 1).bit_length() + 1 bits, and its Gram vector d = G*t,
    biased, in fields of ((state_cap + 1) * max|G|).bit_length() + 1 bits.
  * nonneg_search(g, m, x) returns nonneg_feasible's answer, coefficients
    a >= 0 with x - a*g in rowspan(m) or None, and the number of completion
    states visited: every state_cap at least that number gives the same
    answer, every smaller one raises ResourceLimitError.  preord's
    membership cache relies on this.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError, ResourceLimitError

Vec = tuple[int, ...]

# Frontier budget for the Hilbert-basis completion; exceeding it raises
# ResourceLimitError instead of grinding on.
HILBERT_STATE_CAP = 10**6


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if type(e) is not int:
                raise DimensionError(f"non-integer entry {e!r}")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise DimensionError(f"declared {cols} cols, rows have {width}")
            cols = width
            if any(len(r) != cols for r in rows):
                raise DimensionError("ragged rows")
        elif cols is None:
            raise DimensionError("empty matrix needs an explicit column count")
        flat = tuple(x for r in rows for x in r)
        return IntMatrix(len(rows), cols, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> tuple[Vec, ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            r = self.row(i)
            acc = [0] * other.cols
            for k, coeff in enumerate(r):
                if coeff:
                    ork = orows[k]
                    for j in range(other.cols):
                        acc[j] += coeff * ork[j]
            out.append(acc)
        return IntMatrix.from_rows(out, cols=other.cols)

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionError(f"stack {self.cols} cols with {other.cols}")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def vec_dot(x: Vec, y: Vec) -> int:
    return sum(a * b for a, b in zip(x, y))


def vec_is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def row_times_matrix(x: Vec, m: IntMatrix) -> Vec:
    if len(x) != m.rows:
        raise DimensionError(f"row of length {len(x)} times {m.rows}x{m.cols}")
    acc = [0] * m.cols
    for k, coeff in enumerate(x):
        if coeff:
            rk = m.row(k)
            for j in range(m.cols):
                acc[j] += coeff * rk[j]
    return tuple(acc)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _echelon(work: list[list[int]], ncols: int) -> list[list[int]]:
    """work with its first ncols columns put in Hermite form, in place.
    Row operations act on whole rows, carrying any columns past ncols."""
    nrows = len(work)
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
                continue
            if b % a == 0:
                q = b // a
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot])]
                continue
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            rp, ri = work[pivot], work[i]
            work[pivot] = [s * p + t * q for p, q in zip(rp, ri)]
            work[i] = [-bb * p + aa * q for p, q in zip(rp, ri)]
        if work[pivot][col] == 0:
            continue
        if work[pivot][col] < 0:
            work[pivot] = [-x for x in work[pivot]]
        p = work[pivot][col]
        for i in range(pivot):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[pivot])]
        pivot += 1
    return work


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF: returns (h, u) with u * m = h and u unimodular.

    h is in row echelon form with strictly increasing pivot columns,
    positive pivots, entries above each pivot reduced into [0, pivot),
    and zero rows collected at the bottom.
    """
    n = m.rows
    work = _echelon([[*m.row(i), *(int(i == j) for j in range(n))] for i in range(n)], m.cols)
    h = IntMatrix.from_rows([r[: m.cols] for r in work], cols=m.cols)
    return h, IntMatrix.from_rows([r[m.cols :] for r in work], cols=n)


def hnf_reduced(m: IntMatrix) -> IntMatrix:
    """Canonical basis of rowspan(m): HNF rows with zero rows dropped."""
    work = _echelon([list(m.row(i)) for i in range(m.rows)], m.cols)
    return IntMatrix.from_rows([r for r in work if any(r)], cols=m.cols)


@lru_cache(maxsize=4096)
def integer_span(gens: IntMatrix, modulus: IntMatrix) -> IntMatrix:
    """hnf_reduced(gens stacked on modulus): the canonical basis of the
    integer combinations of both, cached since membership queries repeat."""
    return hnf_reduced(gens.stack(modulus))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (d, v) with u * m * v = d for some unimodular u, v unimodular.

    d is diagonal with nonnegative entries and d[i] divides d[i+1].
    """
    nrows, ncols = m.rows, m.cols
    # v rides along as the rows past nrows; no caller reads u.
    work = [list(m.row(i)) for i in range(nrows)]
    work += [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def col_combine(j0: int, j1: int, a: int, b: int, c: int, d_: int):
        # columns (j0, j1) <- (a*j0 + c*j1, b*j0 + d*j1); right-multiplying
        # by a unimodular block keeps u * m * v = work.
        for r in work:
            x, y = r[j0], r[j1]
            r[j0], r[j1] = a * x + c * y, b * x + d_ * y

    def row_combine(i0: int, i1: int, a: int, b: int, c: int, d_: int):
        # rows (i0, i1) <- (a*i0 + b*i1, c*i0 + d*i1)
        r0 = [a * x + b * y for x, y in zip(work[i0], work[i1])]
        r1 = [c * x + d_ * y for x, y in zip(work[i0], work[i1])]
        work[i0], work[i1] = r0, r1

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
            if bj != k:
                for r in work:
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
            # Row k stays clear: each column step touches only columns k and j.
            if any(work[i][k] for i in range(k + 1, nrows)):
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
            work[k] = [-x for x in work[k]]
    d = IntMatrix.from_rows(work[:nrows], cols=ncols)
    return d, IntMatrix.from_rows(work[nrows:], cols=ncols)


def solve_left(h: IntMatrix, b: Vec) -> Vec | None:
    """Solve y * h = b for h in row echelon form (as produced by HNF)."""
    if len(b) != h.cols:
        raise DimensionError("target length does not match matrix columns")
    residual = list(b)
    y = [0] * h.rows
    for i in range(h.rows):
        r = h.row(i)
        lead = next((j for j, e in enumerate(r) if e), None)
        if lead is None:
            continue
        if residual[lead] % r[lead]:
            return None
        c = residual[lead] // r[lead]
        y[i] = c
        if c:
            for j in range(h.cols):
                residual[j] -= c * r[j]
    if any(residual):
        return None
    return tuple(y)


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of {x : x * m = 0}."""
    h, u = hermite_normal_form(m)
    rows = [u.row(i) for i in range(h.rows) if vec_is_zero(h.row(i))]
    return IntMatrix.from_rows(rows, cols=m.rows)


def unimodular_inverse(v: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix: the transform of its HNF."""
    if v.rows != v.cols:
        raise DimensionError("inverse of non-square matrix")
    h, u = hermite_normal_form(v)
    if h != IntMatrix.identity(v.rows):
        raise DimensionError("matrix is not unimodular")
    return u


def _hilbert_completion(cols: list[Vec], state_cap: int, early) -> tuple[tuple[Vec, ...], int]:
    """hilbert_basis of the system with these columns, and the number of
    states visited: the same states, level by level, as the plain loop kept
    in tests/hilbert_reference.py.  When early is not None the search stops
    at the first level that records a solution satisfying it, and the basis
    returned may be incomplete; existence queries stop there.

    A state t carries d = G*t, G the Gram matrix of the columns, in place of
    A*t: d[i] = <A*t, A*e_i> is the branch test, and d = 0 exactly when
    A*t = 0, since t.d = |A*t|^2.  t and d are each packed into one int,
    coordinate j in field j: t in fields of tw bits, d biased by 2^(dw-1) in
    fields of dw bits.  A field of d has its top bit set exactly when
    d[j] >= 0, and d = 0 packs to `top`, those top bits alone.

    Bounds: a level-L state has coordinate sum L, and level L is built only
    after levels 1..L-1 each added a state to visited <= state_cap, so
    L <= state_cap + 1.  Hence t's fields stay below 2^(tw-1), and with
    `high` the top bits of t's fields, b <= s componentwise exactly when
    ((s | high) - b) & high == high: no field borrows.  And |d[j]| <=
    L * max|G| < 2^(dw-1) keeps every biased field of d inside [1, 2^dw).
    """
    nvars = len(cols)
    visited = nvars
    if visited > state_cap:
        raise ResourceLimitError(f"Hilbert completion exceeded {state_cap} states")
    gram = [[vec_dot(a, b) for b in cols] for a in cols]
    max_g = max((abs(g) for row in gram for g in row), default=0)
    tw = (state_cap + 1).bit_length() + 1
    dw = ((state_cap + 1) * max_g).bit_length() + 1
    field = (1 << tw) - 1
    high = sum(1 << (j * tw + tw - 1) for j in range(nvars))
    top = sum(1 << (j * dw + dw - 1) for j in range(nvars))
    # per coordinate i: e_i, the mask of t's field i, and G[i] packed unbiased
    moves = [
        (1 << (i * tw), field << (i * tw), sum(g << (j * dw) for j, g in enumerate(row)))
        for i, row in enumerate(gram)
    ]

    def unpack(t: int) -> Vec:
        return tuple((t >> (j * tw)) & field for j in range(nvars))

    basis: list[int] = []
    # by_coord[s & mask_i]: the basis elements b with b[i] == s[i] > 0.  Keys
    # of different coordinates sit in different fields, so one dict holds all.
    by_coord: dict[int, list[int]] = {}
    frontier = {unit: top + g_i for unit, _, g_i in moves}
    while frontier:
        solved = [t for t, d in frontier.items() if d == top]
        basis += solved
        for b in solved:
            for _, mask, _ in moves:
                if b & mask:
                    by_coord.setdefault(b & mask, []).append(b)
        if early is not None and any(early(unpack(s)) for s in solved):
            return tuple(sorted(map(unpack, basis))), visited
        # The next level's key set does not depend on the order t is taken in.
        nxt: dict[int, int] = {}
        while frontier:
            t, d = frontier.popitem()
            neg = ~d & top  # the fields with d[i] < 0, lowest i first; none once d = 0
            while neg:
                low = neg & -neg
                neg ^= low
                unit, mask, g_i = moves[low.bit_length() // dw - 1]
                s = t + unit
                if s in nxt:
                    continue
                # No basis element lies below t, so one below s = t + e_i
                # must agree with s in coordinate i.
                for b in by_coord.get(s & mask, ()):
                    if ((s | high) - b) & high == high:
                        break
                else:
                    nxt[s] = d + g_i
        visited += len(nxt)
        if visited > state_cap:
            raise ResourceLimitError(f"Hilbert completion exceeded {state_cap} states")
        frontier = nxt
    return tuple(sorted(map(unpack, basis))), visited


def hilbert_basis(system: IntMatrix, state_cap: int = HILBERT_STATE_CAP) -> tuple[Vec, ...]:
    """Minimal nonzero nonnegative integer solutions of system * x = 0.

    Contejean-Devie completion: grow candidate vectors from the unit
    vectors, branching on coordinate i only while <A*t, A*e_i> < 0, and
    prune anything componentwise above an already-found solution.
    Breadth-first order makes every recorded solution minimal; the branch
    rule makes the recorded set complete.

    state_cap bounds the total number of states visited.
    """
    return _hilbert_completion([system.col(j) for j in range(system.cols)], state_cap, None)[0]


def _size_reduced(basis: list[Vec]) -> list[Vec]:
    """basis with each vector shortened by the nearest multiple of another
    while that shortens it; the sum of squared lengths falls each time."""
    shortened = True
    while shortened:
        shortened = False
        for i, j in itertools.permutations(range(len(basis)), 2):
            a, b = basis[i], basis[j]
            q = (2 * vec_dot(a, b) + vec_dot(b, b)) // (2 * vec_dot(b, b))
            c = tuple(p - q * r for p, r in zip(a, b))
            if vec_dot(c, c) < vec_dot(a, a):
                basis[i], shortened = c, True
    return basis


def _congruence_columns(gens: IntMatrix, modulus: IntMatrix, x: Vec | None) -> list[Vec]:
    """Columns of c*gens = y*x modulo rowspan(modulus) over (c, y, slacks),
    or of c*gens = 0 over (c, slacks) when x is None, in Smith coordinates.

    With u*modulus*v = d, z lies in rowspan(modulus) exactly when each
    z*v[:, i] is divisible by d[i], and is 0 where d[i] = 0.  Coordinates
    with d[i] = 1 drop out.  Free ones stay exact equations, over v's free
    columns shortened: long, nearly parallel ones can make the completion
    wander through 10^6 states.  Each d[i] > 1 reduces every entry, the y
    column's -x too, into [0, d[i]) and gets a slack column -d[i], so the
    slack is fixed by c and y, and nonnegative.
    """
    n = gens.cols
    if modulus.cols != n or (x is not None and len(x) != n):
        raise DimensionError("modulus and target must match generator columns")
    d, v = smith_normal_form(modulus)
    factors = [f for f in (d.entry(i, i) for i in range(min(d.rows, n))) if f]
    mods = [(v.col(i), f) for i, f in enumerate(factors) if f > 1]
    free = _size_reduced([v.col(i) for i in range(len(factors), n)])
    cols = [
        tuple(vec_dot(z, c) % f for c, f in mods) + tuple(vec_dot(z, c) for c in free)
        for z in [*gens.to_rows(), *([] if x is None else [vec_neg(x)])]
    ]
    width = len(mods) + len(free)
    return cols + [tuple(-f if j == i else 0 for j in range(width)) for i, (_, f) in enumerate(mods)]


def monoid_zero_solutions(gens: IntMatrix, lattice: IntMatrix) -> tuple[Vec, ...]:
    """Minimal nonzero c >= 0 with c*gens in rowspan(lattice), sorted.

    The Hilbert basis of the congruence system of _congruence_columns: each
    slack is fixed by c, so the c-parts of its elements are exactly these
    minimal zero sums, and every nonnegative zero sum is a sum of them.
    """
    basis, _ = _hilbert_completion(_congruence_columns(gens, lattice, None), HILBERT_STATE_CAP, None)
    return tuple(sol[: gens.rows] for sol in basis)


def nonneg_search(
    gens: IntMatrix,
    modulus: IntMatrix,
    x: Vec,
    state_cap: int = HILBERT_STATE_CAP,
) -> tuple[Vec | None, int]:
    """nonneg_feasible's answer and the number of Hilbert states it visited."""
    k = gens.rows
    if vec_is_zero(x):
        return (0,) * k, 0
    if solve_left(integer_span(gens, modulus), x) is None:
        return None, 0  # not even an integer combination: no search
    cols = _congruence_columns(gens, modulus, x)
    basis, visited = _hilbert_completion(cols, state_cap, early=lambda s: s[k] == 1)
    for sol in basis:
        if sol[k] == 1:
            a = sol[:k]
            lattice = integer_span(IntMatrix.zeros(0, gens.cols), modulus)
            if solve_left(lattice, vec_sub(x, row_times_matrix(a, gens))) is None:
                raise RuntimeError("congruence system produced an invalid certificate")
            return a, visited
    return None, visited


def nonneg_feasible(
    gens: IntMatrix,
    modulus: IntMatrix,
    x: Vec,
    state_cap: int = HILBERT_STATE_CAP,
) -> Vec | None:
    """Coefficients a >= 0 with x - a*gens in rowspan(modulus), or None.

    An x outside the integer row span of gens and modulus is rejected with
    no search.  Otherwise it is decided on the congruence system a*gens =
    y*x modulo the lattice, written in the Smith coordinates of modulus (see
    _congruence_columns).  Its Hilbert basis has an element with y = 1
    exactly when x is feasible: such an element gives a certificate, and a
    solution (a, 1) splits into basis elements whose y coordinates sum to 1.
    The search stops at the first level holding one, and the certificate is
    re-checked against an HNF of modulus.
    """
    return nonneg_search(gens, modulus, x, state_cap)[0]
