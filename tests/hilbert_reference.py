"""Reference Hilbert-basis completion: the plain Contejean-Devie loop.

This is the completion as `intmat.hilbert_basis` ran it before its inner
loop was tuned (domination tested against the whole basis, successors built
coordinate by coordinate, the frontier iterated in insertion order).  It
also returns the number of states visited, so tests can compare both the
basis and the state budget at which the search starts to raise.

`sign_split_search` and `sign_split_zero_sums` answer what
`intmat.nonneg_search` and `intmat.monoid_zero_solutions` answer, from the
homogenization those used before Smith coordinates: the lattice part
t*modulus sign-split into (p - q)*modulus, solved in the original
coordinates by the tuned completion (which the tests hold to the plain
loop), and projected onto the coefficients.
"""

from preordgrp.errors import ResourceLimitError
from preordgrp.intmat import HILBERT_STATE_CAP, IntMatrix, _hilbert_completion, vec_dot


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def reference_completion(system: IntMatrix, state_cap: int = HILBERT_STATE_CAP, early=None):
    """(sorted basis, states visited); raises ResourceLimitError past state_cap."""
    nvars = system.cols
    neqs = system.rows
    cols = [system.col(j) for j in range(nvars)]
    zero_val = (0,) * neqs

    basis = []
    frontier = {}
    for i in range(nvars):
        t = tuple(1 if j == i else 0 for j in range(nvars))
        frontier[t] = cols[i]
    visited = len(frontier)
    if visited > state_cap:
        raise ResourceLimitError(f"Hilbert completion exceeded {state_cap} states")

    while frontier:
        solved = sorted(t for t, val in frontier.items() if val == zero_val)
        basis.extend(solved)
        if early is not None and any(early(s) for s in solved):
            return tuple(sorted(basis)), visited
        nxt = {}
        for t, val in frontier.items():
            if val == zero_val:
                continue
            for i in range(nvars):
                if vec_dot(val, cols[i]) >= 0:
                    continue
                s = tuple(t[j] + 1 if j == i else t[j] for j in range(nvars))
                if s in nxt:
                    continue
                if any(all(sj >= bj for sj, bj in zip(s, b)) for b in basis):
                    continue
                nxt[s] = vec_add(val, cols[i])
        visited += len(nxt)
        if visited > state_cap:
            raise ResourceLimitError(f"Hilbert completion exceeded {state_cap} states")
        frontier = nxt
    return tuple(sorted(basis)), visited


def _sign_split_columns(gens: IntMatrix, modulus: IntMatrix, x=None) -> list:
    """Columns of c*gens + (p - q)*modulus - y*x = 0 over (c, p, q[, y])."""
    mod = modulus.to_rows()
    cols = [*gens.to_rows(), *mod, *(tuple(-v for v in r) for r in mod)]
    if x is not None:
        cols.append(tuple(-v for v in x))
    return cols


def sign_split_search(gens: IntMatrix, modulus: IntMatrix, x, state_cap: int = HILBERT_STATE_CAP):
    """((a, t), visited) with a >= 0 and x = a*gens + t*modulus, or (None, visited)."""
    k, r = gens.rows, modulus.rows
    if not any(x):
        return ((0,) * k, (0,) * r), 0
    basis, visited = _hilbert_completion(
        _sign_split_columns(gens, modulus, x), state_cap, early=lambda s: s[-1] == 1
    )
    for sol in basis:
        if sol[-1] == 1:
            t = tuple(p - q for p, q in zip(sol[k : k + r], sol[k + r : k + 2 * r]))
            return (sol[:k], t), visited
    return None, visited


def sign_split_zero_sums(gens: IntMatrix, lattice: IntMatrix, state_cap: int = HILBERT_STATE_CAP):
    """The c-parts of the sign-split Hilbert basis, without zeros and duplicates.

    Every nonnegative c with c*gens in the lattice is a sum of them, but they
    need not be minimal: a basis element (c, p, q) whose c is not minimal can
    be indecomposable because p and q cannot be split along with c.
    """
    basis, _ = _hilbert_completion(_sign_split_columns(gens, lattice), state_cap, None)
    return tuple(sorted({sol[: gens.rows] for sol in basis if any(sol[: gens.rows])}))
