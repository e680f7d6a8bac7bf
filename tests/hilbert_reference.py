"""Reference Hilbert-basis completion: the plain Contejean-Devie loop.

This is the completion as `intmat.hilbert_basis` ran it before its inner
loop was tuned (domination tested against the whole basis, successors built
coordinate by coordinate, the frontier iterated in insertion order).  It
also returns the number of states visited, so tests can compare both the
basis and the state budget at which the search starts to raise.
"""

from preordgrp.errors import ResourceLimitError
from preordgrp.intmat import HILBERT_STATE_CAP, IntMatrix, vec_add, vec_dot


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
