"""Reference finite-group checks: the per-element loops of the first release.

`finitegroup` decides group validity, homomorphisms and normality on one
generating set.  These are the loops it replaced, which check every element,
pair or triple directly; the tests compare both on the same inputs.  Only
tests import this module.
"""

from preordgrp.errors import ResourceLimitError, ValidationError
from preordgrp.finitegroup import ORDER_CAP, FiniteGroup, FinMorphism


def _closure_set(table, order, seed):
    out = set(seed)
    out.add(0)
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        for b in list(out):
            for c in (table[a * order + b], table[b * order + a]):
                if c not in out:
                    out.add(c)
                    frontier.append(c)
    return out


def make_finite_group(rows, cap: int = ORDER_CAP) -> FiniteGroup:
    rows = [list(r) for r in rows]
    n = len(rows)
    if n == 0:
        raise ValidationError("empty multiplication table")
    if n > cap:
        raise ResourceLimitError(f"group order {n} exceeds cap {cap}")
    for a, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"table row {a} has {len(row)} entries, expected {n}")
        for b, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise ValidationError(f"table entry at ({a}, {b}) is {e!r}")
    flat = tuple(e for row in rows for e in row)
    for a in range(n):
        if flat[a] != a:
            raise ValidationError(f"0 is not a left identity: 0 . {a} = {flat[a]}")
        if flat[a * n] != a:
            raise ValidationError(f"0 is not a right identity: {a} . 0 = {flat[a * n]}")
    for a in range(n):
        if len(set(flat[a * n : (a + 1) * n])) != n:
            raise ValidationError(f"row {a} repeats an element", witness=a)
        if len({flat[b * n + a] for b in range(n)}) != n:
            raise ValidationError(f"column {a} repeats an element", witness=a)
    # Light's test: associativity on a generating set implies it everywhere
    gens = []
    closure = {0}
    while len(closure) < n:
        x = min(set(range(n)) - closure)
        gens.append(x)
        closure = _closure_set(flat, n, closure | {x})
    for g in gens:
        for a in range(n):
            ag = flat[a * n + g]
            arow = a * n
            agrow = ag * n
            grow = g * n
            for c in range(n):
                if flat[agrow + c] != flat[arow + flat[grow + c]]:
                    raise ValidationError(
                        f"not associative at ({a}, {g}, {c})", witness=(a, g, c)
                    )
    group = FiniteGroup(n, flat)
    for a in range(n):
        b = group.inv(a)
        if group.mul(b, a) != 0:
            raise ValidationError(f"{a} has no two-sided inverse", witness=a)
    return group


def make_fin_morphism(dom: FiniteGroup, cod: FiniteGroup, mapping) -> FinMorphism:
    mapping = tuple(mapping)
    if len(mapping) != dom.order:
        raise ValidationError(
            f"mapping has {len(mapping)} entries for a group of order {dom.order}"
        )
    for a, v in enumerate(mapping):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < cod.order:
            raise ValidationError(f"mapping[{a}] = {v!r} is not a codomain element")
    for a in range(dom.order):
        for b in range(dom.order):
            if mapping[dom.mul(a, b)] != cod.mul(mapping[a], mapping[b]):
                raise ValidationError(
                    f"not a homomorphism at ({a}, {b})", witness=(a, b)
                )
    return FinMorphism(dom, cod, mapping)


def submonoid_closure(g: FiniteGroup, gens) -> frozenset:
    return frozenset(_closure_set(g.table, g.order, set(gens)))


def conjugation_witness(g: FiniteGroup, subset) -> tuple | None:
    """(x, a) with x . a . x^-1 outside the subset, or None if closed."""
    sub = frozenset(subset)
    for x in range(g.order):
        for a in sub:
            if g.conj(x, a) not in sub:
                return (x, a)
    return None
