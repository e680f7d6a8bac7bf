"""Reference finite-group checks: the per-element loops of the first release.

`finitegroup` decides group validity, homomorphisms and normality on one
generating set.  These are the loops it replaced, which check every element,
pair or triple directly; the tests compare both on the same inputs.  The
constructions at the end are the ones `finitegroup` and `preord` shortened:
a normal closure that also adds inverses, a quotient that sorts its cosets
and relabels them by representative, a subgroup presentation that multiplies
pair by pair, and the unit part of a finite cone computed from inverses.
Only tests import this module.
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


def greedy_generators(table, order) -> tuple:
    """`FiniteGroup.generators` as first written: each new generator is the
    least element outside {0} closed under right multiplication by the
    earlier ones, that closure recomputed from {0} each time."""
    gens, reached = [], {0}
    for a in range(order):
        if a not in reached:
            gens.append(a)
            reached, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    if table[x * order + g] not in reached:
                        reached.add(table[x * order + g])
                        frontier.append(table[x * order + g])
    return tuple(gens)


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


def normal_closure(g: FiniteGroup, gens) -> frozenset:
    conjugates = {g.conj(x, a) for a in gens for x in range(g.order)}
    conjugates |= {g.inv(c) for c in conjugates}
    return submonoid_closure(g, conjugates)


def quotient_by_normal(g: FiniteGroup, nset):
    nset = frozenset(nset)
    if 0 not in nset:
        raise ValidationError("normal subgroup misses the identity")
    if submonoid_closure(g, nset) != nset:
        raise ValidationError("subset is not product-closed")
    witness = conjugation_witness(g, nset)
    if witness is not None:
        raise ValidationError(
            f"subgroup is not normal: conjugating {witness[1]} by {witness[0]} leaves it",
            witness=witness,
        )
    coset_of = [-1] * g.order
    reps = []
    for a in range(g.order):
        if coset_of[a] >= 0:
            continue
        members = sorted(g.mul(a, x) for x in nset)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    order_pairs = sorted(range(len(reps)), key=lambda i: reps[i])
    relabel = {old: new for new, old in enumerate(order_pairs)}
    reps = [reps[old] for old in order_pairs]
    coset_of = [relabel[c] for c in coset_of]
    n = len(reps)
    table = tuple(coset_of[g.mul(reps[i], reps[j])] for i in range(n) for j in range(n))
    quot = FiniteGroup(n, table)
    proj = make_fin_morphism(g, quot, tuple(coset_of))
    return quot, proj


def subgroup_from_set(g: FiniteGroup, elems):
    elems = sorted(set(elems))
    if not elems or elems[0] != 0:
        raise ValidationError("subset does not contain the identity")
    index = {a: i for i, a in enumerate(elems)}
    n = len(elems)
    table = []
    for a in elems:
        for b in elems:
            c = g.mul(a, b)
            if c not in index:
                raise ValidationError(
                    f"subset not closed: {a} . {b} = {c}", witness=(a, b)
                )
            table.append(index[c])
    incl = make_fin_morphism(FiniteGroup(n, tuple(table)), g, tuple(elems))
    return incl.dom, incl


def unit_elements(obj) -> frozenset:
    """Cone elements of a finite preordered group whose inverse is also in the cone."""
    return frozenset(p for p in obj.cone if obj.group.inv(p) in obj.cone)
