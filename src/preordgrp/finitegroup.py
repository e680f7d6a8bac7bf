"""Finite groups given by Cayley tables.

Elements are 0..order-1 with 0 the identity; table[a * order + b] is a * b.
Subgroups, normal closures, and quotients all return groups whose element 0
is again the identity (subgroup elements keep ambient order, coset
representatives are coset minima).

`FiniteGroup.generators` is a greedy generating set: each generator is the
least element not reached from 0 by right multiplication by the earlier
ones, an O(n k) closure.  Three checks run on the generators alone:

- Associativity (Light's test): the g with (ag)c = a(gc) for all a, c
  contain 0 and are closed under the product, (a(gh))c = ((ag)h)c =
  (ag)(hc) = a(g(hc)) = a((gh)c), without assuming associativity.  Once
  they hold the generators they hold every element.
- Homomorphisms: f(ag) = f(a)f(g) for all a and for g = 0 and each
  generator gives f(0) = 0 and, by induction on the word length of b = b'g,
  f(ab) = f((ab')g) = f(ab')f(g) = f(a)f(b')f(g) = f(a)f(b).
- Normality: for any subset S, the x with xSx^-1 inside S are closed under
  the product, as (xy)S(xy)^-1 = x(ySy^-1)x^-1.

The other checks work on whole rows and columns.  A failed check reruns the
element-by-element scan, so each witness is the first failing one; only the
associativity triple depends on the generators.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import ResourceLimitError, ValidationError

ORDER_CAP = 512


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple  # row-major, table[a * order + b] = a . b

    def mul(self, a: int, b: int) -> int:
        return self.table[a * self.order + b]

    @cached_property
    def inverses(self) -> tuple:
        inv = [0] * self.order
        for a in range(self.order):
            row = self.table[a * self.order : (a + 1) * self.order]
            inv[a] = row.index(0)
        return tuple(inv)

    @cached_property
    def generators(self) -> tuple:
        """The greedy generating set described in the module docstring."""
        gens, reached = [], {0}
        for a in range(self.order):
            if a not in reached:
                gens.append(a)
                reached = _closure_set(self.table, self.order, gens)
        return tuple(gens)

    @cached_property
    def element_orders(self) -> tuple:
        orders = []
        for a in range(self.order):
            x, n = a, 1
            while x != 0:
                x, n = self.mul(x, a), n + 1
            orders.append(n)
        return tuple(orders)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, x: int, a: int) -> int:
        """x . a . x^-1"""
        return self.mul(self.mul(x, a), self.inv(x))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _closure_set(table, order, gens):
    """{0} closed under right multiplication by gens: every left-normed product."""
    gens = set(gens)
    out = {0}
    frontier = [0]
    while frontier:
        row = frontier.pop() * order
        for g in gens:
            c = table[row + g]
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def make_finite_group(rows, cap: int = ORDER_CAP) -> FiniteGroup:
    rows = [tuple(r) for r in rows]
    n = len(rows)
    if n == 0:
        raise ValidationError("empty multiplication table")
    if n > cap:
        raise ResourceLimitError(f"group order {n} exceeds cap {cap}")
    elements = set(range(n))
    for a, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"table row {a} has {len(row)} entries, expected {n}")
        if {int}.issuperset(map(type, row)) and elements.issuperset(row):
            continue
        for b, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise ValidationError(f"table entry at ({a}, {b}) is {e!r}")
    flat = tuple(chain.from_iterable(rows))
    for a in range(n):
        if flat[a] != a:
            raise ValidationError(f"0 is not a left identity: 0 . {a} = {flat[a]}")
        if flat[a * n] != a:
            raise ValidationError(f"0 is not a right identity: {a} . 0 = {flat[a * n]}")
    for a in range(n):
        if len(set(flat[a * n : (a + 1) * n])) != n:
            raise ValidationError(f"row {a} repeats an element", witness=a)
        if len(set(flat[a::n])) != n:
            raise ValidationError(f"column {a} repeats an element", witness=a)
    group = FiniteGroup(n, flat)
    # Light's test on the generators: row a.g must be row a read at row g
    for g in group.generators:
        times_g = itemgetter(*rows[g])
        for a in range(n):
            if rows[rows[a][g]] != times_g(rows[a]):
                c = next(c for c in range(n) if rows[rows[a][g]][c] != rows[a][rows[g][c]])
                raise ValidationError(f"not associative at ({a}, {g}, {c})", witness=(a, g, c))
    for a in range(n):
        b = group.inv(a)
        if group.mul(b, a) != 0:
            raise ValidationError(f"{a} has no two-sided inverse", witness=a)
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order {n}")
    return FiniteGroup(n, tuple((a + b) % n for a in range(n) for b in range(n)))


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def group_from_permutations(gens, cap: int = ORDER_CAP):
    """Close permutation tuples under composition; returns (group, elements).

    elements[i] is the permutation at index i, sorted so the identity
    permutation lands at index 0.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValidationError("need at least one permutation")
    degree = len(gens[0])
    ident = tuple(range(degree))
    for g in gens:
        if sorted(g) != list(ident):
            raise ValidationError(f"not a permutation: {g!r}")
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in elems:
                if len(elems) >= cap:
                    raise ResourceLimitError(f"permutation closure exceeds cap {cap}")
                elems.add(q)
                frontier.append(q)
    ordered = sorted(elems)  # identity is lexicographically least
    index = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    table = tuple(
        index[tuple(p[q[i]] for i in range(degree))] for p in ordered for q in ordered
    )
    return FiniteGroup(n, table), tuple(ordered)


@dataclass(frozen=True)
class FinMorphism:
    dom: FiniteGroup
    cod: FiniteGroup
    mapping: tuple  # mapping[a] = image of a

    def __repr__(self):
        return f"FinMorphism({self.dom.order} -> {self.cod.order}, {self.mapping})"


def make_fin_morphism(dom: FiniteGroup, cod: FiniteGroup, mapping) -> FinMorphism:
    mapping = tuple(mapping)
    if len(mapping) != dom.order:
        raise ValidationError(
            f"mapping has {len(mapping)} entries for a group of order {dom.order}"
        )
    for a, v in enumerate(mapping):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < cod.order:
            raise ValidationError(f"mapping[{a}] = {v!r} is not a codomain element")
    n, m = dom.order, cod.order
    at_images = itemgetter(*mapping)  # s -> (s[f(0)], ..., s[f(n - 1)])
    # f(a . g) is f read at column g; f(a) . f(g) is column f(g) read at f(a)
    if not all(
        itemgetter(*dom.table[g::n])(mapping) == at_images(cod.table[mapping[g] :: m])
        for g in (0,) + dom.generators
    ):
        for a in range(dom.order):
            for b in range(dom.order):
                if mapping[dom.mul(a, b)] != cod.mul(mapping[a], mapping[b]):
                    raise ValidationError(f"not a homomorphism at ({a}, {b})", witness=(a, b))
    return FinMorphism(dom, cod, mapping)


def fin_identity(g: FiniteGroup) -> FinMorphism:
    return FinMorphism(g, g, tuple(range(g.order)))


def fin_zero_morphism(dom: FiniteGroup, cod: FiniteGroup) -> FinMorphism:
    return FinMorphism(dom, cod, (0,) * dom.order)


def fin_compose(f: FinMorphism, g: FinMorphism) -> FinMorphism:
    """f then g."""
    if f.cod != g.dom:
        raise ValidationError("middle groups differ in composition")
    return FinMorphism(f.dom, g.cod, tuple(g.mapping[v] for v in f.mapping))


def fin_is_injective(f: FinMorphism) -> bool:
    return len(set(f.mapping)) == f.dom.order


def fin_is_surjective(f: FinMorphism) -> bool:
    return len(set(f.mapping)) == f.cod.order


def kernel_set(f: FinMorphism) -> frozenset:
    return frozenset(a for a in range(f.dom.order) if f.mapping[a] == 0)


def submonoid_closure(g: FiniteGroup, gens) -> frozenset:
    """Smallest subset containing the identity and closed under the product.

    In a finite group this is automatically a subgroup when it is closed
    under the product, but callers that track cones only rely on the
    submonoid property.
    """
    return frozenset(_closure_set(g.table, g.order, gens))


def conjugation_witness(g: FiniteGroup, subset) -> tuple | None:
    """(x, a) with x . a . x^-1 outside the subset, or None if closed."""
    sub = frozenset(subset)
    n = g.order
    for x in g.generators:
        # a -> x . a along row x, then b -> b . x^-1 along column x^-1
        row, column = g.table[x * n : (x + 1) * n], g.table[g.inv(x) :: n]
        if not sub.issuperset(map(column.__getitem__, map(row.__getitem__, sub))):
            break
    else:
        return None
    for x in range(g.order):
        for a in sub:
            if g.conj(x, a) not in sub:
                return (x, a)
    return None


def normal_closure(g: FiniteGroup, gens) -> frozenset:
    conjugates = {g.conj(x, a) for a in gens for x in range(g.order)}
    conjugates |= {g.inv(c) for c in conjugates}
    return submonoid_closure(g, conjugates)


def subgroup_from_set(g: FiniteGroup, elems):
    """Present a product-closed subset as a group; returns (subgroup, incl).

    incl[i] is the ambient element at subgroup index i; ambient order is
    kept, so the identity is subgroup element 0.
    """
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


def quotient_by_normal(g: FiniteGroup, nset):
    """Quotient by a normal subgroup; returns (quotient, projection).

    Cosets are represented by their least element and sorted by it, so the
    identity coset is quotient element 0.
    """
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


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pair (a, b) at index a * h.order + b."""
    n = g.order * h.order
    if n > ORDER_CAP:
        raise ResourceLimitError(f"product order {n} exceeds cap {ORDER_CAP}")
    m = h.order
    table = tuple(
        g.mul(a, c) * m + h.mul(b, d)
        for a in range(g.order)
        for b in range(m)
        for c in range(g.order)
        for d in range(m)
    )
    return FiniteGroup(n, table)

