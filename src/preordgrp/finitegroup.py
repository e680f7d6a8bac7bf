"""Finite groups given by Cayley tables.

Elements are 0..order-1 with 0 the identity; table[a * order + b] is a * b,
held in `bytes` up to order 256 and in a tuple of ints above, whatever
`FiniteGroup` is given.  Subgroups, normal closures, and quotients all
return groups whose element 0 is again the identity (subgroup elements keep
ambient order, coset representatives are coset minima).

`FiniteGroup.generators` is a greedy generating set: each generator is the
least element not reached from 0 by right multiplication by the earlier
ones, an O(n k) closure, and `generator_words`, cached on the group, spells
each element over them.  Three checks run on the generators alone:

- Associativity (Light's test): the g with (ag)c = a(gc) for all a, c
  contain 0 and are closed under the product, (a(gh))c = ((ag)h)c =
  (ag)(hc) = a(g(hc)) = a((gh)c), without assuming associativity.  Once
  they hold the generators they hold every element.  Row a.g must equal
  row g read through row a: up to order 256 one bytes.translate reads row
  g through row a padded to 256 bytes; above that an itemgetter over row g
  gathers from the tuple row a.
- Homomorphisms: f(ag) = f(a)f(g) for all a and for g = 0 and each
  generator gives f(0) = 0 and, by induction on the word length of b = b'g,
  f(ab) = f((ab')g) = f(ab')f(g) = f(a)f(b')f(g) = f(a)f(b).
- Normality: for any subset S, the x with xSx^-1 inside S are closed under
  the product, as (xy)S(xy)^-1 = x(ySy^-1)x^-1.

`make_finite_group` checks entry types and ranges on the whole table, then
the group axioms: identity, Light's test, and a 0 in every row.  The bytes
rows the parser builds up to order 256 are joined, and one bytes.translate
deleting 0..n-1 checks their range.  Right inverses are two-sided in a
finite monoid (a . b = 0 makes x -> b . x injective, so b . c = 0 for some
c, and a = (a . b) . c = c), so the table is a group's, where a . x = b and
x . a = b have the one solutions a^-1 . b and b . a^-1: a Latin square.
The row and column scan runs only when an axiom fails.  A failed check,
here as in the homomorphism and normality checks, reruns the
element-by-element scan in its fixed order, so each witness is the first
failing one; only the associativity triple depends on the generators.
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
    table: bytes | tuple  # row-major, table[a * order + b] = a . b

    def __post_init__(self):  # bytes(b) is b and tuple(t) is t: no copy of a converted table
        object.__setattr__(self, "table", (bytes if self.order <= 256 else tuple)(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a * self.order + b]

    @cached_property
    def inverses(self) -> tuple:
        n, table = self.order, self.table
        return tuple(table.index(0, a, a + n) - a for a in range(0, n * n, n))

    @cached_property
    def generators(self) -> tuple:
        """The greedy generating set described in the module docstring."""
        gens, reached, seen = [], [0], {0}
        for a in range(self.order):
            if a not in seen:
                gens.append(a)
                seen = _closure_set(self.table, self.order, gens, reached, len(reached))
        return tuple(gens)

    @cached_property
    def element_orders(self) -> tuple:
        """The order of a is the size of the cyclic subgroup {0, a, a.a, ...}."""
        return tuple(len(_closure_set(self.table, self.order, (a,), [0])) for a in range(self.order))

    @cached_property
    def generator_words(self) -> tuple:
        """Per element, a shortest word over generators, as their indices."""
        words = {0: ()}
        frontier = [0]
        for x in frontier:  # appended to while read: breadth first
            for i, a in enumerate(self.generators):
                y = self.mul(x, a)
                if y not in words:
                    words[y] = words[x] + (i,)
                    frontier.append(y)
        return tuple(words[x] for x in range(self.order))

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, x: int, a: int) -> int:
        """x . a . x^-1"""
        return self.mul(self.mul(x, a), self.inv(x))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _closure_set(table, order, gens, reached, old=0):
    """Grow the list `reached`, [0] or an earlier closure, in place to its closure
    under right multiplication by gens, and return it as a set.  Its first `old`
    elements take only the last generator: the others were applied before."""
    gens, out = list(dict.fromkeys(gens)), set(reached)  # gens in order, once each
    for i, x in enumerate(reached):  # appended to while read
        for g in gens if i >= old else gens[-1:]:
            c = table[x * order + g]
            if c not in out:
                out.add(c)
                reached.append(c)
    return out


def _light_witness(table, n, gens):
    """The first (a, g, c) with (a . g) . c != a . (g . c), or None."""
    rows = [table[i : i + n] for i in range(0, n * n, n)]
    maps = rows if n > 256 else [r + bytes(256 - n) for r in rows]  # translation tables
    for g in gens:
        times_g = itemgetter(*rows[g]) if n > 256 else rows[g].translate
        for a in range(n):
            if rows[rows[a][g]] != times_g(maps[a]):
                c = next(c for c in range(n) if rows[rows[a][g]][c] != rows[a][rows[g][c]])
                return a, g, c
    return None


def make_finite_group(rows, cap: int = ORDER_CAP) -> FiniteGroup:
    rows = [r if isinstance(r, bytes) else tuple(r) for r in rows]
    n = len(rows)
    if n == 0:
        raise ValidationError("empty multiplication table")
    if n > cap:
        raise ResourceLimitError(f"group order {n} exceeds cap {cap}")
    if n <= 256 and all(isinstance(r, bytes) for r in rows):
        flat = b"".join(rows)
        well_typed = not flat.translate(None, bytes(range(n)))  # every entry below n
    else:
        flat = tuple(chain.from_iterable(rows))
        well_typed = {int}.issuperset(map(type, flat)) and set(range(n)).issuperset(flat)
    if not well_typed or set(map(len, rows)) != {n}:
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"table row {a} has {len(row)} entries, expected {n}")
            for b, e in enumerate(row):
                if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                    raise ValidationError(f"table entry at ({a}, {b}) is {e!r}")
    for a in range(n):
        if flat[a] != a:
            raise ValidationError(f"0 is not a left identity: 0 . {a} = {flat[a]}")
        if flat[a * n] != a:
            raise ValidationError(f"0 is not a right identity: {a} . 0 = {flat[a * n]}")
    group = FiniteGroup(n, flat)
    witness = _light_witness(group.table, n, group.generators)
    if witness is None and all(0 in row for row in rows):
        return group  # a group table, so a Latin square (module docstring)
    for a in range(n):
        if len(set(flat[a * n : (a + 1) * n])) != n:
            raise ValidationError(f"row {a} repeats an element", witness=a)
        if len(set(flat[a::n])) != n:
            raise ValidationError(f"column {a} repeats an element", witness=a)
    # a Latin square has a 0 in every row, so Light's test failed
    raise ValidationError("not associative at ({}, {}, {})".format(*witness), witness=witness)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order {n}")
    return FiniteGroup(n, tuple((a + b) % n for a in range(n) for b in range(n)))


def group_from_permutations(gens):
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
                if len(elems) >= ORDER_CAP:
                    raise ResourceLimitError(f"permutation closure exceeds cap {ORDER_CAP}")
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


def submonoid_closure(g: FiniteGroup, gens) -> frozenset:
    """Smallest subset containing the identity and closed under the product.

    In a finite group this is automatically a subgroup when it is closed
    under the product, but callers that track cones only rely on the
    submonoid property.
    """
    return frozenset(_closure_set(g.table, g.order, gens, [0]))


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
    return submonoid_closure(g, conjugates)


def _table_on(g: FiniteGroup, elems, label) -> tuple:
    """Flat table of g on elems: row a of g read at elems, for each a in elems, through label."""
    rows = (map(g.table[a * g.order : (a + 1) * g.order].__getitem__, elems) for a in elems)
    return tuple(map(label, chain.from_iterable(rows)))


def subgroup_from_set(g: FiniteGroup, elems):
    """Present a product-closed subset as a group; returns (subgroup, incl).

    incl[i] is the ambient element at subgroup index i; ambient order is
    kept, so the identity is subgroup element 0.
    """
    elems = sorted(set(elems))
    if not elems or elems[0] != 0:
        raise ValidationError("subset does not contain the identity")
    index = [-1] * g.order  # -1 marks a product outside the subset
    for i, a in enumerate(elems):
        index[a] = i
    table = _table_on(g, elems, index.__getitem__)
    if -1 in table:
        a, b = (elems[i] for i in divmod(table.index(-1), len(elems)))
        raise ValidationError(f"subset not closed: {a} . {b} = {g.mul(a, b)}", witness=(a, b))
    incl = make_fin_morphism(FiniteGroup(len(elems), table), g, tuple(elems))
    return incl.dom, incl


def quotient_by_normal(g: FiniteGroup, nset):
    """Quotient by a normal subgroup; returns (quotient, projection).

    The scan meets each coset first at its least element, its representative,
    so cosets come out sorted by it and the identity coset is element 0.
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
        if coset_of[a] < 0:
            for x in nset:
                coset_of[g.mul(a, x)] = len(reps)
            reps.append(a)
    quot = FiniteGroup(len(reps), _table_on(g, reps, coset_of.__getitem__))
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

