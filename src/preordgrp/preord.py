"""Preordered groups and their relative kernel and cokernel constructions.

An object pairs a group with a positive cone, a submonoid closed under
conjugation; a morphism is a group homomorphism carrying cone into cone.
Two decidable universes are supported:

  abelian  groups presented by integer relation matrices, cones given by
           generator rows, membership decided exactly by nonnegative
           integer programming;
  finite   Cayley-table groups, cones stored as closed element sets.

Each universe has one small backend, picked once from the group type by
_backend_of and reached as obj.backend.  A backend supplies the primitives
on underlying maps (identity, zero, compose, equality, apply, zero test,
injective, surjective), the inverse of an element, the cone elements
(generator rows, or the sorted nonzero elements of a finite cone), the
quotient of a group by a normal set of elements, and factoring a map
through an injection or a surjection.  For the checking harness it also
supplies a random candidate map (draw_map), the data that keys an object
or a map (key_data, map_data), the one-generator probe hitting an element
(cyclic_probe), the order in which mutants drop cone elements
(puncture_order), and the cone-containing subgroups to test
(subgroup_candidates).  The constructions are written once on top of
these, and branch on the universe only where the two compute different
things: the pullback's presentation and the abelian-only pushout.

Alongside ordinary kernels and cokernels the module builds the relative
ones: the Z-kernel (same group, cone cut down to the part the morphism
kills), the Z-cokernel (quotient by the normal closure of the image of the
cone), the canonical torsion / torsion-free sequence of an object, the
discrete and stable-quotient endofunctors with their counit and unit, and
the pullback / pushout squares those (co)units induce, each packaged with
the comparison morphism onto the matching relative construction.

A morphism is its endpoints and its underlying map, nothing more.
make_morphism is the one check that a map carries cone into cone; samplers
and factorization checks pass it a state budget, and the constructions
build morphisms that preserve the cone by construction.  Abelian
membership goes to cone_certificate, which also returns the proof the cone
functor reads: over a basis cone (the identity matrix of the group's rank,
as on every completion object) a nonnegative x is its own certificate, and
every other question goes to one oracle, cone_membership, behind one
bounded LRU cache keyed on (gens, relations, x).  The cache is budget-exact,
answering as the uncached search with the same state budget would: a
decided answer is served only to budgets at least the number of states its
search visited, UNDECIDED only to budgets no larger than the one that ran
out.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

from . import fgabelian as ab
from . import finitegroup as fg
from .errors import DimensionError, ResourceLimitError, ValidationError
from .intmat import (
    HILBERT_STATE_CAP,
    IntMatrix,
    Vec,
    integer_span,
    monoid_zero_solutions,
    nonneg_search,
    solve_left,
    vec_neg,
)

ABELIAN = "abelian"
FINITE = "finite"

# Answer of a membership query whose search ran out of its state budget.
UNDECIDED = object()


def _hcat(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = [a.row(i) + b.row(i) for i in range(a.rows)]
    return IntMatrix.from_rows(rows, cols=a.cols + b.cols)


def _first_of_each(options, key):
    """The (name, value) options whose value has a key no earlier one had."""
    seen, out = set(), []
    for name, value in options:
        k = key(value)
        if k not in seen:
            seen.add(k)
            out.append((name, value))
    return out


class _AbelianBackend:
    name = ABELIAN

    def make_cone(self, group, cone):
        if not isinstance(cone, IntMatrix):
            try:
                cone = IntMatrix.from_rows(cone, cols=group.rank)
            except DimensionError as exc:
                raise ValidationError(str(exc)) from exc
        if cone.cols != group.rank:
            raise ValidationError(
                f"cone rows have {cone.cols} entries, group rank is {group.rank}"
            )
        return cone

    def build_map(self, dom, cod, rows):
        return ab.make_morphism(dom, cod, rows)

    def identity(self, group):
        return ab.identity_morphism(group)

    def zero(self, dom, cod):
        return ab.zero_morphism(dom, cod)

    def compose(self, f, g):
        return ab.compose(f, g)

    def map_eq(self, f, g):
        return ab.morphism_eq(f, g)

    def apply(self, f, x):
        return ab.apply(f, x)

    def is_zero(self, group, x):
        return ab.is_zero_element(group, x)

    def inverse(self, group, x):
        return vec_neg(x)

    def injective(self, f):
        return ab.is_injective(f)

    def surjective(self, f):
        return ab.is_surjective(f)

    def generators(self, group):
        return list(IntMatrix.identity(group.rank).to_rows())

    def cone_elements(self, cone):
        return list(cone.to_rows())

    def cone_with(self, cone, x):
        return cone.stack(IntMatrix.from_rows([x], cols=cone.cols))

    def cone_without(self, cone, i):
        """The cone without its i-th element in cone_elements order."""
        rows = [cone.row(j) for j in range(cone.rows) if j != i]
        return IntMatrix.from_rows(rows, cols=cone.cols)

    def push_cone(self, cone, f):
        return cone.mul(f.matrix)

    def pull_cone(self, cone, incl):
        """The cone rows written in incl's domain, or None if one lies outside."""
        free = ab.FgAbGroup(cone.rows, IntMatrix.zeros(0, cone.rows))
        phi = ab.factor_through_injection(ab.AbMorphism(free, incl.cod, cone), incl)
        return None if phi is None else phi.matrix

    def killed_cone(self, f):
        """Minimal nonnegative combinations of the cone generators that f
        kills, in Hilbert-basis order."""
        sols = _zero_solutions(f.dom.cone.mul(f.map.matrix), f.cod.group.reduced_relations)
        return IntMatrix.from_rows(sols, cols=f.dom.cone.rows).mul(f.dom.cone)

    def unit_cone(self, obj):
        rows = [obj.cone.row(i) for i in touched_unit_generators(obj)]
        return IntMatrix.from_rows(rows, cols=obj.group.rank)

    def contains(self, obj, x, budget=None):
        return cone_certificate(obj, x, budget)

    def normal_closure(self, group, elements):
        return list(elements)

    def quotient(self, group, elements):
        return ab.quotient(group, elements)

    def kernel(self, f):
        return ab.kernel(f)

    def subgroup(self, group, elements):
        return ab.present_subgroup(group, elements)

    def factor_mono(self, t, k):
        return ab.factor_through_injection(t, k)

    def factor_epi(self, s, q):
        return ab.factor_through_surjection(s, q)

    def pair(self, f, g):
        """x -> (f(x), g(x)), into the direct sum of the codomains."""
        total = ab.direct_sum(f.cod, g.cod)
        return ab.AbMorphism(f.dom, total, _hcat(f.matrix, g.matrix))

    def small_elements(self, group):
        """Unit vectors, their negatives and doubles, then sums of two."""
        basis = self.generators(group)
        out = basis + [tuple(-v for v in r) for r in basis]
        out += [tuple(2 * v for v in r) for r in basis]
        return out + [tuple(map(add, a, b)) for a, b in combinations_with_replacement(basis, 2)]

    def completion(self, ambient, gens):
        """The group gens generate, on one coordinate per generator with the
        vanishing lattice as relations; returns (group, embedding)."""
        group = ab.FgAbGroup(gens.rows, ab.preimage_lattice(gens, ambient.relations))
        return group, ab.AbMorphism(group, ambient, gens)

    def completion_cone(self, group):
        """The monoid on its completion's coordinates: the basis."""
        return IntMatrix.identity(group.rank)

    def draw_map(self, rng, dom, cod):
        """A random homomorphism whose cone images lie in the span of cod's
        cone; raises ValidationError when the rows drawn give none."""
        rows = [[rng.randint(-3, 3) for _ in range(cod.group.rank)] for _ in range(dom.group.rank)]
        f = ab.make_morphism(dom.group, cod.group, rows)
        span = integer_span(cod.cone, cod.group.reduced_relations)
        if all(solve_left(span, ab.apply(f, x)) is not None for x in self.cone_elements(dom.cone)):
            return f
        raise ValidationError("a cone image lies outside the span of the codomain cone")

    def key_data(self, obj):
        return ("a", obj.group.rank, obj.group.relations.entries, obj.cone.entries)

    def map_data(self, f):
        return f.matrix.entries

    def cyclic_probe(self, group, x):
        """Z with its natural cone, and the map data sending 1 to x."""
        return make_object(ab.make_group(1, []), [[1]]), [list(x)]

    def puncture_order(self, n):
        """Cone generator indices as mutants try dropping them: last first."""
        return reversed(range(n))

    def subgroup_candidates(self, obj):
        """Cone-containing subgroups, each once, with stable names: the span
        of the cone, the whole group, and the span plus the first axis."""
        rows = list(obj.cone.to_rows())
        basis = self.generators(obj.group)
        options = [("span", rows), ("full", basis)]
        if basis:
            options.append(("span-plus-axis", rows + basis[:1]))
        relations = obj.group.relations

        def span(gens):
            return integer_span(IntMatrix.from_rows(gens, cols=relations.cols), relations)

        return _first_of_each(options, span)


class _FiniteBackend:
    name = FINITE

    def make_cone(self, group, cone):
        cone = set(cone)
        outside = sorted(a for a in cone if not 0 <= a < group.order)
        if outside:
            raise ValidationError(
                f"cone element {outside[0]} is not an element of a group of order {group.order}"
            )
        closed = fg.submonoid_closure(group, cone)
        witness = fg.conjugation_witness(group, closed)
        if witness is not None:
            x, a = witness
            raise ValidationError(
                f"cone is not closed under conjugation: {x} . {a} . {x}^-1 escapes",
                witness=witness,
            )
        return closed

    def build_map(self, dom, cod, mapping):
        return fg.make_fin_morphism(dom, cod, mapping)

    def identity(self, group):
        return fg.FinMorphism(group, group, tuple(range(group.order)))

    def zero(self, dom, cod):
        return fg.FinMorphism(dom, cod, (0,) * dom.order)

    def compose(self, f, g):
        if f.cod != g.dom:
            raise ValidationError("middle groups differ in composition")
        return fg.FinMorphism(f.dom, g.cod, tuple(g.mapping[v] for v in f.mapping))

    def map_eq(self, f, g):
        return f.mapping == g.mapping

    def apply(self, f, x):
        return f.mapping[x]

    def is_zero(self, group, x):
        return x == 0

    def inverse(self, group, x):
        return group.inv(x)

    def injective(self, f):
        return len(set(f.mapping)) == f.dom.order

    def surjective(self, f):
        return len(set(f.mapping)) == f.cod.order

    def generators(self, group):
        return list(range(group.order))

    def cone_elements(self, cone):
        return sorted(cone - {0})

    def cone_with(self, cone, x):
        return cone | {x}

    def cone_without(self, cone, i):
        return cone - {self.cone_elements(cone)[i]}

    def push_cone(self, cone, f):
        return frozenset(f.mapping[p] for p in cone)

    def pull_cone(self, cone, incl):
        """The cone's indices in incl's domain, or None if it is not inside."""
        if not cone <= set(incl.mapping):
            return None
        return frozenset(i for i, a in enumerate(incl.mapping) if a in cone)

    def killed_cone(self, f):
        return frozenset(p for p in f.dom.cone if f.map.mapping[p] == 0)

    def unit_cone(self, obj):
        # a closed subset of a finite group is a subgroup: every cone
        # element is a unit
        return obj.cone

    def contains(self, obj, x, budget=None):
        return True if x in obj.cone else None

    def normal_closure(self, group, elements):
        return fg.normal_closure(group, elements)

    def quotient(self, group, elements):
        """Quotient by the normal subgroup made of elements and 0."""
        return fg.quotient_by_normal(group, {0, *elements})

    def kernel(self, f):
        return fg.subgroup_from_set(f.dom, [a for a, v in enumerate(f.mapping) if v == 0])

    def subgroup(self, group, elements):
        return fg.subgroup_from_set(group, fg.submonoid_closure(group, elements))

    def factor_mono(self, t, k):
        inverse = {}
        for x, y in enumerate(k.mapping):
            inverse.setdefault(y, x)
        if any(y not in inverse for y in t.mapping):
            return None
        try:
            return fg.make_fin_morphism(t.dom, k.dom, [inverse[y] for y in t.mapping])
        except ValidationError:
            return None

    def factor_epi(self, s, q):
        mapping = [None] * q.cod.order
        for x, v in enumerate(s.mapping):
            y = q.mapping[x]
            if mapping[y] is None:
                mapping[y] = v
            elif mapping[y] != v:
                return None
        if None in mapping:
            return None
        try:
            return fg.make_fin_morphism(q.cod, s.cod, mapping)
        except ValidationError:
            return None

    def pair(self, f, g):
        """x -> (f(x), g(x)); only injectivity and factoring read the pairs."""
        return fg.FinMorphism(f.dom, (f.cod, g.cod), tuple(zip(f.mapping, g.mapping)))

    def small_elements(self, group):
        return list(range(group.order))

    def completion(self, ambient, gens):
        return fg.subgroup_from_set(ambient, gens)

    def completion_cone(self, group):
        return frozenset(range(group.order))

    def draw_map(self, rng, dom, cod):
        """Each generator to a random element of dividing order, each element
        along its generator word; raises ValidationError if that is no homomorphism."""
        g, h = dom.group, cod.group
        images = [
            rng.choice([b for b, n in enumerate(h.element_orders) if g.element_orders[a] % n == 0])
            for a in g.generators
        ]
        mapping = []
        for word in g.generator_words:
            y = 0
            for i in word:
                y = h.mul(y, images[i])
            mapping.append(y)
        return fg.make_fin_morphism(g, h, mapping)

    def key_data(self, obj):
        return ("f", obj.group.order, tuple(obj.group.table), tuple(sorted(obj.cone)))

    def map_data(self, f):
        return f.mapping

    def cyclic_probe(self, group, x):
        """The cyclic group x generates, all of it the cone, and the map
        data sending its generator 1 to x."""
        order = group.element_orders[x]
        powers = [0]
        for _ in range(order - 1):
            powers.append(group.mul(powers[-1], x))
        return make_object(fg.cyclic_group(order), range(order)), tuple(powers)

    def puncture_order(self, n):
        """Smallest element first: the rest of the set never contains it."""
        return range(n)

    def subgroup_candidates(self, obj):
        """Cone-containing subgroups, each once, with stable names: the cone,
        the whole group, and the normal closure of the cone and the least
        element outside it."""
        g = obj.group
        options = [("span", obj.cone), ("full", frozenset(range(g.order)))]
        outside = sorted(set(range(g.order)) - obj.cone)
        if outside:
            options.append(("span-plus-element", fg.normal_closure(g, obj.cone | {outside[0]})))
        return _first_of_each(options, lambda elems: elems)


_ABELIAN_BACKEND = _AbelianBackend()
_FINITE_BACKEND = _FiniteBackend()


def _backend_of(group):
    """The backend of the universe the group lives in."""
    if isinstance(group, ab.FgAbGroup):
        return _ABELIAN_BACKEND
    if isinstance(group, fg.FiniteGroup):
        return _FINITE_BACKEND
    raise ValidationError(f"unsupported group {group!r}")


@dataclass(frozen=True)
class PreOrdObj:
    group: object  # FgAbGroup | FiniteGroup
    cone: object  # IntMatrix of generator rows | product-closed frozenset

    @property
    def backend(self):
        return _backend_of(self.group)

    @property
    def universe(self) -> str:
        return self.backend.name

    def __repr__(self):
        return f"PreOrdObj({self.group!r}, cone={self.backend.cone_elements(self.cone)})"


@dataclass(frozen=True)
class PreOrdMor:
    dom: PreOrdObj
    cod: PreOrdObj
    map: object  # AbMorphism | FinMorphism

    def __repr__(self):
        return f"PreOrdMor({self.dom!r} -> {self.cod!r})"


def make_object(group, cone) -> PreOrdObj:
    """Validate and build an object; finite cones are given by generators."""
    return PreOrdObj(group, _backend_of(group).make_cone(group, cone))


def discrete_object(group) -> PreOrdObj:
    """The group with the trivial preorder."""
    return make_object(group, ())


@lru_cache(maxsize=65536)
def _membership_record(gens: IntMatrix, relations: IntMatrix, x: Vec) -> list:
    """The cache cell of one query, updated in place: [answer, states
    visited], or [UNDECIDED, largest budget known to run out]."""
    return [UNDECIDED, -1]


def cone_membership(gens: IntMatrix, relations: IntMatrix, x: Vec, budget: int):
    """Nonnegative coefficients c with x = c*gens modulo the relations'
    lattice, None when there are none, or UNDECIDED when settling it takes
    more than `budget` Hilbert states.  Cached; see the module docstring."""
    record = _membership_record(gens, relations, x)
    answer, states = record
    if answer is UNDECIDED:
        if budget <= states:
            return UNDECIDED
        try:
            answer, states = nonneg_search(gens, relations, x, budget)
        except ResourceLimitError:
            record[1] = budget
            return UNDECIDED
        record[:] = answer, states
    return answer if budget >= states else UNDECIDED


@lru_cache(maxsize=4096)
def _zero_solutions(gens: IntMatrix, relations: IntMatrix):
    return monoid_zero_solutions(gens, relations)


def cone_certificate(obj: PreOrdObj, x, budget: int | None = None):
    """Abelian: nonnegative coefficients writing x over the cone generators,
    or None.  Over a basis cone (the identity matrix of the group's rank) a
    nonnegative x is its own certificate, found without a search.  With a
    budget, a search needing more states returns UNDECIDED; without one it
    may use HILBERT_STATE_CAP states and raises ResourceLimitError beyond."""
    x = tuple(x)
    if min(x, default=0) >= 0 and obj.cone == IntMatrix.identity(obj.group.rank):
        return x
    if ab.is_zero_element(obj.group, x):
        return (0,) * obj.cone.rows
    limit = HILBERT_STATE_CAP if budget is None else budget
    got = cone_membership(obj.cone, obj.group.reduced_relations, x, limit)
    if got is UNDECIDED and budget is None:
        raise ResourceLimitError(f"Hilbert completion exceeded {HILBERT_STATE_CAP} states")
    return got


def cone_contains(obj: PreOrdObj, x) -> bool:
    return obj.backend.contains(obj, x) is not None


def make_morphism(dom: PreOrdObj, cod: PreOrdObj, mapping, budget=None) -> PreOrdMor:
    """Validate a morphism, checking cone images in cone_elements order.

    Raises ValidationError at the first image outside the cone, and
    ResourceLimitError at one whose search needs more than `budget` states
    (HILBERT_STATE_CAP without a budget).
    """
    if dom.universe != cod.universe:
        raise ValidationError("morphisms do not cross universes")
    be = dom.backend
    if isinstance(mapping, (ab.AbMorphism, fg.FinMorphism)):
        if mapping.dom != dom.group or mapping.cod != cod.group:
            raise ValidationError("underlying morphism endpoints do not match")
        m = mapping
    else:
        m = be.build_map(dom.group, cod.group, mapping)
    for x in be.cone_elements(dom.cone):
        y = be.apply(m, x)
        cert = be.contains(cod, y, budget)
        if cert is None:
            raise ValidationError(f"cone element {x} maps to {y}, outside the cone", witness=x)
        if cert is UNDECIDED:
            raise ResourceLimitError(f"membership of {y} needs more than {budget} states")
    return PreOrdMor(dom, cod, m)


def identity_preord(obj: PreOrdObj) -> PreOrdMor:
    return PreOrdMor(obj, obj, obj.backend.identity(obj.group))


def zero_preord(dom: PreOrdObj, cod: PreOrdObj) -> PreOrdMor:
    return PreOrdMor(dom, cod, dom.backend.zero(dom.group, cod.group))


def compose_preord(f: PreOrdMor, g: PreOrdMor) -> PreOrdMor:
    """f then g."""
    if f.cod != g.dom:
        raise ValidationError("middle objects differ in composition")
    return PreOrdMor(f.dom, g.cod, f.dom.backend.compose(f.map, g.map))


def mor_eq(f: PreOrdMor, g: PreOrdMor) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    return f.dom.backend.map_eq(f.map, g.map)


@dataclass(frozen=True)
class MorphismClass:
    mono: bool
    epi: bool
    regular_epi: bool


def classify_morphism(f: PreOrdMor) -> MorphismClass:
    """Monos are injections, epis surjections; a regular epi also covers the cone."""
    be = f.dom.backend
    epi = be.surjective(f.map)
    image = PreOrdObj(f.cod.group, be.push_cone(f.dom.cone, f.map))
    reg = epi and all(cone_contains(image, y) for y in be.cone_elements(f.cod.cone))
    return MorphismClass(be.injective(f.map), epi, reg)


def is_isomorphism(f: PreOrdMor) -> bool:
    c = classify_morphism(f)
    return c.mono and c.epi and c.regular_epi


def kernel(f: PreOrdMor):
    """(K, K meet P) with its inclusion; returns (object, morphism into dom)."""
    be = f.dom.backend
    kgroup, incl = be.kernel(f.map)
    kobj = PreOrdObj(kgroup, be.pull_cone(be.killed_cone(f), incl))
    return kobj, PreOrdMor(kobj, f.dom, incl)


def _quotient(obj: PreOrdObj, elements):
    """obj modulo a normal set of elements, cone pushed forward; returns
    (object, projection)."""
    be = obj.backend
    group, proj = be.quotient(obj.group, elements)
    qobj = PreOrdObj(group, be.push_cone(obj.cone, proj))
    return qobj, PreOrdMor(obj, qobj, proj)


def cokernel(f: PreOrdMor):
    """Quotient by the normal closure of the image, cone pushed forward."""
    be = f.cod.backend
    images = [be.apply(f.map, x) for x in be.generators(f.dom.group)]
    return _quotient(f.cod, be.normal_closure(f.cod.group, images))


def is_z_trivial(f: PreOrdMor) -> bool:
    """True when the morphism kills the whole cone."""
    be = f.dom.backend
    return all(
        be.is_zero(f.cod.group, be.apply(f.map, x)) for x in be.cone_elements(f.dom.cone)
    )


def z_kernel(f: PreOrdMor):
    """Same group, cone restricted to what f kills; returns (object, morphism).

    The morphism is the identity on the group.  Abelian cone generators are
    the minimal nonnegative combinations of the original generators that
    map to zero, in the order the Hilbert basis lists them.
    """
    be = f.dom.backend
    zobj = PreOrdObj(f.dom.group, be.killed_cone(f))
    return zobj, PreOrdMor(zobj, f.dom, be.identity(f.dom.group))


def z_cokernel(f: PreOrdMor):
    """Quotient by the normal closure of the image of the cone."""
    be = f.cod.backend
    images = [be.apply(f.map, x) for x in be.cone_elements(f.dom.cone)]
    return _quotient(f.cod, be.normal_closure(f.cod.group, images))


def touched_unit_generators(obj: PreOrdObj) -> tuple:
    """Cone generators that occur in some zero-sum; these generate the units.

    A generator g_i is a unit exactly when some minimal nonnegative
    combination of the generators vanishing in the group gives it positive
    weight: the rest of that combination is then an inverse for g_i, and
    conversely any unit's two witnessing combinations sum to a vanishing
    one.  The touched generators therefore generate the whole unit group
    as a monoid."""
    sols = _zero_solutions(obj.cone, obj.group.reduced_relations)
    touched = {i for c in sols for i in range(len(c)) if c[i] > 0}
    return tuple(sorted(touched))


def torsion_part(obj: PreOrdObj):
    """(G, U(P)) with its inclusion into (G, P), the identity on the group."""
    be = obj.backend
    tobj = PreOrdObj(obj.group, be.unit_cone(obj))
    return tobj, PreOrdMor(tobj, obj, be.identity(obj.group))


@dataclass(frozen=True)
class CanonicalSeq:
    torsion: PreOrdObj
    kappa: PreOrdMor  # torsion -> obj, identity on the group
    obj: PreOrdObj
    torsion_free: PreOrdObj
    eta: PreOrdMor  # obj -> torsion_free, quotient by the units


def canonical_sequence(obj: PreOrdObj) -> CanonicalSeq:
    """Units-and-quotient sequence (G, U(P)) -> (G, P) ->> (G/U(P), image of P)."""
    tobj, kappa = torsion_part(obj)
    tfobj, eta = _quotient(obj, obj.backend.cone_elements(tobj.cone))
    return CanonicalSeq(tobj, kappa, obj, tfobj, eta)


@dataclass(frozen=True)
class ObjectClass:
    torsion: bool  # the cone is a group
    torsion_free: bool  # the cone has no nontrivial units


def classify_object(obj: PreOrdObj) -> ObjectClass:
    be = obj.backend
    tobj, _ = torsion_part(obj)
    torsion_free = all(be.is_zero(obj.group, x) for x in be.cone_elements(tobj.cone))
    return ObjectClass(tobj.cone == obj.cone, torsion_free)


def functor_D(obj: PreOrdObj) -> PreOrdObj:
    """Same group, trivial preorder."""
    return discrete_object(obj.group)


def functor_D_mor(f: PreOrdMor) -> PreOrdMor:
    return PreOrdMor(functor_D(f.dom), functor_D(f.cod), f.map)


def counit_iota(obj: PreOrdObj) -> PreOrdMor:
    """D(X) -> X, the identity on the underlying group."""
    return PreOrdMor(functor_D(obj), obj, obj.backend.identity(obj.group))


def functor_C(obj: PreOrdObj):
    """Quotient by the subgroup the cone generates; returns (C(X), unit pi).

    A finite cone is already a normal subgroup; an abelian one generates one."""
    be = obj.backend
    qgroup, proj = be.quotient(obj.group, be.cone_elements(obj.cone))
    cobj = discrete_object(qgroup)
    return cobj, PreOrdMor(obj, cobj, proj)


def functor_C_mor(f: PreOrdMor) -> PreOrdMor:
    be = f.dom.backend
    cdom, pid = functor_C(f.dom)
    ccod, pic = functor_C(f.cod)
    psi = be.factor_epi(be.compose(f.map, pic.map), pid.map)
    if psi is None:
        raise ValidationError("stable quotient does not receive the morphism")
    return PreOrdMor(cdom, ccod, psi)


@dataclass(frozen=True)
class PullbackSquare:
    obj: PreOrdObj
    to_dom: PreOrdMor  # projection onto the morphism's domain
    to_discrete: PreOrdMor  # projection onto D(codomain)
    comparison: PreOrdMor  # from the z-kernel object, an isomorphism


def pullback_with_counit(f: PreOrdMor) -> PullbackSquare:
    """Pullback of f along the counit D(cod) -> cod.

    The comparison morphism re-states the z-kernel as this pullback; its
    cone generators are aligned index by index with the z-kernel's.
    """
    X, Y = f.dom, f.cod
    dy = functor_D(Y)
    zobj, _ = z_kernel(f)
    if X.universe == FINITE:
        # graph of f inside X x Y, presented on its first coordinate
        ident = X.backend.identity(X.group)
        to_dom, to_disc = PreOrdMor(zobj, X, ident), PreOrdMor(zobj, dy, f.map)
        return PullbackSquare(zobj, to_dom, to_disc, PreOrdMor(zobj, zobj, ident))
    be = X.backend
    rx, ry = X.group.rank, Y.group.rank
    total = ab.direct_sum(X.group, Y.group)
    diff = ab.AbMorphism(total, Y.group, f.map.matrix.stack(IntMatrix.identity(ry).neg()))
    pbgroup, incl = ab.kernel(diff)
    pbcone = be.pull_cone(_hcat(zobj.cone, IntMatrix.zeros(zobj.cone.rows, ry)), incl)
    pbobj = PreOrdObj(pbgroup, pbcone)
    # the projections of X + Y onto its two summands
    first = IntMatrix.identity(rx).stack(IntMatrix.zeros(ry, rx))
    second = IntMatrix.zeros(rx, ry).stack(IntMatrix.identity(ry))
    to_dom = PreOrdMor(pbobj, X, ab.AbMorphism(pbgroup, X.group, incl.matrix.mul(first)))
    to_disc = PreOrdMor(pbobj, dy, ab.AbMorphism(pbgroup, Y.group, incl.matrix.mul(second)))
    graph = ab.make_morphism(X.group, total, _hcat(IntMatrix.identity(rx), f.map.matrix))
    cmp_map = ab.factor_through_injection(graph, incl)
    comparison = PreOrdMor(zobj, pbobj, cmp_map)
    return PullbackSquare(pbobj, to_dom, to_disc, comparison)


@dataclass(frozen=True)
class PushoutSquare:
    obj: PreOrdObj
    from_cod: PreOrdMor  # injection of the morphism's codomain
    from_stable: PreOrdMor  # injection of C(domain)
    comparison: PreOrdMor  # from the z-cokernel object, an isomorphism


def pushout_with_unit(f: PreOrdMor) -> PushoutSquare:
    """Pushout of f along the unit dom -> C(dom); abelian universe only."""
    if f.dom.universe == FINITE:
        raise ValidationError("pushouts are only available in the abelian universe")
    X, Y = f.dom, f.cod
    cx, _ = functor_C(X)
    ry, rc = Y.group.rank, cx.group.rank
    graph = _hcat(f.map.matrix, IntMatrix.identity(rc).neg())
    pogroup, _ = ab.quotient(ab.direct_sum(Y.group, cx.group), graph)
    # the injections of the two summands of Y + C(X)
    in1 = ab.AbMorphism(Y.group, pogroup, _hcat(IntMatrix.identity(ry), IntMatrix.zeros(ry, rc)))
    in2 = ab.AbMorphism(cx.group, pogroup, _hcat(IntMatrix.zeros(rc, ry), IntMatrix.identity(rc)))
    poobj = PreOrdObj(pogroup, _hcat(Y.cone, IntMatrix.zeros(Y.cone.rows, rc)))
    from_cod = PreOrdMor(Y, poobj, in1)
    from_stable = PreOrdMor(cx, poobj, in2)
    zobj, _ = z_cokernel(f)
    cmp_map = ab.make_morphism(zobj.group, pogroup, in1.matrix.to_rows())
    comparison = PreOrdMor(zobj, poobj, cmp_map)
    return PushoutSquare(poobj, from_cod, from_stable, comparison)
