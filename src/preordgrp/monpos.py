"""Positive-cone monoids and the cone functor from preordered groups.

A cone monoid is the positive cone of a preordered group kept together
with its ambient group: abelian monoids are generator rows over a
presented group, finite ones are closed subsets of a Cayley-table group.
The group completion is presented on generator coordinates (one basis
element per monoid generator, relations the vanishing lattice), so a
monoid morphism is stored as the induced homomorphism between the
completions and validates by a single relation check plus membership
certificates for the generator images.

The torsion theory of this category is computed exactly: the unit group
of a monoid, the reduced quotient by it, the short exact sequence they
form, and the factorization helpers that make its kernel / cokernel
universal properties checkable.  The cone functor P sends objects to
their cones and morphisms to their certificate matrices; the comparison
morphism embeds the completion back into the ambient group, and the
consistency map identifies P of that completion object with the monoid
it came from.

Everything is written once on top of the preord backend of the ambient
group.  The universes part only where they compute different things:
finite cones are subgroups, so every finite monoid is all units, its
reduced quotient is trivial and any homomorphism of completions preserves
it, while abelian monoid morphisms carry generator certificates.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import fgabelian as ab
from . import finitegroup as fg
from . import preord as po
from .errors import ValidationError

ABELIAN = po.ABELIAN
FINITE = po.FINITE


@dataclass(frozen=True)
class ConeMonoid:
    ambient: object  # FgAbGroup | FiniteGroup
    gens: object  # IntMatrix of generator rows | frozenset of elements

    @property
    def backend(self):
        return po._backend_of(self.ambient)

    @property
    def universe(self) -> str:
        return self.backend.name

    def __repr__(self):
        return f"ConeMonoid({self.ambient!r}, gens={self.backend.listed(self.gens)})"


def positive_cone(obj: po.PreOrdObj) -> ConeMonoid:
    return ConeMonoid(obj.group, obj.cone)


def ambient_object(m: ConeMonoid) -> po.PreOrdObj:
    return po.PreOrdObj(m.ambient, m.gens)


@lru_cache(maxsize=4096)
def group_completion(m: ConeMonoid):
    """The subgroup the monoid generates, on generator coordinates.

    Returns (group, embed) with embed the injection into the ambient
    group; abelian completions have one basis element per generator and
    the vanishing lattice as relations, finite ones are the closed subset
    itself presented as a group.
    """
    return m.backend.completion(m.ambient, m.gens)


def completion_object(m: ConeMonoid) -> po.PreOrdObj:
    """The completion preordered by the monoid itself."""
    group, _ = group_completion(m)
    return po.PreOrdObj(group, m.backend.completion_cone(group))


def ore_condition_failure(m: ConeMonoid):
    """A pair (a, b) with no common multiple x + a = y + b inside the monoid.

    Abelian monoids always satisfy the condition with x = b, y = a.  Finite
    cones are subgroups, so the exhaustive scan is a consistency check.
    """
    if m.universe == ABELIAN:
        return None
    for a in m.gens:
        for b in m.gens:
            target = {m.ambient.mul(x, a) for x in m.gens}
            if target.isdisjoint({m.ambient.mul(y, b) for y in m.gens}):
                return (a, b)
    return None


@dataclass(frozen=True)
class MonMorphism:
    dom: ConeMonoid
    cod: ConeMonoid
    ext: object  # AbMorphism | FinMorphism between the completions

    def __repr__(self):
        return f"MonMorphism({self.dom!r} -> {self.cod!r})"


def make_mon_morphism(dom: ConeMonoid, cod: ConeMonoid, rows) -> MonMorphism:
    """Build from generator images given in codomain generator coordinates.

    The relation check on the completions makes the assignment
    well-defined; each abelian image row must describe a monoid element,
    which is immediate when the row is nonnegative and otherwise decided
    exactly.  A finite completion is the whole monoid.
    """
    if dom.universe != cod.universe:
        raise ValidationError("morphisms do not cross universes")
    gd, _ = group_completion(dom)
    gc, _ = group_completion(cod)
    ext = dom.backend.make_map(gd, gc, rows)
    if dom.universe == ABELIAN:
        target = completion_object(cod)
        for i in range(gd.rank):
            row = ext.matrix.row(i)
            if all(v >= 0 for v in row):
                continue  # the row is its own membership certificate
            if po.cone_certificate(target, row) is None:
                raise ValidationError(
                    f"generator {i} maps to {row}, outside the monoid", witness=(i, row)
                )
    return MonMorphism(dom, cod, ext)


def mon_identity(m: ConeMonoid) -> MonMorphism:
    group, _ = group_completion(m)
    return MonMorphism(m, m, m.backend.identity(group))


def mon_zero(dom: ConeMonoid, cod: ConeMonoid) -> MonMorphism:
    gd, _ = group_completion(dom)
    gc, _ = group_completion(cod)
    return MonMorphism(dom, cod, dom.backend.zero(gd, gc))


def mon_compose(f: MonMorphism, g: MonMorphism) -> MonMorphism:
    if f.cod != g.dom:
        raise ValidationError("middle monoids differ in composition")
    return MonMorphism(f.dom, g.cod, f.dom.backend.compose(f.ext, g.ext))


def mon_eq(f: MonMorphism, g: MonMorphism) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    return f.dom.backend.map_eq(f.ext, g.ext)


def mon_is_zero(h: MonMorphism) -> bool:
    be = h.dom.backend
    gc, _ = group_completion(h.cod)
    return all(be.is_zero(gc, be.apply(h.ext, x)) for x in be.generators(h.ext.dom))


def mon_is_isomorphism(h: MonMorphism) -> bool:
    """Whether h is an isomorphism between the completion objects."""
    return po.is_isomorphism(
        po.make_morphism(completion_object(h.dom), completion_object(h.cod), h.ext)
    )


def is_group_monoid(m: ConeMonoid) -> bool:
    """Every element invertible: each generator occurs in a vanishing sum."""
    return po.classify_object(ambient_object(m)).torsion


def is_reduced(m: ConeMonoid) -> bool:
    """No unit but zero."""
    return po.classify_object(ambient_object(m)).torsion_free


def is_trivial_monoid(m: ConeMonoid) -> bool:
    be = m.backend
    return all(be.is_zero(m.ambient, x) for x in be.cone_elements(m.gens))


def units(m: ConeMonoid):
    """The unit group as a submonoid; returns (U, inclusion)."""
    tobj, kappa = po.torsion_part(ambient_object(m))
    return positive_cone(tobj), positive_cone_mor(kappa)


def quotient_by_units(m: ConeMonoid):
    """The reduced quotient; returns (M/U, projection)."""
    if m.universe == FINITE:
        # every element is a unit, so the quotient is trivial
        reduced = ConeMonoid(fg.trivial_group(), frozenset({0}))
        group, _ = group_completion(m)
        return reduced, MonMorphism(m, reduced, fg.fin_zero_morphism(group, fg.trivial_group()))
    seq = po.canonical_sequence(ambient_object(m))
    return positive_cone(seq.torsion_free), positive_cone_mor(seq.eta)


@dataclass(frozen=True)
class MonSes:
    units: ConeMonoid
    kappa: MonMorphism
    monoid: ConeMonoid
    reduced: ConeMonoid
    eta: MonMorphism


def torsion_ses(m: ConeMonoid) -> MonSes:
    """U(M) -> M ->> M/U(M)."""
    u, kappa = units(m)
    reduced, eta = quotient_by_units(m)
    return MonSes(u, kappa, m, reduced, eta)


def factor_through_units(h: MonMorphism, u: ConeMonoid) -> MonMorphism | None:
    """Factor h: T -> M through the unit inclusion U -> M, if possible.

    Exists exactly when every generator image of h is a unit, which makes
    the inclusion the kernel of the reduced quotient.
    """
    be = h.dom.backend
    _, embed = group_completion(h.cod)
    _, incl = group_completion(u)
    lift = be.factor_mono(be.compose(h.ext, embed), incl)
    try:
        return None if lift is None else make_mon_morphism(h.dom, u, lift)
    except ValidationError:
        return None


def factor_through_reduction(h: MonMorphism, eta: MonMorphism) -> MonMorphism | None:
    """Factor h: M -> T through the reduced quotient M -> M/U, if possible.

    Exists exactly when h kills the units, which makes the quotient the
    cokernel of the unit inclusion.
    """
    psi = h.dom.backend.factor_epi(h.ext, eta.ext)
    try:
        return None if psi is None else make_mon_morphism(eta.cod, h.cod, psi)
    except ValidationError:
        return None


def positive_cone_mor(f: po.PreOrdMor) -> MonMorphism:
    """P on morphisms: the restriction of f to the cones.

    Abelian morphisms carry membership certificates for their generator
    images; those certificate rows are exactly the extension matrix on
    generator coordinates.
    """
    mdom = positive_cone(f.dom)
    mcod = positive_cone(f.cod)
    if f.dom.universe == ABELIAN:
        certs = f.certs
        if certs is None:
            certs = tuple(
                po.cone_certificate(f.cod, ab.apply(f.map, f.dom.cone.row(i)))
                for i in range(f.dom.cone.rows)
            )
        return make_mon_morphism(mdom, mcod, [list(c) for c in certs])
    gd, incl_d = group_completion(mdom)
    gc, incl_c = group_completion(mcod)
    index_c = {a: i for i, a in enumerate(incl_c.mapping)}
    mapping = tuple(index_c[f.map.mapping[a]] for a in incl_d.mapping)
    return MonMorphism(mdom, mcod, fg.FinMorphism(gd, gc, mapping))


def comparison_morphism(m: ConeMonoid) -> po.PreOrdMor:
    """(completion, M) -> (ambient, M), always a monomorphism."""
    _, embed = group_completion(m)
    certs = m.backend.unit_certs(m.gens)
    return po.PreOrdMor(completion_object(m), ambient_object(m), embed, certs)


def fhat_consistency(m: ConeMonoid) -> MonMorphism:
    """P of the completion object back onto the monoid, an isomorphism."""
    source = positive_cone(completion_object(m))
    gs, _ = group_completion(source)
    # completing the completion relabels nothing: each generator of gs goes
    # to the generator of m's completion with the same coordinate
    return make_mon_morphism(source, m, m.backend.generators(gs))


@dataclass(frozen=True)
class SpecialSes:
    sub: po.PreOrdObj
    incl: po.PreOrdMor
    obj: po.PreOrdObj
    quot: po.PreOrdObj
    proj: po.PreOrdMor


def special_ses(obj: po.PreOrdObj, subgroup) -> SpecialSes:
    """(H, P) -> (G, P) ->> (G/H, 0) for a subgroup H containing the cone.

    The cone functor collapses the right leg, so the sequence P maps to
    has an isomorphic left leg and a trivial right term.
    """
    be = obj.backend
    sub, incl_map = be.subgroup(obj.group, subgroup)
    cone = be.pull_cone(obj.cone, incl_map)
    if cone is None:
        raise ValidationError("subgroup does not contain the cone")
    sub_obj = po.PreOrdObj(sub, cone)
    incl = po.PreOrdMor(sub_obj, obj, incl_map, be.unit_certs(obj.cone))
    quot, proj = po.cokernel(incl)
    return SpecialSes(sub_obj, incl, obj, quot, proj)
