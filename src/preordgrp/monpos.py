"""Positive-cone monoids and the cone functor from preordered groups.

A monoid is carried by the preordered group it is the cone of, a
preord.PreOrdObj: abelian monoids are generator rows over a presented
group, finite ones are closed subsets of a Cayley-table group.  Its group
completion is presented on generator coordinates (one basis
element per monoid generator, relations the vanishing lattice), and the
completion object is that group preordered by the monoid.  A monoid
morphism M -> N is a preord morphism between the completion objects of
M and N; such a cone generates its group, so z-trivial means zero.

The torsion theory of this category is computed exactly: the unit group
of a monoid, the reduced quotient by it, and the short exact sequence
they form.  The cone functor P is the identity on objects and sends
morphisms to their certificate matrices; the comparison morphism embeds
the completion back into the ambient group, and the consistency map
identifies P of that completion object with the monoid it came from.

Everything is written once on top of the preord backend of the ambient
group.  The universes part only where they compute different things:
finite cones are subgroups, so every finite monoid is all units, its
reduced quotient is trivial and any homomorphism of completions preserves
it, while abelian monoid morphisms carry generator certificates.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import finitegroup as fg
from . import preord as po
from .errors import ValidationError


def positive_cone(obj: po.PreOrdObj) -> po.PreOrdObj:
    """P on objects: a monoid is carried by the object it is the cone of."""
    return obj


@lru_cache(maxsize=4096)
def group_completion(m: po.PreOrdObj):
    """The subgroup the monoid generates, on generator coordinates.

    Returns (group, embed) with embed the injection into the ambient
    group; abelian completions have one basis element per generator and
    the vanishing lattice as relations, finite ones are the closed subset
    itself presented as a group.
    """
    return m.backend.completion(m.group, m.cone)


def completion_object(m: po.PreOrdObj) -> po.PreOrdObj:
    """The completion preordered by the monoid itself."""
    group, _ = group_completion(m)
    return po.PreOrdObj(group, m.backend.completion_cone(group))


def ore_condition_failure(m: po.PreOrdObj):
    """A pair (a, b) with no common multiple x + a = y + b inside the monoid.

    Abelian monoids always satisfy the condition with x = b, y = a.  Finite
    cones are subgroups, so the exhaustive scan is a consistency check.
    """
    if m.universe == po.ABELIAN:
        return None
    for a in m.cone:
        for b in m.cone:
            target = {m.group.mul(x, a) for x in m.cone}
            if target.isdisjoint({m.group.mul(y, b) for y in m.cone}):
                return (a, b)
    return None


def make_mon_morphism(dom: po.PreOrdObj, cod: po.PreOrdObj, rows) -> po.PreOrdMor:
    """Build from generator images given in codomain generator coordinates;
    over the completion's basis cone a nonnegative row is its own
    certificate."""
    return po.make_morphism(completion_object(dom), completion_object(cod), rows)


def is_trivial_monoid(m: po.PreOrdObj) -> bool:
    be = m.backend
    return all(be.is_zero(m.group, x) for x in be.cone_elements(m.cone))


def units(m: po.PreOrdObj):
    """The unit group as a submonoid; returns (U, inclusion)."""
    tobj, kappa = po.torsion_part(m)
    return tobj, positive_cone_mor(kappa)


def quotient_by_units(m: po.PreOrdObj):
    """The reduced quotient; returns (M/U, projection)."""
    if m.universe == po.FINITE:
        # every element is a unit, so the quotient is trivial
        reduced = po.PreOrdObj(fg.trivial_group(), frozenset({0}))
        return reduced, po.zero_preord(completion_object(m), completion_object(reduced))
    seq = po.canonical_sequence(m)
    return seq.torsion_free, positive_cone_mor(seq.eta)


@dataclass(frozen=True)
class MonSes:
    units: po.PreOrdObj
    kappa: po.PreOrdMor
    monoid: po.PreOrdObj
    reduced: po.PreOrdObj
    eta: po.PreOrdMor


def torsion_ses(m: po.PreOrdObj) -> MonSes:
    """U(M) -> M ->> M/U(M)."""
    u, kappa = units(m)
    reduced, eta = quotient_by_units(m)
    return MonSes(u, kappa, m, reduced, eta)


def positive_cone_mor(f: po.PreOrdMor) -> po.PreOrdMor:
    """P on morphisms: the restriction of f to the cones.

    Abelian morphisms carry membership certificates for their generator
    images; those certificate rows are exactly the matrix of the map
    between the completions, on generator coordinates.
    """
    if f.dom.universe == po.ABELIAN:
        certs = f.certs
        if certs is None:
            certs = po.make_morphism(f.dom, f.cod, f.map).certs
        return make_mon_morphism(f.dom, f.cod, [list(c) for c in certs])
    gd, incl_d = group_completion(f.dom)
    gc, incl_c = group_completion(f.cod)
    index_c = {a: i for i, a in enumerate(incl_c.mapping)}
    mapping = tuple(index_c[f.map.mapping[a]] for a in incl_d.mapping)
    return po.PreOrdMor(
        completion_object(f.dom), completion_object(f.cod), fg.FinMorphism(gd, gc, mapping)
    )


def comparison_morphism(m: po.PreOrdObj) -> po.PreOrdMor:
    """(completion, M) -> (ambient, M), always a monomorphism."""
    _, embed = group_completion(m)
    certs = m.backend.unit_certs(m.cone)
    return po.PreOrdMor(completion_object(m), m, embed, certs)


def fhat_consistency(m: po.PreOrdObj) -> po.PreOrdMor:
    """P of the completion object back onto the monoid, an isomorphism."""
    source = completion_object(m)
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
