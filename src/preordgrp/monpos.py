"""The cone functor P and the group completion Σ.

A monoid is carried by the preordered group it is the cone of, a
preord.PreOrdObj, so P is the identity on objects.  Σ sends a monoid to
its group completion, presented on generator coordinates (one basis
element per monoid generator, relations the vanishing lattice) and
preordered by the monoid itself: the completion object.  A monoid
morphism M -> N is a preord morphism between the completion objects of
M and N; such a cone generates its group, so z-trivial means zero.

P sends a morphism to the map between the completions whose rows are the
membership certificates of its cone generators' images.  The torsion
sequence of a monoid is preord's canonical sequence with P applied to its
legs.  The comparison morphism embeds the completion back into the
ambient group, and the consistency map identifies P of that completion
object with the monoid it came from.

The universes part only where they compute different things: finite
cones are subgroups, so every finite monoid is all units, its reduced
quotient is trivial and any homomorphism of completions preserves it,
while abelian P asks the membership oracle for its certificates.
"""

from functools import lru_cache

from . import finitegroup as fg
from . import preord as po


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


def torsion_ses(m: po.PreOrdObj) -> po.CanonicalSeq:
    """U(M) -> M ->> M/U(M), with legs between completion objects."""
    u, kappa = units(m)
    reduced, eta = quotient_by_units(m)
    return po.CanonicalSeq(u, kappa, m, reduced, eta)


def positive_cone_mor(f: po.PreOrdMor) -> po.PreOrdMor:
    """P on morphisms: the restriction of f to the cones.

    Abelian: the membership certificate of each domain cone generator's
    image, nonnegative coefficients over the codomain cone generators, is
    the row of the map between the completions, on generator coordinates.
    Raises ValidationError when an image lies outside the codomain cone.
    """
    source, target = completion_object(f.dom), completion_object(f.cod)
    if f.dom.universe == po.ABELIAN:
        be = f.dom.backend
        rows = []
        for x in be.cone_elements(f.dom.cone):
            y = be.apply(f.map, x)
            rows.append(po.cone_certificate(f.cod, y))
            if rows[-1] is None:
                raise po.ValidationError(f"cone element {x} maps to {y}, outside the cone", witness=x)
        return po.make_morphism(source, target, rows)
    gd, incl_d = group_completion(f.dom)
    gc, incl_c = group_completion(f.cod)
    index_c = {a: i for i, a in enumerate(incl_c.mapping)}
    mapping = tuple(index_c[f.map.mapping[a]] for a in incl_d.mapping)
    return po.PreOrdMor(source, target, fg.FinMorphism(gd, gc, mapping))


def comparison_morphism(m: po.PreOrdObj) -> po.PreOrdMor:
    """(completion, M) -> (ambient, M), always a monomorphism."""
    _, embed = group_completion(m)
    return po.PreOrdMor(completion_object(m), m, embed)


def fhat_consistency(m: po.PreOrdObj) -> po.PreOrdMor:
    """P of the completion object back onto the monoid, an isomorphism."""
    source = completion_object(m)
    gs, _ = group_completion(source)
    # completing the completion relabels nothing: each generator of gs goes
    # to the generator of m's completion with the same coordinate
    return po.make_morphism(completion_object(source), source, m.backend.generators(gs))
