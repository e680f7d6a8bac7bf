"""The cone functor P and the group completion Σ.

A monoid is carried by the preordered group it is the cone of, a
preord.PreOrdObj, so P is the identity on objects.  Σ sends a monoid to
its group completion, presented on generator coordinates (one basis
element per monoid generator, relations the vanishing lattice) and
preordered by the monoid itself: the completion object.  A monoid
morphism M -> N is a preord morphism between the completion objects of
M and N; such a cone generates its group, so z-trivial means zero.

P sends a morphism to the map between the completions whose rows are the
membership certificates of its cone generators' images.  torsion_ses
applies P to the legs of preord's canonical sequence, which units and
quotient_by_units return.  comparison_morphism, the embedding of the
completion into the ambient group, is the one place Σ is assembled; the
consistency map identifies P of that completion object with the monoid.

The universes part only where they compute different things: finite
cones are subgroups, so every finite monoid is all units, its reduced
quotient is trivial and any homomorphism of completions preserves it,
while abelian P asks the membership oracle for its certificates.
"""

from . import finitegroup as fg
from . import preord as po


def positive_cone(obj: po.PreOrdObj) -> po.PreOrdObj:
    """P on objects: a monoid is carried by the object it is the cone of."""
    return obj


def group_completion(m: po.PreOrdObj):
    """The subgroup the monoid generates, on generator coordinates.

    Returns (group, embed) with embed the injection into the ambient
    group; abelian completions have one basis element per generator and
    the vanishing lattice as relations, finite ones are the closed subset
    itself presented as a group.  Uncached: preimage_lattice caches by matrix.
    """
    return m.backend.completion(m.group, m.cone)


def completion_object(m: po.PreOrdObj) -> po.PreOrdObj:
    """The completion preordered by the monoid itself."""
    return comparison_morphism(m).dom


def units(m: po.PreOrdObj):
    """The unit group as a submonoid; returns (U, its preord inclusion)."""
    return po.torsion_part(m)


def quotient_by_units(m: po.PreOrdObj):
    """The reduced quotient; returns (M/U, the preord projection out of M)."""
    if m.universe == po.FINITE:
        # every element is a unit, so the quotient is trivial
        reduced = po.PreOrdObj(fg.cyclic_group(1), frozenset({0}))
        return reduced, po.zero_preord(m, reduced)
    seq = po.canonical_sequence(m)
    return seq.torsion_free, seq.eta


def torsion_ses(m: po.PreOrdObj) -> po.CanonicalSeq:
    """U(M) -> M ->> M/U(M): P of the units' and reduced quotient's legs."""
    u, kappa = units(m)
    reduced, eta = quotient_by_units(m)
    return po.CanonicalSeq(u, positive_cone_mor(kappa), m, reduced, positive_cone_mor(eta))


def positive_cone_mor(f: po.PreOrdMor) -> po.PreOrdMor:
    """P on morphisms: the restriction of f to the cones.

    Abelian: the membership certificate of each domain cone generator's
    image, nonnegative coefficients over the codomain cone generators, is
    the row of the map between the completions, on generator coordinates.
    Raises ValidationError when an image lies outside the codomain cone.
    """
    into_d, into_c = comparison_morphism(f.dom), comparison_morphism(f.cod)
    source, target = into_d.dom, into_c.dom
    if f.dom.universe == po.ABELIAN:
        be = f.dom.backend
        rows = []
        for x in be.cone_elements(f.dom.cone):
            y = be.apply(f.map, x)
            rows.append(po.cone_certificate(f.cod, y))
            if rows[-1] is None:
                raise po.ValidationError(f"cone element {x} maps to {y}, outside the cone", witness=x)
        return po.make_morphism(source, target, rows)
    index_c = {a: i for i, a in enumerate(into_c.map.mapping)}
    mapping = tuple(index_c[f.map.mapping[a]] for a in into_d.map.mapping)
    return po.PreOrdMor(source, target, fg.FinMorphism(source.group, target.group, mapping))


def comparison_morphism(m: po.PreOrdObj) -> po.PreOrdMor:
    """(completion, M) -> (ambient, M), always mono; the one place Σ is built."""
    group, embed = group_completion(m)
    return po.PreOrdMor(po.PreOrdObj(group, m.backend.completion_cone(group)), m, embed)


def fhat_consistency(m: po.PreOrdObj) -> po.PreOrdMor:
    """P of the completion object back onto the monoid, an isomorphism."""
    source = completion_object(m)
    completed = comparison_morphism(source).dom
    # completing the completion relabels nothing: each generator of its
    # group goes to the generator of m's completion with the same coordinate
    return po.make_morphism(completed, source, m.backend.generators(completed.group))
