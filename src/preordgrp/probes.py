"""Probe objects and seeded samplers for the checking harness.

The fixed probe lists cover the behaviours the constructions have to
distinguish: discrete preorders, total preorders, cones with and without
units, torsion and torsion-free parts, and a non-abelian cone.  The
samplers draw random objects and morphisms from a deterministic stream;
a sampler never fails, it falls back to the zero morphism when rejection
sampling finds nothing better, so sample counts stay exact.  Each universe
has one catalogue (its probes and its object sampler); both morphism
samplers retry in one loop, over the backend's or the monoid's candidates.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import fgabelian as ab
from . import finitegroup as fg
from . import monpos as mp
from . import preord as po
from .errors import ResourceLimitError, ValidationError
from .rng import DetRng


@dataclass(frozen=True)
class Probe:
    name: str
    obj: po.PreOrdObj


def _perm_group(perms) -> fg.FiniteGroup:
    group, _ = fg.group_from_permutations(perms)
    return group


def _symmetric3() -> fg.FiniteGroup:
    return _perm_group([(1, 0, 2), (1, 2, 0)])


def _alternating3() -> frozenset:
    g = _symmetric3()
    rotations = [a for a in range(g.order) if g.element_orders[a] != 2]
    return fg.submonoid_closure(g, rotations)


def _center(g: fg.FiniteGroup) -> frozenset:
    return frozenset(
        a
        for a in range(g.order)
        if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order))
    )


@lru_cache(maxsize=1)
def abelian_probes() -> tuple[Probe, ...]:
    z = ab.make_group(1, [])
    z2 = ab.make_group(1, [[2]])
    z4 = ab.make_group(1, [[4]])
    zz = ab.make_group(2, [])
    return (
        Probe("Z-discrete", po.discrete_object(z)),
        Probe("Z-natural", po.make_object(z, [[1]])),
        Probe("Z-even", po.make_object(z, [[2]])),
        Probe("Z-group-cone", po.make_object(z, [[1], [-1]])),
        Probe("Z2-discrete", po.discrete_object(z2)),
        Probe("Z2-full", po.make_object(z2, [[1]])),
        Probe("ZZ-halfplane", po.make_object(zz, [[1, 0], [-1, 0], [0, 1]])),
        Probe("Z4-even", po.make_object(z4, [[2]])),
    )


@lru_cache(maxsize=1)
def finite_probes() -> tuple[Probe, ...]:
    s3 = _symmetric3()
    c2 = fg.cyclic_group(2)
    c4 = fg.cyclic_group(4)
    c6 = fg.cyclic_group(6)
    q8 = _quaternion8()
    return (
        Probe("S3-alternating", po.make_object(s3, _alternating3())),
        Probe("S3-discrete", po.discrete_object(s3)),
        Probe("C2-full", po.make_object(c2, (1,))),
        Probe("C4-even", po.make_object(c4, (2,))),
        Probe("C6-even", po.make_object(c6, (2,))),
        Probe("Q8-center", po.make_object(q8, _center(q8))),
    )


def probes_for(universe: str) -> tuple[Probe, ...]:
    probes, _ = _catalogue(universe)
    return probes()


def _quaternion8() -> fg.FiniteGroup:
    # left multiplication by i and by j on (1, -1, i, -i, j, -j, k, -k)
    left_i = (2, 3, 1, 0, 6, 7, 5, 4)
    left_j = (4, 5, 7, 6, 1, 0, 2, 3)
    return _perm_group([left_i, left_j])


def _dihedral(n: int) -> fg.FiniteGroup:
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return _perm_group([rotation, reflection])


@lru_cache(maxsize=1)
def finite_catalog() -> tuple[tuple[str, fg.FiniteGroup], ...]:
    """Named groups of order at most 24 the finite samplers draw from."""
    entries = [(f"C{n}", fg.cyclic_group(n)) for n in (1, 2, 3, 4, 5, 6, 8, 12)]
    c2 = fg.cyclic_group(2)
    entries.append(("C2xC2", fg.product_group(c2, c2)))
    entries.append(("C2xC4", fg.product_group(c2, fg.cyclic_group(4))))
    entries.append(("C3xC3", fg.product_group(fg.cyclic_group(3), fg.cyclic_group(3))))
    entries.append(("S3", _symmetric3()))
    entries.append(("D4", _dihedral(4)))
    entries.append(("D5", _dihedral(5)))
    entries.append(("D6", _dihedral(6)))
    entries.append(("Q8", _quaternion8()))
    entries.append(("A4", _perm_group([(1, 2, 0, 3), (1, 0, 3, 2)])))
    entries.append(("S4", _perm_group([(1, 0, 2, 3), (1, 2, 3, 0)])))
    return tuple(entries)


MORPHISM_TRIES = 24


def random_abelian_object(rng: DetRng) -> po.PreOrdObj:
    rank = rng.randint(0, 3)
    nrel = rng.randint(0, 2) if rank else 0
    rel = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrel)]
    ngen = rng.randint(0, 3) if rank else 0
    gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(ngen)]
    return po.make_object(ab.make_group(rank, rel), gens)


def random_finite_object(rng: DetRng) -> po.PreOrdObj:
    _, group = rng.choice(finite_catalog())
    style = rng.randint(0, 3)
    if style == 0:
        seeds = ()
    elif style == 3:
        seeds = tuple(range(group.order))
    else:
        seeds = tuple(rng.randint(0, group.order - 1) for _ in range(style))
    return po.make_object(group, fg.normal_closure(group, seeds))


def _catalogue(universe: str):
    """(probe list, object sampler) of a universe."""
    # built per call, so the functions are looked up when they are called
    catalogues = {
        po.ABELIAN: (abelian_probes, random_abelian_object),
        po.FINITE: (finite_probes, random_finite_object),
    }
    if universe not in catalogues:
        raise ValidationError(f"unknown universe {universe!r}")
    return catalogues[universe]


def random_object(rng: DetRng, universe: str) -> po.PreOrdObj:
    _, sample = _catalogue(universe)
    return sample(rng)


# Membership budget per candidate: a candidate whose cone images are
# expensive to certify is rejected like an invalid one, keeping the
# sampler's cost bounded on adversarial cones.
SAMPLER_STATE_CAP = 1_500


def _sampled(rng: DetRng, dom: po.PreOrdObj, cod: po.PreOrdObj, draw) -> po.PreOrdMor:
    """The first map draw(rng, dom, cod) that provably carries dom's cone
    into cod's, or the zero morphism when MORPHISM_TRIES candidates fail."""
    if dom.universe != cod.universe:
        raise ValidationError("morphisms do not cross universes")
    for _ in range(MORPHISM_TRIES):
        try:
            return po.make_morphism(dom, cod, draw(rng, dom, cod), SAMPLER_STATE_CAP)
        except (ValidationError, ResourceLimitError):
            continue
    return po.zero_preord(dom, cod)


def random_morphism(rng: DetRng, dom: po.PreOrdObj, cod: po.PreOrdObj) -> po.PreOrdMor:
    """A sampled map of the backend's candidates; see _sampled."""
    return _sampled(rng, dom, cod, dom.backend.draw_map)


def random_morphism_sample(rng: DetRng, universe: str) -> po.PreOrdMor:
    """A morphism between fresh random objects."""
    dom = random_object(rng.child("dom"), universe)
    cod = random_object(rng.child("cod"), universe)
    return random_morphism(rng.child("mor"), dom, cod)


def random_mon_morphism(rng: DetRng, dom: po.PreOrdObj, cod: po.PreOrdObj) -> po.PreOrdMor:
    """A valid monoid morphism dom -> cod, between their completion objects;
    zero when MORPHISM_TRIES draws fail."""
    source, target = mp.completion_object(dom), mp.completion_object(cod)
    if dom.universe == po.FINITE:
        # a finite completion is the whole monoid: any map of them will do
        return random_morphism(rng, source, target)
    # nonnegative rows into a basis cone are their own certificates
    return _sampled(rng, source, target, lambda rng, s, t: [
        [rng.randint(0, 3) for _ in range(t.group.rank)] for _ in range(s.group.rank)
    ])
