"""Machine checks for the universal properties of the constructions.

Every check returns a Certificate: a claim name, pass/fail, counters, and
witness lines describing each failure.  Checks are deterministic: a probe
suite is a seed and a per-pair sample count, probes come from the fixed
library, and all sampling derives from labelled streams of the seed, so
two runs with the same seed produce byte-identical reports.

Uniqueness of factorizations is decided structurally, not by sampling:
a factorization through a morphism is unique exactly when the morphism
is injective (dually, surjective) on the underlying groups, because two
factorizations differ by a morphism into its kernel.

Each universal-property verifier also knows how to build deliberately
corrupted candidates (enlarged or punctured cones, skipped quotient
generators, forgotten collapse generators); claim runners require every
applicable corruption to fail its check.  Verifiers and mutants are
written once on top of the preord backends.

The claims live in one table, CLAIMS: each row names a claim, its default
sample count and its runner.  Sweep claims share one runner, which checks
sampled morphisms with a witness function and, within a mutation budget,
requires every mutant to be caught; the others run a verifier on the
probe suite and once more with a corrupted construction.

The unit computations are checked against the cone elements whose inverse
lies in the cone, found by membership queries: the torsion part in
`pretorsion`, the unit monoid in `mon-torsion` and `p-functor`.  The
monoid claims take only P and Σ from `monpos`.  `p-functor` takes each
probe as the monoid it is the cone of, and also checks P on sampled
composites and on the special sequences (H, P) -> (G, P) ->> (G/H, 0) of
cone-containing subgroups.  `completion` fails a finite cone that lacks
an inverse of one of its elements before building its completion.
"""

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial

from . import monpos as mp
from . import preord as po
from . import probes as pr
from .errors import ResourceLimitError, ValidationError
from .intmat import (
    IntMatrix,
    hilbert_basis,
    hnf_reduced,
    in_rowspan_reduced,
    nonneg_feasible,
    row_times_matrix,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .rng import DetRng


@dataclass(frozen=True)
class Certificate:
    claim: str
    status: str  # "pass" | "fail"
    stats: tuple  # ((label, count), ...)
    witnesses: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _certificate(claim: str, stats: dict, witnesses) -> Certificate:
    packed = tuple(sorted(stats.items()))
    witnesses = tuple(witnesses)
    return Certificate(claim, "fail" if witnesses else "pass", packed, witnesses)


def format_certificate(cert: Certificate) -> str:
    lines = [f"claim {cert.claim}", f"status {cert.status}"]
    lines += [f"stat {label} {count}" for label, count in cert.stats]
    lines += [f"witness {w}" for w in cert.witnesses]
    return "\n".join(lines)


def format_certificates(certs) -> str:
    return "\n\n".join(format_certificate(c) for c in certs) + "\n"


def _bump(stats: dict, label: str, n: int = 1) -> None:
    stats[label] = stats.get(label, 0) + n


def _digest(data) -> str:
    return hashlib.blake2b(repr(data).encode(), digest_size=5).hexdigest()


def _obj_key(obj: po.PreOrdObj) -> str:
    return _digest(obj.backend.key_data(obj))


def _mor_key(m: po.PreOrdMor) -> str:
    return _digest((_obj_key(m.dom), _obj_key(m.cod), m.dom.backend.map_data(m.map)))


# --- the probe suite -------------------------------------------------------


@dataclass(frozen=True)
class ProbeSuite:
    """A seed and a per-pair sample count.  Pair samples are drawn when a
    verifier first reads them: `pretorsion` reads every sample of each
    torsion -> torsion-free pair, `adjunction` the first of each pair."""

    seed: int
    samples_per_pair: int


def default_suite(seed: int = 0, samples_per_pair: int = 50) -> ProbeSuite:
    return ProbeSuite(seed, samples_per_pair)


@lru_cache(maxsize=1024)
def _pair_samples(seed: int, dom: pr.Probe, cod: pr.Probe, count: int) -> tuple:
    """The first count seeded morphisms dom -> cod; sample j does not
    depend on count, since each draws from a stream of its own."""
    stream = DetRng.from_seed(seed).child("suite").child(f"{dom.name}->{cod.name}")
    return tuple(pr.random_morphism(stream.child(j), dom.obj, cod.obj) for j in range(count))


# --- factorization solvers -------------------------------------------------

# Membership budgets of the factorization checks and of the mutants' cone
# redundancy test, where skipping a candidate beats minutes of search.  A
# factorization the budget cannot settle is po.UNDECIDED: callers skip the
# probe and count it instead of recording a witness.
_FACTOR_STATE_CAP = 50_000
_MUTANT_STATE_CAP = 4_000


def _certified(src: po.PreOrdObj, dst: po.PreOrdObj, phi, budget=None):
    """phi as a morphism src -> dst, None when phi is None or leaves the
    cone, or po.UNDECIDED past a given budget."""
    if phi is None:
        return None
    try:
        return po.make_morphism(src, dst, phi, budget)
    except ValidationError:
        return None
    except ResourceLimitError:
        if budget is None:
            raise
        return po.UNDECIDED


def _factor_through_mono(t: po.PreOrdMor, kobj: po.PreOrdObj, k: po.PreOrdMor):
    """Solve phi ; k = t with phi cone-preserving; None when impossible."""
    phi = t.dom.backend.factor_mono(t.map, k.map)
    mor = _certified(t.dom, kobj, phi, _FACTOR_STATE_CAP)
    if mor is None or mor is po.UNDECIDED:
        return mor
    return mor if po.mor_eq(po.compose_preord(mor, k), t) else None


def _factor_through_epi(s: po.PreOrdMor, qobj: po.PreOrdObj, q: po.PreOrdMor):
    """Solve q ; psi = s with psi cone-preserving; None when impossible."""
    mor = _certified(qobj, s.cod, s.dom.backend.factor_epi(s.map, q.map))
    if mor is None:
        return None
    return mor if po.mor_eq(po.compose_preord(q, mor), s) else None


def _element_probe(obj: po.PreOrdObj, element) -> po.PreOrdMor:
    """A morphism from a one-generator probe hitting a cone element."""
    source, mapping = obj.backend.cyclic_probe(obj.group, element)
    return po.make_morphism(source, obj, mapping)


def _killed_cone_elements(m: po.PreOrdMor):
    """Cone generators of the domain that the morphism sends to zero."""
    be = m.dom.backend
    return [
        x for x in be.cone_elements(m.dom.cone) if be.is_zero(m.cod.group, be.apply(m.map, x))
    ]


def _punctured(obj: po.PreOrdObj):
    """obj without one cone generator that the others do not give back, or
    None; generators are tried in the backend's puncture order."""
    be = obj.backend
    elements = be.cone_elements(obj.cone)
    for i in be.puncture_order(len(elements)):
        smaller = po.PreOrdObj(obj.group, be.cone_without(obj.cone, i))
        if be.contains(smaller, elements[i], _MUTANT_STATE_CAP) is None:
            return smaller
    return None


# --- relative kernel -------------------------------------------------------


def _zker_witnesses(m, suite, candidate=None):
    true_kobj, true_k = po.z_kernel(m)
    kobj, k = candidate if candidate is not None else (true_kobj, true_k)
    stats = {}
    witnesses = []
    key = _mor_key(m)
    composite = po.compose_preord(k, m)
    if not po.is_z_trivial(composite):
        witnesses.append(f"{key}: candidate does not cancel the morphism")
    if not m.dom.backend.injective(k.map):
        witnesses.append(f"{key}: kernel arrow is not injective, factorizations not unique")

    # The z-kernel's generators add targeted probes in the abelian universe
    # only: a finite z-kernel's elements are the killed ones, already seen.
    targets = _killed_cone_elements(m) + m.dom.backend.cone_elements(true_kobj.cone)
    seen = set()
    for element in targets:
        if element in seen:
            continue
        seen.add(element)
        t = _element_probe(m.dom, element)
        _bump(stats, "targeted")
        phi = _factor_through_mono(t, kobj, k)
        if phi is po.UNDECIDED:
            _bump(stats, "undecided")
        elif phi is None:
            witnesses.append(f"{key}: cone element {element} does not factor")

    root = DetRng.from_seed(suite.seed).child("zker-up").child(key)
    for probe in pr.probes_for(m.dom.universe):
        t = pr.random_morphism(root.child(probe.name).child(0), probe.obj, m.dom)
        _bump(stats, "sampled")
        vanishes = po.is_z_trivial(po.compose_preord(t, m))
        phi = _factor_through_mono(t, kobj, k)
        if phi is po.UNDECIDED:
            _bump(stats, "undecided")
        elif vanishes and phi is None:
            witnesses.append(f"{key}: probe {probe.name}#0 cancels but does not factor")
        elif not vanishes and phi is not None:
            witnesses.append(f"{key}: probe {probe.name}#0 factors without cancelling")
        elif phi is not None:
            _bump(stats, "factored")
    return witnesses, stats


def z_kernel_mutants(m: po.PreOrdMor):
    """Corrupted kernel candidates that a sound verifier must reject."""
    kobj, k = po.z_kernel(m)
    be = m.dom.backend
    out = []
    for x in be.cone_elements(m.dom.cone):
        if not be.is_zero(m.cod.group, be.apply(m.map, x)):
            bigger = po.PreOrdObj(kobj.group, be.cone_with(kobj.cone, x))
            out.append(("cone-enlarged", (bigger, po.PreOrdMor(bigger, m.dom, k.map))))
            break
    smaller = _punctured(kobj)
    if smaller is not None:
        out.append(("cone-dropped", (smaller, po.PreOrdMor(smaller, m.dom, k.map))))
    return tuple(out)


# --- relative cokernel -----------------------------------------------------


def _zcok_witnesses(m, suite, candidate=None):
    true_qobj, true_q = po.z_cokernel(m)
    qobj, q = candidate if candidate is not None else (true_qobj, true_q)
    stats = {}
    witnesses = []
    key = _mor_key(m)
    if not po.is_z_trivial(po.compose_preord(m, q)):
        witnesses.append(f"{key}: candidate does not cancel the morphism")
    if not m.dom.backend.surjective(q.map):
        witnesses.append(f"{key}: quotient arrow is not surjective, factorizations not unique")

    _bump(stats, "targeted")
    if _factor_through_epi(true_q, qobj, q) is None:
        witnesses.append(f"{key}: the canonical quotient does not factor through the candidate")

    root = DetRng.from_seed(suite.seed).child("zcok-up").child(key)
    for probe in pr.probes_for(m.dom.universe):
        s = pr.random_morphism(root.child(probe.name).child(0), m.cod, probe.obj)
        _bump(stats, "sampled")
        vanishes = po.is_z_trivial(po.compose_preord(m, s))
        psi = _factor_through_epi(s, qobj, q)
        if vanishes and psi is None:
            witnesses.append(f"{key}: probe {probe.name}#0 cancels but does not factor")
        elif not vanishes and psi is not None:
            witnesses.append(f"{key}: probe {probe.name}#0 factors without cancelling")
        elif psi is not None:
            _bump(stats, "factored")
    return witnesses, stats


def _first_outside_cone(obj: po.PreOrdObj):
    """A small element outside the cone, or None when none is found."""
    be = obj.backend
    for y in be.small_elements(obj.group):
        if be.contains(obj, y, _MUTANT_STATE_CAP) is None:
            return y
    return None


def z_cokernel_mutants(m: po.PreOrdMor):
    """Corrupted cokernel candidates that a sound verifier must reject."""
    qobj, q = po.z_cokernel(m)
    be = m.cod.backend
    images = be.cone_elements(be.push_cone(m.dom.cone, m.map))
    out = []
    for i, dropped in enumerate(images):
        kept = images[:i] + images[i + 1 :]
        group, proj = be.quotient(m.cod.group, be.normal_closure(m.cod.group, kept))
        if be.is_zero(group, be.apply(proj, dropped)):
            continue
        obj2 = po.PreOrdObj(group, be.push_cone(m.cod.cone, proj))
        out.append(("generator-skipped", (obj2, po.PreOrdMor(m.cod, obj2, proj))))
        break
    outside = _first_outside_cone(qobj)
    if outside is not None:
        obj3 = po.PreOrdObj(qobj.group, be.cone_with(qobj.cone, outside))
        out.append(("cone-enlarged", (obj3, po.PreOrdMor(m.cod, obj3, q.map))))
    return tuple(out)


# --- pretorsion axioms -----------------------------------------------------


def _same_cone(a: po.PreOrdObj, b: po.PreOrdObj) -> bool:
    if a.group != b.group:
        return False
    be = a.backend
    return all(po.cone_contains(b, x) for x in be.cone_elements(a.cone)) and all(
        po.cone_contains(a, y) for y in be.cone_elements(b.cone)
    )


def _invertible_part(X: po.PreOrdObj) -> po.PreOrdObj:
    """X's group preordered by the cone elements whose inverse lies in the
    cone: the units found by membership queries, not by zero sums."""
    be = X.backend
    invertible = [
        x for x in be.cone_elements(X.cone) if po.cone_contains(X, be.inverse(X.group, x))
    ]
    return po.make_object(X.group, invertible)


def verify_pretorsion_axioms(suite: ProbeSuite, mislabel=None) -> Certificate:
    """Torsion/torsion-free split: classification, exactness, vanishing."""
    stats = {}
    witnesses = []
    for universe in (po.ABELIAN, po.FINITE):
        torsion_pool = []
        free_pool = []
        for probe in pr.probes_for(universe):
            seq = po.canonical_sequence(probe.obj)
            _bump(stats, "sequences")
            if not po.classify_object(seq.torsion).torsion:
                witnesses.append(f"{probe.name}: radical part fails the torsion test")
            if not po.classify_object(seq.torsion_free).torsion_free:
                witnesses.append(f"{probe.name}: quotient part fails the torsion-free test")
            if not _same_cone(seq.torsion, _invertible_part(probe.obj)):
                witnesses.append(f"{probe.name}: torsion part differs from the invertible part")
            be = probe.obj.backend
            zk_obj, zk_mor = po.z_kernel(seq.eta)
            if not (_same_cone(zk_obj, seq.torsion) and be.map_eq(zk_mor.map, seq.kappa.map)):
                witnesses.append(f"{probe.name}: left leg is not the relative kernel of the right leg")
            zc_obj, zc_mor = po.z_cokernel(seq.kappa)
            if not (
                zc_obj.group == seq.torsion_free.group
                and _same_cone(zc_obj, seq.torsion_free)
                and be.map_eq(zc_mor.map, seq.eta.map)
            ):
                witnesses.append(f"{probe.name}: right leg is not the relative cokernel of the left leg")
            cls = po.classify_object(probe.obj)
            if cls.torsion:
                torsion_pool.append(probe)
            if cls.torsion_free:
                free_pool.append(probe)
        if mislabel is not None:
            bad_name, pool = mislabel
            for probe in pr.probes_for(universe):
                if probe.name == bad_name and pool == "torsion":
                    torsion_pool.append(probe)
                if probe.name == bad_name and pool == "torsion-free":
                    free_pool.append(probe)
        for pa in torsion_pool:
            if not po.classify_object(pa.obj).torsion:
                witnesses.append(f"{pa.name}: listed as torsion but has an untouched generator")
        for pb in free_pool:
            if not po.classify_object(pb.obj).torsion_free:
                witnesses.append(f"{pb.name}: listed as torsion-free but has units")
        for pa in torsion_pool:
            for pb in free_pool:
                for j, t in enumerate(_pair_samples(suite.seed, pa, pb, suite.samples_per_pair)):
                    _bump(stats, "pt1-morphisms")
                    if not po.is_z_trivial(t):
                        witnesses.append(
                            f"{pa.name}->{pb.name}#{j}: torsion to torsion-free morphism does not vanish"
                        )
    return _certificate("pretorsion", stats, witnesses)


# --- trivial-morphism characterization -------------------------------------


def _factors_through_discrete_image(m: po.PreOrdMor) -> bool:
    """Independent test: does m factor through its image with empty cone?"""
    be = m.dom.backend
    images = [be.apply(m.map, x) for x in be.generators(m.dom.group)]
    image, incl = be.subgroup(m.cod.group, images)
    mid = po.discrete_object(image)
    leg = _certified(m.dom, mid, be.factor_mono(m.map, incl))
    if leg is None:
        return False
    rest = po.make_morphism(mid, m.cod, incl)
    return po.mor_eq(po.compose_preord(leg, rest), m)


# --- adjoint triple --------------------------------------------------------


def _corrupt_collapse(X: po.PreOrdObj):
    """A collapse candidate built after forgetting one cone generator."""
    be = X.backend
    elements = be.cone_elements(X.cone)
    if not elements:
        return po.functor_C(X)
    group, projm = be.quotient(X.group, be.normal_closure(X.group, elements[:-1]))
    cobj = po.discrete_object(group)
    return cobj, po.PreOrdMor(X, cobj, projm)


def verify_adjunctions(suite: ProbeSuite, corrupt=None) -> Certificate:
    """Discrete inclusion has a right adjoint (D) and a left adjoint (C)."""
    stats = {}
    witnesses = []
    for universe in (po.ABELIAN, po.FINITE):
        probes = pr.probes_for(universe)
        for probe in probes:
            X = probe.obj
            dx = po.functor_D(X)
            iota = po.counit_iota(X)
            _bump(stats, "probes")
            if po.functor_D(dx) != dx:
                witnesses.append(f"{probe.name}: discretization is not idempotent")
            if not po.mor_eq(po.functor_D_mor(iota), po.identity_preord(dx)):
                witnesses.append(f"{probe.name}: discretized counit is not the identity")
            if not po.classify_morphism(iota).mono:
                witnesses.append(f"{probe.name}: counit is not mono")
            if X.cone == dx.cone and not po.mor_eq(iota, po.identity_preord(X)):
                witnesses.append(f"{probe.name}: counit on a discrete object is not the identity")

            if corrupt is not None and probe.name == corrupt:
                cobj, pi = _corrupt_collapse(X)
            else:
                cobj, pi = po.functor_C(X)
            be = X.backend
            if not po.is_z_trivial(pi):
                witnesses.append(f"{probe.name}: unit does not collapse the cone")
            if not be.surjective(pi.map):
                witnesses.append(f"{probe.name}: unit is not surjective")
            if cobj.cone != po.discrete_object(cobj.group).cone:
                witnesses.append(f"{probe.name}: collapse target is not discrete")
            if X.cone == dx.cone:
                # an abelian collapse re-presents the group, so it can only
                # be idempotent; a finite one must leave the group alone
                if universe == po.ABELIAN:
                    again, _ = po.functor_C(cobj)
                    if again.group != cobj.group:
                        witnesses.append(f"{probe.name}: collapse is not idempotent")
                elif cobj.group != X.group:
                    witnesses.append(f"{probe.name}: collapse of a discrete object changed it")

            # counit factorizations: morphisms out of discrete objects lift
            root = DetRng.from_seed(suite.seed).child("adjunction").child(probe.name)
            for source in probes:
                ds = po.functor_D(source.obj)
                u = pr.random_morphism(root.child(f"in-{source.name}"), ds, X)
                _bump(stats, "counit-factorizations")
                lift = po.make_morphism(ds, dx, u.map)
                if not po.mor_eq(po.compose_preord(lift, iota), u):
                    witnesses.append(f"{probe.name}: counit lift of {source.name} does not compose back")
            # unit factorizations: morphisms into discrete objects descend
            for target in probes:
                dt = po.functor_D(target.obj)
                v = pr.random_morphism(root.child(f"out-{target.name}"), X, dt)
                _bump(stats, "unit-factorizations")
                psi = _factor_through_epi(v, cobj, pi)
                if psi is None:
                    witnesses.append(f"{probe.name}: unit factorization to {target.name} failed")
            # both transformations are natural in the probe
            for source in probes:
                for f in _pair_samples(suite.seed, source, probe, 1):
                    _bump(stats, "naturality")
                    if not po.mor_eq(
                        po.compose_preord(po.functor_D_mor(f), iota),
                        po.compose_preord(po.counit_iota(source.obj), f),
                    ):
                        witnesses.append(f"{source.name}->{probe.name}: counit is not natural")
                    _, pis = po.functor_C(source.obj)
                    if not po.mor_eq(
                        po.compose_preord(f, pi),
                        po.compose_preord(pis, po.functor_C_mor(f)),
                    ):
                        witnesses.append(f"{source.name}->{probe.name}: unit is not natural")
    return _certificate("adjunction", stats, witnesses)


# --- pullback / pushout characterizations ----------------------------------


def _pullback_factor(square, a: po.PreOrdMor, b: po.PreOrdMor):
    """The mediating morphism into the square's corner, or None."""
    be = a.dom.backend
    joint = be.pair(square.to_dom.map, square.to_discrete.map)
    w = be.factor_mono(be.pair(a.map, b.map), joint)
    mor = _certified(a.dom, square.obj, w, _FACTOR_STATE_CAP)
    if mor is None or mor is po.UNDECIDED:
        return mor
    if not po.mor_eq(po.compose_preord(mor, square.to_dom), a):
        return None
    if not po.mor_eq(po.compose_preord(mor, square.to_discrete), b):
        return None
    return mor


def _pullback_witnesses(m: po.PreOrdMor, suite: ProbeSuite, square=None):
    stats = {}
    witnesses = []
    key = _mor_key(m)
    true_square = po.pullback_with_counit(m)
    if square is None:
        square = true_square
    iota = po.counit_iota(m.cod)
    left = po.compose_preord(square.to_dom, m)
    right = po.compose_preord(square.to_discrete, iota)
    if not po.mor_eq(left, right):
        witnesses.append(f"{key}: square does not commute")
    be = m.dom.backend
    if not be.injective(be.pair(square.to_dom.map, square.to_discrete.map)):
        witnesses.append(f"{key}: projections are not jointly injective, mediators not unique")
    if not po.is_isomorphism(square.comparison):
        witnesses.append(f"{key}: comparison with the relative kernel is not an isomorphism")
    zk_obj, zk_mor = po.z_kernel(m)
    if not po.mor_eq(po.compose_preord(square.comparison, square.to_dom), zk_mor):
        witnesses.append(f"{key}: comparison does not carry the kernel inclusion")

    for element in be.cone_elements(true_square.obj.cone):
        t = _element_probe(true_square.obj, element)
        a = po.compose_preord(t, po.PreOrdMor(true_square.obj, m.dom, true_square.to_dom.map))
        b = po.compose_preord(t, po.PreOrdMor(true_square.obj, square.to_discrete.cod, true_square.to_discrete.map))
        _bump(stats, "targeted")
        w = _pullback_factor(square, a, b)
        if w is po.UNDECIDED:
            _bump(stats, "undecided")
        elif w is None:
            witnesses.append(f"{key}: corner element {element} does not mediate")

    root = DetRng.from_seed(suite.seed).child("pullback").child(key)
    for probe in pr.probes_for(m.dom.universe):
        u = pr.random_morphism(root.child(probe.name), probe.obj, square.obj)
        a = po.compose_preord(u, square.to_dom)
        b = po.compose_preord(u, square.to_discrete)
        w = _pullback_factor(square, a, b)
        _bump(stats, "sampled")
        if w is po.UNDECIDED:
            _bump(stats, "undecided")
        elif w is None or not po.mor_eq(w, u):
            witnesses.append(f"{key}: probe {probe.name} does not mediate uniquely")
    return witnesses, stats


def _punctured_square(square, legs, legs_leave_corner: bool):
    """The square with one corner cone generator removed, or None.  Its two
    legs leave the corner or enter it; the comparison enters it."""
    smaller = _punctured(square.obj)
    if smaller is None:
        return None

    def rerouted(f, leaves):
        if leaves:
            return po.PreOrdMor(smaller, f.cod, f.map)
        return po.PreOrdMor(f.dom, smaller, f.map)

    legs = (rerouted(f, legs_leave_corner) for f in legs)
    return type(square)(smaller, *legs, rerouted(square.comparison, False))


def pullback_mutant(m: po.PreOrdMor):
    """A pullback square with one corner cone generator removed."""
    square = po.pullback_with_counit(m)
    return _punctured_square(square, (square.to_dom, square.to_discrete), True)


def _pushout_factor(square, a: po.PreOrdMor, b: po.PreOrdMor):
    """The mediating morphism out of the square's corner, or None."""
    rows = list(a.map.matrix.to_rows()) + list(b.map.matrix.to_rows())
    mor = _certified(square.obj, a.cod, rows)
    if mor is None:
        return None
    if not po.mor_eq(po.compose_preord(square.from_cod, mor), a):
        return None
    if not po.mor_eq(po.compose_preord(square.from_stable, mor), b):
        return None
    return mor


def _pushout_witnesses(m: po.PreOrdMor, suite: ProbeSuite, square=None):
    stats = {}
    witnesses = []
    key = _mor_key(m)
    if square is None:
        square = po.pushout_with_unit(m)
    cx, pi = po.functor_C(m.dom)
    left = po.compose_preord(m, square.from_cod)
    right = po.compose_preord(pi, square.from_stable)
    if not po.mor_eq(left, right):
        witnesses.append(f"{key}: square does not commute")
    legs = (square.from_cod, square.from_stable)
    if any(_certified(leg.dom, square.obj, leg.map) is None for leg in legs):
        witnesses.append(f"{key}: an injection leg is not cone-preserving")
    if not po.is_isomorphism(square.comparison):
        witnesses.append(f"{key}: comparison with the relative cokernel is not an isomorphism")
    zc_obj, zc_mor = po.z_cokernel(m)
    if not po.mor_eq(po.compose_preord(zc_mor, square.comparison), square.from_cod):
        witnesses.append(f"{key}: comparison does not carry the quotient projection")

    _bump(stats, "targeted")
    ident = po.identity_preord(square.obj)
    a = po.compose_preord(square.from_cod, ident)
    b = po.compose_preord(square.from_stable, ident)
    w = _pushout_factor(square, a, b)
    if w is None or not po.mor_eq(w, ident):
        witnesses.append(f"{key}: identity does not mediate uniquely")

    root = DetRng.from_seed(suite.seed).child("pushout").child(key)
    for probe in pr.probes_for(po.ABELIAN):
        u = pr.random_morphism(root.child(probe.name), square.obj, probe.obj)
        a = po.compose_preord(square.from_cod, u)
        b = po.compose_preord(square.from_stable, u)
        w = _pushout_factor(square, a, b)
        _bump(stats, "sampled")
        if w is None or not po.mor_eq(w, u):
            witnesses.append(f"{key}: probe {probe.name} does not mediate uniquely")
    return witnesses, stats


def pushout_mutant(m: po.PreOrdMor):
    """A pushout square with one corner cone generator removed."""
    square = po.pushout_with_unit(m)
    return _punctured_square(square, (square.from_cod, square.from_stable), False)


# --- torsion theory in the stable category ---------------------------------


def verify_mon_torsion_theory(suite: ProbeSuite, corrupt=None) -> Certificate:
    """Units/reduced split is a torsion theory in the stable category."""
    stats = {}
    witnesses = []
    for universe in (po.ABELIAN, po.FINITE):
        monoids = [(probe.name, probe.obj) for probe in pr.probes_for(universe)]
        group_pool = []
        reduced_pool = []
        root = DetRng.from_seed(suite.seed).child("mon-torsion").child(universe)
        for name, m in monoids:
            ses = mp.torsion_ses(m)
            if corrupt is not None and name == corrupt:
                # corrupted construction: pretend every element is a unit
                whole = po.identity_preord(mp.completion_object(m))
                ses = po.CanonicalSeq(m, whole, m, ses.torsion_free, ses.eta)
            _bump(stats, "monoids")
            if not po.classify_object(ses.torsion).torsion:
                witnesses.append(f"{name}: unit part is not a group")
            if not _same_cone(ses.torsion, _invertible_part(m)):
                witnesses.append(f"{name}: unit part differs from the invertible part")
            if not po.classify_object(ses.torsion_free).torsion_free:
                witnesses.append(f"{name}: reduced part has units")
            if not po.is_z_trivial(po.compose_preord(ses.kappa, ses.eta)):
                witnesses.append(f"{name}: unit inclusion does not vanish in the quotient")
            cls = po.classify_object(m)
            if cls.torsion:
                group_pool.append((name, m))
            if cls.torsion_free:
                reduced_pool.append((name, m))
            units_obj = mp.completion_object(ses.torsion)
            reduced_obj = mp.completion_object(ses.torsion_free)
            for tname, t in monoids:
                h = pr.random_mon_morphism(root.child(f"{tname}->{name}"), t, m)
                _bump(stats, "kernel-probes")
                vanishes = po.is_z_trivial(po.compose_preord(h, ses.eta))
                lift = _factor_through_mono(h, units_obj, ses.kappa)
                if lift is po.UNDECIDED:
                    _bump(stats, "undecided")
                elif vanishes and lift is None:
                    witnesses.append(f"{name}: {tname} vanishes in the quotient but does not lift")
                elif not vanishes and lift is not None:
                    witnesses.append(f"{name}: {tname} lifts without vanishing in the quotient")
                k = pr.random_mon_morphism(root.child(f"{name}->{tname}"), m, t)
                _bump(stats, "cokernel-probes")
                vanishes = po.is_z_trivial(po.compose_preord(ses.kappa, k))
                desc = _factor_through_epi(k, reduced_obj, ses.eta)
                if vanishes and desc is None:
                    witnesses.append(f"{name}: {tname} kills units but does not descend")
                if not vanishes and desc is not None:
                    witnesses.append(f"{name}: {tname} descends without killing units")
        for gname, g in group_pool:
            for rname, r in reduced_pool:
                h = pr.random_mon_morphism(root.child(f"zero-{gname}->{rname}"), g, r)
                _bump(stats, "group-to-reduced")
                if not po.is_z_trivial(h):
                    witnesses.append(f"{gname}->{rname}: group to reduced morphism is not zero")
    return _certificate("mon-torsion", stats, witnesses)


# --- the cone functor is a torsion theory functor --------------------------


def _special_ses(obj: po.PreOrdObj, subgroup):
    """(H, P) -> (G, P) ->> (G/H, 0) for a subgroup H containing the cone;
    returns (inclusion, quotient, projection).

    The cone functor collapses the right leg, so the sequence P maps to
    has an isomorphic left leg and a trivial right term.
    """
    be = obj.backend
    sub, incl_map = be.subgroup(obj.group, subgroup)
    cone = be.pull_cone(obj.cone, incl_map)
    if cone is None:
        raise ValidationError("subgroup does not contain the cone")
    incl = po.PreOrdMor(po.PreOrdObj(sub, cone), obj, incl_map)
    return (incl, *po.cokernel(incl))


def verify_p_torsion_theory_functor(suite: ProbeSuite, corrupt=None) -> Certificate:
    """The cone functor P is a torsion-theory functor (see the module docstring)."""
    stats = {}
    witnesses = []
    for universe in (po.ABELIAN, po.FINITE):
        probes = pr.probes_for(universe)
        root = DetRng.from_seed(suite.seed).child("p-functor").child(universe)
        for probe in probes:
            X = probe.obj
            be = X.backend
            units, _ = mp.units(mp.positive_cone(X))
            unit_gens = be.cone_elements(units.cone)
            if corrupt == probe.name and unit_gens:
                # corrupted construction: drop a generator of the unit monoid
                smaller = be.cone_without(units.cone, len(unit_gens) - 1)
                units = po.PreOrdObj(X.group, smaller)
            _bump(stats, "probes")
            if not _same_cone(units, _invertible_part(X)):
                witnesses.append(f"{probe.name}: unit monoid differs from the invertible part")
            # functoriality on sampled composable pairs
            for other in probes[:3]:
                f = pr.random_morphism(root.child(f"{probe.name}>{other.name}"), X, other.obj)
                g = pr.random_morphism(root.child(f"{probe.name}>>{other.name}"), other.obj, X)
                _bump(stats, "composites")
                lhs = mp.positive_cone_mor(po.compose_preord(f, g))
                rhs = po.compose_preord(mp.positive_cone_mor(f), mp.positive_cone_mor(g))
                if not po.mor_eq(lhs, rhs):
                    witnesses.append(f"{probe.name}->{other.name}: cone functor breaks composition")
            for hname, subgroup in be.subgroup_candidates(X):
                incl, quot, proj = _special_ses(X, subgroup)
                _bump(stats, "subgroup-sequences")
                if not po.is_isomorphism(mp.positive_cone_mor(incl)):
                    witnesses.append(f"{probe.name}/{hname}: cone of the inclusion is not invertible")
                if not po.is_z_trivial(mp.positive_cone_mor(proj)):
                    witnesses.append(f"{probe.name}/{hname}: cone of the projection is not zero")
                if not po.is_z_trivial(po.identity_preord(mp.positive_cone(quot))):
                    witnesses.append(f"{probe.name}/{hname}: quotient cone is not trivial")
    return _certificate("p-functor", stats, witnesses)


# --- completion comparison --------------------------------------------------


def verify_completion_theorem(suite: ProbeSuite, corrupt=None) -> Certificate:
    """Completion embeds, quotient is exact, and the cone round-trips."""
    stats = {}
    witnesses = []
    for universe in (po.ABELIAN, po.FINITE):
        for probe in pr.probes_for(universe):
            name, m = probe.name, probe.obj
            _bump(stats, "monoids")
            # a finite cone must be a subgroup, closed under inverses; then
            # x = -a, y = -b are common multiples of any a and b in it
            if m.universe == po.FINITE and not _same_cone(_invertible_part(m), m):
                witnesses.append(f"{name}: cone fails the common-multiple condition")
                continue
            cmpr = mp.comparison_morphism(m)
            if corrupt is not None and name == corrupt:
                # corrupted construction: embed through the zero morphism
                cmpr = po.zero_preord(cmpr.dom, cmpr.cod)
            if not po.classify_morphism(cmpr).mono:
                witnesses.append(f"{name}: comparison is not mono")
            qobj, q = po.cokernel(cmpr)
            if not po.is_z_trivial(q):
                witnesses.append(f"{name}: quotient does not kill the cone")
            be = m.backend
            _, kincl = be.kernel(q.map)
            if be.factor_mono(kincl, cmpr.map) is None or be.factor_mono(cmpr.map, kincl) is None:
                witnesses.append(f"{name}: sequence is not exact at the ambient group")
            fhat = mp.fhat_consistency(m)
            if not po.is_isomorphism(fhat):
                witnesses.append(f"{name}: completed cone does not recover the monoid")
    return _certificate("completion", stats, witnesses)


# --- integer-solver cross-checks -------------------------------------------


def _brute_minimal_zero_solutions(system: IntMatrix, bound: int = 6) -> frozenset:
    """Exhaustive minimal nonneg solutions of system . x = 0, coords <= bound."""
    n = system.cols
    sols = []
    counters = [0] * n
    while True:
        x = tuple(counters)
        if any(x) and all(
            vec_dot(system.row(i), x) == 0 for i in range(system.rows)
        ):
            sols.append(x)
        i = 0
        while i < n and counters[i] == bound:
            counters[i] = 0
            i += 1
        if i == n:
            break
        counters[i] += 1
    minimal = [
        x
        for x in sols
        if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in sols)
    ]
    return frozenset(minimal)


def _brute_feasible(gens: IntMatrix, relations: IntMatrix, target, cap: int = 12) -> bool:
    """Exhaustive membership with coefficient sum <= cap."""
    reduced = hnf_reduced(relations)
    n = gens.rows

    def residue_ok(x):
        return vec_is_zero(x) or in_rowspan_reduced(reduced, x)

    def search(i, remaining, acc):
        if residue_ok(vec_sub(target, acc)):
            return True
        if i == n:
            return False
        current = acc
        for used in range(remaining + 1):
            if search(i + 1, remaining - used, current):
                return True
            current = tuple(a + b for a, b in zip(current, gens.row(i)))
        return False

    return search(0, cap, (0,) * gens.cols)


_INTSOLVE_CAP = 200_000


def _check_hilbert_instance(system, stats, witnesses, tag):
    _bump(stats, "hilbert-systems")
    try:
        basis = frozenset(hilbert_basis(system, state_cap=_INTSOLVE_CAP))
    except ResourceLimitError:
        _bump(stats, "capped")
        return
    brute = _brute_minimal_zero_solutions(system, bound=6)
    small = frozenset(x for x in basis if max(x) <= 6)
    if small != brute:
        witnesses.append(f"{tag}: solver {sorted(small)} vs brute {sorted(brute)}")
    if not all(
        vec_is_zero(
            tuple(vec_dot(system.row(i), x) for i in range(system.rows))
        )
        for x in basis
    ):
        witnesses.append(f"{tag}: solver returned a non-solution")


def _check_feasible_instance(gens, relations, target, stats, witnesses, tag):
    _bump(stats, "membership-queries")
    try:
        got = nonneg_feasible(gens, relations, target, state_cap=_INTSOLVE_CAP)
    except ResourceLimitError:
        _bump(stats, "capped")
        return
    brute = _brute_feasible(gens, relations, target, cap=12)
    if got is None:
        if brute:
            witnesses.append(f"{tag}: solver misses a certificate for {target}")
    else:
        cert, shift = got
        combo = row_times_matrix(cert, gens)
        if relations.rows:
            combo = tuple(
                c + s for c, s in zip(combo, row_times_matrix(shift, relations))
            )
        ok = all(c >= 0 for c in cert) and vec_is_zero(vec_sub(target, combo))
        if not ok:
            witnesses.append(f"{tag}: certificate {cert} does not reach {target}")


def verify_integer_solvers(seed: int = 0, samples: int = 120) -> Certificate:
    """Cross-check the minimal-solution and membership solvers by brute force.

    Covers an exhaustive grid of one-equation systems and one-dimensional
    membership queries, then seeded random instances within the same size
    bounds; every returned certificate is re-checked by substitution.
    """
    stats = {}
    witnesses = []
    empty1 = IntMatrix.zeros(0, 1)
    for a in range(-5, 6):
        _check_hilbert_instance(
            IntMatrix.from_rows([[a]], cols=1), stats, witnesses, f"grid[{a}]"
        )
    for a in range(-3, 4):
        for b in range(-3, 4):
            _check_hilbert_instance(
                IntMatrix.from_rows([[a, b]], cols=2), stats, witnesses, f"grid[{a},{b}]"
            )
    for g in range(-3, 4):
        gens = IntMatrix.from_rows([[g]], cols=1)
        for x in range(-4, 5):
            _check_feasible_instance(gens, empty1, (x,), stats, witnesses, f"grid[{g};{x}]")
    root = DetRng.from_seed(seed).child("intsolve")
    for i in range(samples):
        rng = root.child(f"hilbert{i}")
        nvars = rng.randint(1, 3)
        neqs = rng.randint(1, 2)
        system = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(nvars)] for _ in range(neqs)],
            cols=nvars,
        )
        _check_hilbert_instance(system, stats, witnesses, f"hilbert{i}")
    for i in range(samples):
        rng = root.child(f"feasible{i}")
        dim = rng.randint(1, 3)
        ngens = rng.randint(1, 4)
        gens = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(ngens)],
            cols=dim,
        )
        nrel = rng.randint(0, 1)
        relations = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(nrel)],
            cols=dim,
        )
        if rng.randint(0, 1):
            coeffs = tuple(rng.randint(0, 3) for _ in range(ngens))
            target = row_times_matrix(coeffs, gens)
        else:
            target = tuple(rng.randint(-6, 6) for _ in range(dim))
        _check_feasible_instance(gens, relations, target, stats, witnesses, f"feasible{i}")
    return _certificate("intsolve", stats, witnesses)


# --- the claim table --------------------------------------------------------


def _sweep_morphisms(universe: str, seed: int, count: int, label: str):
    root = DetRng.from_seed(seed).child(label).child(universe)
    return [pr.random_morphism_sample(root.child(i), universe) for i in range(count)]


_MUTATION_BUDGET = 12


def _claim_sweep(label, universe, witnesses_of, mutants_of, seed, samples):
    """Check every sampled morphism with witnesses_of(m, suite, candidate).

    Until _MUTATION_BUDGET mutant runs are spent, each (phrase, candidate)
    of mutants_of(m) must draw a witness too.
    """
    suite = default_suite(seed)
    stats = {}
    witnesses = []
    mutation_runs = 0
    for m in _sweep_morphisms(universe, seed, samples, label):
        w, s = witnesses_of(m, suite)
        witnesses += w
        _bump(stats, "morphisms")
        for k, v in s.items():
            _bump(stats, k, v)
        if mutation_runs < _MUTATION_BUDGET:
            for phrase, candidate in mutants_of(m):
                mw, _ = witnesses_of(m, suite, candidate)
                mutation_runs += 1
                _bump(stats, "mutations")
                if not mw:
                    witnesses.append(f"{_mor_key(m)}: {phrase} went undetected")
    if mutation_runs == 0:
        witnesses.append("no applicable mutations were generated")
    return _certificate(f"{label}-{universe}", stats, witnesses)


def _zker_mutants(m):
    return [(f"mutation {label}", candidate) for label, candidate in z_kernel_mutants(m)]


def _zcok_mutants(m):
    return [(f"mutation {label}", candidate) for label, candidate in z_cokernel_mutants(m)]


def _pullback_mutants(m):
    square = pullback_mutant(m)
    return [] if square is None else [("cone-dropped mutation", square)]


def _pushout_mutants(m):
    square = pushout_mutant(m)
    return [] if square is None else [("cone-dropped mutation", square)]


def _claim_ztrivial(universe, seed, samples):
    stats = {}
    witnesses = []
    for m in _sweep_morphisms(universe, seed, samples, "ztrivial"):
        _bump(stats, "morphisms")
        direct = po.is_z_trivial(m)
        factored = _factors_through_discrete_image(m)
        if direct:
            _bump(stats, "vanishing")
        if direct != factored:
            witnesses.append(
                f"{_mor_key(m)}: cone test says {direct}, factorization says {factored}"
            )
    return _certificate(f"ztrivial-{universe}", stats, witnesses)


def _claim_with_corrupt(name, fn, corrupt, note, seed, samples):
    """fn on the suite must pass, and fn with a corrupted construction fail."""
    suite = default_suite(seed, samples)
    cert = fn(suite)
    stats = dict(cert.stats)
    witnesses = list(cert.witnesses)
    mutated = fn(suite, corrupt)
    _bump(stats, "mutations")
    if mutated.passed:
        witnesses.append(f"{note} went undetected")
    return _certificate(name, stats, witnesses)


@dataclass(frozen=True)
class ClaimSpec:
    name: str
    samples: int  # default sample count
    run: object  # (seed, samples) -> Certificate


def _sweep(label, universe, samples, witnesses_of, mutants_of):
    run = partial(_claim_sweep, label, universe, witnesses_of, mutants_of)
    return ClaimSpec(f"{label}-{universe}", samples, run)


def _ztrivial(universe, samples):
    return ClaimSpec(f"ztrivial-{universe}", samples, partial(_claim_ztrivial, universe))


def _corrupted(name, samples, fn, corrupt, note):
    return ClaimSpec(name, samples, partial(_claim_with_corrupt, name, fn, corrupt, note))


# Rows reach public functions through lambdas or functions that look them
# up when the claim runs, so a tracer that rebinds module functions sees
# those calls.
CLAIMS = (
    _sweep("zker-up", po.ABELIAN, 40, _zker_witnesses, _zker_mutants),
    _sweep("zker-up", po.FINITE, 40, _zker_witnesses, _zker_mutants),
    _sweep("zcok-up", po.ABELIAN, 40, _zcok_witnesses, _zcok_mutants),
    _sweep("zcok-up", po.FINITE, 40, _zcok_witnesses, _zcok_mutants),
    _corrupted(
        "pretorsion", 50, lambda *a: verify_pretorsion_axioms(*a), ("Z-even", "torsion"),
        "mislabelled torsion probe",
    ),
    _ztrivial(po.ABELIAN, 120),
    _ztrivial(po.FINITE, 120),
    _corrupted(
        "adjunction", 50, lambda *a: verify_adjunctions(*a), "Z-natural",
        "forgotten collapse generator",
    ),
    _sweep("gjm-pullback", po.ABELIAN, 30, _pullback_witnesses, _pullback_mutants),
    _sweep("gjm-pullback", po.FINITE, 30, _pullback_witnesses, _pullback_mutants),
    _sweep("gjm-pushout", po.ABELIAN, 30, _pushout_witnesses, _pushout_mutants),
    _corrupted(
        "mon-torsion", 50, lambda *a: verify_mon_torsion_theory(*a), "Z-natural",
        "inflated unit monoid",
    ),
    _corrupted(
        "p-functor", 50, lambda *a: verify_p_torsion_theory_functor(*a), "Z-group-cone",
        "punctured unit monoid",
    ),
    _corrupted(
        "completion", 50, lambda *a: verify_completion_theorem(*a), "Z-natural",
        "collapsed comparison",
    ),
    ClaimSpec("intsolve", 120, lambda seed, samples: verify_integer_solvers(seed, samples)),
)

DEFAULT_SAMPLES = {spec.name: spec.samples for spec in CLAIMS}


def claim_names() -> tuple:
    return tuple(spec.name for spec in CLAIMS)


def run_claim(name: str, seed: int = 0, samples: int | None = None) -> Certificate:
    for spec in CLAIMS:
        if spec.name == name:
            return spec.run(seed, spec.samples if samples is None else samples)
    raise ValidationError(f"unknown claim {name!r}")


def run_all(seed: int = 0, samples: int | None = None) -> tuple:
    return tuple(run_claim(name, seed, samples) for name in claim_names())
