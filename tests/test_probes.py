"""Probe library contents and sampler guarantees."""

import pytest

from preordgrp import preord as po
from preordgrp import probes as pr
from preordgrp.errors import ValidationError
from preordgrp.rng import DetRng


class TestProbeLibrary:
    def test_abelian_probe_names(self):
        names = [p.name for p in pr.abelian_probes()]
        assert names == [
            "Z-discrete",
            "Z-natural",
            "Z-even",
            "Z-group-cone",
            "Z2-discrete",
            "Z2-full",
            "ZZ-halfplane",
            "Z4-even",
        ]

    def test_finite_probe_names(self):
        names = [p.name for p in pr.finite_probes()]
        assert names == [
            "S3-alternating",
            "S3-discrete",
            "C2-full",
            "C4-even",
            "C6-even",
            "Q8-center",
        ]

    def test_probes_are_valid_objects(self):
        for probe in pr.abelian_probes() + pr.finite_probes():
            obj = probe.obj
            rebuilt = po.make_object(
                obj.group,
                obj.cone.to_rows() if obj.universe == po.ABELIAN else obj.cone,
            )
            assert rebuilt.cone == obj.cone

    def test_catalog_orders(self):
        orders = {name: g.order for name, g in pr.finite_catalog()}
        assert orders["S4"] == 24
        assert orders["A4"] == 12
        assert orders["Q8"] == 8
        assert orders["D6"] == 12


class TestSamplers:
    def test_object_sampler_deterministic(self):
        for universe in (po.ABELIAN, po.FINITE):
            a = pr.random_object(DetRng.from_seed(7).child("o"), universe)
            b = pr.random_object(DetRng.from_seed(7).child("o"), universe)
            assert a.group == b.group
            assert a.cone == b.cone

    def test_morphism_sampler_deterministic_and_valid(self):
        probes = pr.abelian_probes()
        dom, cod = probes[1].obj, probes[6].obj
        a = pr.random_morphism(DetRng.from_seed(3).child("m"), dom, cod)
        b = pr.random_morphism(DetRng.from_seed(3).child("m"), dom, cod)
        assert po.mor_eq(a, b)
        rebuilt = po.make_morphism(a.dom, a.cod, a.map.matrix.to_rows())
        assert po.mor_eq(a, rebuilt)

    def test_finite_morphism_sampler_valid(self):
        probes = pr.finite_probes()
        dom, cod = probes[0].obj, probes[2].obj
        m = pr.random_morphism(DetRng.from_seed(5).child("m"), dom, cod)
        rebuilt = po.make_morphism(m.dom, m.cod, m.map.mapping)
        assert po.mor_eq(m, rebuilt)

    def test_morphism_sample_pairs(self):
        for universe in (po.ABELIAN, po.FINITE):
            m = pr.random_morphism_sample(DetRng.from_seed(11).child("s"), universe)
            assert m.dom.universe == universe
            assert m.cod.universe == universe

    @pytest.mark.parametrize(
        "sampler",
        [pr.probes_for, pr.monoid_probes, lambda u: pr.random_object(DetRng.from_seed(0), u),
         lambda u: pr.random_morphism_sample(DetRng.from_seed(0), u)],
    )
    def test_unknown_universe_is_rejected(self, sampler):
        with pytest.raises(ValidationError, match="unknown universe 'bogus'"):
            sampler("bogus")
