"""Deterministic random streams: the draws every sampled check starts from."""

from preordgrp.rng import DetRng


def test_named_streams_keep_their_first_draws():
    ints = DetRng.from_seed(0).child("cases")
    assert [ints.randint(0, 10**6) for _ in range(5)] == [974886, 679617, 561101, 798766, 484653]
    letters = DetRng.from_seed(1).child("probe").child(3)
    assert "".join(letters.choice("abcdefghij") for _ in range(8)) == "ahhedjeg"


def test_a_stream_ignores_its_siblings():
    root = DetRng.from_seed(2)
    first = root.child("a").randint(0, 10**9)
    busy = root.child("b")
    for _ in range(10):
        busy.randint(0, 9)
    assert root.child("a").randint(0, 10**9) == first
