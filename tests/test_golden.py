"""`preordgrp check --seed 0` against its committed report, byte for byte.

tests/golden/check_seed0.txt is the report the harness printed before the
membership oracle and the Hilbert completion were reworked.  Sampling and
every certificate depend on the membership answers and their search
budgets, so any change to what the solver decides shows up here.  Change
the golden file only together with a CHANGES.md entry that says why.
"""

from pathlib import Path

from preordgrp import cli

GOLDEN = Path(__file__).parent / "golden" / "check_seed0.txt"


def test_check_seed0_matches_golden(capsys):
    assert cli.main(["check", "--seed", "0"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN.read_bytes()
