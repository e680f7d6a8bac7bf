"""The table reader against the one it replaced.

`fileformat` tokenizes only the table rows that generate the group and
confirms the others by their printed text; tests/fileformat_reference.py
keeps the reader that tokenized every row.  Both read the 16 seed-0 and
16 seed-1 session-finite files a 20 s run reads, and printed tables of
orders 1 to 384 and the first seed-0 and seed-1 files, each as printed
and with one seeded change to its first table: a comment or a blank line
inside it, other whitespace on a row, another spelling of an entry or a
bad token, two entries swapped in a tokenized or in a predicted row, an
entry out of range in a tokenized row, an intercalate flipped, a row
missing or repeated, CRLF line ends, or a cap below the order.  They
must load the same workspace or raise the same error: class, message,
line and witness.
"""

import random
import sys
from functools import lru_cache
from pathlib import Path

import fileformat_reference as ref
import pytest

from preordgrp import fileformat as ff
from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp.errors import PreordError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# order: group factors in gen's catalogue, or "C<n>" for a cyclic group
TABLES = {
    1: "C1", 2: "C2", 6: ("S3",), 12: ("A4",), 24: ("S4",), 120: ("A5", "C2"),
    240: ("S4", "C2", "C5"), 256: ("D4", "D4", "C4"), 257: "C257",
    288: ("S4", "A4"), 384: ("S4", "D4", "C2"),
}
TOKENS = ("07", "+3", "-0", "1_0", "٣", "3.0", "n", "-1")
MUTATIONS = (
    "none", "comment-line", "blank-line", "tab", "double-space", "leading-space",
    "trailing-space", *(f"token {t}" for t in TOKENS), "swap-tokenized", "swap-predicted",
    "order-tokenized", "minus-tokenized", "intercalate", "missing-row", "extra-row", "crlf",
    "cap",
)


@lru_cache(maxsize=None)
def base_text(name):
    """A workspace file whose first object is the table to change."""
    if name.startswith("session"):
        seed = int(name[-1])
        return next(gen.session_files("finite", seed, 1))[0]
    spec = TABLES[int(name)]
    group = fg.cyclic_group(int(spec[1:])) if isinstance(spec, str) else None
    group = group or fg.FiniteGroup(*gen.product_table(spec))
    ws = ff.Workspace()
    ws.objects["X"] = po.discrete_object(group)
    return ff.format_workspace(ws)


@lru_cache(maxsize=None)
def generators(name):
    """The first table's greedy generators: the rows the reader tokenizes."""
    return ff.parse_workspace(base_text(name)).objects["X"].group.generators


def outcome(text, **kwargs):
    """(reader's printed workspace) or (error class, message, line, witness)."""
    def load(parse):
        try:
            return ff.format_workspace(parse(text, **kwargs))
        except PreordError as exc:
            return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                    getattr(exc, "witness", None))
    return load(ff.parse_workspace), load(ref.parse_workspace)


def intercalate(rng, n, rows):
    """Cells (a, c), (a, d), (b, c), (b, d) with a.c = b.d and a.d = b.c
    (b = s.a for an involution s), or None when the order is odd."""
    involutions = [s for s in range(1, n) if rows[s][s] == 0]
    if not involutions:
        return None
    s = rng.choice(involutions)
    a, c = rng.randrange(n), rng.randrange(n)
    b = rows[s][a]
    inverse_a = rows[a].index(0)
    d = rows[inverse_a][rows[s][rows[a][c]]]  # a^-1 . s . a . c
    return a, b, c, d


def mutated(name, mutation):
    """(text, parse_workspace kwargs) with one seeded change to the first table."""
    rng = random.Random(f"fileformat-reference:{name}:{mutation}")
    lines = base_text(name).split("\n")
    start = lines.index("table") + 1
    n = int(lines[start - 2].split()[1])
    rows = [[int(t) for t in line.split()] for line in lines[start : start + n]]
    gens = generators(name)
    r = rng.randrange(n)
    row = lines[start + r]
    kwargs = {}
    if mutation == "comment-line":
        lines.insert(start + r + 1, "# inside the table")
    elif mutation == "blank-line":
        lines.insert(start + r + 1, "")
    elif mutation in ("tab", "double-space"):
        gap = "\t" if mutation == "tab" else "  "
        lines[start + r] = row.replace(" ", gap, 1) if " " in row else gap + row
    elif mutation == "leading-space":
        lines[start + r] = " " + row
    elif mutation == "trailing-space":
        lines[start + r] += " "
    elif mutation.startswith("token "):
        token = mutation.split(" ", 1)[1]
        tokens = row.split()
        try:
            same = str(int(token))  # the entry this spelling reads as
        except ValueError:
            same = None
        j = tokens.index(same) if same in tokens else rng.randrange(n)
        tokens[j] = token
        lines[start + r] = " ".join(tokens)
    elif mutation.startswith("swap-") or mutation.endswith("-tokenized"):
        tokenized = mutation != "swap-predicted"
        choices = list(gens) if tokenized else [x for x in range(n) if x not in gens]
        if not choices:
            pytest.skip(f"order {n} has no {'tokenized' if tokenized else 'predicted'} row")
        r = rng.choice(choices)
        tokens = lines[start + r].split()
        j, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if mutation.startswith("swap-"):
            tokens[j], tokens[k] = tokens[k], tokens[j]
        else:  # an entry out of range
            tokens[j] = str(n) if mutation == "order-tokenized" else "-1"
        lines[start + r] = " ".join(tokens)
    elif mutation == "intercalate":
        cells = intercalate(rng, n, rows)
        if cells is None:
            pytest.skip(f"order {n} is odd: no involution, no intercalate")
        a, b, c, d = cells
        rows[a][c], rows[a][d] = rows[a][d], rows[a][c]
        rows[b][c], rows[b][d] = rows[b][d], rows[b][c]
        for x in (a, b):
            lines[start + x] = " ".join(map(str, rows[x]))
    elif mutation == "missing-row":
        del lines[start + r]
    elif mutation == "extra-row":
        lines.insert(start + n, row)
    elif mutation == "cap":
        kwargs["universe_cap"] = n - 1
    text = "\n".join(lines)
    return (text.replace("\n", "\r\n") if mutation == "crlf" else text), kwargs


BASES = [str(n) for n in TABLES] + ["session0", "session1"]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", BASES)
def test_reader_matches_reference(name, mutation):
    text, kwargs = mutated(name, mutation)
    new, old = outcome(text, **kwargs)
    assert new == old
    if mutation in ("none", "comment-line", "blank-line", "crlf"):
        assert isinstance(new, str)  # these still load, and through either path


@pytest.mark.parametrize("seed", [0, 1])
def test_session_files_match_reference(seed):
    # the 16 files a 20 s session-finite run reads, as written
    for i, (text, _) in enumerate(gen.session_files("finite", seed, 16)):
        new, old = outcome(text)
        assert isinstance(new, str) and new == old, i


def test_huge_order_matches_reference():
    text = "object c\nuniverse finite\norder 1000000000000\ntable\n0 1\n"
    new, old = outcome(text)
    assert new == old == ("ParseError", "line 5: expected 1000000000000 integers, got 2", 5, None)


def test_predictor_checks_cap_and_line_count_first():
    # before it allocates a row: an order of 10**12 returns at once
    assert ff._predicted_rows([(5, "0 1")], 10**12, 10**12) is None
    assert ff._predicted_rows([(5, "0")] * 3, 10**12, 5) is None
    lines = [(i, " ".join(str((a + b) % 3) for b in range(3))) for i, a in enumerate(range(3))]
    assert ff._predicted_rows(lines, 3, 2) is None
    assert ff._predicted_rows(lines, 3, 3) == [bytes([0, 1, 2]), bytes([1, 2, 0]), bytes([2, 0, 1])]
