"""Workspace files: round-trips, comments, parse diagnostics, and fuzzing."""

import sys
from pathlib import Path

import fileformat_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preordgrp import fgabelian as ab
from preordgrp import fileformat as ff
from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp import probes as pr
from preordgrp.errors import ParseError, ResourceLimitError, ValidationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

S3, _ = fg.group_from_permutations([(1, 0, 2), (0, 2, 1)])
GOLDEN = Path(__file__).parent / "golden"
CLI_WORKSPACES = ("cli_readme.txt", "cli_twins.txt")  # what the CLI transcript reads


def demo_workspace() -> ff.Workspace:
    ws = ff.Workspace()
    ws.objects["zn"] = po.make_object(ab.make_group(1, []), [[1]])
    ws.objects["half"] = po.make_object(
        ab.make_group(2, []), [[1, 0], [-1, 0], [0, 1]]
    )
    ws.objects["s3"] = po.make_object(S3, [3])
    ws.objects["c3"] = po.make_object(fg.cyclic_group(3), [1])
    ws.objects["z2full"] = po.make_object(fg.cyclic_group(2), [1])
    ws.morphisms["double"] = po.make_morphism(ws.objects["zn"], ws.objects["zn"], [[2]])
    ws.endpoints["double"] = ("zn", "zn")
    ws.morphisms["incl"] = po.make_morphism(ws.objects["c3"], ws.objects["s3"], (0, 3, 4))
    ws.endpoints["incl"] = ("c3", "s3")
    ws.morphisms["sgn"] = po.make_morphism(
        ws.objects["s3"], ws.objects["z2full"], (0, 1, 1, 0, 0, 1)
    )
    ws.endpoints["sgn"] = ("s3", "z2full")
    return ws


def assert_same_workspace(a: ff.Workspace, b: ff.Workspace) -> None:
    assert list(a.objects) == list(b.objects)
    assert list(a.morphisms) == list(b.morphisms)
    for name in a.objects:
        assert a.objects[name].group == b.objects[name].group, name
        assert a.objects[name].cone == b.objects[name].cone, name
    for name in a.morphisms:
        assert po.mor_eq(a.morphisms[name], b.morphisms[name]), name
        assert a.endpoints[name] == b.endpoints[name], name


class TestRoundTrip:
    def test_mixed_workspace(self):
        ws = demo_workspace()
        assert_same_workspace(ws, ff.parse_workspace(ff.format_workspace(ws)))

    def test_every_probe_object(self):
        for probe in pr.abelian_probes() + pr.finite_probes():
            text = ff.format_object("p", probe.obj)
            back = ff.parse_workspace(text).objects["p"]
            assert back.group == probe.obj.group, probe.name
            assert back.cone == probe.obj.cone, probe.name

    def test_rank_zero_object(self):
        text = "object triv\nuniverse abelian\nrank 0\n"
        obj = ff.parse_workspace(text).objects["triv"]
        assert obj.group.rank == 0
        back = ff.parse_workspace(ff.format_object("triv", obj)).objects["triv"]
        assert back.group == obj.group

    @pytest.mark.parametrize("n,table", [(1, "0"), (2, "0 1\n1 0")])
    def test_table_rows_print_as_joined_names(self, n, table):
        # at n = 1 the row gather returns one name, not a tuple of names
        text = ff.format_object("c", po.discrete_object(fg.cyclic_group(n)))
        assert text == f"object c\nuniverse finite\norder {n}\ntable\n{table}\ncone 0"

    def test_morphism_into_rank_zero(self):
        ws = ff.Workspace()
        ws.objects["zz"] = po.make_object(ab.make_group(2, []), [[1, 0], [0, 1]])
        ws.objects["triv"] = po.discrete_object(ab.make_group(0, []))
        ws.objects["after"] = po.make_object(ab.make_group(1, []), [[1]])
        ws.morphisms["f"] = po.zero_preord(ws.objects["zz"], ws.objects["triv"])
        ws.endpoints["f"] = ("zz", "triv")
        ws.morphisms["g"] = po.make_morphism(ws.objects["after"], ws.objects["after"], [[1]])
        ws.endpoints["g"] = ("after", "after")
        text = ff.format_workspace(ws)
        back = ff.parse_workspace(text)
        assert_same_workspace(ws, back)
        assert back.morphisms["f"].map.matrix.rows == 2
        assert ff.format_workspace(back) == text

    def test_comments_and_blank_lines(self):
        text = (
            "# leading comment\n\n"
            "object zn   # trailing comment\n"
            "universe abelian\n"
            "rank 1\n\n"
            "cone 1\n"
        )
        obj = ff.parse_workspace(text).objects["zn"]
        assert obj.cone.to_rows() == ((1,),)

    @pytest.mark.parametrize(
        "name", [name for name, _ in pr.finite_catalog()] + ["S4xC2xC5", "S4xA4"]
    )
    def test_finite_objects_at_real_sizes(self, name):
        # orders 240 and 288: entries of one, two and three digits
        group = dict(pr.finite_catalog()).get(name)
        group = group or fg.FiniteGroup(*gen.product_table(tuple(name.split("x"))))
        ws = ff.Workspace()
        ws.objects[name] = po.make_object(group, fg.normal_closure(group, [group.order - 1]))
        ws.objects["full"] = full = po.make_object(group, range(group.order))
        ws.morphisms["id"] = po.make_morphism(ws.objects[name], full, range(group.order))
        ws.endpoints["id"] = (name, "full")
        assert_same_workspace(ws, ff.parse_workspace(ff.format_workspace(ws)))


def printed_finite_workspaces():
    """(label, text) of every finite object the printer writes in the tests:
    the finite catalogue, S4xC2xC5 and S4xA4, the workspaces the CLI
    transcript reads, and the workspaces it prints."""
    groups = [(name, g) for name, g in pr.finite_catalog()]
    groups += [(name, fg.FiniteGroup(*gen.product_table(tuple(name.split("x")))))
               for name in ("S4xC2xC5", "S4xA4")]
    for name, group in groups:
        ws = ff.Workspace()
        ws.objects[name] = po.make_object(group, fg.normal_closure(group, [group.order - 1]))
        yield name, ff.format_workspace(ws)
    for name in CLI_WORKSPACES:
        yield name, ff.format_workspace(ff.parse_workspace((GOLDEN / name).read_text()))
    transcript = (GOLDEN / "cli_transcript.txt").read_text()
    for i, block in enumerate(transcript.split("$ preordgrp ")[1:]):
        _, code, out = block.split("\n", 2)
        if code == "exit 0" and "universe finite" in out:
            yield f"transcript block {i}", out.rstrip("\n") + "\n"


def test_printed_tables_reload_through_the_predictor(monkeypatch):
    # a spy, not a timing: a silent fall-back to int() on every row fails here
    calls, predict = [], ff._predicted_rows

    def spy(*args):
        calls.append(predict(*args))
        return calls[-1]

    monkeypatch.setattr(ff, "_predicted_rows", spy)
    for label, text in printed_finite_workspaces():
        calls.clear()
        ws = ff.parse_workspace(text)
        finite = [obj for obj in ws.objects.values() if obj.universe == po.FINITE]
        assert len(calls) == len(finite) and None not in calls, label
        assert ff.format_workspace(ws) == text, label


def c12_text(rows):
    """A C12 object whose table rows are the given token lists."""
    lines = ["object c", "universe finite", "order 12", "table"]
    return "\n".join(lines + [" ".join(row) for row in rows] + ["cone 0"]) + "\n"


C12_ROWS = [[str((a + b) % 12) for b in range(12)] for a in range(12)]


class TestTableTokens:
    """A table as printed is read from its generators' rows; in any other
    table every row is read by int(), with its values and errors."""

    def test_other_spellings_load_the_same_group(self):
        rows = [row[:] for row in C12_ROWS]
        rows[1] = [{"7": "07", "3": "+3", "10": "1_0"}.get(t, t) for t in rows[1]]
        rows[5] = ["0" + t for t in rows[5]]
        rows[11][0] = "\u0661\u0661"  # "11" in Arabic-Indic digits
        group = ff.parse_workspace(c12_text(rows)).objects["c"].group
        assert group == fg.cyclic_group(12)
        assert group == ff.parse_workspace(c12_text(C12_ROWS)).objects["c"].group

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0 1 x 3 4 5 6 7 8 9 10 11", "expected integers, got '0 1 x 3 4 5 6 7 8 9 10 11'"),
            ("0 1 2.0 3 4 5 6 7 8 9 10 11", "expected integers, got '0 1 2.0 3 4 5 6 7 8 9 10 11'"),
            ("0 1 2 3 4 5 6 7 8 9 10", "expected 12 integers, got 11"),
            ("0 1 2 3 4 5 6 7 8 9 10 11 0", "expected 12 integers, got 13"),
            ("0 1 +2 3 4 5 6 7 8 9 10", "expected 12 integers, got 11"),
        ],
        ids=["letter", "decimal-point", "short", "long", "short-with-sign"],
    )
    def test_bad_row_errors_and_lines(self, row, message):
        # table row 1 is line 6 (rows 0 .. 11 sit on lines 5 .. 16)
        rows = [row.split() if a == 1 else C12_ROWS[a] for a in range(12)]
        with pytest.raises(ParseError) as err:
            ff.parse_workspace(c12_text(rows))
        assert str(err.value) == f"line 6: {message}"
        assert err.value.line == 6

    @pytest.mark.parametrize("token,entry", [("12", "12"), ("-1", "-1"), ("0012", "12")])
    def test_out_of_range_entries_reach_the_group_check(self, token, entry):
        rows = [row[:] for row in C12_ROWS]
        rows[3][4] = token
        with pytest.raises(ValidationError) as err:
            ff.parse_workspace(c12_text(rows))
        assert str(err.value) == f"table entry at (3, 4) is {entry}"

    def test_huge_order_fails_at_its_first_row(self):
        # the predictor refuses an order above the cap before it allocates
        text = "object c\nuniverse finite\norder 1000000000000\ntable\n0 1\n"
        with pytest.raises(ParseError) as err:
            ff.parse_workspace(text)
        assert str(err.value) == "line 5: expected 1000000000000 integers, got 2"

    def test_order_above_the_cap_is_read_then_refused(self):
        with pytest.raises(ResourceLimitError, match="group order 12 exceeds cap 5"):
            ff.parse_workspace(c12_text(C12_ROWS), universe_cap=5)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("nonsense\n", "line 1"),
            ("object a\nuniverse martian\n", "unknown universe"),
            ("object a\nuniverse abelian\nrank x\n", "expected integers"),
            ("object a\nuniverse abelian\nrank 1\ncone 1 2\n", "line 4"),
            ("object a\nuniverse finite\norder 2\n0 1\n1 0\n", "expected 'table'"),
            ("object a\nuniverse finite\norder 2\ntable\n0 1\n", "2 rows"),
            ("morphism f : a -> b\n", "unknown object"),
            ("object a\nuniverse abelian\nrank 1\nobject a\nuniverse abelian\nrank 1\n", "duplicate"),
            ("object a\nuniverse abelian\nrank 1\nmorphism f a -> a\nmatrix\n1\n", "morphism"),
        ],
    )
    def test_rejected_with_location(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            ff.parse_workspace(text)

    def test_matrix_keyword_needs_abelian(self):
        ws = demo_workspace()
        text = ff.format_workspace(ws) + "\nmorphism bad : s3 -> s3\nmatrix\n"
        with pytest.raises(ParseError, match="abelian endpoints"):
            ff.parse_workspace(text)

    @pytest.mark.parametrize(
        "dom,cod,block,fragment",
        [
            ("zn", "c3", "matrix\n1\n", "abelian endpoints"),
            ("c3", "zn", "map 0 0 0\n", "finite endpoints"),
        ],
    )
    def test_mixed_universe_endpoints(self, dom, cod, block, fragment):
        text = ff.format_workspace(demo_workspace()) + f"\nmorphism bad : {dom} -> {cod}\n{block}"
        with pytest.raises(ParseError, match=fragment):
            ff.parse_workspace(text)

    def test_map_needs_every_element(self):
        text = (
            "object c2\nuniverse finite\norder 2\ntable\n0 1\n1 0\ncone 0 1\n"
            "morphism f : c2 -> c2\nmap 0\n"
        )
        with pytest.raises(ParseError, match="expected 2 integers"):
            ff.parse_workspace(text)


class TestValidationAtLoad:
    def test_conjugation_closure_witness(self):
        text = ff.format_object("s3", po.make_object(S3, [3]))
        bad = text.replace("cone 0 3 4", "cone 1")
        with pytest.raises(ValidationError, match="conjugation") as err:
            ff.parse_workspace(bad)
        assert err.value.witness is not None

    def test_cone_escape_witness(self):
        text = (
            "object zn\nuniverse abelian\nrank 1\ncone 1\n"
            "morphism neg : zn -> zn\nmatrix\n-1\n"
        )
        with pytest.raises(ValidationError, match="outside the cone"):
            ff.parse_workspace(text)

    @pytest.mark.parametrize("index", ["-1", "2", "-2"])
    def test_finite_cone_index_out_of_range(self, index):
        text = f"object c2\nuniverse finite\norder 2\ntable\n0 1\n1 0\ncone {index}\n"
        with pytest.raises(ValidationError, match="not an element"):
            ff.parse_workspace(text)

    def test_bad_table_rejected(self):
        text = "object a\nuniverse finite\norder 2\ntable\n0 1\n1 1\ncone 0\n"
        with pytest.raises(ValidationError, match="repeats"):
            ff.parse_workspace(text)


# --- fuzzing: token and line mutations of the golden workspace files ----------

SOURCES = [(GOLDEN / name).read_text() for name in CLI_WORKSPACES]
KEYWORDS = (
    "object", "universe", "abelian", "finite", "rank", "rel", "cone", "order",
    "table", "morphism", ":", "->", "matrix", "map", "#",
)
TOKENS = st.one_of(
    st.sampled_from(KEYWORDS),
    st.integers(-3, 8).map(str),
    st.sampled_from(("zn", "c2", "A", "F", "e.ker", "x", "1.5")),
)
MUTATIONS = (
    "drop-line", "copy-line", "swap-lines", "drop-token", "replace-token", "insert-token",
)


@st.composite
def mutated_workspace(draw):
    """A golden workspace file with one to four line or token mutations."""
    lines = [line.split() for line in draw(st.sampled_from(SOURCES)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "drop-line":
            del lines[i]
        elif kind == "copy-line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif kind == "swap-lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert-token":
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(TOKENS))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "drop-token":
                del lines[i][j]
            else:
                lines[i][j] = draw(TOKENS)
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_workspace())
    def test_mutated_golden_files_load_or_fail_cleanly(self, text):
        # any text loads or raises one of the library's errors, never a
        # traceback, and what loads prints back to itself
        try:
            ws = ff.parse_workspace(text)
        except (ParseError, ValidationError, ResourceLimitError):
            return
        assert_same_workspace(ws, ff.parse_workspace(ff.format_workspace(ws)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_workspace())
    def test_mutated_golden_files_read_as_the_reference_reads_them(self, text):
        # the reader that tokenized every line loads the same workspace, or
        # raises the same error at the same line
        def outcome(parse):
            try:
                return ff.format_workspace(parse(text))
            except (ParseError, ValidationError, ResourceLimitError) as exc:
                return type(exc), str(exc), getattr(exc, "witness", None)

        assert outcome(ff.parse_workspace) == outcome(ref.parse_workspace)
