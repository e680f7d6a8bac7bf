"""Command dispatch, output round-trips, and the exit-code contract."""

import pytest

from preordgrp import cli
from preordgrp import fileformat as ff
from preordgrp import verify as v

from test_fileformat import demo_workspace


@pytest.fixture(scope="module")
def workspace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "demo.txt"
    path.write_text(ff.format_workspace(demo_workspace()))
    return str(path)


class TestConstructions:
    def test_zcokernel_of_subgroup_inclusion(self, workspace_file, capsys):
        assert cli.main(["zcokernel", workspace_file, "incl"]) == 0
        out = ff.parse_workspace(capsys.readouterr().out)
        quotient = out.objects["incl.zcok"]
        assert quotient.group.order == 2
        assert quotient.cone == frozenset({0})
        assert out.endpoints["incl.zcok.proj"] == ("s3", "incl.zcok")

    def test_canonical_seq_halfplane(self, workspace_file, capsys):
        assert cli.main(["canonical-seq", workspace_file, "half"]) == 0
        out = ff.parse_workspace(capsys.readouterr().out)
        torsion = out.objects["half.torsion"]
        assert torsion.cone.to_rows() == ((1, 0), (-1, 0))
        assert set(out.morphisms) == {"half.kappa", "half.eta"}

    @pytest.mark.parametrize(
        "command,name",
        [
            ("kernel", "sgn"),
            ("cokernel", "double"),
            ("zkernel", "sgn"),
            ("zcokernel", "incl"),
            ("canonical-seq", "half"),
            ("functor-d", "zn"),
            ("functor-c", "s3"),
            ("stable", "zn"),
            ("grpcompletion", "half"),
            ("units", "half"),
            ("reduce", "half"),
            ("compare", "zn"),
        ],
    )
    def test_output_reloads(self, workspace_file, capsys, command, name):
        assert cli.main([command, workspace_file, name]) == 0
        reloaded = ff.parse_workspace(capsys.readouterr().out)
        assert reloaded.objects

    def test_classify(self, workspace_file, capsys):
        assert cli.main(["classify", workspace_file, "half"]) == 0
        assert capsys.readouterr().out == (
            "torsion false\ntorsion-free false\nz-trivial false\n"
        )

    def test_classify_mor(self, workspace_file, capsys):
        assert cli.main(["classify-mor", workspace_file, "sgn"]) == 0
        assert capsys.readouterr().out == (
            "mono false\nepi true\nregular-epi false\nz-trivial true\n"
        )

    def test_out_flag_writes_file(self, workspace_file, capsys, tmp_path):
        target = tmp_path / "result.txt"
        assert cli.main(["--out", str(target), "zkernel", workspace_file, "sgn"]) == 0
        assert capsys.readouterr().out == ""
        assert "object sgn.zker" in target.read_text()


class TestParser:
    def test_commands_in_order(self):
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert list(sub.choices) == [
            "kernel", "cokernel", "zkernel", "zcokernel", "classify-mor",
            "canonical-seq", "classify", "functor-d", "functor-c", "stable",
            "grpcompletion", "units", "reduce", "compare", "check", "check-one",
        ]
        helps = {
            name: [a.help for a in parser._actions if a.dest == "name"]
            for name, parser in sub.choices.items()
        }
        assert helps["kernel"] == helps["classify-mor"] == ["morphism name"]
        assert helps["classify"] == helps["compare"] == ["object name"]
        assert helps["check"] == []


class TestChecks:
    def test_check_one_passes(self, capsys):
        assert cli.main(["check-one", "completion", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("claim completion\nstatus pass\n")

    def test_check_one_seed_and_samples_forwarded(self, capsys, monkeypatch):
        seen = {}

        def fake(name, seed, samples):
            seen.update(name=name, seed=seed, samples=samples)
            return v.Certificate(name, "pass", ())

        monkeypatch.setattr(cli.v, "run_claim", fake)
        assert cli.main(["check-one", "intsolve", "--seed", "7", "--samples", "9"]) == 0
        assert seen == {"name": "intsolve", "seed": 7, "samples": 9}

    def test_check_reports_failure_with_exit_3(self, capsys, monkeypatch):
        failing = (v.Certificate("bad", "fail", (), ("it broke",)),)
        monkeypatch.setattr(cli.v, "run_all", lambda seed, samples: failing)
        assert cli.main(["check"]) == 3
        out = capsys.readouterr().out
        assert "claim bad" in out and "witness it broke" in out

    def test_check_one_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.v, "run_claim", lambda name, seed, samples: v.Certificate(name, "fail", ())
        )
        assert cli.main(["check-one", "intsolve"]) == 3


class TestExitCodes:
    def test_unknown_entity(self, workspace_file, capsys):
        assert cli.main(["zkernel", workspace_file, "nosuch"]) == 2
        assert "unknown morphism" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["classify", "/nonexistent/ws.txt", "x"]) == 1

    def test_parse_error_location(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("object a\nuniverse abelian\nrank 1\ncone 1 2\n")
        assert cli.main(["classify", str(path), "a"]) == 1
        assert "line 4" in capsys.readouterr().err

    def test_mixed_universe_morphism_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        text = ff.format_workspace(demo_workspace()) + "\nmorphism f : zn -> c3\nmatrix\n1\n"
        path.write_text(text)
        assert cli.main(["kernel", str(path), "f"]) == 1
        assert "abelian endpoints" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("object a\nuniverse finite\norder 2\ntable\n0 1\n1 1\ncone 0\n")
        assert cli.main(["classify", str(path), "a"]) == 2

    def test_universe_cap_override(self, workspace_file, capsys):
        assert cli.main(["classify", workspace_file, "s3", "--universe-cap", "4"]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_pushout_checks_unsupported_in_finite_universe(self, capsys):
        assert cli.main(["check-one", "gjm-pushout-finite"]) == 2
        assert (
            "unsupported (pushout checks requested in finite universe)"
            in capsys.readouterr().err
        )

    def test_unknown_claim(self, capsys):
        assert cli.main(["check-one", "bogus"]) == 2

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1
