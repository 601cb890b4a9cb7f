"""Tests for the command-line interface."""

import json

import pytest

from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.cli import main
from sketchmap.emit import from_json_netlist

ADD_MUL_AND = ("(spec (inputs (a 8) (b 8) (c 8) (d 8)) (pipeline 2) "
               "(and (mul (add a b) c) d))")


def _write(tmp_path, text, name="design.spec"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestMap:
    def test_dsp_success(self, tmp_path, capsys):
        spec = _write(tmp_path, ADD_MUL_AND)
        out = tmp_path / "mapped.v"
        code = main(["map", spec, "--template", "dsp",
                     "--arch-desc", "minidsp.yml", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("module mapped (")
        assert "minidsp18" in text
        err = capsys.readouterr().err
        assert "solver=builtin" in err and "wall_time=" in err

    def test_json_output_reimports(self, tmp_path):
        spec = _write(tmp_path, ADD_MUL_AND)
        out = tmp_path / "mapped.json"
        code = main(["map", spec, "--template", "dsp",
                     "--arch-desc", "minidsp.yml", "--out", str(out),
                     "--out-format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "mapped" in doc["modules"]
        arch = load_arch(packaged_arch_path("minidsp.yml"))
        from_json_netlist(out.read_text(), arch)

    def test_stdout_default(self, tmp_path, capsys):
        spec = _write(tmp_path,
                      "(spec (inputs (a 2) (b 2)) (xor a b))")
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "generic-lut-carry.yml"])
        assert code == 0
        assert "module mapped (" in capsys.readouterr().out

    def test_unsat_exit_2(self, tmp_path, capsys):
        spec = _write(tmp_path, "(spec (inputs (a 2) (b 2)) (add a b))")
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "generic-lut-carry.yml"])
        assert code == 2
        assert "unsat" in capsys.readouterr().err

    def test_timeout_exit_3(self, tmp_path, capsys):
        spec = _write(tmp_path,
                      "(spec (inputs (a 8) (b 8)) (mul a b))")
        code = main(["map", spec, "--template", "multiplication",
                     "--arch-desc", "generic-lut-carry.yml",
                     "--timeout", "0.0001"])
        assert code == 3
        assert "timeout" in capsys.readouterr().err

    def test_deep_query_times_out_cleanly(self, tmp_path, capsys):
        # a 64-bit comparison on a carry chain makes terms hundreds of
        # levels deep; emission and substitution must not hit Python's
        # recursion limit, so the run ends in a timeout
        spec = _write(tmp_path, "(spec (inputs (a 64) (b 64)) (ult a b))")
        code = main(["map", spec, "--template", "comparison",
                     "--arch-desc", "generic-lut-carry.yml",
                     "--timeout", "5"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "timeout after" in err

    def test_deep_spec_expression(self, tmp_path, capsys):
        # 3000 nested nots: far deeper than Python's recursion limit; an
        # even count is a itself
        nest = "(not " * 3000 + "a" + ")" * 3000
        spec = _write(tmp_path, f"(spec (inputs (a 2) (b 2)) (xor {nest} b))")
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "generic-lut-carry.yml"])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "success" in err

    @pytest.mark.parametrize("argv_patch", [
        {"spec": "/nonexistent/x.spec"},
        {"arch": "nonexistent.yml"},
        {"template": "mystery"},
        {"template": None},
        {"extra": ["--timeout", "abc"]},
        {"extra": ["--timeout", "-1"]},
        {"extra": ["--timeout", "0"]},
        {"extra": ["--timeout", "inf"]},
        {"extra": ["--timeout", "nan"]},
        {"extra": ["--clock-cycles", "-1"]},
        {"extra": ["--clock-cycles", "two"]},
        {"extra": ["--out-format", "edif"]},
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, monkeypatch,
                                 argv_patch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("usage errors are found before synthesis")

        monkeypatch.setattr("sketchmap.cli.synthesize", no_synthesis)
        spec = argv_patch.get("spec") or _write(tmp_path, ADD_MUL_AND)
        template = argv_patch.get("template", "dsp")
        code = main(["map", spec,
                     *(["--template", template] if template else []),
                     "--arch-desc", argv_patch.get("arch", "minidsp.yml"),
                     *argv_patch.get("extra", [])])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["map", "--help"]) == 0
        assert "--clock-cycles" in capsys.readouterr().out

    @pytest.mark.parametrize("name,extra", [
        ("n1", []), ("out", []), ("clk", []), ("u0", []),
        ("a", ["--module-name", "bad name"]),
        ("a", ["--module-name", "frac_lut4"]),
    ])
    def test_names_the_netlist_cannot_carry_exit_1(self, tmp_path, capsys,
                                                   monkeypatch, name, extra):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("names are checked before synthesis")

        monkeypatch.setattr("sketchmap.cli.synthesize", no_synthesis)
        spec = _write(tmp_path,
                      f"(spec (inputs ({name} 2) (b 2)) (xor {name} b))")
        out = tmp_path / "mapped.v"
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "sofa.yml", "--out", str(out)] + extra)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_document_exit_1(self, tmp_path, capsys):
        spec = _write(tmp_path, "(spec (inputs (a 4)) (nand a a))")
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "generic-lut-carry.yml"])
        assert code == 1

    def test_mixed_widths_exit_1(self, tmp_path, capsys):
        spec = _write(tmp_path,
                      "(spec (inputs (a 4) (b 8)) (mul a (extract 3 0 b)))")
        code = main(["map", spec, "--template", "dsp",
                     "--arch-desc", "minidsp.yml"])
        assert code == 1
        assert "uniform" in capsys.readouterr().err

    def test_pipeline_depth_override(self, tmp_path, capsys):
        spec = _write(tmp_path,
                      "(spec (inputs (a 8) (b 8)) (mul a b))")
        out = tmp_path / "m.v"
        code = main(["map", spec, "--template", "dsp",
                     "--arch-desc", "minidsp.yml",
                     "--pipeline-depth", "2", "--out", str(out)])
        assert code == 0
        code = main(["map", spec, "--template", "dsp",
                     "--arch-desc", "minidsp.yml",
                     "--pipeline-depth", "9"])
        assert code == 1  # the dsp template has at most 3 stages

    def test_unlaunchable_solver_exit_1(self, tmp_path, capsys):
        spec = _write(tmp_path, "(spec (inputs (a 2) (b 2)) (xor a b))")
        config = _write(tmp_path, json.dumps(
            [{"name": "ghost", "command": [str(tmp_path / "no-solver")]}]),
            "solvers.json")
        code = main(["map", spec, "--template", "bitwise",
                     "--arch-desc", "generic-lut-carry.yml",
                     "--solver-config", config])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ghost" in err
        assert len(err.splitlines()) == 1


class TestTemplates:
    def test_lists_all(self, capsys):
        assert main(["templates"]) == 0
        out = capsys.readouterr().out
        for name in ("dsp", "bitwise", "bitwise-with-carry", "comparison",
                     "multiplication"):
            assert name in out
        assert "width" in out


class TestBench:
    def test_benchgen_and_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["benchgen", "--out-dir", str(corpus)]) == 0
        assert (corpus / "manifest.csv").exists()
        assert len(list(corpus.glob("*.spec"))) == 468
        report = tmp_path / "report.csv"
        code = main(["benchrun", "--corpus", str(corpus),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(report),
                     "--only", "add_mul_xor_w08_d0", "mul_w09_d1",
                     "--sim-cycles", "300"])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "name,outcome,solver,seconds"
        assert len(lines) == 3
        assert all(",success,builtin," in line for line in lines[1:])

    def test_benchrun_only_flag_accumulates(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["benchgen", "--out-dir", str(corpus)])
        report = tmp_path / "report.csv"
        code = main(["benchrun", "--corpus", str(corpus),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(report),
                     "--only", "add_mul_xor_w08_d0",
                     "--only", "mul_w09_d1",
                     "--sim-cycles", "300"])
        assert code == 0
        lines = report.read_text().splitlines()
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"add_mul_xor_w08_d0", "mul_w09_d1"}

    def test_benchrun_soundness_exit(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        main(["benchgen", "--out-dir", str(corpus)])
        monkeypatch.setattr("sketchmap.bench.validate_by_simulation",
                            lambda *a, **k: [3])
        code = main(["benchrun", "--corpus", str(corpus),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(tmp_path / "r.csv"),
                     "--only", "mul_w08_d0"])
        assert code == 1
        assert "SOUNDNESS FAILURE" in capsys.readouterr().err

    def test_benchrun_unlaunchable_solver_exit_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["benchgen", "--out-dir", str(corpus)])
        capsys.readouterr()
        config = _write(tmp_path, json.dumps(
            [{"name": "ghost", "command": [str(tmp_path / "no-solver")]}]),
            "solvers.json")
        code = main(["benchrun", "--corpus", str(corpus),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(tmp_path / "r.csv"),
                     "--solver-config", config,
                     "--only", "mul_w08_d0", "mul_w09_d0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ghost" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("entry", [
        {"name": "z3", "command": "z3 -in"},
        {"name": "z3", "command": ["z3", "-in"], "timeout": "soon"},
    ])
    def test_benchrun_malformed_solver_config_exit_1(self, tmp_path, capsys,
                                                     entry):
        config = _write(tmp_path, json.dumps([entry]), "solvers.json")
        code = main(["benchrun", "--corpus", str(tmp_path / "corpus"),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(tmp_path / "r.csv"),
                     "--solver-config", config])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: solver entry 0 ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra", [
        ["--timeout", "abc"],
        ["--timeout", "-1"],
        ["--clock-cycles", "-1"],
        ["--sim-cycles", "0"],
        ["--jobs", "0"],
        ["--jobs", "many"],
    ])
    def test_benchrun_usage_errors_exit_1(self, tmp_path, capsys, extra):
        corpus = tmp_path / "corpus"
        main(["benchgen", "--out-dir", str(corpus)])
        capsys.readouterr()
        report = tmp_path / "r.csv"
        code = main(["benchrun", "--corpus", str(corpus),
                     "--arch-desc", "minidsp.yml", "--report", str(report),
                     "--only", "mul_w08_d0", *extra])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not report.exists()

    def test_benchrun_missing_corpus(self, tmp_path, capsys):
        code = main(["benchrun", "--corpus", str(tmp_path / "nope"),
                     "--arch-desc", "minidsp.yml",
                     "--report", str(tmp_path / "r.csv")])
        assert code == 1
