"""Tests for benchmark corpus generation and batch runs."""

import os
import subprocess
import sys

import pytest

import sketchmap
from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.bench import (SoundnessFailure, corpus_benchmarks,
                             read_manifest, run_corpus,
                             validate_by_simulation, write_corpus,
                             _expressible)
from sketchmap.ir import BitVec, ProgBuilder
from sketchmap.specdsl import parse_document
from util_progs import record_calls


def _mdsp():
    return load_arch(packaged_arch_path("minidsp.yml"))


def _glc():
    return load_arch(packaged_arch_path("generic-lut-carry.yml"))


class TestCorpus:
    def test_enumeration_size(self):
        rows = corpus_benchmarks()
        assert len(rows) == 468
        assert len({r.name for r in rows}) == 468
        shapes = {r.name.rsplit("_w", 1)[0] for r in rows}
        assert len(shapes) == 13
        assert {r.width for r in rows} == set(range(8, 17))
        assert {r.depth for r in rows} == {0, 1, 2, 3}

    def test_shape_families(self):
        shapes = {r.name.rsplit("_w", 1)[0] for r in corpus_benchmarks()}
        assert "mul" in shapes
        assert {"mul_add", "mul_sub"} <= shapes
        ternary = {s for s in shapes if s.count("_") == 2}
        assert len(ternary) == 10  # 2 pre-ops x 5 post-ops

    def test_all_expressible_on_minidsp(self):
        rows = corpus_benchmarks()
        assert all(r.expressible for r in rows)

    def test_expressibility_is_computed(self):
        assert _expressible("(and (mul (add a b) c) d)", 8, 2)
        assert not _expressible("(and (mul (add a b) c) d)", 20, 2)
        assert not _expressible("(and (mul (add a b) c) d)", 8, 4)
        assert not _expressible("(ult (mul a b) c)", 8, 0)

    def test_deterministic_bytes(self, tmp_path):
        m1 = write_corpus(tmp_path / "c1")
        m2 = write_corpus(tmp_path / "c2")
        assert m1.read_bytes() == m2.read_bytes()
        for name in ("add_mul_and_w08_d0.spec", "mul_w16_d3.spec",
                     "mul_sub_w11_d1.spec"):
            assert (m1.parent / name).read_bytes() == \
                (m2.parent / name).read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        manifest = write_corpus(tmp_path)
        assert read_manifest(manifest) == corpus_benchmarks()

    def test_every_document_parses(self, tmp_path):
        manifest = write_corpus(tmp_path)
        for bench in read_manifest(manifest):
            doc = parse_document((tmp_path / bench.file).read_text())
            assert doc.pipeline == bench.depth
            assert all(w == bench.width for _, w in doc.inputs)


class TestValidation:
    def test_agreement_is_empty(self):
        b = ProgBuilder()
        x, y = b.var("x", 4), b.var("y", 4)
        p = b.prog(b.op("add", x, y))
        assert validate_by_simulation(p, p, 0, cycles=50) == []

    def test_disagreement_found(self):
        b = ProgBuilder()
        x, y = b.var("x", 4), b.var("y", 4)
        spec = b.prog(b.op("add", x, y))
        b2 = ProgBuilder()
        x2, y2 = b2.var("x", 4), b2.var("y", 4)
        wrong = b2.prog(b2.op("sub", x2, y2))
        assert validate_by_simulation(spec, wrong, 0, cycles=50)

    def test_fill_cycles_excluded(self):
        def delayed(init):
            b = ProgBuilder()
            x = b.var("x", 4)
            return b.prog(b.reg(x, BitVec.of(init, 4)))
        five, seven = delayed(5), delayed(7)
        assert validate_by_simulation(five, seven, 0, cycles=30) == [0]
        assert validate_by_simulation(five, seven, 1, cycles=30) == []

    def test_one_simulate_call_and_one_schedule_per_program(
            self, monkeypatch):
        # the benchmark's tracer wraps bench.simulate and reads the cycle
        # count from its third positional argument
        from sketchmap import bench, interp
        calls = record_calls(monkeypatch, bench, "simulate")
        scheduled = record_calls(monkeypatch, interp, "schedule")
        b = ProgBuilder()
        x, y = b.var("x", 4), b.var("y", 4)
        spec = b.prog(b.op("add", x, y))
        b2 = ProgBuilder()
        x2, y2 = b2.var("x", 4), b2.var("y", 4)
        same = b2.prog(b2.op("add", y2, x2))
        assert validate_by_simulation(spec, same, 0, cycles=2000) == []
        assert [a[2] for a in calls] == [2000, 2000]
        assert [a[0] for a in scheduled] == [spec, same]


class TestRunCorpus:
    def test_subset_success(self, tmp_path):
        write_corpus(tmp_path)
        report = tmp_path / "report.csv"
        rows = run_corpus(tmp_path, _mdsp(),
                          only=["sub_mul_or_w09_d1", "mul_add_w10_d0"],
                          report_path=report, sim_cycles=400)
        assert {r.outcome for r in rows} == {"success"}
        assert all(r.solver == "builtin" for r in rows)
        lines = report.read_text().splitlines()
        assert lines[0] == "name,outcome,solver,seconds"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_jobs_concurrent(self, tmp_path):
        write_corpus(tmp_path)
        names = ["add_mul_xor_w08_d0", "sub_mul_or_w08_d1",
                 "mul_w08_d2", "mul_sub_w08_d3"]
        rows = run_corpus(tmp_path, _mdsp(), only=names, jobs=2,
                          sim_cycles=300)
        assert sorted(r.name for r in rows) == sorted(names)
        assert {r.outcome for r in rows} == {"success"}

    def test_inexpressible_template_reports_unsat(self, tmp_path):
        write_corpus(tmp_path)
        rows = run_corpus(tmp_path, _glc(), template="bitwise",
                          only=["mul_w08_d0"], sim_cycles=100)
        assert [r.outcome for r in rows] == ["unsat"]
        assert rows[0].solver == ""

    def test_template_without_primitives_is_error_row(self, tmp_path):
        write_corpus(tmp_path)
        rows = run_corpus(tmp_path, _mdsp(), template="bitwise",
                          only=["mul_w08_d0"], sim_cycles=100)
        assert [r.outcome for r in rows] == ["error"]

    def test_soundness_failure_aborts(self, tmp_path, monkeypatch):
        write_corpus(tmp_path)
        monkeypatch.setattr("sketchmap.bench.validate_by_simulation",
                            lambda *a, **k: [7, 8])
        report = tmp_path / "report.csv"
        with pytest.raises(SoundnessFailure) as e:
            run_corpus(tmp_path, _mdsp(), only=["mul_w08_d0"],
                       report_path=report, sim_cycles=100)
        assert "mul_w08_d0" in str(e.value)
        assert "SOUNDNESS-FAILURE" in report.read_text()


def test_import_leaves_out_the_thread_pool():
    # only run_corpus with jobs > 1 needs concurrent.futures
    src = os.path.dirname(os.path.dirname(sketchmap.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import sketchmap.bench; "
            "print('concurrent.futures' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]


def test_every_traced_name_resolves():
    # the traced benchmark wraps each (module, attribute) of its TARGETS
    # with getattr/setattr, so a rename here would break it silently
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"
