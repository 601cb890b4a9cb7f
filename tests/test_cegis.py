"""The refinement loop end to end, on hand-built sketches.

The expected memory contents in these tests are frozen from a brute-force
enumeration over all hole values (see the inline oracles), independent of
the solver path under test.
"""

import hashlib
import sys

import pytest

from sketchmap import cegis as cegis_module
from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.bench import _document_text, corpus_benchmarks
from sketchmap.cegis import Success, Timeout, Unsat, cegis, synthesize
from sketchmap.interp import env_of_ints, interp, simulate
from sketchmap.ir import (
    BV, BitVec, ConstantHole, EmitMeta, Hole, PortBinding, Prim,
    ProgBuilder, Sketch, substitute_holes,
)
from sketchmap.portfolio import SolverConfig, SolverSession
from sketchmap.sketches import document_params, generate_sketch
from sketchmap.specdsl import parse_document
from sketchmap.symbolic import build_query
from util_progs import record_calls

WEDGED = SolverConfig(
    "wedged", (sys.executable, "-c", "import time; time.sleep(600)"),
    timeout=600.0)


def _bv(v, w):
    return BitVec.of(v, w)


def _lut_body(n):
    """Memory-indexed bit lookup: out = (tbl >> idx)[0]."""
    bb = ProgBuilder()
    tbl = bb.var("tbl", 2 ** n)
    sel = bb.var("sel", n)
    shifted = bb.op("lshr", tbl, bb.zext(2 ** n - n, sel))
    return bb, bb.prog(bb.extract(0, 0, shifted))


def _lut2_sketch():
    b = ProgBuilder()
    a = b.var("a", 1)
    c = b.var("b", 1)
    idx = b.concat(c, a)          # a is the low index bit
    h = b.hole("m", ConstantHole(4))
    bb, body = _lut_body(2)
    del bb
    meta = EmitMeta("lut2", (("sel", PortBinding("I", "in", 2)),),
                    (("INIT", "tbl"),), "O")
    # bodies get their ids from a child builder so ids stay disjoint
    b2 = ProgBuilder()
    a2 = b2.var("a", 1)
    c2 = b2.var("b", 1)
    idx2 = b2.concat(c2, a2)
    h2 = b2.hole("m", ConstantHole(4))
    bb2 = b2.child()
    tbl = bb2.var("tbl", 4)
    sel = bb2.var("sel", 2)
    shifted = bb2.op("lshr", tbl, bb2.zext(2, sel))
    body2 = bb2.prog(bb2.extract(0, 0, shifted))
    pr = b2.add(Prim((("tbl", h2), ("sel", idx2)), body2, meta))
    return Sketch(b2.prog(pr), {"m": ConstantHole(4)})


def _bool_spec(op):
    b = ProgBuilder()
    a = b.var("a", 1)
    c = b.var("b", 1)
    return b.prog(b.op(op, a, c))


def _lut2_oracle(op):
    """Brute force: the unique 4-bit memory realizing a two-input gate
    with index bit 0 = a, bit 1 = b."""
    want = None
    py = {"xor": lambda a, b: a ^ b, "and": lambda a, b: a & b,
          "or": lambda a, b: a | b}[op]
    for m in range(16):
        if all((m >> (b * 2 + a)) & 1 == py(a, b)
               for a in (0, 1) for b in (0, 1)):
            assert want is None
            want = m
    return want


class TestLutSynthesis:
    @pytest.mark.parametrize("op", ["xor", "and", "or"])
    def test_two_input_gates(self, op):
        sketch = _lut2_sketch()
        res = synthesize(_bool_spec(op), sketch, t=0, c=0)
        assert isinstance(res, Success)
        assert res.model["m"] == _bv(_lut2_oracle(op), 4)
        (hole,) = (i for i, n in sketch.psi.nodes.items()
                   if isinstance(n, Hole))
        assert res.program.nodes[hole] == BV(res.model["m"])
        assert res.iterations >= 1
        # frozen oracle values, computed by the enumeration above:
        assert {"xor": 0b0110, "and": 0b1000,
                "or": 0b1110}[op] == _lut2_oracle(op)

    def test_result_program_simulates_like_spec(self):
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0)
        for a in (0, 1):
            for b in (0, 1):
                env = env_of_ints({"a": ([a], 1), "b": ([b], 1)})
                got = interp(res.program, env, 0, res.program.root)
                assert got.value == a ^ b

    def test_unsat_when_sketch_cannot_see_an_input(self):
        # single-input lookup vs a two-input spec: no memory works
        b = ProgBuilder()
        a = b.var("a", 1)
        b.var("b", 1)  # declared but unused by the sketch datapath
        h = b.hole("m", ConstantHole(2))
        bb = b.child()
        tbl = bb.var("tbl", 2)
        sel = bb.var("sel", 1)
        body = bb.prog(bb.extract(0, 0, bb.op("lshr", tbl,
                                              bb.zext(1, sel))))
        meta = EmitMeta("lut1", (("sel", PortBinding("I", "in", 1)),),
                        (("INIT", "tbl"),), "O")
        pr = b.add(Prim((("tbl", h), ("sel", a)), body, meta))
        sk = Sketch(b.prog(pr), {"m": ConstantHole(2)})
        res = synthesize(_bool_spec("xor"), sk, t=0, c=0)
        assert isinstance(res, Unsat)

    def test_no_hole_sketch_verifies_directly(self):
        sk = _lut2_sketch()
        solved = substitute_holes(sk, {"m": BV(_bv(0b0110, 4))})
        res = synthesize(_bool_spec("xor"), Sketch(solved, {}), t=0, c=0)
        assert isinstance(res, Success)
        assert res.model == {}

    def test_no_hole_wrong_constant_is_unsat(self):
        sk = _lut2_sketch()
        solved = substitute_holes(sk, {"m": BV(_bv(0b0111, 4))})
        res = synthesize(_bool_spec("xor"), Sketch(solved, {}), t=0, c=0)
        assert isinstance(res, Unsat)


def _reg_spec(init):
    b = ProgBuilder()
    a = b.var("a", 4)
    return b.prog(b.reg(a, _bv(init, 4)))


def _reg_sketch(init):
    b = ProgBuilder()
    a = b.var("a", 4)
    bb = b.child()
    d = bb.var("d", 4)
    body = bb.prog(bb.reg(d, _bv(init, 4)))
    meta = EmitMeta("dff", (("d", PortBinding("D", "in", 4)),), (), "Q")
    pr = b.add(Prim((("d", a),), body, meta))
    return Sketch(b.prog(pr), {})


class TestEquivalenceWindow:
    def test_initial_value_counts_at_cycle_zero(self):
        assert isinstance(
            synthesize(_reg_spec(5), _reg_sketch(5), t=0, c=1), Success)
        assert isinstance(
            synthesize(_reg_spec(7), _reg_sketch(5), t=0, c=1), Unsat)

    def test_initial_value_invisible_after_fill(self):
        assert isinstance(
            synthesize(_reg_spec(7), _reg_sketch(5), t=1, c=1), Success)
        assert isinstance(
            synthesize(_reg_spec(5), _reg_sketch(5), t=1, c=1), Success)


def test_revalidate_compiles_once_and_simulates_every_counterexample(
        monkeypatch):
    # the benchmark's tracer wraps cegis.simulate and reads the cycle
    # count from its third positional argument
    from sketchmap import interp
    from sketchmap.portfolio import SolverError
    calls = record_calls(monkeypatch, cegis_module, "simulate")
    scheduled = record_calls(monkeypatch, interp, "schedule")
    q = build_query(_reg_spec(5), _reg_sketch(5), 0, 1)
    good = _reg_sketch(5).psi
    cexs = [{("a", 0): _bv(v, 4), ("a", 1): _bv(v + 1, 4)}
            for v in (0, 3, 9)] + [{}]
    cegis_module._revalidate(q, good, cexs)
    assert [a[2] for a in calls] == [2] * 8
    assert [a[0] for a in scheduled] == [q.spec_prog, good]
    with pytest.raises(SolverError, match=r"at cycle 0 \(spec 4'h5, "
                                          r"got 4'h7\)"):
        cegis_module._revalidate(q, _reg_sketch(7).psi, cexs)


class TestLoopMechanics:
    def test_timeout_with_wedged_portfolio(self):
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0,
                         solvers=[WEDGED], timeout=2.0)
        assert isinstance(res, Timeout)
        assert res.wall_time < 30

    def test_counterexamples_are_recorded(self):
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0,
                         initial_samples=0)
        assert isinstance(res, Success)
        # with no seeding, the first candidate is arbitrary and at least
        # one verification counterexample is normally needed
        assert res.iterations >= 1
        for env in res.counterexamples:
            for (name, t), v in env.items():
                assert name in ("a", "b") and t == 0 and v.width == 1

    def test_wider_datapath(self):
        # 8-bit two's-complement negate from an xor-add sketch:
        # out = (a ^ mask) + k, expecting mask=0xff, k=1
        b = ProgBuilder()
        a = b.var("a", 8)
        spec = b.prog(b.op("neg", a))
        s = ProgBuilder()
        a2 = s.var("a", 8)
        mask = s.hole("mask", ConstantHole(8))
        k = s.hole("k", ConstantHole(8))
        bb = s.child()
        x = bb.var("x", 8)
        m2 = bb.var("m", 8)
        k2 = bb.var("kk", 8)
        body = bb.prog(bb.op("add", bb.op("xor", x, m2), k2))
        meta = EmitMeta("xoradd", (("x", PortBinding("A", "in", 8)),),
                        (("M", "m"), ("K", "kk")), "O")
        pr = s.add(Prim((("x", a2), ("m", mask), ("kk", k)), body, meta))
        sk = Sketch(s.prog(pr), {"mask": ConstantHole(8),
                                 "k": ConstantHole(8)})
        res = synthesize(spec, sk, t=0, c=0)
        assert isinstance(res, Success)
        assert res.model["mask"] == _bv(0xFF, 8)
        assert res.model["k"] == _bv(1, 8)


# sha256 over every query text synthesize sends, in order.  The texts
# depend on term folding, emission and (through the counterexamples) on
# the solver's models, so a change to any of them that alters a query must
# update these constants on purpose and say why.
PINNED_QUERIES = {
    "add_w4": ("generic-lut-carry.yml", "bitwise-with-carry",
               "(spec (inputs (a 4) (b 4)) (add a b))\n",
               "aeea2e950396c531f76eec2ca02631aa"
               "13c5d8e2b922a77ef9053c08b24efb0a"),
    # a minidsp corpus row: the block's operand and ALU muxes leave a
    # few hundred mux terms in each query
    "add_mul_xor_w08_d1": ("minidsp.yml", "dsp", None,
                           "82c9b7cd2b2265fe67b9645373d50697"
                           "170e6485173171a9edb37664c173272e"),
    # a three-input truth table as the lut64 benchmark writes it: its
    # queries are 1-bit trees of not, and and or over the LUT's shifted
    # configuration word
    "tt_4b": ("sofa.yml", "bitwise",
              "(spec (inputs (a 1) (b 1) (c 1)) (or (or (or "
              "(and (and (not a) (not b)) (not c)) "
              "(and (and a (not b)) (not c))) (and (and a b) (not c))) "
              "(and (and (not a) b) c)))\n",
              "c3f10176a54c5939b571add859ee9589"
              "c588f8aefb44950c36b882c57fe71318"),
}


@pytest.mark.parametrize("design", sorted(PINNED_QUERIES))
def test_query_texts_are_pinned(design, monkeypatch):
    arch_file, template, text, want = PINNED_QUERIES[design]
    if text is None:
        text = next(_document_text(b) for b in corpus_benchmarks()
                    if b.name == design)
    texts = []
    real = cegis_module.portfolio_solve

    def capture(query, *args, **kwargs):
        texts.append(query)
        return real(query, *args, **kwargs)

    monkeypatch.setattr(cegis_module, "portfolio_solve", capture)
    doc = parse_document(text)
    (width,) = {w for _, w in doc.inputs}
    sketch = generate_sketch(template, load_arch(packaged_arch_path(arch_file)),
                             document_params(template, doc, width))
    with SolverSession() as session:
        res = synthesize(doc.prog, sketch, t=doc.pipeline, session=session)
    assert isinstance(res, Success)
    h = hashlib.sha256()
    for q in texts:
        h.update(q.encode())
    assert h.hexdigest() == want
