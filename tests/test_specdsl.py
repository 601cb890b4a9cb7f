"""Tests for the behavioral specification language."""

import random

import pytest

from sketchmap.ir import Reg, WidthError, node_widths, var_widths
from sketchmap.specdsl import ParseError, parse_document
from util_interp import env_of_ints, interp, simulate
from util_progs import parse_spec

ADD_MUL_AND = """
(spec (inputs (a 16) (b 16) (c 16) (d 16))
      (pipeline 2)
      (and (mul (add a b) c) d))
"""


def _eval0(p, env_ints):
    env = env_of_ints({k: ([v], w) for k, (v, w) in env_ints.items()})
    return interp(p, env, 0, p.root)


class TestParsing:
    def test_reference_document(self):
        doc = parse_document(ADD_MUL_AND)
        assert doc.inputs == (("a", 16), ("b", 16), ("c", 16), ("d", 16))
        assert doc.pipeline == 2
        assert set(var_widths(doc.prog)) == {"a", "b", "c", "d"}
        root = doc.prog.nodes[doc.prog.root]
        assert isinstance(root, Reg)
        assert isinstance(doc.prog.nodes[root.data], Reg)
        assert root.init.value == 0 and root.init.width == 16

    def test_pipeline_optional(self):
        doc = parse_document("(spec (inputs (a 4)) (not a))")
        assert doc.pipeline == 0
        assert not isinstance(doc.prog.nodes[doc.prog.root], Reg)

    def test_comments_and_whitespace(self):
        text = "; adder\n(spec (inputs (x 3) (y 3)) ; two words\n (add x y))"
        assert set(var_widths(parse_spec(text))) == {"x", "y"}

    def test_unused_input_still_declared(self):
        p = parse_spec("(spec (inputs (a 2) (b 2)) (not a))")
        assert set(var_widths(p)) == {"a", "b"}

    def test_width_of_root(self):
        p = parse_spec("(spec (inputs (a 5) (b 5)) (ult a b))")
        assert node_widths(p)[p.root] == 1

    def test_wiring_operators(self):
        p = parse_spec(
            "(spec (inputs (a 4) (b 2))"
            "  (concat (extract 3 2 a) (zext 2 b) (not b)))")
        assert node_widths(p)[p.root] == 8
        got = _eval0(p, {"a": (0b1100, 4), "b": (0b01, 2)})
        # high slice 0b11, then zext 0b0001, then ~b = 0b10
        assert got.value == (0b11 << 6) | (0b0001 << 2) | 0b10

    def test_mux(self):
        p = parse_spec("(spec (inputs (s 1) (x 4) (y 4)) (mux s x y))")
        assert _eval0(p, {"s": (1, 1), "x": (3, 4), "y": (9, 4)}).value == 3
        assert _eval0(p, {"s": (0, 1), "x": (3, 4), "y": (9, 4)}).value == 9


class TestSemantics:
    def test_pure_add_matches_modular_sum(self):
        p = parse_spec("(spec (inputs (a 4) (b 4)) (add a b))")
        for a in range(16):
            for b in range(16):
                got = _eval0(p, {"a": (a, 4), "b": (b, 4)})
                assert got.value == (a + b) % 16

    def test_reference_document_two_cycle_latency(self):
        doc = parse_document(ADD_MUL_AND)
        rng = random.Random(11)
        n = 12
        vals = {k: [rng.getrandbits(16) for _ in range(n)] for k in "abcd"}
        env = env_of_ints({k: (v, 16) for k, v in vals.items()})
        out = simulate(doc.prog, env, n)
        for t in range(2, n):
            a, b, c, d = (vals[k][t - 2] for k in "abcd")
            assert out[t].value == (((a + b) % 2**16) * c % 2**16) & d
        assert out[0].value == 0 and out[1].value == 0

    def test_deep_pipeline(self):
        doc = parse_document("(spec (inputs (a 8)) (pipeline 3) (not a))")
        env = env_of_ints({"a": ([1, 2, 3, 4, 5], 8)})
        out = simulate(doc.prog, env, 5)
        assert [o.value for o in out] == [0, 0, 0, 254, 253]


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "(spec)",
        "(spec (inputs) (not a))",
        "(spec (inputs (a 4)))",
        "(spec (inputs (a 4)) (not a) (not a))",
        "(spec (inputs (a 4) (a 4)) (not a))",
        "(spec (inputs (a 0)) (not a))",
        "(spec (inputs (a -3)) (not a))",
        "(spec (inputs (a four)) (not a))",
        "(spec (inputs (4a 4)) (not 4a))",
        "(spec (inputs (a 4)) (pipeline) (not a))",
        "(spec (inputs (a 4)) (pipeline -1) (not a))",
        "(spec (inputs (a 4)) (pipeline 1 2) (not a))",
        "(spec (inputs (a 4)) (nand a a))",
        "(spec (inputs (a 4)) (add a))",
        "(spec (inputs (a 4)) (add a a a))",
        "(spec (inputs (a 4)) (not b))",
        "(spec (inputs (a 4)) ())",
        "(spec (inputs (a 4)) (extract x 0 a))",
        "(spec (inputs (a 4)) (not a)",
        "(spec (inputs (a 4)) (not a)) extra",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_spec(text)

    @pytest.mark.parametrize("text", [
        "(spec (inputs (a 4) (b 5)) (add a b))",
        "(spec (inputs (a 4) (b 5)) (eq a b))",
        "(spec (inputs (s 2) (x 4) (y 4)) (mux s x y))",
        "(spec (inputs (a 4)) (extract 4 0 a))",
        "(spec (inputs (a 4)) (extract 1 2 a))",
        "(spec (inputs (a 4)) (zext -1 a))",
    ])
    def test_width_errors(self, text):
        with pytest.raises(WidthError):
            parse_spec(text)
