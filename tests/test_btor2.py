"""btor2 parsing and translation to behavioral programs."""

import random

import pytest

from sketchmap.btor2 import (
    MissingInit, MultipleOutputs, ParseError, Unsupported, load_btor2,
    parse_btor2, to_prog,
)
from sketchmap.ir import BitVec, Reg, check_well_formed, free_vars
from sketchmap.primitives import lut_model
from util_interp import Stream, interp, simulate

AND_MODEL = """\
1 sort bitvec 1
2 input 1
3 input 1
4 and 1 2 3
5 output 4
"""


def _bv(v, w):
    return BitVec.of(v, w)


def _run1(m, assigns):
    env = {k: Stream((_bv(v, w),))
           for (k, w), v in zip(m.inputs, assigns)}
    return interp(m.semantics, env, 0, m.semantics.root).value


class TestParse:
    def test_and_example(self):
        lines = parse_btor2(AND_MODEL)
        assert len(lines) == 5
        assert [ln.kind for ln in lines] == \
            ["sort", "input", "input", "and", "output"]
        assert lines[3].args == (2, 3)

    def test_comments_and_symbols(self):
        lines = parse_btor2("; hi\n1 sort bitvec 8 ; w\n2 input 1 data\n"
                            "3 output 2\n")
        assert lines[1].symbol == "data"

    def test_undefined_reference(self):
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 1\n2 and 1 7 7\n")
        assert e.value.lineno == 2

    def test_ids_must_increase(self):
        with pytest.raises(ParseError):
            parse_btor2("2 sort bitvec 1\n1 input 2\n")

    def test_array_unsupported(self):
        with pytest.raises(Unsupported) as e:
            parse_btor2("1 sort bitvec 4\n2 sort array 1 1\n")
        assert e.value.kind == "array"

    def test_unknown_op_unsupported(self):
        with pytest.raises(Unsupported):
            parse_btor2("1 sort bitvec 4\n2 input 1\n3 udiv 1 2 2\n")

    def test_sort_as_operand_rejected(self):
        with pytest.raises(ParseError):
            parse_btor2("1 sort bitvec 1\n2 and 1 1 1\n")

    def test_operator_result_must_match_its_sort(self):
        # 8-bit operands, but the add declares the 4-bit sort 2
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 8\n2 sort bitvec 4\n3 input 1\n"
                        "4 input 1\n5 add 2 3 4\n6 output 5\n")
        assert e.value.lineno == 5
        assert "id 5" in str(e.value)
        assert "8 bits" in str(e.value) and "sort 2 has 4" in str(e.value)

    def test_slice_width_must_match_its_sort(self):
        # bits 3..0 are 4 bits, but the slice declares the 8-bit sort 1
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 8\n2 input 1\n3 input 1\n"
                        "4 slice 1 3 3 0\n5 output 4\n")
        assert e.value.lineno == 4
        assert "id 4" in str(e.value)
        assert "4 bits" in str(e.value) and "sort 1 has 8" in str(e.value)

    def test_init_width_must_match_its_sort(self):
        # an 8-bit 255 was cut to the 4-bit state's 15 without a word
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 4\n2 sort bitvec 8\n3 state 1\n"
                        "4 constd 2 255\n5 init 1 3 4\n")
        assert e.value.lineno == 5
        assert "8 bits" in str(e.value) and "sort 1 has 4" in str(e.value)

    def test_next_target_must_be_a_state(self):
        # a next on an input would import as a model with no register
        # that reads a as a free input
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 4\n2 input 1 a\n3 input 1 b\n"
                        "4 next 1 2 3\n5 output 2\n")
        assert e.value.lineno == 4
        assert "id 4" in str(e.value) and "target 2 is not a state" in \
            str(e.value)

    def test_init_target_must_be_a_state(self):
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 4\n2 input 1 a\n3 zero 1\n"
                        "4 init 1 2 3\n5 output 2\n")
        assert e.value.lineno == 4
        assert "id 4" in str(e.value) and "target 2 is not a state" in \
            str(e.value)

    def test_operand_widths_checked(self):
        with pytest.raises(ParseError) as e:
            parse_btor2("1 sort bitvec 8\n2 sort bitvec 4\n3 input 1\n"
                        "4 input 2\n5 add 1 3 4\n")
        assert e.value.lineno == 5 and "id 5" in str(e.value)


class TestTranslate:
    def test_and_semantics_exhaustive(self):
        m = to_prog(parse_btor2(AND_MODEL), "andgate")
        assert m.inputs == (("in2", 1), ("in3", 1))
        check_well_formed(m.semantics)
        for a in (0, 1):
            for b in (0, 1):
                assert _run1(m, (a, b)) == (a & b)

    def test_register_rule(self):
        text = """\
1 sort bitvec 4
2 input 1 d
3 state 1 q
4 constd 1 5
5 init 1 3 4
6 next 1 3 2
7 output 3
"""
        m = to_prog(parse_btor2(text))
        reg = [n for n in m.semantics.nodes.values()
               if isinstance(n, Reg)]
        assert len(reg) == 1 and reg[0].init == _bv(5, 4)
        env = {"d": Stream((_bv(9, 4), _bv(3, 4)))}
        out = simulate(m.semantics, env, 2)
        assert [v.value for v in out] == [5, 9]
        assert m.states[0][1] == "q"

    def test_missing_init(self):
        text = ("1 sort bitvec 1\n2 input 1\n3 state 1\n4 next 1 3 2\n"
                "5 output 3\n")
        with pytest.raises(MissingInit):
            to_prog(parse_btor2(text))

    def test_missing_next(self):
        text = ("1 sort bitvec 1\n2 input 1\n3 state 1\n4 init 1 3 2\n"
                "5 output 3\n")
        with pytest.raises(MissingInit):
            to_prog(parse_btor2("1 sort bitvec 1\n2 input 1\n"
                                "3 state 1\n4 zero 1\n5 init 1 3 4\n"
                                "6 output 3\n"))
        with pytest.raises(MissingInit):
            # init referencing a non-constant
            to_prog(parse_btor2(text))

    def test_multiple_outputs(self):
        text = ("1 sort bitvec 1\n2 input 1\n3 output 2\n4 output 2\n")
        with pytest.raises(MultipleOutputs):
            to_prog(parse_btor2(text))
        with pytest.raises(MultipleOutputs):
            to_prog(parse_btor2("1 sort bitvec 1\n2 input 1\n"))

    def test_negated_operand(self):
        text = ("1 sort bitvec 1\n2 input 1 a\n3 input 1 b\n"
                "4 and 1 2 -3\n5 output 4\n")
        m = to_prog(parse_btor2(text))
        for a in (0, 1):
            for b in (0, 1):
                assert _run1(m, (a, b)) == (a & (1 - b))

    def test_operator_zoo(self):
        text = """\
1 sort bitvec 4
2 sort bitvec 1
3 input 1 a
4 input 1 b
5 constd 1 10
6 neq 2 3 4
7 slte 2 3 4
8 ite 1 6 3 5
9 sub 1 8 4
10 sra 1 9 4
11 redor 2 10
12 uext 1 11 3
13 add 1 12 8
14 output 13
"""
        m = to_prog(parse_btor2(text))
        check_well_formed(m.semantics)

        def oracle(a, b):
            def sgn(x):
                return x - 16 if x >= 8 else x
            t8 = a if a != b else 10
            t9 = (t8 - b) % 16
            sh = min(b, 4)
            t10 = (sgn(t9) >> sh) % 16 if b < 4 else \
                (15 if t9 >= 8 else 0)
            t12 = 1 if t10 != 0 else 0
            return (t12 + t8) % 16

        for a in range(16):
            for b in range(16):
                assert _run1(m, (a, b)) == oracle(a, b), (a, b)

    def test_constant_spellings(self):
        text = """\
1 sort bitvec 8
2 consth 1 ff
3 const 1 00001111
4 constd 1 -1
5 ones 1
6 one 1
7 zero 1
8 and 1 2 3
9 output 8
"""
        m = to_prog(parse_btor2(text))
        assert _run1(m, ()) == 0x0F


class TestLut4File:
    def test_matches_builtin_model(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "src",
                            "sketchmap", "archfiles", "frac_lut4.btor2")
        m = load_btor2(path)
        assert m.name == "frac_lut4"
        assert dict(m.inputs) == {"in": 4, "mode": 1, "sram": 16}
        builtin = lut_model(4)
        rng = random.Random(71)
        for _ in range(10_000):
            sram = rng.getrandbits(16)
            pat = rng.getrandbits(4)
            env = {"in": Stream((_bv(pat, 4),)),
                   "mode": Stream((_bv(0, 1),)),
                   "sram": Stream((_bv(sram, 16),))}
            got = interp(m.semantics, env, 0, m.semantics.root).value
            benv = {"sram": Stream((_bv(sram, 16),))}
            for i in range(4):
                benv[f"I{i}"] = Stream((_bv((pat >> i) & 1, 1),))
            want = interp(builtin.semantics, benv, 0,
                          builtin.semantics.root).value
            assert got == want == (sram >> pat) & 1

    def test_unused_input_is_still_free(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "src",
                            "sketchmap", "archfiles", "frac_lut4.btor2")
        m = load_btor2(path)
        assert "mode" in free_vars(m.semantics)
