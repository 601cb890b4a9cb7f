"""SMT-LIB rendering and solver-output parsing."""

import pytest

from sketchmap.ir import BitVec, Operator, SketchmapError
from sketchmap.smtlib import emit_smtlib, parse_solver_output, symbol_name
from sketchmap.terms import TermBuilder


def _simple_assert():
    tb = TermBuilder()
    a = tb.input("a", 0, 4)
    b = tb.input("b", 1, 4)
    s = tb.app(Operator("add"), [a, b])
    eq = tb.app(Operator("eq"), [s, tb.const_of(9, 4)])
    return tb, a, b, eq


class TestEmission:
    def test_structure(self):
        tb, a, b, eq = _simple_assert()
        text, names = emit_smtlib([eq], [], [a, b])
        assert text.startswith("(set-option :produce-models true)\n"
                               "(set-logic QF_BV)\n")
        assert "(declare-const in_a_t0 (_ BitVec 4))" in text
        assert "(declare-const in_b_t1 (_ BitVec 4))" in text
        assert "bvadd" in text
        assert ":named a0" in text
        assert text.rstrip().endswith("(exit)")
        assert "(check-sat)" in text
        assert "(get-value (in_a_t0 in_b_t1))" in text
        assert set(names) == {"in_a_t0", "in_b_t1"}

    def test_byte_determinism(self):
        texts = set()
        for _ in range(3):
            tb, a, b, eq = _simple_assert()
            texts.add(emit_smtlib([eq], [], [a, b])[0])
        assert len(texts) == 1

    def test_comparisons_become_bit(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        lt = tb.app(Operator("ult"), [a, tb.const_of(3, 4)])
        text, _ = emit_smtlib([lt], [], [])
        assert "(ite (bvult" in text and "#b1 #b0" in text

    def test_hole_names(self):
        tb = TermBuilder()
        h = tb.hole("m", 4)
        assert symbol_name(h) == "hole_m"
        eq = tb.app(Operator("eq"), [h, tb.const_of(6, 4)])
        text, _ = emit_smtlib([eq], [h], [h])
        assert "(declare-const hole_m (_ BitVec 4))" in text

    def test_wide_asserts_rejected(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        with pytest.raises(SketchmapError):
            emit_smtlib([a], [], [])

    def test_shared_subterm_emitted_once(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 8)
        sq = tb.app(Operator("mul"), [a, a])
        e1 = tb.app(Operator("eq"), [sq, tb.const_of(4, 8)])
        e2 = tb.app(Operator("ult"), [sq, tb.const_of(100, 8)])
        text, _ = emit_smtlib([e1, e2], [], [])
        assert text.count("bvmul") == 1

    def test_deep_chain(self):
        # 5000 nested adds: each is defined after its operand, in order
        tb = TermBuilder()
        a = tb.input("a", 0, 8)
        b = tb.input("b", 0, 8)
        t = a
        for _ in range(5000):
            t = tb.app(Operator("add"), [t, b])
        eq = tb.app(Operator("eq"), [t, tb.const_of(0, 8)])
        text, _ = emit_smtlib([eq], [], [])
        lines = text.splitlines()
        defs = [ln for ln in lines if ln.startswith("(define-fun")]
        assert defs[0] == ("(define-fun t0 () (_ BitVec 8) "
                           "(bvadd in_a_t0 in_b_t0))")
        assert defs[1:5000] == [
            f"(define-fun t{k} () (_ BitVec 8) (bvadd t{k - 1} in_b_t0))"
            for k in range(1, 5000)]
        assert defs[5000:] == ["(define-fun t5000 () (_ BitVec 1) "
                               "(ite (= t4999 #b00000000) #b1 #b0))"]
        assert "(assert (! (= t5000 #b1) :named a0))" in lines

    def test_declares_exactly_the_reached_and_requested_symbols(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        h = tb.hole("h", 4)
        g = tb.hole("g", 2)
        c = tb.input("c", 3, 1)
        unused = tb.input("z", 0, 4)    # exists, but nothing reaches it
        e1 = tb.app(Operator("eq"), [tb.app(Operator("add"), [a, h]),
                                      tb.const_of(1, 4)])
        e2 = tb.app(Operator("ult"), [h, a])
        text, names = emit_smtlib([e1, e2], [g], [c, a])
        declared = [ln.split()[1] for ln in text.splitlines()
                    if ln.startswith("(declare-const")]
        assert declared == ["hole_g", "hole_h", "in_a_t0", "in_c_t3"]
        assert names == {"hole_g": g, "hole_h": h, "in_a_t0": a,
                         "in_c_t3": c}
        assert symbol_name(unused) not in text

    @pytest.mark.parametrize("where", ["asserts", "declare", "get_values"])
    def test_symbol_name_collision_rejected(self, where):
        tb = TermBuilder()
        x = tb.input("a.b", 0, 4)
        y = tb.input("a_b", 0, 4)        # both are named in_a_b_t0
        e = tb.app(Operator("eq"), [x, tb.const_of(0, 4)])
        other = tb.app(Operator("eq"), [y, tb.const_of(0, 4)])
        args = {"asserts": ([e, other], [], []),
                "declare": ([e], [y], []),
                "get_values": ([e], [], [y])}[where]
        with pytest.raises(SketchmapError, match="collision"):
            emit_smtlib(*args)


class TestOutputParsing:
    def test_sat_with_model(self):
        status, model = parse_solver_output(
            "sat\n((in_a_t0 #b0110) (hole_m #x2a))\n")
        assert status == "sat"
        assert model["in_a_t0"] == BitVec(4, 6)
        assert model["hole_m"] == BitVec(8, 0x2A)

    def test_unsat(self):
        assert parse_solver_output("unsat\n") == ("unsat", {})

    def test_decimal_triples(self):
        status, model = parse_solver_output("sat\n((x (_ bv9 4)))\n")
        assert model["x"] == BitVec(4, 9)

    def test_garbage_raises(self):
        with pytest.raises(SketchmapError):
            parse_solver_output("sat\n((x #b01")

    @pytest.mark.parametrize("value", ["#b", "#b12", "#xZZ", "(_ bvx 4)",
                                       "(_ bv1 0)"])
    def test_bad_model_values_raise(self, value):
        # read by the solver's own literal reader, which rejects them
        with pytest.raises(SketchmapError, match="unparseable"):
            parse_solver_output(f"sat\n((x {value}))\n")

    def test_bool_values(self):
        status, model = parse_solver_output("sat\n((p true) (q false))\n")
        assert model == {"p": BitVec(1, 1), "q": BitVec(1, 0)}

    def test_roundtrip_through_builtin_solver(self):
        from util_solver import run_script
        tb, a, b, eq = _simple_assert()
        text, names = emit_smtlib([eq], [], [a, b])
        status, model = parse_solver_output(run_script(text))
        assert status == "sat"
        got = (model["in_a_t0"].value + model["in_b_t1"].value) % 16
        assert got == 9
