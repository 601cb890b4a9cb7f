"""Core representation: queries, well-formedness, substitution, dumps."""

import random

import pytest

from sketchmap.ir import (
    BV, BitVec, DomainError, EmitMeta, Hole,
    MissingAssignment, Op, Operator, Prim, Prog, ProgBuilder,
    Reg, Sketch, Var, WellFormednessError, WidthError, check_well_formed,
    dump_sexpr, inputs, is_behavioral, node_widths,
    op_result_width, structural_violations,
    substitute_holes, var_widths,
)
from util_interp import env_of_ints, simulate
from util_progs import (random_behavioral, random_unchecked, verify_witness,
                        witness_exists_bruteforce)


def _lut_meta(name="lut4"):
    return EmitMeta(
        module_name=name,
        ports=("in",),
        parameter_bindings=(("sram", BitVec.of(6, 16)),),
        outputs=(("out", 0, 0),),
    )


def test_bitvec_invariants():
    assert BitVec(4, 15).value == 15
    assert BitVec.of(16, 4).value == 0
    assert BitVec.of(-1, 4).value == 15
    with pytest.raises(ValueError):
        BitVec(4, 16)
    with pytest.raises(WidthError):
        BitVec(0, 0)


def test_op_result_width_rules():
    assert op_result_width(Operator("add"), [8, 8]) == 8
    assert op_result_width(Operator("mul"), [8, 8]) == 8
    assert op_result_width(Operator("eq"), [8, 8]) == 1
    assert op_result_width(Operator("concat"), [3, 5]) == 8
    assert op_result_width(Operator("extract", (6, 2)), [8]) == 5
    assert op_result_width(Operator("zero_extend", (4,)), [8]) == 12
    assert op_result_width(Operator("mux"), [1, 8, 8]) == 8
    assert op_result_width(Operator("reduce_or"), [8]) == 1
    with pytest.raises(WidthError):
        op_result_width(Operator("add"), [8, 4])
    with pytest.raises(WidthError):
        op_result_width(Operator("mux"), [2, 8, 8])
    with pytest.raises(WidthError):
        op_result_width(Operator("extract", (8, 0)), [8])


def test_inputs_per_variant():
    assert inputs(BV(BitVec.of(3, 4))) == frozenset()
    assert inputs(Var("a", 4)) == frozenset()
    assert inputs(Op(Operator("add"), (1, 2))) == frozenset({1, 2})
    assert inputs(Reg(5, BitVec.of(0, 4))) == frozenset()
    assert inputs(Hole("h", 4)) == frozenset()
    body = Prog(10, {10: Var("x", 4)})
    pr = Prim((("x", 3),), body, _lut_meta())
    assert inputs(pr) == frozenset({3})


def test_var_widths_skips_prim_bodies():
    # A body variable is not free in the outer program.
    b = ProgBuilder()
    a = b.var("a", 1)
    body_b = b.child()
    x = body_b.var("x", 1)
    body = body_b.prog(x)
    meta = EmitMeta("buf", ("x",), (), (("o", 0, 0),))
    p_id = b.add(Prim((("x", a),), body, meta))
    p = b.prog(p_id)
    assert set(var_widths(p)) == {"a"}
    assert set(var_widths(body)) == {"x"}


def test_register_self_loop_is_fine():
    # reg feeding itself: witness level 0, well-formed.
    p = Prog(1, {1: Reg(1, BitVec.of(1, 1))})
    w = check_well_formed(p)
    assert w[1] == 0
    assert verify_witness(p, w)


def test_combinational_self_loop_rejected():
    p = Prog(1, {1: Op(Operator("not"), (1,))})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W6"


def test_two_node_comb_cycle_rejected():
    p = Prog(1, {1: Op(Operator("not"), (2,)), 2: Op(Operator("not"), (1,))})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W6"


def test_cycle_through_register_is_fine():
    # counter: r = reg(r + 1)
    p = Prog(3, {
        1: Reg(3, BitVec.of(0, 4)),
        2: BV(BitVec.of(1, 4)),
        3: Op(Operator("add"), (1, 2)),
    })
    w = check_well_formed(p)
    assert w[1] == 0 and w[3] > w[1] and w[3] > w[2]


def test_missing_root_is_w1():
    p = Prog(9, {1: Var("a", 1)})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W1"


def test_dangling_arg_is_w3():
    p = Prog(1, {1: Op(Operator("not"), (2,))})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W3"


def test_duplicate_ids_across_body_is_w2():
    body = Prog(1, {1: Var("x", 1)})  # id 1 collides with outer
    meta = EmitMeta("buf", ("x",), (), (("o", 0, 0),))
    p = Prog(2, {1: Var("a", 1), 2: Prim((("x", 1),), body, meta)})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W2"


def test_bind_mismatch_is_w5():
    b = ProgBuilder()
    a = b.var("a", 1)
    bb = b.child()
    x = bb.var("x", 1)
    body = bb.prog(x)
    meta = EmitMeta("buf", ("x",), (), (("o", 0, 0),))
    p_id = b.add(Prim((("x", a), ("y", a)), body, meta))
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(b.prog(p_id))
    assert e.value.kind == "W5"

    b2 = ProgBuilder()
    a2 = b2.var("a", 1)
    bb2 = b2.child()
    x2 = bb2.var("x", 1)
    body2 = bb2.prog(x2)
    p2 = b2.add(Prim((), body2, meta))
    with pytest.raises(WellFormednessError) as e2:
        check_well_formed(b2.prog(p2))
    assert e2.value.kind == "W5"


def test_reg_init_width_mismatch_is_width_error():
    p = Prog(2, {1: Var("a", 4), 2: Reg(1, BitVec.of(0, 5))})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "width"


def test_one_input_at_two_widths_is_width_error():
    p = Prog(3, {1: Var("a", 4), 2: Var("a", 8), 3: Op(Operator("concat"),
                                                      (1, 2))})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "width"
    with pytest.raises(WellFormednessError):
        simulate(p, env_of_ints({"a": ([255], 8)}), 1)


def test_prim_bind_width_mismatch():
    b = ProgBuilder()
    a = b.var("a", 2)
    bb = b.child()
    x = bb.var("x", 1)
    body = bb.prog(x)
    meta = EmitMeta("buf", ("x",), (), (("o", 0, 0),))
    p_id = b.add(Prim((("x", a),), body, meta))
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(b.prog(p_id))
    assert e.value.kind == "width"


def test_witness_orders_prim_above_body_and_binds_below_vars():
    b = ProgBuilder()
    a = b.var("a", 1)
    c = b.var("c", 1)
    x_outer = b.op("and", a, c)
    bb = b.child()
    x = bb.var("x", 1)
    inv = bb.op("not", x)
    body = bb.prog(inv)
    meta = EmitMeta("inv", ("x",), (), (("o", 0, 0),))
    p_id = b.add(Prim((("x", x_outer),), body, meta))
    p = b.prog(p_id)
    w = check_well_formed(p)
    assert w[p_id] > w[inv] > w[x] > w[x_outer] > w[a]
    assert verify_witness(p, w)


def test_node_widths_cover_bodies():
    b = ProgBuilder()
    a = b.var("a", 3)
    bb = b.child()
    x = bb.var("x", 3)
    y = bb.op("not", x)
    body = bb.prog(y)
    meta = EmitMeta("inv", ("x",), (), (("o", 2, 0),))
    p_id = b.add(Prim((("x", a),), body, meta))
    widths = node_widths(b.prog(p_id))
    assert widths == {a: 3, x: 3, y: 3, p_id: 3}


def test_behavioral_and_structural_predicates():
    p = Prog(1, {1: Reg(1, BitVec.of(0, 1))})
    assert is_behavioral(p)
    assert structural_violations(p)  # Reg at top level
    q = Prog(1, {1: Var("a", 4), 2: Op(Operator("extract", (1, 0)), (1,))})
    assert not structural_violations(Prog(2, q.nodes))
    r = Prog(2, {1: Var("a", 4), 2: Op(Operator("add"), (1, 1))})
    assert structural_violations(r)


def test_substitute_constant_hole():
    b = ProgBuilder()
    h = b.hole("m", 4)
    s = Sketch(b.prog(h))
    assert s.holes == {"m": 4}
    out = substitute_holes(s, {"m": BV(BitVec.of(9, 4))})
    assert out.nodes[h] == BV(BitVec.of(9, 4))
    with pytest.raises(MissingAssignment):
        substitute_holes(s, {})
    with pytest.raises(DomainError):
        substitute_holes(s, {"m": BV(BitVec.of(1, 5))})
    with pytest.raises(DomainError):
        substitute_holes(s, {"m": Var("a", 4)})


def test_hole_table_is_read_off_the_program():
    b = ProgBuilder()
    m = b.hole("m", 4)
    k = b.hole("k", 1)
    again = b.hole("m", 4)      # one label may appear twice at one width
    s = Sketch(b.prog(b.concat(b.concat(m, k), again)))
    assert s.holes == {"m": 4, "k": 1}
    b = ProgBuilder()
    p = b.prog(b.concat(b.hole("m", 4), b.hole("m", 2)))
    with pytest.raises(WidthError, match="hole 'm' declared at widths 4 "
                                         "and 2"):
        Sketch(p).holes


def test_substitution_preserves_well_formedness_randomly():
    rng = random.Random(7)
    for _ in range(50):
        b = ProgBuilder()
        a = b.var("a", 3)
        c = b.bv(rng.getrandbits(3), 3)
        h = b.hole("m", 3)
        r = b.op("xor", b.op("add", a, h), c)
        s = Sketch(b.prog(r))
        out = substitute_holes(s, {"m": BV(BitVec.of(rng.getrandbits(3), 3))})
        check_well_formed(out)


def test_witness_bruteforce_agreement_small():
    rng = random.Random(11)
    agree = 0
    for _ in range(120):
        p = random_unchecked(rng, max_nodes=4)
        try:
            w = check_well_formed(p)
            checker = True
        except WellFormednessError as e:
            checker = e.kind
        if checker is True:
            assert verify_witness(p, w)
            assert witness_exists_bruteforce(p)
            agree += 1
        elif checker == "W6":
            assert not witness_exists_bruteforce(p)
    assert agree >= 5  # the generator does produce valid programs


def test_random_behavioral_programs_are_well_formed():
    rng = random.Random(3)
    for _ in range(100):
        p = random_behavioral(rng)
        w = check_well_formed(p)
        assert verify_witness(p, w)


def test_dump_sexpr_stable_and_ordered():
    b = ProgBuilder()
    a = b.var("a", 4)
    k = b.bv(3, 4)
    r = b.op("add", a, k)
    p = b.prog(r)
    text = dump_sexpr(p)
    assert text == dump_sexpr(p)
    assert "(node 1 (var a 4))" in text
    assert "(node 2 (bv 3 4))" in text
    assert "(node 3 (op add 1 2))" in text
    assert text.index("node 1") < text.index("node 2") < text.index("node 3")


def test_dump_sexpr_covers_every_variant():
    b = ProgBuilder()
    a = b.var("a", 2)
    r = b.reg(a, BitVec.of(1, 2))
    e = b.extract(1, 1, r)
    h = b.hole("m", 2)
    bb = b.child()
    x = bb.var("x", 2)
    body = bb.prog(x)
    meta = EmitMeta("buf", ("x",), (), (("o", 1, 0),))
    pr = b.add(Prim((("x", a),), body, meta))
    out = b.op("concat", e, h)
    text = dump_sexpr(Prog(out, b.nodes))
    for frag in ["(reg", "(hole m (constant 2))", "(prim buf", "extract 1 1"]:
        assert frag in text


# -- shared bodies at id offsets ----------------------------------------------


def _inverter():
    """One body for every instance below: x at 0, not x at 1."""
    return Prog(1, {0: Var("x", 2), 1: Op(Operator("not"), (0,))})


def _inv_meta():
    return EmitMeta("inv", ("x",), (), (("o", 1, 0),))


def test_prims_sharing_one_body_at_disjoint_bases_are_well_formed():
    body = _inverter()
    p = Prog(3, {1: Var("a", 2),
                 2: Prim((("x", 1),), body, _inv_meta(), base=10),
                 3: Prim((("x", 2),), body, _inv_meta(), base=20)})
    w = check_well_formed(p)
    assert verify_witness(p, w)
    assert w[3] > w[21] > w[20] > w[2] > w[11] > w[10] > w[1]
    assert node_widths(p) == {1: 2, 2: 2, 3: 2, 10: 2, 11: 2, 20: 2, 21: 2}
    text = dump_sexpr(p)
    assert "(node 11 (op not 10))" in text
    assert "(node 21 (op not 20))" in text
    assert "(root 21)" in text
    out = simulate(p, env_of_ints({"a": ([0, 1, 2, 3], 2)}), 4)
    assert [v.value for v in out] == [0, 1, 2, 3]


def test_overlapping_instance_ranges_are_w2():
    body = _inverter()
    p = Prog(3, {1: Var("a", 2),
                 2: Prim((("x", 1),), body, _inv_meta(), base=10),
                 3: Prim((("x", 2),), body, _inv_meta(), base=11)})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W2" and e.value.ids == (11,)


def test_instance_range_over_a_top_level_id_is_w2():
    # body ids 0 and 1 at base 2 stand at 2 and 3, and 3 is the Prim's own
    p = Prog(3, {1: Var("a", 2),
                 3: Prim((("x", 1),), _inverter(), _inv_meta(), base=2)})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W2" and e.value.ids == (3,)


def test_nested_bodies_compose_offsets():
    # the middle body holds the inverter at base 5; the top holds the
    # middle body at base 100, so the inverter's nodes stand at 105, 106
    middle = Prog(1, {0: Var("y", 2),
                      1: Prim((("x", 0),), _inverter(), _inv_meta(), base=5)})
    meta = EmitMeta("wrap", ("y",), (), (("o", 1, 0),))
    p = Prog(2, {1: Var("a", 2), 2: Prim((("y", 1),), middle, meta, base=100)})
    assert set(node_widths(p)) == {1, 2, 100, 101, 105, 106}
    text = dump_sexpr(p)
    assert "(node 106 (op not 105))" in text
    assert "(binds (x 100))" in text
    w = check_well_formed(p)
    assert verify_witness(p, w)
    assert w[2] > w[101] > w[106] > w[105] > w[100] > w[1]
    out = simulate(p, env_of_ints({"a": ([1, 2], 2)}), 2)
    assert [v.value for v in out] == [2, 1]
    # the same nesting at base 0 puts the inverter over the middle's ids
    clash = Prog(1, {0: Var("y", 2),
                     1: Prim((("x", 0),), _inverter(), _inv_meta())})
    p = Prog(2, {1: Var("a", 2), 2: Prim((("y", 1),), clash, meta, base=100)})
    with pytest.raises(WellFormednessError) as e:
        check_well_formed(p)
    assert e.value.kind == "W2" and e.value.ids == (100,)
