"""Concrete interpreter: operator semantics, registers, prims, memo."""

import ast
import random
import re

import pytest

from sketchmap import interp as interp_module
from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.bench import _document_text, corpus_benchmarks
from sketchmap.cegis import Success, synthesize
from sketchmap.interp import HorizonExceeded, compile_program, plan_program
from sketchmap.ir import (
    BV, BitVec, DomainError, EmitMeta, Hole, MissingAssignment, Operator,
    Prim, Prog, ProgBuilder, Reg, Sketch, SketchmapError, Var,
    substitute_holes,
)
from sketchmap.portfolio import SolverSession
from sketchmap.sketches import document_params, generate_sketch
from sketchmap.specdsl import parse_document
from util_interp import (
    env_of_ints, eval_op, interp, interp_naive, simulate, stream_of_ints,
    trace_lines,
)
from util_progs import random_behavioral, record_calls


def _bv(v, w):
    return BitVec.of(v, w)


def test_eval_op_arith():
    assert eval_op(Operator("add"), [_bv(12, 4), _bv(7, 4)]) == _bv(3, 4)
    assert eval_op(Operator("sub"), [_bv(3, 4), _bv(7, 4)]) == _bv(12, 4)
    # mul truncates to the operand width
    assert eval_op(Operator("mul"), [_bv(7, 4), _bv(7, 4)]) == _bv(1, 4)
    assert eval_op(Operator("neg"), [_bv(0, 4)]) == _bv(0, 4)
    assert eval_op(Operator("neg"), [_bv(5, 4)]) == _bv(11, 4)
    assert eval_op(Operator("not"), [_bv(0b1010, 4)]) == _bv(0b0101, 4)


def test_eval_op_shifts():
    assert eval_op(Operator("shl"), [_bv(0b0011, 4), _bv(2, 4)]) == _bv(0b1100, 4)
    assert eval_op(Operator("lshr"), [_bv(0b1100, 4), _bv(2, 4)]) == _bv(0b0011, 4)
    # shift amounts >= width flush to zero / sign
    assert eval_op(Operator("shl"), [_bv(1, 4), _bv(4, 4)]) == _bv(0, 4)
    assert eval_op(Operator("lshr"), [_bv(15, 4), _bv(9, 4)]) == _bv(0, 4)
    assert eval_op(Operator("ashr"), [_bv(0b1000, 4), _bv(2, 4)]) == _bv(0b1110, 4)
    assert eval_op(Operator("ashr"), [_bv(0b1000, 4), _bv(7, 4)]) == _bv(0b1111, 4)
    assert eval_op(Operator("ashr"), [_bv(0b0100, 4), _bv(7, 4)]) == _bv(0, 4)


def test_eval_op_compare_and_mux():
    assert eval_op(Operator("eq"), [_bv(5, 4), _bv(5, 4)]) == _bv(1, 1)
    assert eval_op(Operator("ult"), [_bv(2, 4), _bv(9, 4)]) == _bv(1, 1)
    # signed: 9 is -7 at width 4
    assert eval_op(Operator("slt"), [_bv(9, 4), _bv(2, 4)]) == _bv(1, 1)
    assert eval_op(Operator("sle"), [_bv(9, 4), _bv(9, 4)]) == _bv(1, 1)
    assert eval_op(Operator("ule"), [_bv(9, 4), _bv(2, 4)]) == _bv(0, 1)
    assert eval_op(Operator("mux"), [_bv(1, 1), _bv(3, 4), _bv(9, 4)]) == _bv(3, 4)
    assert eval_op(Operator("mux"), [_bv(0, 1), _bv(3, 4), _bv(9, 4)]) == _bv(9, 4)


def test_eval_op_wiring():
    assert eval_op(Operator("concat"), [_bv(0b10, 2), _bv(0b011, 3)]) == _bv(0b10011, 5)
    assert eval_op(Operator("extract", (3, 1)), [_bv(0b10110, 5)]) == _bv(0b011, 3)
    assert eval_op(Operator("extract", (0, 0)), [_bv(0b1, 1)]) == _bv(1, 1)
    assert eval_op(Operator("zero_extend", (3,)), [_bv(0b101, 3)]) == _bv(0b101, 6)
    assert eval_op(Operator("sign_extend", (3,)), [_bv(0b101, 3)]) == _bv(0b111101, 6)
    assert eval_op(Operator("sign_extend", (3,)), [_bv(0b001, 3)]) == _bv(0b001, 6)
    assert eval_op(Operator("zero_extend", (0,)), [_bv(0b101, 3)]) == _bv(0b101, 3)


def test_eval_op_reductions():
    assert eval_op(Operator("reduce_or"), [_bv(0, 4)]) == _bv(0, 1)
    assert eval_op(Operator("reduce_or"), [_bv(2, 4)]) == _bv(1, 1)
    assert eval_op(Operator("reduce_and"), [_bv(15, 4)]) == _bv(1, 1)
    assert eval_op(Operator("reduce_and"), [_bv(14, 4)]) == _bv(0, 1)


def test_register_init_then_data():
    b = ProgBuilder()
    a = b.var("a", 4)
    r = b.reg(a, _bv(5, 4))
    p = b.prog(r)
    env = env_of_ints({"a": ([7, 9, 2], 4)})
    assert interp(p, env, 0, r) == _bv(5, 4)
    assert interp(p, env, 1, r) == _bv(7, 4)
    assert interp(p, env, 2, r) == _bv(9, 4)


def test_pipelined_and():
    # out = reg(a & c): trace shifted one cycle, init 0.
    b = ProgBuilder()
    a = b.var("a", 1)
    c = b.var("c", 1)
    g = b.op("and", a, c)
    r = b.reg(g, _bv(0, 1))
    p = b.prog(r)
    env = env_of_ints({"a": ([1, 1, 0, 1], 1), "c": ([1, 0, 1, 1], 1)})
    vals = simulate(p, env, 4)
    assert [v.value for v in vals] == [0, 1, 0, 0]


def test_counter():
    b = ProgBuilder()
    one = b.bv(1, 8)
    r_id = b.fresh()
    add = b.op("add", r_id, one)
    b.nodes[r_id] = Reg(add, _bv(0, 8))
    p = Prog(r_id, b.nodes)
    vals = simulate(p, {}, 5)
    assert [v.value for v in vals] == [0, 1, 2, 3, 4]


def test_prim_body_evaluates_under_binds():
    b = ProgBuilder()
    a = b.var("a", 4)
    c = b.var("c", 4)
    s = b.op("add", a, c)
    bb = b.child()
    x = bb.var("x", 4)
    y = bb.op("not", x)
    body = bb.prog(y)
    meta = EmitMeta("inv4", ("x",), (), (("o", 3, 0),))
    pr = b.add(Prim((("x", s),), body, meta))
    p = b.prog(pr)
    env = env_of_ints({"a": ([3], 4), "c": ([4], 4)})
    assert interp(p, env, 0, pr) == _bv(8, 4)  # ~(3+4) = ~7 = 8


def test_prim_with_register_inside():
    b = ProgBuilder()
    a = b.var("a", 4)
    bb = b.child()
    x = bb.var("x", 4)
    r = bb.reg(x, _bv(3, 4))
    body = bb.prog(r)
    meta = EmitMeta("dff", ("x",), (), (("q", 3, 0),))
    pr = b.add(Prim((("x", a),), body, meta))
    p = b.prog(pr)
    env = env_of_ints({"a": ([8, 9, 10], 4)})
    vals = simulate(p, env, 3)
    assert [v.value for v in vals] == [3, 8, 9]


def test_time_locality_same_inputs_same_output():
    # Combinational op at cycle t only sees cycle-t inputs.
    b = ProgBuilder()
    a = b.var("a", 4)
    c = b.var("c", 4)
    m = b.op("mul", a, c)
    p = b.prog(m)
    e1 = env_of_ints({"a": ([2, 5], 4), "c": ([3, 5], 4)})
    e2 = env_of_ints({"a": ([9, 5], 4), "c": ([9, 5], 4)})
    assert interp(p, e1, 1, m) == interp(p, e2, 1, m)


def test_reg_init_dominates_cycle_zero():
    b = ProgBuilder()
    a = b.var("a", 4)
    r = b.reg(a, _bv(9, 4))
    p = b.prog(r)
    for v in (0, 7, 15):
        env = env_of_ints({"a": ([v], 4)})
        assert interp(p, env, 0, r) == _bv(9, 4)


def test_horizon_errors():
    b = ProgBuilder()
    a = b.var("a", 4)
    p = b.prog(a)
    env = env_of_ints({"a": ([1, 2], 4)})
    with pytest.raises(HorizonExceeded):
        interp(p, env, 2, a)
    with pytest.raises(HorizonExceeded):
        simulate(p, env, 3)
    assert len(simulate(p, env, 2)) == 2
    with pytest.raises(HorizonExceeded):
        simulate(compile_program(plan_program(p)), {"a": [1, 2]}, 3)


def test_missing_or_narrow_input_rejected():
    b = ProgBuilder()
    a = b.var("a", 4)
    p = b.prog(a)
    with pytest.raises(Exception):
        interp(p, {}, 0, a)
    with pytest.raises(Exception):
        interp(p, env_of_ints({"a": ([1], 3)}), 0, a)
    c = compile_program(plan_program(p))
    with pytest.raises(SketchmapError, match="missing input 'a'"):
        simulate(c, {}, 1)
    with pytest.raises(SketchmapError, match="outside 4 bits"):
        simulate(c, {"a": [16]}, 1)
    with pytest.raises(SketchmapError, match="outside 4 bits"):
        simulate(c, {"a": [-1]}, 1)


def test_holes_are_rejected():
    b = ProgBuilder()
    h = b.hole("m", 4)
    with pytest.raises(SketchmapError, match="unbound holes m"):
        interp(b.prog(h), {}, 0, h)


def test_unbound_compiled_does_not_run():
    b = ProgBuilder()
    a = b.var("a", 4)
    c = compile_program(plan_program(b.prog(b.op("xor", a, b.hole("m", 4)))))
    assert c.holes == (("m", 4),)
    with pytest.raises(SketchmapError, match="unbound holes m"):
        simulate(c, {"a": [1]}, 1)
    bound = c.bind({"m": _bv(6, 4)})
    assert bound.holes == ()
    assert simulate(bound, {"a": [1, 2]}, 2) == [7, 4]
    with pytest.raises(MissingAssignment):
        c.bind({})
    with pytest.raises(DomainError):
        c.bind({"m": _bv(6, 3)})


def _with_holes(rng: random.Random, p: Prog) -> Sketch:
    """p with about half its constant and input leaves turned into holes
    of the same width; two holes of one width may share a label."""
    nodes = dict(p.nodes)
    for i, n in p.nodes.items():
        if isinstance(n, (BV, Var)) and rng.random() < 0.5:
            w = n.b.width if isinstance(n, BV) else n.width
            nodes[i] = Hole(f"h{w}_{rng.randrange(2)}", w)
    return Sketch(Prog(p.root, nodes))


def _assert_bind_matches_substitution(rng: random.Random, sketch: Sketch,
                                      draws: int, horizon: int) -> None:
    """compile_program(plan_program(psi)).bind(v) against the compiled
    program substitute_holes makes with v, on every cycle of random
    input streams, for draws random hole assignments v."""
    compiled = compile_program(plan_program(sketch.psi))
    assert compiled.holes == tuple(sketch.holes.items())
    for _ in range(draws):
        values = {label: _bv(rng.getrandbits(w), w)
                  for label, w in sketch.holes.items()}
        got = compiled.bind(values)
        want = compile_program(plan_program(substitute_holes(
            sketch, {label: BV(v) for label, v in values.items()})))
        assert got.inputs == want.inputs and got.width == want.width
        env = {name: [rng.getrandbits(w) for _ in range(horizon)]
               for name, w in want.inputs}
        assert simulate(got, env, horizon) == simulate(want, env, horizon)


def test_bound_sketch_matches_substituted_program_randomly():
    rng = random.Random(16)
    with_holes = 0
    for _ in range(600):
        sketch = _with_holes(rng, random_behavioral(rng, max_nodes=12,
                                                    max_width=6))
        with_holes += bool(sketch.holes)
        _assert_bind_matches_substitution(rng, sketch, draws=3, horizon=5)
    assert with_holes > 400


@pytest.mark.parametrize("template,arch,params", [
    ("bitwise", "sofa.yml", {"width": 2, "inputs": ("a", "b", "c")}),
    ("bitwise-with-carry", "generic-lut-carry.yml", {"width": 4}),
    ("dsp", "minidsp.yml", {"width": 8, "inputs": ("a", "b", "c", "d"),
                            "pipeline_depth": 2}),
])
def test_bound_template_sketch_matches_substituted_program(template, arch,
                                                           params):
    sketch = generate_sketch(template, load_arch(packaged_arch_path(arch)),
                             params)
    assert sketch.holes
    _assert_bind_matches_substitution(random.Random(7), sketch, draws=8,
                                      horizon=6)


def test_memoization_transparent_on_random_programs():
    # the compiled form, run once over every cycle, against the recursive
    # definition at each cycle
    rng = random.Random(23)
    horizon = 5
    with_regs = 0
    for _ in range(3000):
        p = random_behavioral(rng, max_nodes=12, max_width=6)
        with_regs += any(isinstance(n, Reg) for n in p.nodes.values())
        c = compile_program(plan_program(p))
        ints = {name: [rng.getrandbits(w) for _ in range(horizon)]
                for name, w in c.inputs}
        env = {name: stream_of_ints(vs, w)
               for (name, w), vs in zip(c.inputs, ints.values())}
        fast = simulate(c, ints, horizon)
        assert simulate(p, env, horizon) == [BitVec(c.width, v)
                                             for v in fast]
        for t in range(horizon):
            slow = interp_naive(p, env, t, p.root)
            assert BitVec(c.width, fast[t]) == slow, \
                f"divergence at t={t}\n{p}"
    assert with_regs >= 1000


def _swap_regs():
    """Two registers that read each other, no inputs: 1, 2, 1, 2, ..."""
    b = ProgBuilder()
    r1, r2 = b.fresh(), b.fresh()
    b.nodes[r1] = Reg(r2, _bv(1, 4))
    b.nodes[r2] = Reg(r1, _bv(2, 4))
    return b.prog(r1), {}, 0


def _self_reg():
    """A register that reads itself holds its init forever."""
    b = ProgBuilder()
    r = b.fresh()
    b.nodes[r] = Reg(r, _bv(5, 4))
    out = b.op("xor", r, b.var("a", 4))
    return b.prog(out), env_of_ints({"a": ([0, 1, 2, 3], 4)}), 1


def _constant_root():
    b = ProgBuilder()
    b.var("a", 4)
    return b.prog(b.op("add", b.bv(6, 4), b.bv(3, 4))), \
        env_of_ints({"a": ([1, 2, 3, 4], 4)}), 0


def _prim_with_reg():
    """A Prim whose body holds a register fed by the bound input."""
    b = ProgBuilder()
    a = b.var("a", 4)
    bb = b.child()
    x = bb.var("x", 4)
    y = bb.op("add", bb.reg(x, _bv(1, 4)), x)
    meta = EmitMeta("acc", ("x",), (), (("o", 3, 0),))
    pr = b.add(Prim((("x", a),), bb.prog(y), meta))
    return b.prog(pr), env_of_ints({"a": ([2, 3, 4, 5], 4)}), 1


def _folds_to_wires():
    """mux(1, a, b), and(a, 0), a full-range extract and a zero_extend by 0
    fold for any a and b, leaving sub(a, add(b, 0)) = sub(a, b)."""
    b = ProgBuilder()
    a, c = b.var("a", 4), b.var("b", 4)
    m = b.zext(0, b.extract(3, 0, b.op("mux", b.bv(1, 1), a, c)))
    z = b.op("add", c, b.op("and", a, b.bv(0, 4)))
    return b.prog(b.op("sub", m, z)), \
        env_of_ints({"a": ([9, 2, 0, 15], 4), "b": ([3, 5, 0, 1], 4)}), 1


def _dead_after_folding():
    """mux(0, reg(sub(a, b)), add(a, b)) folds to the add: the sub and the
    register that holds it are read by nothing and get no code."""
    b = ProgBuilder()
    a, c = b.var("a", 4), b.var("b", 4)
    r = b.reg(b.op("sub", a, c), _bv(3, 4))
    m = b.op("mux", b.bv(0, 1), r, b.op("add", a, c))
    return b.prog(m), \
        env_of_ints({"a": ([9, 2, 0, 15], 4), "b": ([3, 5, 0, 1], 4)}), 1


# each case gives a program, its inputs and how many operator functions
# its compiled form binds: an Op over literals, one that folds for every
# operand value, or one nothing live reads, binds none
@pytest.mark.parametrize("case, want", [
    (_swap_regs, [1, 2, 1, 2]),
    (_self_reg, [5, 4, 7, 6]),
    (_constant_root, [9, 9, 9, 9]),
    (_prim_with_reg, [3, 5, 7, 9]),
    (_folds_to_wires, [6, 13, 0, 14]),
    (_dead_after_folding, [12, 7, 0, 0]),
])
def test_compiled_hand_cases(case, want):
    p, env, calls = case()
    assert [v.value for v in simulate(p, env, 4)] == want
    for t in range(4):
        assert interp_naive(p, env, t, p.root).value == want[t]
    assert len(compile_program(plan_program(p)).fn.__defaults__ or ()) \
        == calls


def _unread_locals(src: str) -> set[str]:
    """Names the generated function assigns or binds as an operator
    function and never reads (the loop counter aside)."""
    (fn,) = ast.parse(src).body
    names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
    written = {n.id for n in names if isinstance(n.ctx, ast.Store)}
    written |= {a.arg for a in fn.args.args if a.arg.startswith("f")}
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    return written - read - {"_t"}


def test_mapped_dsp_row_compiles_without_unread_locals(monkeypatch):
    # the mapped mul_w08_d0: the ALU's sub feeds a mux that folds away,
    # and the block's pipeline registers are bypassed at depth 0
    text = next(_document_text(b) for b in corpus_benchmarks()
                if b.name == "mul_w08_d0")
    doc = parse_document(text)
    (width,) = {w for _, w in doc.inputs}
    sketch = generate_sketch(
        "dsp", load_arch(packaged_arch_path("minidsp.yml")),
        document_params("dsp", doc, width))
    with SolverSession() as session:
        res = synthesize(doc.prog, sketch, t=doc.pipeline, session=session)
    assert isinstance(res, Success)
    sources = record_calls(monkeypatch, interp_module, "_code")
    compiled = compile_program(plan_program(res.program))
    (src,) = (a[0] for a in sources)
    assert _unread_locals(src) == set()
    assert not re.search(r"\br\d", src)      # no register survives
    rng = random.Random(3)
    rows = {name: [rng.getrandbits(w) for _ in range(4)]
            for name, w in compiled.inputs}
    env = {name: stream_of_ints(vs, w)
           for (name, w), vs in zip(compiled.inputs, rows.values())}
    got = simulate(compiled, rows, 4)
    for t in range(4):
        assert interp_naive(res.program, env, t, res.program.root) \
            == BitVec(compiled.width, got[t])


def test_interp_on_a_node_that_is_not_the_root():
    b = ProgBuilder()
    a = b.var("a", 4)
    s = b.op("add", a, b.bv(1, 4))
    r = b.reg(s, _bv(0, 4))
    p = b.prog(b.op("xor", r, a))
    env = env_of_ints({"a": ([3, 7, 9], 4)})
    assert [interp(p, env, t, s).value for t in range(3)] == [4, 8, 10]
    assert [interp(p, env, t, r).value for t in range(3)] == [0, 4, 8]
    assert [interp(p, env, t, a).value for t in range(3)] == [3, 7, 9]


def test_input_names_never_enter_generated_code():
    # names that would clash with, or break out of, generated source
    names = ["t", "out", "horizon", 'a"); (b', "n", "ap", "x0", "s0", "f0"]
    b = ProgBuilder()
    acc = b.var(names[0], 8)
    for name in names[1:]:
        acc = b.op("add", b.op("mul", acc, b.bv(3, 8)), b.var(name, 8))
    p = b.prog(acc)
    rng = random.Random(5)
    rows = {name: [rng.getrandbits(8) for _ in range(6)] for name in names}
    env = {name: stream_of_ints(vs, 8) for name, vs in rows.items()}
    want = []
    for t in range(6):
        v = 0
        for name in names:
            v = (v * 3 + rows[name][t]) & 0xff
        want.append(v)
    assert [v.value for v in simulate(p, env, 6)] == want
    assert simulate(compile_program(plan_program(p)), rows, 6) == want


def test_naive_matches_fast_through_prims():
    b = ProgBuilder()
    a = b.var("a", 4)
    bb = b.child()
    x = bb.var("x", 4)
    r = bb.reg(x, _bv(1, 4))
    y = bb.op("add", r, x)
    body = bb.prog(y)
    meta = EmitMeta("acc", ("x",), (), (("o", 3, 0),))
    pr = b.add(Prim((("x", a),), body, meta))
    out = b.op("xor", pr, a)
    p = b.prog(out)
    env = env_of_ints({"a": ([2, 3, 4, 5], 4)})
    for t in range(4):
        assert interp(p, env, t, out) == interp_naive(p, env, t, out)


def test_trace_lines_format():
    vals = [_bv(0, 8), _bv(255, 8), _bv(16, 8)]
    assert trace_lines(vals) == ["t=0 out=0", "t=1 out=ff", "t=2 out=10"]


def test_deep_simulation_does_not_recurse():
    # 2000 cycles through a register chain: the fast path must not hit the
    # Python recursion limit and must stay exact.
    b = ProgBuilder()
    a = b.var("a", 16)
    cur = a
    for _ in range(40):
        cur = b.reg(cur, _bv(0, 16))
    p = b.prog(cur)
    n = 2000
    rng = random.Random(1)
    data = [rng.getrandbits(16) for _ in range(n)]
    env = {"a": stream_of_ints(data, 16)}
    vals = simulate(p, env, n)
    assert vals[39] == _bv(0, 16)
    assert [v.value for v in vals[40:]] == data[:-40]
