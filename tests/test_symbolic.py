"""Term DAG, symbolic interpretation, query construction."""

import random

import pytest

from sketchmap.arch import NoImplementation, load_arch, packaged_arch_path
from sketchmap.interp import plan_program
from sketchmap.ir import (
    ArityError, BitVec, EmitMeta, Operator, Prim, Prog, ProgBuilder, Reg,
    Sketch, SketchmapError, WidthError,
)
from sketchmap.sketches import generate_sketch, list_templates
from sketchmap.symbolic import FreeVarMismatch, build_query, symbolic_run
from sketchmap.terms import TermBuilder, term_leaves
from util_interp import Stream, simulate
from util_progs import random_behavioral, walk_symbolic_run
from util_terms import eval_term


def _bv(v, w):
    return BitVec.of(v, w)


class TestTermBuilder:
    def test_interning(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        b = tb.input("b", 0, 4)
        t1 = tb.app(Operator("add"), [a, b])
        t2 = tb.app(Operator("add"), [a, b])
        assert t1 is t2
        assert tb.const_of(3, 4) is tb.const_of(3, 4)

    def test_constant_evaluation(self):
        tb = TermBuilder()
        t = tb.app(Operator("mul"), [tb.const_of(7, 4), tb.const_of(7, 4)])
        assert t.kind == "const" and t.value == _bv(1, 4)

    def test_identity_folds(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        assert tb.app(Operator("eq"), [a, a]).value == _bv(1, 1)
        assert tb.app(Operator("xor"), [a, a]).value == _bv(0, 4)
        assert tb.app(Operator("and"), [a, tb.const_of(0, 4)]).value == _bv(0, 4)
        assert tb.app(Operator("and"), [a, tb.const_of(15, 4)]) is a
        assert tb.app(Operator("add"), [tb.const_of(0, 4), a]) is a
        assert tb.app(Operator("mul"), [a, tb.const_of(1, 4)]) is a
        assert tb.app(Operator("or"), [a, a]) is a
        n = tb.app(Operator("not"), [a])
        assert tb.app(Operator("not"), [n]) is a

    def test_wiring_folds(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        assert tb.app(Operator("extract", (3, 0)), [a]) is a
        z = tb.app(Operator("zero_extend", (2,)), [a])
        assert tb.app(Operator("extract", (3, 0)), [z]) is a
        assert tb.app(Operator("extract", (5, 4)), [z]).value == _bv(0, 2)
        b = tb.input("b", 0, 4)
        cc = tb.app(Operator("concat"), [a, b])
        assert tb.app(Operator("extract", (3, 0)), [cc]) is b
        assert tb.app(Operator("extract", (7, 4)), [cc]) is a
        e1 = tb.app(Operator("extract", (2, 1)), [a])
        e2 = tb.app(Operator("extract", (1, 1)), [e1])
        assert e2 is tb.app(Operator("extract", (2, 2)), [a])

    def test_ite_folds(self):
        tb = TermBuilder()
        c = tb.input("c", 0, 1)
        a = tb.input("a", 0, 4)
        b = tb.input("b", 0, 4)
        mux = Operator("mux")
        assert tb.app(mux, [tb.const_of(1, 1), a, b]) is a
        assert tb.app(mux, [tb.const_of(0, 1), a, b]) is b
        assert tb.app(mux, [c, a, a]) is a
        assert tb.app(mux, [c, tb.const_of(1, 1), tb.const_of(0, 1)]) is c
        assert tb.app(mux, [c, tb.const_of(0, 1), tb.const_of(1, 1)]) \
            is tb.app(Operator("not"), [c])
        # one constant branch is not enough to fold
        d = tb.input("d", 0, 1)
        assert tb.app(mux, [c, tb.const_of(0, 1), d]).op == mux

    def test_mux_becomes_ite(self):
        tb = TermBuilder()
        c = tb.input("c", 0, 1)
        a = tb.input("a", 0, 4)
        b = tb.input("b", 0, 4)
        t = tb.app(Operator("mux"), [c, a, b])
        assert t.kind == "app" and t.op == Operator("mux")

    def test_distribution_collapses_configurable_datapath(self):
        # (mux(h, a+d, a-d) * c) with a,c,d constant folds to a mux of
        # constants: no symbolic multiply survives.
        tb = TermBuilder()
        h = tb.hole("sel", 1)
        a, c, d = (tb.const_of(v, 8) for v in (20, 3, 5))
        pre = tb.app(Operator("mux"),
                     [tb.app(Operator("eq"), [h, tb.const_of(1, 1)]),
                      tb.app(Operator("add"), [a, d]),
                      tb.app(Operator("sub"), [a, d])])
        m = tb.app(Operator("mul"), [pre, c])
        assert m.kind == "app" and m.op == Operator("mux")
        assert m.args[1].value == _bv(75, 8)
        assert m.args[2].value == _bv(45, 8)

    def test_substitute_refolds(self):
        tb = TermBuilder()
        a = tb.input("a", 0, 4)
        b = tb.input("b", 0, 4)
        t = tb.app(Operator("add"), [tb.app(Operator("mul"), [a, b]), a])
        s = tb.substitute(t, {a: tb.const_of(3, 4), b: tb.const_of(5, 4)})
        assert s.value == _bv((3 * 5 + 3) & 15, 4)

    def test_substitute_deep_chain(self):
        # 5000 nested adds: far deeper than Python's recursion limit
        tb = TermBuilder()
        a = tb.input("a", 0, 8)
        b = tb.input("b", 0, 8)
        t = a
        for _ in range(5000):
            t = tb.app(Operator("add"), [t, b])
        assert tb.substitute(t, {b: tb.const_of(0, 8)}) is a
        s = tb.substitute(t, {a: tb.const_of(3, 8), b: tb.const_of(7, 8)})
        assert s.value == _bv(3 + 5000 * 7, 8)

    def test_eval_and_repr_deep_chain(self):
        # 100 000 nested adds: evaluation and repr use no Python frames
        tb = TermBuilder()
        a = tb.input("a", 0, 8)
        b = tb.input("b", 0, 8)
        t = a
        for _ in range(100_000):
            t = tb.app(Operator("add"), [t, b])
        got = eval_term(t, {("a", 0): _bv(3, 8), ("b", 0): _bv(7, 8)}, {})
        assert got == _bv(3 + 100_000 * 7, 8)
        assert repr(t) == "<add app:8 input:8>"

    def test_leaves_of_several_roots_are_the_union(self):
        rng = random.Random(5)
        tb = TermBuilder()
        pool = [tb.input(n, k, 4) for n in "ab" for k in range(3)]
        pool += [tb.hole(f"h{k}", 4) for k in range(3)]
        for _ in range(60):
            x, y = rng.sample(pool, 2)
            pool.append(tb.app(Operator(rng.choice(["add", "xor", "and"])),
                               [x, y]))
        roots = rng.sample(pool[9:], 6)
        ins, holes = set(), set()
        for r in roots:
            i, h = term_leaves(r)
            ins |= i
            holes |= h
        assert term_leaves(*roots) == (ins, holes)

    def test_eval_reads_both_branches_of_an_ite(self):
        tb = TermBuilder()
        c = tb.input("c", 0, 1)
        x = tb.input("x", 0, 4)
        h = tb.hole("h", 4)
        t = tb.app(Operator("mux"), [c, x, h])
        env = {("c", 0): _bv(1, 1), ("x", 0): _bv(6, 4)}
        assert eval_term(t, env, {"h": _bv(2, 4)}) == _bv(6, 4)
        with pytest.raises(KeyError):
            eval_term(t, env, {})   # h is not taken, but must be bound

    def test_width_conflicts_rejected(self):
        tb = TermBuilder()
        tb.input("a", 0, 4)
        with pytest.raises(WidthError):
            tb.input("a", 0, 5)
        tb.hole("h", 3)
        with pytest.raises(WidthError):
            tb.hole("h", 4)


class TestSymbolicRun:
    def test_combinational(self):
        b = ProgBuilder()
        a = b.var("a", 1)
        c = b.var("c", 1)
        g = b.op("and", a, c)
        roots = symbolic_run(plan_program(b.prog(g)), 1)
        assert roots[0].op.name == "and"
        assert {(s.name, s.time) for s in term_leaves(roots[0])[0]} == \
            {("a", 0), ("c", 0)}
        assert {(s.name, s.time) for s in term_leaves(roots[1])[0]} == \
            {("a", 1), ("c", 1)}

    def test_register_shifts_time(self):
        b = ProgBuilder()
        a = b.var("a", 4)
        r = b.reg(a, _bv(9, 4))
        roots = symbolic_run(plan_program(b.prog(r)), 2)
        assert roots[0].value == _bv(9, 4)
        assert roots[1].kind == "input" and roots[1].time == 0
        assert roots[2].time == 1

    def test_constant_hole_becomes_symbol(self):
        b = ProgBuilder()
        h = b.hole("m", 4)
        roots = symbolic_run(plan_program(b.prog(h)), 0)
        assert roots[0].kind == "hole" and roots[0].label == "m"

    def test_termination_on_random_programs(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_behavioral(rng, max_nodes=14, max_width=6)
            roots = symbolic_run(plan_program(p), 8)
            assert len(roots) == 9

    def test_agreement_with_interpreter(self):
        rng = random.Random(37)
        for _ in range(60):
            p = random_behavioral(rng, max_nodes=12, max_width=5)
            from sketchmap.ir import var_widths
            vw = var_widths(p)
            horizon = 4
            roots = symbolic_run(plan_program(p), horizon - 1)
            env_vals = {(n, t): _bv(rng.getrandbits(w), w)
                        for n, w in vw.items() for t in range(horizon)}
            streams = {n: Stream(tuple(env_vals[(n, t)]
                                       for t in range(horizon)))
                       for n in vw}
            sim = simulate(p, streams, horizon)
            for t in range(horizon):
                got = eval_term(roots[t], env_vals, {})
                assert got == sim[t], f"cycle {t}: {got} != {sim[t]}"


def _lut2_sketch(width_out=1):
    """Hand-built sketch: one 4-bit memory hole indexed by concat(b, a)."""
    from sketchmap.ir import EmitMeta, Prim

    b = ProgBuilder()
    a_id = b.var("a", 1)
    b_id = b.var("b", 1)
    idx = b.concat(b_id, a_id)
    h = b.hole("m", 4)
    body_b = b.child()
    tbl = body_b.var("tbl", 4)
    sel = body_b.var("sel", 2)
    shifted = body_b.op("lshr", tbl, body_b.zext(2, sel))
    out = body_b.extract(0, 0, shifted)
    body = body_b.prog(out)
    meta = EmitMeta("lut2", ("sel",), (("sram", "tbl"),), (("out", 0, 0),))
    pr = b.add(Prim((("tbl", h), ("sel", idx)), body, meta))
    return Sketch(b.prog(pr))


def _xor_spec():
    b = ProgBuilder()
    a = b.var("a", 1)
    c = b.var("b", 1)
    return b.prog(b.op("xor", a, c))


class TestBuildQuery:
    def test_conjunct_counts(self):
        spec = _xor_spec()
        sk = _lut2_sketch()
        q0 = build_query(spec, sk, 0, 0)
        assert len(q0.equal_terms) == 1
        q21 = build_query(spec, sk, 2, 1)
        assert len(q21.equal_terms) == 2
        times = {s.time for s in q21.input_symbols}
        assert times <= {0, 1, 2, 3}

    def test_shared_inputs_between_sides(self):
        spec = _xor_spec()
        sk = _lut2_sketch()
        q = build_query(spec, sk, 0, 0)
        names = {(s.name, s.time) for s in q.input_symbols}
        assert names == {("a", 0), ("b", 0)}
        assert {h.label for h in q.hole_symbols} == {"m"}

    def test_free_var_mismatch(self):
        b = ProgBuilder()
        a = b.var("a", 1)
        spec = b.prog(b.op("not", a))
        with pytest.raises(FreeVarMismatch):
            build_query(spec, _lut2_sketch(), 0, 0)

    def test_width_mismatch_of_inputs(self):
        b = ProgBuilder()
        a = b.var("a", 2)
        c = b.var("b", 2)
        spec = b.prog(b.op("xor", a, c))
        with pytest.raises(FreeVarMismatch):
            build_query(spec, _lut2_sketch(), 0, 0)

    def test_side_constraint_must_read_holes_of_the_sketch(self):
        psi = _lut2_sketch().psi
        b = ProgBuilder()
        ok = b.prog(b.extract(0, 0, b.hole("m", 4)))
        q = build_query(_xor_spec(), Sketch(psi, (ok,)), 0, 0)
        assert len(q.side_constraints) == 1
        # a label psi lacks, or psi's label at another width
        for label, w in (("other", 1), ("m", 1)):
            b = ProgBuilder()
            bad = b.prog(b.hole(label, w))
            with pytest.raises(SketchmapError,
                               match=f"constraint references unknown "
                                     f"hole '{label}'"):
                build_query(_xor_spec(), Sketch(psi, (bad,)), 0, 0)

    def test_one_hole_label_at_two_widths_is_width_error(self):
        b = ProgBuilder()
        b.var("a", 1)
        b.var("b", 1)
        root = b.extract(0, 0, b.concat(b.hole("m", 4), b.hole("m", 2)))
        with pytest.raises(WidthError, match="hole 'm' declared at widths"):
            build_query(_xor_spec(), Sketch(b.prog(root)), 0, 0)

    def test_spec_must_be_behavioral(self):
        sk = _lut2_sketch()
        with pytest.raises(Exception):
            build_query(sk.psi, sk, 0, 0)

    def test_aligned_sides_fold_to_true(self):
        # identical programs: every equality folds at construction
        b = ProgBuilder()
        a = b.var("a", 4)
        c = b.var("b", 4)
        spec = b.prog(b.op("add", a, c))
        b2 = ProgBuilder()
        a2 = b2.var("a", 4)
        c2 = b2.var("b", 4)
        b3 = b2.child()
        x = b3.var("x", 4)
        y = b3.var("y", 4)
        s = b3.op("add", x, y)
        body = b3.prog(s)
        from sketchmap.ir import EmitMeta, Prim
        meta = EmitMeta("adder", ("x", "y"), (), (("o", 3, 0),))
        pr = b2.add(Prim((("x", a2), ("y", c2)), body, meta))
        sk = Sketch(b2.prog(pr))
        q = build_query(spec, sk, 0, 2)
        assert all(t.kind == "const" and t.value.value == 1
                   for t in q.equal_terms)


def _assert_same_roots(p: Prog, upto: int, tb=None) -> None:
    """symbolic_run and the walk it replaced give the very same root term
    at every cycle under one builder (tb, or a new one)."""
    tb = tb or TermBuilder()
    got = symbolic_run(plan_program(p), upto, tb)
    want = walk_symbolic_run(p, upto, tb)
    assert len(got) == len(want) == upto + 1
    for t, (g, w) in enumerate(zip(got, want)):
        assert g is w, f"cycle {t}: {g!r} is not {w!r}"


class TestPlanAgainstWalk:
    @pytest.mark.parametrize("allow_reg", [False, True])
    def test_random_programs(self, allow_reg):
        rng = random.Random(41 + allow_reg)
        with_regs = 0
        for _ in range(300):
            p = random_behavioral(rng, max_nodes=14, max_width=6,
                                  allow_reg=allow_reg)
            with_regs += any(isinstance(n, Reg) for n in p.nodes.values())
            _assert_same_roots(p, 4)
        assert (with_regs > 100) == allow_reg

    @pytest.mark.parametrize("arch_file", ["generic-lut-carry.yml",
                                           "minidsp.yml", "sofa.yml"])
    def test_every_template_sketch(self, arch_file):
        desc = load_arch(packaged_arch_path(arch_file))
        built = 0
        for info in list_templates():
            for w in (2, 5, 8):
                try:
                    sketch = generate_sketch(info.name, desc, {"width": w})
                except (NoImplementation, ArityError):
                    continue
                built += 1
                tb = TermBuilder()
                _assert_same_roots(sketch.psi, 3, tb)
                for constraint in sketch.side_constraints:
                    _assert_same_roots(constraint, 0, tb)
        assert built >= 3

    def test_sketch_with_a_register_and_a_side_constraint(self):
        # a Prim whose body registers a hole-selected operand, and a side
        # constraint over the sketch's holes
        b = ProgBuilder()
        a, c = b.var("a", 4), b.var("b", 4)
        body_b = b.child()
        x, y = body_b.var("x", 4), body_b.var("y", 4)
        mode = body_b.var("mode", 1)
        acc = body_b.reg(body_b.op("mux", mode, x, y), BitVec.of(3, 4))
        body = body_b.prog(body_b.op("add", acc, x))
        meta = EmitMeta("acc", ("x", "y"), (("MODE", "mode"),),
                        (("o", 3, 0),))
        pr = b.add(Prim((("x", a), ("y", c), ("mode", b.hole("mode", 1))),
                        body, meta))
        psi = b.prog(b.concat(b.hole("k", 4), pr))
        cb = ProgBuilder()
        side = cb.prog(cb.op("ult", cb.hole("k", 4), cb.bv(9, 4)))
        sketch = Sketch(psi, (side,))
        tb = TermBuilder()
        _assert_same_roots(sketch.psi, 4, tb)
        _assert_same_roots(side, 0, tb)
        sb = ProgBuilder()
        spec = sb.prog(sb.zext(4, sb.op("add", sb.var("a", 4),
                                        sb.var("b", 4))))
        q = build_query(spec, sketch, 1, 2)
        assert q.side_constraints == \
            symbolic_run(plan_program(side), 0, q.builder)
