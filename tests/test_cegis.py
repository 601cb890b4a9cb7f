"""The refinement loop end to end, on hand-built sketches.

The expected memory contents in these tests are frozen from a brute-force
enumeration over all hole values (see the inline oracles), independent of
the solver path under test.
"""

import hashlib
import itertools
import random
import sys

import pytest

from sketchmap import cegis as cegis_module
from sketchmap.arch import load_arch, packaged_arch_path
from sketchmap.bench import _document_text, corpus_benchmarks
from sketchmap.cegis import Success, Timeout, Unsat, cegis, synthesize
from sketchmap.emit import to_json_netlist, to_structural_verilog
from sketchmap.interp import Compiled, compile_program, plan_program
from sketchmap.ir import (
    BV, BitVec, EmitMeta, Hole, Op, Operator, Prim, Prog, ProgBuilder,
    Sketch, Var, substitute_holes, var_widths,
)
from sketchmap.portfolio import SolverConfig, SolverSession
from sketchmap.sketches import document_params, generate_sketch
from sketchmap.specdsl import parse_document
from sketchmap.symbolic import build_query
from util_interp import env_of_ints, interp, interp_naive
from util_progs import random_behavioral, record_calls

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
    h = b.hole("m", 4)
    bb, body = _lut_body(2)
    del bb
    meta = EmitMeta("lut2", ("sel",), (("INIT", "tbl"),), (("O", 0, 0),))
    # bodies get their ids from a child builder so ids stay disjoint
    b2 = ProgBuilder()
    a2 = b2.var("a", 1)
    c2 = b2.var("b", 1)
    idx2 = b2.concat(c2, a2)
    h2 = b2.hole("m", 4)
    bb2 = b2.child()
    tbl = bb2.var("tbl", 4)
    sel = bb2.var("sel", 2)
    shifted = bb2.op("lshr", tbl, bb2.zext(2, sel))
    body2 = bb2.prog(bb2.extract(0, 0, shifted))
    pr = b2.add(Prim((("tbl", h2), ("sel", idx2)), body2, meta))
    return Sketch(b2.prog(pr))


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
        res = synthesize(_bool_spec("xor"), _lut1_on_a_sketch(), t=0, c=0)
        assert isinstance(res, Unsat)

    def test_no_hole_sketch_verifies_directly(self):
        sk = _lut2_sketch()
        solved = substitute_holes(sk, {"m": BV(_bv(0b0110, 4))})
        res = synthesize(_bool_spec("xor"), Sketch(solved), t=0, c=0)
        assert isinstance(res, Success)
        assert res.model == {}

    def test_no_hole_wrong_constant_is_unsat(self):
        sk = _lut2_sketch()
        solved = substitute_holes(sk, {"m": BV(_bv(0b0111, 4))})
        res = synthesize(_bool_spec("xor"), Sketch(solved), t=0, c=0)
        assert isinstance(res, Unsat)


def _lut1_on_a_sketch():
    """A one-input lookup on a; b is declared but unused."""
    b = ProgBuilder()
    a = b.var("a", 1)
    b.var("b", 1)
    h = b.hole("m", 2)
    bb = b.child()
    tbl = bb.var("tbl", 2)
    sel = bb.var("sel", 1)
    body = bb.prog(bb.extract(0, 0, bb.op("lshr", tbl, bb.zext(1, sel))))
    meta = EmitMeta("lut1", ("sel",), (("INIT", "tbl"),), (("O", 0, 0),))
    pr = b.add(Prim((("tbl", h), ("sel", a)), body, meta))
    return Sketch(b.prog(pr))


def _negate_task():
    """8-bit two's-complement negate and an xor-add sketch for it:
    out = (a ^ mask) + k, expecting mask=0xff, k=1."""
    b = ProgBuilder()
    a = b.var("a", 8)
    spec = b.prog(b.op("neg", a))
    s = ProgBuilder()
    a2 = s.var("a", 8)
    mask = s.hole("mask", 8)
    k = s.hole("k", 8)
    bb = s.child()
    x = bb.var("x", 8)
    m2 = bb.var("m", 8)
    k2 = bb.var("kk", 8)
    body = bb.prog(bb.op("add", bb.op("xor", x, m2), k2))
    meta = EmitMeta("xoradd", ("x",),
                    (("M", "m"), ("K", "kk")), (("O", 7, 0),))
    pr = s.add(Prim((("x", a2), ("m", mask), ("kk", k)), body, meta))
    return spec, Sketch(s.prog(pr))


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
    meta = EmitMeta("dff", ("d",), (), (("Q", 3, 0),))
    pr = b.add(Prim((("d", a),), body, meta))
    return Sketch(b.prog(pr))


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
    checked = record_calls(monkeypatch, cegis_module, "_first_disagreement")
    q = build_query(_reg_spec(5), _reg_sketch(5), 0, 1)
    good = compile_program(plan_program(_reg_sketch(5).psi))
    cexs = [{("a", 0): _bv(v, 4), ("a", 1): _bv(v + 1, 4)}
            for v in (0, 3, 9)] + [{}]
    spec = compile_program(q.spec_plan)
    cegis_module._revalidate(q, spec, good, cexs)
    assert [a[2] for a in calls] == [2] * 8
    assert [a[3] for a in checked] == [cexs]
    with pytest.raises(SolverError, match=r"at cycle 0 \(spec 4'h5, "
                                          r"got 4'h7\)"):
        cegis_module._revalidate(
            q, spec, compile_program(plan_program(_reg_sketch(7).psi)), cexs)

    # one synthesize plans the spec, the sketch and each side constraint
    # once, whatever the iteration count, and the accepted candidate's
    # bound form revalidates every counterexample
    checked.clear()
    scheduled = record_calls(monkeypatch, interp, "schedule")
    cb = ProgBuilder()
    side = cb.prog(cb.extract(1, 1, cb.hole("m", 4)))   # xor's table has it
    spec, sketch = _bool_spec("xor"), Sketch(_lut2_sketch().psi, (side,))
    res = synthesize(spec, sketch, t=0, c=0)
    assert isinstance(res, Success) and res.iterations > 1
    assert [a[0] for a in scheduled] == [spec, sketch.psi, side]
    assert checked[-1][3] is res.counterexamples

    # cegis compiles the query's plans and plans nothing itself
    q = build_query(spec, sketch, 0, 0)
    scheduled.clear()
    assert isinstance(cegis(q), Success)
    assert scheduled == []


def test_every_candidate_simulation_reaches_cegis_simulate(monkeypatch):
    # the benchmark's tracer counts interp.sim_cycles from the third
    # positional argument of cegis.simulate: each environment a probe or
    # the revalidation checks is two calls, the spec and the bound
    # candidate, each over the whole window, and each candidate that
    # passes every probe is two more, over all 2**8 input vectors at once
    real_probe = cegis_module._first_disagreement
    checked = []        # per call, the environments it simulated
    passed = []         # per call, whether every environment agreed

    def probe(query, spec, got, envs):
        out = real_probe(query, spec, got, envs)
        checked.append(envs if out is None
                       else envs[:envs.index(out[0]) + 1])
        passed.append(out is None)
        return out

    monkeypatch.setattr(cegis_module, "_first_disagreement", probe)
    calls = record_calls(monkeypatch, cegis_module, "simulate")
    res = synthesize(*_negate_task(), t=1, c=1)
    assert isinstance(res, Success) and res.iterations > 1
    assert checked[-1] == res.counterexamples
    window = [a for a in calls if a[2] == 3]
    enumerated = [a for a in calls if a[2] != 3]
    assert len(window) == 2 * sum(map(len, checked))
    # the last passing call is the revalidation, which enumerates nothing
    assert len(enumerated) == 2 * (sum(passed) - 1) > 0
    assert all(a[2] == 2 ** 8 and a[1] == {"a": list(range(2 ** 8))}
               for a in enumerated)
    specs = {id(a[0]) for a in calls[::2]}
    candidates = [a[0] for a in calls[1::2]]
    assert len(specs) == 1
    assert all(isinstance(c, Compiled) and not c.holes for c in candidates)


def _record_stages(monkeypatch) -> list:
    """Each solver call as "synth" or "verify" (SYNTH declares the holes,
    VERIFY the inputs) and each _first_disagreement call as (its envs,
    copied at the call since cegis later removes refuted probes from that
    list, and its answer), in the order the loop makes them."""
    events = []
    real_solve = cegis_module.portfolio_solve
    real_probe = cegis_module._first_disagreement

    def solve(text, *args, **kwargs):
        events.append("synth" if "(declare-const hole_" in text
                      else "verify")
        return real_solve(text, *args, **kwargs)

    def probe(query, spec, got, envs):
        out = real_probe(query, spec, got, envs)
        events.append((list(envs), out))
        return out

    monkeypatch.setattr(cegis_module, "portfolio_solve", solve)
    monkeypatch.setattr(cegis_module, "_first_disagreement", probe)
    return events


class TestProbes:
    def test_refuted_candidate_is_never_sent_to_verify(self, monkeypatch):
        events = _record_stages(monkeypatch)
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0)
        assert isinstance(res, Success)
        # the last check is the revalidation on the whole set
        assert events[-1] == (res.counterexamples, None)
        stages = events[:-1]
        refuted = [e[1][0] for e in stages
                   if type(e) is tuple and e[1] is not None]
        assert refuted
        last_probe = None
        for e in stages:
            if type(e) is tuple:
                last_probe = e[1]
            elif e == "verify":
                assert last_probe is None
        # every refuting environment joined the set, which the final
        # program agrees on
        for env in refuted:
            assert env in res.counterexamples

    def test_probes_save_verify_calls(self, monkeypatch):
        # the 8-bit negate needs several counterexamples; with probes the
        # only VERIFY call is the one that proves the final candidate
        # (with enumeration off, which would make that call too)
        monkeypatch.setattr(cegis_module, "EXHAUSTIVE_BITS", 0)
        events = _record_stages(monkeypatch)
        res = synthesize(*_negate_task(), t=0, c=0)
        assert isinstance(res, Success)
        assert events.count("verify") == 1
        assert events.count("synth") == res.iterations > 1
        assert len(res.counterexamples) == res.iterations

    def test_two_runs_give_identical_programs(self):
        first = synthesize(*_negate_task(), t=0, c=0)
        second = synthesize(*_negate_task(), t=0, c=0)
        assert isinstance(first, Success) and isinstance(second, Success)
        assert repr(first.program) == repr(second.program)
        assert first.model == second.model
        assert first.counterexamples == second.counterexamples

    def test_inexpressible_spec_is_still_unsat(self, monkeypatch):
        # a lookup on a alone against a xor b: every candidate fails a
        # probe, and SYNTH, not a probe, says no memory works
        events = _record_stages(monkeypatch)
        res = synthesize(_bool_spec("xor"), _lut1_on_a_sketch(), t=0, c=0)
        assert isinstance(res, Unsat)
        assert any(type(e) is tuple and e[1] is not None for e in events)
        assert "verify" not in events
        assert events[-1] == "synth"


def _reg_negate_task():
    """_negate_task with a register after each side's datapath."""
    b = ProgBuilder()
    a = b.var("a", 8)
    spec = b.prog(b.reg(b.op("neg", a), _bv(0, 8)))
    s = ProgBuilder()
    a2 = s.var("a", 8)
    mask = s.hole("mask", 8)
    k = s.hole("k", 8)
    bb = s.child()
    x = bb.var("x", 8)
    m2 = bb.var("m", 8)
    k2 = bb.var("kk", 8)
    body = bb.prog(bb.reg(bb.op("add", bb.op("xor", x, m2), k2), _bv(0, 8)))
    meta = EmitMeta("xoraddreg", ("x",),
                    (("M", "m"), ("K", "kk")), (("Q", 7, 0),))
    pr = s.add(Prim((("x", a2), ("m", mask), ("kk", k)), body, meta))
    return spec, Sketch(s.prog(pr))


def _lowest_failing_vector(spec, program, inputs):
    """The first input vector in ascending order (the first of inputs
    most significant) on which program and spec differ at cycle 0, as
    name -> int, by the recursive semantics; None when none does."""
    for values in itertools.product(*(range(2 ** w) for _, w in inputs)):
        env = env_of_ints({name: ([v], w)
                           for (name, w), v in zip(inputs, values)})
        if (interp_naive(spec, env, 0, spec.root)
                != interp_naive(program, env, 0, program.root)):
            return dict(zip((name for name, _ in inputs), values))
    return None


def _add_w6_task():
    """A 6-bit add on the carry-chain architecture: 12 input bits a
    cycle and no register."""
    doc = parse_document("(spec (inputs (a 6) (b 6)) (add a b))\n")
    sketch = generate_sketch(
        "bitwise-with-carry", load_arch(packaged_arch_path(
            "generic-lut-carry.yml")),
        document_params("bitwise-with-carry", doc, 6))
    return doc.prog, sketch


class TestExhaustiveVerify:
    TASKS = {"xor": lambda: (_bool_spec("xor"), _lut2_sketch()),
             "negate": _negate_task}

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_no_verify_text_under_the_cap(self, monkeypatch, task):
        events = _record_stages(monkeypatch)
        res = synthesize(*self.TASKS[task](), t=0, c=0)
        assert isinstance(res, Success)
        assert "synth" in events and "verify" not in events

    @pytest.mark.parametrize("cap,verifies", [(None, True), (11, True),
                                              (12, False)])
    def test_verify_is_sent_past_the_cap(self, monkeypatch, cap, verifies):
        if cap is not None:
            monkeypatch.setattr(cegis_module, "EXHAUSTIVE_BITS", cap)
        events = _record_stages(monkeypatch)
        with SolverSession() as session:
            res = synthesize(*_add_w6_task(), session=session)
        assert isinstance(res, Success)
        assert ("verify" in events) is verifies

    def test_a_register_keeps_verify(self, monkeypatch):
        spec, sketch = _reg_negate_task()
        assert cegis_module._input_vectors(
            build_query(spec, sketch, 0, 1)) is None
        events = _record_stages(monkeypatch)
        res = synthesize(spec, sketch, t=0, c=1)
        assert isinstance(res, Success)
        assert res.model == {"mask": _bv(0xFF, 8), "k": _bv(1, 8)}
        assert "verify" in events

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_lowest_failing_vector_is_learned(self, monkeypatch, task):
        # with no probes every candidate is enumerated, and each
        # counterexample after the seed is the lowest vector on which the
        # candidate before it fails
        monkeypatch.setattr(cegis_module, "PROBES", 0)
        candidates = []
        real_decode = cegis_module._decode_model

        def decode(query, model):
            candidates.append(real_decode(query, model))
            return candidates[-1]

        monkeypatch.setattr(cegis_module, "_decode_model", decode)
        events = _record_stages(monkeypatch)
        spec, sketch = self.TASKS[task]()
        res = synthesize(spec, sketch, t=0, c=0)
        assert isinstance(res, Success) and res.iterations > 1
        assert "verify" not in events
        assert len(candidates) == len(res.counterexamples)
        inputs = plan_program(spec).inputs
        for model, env in zip(candidates, res.counterexamples[1:]):
            program = substitute_holes(
                sketch, {label: BV(v) for label, v in model.items()})
            low = _lowest_failing_vector(spec, program, inputs)
            assert env == {(name, 0): _bv(low[name], w)
                           for name, w in inputs}
        assert _lowest_failing_vector(spec, res.program, inputs) is None


_SWAPS = {name: group for group in (
    ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"],
    ["eq", "ult", "ule", "slt", "sle"], ["not", "neg"]) for name in group}


def _random_task(rng):
    """A register-free spec and a sketch over its inputs, cut from one
    random program.  The spec is one node's cone.  The sketch is one Prim
    whose body is the cone of a node of the same width (half the time the
    spec's own), with about half its constants read from holes and some
    of its operators replaced by another of their kind, or by a hole's
    choice of the two.  So some of these sketches can express their spec
    and some cannot."""
    p = random_behavioral(rng, max_nodes=12, max_width=3, allow_reg=False)
    spec_root = rng.choice(list(p.nodes))
    width = plan_program(Prog(spec_root, p.nodes)).width
    same = [i for i in p.nodes
            if plan_program(Prog(i, p.nodes)).width == width]
    root = spec_root if rng.random() < 0.5 else rng.choice(same)
    s = ProgBuilder()
    binds = [(x, s.var(x, w)) for x, w in var_widths(p).items()]
    ports = tuple(x for x, _ in binds)
    nodes, fresh = dict(p.nodes), max(p.nodes) + 1
    for i, n in p.nodes.items():
        if isinstance(n, BV) and rng.random() < 0.5:
            nodes[i] = Var(f"k{i}", n.b.width)
            binds.append((f"k{i}", s.hole(f"k{i}", n.b.width)))
        elif (isinstance(n, Op) and n.op.name in _SWAPS
              and rng.random() < 0.4):
            other = Op(Operator(rng.choice(_SWAPS[n.op.name])), n.args)
            if rng.random() < 0.5:
                nodes[i] = other
                continue
            sel, a, b = fresh, fresh + 1, fresh + 2
            fresh += 3
            nodes.update({sel: Var(f"s{i}", 1), a: other, b: n,
                          i: Op(Operator("mux"), (sel, a, b))})
            binds.append((f"s{i}", s.hole(f"s{i}", 1)))
    meta = EmitMeta("blk", ports,
                    tuple((x.upper(), x) for x, _ in binds[len(ports):]),
                    (("O", width - 1, 0),))
    pr = Prim(tuple(binds), Prog(root, nodes), meta, s.fresh(fresh))
    return Prog(spec_root, p.nodes), Sketch(s.prog(s.add(pr)))


def test_enumeration_and_verify_agree_on_random_sketches(monkeypatch):
    # the same verdict with VERIFY (cap 0) and with enumeration, and each
    # success matches its spec on every input vector by the recursive
    # semantics; with no seed and no probes every candidate reaches the
    # check, and at the default cap no VERIFY text is sent
    rng = random.Random(41)
    verdicts, verified, refuted = [], 0, 0
    with SolverSession() as session:
        for _ in range(100):
            spec, sketch = _random_task(rng)
            inputs = plan_program(spec).inputs
            runs = []
            for cap in (0, cegis_module.EXHAUSTIVE_BITS):
                monkeypatch.setattr(cegis_module, "SEED_SAMPLES", 0)
                monkeypatch.setattr(cegis_module, "PROBES", 0)
                monkeypatch.setattr(cegis_module, "EXHAUSTIVE_BITS", cap)
                events = _record_stages(monkeypatch)
                runs.append(synthesize(spec, sketch, t=0, c=1,
                                       session=session))
                monkeypatch.undo()
                assert cap == 0 or "verify" not in events
                verified += cap == 0 and "verify" in events
            assert type(runs[0]) is type(runs[1])
            for r in runs:
                if isinstance(r, Success):
                    assert _lowest_failing_vector(spec, r.program,
                                                  inputs) is None
            verdicts.append(type(runs[0]))
            refuted += runs[1].iterations > 1
    assert verdicts.count(Success) >= 40 and verdicts.count(Unsat) >= 10
    assert verified >= 15 and refuted >= 15


class TestLoopMechanics:
    def test_timeout_with_wedged_portfolio(self):
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0,
                         solvers=[WEDGED], timeout=2.0)
        assert isinstance(res, Timeout)
        assert res.wall_time < 30

    def test_counterexamples_are_recorded(self, monkeypatch):
        monkeypatch.setattr(cegis_module, "SEED_SAMPLES", 0)
        res = synthesize(_bool_spec("xor"), _lut2_sketch(), t=0, c=0)
        assert isinstance(res, Success)
        # with no seeding, the first candidate is arbitrary and at least
        # one verification counterexample is normally needed
        assert res.iterations >= 1
        for env in res.counterexamples:
            for (name, t), v in env.items():
                assert name in ("a", "b") and t == 0 and v.width == 1

    def test_sketch_that_reads_no_input_is_solved(self):
        # neither side reads its input, so no environment is drawn and
        # VERIFY's query folds to a constant: a candidate that differs
        # everywhere must teach SYNTH the equality, not end the loop
        b = ProgBuilder()
        b.var("a", 1)
        spec = b.prog(b.bv(1, 1))
        s = ProgBuilder()
        s.var("a", 1)
        h = s.hole("m", 2)
        bb = s.child()
        body = bb.prog(bb.extract(0, 0, bb.var("tbl", 2)))
        meta = EmitMeta("cst", (), (("INIT", "tbl"),), (("O", 0, 0),))
        pr = s.add(Prim((("tbl", h),), body, meta))
        res = synthesize(spec, Sketch(s.prog(pr)),
                         t=0, c=0)
        assert isinstance(res, Success)
        assert res.model["m"].value & 1 == 1
        assert res.counterexamples == [{}]

    def test_wider_datapath(self):
        res = synthesize(*_negate_task(), t=0, c=0)
        assert isinstance(res, Success)
        assert res.model["mask"] == _bv(0xFF, 8)
        assert res.model["k"] == _bv(1, 8)


# sha256 over every query text synthesize sends, in order.  The texts
# depend on term folding, emission and (through the counterexamples) on
# the solver's models, so a change to any of them that alters a query must
# update these constants on purpose and say why.
# add_w4 and tt_4b are register-free and under cegis.EXHAUSTIVE_BITS, so
# their texts are SYNTH queries alone.
PINNED_QUERIES = {
    "add_w4": ("generic-lut-carry.yml", "bitwise-with-carry",
               "(spec (inputs (a 4) (b 4)) (add a b))\n",
               "c03620a3a810627c3e46fcf63b854bde"
               "853ac785103852cb5799e26cd6b51bce"),
    # a minidsp corpus row: the block's operand and ALU muxes leave a
    # few hundred mux terms in each query
    "add_mul_xor_w08_d1": ("minidsp.yml", "dsp", None,
                           "72b462b8d8e8dedd8327f3d4d479cf58"
                           "e30d916ab438a4878f1b90211877e7a3"),
    # a three-input truth table as the lut64 benchmark writes it: its
    # queries are 1-bit trees of not, and and or over the LUT's shifted
    # configuration word
    "tt_4b": ("sofa.yml", "bitwise",
              "(spec (inputs (a 1) (b 1) (c 1)) (or (or (or "
              "(and (and (not a) (not b)) (not c)) "
              "(and (and a (not b)) (not c))) (and (and a b) (not c))) "
              "(and (and (not a) b) c)))\n",
              "0ba7be8355e57a16272794f658fd9cbe"
              "145212b7d0637184f484364f9f34171d"),
}


# sha256 over the Verilog and then the JSON netlist of each design's
# result, both emitted under the design's name.  Like PINNED_QUERIES, a
# change that alters either text must update these on purpose and say why.
PINNED_NETLISTS = {
    "add_w4": "4218ca8dc3be1ede273fee399b2ecae4"
              "e8f006590762714cc63b285f1ed6d171",
    "add_mul_xor_w08_d1": "c1479d80921bd0555f30460ed6f0c7f3"
                          "ab07fa5bf7c247c2767ead4f3d10a9e7",
    "tt_4b": "b38116845db8c19a5cbd2802c64c365e"
             "37b56d24d45def043f7f30db363a171c",
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
    n = hashlib.sha256()
    n.update(to_structural_verilog(res.program, design).encode())
    n.update(to_json_netlist(res.program, design).encode())
    assert n.hexdigest() == PINNED_NETLISTS[design]
