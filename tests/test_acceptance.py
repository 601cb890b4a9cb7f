"""Acceptance gate: ten system-level procedures the package must pass.

One test per criterion; each prints a single PASS line with its measured
numbers.  Tolerances and sample counts are pinned in the assertions.
"""

import itertools
import random
import sys
import time

import pytest

from sketchmap.arch import load_arch, packaged_arch_path, parse_arch
from sketchmap.bench import run_corpus, write_corpus
from sketchmap.btor2 import MissingInit, load_btor2, parse_btor2, to_prog
from sketchmap.cegis import Success, Unsat, synthesize
from sketchmap.interp import compile_program, plan_program
from sketchmap.ir import (BV, BitVec, Prim, ProgBuilder, Sketch,
                          WellFormednessError, check_well_formed, free_vars,
                          substitute_holes, var_widths)
from sketchmap.portfolio import (SolverConfig, SolverSession,
                                 default_portfolio)
from sketchmap.sketches import generate_sketch
from sketchmap.specdsl import parse_document
from sketchmap.symbolic import symbolic_run

from test_emit import _prim_types, _random_structural
from util_interp import Stream, env_of_ints, interp, simulate
from util_progs import (random_behavioral, random_unchecked, verify_witness,
                        witness_exists_bruteforce)
from util_terms import eval_term

_ARCH = {}


def _arch(name):
    if name not in _ARCH:
        _ARCH[name] = load_arch(packaged_arch_path(name))
    return _ARCH[name]


def _lut2_only():
    if "lut2" not in _ARCH:
        _ARCH["lut2"] = parse_arch("""\
name: tiny
implementations:
  - interface: {name: LUT, num_inputs: 2}
    module_name: lut2
    source: {builtin: lut}
    internal_data: {sram: 4}
    ports:
      - {name: I0, direction: in, width: 1, value: I0}
      - {name: I1, direction: in, width: 1, value: I1}
      - {name: O, direction: out, width: 1}
    parameters:
      - {name: sram, value: sram}
    outputs: {O: O}
""")
    return _ARCH["lut2"]


def _tt_spec(tt, k):
    """Boolean function of k inputs given by truth table tt (bit i is the
    output on input index i, index bit j = input j)."""
    b = ProgBuilder()
    names = ("a", "b", "c")[:k]
    vs = [b.var(n, 1) for n in names]
    acc = b.bv(0, 1)
    for idx in range(2 ** k):
        if not (tt >> idx) & 1:
            continue
        term = None
        for j in range(k):
            lit = vs[j] if (idx >> j) & 1 else b.op("not", vs[j])
            term = lit if term is None else b.op("and", term, lit)
        acc = b.op("or", acc, term)
    return b.prog(acc), names


def test_criterion_01_single_lut_function_completeness():
    started = time.monotonic()
    sofa = _arch("sofa.yml")
    solved = 0
    # one session for all 272 designs: its solver child serves them all
    with SolverSession() as session:
        for k in (2, 3):
            for tt in range(2 ** (2 ** k)):
                spec, names = _tt_spec(tt, k)
                sketch = generate_sketch("bitwise", sofa,
                                         {"width": 1, "inputs": names})
                r = synthesize(spec, sketch, t=0, c=0, timeout=60.0,
                               session=session)
                assert isinstance(r, Success), f"{k}-input table {tt:#x}"
                prims = [n for n in r.program.nodes.values()
                         if isinstance(n, Prim)]
                assert len(prims) == 1, "must fit in a single LUT"
                for idx in range(2 ** k):
                    env = env_of_ints({names[j]: ([(idx >> j) & 1], 1)
                                       for j in range(k)})
                    got = interp(r.program, env, 0, r.program.root).value
                    assert got == (tt >> idx) & 1, \
                        f"table {tt:#x} at {idx}"
                solved += 1
    elapsed = time.monotonic() - started
    assert solved == 16 + 256
    assert elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s"
    print(f"criterion 1 (single-LUT completeness): PASS — "
          f"{solved}/272 functions, exhaustively verified, "
          f"{elapsed:.1f}s < 600s")


def test_criterion_02_bitwise_with_carry_arithmetic():
    started = time.monotonic()
    glc = _arch("generic-lut-carry.yml")
    rng = random.Random(2024)
    checked = []
    # one session serves all 14 designs, and each result is compiled once
    # and then run on every vector
    with SolverSession() as session:
        for w in range(2, 9):
            for opname in ("add", "sub"):
                b = ProgBuilder()
                x, y = b.var("a", w), b.var("b", w)
                spec = b.prog(b.op(opname, x, y))
                sketch = generate_sketch("bitwise-with-carry", glc,
                                         {"width": w})
                r = synthesize(spec, sketch, t=0, c=0, timeout=120.0,
                               session=session)
                assert isinstance(r, Success), f"{opname} width {w}"
                compiled = compile_program(plan_program(r.program))
                assert dict(compiled.inputs) == {"a": w, "b": w}
                if w <= 5:
                    pairs = itertools.product(range(2 ** w), repeat=2)
                else:
                    n = 10000 if w == 8 else 3000
                    pairs = ((rng.getrandbits(w), rng.getrandbits(w))
                             for _ in range(n))
                count = 0
                for a, bb in pairs:
                    (got,) = simulate(compiled, {"a": [a], "b": [bb]}, 1)
                    want = (a + bb if opname == "add" else a - bb) % 2 ** w
                    assert got == want, f"{opname} w={w}: {a},{bb}"
                    count += 1
                checked.append((opname, w, count))
    elapsed = time.monotonic() - started
    assert len(checked) == 14
    assert all(c == 4 ** w for op, w, c in checked if w <= 5)
    assert all(c == 10000 for op, w, c in checked if w == 8)
    print(f"criterion 2 (carry-chain add/sub widths 2-8): PASS — "
          f"14/14 Success, exhaustive w<=5, 10^4 random w=8, "
          f"{elapsed:.1f}s")


def test_criterion_03_minidsp_microbenchmark_suite(tmp_path):
    started = time.monotonic()
    write_corpus(tmp_path)
    rows = run_corpus(tmp_path, _arch("minidsp.yml"), template="dsp",
                      timeout=120.0, clock_cycles=2, sim_cycles=2000,
                      report_path=tmp_path / "report.csv")
    elapsed = time.monotonic() - started
    assert len(rows) == 468
    failures = [r for r in rows if r.outcome != "success"]
    assert not failures, f"non-success rows: {failures[:5]}"
    slow = [r for r in rows if r.seconds > 120.0]
    assert not slow, f"over budget: {slow[:5]}"
    worst = max(r.seconds for r in rows)
    print(f"criterion 3 (minidsp suite): PASS — 468/468 Success within "
          f"120s each (worst {worst:.2f}s), every result passed the "
          f"2000-cycle simulation, 0 soundness failures, "
          f"total {elapsed:.0f}s")


def _enumerate_assignments(sketch):
    labels = sorted(sketch.holes)
    widths = [sketch.holes[lbl] for lbl in labels]
    domain = 1
    for w in widths:
        domain *= 2 ** w
    assert domain <= 2 ** 16, f"oracle domain {domain} too large"
    for vals in itertools.product(*(range(2 ** w) for w in widths)):
        yield {lbl: BV(BitVec.of(v, w))
               for lbl, v, w in zip(labels, vals, widths)}


def _all_streams(vw, cycles):
    names = sorted(vw)
    per_name = [list(itertools.product(range(2 ** vw[n]), repeat=cycles))
                for n in names]
    for combo in itertools.product(*per_name):
        yield {n: (list(vals), vw[n]) for n, vals in zip(names, combo)}


def _oracle_equivalent_exists(spec, sketch, t, c):
    """Ground truth by exhaustive hole enumeration: does any assignment
    make the sketch equal the spec at cycles t..t+c on every input?"""
    vw = var_widths(spec)
    horizon = t + c + 1
    streams = list(_all_streams(vw, horizon))
    want = []
    for s in streams:
        env = env_of_ints(s)
        want.append([x.value for x in simulate(spec, env, horizon)])
    for assignment in _enumerate_assignments(sketch):
        prog = substitute_holes(sketch, assignment)
        ok = True
        for s, w in zip(streams, want):
            env = env_of_ints(s)
            got = simulate(prog, env, horizon)
            if any(got[k].value != w[k] for k in range(t, horizon)):
                ok = False
                break
        if ok:
            return True
    return False


def _c4_cases():
    """(name, spec builder, width, t, c).  Mostly functions a per-bit
    LUT2 sketch cannot express; a few expressible ones keep the oracle
    comparison honest in both directions."""
    def two(f):
        b = ProgBuilder()
        a, bb = b.var("a", 2), b.var("b", 2)
        return b.prog(f(b, a, bb))

    def one_bit(f):
        b = ProgBuilder()
        a, bb = b.var("a", 1), b.var("b", 1)
        return b.prog(f(b, a, bb))

    return [
        ("per-bit-lut2 adder", two(lambda b, a, y: b.op("add", a, y)),
         2, 0, 0),
        ("sub", two(lambda b, a, y: b.op("sub", a, y)), 2, 0, 0),
        ("reversed sub", two(lambda b, a, y: b.op("sub", y, a)), 2, 0, 0),
        ("mul", two(lambda b, a, y: b.op("mul", a, y)), 2, 0, 0),
        ("bit swap", two(lambda b, a, y: b.concat(
            b.extract(0, 0, a), b.extract(1, 1, a))), 2, 0, 0),
        ("shl", two(lambda b, a, y: b.op("shl", a, y)), 2, 0, 0),
        ("eq, widened", two(lambda b, a, y: b.zext(1, b.op("eq", a, y))),
         2, 0, 0),
        ("ult, widened", two(lambda b, a, y: b.zext(1, b.op("ult", a, y))),
         2, 0, 0),
        ("and with swapped operand", two(lambda b, a, y: b.op(
            "and", a, b.concat(b.extract(0, 0, y), b.extract(1, 1, y)))),
         2, 0, 0),
        ("increment", two(lambda b, a, y: b.op("add", a, b.bv(1, 2))),
         2, 0, 0),
        ("a plus a*b", two(lambda b, a, y: b.op(
            "add", a, b.op("mul", a, y))), 2, 0, 0),
        ("negate", two(lambda b, a, y: b.op("neg", a)), 2, 0, 0),
        ("not of add", two(lambda b, a, y: b.op(
            "not", b.op("add", a, y))), 2, 0, 0),
        ("add masked", two(lambda b, a, y: b.op(
            "and", b.op("add", a, y), y)), 2, 0, 0),
        ("sub or a", two(lambda b, a, y: b.op(
            "or", b.op("sub", a, y), a)), 2, 0, 0),
        ("mul xor b", two(lambda b, a, y: b.op(
            "xor", b.op("mul", a, y), y)), 2, 0, 0),
        ("mux on low bit", two(lambda b, a, y: b.op(
            "mux", b.extract(0, 0, a), a, y)), 2, 0, 0),
        ("decrement", two(lambda b, a, y: b.op("sub", a, b.bv(1, 2))),
         2, 0, 0),
        ("a xor (a+b)", two(lambda b, a, y: b.op(
            "xor", a, b.op("add", a, y))), 2, 0, 0),
        ("delayed and, window 0..1",
         one_bit(lambda b, a, y: b.reg(b.op("and", a, y),
                                       BitVec.of(0, 1))), 1, 0, 1),
        ("delayed a xor b",
         one_bit(lambda b, a, y: b.op("xor", b.reg(a, BitVec.of(0, 1)),
                                      y)), 1, 0, 1),
        # expressible controls
        ("xor (expressible)", two(lambda b, a, y: b.op("xor", a, y)),
         2, 0, 0),
        ("square (expressible)", two(lambda b, a, y: b.op("mul", a, a)),
         2, 0, 0),
        ("and-not (expressible)", two(lambda b, a, y: b.op(
            "and", a, b.op("not", y))), 2, 0, 0),
        ("registered const at cycle 0 (expressible)",
         one_bit(lambda b, a, y: b.reg(b.op("xor", a, y),
                                       BitVec.of(1, 1))), 1, 0, 0),
    ]


def test_criterion_04_unsat_agrees_with_exhaustive_enumeration():
    started = time.monotonic()
    tiny = _lut2_only()
    unsat_seen = 0
    for name, spec, width, t, c in _c4_cases():
        sketch = generate_sketch("bitwise", tiny,
                                 {"width": width, "inputs": ("a", "b")})
        truth = _oracle_equivalent_exists(spec, sketch, t, c)
        r = synthesize(spec, sketch, t=t, c=c, timeout=60.0)
        if truth:
            assert isinstance(r, Success), f"{name}: oracle says sat"
        else:
            assert isinstance(r, Unsat), f"{name}: oracle says unsat"
            unsat_seen += 1
    elapsed = time.monotonic() - started
    assert unsat_seen >= 20, f"only {unsat_seen} unsat cases"
    print(f"criterion 4 (unsat vs oracle): PASS — {unsat_seen} Unsat and "
          f"{len(_c4_cases()) - unsat_seen} Success verdicts, all agree "
          f"with exhaustive hole enumeration, {elapsed:.1f}s")


def _delayed_passthrough(init):
    """Behavioral: one register (given init) on a 4-bit input."""
    b = ProgBuilder()
    x = b.var("x", 4)
    return b.prog(b.reg(x, BitVec.of(init, 4)))


def _delayed_passthrough_prim(init):
    """The same register rendered structurally: wrapped as a primitive
    instance, since sketches may carry registers only inside primitive
    bodies."""
    from sketchmap.ir import EmitMeta, Prim
    b = ProgBuilder()
    x = b.var("x", 4)
    body = b.child()
    bx = body.var("x", 4)
    braw = body.reg(bx, BitVec.of(init, 4))
    meta = EmitMeta(module_name="dff4",
                    ports=("x",),
                    parameter_bindings=(),
                    outputs=(("Q", 3, 0),))
    prim = b.add(Prim(binds=(("x", x),), body=body.prog(braw), meta=meta))
    return b.prog(prim)


def test_criterion_05_bounded_window_semantics():
    spec5 = _delayed_passthrough(5)
    sketch7 = Sketch(_delayed_passthrough_prim(7))
    r = synthesize(spec5, sketch7, t=0, c=0, timeout=60.0)
    assert isinstance(r, Unsat), "init 5 vs 7 must differ at cycle 0"
    r = synthesize(spec5, sketch7, t=1, c=3, timeout=60.0)
    assert isinstance(r, Success), "equal from cycle 1 on"

    doc = parse_document(
        "(spec (inputs (a 8) (b 8) (c 8) (d 8)) (pipeline 2)"
        " (xor (mul (sub a b) c) d))")
    sketch = generate_sketch("dsp", _arch("minidsp.yml"),
                             {"width": 8, "inputs": ("a", "b", "c", "d"),
                              "pipeline_depth": 2})
    r = synthesize(doc.prog, sketch, t=2, c=2, timeout=120.0)
    assert isinstance(r, Success)
    rng = random.Random(55)
    early_diffs = 0
    for _ in range(50):
        env = env_of_ints({n: ([rng.getrandbits(8) for _ in range(5)], 8)
                           for n in "abcd"})
        want = simulate(doc.prog, env, 5)
        got = simulate(r.program, env, 5)
        assert got[2:5] == want[2:5], "window 2..4 must match"
        early_diffs += got[:2] != want[:2]
    print(f"criterion 5 (window semantics): PASS — init 5/7 Unsat at "
          f"(t=0,c=0) and Success at (t=1,c=3); 2-stage pipeline matches "
          f"at cycles 2..4 on 50/50 streams ({early_diffs} had fill-cycle "
          f"differences, as permitted)")


def test_criterion_06_symbolic_concrete_agreement():
    started = time.monotonic()
    rng = random.Random(2026)
    horizon = 5  # cycles 0..4
    agreed = 0
    for _ in range(500):
        p = random_behavioral(rng, max_nodes=12, max_width=6)
        vw = var_widths(p)
        roots = symbolic_run(plan_program(p), horizon - 1)
        vals = {(n, t): BitVec.of(rng.getrandbits(w), w)
                for n, w in vw.items() for t in range(horizon)}
        streams = {n: Stream(tuple(vals[(n, t)] for t in range(horizon)))
                   for n in vw}
        sim = simulate(p, streams, horizon)
        for t in range(horizon):
            assert eval_term(roots[t], vals, {}) == sim[t]
        agreed += 1
    elapsed = time.monotonic() - started
    assert agreed == 500
    print(f"criterion 6 (symbolic/concrete agreement): PASS — 500/500 "
          f"programs agree at cycles 0..4, {elapsed:.1f}s")


def test_criterion_07_well_formedness_oracle():
    rng = random.Random(77)
    well_formed = rejected_w6 = rejected_other = 0
    for _ in range(1000):
        p = random_unchecked(rng, max_nodes=6, max_width=3)
        try:
            witness = check_well_formed(p)
            verdict = True
        except WellFormednessError as e:
            verdict = e.kind
        if verdict is True:
            assert verify_witness(p, witness), "witness fails re-checking"
            assert witness_exists_bruteforce(p), "oracle finds no witness"
            well_formed += 1
        elif verdict == "W6":
            assert not witness_exists_bruteforce(p), \
                "oracle found a witness the checker missed"
            rejected_w6 += 1
        else:
            rejected_other += 1
    assert well_formed >= 50, "generator must exercise the accept path"
    assert rejected_w6 >= 20, "generator must exercise the W6 path"
    print(f"criterion 7 (well-formedness oracle): PASS — 1000 samples: "
          f"{well_formed} accepted (witnesses re-verified), "
          f"{rejected_w6} W6-rejected (oracle agrees), "
          f"{rejected_other} rejected on structural rules")


AND_MODEL = """\
1 sort bitvec 1
2 input 1
3 input 1
4 and 1 2 3
5 output 4
"""

UNINITIALIZED_MODEL = """\
1 sort bitvec 4
2 state 1 acc
3 input 1 d
4 add 1 2 3
5 next 1 2 4
6 output 2
"""


def test_criterion_08_btor2_import():
    m = to_prog(parse_btor2(AND_MODEL), "andgate")
    assert [w for _, w in m.inputs] == [1, 1]
    n0, n1 = (name for name, _ in m.inputs)
    for a in (0, 1):
        for b in (0, 1):
            env = env_of_ints({n0: ([a], 1), n1: ([b], 1)})
            assert interp(m.semantics, env, 0, m.semantics.root).value == \
                (a & b)

    lut = load_btor2(packaged_arch_path("frac_lut4.btor2"))
    widths = dict(lut.inputs)
    assert widths == {"in": 4, "mode": 1, "sram": 16}
    rng = random.Random(8)
    for _ in range(10000):
        idx = rng.getrandbits(4)
        sram = rng.getrandbits(16)
        env = env_of_ints({"in": ([idx], 4), "mode": ([rng.getrandbits(1)], 1),
                           "sram": ([sram], 16)})
        got = interp(lut.semantics, env, 0, lut.semantics.root).value
        assert got == (sram >> idx) & 1

    with pytest.raises(MissingInit):
        to_prog(parse_btor2(UNINITIALIZED_MODEL), "acc")
    print("criterion 8 (btor2 import): PASS — AND model exhaustive, "
          "LUT4 model 10^4 samples, MissingInit raised on an "
          "uninitialized state")


def test_criterion_09_netlist_round_trip():
    from sketchmap.emit import from_json_netlist, to_json_netlist
    glc = _arch("generic-lut-carry.yml")
    rng = random.Random(99)
    for trial in range(100):
        p = _random_structural(rng, glc)
        j = to_json_netlist(p)
        p2 = from_json_netlist(j, glc)
        assert to_json_netlist(p2) == j, f"trial {trial}: not stable"
        assert _prim_types(p) == _prim_types(p2), f"trial {trial}"
        assert free_vars(p2) <= free_vars(p), f"trial {trial}"
        vw = var_widths(p)
        for _ in range(100):
            env = env_of_ints({n: ([rng.getrandbits(w)], w)
                               for n, w in vw.items()})
            assert interp(p, env, 0, p.root) == \
                interp(p2, env, 0, p2.root), f"trial {trial}"
    print("criterion 9 (netlist round trip): PASS — 100/100 programs "
          "re-emit byte-identically with matching primitives and agree "
          "on 100 random envs each")


def test_criterion_10_portfolio_with_wedged_backend():
    wedged = SolverConfig(
        "wedged",
        (sys.executable, "-c", "import sys,time; sys.stdin.read(); "
                               "time.sleep(300)"),
        timeout=300.0)
    live = default_portfolio()[0]
    glc = _arch("generic-lut-carry.yml")
    b = ProgBuilder()
    x, y = b.var("a", 1), b.var("b", 1)
    spec = b.prog(b.op("xor", x, y))
    winners = []
    for _ in range(10):
        sketch = generate_sketch("bitwise", glc,
                                 {"width": 1, "inputs": ("a", "b")})
        r = synthesize(spec, sketch, t=0, c=0, timeout=60.0,
                       solvers=[wedged, live])
        assert isinstance(r, Success), "query must resolve despite wedge"
        winners.append(r.solver)
    assert winners == ["builtin"] * 10
    print("criterion 10 (portfolio with wedged backend): PASS — 10/10 "
          "queries resolved, winner was the live backend every time")
