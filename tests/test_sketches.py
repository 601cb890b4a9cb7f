"""Tests for the sketch templates and their per-fabric specialization."""

import random
import tracemalloc

import pytest

from sketchmap import arch
from sketchmap.arch import (NoImplementation, load_arch, packaged_arch_path,
                            parse_arch)
from sketchmap.cegis import Success, synthesize
from sketchmap.ir import (BV, ArityError, BitVec, Prim,
                          ProgBuilder, check_well_formed,
                          substitute_holes, var_widths)
from sketchmap.emit import to_json_netlist, to_structural_verilog
from sketchmap.ir import dump_sexpr, schedule
from sketchmap.portfolio import SolverSession
from sketchmap.sketches import document_params, generate_sketch, list_templates
from sketchmap.specdsl import parse_document
from util_interp import env_of_ints, interp, simulate
from util_progs import copying_assemble_prim


def _sofa():
    return load_arch(packaged_arch_path("sofa.yml"))


def _glc():
    return load_arch(packaged_arch_path("generic-lut-carry.yml"))


def _mdsp():
    return load_arch(packaged_arch_path("minidsp.yml"))


def _lut2_only():
    return parse_arch("""\
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


def _prim_count(prog):
    return sum(isinstance(n, Prim) for n in prog.nodes.values())


def _binop_spec(opname, w, out=None):
    b = ProgBuilder()
    a = b.var("a", w)
    bb = b.var("b", w)
    return b.prog(b.op(opname, a, bb))


def _tt_spec(tt, w):
    """The 2-operand boolean function with truth table tt, applied
    bitwise across w-bit words.  Entry k of tt is the output for
    (b_bit, a_bit) = (k >> 1, k & 1).  Declares a and b even when the
    table ignores them, so the sketch sees the same input signature."""
    b = ProgBuilder()
    a = b.var("a", w)
    bb = b.var("b", w)
    na, nb = b.op("not", a), b.op("not", bb)
    minterms = [(na, nb), (a, nb), (na, bb), (a, bb)]
    picked = [b.op("and", x, y)
              for k, (x, y) in enumerate(minterms) if (tt >> k) & 1]
    if picked:
        root = picked[0]
        for m in picked[1:]:
            root = b.op("or", root, m)
    else:
        root = b.bv(0, w)
    return b.prog(root)


def _tt_apply(tt, av, bv, w):
    out = 0
    for i in range(w):
        k = (((bv >> i) & 1) << 1) | ((av >> i) & 1)
        out |= ((tt >> k) & 1) << i
    return out


def _eval2(prog, av, bv, w):
    env = env_of_ints({"a": ([av], w), "b": ([bv], w)})
    return interp(prog, env, 0, prog.root).value


class TestEnumeration:
    def test_names_and_schemas(self):
        infos = list_templates()
        assert [t.name for t in infos] == [
            "dsp", "bitwise", "bitwise-with-carry", "comparison",
            "multiplication"]
        by_name = {t.name: dict(t.params) for t in infos}
        assert "pipeline_depth" in by_name["dsp"]
        for t in infos:
            assert "width" in by_name[t.name]
            assert "inputs" in by_name[t.name]

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            generate_sketch("carry-ripple", _sofa(), {"width": 2})


class TestParams:
    def test_width_required(self):
        with pytest.raises(ValueError):
            generate_sketch("bitwise", _sofa(), {})

    def test_width_positive_int(self):
        for bad in (0, -3, "8", 2.0, True):
            with pytest.raises(ValueError):
                generate_sketch("bitwise", _sofa(), {"width": bad})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            generate_sketch("bitwise", _sofa(), {"width": 2, "depth": 1})
        with pytest.raises(ValueError):
            generate_sketch("bitwise", _sofa(),
                            {"width": 2, "pipeline_depth": 1})

    def test_duplicate_operand_names(self):
        with pytest.raises(ValueError):
            generate_sketch("bitwise", _sofa(),
                            {"width": 2, "inputs": ("a", "a")})

    def test_dsp_depth_range(self):
        for bad in (-1, 4, "2", None):
            with pytest.raises(ValueError):
                generate_sketch("dsp", _mdsp(),
                                {"width": 8, "pipeline_depth": bad})
        for ok in (0, 1, 2, 3):
            generate_sketch("dsp", _mdsp(),
                            {"width": 8, "pipeline_depth": ok})

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            generate_sketch("bitwise", _sofa(),
                            {"width": 2, "inputs": list("vwxyz")})
        with pytest.raises(ArityError):
            generate_sketch("bitwise-with-carry", _glc(),
                            {"width": 2, "inputs": ("a", "b", "c")})
        with pytest.raises(ArityError):
            generate_sketch("dsp", _mdsp(),
                            {"width": 8, "inputs": ("a",)})
        with pytest.raises(ArityError):
            generate_sketch("dsp", _mdsp(),
                            {"width": 8, "inputs": list("abcde")})


class TestStructure:
    def test_bitwise_on_sofa(self):
        sk = generate_sketch("bitwise", _sofa(), {"width": 8})
        assert _prim_count(sk.psi) == 8
        assert len(sk.holes) == 8
        assert set(sk.holes.values()) == {16}
        assert set(var_widths(sk.psi)) == {"a", "b"}
        # a full assignment must leave a well-formed, hole-free program
        zeros = {lbl: BV(BitVec.of(0, w)) for lbl, w in sk.holes.items()}
        check_well_formed(substitute_holes(sk, zeros))

    def test_bitwise_hole_structure_matches_across_fabrics(self):
        params = {"width": 8, "inputs": ("a", "b")}
        counts, widths = [], []
        for desc in (_sofa(), _glc(), _lut2_only()):
            sk = generate_sketch("bitwise", desc, params)
            counts.append(len(sk.holes))
            widths.append(sorted(sk.holes.values()))
        assert counts == [8, 8, 8]
        assert widths[0] == widths[1] == [16] * 8
        assert widths[2] == [4] * 8      # narrower memories, same structure

    def test_bitwise_with_carry_structure(self):
        w = 4
        sk = generate_sketch("bitwise-with-carry", _glc(), {"width": w})
        # one LUT pair per bit plus the chain's carry-in
        mems = list(sk.holes.values())
        assert sorted(mems) == [1] + [16] * (2 * w)
        ci = [lbl for lbl, w in sk.holes.items() if w == 1]
        assert len(ci) == 1 and ci[0].endswith("_ci")
        assert set(var_widths(sk.psi)) == {"a", "b"}

    def test_comparison_structure(self):
        w = 3
        sk = generate_sketch("comparison", _glc(), {"width": w})
        mems = list(sk.holes.values())
        # pairs, carry-in, and the final carry-out post-LUT
        assert sorted(mems) == [1] + [16] * (2 * w + 1)

    def test_multiplication_structure(self):
        w = 3
        sk = generate_sketch("multiplication", _glc(), {"width": w})
        # surviving partial-product cells: w + (w-1) + ... + 1
        assert len(sk.holes) == w * (w + 1) // 2
        assert set(sk.holes.values()) == {16}

    def test_dsp_on_minidsp(self):
        sk = generate_sketch("dsp", _mdsp(), {"width": 16})
        assert _prim_count(sk.psi) == 1
        suffixes = {lbl.split("_", 1)[1]: w for lbl, w in
                    sk.holes.items()}
        assert suffixes == {"INREG": 1, "MREG": 1, "PREG": 1,
                            "PREADD_EN": 1, "PREADD_SUB": 1, "ALUMODE": 3}
        assert set(var_widths(sk.psi)) == {"a", "b"}
        four = generate_sketch("dsp", _mdsp(),
                               {"width": 8, "inputs": list("abcd")})
        assert set(var_widths(four.psi)) == {"a", "b", "c", "d"}

    def test_dsp_needs_a_dsp(self):
        with pytest.raises(NoImplementation):
            generate_sketch("dsp", _sofa(), {"width": 8})

    def test_lut_templates_need_luts(self):
        for name in ("bitwise", "bitwise-with-carry", "comparison",
                     "multiplication"):
            with pytest.raises(NoImplementation):
                generate_sketch(name, _mdsp(), {"width": 2})

    def test_substituted_sketches_are_well_formed(self):
        rng = random.Random(11)
        cases = [
            ("bitwise", _glc(), {"width": 3}),
            ("bitwise", _lut2_only(), {"width": 3}),
            ("bitwise-with-carry", _glc(), {"width": 3}),
            ("bitwise-with-carry", _sofa(), {"width": 2}),
            ("comparison", _glc(), {"width": 3}),
            ("multiplication", _glc(), {"width": 3}),
            ("dsp", _mdsp(), {"width": 6}),
        ]
        for name, desc, params in cases:
            sk = generate_sketch(name, desc, params)
            for _ in range(3):
                asg = {lbl: BV(BitVec.of(rng.getrandbits(w), w))
                       for lbl, w in sk.holes.items()}
                check_well_formed(substitute_holes(sk, asg))


class TestSynthesis:
    def test_bitwise_realizes_all_two_operand_functions(self):
        w = 2
        desc = _glc()
        sk = generate_sketch("bitwise", desc, {"width": w})
        for tt in range(16):
            res = synthesize(_tt_spec(tt, w), sk, t=0, c=0)
            assert isinstance(res, Success), (tt, res)
            for av in range(1 << w):
                for bv in range(1 << w):
                    assert _eval2(res.program, av, bv, w) == \
                        _tt_apply(tt, av, bv, w), (tt, av, bv)

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("opname", ["add", "sub"])
    def test_bitwise_with_carry_arithmetic(self, w, opname):
        desc = _glc()
        sk = generate_sketch("bitwise-with-carry", desc, {"width": w})
        res = synthesize(_binop_spec(opname, w), sk, t=0, c=0)
        assert isinstance(res, Success), res
        mask = (1 << w) - 1
        ref = (lambda x, y: x + y) if opname == "add" else (lambda x, y: x - y)
        for av in range(1 << w):
            for bv in range(1 << w):
                assert _eval2(res.program, av, bv, w) == \
                    ref(av, bv) & mask, (av, bv)

    def test_bitwise_with_carry_on_lut_only_fabric(self):
        w = 2
        sk = generate_sketch("bitwise-with-carry", _sofa(), {"width": w})
        res = synthesize(_binop_spec("add", w), sk, t=0, c=0)
        assert isinstance(res, Success), res
        for av in range(1 << w):
            for bv in range(1 << w):
                assert _eval2(res.program, av, bv, w) == (av + bv) % 4

    def test_comparison_variants(self):
        w = 3
        desc = _glc()
        sk = generate_sketch("comparison", desc, {"width": w})
        specs = {
            "ult": (_binop_spec("ult", w), lambda x, y: int(x < y)),
            "ugt": (_swapped_ult(w), lambda x, y: int(x > y)),
            "eq": (_binop_spec("eq", w), lambda x, y: int(x == y)),
            "ne": (_ne_spec(w), lambda x, y: int(x != y)),
        }
        for name, (spec, ref) in specs.items():
            res = synthesize(spec, sk, t=0, c=0)
            assert isinstance(res, Success), (name, res)
            for av in range(1 << w):
                for bv in range(1 << w):
                    assert _eval2(res.program, av, bv, w) == ref(av, bv), \
                        (name, av, bv)

    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_multiplication(self, w):
        desc = _glc()
        sk = generate_sketch("multiplication", desc, {"width": w})
        res = synthesize(_binop_spec("mul", w), sk, t=0, c=0, timeout=300.0)
        assert isinstance(res, Success), res
        mask = (1 << w) - 1
        for av in range(1 << w):
            for bv in range(1 << w):
                assert _eval2(res.program, av, bv, w) == (av * bv) & mask

    def test_dsp_multiply(self):
        w = 4
        sk = generate_sketch("dsp", _mdsp(), {"width": w})
        res = synthesize(_binop_spec("mul", w), sk, t=0, c=1, timeout=300.0)
        assert isinstance(res, Success), res
        rng = random.Random(5)
        for _ in range(200):
            av, bv = rng.getrandbits(w), rng.getrandbits(w)
            assert _eval2(res.program, av, bv, w) == (av * bv) & 0xF

    def test_dsp_pipelined_mul_add(self):
        w = 4
        sk = generate_sketch("dsp", _mdsp(),
                             {"width": w, "inputs": ("a", "b", "c"),
                              "pipeline_depth": 1})
        spec = _pipelined_mul_add(w, stages=1)
        res = synthesize(spec, sk, t=1, c=2, timeout=300.0)
        assert isinstance(res, Success), res
        rng = random.Random(6)
        n = 40
        streams = {nm: ([rng.getrandbits(w) for _ in range(n)], w)
                   for nm in ("a", "b", "c")}
        env = env_of_ints(streams)
        want = simulate(spec, env, n)
        got = simulate(res.program, env, n)
        assert got[1:] == want[1:]   # cycle 0 is pipeline fill


def _swapped_ult(w):
    b = ProgBuilder()
    a = b.var("a", w)
    bb = b.var("b", w)
    return b.prog(b.op("ult", bb, a))


def _ne_spec(w):
    b = ProgBuilder()
    a = b.var("a", w)
    bb = b.var("b", w)
    return b.prog(b.op("not", b.op("eq", a, bb)))


def _pipelined_mul_add(w, stages):
    b = ProgBuilder()
    a = b.var("a", w)
    bb = b.var("b", w)
    c = b.var("c", w)
    root = b.op("add", b.op("mul", a, bb), c)
    for _ in range(stages):
        root = b.reg(root, BitVec.of(0, w))
    return b.prog(root)


# -- shared primitive bodies --------------------------------------------------

# one small design per packaged architecture, solved to compare netlists
_ORACLE_DESIGNS = {
    "sofa.yml": ("bitwise", "(spec (inputs (a 2) (b 2)) (xor a b))"),
    "generic-lut-carry.yml": ("bitwise-with-carry",
                              "(spec (inputs (a 2) (b 2)) (add a b))"),
    "minidsp.yml": ("dsp", "(spec (inputs (a 4) (b 4)) (mul a b))"),
}


def _both_ways(desc, template, params, monkeypatch):
    """The sketch with shared bodies, and the same sketch built with a
    relabelled copy of the body per instance."""
    shared = generate_sketch(template, desc, params)
    with monkeypatch.context() as m:
        m.setattr(arch, "_assemble_prim", copying_assemble_prim)
        copied = generate_sketch(template, desc, params)
    return shared, copied


@pytest.mark.parametrize("arch_file", sorted(_ORACLE_DESIGNS))
def test_shared_bodies_read_as_relabelled_copies(arch_file, monkeypatch):
    desc = load_arch(packaged_arch_path(arch_file))
    built = 0
    for info in list_templates():
        for w in (2, 5, 8):
            try:
                shared, copied = _both_ways(desc, info.name, {"width": w},
                                            monkeypatch)
            except (NoImplementation, ArityError):
                continue
            built += 1
            assert dump_sexpr(shared.psi) == dump_sexpr(copied.psi)
            assert list(map(dump_sexpr, shared.side_constraints)) == \
                list(map(dump_sexpr, copied.side_constraints))
            s, c = schedule(shared.psi), schedule(copied.psi)
            assert [i for i, _, _ in s.order] == [i for i, _, _ in c.order]
            assert (s.widths, s.binds, s.regs) == (c.widths, c.binds, c.regs)
    assert built >= 3

    template, text = _ORACLE_DESIGNS[arch_file]
    doc = parse_document(text)
    (w,) = {w for _, w in doc.inputs}
    shared, copied = _both_ways(desc, template,
                                document_params(template, doc, w),
                                monkeypatch)
    with SolverSession() as session:
        res = synthesize(doc.prog, shared, t=doc.pipeline, session=session)
    assert isinstance(res, Success)
    other = substitute_holes(copied, {k: BV(v) for k, v in res.model.items()})
    assert dump_sexpr(res.program) == dump_sexpr(other)
    assert to_structural_verilog(res.program, "top") == \
        to_structural_verilog(other, "top")
    assert to_json_netlist(res.program, "top") == to_json_netlist(other, "top")


def test_instances_share_the_cached_body():
    desc = _glc()
    first = generate_sketch("bitwise-with-carry", desc, {"width": 4})
    by_module = {}
    for n in first.psi.nodes.values():
        if isinstance(n, Prim):
            by_module.setdefault(n.meta.module_name, []).append(n)
    assert {m: len(ps) for m, ps in by_module.items()} == \
        {"lut4": 8, "carry4": 1}
    for module, prims in by_module.items():
        cached = arch._load_model(desc.find_module(module), desc)[0]
        assert all(p.body is cached for p in prims)
    assert len({p.base for ps in by_module.values() for p in ps}) == 9

    # a second build of the same sketch allocates its own top-level
    # nodes but not one body node
    tracemalloc.start()
    try:
        second = generate_sketch("bitwise-with-carry", desc, {"width": 4})
        traced = lambda x: tracemalloc.get_object_traceback(x) is not None
        top = sum(map(traced, second.psi.nodes.values()))
        body = sum(traced(x) for n in second.psi.nodes.values()
                   if isinstance(n, Prim)
                   for x in (n.body, n.body.nodes, *n.body.nodes.values()))
    finally:
        tracemalloc.stop()
    assert top > 0
    assert body == 0
