"""Architecture descriptions: schema, instantiation, interface lowering."""

import random

import pytest

from sketchmap.arch import (
    ArchDescription, CarryFromLuts, Direct, DspFromLarger, HoleNamer,
    LutFromLarger, LutFromSmaller, ModelLoadError, MuxFromLut,
    NoImplementation, SchemaError, UnknownInterface, WidthMismatch,
    instantiate, load_arch, lower_interface, packaged_arch_path,
    parse_arch, parse_value_expr,
)
from sketchmap.cegis import Success, Unsat, synthesize
from sketchmap.interp import Stream, interp
from sketchmap.ir import (
    BV, BitVec, ConstantHole, Hole, Operator, Prim, ProgBuilder, Sketch, Var,
    WidthError, check_well_formed, dump_sexpr, substitute_holes,
)
from sketchmap.primitives import (
    carry_interface, dsp_interface, lut_interface, mux_interface,
)
from sketchmap.sketches import generate_sketch
from sketchmap.specdsl import ParseError, parse_spec


def _bv(v, w):
    return BitVec.of(v, w)


def _sofa():
    return load_arch(packaged_arch_path("sofa.yml"))


def _glc():
    return load_arch(packaged_arch_path("generic-lut-carry.yml"))


def _mdsp():
    return load_arch(packaged_arch_path("minidsp.yml"))


def _run_plan(plan, in_widths, assigns, arch, hole_values=None,
              pin_table=None):
    """Build a one-plan program over Vars and evaluate it at cycle 0."""
    b = ProgBuilder()
    ids = {n: b.var(n, w) for n, w in in_widths.items()}
    r = plan.build(b, ids, HoleNamer(), arch, pin_table)
    outs = dict(r.outputs)
    root = outs["O"] if "O" in outs else next(iter(outs.values()))
    if len(outs) > 1:
        root = b.concat_all([outs[k] for k in sorted(outs)])
    p = b.prog(root)
    if r.holes:
        p = substitute_holes(
            Sketch(p, r.holes),
            {k: BV(_bv(hole_values[k], v.width))
             for k, v in r.holes.items()})
    else:
        check_well_formed(p)
    env = {n: Stream((_bv(assigns[n], w),)) for n, w in in_widths.items()}
    return interp(p, env, 0, p.root).value, r


class TestParsing:
    def test_sofa_document(self):
        arch = _sofa()
        assert arch.name == "sofa"
        assert len(arch.implementations) == 1
        impl = arch.implementations[0]
        assert impl.interface == lut_interface(4)
        assert impl.internal_map == {"sram": 16}
        assert impl.module_name == "frac_lut4"
        assert impl.source[0] == "btor2"
        assert impl.port("mode").value == ["bv", "0", "1"]
        assert impl.outputs == (("O", "out"),)   # "0" key canonicalized
        assert impl.port("in").value == ["concat", "I3", "I2", "I1", "I0"]
        assert impl.parameters == (("sram", "sram"),)

    def test_generic_lut_carry_document(self):
        arch = _glc()
        assert len(arch.find_family("CARRY")) == 8
        assert arch.find(carry_interface(5)) is not None
        assert arch.find(lut_interface(4)) is not None

    def test_minidsp_document(self):
        arch = _mdsp()
        impl = arch.find(dsp_interface(18))
        assert impl is not None
        assert impl.internal_map["ALUMODE"] == 3
        assert impl.port("clk").value is None

    def test_duplicate_rejected(self):
        text = _sofa_text()
        dup = text + text.split("implementations:\n")[1]
        with pytest.raises(SchemaError):
            parse_arch(dup)

    def test_unknown_interface(self):
        with pytest.raises(UnknownInterface):
            parse_arch(_sofa_text().replace("name: LUT", "name: FOO"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            parse_arch(_sofa_text().replace("name: sofa",
                                            "name: sofa\nextra: 1"))
        with pytest.raises(SchemaError):
            parse_arch(_sofa_text().replace(
                "module_name: frac_lut4",
                "module_name: frac_lut4\n    vendor: acme"))

    def test_width_mismatch_in_value(self):
        with pytest.raises(WidthMismatch):
            parse_arch(_sofa_text().replace("(concat I3 I2 I1 I0)",
                                            "(concat I1 I0)"))

    def test_unconsumed_interface_input(self):
        with pytest.raises(SchemaError) as e:
            parse_arch(_sofa_text().replace("(concat I3 I2 I1 I0)",
                                            "(concat I3 I2 I1 I1)"))
        assert "never consumed" in str(e.value)

    def test_outputs_must_be_total(self):
        text = _glc_carry2_text().replace("outputs: {O: O, CO: CO}",
                                          "outputs: {O: O}")
        with pytest.raises(SchemaError):
            parse_arch(text)

    def test_expression_grammar(self):
        assert parse_value_expr("I0", "t") == "I0"
        assert parse_value_expr("(bv 10 4)", "t") == ["bv", "10", "4"]
        e = parse_value_expr("(extract 3 1 (concat A B))", "t")
        assert e == ["extract", "3", "1", ["concat", "A", "B"]]
        with pytest.raises(SchemaError):
            parse_value_expr("A B", "t")
        # names, (bv v w), concat and extract are checked when the
        # description loads: a bare number and any other head fail there
        good = "(extract 4 1 (concat I3 I2 I1 I0 (bv 0 1)))"
        parse_arch(_sofa_text().replace("(concat I3 I2 I1 I0)", good))
        for bad in ("(concat I3 I2 I1 42)", "(concat I3 I2 I1 (shuffle I0))"):
            with pytest.raises(SchemaError):
                parse_arch(_sofa_text().replace("(concat I3 I2 I1 I0)", bad))

    def test_constraints_schema(self):
        text = _sofa_text().replace(
            "outputs: {0: out}",
            "outputs: {0: out}\n    constraints:\n"
            "      - (extract 0 0 sram)")
        arch = parse_arch(text)
        assert arch.implementations[0].constraints == \
            (["extract", "0", "0", "sram"],)
        bad = text.replace("(extract 0 0 sram)", "(extract 1 0 sram)")
        with pytest.raises(SchemaError):
            parse_arch(bad)
        bad2 = text.replace("(extract 0 0 sram)", "(extract 0 0 I0)")
        with pytest.raises(SchemaError):
            parse_arch(bad2)


class TestInstantiate:
    def test_sofa_lut4(self):
        arch = _sofa()
        impl = arch.implementations[0]
        b = ProgBuilder()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(4)}
        r = instantiate(impl, b, ids, HoleNamer(), arch)
        assert set(r.holes) == {"u0_sram"}
        assert r.holes["u0_sram"].width == 16
        p = b.prog(r.outputs["O"])
        prim = next(n for n in p.nodes.values() if isinstance(n, Prim))
        assert prim.meta.module_name == "frac_lut4"
        assert prim.meta.param_map() == {"sram": "sram"}
        assert dict(prim.binds).keys() == {"in", "mode", "sram"}
        solved = substitute_holes(Sketch(p, r.holes),
                                  {"u0_sram": BV(_bv(0x8000, 16))})
        for pat in range(16):
            env = {f"I{i}": Stream((_bv((pat >> i) & 1, 1),))
                   for i in range(4)}
            got = interp(solved, env, 0, solved.root).value
            assert got == (1 if pat == 15 else 0)

    def test_two_instances_get_disjoint_labels(self):
        arch = _sofa()
        impl = arch.implementations[0]
        b = ProgBuilder()
        namer = HoleNamer()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(4)}
        r1 = instantiate(impl, b, ids, namer, arch)
        r2 = instantiate(impl, b, ids, namer, arch)
        assert set(r1.holes) == {"u0_sram"}
        assert set(r2.holes) == {"u1_sram"}
        check_well_formed(b.prog(r2.outputs["O"]))  # bodies relabeled

    def test_pinned_memory(self):
        arch = _sofa()
        impl = arch.implementations[0]
        b = ProgBuilder()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(4)}
        r = instantiate(impl, b, ids, HoleNamer(), arch,
                        pinned={"sram": _bv(0x6, 16)})
        assert not r.holes
        p = b.prog(r.outputs["O"])
        check_well_formed(p)
        env = {f"I{i}": Stream((_bv(1 if i == 0 else 0, 1),))
               for i in range(4)}
        assert interp(p, env, 0, p.root).value == 1  # bit 1 of 0b0110

    def test_constraint_labels_are_prefixed(self):
        text = _sofa_text().replace(
            "outputs: {0: out}",
            "outputs: {0: out}\n    constraints:\n"
            "      - (extract 0 0 sram)")
        arch = parse_arch(text, base_dir=_sofa().base_dir)
        b = ProgBuilder()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(4)}
        r = instantiate(arch.implementations[0], b, ids, HoleNamer(), arch)
        (c,) = r.constraints
        root = c.nodes[c.root]
        assert root.op == Operator("extract", (0, 0)) and len(c.nodes) == 2
        assert c.nodes[root.args[0]] == Hole("u0_sram", ConstantHole(16))

    def test_missing_model_file(self):
        text = _sofa_text().replace("frac_lut4.btor2", "missing.btor2")
        arch = parse_arch(text, base_dir="/nonexistent")
        b = ProgBuilder()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(4)}
        with pytest.raises(ModelLoadError):
            instantiate(arch.implementations[0], b, ids, HoleNamer(), arch)

    def test_carry_instance_packs_two_outputs(self):
        arch = _glc()
        impl = arch.find(carry_interface(3))
        b = ProgBuilder()
        ids = {"DI": b.var("DI", 3), "S": b.var("S", 3),
               "CI": b.var("CI", 1)}
        r = instantiate(impl, b, ids, HoleNamer(), arch)
        assert set(r.outputs) == {"O", "CO"}
        p = b.prog(b.concat(r.outputs["CO"], r.outputs["O"]))
        check_well_formed(p)
        prim = next(n for n in p.nodes.values() if isinstance(n, Prim))
        assert prim.meta.output_slices == (("CO", 3, 3), ("O", 2, 0))
        for a in range(8):
            for bval in range(8):
                env = {"DI": Stream((_bv(a, 3),)),
                       "S": Stream((_bv(a ^ bval, 3),)),
                       "CI": Stream((_bv(0, 1),))}
                got = interp(p, env, 0, p.root).value
                assert got == a + bval


def _sofa_constrained(expr):
    text = _sofa_text().replace(
        "outputs: {0: out}",
        f"outputs: {{0: out}}\n    constraints:\n      - {expr}")
    return parse_arch(text, base_dir=_sofa().base_dir)


class TestConstraints:
    """Architecture constraints through generate_sketch, build_query and
    CEGIS; bitwise-with-carry pins the carry chain's LUTs."""

    SPEC = "(spec (inputs (a 3) (b 3)) (add a b))"

    def _map(self, expr):
        sketch = generate_sketch("bitwise-with-carry", _sofa_constrained(expr),
                                 {"width": 3, "inputs": ("a", "b")})
        return sketch, synthesize(parse_spec(self.SPEC), sketch, t=0, c=0)

    def test_constraint_holds_on_every_free_memory(self):
        # bit 1 is set in both pinned tables (0x06 and 0xca)
        sketch, r = self._map("(extract 1 1 sram)")
        assert isinstance(r, Success)
        srams = [v for k, v in r.model.items() if k.endswith("_sram")]
        assert len(srams) == 6 and all(v.bit(1) for v in srams)
        assert len(sketch.side_constraints) > len(srams)  # pinned ones too

    def test_pinned_memory_can_break_a_constraint(self):
        # bit 15 is clear in every pinned table
        _, r = self._map("(extract 15 15 sram)")
        assert isinstance(r, Unsat)


def test_model_output_width_checked_on_load(tmp_path):
    """A btor2 model whose root is wider than the interface's output is
    rejected when it loads, not when synthesis compares the widths."""
    src = packaged_arch_path("frac_lut4.btor2")
    with open(src, encoding="utf-8") as f:
        btor = f.read()
    assert "9 slice 2 8 0 0\n" in btor
    (tmp_path / "frac_lut4.btor2").write_text(
        btor.replace("9 slice 2 8 0 0\n", "9 slice 1 8 3 0\n"))
    (tmp_path / "sofa.yml").write_text(_sofa_text())
    arch = load_arch(str(tmp_path / "sofa.yml"))
    with pytest.raises(WidthMismatch, match="frac_lut4.*4 bits"):
        generate_sketch("bitwise", arch, {"width": 1, "inputs": ("a", "b")})


def test_models_load_once_per_implementation(monkeypatch):
    """instantiate reads each btor2 model once per architecture; sharing
    it leaves the sketch exactly as a build that reads it every time."""
    import sketchmap.arch as arch_mod
    import sketchmap.btor2 as btor2
    reads = []
    real = btor2.load_btor2

    def counting(path, *args, **kwargs):
        reads.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(btor2, "load_btor2", counting)
    params = {"width": 8, "inputs": ("a", "b")}
    sofa = _sofa()
    cached = generate_sketch("bitwise-with-carry", sofa, params)
    again = generate_sketch("bitwise-with-carry", sofa, params)
    btor_impls = [i for i in sofa.implementations if i.source[0] == "btor2"]
    assert reads and len(reads) == len(set(reads)) <= len(btor_impls)

    monkeypatch.setattr(arch_mod, "_load_model", arch_mod._read_model)
    plain = generate_sketch("bitwise-with-carry", _sofa(), params)
    assert len(reads) > len(btor_impls)     # really read on every use
    for sketch in (cached, again):
        assert dump_sexpr(sketch.psi) == dump_sexpr(plain.psi)
        assert sketch.holes == plain.holes
        assert [dump_sexpr(c) for c in sketch.side_constraints] == \
            [dump_sexpr(c) for c in plain.side_constraints]


def test_instances_of_one_implementation_share_their_emit_meta():
    sketch = generate_sketch("bitwise", _sofa(),
                             {"width": 2, "inputs": ("a", "b")})
    first, second = [n for _, n in sketch.psi if isinstance(n, Prim)]
    assert first.meta.module_name == second.meta.module_name == "frac_lut4"
    assert first.meta is second.meta


def _tree(nodes, i):
    """The expression under node i, for comparing node structure."""
    n = nodes[i]
    if isinstance(n, Var):
        return n.name
    return (str(n.op),) + tuple(_tree(nodes, a) for a in n.args)


# Expressions in both the spec language and architecture value expressions:
# (expression, error a spec document raises or None).  On minidsp's A port
# (18 bits) a value expression must fail, with SchemaError, exactly when
# the spec does, and otherwise build the same nodes.
_SHARED = [
    ("A", None),
    ("(concat (extract 8 0 A) (extract 17 9 B))", None),
    ("(concat (extract 5 0 A) (extract 5 0 B) (extract 5 0 C))", None),
    ("(extract 17 0 (concat A (extract 3 0 D)))", None),
    ("(extract 18 0 A)", WidthError),
    ("(extract 1 2 A)", WidthError),
    ("(concat A)", ParseError),
    ("(extract 0 A)", ParseError),
    ("(extract x 0 A)", ParseError),
    ("(shuffle A)", ParseError),
    ("(concat A Z)", ParseError),
    ("()", ParseError),
    ("42", ParseError),
]


@pytest.mark.parametrize("expr,spec_error", _SHARED)
def test_value_expressions_are_spec_expressions(expr, spec_error):
    doc = "(spec (inputs (A 18) (B 18) (C 18) (D 18)) " + expr + ")"
    text = open(packaged_arch_path("minidsp.yml")).read().replace(
        "value: A}", "value: " + expr + "}")
    if spec_error is not None:
        with pytest.raises(spec_error):
            parse_spec(doc)
        with pytest.raises(SchemaError):
            parse_arch(text)
        return
    prog = parse_spec(doc)
    arch = parse_arch(text, base_dir=_mdsp().base_dir)
    b = ProgBuilder()
    ids = {n: b.var(n, 18) for n in "ABCD"}
    instantiate(arch.implementations[0], b, ids, HoleNamer(), arch)
    (prim,) = (n for n in b.nodes.values() if isinstance(n, Prim))
    assert _tree(b.nodes, prim.bind_map()["A"]) == \
        _tree(prog.nodes, prog.root)


class TestLowering:
    def test_direct(self):
        plan = lower_interface(lut_interface(4), _sofa())
        assert isinstance(plan, Direct)

    def test_lut2_from_lut4_exhaustive(self):
        arch = _sofa()
        plan = lower_interface(lut_interface(2), arch)
        assert isinstance(plan, LutFromLarger)
        for mem in range(16):
            for pat in range(4):
                got, _ = _run_plan(
                    plan, {"I0": 1, "I1": 1},
                    {"I0": pat & 1, "I1": (pat >> 1) & 1}, arch,
                    pin_table=mem)
                assert got == (mem >> pat) & 1, (mem, pat)

    def test_lut2_from_lut4_with_hole(self):
        arch = _sofa()
        plan = lower_interface(lut_interface(2), arch)
        for mem in (0b0110, 0b1000):
            for pat in range(4):
                b = ProgBuilder()
                ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(2)}
                r = plan.build(b, ids, HoleNamer(), arch, None)
                (label,) = r.holes
                p = substitute_holes(Sketch(b.prog(r.outputs["O"]),
                                            r.holes),
                                     {label: BV(_bv(mem, 16))})
                env = {f"I{i}": Stream((_bv((pat >> i) & 1, 1),))
                       for i in range(2)}
                assert interp(p, env, 0, p.root).value == (mem >> pat) & 1

    def test_mux2_from_sofa(self):
        arch = _sofa()
        plan = lower_interface(mux_interface(2), arch)
        assert isinstance(plan, MuxFromLut)
        for s in (0, 1):
            for a in (0, 1):
                for c in (0, 1):
                    got, _ = _run_plan(
                        plan, {"I0": 1, "I1": 1, "S0": 1},
                        {"I0": a, "I1": c, "S0": s}, arch)
                    assert got == (c if s else a)

    def test_mux4_tree(self):
        arch = _sofa()
        plan = lower_interface(mux_interface(4), arch)
        rng = random.Random(2)
        for sel in range(4):
            data = [rng.getrandbits(1) for _ in range(4)]
            assigns = {f"I{i}": data[i] for i in range(4)}
            assigns.update({"S0": sel & 1, "S1": sel >> 1})
            got, _ = _run_plan(
                plan, {**{f"I{i}": 1 for i in range(4)},
                       "S0": 1, "S1": 1}, assigns, arch)
            assert got == data[sel]

    def test_carry_from_luts_exhaustive(self):
        arch = _sofa()
        plan = lower_interface(carry_interface(3), arch)
        assert isinstance(plan, CarryFromLuts)
        for a in range(8):
            for bval in range(8):
                for ci in (0, 1):
                    got, r = _run_plan(
                        plan, {"DI": 3, "S": 3, "CI": 1},
                        {"DI": a, "S": a ^ bval, "CI": ci}, arch)
                    assert not r.holes      # all memories pinned
                    total = a + bval + ci
                    # root = concat(CO, O): CO high bit
                    assert got == total, (a, bval, ci)

    def test_lut3_from_lut2_only_arch(self):
        arch = parse_arch(_lut2_only_text())
        plan = lower_interface(lut_interface(3), arch)
        assert isinstance(plan, LutFromSmaller)
        rng = random.Random(4)
        tables = [rng.getrandbits(8) for _ in range(40)] + [0, 255, 0x96]
        for table in tables:
            for pat in range(8):
                got, r = _run_plan(
                    plan, {f"I{i}": 1 for i in range(3)},
                    {f"I{i}": (pat >> i) & 1 for i in range(3)}, arch,
                    pin_table=table)
                assert got == (table >> pat) & 1, (table, pat)

    def test_lut3_from_lut2_hole_structure(self):
        arch = parse_arch(_lut2_only_text())
        plan = lower_interface(lut_interface(3), arch)
        b = ProgBuilder()
        ids = {f"I{i}": b.var(f"I{i}", 1) for i in range(3)}
        r = plan.build(b, ids, HoleNamer(), arch, None)
        # two free 4-bit half-memories; the combining mux is pinned
        assert sorted(h.width for h in r.holes.values()) == [4, 4]

    def test_dsp_from_larger(self):
        arch = _mdsp()
        plan = lower_interface(dsp_interface(8), arch)
        assert isinstance(plan, DspFromLarger)
        b = ProgBuilder()
        ids = {n: b.var(n, 8) for n in "ABCD"}
        r = plan.build(b, ids, HoleNamer(), arch, None)
        assert {lbl.split("_", 1)[1] for lbl in r.holes} == \
            {"INREG", "MREG", "PREG", "PREADD_EN", "PREADD_SUB", "ALUMODE"}
        cfg = {"INREG": 0, "MREG": 0, "PREG": 0, "PREADD_EN": 1,
               "PREADD_SUB": 1, "ALUMODE": 0}
        assignment = {lbl: BV(_bv(cfg[lbl.split("_", 1)[1]], spec.width))
                      for lbl, spec in r.holes.items()}
        p = substitute_holes(Sketch(b.prog(r.outputs["out"]), r.holes),
                             assignment)
        rng = random.Random(8)
        for _ in range(100):
            a, bb, c, d = (rng.getrandbits(8) for _ in range(4))
            env = {n: Stream((_bv(v, 8),))
                   for n, v in zip("ABCD", (a, bb, c, d))}
            got = interp(p, env, 0, p.root).value
            assert got == ((((a - d) & 255) * bb) + c) & 255

    def test_no_implementation(self):
        with pytest.raises(NoImplementation):
            lower_interface(dsp_interface(8), _sofa())
        with pytest.raises(NoImplementation):
            lower_interface(lut_interface(2), _mdsp())
        with pytest.raises(NoImplementation):
            lower_interface(carry_interface(4), _mdsp())
        # a DSP wider than anything the fabric offers cannot be padded up
        with pytest.raises(NoImplementation):
            lower_interface(dsp_interface(19), _mdsp())
        with pytest.raises(NoImplementation):
            lower_interface(dsp_interface(18), _sofa())


def _sofa_text():
    with open(packaged_arch_path("sofa.yml")) as f:
        return f.read()


def _glc_carry2_text():
    return """\
implementations:
  - interface: {name: CARRY, width: 2}
    module_name: carry2
    source: {builtin: carry}
    ports:
      - {name: DI, direction: in, width: 2, value: DI}
      - {name: S, direction: in, width: 2, value: S}
      - {name: CI, direction: in, width: 1, value: CI}
      - {name: O, direction: out, width: 2}
      - {name: CO, direction: out, width: 1}
    outputs: {O: O, CO: CO}
"""


def _lut2_only_text():
    return """\
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
"""
