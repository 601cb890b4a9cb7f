"""Tests for structural Verilog and JSON netlist emission."""

import json
import random

import pytest

from sketchmap.arch import (HoleNamer, NoImplementation, instantiate,
                            load_arch, packaged_arch_path)
from sketchmap.emit import (JsonSchemaError, NotStructural,
                            from_json_netlist, to_json_netlist,
                            to_structural_verilog)
from sketchmap.ir import (BV, BitVec, Prim, ProgBuilder, substitute_holes,
                          var_widths)
from sketchmap.primitives import carry_interface, lut_interface
from sketchmap.sketches import generate_sketch, list_templates
from util_interp import env_of_ints, interp, simulate


def _sofa():
    return load_arch(packaged_arch_path("sofa.yml"))


def _glc():
    return load_arch(packaged_arch_path("generic-lut-carry.yml"))


def _mdsp():
    return load_arch(packaged_arch_path("minidsp.yml"))


def _single_lut(table=0x8000, arch=None):
    arch = arch or _sofa()
    impl = arch.implementations[0]
    b = ProgBuilder()
    ins = {f"I{i}": b.var(f"x{i}", 1) for i in range(4)}
    r = instantiate(impl, b, ins, HoleNamer(), arch,
                    pinned={"sram": BitVec.of(table, 16)})
    return b.prog(r["O"]), arch


def _carry_program(w=3):
    arch = _glc()
    impl = arch.find(carry_interface(w))
    b = ProgBuilder()
    di, s = b.var("di", w), b.var("s", w)
    ci = b.var("ci", 1)
    r = instantiate(impl, b, {"DI": di, "S": s, "CI": ci}, HoleNamer(), arch)
    root = b.concat(r["CO"], r["O"])
    return b.prog(root), arch


def _dsp_program(cfg=None):
    arch = _mdsp()
    impl = arch.implementations[0]
    cfg = cfg or {"INREG": 1, "MREG": 0, "PREG": 1, "PREADD_EN": 1,
                  "PREADD_SUB": 0, "ALUMODE": 0}
    pinned = {k: BitVec.of(v, 3 if k == "ALUMODE" else 1)
              for k, v in cfg.items()}
    b = ProgBuilder()
    ins = {n: b.var(n.lower(), 18) for n in "ABCD"}
    r = instantiate(impl, b, ins, HoleNamer(), arch, pinned=pinned)
    return b.prog(r["out"]), arch


class TestVerilog:
    def test_single_lut_instance(self):
        p, _ = _single_lut()
        text = to_structural_verilog(p, "one_lut")
        assert text.startswith("module one_lut (")
        assert ".sram(16'h8000)" in text
        assert "frac_lut4 #(" in text
        # the lut's packed input bus is a concat of the four input bits
        assert text.count("input wire [0:0] x") == 4
        assert "output wire [0:0] out" in text
        assert text.endswith("endmodule\n")

    def test_deterministic_bytes(self):
        p, _ = _single_lut()
        assert to_structural_verilog(p, "m") == to_structural_verilog(p, "m")

    def test_passthrough(self):
        b = ProgBuilder()
        a = b.var("a", 4)
        text = to_structural_verilog(b.prog(a), "wirepass")
        assert "assign out = a;" in text
        assert "input wire [3:0] a" in text

    def test_not_structural_op(self):
        b = ProgBuilder()
        a = b.var("a", 4)
        p = b.prog(b.op("add", a, a))
        with pytest.raises(NotStructural):
            to_structural_verilog(p, "m")

    def test_not_structural_reg(self):
        b = ProgBuilder()
        a = b.var("a", 4)
        p = b.prog(b.reg(a, BitVec.of(0, 4)))
        with pytest.raises(NotStructural):
            to_structural_verilog(p, "m")

    def test_not_structural_hole(self):
        b = ProgBuilder()
        p = b.prog(b.hole("h", 4))
        with pytest.raises(NotStructural):
            to_structural_verilog(p, "m")

    def test_reserved_input_names(self):
        for bad in ("out", "clk", "n17", "3x", "u0", "u12"):
            b = ProgBuilder()
            a = b.var(bad, 2)
            with pytest.raises(ValueError):
                to_structural_verilog(b.prog(a), "m")

    def test_carry_output_slices(self):
        p, _ = _carry_program(3)
        text = to_structural_verilog(p, "adder")
        prim = next(i for i, n in p.nodes.items() if isinstance(n, Prim))
        assert f".O(n{prim}[2:0])" in text
        assert f".CO(n{prim}[3])" in text
        assert "carry3 u0 (" in text

    def test_dsp_clock(self):
        p, _ = _dsp_program()
        text = to_structural_verilog(p, "mac")
        assert "input wire clk" in text
        assert ".clk(clk)" in text
        assert ".ALUMODE(3'h0)" in text
        assert "minidsp18 #(" in text

    def test_wiring_renders(self):
        b = ProgBuilder()
        a = b.var("a", 3)
        z = b.zext(2, a)
        s = b.op("sign_extend", a, params=(1,))
        c = b.concat(z, s)
        e = b.extract(6, 2, c)
        text = to_structural_verilog(b.prog(e), "wires")
        assert "{2'h0, a}" in text
        assert "{{1{a[2]}}, a}" in text
        assert "[6:2]" in text


class TestJsonEmission:
    def test_lut_parameters_binary(self):
        p, _ = _single_lut(table=0x8000)
        doc = json.loads(to_json_netlist(p))
        mod = doc["modules"]["top"]
        (cell,) = mod["cells"].values()
        assert cell["type"] == "frac_lut4"
        assert cell["parameters"]["sram"] == "1000000000000000"
        assert len(cell["parameters"]["sram"]) == 16
        assert cell["port_directions"]["out"] == "output"
        assert len(cell["connections"]["in"]) == 4

    def test_ports_and_netnames(self):
        p, _ = _carry_program(2)
        doc = json.loads(to_json_netlist(p, "adder"))
        mod = doc["modules"]["adder"]
        assert set(mod["ports"]) == {"di", "s", "ci", "out"}
        assert mod["ports"]["out"]["direction"] == "output"
        assert len(mod["ports"]["out"]["bits"]) == 3
        (cell,) = mod["cells"].values()
        assert len(cell["connections"]["O"]) == 2
        assert len(cell["connections"]["CO"]) == 1
        assert "u0" in mod["netnames"]

    def test_constant_connection_bits(self):
        arch = _glc()
        impl = arch.find(lut_interface(4))
        b = ProgBuilder()
        ins = {"I0": b.var("a", 1), "I1": b.bv(1, 1), "I2": b.bv(0, 1),
               "I3": b.bv(0, 1)}
        r = instantiate(impl, b, ins, HoleNamer(), arch,
                        pinned={"sram": BitVec.of(0xAAAA, 16)})
        doc = json.loads(to_json_netlist(b.prog(r["O"])))
        (cell,) = doc["modules"]["top"]["cells"].values()
        assert cell["connections"]["I1"] == ["1"]
        assert cell["connections"]["I2"] == ["0"]

    def test_clk_port(self):
        p, _ = _dsp_program()
        doc = json.loads(to_json_netlist(p))
        mod = doc["modules"]["top"]
        assert mod["ports"]["clk"] == {"direction": "input",
                                       "bits": mod["ports"]["clk"]["bits"]}
        (cell,) = mod["cells"].values()
        assert cell["connections"]["clk"] == mod["ports"]["clk"]["bits"]


class TestRoundTrip:
    def test_lut_byte_identical(self):
        p, arch = _single_lut()
        j1 = to_json_netlist(p)
        p2 = from_json_netlist(j1, arch)
        assert to_json_netlist(p2) == j1

    def test_carry_semantics(self):
        p, arch = _carry_program(3)
        p2 = from_json_netlist(to_json_netlist(p), arch)
        for di in range(8):
            for s in range(8):
                for ci in range(2):
                    env = env_of_ints({"di": ([di], 3), "s": ([s], 3),
                                       "ci": ([ci], 1)})
                    assert interp(p, env, 0, p.root) == \
                        interp(p2, env, 0, p2.root)

    def test_dsp_sequential_semantics(self):
        p, arch = _dsp_program()
        j1 = to_json_netlist(p)
        p2 = from_json_netlist(j1, arch)
        assert to_json_netlist(p2) == j1
        rng = random.Random(3)
        n = 30
        streams = {nm: ([rng.getrandbits(18) for _ in range(n)], 18)
                   for nm in "abcd"}
        env = env_of_ints(streams)
        assert simulate(p, env, n) == simulate(p2, env, n)

    def test_random_structural_programs(self):
        arch = _glc()
        rng = random.Random(20)
        for trial in range(40):
            p = _random_structural(rng, arch)
            j1 = to_json_netlist(p)
            p2 = from_json_netlist(j1, arch)
            assert to_json_netlist(p2) == j1, trial
            # primitive multiset survives
            assert _prim_types(p) == _prim_types(p2)
            vw = {i.name: i.width for i in p.nodes.values()
                  if type(i).__name__ == "Var"}
            for _ in range(25):
                env = env_of_ints({nm: ([rng.getrandbits(w)], w)
                                   for nm, w in vw.items()})
                assert interp(p, env, 0, p.root) == \
                    interp(p2, env, 0, p2.root), trial


def test_module_names_are_refused_in_both_formats():
    # a module may not instantiate itself
    p, _ = _single_lut()
    for emit in (to_structural_verilog, to_json_netlist):
        with pytest.raises(ValueError, match="cell it instantiates"):
            emit(p, "frac_lut4")
        with pytest.raises(ValueError, match="bad module name"):
            emit(p, "bad name")
    # a cell's instance name is no module type
    doc = json.loads(to_json_netlist(p, "u0"))
    assert doc["modules"]["u0"]["cells"]["u0"]["type"] == "frac_lut4"


@pytest.mark.parametrize("template", [t.name for t in list_templates()])
def test_every_packaged_sketch_round_trips(template):
    """Every sketch the template makes on a packaged architecture at
    widths 2, 5 and 8, its holes filled at random, re-emits the same JSON
    after import and simulates the same."""
    rng = random.Random(template)
    made = 0
    for name in ("generic-lut-carry.yml", "sofa.yml", "minidsp.yml"):
        arch = load_arch(packaged_arch_path(name))
        for w in (2, 5, 8):
            try:
                sketch = generate_sketch(template, arch, {"width": w})
            except NoImplementation:
                continue
            made += 1
            p = substitute_holes(sketch, {
                label: BV(BitVec.of(rng.getrandbits(hw), hw))
                for label, hw in sketch.holes.items()})
            j1 = to_json_netlist(p)
            p2 = from_json_netlist(j1, arch)
            assert to_json_netlist(p2) == j1, (name, w)
            n = 6
            env = env_of_ints({nm: ([rng.getrandbits(vw) for _ in range(n)],
                                    vw) for nm, vw in var_widths(p).items()})
            assert simulate(p, env, n) == simulate(p2, env, n), (name, w)
    assert made


class TestImportErrors:
    def _doc(self):
        p, arch = _single_lut()
        return json.loads(to_json_netlist(p)), arch

    def _expect_error(self, doc, arch, fragment):
        with pytest.raises(JsonSchemaError) as e:
            from_json_netlist(json.dumps(doc), arch)
        assert fragment in str(e.value), e.value

    def test_garbage(self):
        with pytest.raises(JsonSchemaError):
            from_json_netlist("{not json", _sofa())
        with pytest.raises(JsonSchemaError):
            from_json_netlist('["list"]', _sofa())

    def test_module_count(self):
        doc, arch = self._doc()
        doc["modules"]["second"] = doc["modules"]["top"]
        self._expect_error(doc, arch, "exactly one module")
        self._expect_error({"modules": {}}, arch, "exactly one module")

    def test_unknown_cell_type(self):
        doc, arch = self._doc()
        (cell,) = doc["modules"]["top"]["cells"].values()
        cell["type"] = "mystery"
        self._expect_error(doc, arch, "unknown type")

    def test_unknown_type_wrong_arch(self):
        p, _ = _single_lut()
        with pytest.raises(JsonSchemaError):
            from_json_netlist(to_json_netlist(p), _mdsp())

    def test_parameter_shape(self):
        doc, arch = self._doc()
        (cell,) = doc["modules"]["top"]["cells"].values()
        cell["parameters"]["sram"] = "1010"          # wrong width
        self._expect_error(doc, arch, "binary string")
        cell["parameters"] = {}                      # missing entirely
        self._expect_error(doc, arch, "parameters")

    def test_connection_mismatch(self):
        doc, arch = self._doc()
        (cell,) = doc["modules"]["top"]["cells"].values()
        del cell["connections"]["mode"]
        self._expect_error(doc, arch, "do not match")

    def test_double_driver(self):
        doc, arch = self._doc()
        mod = doc["modules"]["top"]
        first = mod["ports"]["x0"]["bits"][0]
        mod["ports"]["x1"]["bits"] = [first]
        self._expect_error(doc, arch, "driven twice")

    def test_undriven_net(self):
        doc, arch = self._doc()
        mod = doc["modules"]["top"]
        mod["ports"]["out"]["bits"] = [999]
        self._expect_error(doc, arch, "never driven")

    def test_output_port_count(self):
        doc, arch = self._doc()
        mod = doc["modules"]["top"]
        mod["ports"]["out2"] = mod["ports"]["out"]
        self._expect_error(doc, arch, "exactly one output")
        del mod["ports"]["out"]
        del mod["ports"]["out2"]
        self._expect_error(doc, arch, "exactly one output")

    def test_cycle_detected(self):
        arch = _glc()
        impl = arch.find(lut_interface(4))
        b = ProgBuilder()
        ins = {f"I{i}": b.var(f"x{i}", 1) for i in range(4)}
        r1 = instantiate(impl, b, ins, HoleNamer(), arch,
                         pinned={"sram": BitVec.of(1, 16)})
        ins2 = dict(ins, I0=r1["O"])
        r2 = instantiate(impl, b, ins2, HoleNamer(), arch,
                         pinned={"sram": BitVec.of(2, 16)})
        doc = json.loads(to_json_netlist(b.prog(r2["O"])))
        cells = doc["modules"]["top"]["cells"]
        # u0 feeds u1; wire u1's output back into u0 to close a loop
        cells["u0"]["connections"]["I1"] = cells["u1"]["connections"]["O"]
        with pytest.raises(JsonSchemaError) as e:
            from_json_netlist(json.dumps(doc), arch)
        assert "cycle" in str(e.value)

    def test_bad_constant_bit(self):
        doc, arch = self._doc()
        (cell,) = doc["modules"]["top"]["cells"].values()
        cell["connections"]["mode"] = ["x"]
        self._expect_error(doc, arch, "constant")


def _prim_types(p):
    """Multiset of (module, parameters) for prims reachable from the root."""
    seen = set()
    stack = [p.root]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        n = p.nodes[i]
        kind = type(n).__name__
        if kind == "Op":
            stack.extend(n.args)
        elif kind == "Reg":
            stack.extend((n.data, n.init))
        elif kind == "Prim":
            stack.extend(v for _, v in n.binds)
    out = []
    for i in seen:
        n = p.nodes[i]
        if isinstance(n, Prim):
            out.append((n.meta.module_name,
                        tuple(sorted((k, str(v)) for k, v in
                              n.meta.parameter_bindings))))
    return sorted(out)


def _random_structural(rng, arch):
    """Random LUT/carry composition over one to three input words."""
    b = ProgBuilder()
    namer = HoleNamer()
    w = rng.choice([2, 3, 4])
    names = ["a", "b", "c"][:rng.choice([1, 2, 3])]
    words = [b.var(n, w) for n in names]
    bits = [b.extract(k, k, wd) for wd in words
            for k in rng.sample(range(w), 2)]
    bits.append(b.bv(rng.getrandbits(1), 1))
    lut = arch.find(lut_interface(4))
    carry = arch.find(carry_interface(w))
    for _ in range(rng.randrange(1, 8)):
        if rng.random() < 0.65:
            ins = {f"I{j}": rng.choice(bits) for j in range(4)}
            r = instantiate(lut, b, ins, namer, arch,
                            pinned={"sram": BitVec.of(rng.getrandbits(16),
                                                      16)})
            bits.append(r["O"])
        else:
            r = instantiate(carry, b,
                            {"DI": rng.choice(words),
                             "S": rng.choice(words),
                             "CI": rng.choice(bits)}, namer, arch)
            words.append(r["O"])
            bits.append(r["CO"])
    root_word = rng.choice(words)
    choice = rng.random()
    if choice < 0.3:
        root = b.concat(rng.choice(bits), root_word)
    elif choice < 0.5:
        root = b.zext(2, root_word)
    elif choice < 0.6:
        root = b.op("sign_extend", root_word, params=(1,))
    else:
        root = root_word
    return b.prog(root)
