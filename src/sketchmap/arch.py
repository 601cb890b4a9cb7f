"""Architecture descriptions: what primitives a target implements.

An architecture-description file is a YAML document listing, for each
primitive interface the target implements, the concrete module that
realizes it: the module name, how its ports are wired from interface
inputs (via value expressions), which internal data
(LUT memories, DSP mode bits) become solver holes, and how interface
outputs map onto module ports.

``lower_interface`` then answers "give me interface X on this target",
either directly or through the composite rules: a smaller LUT from a
larger one, a larger LUT from two smaller ones plus a 2:1 mux, muxes
from LUTs, a carry chain from per-bit LUT pairs, and a smaller DSP from
a larger one.  Rule chains are bounded at depth 3.

File-format reference
---------------------

::

    name: my-arch              # optional
    implementations:
      - interface: {name: LUT, num_inputs: 4}
        module_name: frac_lut4
        source: {btor2: frac_lut4.btor2}   # or {builtin: lut}
        internal_data: {sram: 16}
        ports:
          - {name: in,   direction: in,  width: 4,
             value: (concat I3 I2 I1 I0)}
          - {name: mode, direction: in,  width: 1, value: (bv 0 1)}
          - {name: out,  direction: out, width: 1}
        parameters:
          - {name: sram, value: sram}
        outputs: {O: out}       # LUT output key "0" also accepted
        constraints: []          # optional width-1 expressions

Value expressions are expressions of the specification language
(``sketchmap.specdsl``) limited to names -- interface inputs and
internal_data -- plus ``(bv value width)``, ``(concat e ...)`` (first
argument is the high part) and ``(extract hi lo e)``; ``specdsl.lower``
reads and checks them once, when the file loads, and builds them into
each instance.  A parameter value is an internal_data name or a ``bv``.
A constraint is a 1-bit expression over internal_data; each instance
lowers it to a program of its own over that instance's holes, or over
the constants a lowering rule pins them to, and synthesis only accepts
hole values under which it is 1.  A port named ``clk`` takes no value:
it is wired to the global clock at emission.  Unknown keys anywhere are
errors — the schema is strict.

Each internal_data entry an instance leaves free becomes a fresh Hole
node, labelled with the instance's prefix and carrying the entry's
width.  A lowering returns only outputs: the sketch reads its hole
table off those nodes, and its side constraints off the HoleNamer that
named the instances.

``source`` names the model: a builtin (``lut``, ``carry``, ``mux``,
``minidsp``) or a single-output btor2 file.  Either is a behavioral
program whose root packs the interface's outputs, the first-listed
lowest, and whose free variables are the input ports but ``clk`` and the
internal data; it is read and checked once per architecture.
"""

import os
from dataclasses import dataclass, field

from .ir import (
    BV, BitVec, EmitMeta, Hole, Id, Node, Op, Prim, Prog, ProgBuilder, Reg,
    SketchmapError, Var, WidthError, node_widths, var_widths,
)
from .primitives import (
    FAMILIES, PrimitiveInterface, builtin_model, dsp_interface,
    lut_interface, mux_interface, packed_ranges,
)
from .solver.qfbv import SolverInputError, parse_all
from .specdsl import ParseError, lower

__all__ = [
    "SchemaError", "UnknownInterface", "ModelLoadError", "WidthMismatch",
    "NoImplementation", "PortSpec", "InterfaceImpl", "ArchDescription",
    "parse_arch", "load_arch", "instantiate", "lower_interface",
    "HoleNamer", "packaged_arch_path",
]


class SchemaError(SketchmapError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownInterface(SketchmapError):
    pass


class ModelLoadError(SketchmapError):
    pass


class WidthMismatch(SketchmapError):
    pass


class NoImplementation(SketchmapError):
    def __init__(self, requested: PrimitiveInterface):
        super().__init__(
            f"no implementation chain reaches {requested.name} "
            f"{dict(requested.params)}")
        self.requested = requested


# -- value expressions --------------------------------------------------------

# Value expressions are spec-language expressions limited to these heads.
_VALUE_HEADS = frozenset({"bv", "concat", "extract"})


def parse_value_expr(text: str, path: str):
    """Read one value expression (unchecked; see _lower_alone)."""
    try:
        exprs = parse_all(text)
    except SolverInputError as e:
        raise SchemaError(path, f"bad expression syntax: {e}")
    if len(exprs) != 1:
        raise SchemaError(path, "expected exactly one expression")
    return exprs[0]


def _lower_alone(expr, leaves: dict[str, tuple[Node, int]]
                 ) -> tuple[Prog, int]:
    """Lower a value expression into a program of its own -> (prog, width).

    leaves maps each name to the node it stands for and its width; a
    name's node is added the first time the expression reads it, so the
    program holds only the leaves the expression uses.
    """
    b = ProgBuilder()
    made: dict[str, tuple[Id, int]] = {}

    def leaf(name: str) -> tuple[Id, int]:
        if name not in made:
            node, w = leaves[name]
            made[name] = (b.add(node), w)
        return made[name]

    root, w = lower(expr, b, leaf, _VALUE_HEADS)
    return b.prog(root), w


def _check_value(text, path: str, leaves: dict[str, tuple[Node, int]]):
    """Read and check one value expression at load time -> (expression,
    its program over Var leaves, width); errors become SchemaError."""
    expr = parse_value_expr(str(text), path)
    try:
        prog, w = _lower_alone(expr, leaves)
    except (ParseError, WidthError) as e:
        raise SchemaError(path, str(e))
    return expr, prog, w


# -- schema -------------------------------------------------------------------

@dataclass(frozen=True)
class PortSpec:
    name: str
    direction: str           # "in" | "out"
    width: int
    value: object = None     # expression as read; None for outputs / clk


@dataclass(frozen=True)
class InterfaceImpl:
    interface: PrimitiveInterface
    module_name: str
    source: tuple[str, str]             # ("builtin", family) | ("btor2", path)
    internal_data: tuple[tuple[str, int], ...]
    ports: tuple[PortSpec, ...]
    parameters: tuple[tuple[str, str | BitVec], ...]  # as EmitMeta binds
    outputs: tuple[tuple[str, str], ...]         # iface output -> module port
    constraints: tuple[object, ...]              # expressions as read


@dataclass(frozen=True)
class ArchDescription:
    name: str
    implementations: tuple[InterfaceImpl, ...]
    base_dir: str = "."
    # id(impl) -> (impl, model); filled by _load_model on first use
    _models: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def find(self, iface: PrimitiveInterface) -> InterfaceImpl | None:
        for impl in self.implementations:
            if impl.interface == iface:
                return impl
        return None

    def find_family(self, name: str) -> list[InterfaceImpl]:
        return [i for i in self.implementations if i.interface.name == name]

    def find_module(self, module_name: str) -> InterfaceImpl | None:
        for impl in self.implementations:
            if impl.module_name == module_name:
                return impl
        return None


def _expect_map(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError(path, f"expected a mapping, got {type(v).__name__}")
    return v


def _expect_keys(m: dict, path: str, required: tuple, optional: tuple = ()):
    for k in required:
        if k not in m:
            raise SchemaError(path, f"missing required key {k!r}")
    for k in m:
        if k not in required and k not in optional:
            raise SchemaError(path, f"unknown key {k!r}")


def _pos_int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
        raise SchemaError(path, f"expected a positive integer, got {v!r}")
    return v


def _parse_interface(m, path: str) -> PrimitiveInterface:
    m = _expect_map(m, path)
    if "name" not in m:
        raise SchemaError(path, "interface needs a name")
    name = m["name"]
    if name not in FAMILIES:
        raise UnknownInterface(f"{path}: unknown interface {name!r}")
    fam = FAMILIES[name]
    _expect_keys(m, path, ("name", fam.param))
    try:
        return fam.interface(_pos_int(m[fam.param], path))
    except SketchmapError as e:
        if isinstance(e, SchemaError):
            raise
        raise SchemaError(path, str(e))


def _parse_impl(m, path: str) -> InterfaceImpl:
    m = _expect_map(m, path)
    _expect_keys(m, path,
                 ("interface", "module_name", "source", "ports", "outputs"),
                 ("internal_data", "parameters", "constraints"))
    iface = _parse_interface(m["interface"], f"{path}.interface")
    if not isinstance(m["module_name"], str) or not m["module_name"]:
        raise SchemaError(f"{path}.module_name", "must be a nonempty string")

    src = _expect_map(m["source"], f"{path}.source")
    if len(src) != 1 or next(iter(src)) not in ("builtin", "btor2"):
        raise SchemaError(f"{path}.source",
                          "expected exactly one of builtin:/btor2:")
    ((src_kind, src_val),) = src.items()
    if not isinstance(src_val, str):
        raise SchemaError(f"{path}.source", "source value must be a string")

    internal: list[tuple[str, int]] = []
    for k, v in _expect_map(m.get("internal_data", {}),
                            f"{path}.internal_data").items():
        internal.append((str(k), _pos_int(v, f"{path}.internal_data.{k}")))

    iface_in = dict(iface.inputs)
    leaves = {n: (Var(n, w), w) for n, w in iface_in.items()}
    for k, w in internal:
        if k in leaves:
            raise SchemaError(f"{path}.internal_data.{k}",
                              "name collides with an interface input")
        leaves[k] = (Var(k, w), w)
    consumed: set[str] = set()

    ports: list[PortSpec] = []
    raw_ports = m["ports"]
    if not isinstance(raw_ports, list) or not raw_ports:
        raise SchemaError(f"{path}.ports", "expected a nonempty list")
    for i, pm in enumerate(raw_ports):
        ppath = f"{path}.ports[{i}]"
        pm = _expect_map(pm, ppath)
        _expect_keys(pm, ppath, ("name", "direction", "width"), ("value",))
        pname = str(pm["name"])
        pdir = pm["direction"]
        if pdir not in ("in", "out"):
            raise SchemaError(ppath, f"direction must be in/out, got {pdir!r}")
        pw = _pos_int(pm["width"], f"{ppath}.width")
        value = None
        if pdir == "in" and pname != "clk":
            if "value" not in pm:
                raise SchemaError(ppath, "input ports need a value")
            value, prog, got = _check_value(pm["value"], f"{ppath}.value",
                                            leaves)
            consumed |= set(var_widths(prog))
            if got != pw:
                raise WidthMismatch(
                    f"{ppath}: port {pname!r} is {pw} bits but its value "
                    f"expression is {got} bits")
        elif "value" in pm:
            raise SchemaError(ppath, f"{pname!r} must not carry a value")
        if pname == "clk" and (pdir, pw) != ("in", 1):
            raise SchemaError(ppath, "clk must be a 1-bit input")
        if any(p.name == pname for p in ports):
            raise SchemaError(ppath, f"duplicate port {pname!r}")
        ports.append(PortSpec(pname, pdir, pw, value))

    params: list[tuple[str, str | BitVec]] = []
    for i, pm in enumerate(m.get("parameters", ())):
        ppath = f"{path}.parameters[{i}]"
        pm = _expect_map(pm, ppath)
        _expect_keys(pm, ppath, ("name", "value"))
        _, prog, _ = _check_value(pm["value"], f"{ppath}.value", leaves)
        bad = set(var_widths(prog)) - set(dict(internal))
        if bad:
            raise SchemaError(f"{ppath}.value", "parameters may only "
                              f"reference internal_data, not {sorted(bad)}")
        node = prog.nodes[prog.root]
        if isinstance(node, Var):
            params.append((str(pm["name"]), node.name))
        elif isinstance(node, BV):
            params.append((str(pm["name"]), node.b))
        else:
            raise SchemaError(f"{ppath}.value", "parameter values must be "
                              "a name or (bv v w)")

    outputs: list[tuple[str, str]] = []
    iface_out = dict(iface.outputs)
    canon_first = iface.outputs[0][0]
    for k, v in _expect_map(m["outputs"], f"{path}.outputs").items():
        key = str(k)
        if key == "0":       # digit-zero spelling of the primary output
            key = canon_first
        if key not in iface_out:
            raise SchemaError(f"{path}.outputs",
                              f"{key!r} is not an output of {iface.name}")
        port = next((p for p in ports if p.name == str(v)), None)
        if port is None or port.direction != "out":
            raise SchemaError(f"{path}.outputs",
                              f"{v!r} is not a declared output port")
        if port.width != iface_out[key]:
            raise WidthMismatch(
                f"{path}.outputs: {key} is {iface_out[key]} bits but "
                f"port {port.name!r} is {port.width}")
        outputs.append((key, str(v)))
    if len(outputs) != len(iface_out) or \
            len({k for k, _ in outputs}) != len(outputs):
        raise SchemaError(f"{path}.outputs",
                          f"must map each of {sorted(iface_out)} exactly "
                          "once")

    constraints = []
    for i, c in enumerate(m.get("constraints", ())):
        cpath = f"{path}.constraints[{i}]"
        expr, prog, w = _check_value(c, cpath, leaves)
        bad = set(var_widths(prog)) - set(dict(internal))
        if bad:
            raise SchemaError(cpath, "constraints may only reference "
                              f"internal_data, not {sorted(bad)}")
        if w != 1:
            raise SchemaError(cpath, "constraints must be 1 bit wide")
        constraints.append(expr)

    # every interface input must feed some port value expression
    missing = {n for n in iface_in if n != "clk"} - consumed
    if missing:
        raise SchemaError(f"{path}.ports",
                          f"interface inputs never consumed: "
                          f"{sorted(missing)}")

    return InterfaceImpl(
        interface=iface, module_name=m["module_name"],
        source=(src_kind, src_val), internal_data=tuple(internal),
        ports=tuple(ports), parameters=tuple(params),
        outputs=tuple(outputs), constraints=tuple(constraints))


def parse_arch(text: str, name: str = "arch",
               base_dir: str = ".") -> ArchDescription:
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise SchemaError("document", f"not valid YAML: {e}")
    doc = _expect_map(doc, "document")
    _expect_keys(doc, "document", ("implementations",), ("name",))
    if "name" in doc:
        name = str(doc["name"])
    raw = doc["implementations"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("implementations", "expected a nonempty list")
    impls = tuple(_parse_impl(m, f"implementations[{i}]")
                  for i, m in enumerate(raw))
    seen = set()
    for i, impl in enumerate(impls):
        key = (impl.interface.name, impl.interface.params)
        if key in seen:
            raise SchemaError(f"implementations[{i}]",
                              f"duplicate implementation of "
                              f"{impl.interface.name} "
                              f"{dict(impl.interface.params)}")
        seen.add(key)
    return ArchDescription(name, impls, base_dir)


def load_arch(path: str) -> ArchDescription:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    base = os.path.dirname(os.path.abspath(path))
    name = os.path.basename(path).rsplit(".", 1)[0]
    return parse_arch(text, name, base)


def packaged_arch_path(name: str) -> str:
    """Absolute path of a description shipped with the package."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "archfiles", name)


# -- model loading ------------------------------------------------------------

Model = tuple[Prog, EmitMeta]


def _load_model(impl: InterfaceImpl, arch: ArchDescription) -> Model:
    """(semantics, emission metadata) of impl's model.

    Built once per implementation and architecture, on first use, and
    shared after that: every instance's Prim holds the same semantics,
    renumbered onto ids 0..n-1, at an offset of its own and the same
    EmitMeta, and no caller changes either."""
    hit = arch._models.get(id(impl))
    if hit is not None and hit[0] is impl:
        return hit[1]
    model = _read_model(impl, arch)
    arch._models[id(impl)] = (impl, model)  # holding impl pins its id
    return model


def _read_model(impl: InterfaceImpl, arch: ArchDescription) -> Model:
    """Read impl's model, a builtin or btor2 program, and check it against
    impl: its root packs the interface's outputs, and its free variables
    are the input ports other than clk and the internal data, at the
    widths impl declares.  Every instance prints with the EmitMeta made
    here: impl's module ports for the interface's outputs, MSB first,
    each with its bit range in the packed value."""
    kind, val = impl.source
    try:
        if kind == "builtin":
            semantics = builtin_model(val, impl.interface.param_map)
        else:
            from .btor2 import load_btor2
            semantics = load_btor2(os.path.join(arch.base_dir, val))
    except (OSError, SketchmapError) as e:
        raise ModelLoadError(f"{impl.module_name}: {kind} {val}: {e}")
    if kind == "btor2" and len(impl.outputs) != 1:
        raise ModelLoadError(
            f"{impl.module_name}: btor2-backed implementations support "
            "exactly one output")
    root_w = node_widths(semantics)[semantics.root]
    out_w = sum(w for _, w in impl.interface.outputs)
    if root_w != out_w:
        raise WidthMismatch(
            f"{impl.module_name}: model root is {root_w} bits but "
            f"{impl.interface.name} outputs {out_w}")

    inputs = var_widths(semantics)
    wired = [(f"port {p.name!r}", p.name, p.width) for p in impl.ports
             if p.direction == "in" and p.name != "clk"]
    wired += [(f"internal_data {nm!r}", nm, w)
              for nm, w in impl.internal_data]
    for what, nm, w in wired:
        if nm not in inputs:
            raise ModelLoadError(f"{impl.module_name}: {what} is not a "
                                 "free variable of the model")
        if inputs[nm] != w:
            raise WidthMismatch(
                f"{impl.module_name}: {what} declared {w} bits but the "
                f"model reads {inputs[nm]}")
    unwired = set(inputs) - {nm for _, nm, _ in wired}
    if unwired:
        raise ModelLoadError(
            f"{impl.module_name}: model inputs never wired: "
            f"{sorted(unwired)}")

    out_port = dict(impl.outputs)
    ranges = packed_ranges(impl.interface)
    return _renumber(semantics), EmitMeta(
        module_name=impl.module_name,
        ports=tuple(p.name for p in impl.ports if p.direction == "in"),
        parameter_bindings=impl.parameters,
        outputs=tuple((out_port[o], *ranges[o])
                      for o, _ in reversed(impl.interface.outputs)))


def _renumber(prog: Prog) -> Prog:
    """A behavioral program on ids 0..n-1, given in node order."""
    new = {i: k for k, i in enumerate(prog.nodes)}
    nodes: dict[Id, Node] = {}
    for i, n in prog.nodes.items():
        if isinstance(n, Op):
            n = Op(n.op, tuple(new[a] for a in n.args))
        elif isinstance(n, Reg):
            n = Reg(new[n.data], n.init)
        nodes[new[i]] = n
    return Prog(new[prog.root], nodes)


# -- instantiation ------------------------------------------------------------

class HoleNamer:
    """Allocates unique hole-label prefixes, one per primitive instance,
    for one sketch.  constraints collects the side constraints of the
    instances it names, in the order instantiate made them: the sketch's
    Sketch.side_constraints."""

    def __init__(self):
        self.count = 0
        self.constraints: list[Prog] = []

    def prefix(self) -> str:
        p = f"u{self.count}_"
        self.count += 1
        return p


def instantiate(impl: InterfaceImpl, b: ProgBuilder,
                inputs: dict[str, Id], namer: HoleNamer,
                arch: ArchDescription,
                pinned: dict[str, BitVec] | None = None) -> dict[str, Id]:
    """Wire one concrete primitive instance into the program under b.

    inputs maps interface input names to existing node ids.  Each
    internal_data entry becomes a fresh hole of its declared width,
    labelled with the instance's prefix, unless `pinned` supplies a
    constant for it.  Each constraint, as a program over this instance's
    holes and pinned constants, joins namer.constraints.  Returns the
    interface outputs (extract nodes over the packed primitive value when
    there are several).
    """
    model = _load_model(impl, arch)
    pinned = pinned or {}
    iface_in = {n for n, _ in impl.interface.inputs}
    extra = set(inputs) - iface_in
    if extra:
        raise SketchmapError(f"unexpected interface inputs {sorted(extra)}")
    absent = {n for n in iface_in if n != "clk"} - set(inputs)
    if absent:
        raise SketchmapError(
            f"interface inputs not supplied: {sorted(absent)}")

    prefix = namer.prefix()
    iface_w = dict(impl.interface.inputs)
    env = {n: (i, iface_w[n]) for n, i in inputs.items()}
    leaves: dict[str, tuple[Node, int]] = {}
    for nm, w in impl.internal_data:
        if nm in pinned:
            if pinned[nm].width != w:
                raise WidthMismatch(
                    f"{impl.module_name}: pinned {nm!r} has width "
                    f"{pinned[nm].width}, expected {w}")
            leaves[nm] = (BV(pinned[nm]), w)
        else:
            leaves[nm] = (Hole(prefix + nm, w), w)
        env[nm] = (b.add(leaves[nm][0]), w)

    port_values: dict[str, Id] = {}
    for p in impl.ports:
        if p.direction == "in" and p.name != "clk":
            port_values[p.name] = lower(p.value, b, env.__getitem__,
                                        _VALUE_HEADS)[0]

    _, outputs = _assemble_prim(impl, b, model, port_values,
                                {nm: env[nm][0] for nm, _ in
                                 impl.internal_data})
    namer.constraints += [_lower_alone(c, leaves)[0]
                          for c in impl.constraints]
    return outputs


def _assemble_prim(impl: InterfaceImpl, b: ProgBuilder, model: Model,
                   port_values: dict[str, Id],
                   internal_ids: dict[str, Id]) -> tuple[Id, dict[str, Id]]:
    """Create the Prim node: binds, emission metadata, output extracts.

    port_values maps module (not interface) input port names to ids;
    internal_ids maps internal_data names to ids (holes or constants).
    Returns the prim id and the interface-output map.
    """
    semantics, meta = model
    binds = [(k, port_values[k]) for k in meta.ports if k != "clk"]
    binds += [(nm, internal_ids[nm]) for nm, _ in impl.internal_data]
    base = b.fresh(len(semantics.nodes))
    prim = b.add(Prim(tuple(binds), semantics, meta, base))
    outs = impl.interface.outputs
    if len(outs) == 1:
        return prim, {outs[0][0]: prim}
    return prim, {o: b.extract(hi, lo, prim)
                  for o, (hi, lo) in packed_ranges(impl.interface).items()}


def instantiate_from_ports(impl: InterfaceImpl, b: ProgBuilder,
                           port_values: dict[str, Id],
                           internals: dict[str, BitVec],
                           arch: "ArchDescription"):
    """Rebuild a concrete instance from module-level port values.

    The netlist importer's entry point: port_values holds an id for each
    module input port but clk (the interface-level port expressions have
    already been flattened to wires), and internals a constant, at its
    declared width, for each internal_data entry; the importer decodes
    and checks both from the cell.  Returns the prim id; its
    meta.outputs gives each module output port's bit range in the prim's
    value.
    """
    model = _load_model(impl, arch)
    internal_ids = {nm: b.bv(internals[nm].value, w)
                    for nm, w in impl.internal_data}
    return _assemble_prim(impl, b, model, port_values, internal_ids)[0]


# -- lowering plans -----------------------------------------------------------

_MUX_TABLE = 0xCA      # LUT3(I0=a, I1=b, I2=s): out = s ? b : a
_XOR2_TABLE = 0b0110   # LUT2: out = I0 xor I1
_MUXLO_TABLE = 0b0010  # LUT2(I0=a, I1=s): out = a and not s
_MUXHI_TABLE = 0b1000  # LUT2(I0=b, I1=s): out = b and s
_OR2_TABLE = 0b1110    # LUT2: out = I0 or I1


@dataclass(frozen=True)
class Direct:
    impl: InterfaceImpl
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        pinned = None
        if pin_table is not None:
            ((nm, w),) = self.impl.internal_data
            pinned = {nm: BitVec.of(pin_table, w)}
        return instantiate(self.impl, b, inputs, namer, arch, pinned)


@dataclass(frozen=True)
class LutFromLarger:
    """LUT(n) via LUT(m > n): tie the m-n high inputs to constant 0."""
    child: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        n = self.interface.param_map["num_inputs"]
        m = self.child.interface.param_map["num_inputs"]
        wide = dict(inputs)
        for j in range(n, m):
            wide[f"I{j}"] = b.bv(0, 1)
        # high index patterns are unreachable, so the table carries over
        return self.child.build(b, wide, namer, arch, pin_table)


@dataclass(frozen=True)
class LutFromSmaller:
    """LUT(n) via two LUT(n-1) halves selected by I{n-1} through a mux."""
    half: object          # plan for LUT(n-1)
    mux: object           # plan for MUX(2)
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        n = self.interface.param_map["num_inputs"]
        low_in = {f"I{j}": inputs[f"I{j}"] for j in range(n - 1)}
        half_bits = 2 ** (n - 1)
        mask = (1 << half_bits) - 1
        t0 = t1 = None
        if pin_table is not None:
            t0, t1 = pin_table & mask, (pin_table >> half_bits) & mask
        o0 = self.half.build(b, dict(low_in), namer, arch, t0)["O"]
        o1 = self.half.build(b, dict(low_in), namer, arch, t1)["O"]
        return self.mux.build(b, {"I0": o0, "I1": o1,
                                  "S0": inputs[f"I{n-1}"]}, namer, arch, None)


@dataclass(frozen=True)
class MuxFromLut:
    """MUX(2) as a pinned 3-input LUT (table 0xCA)."""
    lut3: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        assert pin_table is None
        return self.lut3.build(
            b, {"I0": inputs["I0"], "I1": inputs["I1"],
                "I2": inputs["S0"]}, namer, arch, _MUX_TABLE)


@dataclass(frozen=True)
class MuxFromLutPair:
    """MUX(2) as a tree of three pinned 2-input LUTs.

    Used when the fabric has no LUT wide enough to absorb both data
    inputs and the select in one level: (a and not s) or (b and s).
    """
    lut2: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        assert pin_table is None
        lo = self.lut2.build(b, {"I0": inputs["I0"], "I1": inputs["S0"]},
                             namer, arch, _MUXLO_TABLE)
        hi = self.lut2.build(b, {"I0": inputs["I1"], "I1": inputs["S0"]},
                             namer, arch, _MUXHI_TABLE)
        return self.lut2.build(b, {"I0": lo["O"], "I1": hi["O"]}, namer,
                               arch, _OR2_TABLE)


@dataclass(frozen=True)
class MuxTree:
    """MUX(n) as a tree of MUX(2) plans, selects applied LSB first."""
    mux2: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        assert pin_table is None
        n = self.interface.param_map["num_inputs"]
        k = n.bit_length() - 1
        layer = [inputs[f"I{i}"] for i in range(n)]
        for j in range(k):
            nxt = []
            for i in range(len(layer) // 2):
                nxt.append(self.mux2.build(
                    b, {"I0": layer[2 * i], "I1": layer[2 * i + 1],
                        "S0": inputs[f"S{j}"]}, namer, arch, None)["O"])
            layer = nxt
        return {"O": layer[0]}


@dataclass(frozen=True)
class CarryFromLuts:
    """CARRY(w) as per-bit pinned LUT pairs: sum = S_i xor c_i and
    c_{i+1} = S_i ? c_i : DI_i."""
    lut2: object
    lut3: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        assert pin_table is None
        w = self.interface.param_map["width"]
        c = inputs["CI"]
        bits = []
        for i in range(w):
            si = b.extract(i, i, inputs["S"])
            di = b.extract(i, i, inputs["DI"])
            bits.append(self.lut2.build(b, {"I0": si, "I1": c}, namer, arch,
                                        _XOR2_TABLE)["O"])
            # c' = si ? c : di  ==  mux(a=di, b=c, s=si)
            c = self.lut3.build(b, {"I0": di, "I1": c, "I2": si}, namer,
                                arch, _MUX_TABLE)["O"]
        return {"O": b.concat_all(list(reversed(bits))), "CO": c}


@dataclass(frozen=True)
class DspFromLarger:
    """DSP(w) via DSP(W > w): zero-extend inputs, take the low w bits."""
    child: object
    interface: PrimitiveInterface

    def build(self, b, inputs, namer, arch, pin_table=None) -> dict[str, Id]:
        assert pin_table is None
        w = self.interface.param_map["width"]
        big = self.child.interface.param_map["width"]
        wide = {n: b.zext(big - w, i) for n, i in inputs.items()}
        out = self.child.build(b, wide, namer, arch, None)["out"]
        return {"out": b.extract(w - 1, 0, out)}


def lower_interface(requested: PrimitiveInterface, desc: ArchDescription,
                    depth: int = 3):
    """A plan realizing the requested interface on this architecture."""
    impl = desc.find(requested)
    if impl is not None:
        return Direct(impl, requested)
    if depth <= 0:
        raise NoImplementation(requested)
    name = requested.name
    if name == "LUT":
        n = requested.param_map["num_inputs"]
        sizes = sorted(i.interface.param_map["num_inputs"]
                       for i in desc.find_family("LUT"))
        larger = [m for m in sizes if m > n]
        if larger:
            child = lower_interface(lut_interface(larger[0]), desc,
                                    depth - 1)
            return LutFromLarger(child, requested)
        if sizes and n > 1:
            half = lower_interface(lut_interface(n - 1), desc, depth - 1)
            mux = lower_interface(mux_interface(2), desc, depth - 1)
            return LutFromSmaller(half, mux, requested)
        raise NoImplementation(requested)
    if name == "MUX":
        n = requested.param_map["num_inputs"]
        if n == 2:
            try:
                lut3 = lower_interface(lut_interface(3), desc, depth - 1)
                return MuxFromLut(lut3, requested)
            except NoImplementation:
                lut2 = lower_interface(lut_interface(2), desc, depth - 1)
                return MuxFromLutPair(lut2, requested)
        mux2 = lower_interface(mux_interface(2), desc, depth - 1)
        return MuxTree(mux2, requested)
    if name == "CARRY":
        lut2 = lower_interface(lut_interface(2), desc, depth - 1)
        lut3 = lower_interface(lut_interface(3), desc, depth - 1)
        return CarryFromLuts(lut2, lut3, requested)
    if name == "DSP":
        w = requested.param_map["width"]
        sizes = sorted(i.interface.param_map["width"]
                       for i in desc.find_family("DSP"))
        larger = [x for x in sizes if x > w]
        if larger:
            child = lower_interface(dsp_interface(larger[0]), desc,
                                    depth - 1)
            return DspFromLarger(child, requested)
        raise NoImplementation(requested)
    raise NoImplementation(requested)
