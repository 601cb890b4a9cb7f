"""Emission of structural programs to Verilog text and JSON netlists.

A structural program contains only primitive instances (Prim nodes),
constants, named inputs, and pure wiring (concat / extract / zero_extend /
sign_extend); registers live inside primitive bodies, which describe
semantics only and are never printed.  Emission is a one-to-one syntactic
mapping: each Prim becomes a module instance, wiring becomes assigns (in
Verilog) or bit-index lists (in JSON), and nothing is optimized.  Both
formats print one walk of the program (_netlist), and each Prim's
ir.EmitMeta states there, once, its module, input ports, parameters and
output slices.  No input may be named out or clk, nor n<k> or u<k>,
which name wires and cells, and the module may not be named after a cell
type it instantiates (check_names, which ``map`` runs on the sketch
before synthesis).

The JSON format follows the Yosys netlist convention: a top-level
``modules`` map whose entries carry ``ports``, ``cells``, and
``netnames``; connections are lists of net bit indices (integers) or the
constant strings "0"/"1"; bitvector parameters are binary strings.
from_json_netlist inverts the mapping, rebuilding primitive semantics by
looking the cell types up in an architecture description and reading
each rebuilt Prim's EmitMeta for its output slices, so a round trip
preserves both structure (up to id renaming) and behavior.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Union

from .arch import ArchDescription, instantiate_from_ports
from .ir import (BV, BitVec, Hole, Id, Op, Prim, Prog, SketchmapError, Var,
                 check_well_formed, node_widths, structural_violations,
                 var_widths)

__all__ = [
    "JsonSchemaError",
    "NotStructural",
    "check_names",
    "from_json_netlist",
    "to_json_netlist",
    "to_structural_verilog",
]


class NotStructural(SketchmapError):
    """The program still contains something that has no netlist form."""

    def __init__(self, node_id: Id, message: str):
        super().__init__(f"node {node_id}: {message}")
        self.id = node_id


class JsonSchemaError(SketchmapError):
    """A netlist document does not follow the expected JSON shape."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# the output and clock ports, and the names of wires (n<id>) and cells
_TAKEN_RE = re.compile(r"out|clk|[nu]\d+")
# bit atoms: "0"/"1" for constant bits, or (source node id, bit index)
_Atom = Union[str, tuple]


def _check_structural(p: Prog) -> dict[Id, int]:
    """p's node widths, once p is checked well-formed, structural
    (ir.structural_violations) and free of holes."""
    widths = node_widths(p)
    bad = structural_violations(p)
    if bad:
        raise NotStructural(*bad[0])
    for i, n in p.nodes.items():
        if isinstance(n, Hole):
            raise NotStructural(i, f"unfilled hole {n.label!r}")
    return widths


def check_names(p: Prog, module_name: str) -> set[Id]:
    """The ids p's netlist prints, once its names are checked: no input
    may be called out or clk, nor n<k> or u<k>, the names of wires and
    cells, and module_name may not be the type of a cell the netlist
    holds.  Raises ValueError otherwise.  Parameter-source constants are
    not printed: their value is printed as a parameter, not a wire."""
    for name in var_widths(p):
        if not _NAME_RE.match(name) or _TAKEN_RE.fullmatch(name):
            raise ValueError(
                f"input name {name!r} cannot be used as a port name")
    if not _NAME_RE.match(module_name):
        raise ValueError(f"bad module name {module_name!r}")
    seen: set[Id] = set()
    stack = [p.root]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        n = p.nodes[i]
        if isinstance(n, Op):
            stack.extend(n.args)
        elif isinstance(n, Prim):
            if n.meta.module_name == module_name:
                raise ValueError(f"module name {module_name!r} is the type "
                                 "of a cell it instantiates")
            stack.extend(b for k, b in n.binds if k in n.meta.ports)
    return seen


def _netlist(p: Prog, module_name: str) -> tuple:
    """What both emitters print, once p is checked structural and its
    names are checked: (node widths, printed ids ascending, inputs as
    sorted (name, width) pairs, whether a clock input is needed, cells).
    Each printed Prim, in id order, is one cell (instance name, prim id,
    meta, parameter values, port sources), a port's source being a node
    id, or None for the module clock."""
    widths = _check_structural(p)
    reach = sorted(check_names(p, module_name))
    cells = []
    for i in reach:
        n = p.nodes[i]
        if not isinstance(n, Prim):
            continue
        binds = dict(n.binds)
        params = []
        for pname, spec in n.meta.parameter_bindings:
            if isinstance(spec, str):
                src = p.nodes[binds[spec]]
                if not isinstance(src, BV):
                    raise NotStructural(
                        i, f"parameter source {spec!r} is not a constant")
                spec = src.b
            params.append((pname, spec))
        sources = [(k, None if k == "clk" else binds[k])
                   for k in n.meta.ports]
        cells.append((f"u{len(cells)}", i, n.meta, params, sources))
    clk = any(src is None for *_, sources in cells for _, src in sources)
    return widths, reach, sorted(var_widths(p).items()), clk, cells


# -- Verilog ------------------------------------------------------------------


def to_structural_verilog(p: Prog, module_name: str) -> str:
    """Print a structural program as one self-contained Verilog module.

    Inputs come from the program's named variables (sorted), the single
    output is named ``out``, and a ``clk`` input appears exactly when
    some instance has a clock port.  Wires are named n<id> after their
    node and instances u<k>; emission is deterministic byte-for-byte.
    Constants print as BitVec does, width'hvalue.
    """
    widths, reach, inputs, clk, cells = _netlist(p, module_name)

    def ref(i: Id) -> str:
        n = p.nodes[i]
        return n.name if isinstance(n, Var) else f"n{i}"

    def sel(i: Id, hi: int, lo: int) -> str:
        if hi == widths[i] - 1 and lo == 0:
            return ref(i)
        return f"{ref(i)}[{hi}:{lo}]" if hi != lo else f"{ref(i)}[{hi}]"

    ports = ["  input wire clk"] if clk else []
    ports += [f"  input wire [{w - 1}:0] {name}" for name, w in inputs]
    ports.append(f"  output wire [{widths[p.root] - 1}:0] out")
    lines = [f"module {module_name} (", ",\n".join(ports), ");"]

    for i in reach:
        n = p.nodes[i]
        decl = f"  wire [{widths[i] - 1}:0] n{i}"
        if isinstance(n, BV):
            lines.append(f"{decl} = {n.b};")
        elif isinstance(n, Op):
            if n.op.name == "concat":
                rhs = f"{{{ref(n.args[0])}, {ref(n.args[1])}}}"
            elif n.op.name == "extract":
                hi, lo = n.op.params
                rhs = sel(n.args[0], hi, lo)
            elif n.op.name == "zero_extend":
                (k,) = n.op.params
                rhs = f"{{{k}'h0, {ref(n.args[0])}}}"
            else:                      # sign_extend
                (k,) = n.op.params
                msb = widths[n.args[0]] - 1
                rhs = f"{{{{{k}{{{ref(n.args[0])}[{msb}]}}}}, " \
                      f"{ref(n.args[0])}}}"
            lines.append(f"{decl} = {rhs};")
        elif isinstance(n, Prim):
            lines.append(f"{decl};")

    for name, i, meta, params, sources in cells:
        conns = [f"    .{k}({'clk' if src is None else ref(src)})"
                 for k, src in sources]
        conns += [f"    .{k}({sel(i, hi, lo)})" for k, hi, lo in meta.outputs]
        head = f"  {meta.module_name} "
        if params:
            head += "#(\n" + ",\n".join(f"    .{k}({v})" for k, v in params) \
                + "\n  ) "
        lines.append(f"{head}{name} (\n" + ",\n".join(conns) + "\n  );")
    lines.append(f"  assign out = {ref(p.root)};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- JSON ---------------------------------------------------------------------


def _atoms_of(p: Prog, widths: dict[Id, int]) -> dict[Id, list[_Atom]]:
    """LSB-first bit atoms for every node: wiring ops dissolve into the
    bits of their sources, so only Vars and Prims own net bits."""
    memo: dict[Id, list[_Atom]] = {}

    def go(i: Id) -> list[_Atom]:
        if i in memo:
            return memo[i]
        n = p.nodes[i]
        if isinstance(n, (Var, Prim)):
            a: list[_Atom] = [(i, k) for k in range(widths[i])]
        elif isinstance(n, BV):
            a = [str(n.b.bit(k)) for k in range(n.b.width)]
        elif n.op.name == "concat":
            a = go(n.args[1]) + go(n.args[0])
        elif n.op.name == "extract":
            hi, lo = n.op.params
            a = go(n.args[0])[lo:hi + 1]
        elif n.op.name == "zero_extend":
            a = go(n.args[0]) + ["0"] * n.op.params[0]
        else:                          # sign_extend
            src = go(n.args[0])
            a = src + [src[-1]] * n.op.params[0]
        memo[i] = a
        return a

    for i in sorted(p.nodes):
        go(i)
    return memo


def to_json_netlist(p: Prog, module_name: str = "top") -> str:
    """Print a structural program as a Yosys-style JSON netlist."""
    widths, _, inputs, clk, cells = _netlist(p, module_name)
    atoms = _atoms_of(p, widths)

    # net numbering: input bits first (names sorted), then the clock,
    # then each cell's packed output, in node order
    var_id_of = {n.name: i for i, n in p.nodes.items() if isinstance(n, Var)}
    nxt = itertools.count(2)
    nets = {(var_id_of[name], k): next(nxt)
            for name, w in inputs for k in range(w)}
    clk_net = next(nxt) if clk else None
    nets.update({(i, k): next(nxt)
                 for _, i, *_ in cells for k in range(widths[i])})

    # a var node never emitted under one name may alias another Var node
    # with the same name; route through the canonical node for the name
    def net_of(atom: _Atom):
        if isinstance(atom, str):
            return atom
        i, k = atom
        n = p.nodes[i]
        if isinstance(n, Var):
            return nets[(var_id_of[n.name], k)]
        return nets[(i, k)]

    ports = {name: {"direction": "input",
                    "bits": [nets[(var_id_of[name], k)] for k in range(w)]}
             for name, w in inputs}
    if clk:
        ports["clk"] = {"direction": "input", "bits": [clk_net]}
    ports["out"] = {"direction": "output",
                    "bits": [net_of(a) for a in atoms[p.root]]}

    netnames = {name: {"hide_name": 0, "bits": ports[name]["bits"]}
                for name, _ in inputs}
    cell_docs = {}
    for name, i, meta, params, sources in cells:
        bits = [nets[(i, k)] for k in range(widths[i])]
        cell_docs[name] = {
            "type": meta.module_name,
            "parameters": {k: f"{v.value:0{v.width}b}" for k, v in params},
            "port_directions": {k: "input" for k, _ in sources}
            | {k: "output" for k, _, _ in meta.outputs},
            "connections": {k: [clk_net] if src is None else
                            [net_of(a) for a in atoms[src]]
                            for k, src in sources}
            | {k: bits[lo:hi + 1] for k, hi, lo in meta.outputs},
        }
        netnames[name] = {"hide_name": 1, "bits": bits}

    doc = {
        "creator": "sketchmap",
        "modules": {
            module_name: {
                "ports": ports,
                "cells": cell_docs,
                "netnames": netnames,
            }
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# -- JSON import --------------------------------------------------------------


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise JsonSchemaError(msg)


def _natural_key(s: str):
    m = re.fullmatch(r"(.*?)(\d+)", s)
    return (m.group(1), int(m.group(2))) if m else (s, -1)


def _decode_param(impl_name: str, pname: str, raw, width: int) -> BitVec:
    _expect(isinstance(raw, str) and len(raw) == width and
            set(raw) <= {"0", "1"},
            f"cell type {impl_name}: parameter {pname!r} must be a "
            f"{width}-char binary string, got {raw!r}")
    return BitVec.of(int(raw, 2), width)


def from_json_netlist(text: str, arch: ArchDescription) -> Prog:
    """Parse a JSON netlist back into a structural program.

    Cell types are resolved through the architecture description, which
    supplies each primitive's semantics; the result is isomorphic to the
    program that produced the netlist (same primitive multiset and
    connectivity, fresh node ids) and simulates identically.  Raises
    JsonSchemaError on any malformed or unresolvable document.
    """
    from .ir import ProgBuilder

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JsonSchemaError(f"not valid JSON: {e}")
    _expect(isinstance(doc, dict), "document must be an object")
    _expect(set(doc) <= {"creator", "modules"},
            f"unknown top-level keys {sorted(set(doc) - {'creator', 'modules'})}")
    modules = doc.get("modules")
    _expect(isinstance(modules, dict) and len(modules) == 1,
            "document must contain exactly one module")
    ((mod_name, mod),) = modules.items()
    _expect(isinstance(mod, dict) and set(mod) <=
            {"ports", "cells", "netnames"},
            f"module {mod_name!r}: unknown keys")
    ports = mod.get("ports", {})
    cells = mod.get("cells", {})
    _expect(isinstance(ports, dict) and isinstance(cells, dict),
            "ports and cells must be objects")

    b = ProgBuilder()
    driver: dict[int, _Atom] = {}

    def claim(net, atom: _Atom) -> None:
        _expect(isinstance(net, int), f"net {net!r} is not an integer")
        _expect(net not in driver, f"net {net} is driven twice")
        driver[net] = atom

    in_names, out_ports = [], []
    for name, spec in ports.items():
        _expect(isinstance(spec, dict) and
                set(spec) <= {"direction", "bits"} and
                "direction" in spec and "bits" in spec,
                f"port {name!r}: must carry direction and bits")
        _expect(spec["direction"] in ("input", "output"),
                f"port {name!r}: bad direction {spec['direction']!r}")
        _expect(isinstance(spec["bits"], list) and spec["bits"],
                f"port {name!r}: bits must be a non-empty list")
        if spec["direction"] == "input":
            in_names.append(name)
        else:
            out_ports.append(name)
    _expect(len(out_ports) == 1,
            f"module must drive exactly one output port, found "
            f"{sorted(out_ports)}")

    clk_nets: set[int] = set()
    for name in sorted(n for n in in_names if n != "clk"):
        bits = ports[name]["bits"]
        vid = b.var(name, len(bits))
        for k, net in enumerate(bits):
            claim(net, (vid, k))
    if "clk" in in_names:
        _expect(len(ports["clk"]["bits"]) == 1, "clk must be one bit")
        net = ports["clk"]["bits"][0]
        _expect(isinstance(net, int), "clk bit must be an integer")
        _expect(net not in driver, f"net {net} is driven twice")
        clk_nets.add(net)

    # pre-declare every cell's output nets so ordering is free
    cell_order = sorted(cells, key=_natural_key)
    prepared = {}
    for cname in cell_order:
        cell = cells[cname]
        _expect(isinstance(cell, dict) and
                {"type", "connections"} <= set(cell) and
                set(cell) <= {"type", "parameters", "port_directions",
                              "connections", "attributes"},
                f"cell {cname!r}: malformed")
        impl = arch.find_module(cell["type"]) \
            if isinstance(cell["type"], str) else None
        _expect(impl is not None,
                f"cell {cname!r}: unknown type {cell['type']!r}")
        conns = cell["connections"]
        _expect(isinstance(conns, dict), f"cell {cname!r}: bad connections")
        out_names = {pn for _, pn in impl.outputs}
        in_specs = {pt.name: pt.width for pt in impl.ports
                    if pt.direction == "in" and pt.name != "clk"}
        has_clk = any(pt.name == "clk" for pt in impl.ports)
        expected = set(in_specs) | out_names | ({"clk"} if has_clk else set())
        _expect(set(conns) == expected,
                f"cell {cname!r}: connections {sorted(conns)} do not match "
                f"ports {sorted(expected)}")
        out_widths = {pt.name: pt.width for pt in impl.ports
                      if pt.direction == "out"}
        for pn, bits in conns.items():
            _expect(isinstance(bits, list), f"cell {cname!r}.{pn}: not a list")
            want = 1 if pn == "clk" else \
                in_specs.get(pn, out_widths.get(pn))
            _expect(want is not None and len(bits) == want,
                    f"cell {cname!r}.{pn}: expected {want} bits, got "
                    f"{len(bits)}")
        if has_clk:
            net = conns["clk"][0]
            _expect(net in clk_nets,
                    f"cell {cname!r}: clk net {net!r} is not the module "
                    "clock")
        for pn in out_names:
            for k, net in enumerate(conns[pn]):
                claim(net, (cname, pn, k))
        prepared[cname] = impl

    root_bits = ports[out_ports[0]]["bits"]

    # cname -> (prim id, {module out port -> its low bit in the prim})
    built: dict[str, tuple] = {}
    node_width_of: dict[Id, int] = {
        i: n.width for i, n in b.nodes.items() if isinstance(n, Var)}

    def resolve(net) -> _Atom:
        if isinstance(net, str):
            _expect(net in ("0", "1"), f"bad constant bit {net!r}")
            return net
        _expect(isinstance(net, int), f"bad net {net!r}")
        _expect(net in driver, f"net {net} is never driven")
        return driver[net]

    def normalize(net):
        """(source key, position): key None for constants, an int node id
        for inputs, a cell name for primitive outputs."""
        atom = resolve(net)
        if isinstance(atom, str):
            return None, atom
        if len(atom) == 3:             # (cname, out port, bit in port)
            cname, pn, k = atom
            _expect(cname in built,
                    f"cell {cname!r} is referenced before it can be built")
            return cname, built[cname][1][pn] + k
        return atom                    # (var node id, bit)

    def materialize(bits: list) -> Id:
        """One node carrying the given nets, LSB first: adjacent bits of
        one source coalesce into a single extract."""
        norm = [normalize(net) for net in bits]
        pieces: list[Id] = []          # LSB-first chunks
        idx = 0
        while idx < len(norm):
            key, pos = norm[idx]
            j = idx + 1
            if key is None:
                val = int(pos)
                length = 1
                while j < len(norm) and norm[j][0] is None:
                    val |= int(norm[j][1]) << length
                    length += 1
                    j += 1
                pieces.append(b.bv(val, length))
            else:
                last = pos
                while j < len(norm) and norm[j] == (key, last + 1):
                    last += 1
                    j += 1
                src = built[key][0] if isinstance(key, str) else key
                if pos == 0 and last == node_width_of[src] - 1:
                    pieces.append(src)
                else:
                    pieces.append(b.extract(last, pos, src))
            idx = j
        out = pieces[0]
        for piece in pieces[1:]:
            out = b.concat(piece, out)
        return out

    def cells_in(bits: list) -> set[str]:
        return {atom[0] for atom in map(resolve, bits)
                if isinstance(atom, tuple) and len(atom) == 3}

    def deps_of(cname: str) -> set[str]:
        outs = {pn for _, pn in prepared[cname].outputs}
        return set().union(*(
            cells_in(bits) for pn, bits in cells[cname]["connections"].items()
            if pn != "clk" and pn not in outs))

    # Build cells in dependency order.  One cell per scan, always the
    # earliest ready one, so that re-emission reproduces the document's
    # cell numbering whenever the document was itself emitted by us.
    remaining = list(cell_order)
    while remaining:
        cname = next((c for c in remaining if deps_of(c) <= set(built)),
                     None)
        _expect(cname is not None,
                f"cells {sorted(remaining)} form a combinational cycle")
        impl = prepared[cname]
        conns = cells[cname]["connections"]
        port_values = {}
        for pt in impl.ports:
            if pt.direction != "in" or pt.name == "clk":
                continue
            vid = materialize(conns[pt.name])
            port_values[pt.name] = vid
            node_width_of[vid] = pt.width
        internals = _internals_from_params(impl, cells[cname])
        prim = instantiate_from_ports(impl, b, port_values, internals, arch)
        outputs = b.nodes[prim].meta.outputs       # MSB first
        built[cname] = (prim, {o: lo for o, _, lo in outputs})
        node_width_of[prim] = outputs[0][1] + 1
        remaining.remove(cname)

    root = materialize(root_bits)
    # a cell whose output nothing reads is kept above the root's bits,
    # so that the program still holds, and prints, every cell
    read = cells_in(root_bits).union(*map(deps_of, cell_order))
    unread = sorted(built[c][0] for c in cell_order if c not in read)
    for prim in unread:
        root = b.concat(prim, root)
    if unread:
        root = b.extract(len(root_bits) - 1, 0, root)
    prog = b.prog(root)
    check_well_formed(prog)
    return prog


def _internals_from_params(impl, cell) -> dict[str, BitVec]:
    params = cell.get("parameters", {})
    _expect(isinstance(params, dict),
            f"cell of type {impl.module_name}: parameters must be an object")
    declared = {pname for pname, _ in impl.parameters}
    _expect(set(params) == declared,
            f"cell of type {impl.module_name}: parameters {sorted(params)} "
            f"do not match declared {sorted(declared)}")
    widths = dict(impl.internal_data)
    internals: dict[str, BitVec] = {}
    for pname, value in impl.parameters:
        if isinstance(value, str):
            internals[value] = _decode_param(impl.module_name, pname,
                                             params[pname], widths[value])
        else:
            got = _decode_param(impl.module_name, pname, params[pname],
                                value.width)
            _expect(got == value,
                    f"cell of type {impl.module_name}: parameter "
                    f"{pname!r} must be the fixed constant "
                    f"{value.value:#x}, got {got.value:#x}")
    missing = set(widths) - set(internals)
    _expect(not missing,
            f"cell of type {impl.module_name}: internal data "
            f"{sorted(missing)} is not recoverable from parameters")
    return internals
