"""Architecture-independent sketch templates.

A template is a program skeleton phrased over primitive *interfaces*
(n-input LUTs, carry chains, DSPs) rather than concrete modules.
generate_sketch specializes a template for one fabric: every interface
instance in the skeleton is lowered through the architecture description
and replaced with concrete primitives whose internal data become fresh,
independent holes.  The result is a Sketch ready for synthesis.

Five templates are provided:

``bitwise``
    One LUT per output bit; output bit i sees bit i of every operand.
    Realizes any function applied bitwise across the word, e.g. and/or/
    xor/mux-by-constant.  Operand count is limited by the widest LUT the
    fabric offers (unused LUT inputs are tied to constant 0 by the
    lowering rules, keeping the search space small).

``bitwise-with-carry``
    Per output bit, a pair of hole LUTs over (a_i, b_i) drives the S and
    DI inputs of a width-w carry chain; the chain's CI is a 1-bit hole.
    Realizes a+b, a-b, and friends.

``comparison``
    The bitwise-with-carry skeleton with the word output dropped: the
    chain's carry-out feeds one final 1-input hole LUT, whose single bit
    is the result.  The hole LUTs can steer the chain to compute any of
    <, <=, >, >=, ==, != (unsigned): subtract in either operand order
    for the orderings, or an all-bits-equal chain (S = xnor, DI = 0,
    CI = 1) for equality.

``multiplication``
    A shift-add array: w rows of partial-product hole LUTs over
    (a_i, b_j), summed by w-1 fixed adders (pinned xor LUTs feeding
    carry chains).  Realizes a*b truncated to w bits.

``dsp``
    A single DSP instance with every piece of internal configuration
    left as a hole.  Operands map onto the DSP data ports so that four
    operands compute ((in0 pre in1) * in2) alu in3; three drop the
    pre-adder operand; two use the multiplier alone.  The structure is
    the same for every pipeline depth: the register-enable holes let the
    solver match any spec pipelined up to three stages, so the
    ``pipeline_depth`` parameter is validated for range and passed back
    to the caller's choice of time offset unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .arch import ArchDescription, HoleNamer, lower_interface
from .ir import ArityError, Id, ProgBuilder, Sketch
from .primitives import carry_interface, dsp_interface, lut_interface

__all__ = [
    "TemplateInfo",
    "document_params",
    "generate_sketch",
    "list_templates",
]

_XOR2_TABLE = 0b0110  # 2-input LUT truth table for I0 xor I1


@dataclass(frozen=True)
class TemplateInfo:
    """Name and parameter schema of one sketch template."""
    name: str
    params: tuple[tuple[str, str], ...]   # (param, description)


_COMMON = (
    ("width", "operand and result width in bits, >= 1"),
    ("inputs", "operand names, in order"),
)

_TEMPLATES: tuple[TemplateInfo, ...] = (
    TemplateInfo("dsp", _COMMON + (
        ("pipeline_depth", "spec pipeline stages, 0..3"),)),
    TemplateInfo("bitwise", _COMMON),
    TemplateInfo("bitwise-with-carry", _COMMON),
    TemplateInfo("comparison", _COMMON),
    TemplateInfo("multiplication", _COMMON),
)


def list_templates() -> tuple[TemplateInfo, ...]:
    """Stable enumeration of the available templates."""
    return _TEMPLATES


# -- parameter handling -------------------------------------------------------


def _check_keys(template: str, params: Mapping, allowed: set[str]) -> None:
    extra = set(params) - allowed
    if extra:
        raise ValueError(
            f"template {template!r} does not take {sorted(extra)}; "
            f"allowed: {sorted(allowed)}")


def _width(params: Mapping) -> int:
    if "width" not in params:
        raise ValueError("missing required parameter 'width'")
    w = params["width"]
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"width must be a positive integer, got {w!r}")
    return w


def _operands(params: Mapping, lo: int, hi: int,
              default: Sequence[str]) -> tuple[str, ...]:
    names = tuple(params.get("inputs", default))
    if not all(isinstance(n, str) and n for n in names):
        raise ValueError(f"operand names must be non-empty strings: {names}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate operand names: {names}")
    if not lo <= len(names) <= hi:
        raise ArityError(
            f"template takes {lo}..{hi} operands, got {len(names)}")
    return names


# -- shared construction helpers ----------------------------------------------


def _lut_plan(desc: ArchDescription, k: int):
    """Plan for a k-input LUT, or ArityError if no fabric LUT is wide
    enough to absorb k operands in one level."""
    sizes = [i.interface.param_map["num_inputs"]
             for i in desc.find_family("LUT")]
    if sizes and k > max(sizes):
        raise ArityError(
            f"{k} operands exceed the {max(sizes)}-input LUTs available "
            f"on {desc.name!r}")
    return lower_interface(lut_interface(k), desc)


def _bit(b: ProgBuilder, word: Id, i: int) -> Id:
    return b.extract(i, i, word)


def _pack(b: ProgBuilder, bits: list[Id]) -> Id:
    """One word from single-bit ids given LSB first."""
    return b.concat_all(list(reversed(bits)))


def _hole_lut_pair_chain(b: ProgBuilder, desc: ArchDescription,
                         namer: HoleNamer, a: Id, bb: Id, w: int
                         ) -> dict[str, Id]:
    """Per-bit hole LUT pairs over (a_i, b_i) feeding a carry chain.

    Returns the chain's outputs O and CO; the chain's CI is a fresh
    1-bit hole.
    """
    lut2 = _lut_plan(desc, 2)
    chain = lower_interface(carry_interface(w), desc)
    s_bits, di_bits = [], []
    for i in range(w):
        ins = {"I0": _bit(b, a, i), "I1": _bit(b, bb, i)}
        s_bits.append(lut2.build(b, dict(ins), namer, desc)["O"])
        di_bits.append(lut2.build(b, dict(ins), namer, desc)["O"])
    ci = b.hole(namer.prefix() + "ci", 1)
    return chain.build(b, {"DI": _pack(b, di_bits), "S": _pack(b, s_bits),
                           "CI": ci}, namer, desc)


def _fixed_adder(b: ProgBuilder, desc: ArchDescription, namer: HoleNamer,
                 x: Id, y: Id, w: int) -> Id:
    """x + y via pinned xor LUTs and a carry chain (no holes)."""
    lut2 = _lut_plan(desc, 2)
    chain = lower_interface(carry_interface(w), desc)
    s_bits = []
    for i in range(w):
        s_bits.append(lut2.build(b, {"I0": _bit(b, x, i),
                                     "I1": _bit(b, y, i)},
                                 namer, desc, _XOR2_TABLE)["O"])
    return chain.build(b, {"DI": x, "S": _pack(b, s_bits), "CI": b.bv(0, 1)},
                       namer, desc)["O"]


# -- template bodies ----------------------------------------------------------


def _gen_bitwise(desc, params) -> Sketch:
    _check_keys("bitwise", params, {"width", "inputs"})
    w = _width(params)
    names = _operands(params, 1, 16, ("a", "b"))
    plan = _lut_plan(desc, len(names))
    b = ProgBuilder()
    namer = HoleNamer()
    ops = [b.var(n, w) for n in names]
    bits = []
    for i in range(w):
        ins = {f"I{j}": _bit(b, op, i) for j, op in enumerate(ops)}
        bits.append(plan.build(b, ins, namer, desc)["O"])
    return Sketch(b.prog(_pack(b, bits)), tuple(namer.constraints))


def _gen_bitwise_with_carry(desc, params) -> Sketch:
    _check_keys("bitwise-with-carry", params, {"width", "inputs"})
    w = _width(params)
    names = _operands(params, 2, 2, ("a", "b"))
    b = ProgBuilder()
    namer = HoleNamer()
    a, bb = (b.var(n, w) for n in names)
    r = _hole_lut_pair_chain(b, desc, namer, a, bb, w)
    return Sketch(b.prog(r["O"]), tuple(namer.constraints))


def _gen_comparison(desc, params) -> Sketch:
    _check_keys("comparison", params, {"width", "inputs"})
    w = _width(params)
    names = _operands(params, 2, 2, ("a", "b"))
    b = ProgBuilder()
    namer = HoleNamer()
    a, bb = (b.var(n, w) for n in names)
    r = _hole_lut_pair_chain(b, desc, namer, a, bb, w)
    post = _lut_plan(desc, 1)
    out = post.build(b, {"I0": r["CO"]}, namer, desc)["O"]
    return Sketch(b.prog(out), tuple(namer.constraints))


def _gen_multiplication(desc, params) -> Sketch:
    _check_keys("multiplication", params, {"width", "inputs"})
    w = _width(params)
    names = _operands(params, 2, 2, ("a", "b"))
    b = ProgBuilder()
    namer = HoleNamer()
    a, bb = (b.var(n, w) for n in names)
    lut2 = _lut_plan(desc, 2)
    # partial-product row j holds bits i of a_i & b_j for the surviving
    # (i + j < w) positions; each cell is an independent hole LUT
    rows: list[list[Id]] = []
    for j in range(w):
        bj = _bit(b, bb, j)
        row = []
        for i in range(w - j):
            row.append(lut2.build(b, {"I0": _bit(b, a, i), "I1": bj}, namer,
                                  desc)["O"])
        rows.append(row)
    acc = _pack(b, rows[0])
    for j in range(1, w):
        shifted = _pack(b, [b.bv(0, 1)] * j + rows[j])
        acc = _fixed_adder(b, desc, namer, acc, shifted, w)
    return Sketch(b.prog(acc), tuple(namer.constraints))


def _gen_dsp(desc, params) -> Sketch:
    _check_keys("dsp", params, {"width", "inputs", "pipeline_depth"})
    w = _width(params)
    depth = params.get("pipeline_depth", 0)
    if not isinstance(depth, int) or isinstance(depth, bool) or \
            not 0 <= depth <= 3:
        raise ValueError(f"pipeline_depth must be 0..3, got {depth!r}")
    names = _operands(params, 2, 4, ("a", "b"))
    plan = lower_interface(dsp_interface(w), desc)
    b = ProgBuilder()
    namer = HoleNamer()
    ops = [b.var(n, w) for n in names]
    zero = b.bv(0, w)
    if len(ops) == 4:
        wiring = {"A": ops[0], "D": ops[1], "B": ops[2], "C": ops[3]}
    elif len(ops) == 3:
        wiring = {"A": ops[0], "B": ops[1], "C": ops[2], "D": zero}
    else:
        wiring = {"A": ops[0], "B": ops[1], "C": zero, "D": zero}
    out = plan.build(b, wiring, namer, desc)["out"]
    return Sketch(b.prog(out), tuple(namer.constraints))


_GENERATORS = {
    "dsp": _gen_dsp,
    "bitwise": _gen_bitwise,
    "bitwise-with-carry": _gen_bitwise_with_carry,
    "comparison": _gen_comparison,
    "multiplication": _gen_multiplication,
}


def document_params(template: str, doc, width: int) -> dict:
    """The params a specification document whose inputs are all `width`
    bits wide gives template: its input names, plus its pipeline depth for
    the dsp template."""
    params = {"width": width, "inputs": tuple(n for n, _ in doc.inputs)}
    if template == "dsp":
        params["pipeline_depth"] = doc.pipeline
    return params


def generate_sketch(template: str, desc: ArchDescription,
                    params: Mapping) -> Sketch:
    """Specialize a named template against an architecture description.

    params is a mapping with at least ``width``; ``inputs`` names the
    operands (and fixes their count), and the dsp template also accepts
    ``pipeline_depth``.  Raises ValueError for malformed parameters,
    ArityError when the operand count cannot be honored, and lets
    NoImplementation propagate when the fabric lacks a required
    primitive.  The returned sketch is well-formed for every hole
    assignment by construction.
    """
    try:
        gen = _GENERATORS[template]
    except KeyError:
        raise ValueError(
            f"unknown template {template!r}; available: "
            f"{', '.join(t.name for t in _TEMPLATES)}") from None
    return gen(desc, params)
