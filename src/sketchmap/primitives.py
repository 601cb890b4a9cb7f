"""Built-in primitive interfaces and their semantic models.

A primitive interface is an architecture-neutral signature for a class of
hardware blocks (LUT, CARRY, MUX, DSP).  A primitive model pairs a port
signature with a behavioral program giving the block's cycle semantics;
configuration state (LUT memories, DSP mode bits) appears as free
variables listed in ``internal_data`` so architecture descriptions can
back them with holes.

Conventions fixed here and relied on everywhere downstream:

* LUT memory bit order: the index is ``concat(I{n-1}, ..., I0)`` — port
  I0 is the least-significant index bit — and output bit for pattern
  ``i`` is bit ``i`` of the memory.  A 2-input XOR is therefore the
  memory ``0b0110``.
* Multi-output models pack their outputs into a single root as
  ``concat`` with the *later-listed* output in the low bits: the carry
  chain's root is ``concat(CO, O)``.  ``packed_ranges`` recovers each
  output's bit range.
* ``clk`` is a port of sequential models but never a free variable of
  the semantics: registers are explicit Reg nodes and the clock is
  implicit in the cycle index.
"""

from dataclasses import dataclass, field

from .ir import (
    BitVec, DomainError, Prog, ProgBuilder, check_well_formed, free_vars,
)

__all__ = [
    "PrimitiveInterface", "PrimitiveModel", "packed_ranges",
    "lut_model", "carry_model", "mux_model", "minidsp_model",
    "builtin_model",
]

INTERFACE_NAMES = ("LUT", "CARRY", "MUX", "DSP")


@dataclass(frozen=True)
class PrimitiveInterface:
    """Architecture-neutral signature: name + params + canonical ports."""
    name: str                              # LUT | CARRY | MUX | DSP
    params: tuple[tuple[str, int], ...]    # sorted (param, value) pairs
    inputs: tuple[tuple[str, int], ...]    # canonical (port, width)
    outputs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.name not in INTERFACE_NAMES:
            raise DomainError(f"unknown interface name {self.name!r}")
        for k, v in self.params:
            if v <= 0:
                raise DomainError(f"interface param {k} must be positive")

    @property
    def param_map(self) -> dict[str, int]:
        return dict(self.params)


def lut_interface(n: int) -> PrimitiveInterface:
    return PrimitiveInterface(
        "LUT", (("num_inputs", n),),
        tuple((f"I{i}", 1) for i in range(n)), (("O", 1),))


def carry_interface(w: int) -> PrimitiveInterface:
    return PrimitiveInterface(
        "CARRY", (("width", w),),
        (("DI", w), ("S", w), ("CI", 1)), (("O", w), ("CO", 1)))


def mux_interface(n: int) -> PrimitiveInterface:
    k = n.bit_length() - 1
    ins = tuple((f"I{i}", 1) for i in range(n)) + \
        tuple((f"S{j}", 1) for j in range(k))
    return PrimitiveInterface("MUX", (("num_inputs", n),), ins, (("O", 1),))


def dsp_interface(width: int) -> PrimitiveInterface:
    return PrimitiveInterface(
        "DSP", (("width", width),),
        (("clk", 1), ("A", width), ("B", width), ("C", width),
         ("D", width)),
        (("out", width),))


@dataclass(frozen=True)
class PrimitiveModel:
    """A primitive's semantics as a behavioral program.

    ``semantics`` is single-rooted; multi-output models pack outputs
    MSB-first in the order of ``outputs``.  Free variables of the
    program are exactly the non-clk input ports plus ``internal_data``.
    """
    name: str
    ports: tuple[tuple[str, str, int], ...]   # (name, "in"/"out", width)
    internal_data: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]      # packing order, MSB first
    semantics: Prog
    interface: PrimitiveInterface
    sequential: bool = field(default=False)

    def __post_init__(self):
        check_well_formed(self.semantics)
        fv = free_vars(self.semantics)
        expected = {n for n, d, _ in self.ports if d == "in" and n != "clk"}
        expected |= {n for n, _ in self.internal_data}
        if fv != expected:
            raise DomainError(
                f"model {self.name}: semantics reads {sorted(fv)} but the "
                f"signature promises {sorted(expected)}")

    @property
    def internal_map(self) -> dict[str, int]:
        return dict(self.internal_data)

    @property
    def port_map(self) -> dict[str, tuple[str, int]]:
        return {n: (d, w) for n, d, w in self.ports}


def packed_ranges(outputs: tuple[tuple[str, int], ...]
                  ) -> dict[str, tuple[int, int]]:
    """name -> (hi, lo) bit range of each output in the packed root, for
    outputs listed (name, width) in packing order, MSB first.  The result
    lists them from the low slice up."""
    ranges: dict[str, tuple[int, int]] = {}
    lo = 0
    for n, w in reversed(outputs):
        ranges[n] = (lo + w - 1, lo)
        lo += w
    return ranges


def _lut_read(b: ProgBuilder, mem, index_bits, mem_width: int):
    """out = bit 0 of (mem >> index), index = concat of bits MSB-first."""
    idx = b.concat_all(list(reversed(index_bits)))
    n = len(index_bits)
    amt = b.zext(mem_width - n, idx) if mem_width > n else idx
    return b.extract(0, 0, b.op("lshr", mem, amt))


def lut_model(n: int) -> PrimitiveModel:
    """n-input lookup table: O = sram[concat(I{n-1},...,I0)], I0 = LSB."""
    if not 1 <= n <= 6:
        raise DomainError(f"LUT size {n} out of range 1..6")
    b = ProgBuilder()
    sram = b.var("sram", 2 ** n)
    ins = [b.var(f"I{i}", 1) for i in range(n)]
    root = _lut_read(b, sram, ins, 2 ** n)
    ports = tuple((f"I{i}", "in", 1) for i in range(n)) + (("O", "out", 1),)
    return PrimitiveModel(
        name=f"lut{n}", ports=ports, internal_data=(("sram", 2 ** n),),
        outputs=(("O", 1),), semantics=b.prog(root),
        interface=lut_interface(n))


def carry_model(w: int) -> PrimitiveModel:
    """w-bit ripple carry chain.

    c_0 = CI; O_i = S_i xor c_i; c_{i+1} = S_i ? c_i : DI_i; CO = c_w.
    With S = a xor b and DI = a it computes a + b + CI.  Root packs
    concat(CO, O).
    """
    if w < 1:
        raise DomainError(f"carry width {w} must be >= 1")
    b = ProgBuilder()
    di = b.var("DI", w)
    s = b.var("S", w)
    c = b.var("CI", 1)
    outs = []
    for i in range(w):
        si = b.extract(i, i, s)
        dii = b.extract(i, i, di)
        outs.append(b.op("xor", si, c))
        c = b.op("mux", si, c, dii)
    root = b.concat(c, b.concat_all(list(reversed(outs))))
    return PrimitiveModel(
        name=f"carry{w}",
        ports=(("DI", "in", w), ("S", "in", w), ("CI", "in", 1),
               ("O", "out", w), ("CO", "out", 1)),
        internal_data=(), outputs=(("CO", 1), ("O", w)),
        semantics=b.prog(root), interface=carry_interface(w))


def mux_model(n: int) -> PrimitiveModel:
    """n-to-1 single-bit mux, n in {2, 4, 8}; O = I[S], S0 = select LSB."""
    if n not in (2, 4, 8):
        raise DomainError(f"mux size {n} must be 2, 4, or 8")
    k = n.bit_length() - 1
    b = ProgBuilder()
    ins = [b.var(f"I{i}", 1) for i in range(n)]
    sels = [b.var(f"S{j}", 1) for j in range(k)]
    layer = ins
    for j in range(k):
        layer = [b.op("mux", sels[j], layer[2 * i + 1], layer[2 * i])
                 for i in range(len(layer) // 2)]
    ports = tuple((f"I{i}", "in", 1) for i in range(n)) + \
        tuple((f"S{j}", "in", 1) for j in range(k)) + (("O", "out", 1),)
    return PrimitiveModel(
        name=f"mux{n}", ports=ports, internal_data=(),
        outputs=(("O", 1),), semantics=b.prog(layer[0]),
        interface=mux_interface(n))


def minidsp_model(width: int) -> PrimitiveModel:
    """Configurable multiply-ALU block with 0-3 pipeline stages.

    Datapath: pre = PREADD_EN ? (PREADD_SUB ? A-D : A+D) : A;
    m = pre * B; out = ALU(m, C) per ALUMODE (0 m+C, 1 m-C, 2 m&C,
    3 m|C, 4 m^C, 5 m, 6 C-m, 7 C).  All arithmetic truncates at
    ``width``.

    INREG/MREG/PREG each select between an always-present register
    (init 0) and its combinational bypass, so every assignment of the
    enables is well-formed and the pipeline depth is their popcount.
    The C operand is registered at both the INREG and MREG stages so
    all paths reaching the ALU carry equal delay.
    """
    if not 4 <= width <= 18:
        raise DomainError(f"dsp width {width} out of range 4..18")
    b = ProgBuilder()
    zero = BitVec(width, 0)
    a = b.var("A", width)
    bb_ = b.var("B", width)
    cc = b.var("C", width)
    d = b.var("D", width)
    inreg = b.var("INREG", 1)
    mreg = b.var("MREG", 1)
    preg = b.var("PREG", 1)
    pre_en = b.var("PREADD_EN", 1)
    pre_sub = b.var("PREADD_SUB", 1)
    alumode = b.var("ALUMODE", 3)

    def staged(enable, value):
        return b.op("mux", enable, b.reg(value, zero), value)

    a1 = staged(inreg, a)
    b1 = staged(inreg, bb_)
    c1 = staged(inreg, cc)
    d1 = staged(inreg, d)
    pre = b.op("mux", pre_en,
               b.op("mux", pre_sub, b.op("sub", a1, d1),
                    b.op("add", a1, d1)),
               a1)
    m = b.op("mul", pre, b1)
    m2 = staged(mreg, m)
    c2 = staged(mreg, c1)

    modes = [b.op("add", m2, c2), b.op("sub", m2, c2),
             b.op("and", m2, c2), b.op("or", m2, c2),
             b.op("xor", m2, c2), m2, b.op("sub", c2, m2), c2]
    alu = modes[-1]
    for i in range(len(modes) - 2, -1, -1):
        is_i = b.op("eq", alumode, b.bv(i, 3))
        alu = b.op("mux", is_i, modes[i], alu)
    root = staged(preg, alu)
    return PrimitiveModel(
        name=f"minidsp{width}",
        ports=(("clk", "in", 1), ("A", "in", width), ("B", "in", width),
               ("C", "in", width), ("D", "in", width),
               ("out", "out", width)),
        internal_data=(("INREG", 1), ("MREG", 1), ("PREG", 1),
                       ("PREADD_EN", 1), ("PREADD_SUB", 1),
                       ("ALUMODE", 3)),
        outputs=(("out", width),), semantics=b.prog(root),
        interface=dsp_interface(width), sequential=True)


def builtin_model(name: str, params: dict[str, int]) -> PrimitiveModel:
    """Look up a built-in model by family name, for arch descriptions."""
    makers = {"lut": (lut_model, "num_inputs"),
              "carry": (carry_model, "width"),
              "mux": (mux_model, "num_inputs"),
              "minidsp": (minidsp_model, "width")}
    if name not in makers:
        raise DomainError(f"no built-in model family {name!r}")
    fn, key = makers[name]
    if key not in params:
        raise DomainError(f"built-in {name} needs parameter {key!r}")
    return fn(params[key])
