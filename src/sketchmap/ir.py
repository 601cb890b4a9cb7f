"""Core program representation shared by every stage of the mapper.

A program is a flat, ordered map from integer ids to nodes plus a root id.
The same representation covers three fragments:

  * behavioral programs -- registers and the full operator set, no
    primitive instances and no holes; this is what design specs and
    primitive semantic models are written in,
  * structural programs -- primitive instances (Prim) wired together with
    pure wiring operators (concat / extract / zero_extend / sign_extend);
    this is what the emitter accepts,
  * sketches -- structural programs that still contain Hole nodes standing
    for unresolved primitive configuration bits.

Sharing one node type keeps substitution trivial: synthesis turns a sketch
into a structural program by replacing each Hole with a constant, nothing
else moves.

Well-formedness is checked once, globally, and produces a witness map
assigning every node (including nodes inside Prim bodies) a level such
that every combinational dependency strictly decreases.  The witness
doubles as the evaluation schedule for both the concrete and the symbolic
interpreters.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

Id = int


class SketchmapError(Exception):
    """Base class for every error this package raises on purpose."""


class WellFormednessError(SketchmapError):
    """A program violated one of the well-formedness rules.

    kind is one of:
      W1     root id not present
      W2     node ids not disjoint across nested programs
      W3     an operator argument references a missing id
      W4     a Prim body is itself ill-formed (kind of the inner failure)
      W5     Prim bindings do not match the body's free variables
      W6     combinational cycle (no witness exists)
      width  a width rule is violated
    """

    def __init__(self, kind: str, message: str, ids: tuple[Id, ...] = ()):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.ids = ids


class WidthError(SketchmapError):
    """An operator was applied to widths its rule rejects."""


class ArityError(SketchmapError):
    """An operator got the wrong number of arguments."""


class DomainError(SketchmapError):
    """A hole assignment fell outside the hole's declared domain."""


class MissingAssignment(SketchmapError):
    """substitute_holes was not given a value for every hole label."""


@dataclass(frozen=True, slots=True)
class BitVec:
    """A constant bit vector.  value is the unsigned reading, LSB first.

    Invariants: width >= 1 and 0 <= value < 2**width.  Use BitVec.of to
    wrap an arbitrary integer modulo 2**width.
    """

    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise WidthError(f"bitvec width must be >= 1, got {self.width}")
        if not (0 <= self.value < (1 << self.width)):
            raise ValueError(
                f"bitvec value {self.value} out of range for width {self.width}"
            )

    @staticmethod
    def of(value: int, width: int) -> "BitVec":
        return BitVec(width, value & ((1 << width) - 1))

    def bit(self, i: int) -> int:
        return (self.value >> i) & 1

    @property
    def signed(self) -> int:
        if self.value >> (self.width - 1):
            return self.value - (1 << self.width)
        return self.value

    def __str__(self):
        return f"{self.width}'h{self.value:x}"


@dataclass(frozen=True, slots=True)
class Operator:
    """An operator name plus its static parameters.

    extract carries (hi, lo); zero_extend / sign_extend carry (k,); every
    other operator has no parameters.
    """

    name: str
    params: tuple[int, ...] = ()

    def __str__(self):
        if self.params:
            return f"{self.name}[{','.join(map(str, self.params))}]"
        return self.name


# Wiring operators: the only ones allowed at the top level of structural
# programs.
WIRING_OPS = frozenset(["concat", "extract", "zero_extend", "sign_extend"])


@dataclass(frozen=True, slots=True)
class OpSpec:
    """Everything the mapper knows about one operator, stated once.

    width(op, widths) is the width rule: it returns the result width or
    raises WidthError; arity and parameter count are checked before it
    runs.  sem(widths, params) returns the concrete semantics as a plain
    int function of the operand values, valid for those widths and params
    (results already truncated to the result width).  smt is the SMT-LIB
    form, filled by str.format with the operand terms as {0}..{2}, the
    params as {p}, and the all-zero / all-one literals of the first
    operand's width as {zeros} / {ones}.  fold(widths, params, xs) is the
    folding rule that fold reads when some operands are unknown: its
    answer (one of xs, an int, or None) must hold for every value they
    may take.  The default folds nothing.
    """

    arity: int
    nparams: int
    width: Callable[[Operator, list[int]], int]
    sem: Callable[[list[int], tuple[int, ...]], Callable[..., int]]
    smt: str
    fold: Callable[..., object] = lambda w, p, xs: None


def _same_width(op: Operator, w: list[int]) -> int:
    if w[0] != w[1]:
        raise WidthError(f"{op.name} needs equal widths, got {w}")
    return w[0]


def _compare(op: Operator, w: list[int]) -> int:
    _same_width(op, w)
    return 1


def _mux_width(op: Operator, w: list[int]) -> int:
    if w[0] != 1:
        raise WidthError(f"mux selector must be width 1, got {w[0]}")
    if w[1] != w[2]:
        raise WidthError(f"mux branches need equal widths, got {w}")
    return w[1]


def _extract_width(op: Operator, w: list[int]) -> int:
    hi, lo = op.params
    if not (0 <= lo <= hi < w[0]):
        raise WidthError(f"extract[{hi},{lo}] out of range for width {w[0]}")
    return hi - lo + 1


def _extend_width(op: Operator, w: list[int]) -> int:
    (k,) = op.params
    if k < 0:
        raise WidthError(f"{op.name} amount must be >= 0, got {k}")
    return w[0] + k


def _mask(w: int) -> int:
    return (1 << w) - 1


def _fold2(unit=None, zero=None, same=None, idem=False, commutes=True):
    """The fold rule of a two-operand operator, its constants taken at the
    operand width (-1 is all ones): x op unit = x and x op zero = zero
    with the constant on the right, or on either side when op commutes;
    x op x = same, or x itself when op is idempotent."""
    def rule(w, p, xs):
        x, y = xs
        if x == y:
            return x if idem else same
        m = _mask(w[0])
        for k, other in ((y, x), (x, y))[:1 + commutes]:
            if unit is not None and k == unit & m:
                return other
            if zero is not None and k == zero & m:
                return k
        return None
    return rule


def _fold_mux(w, p, xs):
    s, x, y = xs
    if type(s) is int:
        return x if s else y
    if x == y:
        return x
    return s if w[1] == 1 and x == 1 and y == 0 else None


# Semantics factories bind their width-derived constants as default
# arguments, so the returned function reads them as fast locals.  With h
# the sign bit of a width, (x ^ h) - h is x's signed reading, and x ^ h
# orders signed values as unsigned ones.  Shifts take the full unsigned
# amount: amounts >= width give 0 (ashr: the sign bits), as in SMT-LIB.
# mux picks its second operand when the selector is 1; concat puts its
# first operand high.  A fold rule states only what holds for every value
# of the unknown operands; tests/test_ops.py checks each against sem.
OPS: dict[str, OpSpec] = {
    "add": OpSpec(2, 0, _same_width,
                  lambda w, p: lambda x, y, m=_mask(w[0]): (x + y) & m,
                  "(bvadd {0} {1})", _fold2(unit=0)),
    "sub": OpSpec(2, 0, _same_width,
                  lambda w, p: lambda x, y, m=_mask(w[0]): (x - y) & m,
                  "(bvsub {0} {1})", _fold2(unit=0, same=0, commutes=False)),
    "mul": OpSpec(2, 0, _same_width,
                  lambda w, p: lambda x, y, m=_mask(w[0]): (x * y) & m,
                  "(bvmul {0} {1})", _fold2(unit=1, zero=0)),
    "and": OpSpec(2, 0, _same_width, lambda w, p: operator.and_,
                  "(bvand {0} {1})", _fold2(unit=-1, zero=0, idem=True)),
    "or": OpSpec(2, 0, _same_width, lambda w, p: operator.or_,
                 "(bvor {0} {1})", _fold2(unit=0, zero=-1, idem=True)),
    "xor": OpSpec(2, 0, _same_width, lambda w, p: operator.xor,
                  "(bvxor {0} {1})", _fold2(unit=0, same=0)),
    "not": OpSpec(1, 0, lambda op, w: w[0],
                  lambda w, p: lambda x, m=_mask(w[0]): x ^ m,
                  "(bvnot {0})"),
    "neg": OpSpec(1, 0, lambda op, w: w[0],
                  lambda w, p: lambda x, m=_mask(w[0]): -x & m,
                  "(bvneg {0})"),
    "shl": OpSpec(2, 0, _same_width,
                  lambda w, p: lambda x, s, n=w[0], m=_mask(w[0]):
                      (x << s) & m if s < n else 0,
                  "(bvshl {0} {1})", _fold2(unit=0, commutes=False)),
    "lshr": OpSpec(2, 0, _same_width, lambda w, p: operator.rshift,
                   "(bvlshr {0} {1})", _fold2(unit=0, commutes=False)),
    "ashr": OpSpec(2, 0, _same_width,
                   lambda w, p: lambda x, s, h=1 << (w[0] - 1), m=_mask(w[0]):
                       (((x ^ h) - h) >> s) & m,
                   "(bvashr {0} {1})", _fold2(unit=0, commutes=False)),
    "eq": OpSpec(2, 0, _compare,
                 lambda w, p: lambda x, y: 1 if x == y else 0,
                 "(ite (= {0} {1}) #b1 #b0)", _fold2(same=1)),
    "ult": OpSpec(2, 0, _compare,
                  lambda w, p: lambda x, y: 1 if x < y else 0,
                  "(ite (bvult {0} {1}) #b1 #b0)", _fold2(same=0)),
    "ule": OpSpec(2, 0, _compare,
                  lambda w, p: lambda x, y: 1 if x <= y else 0,
                  "(ite (bvule {0} {1}) #b1 #b0)", _fold2(same=1)),
    "slt": OpSpec(2, 0, _compare,
                  lambda w, p: lambda x, y, h=1 << (w[0] - 1):
                      1 if x ^ h < y ^ h else 0,
                  "(ite (bvslt {0} {1}) #b1 #b0)", _fold2(same=0)),
    "sle": OpSpec(2, 0, _compare,
                  lambda w, p: lambda x, y, h=1 << (w[0] - 1):
                      1 if x ^ h <= y ^ h else 0,
                  "(ite (bvsle {0} {1}) #b1 #b0)", _fold2(same=1)),
    "mux": OpSpec(3, 0, _mux_width,
                  lambda w, p: lambda s, x, y: x if s else y,
                  "(ite (= {0} #b1) {1} {2})", _fold_mux),
    "reduce_or": OpSpec(1, 0, lambda op, w: 1,
                        lambda w, p: lambda x: 1 if x else 0,
                        "(ite (distinct {0} {zeros}) #b1 #b0)"),
    "reduce_and": OpSpec(1, 0, lambda op, w: 1,
                         lambda w, p: lambda x, m=_mask(w[0]):
                             1 if x == m else 0,
                         "(ite (= {0} {ones}) #b1 #b0)"),
    "concat": OpSpec(2, 0, lambda op, w: w[0] + w[1],
                     lambda w, p: lambda x, y, n=w[1]: (x << n) | y,
                     "(concat {0} {1})"),
    "extract": OpSpec(1, 2, _extract_width,
                      lambda w, p: lambda x, lo=p[1], m=_mask(p[0] - p[1] + 1):
                          (x >> lo) & m,
                      "((_ extract {p[0]} {p[1]}) {0})",
                      lambda w, p, xs: xs[0] if p == (w[0] - 1, 0) else None),
    "zero_extend": OpSpec(1, 1, _extend_width, lambda w, p: lambda x: x,
                          "((_ zero_extend {p[0]}) {0})",
                          lambda w, p, xs: xs[0] if p == (0,) else None),
    "sign_extend": OpSpec(1, 1, _extend_width,
                          lambda w, p: lambda x, h=1 << (w[0] - 1),
                                              m=_mask(w[0] + p[0]):
                              ((x ^ h) - h) & m,
                          "((_ sign_extend {p[0]}) {0})",
                          lambda w, p, xs: xs[0] if p == (0,) else None),
}


def _op_spec(op: Operator) -> OpSpec:
    """The table entry for op; raises ArityError for an unknown operator
    or a wrong number of params."""
    spec = OPS.get(op.name)
    if spec is None:
        raise ArityError(f"unknown operator {op.name!r}")
    if len(op.params) != spec.nparams:
        raise ArityError(
            f"{op.name} takes {spec.nparams} params, got {op.params}")
    return spec


def op_arity(op: Operator) -> int:
    return _op_spec(op).arity


def op_result_width(op: Operator, arg_widths: list[int]) -> int:
    """Width rule for each operator; raises WidthError / ArityError.

    concat(a, b) is a-high (result value = a * 2**width(b) + b); extract is
    inclusive on both ends; mul truncates to the operand width; comparisons
    and the reductions produce width 1; mux takes a 1-bit selector.
    """
    spec = _op_spec(op)
    if len(arg_widths) != spec.arity:
        raise ArityError(
            f"{op} expects {spec.arity} args, got {len(arg_widths)}")
    return spec.width(op, arg_widths)


def fold(op: Operator, widths: list[int], xs: list) -> object:
    """op on xs, each an int when it is a known constant and an opaque
    value compared only with == otherwise: sem's value when all are
    known, else the fold rule's answer, which is one of xs, the result's
    value as an int, or None when nothing folds."""
    spec = OPS[op.name]
    if all(type(x) is int for x in xs):
        return spec.sem(widths, op.params)(*xs)
    return spec.fold(widths, op.params, xs)


# -- node variants ----------------------------------------------------------

# Nodes, their parts and Prog have slots: a program runs to thousands of
# nodes, and a caller may keep many programs.


@dataclass(frozen=True, slots=True)
class BV:
    """A constant node."""

    b: BitVec


@dataclass(frozen=True, slots=True)
class Var:
    """A free variable: reads the input stream of that name."""

    name: str
    width: int


@dataclass(frozen=True, slots=True)
class Op:
    """An operator applied to argument ids (same program)."""

    op: Operator
    args: tuple[Id, ...]


@dataclass(frozen=True, slots=True)
class Reg:
    """A register: value at cycle 0 is init, at cycle t+1 the data node's
    value at cycle t.  The clock is implicit."""

    data: Id
    init: BitVec


@dataclass(frozen=True, slots=True)
class PortBinding:
    """How one bound body variable reaches the emitted module instance."""

    port: str
    direction: str  # "in" or "out"
    width: int


@dataclass(frozen=True, slots=True)
class EmitMeta:
    """Everything the emitter needs to print a Prim as a module instance.

    port_bindings maps a bound body-variable name to its module port.  It
    may also carry the reserved key "clk" with no matching bind; the
    emitter connects that port to the global clock.  parameter_bindings
    maps a Verilog parameter name to either the bound body-variable whose
    (post-substitution constant) value becomes the parameter, or a fixed
    BitVec literal.  output_port names the single output port; primitives
    with several output ports pack them into one root value and list the
    packing in output_slices as (port, hi, lo) ranges, in which case
    output_port is the name of the low slice.

    Invariant: every bound variable of the owning Prim appears in exactly
    one port binding or parameter binding.
    """

    module_name: str
    port_bindings: tuple[tuple[str, PortBinding], ...]
    parameter_bindings: tuple[tuple[str, Union[str, BitVec]], ...]
    output_port: str
    output_slices: tuple[tuple[str, int, int], ...] = ()

    def port_map(self) -> dict[str, PortBinding]:
        return dict(self.port_bindings)

    def param_map(self) -> dict[str, Union[str, BitVec]]:
        return dict(self.parameter_bindings)


@dataclass(frozen=True, slots=True)
class Prim:
    """A primitive instance: a behavioral body evaluated under a fresh
    environment built from binds (body free-variable name -> outer id).

    The body is a complete program of its own; its node ids must be
    disjoint from every other program in the same tree (W2).
    """

    binds: tuple[tuple[str, Id], ...]
    body: "Prog"
    meta: EmitMeta

    def bind_map(self) -> dict[str, Id]:
        return dict(self.binds)


@dataclass(frozen=True, slots=True)
class ConstantHole:
    """Hole domain: any constant of the given width."""

    width: int


@dataclass(frozen=True, slots=True)
class Hole:
    """An unresolved primitive configuration value: synthesis replaces it
    with a constant of spec.width bits.  Only sketches contain these."""

    label: str
    spec: ConstantHole


Node = Union[BV, Var, Op, Reg, Prim, Hole]


@dataclass(slots=True)
class Prog:
    """root id plus insertion-ordered id -> Node map."""

    root: Id
    nodes: dict[Id, Node]

    def __iter__(self) -> Iterator[tuple[Id, Node]]:
        return iter(self.nodes.items())


@dataclass
class Sketch:
    """A structural program with holes, plus the hole table and any
    architecture-declared side constraints.  Filling every hole with a
    constant (substitute_holes) yields a structural program.

    holes maps label -> ConstantHole and must list exactly the Hole nodes
    reachable in psi.  side_constraints are width-1 programs of their own
    whose leaves are Hole nodes of that table or constants (an
    architecture's ``constraints:``, lowered per instance); each must
    evaluate to 1 under any accepted hole assignment.
    """

    psi: Prog
    holes: dict[str, ConstantHole]
    side_constraints: tuple[Prog, ...] = ()


WitnessMap = dict[Id, int]


# -- basic queries ----------------------------------------------------------


def inputs(node: Node) -> frozenset[Id]:
    """Ids of the same program this node combinationally depends on.

    Reg contributes nothing (its data is read a cycle late); BV, Var and
    Hole contribute nothing.  Prim contributes its bound ids.
    """
    if isinstance(node, Op):
        return frozenset(node.args)
    if isinstance(node, Prim):
        return frozenset(i for _, i in node.binds)
    return frozenset()


def free_vars(p: Prog) -> set[str]:
    """Names of the Var nodes of p itself (Prim bodies have their own)."""
    return {n.name for n in p.nodes.values() if isinstance(n, Var)}


def var_widths(p: Prog) -> dict[str, int]:
    """name -> width for p's own Var nodes; raises WidthError if a name is
    declared twice at different widths."""
    out: dict[str, int] = {}
    for n in p.nodes.values():
        if isinstance(n, Var):
            if n.name in out and out[n.name] != n.width:
                raise WidthError(
                    f"variable {n.name!r} declared at widths "
                    f"{out[n.name]} and {n.width}"
                )
            out[n.name] = n.width
    return out


def is_behavioral(p: Prog) -> bool:
    """No Prim, no Hole, anywhere."""
    return not any(isinstance(n, (Prim, Hole)) for n in p.nodes.values())


def structural_violations(p: Prog) -> list[str]:
    """Why p is not a structural program ([] when it is one).

    Structural programs have no Reg at the top level, only wiring Ops, and
    every Prim body is behavioral.  Holes are allowed (sketches are
    structural programs too).
    """
    bad = []
    for i, n in p.nodes.items():
        if isinstance(n, Reg):
            bad.append(f"node {i}: Reg not allowed at top level")
        elif isinstance(n, Op) and n.op.name not in WIRING_OPS:
            bad.append(f"node {i}: operator {n.op.name} is not wiring")
        elif isinstance(n, Prim) and not is_behavioral(n.body):
            bad.append(f"node {i}: Prim body is not behavioral")
    return bad


# -- well-formedness --------------------------------------------------------


def _collect_programs(p: Prog, out: list[tuple[Prog, Optional[tuple[Id, Prim]]]],
                      seen: set[int]) -> None:
    """Flatten p and every Prim body into out as (prog, enclosing prim)."""
    if id(p) in seen:  # sharing one Prog object twice would alias ids
        raise WellFormednessError(
            "W2", "the same Prog object appears twice in the tree")
    seen.add(id(p))
    out.append((p, None))
    for i, n in p.nodes.items():
        if isinstance(n, Prim):
            start = len(out)
            _collect_programs(n.body, out, seen)
            # fix up: the body entry's enclosing prim is (i, n)
            out[start] = (out[start][0], (i, n))


def _node_width(i: Id, n: Node, widths: dict[Id, int]) -> int:
    """Width of node n at id i given already-known arg widths."""
    if isinstance(n, BV):
        return n.b.width
    if isinstance(n, Var):
        return n.width
    if isinstance(n, Reg):
        return n.init.width
    if isinstance(n, Prim):
        return widths[n.body.root]
    if isinstance(n, Hole):
        return n.spec.width
    assert isinstance(n, Op)
    try:
        return op_result_width(n.op, [widths[a] for a in n.args])
    except (WidthError, ArityError) as e:
        raise WellFormednessError("width", f"node {i}: {e}", (i,)) from e


def check_well_formed(p: Prog) -> WitnessMap:
    """Check every well-formedness rule and return the witness map.

    The witness assigns each id (across p and all nested Prim bodies) a
    level such that every combinational dependency has a strictly smaller
    level; registers always sit at level 0.  Raises WellFormednessError.
    Side effect of success: node widths are consistent everywhere.
    """
    return _check(p)[0]


def _check(p: Prog) -> tuple[WitnessMap, dict[Id, int],
                             list[tuple[Prog, Optional[tuple[Id, Prim]]]]]:
    """check_well_formed's work: (witness, id -> width, flattened tree)."""
    progs: list[tuple[Prog, Optional[tuple[Id, Prim]]]] = []
    _collect_programs(p, progs, set())

    owner: dict[Id, Prog] = {}
    for prog, _ in progs:
        for i in prog.nodes:
            if i in owner:
                raise WellFormednessError(
                    "W2", f"id {i} appears in two programs", (i,))
            owner[i] = prog

    for prog, enclosing in progs:
        if prog.root not in prog.nodes:
            kind = "W1" if enclosing is None else "W4"
            raise WellFormednessError(
                kind, f"root id {prog.root} not among the program's nodes",
                (prog.root,))
        for i, n in prog.nodes.items():
            for a in inputs(n):
                if a not in prog.nodes:
                    kind = "W3" if enclosing is None else "W4"
                    raise WellFormednessError(
                        kind, f"node {i} references missing id {a}", (i, a))
            if isinstance(n, Reg) and n.data not in prog.nodes:
                kind = "W3" if enclosing is None else "W4"
                raise WellFormednessError(
                    kind, f"register {i} references missing id {n.data}",
                    (i, n.data))

    var_w: dict[int, dict[str, int]] = {}     # id(prog) -> its var widths
    for prog, _ in progs:
        try:
            var_w[id(prog)] = var_widths(prog)
        except WidthError as e:
            raise WellFormednessError("width", str(e)) from e

    for prog, _ in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Prim):
                bound = {x for x, _ in n.binds}
                if len(bound) != len(n.binds):
                    raise WellFormednessError(
                        "W5", f"prim {i} binds a variable twice", (i,))
                fv = set(var_w[id(n.body)])
                if bound != fv:
                    raise WellFormednessError(
                        "W5",
                        f"prim {i} binds {sorted(bound)} but the body's free "
                        f"variables are {sorted(fv)}", (i,))

    # Constraint edges: src must be evaluated before dst in the same cycle.
    edges: dict[Id, list[Id]] = {i: [] for i in owner}
    indeg: dict[Id, int] = {i: 0 for i in owner}

    def add_edge(src: Id, dst: Id) -> None:
        edges[src].append(dst)
        indeg[dst] += 1

    for prog, _ in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Op):
                for a in n.args:
                    add_edge(a, i)
            elif isinstance(n, Prim):
                add_edge(n.body.root, i)
                bm = n.bind_map()
                for bi, bn in n.body.nodes.items():
                    if isinstance(bn, Var):
                        add_edge(bm[bn.name], bi)

    # Longest-path levels via Kahn's algorithm.  Registers are never edge
    # targets, so they automatically get level 0.
    witness: WitnessMap = {}
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order: list[Id] = []
    level = {i: 0 for i in ready}
    while ready:
        i = ready.pop()
        order.append(i)
        witness[i] = level[i]
        for j in edges[i]:
            level[j] = max(level.get(j, 0), level[i] + 1)
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != len(owner):
        stuck = tuple(sorted(i for i, d in indeg.items() if d > 0))
        raise WellFormednessError(
            "W6", f"combinational cycle through ids {stuck}", stuck)

    # Width pass, in witness order so every dependency is already sized.
    widths: dict[Id, int] = {}
    for i in sorted(owner, key=lambda j: (witness[j], j)):
        widths[i] = _node_width(i, owner[i].nodes[i], widths)
    for prog, _ in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Reg) and widths[n.data] != n.init.width:
                raise WellFormednessError(
                    "width",
                    f"register {i}: data width {widths[n.data]} != init "
                    f"width {n.init.width}", (i,))
            if isinstance(n, Prim):
                bw = var_w[id(n.body)]
                for x, bi in n.binds:
                    if widths[bi] != bw[x]:
                        raise WellFormednessError(
                            "width",
                            f"prim {i}: bind {x!r} has width {widths[bi]} "
                            f"but the body expects {bw[x]}", (i,))
    return witness, widths, progs


def node_widths(p: Prog) -> dict[Id, int]:
    """id -> width for every node in the tree (checks well-formedness)."""
    return _check(p)[1]


@dataclass
class Schedule:
    """The cycle-by-cycle walk of a well-formed program tree, shared by the
    concrete and the symbolic interpreter.

    nodes holds every node of the tree (p and all Prim bodies) by id and
    widths their widths; order lists them by witness level, then id, so
    each node comes after everything it reads in the same cycle.  A body Var reads the outer id
    in binds; any other Var reads the input stream of its name.  regs
    lists the registers, whose values are set before the walk of a cycle.
    """

    nodes: dict[Id, Node]
    widths: dict[Id, int]
    order: list[Id]
    binds: dict[Id, Id]
    regs: list[tuple[Id, Reg]]


def schedule(p: Prog) -> Schedule:
    """Check p's well-formedness and plan its evaluation."""
    witness, widths, progs = _check(p)
    nodes: dict[Id, Node] = {}
    binds: dict[Id, Id] = {}
    for prog, enclosing in progs:
        nodes.update(prog.nodes)
        if enclosing is not None:
            bm = enclosing[1].bind_map()
            for i, n in prog.nodes.items():
                if isinstance(n, Var):
                    binds[i] = bm[n.name]
    order = sorted(nodes, key=lambda j: (witness[j], j))
    regs = [(i, n) for i, n in nodes.items() if isinstance(n, Reg)]
    return Schedule(nodes, widths, order, binds, regs)


def verify_witness(p: Prog, w: WitnessMap) -> bool:
    """Check the four witness conditions directly (used by tests)."""
    progs: list[tuple[Prog, Optional[tuple[Id, Prim]]]] = []
    _collect_programs(p, progs, set())
    for prog, _ in progs:
        for i, n in prog.nodes.items():
            if i not in w or w[i] < 0:
                return False
            if isinstance(n, Reg):
                if w[i] != 0:
                    return False
            elif isinstance(n, Prim):
                if not w[i] > w[n.body.root]:
                    return False
                bm = n.bind_map()
                for bi, bn in n.body.nodes.items():
                    if isinstance(bn, Var) and not w[bi] > w[bm[bn.name]]:
                        return False
            else:
                for a in inputs(n):
                    if not w[i] > w[a]:
                        return False
    return True


# -- hole substitution ------------------------------------------------------


def substitute_holes(s: Sketch, assignment: Mapping[str, BV]) -> Prog:
    """Replace every hole in s.psi by its assigned constant node.

    Raises MissingAssignment when a label has no value and DomainError when
    a value is not a BV of the hole's width.  The result re-checks
    well-formed.
    """
    for label in s.holes:
        if label not in assignment:
            raise MissingAssignment(f"no assignment for hole {label!r}")
    new_nodes: dict[Id, Node] = {}
    for i, n in s.psi.nodes.items():
        if isinstance(n, Hole):
            if n.label not in assignment:
                raise MissingAssignment(f"no assignment for hole {n.label!r}")
            v = assignment[n.label]
            if not isinstance(v, BV) or v.b.width != n.spec.width:
                raise DomainError(
                    f"hole {n.label!r} needs a width-{n.spec.width} "
                    f"constant, got {v}")
            new_nodes[i] = v
        else:
            new_nodes[i] = n
    out = Prog(s.psi.root, new_nodes)
    check_well_formed(out)
    return out


def sketch_holes_consistent(s: Sketch) -> bool:
    """True when s.holes matches exactly the Hole nodes in s.psi."""
    found = {n.label: n.spec for n in s.psi.nodes.values()
             if isinstance(n, Hole)}
    return found == s.holes


# -- construction helper ----------------------------------------------------


class ProgBuilder:
    """Monotone id allocator + node table for building programs by hand.

    Ids are unique per builder; fresh() on a child builder continues the
    parent's counter so Prim bodies stay disjoint (W2).
    """

    def __init__(self, start: Id = 1, _counter: Optional[list[Id]] = None):
        self._counter = _counter if _counter is not None else [start]
        self.nodes: dict[Id, Node] = {}

    def fresh(self) -> Id:
        i = self._counter[0]
        self._counter[0] += 1
        return i

    def add(self, node: Node) -> Id:
        i = self.fresh()
        self.nodes[i] = node
        return i

    def bv(self, value: int, width: int) -> Id:
        return self.add(BV(BitVec.of(value, width)))

    def var(self, name: str, width: int) -> Id:
        return self.add(Var(name, width))

    def op(self, name: str, *args: Id, params: tuple[int, ...] = ()) -> Id:
        return self.add(Op(Operator(name, params), tuple(args)))

    def extract(self, hi: int, lo: int, a: Id) -> Id:
        return self.op("extract", a, params=(hi, lo))

    def zext(self, k: int, a: Id) -> Id:
        return self.op("zero_extend", a, params=(k,))

    def sext(self, k: int, a: Id) -> Id:
        return self.op("sign_extend", a, params=(k,))

    def concat(self, hi: Id, lo: Id) -> Id:
        return self.op("concat", hi, lo)

    def concat_all(self, ids: list[Id]) -> Id:
        """concat a list given MSB-first; single element passes through."""
        assert ids
        out = ids[0]
        for i in ids[1:]:
            out = self.concat(out, i)
        return out

    def reg(self, data: Id, init: BitVec) -> Id:
        return self.add(Reg(data, init))

    def hole(self, label: str, spec: ConstantHole) -> Id:
        return self.add(Hole(label, spec))

    def child(self) -> "ProgBuilder":
        return ProgBuilder(_counter=self._counter)

    def prog(self, root: Id) -> Prog:
        return Prog(root, dict(self.nodes))


# -- canonical textual serialization ---------------------------------------


def _format_node(n: Node) -> str:
    if isinstance(n, BV):
        return f"(bv {n.b.value} {n.b.width})"
    if isinstance(n, Var):
        return f"(var {n.name} {n.width})"
    if isinstance(n, Op):
        head = n.op.name
        if n.op.params:
            head += " " + " ".join(str(x) for x in n.op.params)
        return f"(op {head} {' '.join(str(a) for a in n.args)})".replace("  ", " ")
    if isinstance(n, Reg):
        return f"(reg {n.data} (bv {n.init.value} {n.init.width}))"
    if isinstance(n, Hole):
        return f"(hole {n.label} (constant {n.spec.width}))"
    assert isinstance(n, Prim)
    binds = " ".join(f"({x} {i})" for x, i in sorted(n.binds))
    return (f"(prim {n.meta.module_name} (binds {binds}) "
            f"(body {dump_sexpr(n.body, indent=None)}))")


def dump_sexpr(p: Prog, indent: Optional[str] = "  ") -> str:
    """Canonical serialization: ids ascending, byte-stable across runs."""
    parts = [f"(root {p.root})"]
    for i in sorted(p.nodes):
        parts.append(f"(node {i} {_format_node(p.nodes[i])})")
    if indent is None:
        return "(prog " + " ".join(parts) + ")"
    sep = "\n" + indent
    return "(prog " + sep.join(parts) + ")"
