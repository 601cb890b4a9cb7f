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
    for unresolved primitive configuration bits.  Each Hole node carries
    its label and width, and a sketch's hole table is read off them.

Sharing one node type keeps substitution trivial: synthesis turns a sketch
into a structural program by replacing each Hole with a constant of its
width, nothing else moves.

Every instance of a primitive holds its model's one body, at an id offset
of its own (Prim.base): a body node's flat id, its id in the whole tree,
is the offset plus its id in the body, and readers of the tree read each
body through its offset instead of copying it.

Well-formedness is checked over the whole tree at once, and produces a
witness map assigning every flat id (Prim bodies included) a level such
that every combinational dependency strictly decreases.  The
witness doubles as the evaluation schedule (schedule), which
interp.plan_program reduces to one cycle's steps for both the compiled
simulator and the symbolic unroller.  Each stage that makes or reads a
program checks it once: the spec, BTOR2 and JSON readers, the primitive
models, the planner and the emitters.  Hole substitution keeps a well-formed
program well-formed, so it checks nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

Id = int


class SketchmapError(Exception):
    """Base class for every error this package raises on purpose."""


class WellFormednessError(SketchmapError):
    """A program violated one of the well-formedness rules.

    kind is one of:
      W1     root id not present
      W2     two nodes of the tree share one flat id
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
class EmitMeta:
    """Everything the emitter needs to print a Prim as a module instance.

    ports lists the module's input ports in declaration order; each name
    is also the body variable its bind carries, except "clk", which has
    no bind and is wired to the module clock.  parameter_bindings maps a
    Verilog parameter name to either the bound body variable whose
    (post-substitution constant) value becomes the parameter, or a fixed
    BitVec literal.  outputs lists every output port as (port, hi, lo),
    its bit range in the Prim's value, MSB first; a single output spans
    the whole value.

    Invariant: every bound variable of the owning Prim is a port or the
    source of a parameter binding.
    """

    module_name: str
    ports: tuple[str, ...]
    parameter_bindings: tuple[tuple[str, Union[str, BitVec]], ...]
    outputs: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True, slots=True)
class Prim:
    """A primitive instance: a behavioral body evaluated under a fresh
    environment built from binds (body free-variable name -> outer id).

    The body is a complete program of its own, which many Prims may hold.
    Body node i has flat id o + base + i, where o is the offset of the
    program holding the Prim (0 at the top), so nested offsets add up.
    No two nodes of a tree may share a flat id (W2).
    """

    binds: tuple[tuple[str, Id], ...]
    body: "Prog"
    meta: EmitMeta
    base: Id = 0


@dataclass(frozen=True, slots=True)
class Hole:
    """An unresolved primitive configuration value: synthesis replaces it
    with a constant of width bits.  Only sketches contain these."""

    label: str
    width: int


Node = Union[BV, Var, Op, Reg, Prim, Hole]


@dataclass(slots=True)
class Prog:
    """root id plus insertion-ordered id -> Node map."""

    root: Id
    nodes: dict[Id, Node]

    def __iter__(self) -> Iterator[tuple[Id, Node]]:
        return iter(self.nodes.items())


@dataclass(frozen=True)
class Sketch:
    """A structural program with holes, plus any architecture-declared
    side constraints.  Filling every hole with a constant
    (substitute_holes) yields a structural program.  Frozen, so the hole
    table read off psi stays true.

    side_constraints are width-1 programs of their own whose leaves are
    Hole nodes of psi or constants (an architecture's ``constraints:``,
    lowered per instance); each must evaluate to 1 under any accepted
    hole assignment.
    """

    psi: Prog
    side_constraints: tuple[Prog, ...] = ()

    @cached_property
    def holes(self) -> dict[str, int]:
        """hole_widths of psi's nodes, read once."""
        return hole_widths(self.psi.nodes.values())


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


def _widths_by_name(what: str, pairs: Iterable[tuple[str, int]]
                    ) -> dict[str, int]:
    """name -> width over (name, width) pairs; raises WidthError if a name
    comes with two different widths."""
    out: dict[str, int] = {}
    for name, w in pairs:
        if out.setdefault(name, w) != w:
            raise WidthError(
                f"{what} {name!r} declared at widths {out[name]} and {w}")
    return out


def var_widths(p: Prog) -> dict[str, int]:
    """name -> width for p's own Var nodes; raises WidthError if a name is
    declared twice at different widths."""
    return _widths_by_name("variable", ((n.name, n.width)
                                        for n in p.nodes.values()
                                        if isinstance(n, Var)))


def hole_widths(nodes: Iterable[Node]) -> dict[str, int]:
    """label -> width for the Hole nodes among nodes, in the order they
    come; raises WidthError if a label appears at two widths."""
    return _widths_by_name("hole", ((n.label, n.width) for n in nodes
                                    if isinstance(n, Hole)))


def is_behavioral(p: Prog) -> bool:
    """No Prim, no Hole, anywhere."""
    return not any(isinstance(n, (Prim, Hole)) for n in p.nodes.values())


def structural_violations(p: Prog) -> list[tuple[Id, str]]:
    """Why p is not a structural program, as (node id, reason) in node
    order ([] when it is one).

    Structural programs have no Reg at the top level, only wiring Ops, and
    every Prim body is behavioral.  Holes are allowed (sketches are
    structural programs too).
    """
    bad = []
    for i, n in p.nodes.items():
        if isinstance(n, Reg):
            bad.append((i, "Reg not allowed at top level"))
        elif isinstance(n, Op) and n.op.name not in WIRING_OPS:
            bad.append((i, f"operator {n.op.name} is not wiring"))
        elif isinstance(n, Prim) and not is_behavioral(n.body):
            bad.append((i, "Prim body is not behavioral"))
    return bad


# -- well-formedness --------------------------------------------------------


_Flat = list[tuple["Prog", Id, Optional[dict[str, Id]]]]


def _collect_programs(p: Prog, out: _Flat, off: Id = 0,
                      env: Optional[dict[str, Id]] = None) -> None:
    """Flatten p and every Prim body into out: node i of a program at
    offset off has flat id off + i, and a body's Var x reads flat id
    env[x]."""
    out.append((p, off, env))
    for i, n in p.nodes.items():
        if isinstance(n, Prim):
            _collect_programs(n.body, out, off + n.base,
                              {x: off + j for x, j in n.binds})


def _node_width(i: Id, n: Node, off: Id, widths: dict[Id, int]) -> int:
    """Width of node n at flat id i, its program at offset off."""
    if isinstance(n, BV):
        return n.b.width
    if isinstance(n, (Var, Hole)):
        return n.width
    if isinstance(n, Reg):
        return n.init.width
    if isinstance(n, Prim):
        return widths[off + n.base + n.body.root]
    assert isinstance(n, Op)
    try:
        return op_result_width(n.op, [widths[off + a] for a in n.args])
    except (WidthError, ArityError) as e:
        raise WellFormednessError("width", f"node {i}: {e}", (i,)) from e


def check_well_formed(p: Prog) -> WitnessMap:
    """Check every well-formedness rule and return the witness map.

    The witness assigns each flat id (of p and every nested Prim body) a
    level such that every combinational dependency has a strictly smaller
    level; registers always sit at level 0.  Raises WellFormednessError.
    Side effect of success: node widths are consistent everywhere.
    """
    return _check(p)[0]


def _check(p: Prog) -> tuple[WitnessMap, dict[Id, int], _Flat,
                             list[tuple[Id, Node, Id]]]:
    """check_well_formed's work: (witness, widths, flattened tree,
    Schedule.order)."""
    progs: _Flat = []
    _collect_programs(p, progs)

    owner: dict[Id, tuple[Id, Node, Id]] = {}  # flat id -> (it, node, offset)
    for prog, off, _ in progs:
        for i, n in prog.nodes.items():
            j = off + i
            if j in owner:
                raise WellFormednessError(
                    "W2", f"flat id {j} appears twice in the tree", (j,))
            owner[j] = (j, n, off)

    # each distinct program's own rules, once however many Prims hold it
    var_w: dict[int, dict[str, int]] = {}     # id(prog) -> its var widths
    for prog, _, env in progs:
        if id(prog) in var_w:
            continue
        if prog.root not in prog.nodes:
            raise WellFormednessError(
                "W1" if env is None else "W4",
                f"root id {prog.root} not among the program's nodes",
                (prog.root,))
        for i, n in prog.nodes.items():
            for a in (n.data,) if isinstance(n, Reg) else inputs(n):
                if a not in prog.nodes:
                    raise WellFormednessError(
                        "W3" if env is None else "W4",
                        f"node {i} references missing id {a}", (i, a))
        try:
            var_w[id(prog)] = var_widths(prog)
        except WidthError as e:
            raise WellFormednessError("width", str(e)) from e

    # Constraint edges: src must be evaluated before dst in the same cycle.
    # A Prim comes before its body in progs, so W5 holds before the body's
    # Vars read env.
    edges: dict[Id, list[Id]] = {i: [] for i in owner}
    indeg: dict[Id, int] = {i: 0 for i in owner}

    def add_edge(src: Id, dst: Id) -> None:
        edges[src].append(dst)
        indeg[dst] += 1

    for prog, off, env in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Op):
                for a in n.args:
                    add_edge(off + a, off + i)
            elif isinstance(n, Prim):
                bound = sorted(x for x, _ in n.binds)
                if bound != sorted(var_w[id(n.body)]):
                    raise WellFormednessError(
                        "W5", f"prim {off + i} binds {bound} but the body's "
                        f"free variables are {sorted(var_w[id(n.body)])}",
                        (off + i,))
                add_edge(off + n.base + n.body.root, off + i)
            elif isinstance(n, Var) and env is not None:
                add_edge(env[n.name], off + i)

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
    walk = [owner[i] for i in sorted(owner, key=lambda j: (witness[j], j))]
    widths: dict[Id, int] = {}
    for i, n, off in walk:
        widths[i] = _node_width(i, n, off, widths)
    for prog, off, _ in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Reg) and widths[off + n.data] != n.init.width:
                raise WellFormednessError(
                    "width",
                    f"register {off + i}: data width {widths[off + n.data]} "
                    f"!= init width {n.init.width}", (off + i,))
            if isinstance(n, Prim):
                bw = var_w[id(n.body)]
                for x, bi in n.binds:
                    if widths[off + bi] != bw[x]:
                        raise WellFormednessError(
                            "width",
                            f"prim {off + i}: bind {x!r} has width "
                            f"{widths[off + bi]} but the body expects "
                            f"{bw[x]}", (off + i,))
    return witness, widths, progs, walk


def node_widths(p: Prog) -> dict[Id, int]:
    """flat id -> width for every node in the tree (checks it)."""
    return _check(p)[1]


@dataclass
class Schedule:
    """The cycle-by-cycle walk of a well-formed program tree, which
    interp.plan_program reads.

    order lists every node of the tree (p and all Prim bodies) as (flat
    id, node, its program's offset o) by witness level, then flat id, so
    each node comes after everything it reads in the same cycle: an Op
    reads o + arg, a Prim o + base + body root, a body Var the flat id
    in binds, and any other Var the input stream of its name.  widths is
    by flat id.  regs lists the registers as (flat id, flat id of their
    data, init); their values are set before the walk of a cycle.
    """

    order: list[tuple[Id, Node, Id]]
    widths: dict[Id, int]
    binds: dict[Id, Id]
    regs: list[tuple[Id, Id, BitVec]]


def schedule(p: Prog) -> Schedule:
    """Check p's well-formedness and plan its evaluation."""
    _, widths, progs, order = _check(p)
    binds: dict[Id, Id] = {}
    regs: list[tuple[Id, Id, BitVec]] = []
    for prog, off, env in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Var) and env is not None:
                binds[off + i] = env[n.name]
            elif isinstance(n, Reg):
                regs.append((off + i, off + n.data, n.init))
    return Schedule(order, widths, binds, regs)


# -- hole substitution ------------------------------------------------------


def substitute_holes(s: Sketch, assignment: Mapping[str, BV]) -> Prog:
    """Replace every hole in s.psi by its assigned constant node.

    Raises MissingAssignment when a label has no value and DomainError when
    a value is not a BV of the hole's width.  Nothing else is checked: a
    constant has no inputs and the width of the hole it replaces, so a
    well-formed sketch yields a well-formed program, and every consumer
    (the simulator, the emitters) checks the program it is given.
    """
    new_nodes: dict[Id, Node] = {}
    for i, n in s.psi.nodes.items():
        if isinstance(n, Hole):
            if n.label not in assignment:
                raise MissingAssignment(f"no assignment for hole {n.label!r}")
            v = assignment[n.label]
            if not isinstance(v, BV) or v.b.width != n.width:
                raise DomainError(
                    f"hole {n.label!r} needs a width-{n.width} "
                    f"constant, got {v}")
            new_nodes[i] = v
        else:
            new_nodes[i] = n
    return Prog(s.psi.root, new_nodes)


# -- construction helper ----------------------------------------------------


class ProgBuilder:
    """Monotone id allocator + node table for building programs by hand.

    Ids are unique per builder.  A body built on a child builder continues
    the parent's counter, so it sits at base 0; a shared body on ids
    0..n-1 sits at base fresh(n), n ids reserved from the counter (W2).
    """

    def __init__(self, start: Id = 1, _counter: Optional[list[Id]] = None):
        self._counter = _counter if _counter is not None else [start]
        self.nodes: dict[Id, Node] = {}

    def fresh(self, n: int = 1) -> Id:
        """The first of n new consecutive ids."""
        i = self._counter[0]
        self._counter[0] += n
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

    def hole(self, label: str, width: int) -> Id:
        return self.add(Hole(label, width))

    def child(self) -> "ProgBuilder":
        return ProgBuilder(_counter=self._counter)

    def prog(self, root: Id) -> Prog:
        return Prog(root, dict(self.nodes))


# -- canonical textual serialization ---------------------------------------


def _format_node(n: Node, off: Id) -> str:
    if isinstance(n, BV):
        return f"(bv {n.b.value} {n.b.width})"
    if isinstance(n, Var):
        return f"(var {n.name} {n.width})"
    if isinstance(n, Op):
        head = n.op.name
        if n.op.params:
            head += " " + " ".join(str(x) for x in n.op.params)
        args = " ".join(str(off + a) for a in n.args)
        return f"(op {head} {args})".replace("  ", " ")
    if isinstance(n, Reg):
        return f"(reg {off + n.data} (bv {n.init.value} {n.init.width}))"
    if isinstance(n, Hole):
        return f"(hole {n.label} (constant {n.width}))"
    assert isinstance(n, Prim)
    binds = " ".join(f"({x} {off + i})" for x, i in sorted(n.binds))
    return (f"(prim {n.meta.module_name} (binds {binds}) "
            f"(body {dump_sexpr(n.body, None, off + n.base)}))")


def dump_sexpr(p: Prog, indent: Optional[str] = "  ", off: Id = 0) -> str:
    """Canonical serialization: ids ascending, byte-stable across runs.
    Each id prints as off + id: a Prim body at its flat ids."""
    parts = [f"(root {off + p.root})"]
    for i in sorted(p.nodes):
        parts.append(f"(node {off + i} {_format_node(p.nodes[i], off)})")
    if indent is None:
        return "(prog " + " ".join(parts) + ")"
    sep = "\n" + indent
    return "(prog " + sep.join(parts) + ")"
