"""Cycle-accurate concrete interpreter for programs and sketches.

Semantics, per node at cycle t:

  * BV b           -> b
  * Var x          -> env[x][t]
  * Op o args      -> o applied to args at t, by o's semantics in the
                      operator table (ir.OPS, read through ir.fold)
  * Reg data init  -> init at t = 0, value of data at t-1 otherwise
  * Prim binds body-> body root at t under a fresh environment where each
                      body variable x reads the bound node binds[x]
  * Hole h         -> the value bound to h (a program with an unbound
                      hole does not run)

Two implementations with identical observable behavior:

  * compile_program / simulate / interp: compile_program checks and
    schedules a program once by the well-formedness witness (ir.schedule,
    which covers the nodes inside Prim bodies) and generates one Python
    function whose loop computes a cycle in straight-line code on plain
    ints, skipping what the root does not need.  simulate runs it;
    interp runs it on the program rooted at the node asked for.  Linear
    in nodes x cycles, no recursion.  A caller that runs one program on
    many environments compiles it once and passes the compiled form to
    simulate.  A sketch compiles too: each hole label is a parameter of
    the generated function and Compiled.bind fixes their values, so one
    compiled sketch runs as every candidate hole assignment.
  * interp_naive: the recursive definition above, memo-free, for small
    hole-free programs; exists so tests can check the compiled form
    against it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Mapping, Sequence, Union

from .ir import (
    BV, OPS, BitVec, DomainError, Hole, Id, MissingAssignment, Op, Operator,
    Prim, Prog, Reg, SketchmapError, Var, check_well_formed, fold,
    hole_widths, op_result_width, schedule, var_widths,
)


class HorizonExceeded(SketchmapError):
    """A stream was read past its last provided cycle."""


@dataclass(frozen=True)
class Stream:
    """A finite input trace: one BitVec per cycle, uniform width."""

    values: tuple[BitVec, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("stream must cover at least one cycle")
        w = self.values[0].width
        if any(v.width != w for v in self.values):
            raise ValueError("stream values must share one width")

    @property
    def width(self) -> int:
        return self.values[0].width

    def __len__(self) -> int:
        return len(self.values)

    def at(self, t: int) -> BitVec:
        if t >= len(self.values):
            raise HorizonExceeded(
                f"cycle {t} requested but the stream ends at "
                f"{len(self.values) - 1}")
        return self.values[t]


Env = Mapping[str, Stream]


def stream_of_ints(values: Sequence[int], width: int) -> Stream:
    return Stream(tuple(BitVec.of(v, width) for v in values))


def env_of_ints(spec: Mapping[str, tuple[Sequence[int], int]]) -> dict[str, Stream]:
    """{name: (ints, width)} -> environment, for terse test setup."""
    return {k: stream_of_ints(vs, w) for k, (vs, w) in spec.items()}


# -- operator evaluation ----------------------------------------------------


def eval_op(op: Operator, args: list[BitVec]) -> BitVec:
    """Evaluate one operator application on constants, by the semantics
    in the operator table (ir.OPS)."""
    widths = [a.width for a in args]
    return BitVec(op_result_width(op, widths),
                  fold(op, widths, [a.value for a in args]))


# -- compiled evaluation ----------------------------------------------------


@dataclass(frozen=True)
class Compiled:
    """A checked program compiled to one Python function.

    inputs lists the program's input streams as (name, width), in the
    order fn takes them; width is the root's width; holes lists its
    unbound holes as (label, width), in the order fn takes their values.
    fn(*hole values, n, *streams) returns the root's int values for
    cycles 0..n-1 and needs every stream to hold at least n ints.
    simulate checks that before calling, and runs a Compiled only once
    bind has fixed its holes.
    """

    inputs: tuple[tuple[str, int], ...]
    width: int
    fn: Callable[..., list[int]] = field(repr=False)
    holes: tuple[tuple[str, int], ...] = ()

    def bind(self, values: Mapping[str, BitVec]) -> Compiled:
        """The same code with each hole's value fixed to values[label]:
        a hole-free Compiled.  Raises MissingAssignment when a label has
        no value and DomainError when a value is not a BitVec of the
        hole's width, as substitute_holes does."""
        args = []
        for label, w in self.holes:
            if label not in values:
                raise MissingAssignment(f"no assignment for hole {label!r}")
            v = values[label]
            if not isinstance(v, BitVec) or v.width != w:
                raise DomainError(
                    f"hole {label!r} needs a width-{w} value, got {v}")
            args.append(v.value)
        return Compiled(self.inputs, self.width,
                        functools.partial(self.fn, *args))


def compile_program(p: Prog) -> Compiled:
    """Check and schedule p once (ir.schedule), then compile it.

    The generated loop body computes one cycle.  Constants are int
    literals, a Var or a Prim is an alias of the node it reads, and an Op
    that ir.fold resolves from its literals (a mux with a literal
    selector, say) is a literal or an alias.  Every other Op gets one
    local assignment, in witness order, calling ir.OPS[name].sem bound
    for its widths and params.  Registers are locals that start at their
    init and are all updated together at the end of each cycle.  Only
    what the root needs is computed: a walk back from the root's value,
    through each assignment's operands and each register's data (its
    value in the cycle before), marks the locals that are live, and an
    Op, register or input stream that no live local reads gets no code.
    Each distinct hole label is a parameter h<k>, before n and without a
    default, and a Hole is an alias of it.  The source holds only
    integer ids, integer literals and fixed names: no program string
    enters it.
    """
    sched = schedule(p)
    inputs = tuple(var_widths(p).items())
    holes = tuple(hole_widths(Prog(p.root, {
        i: n for i, n, _ in sched.order if isinstance(n, Hole)})).items())
    stream = {name: f"x{k}" for k, (name, _) in enumerate(inputs)}
    hole = {label: f"h{k}" for k, (label, _) in enumerate(holes)}
    # id -> the node's value this cycle: an int when it is a constant,
    # else the name of the local holding it
    ref: dict[Id, Union[int, str]] = {i: f"r{i}" for i, _, _ in sched.regs}
    # the Ops left after folding, as (local, operator, widths, operands),
    # and for each local the operands its assignment reads
    ops: list[tuple[str, Operator, list[int], list]] = []
    reads: dict[str, list] = {}
    widths, binds = sched.widths, sched.binds
    for i, n, o in sched.order:
        if isinstance(n, Op):
            aw = [widths[o + a] for a in n.args]
            args = [ref[o + a] for a in n.args]
            r = fold(n.op, aw, args)
            if r is None:
                r = f"v{i}"
                ops.append((r, n.op, aw, args))
                reads[r] = args
            ref[i] = r
        elif isinstance(n, Var):
            ref[i] = ref[binds[i]] if i in binds else stream[n.name]
        elif isinstance(n, Prim):
            ref[i] = ref[o + n.base + n.body.root]
        elif isinstance(n, BV):
            ref[i] = n.b.value
        elif isinstance(n, Hole):
            ref[i] = hole[n.label]
        elif not isinstance(n, Reg):
            raise AssertionError(n)
    for i, d, _ in sched.regs:
        reads[f"r{i}"] = [ref[d]]
    live: set[str] = set()
    todo = [ref[p.root]]
    while todo:
        x = todo.pop()
        if type(x) is str and x not in live:
            live.add(x)
            todo.extend(reads.get(x, ()))
    fns: dict[tuple, int] = {}          # (operator, *widths) -> index
    sems: list[Callable[..., int]] = []
    body: list[str] = []
    for r, op, aw, args in ops:
        if r in live:
            key = (op, *aw)
            k = fns.get(key)
            if k is None:
                k = fns[key] = len(sems)
                sems.append(OPS[op.name].sem(aw, op.params))
            body.append(f"{r} = f{k}({', '.join(map(str, args))})")
    body.append(f"ap({ref[p.root]})")
    regs = [r for r in sched.regs if f"r{r[0]}" in live]
    if regs:
        body.append(", ".join(f"r{i}" for i, _, _ in regs) + " = "
                    + ", ".join(str(ref[d]) for _, d, _ in regs))
    streams = [f"s{k}" for k in range(len(inputs))]
    used = [(x, s) for x, s in zip(stream.values(), streams) if x in live]
    loop = (f"for _t, {', '.join(x for x, _ in used)} in "
            f"zip(range(n), {', '.join(s for _, s in used)}):" if used
            else "for _t in range(n):")
    # the operator functions are default arguments: fast locals in the loop
    params = (list(hole.values()) + ["n"] + streams
              + [f"f{k}=f{k}" for k in range(len(sems))])
    src = "\n".join(
        [f"def _sim({', '.join(params)}):"]
        + [f"    r{i} = {init.value}" for i, _, init in regs]
        + ["    out = []", "    ap = out.append", f"    {loop}"]
        + [f"        {line}" for line in body]
        + ["    return out"])
    namespace = {f"f{k}": f for k, f in enumerate(sems)}
    exec(_code(src), namespace)
    return Compiled(inputs, widths[p.root], namespace["_sim"], holes)


@functools.lru_cache(maxsize=16)
def _code(src: str) -> CodeType:
    """compile() of a generated source, kept for the last few: a caller
    that runs one program on many environments through simulate or
    interp, or compiles a design's spec for CEGIS and again for the
    2000-cycle check, pays compile() once.  The code depends on nothing
    but its source."""
    return compile(src, "<compiled program>", "exec")


def _run(c: Compiled, env: Mapping[str, Sequence[int]],
         horizon: int) -> list[int]:
    if c.holes:
        raise SketchmapError(
            "cannot run a program with unbound holes "
            f"{', '.join(label for label, _ in c.holes)}; bind them first")
    streams = []
    for name, w in c.inputs:
        if name not in env:
            raise SketchmapError(f"environment is missing input {name!r}")
        s = env[name]
        if s and (min(s) < 0 or max(s) >> w):
            raise SketchmapError(
                f"input {name!r} has a value outside {w} bits")
        streams.append(s)
    if streams and horizon > min(map(len, streams)):
        raise HorizonExceeded(
            f"cycle {horizon - 1} requested but inputs end at "
            f"{min(map(len, streams)) - 1}")
    return c.fn(horizon, *streams)


def simulate(p: Union[Prog, Compiled], env: Mapping, horizon: int) -> list:
    """Root values for cycles 0..horizon-1.

    A Prog is compiled for this one call; env maps each input name to a
    Stream and the values come back as BitVecs.  A Compiled program
    (compile_program) runs as it is; env maps each input name to a
    sequence of ints, each below 2**width, and the values come back as
    ints.  Compile once to run one program on many environments.  A
    program with holes runs only once they are bound (Compiled.bind).
    """
    if isinstance(p, Compiled):
        return _run(p, env, horizon)
    c = compile_program(p)
    values = {}
    for name, w in c.inputs:
        if name in env:
            if env[name].width != w:
                raise SketchmapError(
                    f"input {name!r} has width {env[name].width}, "
                    f"program expects {w}")
            values[name] = [b.value for b in env[name].values]
    return [BitVec(c.width, v) for v in _run(c, values, horizon)]


def interp(p: Prog, env: Env, t: int, n: Id) -> BitVec:
    """Value of node n at cycle t (n must be a top-level node of p)."""
    if n not in p.nodes:
        raise SketchmapError(f"id {n} is not a node of the program")
    return simulate(Prog(n, p.nodes), env, t + 1)[t]


# -- reference implementation ----------------------------------------------


def interp_naive(p: Prog, env: Union[Env, Callable[[str, int], BitVec]],
                 t: int, n: Id) -> BitVec:
    """Direct recursive semantics, no memo.  Exponential on deep programs;
    only for cross-checking the compiled path on small inputs."""
    if isinstance(env, Mapping):
        check_well_formed(p)
        lookup = lambda x, tt: env[x].at(tt)
    else:
        lookup = env
    return _naive(p, lookup, t, n)


def _naive(p: Prog, lookup: Callable[[str, int], BitVec], t: int,
           n: Id) -> BitVec:
    node = p.nodes[n]
    if isinstance(node, BV):
        return node.b
    if isinstance(node, Var):
        return lookup(node.name, t)
    if isinstance(node, Op):
        return eval_op(node.op, [_naive(p, lookup, t, a) for a in node.args])
    if isinstance(node, Reg):
        if t == 0:
            return node.init
        return _naive(p, lookup, t - 1, node.data)
    if isinstance(node, Prim):
        bm = node.bind_map()
        inner = lambda x, tt: _naive(p, lookup, tt, bm[x])
        return _naive(node.body, inner, t, node.body.root)
    raise SketchmapError(f"cannot interpret node {n}: {node}")


def trace_lines(values: Sequence[BitVec]) -> list[str]:
    """Trace dump format: one line per cycle, ``t=<n> out=<hex>``."""
    return [f"t={i} out={v.value:x}" for i, v in enumerate(values)]
