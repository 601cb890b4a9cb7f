"""Cycle-accurate concrete simulator for programs and sketches.

Semantics, per node at cycle t:

  * BV b           -> b
  * Var x          -> the value of input x at t
  * Op o args      -> o applied to args at t, by o's semantics in the
                      operator table (ir.OPS, read through ir.fold)
  * Reg data init  -> init at t = 0, value of data at t-1 otherwise
  * Prim binds body-> body root at t under a fresh environment where each
                      body variable x reads the bound node binds[x]
  * Hole h         -> the value bound to h (a program with an unbound
                      hole does not run)

plan_program, the one walk of a schedule that evaluates a program,
reduces a program to a Plan: one cycle's straight-line steps, only those
the root needs.  compile_program turns a plan into one Python function
that runs it on plain ints, and symbolic.symbolic_run runs it over terms,
so the simulator and the queries read one semantics; both take the plan,
so a program planned once serves both.  simulate runs a compiled program
on int streams, linear in nodes x cycles.  A sketch compiles too: each
hole label is a parameter of the generated function and Compiled.bind
fixes their values, so one compiled sketch runs as every candidate hole
assignment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Mapping, Sequence, Union

from .ir import (
    BV, OPS, BitVec, DomainError, Hole, Id, MissingAssignment, Op, Operator,
    Prim, Prog, Reg, SketchmapError, Var, fold, hole_widths, schedule,
    var_widths,
)


class HorizonExceeded(SketchmapError):
    """A stream was read past its last provided cycle."""


# A node's value in one cycle: an int when it is a constant, else the name
# of the local holding it.
Operand = Union[int, str]


@dataclass(frozen=True)
class Plan:
    """One cycle of a checked program, reduced to what its root needs.

    Locals are x<k> for input k and h<k> for hole k (inputs and holes
    list (name, width)), r<id> for a register and v<id> for an Op.  ops
    lists the Ops as (local, operator, operand widths, operands) in an
    order where each reads only earlier locals; regs lists the registers
    as (local, data operand, init), a register holding init at cycle 0
    and its data's value of the cycle before after that; root is the
    root's operand, of width width.  live holds every local the root
    reads, through Op operands and register data; nothing else appears.
    """

    inputs: tuple[tuple[str, int], ...]
    holes: tuple[tuple[str, int], ...]
    ops: list[tuple[str, Operator, list[int], list[Operand]]]
    regs: list[tuple[str, Operand, BitVec]]
    root: Operand
    width: int
    live: frozenset[str]


def plan_program(p: Prog) -> Plan:
    """Check and schedule p once (ir.schedule, Prim bodies included),
    then plan one cycle.  Holes are numbered in schedule order.
    Constants are literals, a Var, Prim or Hole is an alias of what it
    reads, and an Op that ir.fold resolves from its operands (a mux with
    a literal selector, say) is a literal or an alias; every other Op
    gets a local.  A walk back from the root's operand marks the live
    locals.  A caller that both unrolls and compiles a program
    (symbolic.build_query, then cegis) plans it once and passes the plan
    on."""
    sched = schedule(p)
    inputs = tuple(var_widths(p).items())
    holes = tuple(hole_widths(n for _, n, _ in sched.order).items())
    stream = {name: f"x{k}" for k, (name, _) in enumerate(inputs)}
    hole = {label: f"h{k}" for k, (label, _) in enumerate(holes)}
    ref: dict[Id, Operand] = {i: f"r{i}" for i, _, _ in sched.regs}
    # the Ops left after folding, and for each local the operands it reads
    ops: list[tuple[str, Operator, list[int], list[Operand]]] = []
    reads: dict[str, list[Operand]] = {}
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
    return Plan(inputs, holes, [op for op in ops if op[0] in live],
                [(f"r{i}", ref[d], init) for i, d, init in sched.regs
                 if f"r{i}" in live],
                ref[p.root], widths[p.root], frozenset(live))


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


def compile_program(plan: Plan) -> Compiled:
    """Generate the simulator of a planned program (plan_program).

    The loop body computes one cycle: each planned Op is one assignment
    calling ir.OPS[name].sem bound for its widths and params, and the
    registers are all updated together at the end.  Each hole is a
    parameter h<k>, before n and without a default.  The source holds
    only integer ids, integer literals and fixed names: no program
    string enters it.
    """
    fns: dict[tuple, int] = {}          # (operator, *widths) -> index
    sems: list[Callable[..., int]] = []
    body: list[str] = []
    for r, op, aw, args in plan.ops:
        key = (op, *aw)
        k = fns.get(key)
        if k is None:
            k = fns[key] = len(sems)
            sems.append(OPS[op.name].sem(aw, op.params))
        body.append(f"{r} = f{k}({', '.join(map(str, args))})")
    body.append(f"ap({plan.root})")
    if plan.regs:
        body.append(", ".join(r for r, _, _ in plan.regs) + " = "
                    + ", ".join(str(d) for _, d, _ in plan.regs))
    streams = [f"s{k}" for k in range(len(plan.inputs))]
    used = [(f"x{k}", s) for k, s in enumerate(streams)
            if f"x{k}" in plan.live]
    loop = (f"for _t, {', '.join(x for x, _ in used)} in "
            f"zip(range(n), {', '.join(s for _, s in used)}):" if used
            else "for _t in range(n):")
    # the operator functions are default arguments: fast locals in the loop
    params = ([f"h{k}" for k in range(len(plan.holes))] + ["n"] + streams
              + [f"f{k}=f{k}" for k in range(len(sems))])
    src = "\n".join(
        [f"def _sim({', '.join(params)}):"]
        + [f"    {r} = {init.value}" for r, _, init in plan.regs]
        + ["    out = []", "    ap = out.append", f"    {loop}"]
        + [f"        {line}" for line in body]
        + ["    return out"])
    namespace = {f"f{k}": f for k, f in enumerate(sems)}
    exec(_code(src), namespace)
    return Compiled(plan.inputs, plan.width, namespace["_sim"], plan.holes)


@functools.lru_cache(maxsize=16)
def _code(src: str) -> CodeType:
    """compile() of a generated source, kept for the last few: a caller
    that compiles a design's spec for CEGIS and again for the 2000-cycle
    check pays compile() once.  The code depends on nothing but its
    source."""
    return compile(src, "<compiled program>", "exec")


def simulate(c: Compiled, env: Mapping[str, Sequence[int]],
             horizon: int) -> list[int]:
    """The root's int values for cycles 0..horizon-1 of a compiled
    program (compile_program) whose holes, if any, are bound
    (Compiled.bind).  env maps each input name to a sequence of at least
    horizon ints, each below 2**width."""
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
