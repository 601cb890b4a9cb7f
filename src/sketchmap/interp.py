"""Cycle-accurate concrete interpreter for hole-free programs.

Semantics, per node at cycle t:

  * BV b           -> b
  * Var x          -> env[x][t]
  * Op o args      -> o applied to args at t, by o's semantics in the
                      operator table (ir.OPS)
  * Reg data init  -> init at t = 0, value of data at t-1 otherwise
  * Prim binds body-> body root at t under a fresh environment where each
                      body variable x reads the bound node binds[x]

Two implementations with identical observable behavior:

  * interp / simulate: schedules every node (including nodes inside Prim
    bodies) by the well-formedness witness (ir.schedule) and evaluates
    cycle by cycle on plain ints.  Linear in nodes x cycles, no recursion,
    keeps only two cycles of values alive.
  * interp_naive: the recursive definition above, memo-free, for small
    programs; exists so tests can check that memoization is unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .ir import (
    BV, OPS, BitVec, Hole, Id, Op, Operator, Prim, Prog, Reg, SketchmapError,
    Var, check_well_formed, op_result_width, schedule, var_widths,
    _collect_programs,
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
    rw = op_result_width(op, widths)
    f = OPS[op.name].sem(widths, op.params)
    return BitVec(rw, f(*[a.value for a in args]))


# -- compiled evaluation ----------------------------------------------------


def _require_hole_free(p: Prog) -> None:
    progs: list = []
    _collect_programs(p, progs, set())
    for prog, _ in progs:
        for i, n in prog.nodes.items():
            if isinstance(n, Hole):
                raise SketchmapError(
                    f"cannot interpret a program with holes (node {i}); "
                    f"substitute them first")


class _Compiled:
    """One program compiled to a per-cycle evaluation plan.

    plan: list of (id, closure) in witness order; each closure computes the
    node's int value for the current cycle from cur (this cycle's values),
    prev (last cycle's) and env.  Registers are split out: at cycle 0 they
    load init, afterwards they read prev[data].
    """

    def __init__(self, p: Prog, env: Env):
        sched = schedule(p)
        self.root = p.root
        self.widths = widths = sched.widths
        for name, w in var_widths(p).items():
            if name not in env:
                raise SketchmapError(f"environment is missing input {name!r}")
            if env[name].width != w:
                raise SketchmapError(
                    f"input {name!r} has width {env[name].width}, "
                    f"program expects {w}")
        self.env = env
        self.horizon = min(len(s) for s in env.values()) if env else None

        # (id, data id, init value)
        self.regs = [(i, n.data, n.init.value) for i, n in sched.regs]
        plan: list[tuple[Id, Callable]] = []
        for i in sched.order:
            n = sched.nodes[i]
            if isinstance(n, BV):
                c = n.b.value
                plan.append((i, (lambda cur, prev, t, c=c: c)))
            elif isinstance(n, Var):
                if i in sched.binds:
                    a = sched.binds[i]
                    plan.append((i, (lambda cur, prev, t, a=a: cur[a])))
                else:
                    stream = env[n.name]
                    plan.append((i, (lambda cur, prev, t, s=stream: s.at(t).value)))
            elif isinstance(n, Prim):
                r = n.body.root
                plan.append((i, (lambda cur, prev, t, a=r: cur[a])))
            elif isinstance(n, Op):
                plan.append((i, _op_closure(n.op, n.args,
                                            [widths[a] for a in n.args])))
            elif not isinstance(n, Reg):
                raise AssertionError(n)
        self.plan = plan

    def run(self, upto: int) -> "_Run":
        return _Run(self, upto)


def _op_closure(op: Operator, args: tuple[Id, ...], aw: list[int]) -> Callable:
    """The node's closure: the table's int function over its operands."""
    f = OPS[op.name].sem(aw, op.params)
    if len(args) == 1:
        (a,) = args
        return lambda cur, prev, t, f=f, a=a: f(cur[a])
    if len(args) == 2:
        a, b = args
        return lambda cur, prev, t, f=f, a=a, b=b: f(cur[a], cur[b])
    a, b, c = args
    return lambda cur, prev, t, f=f, a=a, b=b, c=c: f(cur[a], cur[b], cur[c])


class _Run:
    """Streams cycles 0..upto, keeping a two-cycle window of values."""

    def __init__(self, c: _Compiled, upto: int):
        if c.horizon is not None and upto >= c.horizon:
            raise HorizonExceeded(
                f"cycle {upto} requested but inputs end at {c.horizon - 1}")
        self.c = c
        self.t = -1
        self.cur: dict[Id, int] = {}
        self.prev: dict[Id, int] = {}
        self.upto = upto

    def step(self) -> dict[Id, int]:
        self.t += 1
        self.prev, self.cur = self.cur, {}
        cur, prev, t = self.cur, self.prev, self.t
        if t == 0:
            for i, _, init in self.c.regs:
                cur[i] = init
        else:
            for i, data, _ in self.c.regs:
                cur[i] = prev[data]
        for i, f in self.c.plan:
            cur[i] = f(cur, prev, t)
        return cur


def simulate(p: Prog, env: Env, horizon: int) -> list[BitVec]:
    """Root values for cycles 0..horizon-1."""
    _require_hole_free(p)
    if horizon < 1:
        return []
    c = _Compiled(p, env)
    run = c.run(horizon - 1)
    w = c.widths[p.root]
    out = []
    for _ in range(horizon):
        vals = run.step()
        out.append(BitVec(w, vals[p.root]))
    return out


def interp(p: Prog, env: Env, t: int, n: Id) -> BitVec:
    """Value of node n at cycle t (n must be a top-level node of p)."""
    _require_hole_free(p)
    if n not in p.nodes:
        raise SketchmapError(f"id {n} is not a node of the program")
    c = _Compiled(p, env)
    run = c.run(t)
    for _ in range(t + 1):
        vals = run.step()
    return BitVec(c.widths[n], vals[n])


# -- reference implementation ----------------------------------------------


def interp_naive(p: Prog, env: Union[Env, Callable[[str, int], BitVec]],
                 t: int, n: Id) -> BitVec:
    """Direct recursive semantics, no memo.  Exponential on deep programs;
    only for cross-checking the compiled path on small inputs."""
    _require_hole_free(p) if isinstance(env, Mapping) else None
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
