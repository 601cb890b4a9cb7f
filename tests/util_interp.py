"""Test-side forms of the concrete interpreter.

BitVec input streams and the terse builders for them, a simulate that
takes a Prog and streams as well as a Compiled and int lists, interp for
one node at one cycle, and the recursive definition of the semantics
(interp_naive, over eval_op) that the compiled simulator is checked
against, and the one-line-per-cycle trace format.  The package itself
runs programs only through sketchmap.interp.compile_program and
simulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from sketchmap import interp as _interp
from sketchmap.interp import (
    Compiled, HorizonExceeded, compile_program, plan_program,
)
from sketchmap.ir import (
    BV, BitVec, Id, Op, Operator, Prim, Prog, Reg, SketchmapError, Var,
    check_well_formed, fold, op_result_width,
)


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


def eval_op(op: Operator, args: list[BitVec]) -> BitVec:
    """Evaluate one operator application on constants, by the semantics
    in the operator table (ir.OPS)."""
    widths = [a.width for a in args]
    return BitVec(op_result_width(op, widths),
                  fold(op, widths, [a.value for a in args]))


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
        return _interp.simulate(p, env, horizon)
    c = compile_program(plan_program(p))
    values = {}
    for name, w in c.inputs:
        if name in env:
            if env[name].width != w:
                raise SketchmapError(
                    f"input {name!r} has width {env[name].width}, "
                    f"program expects {w}")
            values[name] = [b.value for b in env[name].values]
    return [BitVec(c.width, v) for v in _interp.simulate(c, values, horizon)]


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
        bm = dict(node.binds)
        inner = lambda x, tt: _naive(p, lookup, tt, bm[x])
        return _naive(node.body, inner, t, node.body.root)
    raise SketchmapError(f"cannot interpret node {n}: {node}")


def trace_lines(values: Sequence[BitVec]) -> list[str]:
    """Trace dump format: one line per cycle, ``t=<n> out=<hex>``."""
    return [f"t={i} out={v.value:x}" for i, v in enumerate(values)]
