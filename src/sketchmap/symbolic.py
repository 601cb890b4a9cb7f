"""Symbolic interpretation and equivalence-query construction.

symbolic_run unrolls a planned program (interp.plan_program) over cycles
0..T, producing one Term per cycle for the root, by running the plan the
compiled simulator is generated from over terms.  Registers turn into
references to the previous cycle's data term (init constant at cycle 0),
so the result is a pure combinational term over input symbols (name,
cycle) and hole symbols.  Every fold the plan made is one TermBuilder.app
would make too, as both go through ir.fold.

build_query plans the spec and the sketch once each and lines them up
over a shared TermBuilder: both sides see the same input symbols, so
structurally aligned datapaths intern to the same terms and the equality
conjuncts can fold before any solver runs.  The query keeps both plans,
so cegis compiles them without planning either program again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .interp import Operand, Plan, plan_program
from .ir import (
    BitVec, Hole, Operator, Prog, Sketch, SketchmapError, WidthError,
    is_behavioral, structural_violations,
)
from .terms import Term, TermBuilder, term_leaves


class FreeVarMismatch(SketchmapError):
    """Spec and sketch disagree on their input signature."""


def symbolic_run(plan: Plan, upto: int, tb: Optional[TermBuilder] = None
                 ) -> list[Term]:
    """Terms for the root at cycles 0..upto: a program's plan
    (interp.plan_program, which checks the program) run over tb, each Op
    one tb.app."""
    if tb is None:
        tb = TermBuilder()

    def term(x: Operand, w: int) -> Term:
        return cur[x] if type(x) is str else tb.const(BitVec(w, x))

    holes = {f"h{k}": tb.hole(label, w)
             for k, (label, w) in enumerate(plan.holes)}
    regs = {r: tb.const(init) for r, _, init in plan.regs}
    roots: list[Term] = []
    for t in range(upto + 1):
        cur = {f"x{k}": tb.input(name, t, w)
               for k, (name, w) in enumerate(plan.inputs)}
        cur.update(holes)
        cur.update(regs)
        for r, op, aw, args in plan.ops:
            cur[r] = tb.app(op, [term(a, w) for a, w in zip(args, aw)])
        roots.append(term(plan.root, plan.width))
        regs = {r: term(d, init.width) for r, d, init in plan.regs}
    return roots


@dataclass
class EquivalenceQuery:
    """Everything the CEGIS loop needs, term side.

    equal_terms[i] states spec == sketch at cycle t + i (width 1); the
    full claim is their conjunction plus the side constraints, which are
    the architecture's constraints (Sketch.side_constraints) and mention
    holes only.  input_symbols covers every (name, cycle) either side
    reads.  spec_plan and sketch_plan are the plans the terms were
    unrolled from (interp.plan_program of the spec and of sketch.psi),
    kept so that each program is planned once per synthesis.
    """

    equal_terms: list[Term]
    side_constraints: list[Term]
    input_symbols: list[Term]
    hole_symbols: list[Term]
    t: int
    c: int
    spec_plan: Plan = field(repr=False)
    sketch: Sketch = field(repr=False)
    sketch_plan: Plan = field(repr=False)
    builder: TermBuilder = field(repr=False)


def build_query(spec: Prog, sketch: Sketch, t: int, c: int
                ) -> EquivalenceQuery:
    if t < 0 or c < 0:
        raise ValueError("t and c must be >= 0")
    if not is_behavioral(spec):
        raise SketchmapError("the spec program must be behavioral (no "
                             "primitives, no holes)")
    bad = structural_violations(sketch.psi)
    if bad:
        raise SketchmapError("sketch is not structural: " + "; ".join(
            f"node {i}: {why}" for i, why in bad))
    holes = sketch.holes    # WidthError if a label has two widths
    spec_plan = plan_program(spec)
    sketch_plan = plan_program(sketch.psi)
    if dict(spec_plan.inputs) != dict(sketch_plan.inputs):
        raise FreeVarMismatch(
            f"spec inputs {sorted(spec_plan.inputs)} but sketch inputs "
            f"{sorted(sketch_plan.inputs)}")

    tb = TermBuilder()
    spec_all = symbolic_run(spec_plan, t + c, tb)
    sketch_all = symbolic_run(sketch_plan, t + c, tb)
    if spec_all[0].width != sketch_all[0].width:
        raise WidthError(
            f"spec output width {spec_all[0].width} != sketch output "
            f"width {sketch_all[0].width}")
    eq = Operator("eq")
    equal_terms = [tb.app(eq, [spec_all[i], sketch_all[i]])
                   for i in range(t, t + c + 1)]

    side: list[Term] = []
    for constraint in sketch.side_constraints:
        for n in constraint.nodes.values():
            if isinstance(n, Hole) and holes.get(n.label) != n.width:
                raise SketchmapError(
                    f"constraint references unknown hole {n.label!r}")
        (ct,) = symbolic_run(plan_program(constraint), 0, tb)
        if ct.width != 1:
            raise WidthError("side constraints must have width 1")
        side.append(ct)

    ins, hols = term_leaves(*equal_terms, *side, *spec_all[t:],
                            *sketch_all[t:])
    # every hole the sketch declares gets a symbol even if folding dropped
    # it from the equalities: the model must still assign it
    for label, w in holes.items():
        hols.add(tb.hole(label, w))

    return EquivalenceQuery(
        equal_terms=equal_terms,
        side_constraints=side,
        input_symbols=sorted(ins, key=lambda s: (s.name, s.time)),
        hole_symbols=sorted(hols, key=lambda s: s.label),
        t=t,
        c=c,
        spec_plan=spec_plan,
        sketch=sketch,
        sketch_plan=sketch_plan,
        builder=tb,
    )
