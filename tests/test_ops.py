"""Conformance of the operator table: for every entry, the concrete
semantics (eval_op) and the SMT-LIB form agree, as judged by the bundled
solver on pinned operand values."""

import random

import pytest

from sketchmap.interp import eval_op
from sketchmap.ir import (
    OPS, ArityError, BitVec, Operator, WidthError, op_result_width,
)
from sketchmap.smtlib import emit_smtlib, parse_solver_output
from sketchmap.solver.qfbv import run_script
from sketchmap.terms import TermBuilder

SAMPLES = 20


def _legal_application(rng, name):
    """(operator, operand widths) drawn at random from widths 1..6 and
    params 0..5, kept once the table's width rule accepts them."""
    spec = OPS[name]
    while True:
        op = Operator(name, tuple(rng.randint(0, 5)
                                  for _ in range(spec.nparams)))
        widths = [rng.randint(1, 6) for _ in range(spec.arity)]
        try:
            op_result_width(op, widths)
        except (WidthError, ArityError):
            continue
        return op, widths


def _status(asserts):
    text, _ = emit_smtlib(asserts, [], [])
    return parse_solver_output(run_script(text))[0]


@pytest.mark.parametrize("name", sorted(OPS))
def test_semantics_agree_with_smtlib(name):
    rng = random.Random(name)
    eq, neg = Operator("eq"), Operator("not")
    for _ in range(SAMPLES):
        op, widths = _legal_application(rng, name)
        vals = [BitVec.of(rng.getrandbits(w), w) for w in widths]
        want = eval_op(op, vals)
        tb = TermBuilder()
        xs = [tb.input(f"x{i}", 0, w) for i, w in enumerate(widths)]
        pins = [tb.app(eq, [x, tb.const(v)]) for x, v in zip(xs, vals)]
        same = tb.app(eq, [tb.app(op, xs), tb.const(want)])
        case = f"{op} on {[str(v) for v in vals]} -> {want}"
        assert _status(pins + [same]) == "sat", case
        assert _status(pins + [tb.app(neg, [same])]) == "unsat", case
