"""Conformance of the operator table: for every entry, the concrete
semantics (eval_op) and the SMT-LIB form agree, as judged by the bundled
solver on pinned operand values, and the fold rule agrees with the
concrete semantics on every operand pattern at small widths.  The term
builder's own rewrites, which look inside an operand, agree with the
table's semantics on every operand value at small widths."""

import itertools
import random

import pytest

from sketchmap.ir import (
    OPS, ArityError, BitVec, Operator, WidthError, op_result_width,
)
from sketchmap.ir import fold as ir_fold
from sketchmap.smtlib import emit_smtlib, parse_solver_output
from sketchmap.terms import TermBuilder
from util_interp import eval_op
from util_solver import run_script
from util_terms import eval_term

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


@pytest.mark.parametrize("name", sorted(OPS))
def test_fold_rules_agree_with_semantics(name):
    # every operand pattern at widths 1..3 and params 0..3: each operand a
    # constant or one of two opaque names (a name used twice stands for one
    # value), so equal-operand rules are reached; a fold must agree with
    # sem for every value of the names it leaves open
    spec = OPS[name]
    patterns = 0
    for params in itertools.product(range(4), repeat=spec.nparams):
        op = Operator(name, params)
        for widths in itertools.product(range(1, 4), repeat=spec.arity):
            widths = list(widths)
            try:
                rw = op_result_width(op, widths)
            except WidthError:
                continue
            sem = spec.sem(widths, params)
            for xs in itertools.product(*([*range(1 << w), "a", "b"]
                                          for w in widths)):
                named = {}
                if any(named.setdefault(x, w) != w
                       for x, w in zip(xs, widths) if isinstance(x, str)):
                    continue        # one name at two widths
                patterns += 1
                r = spec.fold(widths, params, xs)
                if named:
                    assert ir_fold(op, widths, xs) == r
                if r is None:
                    continue
                # an int of the result's width, or a name of that width
                assert (0 <= r < 1 << rw if isinstance(r, int)
                        else named.get(r) == rw), (op, xs, r)
                for vals in itertools.product(*(range(1 << w)
                                                for w in named.values())):
                    env = dict(zip(named, vals))
                    want = sem(*[env.get(x, x) for x in xs])
                    assert env.get(r, r) == want, (op, widths, xs, env)
    assert patterns



def _ranges(w):
    """Every (lo, hi) with 0 <= lo <= hi < w."""
    return itertools.combinations_with_replacement(range(w), 2)


def _looked_inside():
    """Every application at operand widths 1..3 whose operand
    terms._rewrite looks inside, as (rewrite, outer op, inner op, inner
    operand widths): not of not, and extract of an extract, of a
    zero_extend (amounts 0..3) or of a concat."""
    for w in range(1, 4):
        yield "not-not", Operator("not"), Operator("not"), [w]
        for lo, hi in _ranges(w):
            for lo2, hi2 in _ranges(hi - lo + 1):
                yield ("extract-extract", Operator("extract", (hi2, lo2)),
                       Operator("extract", (hi, lo)), [w])
        for k in range(4):
            for lo, hi in _ranges(w + k):
                yield ("extract-zero_extend", Operator("extract", (hi, lo)),
                       Operator("zero_extend", (k,)), [w])
        for w2 in range(1, 4):
            for lo, hi in _ranges(w + w2):
                yield ("extract-concat", Operator("extract", (hi, lo)),
                       Operator("concat"), [w, w2])


REWRITES = ["not-not", "mux-const", "extract-extract", "extract-zero_extend",
            "extract-concat"]


@pytest.mark.parametrize("rewrite", REWRITES)
def test_term_rewrites_agree_with_semantics(rewrite):
    # each application the term builder may rewrite, built over input
    # symbols, evaluates on every operand value like the un-rewritten
    # application under the table's semantics; the rewrite must fire on
    # some of them, or the case tests nothing
    fired = 0
    if rewrite == "mux-const":
        # a mux of two constant branches: mux(c, 0, 1) = not c is the
        # rewrite, and every other pair is folded by ir.fold or kept
        for w in range(1, 4):
            sem = OPS["mux"].sem([1, w, w], ())
            for k0, k1 in itertools.product(range(1 << w), repeat=2):
                tb = TermBuilder()
                c = tb.input("c", 0, 1)
                t = tb.app(Operator("mux"),
                           [c, tb.const_of(k0, w), tb.const_of(k1, w)])
                fired += t.kind == "app" and t.op == Operator("not")
                for v in (0, 1):
                    got = eval_term(t, {("c", 0): BitVec(1, v)}, {})
                    assert got == BitVec(w, sem(v, k0, k1)), (k0, k1, v)
        assert fired
        return
    for case, outer, inner, widths in _looked_inside():
        if case != rewrite:
            continue
        tb = TermBuilder()
        xs = [tb.input(f"x{i}", 0, w) for i, w in enumerate(widths)]
        t_in = tb.app(inner, xs)
        t = tb.app(outer, [t_in])
        fired += not (t.kind == "app" and t.op == outer
                      and t.args == (t_in,))
        iw = op_result_width(inner, widths)
        rw = op_result_width(outer, [iw])
        sem_in = OPS[inner.name].sem(widths, inner.params)
        sem_out = OPS[outer.name].sem([iw], outer.params)
        for vals in itertools.product(*(range(1 << w) for w in widths)):
            env = {(f"x{i}", 0): BitVec(w, v)
                   for i, (w, v) in enumerate(zip(widths, vals))}
            want = BitVec(rw, sem_out(sem_in(*vals)))
            assert eval_term(t, env, {}) == want, (outer, inner, vals)
    assert fired
