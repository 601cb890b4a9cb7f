"""Concrete evaluation of terms: the reference the solver path is tested
against."""

from __future__ import annotations

from typing import Optional

from sketchmap.ir import BitVec, WidthError, fold
from sketchmap.terms import Term, postorder


def eval_term(t: Term, inputs: dict[tuple[str, int], BitVec],
              holes: dict[str, BitVec],
              memo: Optional[dict] = None) -> BitVec:
    """Concrete evaluation; the reference the solver path is tested
    against.  Every term under t is evaluated, both branches of a mux
    included, so every leaf under t needs a binding."""
    if memo is None:
        memo = {}
    for x in postorder(t, memo):
        if x.kind == "const":
            v = x.value
        elif x.kind == "input":
            v = inputs[(x.name, x.time)]
            if v.width != x.width:
                raise WidthError(f"input {x.name!r} width mismatch")
        elif x.kind == "hole":
            v = holes[x.label]
            if v.width != x.width:
                raise WidthError(f"hole {x.label!r} width mismatch")
        else:
            args = [memo[id(a)] for a in x.args]
            v = BitVec(x.width, fold(x.op, [a.width for a in args],
                                     [a.value for a in args]))
        memo[id(x)] = v
    return memo[id(t)]
