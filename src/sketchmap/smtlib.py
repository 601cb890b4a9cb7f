"""Deterministic SMT-LIB2 (QF_BV) emission and model parsing.

Terms are emitted as a flat chain of 0-ary define-funs in post-order
(terms.postorder), so shared subterms are written once and the script
never nests deeply.  The same walk names each input and hole symbol it
meets, and those, with the symbols the caller asks to declare or read
back, are the script's declare-consts.  Width-1 terms standing for
booleans are asserted as (= term #b1); the eq/compare family is emitted
through (ite ... #b1 #b0) so every term stays bit-vector sorted.

Byte-for-byte determinism is a contract: the same query object emits the
same script, which keeps solver behavior and test logs reproducible.
"""

from __future__ import annotations

import re

from .ir import OPS, BitVec, SketchmapError
from .terms import Term, postorder


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def symbol_name(t: Term) -> str:
    if t.kind == "input":
        return f"in_{_sanitize(t.name)}_t{t.time}"
    if t.kind == "hole":
        return f"hole_{_sanitize(t.label)}"
    raise SketchmapError(f"not a symbol term: {t!r}")


def _bits(b: BitVec) -> str:
    return "#b" + format(b.value, f"0{b.width}b")


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.names: dict[int, str] = {}  # id(term) -> emitted name/literal
        self.symbols: dict[str, Term] = {}  # declared name -> symbol term
        self.counter = 0

    def symbol(self, s: Term) -> str:
        """s's name, recorded for declaration; two symbols may not share
        one name."""
        n = symbol_name(s)
        if self.symbols.setdefault(n, s) is not s:
            raise SketchmapError(f"symbol name collision on {n!r}")
        return n

    def ref(self, t: Term) -> str:
        """t's name or literal, first emitting the definitions of t and of
        every term below it not yet named."""
        names = self.names
        for x in postorder(t, names):
            if x.kind == "const":
                s = _bits(x.value)
            elif x.kind in ("input", "hole"):
                s = self.symbol(x)
            else:
                s = f"t{self.counter}"
                self.counter += 1
                self.lines.append(f"(define-fun {s} () (_ BitVec {x.width}) "
                                  f"{self._expr(x)})")
            names[id(x)] = s
        return names[id(t)]

    def _expr(self, t: Term) -> str:
        args = [self.names[id(x)] for x in t.args]
        w = t.args[0].width
        return OPS[t.op.name].smt.format(*args, p=t.op.params,
                                         zeros="#b" + "0" * w,
                                         ones="#b" + "1" * w)


def emit_smtlib(asserts: list[Term], declare: list[Term],
                get_values: list[Term]) -> tuple[str, dict[str, Term]]:
    """Render a full script.

    asserts: width-1 terms, each asserted equal to #b1 as a named
    assertion.  declare: symbol terms to declare-const (the symbols the
    asserts reach are declared too).  get_values: symbols to query after
    a sat answer.  Returns (script text, emitted-name -> symbol term).
    """
    em = _Emitter()
    for s in (*declare, *get_values):
        em.symbol(s)
    body: list[str] = []
    for k, a in enumerate(asserts):
        if a.width != 1:
            raise SketchmapError("asserted terms must have width 1")
        body.append(f"(assert (! (= {em.ref(a)} #b1) :named a{k}))")
    out = ["(set-option :produce-models true)", "(set-logic QF_BV)"]
    for n in sorted(em.symbols):
        out.append(f"(declare-const {n} (_ BitVec {em.symbols[n].width}))")
    out.extend(em.lines)
    out.extend(body)
    out.append("(check-sat)")
    if get_values:
        names = " ".join(symbol_name(s) for s in get_values)
        out.append(f"(get-value ({names}))")
    out.append("(exit)")
    return "\n".join(out) + "\n", em.symbols


def parse_solver_output(text: str) -> tuple[str, dict[str, BitVec]]:
    """(status, model) from a solver's stdout.

    status is "sat", "unsat", or "unknown".  Model values are read as the
    bundled solver reads literals (qfbv.read_literal): #b / #x literals,
    (_ bvN w) triples as printed by common QF_BV solvers, and true / false
    as width 1.
    """
    from .solver.qfbv import SolverInputError, parse_all, read_literal

    try:
        exprs = parse_all(text)
        status = "unknown"
        model: dict[str, BitVec] = {}
        for e in exprs:
            if isinstance(e, str):
                if e in ("sat", "unsat", "unknown"):
                    status = e
                continue
            for pair in e:
                if (isinstance(pair, list) and len(pair) == 2
                        and isinstance(pair[0], str)):
                    v = read_literal(pair[1])
                    if v is not None:
                        w, value = v
                        model[pair[0]] = BitVec.of(value, w or 1)
    except SolverInputError as e:
        raise SketchmapError(f"unparseable solver output: {e}") from e
    return status, model
