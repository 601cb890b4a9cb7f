"""Deterministic SMT-LIB2 (QF_BV) emission and model parsing.

Terms are emitted as a flat chain of 0-ary define-funs in first-visit
topological order, so shared subterms are written once and the script
never nests deeply.  Width-1 terms standing for booleans are asserted as
(= term #b1); the eq/compare family is emitted through (ite ... #b1 #b0)
so every term stays bit-vector sorted.

Byte-for-byte determinism is a contract: the same query object emits the
same script, which keeps solver behavior and test logs reproducible.
"""

from __future__ import annotations

import re

from .ir import OPS, BitVec, SketchmapError
from .terms import Term


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
        self.counter = 0

    def ref(self, t: Term) -> str:
        """t's name or literal, first emitting the definitions of t and of
        every term below it not yet named, each after its operands, left
        to right.  The walk keeps its own stack, so a deep term costs no
        Python frames."""
        names = self.names
        stack = [(t, False)]   # (term, operands named)
        while stack:
            x, ready = stack.pop()
            if ready:
                s = f"t{self.counter}"
                self.counter += 1
                self.lines.append(f"(define-fun {s} () (_ BitVec {x.width}) "
                                  f"{self._expr(x)})")
            elif id(x) in names:
                continue
            elif x.kind == "const":
                s = _bits(x.value)
            elif x.kind in ("input", "hole"):
                s = symbol_name(x)
            else:
                stack.append((x, True))
                stack += [(a, False) for a in reversed(x.args)
                          if id(a) not in names]
                continue
            names[id(x)] = s
        return names[id(t)]

    def _expr(self, t: Term) -> str:
        args = [self.names[id(x)] for x in t.args]
        if t.kind == "ite":  # the same choice as the IR's mux
            return OPS["mux"].smt.format(*args)
        w = t.args[0].width
        return OPS[t.op.name].smt.format(*args, p=t.op.params,
                                         zeros="#b" + "0" * w,
                                         ones="#b" + "1" * w)


def emit_smtlib(asserts: list[Term], declare: list[Term],
                get_values: list[Term]) -> tuple[str, dict[str, Term]]:
    """Render a full script.

    asserts: width-1 terms, each asserted equal to #b1 as a named
    assertion.  declare: symbol terms to declare-const (leaves of the
    asserts are added automatically).  get_values: symbols to query after
    a sat answer.  Returns (script text, emitted-name -> symbol term).
    """
    from .terms import term_leaves

    syms: dict[int, Term] = {id(s): s for s in declare}
    for a in asserts:
        ins, holes = term_leaves(a)
        for s in ins | holes:
            syms[id(s)] = s
    for s in get_values:
        syms[id(s)] = s

    by_name: dict[str, Term] = {}
    for s in syms.values():
        n = symbol_name(s)
        if n in by_name and by_name[n] is not s:
            raise SketchmapError(f"symbol name collision on {n!r}")
        by_name[n] = s

    em = _Emitter()
    out = ["(set-option :produce-models true)", "(set-logic QF_BV)"]
    for n in sorted(by_name):
        out.append(f"(declare-const {n} (_ BitVec {by_name[n].width}))")
    body: list[str] = []
    for k, a in enumerate(asserts):
        if a.width != 1:
            raise SketchmapError("asserted terms must have width 1")
        r = em.ref(a)
        body.append(f"(assert (! (= {r} #b1) :named a{k}))")
    out.extend(em.lines)
    out.extend(body)
    out.append("(check-sat)")
    if get_values:
        names = " ".join(symbol_name(s) for s in get_values)
        out.append(f"(get-value ({names}))")
    out.append("(exit)")
    return "\n".join(out) + "\n", by_name


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
