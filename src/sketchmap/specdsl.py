"""Behavioral specification documents: a small s-expression input language.

A document declares its input words, an optional output pipeline depth, and
a single expression over the inputs:

    (spec (inputs (a 16) (b 16) (c 16) (d 16))
          (pipeline 2)
          (and (mul (add a b) c) d))

``parse_document`` lowers this to a behavioral program: every declared input
becomes a variable, the expression is built bottom-up with width checking,
and ``pipeline`` registers (all initialized to 0) are wrapped around the
root, so the program computes the expression ``pipeline`` cycles after its
operands arrive.

Expression operators and their width rules:

    (add x y) (sub x y) (mul x y)        equal widths, result same width
    (and x y) (or x y) (xor x y)         equal widths, result same width
    (not x)                              result same width
    (eq x y) (ult x y)                   equal widths, result width 1
    (mux s x y)                          s width 1; result s ? x : y
    (concat x y ...)                     left operand is most significant
    (extract hi lo x)                    inclusive bit slice
    (zext k x)                           k fresh zero bits on top

Malformed documents raise ParseError; expressions that violate a width rule
raise WidthError.  ``;`` starts a comment running to end of line.

The text is read by the bundled solver's s-expression reader
(``qfbv.parse_all``) and ``lower`` turns an expression into IR nodes,
taking each operator's arity, params and width rule from ``ir.OPS``.
``lower`` is the one path from a user-written expression to IR: the value
expressions of architecture descriptions (``sketchmap.arch``) go through
it too, restricted to names, ``bv``, ``concat`` and ``extract``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Collection

from .ir import (BitVec, Id, OPS, Op, Operator, Prog, ProgBuilder,
                 SketchmapError, WidthError, check_well_formed,
                 op_result_width)
from .solver.qfbv import SolverInputError, parse_all

__all__ = [
    "ParseError",
    "SPEC_OPERATORS",
    "SpecDocument",
    "lower",
    "parse_document",
]


class ParseError(SketchmapError):
    """The document is not a well-shaped specification s-expression."""


@dataclass(frozen=True)
class SpecDocument:
    """A parsed specification: declared inputs, pipeline depth, program."""

    inputs: tuple[tuple[str, int], ...]
    pipeline: int
    prog: Prog


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# The operator heads a specification expression may use.
SPEC_OPERATORS = frozenset({"add", "sub", "mul", "and", "or", "xor", "not",
                            "eq", "ult", "mux", "concat", "extract", "zext"})

# Heads whose IR operator is spelled differently.
_IR_NAME = {"zext": "zero_extend"}


def _int(atom, what: str) -> int:
    if not isinstance(atom, str) or not re.fullmatch(r"-?\d+", atom):
        raise ParseError(f"{what} must be an integer, got {atom!r}")
    return int(atom)


def _clause(form, head: str):
    if not isinstance(form, list) or not form or form[0] != head:
        raise ParseError(f"expected ({head} ...), got {form!r}")
    return form[1:]


def lower(expr, b: ProgBuilder, leaf: Callable[[str], tuple[Id, int]],
          heads: Collection[str]) -> tuple[Id, int]:
    """Lower one expression, as read by parse_all, to nodes under b.

    Returns (root id, width).  An atom is a name; leaf(name) gives its
    (id, width) or raises KeyError.  A list is (head param... operand...)
    with head one of heads: either ``bv`` -- ``(bv value width)``, a
    constant -- or an ir.OPS operator, whose params come first and whose
    arity and width rule the table gives.  ``concat`` takes two or more
    operands, the first most significant, folding to the right.  Nodes are
    allocated in post-order; the walk keeps its own stack, so a deep
    expression costs no Python frames.  Raises ParseError for a malformed
    expression and WidthError when a width rule fails.
    """
    # todo holds the expressions still to lower, the next one last; an
    # Operator there builds itself over the last values in done
    done: list[tuple[Id, int]] = []     # (id, width) of lowered values
    todo: list = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, Operator):
            n = OPS[e.name].arity
            parts = done[-n:]
            del done[-n:]
            w = op_result_width(e, [wx for _, wx in parts])
            done.append((b.add(Op(e, tuple(x for x, _ in parts))), w))
            continue
        if isinstance(e, str):
            try:
                done.append(leaf(e))
            except KeyError:
                raise ParseError(f"unknown name {e!r}") from None
            continue
        if not e:
            raise ParseError("empty expression ()")
        head, args = e[0], e[1:]
        if not isinstance(head, str) or head not in heads:
            raise ParseError(f"unknown operator {head!r}")
        if head == "bv":
            if len(args) != 2:
                raise ParseError(f"bv takes 2 operands, got {len(args)}")
            value, width = (_int(a, "bv operand") for a in args)
            if width <= 0:
                raise WidthError(f"bv width must be positive, got {width}")
            done.append((b.bv(value, width), width))
            continue
        name = _IR_NAME.get(head, head)
        spec = OPS[name]
        want = spec.nparams + spec.arity
        nary = name == "concat"
        if len(args) < want if nary else len(args) != want:
            raise ParseError(f"{head} takes {want}{'+' if nary else ''} "
                             f"operands, got {len(args)}")
        todo.append(Operator(name, tuple(_int(a, f"{head} parameter")
                                         for a in args[:spec.nparams])))
        if len(args) > want:    # (concat x y z) is (concat x (concat y z))
            args = [args[0], [head, *args[1:]]]
        todo += reversed(args[spec.nparams:])
    return done[0]


def _read(text: str):
    """The one s-expression in text.  ``;`` comments run to end of line,
    any whitespace separates, and ``|`` and ``"`` are not part of the
    language (parse_all would read them as SMT-LIB quoting)."""
    text = re.sub(r"\s", " ", " ".join(line.split(";", 1)[0]
                                       for line in text.splitlines()))
    for ch in "|\"":
        if ch in text:
            raise ParseError(f"unexpected {ch!r}")
    try:
        forms = parse_all(text)
    except SolverInputError as e:
        raise ParseError(str(e)) from None
    if not forms:
        raise ParseError("unexpected end of input")
    if len(forms) > 1:
        raise ParseError(f"trailing input after document: {forms[1]!r}")
    return forms[0]


def parse_document(text: str, pipeline_override: int | None = None
                   ) -> SpecDocument:
    """Parse a full specification document.

    pipeline_override, when given, replaces the document's own pipeline
    depth (used by the command line's --pipeline-depth flag).
    """
    body = _clause(_read(text), "spec")
    if not body:
        raise ParseError("spec needs (inputs ...) and an expression")

    decls = _clause(body[0], "inputs")
    if not decls:
        raise ParseError("at least one input is required")
    inputs: list[tuple[str, int]] = []
    for d in decls:
        if not isinstance(d, list) or len(d) != 2:
            raise ParseError(f"input declaration must be (name width): {d!r}")
        name, width = d[0], _int(d[1], "input width")
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise ParseError(f"bad input name {name!r}")
        if any(n == name for n, _ in inputs):
            raise ParseError(f"duplicate input {name!r}")
        if width <= 0:
            raise ParseError(f"input {name!r} width must be positive")
        inputs.append((name, width))

    rest = body[1:]
    pipeline = 0
    if rest and isinstance(rest[0], list) and rest[0][:1] == ["pipeline"]:
        clause = _clause(rest[0], "pipeline")
        if len(clause) != 1:
            raise ParseError(f"pipeline takes one number, got {clause!r}")
        pipeline = _int(clause[0], "pipeline depth")
        if pipeline < 0:
            raise ParseError("pipeline depth must be >= 0")
        rest = rest[1:]
    if len(rest) != 1:
        raise ParseError(f"expected exactly one expression, got {len(rest)}")
    if pipeline_override is not None:
        if pipeline_override < 0:
            raise ParseError("pipeline depth must be >= 0")
        pipeline = pipeline_override

    b = ProgBuilder()
    env = {name: (b.var(name, w), w) for name, w in inputs}
    root, w = lower(rest[0], b, env.__getitem__, SPEC_OPERATORS)
    for _ in range(pipeline):
        root = b.reg(root, BitVec.of(0, w))
    prog = b.prog(root)
    check_well_formed(prog)
    return SpecDocument(tuple(inputs), pipeline, prog)

