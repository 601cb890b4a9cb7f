"""Hash-consed symbolic terms over bit vectors.

A Term is a const, an input symbol (name, cycle), a hole symbol, or an
operator application; an if-then-else is an application of the IR's mux.
Terms are interned per TermBuilder: structurally equal terms are the same
object, so equality checks are pointer checks and structurally aligned
circuits collapse.

Construction folds aggressively but only with rules that preserve the
concrete semantics of the operator table (ir.OPS) bit for bit.  Each
application first goes to ir.fold, which the compiled simulator reads
too: all-constant evaluation, identity and absorbing constants (x&0,
x^0, x*1, ...), equal operands (eq(x,x), x-x, ...), shifts and extends
by 0, a full-range extract, and a mux with a constant selector, equal
branches or branches 1, 0.  Those rules see an operand only as a value,
so the rewrites that look inside one or build a new term stay here:

  * not(not x) = x and mux(c, 0, 1) = not c,
  * extract of an extract, a zero_extend or a concat,
  * distribution of an operation over a small mux tree when every other
    argument is constant.  This is what keeps synthesis queries small:
    with concrete inputs substituted, a configurable datapath folds to a
    mux tree over its configuration bits, not a symbolic multiplier.

The agreement of all this with the concrete interpreter is pinned by a
randomized test over full programs.

postorder is the one walk over terms: substitution, leaf collection and
SMT-LIB emission are loops over it, and so is the tests' concrete
evaluation.  It keeps its own
stack and skips every term the caller has already handled, so a deep
term costs no Python frames and a shared subterm is visited once.
"""

from __future__ import annotations

from typing import Container, Iterator, Optional

from .ir import BitVec, Operator, WidthError, fold, op_result_width

_DIST_LIMIT = 64  # max mux-tree size eligible for distribution
_MUX = Operator("mux")


class Term:
    __slots__ = ("kind", "width", "args", "op", "name", "time", "label",
                 "value", "mux_size")

    def __init__(self, kind: str, width: int, *, args: tuple = (),
                 op: Optional[Operator] = None, name: str = "",
                 time: int = -1, label: str = "",
                 value: Optional[BitVec] = None):
        self.kind = kind
        self.width = width
        self.args = args
        self.op = op
        self.name = name
        self.time = time
        self.label = label
        self.value = value
        # size of the pure mux-over-const tree rooted here, None otherwise
        if kind == "const":
            self.mux_size: Optional[int] = 1
        elif op is not None and op.name == "mux":
            sizes = [a.mux_size for a in args[1:]]
            self.mux_size = (1 + sum(sizes)) if all(s is not None for s in sizes) else None
        else:
            self.mux_size = None

    def __repr__(self):
        """One level: operands show only their kind and width."""
        if self.kind == "const":
            return f"<{self.value}>"
        if self.kind == "input":
            return f"<{self.name}@{self.time}:{self.width}>"
        if self.kind == "hole":
            return f"<?{self.label}:{self.width}>"
        return f"<{self.op} " + " ".join(
            f"{a.kind}:{a.width}" for a in self.args) + ">"


def postorder(t: Term, done: Container[int]) -> Iterator[Term]:
    """Yield t and every term below it whose id is not in done, each
    after its operands, left to right.  The caller must put each yielded
    term's id into done before taking the next one; the walk keeps its
    own stack, so a deep term costs no Python frames."""
    stack = [(t, False)]   # (term, operands yielded)
    while stack:
        x, ready = stack.pop()
        if id(x) in done:
            continue
        if ready or not x.args:
            yield x
        else:
            stack.append((x, True))
            stack += [(a, False) for a in reversed(x.args)
                      if id(a) not in done]


class TermBuilder:
    """Interning context.  Terms from different builders never mix."""

    def __init__(self):
        self._table: dict = {}
        self.inputs: dict[tuple[str, int], Term] = {}
        self.holes: dict[str, Term] = {}

    def _intern(self, key, make) -> Term:
        t = self._table.get(key)
        if t is None:
            t = make()
            self._table[key] = t
        return t

    def const(self, b: BitVec) -> Term:
        return self._intern(("c", b.width, b.value),
                            lambda: Term("const", b.width, value=b))

    def const_of(self, value: int, width: int) -> Term:
        return self.const(BitVec.of(value, width))

    def input(self, name: str, time: int, width: int) -> Term:
        key = ("i", name, time)
        t = self._table.get(key)
        if t is None:
            t = Term("input", width, name=name, time=time)
            self._table[key] = t
            self.inputs[(name, time)] = t
        if t.width != width:
            raise WidthError(
                f"input {name!r} used at widths {t.width} and {width}")
        return t

    def hole(self, label: str, width: int) -> Term:
        key = ("h", label)
        t = self._table.get(key)
        if t is None:
            t = Term("hole", width, label=label)
            self._table[key] = t
            self.holes[label] = t
        if t.width != width:
            raise WidthError(
                f"hole {label!r} used at widths {t.width} and {width}")
        return t

    # -- operator application -------------------------------------------

    def app(self, op: Operator, args: list[Term]) -> Term:
        widths = [a.width for a in args]
        rw = op_result_width(op, widths)
        folded = fold(op, widths, [a.value.value if a.kind == "const" else a
                                   for a in args])
        if isinstance(folded, int):
            return self.const_of(folded, rw)
        if folded is None:
            folded = self._rewrite(op, args, rw)
        if folded is None and op.name != "mux":
            # a mux that does not fold is interned as built: its 1-bit
            # selector is never a mux tree (a 1-bit mux of constants
            # folds), so there is nothing to distribute
            folded = self._distribute(op, args, rw)
        if folded is not None:
            return folded
        key = ("a", op, tuple(id(a) for a in args))
        return self._intern(key, lambda: Term("app", rw, op=op,
                                              args=tuple(args)))

    def _rewrite(self, op: Operator, args: list[Term],
                 rw: int) -> Optional[Term]:
        """The folds that look inside an operand or build a new term."""
        name, x = op.name, args[0]
        if name == "not" and x.kind == "app" and x.op.name == "not":
            return x.args[0]
        if name == "mux":   # the one 1-bit mux of constants ir.fold leaves
            if rw == 1 and args[1].kind == args[2].kind == "const":
                return self.app(Operator("not"), [x])   # mux(c, 0, 1)
            return None
        if name != "extract" or x.kind != "app":
            return None
        hi, lo = op.params
        inner = x.op.name
        if inner == "extract":
            return self.app(Operator("extract", (x.op.params[1] + hi,
                                                 x.op.params[1] + lo)),
                            [x.args[0]])
        if inner == "zero_extend":
            iw = x.args[0].width
            if hi < iw:
                return self.app(op, [x.args[0]])
            if lo >= iw:
                return self.const_of(0, rw)
        if inner == "concat":
            hi_part, lo_part = x.args
            lw = lo_part.width
            if hi < lw:
                return self.app(op, [lo_part])
            if lo >= lw:
                return self.app(Operator("extract", (hi - lw, lo - lw)),
                                [hi_part])
        return None

    def _distribute(self, op: Operator, args: list[Term],
                    rw: int) -> Optional[Term]:
        """op(... mux-tree ..., consts) -> push op into the tree."""
        mux_at = -1
        for i, a in enumerate(args):
            if a.kind == "app" and a.mux_size is not None:
                if mux_at >= 0:
                    return None  # two mux args: leave alone
                mux_at = i
            elif a.kind != "const":
                return None
        if mux_at < 0:
            return None
        t = args[mux_at]
        if t.mux_size > _DIST_LIMIT:
            return None
        cond, x, y = t.args
        ax = list(args)
        ax[mux_at] = x
        ay = list(args)
        ay[mux_at] = y
        return self.app(_MUX, [cond, self.app(op, ax), self.app(op, ay)])

    # -- substitution ----------------------------------------------------

    def substitute(self, t: Term, mapping: dict[Term, Term],
                   memo: Optional[dict] = None) -> Term:
        """Replace leaf terms (inputs/holes) per mapping, rebuilding (and
        thus refolding) everything above.  memo (id -> result) may be
        shared by calls with the same mapping, so terms they share are
        rebuilt once."""
        if memo is None:
            memo = {}
        for x in postorder(t, memo):
            r = mapping.get(x)
            if r is not None:
                if r.width != x.width:
                    raise WidthError("substitution changes a width")
            elif not x.args:
                r = x
            else:
                r = self.app(x.op, [memo[id(a)] for a in x.args])
            memo[id(x)] = r
        return memo[id(t)]


def term_leaves(*roots: Term) -> tuple[set[Term], set[Term]]:
    """(input symbols, hole symbols) reachable from any of roots."""
    ins: set[Term] = set()
    holes: set[Term] = set()
    seen: set[int] = set()
    for t in roots:
        for x in postorder(t, seen):
            seen.add(id(x))
            if x.kind == "input":
                ins.add(x)
            elif x.kind == "hole":
                holes.add(x)
    return ins, holes
