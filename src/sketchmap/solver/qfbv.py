"""SMT-LIB2 QF_BV script interpreter over the AIG + SAT backend.

Supported commands: set-logic, set-option, set-info, declare-const,
declare-fun (0-ary), define-fun (0-ary), assert, check-sat, get-value,
echo, reset, exit.  Supported terms: symbols, the literals true, false,
#b..., #x... and (_ bvN w), (! term :attr ...) annotations,
(let ((x t) ...) body), and the applications of the heads in HEADS:
not and or xor => = distinct ite, concat bvnot bvneg bvand bvor bvxor
bvadd bvsub bvmul bvshl bvlshr bvashr bvult bvule bvugt bvuge bvslt
bvsle bvsgt bvsge, and the indexed (_ extract hi lo), (_ zero_extend k)
and (_ sign_extend k).

HEADS states each head once: the sort of its operands, how many operands
and indices it takes, its width rule and its blaster, the AIG call that
builds it.  Script.term reads every term in one post-order walk over an
explicit stack of frames, operands left to right before their
application, so AIG nodes are made in that order and a deep term needs
no Python frames.  _check is the one place an application meets its
entry: a wrong operand or index count, an operand of the wrong sort,
unequal widths where the entry wants equal ones, an extract outside
its operand, and a concat or extend result past MAX_WIDTH raise
SolverInputError naming the head.  The sort and width
rules are those of SMT-LIB 2.6's FixedSizeBitVectors theory; the operand
counts are this solver's own.  It takes = and distinct on two operands
only, where SMT-LIB also allows more (the mapper never emits them), and
it answers some forms SMT-LIB leaves undefined, such as (and), (xor p),
(bvadd a), and concat and bvsub on more than two operands.
Literals and sorts go through read_literal and read_sort, which reject
bad digits and widths below 1; the mapper reads solver models with the
same reader.

No bit-vector may be wider than MAX_WIDTH, 65536 bits (a 36 Kbit block
RAM's contents fit): a sort, a literal, or the result of concat,
zero_extend or sign_extend past it raises SolverInputError, so a single
numeral cannot make the solver allocate without bound.  The limit bounds
widths, not work: a term's AIG still grows with its size, and bvmul's
with the square of its width.

The s-expression reader (Reader, parse_all) tokenizes with str methods,
not a regular expression: the solver child reads every query with it,
and importing re would add ~12 ms to each child's start.  The mapper
reads its own s-expressions (architecture values, specs, solver output)
with the same reader.

One check-sat per reset (matching what the mapper emits): reset forgets
every declaration, assertion and answer, so one Script can serve a stream
of queries.  push and pop are rejected, not ignored, since ignoring them
would answer for the wrong set of assertions.  get-value reports bits
from the SAT model, defaulting unconstrained bits to 0.
After extracting a model the driver re-evaluates the asserted formula
under it, without the SAT solver, and refuses to answer if the check
fails, so a bug here shows up as an error, never as a wrong model.  The
check is one ascending sweep over the AIG (AIG.evaluate), and get-value
reads its answers from the same sweep.
"""

from __future__ import annotations

from .aig import AIG, FALSE, TRUE


class SolverInputError(Exception):
    pass


MAX_WIDTH = 1 << 16


# -- s-expression reader -----------------------------------------------------

# Blanks are space, tab, CR and LF only; \x0b and \x0c are atom
# characters, so no bare split() may be used.  A | or " that follows an
# atom character belongs to that atom.
_BLANKS = str.maketrans("\t\r\n", "   ")
_OPENS = ' \t\r\n()'     # after one of these, | or " starts a token


def _next_mark(text: str, i: int) -> int:
    """Where the first |, " or ; at or after i starts a token; len(text)
    when none does.  Nothing between i and that point is quoted."""
    j = len(text)
    k = text.find(";", i, j)
    if k >= 0:
        j = k
    for c in '|"':
        k = text.find(c, i, j)
        while k > i and text[k - 1] not in _OPENS:
            k = text.find(c, k + 1, j)
        if k >= 0:
            j = k
    return j


class Reader:
    """Top-level s-expressions (atoms as strings) of text that arrives in
    pieces.  Each piece must end at a line end or at the end of the input,
    so only a |symbol| or a string can run on into the next one.

    feed splits the text at each |symbol|, string and comment (found with
    str.find) and tokenizes the stretches between them by padding the
    parentheses with blanks and splitting on spaces: str methods only,
    since importing re would slow every solver child's start."""

    def __init__(self):
        self._stack: list[list] = []   # the open lists, outermost first
        self._held = ""                # an unclosed |symbol| or string

    def feed(self, text: str) -> list:
        """The expressions that text completes, in order."""
        if self._held:
            text, self._held = self._held + text, ""
        stack = self._stack
        out = []
        i, n = 0, len(text)
        while i < n:
            j = _next_mark(text, i)
            for tok in text[i:j].replace("(", " ( ").replace(
                    ")", " ) ").translate(_BLANKS).split(" "):
                if tok == "(":
                    stack.append([])
                elif tok == ")":
                    if not stack:
                        raise SolverInputError("unbalanced )")
                    done = stack.pop()
                    (stack[-1] if stack else out).append(done)
                elif tok:
                    (stack[-1] if stack else out).append(tok)
            if j == n:
                break
            mark = text[j]
            if mark == ";":            # a comment runs to the line end
                k = text.find("\n", j)
                i = n if k < 0 else k + 1
                continue
            k = text.find(mark, j + 1)
            if k < 0:                  # closed by a later piece, if any
                self._held = text[j:]
                break
            (stack[-1] if stack else out).append(
                text[j + 1:k] if mark == "|" else text[j:k + 1])
            i = k + 1
        return out

    def finish(self) -> None:
        """Raise unless the input read so far ends between expressions."""
        if self._held:
            raise SolverInputError("unterminated |symbol|"
                                   if self._held[0] == "|"
                                   else "unterminated string")
        if self._stack:
            raise SolverInputError("unbalanced (")


def parse_all(text: str) -> list:
    """Every top-level s-expression in text (atoms as strings)."""
    reader = Reader()
    out = reader.feed(text)
    reader.finish()
    return out


# -- literals and sorts ------------------------------------------------------

# prefix -> radix, bits per digit, digits
_BASES = {"#b": (2, 1, "01"), "#x": (16, 4, "0123456789abcdefABCDEF")}


def _brief(t) -> str:
    """t for an error message: a list only to its first level, so a deep
    term cannot make the message itself too deep to print."""
    if isinstance(t, str):
        return repr(t)
    return "(" + " ".join(x if isinstance(x, str) else "(...)"
                          for x in t) + ")"


def _numeral(s) -> int:
    if type(s) is str and s.isdigit() and s.isascii():
        return int(s)
    raise SolverInputError(f"expected a numeral, got {_brief(s)}")


def _width(s) -> int:
    w = _numeral(s)
    if w < 1:
        raise SolverInputError(f"bit-vector width {w} is below 1")
    return _bounded(w)


def _bounded(w: int, what: str = "bit-vector width") -> int:
    if w > MAX_WIDTH:
        raise SolverInputError(f"{what} {w} is above the limit {MAX_WIDTH}")
    return w


def read_literal(t) -> tuple[int | None, int] | None:
    """(width, value) of the literal t, width None for true and false;
    None when t is no literal.  A #b or #x without digits or with a digit
    outside its base, and a (_ bvN w) with a bad numeral, a literal with
    a width below 1 or above MAX_WIDTH, raise SolverInputError.
    (_ bvN w) wraps N modulo 2**w."""
    if isinstance(t, str):
        if t == "true":
            return None, 1
        if t == "false":
            return None, 0
        base = _BASES.get(t[:2])
        if base is None:
            return None
        radix, bits, alphabet = base
        digits = t[2:]
        if not digits or digits.strip(alphabet):
            raise SolverInputError(f"bad literal {t!r}")
        return _bounded(bits * len(digits)), int(digits, radix)
    if (len(t) == 3 and t[0] == "_" and isinstance(t[1], str)
            and t[1].startswith("bv")):
        w = _width(t[2])
        return w, _numeral(t[1][2:]) & ((1 << w) - 1)
    return None


def read_sort(s) -> int | None:
    """None for Bool, w for (_ BitVec w)."""
    if s == "Bool":
        return None
    if (isinstance(s, list) and len(s) == 3 and s[0] == "_"
            and s[1] == "BitVec"):
        return _width(s[2])
    raise SolverInputError(f"unsupported sort {_brief(s)}")


# -- the head table -----------------------------------------------------------

# A value is a Bool, as one AIG literal (an int), or a bit-vector, as a
# list of literals LSB first, so a value's sort is its type.  A blaster
# takes the AIG, the operand values and the indices, all already checked
# against its entry, and makes the AIG calls the head stands for.

BOOL, BITVEC, ALIKE = int, list, None    # operand sorts
# width rules: operands of one width; extract's range; a result that is
# the operand widths' sum (concat) or the operand's plus the index (the
# extends), which must stay within MAX_WIDTH
EQUAL, RANGE, SUM, EXTEND = "equal", "range", "sum", "extend"
_SORT_NAME = {BOOL: "Bool", BITVEC: "BitVec"}


class Head:
    """One head's entry.  (A plain class: the solver child imports this
    module on every start, and a NamedTuple class takes ~20 times as long
    to create.)"""

    __slots__ = ("sort", "least", "most", "nindex", "width", "blast", "cond")

    def __init__(self, sort, least, most, nindex, width, blast, cond=False):
        self.sort = sort      # BOOL, BITVEC, or ALIKE: either, one for all
        self.least = least    # fewest operands
        self.most = most      # most operands, None for no limit
        self.nindex = nindex  # indices of (_ name i ...)
        self.width = width    # EQUAL, RANGE, SUM, EXTEND or None
        self.blast = blast    # (AIG, operand values, indices) -> value
        self.cond = cond      # a Bool condition comes first, outside sort


def _left(step):
    """(f a b c) as (f (f a b) c), step(g, x, y) making each (f x y)."""
    def blast(g, xs, ix):
        out = xs[0]
        for x in xs[1:]:
            out = step(g, out, x)
        return out
    return blast


def _bitwise(gate):
    """The step gate(g, a, b) on each pair of bits."""
    return lambda g, x, y: [gate(g, a, b) for a, b in zip(x, y)]


def _compare(less, swap=False, negate=0):
    """less(g, a, b), the operands swapped first and the answer negated
    after if asked."""
    def blast(g, xs, ix):
        a, b = xs
        return (less(g, b, a) if swap else less(g, a, b)) ^ negate
    return blast


def _shift(kind):
    return lambda g, xs, ix: g.shift_bits(xs[0], xs[1], kind)


def _implies(g, xs, ix):
    # right-associative: (=> a b c) is (=> a (=> b c))
    out = xs[-1]
    for lit in reversed(xs[:-1]):
        out = g.or_(lit ^ 1, out)
    return out


def _eq(g, xs, ix):
    a, b = xs
    if type(a) is int:
        return g.xor_(a, b) ^ 1
    return g.eq_bits(a, b)


def _ite(g, xs, ix):
    c, a, b = xs
    if type(a) is int:
        return g.mux_(c, a, b)
    return g.mux_bits(c, a, b)


def _binary(sort, blast):
    return Head(sort, 2, 2, 0, EQUAL, blast)


def _nary(step):
    return Head(BITVEC, 1, None, 0, EQUAL, _left(step))


HEADS: dict[str, Head] = {
    "not": Head(BOOL, 1, 1, 0, None, lambda g, xs, ix: xs[0] ^ 1),
    "and": Head(BOOL, 0, None, 0, None, lambda g, xs, ix: g.and_many(xs)),
    "or": Head(BOOL, 0, None, 0, None, lambda g, xs, ix: g.or_many(xs)),
    "xor": Head(BOOL, 1, None, 0, None, _left(AIG.xor_)),
    "=>": Head(BOOL, 1, None, 0, None, _implies),
    "=": _binary(ALIKE, _eq),
    "distinct": _binary(ALIKE, lambda g, xs, ix: _eq(g, xs, ix) ^ 1),
    "ite": Head(ALIKE, 3, 3, 0, EQUAL, _ite, cond=True),
    # the first operand is the high part
    "concat": Head(BITVEC, 1, None, 0, SUM,
                   lambda g, xs, ix: [b for x in reversed(xs) for b in x]),
    "bvnot": Head(BITVEC, 1, 1, 0, None,
                  lambda g, xs, ix: [b ^ 1 for b in xs[0]]),
    "bvneg": Head(BITVEC, 1, 1, 0, None, lambda g, xs, ix: g.neg_bits(xs[0])),
    "bvand": _nary(_bitwise(AIG.and_)),
    "bvor": _nary(_bitwise(AIG.or_)),
    "bvxor": _nary(_bitwise(AIG.xor_)),
    "bvadd": _nary(lambda g, x, y: g.add_bits(x, y)[0]),
    "bvsub": _nary(AIG.sub_bits),
    "bvmul": _nary(AIG.mul_bits),
    "bvshl": _binary(BITVEC, _shift("shl")),
    "bvlshr": _binary(BITVEC, _shift("lshr")),
    "bvashr": _binary(BITVEC, _shift("ashr")),
    "bvult": _binary(BITVEC, _compare(AIG.ult_bits)),
    "bvule": _binary(BITVEC, _compare(AIG.ult_bits, swap=True, negate=1)),
    "bvugt": _binary(BITVEC, _compare(AIG.ult_bits, swap=True)),
    "bvuge": _binary(BITVEC, _compare(AIG.ult_bits, negate=1)),
    "bvslt": _binary(BITVEC, _compare(AIG.slt_bits)),
    "bvsle": _binary(BITVEC, _compare(AIG.slt_bits, swap=True, negate=1)),
    "bvsgt": _binary(BITVEC, _compare(AIG.slt_bits, swap=True)),
    "bvsge": _binary(BITVEC, _compare(AIG.slt_bits, negate=1)),
    "extract": Head(BITVEC, 1, 1, 2, RANGE,
                    lambda g, xs, ix: xs[0][ix[1]:ix[0] + 1]),
    "zero_extend": Head(BITVEC, 1, 1, 1, EXTEND,
                        lambda g, xs, ix: xs[0] + [FALSE] * ix[0]),
    "sign_extend": Head(BITVEC, 1, 1, 1, EXTEND,
                        lambda g, xs, ix: xs[0] + [xs[0][-1]] * ix[0]),
}


def _check(name: str, head: Head, xs: list, ix) -> tuple:
    """The application of name to operand values xs and index tokens ix,
    against head: its indices as ints, or SolverInputError naming the
    head and the fault."""
    n = len(xs)
    if n < head.least or (head.most is not None and n > head.most):
        want = (f"{head.least}" if head.most == head.least else
                f"at least {head.least}" if head.most is None else
                f"{head.least} to {head.most}")
        raise SolverInputError(
            f"wrong operand count for {name}: got {n}, takes {want}")
    if len(ix) != head.nindex:
        raise SolverInputError(f"wrong index count for {name}: got "
                               f"{len(ix)}, takes {head.nindex}")
    first = 0
    if head.cond:
        if type(xs[0]) is not BOOL:
            raise SolverInputError(f"{name} operand 1 is a BitVec, "
                                   "expected Bool")
        first = 1
    sort = head.sort or type(xs[first])
    for k in range(first, n):
        if type(xs[k]) is not sort:
            raise SolverInputError(
                f"{name} operand {k + 1} is a {_SORT_NAME[type(xs[k])]}, "
                f"expected {_SORT_NAME[sort]}")
    # every operand has the sort now, so a BitVec one has a width
    if head.width is EQUAL and sort is BITVEC:
        w = len(xs[first])
        for k in range(first + 1, n):
            if len(xs[k]) != w:
                widths = ", ".join(str(len(x)) for x in xs[first:])
                raise SolverInputError(
                    f"{name} needs equal operand widths, got {widths}")
    if head.width is SUM:
        _bounded(sum(map(len, xs)), f"{name} result width")
    if ix:
        ix = tuple(map(_numeral, ix))
        if head.width is RANGE:
            hi, lo = ix
            w = len(xs[0])
            if not 0 <= lo <= hi < w:
                raise SolverInputError(
                    f"{name} {hi} {lo} is out of range for width {w}")
        elif head.width is EXTEND:
            _bounded(len(xs[0]) + ix[0], f"{name} result width")
    return ix


# -- evaluation ---------------------------------------------------------------


class _Bind:
    """Bind names to a let's values, then read body."""

    __slots__ = ("names", "body")

    def __init__(self, names: list[str], body):
        self.names = names
        self.body = body


# operand counts of the commands that take a fixed number of them
_OPERANDS = {"echo": 1, "declare-const": 2, "declare-fun": 3,
             "define-fun": 4, "assert": 1, "check-sat": 0, "get-value": 1,
             "reset": 0, "exit": 0}


class Script:
    def __init__(self):
        self.output: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget every declaration, assertion and answer; keep output."""
        self.aig = AIG()
        self.env: dict[str, object] = {}   # symbol -> value
        self.assertions: list[int] = []
        self.status: str | None = None
        self.model: dict[int, bool] = {}   # input node -> value
        self.values = bytearray()            # node -> value under model

    def term(self, t):
        """The value of term t over the declared and defined symbols.  let
        binds in parallel, every binding read in the outer scope;
        ! annotations are read through."""
        # A frame is a list of operands being read left to right: ops[i:]
        # are still to read, xs holds the values read so far, and at the
        # end step turns xs into the frame's value, which is appended to
        # the xs of the frame below.  step is (name, entry, index tokens)
        # for an application, a _Bind for the bindings of a let, or None
        # for one operand read through (t itself, a ! term, a let body).
        ops, i, xs, scope, step = (t,), 0, [], self.env, None
        frames = []   # the frames below, innermost last
        while True:
            if i < len(ops):
                t = ops[i]
                i += 1
                if type(t) is str:
                    if t.startswith("#") or t == "true" or t == "false":
                        xs.append(self._constant(t))
                        continue
                    v = scope.get(t)
                    if v is None:
                        raise SolverInputError(f"unknown symbol {t!r}")
                    xs.append(v)
                    continue
                if not t:
                    raise SolverInputError("empty term")
                head = t[0]
                if head == "_":
                    xs.append(self._constant(t))
                    continue
                frames.append((ops, i, xs, scope, step))
                i, xs = 0, []
                if head == "!":
                    if len(t) < 2:
                        raise SolverInputError("! without a term")
                    ops, step = (t[1],), None
                elif head == "let":
                    pairs = t[1] if len(t) == 3 else None
                    if not isinstance(pairs, list) or not all(
                            isinstance(p, list) and len(p) == 2
                            and isinstance(p[0], str) for p in pairs):
                        raise SolverInputError(f"bad let {_brief(t)}")
                    ops = [p[1] for p in pairs]
                    step = _Bind([p[0] for p in pairs], t[2])
                else:
                    if isinstance(head, str):
                        name, ix = head, ()
                    elif (len(head) >= 3 and head[0] == "_"
                            and isinstance(head[1], str)):
                        name, ix = head[1], head[2:]
                    else:
                        raise SolverInputError(f"bad head {_brief(head)}")
                    entry = HEADS.get(name)
                    if entry is None:
                        raise SolverInputError(
                            f"unsupported operator {name!r}")
                    ops, i, step = t, 1, (name, entry, ix)
                continue
            # every operand read
            if step is None:
                v = xs[0]
            elif type(step) is _Bind:
                # in parallel: the bindings were read in the outer scope
                scope = dict(scope)
                scope.update(zip(step.names, xs))
                ops, i, xs, step = (step.body,), 0, [], None
                continue
            else:
                name, entry, ix = step
                v = entry.blast(self.aig, xs, _check(name, entry, xs, ix))
            if not frames:
                return v
            ops, i, xs, scope, step = frames.pop()
            xs.append(v)

    def _constant(self, t):
        lit = read_literal(t)
        if lit is None:
            raise SolverInputError(f"not a term: {_brief(t)}")
        w, v = lit
        if w is None:
            return TRUE if v else FALSE
        return self.aig.const_bits(v, w)

    # -- commands --

    def _declare(self, name, sort) -> None:
        if not isinstance(name, str):
            raise SolverInputError(f"bad symbol {_brief(name)}")
        if name in self.env:
            raise SolverInputError(f"symbol {name!r} declared twice")
        w = read_sort(sort)
        self.env[name] = self.aig.var() if w is None else self.aig.var_bits(w)

    def run_command(self, cmd) -> None:
        if not isinstance(cmd, list) or not cmd:
            raise SolverInputError(f"bad command {_brief(cmd)}")
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info"):
            return
        n = _OPERANDS.get(head)
        if n is not None and len(cmd) - 1 != n:
            raise SolverInputError(
                f"wrong operand count for {head}: got {len(cmd) - 1}, "
                f"takes {n}")
        if head == "echo":
            if not isinstance(cmd[1], str):
                raise SolverInputError("echo takes a string")
            self.output.append(cmd[1].strip('"'))
            return
        if head == "exit":
            return
        if head == "reset":
            self.reset()
            return
        if head == "declare-const":
            self._declare(cmd[1], cmd[2])
            return
        if head == "declare-fun":
            if cmd[2] != []:
                raise SolverInputError("only 0-ary declare-fun supported")
            self._declare(cmd[1], cmd[3])
            return
        if head == "define-fun":
            if cmd[2] != []:
                raise SolverInputError("only 0-ary define-fun supported")
            name, sort, body = cmd[1], cmd[3], cmd[4]
            if not isinstance(name, str):
                raise SolverInputError(f"bad symbol {_brief(name)}")
            val = self.term(body)
            w = read_sort(sort)
            if (w is None) != (type(val) is int):
                raise SolverInputError(f"define-fun {name!r} sort mismatch")
            if w is not None and len(val) != w:
                raise SolverInputError(f"define-fun {name!r} width mismatch")
            if name in self.env:
                raise SolverInputError(f"symbol {name!r} defined twice")
            self.env[name] = val
            return
        if head == "assert":
            val = self.term(cmd[1])
            if type(val) is not int:
                raise SolverInputError("assert of a BitVec term")
            self.assertions.append(val)
            return
        if head == "check-sat":
            self._check_sat()
            return
        if head == "get-value":
            self._get_value(cmd[1])
            return
        raise SolverInputError(f"unsupported command {_brief(head)}")

    def _check_sat(self) -> None:
        root = self.aig.and_many(self.assertions)
        self.values = bytearray()
        if root == FALSE:
            self.status = "unsat"
        elif root == TRUE:
            self.status = "sat"
            self.model = {}
        else:
            # The CNF is one small list per clause, none of them in a
            # cycle; with the cyclic collector running, building it took
            # twice as long, the collector walking the heap again and again.
            import gc
            collecting = gc.isenabled()
            gc.disable()
            try:
                solver, node_var = self.aig.to_sat(root)
                sat = solver.solve()
            finally:
                if collecting:
                    gc.enable()
            if sat:
                self.model = {
                    n: solver.model_value(v) for n, v in node_var.items()
                    if self.aig.nodes[n] is None
                }
                if not self._value(root):
                    raise SolverInputError(
                        "internal error: extracted model does not satisfy "
                        "the formula")
                self.status = "sat"
            else:
                self.status = "unsat"
        self.output.append(self.status)

    def _value(self, lit: int) -> bool:
        """lit under the model, from one sweep over the AIG that the
        model check and every get-value share; nodes made after the sweep
        (define-fun after check-sat) start a new one."""
        if len(self.values) <= lit >> 1:
            self.values = self.aig.evaluate(self.model)
        return bool(self.values[lit >> 1] ^ (lit & 1))

    def _value_bits(self, val) -> str:
        if type(val) is int:
            return "true" if self._value(val) else "false"
        bits = [self._value(b) for b in val]
        return "#b" + "".join("1" if b else "0" for b in reversed(bits))

    def _get_value(self, names) -> None:
        if self.status != "sat":
            # answered in-band, like mainstream solvers, so scripted
            # check-sat/get-value sequences work for unsat answers too
            self.output.append('(error "model is not available")')
            return
        parts = []
        for name in names:
            if not isinstance(name, str) or name not in self.env:
                raise SolverInputError(
                    f"get-value of unknown term {_brief(name)}")
            parts.append(f"({name} {self._value_bits(self.env[name])})")
        self.output.append("(" + " ".join(parts) + ")")


def run_script(text: str) -> str:
    s = Script()
    for cmd in parse_all(text):
        s.run_command(cmd)
    return "\n".join(s.output) + ("\n" if s.output else "")
