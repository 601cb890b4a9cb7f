"""SMT-LIB2 QF_BV script interpreter over the AIG + SAT backend.

Supported commands: set-logic, set-option, set-info, declare-const,
declare-fun (0-ary), define-fun (0-ary), assert, check-sat, get-value,
echo, reset, exit.  Supported terms: true false and or not xor => ite =
distinct, #b / #x literals, (_ bvN w), bvadd bvsub bvmul bvneg bvnot bvand
bvor bvxor bvshl bvlshr bvashr concat (_ extract hi lo) (_ zero_extend k)
(_ sign_extend k) bvult bvule bvugt bvuge bvslt bvsle bvsgt bvsge
(! term :attr ...) annotations, and (let ((x t) ...) body).

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

import re

from .aig import AIG, FALSE, TRUE


class SolverInputError(Exception):
    pass


# -- s-expression reader -----------------------------------------------------

# One match per token: the blanks and comments before it, then the token.
# A comment must run to a line end, so a failed token match cannot back up
# into it.  A lone | or " is an opening bar or quote with no closing one;
# the empty match at the end of the text is dropped.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | ;[^\n]*(?![^\n]) )*
    ( [()] | \|[^|]*\| | "[^"]*" | [^ \t\r\n();|"][^ \t\r\n();]* | [|"] | \Z )
""", re.VERBOSE)


class Reader:
    """Top-level s-expressions (atoms as strings) of text that arrives in
    pieces.  Each piece must end at a line end or at the end of the input,
    so only a |symbol| or a string can run on into the next one."""

    def __init__(self):
        self._stack: list[list] = []   # the open lists, outermost first
        self._held = ""                # an unclosed |symbol| or string

    def feed(self, text: str) -> list:
        """The expressions that text completes, in order."""
        if self._held:
            text, self._held = self._held + text, ""
        toks = _TOKEN.findall(text)
        while toks and not toks[-1]:
            toks.pop()
        quoted = "|" in text or '"' in text
        stack = self._stack
        out = []
        for tok in toks:
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if not stack:
                    raise SolverInputError("unbalanced )")
                done = stack.pop()
                (stack[-1] if stack else out).append(done)
            else:
                if quoted and tok[0] in "|\"":
                    if len(tok) == 1:
                        # no closing bar or quote after it in text
                        self._held = text[text.rindex(tok):]
                        break
                    if tok[0] == "|":
                        tok = tok[1:-1]
                (stack[-1] if stack else out).append(tok)
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


# -- evaluation ---------------------------------------------------------------

# Values are ("bool", lit) or ("bv", [lits lsb-first]).


class Script:
    def __init__(self):
        self.output: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget every declaration, assertion and answer; keep output."""
        self.aig = AIG()
        self.env: dict[str, tuple] = {}
        self.symbols: list[tuple[str, tuple]] = []  # declaration order
        self.assertions: list[int] = []
        self.status: str | None = None
        self.model: dict[int, bool] = {}   # input node -> value
        self.values = bytearray()            # node -> value under model

    # -- term evaluation --

    def eval(self, t, scope: dict[str, tuple]) -> tuple:
        if isinstance(t, str):
            return self._atom(t, scope)
        if not t:
            raise SolverInputError("empty term")
        head = t[0]
        if head == "_":
            return self._indexed_const(t)
        if head == "!":
            return self.eval(t[1], scope)
        if head == "let":
            inner = dict(scope)
            for pair in t[1]:
                inner[pair[0]] = self.eval(pair[1], scope)
            return self.eval(t[2], inner)
        if isinstance(head, list):
            op = head  # ((_ extract i j) x) style
            args = [self.eval(x, scope) for x in t[1:]]
            return self._indexed_apply(op, args)
        args = [self.eval(x, scope) for x in t[1:]]
        return self._apply(head, args)

    def _atom(self, t: str, scope: dict[str, tuple]) -> tuple:
        if t == "true":
            return ("bool", TRUE)
        if t == "false":
            return ("bool", FALSE)
        if t.startswith("#b"):
            bits = t[2:]
            return ("bv", [TRUE if c == "1" else FALSE for c in reversed(bits)])
        if t.startswith("#x"):
            w = 4 * len(t[2:])
            v = int(t[2:], 16)
            return ("bv", self.aig.const_bits(v, w))
        if t in scope:
            return scope[t]
        raise SolverInputError(f"unknown symbol {t!r}")

    def _indexed_const(self, t) -> tuple:
        if len(t) == 3 and t[1].startswith("bv"):
            return ("bv", self.aig.const_bits(int(t[1][2:]), int(t[2])))
        raise SolverInputError(f"unsupported indexed constant {t}")

    def _bv(self, v: tuple) -> list[int]:
        if v[0] != "bv":
            raise SolverInputError("expected a bit-vector argument")
        return v[1]

    def _bool(self, v: tuple) -> int:
        if v[0] != "bool":
            raise SolverInputError("expected a boolean argument")
        return v[1]

    def _indexed_apply(self, op, args) -> tuple:
        if op[0] != "_":
            raise SolverInputError(f"bad operator {op}")
        name = op[1]
        if name == "extract":
            hi, lo = int(op[2]), int(op[3])
            bits = self._bv(args[0])
            return ("bv", bits[lo:hi + 1])
        if name == "zero_extend":
            k = int(op[2])
            return ("bv", self._bv(args[0]) + [FALSE] * k)
        if name == "sign_extend":
            k = int(op[2])
            bits = self._bv(args[0])
            return ("bv", bits + [bits[-1]] * k)
        raise SolverInputError(f"unsupported indexed operator {name}")

    def _apply(self, name: str, args: list[tuple]) -> tuple:
        g = self.aig
        if name == "=":
            a, b = args
            if a[0] != b[0]:
                raise SolverInputError("= on mixed sorts")
            if a[0] == "bool":
                return ("bool", g.xor_(a[1], b[1]) ^ 1)
            if len(a[1]) != len(b[1]):
                raise SolverInputError("= on different widths")
            return ("bool", g.eq_bits(a[1], b[1]))
        if name == "distinct":
            eq = self._apply("=", args)
            return ("bool", eq[1] ^ 1)
        if name == "ite":
            c = self._bool(args[0])
            a, b = args[1], args[2]
            if a[0] == "bool":
                return ("bool", g.mux_(c, self._bool(a), self._bool(b)))
            return ("bv", g.mux_bits(c, self._bv(a), self._bv(b)))
        if name in ("and", "or", "xor", "=>", "not"):
            lits = [self._bool(a) for a in args]
            if name == "and":
                return ("bool", g.and_many(lits))
            if name == "or":
                return ("bool", g.or_many(lits))
            if name == "not":
                return ("bool", lits[0] ^ 1)
            if name == "=>":
                out = lits[-1]
                for lit in reversed(lits[:-1]):
                    out = g.or_(lit ^ 1, out)
                return ("bool", out)
            out = lits[0]
            for lit in lits[1:]:
                out = g.xor_(out, lit)
            return ("bool", out)
        bvs = [self._bv(a) for a in args]
        if name == "concat":
            # SMT-LIB concat: first argument is the high part
            out = bvs[-1]
            for b in reversed(bvs[:-1]):
                out = out + b
            return ("bv", out)
        if name == "bvnot":
            return ("bv", [b ^ 1 for b in bvs[0]])
        if name == "bvneg":
            return ("bv", g.neg_bits(bvs[0]))
        if name in ("bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvmul"):
            out = bvs[0]
            for b in bvs[1:]:
                if len(out) != len(b):
                    raise SolverInputError(f"{name} width mismatch")
                if name == "bvand":
                    out = [g.and_(x, y) for x, y in zip(out, b)]
                elif name == "bvor":
                    out = [g.or_(x, y) for x, y in zip(out, b)]
                elif name == "bvxor":
                    out = [g.xor_(x, y) for x, y in zip(out, b)]
                elif name == "bvadd":
                    out = g.add_bits(out, b)[0]
                elif name == "bvsub":
                    out = g.sub_bits(out, b)
                else:
                    out = g.mul_bits(out, b)
            return ("bv", out)
        if name in ("bvshl", "bvlshr", "bvashr"):
            kind = {"bvshl": "shl", "bvlshr": "lshr", "bvashr": "ashr"}[name]
            return ("bv", g.shift_bits(bvs[0], bvs[1], kind))
        if name == "bvult":
            return ("bool", g.ult_bits(bvs[0], bvs[1]))
        if name == "bvule":
            return ("bool", g.ult_bits(bvs[1], bvs[0]) ^ 1)
        if name == "bvugt":
            return ("bool", g.ult_bits(bvs[1], bvs[0]))
        if name == "bvuge":
            return ("bool", g.ult_bits(bvs[0], bvs[1]) ^ 1)
        if name == "bvslt":
            return ("bool", g.slt_bits(bvs[0], bvs[1]))
        if name == "bvsle":
            return ("bool", g.slt_bits(bvs[1], bvs[0]) ^ 1)
        if name == "bvsgt":
            return ("bool", g.slt_bits(bvs[1], bvs[0]))
        if name == "bvsge":
            return ("bool", g.slt_bits(bvs[0], bvs[1]) ^ 1)
        raise SolverInputError(f"unsupported operator {name!r}")

    # -- commands --

    def _sort_width(self, sort) -> int | None:
        """None for Bool, width for (_ BitVec w)."""
        if sort == "Bool":
            return None
        if isinstance(sort, list) and len(sort) == 3 and sort[0] == "_" \
                and sort[1] == "BitVec":
            return int(sort[2])
        raise SolverInputError(f"unsupported sort {sort}")

    def _declare(self, name: str, sort) -> None:
        if name in self.env:
            raise SolverInputError(f"symbol {name!r} declared twice")
        w = self._sort_width(sort)
        if w is None:
            val = ("bool", self.aig.var())
        else:
            val = ("bv", self.aig.var_bits(w))
        self.env[name] = val
        self.symbols.append((name, val))

    def run_command(self, cmd) -> None:
        if not isinstance(cmd, list) or not cmd:
            raise SolverInputError(f"bad command {cmd!r}")
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info"):
            return
        if head == "echo":
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
            val = self.eval(body, self.env)
            w = self._sort_width(sort)
            if (w is None) != (val[0] == "bool"):
                raise SolverInputError(f"define-fun {name!r} sort mismatch")
            if w is not None and len(val[1]) != w:
                raise SolverInputError(f"define-fun {name!r} width mismatch")
            if name in self.env:
                raise SolverInputError(f"symbol {name!r} defined twice")
            self.env[name] = val
            return
        if head == "assert":
            self.assertions.append(self._bool(self.eval(cmd[1], self.env)))
            return
        if head == "check-sat":
            self._check_sat()
            return
        if head == "get-value":
            self._get_value(cmd[1])
            return
        raise SolverInputError(f"unsupported command {head!r}")

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

    def _value_bits(self, val: tuple) -> str:
        if val[0] == "bool":
            return "true" if self._value(val[1]) else "false"
        bits = [self._value(b) for b in val[1]]
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
                raise SolverInputError(f"get-value of unknown term {name!r}")
            parts.append(f"({name} {self._value_bits(self.env[name])})")
        self.output.append("(" + " ".join(parts) + ")")


def run_script(text: str) -> str:
    s = Script()
    for cmd in parse_all(text):
        s.run_command(cmd)
    return "\n".join(s.output) + ("\n" if s.output else "")
