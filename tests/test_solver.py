"""Bundled QF_BV solver: SAT core, bit-blasting semantics, script driver."""

import hashlib
import os
import random
import re
import resource
import subprocess
import sys

import pytest

import sketchmap
from sketchmap.solver.aig import AIG, FALSE, TRUE
from sketchmap.solver.qfbv import (HEADS, MAX_WIDTH, Reader,
                                   SolverInputError, parse_all, run_script)
from sketchmap.solver.sat import SatSolver


def _lit(v, pos=True):
    return 2 * v + (0 if pos else 1)


class TestSatCore:
    def test_trivial_sat(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([_lit(a)])
        assert s.solve()
        assert s.model_value(a)

    def test_unit_conflict(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([_lit(a)])
        s.add_clause([_lit(a, False)])
        assert not s.solve()

    def test_chain_propagation(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(20)]
        for i in range(19):
            s.add_clause([_lit(vs[i], False), _lit(vs[i + 1])])
        s.add_clause([_lit(vs[0])])
        assert s.solve()
        assert all(s.model_value(v) for v in vs)

    def test_pigeonhole_3_into_2_unsat(self):
        # p[i][j]: pigeon i in hole j
        s = SatSolver()
        p = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            s.add_clause([_lit(p[i][0]), _lit(p[i][1])])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([_lit(p[i1][j], False), _lit(p[i2][j], False)])
        assert not s.solve()

    def test_random_3sat_against_bruteforce(self):
        for n, clauses in _random_3sat():
            expect = any(
                all(any(((bits >> (l >> 1)) & 1) == 1 - (l & 1) for l in c)
                    for c in clauses)
                for bits in range(1 << n))
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            ok = True
            for c in clauses:
                ok = s.add_clause(list(c)) and ok
            got = ok and s.solve()
            assert got == expect, f"clauses={clauses}"
            if got:
                for c in clauses:
                    assert any(
                        s.model_value(l >> 1) == (l & 1 == 0) for l in c)


    @pytest.mark.parametrize("grow", [1.0, 1e40, 1e90])
    def test_heap_decides_like_a_scan(self, grow):
        # a large grow makes the 1e100 rescale fire every few bumps, so
        # activities bumped early underflow to 0 again
        for n, clauses in _random_3sat(extra=100):
            runs = []
            for cls in (_Recording, _Scanning):
                s = cls(grow)
                for _ in range(n):
                    s.new_var()
                ok = all([s.add_clause(list(c)) for c in clauses])
                runs.append((ok and s.solve(), s.decisions, s.assign,
                             s.clauses))
            assert runs[0] == runs[1], f"clauses={clauses}"


def _random_3sat(extra=0):
    """test_random_3sat_against_bruteforce's 80 instances, then `extra`
    larger ones near the satisfiability threshold."""
    rng = random.Random(5)
    for i in range(80 + extra):
        n = rng.randint(3, 7) if i < 80 else rng.randint(20, 40)
        m = rng.randint(3, 22) if i < 80 else int(4.26 * n)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(n), 3)
            clauses.append([2 * v + rng.randint(0, 1) for v in vs])
        yield n, clauses


class _Recording(SatSolver):
    """Logs every decision; multiplies var_inc by grow at every bump."""

    def __init__(self, grow=1.0):
        super().__init__()
        self.decisions = []
        self.grow = grow

    def _bump(self, v):
        self.var_inc *= self.grow
        super()._bump(v)

    def _decide(self):
        lit = super()._decide()
        self.decisions.append(lit)
        return lit


class _Scanning(_Recording):
    """Decides by scanning every variable, as the heap must."""

    def _decide(self):
        best, best_act = -1, -1.0
        for v in range(len(self.assign)):
            if self.assign[v] < 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        lit = -1 if best < 0 else \
            2 * best + (0 if self.saved_phase[best] == 1 else 1)
        self.decisions.append(lit)
        return lit


def _reference_cnf(g, root):
    """The cone of root sent clause by clause through add_clause: the
    encoding to_sat must reproduce exactly."""
    s = SatSolver()
    stack, seen, order = [root >> 1], set(), []
    while stack:
        n = stack.pop()
        if n in seen or n == 0:
            continue
        seen.add(n)
        order.append(n)
        if g.nodes[n] is not None:
            stack.append(g.nodes[n][0] >> 1)
            stack.append(g.nodes[n][1] >> 1)
    node_var = {n: s.new_var() for n in sorted(seen)}

    def lit(x):
        return 2 * node_var[x >> 1] + (x & 1)

    for n in order:
        if g.nodes[n] is not None:
            a, b = g.nodes[n]
            s.add_clause([2 * node_var[n] + 1, lit(a)])
            s.add_clause([2 * node_var[n] + 1, lit(b)])
            s.add_clause([2 * node_var[n], lit(a) ^ 1, lit(b) ^ 1])
    s.add_clause([lit(root)])
    return s, node_var


def _random_aig(rng):
    """An AIG over a few input words mixing gates, adders, multipliers
    and shifters, and a non-constant root over its outputs."""
    g = AIG()
    w = rng.randint(2, 5)
    words = [g.var_bits(w) for _ in range(3)]
    for _ in range(rng.randint(2, 6)):
        xs, ys, zs = rng.sample(words, 3)
        kind = rng.choice(["add", "mul", "shift", "gates"])
        if kind == "add":
            words.append(g.add_bits(xs, ys)[0])
        elif kind == "mul":
            words.append(g.mul_bits(xs, ys))
        elif kind == "shift":
            words.append(g.shift_bits(
                xs, ys, rng.choice(["shl", "lshr", "ashr"])))
        else:
            words.append([rng.choice([g.and_, g.or_, g.xor_])(x, y)
                          if rng.random() < 0.7 else g.mux_(z, x, y)
                          for x, y, z in zip(xs, ys, zs)])
    lits = [b for word in words[3:] for b in word]
    root = g.xor_(rng.choice(lits), rng.choice(lits))
    root = g.or_(root, g.eq_bits(words[-1], rng.choice(words[:3])))
    return g, root


class TestAig:
    def test_to_sat_matches_add_clause_encoding(self):
        rng = random.Random(11)
        tried = 0
        while tried < 60:
            g, root = _random_aig(rng)
            if root in (FALSE, TRUE):
                continue
            tried += 1
            s, node_var = g.to_sat(root)
            ref, ref_var = _reference_cnf(g, root)
            assert list(node_var.items()) == list(ref_var.items())
            assert s.clauses == ref.clauses
            assert s.watches == ref.watches
            assert (s.assign, s.trail, s.ok) == (ref.assign, ref.trail,
                                                 ref.ok)
            assert s.solve() == ref.solve()
            assert (s.assign, s.clauses) == (ref.assign, ref.clauses)

    def test_constant_folds(self):
        g = AIG()
        a = g.var()
        assert g.and_(a, TRUE) == a
        assert g.and_(a, FALSE) == FALSE
        assert g.and_(a, a) == a
        assert g.and_(a, a ^ 1) == FALSE
        assert g.xor_(a, FALSE) == a
        assert g.xor_(a, a) == FALSE
        assert g.mux_(TRUE, a, FALSE) == a

    def test_structural_sharing(self):
        g = AIG()
        a, b = g.var(), g.var()
        x1 = g.and_(a, b)
        x2 = g.and_(b, a)
        assert x1 == x2
        # equal circuits collapse, so equivalence folds to TRUE
        s1 = g.add_bits([a, b], [b, a])[0]
        s2 = g.add_bits([a, b], [b, a])[0]
        assert g.eq_bits(s1, s2) == TRUE

    def test_low_bits_of_wider_mul_are_shared(self):
        # the property the mapper's padding pattern relies on
        g = AIG()
        xs4, ys4 = g.var_bits(4), g.var_bits(4)
        xs8 = xs4 + [FALSE] * 4
        ys8 = ys4 + [FALSE] * 4
        m4 = g.mul_bits(xs4, ys4)
        m8 = g.mul_bits(xs8, ys8)
        assert m8[:4] == m4

    def test_low_bits_of_wider_add_are_shared(self):
        g = AIG()
        xs, ys = g.var_bits(6), g.var_bits(6)
        s6 = g.add_bits(xs, ys)[0]
        s9 = g.add_bits(xs + [FALSE] * 3, ys + [FALSE] * 3)[0]
        assert s9[:6] == s6


def _eval_script(text):
    return run_script(text).strip().splitlines()


class TestScripts:
    def test_sat_with_model(self):
        out = _eval_script("""
            (set-logic QF_BV)
            (declare-const x (_ BitVec 4))
            (assert (= (bvadd x #x3) #x9))
            (check-sat)
            (get-value (x))
        """)
        assert out[0] == "sat"
        assert out[1] == "((x #b0110))"

    def test_unsat(self):
        out = _eval_script("""
            (declare-const x (_ BitVec 4))
            (assert (distinct (bvand x #x0) #x0))
            (check-sat)
        """)
        assert out == ["unsat"]

    def test_define_fun_chain(self):
        out = _eval_script("""
            (declare-const a (_ BitVec 8))
            (define-fun t0 () (_ BitVec 8) (bvadd a #x01))
            (define-fun t1 () (_ BitVec 8) (bvmul t0 t0))
            (assert (= t1 #x00))
            (assert (= a #xff))
            (check-sat)
        """)
        assert out == ["sat"]  # (255+1)^2 mod 256 = 0

    def test_named_assertion_and_let(self):
        out = _eval_script("""
            (declare-const x (_ BitVec 2))
            (assert (! (let ((y (bvnot x))) (= y #b01)) :named a0))
            (check-sat)
            (get-value (x))
        """)
        assert out == ["sat", "((x #b10))"]

    def test_get_value_of_a_definition_made_after_check_sat(self):
        # its AIG nodes are newer than the model check's sweep
        out = _eval_script("""
            (declare-const x (_ BitVec 4))
            (assert (= (bvadd x #x3) #x9))
            (check-sat)
            (define-fun y () (_ BitVec 4) (bvmul x x))
            (define-fun p () Bool (bvult y x))
            (get-value (x y p))
        """)
        assert out == ["sat", "((x #b0110) (y #b0100) (p true))"]

    def test_bool_symbols(self):
        out = _eval_script("""
            (declare-const p Bool)
            (declare-const q Bool)
            (assert (and (or p q) (not p)))
            (check-sat)
            (get-value (p q))
        """)
        assert out[0] == "sat"
        assert out[1] == "((p false) (q true))"

    def test_ite_and_compare(self):
        out = _eval_script("""
            (declare-const x (_ BitVec 4))
            (assert (bvult x #x4))
            (assert (bvuge x #x3))
            (assert (= (ite (bvult x #x2) #b1 #b0) #b0))
            (check-sat)
            (get-value (x))
        """)
        assert out == ["sat", "((x #b0011))"]

    def test_signed_compare(self):
        out = _eval_script("""
            (declare-const x (_ BitVec 4))
            (assert (bvslt x #x0))
            (assert (bvult #x7 x))
            (check-sat)
        """)
        assert out == ["sat"]  # any x in 8..15 works

    def test_multiplier_identity_is_unsat_to_refute(self):
        # (a*b == b*a) always; negation unsat.  Exercises real CNF work.
        out = _eval_script("""
            (declare-const a (_ BitVec 5))
            (declare-const b (_ BitVec 5))
            (assert (distinct (bvmul a b) (bvmul b a)))
            (check-sat)
        """)
        assert out == ["unsat"]

    def test_shift_semantics_overflow(self):
        out = _eval_script("""
            (declare-const a (_ BitVec 4))
            (assert (= a #b1010))
            (assert (= (bvlshr a #x9) #b0000))
            (assert (= (bvashr #b1000 #b0111) #b1111))
            (assert (= (bvshl a #b0010) #b1000))
            (check-sat)
        """)
        assert out == ["sat"]

    def test_errors(self):
        with pytest.raises(SolverInputError):
            run_script("(assert (= x x)) (check-sat)")
        with pytest.raises(SolverInputError):
            run_script("(frobnicate)")

    def test_push_pop_rejected(self):
        # this script is sat (x = 0); treating push and pop as no-ops
        # would keep the popped assertion and answer unsat
        with pytest.raises(SolverInputError):
            run_script("""
                (declare-const x (_ BitVec 1))
                (push 1)
                (assert (= x #b1))
                (pop 1)
                (assert (= x #b0))
                (check-sat)
            """)
        with pytest.raises(SolverInputError):
            run_script("(pop 1)")

    def test_get_value_without_sat_answers_in_band(self):
        # get-value after unsat (or before check-sat) reports the missing
        # model on stdout rather than dying, as mainstream solvers do
        out = _eval_script("""
            (declare-const x (_ BitVec 4))
            (get-value (x))
            (assert (distinct x x))
            (check-sat)
            (get-value (x))
        """)
        assert out == ['(error "model is not available")', "unsat",
                       '(error "model is not available")']

    def test_parse_all_handles_comments(self):
        exprs = parse_all("; hi\n(a (b 1)) ; tail\natom")
        assert exprs == [["a", ["b", "1"]], "atom"]

    def test_reset_starts_a_fresh_script(self):
        out = _eval_script("""
            (declare-const x (_ BitVec 2))
            (assert (= x #b01))
            (check-sat)
            (reset)
            (declare-const x (_ BitVec 2))
            (assert (distinct x x))
            (check-sat)
            (get-value (x))
        """)
        assert out == ["sat", "unsat", '(error "model is not available")']


# -- the s-expression reader against the character-at-a-time scanner it
# replaced, kept here as the reference ---------------------------------------


class _Quoted(str):
    """A |symbol|'s name: an atom even when it is ( or ).  (The scanner's
    old parser read |(| and |)| as parentheses.)"""


def _reference_tokens(text):
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SolverInputError("unterminated |symbol|")
            yield _Quoted(text[i + 1:j])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SolverInputError("unterminated string")
            yield text[i:j + 1]
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j]
            i = j


def _reference_parse(text):
    out, stack = [], []
    for tok in _reference_tokens(text):
        if isinstance(tok, _Quoted):
            (stack[-1] if stack else out).append(tok)
        elif tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SolverInputError("unbalanced )")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SolverInputError("unbalanced (")
    return out


def _outcome(read, text):
    try:
        return read(text)
    except SolverInputError as e:
        return f"error: {e}"


def _read_by_lines(text):
    reader = Reader()
    out = []
    for line in re.findall(r"[^\n]*\n|[^\n]+$", text):
        out += reader.feed(line)
    reader.finish()
    return out


READER_CASES = [
    "", "  \n\t", "; only a comment", "atom", "(a b)(c)", "((a) b",
    "(a))", ") \"open", "(|sym with (parens)\nand lines| x)", "||",
    "|a|b", "ab|c|d e", 'a"b "c d" ""', '"unterminated (', "|open ) (",
    '"s" |x', '(echo "done")\n', "(a ; comment (\n b)", "x;y\nz",
    "a\x0bb\x0cc", "(_ bv5 8)", '" ; not a comment"', "|;|", "(a |b",
    "\r\n(a\rb)\r\n", "(|)| |(|)",
    # where a | or " opens a token and where it only continues an atom
    '|a|"b"', "a|b|c d", 'x"y" "z"', "(a)|b|", "(a ; note\n|s|)",
]


@pytest.mark.parametrize("text", READER_CASES)
def test_reader_matches_the_reference_scanner(text):
    want = _outcome(_reference_parse, text)
    assert _outcome(parse_all, text) == want
    assert _outcome(_read_by_lines, text) == want


def test_reader_matches_the_reference_scanner_on_random_text():
    rng = random.Random(6)
    alphabet = '()|"; \n\tab#1_'
    for _ in range(3000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(24)))
        want = _outcome(_reference_parse, text)
        assert _outcome(parse_all, text) == want, text
        assert _outcome(_read_by_lines, text) == want, text


def test_reader_returns_commands_as_they_complete():
    r = Reader()
    assert r.feed("(assert\n") == []
    assert r.feed("  x)(check-sat)\n") == [["assert", "x"], ["check-sat"]]
    assert r.feed('(echo "two\n') == []
    assert r.feed('lines")\n') == [["echo", '"two\nlines"']]
    r.finish()


def _mask(w):
    return (1 << w) - 1


def _py_op(name, a, b, w):
    m = _mask(w)
    sa = a - (1 << w) if a >> (w - 1) else a
    sb = b - (1 << w) if b >> (w - 1) else b
    return {
        "bvadd": lambda: (a + b) & m,
        "bvsub": lambda: (a - b) & m,
        "bvmul": lambda: (a * b) & m,
        "bvand": lambda: a & b,
        "bvor": lambda: a | b,
        "bvxor": lambda: a ^ b,
        "bvshl": lambda: (a << b) & m if b < w else 0,
        "bvlshr": lambda: a >> b if b < w else 0,
        "bvashr": lambda: (sa >> b) & m if b < w else (m if sa < 0 else 0),
    }[name]()


def _py_cmp(name, a, b, w):
    sa = a - (1 << w) if a >> (w - 1) else a
    sb = b - (1 << w) if b >> (w - 1) else b
    return {
        "bvult": a < b, "bvule": a <= b, "bvugt": a > b, "bvuge": a >= b,
        "bvslt": sa < sb, "bvsle": sa <= sb, "bvsgt": sa > sb,
        "bvsge": sa >= sb,
    }[name]


_BINOPS = ["bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor",
           "bvshl", "bvlshr", "bvashr"]
_COMPARES = ["bvult", "bvule", "bvugt", "bvuge",
             "bvslt", "bvsle", "bvsgt", "bvsge"]
_UNARY = {
    "bvnot": lambda a, w: a ^ _mask(w),
    "bvneg": lambda a, w: -a & _mask(w),
}


def _implies(xs):
    # right-associative: (=> a b c) is (=> a (=> b c))
    out = xs[-1]
    for x in reversed(xs[:-1]):
        out = not x or out
    return out


# Bool connectives: head -> (fewest, most operands drawn, reference)
_CONNECTIVES = {
    "not": (1, 1, lambda xs: not xs[0]),
    "and": (2, 4, all),
    "or": (2, 4, any),
    "xor": (2, 4, lambda xs: sum(xs) % 2 == 1),
    "=>": (2, 4, _implies),
    "=": (2, 2, lambda xs: xs[0] == xs[1]),
    "distinct": (2, 2, lambda xs: xs[0] != xs[1]),
}


def _bv(v, w):
    return f"(_ bv{v} {w})"


def _bool(b):
    return "true" if b else "false"


def _ite_case(rng):
    w, c = rng.randint(1, 6), rng.random() < 0.5
    a, b = rng.getrandbits(w), rng.getrandbits(w)
    return f"(ite {_bool(c)} {_bv(a, w)} {_bv(b, w)})", _bv(a if c else b, w)


def _concat_case(rng):
    ws = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    vs = [rng.getrandbits(w) for w in ws]
    want = 0
    for v, w in zip(vs, ws):   # the first operand is the high part
        want = (want << w) | v
    ops = " ".join(_bv(v, w) for v, w in zip(vs, ws))
    return f"(concat {ops})", _bv(want, sum(ws))


def _extract_case(rng):
    w = rng.randint(1, 8)
    a, lo = rng.getrandbits(w), rng.randrange(w)
    hi = rng.randrange(lo, w)
    return (f"((_ extract {hi} {lo}) {_bv(a, w)})",
            _bv((a >> lo) & _mask(hi - lo + 1), hi - lo + 1))


def _zero_extend_case(rng):
    w, k = rng.randint(1, 6), rng.randint(0, 3)
    a = rng.getrandbits(w)
    return f"((_ zero_extend {k}) {_bv(a, w)})", _bv(a, w + k)


def _sign_extend_case(rng):
    w, k = rng.randint(1, 6), rng.randint(0, 3)
    a = rng.getrandbits(w)
    sa = a - (1 << w) if a >> (w - 1) else a
    return f"((_ sign_extend {k}) {_bv(a, w)})", _bv(sa & _mask(w + k), w + k)


# wiring and mux heads: head -> draw(rng) giving (application, its value)
_WIRING = {
    "ite": _ite_case,
    "concat": _concat_case,
    "extract": _extract_case,
    "zero_extend": _zero_extend_case,
    "sign_extend": _sign_extend_case,
}


def _random_binop(rng):
    """(operator, a, b, width) for a random bit-vector operation."""
    w = rng.choice([1, 3, 4, 7])
    name = rng.choice(_BINOPS)
    return name, rng.getrandbits(w), rng.getrandbits(w), w


def test_blasting_matches_integer_semantics():
    # For random (op, a, b): assert term == expected must be sat, and
    # term != expected must be unsat.  This pins every operator's
    # bit-level semantics to the integer reference.
    rng = random.Random(17)
    for _ in range(60):
        name, a, b, w = _random_binop(rng)
        expect = _py_op(name, a, b, w)
        base = (f"(declare-const x (_ BitVec {w}))"
                f"(assert (= x ({name} (_ bv{a} {w}) (_ bv{b} {w}))))")
        sat_q = base + f"(assert (= x (_ bv{expect} {w})))(check-sat)"
        uns_q = base + f"(assert (distinct x (_ bv{expect} {w})))(check-sat)"
        assert _eval_script(sat_q) == ["sat"], (name, a, b, w, expect)
        assert _eval_script(uns_q) == ["unsat"], (name, a, b, w, expect)


# sha256 of run_script's answers on _golden_scripts(); see
# test_models_are_pinned.
GOLDEN_ANSWERS = ("791065e1f6772a5ca71183271e40ab39"
                  "720740a07b2a9a26b49f6baa39e02cfe")


def _golden_scripts():
    """200 scripts over free operands x and y, so the answers and models
    depend on the whole solver: encoding, clause order, propagation
    order and decisions.  The odd ones pin x and forbid the known y, which
    is unsat when no other y gives the same result."""
    rng = random.Random(23)
    for i in range(200):
        name, a, b, w = _random_binop(rng)
        expect = _py_op(name, a, b, w)
        text = (f"(declare-const x (_ BitVec {w}))"
                f"(declare-const y (_ BitVec {w}))"
                f"(assert (= ({name} x y) (_ bv{expect} {w})))")
        if i % 2:
            text += (f"(assert (= x (_ bv{a} {w})))"
                     f"(assert (distinct y (_ bv{b} {w})))")
        yield text + "(check-sat)(get-value (x y))"


def test_models_are_pinned():
    # Every model the solver picks is part of the mapper's output (hole
    # values become primitive configurations), so a change to the
    # encoding or the search that alters any model must update this
    # constant on purpose and say why.
    h = hashlib.sha256()
    for text in _golden_scripts():
        h.update(run_script(text).encode())
    assert h.hexdigest() == GOLDEN_ANSWERS


def test_compare_blasting_matches_integer_semantics():
    rng = random.Random(19)
    for _ in range(80):
        w = rng.choice([1, 2, 5, 8])
        name = rng.choice(_COMPARES)
        a, b = rng.getrandbits(w), rng.getrandbits(w)
        lit = f"({name} (_ bv{a} {w}) (_ bv{b} {w}))"
        want = _py_cmp(name, a, b, w)
        q = f"(assert {lit})(check-sat)"
        assert _eval_script(q) == ["sat" if want else "unsat"], (name, a, b, w)


def _holds_exactly(app, want):
    """(= app want) is sat and (distinct app want) unsat."""
    return (_eval_script(f"(assert (= {app} {want}))(check-sat)")
            == ["sat"]
            and _eval_script(f"(assert (distinct {app} {want}))(check-sat)")
            == ["unsat"])


def test_unary_blasting_matches_integer_semantics():
    rng = random.Random(27)
    for _ in range(30):
        w = rng.choice([1, 3, 4, 7])
        name = rng.choice(sorted(_UNARY))
        a = rng.getrandbits(w)
        want = _UNARY[name](a, w)
        assert _holds_exactly(f"({name} {_bv(a, w)})", _bv(want, w)), \
            (name, a, w)


def test_connectives_match_truth_tables():
    rng = random.Random(28)
    for name, (least, most, ref) in sorted(_CONNECTIVES.items()):
        for _ in range(12):
            xs = [rng.random() < 0.5
                  for _ in range(rng.randint(least, most))]
            app = f"({name} {' '.join(_bool(x) for x in xs)})"
            assert _holds_exactly(app, _bool(ref(xs))), app


def test_wiring_heads_match_integer_semantics():
    rng = random.Random(29)
    for name, draw in sorted(_WIRING.items()):
        for _ in range(12):
            app, want = draw(rng)
            assert _holds_exactly(app, want), (app, want)


def test_every_head_has_an_integer_reference():
    # a head added to the table without a reference here fails
    covered = (set(_BINOPS) | set(_COMPARES) | set(_UNARY)
               | set(_CONNECTIVES) | set(_WIRING))
    assert covered == set(HEADS)


# Each was answered, or crashed the solver, before the head table's one
# check site: a (declared 4-bit), b (8-bit), p and q (Bool).
ODD_INPUTS = [
    ("(assert (bvult b a))", "bvult needs equal operand widths"),
    ("(assert (= (bvshl a b) b))", "bvshl needs equal operand widths"),
    ("(assert (not p q))", "wrong operand count for not"),
    ("(assert (= a a a))", "wrong operand count for ="),
    ("(assert (= a #b))", "bad literal '#b'"),
    ("(assert (= a #b12))", "bad literal '#b12'"),
    ("(assert (= (ite p a b) b))", "ite needs equal operand widths"),
    ("(assert (= ((_ extract 4 1) a) a))", "extract 4 1 is out of range"),
    ("(declare-const z (_ BitVec 0))", "width 0 is below 1"),
    ("(assert (= b #xZZ))", "bad literal '#xZZ'"),
    ("(assert (= a (_ bvx 4)))", "expected a numeral, got 'x'"),
    ("(assert (and p a))", "and operand 2 is a BitVec, expected Bool"),
    ("(assert (ite a p q))", "ite operand 1 is a BitVec, expected Bool"),
    ("(assert (= p a))", "= operand 2 is a BitVec, expected Bool"),
    ("(assert (= (bvnot p) a))", "bvnot operand 1 is a Bool"),
    ("(assert (= (bvadd p a) a))", "bvadd operand 1 is a Bool"),
    ("(assert (bvult p q))", "bvult operand 1 is a Bool"),
    ("(assert (= (concat p a) b))", "concat operand 1 is a Bool"),
    ("(assert (= ((_ extract 0 0) p) a))",
     "extract operand 1 is a Bool, expected BitVec"),
    ("(assert ((_ zero_extend) a))", "bad head"),
    ("(assert (= ((_ zero_extend 1 2) a) b))",
     "wrong index count for zero_extend"),
    ("(assert)", "wrong operand count for assert"),
]
_ODD_DECLS = ("(declare-const a (_ BitVec 4))(declare-const b (_ BitVec 8))"
              "(declare-const p Bool)(declare-const q Bool)")


@pytest.mark.parametrize("command, message", ODD_INPUTS)
def test_odd_input_is_rejected(command, message):
    with pytest.raises(SolverInputError) as e:
        run_script(_ODD_DECLS + command + "(check-sat)")
    assert message in str(e.value)


def _solver_child(text):
    return subprocess.run(
        [sys.executable, "-m", "sketchmap.solver"], input=text.encode(),
        capture_output=True, timeout=60)


@pytest.mark.parametrize("command, message", ODD_INPUTS)
def test_odd_input_stops_the_child_with_an_error(command, message):
    r = _solver_child(_ODD_DECLS + command + "(check-sat)")
    assert r.returncode == 1
    assert r.stderr.decode().startswith("(error")
    assert message in r.stderr.decode()
    assert b"Traceback" not in r.stderr


WIDE_INPUTS = [
    ("(declare-const w (_ BitVec 65537))",
     "bit-vector width 65537 is above the limit 65536"),
    ("(assert (= a (_ bv0 65537)))", "bit-vector width 65537 is above"),
    ("(assert (= a #x" + "0" * 16385 + "))",
     "bit-vector width 65540 is above"),
    ("(assert (= ((_ zero_extend 65533) a) a))",
     "zero_extend result width 65537 is above"),
    ("(assert (= ((_ sign_extend 65533) a) a))",
     "sign_extend result width 65537 is above"),
    ("(assert (= (concat ((_ zero_extend 65532) a) b) b))",
     "concat result width 65544 is above"),
]


@pytest.mark.parametrize("command, message", WIDE_INPUTS,
                         ids=lambda x: x[:40])
def test_width_past_the_limit_stops_the_child(command, message):
    assert MAX_WIDTH == 65536
    r = _solver_child(_ODD_DECLS + command + "(check-sat)")
    assert r.returncode == 1
    assert r.stderr.decode().startswith("(error")
    assert message in r.stderr.decode()
    assert b"Traceback" not in r.stderr


def test_width_at_the_limit_is_accepted():
    r = _solver_child(
        _ODD_DECLS + "(declare-const w (_ BitVec 65536))"
        "(assert (= ((_ zero_extend 65532) a) ((_ sign_extend 65532) a)))"
        "(assert (= (concat ((_ extract 65535 1) w) ((_ extract 0 0) w))"
        " w))(check-sat)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [b"sat"]


def test_index_too_large_to_represent_stops_the_child():
    r = _solver_child(
        "(declare-const a (_ BitVec 4))"
        "(assert (= ((_ zero_extend 10000000000000000000) a) a))"
        "(check-sat)")
    assert r.returncode == 1
    assert r.stderr.decode().startswith("(error")
    assert b"Traceback" not in r.stderr


def test_index_too_large_to_allocate_stops_the_child():
    # the child's address space is capped, so the failed allocation
    # cannot take the machine's memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run(
        [sys.executable, "-m", "sketchmap.solver"],
        input=b"(declare-const a (_ BitVec 4))"
              b"(assert (= ((_ zero_extend 100000000000) a) a))(check-sat)",
        capture_output=True, timeout=60, preexec_fn=cap)
    assert r.returncode == 1
    assert r.stderr.decode().startswith("(error")
    assert b"Traceback" not in r.stderr


def _deep_script(depth):
    """A (bvnot ... (bvnot a)) nest depth deep, which is a itself for an
    even depth."""
    nest = "(bvnot " * depth + "a" + ")" * depth
    return ("(declare-const a (_ BitVec 4))"
            f"(assert (= {nest} #x5))(check-sat)(get-value (a))")


def test_deep_term_in_process():
    assert _eval_script(_deep_script(100_000)) == ["sat", "((a #b0101))"]


def test_deep_term_in_the_child():
    r = _solver_child(_deep_script(100_000))
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().splitlines() == ["sat", "((a #b0101))"]


def test_let_binds_in_parallel():
    # the inner x is bound in the outer scope, where x is the declared one
    out = _eval_script("""
        (declare-const x (_ BitVec 4))
        (assert (= x #x3))
        (assert (let ((x #x1) (y x)) (= (bvadd x y) #x4)))
        (check-sat)
    """)
    assert out == ["sat"]


def test_subprocess_entry_point():
    q = ("(set-logic QF_BV)(declare-const h (_ BitVec 4))"
         "(assert (= (bvxor h #b0011) #b0110))(check-sat)(get-value (h))")
    r = subprocess.run(
        [sys.executable, "-m", "sketchmap.solver"], input=q.encode(),
        capture_output=True, timeout=60)
    assert r.returncode == 0
    assert r.stdout.decode().splitlines() == ["sat", "((h #b0101))"]


def test_subprocess_reports_errors():
    r = subprocess.run(
        [sys.executable, "-m", "sketchmap.solver"], input=b"(bogus)",
        capture_output=True, timeout=60)
    assert r.returncode == 1
    assert b"error" in r.stderr


def test_child_imports_no_re():
    # the portfolio starts the solver under -S; re would cost each start
    src = os.path.dirname(os.path.dirname(sketchmap.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import sketchmap.solver.__main__; print('re' in sys.modules)")
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False"]
