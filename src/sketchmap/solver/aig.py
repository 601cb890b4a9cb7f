"""And-inverter graph with structural hashing, plus bit-vector blasting.

Literal encoding: 2*node for the plain output, 2*node+1 inverted.  Node 0
is reserved for the constant, so literal 0 is FALSE and literal 1 is TRUE.
and_() folds the usual identities (x&x, x&~x, constants) and canonicalizes
argument order, so structurally equal subformulas share one node; that is
what makes equivalence queries between structurally aligned circuits cheap.

Bit vectors are Python lists of literals, LSB first.  The blasting
strategies are chosen for sharing, not size: ripple adders and ascending
shift-add multipliers mean the low k bits of a wide operation are the same
AIG nodes as the bits of the k-wide operation over the same inputs.  A
multiplier whose operands depend on at most CASE_INPUTS inputs is built by
cases instead: each product bit is a reduced decision tree over those
inputs, ordered by node id, so equal functions over them are equal
literals.  Its low bits stay shared with a narrower multiplier when both
are built the same way: always over the cap, and under it whenever the
narrower one is built by cases (zero padding adds no inputs and widens the
cone guard).

truth_tables computes the tables of a cone over its inputs, one int per
node with a bit per row, in one ascending sweep, since an AND node is
always created after its fanins.  mul_bits reads its cases from them, and
least_model decides a root with them when its cone's nodes times its 2**k
rows come to at most TABLE_BITS: no satisfying row is unsat, otherwise
the model is the least satisfying row, the lowest-id input most
significant and 0 before 1.  That is the model CDCL finds when it meets no
conflict, since it decides free variables lowest index first, False
first, and an AND node is always implied by its fanins before it is
decided.  A larger cone goes to to_sat, which Tseitin-encodes the cone of
one root into a SatSolver, writing the clauses and watch lists directly.
evaluate computes every node's value under an input assignment in one
ascending sweep; the driver checks models with it independently of both
deciders.
"""

from __future__ import annotations

from .sat import SatSolver

FALSE = 0
TRUE = 1

CASE_INPUTS = 6
"""mul_bits multiplies by cases when its operands depend on at most this
many input nodes: 2**k integer products, then each product bit as a
decision tree over those inputs.  The cap bounds that work at 64 products
and 63 muxes a bit.  In the mapper's SYNTH queries the operands are
constants selected by 1 or 3 hole bits, and the trees replace an 18-bit
shift-add array there; its VERIFY multipliers depend on 16-48 input bits
and keep the shift-add, whose sharing folds spec against sketch."""

TABLE_BITS = 1 << 22
"""least_model decides a root by truth table when its cone's nodes times
its 2**k rows (k inputs) come to at most this many bits, 512 KB of tables.
The mapper's SYNTH queries on the minidsp block have 6-8 input bits and
under 3000 nodes, so they are decided in well under the time that CNF and
CDCL take on them; its VERIFY queries have tens of input bits and stay with
CDCL unless strashing folds them."""


class AIG:
    def __init__(self):
        self.nodes: list = [None]  # node 0: constant
        self.strash: dict = {}

    def var(self) -> int:
        self.nodes.append(None)
        return 2 * (len(self.nodes) - 1)

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        if a ^ 1 == b:
            return FALSE
        key = (a, b)
        hit = self.strash.get(key)
        if hit is not None:
            return hit
        self.nodes.append(key)
        lit = 2 * (len(self.nodes) - 1)
        self.strash[key] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        if a == FALSE:
            return b
        if a == TRUE:
            return b ^ 1
        if b == FALSE:
            return a
        if b == TRUE:
            return a ^ 1
        if a == b:
            return FALSE
        if a ^ 1 == b:
            return TRUE
        return self.and_(self.and_(a, b ^ 1) ^ 1, self.and_(a ^ 1, b) ^ 1) ^ 1

    def mux_(self, s: int, a: int, b: int) -> int:
        """s ? a : b."""
        if s == TRUE:
            return a
        if s == FALSE:
            return b
        if a == b:
            return a
        return self.or_(self.and_(s, a), self.and_(s ^ 1, b))

    def and_many(self, lits: list[int]) -> int:
        out = TRUE
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits: list[int]) -> int:
        out = FALSE
        for lit in lits:
            out = self.or_(out, lit)
        return out

    # -- bit-vector layer (lists of literals, LSB first) --------------------

    def const_bits(self, value: int, width: int) -> list[int]:
        return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]

    def var_bits(self, width: int) -> list[int]:
        return [self.var() for _ in range(width)]

    def add_bits(self, xs: list[int], ys: list[int],
                 cin: int = FALSE) -> tuple[list[int], int]:
        """Ripple-carry; returns (sum bits, carry out)."""
        assert len(xs) == len(ys)
        out = []
        c = cin
        for a, b in zip(xs, ys):
            axb = self.xor_(a, b)
            out.append(self.xor_(axb, c))
            c = self.or_(self.and_(a, b), self.and_(c, axb))
        return out, c

    def sub_bits(self, xs: list[int], ys: list[int]) -> list[int]:
        return self.add_bits(xs, [y ^ 1 for y in ys], TRUE)[0]

    def neg_bits(self, xs: list[int]) -> list[int]:
        zero = [FALSE] * len(xs)
        return self.sub_bits(zero, xs)

    def mul_bits(self, xs: list[int], ys: list[int]) -> list[int]:
        """The product truncated to len(xs): by cases when _mul_cases
        finds the operands' few inputs, else shift-add with ascending
        rows."""
        w = len(xs)
        cases = self._mul_cases(xs, ys)
        if cases is not None:
            support, table = cases
            xt = [table(x) for x in xs]
            yt = [table(y) for y in ys]
            mask = (1 << w) - 1
            out = [0] * w
            for j in range(1 << len(support)):
                a = sum(1 << i for i, t in enumerate(xt) if t >> j & 1)
                b = sum(1 << i for i, t in enumerate(yt) if t >> j & 1)
                p = a * b & mask
                for i in range(w):
                    out[i] |= (p >> i & 1) << j
            lits = [2 * n for n in support]
            return [self._tree(lits, t, len(lits)) for t in out]
        acc = [self.and_(x, ys[0]) for x in xs]
        for i in range(1, w):
            row = [self.and_(xs[j], ys[i]) for j in range(w - i)]
            hi, _ = self.add_bits(acc[i:], row)
            acc = acc[:i] + hi
        return acc

    def _mul_cases(self, xs: list[int], ys: list[int]):
        """truth_tables of multiplier operands xs and ys when they depend
        on at most CASE_INPUTS input nodes through a cone of at most
        8*w*w + 64 nodes; else None.  The guard keeps the walk and the
        tables within about twice the gates a shift-add makes, plus 64
        cases."""
        limit = 8 * len(xs) ** 2 + 64
        return self.truth_tables(
            xs + ys, lambda k: limit if k <= CASE_INPUTS else -1)

    def truth_tables(self, lits: list[int], bound):
        """(support, table) for the cone of lits, or None when the cone
        passes bound.  bound(k) is the most nodes the cone may have over
        k inputs, below 0 when k inputs are too many; the depth-first walk
        from lits stops as soon as the nodes it has seen, the constant
        included, pass the bound of the inputs it has found.

        support lists the cone's input nodes by ascending id, and
        table(x) is the truth table of a literal x of the cone: bit j is
        x's value when each support[i] is (j >> i) & 1.  One ascending
        sweep computes every node's table, one int over all 2**k rows, so
        the sweep holds about nodes * 2**k bits."""
        nodes = self.nodes
        seen = {0}
        stack = [x >> 1 for x in lits]
        support = []
        cap = bound(0)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            entry = nodes[n]
            if entry is None:
                support.append(n)
                cap = bound(len(support))
            else:
                stack += (entry[0] >> 1, entry[1] >> 1)
            if len(seen) > cap:
                return None
        support.sort()
        rows = 1 << len(support)
        full = (1 << rows) - 1
        tt = {0: 0}
        for i, n in enumerate(support):
            # rows where bit i of j is set: 2**i zeros, then 2**i ones,
            # repeated over the rows
            run = 1 << i
            tt[n] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
        for n in sorted(seen):
            entry = nodes[n]
            if entry is not None:
                a, b = entry
                tt[n] = ((tt[a >> 1] ^ -(a & 1)) & (tt[b >> 1] ^ -(b & 1))
                         & full)

        def table(x):
            return (tt[x >> 1] ^ -(x & 1)) & full
        return support, table

    def least_model(self, root: int):
        """Decide root by its cone's truth table when the cone's nodes
        times its 2**k rows come to at most TABLE_BITS; None over that.
        Else (False, {}) when no row satisfies root, or (True, model),
        model mapping each input of the cone to its value in the least
        satisfying row: each input in ascending id order takes 0 if some
        satisfying row left agrees, else 1."""
        cone = self.truth_tables([root], lambda k: TABLE_BITS >> k)
        if cone is None:
            return None
        support, table = cone
        rows = table(root)   # the satisfying rows
        if not rows:
            return False, {}
        model = {}
        for n in support:
            zeros = rows & ~table(2 * n)
            model[n] = not zeros
            if zeros:
                rows = zeros
        return True, model

    def _tree(self, support: list[int], t: int, k: int) -> int:
        """The function with truth table t over support[:k], as a reduced
        decision tree splitting on the highest node id first, so equal
        functions get equal literals."""
        if t == 0:
            return FALSE
        if t == (1 << (1 << k)) - 1:
            return TRUE
        half = 1 << (k - 1)
        lo, hi = t & ((1 << half) - 1), t >> half
        if lo == hi:
            return self._tree(support, lo, k - 1)
        return self.mux_(support[k - 1], self._tree(support, hi, k - 1),
                         self._tree(support, lo, k - 1))

    def eq_bits(self, xs: list[int], ys: list[int]) -> int:
        return self.and_many([self.xor_(a, b) ^ 1 for a, b in zip(xs, ys)])

    def ult_bits(self, xs: list[int], ys: list[int]) -> int:
        # a < b  iff  no carry out of a + ~b + 1
        c = TRUE
        for a, b in zip(xs, ys):
            nb = b ^ 1
            axb = self.xor_(a, nb)
            c = self.or_(self.and_(a, nb), self.and_(c, axb))
        return c ^ 1

    def slt_bits(self, xs: list[int], ys: list[int]) -> int:
        fx = xs[:-1] + [xs[-1] ^ 1]
        fy = ys[:-1] + [ys[-1] ^ 1]
        return self.ult_bits(fx, fy)

    def mux_bits(self, s: int, xs: list[int], ys: list[int]) -> list[int]:
        return [self.mux_(s, a, b) for a, b in zip(xs, ys)]

    def shift_bits(self, xs: list[int], ss: list[int], kind: str) -> list[int]:
        """Barrel shifter; kind in shl / lshr / ashr.  Amounts >= width
        flush to zero (ashr: to the sign bit)."""
        w = len(xs)
        fill = xs[-1] if kind == "ashr" else FALSE
        # constant shift amount folds to wiring
        if all(s in (FALSE, TRUE) for s in ss):
            k = sum(1 << i for i, s in enumerate(ss) if s == TRUE)
            return self._shift_const(xs, k, kind, fill)
        out = list(xs)
        stages = 0
        while (1 << stages) < w:
            stages += 1
        for i in range(min(stages, len(ss))):
            shifted = self._shift_const(out, 1 << i, kind, fill)
            out = self.mux_bits(ss[i], shifted, out)
        # any set bit at position >= stages means shift >= width
        over = self.or_many(ss[stages:])
        return self.mux_bits(over, [fill] * w, out)

    def _shift_const(self, xs: list[int], k: int, kind: str,
                     fill: int) -> list[int]:
        w = len(xs)
        if k >= w:
            return [fill] * w
        if kind == "shl":
            return [FALSE] * k + xs[: w - k]
        return xs[k:] + [fill] * k

    # -- CNF + evaluation ----------------------------------------------------

    def to_sat(self, root: int) -> tuple[SatSolver, dict[int, int]]:
        """Tseitin-encode the cone of root; asserts root.  Returns the
        solver and a map AIG node -> SAT var for the cone.

        Cone nodes are numbered in ascending id order.  Walking the cone
        depth first from the root, each AND node n = a & b gets the
        clauses (~n | a), (~n | b) and (n | ~a | ~b), written straight
        into the solver's clause and watch lists exactly as add_clause
        would write them: strashing keeps a and b distinct,
        non-complementary and non-constant, and nothing is assigned
        before the root's unit clause, so add_clause could drop nothing.
        Each SAT literal is one shared int object, which keeps the
        clause lists small.  The root's unit clause goes through
        add_clause, which propagates it.
        """
        if root in (FALSE, TRUE):
            raise ValueError("a constant root has no cone to encode")
        nodes = self.nodes
        seen = bytearray(len(nodes))
        seen[0] = 1  # the constant node gets no variable
        order = []
        stack = [root >> 1]
        while stack:
            n = stack.pop()
            if seen[n]:
                continue
            seen[n] = 1
            order.append(n)
            entry = nodes[n]
            if entry is not None:
                stack.append(entry[0] >> 1)
                stack.append(entry[1] >> 1)
        cone = sorted(order)
        node_var = dict(zip(cone, range(len(cone))))
        solver = SatSolver(len(cone))
        # sat[x]: the SAT literal of AIG literal x, for x in the cone
        sat = [0] * (2 * len(nodes))
        lit = 0
        for n in cone:
            sat[2 * n] = lit
            sat[2 * n + 1] = lit + 1
            lit += 2
        clauses, watches = solver.clauses, solver.watches
        ci = 0
        for n in order:
            entry = nodes[n]
            if entry is None:
                continue
            a, b = entry
            pn, nn = sat[2 * n], sat[2 * n + 1]
            pa, na, pb, nb = sat[a], sat[a ^ 1], sat[b], sat[b ^ 1]
            c1, c2 = ci + 1, ci + 2
            clauses.append([nn, pa])
            clauses.append([nn, pb])
            clauses.append([pn, na, nb])
            wn = watches[pn]
            wn.append(ci)
            wn.append(c1)
            watches[na].append(ci)
            watches[nb].append(c1)
            watches[nn].append(c2)
            watches[pa].append(c2)
            ci += 3
        solver.add_clause([sat[root]])
        return solver, node_var

    def evaluate(self, inputs: dict[int, bool]) -> bytearray:
        """Value of every node under an assignment of input nodes
        (missing inputs read False): literal x is values[x >> 1] ^ (x & 1).

        One ascending sweep: an AND node's fanins always have lower ids,
        so they are evaluated before it."""
        nodes = self.nodes
        values = bytearray(len(nodes))
        for n, v in inputs.items():
            if v:
                values[n] = 1
        for n, entry in enumerate(nodes):
            if entry is not None:
                a, b = entry
                values[n] = ((values[a >> 1] ^ (a & 1))
                             & (values[b >> 1] ^ (b & 1)))
        return values
