"""Conflict-driven clause-learning SAT solver.

Plain CDCL: two watched literals, first-UIP learning, activity-based
branching with exponential decay, Luby restarts, phase saving.  Everything
is deterministic: ties break on variable index and unassigned variables
default to False, so models are reproducible run to run.

The script driver sends only large cones here.  A check-sat whose cone's
nodes times its 2**k input rows come to at most aig.TABLE_BITS is decided
by truth table instead (aig.AIG.least_model): unsat when no row satisfies
it, else the least satisfying row, the lowest-id input first and 0 before
1.  That is the model this solver finds when it meets no conflict.

Literals are encoded as 2*var for the positive polarity and 2*var+1 for
the negative one (vars count from 0).  assign[v] is 1, 0 or -1 (free), so
literal l is true when assign[l >> 1] == (l & 1) ^ 1 and false when
assign[l >> 1] == l & 1.

Propagation follows MiniSat (Een and Sorensson, "An Extensible
SAT-solver", SAT 2003).  Each clause keeps its two watched literals at
positions 0 and 1, and watches[l] lists the clauses watching neg(l), in
the order they started watching it.  When l becomes true, each of those
clauses moves its false literal to position 1; it is satisfied if
position 0 is true, otherwise it looks from position 2 on for a literal
that is not false, swaps it into position 1 and moves to that literal's
watch list; failing that, position 0 is implied, or the clause is the
conflict.  The loop runs on local names and reads assignments inline.

Decisions take the free variable of highest activity, the lowest index
among equals: exactly what a scan over all variables would pick, without
the scan.  Variables of activity 0 (never bumped, or underflowed by the
1e-100 rescale) are found by a cursor, below which no such variable is
free; bumped ones sit in a binary heap of (-activity, var) entries.
Bumps happen in conflict analysis, while the variable is assigned, so
_cancel_until pushes each freed bumped variable with its current
activity, and the rescale rebuilds the heap.  Entries are never removed
early: as activities only grow between rescales, a variable's older
entries surface after its current one, by when it is assigned, and
entries of assigned variables are skipped.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def neg(lit: int) -> int:
    return lit ^ 1


class SatSolver:
    def __init__(self, num_vars: int = 0):
        n = num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n)]
        self.assign: list[int] = [-1] * n    # var -> 0 false, 1 true, -1 free
        self.level: list[int] = [-1] * n
        self.reason: list[int] = [-1] * n    # var -> clause index or -1
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = [0.0] * n
        self.var_inc = 1.0
        self.saved_phase: list[int] = [0] * n
        self.heap: list[tuple[float, int]] = []  # bumped free vars
        self.cursor = 0     # no free var of activity 0 below this index
        self.qhead = 0
        self.ok = True

    def new_var(self) -> int:
        v = len(self.assign)
        self.assign.append(-1)
        self.level.append(-1)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.saved_phase.append(0)
        self.watches.append([])
        self.watches.append([])
        return v

    def ensure_var(self, v: int) -> None:
        while len(self.assign) <= v:
            self.new_var()

    def value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        a = self.assign[lit >> 1]
        if a < 0:
            return -1
        return a ^ (lit & 1)

    def add_clause(self, lits: list[int]) -> bool:
        """Add a clause (top level only).  Returns False if it makes the
        formula trivially unsat."""
        if not self.ok:
            return False
        for lit in lits:
            self.ensure_var(lit >> 1)
        # dedupe; drop clauses with complementary pairs
        seen = set()
        out = []
        for lit in lits:
            if lit in seen:
                continue
            if neg(lit) in seen:
                return True
            v = self.value(lit)
            if v == 1:
                return True
            if v == 0:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], -1)
            conflict = self._propagate()
            if conflict != -1:
                self.ok = False
                return False
            return True
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watches[neg(out[0])].append(ci)
        self.watches[neg(out[1])].append(ci)
        return True

    def _enqueue(self, lit: int, reason_clause: int) -> None:
        v = lit >> 1
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_clause
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or -1."""
        assign, level, reason = self.assign, self.level, self.reason
        clauses, watches, trail = self.clauses, self.watches, self.trail
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            watchlist = watches[lit]
            i, end = 0, len(watchlist)
            while i < end:
                ci = watchlist[i]
                clause = clauses[ci]
                # ensure the falsified literal sits at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                a = assign[first >> 1]
                if a == (first & 1) ^ 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if assign[q >> 1] != q & 1:
                        clause[k] = clause[1]
                        clause[1] = q
                        watches[q ^ 1].append(ci)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        end -= 1
                        break
                else:
                    if a == first & 1:
                        self.qhead = qhead
                        return ci  # conflict
                    v = first >> 1
                    assign[v] = (first & 1) ^ 1
                    level[v] = lvl
                    reason[v] = ci
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return -1

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            act, assign = self.activity, self.assign
            for u in range(len(act)):
                act[u] *= 1e-100
            self.var_inc *= 1e-100
            # every key changed; small activities may have become 0
            self.heap = [(-a, u) for u, a in enumerate(act)
                         if a > 0.0 and assign[u] < 0]
            heapify(self.heap)
            self.cursor = 0

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis: returns (learnt clause, backjump
        level); learnt[0] is the asserting literal."""
        learnt = [0]
        seen = [False] * len(self.assign)
        counter = 0
        asserted = -1  # literal whose reason clause is being expanded
        ci = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in self.clauses[ci]:
                if q == asserted:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            asserted = self.trail[idx]
            v = asserted >> 1
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            ci = self.reason[v]
        learnt[0] = neg(asserted)
        if len(learnt) == 1:
            return learnt, 0
        # backjump to the second-highest level in the clause
        max_i = 1
        for k in range(2, len(learnt)):
            if self.level[learnt[k] >> 1] > self.level[learnt[max_i] >> 1]:
                max_i = k
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) > lvl:
            assign, activity, heap = self.assign, self.activity, self.heap
            saved_phase, reason = self.saved_phase, self.reason
            trail = self.trail
            limit = self.trail_lim[lvl]
            del self.trail_lim[lvl:]
            cursor = self.cursor
            for k in range(len(trail) - 1, limit - 1, -1):
                v = trail[k] >> 1
                saved_phase[v] = assign[v]
                assign[v] = -1
                reason[v] = -1
                a = activity[v]
                if a > 0.0:
                    heappush(heap, (-a, v))
                elif v < cursor:
                    cursor = v
            self.cursor = cursor
            del trail[limit:]
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        assign, heap = self.assign, self.heap
        while heap:
            v = heappop(heap)[1]
            if assign[v] < 0:
                break
        else:
            # no bumped var is free: the lowest free var has activity 0
            v, n = self.cursor, len(assign)
            while v < n and assign[v] >= 0:
                v += 1
            self.cursor = v
            if v == n:
                return -1
        return 2 * v + (0 if self.saved_phase[v] == 1 else 1)

    def solve(self) -> bool:
        if not self.ok:
            return False
        conflict = self._propagate()
        if conflict != -1:
            self.ok = False
            return False
        conflicts_here = 0
        restart_at = 100
        luby_k = 1
        while True:
            conflict = self._propagate()
            if conflict != -1:
                conflicts_here += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return False
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[neg(learnt[0])].append(ci)
                    self.watches[neg(learnt[1])].append(ci)
                    self._enqueue(learnt[0], ci)
                self.var_inc *= 1.053
                continue
            if conflicts_here >= restart_at:
                conflicts_here = 0
                luby_k += 1
                restart_at = 100 * _luby(luby_k)
                self._cancel_until(0)
                continue
            lit = self._decide()
            if lit == -1:
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)

    def model_value(self, v: int) -> bool:
        a = self.assign[v] if v < len(self.assign) else -1
        return a == 1


def _luby(i: int) -> int:
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1
