"""Counterexample-guided synthesis over equivalence queries.

The loop alternates two existential queries:

  SYNTH:  find hole values making spec == sketch hold on every input
          environment collected so far (plus the side constraints).
  VERIFY: find an input environment where the candidate's sketch differs
          from the spec over the checked cycle window.

VERIFY unsat means the candidate works everywhere: it is re-checked by
the concrete interpreter on all accumulated counterexamples, so a
solver or encoding bug surfaces as a hard error instead of a wrong
netlist.  SYNTH unsat means no hole assignment can work: the sketch
cannot express the spec.

A query whose spec and sketch plans hold no register, and whose inputs
span at most EXHAUSTIVE_BITS bits in one cycle, sends no VERIFY: each
cycle of it is the same function of that cycle's inputs, so the bound
candidate and the spec are simulated (one batched simulate call each)
on every input vector of one cycle, in ascending order, and the first
vector they disagree on is learned at every (name, cycle) of
query.input_symbols.  Such a Success rests on that enumeration, a
proof that shares no code with the solver, and never on a solver's
unsat; SYNTH unsat, and VERIFY for wider or pipelined queries, still
come from the solver.

The counterexample set is seeded with one deterministic pseudo-random
environment before the first SYNTH call (SEED_SAMPLES).  Any environment
is a sound member (the final program must agree on all of them), so
between SYNTH and VERIFY each candidate is probed.  The spec and the
sketch are compiled from the query's plans (interp.compile_program of
query.spec_plan and query.sketch_plan, the sketch's holes left as
parameters), so neither program is planned again; a candidate is the
compiled sketch with the model's values bound to its holes
(Compiled.bind), simulated
against the spec on PROBES fixed pseudo-random environments over cycles
0..t+c, drawn from their own seed.  The first environment on which they
differ at a cycle t..t+c joins the set and the loop returns to SYNTH
without a VERIFY call; only a candidate that passes every probe goes to
VERIFY (or the enumeration), and the same bound form is the one
revalidated.  Holes are substituted into a program (substitute_holes)
only for the accepted candidate.  A probe is a simulation where VERIFY
is a solver call, and one seed keeps SYNTH small, since it holds one
copy of the sketch per environment in the set.  Each environment is
substituted once, as it joins.  Progress is asserted every iteration: a
refuting environment already in the set would mean the loop cannot
terminate, so it raises instead.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .interp import Compiled, compile_program, simulate
from .ir import BV, BitVec, Prog, Sketch, substitute_holes
from .portfolio import (
    PortfolioResult, PortfolioTimeout, SolverConfig, SolverError,
    SolverSession, portfolio_solve,
)
from .smtlib import emit_smtlib, symbol_name
from .symbolic import EquivalenceQuery, build_query
from .terms import Operator, Term

CexEnv = dict[tuple[str, int], BitVec]

SEED_SAMPLES = 1    # environments in the set before the first SYNTH call
PROBES = 16         # environments each candidate is simulated on
EXHAUSTIVE_BITS = 10    # register-free input bits per cycle enumerated
                        # in place of VERIFY


@dataclass
class Success:
    program: Prog
    model: dict[str, BitVec]          # hole label -> solved value
    solver: str
    wall_time: float
    iterations: int
    counterexamples: list[CexEnv] = field(repr=False, default_factory=list)


@dataclass
class Unsat:
    wall_time: float
    iterations: int


@dataclass
class Timeout:
    wall_time: float
    iterations: int


SynthesisResult = Union[Success, Unsat, Timeout]


def _random_envs(query: EquivalenceQuery, count: int, seed: int
                 ) -> list[CexEnv]:
    if not query.input_symbols:
        return []
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        env = {(s.name, s.time): BitVec.of(rng.getrandbits(s.width), s.width)
               for s in query.input_symbols}
        if env not in out:
            out.append(env)
    return out


def _subst_inputs(query: EquivalenceQuery, env: CexEnv) -> list[Term]:
    """The equalities with env's values (0 where env has none) in place of
    the input symbols, substituted through one memo."""
    tb = query.builder
    mapping = {s: tb.const(env.get((s.name, s.time),
                                   BitVec.of(0, s.width)))
               for s in query.input_symbols}
    memo: dict = {}
    return [tb.substitute(eq, mapping, memo) for eq in query.equal_terms]


def _decode_model(query: EquivalenceQuery,
                  model: dict[str, BitVec]) -> dict[str, BitVec]:
    """Solver model (emitted names) -> hole label -> value, 0 where the
    model has none.  query.hole_symbols covers every hole of the sketch."""
    by_label: dict[str, BitVec] = {}
    for s in query.hole_symbols:
        v = model.get(symbol_name(s), BitVec.of(0, s.width))
        by_label[s.label] = BitVec.of(v.value, s.width)
    return by_label


def _first_disagreement(query: EquivalenceQuery, spec: Compiled,
                        got: Compiled, envs: list[CexEnv]
                        ) -> Optional[tuple[CexEnv, int, int, int]]:
    """The first of envs (0 for any input it has no value for) on which
    the compiled spec and candidate differ at a cycle t..t+c, with that
    cycle and the two values there; None when they agree on all."""
    horizon = query.t + query.c + 1
    for env in envs:
        streams = {name: [env[(name, tt)].value if (name, tt) in env else 0
                          for tt in range(horizon)]
                   for name, _ in spec.inputs}
        a = simulate(spec, streams, horizon)
        b = simulate(got, streams, horizon)
        for tt in range(query.t, horizon):
            if a[tt] != b[tt] or spec.width != got.width:
                return env, tt, a[tt], b[tt]
    return None


def _input_vectors(query: EquivalenceQuery
                   ) -> Optional[tuple[int, dict[str, list[int]]]]:
    """Every input vector of one cycle as (n, streams): vector k is the
    bits of k cut into the inputs in spec_plan order, the first input
    highest, so ascending k is ascending vectors.  None unless both plans
    are register-free and one cycle has at most EXHAUSTIVE_BITS input
    bits."""
    if query.spec_plan.regs or query.sketch_plan.regs:
        return None
    bits = sum(w for _, w in query.spec_plan.inputs)
    if bits > EXHAUSTIVE_BITS:
        return None
    n, lo, streams = 1 << bits, 0, {}
    for name, w in reversed(query.spec_plan.inputs):
        streams[name] = [(k >> lo) & ((1 << w) - 1) for k in range(n)]
        lo += w
    return n, streams


def _revalidate(query: EquivalenceQuery, spec: Compiled, got: Compiled,
                cexs: list[CexEnv]) -> None:
    """Concrete agreement of the compiled candidate with the compiled
    spec on every accumulated counterexample."""
    bad = _first_disagreement(query, spec, got, cexs)
    if bad is not None:
        _, tt, a, b = bad
        raise SolverError(
            "soundness failure: solver accepted a candidate the "
            f"interpreter refutes at cycle {tt} (spec "
            f"{BitVec(spec.width, a)}, got {BitVec(got.width, b)})")


def cegis(query: EquivalenceQuery,
          solvers: Optional[list[SolverConfig]] = None,
          timeout: float = 120.0,
          seed: int = 2024,
          session: Optional[SolverSession] = None) -> SynthesisResult:
    """Run the loop on query.  Every solver call goes to session's
    children when one is given (see portfolio.SolverSession), else to
    children started for that call alone."""
    start = time.monotonic()
    deadline = start + timeout

    def remaining() -> float:
        return deadline - time.monotonic()

    def solve(asserts: list[Term], declare: list[Term],
              get: list[Term]) -> PortfolioResult:
        text, _ = emit_smtlib(asserts, declare, get)
        return portfolio_solve(text, solvers, timeout=remaining(),
                               session=session)

    tb = query.builder
    zero, one = tb.const_of(0, 1), tb.const_of(1, 1)
    # SYNTH asserts the side constraints and each environment's equalities;
    # a constant 1 holds for every hole value, a constant 0 is infeasible
    synth_asserts = [g for g in query.side_constraints if g is not one]
    cexs: list[CexEnv] = []

    def learn(env: CexEnv) -> None:
        if env in cexs:
            raise SolverError(
                "CEGIS made no progress: a candidate was refuted on an "
                "environment already in the set")
        cexs.append(env)
        synth_asserts.extend(g for g in _subst_inputs(query, env)
                             if g is not one)

    for env in _random_envs(query, SEED_SAMPLES, seed):
        learn(env)
    # drawn from a seed of their own; one already in the set is dropped
    probes = [env for env in _random_envs(query, PROBES, seed + 1)
              if env not in cexs]
    spec = compile_program(query.spec_plan)
    sketch = compile_program(query.sketch_plan)
    vectors = _input_vectors(query)
    iterations, last_winner = 0, "none"
    try:
        while True:
            iterations += 1
            if remaining() <= 0:
                return Timeout(time.monotonic() - start, iterations)
            if zero in synth_asserts:
                return Unsat(time.monotonic() - start, iterations)

            if synth_asserts or query.hole_symbols:
                r = solve(synth_asserts, query.hole_symbols,
                          query.hole_symbols)
                if r.status == "unsat":
                    return Unsat(time.monotonic() - start, iterations)
                last_winner = r.winner
                model = r.model
            else:
                model = {}

            by_label = _decode_model(query, model)
            got = sketch.bind(by_label)

            # probe the candidate by simulation; VERIFY only if it passes
            bad = _first_disagreement(query, spec, got, probes)
            if bad is not None:
                probes.remove(bad[0])
                learn(bad[0])
                continue

            hole_map = {s: tb.const(by_label[s.label])
                        for s in query.hole_symbols}
            memo: dict = {}
            for sc in query.side_constraints:
                if tb.substitute(sc, hole_map, memo) is not one:
                    raise SolverError(
                        "SYNTH model violates a side constraint")
            if vectors is not None:
                # no register: each cycle is the same function of its own
                # inputs, so one cycle's vectors decide the whole window
                n, streams = vectors
                want = simulate(spec, streams, n)
                have = simulate(got, streams, n)
                if want != have:
                    k = next(k for k, (x, y) in enumerate(zip(want, have))
                             if x != y)
                    learn({(s.name, s.time): BitVec.of(streams[s.name][k],
                                                         s.width)
                           for s in query.input_symbols})
                    continue
            else:
                # VERIFY the candidate over all inputs
                conj = one
                for eq in query.equal_terms:
                    conj = tb.app(Operator("and"),
                                  [conj, tb.substitute(eq, hole_map, memo)])
                refute = tb.app(Operator("not"), [conj])
                if refute.kind == "const":
                    if refute.value.value == 1:
                        # differs on every input, so on the all-zero one too
                        learn({})
                        continue
                else:
                    r = solve([refute], query.input_symbols,
                              query.input_symbols)
                    if r.status != "unsat":
                        last_winner = r.winner
                        env: CexEnv = {}
                        for s in query.input_symbols:
                            v = r.model.get(symbol_name(s),
                                            BitVec.of(0, s.width))
                            env[(s.name, s.time)] = BitVec.of(v.value,
                                                              s.width)
                        learn(env)
                        continue

            _revalidate(query, spec, got, cexs)
            return Success(
                program=substitute_holes(
                    query.sketch,
                    {label: BV(v) for label, v in by_label.items()}),
                model=by_label,
                solver=last_winner,
                wall_time=time.monotonic() - start,
                iterations=iterations,
                counterexamples=cexs,
            )
    except PortfolioTimeout:
        return Timeout(time.monotonic() - start, iterations)


def synthesize(spec: Prog, sketch: Sketch, t: int = 0, c: int = 2,
               solvers: Optional[list[SolverConfig]] = None,
               timeout: float = 120.0,
               seed: int = 2024,
               session: Optional[SolverSession] = None) -> SynthesisResult:
    """End-to-end: build the equivalence query for cycles t..t+c and run
    the loop.  c = 0 checks a single cycle; pipelined mappings use t equal
    to the pipeline depth so the fill cycles are excluded."""
    q = build_query(spec, sketch, t, c)
    return cegis(q, solvers=solvers, timeout=timeout, seed=seed,
                 session=session)
