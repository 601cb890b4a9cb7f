"""Replay captured SMT-LIB queries through the bundled solver in-process.

The portfolio runs the bundled solver as a subprocess, where its phases
cannot be timed from outside.  Running the same text here, through the
same functions the subprocess calls, splits the solver's share into
parse, bit-blast, CNF and CDCL; what the portfolio spent beyond that is
process spawn and IPC.
"""

from __future__ import annotations

import time
from collections import Counter

from sketchmap.solver.qfbv import Script, parse_all


class ReplayMismatch(Exception):
    """The in-process solver disagreed with the portfolio on a query."""


def _time_solver_phases(script: Script, stats: Counter) -> None:
    """Time AIG.to_sat and SatSolver.solve on this script's instances."""
    aig = script.aig
    to_sat = aig.to_sat

    def timed_to_sat(root):
        t0 = time.perf_counter()
        solver, node_var = to_sat(root)
        stats["cnf_s"] += time.perf_counter() - t0
        ands = sum(1 for n in node_var if aig.nodes[n] is not None)
        stats["cnf_vars"] += len(solver.assign)
        stats["cnf_clauses"] += 3 * ands + 1
        kept = len(solver.clauses)
        solve = solver.solve

        def timed_solve():
            t1 = time.perf_counter()
            try:
                return solve()
            finally:
                stats["cdcl_s"] += time.perf_counter() - t1
                stats["learnt_clauses"] += len(solver.clauses) - kept

        solver.solve = timed_solve
        stats["sat_calls"] += 1
        return solver, node_var

    aig.to_sat = timed_to_sat


def replay(queries: list[tuple[str, str]]) -> Counter:
    """Solve every (text, expected status) pair; raise ReplayMismatch on
    the first disagreement.  Returns summed phase times and counters."""
    stats: Counter = Counter()
    for i, (text, expected) in enumerate(queries):
        t0 = time.perf_counter()
        commands = parse_all(text)
        t1 = time.perf_counter()
        script = Script()
        _time_solver_phases(script, stats)
        before = stats["cnf_s"] + stats["cdcl_s"]
        for cmd in commands:
            script.run_command(cmd)
        t2 = time.perf_counter()
        stats["parse_s"] += t1 - t0
        stats["blast_s"] += (t2 - t1) - (stats["cnf_s"] + stats["cdcl_s"]
                                         - before)
        stats["total_s"] += t2 - t0
        stats["aig_ands"] += sum(1 for n in script.aig.nodes
                                 if n is not None)
        stats[script.status] += 1
        stats["queries"] += 1
        if script.status != expected:
            raise ReplayMismatch(
                f"query {i}: portfolio said {expected}, in-process replay "
                f"says {script.status}")
    return stats
