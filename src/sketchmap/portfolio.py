"""Run a query against several solver processes, first answer wins.

Every configured solver is launched concurrently as an external process
speaking SMT-LIB2 on stdin/stdout.  The first definitive answer (sat or
unsat) cancels the rest; a wedged or crashed solver only costs its own
process.  The winner's name travels with the result so synthesis can
report which backend produced each answer.

The default portfolio is the bundled solver (sketchmap.solver, the same
code as python -m sketchmap.solver).
A JSON config file swaps in real solvers:

    [{"name": "bitwuzla", "command": ["bitwuzla", "--lang", "smt2"],
      "timeout": 120.0}, ...]
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from .ir import BitVec, SketchmapError
from .smtlib import parse_solver_output


class SolverError(SketchmapError):
    """A solver interaction failed in a way that is not a timeout."""


class AllSolversFailed(SolverError):
    """Every backend crashed or answered unknown."""


class PortfolioTimeout(SketchmapError):
    """No backend answered within the budget."""


@dataclass(frozen=True)
class SolverConfig:
    name: str
    command: tuple[str, ...]
    timeout: float = 120.0


@dataclass
class PortfolioResult:
    status: str  # "sat" | "unsat"
    model: dict[str, BitVec]
    winner: str
    wall_time: float


def default_portfolio() -> list[SolverConfig]:
    """The bundled solver, run from the copy of sketchmap this process
    imported: its directory goes first on the child's path, so the child
    needs neither PYTHONPATH nor an installed package."""
    home = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (f"import sys; sys.path.insert(0, {home!r}); "
            "from sketchmap.solver.__main__ import main; sys.exit(main())")
    return [SolverConfig("builtin", (sys.executable, "-c", code))]


def load_solver_config(path: str) -> list[SolverConfig]:
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, list) or not raw:
        raise SolverError(f"{path}: expected a non-empty list of solvers")
    out = []
    for i, entry in enumerate(raw):
        try:
            out.append(SolverConfig(
                name=entry["name"],
                command=tuple(entry["command"]),
                timeout=float(entry.get("timeout", 120.0)),
            ))
        except (KeyError, TypeError) as e:
            raise SolverError(f"{path}: solver entry {i} is malformed: {e}")
    return out


def _run_one(cfg: SolverConfig, proc: subprocess.Popen, query: bytes,
             budget: float, results: queue.Queue) -> None:
    try:
        out, err = proc.communicate(query, timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        try:
            proc.communicate(timeout=5)
        except Exception:
            pass
        results.put((cfg.name, "timeout", None, ""))
        return
    except Exception as e:  # killed by the winner, broken pipe, ...
        results.put((cfg.name, "error", None, str(e)))
        return
    if proc.returncode != 0:
        results.put((cfg.name, "error", None,
                     err.decode(errors="replace").strip()))
        return
    try:
        status, model = parse_solver_output(out.decode(errors="replace"))
    except SketchmapError as e:
        results.put((cfg.name, "error", None, str(e)))
        return
    if status in ("sat", "unsat"):
        results.put((cfg.name, status, model, ""))
    else:
        results.put((cfg.name, "error", None,
                     f"solver answered {status!r}"))


def portfolio_solve(query: str, solvers: list[SolverConfig] | None = None,
                    timeout: float | None = None) -> PortfolioResult:
    """Launch all solvers on the query; return the first sat/unsat.

    timeout (seconds) bounds the whole call on top of each solver's own
    per-query budget.  Raises PortfolioTimeout when nobody answers in
    time and AllSolversFailed when every backend errors out.
    """
    if solvers is None:
        solvers = default_portfolio()
    if not solvers:
        raise SolverError("empty solver portfolio")
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    results: queue.Queue = queue.Queue()
    procs: list[tuple[SolverConfig, subprocess.Popen]] = []
    data = query.encode()
    for cfg in solvers:
        budget = cfg.timeout
        if deadline is not None:
            budget = min(budget, max(0.01, deadline - time.monotonic()))
        try:
            proc = subprocess.Popen(
                list(cfg.command), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        except OSError as e:
            results.put((cfg.name, "error", None, str(e)))
            continue
        procs.append((cfg, proc))
        threading.Thread(target=_run_one,
                         args=(cfg, proc, data, budget, results),
                         daemon=True).start()

    failures: list[str] = []
    timeouts = 0
    pending = len(solvers)
    try:
        while pending > 0:
            wait = None
            if deadline is not None:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise PortfolioTimeout(
                        f"no answer within {timeout:.1f}s")
            try:
                name, status, model, detail = results.get(timeout=wait)
            except queue.Empty:
                raise PortfolioTimeout(f"no answer within {timeout:.1f}s")
            pending -= 1
            if status in ("sat", "unsat"):
                return PortfolioResult(
                    status=status, model=model or {}, winner=name,
                    wall_time=time.monotonic() - start)
            if status == "timeout":
                timeouts += 1
            else:
                failures.append(f"{name}: {detail}")
        if timeouts:
            raise PortfolioTimeout(
                f"all backends timed out ({timeouts}/{len(solvers)})")
        raise AllSolversFailed("; ".join(failures) or "no solvers ran")
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
