"""Run queries on long-lived solver processes, first answer wins.

Every configured solver is an external process speaking SMT-LIB2 on
stdin/stdout.  A SolverSession keeps at most one live child per backend
and sends each query to all of them at once, framed as

    (reset)
    <the query's script, without its final (exit)>
    (echo "sketchmap-end-of-query")

reading each child's stdout up to the marker line, which may come back
with or without its quotes, since solvers print echo differently.  The
first definitive answer (sat or unsat) wins.  A child that is still
working when another backend wins, that runs out of time, exits, answers
unknown or breaks the framing is killed and waited for, and the next
query starts it again, so a wedged or crashed solver only costs its own
process.  The winner's name travels with the result so synthesis can
report which backend produced each answer.

A configured solver must therefore support reset and echo and run each
command as it reads it, the way `z3 -in` does, rather than wait for the
end of its input.  close() kills each child and waits for it, as a
retired child is, rather than wait for its interpreter to shut down: a
session holds no query in flight between calls, so there is nothing left
to lose.  The owner of a session closes it before it returns, so the
children's CPU time and memory count in the owner's resource usage.
portfolio_solve without a session opens one for its query alone.

The default portfolio is the bundled solver (sketchmap.solver, the same
code as python -m sketchmap.solver), run under python -S: it needs only
the standard library, and skipping the site module (with whatever .pth
files and sitecustomize the installation carries) can be most of the
cost of starting a bare interpreter.
A JSON config file swaps in real solvers:

    [{"name": "z3", "command": ["z3", "-in", "-smt2"],
      "timeout": 120.0}, ...]
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

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
    needs neither PYTHONPATH nor an installed package.

    The child runs with -S, so it never imports site: it uses only the
    standard library, and site (with the installation's .pth files and
    any sitecustomize) can be most of a bare interpreter's start.  Not -E or
    -I, which would also drop the PYTHON* variables the caller set, such
    as PYTHONDONTWRITEBYTECODE."""
    home = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (f"import sys; sys.path.insert(0, {home!r}); "
            "from sketchmap.solver.__main__ import main; sys.exit(main())")
    return [SolverConfig("builtin", (sys.executable, "-S", "-c", code))]


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


_MARKER = "sketchmap-end-of-query"
_END = re.compile(rb'^"?' + _MARKER.encode() + rb'"?\r?\n', re.MULTILINE)


class _Pending:
    """One backend's work on the query in flight."""

    def __init__(self, cfg: SolverConfig, proc: subprocess.Popen,
                 data: bytes, deadline: float):
        self.cfg = cfg
        self.proc = proc
        self.data = memoryview(data)   # still to write
        self.deadline = deadline
        self.out = bytearray()
        self.err = bytearray()
        self.open = 2                  # stdout, stderr not yet at EOF

    def step(self, stream, sel: selectors.BaseSelector) -> tuple | None:
        """Serve one ready stream: None while the query is still running,
        else (status, model or failure detail)."""
        fd = stream.fileno()
        if stream is self.proc.stdin:
            try:
                n = os.write(fd, self.data)
            except BlockingIOError:
                n = 0
            except BrokenPipeError:    # it stopped reading; its exit says why
                n = len(self.data)
            self.data = self.data[n:]
            if not self.data:
                sel.unregister(stream)
            return None
        chunk = os.read(fd, 1 << 16)
        if stream is self.proc.stderr:
            self.err += chunk
        elif chunk:
            self.out += chunk
            end = _END.search(self.out)
            if end is not None:
                return self._answer(end)
        if not chunk:
            sel.unregister(stream)
            self.open -= 1
            if not self.open:
                return "exit", None
        return None

    def _answer(self, end: re.Match) -> tuple:
        text = self.out[:end.start()].decode(errors="replace")
        try:
            status, model = parse_solver_output(text)
        except SketchmapError as e:
            return "error", str(e)
        if end.end() < len(self.out):
            return "error", "output after the end-of-query marker"
        if status not in ("sat", "unsat"):
            return "error", f"solver answered {status!r}"
        return status, model


class SolverSession:
    """At most one live child per backend name, reused query after query.

    Use it as a context manager or call close().  One thread at a time:
    give each thread its own session.
    """

    def __init__(self):
        self._children: dict[str, subprocess.Popen] = {}

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kill and wait for every child, as _retire does.  Between
        queries a child holds nothing worth a clean exit, and waiting for
        one to end on its stdin would cost its interpreter's shutdown.
        Each child is waited for, so it counts in RUSAGE_CHILDREN."""
        for name in list(self._children):
            self._retire(name)

    def _child(self, cfg: SolverConfig) -> subprocess.Popen:
        proc = self._children.get(cfg.name)
        if proc is not None:
            if proc.poll() is None and proc.args == list(cfg.command):
                return proc
            self._retire(cfg.name)
        proc = subprocess.Popen(
            list(cfg.command), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        os.set_blocking(proc.stdin.fileno(), False)
        self._children[cfg.name] = proc
        return proc

    def _retire(self, name: str) -> None:
        """Kill and wait for a backend's child; its next query respawns it."""
        proc = self._children.pop(name)
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()

    def solve(self, query: str, solvers: list[SolverConfig] | None = None,
              timeout: float | None = None) -> PortfolioResult:
        """Send the query to every solver; return the first sat/unsat.

        timeout (seconds) bounds the whole call on top of each solver's
        own per-query budget.  Raises PortfolioTimeout when nobody answers
        in time and AllSolversFailed when every backend errors out.
        """
        if solvers is None:
            solvers = default_portfolio()
        if not solvers:
            raise SolverError("empty solver portfolio")
        start = time.monotonic()
        body = query.rstrip()
        if body.endswith("(exit)"):
            body = body[:-len("(exit)")]
        data = f'(reset)\n{body}\n(echo "{_MARKER}")\n'.encode()
        failures: list[str] = []
        timeouts = 0
        running: dict[str, _Pending] = {}
        sel = selectors.DefaultSelector()
        try:
            for cfg in solvers:
                try:
                    proc = self._child(cfg)
                except OSError as e:
                    failures.append(f"{cfg.name}: {e}")
                    continue
                deadline = start + cfg.timeout
                if timeout is not None:
                    deadline = min(deadline, start + timeout)
                p = running[cfg.name] = _Pending(cfg, proc, data, deadline)
                sel.register(proc.stdin, selectors.EVENT_WRITE, p)
                sel.register(proc.stdout, selectors.EVENT_READ, p)
                sel.register(proc.stderr, selectors.EVENT_READ, p)
            while running:
                now = time.monotonic()
                for p in [p for p in running.values() if p.deadline <= now]:
                    del running[p.cfg.name]
                    self._retire(p.cfg.name)
                    timeouts += 1
                if not running:
                    break
                wait = min(p.deadline for p in running.values()) - now
                for key, _ in sel.select(wait):
                    p = key.data
                    if running.get(p.cfg.name) is not p:
                        continue           # retired earlier in this round
                    outcome = p.step(key.fileobj, sel)
                    if outcome is None:
                        continue
                    status, detail = outcome
                    del running[p.cfg.name]
                    if status in ("sat", "unsat"):
                        return PortfolioResult(
                            status=status, model=detail, winner=p.cfg.name,
                            wall_time=time.monotonic() - start)
                    self._retire(p.cfg.name)
                    failures.append(f"{p.cfg.name}: " + (
                        detail or p.err.decode(errors="replace").strip()
                        or f"exited with status {p.proc.returncode}"))
            if timeouts:
                raise PortfolioTimeout(
                    f"all backends timed out ({timeouts}/{len(solvers)})")
            raise AllSolversFailed("; ".join(failures) or "no solvers ran")
        finally:
            for name in running:
                self._retire(name)
            sel.close()


def portfolio_solve(query: str, solvers: list[SolverConfig] | None = None,
                    timeout: float | None = None,
                    session: SolverSession | None = None) -> PortfolioResult:
    """Solve the query on the session's children (see SolverSession.solve),
    or, without a session, on children started and ended for it alone."""
    if session is None:
        with SolverSession() as session:
            return session.solve(query, solvers, timeout)
    return session.solve(query, solvers, timeout)
