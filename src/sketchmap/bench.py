"""Microbenchmark corpus generation and batch mapping runs.

The corpus enumerates small arithmetic shapes over one to four input words:

    ((a PRE b) * c) POST d     PRE in {add, sub}, POST in {and, or, add,
                               sub, xor}  -> 10 shapes
    a * b                      -> 1 shape
    (a * b) POST c             POST in {add, sub}  -> 2 shapes

13 shapes total, each at every width in 8..16 and every pipeline depth in
0..3 (468 benchmarks).  ``write_corpus`` emits one specification document
per benchmark plus ``manifest.csv`` with an expected-expressible flag per
row; generation is deterministic, byte for byte.

``run_corpus`` maps every manifest row with a chosen sketch template,
records one CSV row per benchmark (name, outcome, solver, seconds), and
re-validates every Success by random simulation over thousands of cycles
before recording it.  A simulation mismatch is a soundness failure and
aborts the whole run, as does a SolverError (no solver could answer, or
CEGIS caught its solver giving a wrong model): those are faults of the
run, not of one design.  A run keeps one solver session
(``portfolio.SolverSession``) for all its queries, one per worker thread
when ``jobs`` > 1, and closes them all, waiting for their solver
processes, before it returns.
"""

from __future__ import annotations

import csv
import queue
import random
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .cegis import Success, Timeout, Unsat, synthesize
from .interp import compile_program, plan_program, simulate
from .ir import Prog, SketchmapError
from .portfolio import SolverError, SolverSession
from .sketches import document_params, generate_sketch
from .specdsl import SPEC_OPERATORS, parse_document

__all__ = [
    "Benchmark",
    "SoundnessFailure",
    "corpus_benchmarks",
    "read_manifest",
    "run_corpus",
    "validate_by_simulation",
    "write_corpus",
]

WIDTHS = tuple(range(8, 17))
DEPTHS = (0, 1, 2, 3)

_PRE = ("add", "sub")
_POST = ("and", "or", "add", "sub", "xor")

# What the MiniDSP block can realize: its ALU covers these combining
# operators, its datapath is 18 bits wide, and it has three pipeline
# registers.  The expressibility flag is computed from these, not assumed.
_DSP_ALU_OPS = frozenset({"add", "sub", "and", "or", "xor"})
_DSP_WIDTH = 18
_DSP_MAX_DEPTH = 3


class SoundnessFailure(SketchmapError):
    """A synthesized program disagreed with its specification under
    simulation — the one error a mapping run must never absorb."""


@dataclass(frozen=True)
class Benchmark:
    name: str
    file: str
    width: int
    depth: int
    expression: str
    expressible: bool


def _shapes() -> list[tuple[str, tuple[str, ...], str]]:
    """(shape name, input names, expression skeleton) in manifest order."""
    out = []
    for pre in _PRE:
        for post in _POST:
            out.append((f"{pre}_mul_{post}", ("a", "b", "c", "d"),
                        f"({post} (mul ({pre} a b) c) d)"))
    out.append(("mul", ("a", "b"), "(mul a b)"))
    for post in ("add", "sub"):
        out.append((f"mul_{post}", ("a", "b", "c"), f"({post} (mul a b) c)"))
    return out


def _expressible(expression: str, width: int, depth: int) -> bool:
    ops = {tok for tok in
           expression.replace("(", " ").replace(")", " ").split()
           if tok in SPEC_OPERATORS}
    return (ops <= _DSP_ALU_OPS | {"mul"} and width <= _DSP_WIDTH
            and depth <= _DSP_MAX_DEPTH)


def corpus_benchmarks() -> list[Benchmark]:
    """The full benchmark enumeration, in deterministic order."""
    out = []
    for shape, names, expr in _shapes():
        for width in WIDTHS:
            for depth in DEPTHS:
                name = f"{shape}_w{width:02d}_d{depth}"
                out.append(Benchmark(
                    name=name,
                    file=name + ".spec",
                    width=width,
                    depth=depth,
                    expression=expr,
                    expressible=_expressible(expr, width, depth),
                ))
    return out


def _document_text(bench: Benchmark) -> str:
    names = _input_names(bench.expression)
    decls = " ".join(f"({n} {bench.width})" for n in names)
    return (f"; {bench.name}\n"
            f"(spec (inputs {decls})\n"
            f"      (pipeline {bench.depth})\n"
            f"      {bench.expression})\n")


def _input_names(expression: str) -> tuple[str, ...]:
    seen = []
    for tok in expression.replace("(", " ").replace(")", " ").split():
        if len(tok) == 1 and tok.isalpha() and tok not in seen:
            seen.append(tok)
    return tuple(sorted(seen))


def write_corpus(out_dir) -> Path:
    """Emit every benchmark document plus manifest.csv; returns the
    manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = corpus_benchmarks()
    for bench in rows:
        (out_dir / bench.file).write_text(_document_text(bench))
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["name", "file", "width", "depth", "expression",
                    "expressible"])
        for bench in rows:
            w.writerow([bench.name, bench.file, bench.width, bench.depth,
                        bench.expression,
                        "true" if bench.expressible else "false"])
    return manifest


def read_manifest(path) -> list[Benchmark]:
    with Path(path).open(newline="") as fh:
        return [Benchmark(r["name"], r["file"], int(r["width"]),
                          int(r["depth"]), r["expression"],
                          r["expressible"] == "true")
                for r in csv.DictReader(fh)]


def validate_by_simulation(spec: Prog, program: Prog, t: int,
                           cycles: int = 2000, seed: int = 0) -> list[int]:
    """Drive both programs with the same random input streams and return
    the cycles >= t where they disagree (the first t cycles are pipeline
    fill and carry no guarantee).  Each program is compiled once and
    both run on plain ints."""
    want_c = compile_program(plan_program(spec))
    got_c = compile_program(plan_program(program))
    rng = random.Random(seed)
    env = {name: [rng.getrandbits(w) for _ in range(cycles)]
           for name, w in want_c.inputs}
    want = simulate(want_c, env, cycles)
    got = simulate(got_c, env, cycles)
    if want_c.width != got_c.width:
        return list(range(t, cycles))
    return [k for k in range(t, cycles) if want[k] != got[k]]


@dataclass(frozen=True)
class ReportRow:
    name: str
    outcome: str
    solver: str
    seconds: float


def _run_one(bench: Benchmark, corpus_dir: Path, arch, template: str,
             timeout: float, clock_cycles: int, sim_cycles: int,
             solvers, session: SolverSession) -> ReportRow:
    text = (corpus_dir / bench.file).read_text()
    doc = parse_document(text)
    params = document_params(template, doc, bench.width)
    started = time.monotonic()
    try:
        sketch = generate_sketch(template, arch, params)
        result = synthesize(doc.prog, sketch, t=doc.pipeline,
                            c=clock_cycles, timeout=timeout,
                            solvers=solvers, session=session)
    except SolverError:
        raise                 # the solver, not this design, failed
    except SketchmapError:
        return ReportRow(bench.name, "error", "",
                         time.monotonic() - started)
    seconds = time.monotonic() - started
    if isinstance(result, Unsat):
        return ReportRow(bench.name, "unsat", "", seconds)
    if isinstance(result, Timeout):
        return ReportRow(bench.name, "timeout", "", seconds)
    assert isinstance(result, Success)
    bad = validate_by_simulation(doc.prog, result.program, doc.pipeline,
                                 cycles=sim_cycles,
                                 seed=zlib.crc32(bench.name.encode()))
    if bad:
        raise SoundnessFailure(
            f"{bench.name}: synthesized program disagrees with its "
            f"specification at cycle {bad[0]} "
            f"({len(bad)}/{sim_cycles} cycles differ)")
    return ReportRow(bench.name, "success", result.solver, seconds)


def run_corpus(corpus_dir, arch, template: str = "dsp",
               timeout: float = 120.0, clock_cycles: int = 2,
               report_path=None, jobs: int = 1, sim_cycles: int = 2000,
               solvers=None, only=None, progress=None) -> list[ReportRow]:
    """Map every benchmark in the corpus manifest; returns report rows.

    Rows are appended to report_path as they complete (under a lock when
    jobs > 1).  Each worker thread sends its queries through its own
    solver session.  `only` restricts the run to the named benchmarks.
    Raises SoundnessFailure — after flushing the failing row — if any Success
    fails its simulation check, and SolverError if the solver fails.
    """
    corpus_dir = Path(corpus_dir)
    benchmarks = read_manifest(corpus_dir / "manifest.csv")
    if only is not None:
        wanted = set(only)
        benchmarks = [b for b in benchmarks if b.name in wanted]
    lock = threading.Lock()
    rows: list[ReportRow] = []
    fh = None
    writer = None
    if report_path is not None:
        fh = Path(report_path).open("w", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "outcome", "solver", "seconds"])
        fh.flush()

    def record(row: ReportRow):
        with lock:
            rows.append(row)
            if writer is not None:
                writer.writerow([row.name, row.outcome, row.solver,
                                 f"{row.seconds:.3f}"])
                fh.flush()
            if progress is not None:
                progress(row)

    try:
        if jobs <= 1:
            with SolverSession() as session:
                for bench in benchmarks:
                    record(_run_one(bench, corpus_dir, arch, template,
                                    timeout, clock_cycles, sim_cycles,
                                    solvers, session))
        else:
            # one session per pool thread: a task borrows one for its run
            sessions = [SolverSession() for _ in range(jobs)]
            idle: queue.SimpleQueue = queue.SimpleQueue()
            for session in sessions:
                idle.put(session)

            def run(bench: Benchmark) -> ReportRow:
                session = idle.get()
                try:
                    return _run_one(bench, corpus_dir, arch, template,
                                    timeout, clock_cycles, sim_cycles,
                                    solvers, session)
                finally:
                    idle.put(session)

            import concurrent.futures   # here, so only a pool run pays for it

            pool = concurrent.futures.ThreadPoolExecutor(jobs)
            try:
                futures = [pool.submit(run, bench) for bench in benchmarks]
                for fut in concurrent.futures.as_completed(futures):
                    record(fut.result())
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
                for session in sessions:
                    session.close()
    except SoundnessFailure as exc:
        if writer is not None:
            writer.writerow(["SOUNDNESS-FAILURE", str(exc), "", ""])
            fh.flush()
        raise
    finally:
        if fh is not None:
            fh.close()
    return rows
