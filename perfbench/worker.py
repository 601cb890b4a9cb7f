"""Run one workload in this interpreter and print its figures as JSON.

Launched by run.py with the repository's ``src`` on PYTHONPATH, so the
solver subprocesses the portfolio starts import the same package.

    python3 worker.py --workload W --seed N --seconds S --trace 0|1
    python3 worker.py --workload W --seed N --setup-only

Untraced, it maps the workload in whole passes until the next pass would
overrun --seconds (at least one pass).  Traced, it maps each design twice,
plain and then with spans around every layer, then replays each captured
solver query in-process.  Either way the last pass is checked: verdicts,
2000-cycle simulation, JSON round trip, and output digests.  The last line
on stdout is a JSON object; see run.py for the keys.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

_T0 = time.perf_counter()       # set-up: importing the mapper onwards

import workloads  # noqa: E402
from sketchmap import arch, bench, cegis, emit, sketches, specdsl  # noqa: E402
from sketchmap.ir import SketchmapError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
CORPUS = OUT / "corpus"
DESIGN_TIMEOUT = 60.0     # seconds per design; a run must end within 180
SIM_CYCLES = 2000


@dataclass
class Outcome:
    name: str
    verdict: str          # success | unsat | timeout | error
    seconds: float        # time to verdict, plus revalidation on dsp52
    iterations: int = 0
    program: object = None
    verilog: str = ""
    json: str = ""


@dataclass
class Pass:
    outcomes: list
    wall_s: float
    cpu_s: float


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _load_arch(workload: str):
    return arch.load_arch(arch.packaged_arch_path(
        workloads.ARCH_FILE[workload]))


def setup(workload: str, seed: int):
    a = _load_arch(workload)
    if workload == "lut64":
        designs = workloads.lut64(seed)
    elif workload == "carry14":
        designs = workloads.carry14()
    else:
        designs = workloads.dsp52(seed, CORPUS)
    return a, designs


# -- mapping ------------------------------------------------------------------


def _map_one(d, a, template: str, tracer) -> Outcome:
    """The `map` path: parse, sketch, synthesize over one cycle, emit."""
    if tracer is not None:
        tracer.design = d.name
        sid = tracer.begin("design")
    started = time.perf_counter()
    try:
        doc = specdsl.parse_document(d.text)
        width = doc.inputs[0][1]
        sketch = sketches.generate_sketch(
            template, a, {"width": width,
                          "inputs": tuple(n for n, _ in doc.inputs)})
        r = cegis.synthesize(doc.prog, sketch, t=doc.pipeline, c=0,
                             timeout=DESIGN_TIMEOUT)
        if isinstance(r, cegis.Success):
            out = Outcome(d.name, "success", 0.0, r.iterations, r.program,
                          emit.to_structural_verilog(r.program, d.name),
                          emit.to_json_netlist(r.program, d.name))
        else:
            out = Outcome(d.name, type(r).__name__.lower(), 0.0,
                          r.iterations)
    except SketchmapError as exc:
        print(f"{d.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        out = Outcome(d.name, "error", 0.0)
    out.seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.end(sid)
    return out


def _run_corpus(designs, a, tracer) -> list:
    """The `benchrun` path.  bench.synthesize is wrapped to keep each
    result, so the programs can be checked and emitted afterwards."""
    results = []
    plain = bench.synthesize

    def keep(*args, **kwargs):
        r = plain(*args, **kwargs)
        results.append(r)
        return r

    outcomes = []
    mark = time.perf_counter()
    sid = None

    def next_design():
        nonlocal sid
        if tracer is not None and len(outcomes) < len(designs):
            tracer.design = designs[len(outcomes)].name
            sid = tracer.begin("design")

    def progress(row):
        nonlocal mark
        now = time.perf_counter()
        if tracer is not None:
            tracer.end(sid)
        r = results.pop() if results else None
        outcomes.append(Outcome(
            row.name, row.outcome, now - mark, getattr(r, "iterations", 0),
            r.program if row.outcome == "success" else None))
        mark = now
        next_design()

    bench.synthesize = keep
    try:
        next_design()
        bench.run_corpus(CORPUS, a, template=workloads.TEMPLATE["dsp52"],
                         timeout=DESIGN_TIMEOUT,
                         clock_cycles=2, sim_cycles=SIM_CYCLES, jobs=1,
                         only=[d.name for d in designs], progress=progress)
    finally:
        bench.synthesize = plain
    if [o.name for o in outcomes] != [d.name for d in designs]:
        raise RuntimeError("run_corpus mapped other rows than requested")
    return outcomes


def map_designs(workload: str, designs, a, tracer=None) -> list:
    if workload == "dsp52":
        return _run_corpus(designs, a, tracer)
    template = workloads.TEMPLATE[workload]
    return [_map_one(d, a, template, tracer) for d in designs]


def run_pass(workload: str, designs, a) -> Pass:
    cpu0 = _cpu()
    t0 = time.perf_counter()
    outcomes = map_designs(workload, designs, a)
    return Pass(outcomes, time.perf_counter() - t0, _cpu() - cpu0)


def _traced(workload: str, d, a, tracer) -> list:
    tracer.install()
    try:
        return map_designs(workload, [d], a, tracer)
    finally:
        tracer.restore()


def traced_passes(workload: str, designs, a, tracer) -> tuple[Pass, Pass]:
    """Map each design twice, plain and with the tracer installed, in
    alternating order.  Interleaving per design keeps the machine's speed
    drift out of trace.overhead_s, and alternating cancels any advantage
    of going second.  Pass times are sums of design times; cpu_s is not
    measured."""
    plain, traced = [], []
    for i, d in enumerate(designs):
        if i % 2:
            traced += _traced(workload, d, a, tracer)
        plain += map_designs(workload, [d], a)
        if not i % 2:
            traced += _traced(workload, d, a, tracer)
    return tuple(Pass(outs, sum(o.seconds for o in outs), 0.0)
                 for outs in (plain, traced))


# -- checks (outside the timed region) ----------------------------------------


class CheckFailed(Exception):
    pass


def emit_missing(p: Pass, tracer=None) -> None:
    """benchrun emits nothing; the digest needs the netlists."""
    for o in p.outcomes:
        if o.verdict == "success" and not o.verilog:
            if tracer is not None:
                tracer.design = o.name
            o.verilog = emit.to_structural_verilog(o.program, o.name)
            o.json = emit.to_json_netlist(o.program, o.name)


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for o in p.outcomes:
        for part in (o.name, o.verdict, o.verilog, o.json):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


def check(p: Pass, designs, a, tracer) -> None:
    """Expected verdicts, independent 2000-cycle simulation of every
    success, and the JSON netlist read back and simulated against the
    spec.  Raises bench.SoundnessFailure on a simulation mismatch."""
    for d, o in zip(designs, p.outcomes):
        want = "success" if d.expect_success else "unsat"
        if o.verdict in ("timeout", "error"):
            continue            # counted as failed, not as wrong
        if o.verdict != want:
            raise CheckFailed(f"{d.name}: verdict {o.verdict}, "
                              f"expected {want}")
        if o.verdict != "success":
            continue
        doc = specdsl.parse_document(d.text)
        seed = zlib.crc32(d.name.encode()) ^ 0x5EED
        if tracer is not None:
            tracer.design = d.name
            tracer.enabled = True
        back = emit.from_json_netlist(o.json, a)
        if tracer is not None:
            tracer.enabled = False
        for label, prog in (("netlist", o.program), ("JSON round trip", back)):
            bad = bench.validate_by_simulation(doc.prog, prog, doc.pipeline,
                                               cycles=SIM_CYCLES, seed=seed)
            if bad:
                raise bench.SoundnessFailure(
                    f"{d.name}: {label} disagrees with the spec at cycle "
                    f"{bad[0]} ({len(bad)}/{SIM_CYCLES} cycles differ)")


def source_hash() -> str:
    """Digest of the mapper's sources, so stored output digests are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for f in sorted(src.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(src)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def check_digests(passes, workload: str, seed: int) -> str:
    """Every pass of this run, and every earlier run of the same code,
    workload and seed in this checkout, must emit identical netlists."""
    digests = {digest(p) for p in passes}
    if len(digests) != 1:
        raise CheckFailed(f"passes emitted different netlists: "
                          f"{sorted(digests)}")
    (d,) = digests
    store = OUT / "digests.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{source_hash()}:{workload}:{seed}"
    if seen.setdefault(key, d) != d:
        raise CheckFailed(f"digest {d} differs from an earlier run's "
                          f"{seen[key]} for the same code and seed")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return d


# -- figures ------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """q-th percentile, inclusive method; the sample itself if alone."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def end_to_end(passes, rss_kb: int) -> dict:
    times = [o.seconds for p in passes for o in p.outcomes]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "design_s.p50": (percentile(times, 50), "s"),
        "design_s.p80": (percentile(times, 80), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }, len(times)


def per_layer(tr, stats, traced: Pass, plain: Pass) -> dict:
    """Figures of the traced pass.  Solver phases come from the in-process
    replay; portfolio.overhead_s is what the portfolio spent beyond them
    (spawn, interpreter start-up, IPC).  interp.revalidate_s is CEGIS's
    check of each candidate on its counterexamples; interp.sim_s adds
    benchrun's 2000-cycle validation (dsp52).  cegis.counterexamples counts
    VERIFY answers that added one: every iteration of a success but the
    last.  On dsp52, emission happens after the loop, in the checks."""
    successes = [o for o in traced.outcomes if o.verdict == "success"]
    solve_s = tr.total("portfolio.solve")
    queries = stats["queries"]
    return {
        "portfolio.solve_s": (solve_s, "s"),
        "portfolio.overhead_s": (solve_s - stats["total_s"], "s"),
        "solver.parse_s": (stats["parse_s"], "s"),
        "solver.blast_s": (stats["blast_s"], "s"),
        "solver.cnf_s": (stats["cnf_s"], "s"),
        "solver.cdcl_s": (stats["cdcl_s"], "s"),
        "solver.total_s": (stats["total_s"], "s"),
        "solver.aig_ands": (stats["aig_ands"], "count"),
        "solver.cnf_vars": (stats["cnf_vars"], "count"),
        "solver.cnf_clauses": (stats["cnf_clauses"], "count"),
        "solver.learnt_clauses": (stats["learnt_clauses"], "count"),
        "solver.sat": (stats["sat"], "count"),
        "solver.unsat": (stats["unsat"], "count"),
        "solver.folded_ratio": (
            (queries - stats["sat_calls"]) / queries if queries else 0.0,
            "ratio"),
        "cegis.iterations": (sum(o.iterations for o in traced.outcomes),
                             "count"),
        "cegis.solver_calls": (tr.calls("portfolio.solve"), "count"),
        "cegis.counterexamples": (sum(o.iterations - 1 for o in successes),
                                  "count"),
        "cegis.self_s": (tr.self_time("cegis.synthesize"), "s"),
        "smtlib.emit_s": (tr.total("smtlib.emit"), "s"),
        "smtlib.query_bytes": (sum(len(t) for t, _ in tr.queries), "bytes"),
        "symbolic.build_query_s": (tr.total("symbolic.build_query"), "s"),
        "sketches.generate_s": (tr.total("sketches.generate"), "s"),
        "interp.revalidate_s": (tr.total("interp.revalidate"), "s"),
        "interp.sim_s": (tr.total("interp.revalidate")
                         + tr.total("interp.sim"), "s"),
        "interp.sim_cycles": (tr.counts["interp.sim_cycles"], "count"),
        "emit.verilog_s": (tr.total("emit.verilog"), "s"),
        "emit.json_s": (tr.total("emit.json"), "s"),
        "emit.import_s": (tr.total("emit.import"), "s"),
        "emit.bytes": (tr.counts["emit.bytes"], "bytes"),
        "arch.load_s": (tr.total("arch.load"), "s"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
    }


# -- driver -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    a, designs = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors = (CheckFailed, bench.SoundnessFailure)
    tracer = stats = None
    if args.trace:
        import replay
        from tracing import Tracer
        errors += (replay.ReplayMismatch,)
        tracer = Tracer()
    result = {"correct": True}
    passes = []
    try:
        if tracer is not None:
            passes += traced_passes(args.workload, designs, a, tracer)
            tracer.install()
            try:
                _load_arch(args.workload)       # arch.load_s
                emit_missing(passes[-1], tracer)
                tracer.enabled = False
                emit_missing(passes[0])
                check(passes[-1], designs, a, tracer)
            finally:
                tracer.restore()
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            stats = replay.replay(tracer.queries)
        else:
            started = time.perf_counter()
            passes.append(run_pass(args.workload, designs, a))
            while (time.perf_counter() - started
                   + statistics.median(p.wall_s for p in passes)
                   <= args.seconds):
                passes.append(run_pass(args.workload, designs, a))
            rss_kb = peak_rss_kb()
            for p in passes:
                emit_missing(p)
            check(passes[-1], designs, a, None)
        result["digest"] = check_digests(passes, args.workload, args.seed)
    except errors as exc:
        print(f"CHECK FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        result["correct"] = False

    result["attempted"] = sum(len(p.outcomes) for p in passes) or 1
    result["failed"] = sum(o.verdict in ("timeout", "error")
                           for p in passes for o in p.outcomes)
    result["passes"] = len(passes)
    figures = {}
    if result["correct"] and tracer is not None:
        figures = per_layer(tracer, stats, passes[-1], passes[0])
    elif result["correct"]:
        figures, result["design_samples"] = end_to_end(passes, rss_kb)
        figures["setup_s"] = (setup_s, "s")
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in figures.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
