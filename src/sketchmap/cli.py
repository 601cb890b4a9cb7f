"""Command-line interface.

Four subcommands:

    sketchmap map SPEC --template T --arch-desc ARCH [--out FILE]
        Parse a behavioral specification, build the named sketch template
        for the target architecture, synthesize hole values, and emit the
        resulting structural netlist.  Exit status: 0 success, 2 the
        sketch provably cannot implement the specification, 3 the CEGIS
        loop ran past --timeout, 1 usage or input errors (a malformed
        command line included; --help exits 0).

    sketchmap templates
        List the available sketch templates and their parameters.

    sketchmap benchgen --out-dir DIR
        Emit the microbenchmark corpus and its manifest.

    sketchmap benchrun --corpus DIR --arch-desc ARCH --report CSV
        Map every benchmark in a corpus and write a CSV report; every
        success is re-validated by random simulation first.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .arch import load_arch, packaged_arch_path
from .bench import SoundnessFailure, run_corpus, write_corpus
from .cegis import Success, Timeout, Unsat, synthesize
from .emit import check_names, to_json_netlist, to_structural_verilog
from .ir import SketchmapError
from .portfolio import SolverSession, load_solver_config
from .sketches import document_params, generate_sketch, list_templates
from .specdsl import parse_document

EXIT_SUCCESS = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2
EXIT_TIMEOUT = 3

_TIMEOUT_HELP = ("budget in seconds for each CEGIS loop, which starts "
                 "after the sketch is generated and the query is built "
                 "(default 120)")


def _arch_argument(path: str):
    """Load an architecture description from a path, falling back to the
    packaged descriptions by file name."""
    p = Path(path)
    if not p.exists():
        p = Path(packaged_arch_path(path))
    if not p.exists():
        raise FileNotFoundError(f"architecture description not found: "
                                f"{path}")
    return load_arch(p)


def _checked(convert, ok, what: str):
    """An argparse type: convert(text), which ok must accept."""
    def parse(text: str):
        try:
            v = convert(text)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return v
    return parse


_seconds = _checked(float, lambda v: 0 < v < math.inf,
                    "a positive, finite number of seconds")


def _count(least: int):
    return _checked(int, lambda v: v >= least, f"an integer >= {least}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sketchmap",
        description="sketch-guided technology mapping for FPGA primitives")
    sub = top.add_subparsers(dest="command", required=True)

    m = sub.add_parser("map", help="map one specification to a netlist")
    m.add_argument("spec", help="behavioral specification file")
    m.add_argument("--template", required=True,
                   help="sketch template name (see `sketchmap templates`)")
    m.add_argument("--arch-desc", required=True,
                   help="architecture description file or packaged name")
    m.add_argument("--timeout", type=_seconds, default=120.0,
                   help=_TIMEOUT_HELP)
    m.add_argument("--pipeline-depth", type=int, default=None,
                   help="override the document's pipeline depth")
    m.add_argument("--clock-cycles", type=_count(0), default=2, metavar="C",
                   help="extra cycles over which outputs must agree "
                        "(default 2)")
    m.add_argument("--solver-config", default=None,
                   help="JSON file describing the solver portfolio")
    m.add_argument("--seed", type=int, default=2024,
                   help="seed for the initial sample inputs")
    m.add_argument("--out", default=None,
                   help="write the netlist here (default stdout)")
    m.add_argument("--out-format", choices=("verilog", "json"),
                   default="verilog")
    m.add_argument("--module-name", default="mapped",
                   help="module name for emitted output")

    sub.add_parser("templates", help="list sketch templates")

    g = sub.add_parser("benchgen", help="generate the benchmark corpus")
    g.add_argument("--out-dir", required=True)

    r = sub.add_parser("benchrun", help="run a benchmark corpus")
    r.add_argument("--corpus", required=True, help="directory from benchgen")
    r.add_argument("--arch-desc", required=True)
    r.add_argument("--template", default="dsp")
    r.add_argument("--timeout", type=_seconds, default=120.0,
                   help=_TIMEOUT_HELP)
    r.add_argument("--clock-cycles", type=_count(0), default=2)
    r.add_argument("--sim-cycles", type=_count(1), default=2000,
                   help="simulation length used to re-validate successes")
    r.add_argument("--jobs", type=_count(1), default=1)
    r.add_argument("--solver-config", default=None)
    r.add_argument("--report", required=True, help="CSV report path")
    r.add_argument("--only", nargs="*", action="extend", default=None,
                   help="restrict the run to these benchmark names "
                        "(repeatable)")
    return top


def run_map(args) -> int:
    try:
        text = Path(args.spec).read_text()
        arch = _arch_argument(args.arch_desc)
        solvers = (load_solver_config(args.solver_config)
                   if args.solver_config else None)
        doc = parse_document(text, pipeline_override=args.pipeline_depth)
        widths = {w for _, w in doc.inputs}
        if len(widths) != 1:
            raise SketchmapError(
                "sketch templates need uniform input widths, got "
                f"{sorted(widths)}")
        sketch = generate_sketch(args.template, arch,
                                 document_params(args.template, doc,
                                                 widths.pop()))
        check_names(sketch.psi, args.module_name)
        with SolverSession() as session:
            result = synthesize(doc.prog, sketch, t=doc.pipeline,
                                c=args.clock_cycles, solvers=solvers,
                                timeout=args.timeout, seed=args.seed,
                                session=session)
    except (OSError, SketchmapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(result, Unsat):
        print(f"unsat: no hole assignment implements the specification "
              f"({result.wall_time:.2f}s, {result.iterations} iterations)",
              file=sys.stderr)
        return EXIT_UNSAT
    if isinstance(result, Timeout):
        print(f"timeout after {result.wall_time:.2f}s "
              f"({result.iterations} iterations)", file=sys.stderr)
        return EXIT_TIMEOUT
    assert isinstance(result, Success)

    if args.out_format == "verilog":
        text_out = to_structural_verilog(result.program, args.module_name)
    else:
        text_out = to_json_netlist(result.program, args.module_name)
    if args.out:
        Path(args.out).write_text(text_out)
    else:
        sys.stdout.write(text_out)
    print(f"success: solver={result.solver} "
          f"wall_time={result.wall_time:.2f}s "
          f"iterations={result.iterations}", file=sys.stderr)
    return EXIT_SUCCESS


def run_templates(_args) -> int:
    for info in list_templates():
        print(info.name)
        for pname, doc in info.params:
            print(f"    {pname}: {doc}")
    return EXIT_SUCCESS


def run_benchgen(args) -> int:
    manifest = write_corpus(args.out_dir)
    print(f"wrote corpus with manifest {manifest}")
    return EXIT_SUCCESS


def run_benchrun(args) -> int:
    try:
        arch = _arch_argument(args.arch_desc)
        solvers = (load_solver_config(args.solver_config)
                   if args.solver_config else None)
        rows = run_corpus(
            args.corpus, arch, template=args.template,
            timeout=args.timeout, clock_cycles=args.clock_cycles,
            report_path=args.report, jobs=args.jobs,
            sim_cycles=args.sim_cycles, solvers=solvers, only=args.only,
            progress=lambda row: print(
                f"{row.name}: {row.outcome} ({row.seconds:.2f}s)",
                file=sys.stderr))
    except SoundnessFailure as exc:
        print(f"SOUNDNESS FAILURE: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, SketchmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    done = len(rows)
    ok = sum(r.outcome == "success" for r in rows)
    print(f"{done} benchmarks, {ok} success; report: {args.report}",
          file=sys.stderr)
    return EXIT_SUCCESS


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse: 0 after --help, else a misuse
        return EXIT_SUCCESS if exc.code == 0 else EXIT_USAGE
    handler = {
        "map": run_map,
        "templates": run_templates,
        "benchgen": run_benchgen,
        "benchrun": run_benchrun,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
