"""Spans recorded from outside the mapper, around calls into each layer.

The tracer replaces module attributes the pipeline looks up at call time
(``cegis.portfolio_solve``, ``bench.simulate``, ...) with wrappers that
record a span per call: name, start, end, parent span and design id.
Spans stay in memory until ``write``.  Nothing under ``src/`` is changed;
``restore`` puts the original functions back.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from sketchmap import arch, bench, cegis, emit, sketches

# (module, attribute, span name): every call site the benchmark's workloads
# reach.  Functions imported by name into several modules are wrapped in
# each of them.
TARGETS = (
    (cegis, "build_query", "symbolic.build_query"),
    (cegis, "emit_smtlib", "smtlib.emit"),
    (cegis, "portfolio_solve", "portfolio.solve"),
    (cegis, "simulate", "interp.revalidate"),
    (cegis, "synthesize", "cegis.synthesize"),
    (bench, "synthesize", "cegis.synthesize"),
    (bench, "simulate", "interp.sim"),
    (sketches, "generate_sketch", "sketches.generate"),
    (bench, "generate_sketch", "sketches.generate"),
    (emit, "to_structural_verilog", "emit.verilog"),
    (emit, "to_json_netlist", "emit.json"),
    (emit, "from_json_netlist", "emit.import"),
    (arch, "load_arch", "arch.load"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, design]
        self.queries: list[tuple[str, str]] = []   # (SMT-LIB text, status)
        self.counts: Counter = Counter()
        self.design = None
        self.enabled = True
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.design])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed inside span {popped}")

    def _observe(self, name: str, args: tuple, out) -> None:
        if name == "portfolio.solve":
            self.queries.append((args[0], out.status))
        elif name.startswith("interp."):
            self.counts["interp.sim_cycles"] += args[2]
        elif name in ("emit.verilog", "emit.json"):
            self.counts["emit.bytes"] += len(out)

    def install(self) -> None:
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(fn, name))
            self._saved.append((module, attr, fn))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self._observe(name, args, out)
            return out
        return traced

    # -- reading the spans --

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name: str) -> float:
        """Summed durations of the named spans minus their direct
        children's.  Children run one after another, so their durations
        add up to the part of the parent they cover."""
        covered: Counter = Counter()
        for n, s, e, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                covered[parent] += e - s
        return sum(e - s - covered[i]
                   for i, (n, s, e, _, _) in enumerate(self.spans)
                   if n == name)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (n, s, e, parent, design) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": n, "start": round(s - t0, 6),
                    "end": round(e - t0, 6), "parent": parent,
                    "design": design}) + "\n")
