"""Seeded inputs for the benchmark workloads.

Each workload is a list of designs.  The mapper only ever sees what is
generated here: specification documents for the ``map`` path (lut64,
carry14) and a corpus directory plus a list of row names for the
``benchrun`` path (dsp52).

Choices that keep the figures steady across seeds:

* lut64 draws 32 of the 128 complement pairs {t, t ^ 0xff} of three-input
  truth tables.  Every seed therefore maps as many ones as zeros over all
  table rows, and the CEGIS work, which grows with the ones the seeded
  samples miss, does not depend on the seed.
* dsp52 takes four rows of each of the 13 corpus shapes, one at each
  pipeline depth, at widths 8 + i, 16 - i, 8 + j and 16 - j.  The 26 values
  of i and j are 0..4 dealt out evenly and shuffled by the seed, so every
  seed covers all widths and depths and maps nearly the same multiset of
  widths; the seed decides which shape and depth each width goes with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from sketchmap import bench

WORKLOADS = ("lut64", "carry14", "dsp52")

ARCH_FILE = {
    "lut64": "sofa.yml",
    "carry14": "generic-lut-carry.yml",
    "dsp52": "minidsp.yml",
}

TEMPLATE = {
    "lut64": "bitwise",
    "carry14": "bitwise-with-carry",
    "dsp52": "dsp",
}


@dataclass(frozen=True)
class Design:
    name: str
    text: str                   # specification document
    expect_success: bool = True


def truth_table_document(table: int) -> str:
    """Three-input function as an or of minterms; input a is index bit 0."""
    minterms = []
    for idx in range(8):
        if (table >> idx) & 1:
            lits = [n if (idx >> j) & 1 else f"(not {n})"
                    for j, n in enumerate("abc")]
            minterms.append(f"(and (and {lits[0]} {lits[1]}) {lits[2]})")
    expr = minterms[0] if minterms else "(xor a a)"
    for m in minterms[1:]:
        expr = f"(or {expr} {m})"
    return f"(spec (inputs (a 1) (b 1) (c 1)) {expr})\n"


def lut64(seed: int) -> list[Design]:
    pairs = random.Random(seed).sample(range(128), 32)
    tables = sorted(t for p in pairs for t in (p, p ^ 0xFF))
    return [Design(f"tt_{t:02x}", truth_table_document(t)) for t in tables]


def carry14() -> list[Design]:
    return [Design(f"{op}_w{w}",
                   f"(spec (inputs (a {w}) (b {w})) ({op} a b))\n")
            for w in range(2, 9) for op in ("add", "sub")]


def dsp52_rows(seed: int) -> list[bench.Benchmark]:
    rng = random.Random(seed)
    lo, hi = min(bench.WIDTHS), max(bench.WIDTHS)
    shapes: dict[str, dict] = {}
    for b in bench.corpus_benchmarks():
        shapes.setdefault(b.expression, {})[(b.width, b.depth)] = b
    # width pairs (lo + i, hi - i), i in 0..4, dealt out evenly
    pairs = [k % ((hi - lo) // 2 + 1) for k in range(2 * len(shapes))]
    rng.shuffle(pairs)
    picked = []
    for s, rows in enumerate(shapes.values()):
        i, j = pairs[2 * s], pairs[2 * s + 1]
        widths = (lo + i, hi - i, lo + j, hi - j)
        depths = rng.sample(bench.DEPTHS, len(bench.DEPTHS))
        picked += [rows[w, d] for w, d in zip(widths, depths)]
    return picked


def dsp52(seed: int, corpus_dir: Path) -> list[Design]:
    """Writes the whole corpus to corpus_dir; returns the picked rows in
    manifest order, which is the order run_corpus maps them in."""
    bench.write_corpus(corpus_dir)
    picked = {b.name for b in dsp52_rows(seed)}
    return [Design(b.name, (corpus_dir / b.file).read_text(), b.expressible)
            for b in bench.read_manifest(corpus_dir / "manifest.csv")
            if b.name in picked]
