"""Shared program generators and tiny oracles for the test suite."""

from __future__ import annotations

import random

from typing import Optional

from sketchmap.ir import (
    BV, OPS, BitVec, DomainError, Hole, Id, Node, Op, Operator, Prim, Prog,
    ProgBuilder, Reg, SketchmapError, Var, schedule,
)
from sketchmap.primitives import (
    PrimitiveInterface, PrimitiveModel, packed_ranges,
)
from sketchmap.specdsl import parse_document
from sketchmap.terms import Term, TermBuilder

_BIN_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]
_CMP_OPS = ["eq", "ult", "ule", "slt", "sle"]


def random_behavioral(rng: random.Random, max_nodes: int = 12,
                      max_width: int = 6, n_vars: int = 2,
                      allow_reg: bool = True) -> Prog:
    """A well-formed behavioral program: args always reference earlier ids,
    widths respected by construction."""
    nodes: dict[Id, Node] = {}
    by_width: dict[int, list[Id]] = {}
    nid = 1

    def put(n: Node, w: int) -> Id:
        nonlocal nid
        nodes[nid] = n
        by_width.setdefault(w, []).append(nid)
        nid += 1
        return nid - 1

    for k in range(n_vars):
        w = rng.randint(1, max_width)
        put(Var(f"v{k}", w), w)
    total = rng.randint(n_vars + 1, max_nodes)
    while len(nodes) < total:
        kind = rng.random()
        if kind < 0.15:
            w = rng.randint(1, max_width)
            put(BV(BitVec.of(rng.getrandbits(w), w)), w)
        elif kind < 0.30 and allow_reg:
            w = rng.choice(list(by_width))
            d = rng.choice(by_width[w])
            put(Reg(d, BitVec.of(rng.getrandbits(w), w)), w)
        else:
            choice = rng.random()
            if choice < 0.45:
                w = rng.choice(list(by_width))
                if len(by_width[w]) >= 1:
                    a, b = rng.choice(by_width[w]), rng.choice(by_width[w])
                    name = rng.choice(_BIN_OPS)
                    put(Op(Operator(name), (a, b)), w)
            elif choice < 0.60:
                w = rng.choice(list(by_width))
                a, b = rng.choice(by_width[w]), rng.choice(by_width[w])
                put(Op(Operator(rng.choice(_CMP_OPS)), (a, b)), 1)
            elif choice < 0.70:
                w = rng.choice(list(by_width))
                a = rng.choice(by_width[w])
                put(Op(Operator(rng.choice(["not", "neg"])), (a,)), w)
            elif choice < 0.80 and 1 in by_width:
                w = rng.choice(list(by_width))
                s = rng.choice(by_width[1])
                a, b = rng.choice(by_width[w]), rng.choice(by_width[w])
                put(Op(Operator("mux"), (s, a, b)), w)
            elif choice < 0.90:
                wa = rng.choice(list(by_width))
                wb = rng.choice(list(by_width))
                a, b = rng.choice(by_width[wa]), rng.choice(by_width[wb])
                put(Op(Operator("concat"), (a, b)), wa + wb)
            else:
                w = rng.choice(list(by_width))
                a = rng.choice(by_width[w])
                hi = rng.randint(0, w - 1)
                lo = rng.randint(0, hi)
                put(Op(Operator("extract", (hi, lo)), (a,)), hi - lo + 1)
    root = rng.choice(list(nodes))
    return Prog(root, nodes)


def random_unchecked(rng: random.Random, max_nodes: int = 6,
                     max_width: int = 3) -> Prog:
    """An arbitrary program, possibly ill-formed: forward references,
    cycles, width clashes, missing roots all occur."""
    n = rng.randint(1, max_nodes)
    ids = list(range(1, n + 1))
    nodes: dict[Id, Node] = {}
    for i in ids:
        kind = rng.random()
        ref = lambda: rng.choice(ids + [n + 1] if rng.random() < 0.08 else ids)
        if kind < 0.2:
            w = rng.randint(1, max_width)
            nodes[i] = BV(BitVec.of(rng.getrandbits(w), w))
        elif kind < 0.35:
            nodes[i] = Var(f"v{rng.randint(0, 2)}", rng.randint(1, max_width))
        elif kind < 0.55:
            w = rng.randint(1, max_width)
            nodes[i] = Reg(ref(), BitVec.of(rng.getrandbits(w), w))
        else:
            name = rng.choice(_BIN_OPS + _CMP_OPS + ["not", "mux", "concat"])
            k = OPS[name].arity
            nodes[i] = Op(Operator(name), tuple(ref() for _ in range(k)))
    root = rng.choice(ids + [n + 7]) if rng.random() < 0.9 else n + 7
    return Prog(root, nodes)


def _flat_nodes(p: Prog) -> list[tuple[Id, Node, Id]]:
    """Every node of p's tree as (flat id, node, its program's offset),
    each Prim body read at its offset."""
    items = []
    stack = [(p, 0)]
    while stack:
        q, off = stack.pop()
        for i, nd in q.nodes.items():
            items.append((off + i, nd, off))
            if isinstance(nd, Prim):
                stack.append((nd.body, off + nd.base))
    return items


def _edges(items: list[tuple[Id, Node, Id]]) -> list[tuple[Id, Id]]:
    """Constraint edges src < dst over flat ids, mirroring the checker:
    an Op after its args, a Prim after its body root, a body Var after
    the node it binds."""
    edges: list[tuple[Id, Id]] = []
    for i, nd, off in items:
        if isinstance(nd, Op):
            edges.extend((off + a, i) for a in nd.args)
        elif isinstance(nd, Prim):
            inner = off + nd.base
            edges.append((inner + nd.body.root, i))
            bm = dict(nd.binds)
            for bi, bn in nd.body.nodes.items():
                if isinstance(bn, Var):
                    edges.append((off + bm[bn.name], inner + bi))
    return edges


def witness_exists_bruteforce(p: Prog) -> bool:
    """Search all level assignments 0..n-1 for one satisfying the witness
    conditions.  Only checks the ordering rules (W6); assumes the
    structural rules W1-W5 already passed.  Exponential; keep p tiny."""
    items = _flat_nodes(p)
    ids = [i for i, _, _ in items]
    n = len(ids)
    node_of = {i: nd for i, nd, _ in items}
    edges = _edges(items)

    assign: dict[Id, int] = {}

    def ok(i: Id) -> bool:
        nd = node_of[i]
        if isinstance(nd, Reg) and assign[i] != 0:
            return False
        for s, d in edges:
            if s in assign and d in assign and not assign[d] > assign[s]:
                return False
        return True

    def go(k: int) -> bool:
        if k == n:
            return True
        i = ids[k]
        for lvl in range(n):
            assign[i] = lvl
            if ok(i) and go(k + 1):
                return True
        del assign[i]
        return False

    return go(0)


def verify_witness(p: Prog, w: dict[Id, int]) -> bool:
    """Check the four witness conditions directly on p and every Prim body
    in it, by flat id: each id has a level of 0 or more, a Reg's is 0, an
    Op's is above its args', and a Prim's is above its body root's, each
    body Var being above the node it binds."""
    items = _flat_nodes(p)
    if any(i not in w or w[i] < 0 for i, _, _ in items):
        return False
    if any(isinstance(nd, Reg) and w[i] != 0 for i, nd, _ in items):
        return False
    return all(w[d] > w[s] for s, d in _edges(items))


# -- reading an architecture's implementations --------------------------------


def internal_map(impl) -> dict[str, int]:
    """An arch.InterfaceImpl's internal data, name -> width."""
    return dict(impl.internal_data)


def port_of(impl, name: str):
    """The arch.PortSpec of impl's module port called name."""
    for p in impl.ports:
        if p.name == name:
            return p
    raise SketchmapError(f"{impl.module_name} has no port {name!r}")


# -- the per-instance copy that shared bodies replaced ------------------------


def relabel(prog: Prog, nb: ProgBuilder) -> Prog:
    """Copy a program onto fresh node ids from nb's shared counter: how
    each primitive instance got its own copy of the model's body before
    instances shared it.  A test oracle only."""
    mapping: dict[Id, Id] = {}
    child = nb.child()
    for i in prog.nodes:
        mapping[i] = child.fresh()

    def remap_node(n):
        if isinstance(n, (BV, Var)):
            return n
        if isinstance(n, Op):
            return Op(n.op, tuple(mapping[a] for a in n.args))
        if isinstance(n, Reg):
            return Reg(mapping[n.data], n.init)
        if isinstance(n, Prim):
            return Prim(tuple((k, mapping[v]) for k, v in n.binds),
                        relabel(n.body, nb), n.meta)
        if isinstance(n, Hole):
            return n
        raise SketchmapError(f"cannot relabel {type(n).__name__}")

    nodes = {mapping[i]: remap_node(n) for i, n in prog.nodes.items()}
    return Prog(mapping[prog.root], nodes)


def copying_assemble_prim(impl, b: ProgBuilder, model, port_values,
                          internal_ids):
    """arch._assemble_prim as it was when every instance held a relabelled
    copy of the model's body at base 0; patch it over arch._assemble_prim
    to build a sketch the old way."""
    semantics, packed, meta = model
    binds = [(k, port_values[k]) for k in meta.ports if k != "clk"]
    binds += [(nm, internal_ids[nm]) for nm, _ in impl.internal_data]
    prim = b.add(Prim(tuple(binds), relabel(semantics, b), meta))
    if len(packed) == 1:
        return prim, {packed[0][0]: prim}
    return prim, {o: b.extract(hi, lo, prim)
                  for o, (hi, lo) in packed_ranges(packed).items()}


def record_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Wrap module.name for the test; returns the list that receives the
    positional arguments of each call, in order."""
    calls: list[tuple] = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


# -- the symbolic unroller's own walk, from before it read the plan ---------


def walk_symbolic_run(p: Prog, upto: int, tb: Optional[TermBuilder] = None
                      ) -> list[Term]:
    """symbolic.symbolic_run as it was when it walked ir.schedule itself,
    case by case over node kinds: terms for the root at cycles 0..upto.
    A test oracle for the unroller that interprets the simulator's plan."""
    if tb is None:
        tb = TermBuilder()
    sched = schedule(p)
    roots: list[Term] = []
    prev: dict[Id, Term] = {}
    for t in range(upto + 1):
        cur: dict[Id, Term] = {}
        for i, d, init in sched.regs:
            cur[i] = tb.const(init) if t == 0 else prev[d]
        for i, n, o in sched.order:
            if isinstance(n, Reg):
                continue
            if isinstance(n, BV):
                cur[i] = tb.const(n.b)
            elif isinstance(n, Var):
                if i in sched.binds:
                    cur[i] = cur[sched.binds[i]]
                else:
                    cur[i] = tb.input(n.name, t, n.width)
            elif isinstance(n, Op):
                cur[i] = tb.app(n.op, [cur[o + a] for a in n.args])
            elif isinstance(n, Prim):
                cur[i] = cur[o + n.base + n.body.root]
            else:
                assert isinstance(n, Hole)
                cur[i] = tb.hole(n.label, n.width)
        roots.append(cur[p.root])
        prev = cur
    return roots


# -- one-line readers the package does not need -----------------------------


def parse_spec(text: str) -> Prog:
    """Parse a document and return just its behavioral program."""
    return parse_document(text).prog


def interface_of(model: PrimitiveModel) -> PrimitiveInterface:
    return model.interface


def output_slice(model: PrimitiveModel, name: str) -> tuple[int, int]:
    """(hi, lo) bit range of an output in the packed semantics root."""
    ranges = packed_ranges(model.outputs)
    if name not in ranges:
        raise DomainError(f"model {model.name} has no output {name!r}")
    return ranges[name]
