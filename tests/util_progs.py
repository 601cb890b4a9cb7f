"""Shared program generators and tiny oracles for the test suite."""

from __future__ import annotations

import random

from sketchmap.ir import (
    BV, OPS, BitVec, Id, Node, Op, Operator, Prim, Prog, Reg, Var, inputs,
)

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


def witness_exists_bruteforce(p: Prog) -> bool:
    """Search all level assignments 0..n-1 for one satisfying the witness
    conditions.  Only checks the ordering rules (W6); assumes the
    structural rules W1-W5 already passed.  Exponential; keep p tiny."""
    items = []  # (prog, id, node) with prim bodies flattened
    stack = [p]
    while stack:
        q = stack.pop()
        for i, nd in q.nodes.items():
            items.append((q, i, nd))
            if isinstance(nd, Prim):
                stack.append(nd.body)
    ids = [i for _, i, _ in items]
    n = len(ids)
    node_of = {i: nd for _, i, nd in items}

    # Constraint edges src < dst, mirroring the checker.
    edges: list[tuple[Id, Id]] = []
    for q, i, nd in items:
        if isinstance(nd, Op):
            edges.extend((a, i) for a in nd.args)
        elif isinstance(nd, Prim):
            edges.append((nd.body.root, i))
            bm = nd.bind_map()
            for bi, bn in nd.body.nodes.items():
                if isinstance(bn, Var):
                    edges.append((bm[bn.name], bi))

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
    in it: each id has a level of 0 or more, a Reg's is 0, an Op's is
    above its args', and a Prim's is above its body root's, each body Var
    being above the node it binds."""
    stack = [p]
    while stack:
        q = stack.pop()
        for i, n in q.nodes.items():
            if i not in w or w[i] < 0:
                return False
            if isinstance(n, Reg):
                if w[i] != 0:
                    return False
            elif isinstance(n, Prim):
                if not w[i] > w[n.body.root]:
                    return False
                bm = n.bind_map()
                for bi, bn in n.body.nodes.items():
                    if isinstance(bn, Var) and not w[bi] > w[bm[bn.name]]:
                        return False
                stack.append(n.body)
            elif not all(w[i] > w[a] for a in inputs(n)):
                return False
    return True


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
