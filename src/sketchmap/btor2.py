"""Import word-level btor2 models as behavioral programs.

The mapping is one-to-one: inputs become Var nodes, constants become BV
nodes, word-level operators become Op nodes, and each state becomes a
Reg whose data is the state's ``next`` target and whose initial value
comes from its ``init`` line.  One btor2 transition therefore equals one
simulation timestep.  Arrays and liveness constructs are out of scope,
and every state must carry both an init and a next line so the result
has fully defined register semantics.
"""

from dataclasses import dataclass

from .ir import (
    BV, OPS, BitVec, Op, Operator, Prog, Reg, SketchmapError, Var,
    WidthError, check_well_formed, op_result_width,
)

__all__ = [
    "Btor2Line", "ImportedModel", "ParseError", "Unsupported",
    "MissingInit", "MultipleOutputs", "parse_btor2", "to_prog",
    "load_btor2",
]


class ParseError(SketchmapError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Unsupported(SketchmapError):
    def __init__(self, lineno: int, kind: str):
        super().__init__(f"line {lineno}: unsupported construct {kind!r}")
        self.lineno = lineno
        self.kind = kind


class MissingInit(SketchmapError):
    """A state lacks an init or next line."""


class MultipleOutputs(SketchmapError):
    """More than one output; import once per output instead."""


# btor2 operator kind -> IR operator, whose arity and index count ir.OPS
# gives; neq is eq under not.
_OPS = {"not": "not", "neg": "neg", "redor": "reduce_or",
        "redand": "reduce_and", "and": "and", "or": "or", "xor": "xor",
        "add": "add", "sub": "sub", "mul": "mul", "eq": "eq", "neq": "eq",
        "ult": "ult", "ulte": "ule", "slt": "slt", "slte": "sle",
        "sll": "shl", "srl": "lshr", "sra": "ashr", "concat": "concat",
        "ite": "mux", "slice": "extract", "uext": "zero_extend",
        "sext": "sign_extend"}
_UNSUPPORTED = {"read", "write", "bad", "justice", "fair", "constraint",
                "udiv", "urem", "sdiv", "srem", "smod", "iff", "implies",
                "sgt", "sgte", "ugt", "ugte", "rol", "ror", "nand",
                "nor", "xnor", "inc", "dec", "sec", "saddo", "uaddo",
                "sdivo", "smulo", "umulo", "ssubo", "usubo"}


@dataclass(frozen=True)
class Btor2Line:
    id: int
    kind: str
    sort: int | None          # referenced sort id (None for sorts/output)
    args: tuple[int, ...]     # operand node ids (may be negative)
    params: tuple[int, ...]   # slice bounds / extension amounts
    value: int | None         # constant value or declared sort width
    symbol: str | None


@dataclass(frozen=True)
class ImportedModel:
    name: str
    inputs: tuple[tuple[str, int], ...]
    semantics: Prog
    states: tuple[tuple[int, str], ...]   # (btor2 state id, symbol)


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what} {tok!r} is not an integer")


def parse_btor2(text: str) -> list[Btor2Line]:
    """Tokenize and structurally validate a btor2 document, checking the
    widths of each operator, init and next line against its declared
    sort."""
    lines: list[Btor2Line] = []
    seen: dict[int, Btor2Line] = {}
    width: dict[int, int] = {}      # node id -> bit width

    def ref(tok: str, lineno: int, signed: bool = False) -> int:
        v = _int(tok, lineno, "node reference")
        if abs(v) not in seen or (v < 0 and not signed):
            raise ParseError(lineno, f"reference to undefined id {v}")
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split(";", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        nid = _int(toks[0], lineno, "node id")
        if nid <= 0 or (lines and nid <= lines[-1].id):
            raise ParseError(lineno, f"ids must increase (got {nid})")
        kind = toks[1]
        rest = toks[2:]
        sort = None
        args: tuple[int, ...] = ()
        params: tuple[int, ...] = ()
        value = None
        symbol = None

        def need(n: int):
            if len(rest) < n:
                raise ParseError(lineno, f"{kind} needs {n} operands")

        if kind in _UNSUPPORTED:
            raise Unsupported(lineno, kind)
        if kind == "sort":
            need(2)
            if rest[0] == "array":
                raise Unsupported(lineno, "array")
            if rest[0] != "bitvec":
                raise ParseError(lineno, f"unknown sort {rest[0]!r}")
            value = _int(rest[1], lineno, "width")
            if value <= 0:
                raise ParseError(lineno, "sort width must be positive")
        elif kind in ("input", "state"):
            need(1)
            sort = ref(rest[0], lineno)
            symbol = rest[1] if len(rest) > 1 else None
        elif kind in ("constd", "consth", "const"):
            need(2)
            sort = ref(rest[0], lineno)
            base = {"constd": 10, "consth": 16, "const": 2}[kind]
            try:
                value = int(rest[1], base)
            except ValueError:
                raise ParseError(lineno, f"bad constant {rest[1]!r}")
        elif kind in ("zero", "one", "ones"):
            need(1)
            sort = ref(rest[0], lineno)
            value = {"zero": 0, "one": 1, "ones": -1}[kind]
        elif kind in ("init", "next"):
            need(3)
            sort = ref(rest[0], lineno)
            args = (ref(rest[1], lineno), ref(rest[2], lineno, True))
            if seen[args[0]].kind != "state":
                raise ParseError(lineno, f"id {nid}: {kind} target "
                                 f"{args[0]} is not a state")
        elif kind == "output":
            need(1)
            args = (ref(rest[0], lineno, True),)
            symbol = rest[1] if len(rest) > 1 else None
        elif kind in _OPS:
            spec = OPS[_OPS[kind]]
            need(1 + spec.arity + spec.nparams)
            sort = ref(rest[0], lineno)
            args = tuple(ref(t, lineno, True)
                         for t in rest[1:1 + spec.arity])
            params = tuple(_int(t, lineno, "index")
                           for t in rest[1 + spec.arity:][:spec.nparams])
        else:
            raise Unsupported(lineno, kind)

        if sort is not None and seen[sort].kind != "sort":
            raise ParseError(lineno, f"id {sort} is not a sort")
        for a in args:
            if abs(a) not in width:
                raise ParseError(lineno, f"id {a} is not a node")
        got = []        # widths that must equal the declared sort's
        if kind in ("init", "next"):
            got = [width[abs(a)] for a in args]
        elif kind in _OPS:
            try:
                got = [op_result_width(Operator(_OPS[kind], params),
                                       [width[abs(a)] for a in args])]
            except WidthError as e:
                raise ParseError(lineno, f"id {nid}: {e}") from None
        for w in got:
            if w != seen[sort].value:
                raise ParseError(
                    lineno, f"id {nid}: {kind} has {w} bits but its "
                    f"sort {sort} has {seen[sort].value}")
        if sort is not None and kind not in ("init", "next"):
            width[nid] = seen[sort].value
        line = Btor2Line(nid, kind, sort, args, params, value, symbol)
        lines.append(line)
        seen[nid] = line
    return lines


def to_prog(lines: list[Btor2Line], name: str = "imported"
            ) -> ImportedModel:
    """Translate parsed lines into a single-rooted behavioral program."""
    widths: dict[int, int] = {}          # sort id -> bit width
    node_ids: dict[int, int] = {}        # btor2 id -> program node id
    nodes: dict[int, object] = {}
    inputs: list[tuple[str, int]] = []
    states: list[Btor2Line] = []
    inits: dict[int, int] = {}           # state id -> value node id
    nexts: dict[int, int] = {}           # state id -> data node id
    output: Btor2Line | None = None
    fresh = [0]

    def alloc(node) -> int:
        fresh[0] += 1
        nodes[fresh[0]] = node
        return fresh[0]

    def operand(ref: int) -> int:
        base = node_ids[abs(ref)]
        if ref < 0:
            return alloc(Op(Operator("not"), (base,)))
        return base

    for ln in lines:
        if ln.kind == "sort":
            widths[ln.id] = ln.value
            continue
        if ln.kind == "output":
            if output is not None:
                raise MultipleOutputs(
                    f"outputs at ids {output.id} and {ln.id}; import the "
                    "model once per output")
            output = ln
            continue
        if ln.kind == "init":
            inits[ln.args[0]] = ln.args[1]
            continue
        if ln.kind == "next":
            nexts[ln.args[0]] = ln.args[1]
            continue
        w = widths[ln.sort]
        if ln.kind == "input":
            nm = ln.symbol or f"in{ln.id}"
            inputs.append((nm, w))
            node_ids[ln.id] = alloc(Var(nm, w))
        elif ln.kind in ("constd", "consth", "const", "zero", "one",
                         "ones"):
            node_ids[ln.id] = alloc(BV(BitVec.of(ln.value, w)))
        elif ln.kind == "state":
            states.append(ln)
            node_ids[ln.id] = alloc(None)   # patched after next-resolution
        else:
            node = alloc(Op(Operator(_OPS[ln.kind], ln.params),
                            tuple(operand(a) for a in ln.args)))
            if ln.kind == "neq":
                node = alloc(Op(Operator("not"), (node,)))
            node_ids[ln.id] = node

    for st in states:
        sym = st.symbol or f"state{st.id}"
        if st.id not in inits:
            raise MissingInit(f"state {st.id} ({sym}) has no init line; "
                              "all registers must be initialized")
        if st.id not in nexts:
            raise MissingInit(f"state {st.id} ({sym}) has no next line")
        init_ref = inits[st.id]
        init_node = nodes[node_ids[abs(init_ref)]]
        if not isinstance(init_node, BV) or init_ref < 0:
            raise MissingInit(
                f"state {st.id} ({sym}): init must be a constant")
        w = widths[st.sort]
        nodes[node_ids[st.id]] = Reg(operand(nexts[st.id]),
                                     BitVec.of(init_node.b.value, w))

    if output is None:
        raise MultipleOutputs("model declares no output")
    root = operand(output.args[0])
    prog = Prog(root, nodes)
    check_well_formed(prog)
    return ImportedModel(
        name=name, inputs=tuple(inputs), semantics=prog,
        states=tuple((st.id, st.symbol or f"state{st.id}")
                     for st in states))


def load_btor2(path: str, name: str | None = None) -> ImportedModel:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if name is None:
        name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return to_prog(parse_btor2(text), name)
