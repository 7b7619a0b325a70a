"""Mini-language for client programs and shared objects.

Concrete syntax (ASCII, "//" comments):

    file   := decl* thread+
            | "object" ("spec"|"impl") "{" var* opdef* "}"
    decl   := "global" IDENT "=" INT ";"
    var    := "var" IDENT "=" INT ";"
    thread := "thread" IDENT ("core" IDENT)? "{" stmt* "}"
    stmt   := IDENT ":=" expr ";"
            | "await" "(" cond ")" ";"
            | (REG ":=")? "call" IDENT "(" expr? ")" ";"
            | "if" "(" cond ")" block ("else" block)?
            | "while" "(" cond ")" block
            | "fence" ";"
    opdef  := "op" IDENT "(" IDENT? ")" "{" opstmt* "}"
    opstmt := stmt | "return" expr? ";"
            | REG ":=" "TAS" "(" IDENT "," INT "," INT ")" ";"
    cond   := expr ("="|"!=") expr
    expr   := INT | IDENT | expr ("+"|"-") expr

Identifiers starting with "r" that are not declared as globals, object
variables, or an operation parameter denote thread-local registers.
Specification bodies are atomic by construction and therefore may not
contain loops or TAS.

Each thread body and each operation body is compiled once, when its
program or object is made, to flat code: a tuple of instructions with
step labels precomputed, `if` and `while` turned into jumps and loop
tests, and every block ending in a JUMP to where control goes on.
Code position 0 holds a bare `return`, where every body ends.  One
step function, `step`, runs an instruction against (pc, loop counters,
registers), reading shared variables through a supplied load function;
client steps, implementation instructions and atomic specification
bodies all run through it.  A pc `step` returns may stand on a block's
closing JUMP: `settled` follows it to where control goes on, and every
pc an exploration state holds is settled.  `events_of_program`
walks the same code to extract the finite event set of the bounded
program: every reachable step with every value it could write, plus,
for each invocation, responses and observations over the closure of
possible outputs.

`reachable` gives the pcs control can reach when every test may go
either way.  The outputs an operation may give (`chaos_outputs`, and
its closure `op_outputs`) are those of its reachable returns, and
`validate` rejects code no path reaches: a statement after a return.
`accesses` sums up, per pc, what the code reachable from there may
still read, write, TAS and call; the RELAXED reduction in `memmodel`
asks it which cores may still touch a variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .events import Inv, OpId, OpObs, ProgObs, ProgStep, Res, StepId
from .storage import _tget, _tset

# --- abstract syntax ---


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" or "-"
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Name, BinOp]


@dataclass(frozen=True)
class Cmp:
    op: str  # "=" or "!="
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class Await:
    cond: Cmp


@dataclass(frozen=True)
class Call:
    op: str
    arg: Optional[Expr] = None
    result: Optional[str] = None


@dataclass(frozen=True)
class If:
    cond: Cmp
    then: Tuple["Stmt", ...]
    orelse: Tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class While:
    cond: Cmp
    body: Tuple["Stmt", ...]


@dataclass(frozen=True)
class Fence:
    pass


@dataclass(frozen=True)
class Return:
    expr: Optional[Expr] = None


@dataclass(frozen=True)
class Tas:
    result: str
    var: str
    test: int
    swap: int


Stmt = Union[Assign, Await, Call, If, While, Fence, Return, Tas]


@dataclass
class ClientProgram:
    globals: Dict[str, int]
    threads: Dict[str, Tuple[Stmt, ...]]
    coremap: Dict[str, str]
    code: Dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        declared = self.declared()
        self.code = {th: compile_body(body, declared)
                     for th, body in self.threads.items()}

    def declared(self) -> frozenset:
        return frozenset(self.globals)

    @cached_property
    def summaries(self) -> Dict[str, tuple]:
        """`accesses` of each thread's code, worked out on first use."""
        return {th: accesses(code) for th, code in self.code.items()}


@dataclass
class OpDef:
    name: str
    param: Optional[str]
    body: Tuple[Stmt, ...]
    # compiled by the object it belongs to, against the object's variables
    code: tuple = field(default=(), repr=False, compare=False)


@dataclass
class ObjectDef:
    kind: str  # "spec" | "impl"
    shared: Dict[str, int]
    ops: Dict[str, OpDef]

    def __post_init__(self):
        shared = frozenset(self.shared)
        for op in self.ops.values():
            op.code = compile_body(op.body, shared)

    @cached_property
    def summaries(self) -> Dict[str, tuple]:
        """`accesses` of each operation's code, worked out on first use."""
        return {name: accesses(op.code) for name, op in self.ops.items()}


def empty_object(kind: str = "impl") -> ObjectDef:
    """Object with no operations, for clients that make no calls."""
    return ObjectDef(kind, {}, {})


# --- lexer ---

_TOKEN = re.compile(
    r"""
    (?P<skip>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<assign>:=)
  | (?P<neq>!=)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[(){};=+,\-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "global", "thread", "core", "await", "call", "if", "else", "while",
    "fence", "object", "spec", "impl", "op", "return", "var", "TAS",
}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword/symb text, or "INT"/"IDENT"/"EOF"
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _lex(text: str) -> List[Token]:
    out = []
    line, start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - start + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            start = pos
            continue
        if kind in ("skip", "comment"):
            continue
        col = m.start() - start + 1
        tok = m.group()
        if kind == "int":
            out.append(Token("INT", tok, line, col))
        elif kind == "ident":
            out.append(Token(tok if tok in _KEYWORDS else "IDENT", tok, line, col))
        else:
            out.append(Token(tok, tok, line, col))
    out.append(Token("EOF", "", line, pos - start + 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def fresh_name(self, seen, what: str) -> str:
        """The next identifier, which must not be in `seen`; a duplicate
        is reported at its own position."""
        t = self.expect("IDENT")
        if t.text in seen:
            raise ParseError(f"duplicate {what} {t.text!r}", t.line, t.col)
        return t.text

    def declarations(self, keyword: str) -> Dict[str, int]:
        """`keyword name = value;` declarations of distinct names, as
        many as follow: a client's globals or an object's variables."""
        out: Dict[str, int] = {}
        while self.at(keyword):
            self.next()
            name = self.fresh_name(out, keyword)
            self.expect("=")
            out[name] = int(self.expect("INT").text)
            self.expect(";")
        return out

    # entry

    def file(self):
        if self.at("object"):
            return self.object_def()
        return self.client()

    def client(self) -> ClientProgram:
        globals_ = self.declarations("global")
        threads: Dict[str, Tuple[Stmt, ...]] = {}
        coremap: Dict[str, str] = {}
        t = self.peek()
        if not self.at("thread"):
            raise ParseError(f"expected 'thread', found {t.text or 'end of input'!r}",
                             t.line, t.col)
        while self.at("thread"):
            self.next()
            tname = self.fresh_name(threads, "thread")
            core = tname
            if self.at("core"):
                self.next()
                core = self.expect("IDENT").text
            body = self.block(in_op=False)
            threads[tname] = body
            coremap[tname] = core
        self.expect("EOF")
        return ClientProgram(globals_, threads, coremap)

    def object_def(self) -> ObjectDef:
        self.expect("object")
        t = self.peek()
        if self.at("spec") or self.at("impl"):
            kind = self.next().kind
        else:
            raise ParseError(f"expected 'spec' or 'impl', found {t.text!r}", t.line, t.col)
        self.expect("{")
        shared = self.declarations("var")
        ops: Dict[str, OpDef] = {}
        while self.at("op"):
            self.next()
            name = self.fresh_name(ops, "operation")
            self.expect("(")
            param = None
            if self.at("IDENT"):
                param = self.next().text
            self.expect(")")
            body = self.block(in_op=True)
            ops[name] = OpDef(name, param, body)
        self.expect("}")
        self.expect("EOF")
        return ObjectDef(kind, shared, ops)

    def block(self, in_op: bool) -> Tuple[Stmt, ...]:
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self.stmt(in_op))
        self.expect("}")
        return tuple(out)

    def stmt(self, in_op: bool) -> Stmt:
        t = self.peek()
        if t.kind == "await":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            self.expect(";")
            return Await(c)
        if t.kind == "fence":
            self.next()
            self.expect(";")
            return Fence()
        if t.kind == "if":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            then = self.block(in_op)
            orelse: Tuple[Stmt, ...] = ()
            if self.at("else"):
                self.next()
                orelse = self.block(in_op)
            return If(c, then, orelse)
        if t.kind == "while":
            self.next()
            self.expect("(")
            c = self.cond()
            self.expect(")")
            body = self.block(in_op)
            return While(c, body)
        if t.kind == "return":
            if not in_op:
                raise ParseError("'return' is only allowed in operation bodies",
                                 t.line, t.col)
            self.next()
            e = None
            if not self.at(";"):
                e = self.expr()
            self.expect(";")
            return Return(e)
        if t.kind == "call":
            self.next()
            return self._call_rest(None)
        if t.kind == "IDENT":
            target = self.next().text
            self.expect(":=")
            if self.at("call"):
                self.next()
                return self._call_rest(target)
            if self.at("TAS"):
                tok = self.next()
                if not in_op:
                    raise ParseError("TAS is only allowed in operation bodies",
                                     tok.line, tok.col)
                self.expect("(")
                var = self.expect("IDENT").text
                self.expect(",")
                test = int(self.expect("INT").text)
                self.expect(",")
                swap = int(self.expect("INT").text)
                self.expect(")")
                self.expect(";")
                return Tas(target, var, test, swap)
            e = self.expr()
            self.expect(";")
            return Assign(target, e)
        raise ParseError(f"expected a statement, found {t.text or 'end of input'!r}",
                         t.line, t.col)

    def _call_rest(self, result: Optional[str]) -> Call:
        name = self.expect("IDENT").text
        self.expect("(")
        arg = None
        if not self.at(")"):
            arg = self.expr()
        self.expect(")")
        self.expect(";")
        return Call(name, arg, result)

    def cond(self) -> Cmp:
        left = self.expr()
        t = self.peek()
        if t.kind == "=":
            self.next()
            return Cmp("=", left, self.expr())
        if t.kind == "!=":
            self.next()
            return Cmp("!=", left, self.expr())
        raise ParseError(f"expected '=' or '!=', found {t.text!r}", t.line, t.col)

    def expr(self) -> Expr:
        e = self.atom()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            e = BinOp(op, e, self.atom())
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return Lit(int(t.text))
        if t.kind == "IDENT":
            self.next()
            return Name(t.text)
        raise ParseError(f"expected a value or variable, found {t.text or 'end of input'!r}",
                         t.line, t.col)


def parse(text: str) -> Union[ClientProgram, ObjectDef]:
    return _Parser(text).file()


# --- evaluation ---

def eval_expr(e: Expr, lookup, values: int) -> int:
    """Evaluate over the bounded domain 0..values, wrapping around."""
    n = values + 1
    if isinstance(e, Lit):
        return e.value % n
    if isinstance(e, Name):
        return lookup(e.ident) % n
    left = eval_expr(e.left, lookup, values)
    right = eval_expr(e.right, lookup, values)
    return (left + right) % n if e.op == "+" else (left - right) % n


def eval_cond(c: Cmp, lookup, values: int) -> bool:
    left = eval_expr(c.left, lookup, values)
    right = eval_expr(c.right, lookup, values)
    return left == right if c.op == "=" else left != right


# --- printing ---

def expr_str(e: Expr) -> str:
    """Compact rendering, used for step labels."""
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    return f"{expr_str(e.left)}{e.op}{expr_str(e.right)}"


def cond_str(c: Cmp) -> str:
    return f"{expr_str(c.left)}{c.op}{expr_str(c.right)}"


def names_of(e: Expr):
    """The variable names `e` reads, left to right."""
    if isinstance(e, Name):
        yield e.ident
    elif isinstance(e, BinOp):
        yield from names_of(e.left)
        yield from names_of(e.right)


# --- static validation ---

def is_register(name: str, declared: frozenset) -> bool:
    return name.startswith("r") and name not in declared


def _scan_stmts(stmts, declared, assigned, errors, where, in_spec, in_op):
    """Name resolution and register read-before-write along all paths.
    `assigned` is the set of registers definitely written so far."""

    def check_expr(e):
        for n in names_of(e):
            if n in declared:
                continue
            if is_register(n, declared):
                if n not in assigned:
                    errors.append(f"{where}: register {n!r} read before write")
            else:
                errors.append(f"{where}: undeclared variable {n!r}")

    def check_cond(c):
        check_expr(c.left)
        check_expr(c.right)

    for s in stmts:
        if isinstance(s, Assign):
            check_expr(s.expr)
            if is_register(s.target, declared):
                assigned.add(s.target)
            elif s.target not in declared:
                errors.append(f"{where}: undeclared variable {s.target!r}")
        elif isinstance(s, Await):
            check_cond(s.cond)
        elif isinstance(s, Call):
            if in_op:
                errors.append(f"{where}: operations may not call operations")
            if s.arg is not None:
                if not isinstance(s.arg, Lit):
                    errors.append(f"{where}: call arguments must be literals")
            if s.result is not None:
                if not is_register(s.result, declared):
                    errors.append(f"{where}: call result target {s.result!r} "
                                  "is not a register")
                assigned.add(s.result)
        elif isinstance(s, If):
            check_cond(s.cond)
            a = set(assigned)
            b = set(assigned)
            _scan_stmts(s.then, declared, a, errors, where, in_spec, in_op)
            _scan_stmts(s.orelse, declared, b, errors, where, in_spec, in_op)
            assigned |= a & b
        elif isinstance(s, While):
            if in_spec:
                errors.append(f"{where}: loops are not allowed in specification bodies")
            check_cond(s.cond)
            inner = set(assigned)
            _scan_stmts(s.body, declared, inner, errors, where, in_spec, in_op)
        elif isinstance(s, Fence):
            pass
        elif isinstance(s, Return):
            if s.expr is not None:
                check_expr(s.expr)
        elif isinstance(s, Tas):
            if in_spec:
                errors.append(f"{where}: primitive not allowed in specification")
            if s.var not in declared:
                errors.append(f"{where}: undeclared variable {s.var!r}")
            if not is_register(s.result, declared):
                errors.append(f"{where}: TAS result target {s.result!r} is not a register")
            assigned.add(s.result)


def validate(p: ClientProgram, obj: ObjectDef) -> List[str]:
    """Static checks; returns a list of error messages, empty when ok."""
    errors: List[str] = []
    overlap = set(p.globals) & set(obj.shared)
    if overlap:
        errors.append("program globals and object variables must be disjoint: "
                      + ", ".join(sorted(overlap)))
    declared_client = frozenset(p.globals)
    for th, stmts in p.threads.items():
        _scan_stmts(stmts, declared_client, set(), errors, f"thread {th}",
                    in_spec=False, in_op=False)
        for s in _all_stmts(stmts):
            if isinstance(s, Call):
                op = obj.ops.get(s.op)
                if op is None:
                    errors.append(f"thread {th}: unknown operation {s.op!r}")
                    continue
                if op.param is None and s.arg is not None:
                    errors.append(f"thread {th}: operation {s.op!r} takes no argument")
                if op.param is not None and s.arg is None:
                    errors.append(f"thread {th}: operation {s.op!r} needs an argument")
                if s.result is not None and None in op_outputs(op, 1):
                    errors.append(f"thread {th}: operation {s.op!r} may return "
                                  f"no value into register {s.result!r}")
    for op in obj.ops.values():
        declared = frozenset(obj.shared) | ({op.param} if op.param else frozenset())
        assigned = {op.param} if op.param and is_register(op.param, declared) else set()
        _scan_stmts(op.body, declared, set(assigned), errors, f"op {op.name}",
                    in_spec=(obj.kind == "spec"), in_op=True)
        live = reachable(op.code)
        if any(pc not in live and ins[0] != JUMP  # closing JUMPs and loop
               and not (ins[0] == LOOP and not ins[5])  # re-tests may be dead
               for pc, ins in enumerate(op.code) if pc):
            errors.append(f"op {op.name}: statement after a return never runs")
    return errors


def _all_stmts(stmts):
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from _all_stmts(s.then)
            yield from _all_stmts(s.orelse)
        elif isinstance(s, While):
            yield from _all_stmts(s.body)


# --- compiled form ---

# Opcodes.  An instruction is a tuple of its opcode, its step label (None
# for an instruction that makes no program step) and its operands:
#
#   RETURN  None, expr             return expr's value, or none if None
#   JUMP    None, target           a block's end: control goes on at
#                                  target, which is never a JUMP
#   SET     label, reg, expr       register assignment
#   STORE   label, var, expr       shared (global or object) assignment
#   AWAIT   label, cond
#   FENCE   label
#   IF      label, cond, else_pc   the then-branch starts at pc + 1
#   LOOP    label, cond, body_pc, exit_pc, entry
#                                  a `while` test: entry marks the
#                                  `while` itself, which starts the
#                                  loop's counter; the other test runs
#                                  after each pass of the body
#   CALL    None, op, arg, reg     arg: the literal argument or None
#   TAS     None, reg, var, test, swap
RETURN, JUMP, SET, STORE, AWAIT, FENCE, IF, LOOP, CALL, TAS = range(10)

# instructions that wait for the issuing core to drain; a TAS also acts
# on the latest value of its variable
GATED = (FENCE, TAS)

_UNBOUND = object()  # `step`'s lookup default: the name is in no register


def label_of(s: Stmt) -> str:
    if isinstance(s, Assign):
        return f"{s.target}:={expr_str(s.expr)}"
    if isinstance(s, Await):
        return f"await({cond_str(s.cond)})"
    if isinstance(s, If):
        return f"if({cond_str(s.cond)})"
    if isinstance(s, While):
        return f"while({cond_str(s.cond)})"
    if isinstance(s, Fence):
        return "fence"
    raise TypeError(f"statement has no label: {s}")


def compile_body(body: Tuple[Stmt, ...], shared: frozenset) -> tuple:
    """The code of a thread or operation body, an assignment to a name in
    `shared` being a STORE and to any other a SET.  The body starts at
    pc 1, and its closing JUMP leads to the bare return at pc 0.  Two
    positions in the syntax tree get one pc exactly when they compare
    equal, so an `if` whose branches are equal has them compiled once."""
    code: list = [(RETURN, None, None)]
    ends: list = []  # (pc of a block's closing JUMP, pc it leads to)
    ends.append((_emit(body, shared, code, ends), 0))
    for pc, target in ends:
        code[pc] = (JUMP, None, target)
    # every JUMP leads forward or to pc 0, so from the back one pass
    # finds where each chain of them ends
    for pc in range(len(code) - 1, 0, -1):
        ins = code[pc]
        if ins[0] == JUMP and code[ins[2]][0] == JUMP:
            code[pc] = code[ins[2]]
    return tuple(code)


def _emit(stmts, shared, code, ends) -> int:
    """Append the code of `stmts` and a closing JUMP, whose target the
    caller records in `ends`; returns the JUMP's pc."""
    for s in stmts:
        pc = len(code)
        if isinstance(s, If):
            code.append(None)
            closes = [_emit(s.then, shared, code, ends)]
            else_pc = pc + 1
            if s.orelse != s.then:
                else_pc = len(code)
                closes.append(_emit(s.orelse, shared, code, ends))
            code[pc] = (IF, label_of(s), s.cond, else_pc)
            ends.extend((end, len(code)) for end in closes)
        elif isinstance(s, While):
            code.append(None)
            ends.append((_emit(s.body, shared, code, ends), len(code)))
            test = (LOOP, label_of(s), s.cond, pc + 1, len(code) + 1)
            code[pc] = test + (True,)
            code.append(test + (False,))
        elif isinstance(s, Assign):
            code.append((STORE if s.target in shared else SET, label_of(s),
                         s.target, s.expr))
        elif isinstance(s, Await):
            code.append((AWAIT, label_of(s), s.cond))
        elif isinstance(s, Fence):
            code.append((FENCE, label_of(s)))
        elif isinstance(s, Call):
            arg = s.arg.value if isinstance(s.arg, Lit) else None
            code.append((CALL, None, s.op, arg, s.result))
        elif isinstance(s, Return):
            code.append((RETURN, None, s.expr))
        elif isinstance(s, Tas):
            code.append((TAS, None, s.result, s.var, s.test, s.swap))
        else:
            raise TypeError(f"unexpected statement: {s}")
    code.append(None)
    return len(code) - 1


def settled(code: tuple, pc: int) -> int:
    """Where control stands at `pc` once it leaves the blocks that have
    run to their end there."""
    ins = code[pc]
    return ins[2] if ins[0] == JUMP else pc


def step(code: tuple, pc: int, ctrs: tuple, regs: tuple, load,
         values: int, unroll: int):
    """Run the instruction control stands at in `pc` (see `settled`).
    `ctrs` holds the budgets of the loops control is in, innermost last;
    `regs` the registers as sorted (name, value) pairs; `load(name)`
    reads a name bound in no register, and a TAS reads its variable
    through it.  Returns None when the instruction blocks: an await
    whose condition is false, or a loop test out of budget, which is
    stuck for good.  Else (instruction, pc', ctrs', regs', value), pc'
    being where control goes, not settled, and value the value a STORE
    writes, a CALL's argument, a TAS's swap when it succeeds, or a
    RETURN's output; None otherwise."""
    pc = settled(code, pc)
    ins = code[pc]
    op = ins[0]

    def look(name):
        v = _tget(regs, name, _UNBOUND)
        return load(name) if v is _UNBOUND else v

    if op == SET or op == STORE:
        v = eval_expr(ins[3], look, values)
        if op == SET:
            regs = _tset(regs, ins[2], v)
        return ins, pc + 1, ctrs, regs, v
    if op == IF:
        go = pc + 1 if eval_cond(ins[2], look, values) else ins[3]
        return ins, go, ctrs, regs, None
    if op == LOOP:
        _, _, cond, body, exit_, entry = ins
        k, outer = (unroll, ctrs) if entry else (ctrs[-1], ctrs[:-1])
        if k == 0:
            return None
        if eval_cond(cond, look, values):
            return ins, body, outer + (k - 1,), regs, None
        return ins, exit_, outer, regs, None
    if op == AWAIT:
        if not eval_cond(ins[2], look, values):
            return None
        return ins, pc + 1, ctrs, regs, None
    if op == FENCE:
        return ins, pc + 1, ctrs, regs, None
    if op == RETURN:
        expr = ins[2]
        out = eval_expr(expr, look, values) if expr is not None else None
        return ins, pc, ctrs, regs, out
    if op == CALL:
        arg = ins[3]
        return ins, pc + 1, ctrs, regs, (arg % (values + 1) if arg is not None
                                         else None)
    _, _, reg, var, test, swap = ins  # TAS
    success = load(var) == test % (values + 1)
    regs = _tset(regs, reg, 1 if success else 0)
    return ins, pc + 1, ctrs, regs, (swap % (values + 1) if success else None)


# --- static answers about an operation ---

def reachable(code: tuple, start: int = 1) -> frozenset:
    """The pcs control can reach from `start` when every IF and LOOP test
    may go either way.  A RETURN ends its path, so from pc 1, pc 0 is in
    the set exactly when control can run off the end of the body."""
    seen, stack = set(), [start]
    while stack:
        pc = stack.pop()
        if pc not in seen:
            seen.add(pc)
            op, ins = code[pc][0], code[pc]
            stack += (() if op == RETURN else (ins[2],) if op == JUMP
                      else (pc + 1, ins[3]) if op == IF
                      else ins[3:5] if op == LOOP else (pc + 1,))
    return frozenset(seen)


class Access(NamedTuple):
    """What code may still do from a pc on: the names its expressions
    may read, the variables it may store to or TAS, and the operations
    it may call."""
    reads: frozenset
    writes: frozenset
    tas: frozenset
    calls: frozenset


def accesses(code: tuple) -> tuple:
    """Per pc, the Access of every instruction `reachable` from it, so a
    superset of what any run from that pc does, whatever its tests,
    loop budgets and read values; pc 0's is empty."""
    own = []
    for ins in code:
        op = ins[0]
        exprs = ((ins[3],) if op in (SET, STORE)
                 else (ins[2].left, ins[2].right) if op in (AWAIT, IF, LOOP)
                 else (ins[2],) if op == RETURN and ins[2] is not None
                 else ())
        own.append((frozenset(n for e in exprs for n in names_of(e)),
                    frozenset((ins[2],) if op == STORE else ()),
                    frozenset((ins[3],) if op == TAS else ()),
                    frozenset((ins[2],) if op == CALL else ())))
    return tuple(
        Access(*(frozenset().union(*(own[q][i] for q in live))
                 for i in range(4)))
        for live in (reachable(code, pc) for pc in range(len(code))))


def chaos_outputs(op: OpDef, values: int) -> frozenset:
    """The outputs `op` may statically give, None for no value.  Each
    reachable RETURN gives a literal's value, {0, 1} for a register that
    only a TAS writes, the whole domain for any other expression, and
    None when it is bare, the one at pc 0 included."""
    code, n = op.code, values + 1
    tas_regs = ({ins[2] for ins in code if ins[0] == TAS}
                - {ins[2] for ins in code if ins[0] == SET} - {op.param})
    outs = set()
    for e in [code[pc][2] for pc in reachable(code) if code[pc][0] == RETURN]:
        if e is None or isinstance(e, Lit):
            outs.add(None if e is None else e.value % n)
        elif isinstance(e, Name) and e.ident in tas_regs:
            outs |= {0, 1}
        else:
            outs.update(range(n))
    return frozenset(outs)


def op_outputs(op: OpDef, values: int) -> frozenset:
    """`chaos_outputs` widened, the closure the universe's responses range
    over: the whole domain when `op` may return a value, plus None when
    it may return none."""
    outs = chaos_outputs(op, values)
    return (frozenset(range(values + 1) if outs - {None} else ())
            | (outs & {None}))


# --- bounded event set ---

def events_of_program(p: ClientProgram, obj: ObjectDef,
                      bound: int = 2, values: int = 3) -> frozenset:
    """All events the bounded program can produce: every reachable step
    with every value it could write (loops unrolled to `bound`), plus
    responses and observations for every invocation over op_outputs."""
    if bound < 1 or values < 1:
        raise ValueError("bounds must be at least 1")
    domain = range(values + 1)
    events = set()
    invocations = []

    for th in sorted(p.threads):
        code = p.code[th]
        # depth-first over (pc, loop counters, labels, calls) on an
        # explicit stack, so that long thread bodies do not hit the
        # recursion limit
        start = (settled(code, 1), (), (), 0)
        seen = {start}
        stack = [start]

        def visit(pc, ctrs, labels, calls):
            key = (settled(code, pc), ctrs, labels, calls)
            if key not in seen:
                seen.add(key)
                stack.append(key)

        while stack:
            pc, ctrs, labels, calls = stack.pop()
            ins = code[pc]
            op = ins[0]
            if op == RETURN:
                continue  # the thread has run to its end
            if op == CALL:
                _, _, name, arg, _ = ins
                if name not in obj.ops:
                    raise ValueError(f"unknown operation {name!r}")
                opid = OpId(th, name, calls)
                events.add(Inv(opid, arg % (values + 1) if arg is not None
                               else None))
                invocations.append((opid, name))
                visit(pc + 1, ctrs, labels, calls + 1)
                continue
            if op not in (SET, STORE, AWAIT, FENCE, IF, LOOP):
                raise TypeError(f"unexpected client instruction: {ins}")
            if op == LOOP:
                _, _, _, body, exit_, entry = ins
                k, outer = (bound, ctrs) if entry else (ctrs[-1], ctrs[:-1])
                if k == 0:
                    continue  # loop budget exhausted: the thread is stuck
            lab = ins[1]
            inst, labels2 = _bump(labels, lab)
            sid = StepId(th, lab, inst)
            if op == STORE:
                _, _, var, expr = ins
                vals = ([expr.value % (values + 1)]
                        if isinstance(expr, Lit) else domain)
                for v in vals:
                    events.add(ProgStep(sid, (var, v)))
                    events.add(ProgObs(sid, var, v))
            else:
                events.add(ProgStep(sid))
            if op == LOOP:
                visit(body, outer + (k - 1,), labels2, calls)
                visit(exit_, outer, labels2, calls)
            elif op == IF:
                visit(pc + 1, ctrs, labels2, calls)
                visit(ins[3], ctrs, labels2, calls)
            else:
                visit(pc + 1, ctrs, labels2, calls)

    for opid, name in invocations:
        for out in op_outputs(obj.ops[name], values):
            events.add(Res(opid, out))
            events.add(OpObs(opid, out))
    return frozenset(events)


def _bump(labels: tuple, lab: str):
    d = dict(labels)
    inst = d.get(lab, 0)
    d[lab] = inst + 1
    return inst, tuple(sorted(d.items()))
