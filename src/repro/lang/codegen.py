"""Mini-C to IR code generation.

Lowering decisions that matter to register allocation:

* scalar parameters are loaded from their incoming stack slots into
  virtual registers at function entry — making them *predefined memory
  values* the IP allocator can coalesce (§5.5);
* scalar locals live in virtual registers (as after GCC's pseudo
  allocation), arrays and globals in memory slots;
* assignments produce explicit ``COPY`` instructions, exactly the copy
  population both allocators try to delete;
* arithmetic is emitted in plain three-address form — the two-address
  x86 constraint is left entirely to the allocators (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import (
    COND_OPERATORS,
    I8,
    I32,
    Address,
    Cond,
    Immediate,
    IntType,
    IRBuilder,
    MemorySlot,
    Module,
    Opcode,
    Operand,
    SlotKind,
    VirtualRegister,
    plain,
)
from . import ast

_CMP = {
    "==": Cond.EQ, "!=": Cond.NE, "<": Cond.LT,
    "<=": Cond.LE, ">": Cond.GT, ">=": Cond.GE,
}

_ARITH = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "&": "and_", "|": "or_", "^": "xor", "<<": "shl", ">>": "sar",
}


class CodeGenError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Signature:
    return_type: IntType | None
    param_types: tuple[IntType, ...]


class _FunctionCodeGen:
    def __init__(self, module: Module, fn_ast: ast.FunctionDef,
                 signatures: dict[str, Signature]) -> None:
        self.module = module
        self.fn_ast = fn_ast
        self.signatures = signatures
        params = [
            MemorySlot(p.name, p.type, SlotKind.PARAM)
            for p in fn_ast.params
        ]
        self.b = IRBuilder(fn_ast.name, params, fn_ast.return_type)
        #: lexical scopes: each maps a source name to a vreg (scalars)
        #: or a memory slot (local arrays)
        self.scopes: list[dict[str, VirtualRegister | MemorySlot]] = [{}]
        self.labels = 0
        self.loop_stack: list[tuple[str, str]] = []  # (continue, break)
        self.terminated = False

    def label(self, hint: str) -> str:
        self.labels += 1
        return f"{hint}{self.labels}"

    # -- lexical scoping ---------------------------------------------------

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def declare(self, name: str, entity) -> None:
        if name in self.scopes[-1]:
            raise CodeGenError(f"redeclaration of {name}")
        self.scopes[-1][name] = entity

    # -- plumbing around terminated blocks --------------------------------

    def start_block(self, name: str) -> None:
        self.b.block(name)
        self.terminated = False

    def goto(self, target: str) -> None:
        if not self.terminated:
            self.b.jump(target)
            self.terminated = True

    # -- top level ---------------------------------------------------------

    def generate(self):
        self.start_block("entry")
        used = _names_used(self.fn_ast.body)
        for p in self.fn_ast.params:
            if p.name in used:
                slot = self.b.function.slots[p.name]
                self.scopes[0][p.name] = self.b.load(slot, hint=p.name)
        self.statement(self.fn_ast.body)
        if not self.terminated:
            if self.fn_ast.return_type is not None:
                self.b.ret(self.coerce(Immediate(0, I32),
                                       self.fn_ast.return_type))
            else:
                self.b.ret()
        fn = self.b.done()
        _prune_unterminated(fn)
        return fn

    # -- typing helpers -------------------------------------------------------

    def coerce(self, value: Operand, to: IntType) -> Operand:
        if value.type == to:
            return value
        if isinstance(value, Immediate):
            return Immediate(to.wrap(value.value), to)
        if to.bits > value.type.bits:
            return self.b.sext(value, to)
        return self.b.trunc(value, to)

    def common_type(self, a: Operand, b: Operand) -> IntType:
        return a.type if a.type.bits >= b.type.bits else b.type

    def as_vreg(self, value: Operand) -> VirtualRegister:
        if isinstance(value, VirtualRegister):
            return value
        return self.b.li(value.value, value.type)

    # -- expressions --------------------------------------------------------

    def expression(self, e: ast.Expr) -> Operand:
        if isinstance(e, ast.Num):
            return Immediate(I32.wrap(e.value), I32)
        if isinstance(e, ast.Var):
            return self.read_var(e.name)
        if isinstance(e, ast.ArrayRef):
            slot, addr = self.array_address(e)
            return self.b.load(addr, slot.type)
        if isinstance(e, ast.Cast):
            return self.coerce(self.expression(e.operand), e.type)
        if isinstance(e, ast.Unary):
            return self.unary(e)
        if isinstance(e, ast.Binary):
            return self.binary(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        raise CodeGenError(f"unhandled expression {e!r}")

    def read_var(self, name: str) -> Operand:
        entity = self.lookup(name)
        if isinstance(entity, VirtualRegister):
            return entity
        if isinstance(entity, MemorySlot):
            raise CodeGenError(f"array {name} used as a scalar")
        if name in self.module.globals:
            slot = self.module.globals[name]
            if slot.count > 1:
                raise CodeGenError(f"array {name} used as a scalar")
            self.b.function.add_slot(slot)
            return self.b.load(slot, hint=name)
        raise CodeGenError(f"undefined variable {name}")

    def array_address(self, ref: ast.ArrayRef):
        entity = self.lookup(ref.name)
        slot = entity if isinstance(entity, MemorySlot) else \
            self.module.globals.get(ref.name)
        if slot is None or slot.count == 1:
            raise CodeGenError(f"{ref.name} is not an array")
        self.b.function.add_slot(slot)
        index = self.expression(ref.index)
        if isinstance(index, Immediate):
            return slot, Address(
                slot=slot, disp=index.value * slot.type.bytes
            )
        index = self.as_vreg(self.coerce(index, I32))
        scale = slot.type.bytes
        return slot, Address(slot=slot, index=index, scale=scale)

    def unary(self, e: ast.Unary) -> Operand:
        if e.op == "!":
            return self.bool_value(e)
        value = self.expression(e.operand)
        if isinstance(value, Immediate):
            folded = -value.value if e.op == "-" else ~value.value
            return Immediate(value.type.wrap(folded), value.type)
        if e.op == "-":
            return self.b.neg(value)
        return self.b.not_(value)

    def binary(self, e: ast.Binary) -> Operand:
        if e.op in _CMP or e.op in ("&&", "||"):
            return self.bool_value(e)
        left = self.expression(e.left)
        right = self.expression(e.right)
        type_ = self.common_type(left, right)
        if isinstance(left, Immediate) and isinstance(right, Immediate):
            return Immediate(
                type_.wrap(_fold(e.op, left.value, right.value, type_)),
                type_,
            )
        if e.op in ("<<", ">>"):
            # Shift width follows the left operand (count is a count).
            a = self.as_vreg(self.coerce(left, left.type))
            return getattr(self.b, _ARITH[e.op])(a, right)
        a = self.as_vreg(self.coerce(left, type_))
        bv = self.coerce(right, type_)
        return getattr(self.b, _ARITH[e.op])(a, bv)

    def bool_value(self, e: ast.Expr) -> Operand:
        """Materialise a condition as 0/1 through a diamond."""
        t_label = self.label("btrue")
        f_label = self.label("bfalse")
        join = self.label("bjoin")
        result = self.b.vreg("flag", I32)
        self.branch(e, t_label, f_label)
        self.start_block(t_label)
        self._li_into(result, 1)
        self.goto(join)
        self.start_block(f_label)
        self._li_into(result, 0)
        self.goto(join)
        self.start_block(join)
        return result

    def _li_into(self, reg: VirtualRegister, value: int) -> None:
        from ..ir import Instr

        self.b.emit(Instr(Opcode.LI, dst=reg,
                          srcs=(Immediate(value, reg.type),)))

    def call(self, e: ast.Call) -> Operand:
        sig = self.signatures.get(e.name)
        if sig is None:
            raise CodeGenError(f"call to undefined function {e.name}")
        if len(e.args) != len(sig.param_types):
            raise CodeGenError(f"wrong arity calling {e.name}")
        args = [
            self.coerce(self.expression(a), t)
            for a, t in zip(e.args, sig.param_types)
        ]
        result = self.b.call(e.name, args, sig.return_type)
        return result if result is not None else Immediate(0, I32)

    # -- conditions -------------------------------------------------------

    def branch(self, e: ast.Expr, if_true: str, if_false: str) -> None:
        if isinstance(e, ast.Binary) and e.op in _CMP:
            left = self.expression(e.left)
            right = self.expression(e.right)
            type_ = self.common_type(left, right)
            a = self.coerce(left, type_)
            bv = self.coerce(right, type_)
            if isinstance(a, Immediate) and isinstance(bv, Immediate):
                taken = COND_OPERATORS[_CMP[e.op]](a.value, bv.value)
                self.goto(if_true if taken else if_false)
                return
            self.b.cjump(_CMP[e.op], a, bv, if_true, if_false)
            self.terminated = True
            return
        if isinstance(e, ast.Binary) and e.op == "&&":
            mid = self.label("and")
            self.branch(e.left, mid, if_false)
            self.start_block(mid)
            self.branch(e.right, if_true, if_false)
            return
        if isinstance(e, ast.Binary) and e.op == "||":
            mid = self.label("or")
            self.branch(e.left, if_true, mid)
            self.start_block(mid)
            self.branch(e.right, if_true, if_false)
            return
        if isinstance(e, ast.Unary) and e.op == "!":
            self.branch(e.operand, if_false, if_true)
            return
        value = self.expression(e)
        if isinstance(value, Immediate):
            self.goto(if_true if value.value != 0 else if_false)
            return
        self.b.cjump(Cond.NE, value, Immediate(0, value.type),
                     if_true, if_false)
        self.terminated = True

    # -- statements --------------------------------------------------------

    def statement(self, s: ast.Stmt) -> None:
        if self.terminated and not isinstance(s, ast.Block):
            return  # unreachable code after return/break
        if isinstance(s, ast.Block):
            self.scopes.append({})
            try:
                for inner in s.stmts:
                    self.statement(inner)
            finally:
                self.scopes.pop()
        elif isinstance(s, ast.Decl):
            self.declaration(s)
        elif isinstance(s, ast.Assign):
            self.assign(s)
        elif isinstance(s, ast.ExprStmt):
            self.expression(s.expr)
        elif isinstance(s, ast.If):
            self.if_stmt(s)
        elif isinstance(s, ast.While):
            self.while_stmt(s)
        elif isinstance(s, ast.DoWhile):
            self.do_while(s)
        elif isinstance(s, ast.For):
            self.for_stmt(s)
        elif isinstance(s, ast.Return):
            value = None
            if s.value is not None:
                if self.fn_ast.return_type is None:
                    raise CodeGenError("void function returns a value")
                value = self.coerce(self.expression(s.value),
                                    self.fn_ast.return_type)
            elif self.fn_ast.return_type is not None:
                value = Immediate(0, self.fn_ast.return_type)
            self.b.ret(value)
            self.terminated = True
        elif isinstance(s, ast.Break):
            if not self.loop_stack:
                raise CodeGenError("break outside a loop")
            self.goto(self.loop_stack[-1][1])
        elif isinstance(s, ast.Continue):
            if not self.loop_stack:
                raise CodeGenError("continue outside a loop")
            self.goto(self.loop_stack[-1][0])
        else:
            raise CodeGenError(f"unhandled statement {s!r}")

    def declaration(self, s: ast.Decl) -> None:
        if s.count > 1:
            slot_name = s.name
            counter = 0
            while slot_name in self.b.function.slots:
                counter += 1
                slot_name = f"{s.name}.{counter}"
            slot = self.b.slot(slot_name, s.type, SlotKind.ARRAY, s.count)
            self.declare(s.name, slot)
            return
        reg = self.b.vreg(s.name, s.type)
        init = (
            self.coerce(self.expression(s.init), s.type)
            if s.init is not None else Immediate(0, s.type)
        )
        if isinstance(init, Immediate):
            self._li_into(reg, init.value)
        else:
            self.b.copy_into(reg, self.as_vreg(init))
        self.declare(s.name, reg)

    def assign(self, s: ast.Assign) -> None:
        value_expr: ast.Expr = s.value
        if s.op != "=":
            value_expr = ast.Binary(s.op[:-1], s.target, s.value)
        if isinstance(s.target, ast.Var):
            name = s.target.name
            entity = self.lookup(name)
            if isinstance(entity, VirtualRegister):
                reg = entity
                value = self.coerce(self.expression(value_expr), reg.type)
                if isinstance(value, Immediate):
                    self._li_into(reg, value.value)
                else:
                    self.b.copy_into(reg, value)
                return
            if name in self.module.globals:
                slot = self.module.globals[name]
                if slot.count > 1:
                    raise CodeGenError(f"array {name} assigned as scalar")
                self.b.function.add_slot(slot)
                value = self.coerce(self.expression(value_expr), slot.type)
                self.b.store(slot, value)
                return
            raise CodeGenError(f"assignment to undefined {name}")
        slot, addr = self.array_address(s.target)
        value = self.coerce(self.expression(value_expr), slot.type)
        self.b.store(addr, value)

    def if_stmt(self, s: ast.If) -> None:
        then_l = self.label("then")
        join = self.label("ifjoin")
        else_l = self.label("else") if s.otherwise else join
        self.branch(s.cond, then_l, else_l)
        self.start_block(then_l)
        self.statement(s.then)
        self.goto(join)
        if s.otherwise is not None:
            self.start_block(else_l)
            self.statement(s.otherwise)
            self.goto(join)
        self.start_block(join)

    def while_stmt(self, s: ast.While) -> None:
        head = self.label("while")
        body = self.label("body")
        done = self.label("done")
        self.goto(head)
        self.start_block(head)
        self.branch(s.cond, body, done)
        self.start_block(body)
        self.loop_stack.append((head, done))
        self.statement(s.body)
        self.loop_stack.pop()
        self.goto(head)
        self.start_block(done)

    def do_while(self, s: ast.DoWhile) -> None:
        body = self.label("dobody")
        check = self.label("docheck")
        done = self.label("dodone")
        self.goto(body)
        self.start_block(body)
        self.loop_stack.append((check, done))
        self.statement(s.body)
        self.loop_stack.pop()
        self.goto(check)
        self.start_block(check)
        self.branch(s.cond, body, done)
        self.start_block(done)

    def for_stmt(self, s: ast.For) -> None:
        self.scopes.append({})
        try:
            self._for_inner(s)
        finally:
            self.scopes.pop()

    def _for_inner(self, s: ast.For) -> None:
        if s.init is not None:
            self.statement(s.init)
        head = self.label("for")
        body = self.label("forbody")
        step_l = self.label("forstep")
        done = self.label("fordone")
        self.goto(head)
        self.start_block(head)
        if s.cond is not None:
            self.branch(s.cond, body, done)
        else:
            self.goto(body)
        self.start_block(body)
        self.loop_stack.append((step_l, done))
        self.statement(s.body)
        self.loop_stack.pop()
        self.goto(step_l)
        self.start_block(step_l)
        if s.step is not None:
            self.statement(s.step)
        self.goto(head)
        self.start_block(done)


def _fold(op: str, a: int, b: int, type_: IntType) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise CodeGenError("constant division by zero")
        return int(a / b)
    if op == "%":
        if b == 0:
            raise CodeGenError("constant modulo by zero")
        return a - int(a / b) * b
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return a << (b & 31)
    if op == ">>":
        return a >> (b & 31)
    raise CodeGenError(f"cannot fold {op}")


def _names_used(block: ast.Block) -> set[str]:
    names: set[str] = set()

    def walk(node) -> None:
        if isinstance(node, ast.Var):
            names.add(node.name)
        elif isinstance(node, ast.ArrayRef):
            names.add(node.name)
            walk(node.index)
        elif isinstance(node, (ast.Unary, ast.Cast)):
            walk(node.operand)
        elif isinstance(node, ast.Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.Call):
            for a in node.args:
                walk(a)
        elif isinstance(node, ast.Block):
            for s in node.stmts:
                walk(s)
        elif isinstance(node, ast.Decl):
            if node.init is not None:
                walk(node.init)
        elif isinstance(node, ast.Assign):
            walk(node.target)
            walk(node.value)
        elif isinstance(node, ast.ExprStmt):
            walk(node.expr)
        elif isinstance(node, ast.If):
            walk(node.cond)
            walk(node.then)
            if node.otherwise:
                walk(node.otherwise)
        elif isinstance(node, ast.While):
            walk(node.cond)
            walk(node.body)
        elif isinstance(node, ast.DoWhile):
            walk(node.body)
            walk(node.cond)
        elif isinstance(node, ast.For):
            for part in (node.init, node.cond, node.step, node.body):
                if part is not None:
                    walk(part)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                walk(node.value)

    walk(block)
    return names


def _prune_unterminated(fn) -> None:
    """Drop or close codegen artefacts: empty unreachable blocks get an
    explicit terminator so the verifier stays happy."""
    from ..ir import Instr

    reachable = _reachable_blocks(fn)
    kept = []
    for block in fn.blocks:
        if block.name not in reachable:
            continue  # unreachable junk (e.g. code after return)
        if not block.instrs or not block.instrs[-1].is_terminator:
            if fn.return_type is not None:
                block.instrs.append(Instr(
                    Opcode.RET,
                    srcs=(Immediate(0, fn.return_type),),
                ))
            else:
                block.instrs.append(Instr(Opcode.RET))
        kept.append(block)
    fn.blocks = kept
    fn._blocks_by_name = {b.name: b for b in kept}
    fn.refresh_vregs()


def _reachable_blocks(fn) -> set[str]:
    seen = {fn.entry.name}
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        term = block.instrs[-1] if block.instrs else None
        targets = term.targets if term is not None else ()
        for t in targets:
            if t not in seen and fn.has_block(t):
                seen.add(t)
                stack.append(fn.block(t))
    return seen


def compile_program(source: str, name: str = "program") -> Module:
    """Compile mini-C source text to an IR :class:`Module`.

    The result is post-copy-folding (see :mod:`repro.copyfold`), i.e.
    the code an optimising middle end would hand to register
    allocation."""
    from ..copyfold import fold_copies
    from .parser import parse_program

    program = parse_program(source)
    module = Module(name)
    for g in program.globals:
        kind = SlotKind.ARRAY if g.count > 1 else SlotKind.GLOBAL
        module.add_global(MemorySlot(g.name, g.type, kind, g.count))
    signatures = {
        f.name: Signature(f.return_type, tuple(p.type for p in f.params))
        for f in program.functions
    }
    for f in program.functions:
        gen = _FunctionCodeGen(module, f, signatures)
        fn = gen.generate()
        fold_copies(fn)
        module.add_function(fn)
    return module
