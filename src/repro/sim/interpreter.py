"""IR interpreter: profiling runs and allocated-code execution.

Two modes share one execution engine:

* **Symbolic mode** — virtual registers live in a per-activation frame.
  Used to (a) profile block execution counts, the paper's A factor, and
  (b) produce reference outputs for semantic-equivalence checking.
* **Allocated mode** — virtual registers are mapped through a register
  assignment onto a :class:`~repro.sim.state.RegisterState` with real
  x86 overlap semantics.  Caller-saved registers are scrambled at calls,
  callee-saved registers are save/restored (modelling prologue/epilogue
  spills), and division clobbers its implicit register — so an incorrect
  allocation produces wrong *values*, not just a failed assertion.  A
  call result arrives in the return-value register of an allocated
  caller and in the frame of a symbolic one.

Each function body is decoded once per :class:`Interpreter`, on its
first call, into one list of closures per basic block.  Every static
fact is settled at decode time: the mode, each operand's kind (a
constant, a frame cell, a register bit field, a memory cell), the wrap
of each type width and the ALU operator.  A frame is a flat list: the
symbolic mode's vreg cells first (``None`` until written), then the
base addresses of the function's local slots, whose list is also
computed once.  Every runtime check stays at execution time: a read of
an undefined or unassigned vreg faults only when executed, so dead code
never does.

The interpreter also produces the dynamic statistics behind the paper's
Table 3 — executions of allocator-inserted spill loads/stores/remats/
copies (via instruction ``origin`` tags), opcode counts and total cycle
cost — without per-step bookkeeping.  Each decoded block carries one
static summary (steps, cycles, opcode, origin and COPY counts) and a
hit counter; the run's totals are the summaries times the hit counts.
Cycle constants are integer-valued floats, so the totals are exact.  The
step limit is checked at block entry against the whole block's steps.
"""

from __future__ import annotations

import operator
import struct
import weakref
from dataclasses import dataclass, field

from ..ir import (
    COND_OPERATORS,
    I32,
    Address,
    Function,
    Immediate,
    Instr,
    Module,
    Opcode,
    VirtualRegister,
)
from ..target import RealRegister, TargetMachine, instr_cycles
from .state import CLOBBER_PATTERN, Memory, RegisterState, SimulationError

#: deepest call nesting a run may reach
MAX_CALL_DEPTH = 200


@dataclass(slots=True)
class RunResult:
    """Outcome and dynamic statistics of one execution."""

    return_value: int | None
    steps: int = 0
    cycles: float = 0.0
    #: block execution counts per function: {fn: {block: count}}
    block_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    #: executions of allocator-inserted code by origin tag
    origin_counts: dict[str, int] = field(default_factory=dict)
    #: dynamic count of executed COPY instructions per function
    copy_executions: dict[str, int] = field(default_factory=dict)
    #: dynamic execution count per opcode — spill-overhead rows are
    #: computed as allocated-minus-original differences of these
    opcode_counts: dict[Opcode, int] = field(default_factory=dict)

    def blocks_of(self, fn_name: str) -> dict[str, int]:
        return self.block_counts.get(fn_name, {})


@dataclass(slots=True)
class AllocatedFunction:
    """A rewritten function plus its register assignment."""

    function: Function
    assignment: dict[str, RealRegister]


@dataclass(slots=True, eq=False)
class _Block:
    """One decoded basic block and its static accounting summary."""

    name: str
    #: straight-line closures, each called as ``op(frame)``
    ops: tuple = ()
    #: ``term(frame)`` returns the successor's index in the function's
    #: block list; ``None`` for a RET block
    term: object = None
    #: RET blocks: ``result(frame)`` gives the return value (or None)
    result: object = None
    steps: int = 0
    cycles: float = 0.0
    opcodes: tuple[tuple[Opcode, int], ...] = ()
    origins: tuple[tuple[str, int], ...] = ()
    copies: int = 0
    #: executions in the current run
    hits: int = 0


@dataclass(slots=True, eq=False)
class _Code:
    """One decoded function.

    The decoded code holds no reference cycle (successors are indices,
    calls reach the interpreter through a weak proxy), so an
    interpreter and its simulated memory are freed as soon as it is
    dropped, not at the next cyclic collection.
    """

    #: the entry block first
    blocks: list[_Block]
    #: symbolic mode's vreg cells at the head of every frame
    n_vregs: int
    #: slots allocated per activation, in frame order after the vregs
    local_slots: tuple
    #: per parameter: (frame index or None, global address, type)
    params: tuple


class Interpreter:
    """Executes a module, symbolically or through register assignments.

    Functions present in ``allocations`` run their rewritten bodies on
    the real register file; other functions run symbolically (this
    mirrors the paper's setup, where functions the IP allocator did not
    attempt keep GCC's allocation).
    """

    def __init__(
        self,
        module: Module,
        target: TargetMachine | None = None,
        allocations: dict[str, AllocatedFunction] | None = None,
        max_steps: int = 20_000_000,
        scramble_clobbers: bool = True,
    ) -> None:
        self.module = module
        self.target = target
        self.allocations = allocations or {}
        self.max_steps = max_steps
        self.scramble_clobbers = scramble_clobbers
        if self.allocations and target is None:
            raise ValueError("allocated-mode execution requires a target")
        self.memory = Memory()
        self.registers: RegisterState | None = (
            RegisterState(target.register_file)
            if target is not None else None
        )
        # Globals sit at the bottom of memory at the same addresses on
        # every run, so decoded code binds them as constants.
        self._globals = {
            slot.name: self.memory.allocate(slot)
            for slot in module.globals.values()
        }
        self._heap = self.memory.mark
        self._code: dict[str, _Code] = {}
        self._steps = 0
        self._depth = 0

    # -- public API -------------------------------------------------------

    def run(self, fn_name: str, args: list[int] | None = None) -> RunResult:
        """Execute ``fn_name`` with integer arguments; return statistics."""
        self.memory.reset(self._heap)
        if self.registers is not None:
            self.registers.reset()
        for code in self._code.values():
            for blk in code.blocks:
                blk.hits = 0
        self._steps = 0
        self._depth = 0
        value = self._call(fn_name, list(args or ()))
        return self._result(value)

    def _result(self, value: int | None) -> RunResult:
        """Block summaries times hit counts: the run's statistics."""
        result = RunResult(return_value=value, steps=self._steps)
        cycles = 0.0
        opcodes = result.opcode_counts
        origins = result.origin_counts
        for name, code in self._code.items():
            counts = {}
            copies = 0
            for blk in code.blocks:
                n = blk.hits
                if not n:
                    continue
                counts[blk.name] = n
                cycles += n * blk.cycles
                copies += n * blk.copies
                for op, k in blk.opcodes:
                    opcodes[op] = opcodes.get(op, 0) + n * k
                for origin, k in blk.origins:
                    origins[origin] = origins.get(origin, 0) + n * k
            if counts:
                result.block_counts[name] = counts
            if copies:
                result.copy_executions[name] = copies
        result.cycles = cycles
        return result

    # -- calls -------------------------------------------------------------

    def _call(self, name: str, args: list[int]) -> int | None:
        if self._depth > MAX_CALL_DEPTH:
            raise SimulationError("call depth exceeded")
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = self._decode(name)

        memory = self.memory
        mark = memory.mark
        frame = [None] * code.n_vregs
        frame += [memory.allocate(slot) for slot in code.local_slots]
        if len(args) != len(code.params):
            raise SimulationError(
                f"@{name} expects {len(code.params)} args, got {len(args)}"
            )
        for (index, addr, type_), value in zip(code.params, args):
            memory.write(
                frame[index] if index is not None else addr,
                type_.wrap(value), type_,
            )

        limit = self.max_steps
        blocks = code.blocks
        blk = blocks[0]
        while True:
            blk.hits += 1
            steps = self._steps + blk.steps
            if steps > limit:
                raise SimulationError("step limit exceeded")
            self._steps = steps
            for op in blk.ops:
                op(frame)
            term = blk.term
            if term is None:
                break
            blk = blocks[term(frame)]
        value = blk.result(frame) if blk.result is not None else None
        memory.free_to(mark)
        return value

    # -- decoding ------------------------------------------------------------

    def _decode(self, name: str) -> _Code:
        alloc = self.allocations.get(name)
        if alloc is not None:
            return _Decoder(self, alloc.function, alloc.assignment).code()
        fn = self.module.functions.get(name)
        if fn is None:
            raise SimulationError(f"call to unknown function @{name}")
        return _Decoder(self, fn, None).code()


def _fault(message: str):
    """A closure that raises ``message`` when (and only when) run."""

    def fault(*_):
        raise SimulationError(message)

    return fault


def _const(value):
    return lambda f: value


def _address_type(addr: Address, fallback=I32):
    return addr.slot.type if addr.slot is not None else fallback


def _wrap_consts(type_) -> tuple[int, int]:
    """``(half, mask)``: ``((v + half) & mask) - half`` wraps ``v``."""
    return 1 << (type_.bits - 1), (1 << type_.bits) - 1


#: memory cell codecs by width in bytes: (signed unpack, unsigned pack)
_CELLS = {
    n: (struct.Struct("<" + s).unpack_from, struct.Struct("<" + u).pack_into)
    for n, s, u in ((1, "b", "B"), (2, "h", "H"), (4, "i", "I"))
}


def _divide(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("division by zero")
    return int(a / b)  # x86 IDIV truncates toward zero


def _remainder(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("division by zero")
    return a - int(a / b) * b


def _alu(op: Opcode, type_):
    """The unwrapped result function of an ALU opcode at ``type_``."""
    if op is Opcode.SHL:
        return lambda a, b: a << (b & 31)
    if op is Opcode.SHR:
        mask = (1 << type_.bits) - 1
        return lambda a, b: (a & mask) >> (b & 31)
    if op is Opcode.SAR:  # arithmetic shift of the signed value
        return lambda a, b: a >> (b & 31)
    fn = _ALU.get(op)
    if fn is None:
        return _fault(f"unhandled opcode {op}")
    return fn


_ALU = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.IMUL: operator.mul,
    Opcode.NEG: operator.neg,
    Opcode.NOT: operator.invert,
    Opcode.DIV: _divide,
    Opcode.MOD: _remainder,
}


class _Decoder:
    """Decodes one function into :class:`_Code` for one interpreter.

    Operand readers are either an ``int`` (an immediate) or a closure
    ``reader(frame) -> int``; address resolvers likewise (an ``int`` for
    a global with no registers).
    """

    def __init__(self, interp: Interpreter, fn: Function, assignment):
        self.interp = interp
        self.fn = fn
        self.assignment = assignment
        self.mem = interp.memory.bytes
        self.top = len(self.mem)
        self.globals = interp._globals
        target = interp.target
        self.regs = interp.registers
        self.fams = self.regs.families if self.regs is not None else None
        self.scramble = interp.scramble_clobbers
        self.div_clobbers = (
            assignment is not None and target.irregular
            and interp.scramble_clobbers
        )
        # Frame layout: vreg cells (symbolic mode only), then locals.
        self.vreg_index: dict[str, int] = {}
        if assignment is None:
            for block in fn.blocks:
                for instr in block.instrs:
                    for v in (*instr.defs(), *instr.uses()):
                        self.vreg_index.setdefault(
                            v.name, len(self.vreg_index)
                        )
        self.local_slots = tuple(
            slot for slot in fn.slots.values()
            if slot.name not in self.globals
        )
        self.slot_index = {
            slot.name: len(self.vreg_index) + j
            for j, slot in enumerate(self.local_slots)
        }

    def code(self) -> _Code:
        fn = self.fn
        if not fn.blocks:
            raise SimulationError(f"@{fn.name} has no blocks")
        blocks = [_Block(b.name) for b in fn.blocks]  # entry first
        self.labels = {b.name: i for i, b in enumerate(blocks)}
        for blk, block in zip(blocks, fn.blocks):
            self._block(blk, block.instrs)
        params = []
        for slot in fn.params:
            index = self.slot_index.get(slot.name)
            addr = self.globals.get(slot.name)
            if index is None and addr is None:
                raise SimulationError(f"unknown slot @{slot.name}")
            params.append((index, addr, slot.type))
        return _Code(
            blocks=blocks,
            n_vregs=len(self.vreg_index),
            local_slots=self.local_slots,
            params=tuple(params),
        )

    # -- blocks -------------------------------------------------------------

    def _block(self, blk: _Block, instrs: list[Instr]) -> None:
        ops = []
        executed = []
        for instr in instrs:
            executed.append(instr)
            op = instr.opcode
            if op is Opcode.JUMP:
                blk.term = self._goto(instr.targets[0])
                break
            if op is Opcode.CJUMP:
                blk.term = self._cjump(instr)
                break
            if op is Opcode.RET:
                blk.result = (
                    self._callable(self._read(instr.srcs[0]))
                    if instr.srcs else None
                )
                break
            ops.append(self._instr(instr))
        else:
            blk.term = _fault(f"block {blk.name} fell through")
        blk.ops = tuple(ops)
        blk.steps = len(executed)
        blk.cycles = sum(instr_cycles(i) for i in executed)
        opcodes: dict[Opcode, int] = {}
        origins: dict[str, int] = {}
        for i in executed:
            opcodes[i.opcode] = opcodes.get(i.opcode, 0) + 1
            if i.origin is not None:
                origins[i.origin] = origins.get(i.origin, 0) + 1
        blk.opcodes = tuple(opcodes.items())
        blk.origins = tuple(origins.items())
        blk.copies = opcodes.get(Opcode.COPY, 0)

    def _goto(self, label: str):
        index = self.labels.get(label)
        if index is None:
            return _fault(f"jump to unknown block {label}")
        return lambda f: index

    def _cjump(self, instr: Instr):
        taken = self.labels.get(instr.targets[0])
        other = self.labels.get(instr.targets[1])
        if taken is None or other is None:
            return _fault(f"jump to unknown block in {instr}")
        cmp = COND_OPERATORS[instr.cond]
        a = self._callable(self._read(instr.srcs[0]))
        b = self._read(instr.srcs[1])
        if isinstance(b, int):
            return lambda f: taken if cmp(a(f), b) else other
        return lambda f: taken if cmp(a(f), b(f)) else other

    # -- instructions -------------------------------------------------------

    def _instr(self, instr: Instr):
        op = instr.opcode
        if instr.mem_dst is not None:
            return self._rmw(instr)
        if op is Opcode.CALL:
            return self._call(instr)
        if op in (Opcode.LI, Opcode.COPY):
            write = self._writer(instr.dst)
            src = self._read(instr.srcs[0])
            if isinstance(src, int):
                return lambda f: write(f, src)
            return lambda f: write(f, src(f))
        if op is Opcode.LOAD:
            write = self._writer(instr.dst)
            load = self._load(self._address(instr.addr), instr.dst.type)
            return lambda f: write(f, load(f))
        if op is Opcode.STORE:
            return self._store(instr)
        if op in (Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC):
            src = instr.srcs[0]
            src_type = (
                _address_type(src) if isinstance(src, Address) else src.type
            )
            read = self._callable(self._read(src))
            write = self._writer(instr.dst)
            if op is Opcode.ZEXT:
                mask = (1 << src_type.bits) - 1
                return lambda f: write(f, read(f) & mask)
            return lambda f: write(f, read(f))
        return self._alu_instr(instr)

    def _alu_instr(self, instr: Instr):
        dst = instr.dst
        fn = _alu(instr.opcode, dst.type)
        reads = [
            self._read(s, dst.type if isinstance(s, Address) else None)
            for s in instr.srcs
        ]
        write = self._writer(dst)
        if self.div_clobbers and instr.opcode in (Opcode.DIV, Opcode.MOD):
            # x86 division clobbers the sibling implicit register;
            # scramble it *before* writing the result in case dst
            # lives there.
            fams = self.fams
            other = "D" if instr.opcode is Opcode.DIV else "A"
            a, b = (self._callable(r) for r in reads)

            def divide(f):
                value = fn(a(f), b(f))
                fams[other] = CLOBBER_PATTERN
                write(f, value)

            return divide
        if len(reads) == 2 and not isinstance(reads[0], int):
            a, b = reads
            if isinstance(b, int):
                return lambda f: write(f, fn(a(f), b))
            return lambda f: write(f, fn(a(f), b(f)))
        if len(reads) == 1 and not isinstance(reads[0], int):
            a = reads[0]
            return lambda f: write(f, fn(a(f)))
        reads = [self._callable(r) for r in reads]
        return lambda f: write(f, fn(*[r(f) for r in reads]))

    def _rmw(self, instr: Instr):
        """§5.2 combined memory use/def: ``op [mem], src``."""
        slot_type = _address_type(instr.mem_dst)
        fn = _alu(instr.opcode, slot_type)
        addr = self._callable(self._address(instr.mem_dst))
        reads = [self._callable(self._read(s, slot_type)) for s in instr.srcs]
        mem, limit = self.mem, self.top - slot_type.bytes
        unpack, pack = _CELLS[slot_type.bytes]
        mask = (1 << slot_type.bits) - 1

        def rmw(f):
            a = addr(f)
            if a < 16 or a > limit:
                raise SimulationError(f"bad read at {a:#x}")
            current = unpack(mem, a)[0]
            pack(mem, a, fn(current, *[r(f) for r in reads]) & mask)

        return rmw

    def _store(self, instr: Instr):
        slot_type = _address_type(instr.addr, instr.srcs[0].type)
        addr = self._callable(self._address(instr.addr))
        src = self._callable(self._read(instr.srcs[0]))
        mem, limit = self.mem, self.top - slot_type.bytes
        pack = _CELLS[slot_type.bytes][1]
        mask = (1 << slot_type.bits) - 1

        def store(f):
            a = addr(f)
            value = src(f)
            if a < 16 or a > limit:
                raise SimulationError(f"bad write at {a:#x}")
            pack(mem, a, value & mask)

        return store

    def _call(self, instr: Instr):
        interp = weakref.proxy(self.interp)
        callee = instr.callee
        reads = [self._callable(self._read(s)) for s in instr.srcs]
        dst = instr.dst
        if self.assignment is None:
            write = self._writer(dst) if dst is not None else None

            def call(f):
                args = [r(f) for r in reads]
                interp._depth += 1
                value = interp._call(callee, args)
                interp._depth -= 1
                if write is not None:
                    if value is None:
                        raise SimulationError(f"@{callee} returned no value")
                    write(f, value)

            return call

        regs = self.regs
        target = interp.target
        clobbers = tuple(target.caller_saved_families) if self.scramble \
            else ()
        # The machine delivers results in the return-value register;
        # the caller reads the destination from its *assigned*
        # register, so a mis-assignment reads junk.
        ret_reg = (
            target.family_reg(target.result_family, dst.type.bits)
            if dst is not None else None
        )

        def call(f):
            args = [r(f) for r in reads]
            snap = regs.snapshot()
            interp._depth += 1
            value = interp._call(callee, args)
            interp._depth -= 1
            # Callee-saved families restored (prologue/epilogue saves);
            # caller-saved families scrambled.
            regs.restore(snap)
            for fam in clobbers:
                regs.clobber_family(fam)
            if dst is not None:
                if value is None:
                    raise SimulationError(f"@{callee} returned no value")
                if ret_reg is None:
                    raise SimulationError(
                        f"no {dst.type.bits}-bit result register"
                    )
                regs.write(ret_reg, value)

        return call

    # -- operands -----------------------------------------------------------

    @staticmethod
    def _callable(read):
        return _const(read) if isinstance(read, int) else read

    def _read(self, operand, as_type=None):
        """Reader of ``operand``; ``as_type`` overrides the interpreted
        width (memory operands of typed instructions, §5.2 sources)."""
        if isinstance(operand, Immediate):
            return operand.value
        if isinstance(operand, VirtualRegister):
            return self._vreg(operand, as_type or operand.type)
        if isinstance(operand, Address):
            return self._load(
                self._address(operand), as_type or _address_type(operand)
            )
        return _fault(f"unreadable operand {operand!r}")

    def _vreg(self, vreg: VirtualRegister, type_):
        name = vreg.name
        half, mask = _wrap_consts(type_)
        if self.assignment is None:
            i = self.vreg_index[name]

            def read(f):
                v = f[i]
                if v is None:
                    raise SimulationError(f"read of undefined %{name}")
                return ((v + half) & mask) - half

            return read

        reg = self.assignment.get(name)
        if reg is None:
            return _fault(f"%{name} has no register assignment")
        fams, fam = self.fams, reg.family
        lo, hi = reg.part.bit_range
        if lo == 0 and hi == 32 and type_.bits == 32:
            return lambda f: (fams[fam] ^ half) - half
        width_mask = (1 << (hi - lo)) - 1
        return lambda f: (
            (((fams[fam] >> lo) & width_mask) + half) & mask
        ) - half

    def _writer(self, vreg: VirtualRegister):
        """``write(frame, value)``: store ``value`` wrapped to the
        vreg's type into its cell or its register's bit field."""
        name = vreg.name
        type_ = vreg.type
        half, mask = _wrap_consts(type_)
        if self.assignment is None:
            i = self.vreg_index[name]

            def write(f, v):
                f[i] = ((v + half) & mask) - half

            return write

        reg = self.assignment.get(name)
        if reg is None:
            return _fault(f"%{name} has no register assignment")
        fams, fam = self.fams, reg.family
        lo, hi = reg.part.bit_range
        if lo == 0 and hi == 32 and type_.bits == 32:
            def write(f, v):
                fams[fam] = v & 0xFFFFFFFF
        else:
            width_mask = (1 << (hi - lo)) - 1
            keep = ~(width_mask << lo)

            def write(f, v):
                v = ((v + half) & mask) - half
                fams[fam] = (fams[fam] & keep) | ((v & width_mask) << lo)
        return write

    def _address(self, addr: Address):
        """Resolver of an effective address: an ``int`` when static."""
        disp = addr.disp
        cell = None
        if addr.slot is not None:
            name = addr.slot.name
            cell = self.slot_index.get(name)
            if cell is None:
                if name not in self.globals:
                    return _fault(f"unknown slot @{name}")
                disp += self.globals[name]
        if addr.base is None and addr.index is None:
            if cell is None:
                return disp
            return lambda f: f[cell] + disp
        zero = _const(0)
        base = (
            self._vreg(addr.base, addr.base.type)
            if addr.base is not None else zero
        )
        index = (
            self._vreg(addr.index, addr.index.type)
            if addr.index is not None else zero
        )
        scale = addr.scale
        if cell is None:
            return lambda f: disp + base(f) + index(f) * scale
        return lambda f: f[cell] + disp + base(f) + index(f) * scale

    def _load(self, addr, type_):
        """Reader of the ``type_`` cell at resolver ``addr``."""
        mem, limit = self.mem, self.top - type_.bytes
        unpack = _CELLS[type_.bytes][0]
        if isinstance(addr, int):
            if addr < 16 or addr > limit:
                return _fault(f"bad read at {addr:#x}")
            return lambda f: unpack(mem, addr)[0]

        def load(f):
            a = addr(f)
            if a < 16 or a > limit:
                raise SimulationError(f"bad read at {a:#x}")
            return unpack(mem, a)[0]

        return load
