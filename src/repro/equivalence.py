"""Translation validation: does an allocation compute what its source does?

:func:`~repro.allocation.validate_allocation` proves an allocation
*legal* for the machine.  :func:`check_equivalence` proves it *faithful*
to the lowered function it was made from, without running it.  The
result cache needs both: a record carries its allocated code as text,
and a hit must not return code that merely fits the registers.

The IP allocator changes a lowered function in a few ways only, and
the check accepts exactly those:

* it inserts spill loads, spill stores, rematerialisations and
  register-to-register copies (tagged with an ``origin``);
* it deletes copies whose two sides got the same register, renaming
  one side to the other, and §5.5-coalesced defining loads;
* it renames each operand to a register-suffixed name (``%x@EAX``),
  swaps the sources of a commutative two-address instruction, turns a
  source into a memory operand (§5.2) and a definition into the
  read-modify-write form (``add [@spill.x], %y@EDX``).

The check first aligns each block of the allocated code with the same
block of the source: every instruction that is not inserted must match
the next source instruction (same opcode, condition, targets, callee,
immediates and addresses, register operands of the same copy-class
and type), and only copies and plain defining loads may be skipped.
It then runs a forward must-analysis over the allocated code: which
locations — register names and memory slots — hold the current value
of which source register.  Every operand of a matched instruction must
be a location that holds the value the source reads there, on every
path.  A write to a register also ends what any overlapping register
held, and a call or division ends what its clobbered families held, so
the facts follow the machine and not only the names.  Memory the
allocation writes but the source does not (a spill store or a
read-modify-write into a source slot) is tracked as diverged: the
source may not read it again, and a diverged global, array or aliased
slot may not reach a call or a return.  A value not yet defined on some
path reaching a use may come from anywhere, as in the source.  The
spill statistics of the allocation must equal what the alignment
counts.
"""

from __future__ import annotations

from .allocation import Allocation, AllocationError
from .ir import (
    Address,
    Function,
    Immediate,
    Instr,
    Opcode,
    SlotKind,
    VirtualRegister,
)
from .target import TargetMachine

#: ``Instr.origin`` of the code the allocators insert
_INSERTED = frozenset({"spill-load", "spill-store", "remat", "copy"})

_EMPTY: frozenset[str] = frozenset()


class _State:
    """Facts at one program point of the allocated code.

    ``regs``/``mem`` map a register name / slot name to the source
    registers whose current value it holds.  A source register in
    ``undef`` is undefined on every path here, so every location holds
    it.  ``const`` maps a source register to the immediate it equals;
    ``dirty`` is the set of source slots whose content the allocation
    changed (a may-set).
    """

    __slots__ = ("regs", "mem", "undef", "const", "dirty")

    def __init__(self, regs, mem, undef, const, dirty) -> None:
        self.regs: dict[str, frozenset[str]] = regs
        self.mem: dict[str, frozenset[str]] = mem
        self.undef: set[str] = undef
        self.const: dict[str, Immediate] = const
        self.dirty: set[str] = dirty

    def copy(self) -> "_State":
        return _State(
            dict(self.regs), dict(self.mem), set(self.undef),
            dict(self.const), set(self.dirty),
        )

    def __eq__(self, other) -> bool:
        return (
            self.regs == other.regs and self.mem == other.mem
            and self.undef == other.undef and self.const == other.const
            and self.dirty == other.dirty
        )

    def holds(self, value: str, operand) -> bool:
        if value in self.undef:
            return True
        if isinstance(operand, VirtualRegister):
            return value in self.regs.get(operand.name, _EMPTY)
        return value in self.mem.get(operand.slot.name, _EMPTY)

    def kill_value(self, value: str) -> None:
        """``value`` is redefined: no location holds its old value."""
        for facts in (self.regs, self.mem):
            for loc, held in list(facts.items()):
                if value in held:
                    if len(held) == 1:
                        del facts[loc]
                    else:
                        facts[loc] = held - {value}
        self.undef.discard(value)
        self.const.pop(value, None)

    def meet(self, other: "_State") -> "_State":
        undef = self.undef & other.undef
        const = {
            v: k for v, k in self.const.items()
            if other.const.get(v) == k or v in other.undef
        }
        for v, k in other.const.items():
            if v in self.undef:
                const.setdefault(v, k)
        return _State(
            _meet_facts(self.regs, self.undef, other.regs, other.undef),
            _meet_facts(self.mem, self.undef, other.mem, other.undef),
            undef, const, self.dirty | other.dirty,
        )


def _meet_facts(fa, ua, fb, ub) -> dict[str, frozenset[str]]:
    """Facts true on both sides; an undefined value holds anywhere."""
    out = {}
    for loc in fa.keys() | fb.keys():
        a = fa.get(loc, _EMPTY)
        b = fb.get(loc, _EMPTY)
        held = (a & b) | {v for v in a - b if v in ub} \
            | {v for v in b - a if v in ua}
        if held:
            out[loc] = frozenset(held)
    return out


def check_equivalence(
    alloc: Allocation, source: Function, target: TargetMachine
) -> None:
    """Prove ``alloc`` computes what ``source`` computes.

    ``source`` is the lowered function the allocation was made from;
    ``alloc`` must already pass
    :func:`~repro.allocation.validate_allocation` (its assignment is
    total).  Raises :class:`~repro.allocation.AllocationError` on the
    first difference.
    """
    _Checker(alloc, source, target).run()


class _Checker:
    def __init__(
        self, alloc: Allocation, source: Function, target: TargetMachine
    ) -> None:
        self.alloc = alloc
        self.fn = alloc.function
        self.source = source
        self.target = target
        overlap = target.register_file.overlap_names
        #: vreg name -> names of the registers sharing its register's bits
        self.hits = {
            name: overlap[reg.name]
            for name, reg in alloc.assignment.items()
        }
        #: source copy-classes: the renaming a deleted copy may cause
        self._root: dict[str, str] = {}
        for _, _, instr in source.instructions():
            if instr.opcode is Opcode.COPY and isinstance(
                instr.srcs[0], VirtualRegister
            ):
                a = self._find(instr.dst.name)
                b = self._find(instr.srcs[0].name)
                if a != b:
                    self._root[a] = b

    def fail(self, where: str, message: str) -> None:
        raise AllocationError(
            f"{self.alloc.fn_name}: {where}: not the source function: "
            f"{message}"
        )

    def _find(self, name: str) -> str:
        while name in self._root:
            name = self._root[name]
        return name

    # -- entry -------------------------------------------------------------

    def run(self) -> None:
        self._check_frame()
        steps = {
            mine.name: self._align(mine.name, mine.instrs, theirs.instrs)
            for mine, theirs in zip(self.fn.blocks, self.source.blocks)
        }
        self._check_stats(steps)
        undefined = {
            r.name for _, _, instr in self.source.instructions()
            for r in instr.uses() + instr.defs()
        }
        entry_state = _State({}, {}, undefined, {}, set())
        states = self._fixpoint(steps, entry_state)
        for block in self.fn.blocks:
            if block.name in states:
                self._transfer(
                    block.name, steps[block.name],
                    states[block.name].copy(), check=True,
                )

    def _check_frame(self) -> None:
        fn, src = self.fn, self.source
        if fn.name != src.name:
            self.fail("function", f"named {fn.name!r}, not {src.name!r}")
        if fn.params != src.params or fn.return_type != src.return_type:
            self.fail("function", "signature differs")
        for name, slot in src.slots.items():
            if fn.slots.get(name) != slot:
                self.fail("slots", f"slot @{name} differs")
        for name, slot in fn.slots.items():
            if name not in src.slots and slot.kind is not SlotKind.SPILL:
                self.fail("slots", f"extra slot @{name} is not a spill slot")
        if [b.name for b in fn.blocks] != [b.name for b in src.blocks]:
            self.fail("blocks", "block names or order differ")

    # -- alignment -----------------------------------------------------------

    def _align(self, bname: str, mine: list[Instr], theirs: list[Instr]):
        """Steps of one block: ``("ins", instr)`` for inserted code,
        ``("del", src_instr)`` for a deleted source instruction and
        ``("op", src_instr, instr, pairings)`` for a match.

        A deleted instruction goes before the inserted code that
        precedes the next match: inserted code only moves values, so
        the source values and memory a deleted copy or load reads are
        the same anywhere in that run, and the earliest place gives the
        inserted code the most facts to move."""
        steps = []
        inserted = []
        i = 0
        for j, instr in enumerate(mine):
            where = f"{bname}[{j}]"
            if instr.origin in _INSERTED:
                self._check_inserted(where, instr)
                inserted.append(("ins", instr))
                continue
            while True:
                if i == len(theirs):
                    self.fail(where, f"{instr} matches no source instruction")
                pairings = self._pairings(theirs[i], instr)
                if pairings:
                    break
                if not _deletable(theirs[i]):
                    self.fail(where, f"{instr} does not match {theirs[i]}")
                steps.append(("del", theirs[i]))
                i += 1
            steps.extend(inserted)
            inserted.clear()
            steps.append(("op", theirs[i], instr, pairings))
            i += 1
        if i != len(theirs):
            self.fail(bname, f"source {theirs[i]} is missing")
        steps.extend(inserted)
        return steps

    def _check_inserted(self, where: str, instr: Instr) -> None:
        """Inserted code moves a value without changing it: one
        register and one whole slot, or two registers, of one type."""
        op = instr.opcode
        dst = instr.dst
        src = instr.srcs[0] if len(instr.srcs) == 1 else None
        ok = {
            "spill-load": op is Opcode.LOAD and dst is not None
            and not instr.srcs and _slot_of_type(instr.addr, dst.type),
            "spill-store": op is Opcode.STORE and dst is None
            and isinstance(src, VirtualRegister)
            and _slot_of_type(instr.addr, src.type),
            "remat": op is Opcode.LI and dst is not None
            and isinstance(src, Immediate) and src.type == dst.type,
            "copy": op is Opcode.COPY and dst is not None
            and isinstance(src, VirtualRegister) and src.type == dst.type,
        }[instr.origin]
        if not ok or instr.mem_dst is not None or instr.targets \
                or instr.callee is not None or instr.cond is not None \
                or (instr.addr is not None and op not in (
                    Opcode.LOAD, Opcode.STORE)):
            self.fail(where, f"malformed {instr.origin} {instr}")

    def _same(self, lowered: VirtualRegister, mine) -> bool:
        if not isinstance(mine, VirtualRegister):
            return False
        base, at, _ = mine.name.rpartition("@")
        return bool(at) and mine.type == lowered.type \
            and self._find(base) == self._find(lowered.name)

    def _operand(self, lowered, mine) -> bool:
        if isinstance(lowered, VirtualRegister):
            return self._same(lowered, mine) \
                or _slot_of_type(mine, lowered.type)
        return isinstance(lowered, Immediate) and lowered == mine

    def _address(self, lowered: Address | None, mine) -> bool:
        if lowered is None or mine is None:
            return lowered is mine
        return (
            lowered.slot == mine.slot and lowered.scale == mine.scale
            and lowered.disp == mine.disp
            and (lowered.base is None) == (mine.base is None)
            and (lowered.index is None) == (mine.index is None)
            and (lowered.base is None or self._same(lowered.base, mine.base))
            and (lowered.index is None
                 or self._same(lowered.index, mine.index))
        )

    def _pairings(self, lowered: Instr, mine: Instr):
        """Ways ``mine`` can be ``lowered`` rewritten: a list of
        ``(tied, sources)``, where ``tied`` is the source register the
        read-modify-write destination reads (or None) and ``sources``
        lines up with ``mine.srcs``.  Empty when it cannot be."""
        if (lowered.opcode is not mine.opcode
                or lowered.cond is not mine.cond
                or lowered.targets != mine.targets
                or lowered.callee != mine.callee
                or lowered.origin != mine.origin
                or lowered.mem_dst is not None
                or not self._address(lowered.addr, mine.addr)):
            return []
        srcs = lowered.srcs
        if mine.mem_dst is not None:
            if lowered.dst is None or mine.dst is not None \
                    or not _slot_of_type(mine.mem_dst, lowered.dst.type):
                return []
            options = [
                (srcs[k], srcs[:k] + srcs[k + 1:])
                for k in range(len(srcs))
                if isinstance(srcs[k], VirtualRegister)
            ]
        else:
            if (lowered.dst is None) != (mine.dst is None):
                return []
            if lowered.dst is not None \
                    and not self._same(lowered.dst, mine.dst):
                return []
            options = [(None, srcs)]
            info = lowered.info
            if info.two_address and info.commutative and len(srcs) == 2:
                options.append((None, (srcs[1], srcs[0])))
        return [
            (tied, rest) for tied, rest in options
            if len(rest) == len(mine.srcs)
            and all(map(self._operand, rest, mine.srcs))
        ]

    def _check_stats(self, steps) -> None:
        counted = {
            "loads": 0, "stores": 0, "remats": 0, "copies_inserted": 0,
            "copies_deleted": 0, "loads_deleted": 0,
            "mem_operand_uses": 0, "rmw_mem_defs": 0,
        }
        by_origin = {
            "spill-load": "loads", "spill-store": "stores",
            "remat": "remats", "copy": "copies_inserted",
        }
        for block_steps in steps.values():
            for step in block_steps:
                if step[0] == "ins":
                    counted[by_origin[step[1].origin]] += 1
                elif step[0] == "del":
                    key = "copies_deleted" \
                        if step[1].opcode is Opcode.COPY else "loads_deleted"
                    counted[key] += 1
                else:
                    mine = step[2]
                    counted["mem_operand_uses"] += sum(
                        isinstance(s, Address) for s in mine.srcs
                    )
                    counted["rmw_mem_defs"] += mine.mem_dst is not None
        stats = self.alloc.stats
        for key, n in counted.items():
            if getattr(stats, key) != n:
                self.fail(
                    "stats", f"{key} is {getattr(stats, key)}, the code "
                             f"has {n}"
                )

    # -- dataflow ------------------------------------------------------------

    def _fixpoint(self, steps, entry_state: _State) -> dict[str, _State]:
        """Block-entry states of the must-analysis (reachable blocks
        only)."""
        preds: dict[str, list[str]] = {b.name: [] for b in self.fn.blocks}
        for b in self.fn.blocks:
            for s in b.successors():
                preds[s].append(b.name)
        entry = self.fn.blocks[0].name
        succs = {b.name: b.successors() for b in self.fn.blocks}
        order = {b.name: k for k, b in enumerate(self.fn.blocks)}
        outs: dict[str, _State] = {}
        ins: dict[str, _State] = {}
        work = [entry]
        pending = {entry}
        while work:
            work.sort(key=order.__getitem__, reverse=True)
            name = work.pop()
            pending.discard(name)
            state = entry_state if name == entry else None
            for p in preds[name]:
                if p in outs:
                    state = outs[p] if state is None else state.meet(outs[p])
            ins[name] = state
            out = self._transfer(name, steps[name], state.copy(), False)
            if name not in outs or outs[name] != out:
                outs[name] = out
                for s in succs[name]:
                    if s not in pending:
                        pending.add(s)
                        work.append(s)
        return ins

    def _write_reg(self, state: _State, name: str, held) -> None:
        """Register ``name`` now holds ``held``; overlapping registers
        lose what they held."""
        regs = state.regs
        if regs:
            hit = self.hits[name]
            assignment = self.alloc.assignment
            for other in [o for o in regs if assignment[o].name in hit]:
                del regs[other]
        if held:
            regs[name] = frozenset(held)
        else:
            regs.pop(name, None)

    def _write_mem(self, state: _State, slot: str, held) -> None:
        """The allocation alone writes ``slot``."""
        if held:
            state.mem[slot] = frozenset(held)
        else:
            state.mem.pop(slot, None)
        if slot in self.source.slots:
            state.dirty.add(slot)

    def _escapes(self, slot: str) -> bool:
        s = self.fn.slots[slot]
        return s.aliased or s.kind in (SlotKind.GLOBAL, SlotKind.ARRAY)

    def _transfer(self, bname, steps, state: _State, check: bool):
        for k, step in enumerate(steps):
            where = f"{bname} step {k}"
            kind = step[0]
            if kind == "ins":
                self._inserted(state, step[1])
            elif kind == "del":
                self._deleted(where, state, step[1], check)
            else:
                self._matched(where, state, step[1], step[2], step[3],
                              check)
        return state

    def _inserted(self, state: _State, instr: Instr) -> None:
        origin = instr.origin
        if origin == "spill-load":
            held = state.mem.get(instr.addr.slot.name, _EMPTY)
            self._write_reg(state, instr.dst.name, held)
        elif origin == "spill-store":
            held = state.regs.get(instr.srcs[0].name, _EMPTY)
            self._write_mem(state, instr.addr.slot.name, held)
        elif origin == "remat":
            imm = instr.srcs[0]
            held = {v for v, k in state.const.items() if k == imm}
            self._write_reg(state, instr.dst.name, held)
        else:  # copy
            held = state.regs.get(instr.srcs[0].name, _EMPTY)
            self._write_reg(state, instr.dst.name, held)

    def _deleted(self, where, state: _State, lowered: Instr, check) -> None:
        d = lowered.dst.name
        if lowered.opcode is Opcode.COPY:
            s = lowered.srcs[0].name
            if s == d:
                return
            const = state.const.get(s)
            undef = s in state.undef
            state.kill_value(d)
            for facts in (state.regs, state.mem):
                for loc, held in list(facts.items()):
                    if s in held:
                        facts[loc] = held | {d}
            if undef:
                state.undef.add(d)
            if const is not None:
                state.const[d] = const
            return
        slot = lowered.addr.slot.name
        if check and slot in state.dirty:
            self.fail(where, f"deleted {lowered} reads a changed @{slot}")
        state.kill_value(d)
        state.mem[slot] = state.mem.get(slot, _EMPTY) | {d}

    def _matched(self, where, state, lowered, mine, pairings, check):
        if check:
            self._check_reads(where, state, lowered, mine, pairings)
        op = lowered.opcode
        # memory the source writes or a callee may write
        if op is Opcode.STORE:
            slot = lowered.addr.slot
            value = lowered.srcs[0]
            if slot is None:
                state.mem.clear()
            elif _slot_of_type(lowered.addr, value.type):
                # both programs now hold the same value there
                state.dirty.discard(slot.name)
                if isinstance(value, VirtualRegister):
                    state.mem[slot.name] = frozenset({value.name})
                else:
                    state.mem.pop(slot.name, None)
            else:
                state.mem.pop(slot.name, None)
        elif op is Opcode.CALL:
            for slot in list(state.mem):
                if self._escapes(slot):
                    del state.mem[slot]
        clobbered = self.target.constraints(mine).clobber_families
        if clobbered:
            keep = mine.dst.name if mine.dst is not None else None
            for name in list(state.regs):
                if name != keep and self.alloc.assignment[name].family \
                        in clobbered:
                    del state.regs[name]
        if lowered.dst is None:
            return
        d = lowered.dst.name
        const = None
        if op is Opcode.LI:
            const = lowered.srcs[0]
        elif op is Opcode.COPY and isinstance(
            lowered.srcs[0], VirtualRegister
        ):
            const = state.const.get(lowered.srcs[0].name)
        state.kill_value(d)
        if mine.mem_dst is not None:
            self._write_mem(state, mine.mem_dst.slot.name, {d})
        else:
            self._write_reg(state, mine.dst.name, {d})
        if const is not None:
            state.const[d] = const

    def _check_reads(self, where, state, lowered, mine, pairings) -> None:
        # Registers of the effective address.
        if lowered.addr is not None:
            for lo, al in ((lowered.addr.base, mine.addr.base),
                           (lowered.addr.index, mine.addr.index)):
                if lo is not None and not state.holds(lo.name, al):
                    self.fail(where, f"{mine}: {al} does not hold "
                                     f"%{lo.name}")
        # The operands, under some pairing.
        for tied, rest in pairings:
            if tied is not None and \
                    not state.holds(tied.name, mine.mem_dst):
                continue
            if all(
                state.holds(lo.name, al)
                for lo, al in zip(rest, mine.srcs)
                if isinstance(lo, VirtualRegister)
            ):
                break
        else:
            self.fail(where, f"{mine}: an operand does not hold the "
                             f"value {lowered} reads")
        # Source memory the allocation has changed.
        read = []
        if lowered.opcode is Opcode.LOAD:
            read.append(lowered.addr.slot)
        escaping = lowered.opcode in (Opcode.CALL, Opcode.RET)
        for slot in state.dirty:
            if escaping and self._escapes(slot):
                self.fail(where, f"{mine} sees the changed @{slot}")
        for slot in read:
            if slot is None and state.dirty or \
                    slot is not None and slot.name in state.dirty:
                self.fail(where, f"{mine} reads a changed slot")


def _plain(addr) -> bool:
    return isinstance(addr, Address) and addr.is_plain_slot


def _slot_of_type(addr, type) -> bool:
    """A plain reference to a one-element slot of ``type``: memory that
    holds a value of that type unchanged."""
    return _plain(addr) and addr.slot.count == 1 and addr.slot.type == type


def _deletable(instr: Instr) -> bool:
    """A copy the postpass may merge away, or a defining load §5.5 may
    coalesce into its slot."""
    if instr.opcode is Opcode.COPY:
        return isinstance(instr.srcs[0], VirtualRegister)
    return instr.opcode is Opcode.LOAD \
        and _slot_of_type(instr.addr, instr.dst.type)
