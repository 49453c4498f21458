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


#: source opcodes that write memory (a call through its callee)
_WRITES_MEMORY = frozenset({Opcode.STORE, Opcode.CALL})
#: source opcodes whose definition may copy a constant
_MOVES = frozenset({Opcode.LI, Opcode.COPY})
#: where a changed global, array or aliased slot would be seen
_ESCAPE_POINTS = frozenset({Opcode.CALL, Opcode.RET})


class _State:
    """Facts at one program point of the allocated code.

    ``regs``/``mem`` map a register name / slot name to the source
    registers whose current value it holds.  ``defined`` is the set of
    source registers some path here has defined: a register not in it
    is undefined on every path, so every location holds it.  ``const``
    maps a source register to the immediate it equals; ``dirty`` is the
    set of source slots whose content the allocation changed (a
    may-set).
    """

    __slots__ = ("regs", "mem", "defined", "const", "dirty")

    def __init__(self, regs, mem, defined, const, dirty) -> None:
        self.regs: dict[str, frozenset[str]] = regs
        self.mem: dict[str, frozenset[str]] = mem
        self.defined: set[str] = defined
        self.const: dict[str, Immediate] = const
        self.dirty: set[str] = dirty

    def copy(self) -> "_State":
        return _State(
            dict(self.regs), dict(self.mem), set(self.defined),
            dict(self.const), set(self.dirty),
        )

    def __eq__(self, other) -> bool:
        return (
            self.regs == other.regs and self.mem == other.mem
            and self.defined == other.defined
            and self.const == other.const and self.dirty == other.dirty
        )

    def holds(self, value: str, operand) -> bool:
        if value not in self.defined:
            return True
        if isinstance(operand, VirtualRegister):
            return value in self.regs.get(operand.name, _EMPTY)
        return value in self.mem.get(operand.slot.name, _EMPTY)

    def kill_value(self, value: str) -> None:
        """``value`` is redefined: no location holds its old value."""
        for facts in (self.regs, self.mem):
            for loc in [loc for loc, held in facts.items() if value in held]:
                held = facts[loc]
                if len(held) == 1:
                    del facts[loc]
                else:
                    facts[loc] = held - {value}
        self.defined.add(value)
        self.const.pop(value, None)

    def meet(self, other: "_State") -> "_State":
        mine, theirs = self.defined, other.defined
        const = {
            v: k for v, k in self.const.items()
            if other.const.get(v) == k or v not in theirs
        }
        for v, k in other.const.items():
            if v not in mine:
                const.setdefault(v, k)
        return _State(
            _meet_facts(self.regs, mine, other.regs, theirs),
            _meet_facts(self.mem, mine, other.mem, theirs),
            mine | theirs, const, self.dirty | other.dirty,
        )


def _meet_facts(fa, da, fb, db) -> dict[str, frozenset[str]]:
    """Facts true on both sides; an undefined value holds anywhere
    (``da``/``db``: the values defined on each side)."""
    out = {}
    for loc in fa.keys() | fb.keys():
        a = fa.get(loc, _EMPTY)
        b = fb.get(loc, _EMPTY)
        held = (a & b) | {v for v in a - b if v not in db} \
            | {v for v in b - a if v not in da}
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
        #: vreg name -> its register's name / family
        self.reg_name = {
            name: reg.name for name, reg in alloc.assignment.items()
        }
        self.family = {
            name: reg.family for name, reg in alloc.assignment.items()
        }
        #: vreg name -> names of the registers sharing its register's bits
        self.hits = {
            name: overlap[reg] for name, reg in self.reg_name.items()
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
        # nothing is defined at entry
        entry_state = _State({}, {}, set(), {}, set())
        flaws = self._fixpoint(steps, entry_state)
        for block in self.fn.blocks:
            flaw = flaws.get(block.name)
            if flaw is not None:
                k, message = flaw
                self.fail(f"{block.name} step {k}", message)

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
        ``("op", src_instr, instr, pairings, clobbered)`` for a match,
        where ``clobbered`` are the families ``instr`` clobbers.

        A deleted instruction goes before the inserted code that
        precedes the next match: inserted code only moves values, so
        the source values and memory a deleted copy or load reads are
        the same anywhere in that run, and the earliest place gives the
        inserted code the most facts to move."""
        steps = []
        inserted = []
        i = 0
        for j, instr in enumerate(mine):
            if instr.origin in _INSERTED:
                if not _well_formed_insert(instr):
                    self.fail(f"{bname}[{j}]",
                              f"malformed {instr.origin} {instr}")
                inserted.append(("ins", instr))
                continue
            while True:
                if i == len(theirs):
                    self.fail(f"{bname}[{j}]",
                              f"{instr} matches no source instruction")
                pairings = self._pairings(theirs[i], instr)
                if pairings:
                    break
                if not _deletable(theirs[i]):
                    self.fail(f"{bname}[{j}]",
                              f"{instr} does not match {theirs[i]}")
                steps.append(("del", theirs[i]))
                i += 1
            steps.extend(inserted)
            inserted.clear()
            clobbered = self.target.constraints(instr).clobber_families
            steps.append(("op", theirs[i], instr, pairings, clobbered))
            i += 1
        if i != len(theirs):
            self.fail(bname, f"source {theirs[i]} is missing")
        steps.extend(inserted)
        return steps

    def _same(self, lowered: VirtualRegister, mine) -> bool:
        if not isinstance(mine, VirtualRegister):
            return False
        base, at, _ = mine.name.rpartition("@")
        return bool(at) and mine.type == lowered.type and (
            base == lowered.name
            or self._find(base) == self._find(lowered.name)
        )

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

    def _fixpoint(self, steps, entry_state: _State):
        """Run the must-analysis over the reachable blocks; returns
        each one's first flawed read as ``(step, message)``, or None.

        The reads are checked on every visit, and a visit's flaw
        replaces the one before: a block is queued again whenever a
        predecessor's facts change, so its last visit is the one that
        saw the fixpoint's entry state."""
        succs = {b.name: b.successors() for b in self.fn.blocks}
        preds: dict[str, list[str]] = {name: [] for name in succs}
        for name, targets in succs.items():
            for s in targets:
                preds[s].append(name)
        entry = self.fn.blocks[0].name
        order = {b.name: k for k, b in enumerate(self.fn.blocks)}
        outs: dict[str, _State] = {}
        flaws: dict[str, tuple[int, str] | None] = {}
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
            out, flaws[name] = self._transfer(steps[name], state.copy())
            if name not in outs or outs[name] != out:
                outs[name] = out
                for s in succs[name]:
                    if s not in pending:
                        pending.add(s)
                        work.append(s)
        return flaws

    def _write_reg(self, state: _State, name: str, held) -> None:
        """Register ``name`` now holds ``held``; overlapping registers
        lose what they held."""
        regs = state.regs
        if regs:
            hit = self.hits[name]
            reg_name = self.reg_name
            for other in [o for o in regs if reg_name[o] in hit]:
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

    def _transfer(self, steps, state: _State):
        """Apply one block's steps to ``state``; returns it with the
        block's first flawed read as ``(step, message)``, or None."""
        flaw = None
        for k, step in enumerate(steps):
            kind = step[0]
            if kind == "op":
                _, lowered, mine, pairings, clobbered = step
                if flaw is None:
                    message = self._check_reads(state, lowered, mine,
                                                pairings)
                    if message is not None:
                        flaw = (k, message)
                self._matched(state, lowered, mine, clobbered)
            elif kind == "ins":
                self._inserted(state, step[1])
            else:
                if flaw is None:
                    message = self._check_deleted(state, step[1])
                    if message is not None:
                        flaw = (k, message)
                self._deleted(state, step[1])
        return state, flaw

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

    def _check_deleted(self, state: _State, lowered: Instr) -> str | None:
        """A deleted load reads its slot where the source did; what is
        wrong with that read, or None."""
        if lowered.opcode is not Opcode.LOAD:
            return None
        slot = lowered.addr.slot.name
        if slot in state.dirty:
            return f"deleted {lowered} reads a changed @{slot}"
        return None

    def _deleted(self, state: _State, lowered: Instr) -> None:
        d = lowered.dst.name
        if lowered.opcode is Opcode.COPY:
            s = lowered.srcs[0].name
            if s == d:
                return
            const = state.const.get(s)
            undef = s not in state.defined
            state.kill_value(d)
            for facts in (state.regs, state.mem):
                for loc, held in list(facts.items()):
                    if s in held:
                        facts[loc] = held | {d}
            if undef:
                state.defined.discard(d)
            if const is not None:
                state.const[d] = const
            return
        slot = lowered.addr.slot.name
        state.kill_value(d)
        state.mem[slot] = state.mem.get(slot, _EMPTY) | {d}

    def _matched(self, state, lowered, mine, clobbered) -> None:
        op = lowered.opcode
        if op in _WRITES_MEMORY:
            self._source_writes_memory(state, lowered)
        if clobbered:
            keep = mine.dst.name if mine.dst is not None else None
            family = self.family
            regs = state.regs
            for name in [n for n in regs if family[n] in clobbered]:
                if name != keep:
                    del regs[name]
        if lowered.dst is None:
            return
        d = lowered.dst.name
        const = None
        if op in _MOVES:
            src = lowered.srcs[0]
            if op is Opcode.LI:
                const = src
            elif isinstance(src, VirtualRegister):
                const = state.const.get(src.name)
        state.kill_value(d)
        held = frozenset((d,))
        if mine.mem_dst is not None:
            self._write_mem(state, mine.mem_dst.slot.name, held)
        else:
            self._write_reg(state, mine.dst.name, held)
        if const is not None:
            state.const[d] = const

    def _source_writes_memory(self, state, lowered) -> None:
        """Memory the source writes, or a callee may write."""
        if lowered.opcode is Opcode.STORE:
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
        else:  # a call
            for slot in list(state.mem):
                if self._escapes(slot):
                    del state.mem[slot]

    def _check_reads(self, state, lowered, mine, pairings) -> str | None:
        """What is wrong with the values ``mine`` reads, or None."""
        # Registers of the effective address.
        if lowered.addr is not None:
            for lo, al in ((lowered.addr.base, mine.addr.base),
                           (lowered.addr.index, mine.addr.index)):
                if lo is not None and not state.holds(lo.name, al):
                    return f"{mine}: {al} does not hold %{lo.name}"
        # The operands, under some pairing.
        holds = state.holds
        for tied, rest in pairings:
            if tied is not None and not holds(tied.name, mine.mem_dst):
                continue
            for lo, al in zip(rest, mine.srcs):
                if isinstance(lo, VirtualRegister) and \
                        not holds(lo.name, al):
                    break
            else:
                break
        else:
            return (f"{mine}: an operand does not hold the value "
                    f"{lowered} reads")
        # Source memory the allocation has changed.
        dirty = state.dirty
        if dirty:
            op = lowered.opcode
            if op in _ESCAPE_POINTS:
                for slot in dirty:
                    if self._escapes(slot):
                        return f"{mine} sees the changed @{slot}"
            elif op is Opcode.LOAD:
                slot = lowered.addr.slot
                if slot is None or slot.name in dirty:
                    return f"{mine} reads a changed slot"
        return None


def _well_formed_insert(instr: Instr) -> bool:
    """Inserted code moves a value without changing it: one register
    and one whole slot, or two registers, of one type."""
    op = instr.opcode
    dst = instr.dst
    src = instr.srcs[0] if len(instr.srcs) == 1 else None
    origin = instr.origin
    if origin == "spill-load":
        ok = op is Opcode.LOAD and dst is not None and not instr.srcs \
            and _slot_of_type(instr.addr, dst.type)
    elif origin == "spill-store":
        ok = op is Opcode.STORE and dst is None \
            and isinstance(src, VirtualRegister) \
            and _slot_of_type(instr.addr, src.type)
    elif origin == "remat":
        ok = op is Opcode.LI and dst is not None \
            and isinstance(src, Immediate) and src.type == dst.type
    else:  # copy
        ok = op is Opcode.COPY and dst is not None \
            and isinstance(src, VirtualRegister) and src.type == dst.type
    return ok and instr.mem_dst is None and not instr.targets \
        and instr.callee is None and instr.cond is None \
        and (instr.addr is None or op in (Opcode.LOAD, Opcode.STORE))


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
