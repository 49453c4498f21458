"""Live-variable analysis.

Backward may-analysis over the CFG.  :func:`compute_liveness` also
materialises the live-after set of every instruction of every block
eagerly, so :meth:`Liveness.live_after` is a lookup.  The register
allocators use:

* ``live_in[b]`` / ``live_out[b]`` — block-boundary live sets,
* :meth:`Liveness.live_after` — registers live immediately after an
  instruction (i.e. whose current value may still be read),
* :meth:`Liveness.dies_at` — uses whose register is not live afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Function, VirtualRegister
from .cfg import CFG, build_cfg


@dataclass(slots=True)
class Liveness:
    fn: Function
    cfg: CFG
    live_in: dict[str, frozenset[VirtualRegister]]
    live_out: dict[str, frozenset[VirtualRegister]]
    #: per block: tuple of live-after sets, one per instruction index
    _after: dict[str, tuple[frozenset[VirtualRegister], ...]]

    def live_after(self, block: str, index: int) -> frozenset[VirtualRegister]:
        """Registers live immediately after ``block.instrs[index]``."""
        return self._after[block][index]

    def live_before(self, block: str, index: int) -> frozenset[VirtualRegister]:
        """Registers live immediately before ``block.instrs[index]``."""
        return self._transfer_one(
            self.fn.block(block).instrs[index],
            self._after[block][index],
        )

    def dies_at(self, block: str, index: int) -> frozenset[VirtualRegister]:
        """Registers used by the instruction whose value dies there."""
        instr = self.fn.block(block).instrs[index]
        after = self._after[block][index]
        return frozenset(u for u in instr.uses() if u not in after)

    @staticmethod
    def _transfer_one(instr, after: frozenset) -> frozenset:
        before = set(after)
        before.difference_update(instr.defs())
        before.update(instr.uses())
        return frozenset(before)


def compute_liveness(fn: Function, cfg: CFG | None = None) -> Liveness:
    cfg = cfg or build_cfg(fn)
    # Each instruction's reads and write, computed once for both walks.
    ops: dict[str, list] = {
        b.name: [(instr.uses(), instr.dst) for instr in b.instrs]
        for b in fn.blocks
    }
    use: dict[str, set] = {}
    deff: dict[str, set] = {}
    for name, block_ops in ops.items():
        u: set[VirtualRegister] = set()
        d: set[VirtualRegister] = set()
        for reads, dst in block_ops:
            for r in reads:
                if r not in d:
                    u.add(r)
            if dst is not None:
                d.add(dst)
        use[name], deff[name] = u, d

    live_in: dict[str, set] = {b.name: set() for b in fn.blocks}
    live_out: dict[str, set] = {b.name: set() for b in fn.blocks}

    # Iterate in reverse RPO for fast convergence.
    order = list(reversed(cfg.rpo))
    changed = True
    while changed:
        changed = False
        for b in order:
            out: set[VirtualRegister] = set()
            for s in cfg.succs[b]:
                out |= live_in[s]
            inn = use[b] | (out - deff[b])
            if out != live_out[b] or inn != live_in[b]:
                live_out[b] = out
                live_in[b] = inn
                changed = True

    # Materialise the live-after set of every instruction, walking each
    # block backwards; consecutive equal sets share one frozenset.
    after: dict[str, tuple[frozenset, ...]] = {}
    for name, block_ops in ops.items():
        sets: list[frozenset] = [frozenset()] * len(block_ops)
        live = frozenset(live_out[name])
        for i in range(len(block_ops) - 1, -1, -1):
            sets[i] = live
            reads, dst = block_ops[i]
            if dst is not None and dst in live:
                live = live.difference((dst,))
            if not live.issuperset(reads):
                live = live.union(reads)
        after[name] = tuple(sets)

    return Liveness(
        fn=fn,
        cfg=cfg,
        live_in={k: frozenset(v) for k, v in live_in.items()},
        live_out={k: frozenset(v) for k, v in live_out.items()},
        _after=after,
    )
