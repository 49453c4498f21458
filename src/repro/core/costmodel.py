"""The paper's cost model (§4, eq. 1):

    cost(x) = A * cycle(x) + B * instruction_size(x) + C * data_size(x)

``A`` is the execution count of the instruction the action applies to
(profiled, or statically estimated from loop depth), ``B`` the cycle
cost of one byte of code growth, ``C`` of one byte of data traffic.

The action costs the IP is built from and :meth:`CostModel.price` of
whole functions are the same model: the solved objective of a function
equals ``price(allocated code) - price(lowered code)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ExecutionFrequencies
from ..ir import Address, Function
from ..target import (
    MEM_OPERAND_EXTRA_CYCLES,
    MEM_OPERAND_EXTRA_SIZE,
    MEM_RMW_EXTRA_CYCLES,
    SPILL_COPY,
    SPILL_LOAD,
    SPILL_REMAT,
    SPILL_STORE,
    RealRegister,
    TargetMachine,
    base_size,
    instr_cycles,
    rewritten_instr_size,
)
from .config import AllocatorConfig


@dataclass(slots=True)
class CostModel:
    """Computes eq.-(1) costs of allocation actions and of code."""

    freq: ExecutionFrequencies
    config: AllocatorConfig

    def _a(self, block: str) -> float:
        scale = (
            self.config.profile_scale
            if self.freq.source == "profile" else 1.0
        )
        return self.freq.of(block) * scale

    def _combine(self, block: str, cycles: float, size: float,
                 data: float = 0.0) -> float:
        return sum(self._terms(block, cycles, size, data))

    def _terms(self, block: str, cycles: float, size: float,
               data: float) -> tuple[float, float, float]:
        if self.config.optimize_size_only:
            # §4: pure code-size optimisation drops the A and C terms.
            return (0.0, self.config.code_size_weight * size, 0.0)
        return (
            self._a(block) * cycles,
            self.config.code_size_weight * size,
            self.config.data_size_weight * data,
        )

    # -- whole functions ---------------------------------------------------

    def price(
        self,
        fn: Function,
        target: TargetMachine,
        assignment: dict[str, RealRegister] | None = None,
    ) -> tuple[float, float, float]:
        """The eq.-(1) terms ``(A*cycle, B*size, C*data)`` of ``fn``'s
        code: sizes under ``assignment`` (§5.4 deltas; none without
        one), data as the bytes spill code and memory operands move."""
        assignment = assignment or {}
        cycle = size = data = 0.0
        for block, _, instr in fn.instructions():
            moved = 0
            if instr.origin == "spill-load":
                moved += instr.dst.type.bytes
            elif instr.origin == "spill-store":
                moved += instr.srcs[0].type.bytes
            for src in instr.srcs:
                if isinstance(src, Address):
                    moved += src.slot.type.bytes
            if instr.mem_dst is not None:
                moved += 2 * instr.mem_dst.slot.type.bytes
            c, s, d = self._terms(
                block.name, instr_cycles(instr),
                rewritten_instr_size(instr, assignment, target.encoding),
                moved,
            )
            cycle += c
            size += s
            data += d
        return cycle, size, data

    # -- spill-code actions (Table 1) -----------------------------------

    def load(self, block: str, data_bytes: int) -> float:
        return self._combine(block, SPILL_LOAD.cycles, SPILL_LOAD.size,
                             data_bytes)

    def store(self, block: str, data_bytes: int) -> float:
        return self._combine(block, SPILL_STORE.cycles, SPILL_STORE.size,
                             data_bytes)

    def remat(self, block: str) -> float:
        return self._combine(block, SPILL_REMAT.cycles, SPILL_REMAT.size)

    def copy(self, block: str) -> float:
        return self._combine(block, SPILL_COPY.cycles, SPILL_COPY.size)

    def copy_deletion(self, block: str) -> float:
        """Savings (negative cost) for deleting an input copy."""
        return -self.copy(block)

    # -- §5.2 memory operands -----------------------------------------------

    def memory_use(self, block: str, data_bytes: int) -> float:
        return self._combine(
            block, MEM_OPERAND_EXTRA_CYCLES, MEM_OPERAND_EXTRA_SIZE,
            data_bytes,
        )

    def combined_mem_use_def(self, block: str, data_bytes: int) -> float:
        return self._combine(
            block, MEM_RMW_EXTRA_CYCLES, MEM_OPERAND_EXTRA_SIZE,
            2 * data_bytes,
        )

    # -- §5.4 encoding deltas --------------------------------------------

    def size_delta(self, block: str, bytes_delta: float) -> float:
        """Pure code-size cost (short opcodes, address penalties).

        ``bytes_delta`` may be negative (a per-register discount)."""
        return self.config.code_size_weight * bytes_delta

    # -- §5.5 predefined-memory coalescing ---------------------------------

    def coalesce_saving(self, block: str, load_instr) -> float:
        """Savings from deleting the original defining load."""
        return -self._combine(
            block, instr_cycles(load_instr), base_size(load_instr)
        )
