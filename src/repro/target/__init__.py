"""Target-machine models: register files, encodings, costs, rules.

Everything machine-specific lives here — the rest of the system only
sees the :class:`TargetMachine` interface, so adding an architecture
means adding a register file, an encoding, and a rule table.
"""

from .costs import (
    CostEntry,
    MEM_OPERAND_EXTRA_CYCLES,
    MEM_OPERAND_EXTRA_SIZE,
    MEM_RMW_EXTRA_CYCLES,
    SPILL_COPY,
    SPILL_LOAD,
    SPILL_REMAT,
    SPILL_STORE,
    TABLE1,
    base_cycles,
    base_size,
    instr_cycles,
    rewritten_instr_size,
)
from .encoding import (
    Encoding,
    SHORT_EAX_IMM_OPS,
    UNIFORM_ENCODING,
    X86_ENCODING,
)
from .machine import (
    TARGETS,
    InstrRules,
    OperandRule,
    TargetMachine,
    risc_target,
    x86_target,
)
from .registers import (
    RealRegister,
    RegPart,
    RegisterFile,
    risc_register_file,
    x86_register_file,
)

__all__ = [
    "CostEntry",
    "Encoding",
    "InstrRules",
    "MEM_OPERAND_EXTRA_CYCLES",
    "MEM_OPERAND_EXTRA_SIZE",
    "MEM_RMW_EXTRA_CYCLES",
    "OperandRule",
    "RealRegister",
    "RegPart",
    "RegisterFile",
    "SHORT_EAX_IMM_OPS",
    "SPILL_COPY",
    "SPILL_LOAD",
    "SPILL_REMAT",
    "SPILL_STORE",
    "TABLE1",
    "TARGETS",
    "TargetMachine",
    "UNIFORM_ENCODING",
    "X86_ENCODING",
    "base_cycles",
    "base_size",
    "instr_cycles",
    "rewritten_instr_size",
    "risc_register_file",
    "risc_target",
    "x86_register_file",
    "x86_target",
]
