"""x86-flavoured intermediate representation.

This package is the substrate the paper's GCC experiments ran on: a
function-at-a-time, basic-block IR with unbounded virtual (symbolic)
registers, named memory slots, and two-address arithmetic constraints
that the register allocator must honour.
"""

from .builder import IRBuilder
from .function import BasicBlock, Function, Module
from .instructions import (
    ALU_OPS,
    COND_OPERATORS,
    DIV_OPS,
    SHIFT_OPS,
    Cond,
    Instr,
    Opcode,
    OpcodeInfo,
    opcode_info,
)
from .parser import ParseError, parse_function, parse_module
from .rewrite import clone_function, copy_instr, map_registers
from .printer import (
    format_function,
    format_instr,
    format_module,
    function_fingerprint,
)
from .types import ALL_TYPES, I8, I16, I32, IntType, type_from_name
from .values import (
    Address,
    Immediate,
    MemorySlot,
    Operand,
    SlotKind,
    VirtualRegister,
    plain,
)
from .verify import VerificationError, verify_function

__all__ = [
    "ALL_TYPES",
    "ALU_OPS",
    "Address",
    "BasicBlock",
    "COND_OPERATORS",
    "Cond",
    "DIV_OPS",
    "Function",
    "I16",
    "I32",
    "I8",
    "IRBuilder",
    "Immediate",
    "Instr",
    "IntType",
    "MemorySlot",
    "Module",
    "Opcode",
    "OpcodeInfo",
    "Operand",
    "ParseError",
    "SHIFT_OPS",
    "SlotKind",
    "VerificationError",
    "VirtualRegister",
    "clone_function",
    "copy_instr",
    "format_function",
    "map_registers",
    "format_instr",
    "format_module",
    "function_fingerprint",
    "opcode_info",
    "parse_function",
    "parse_module",
    "plain",
    "type_from_name",
    "verify_function",
]
