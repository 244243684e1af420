"""Instruction-set architecture of the SIMD processor.

One table-driven definition of every instruction the processor understands:
RV32I base, RV32M, the reserved RVV 1.0 subset, and the paper's ten custom
vector extensions.  :data:`ISA` is the fully-populated registry shared by
the assembler, the disassembler and the simulator's decoder.
"""

from .custom import (
    CUSTOM_ALIASES,
    CUSTOM_MNEMONICS,
    CUSTOM_OPCODE,
    CUSTOM_SPECS,
    FUSED_MNEMONICS,
    FUSED_SPECS,
)
from .csr import CSR_ADDRESSES, READ_ONLY_CSRS, ZICSR_SPECS, csr_name, parse_csr
from .encoding import EncodingError, get_bits, set_bits, sign_extend
from .formats import FORMATS, decode_operands, encode_instruction
from .registers import (
    NUM_SCALAR_REGS,
    NUM_VECTOR_REGS,
    RegisterError,
    is_scalar_register,
    is_vector_register,
    parse_scalar_register,
    parse_vector_register,
    scalar_register_name,
    vector_register_name,
)
from .rv32i import RV32I_SPECS
from .rv32m import RV32M_SPECS
from .spec import InstructionSet, InstructionSpec
from .vector import (
    LMUL_ENCODING,
    RVV_SPECS,
    SEW_ENCODING,
    decode_vtype,
    encode_vtype,
    parse_vtype_tokens,
    render_vtype,
)


def build_isa(fused_extensions: bool = True) -> InstructionSet:
    """Construct a fresh registry with every supported instruction.

    ``fused_extensions`` adds the future-work fused extensions (vrhopi/vchi)
    on top of the paper's baseline ISA.
    """
    isa = InstructionSet()
    isa.register_all(RV32I_SPECS)
    isa.register_all(RV32M_SPECS)
    isa.register_all(ZICSR_SPECS)
    isa.register_all(RVV_SPECS)
    isa.register_all(CUSTOM_SPECS)
    if fused_extensions:
        isa.register_all(FUSED_SPECS)
    return isa


#: The shared, fully-populated instruction set.
ISA = build_isa()

__all__ = [
    "ISA",
    "build_isa",
    "InstructionSet",
    "InstructionSpec",
    "FORMATS",
    "encode_instruction",
    "decode_operands",
    "EncodingError",
    "get_bits",
    "set_bits",
    "sign_extend",
    "RV32I_SPECS",
    "RV32M_SPECS",
    "ZICSR_SPECS",
    "CSR_ADDRESSES",
    "READ_ONLY_CSRS",
    "csr_name",
    "parse_csr",
    "RVV_SPECS",
    "CUSTOM_SPECS",
    "CUSTOM_ALIASES",
    "CUSTOM_MNEMONICS",
    "CUSTOM_OPCODE",
    "FUSED_SPECS",
    "FUSED_MNEMONICS",
    "NUM_SCALAR_REGS",
    "NUM_VECTOR_REGS",
    "RegisterError",
    "parse_scalar_register",
    "parse_vector_register",
    "scalar_register_name",
    "vector_register_name",
    "is_scalar_register",
    "is_vector_register",
    "encode_vtype",
    "decode_vtype",
    "parse_vtype_tokens",
    "render_vtype",
    "SEW_ENCODING",
    "LMUL_ENCODING",
]
