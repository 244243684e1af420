"""Predecoded program representation: decode once, execute many times.

The seed interpreter re-ran ``ISA.find`` (a linear search) and
``decode_operands`` (a dict build) on every fetch.  :func:`predecode`
instead walks an assembled :class:`~repro.assembler.program.Program` once
and binds every instruction word to a :class:`DecodedInstruction` whose
``execute`` closure already routes to the right unit — scalar core,
vector unit, ``vsetvli`` or CSR — with operands resolved.  Entries live
in a dense array indexed by ``(pc - base_address) >> 2``, so the fetch in
the hot loop is a single list index.

Faults are preserved exactly: a word the ISA cannot decode (or a unit
cannot execute) gets an executor that raises the same
:class:`~repro.sim.exceptions.IllegalInstructionError` the per-step
decoder would have raised — but only when the pc actually reaches it,
matching the lazy per-step behaviour that the fault-injection tests rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..assembler.program import Program
from ..isa import decode_operands
from ..isa.spec import InstructionSpec
from .exceptions import IllegalInstructionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .processor import SIMDProcessor

#: An executor returns ``(cycles, next_pc)``; ``next_pc`` is None for
#: sequential fall-through (the caller advances pc by 4).
Executor = Callable[[], Tuple[int, Optional[int]]]


@dataclass
class DecodedInstruction:
    """One instruction word, decoded and bound to its execution unit."""

    pc: int
    word: int
    mnemonic: str
    spec: Optional[InstructionSpec]
    execute: Executor


@dataclass
class PredecodedProgram:
    """A program with every word decoded into a dense executor array."""

    program: Program
    base_address: int
    words: Tuple[int, ...]
    entries: List[DecodedInstruction]
    #: Lazily computed code-generation fingerprint (see
    #: :mod:`repro.sim.codegen`).  Lives on the predecode so the
    #: word-snapshot cache check invalidates both together: a mutated
    #: word re-decodes the program, which drops the stale fingerprint.
    codegen_fingerprint: Optional[str] = field(default=None, repr=False)

    def matches(self, program: Program) -> bool:
        """Is this predecode still valid for ``program``?

        Identity alone is not enough: the fault-injection tests mutate
        instruction words in place, so the word snapshot (and base
        address) must still agree.
        """
        return (
            program is self.program
            and program.base_address == self.base_address
            and len(program.instructions) == len(self.words)
            and all(inst.word == word for inst, word
                    in zip(program.instructions, self.words))
        )

    def entry_at(self, pc: int) -> Optional[DecodedInstruction]:
        """The entry at ``pc``, or None for a fetch outside the program."""
        offset = pc - self.base_address
        if offset & 3 or not 0 <= (index := offset >> 2) < len(self.entries):
            return None
        return self.entries[index]


def _illegal_executor(message: str) -> Executor:
    def run() -> Tuple[int, Optional[int]]:
        raise IllegalInstructionError(message)

    return run


def predecode(processor: "SIMDProcessor", program: Program
              ) -> PredecodedProgram:
    """Decode every word of ``program`` against ``processor``'s ISA.

    The returned executors capture the processor's scalar core, vector
    unit and CSR/vsetvli helpers; they stay valid as long as the
    processor keeps those objects (resets are done in place).
    """
    isa = processor._isa
    scalar = processor.scalar
    vector = processor.vector
    read_register = scalar.read_register

    entries: List[DecodedInstruction] = []
    for inst in program.instructions:
        pc, word = inst.address, inst.word
        try:
            spec = isa.find(word)
        except LookupError as exc:
            entries.append(DecodedInstruction(
                pc, word, "<illegal>", None, _illegal_executor(str(exc))
            ))
            continue
        ops = decode_operands(word, spec)

        if spec.mnemonic == "vsetvli":
            def run_vsetvli(ops=ops) -> Tuple[int, Optional[int]]:
                return processor._execute_vsetvli(ops), None

            execute: Executor = run_vsetvli
        elif spec.extension == "zicsr":
            def run_csr(spec=spec, ops=ops) -> Tuple[int, Optional[int]]:
                return processor._execute_csr(spec, ops), None

            execute = run_csr
        elif spec.extension in ("rvv", "custom"):
            execute = vector.compile_executor(spec, ops, read_register)
        else:
            execute = scalar.compile_executor(spec, ops, pc)

        entries.append(DecodedInstruction(pc, word, spec.mnemonic, spec,
                                          execute))

    return PredecodedProgram(
        program=program,
        base_address=program.base_address,
        words=tuple(inst.word for inst in program.instructions),
        entries=entries,
    )
