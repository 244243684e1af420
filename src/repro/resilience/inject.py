"""Fault injection into the simulated processor.

The injector plants one or more :class:`FaultSpec` faults into a loaded
program and fires them when execution reaches a chosen pc for the N-th
time.  Supported fault kinds:

``vreg-flip``
    Flip one bit of a vector register (the VLEN-bit packed value).
``sreg-flip``
    Flip one bit of a scalar register (x0 stays hard-wired to zero, so a
    flip aimed at it is architecturally masked — by design).
``mem-flip``
    Flip one bit of a data-memory byte.
``word-corrupt``
    Corrupt the decoded instruction: from the trigger on, the entry
    behaves as if one bit of its instruction word had flipped (latched,
    like a stuck bit in the instruction memory).  The corrupted word is
    re-decoded through the same ISA tables, so it either becomes a
    different instruction or raises the same
    :class:`~repro.sim.exceptions.IllegalInstructionError` a per-step
    decoder would raise.
``raise``
    Force a :class:`~repro.sim.exceptions.SimulationError` subclass at
    the trigger — the hook the exact-fault-context contract (pc, cycle
    and retired count at the fault) is tested through.

Instrumentation strategy — the hot path stays unpaid:

* **Predecoded processors** are instrumented by *wrapping the decoded
  entry* at the trigger pc.  Unaffected entries and the predecoded
  dispatch loop are untouched; with no injector armed the execution
  path is byte-for-byte the uninstrumented hot loop.
* **Stepped processors** (``predecode=False``) have no entries to wrap;
  the injector installs :attr:`~repro.sim.processor.SIMDProcessor.
  fault_hook`, which the per-step decode path consults before each
  instruction.

State flips fire exactly once (the trigger occurrence); ``word-corrupt``
latches; ``raise`` fires on every visit from the trigger occurrence on
(the first visit already aborts the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..isa import decode_operands
from ..sim.exceptions import (
    IllegalInstructionError,
    InjectedFaultError,
    SimulationError,
)
from ..sim.predecode import DecodedInstruction
from ..sim.processor import SIMDProcessor

FAULT_KINDS = ("vreg-flip", "sreg-flip", "mem-flip", "word-corrupt", "raise")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to corrupt, and when.

    ``pc`` is the trigger address; the fault fires the ``occurrence``-th
    time execution reaches it (1-based).  Which payload fields matter
    depends on ``kind`` (see the module docstring).
    """

    kind: str
    pc: int
    occurrence: int = 1
    reg: int = 0
    bit: int = 0
    address: int = 0
    exception: Type[SimulationError] = InjectedFaultError

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1: {self.occurrence}")

    def describe(self) -> str:
        target = {
            "vreg-flip": f"v{self.reg} bit {self.bit}",
            "sreg-flip": f"x{self.reg} bit {self.bit}",
            "mem-flip": f"mem[{self.address:#x}] bit {self.bit}",
            "word-corrupt": f"instruction word bit {self.bit}",
            "raise": self.exception.__name__,
        }[self.kind]
        return (f"{self.kind} @ pc={self.pc:#x} "
                f"(occurrence {self.occurrence}): {target}")


@dataclass
class _ArmedFault:
    """Mutable per-run state of one armed fault."""

    spec: FaultSpec
    visits: int = 0
    fired: int = 0
    #: The original executor (predecoded mode) for restore on disarm.
    original_execute: Optional[Callable] = None
    entry: Optional[DecodedInstruction] = None
    #: Original decode of the entry (word-corrupt restore).
    original_word: Optional[int] = None
    original_spec: Optional[object] = None
    original_mnemonic: Optional[str] = None
    #: Stepped-mode word-corrupt: the program word was mutated.
    word_mutated: bool = False

    def should_fire(self) -> bool:
        """Advance the visit counter; does this visit trigger the fault?"""
        self.visits += 1
        spec = self.spec
        if spec.kind in ("word-corrupt", "raise"):
            return self.visits >= spec.occurrence
        return self.visits == spec.occurrence


class FaultInjector:
    """Arms faults on one processor; restores it on disarm/exit.

    Usable as a context manager::

        with FaultInjector(proc) as inj:
            inj.arm(FaultSpec("vreg-flip", pc=0x40, reg=3, bit=17))
            proc.run()
        assert inj.fire_count == 1

    ``arm`` requires a loaded program (the trigger pc must resolve to an
    instruction).  Multiple faults may be armed at distinct pcs.
    """

    def __init__(self, processor: SIMDProcessor) -> None:
        self.processor = processor
        self._armed: Dict[int, _ArmedFault] = {}
        self._hook_installed = False

    # -- public API ---------------------------------------------------------------

    @property
    def fire_count(self) -> int:
        """Total fault activations across all armed faults."""
        return sum(armed.fired for armed in self._armed.values())

    @property
    def fired(self) -> bool:
        return self.fire_count > 0

    def arm(self, spec: FaultSpec) -> None:
        """Instrument the processor for ``spec``."""
        if spec.pc in self._armed:
            raise ValueError(f"a fault is already armed at pc={spec.pc:#x}")
        armed = _ArmedFault(spec)
        pre = self.processor._predecoded
        if pre is not None:
            entry = pre.entry_at(spec.pc)
            if entry is None:
                raise ValueError(
                    f"trigger pc={spec.pc:#x} is outside the loaded program"
                )
            armed.entry = entry
            armed.original_execute = entry.execute
            if spec.kind == "word-corrupt":
                # Swap the entry's whole decode so trace records and
                # fault annotations name the corrupted instruction.
                armed.original_word = entry.word
                armed.original_spec = entry.spec
                armed.original_mnemonic = entry.mnemonic
                word = entry.word ^ (1 << (spec.bit & 31))
                execute, corrupt_spec, mnemonic = \
                    self._decode_executor(word, entry.pc)
                entry.word = word
                entry.spec = corrupt_spec
                entry.mnemonic = mnemonic
                entry.execute = self._wrap_corrupt(
                    armed, armed.original_execute, execute)
            else:
                entry.execute = self._wrap(armed)
            # Disqualify the compiled engine: a flat kernel would run
            # straight past the wrapped executor (see
            # SIMDProcessor._run_compiled).
            self.processor.instrumented += 1
        else:
            if self.processor._program_words.get(spec.pc) is None:
                raise ValueError(
                    f"trigger pc={spec.pc:#x} is outside the loaded program"
                )
            self._install_hook()
        self._armed[spec.pc] = armed

    def disarm(self) -> None:
        """Restore every wrapped entry / hook; the processor is pristine."""
        for armed in self._armed.values():
            if armed.entry is not None:
                armed.entry.execute = armed.original_execute
                self.processor.instrumented -= 1
                if armed.original_word is not None:
                    armed.entry.word = armed.original_word
                    armed.entry.spec = armed.original_spec
                    armed.entry.mnemonic = armed.original_mnemonic
            if armed.word_mutated and armed.original_word is not None:
                self.processor._program_words[armed.spec.pc] = \
                    armed.original_word
        if self._hook_installed:
            self.processor.fault_hook = None
            self._hook_installed = False
        self._armed.clear()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.disarm()

    # -- predecoded-path instrumentation ----------------------------------------------

    def _wrap(self, armed: _ArmedFault) -> Callable:
        """An executor that applies a flip/raise fault at the trigger."""
        spec = armed.spec
        original = armed.original_execute

        def execute() -> Tuple[int, Optional[int]]:
            if not armed.should_fire():
                return original()
            armed.fired += 1
            if spec.kind == "raise":
                raise spec.exception(
                    f"injected fault: {spec.describe()}", pc=spec.pc
                )
            self._apply_state_flip(spec)
            return original()

        return execute

    def _wrap_corrupt(self, armed: _ArmedFault, original: Callable,
                      corrupted: Callable) -> Callable:
        """An executor that latches onto the corrupted decode."""

        def execute() -> Tuple[int, Optional[int]]:
            if armed.should_fire():
                armed.fired += 1
                return corrupted()
            return original()

        return execute

    def _decode_executor(self, word: int, pc: int):
        """Decode ``word`` into ``(executor, spec, mnemonic)``.

        Mirrors :func:`repro.sim.predecode.predecode` for a single word,
        including the lazily-raising executor for an undecodable one.
        """
        processor = self.processor
        try:
            spec = processor._isa.find(word)
        except LookupError as exc:
            message = str(exc)

            def illegal() -> Tuple[int, Optional[int]]:
                raise IllegalInstructionError(message, pc=pc)

            return illegal, None, "<illegal>"
        ops = decode_operands(word, spec)
        if spec.mnemonic == "vsetvli":
            execute = lambda: (processor._execute_vsetvli(ops), None)  # noqa: E731
        elif spec.extension == "zicsr":
            execute = lambda: (processor._execute_csr(spec, ops), None)  # noqa: E731
        elif spec.extension in ("rvv", "custom"):
            execute = processor.vector.compile_executor(
                spec, ops, processor.scalar.read_register)
        else:
            execute = processor.scalar.compile_executor(spec, ops, pc)
        return execute, spec, spec.mnemonic

    # -- stepped-path instrumentation ---------------------------------------------------

    def _install_hook(self) -> None:
        if self._hook_installed:
            return
        if self.processor.fault_hook is not None:
            raise RuntimeError("another fault hook is already installed")

        def hook(processor: SIMDProcessor, pc: int) -> None:
            armed = self._armed.get(pc)
            if armed is None or not armed.should_fire():
                return
            armed.fired += 1
            spec = armed.spec
            if spec.kind == "word-corrupt":
                if not armed.word_mutated:
                    word = processor._program_words[pc]
                    armed.original_word = word
                    armed.word_mutated = True
                    processor._program_words[pc] = \
                        word ^ (1 << (spec.bit & 31))
                return
            if spec.kind == "raise":
                raise spec.exception(
                    f"injected fault: {spec.describe()}", pc=pc
                )
            self._apply_state_flip(spec)

        self.processor.fault_hook = hook
        self._hook_installed = True

    # -- fault payloads ----------------------------------------------------------------

    def _apply_state_flip(self, spec: FaultSpec) -> None:
        processor = self.processor
        if spec.kind == "vreg-flip":
            regfile = processor.vector.regfile
            bit = spec.bit % processor.vlen_bits
            regfile.write_raw(
                spec.reg, regfile.read_raw(spec.reg) ^ (1 << bit)
            )
        elif spec.kind == "sreg-flip":
            scalar = processor.scalar
            value = scalar.read_register(spec.reg)
            scalar.write_register(spec.reg, value ^ (1 << (spec.bit & 31)))
        elif spec.kind == "mem-flip":
            memory = processor.memory
            byte = memory.load(spec.address, 8)
            memory.store(spec.address, 8, byte ^ (1 << (spec.bit & 7)))


def program_pcs(processor: SIMDProcessor,
                low: Optional[int] = None,
                high: Optional[int] = None) -> List[int]:
    """The pcs of the loaded program (optionally clipped to [low, high)).

    Campaign drivers use this to aim faults at the round body.
    """
    program = processor.program
    if program is None:
        raise ValueError("no program loaded")
    return [
        inst.address for inst in program.instructions
        if (low is None or inst.address >= low)
        and (high is None or inst.address < high)
    ]
