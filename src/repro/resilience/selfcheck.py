"""Differential self-verification: predecoded vs stepped vs golden model.

Three independent references keep the execution engines honest:

* the **naive stepped decoder** (``predecode=False``) — decode-per-fetch,
  the seed interpreter's reference semantics;
* the **pure-python golden model** —
  :func:`repro.keccak.permutation.keccak_f1600`, validated against the
  NIST vectors by the keccak test suite;
* **hashlib** — CPython's independent SHA-3 for end-to-end digests.

:func:`lockstep_verify` runs the predecoded engine against the naive
decoder *one instruction at a time*, comparing the full architectural
state after every step, and reports the **first divergence** down to the
(pc, register, lane) that disagrees.  :func:`selfcheck_run` compares the
predecoded engine's final state and counters against stepped execution
and the golden permutation — the cheap whole-run oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import hashlib

from ..keccak.permutation import keccak_f1600
from ..keccak.state import KeccakState
from ..programs import layout
from ..programs.base import KeccakProgram
from ..sim.exceptions import ProcessorHalted, SimulationError
from ..sim.processor import SIMDProcessor
from ..sim.vector_regfile import NUM_VECTOR_REGISTERS


@dataclass(frozen=True)
class Divergence:
    """The first point where two executions disagree."""

    instruction_index: int
    pc: int
    #: What diverged: "pc", "halted", "cycles", "scalar", "vreg",
    #: "memory", "exception", "state", "digest".
    kind: str
    #: Register number for "scalar"/"vreg" divergences.
    register: Optional[int] = None
    #: Lane (SEW-wide element index) for "vreg" divergences.
    lane: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        where = f"instruction {self.instruction_index} at pc={self.pc:#x}"
        if self.kind == "vreg":
            return (f"{where}: v{self.register} lane {self.lane} "
                    f"diverged ({self.detail})")
        if self.kind == "scalar":
            return f"{where}: x{self.register} diverged ({self.detail})"
        return f"{where}: {self.kind} diverged ({self.detail})"


@dataclass
class SelfCheckReport:
    """Outcome of one differential check."""

    ok: bool
    divergences: List[Divergence] = field(default_factory=list)
    checked_instructions: int = 0

    def summary(self) -> str:
        if self.ok:
            return (f"self-check ok "
                    f"({self.checked_instructions} instruction(s) compared)")
        return "self-check FAILED: " + "; ".join(
            str(d) for d in self.divergences
        )


def _first_vreg_divergence(index: int, pc: int,
                           a: SIMDProcessor,
                           b: SIMDProcessor) -> Optional[Divergence]:
    sew = a.elen
    for reg in range(NUM_VECTOR_REGISTERS):
        va, vb = a.vector.regfile.read_raw(reg), b.vector.regfile.read_raw(reg)
        if va == vb:
            continue
        mask = (1 << sew) - 1
        lane = 0
        while va & mask == vb & mask:
            va >>= sew
            vb >>= sew
            lane += 1
        return Divergence(
            index, pc, "vreg", register=reg, lane=lane,
            detail=f"{va & mask:#x} != {vb & mask:#x}",
        )
    return None


def _compare_architectural(index: int, pc: int,
                           a: SIMDProcessor,
                           b: SIMDProcessor) -> Optional[Divergence]:
    """First state difference between two processors, or None."""
    if a.scalar.pc != b.scalar.pc:
        return Divergence(index, pc, "pc",
                          detail=f"{a.scalar.pc:#x} != {b.scalar.pc:#x}")
    if a.halted != b.halted:
        return Divergence(index, pc, "halted",
                          detail=f"{a.halted} != {b.halted}")
    if a.stats.cycles != b.stats.cycles:
        return Divergence(
            index, pc, "cycles",
            detail=f"{a.stats.cycles} != {b.stats.cycles}")
    for reg in range(32):
        ra, rb = a.scalar.read_register(reg), b.scalar.read_register(reg)
        if ra != rb:
            return Divergence(index, pc, "scalar", register=reg,
                              detail=f"{ra:#x} != {rb:#x}")
    return _first_vreg_divergence(index, pc, a, b)


def _make_processor(program: KeccakProgram, engine: str) -> SIMDProcessor:
    return SIMDProcessor(elen=program.elen, elenum=program.elenum,
                         predecode=engine != "stepped", engine=engine)


def _place_states(proc: SIMDProcessor, program: KeccakProgram,
                  states: Sequence[KeccakState]) -> None:
    proc.load_program(program.assemble())
    if not states:
        return
    if program.state_base is not None:
        image = (layout.memory_image64(states, program.elenum)
                 if program.elen == 64
                 else layout.memory_image32(states, program.elenum))
        proc.memory.store_bytes(program.state_base, image)
    elif program.elen == 64:
        layout.load_states_regfile64(proc.vector.regfile, states)
    else:
        layout.load_states_regfile32(proc.vector.regfile, states)


def _read_states(proc: SIMDProcessor, program: KeccakProgram,
                 count: int) -> List[KeccakState]:
    if count == 0:
        return []
    if program.state_base is not None:
        if program.elen == 64:
            size = 5 * program.elenum * 8
            image = proc.memory.load_bytes(program.state_base, size)
            return layout.parse_memory_image64(image, program.elenum, count)
        size = 2 * 5 * program.elenum * 4
        image = proc.memory.load_bytes(program.state_base, size)
        return layout.parse_memory_image32(image, program.elenum, count)
    if program.elen == 64:
        return layout.read_states_regfile64(proc.vector.regfile, count)
    return layout.read_states_regfile32(proc.vector.regfile, count)


def lockstep_verify(program: KeccakProgram,
                    states: Sequence[KeccakState],
                    max_instructions: int = 200_000) -> SelfCheckReport:
    """Step the predecoded engine against the naive decoder in lockstep.

    After every instruction the two processors' pc, halt flag, cycle
    counter, all 32 scalar registers and all 32 vector registers must be
    identical; the first mismatch is reported as a (pc, register, lane)
    :class:`Divergence`.  Final data memory is compared once at the end
    (comparing a megabyte per step would swamp the signal).
    """
    fast = _make_processor(program, "predecoded")
    slow = _make_processor(program, "stepped")
    _place_states(fast, program, states)
    _place_states(slow, program, states)

    index = 0
    while not (fast.halted or slow.halted):
        if index >= max_instructions:
            return SelfCheckReport(
                ok=False, checked_instructions=index,
                divergences=[Divergence(index, fast.scalar.pc, "limit",
                                        detail="lockstep budget exhausted")],
            )
        pc = fast.scalar.pc
        exc_fast = exc_slow = None
        try:
            fast.step()
        except ProcessorHalted:
            raise
        except SimulationError as exc:
            exc_fast = exc
        try:
            slow.step()
        except ProcessorHalted:
            raise
        except SimulationError as exc:
            exc_slow = exc
        if (exc_fast is None) != (exc_slow is None) or (
                exc_fast is not None
                and type(exc_fast) is not type(exc_slow)):
            return SelfCheckReport(
                ok=False, checked_instructions=index,
                divergences=[Divergence(
                    index, pc, "exception",
                    detail=f"{type(exc_fast).__name__ if exc_fast else None}"
                           f" != "
                           f"{type(exc_slow).__name__ if exc_slow else None}",
                )],
            )
        divergence = _compare_architectural(index, pc, fast, slow)
        if divergence is not None:
            return SelfCheckReport(ok=False, checked_instructions=index,
                                   divergences=[divergence])
        if exc_fast is not None:
            break  # both faulted identically with matching state
        index += 1

    if fast.memory.load_bytes(0, fast.memory.size) != \
            slow.memory.load_bytes(0, slow.memory.size):
        return SelfCheckReport(
            ok=False, checked_instructions=index,
            divergences=[Divergence(index, fast.scalar.pc, "memory",
                                    detail="final data memory differs")],
        )
    return SelfCheckReport(ok=True, checked_instructions=index)


def selfcheck_run(program: KeccakProgram,
                  states: Sequence[KeccakState],
                  max_instructions: int = 10_000_000) -> SelfCheckReport:
    """Whole-run oracle: predecoded vs stepped execution vs the golden model.

    Runs the program twice — on the predecoded engine and on the
    per-instruction stepped decoder — and requires identical final
    states, cycle and instruction counters, then checks both against :func:`keccak_f1600` applied to
    the input states.  (For reduced-round programs the golden comparison
    is skipped; the engines must still agree with each other.)
    """
    predecoded = _make_processor(program, "predecoded")
    stepped = _make_processor(program, "stepped")
    divergences: List[Divergence] = []

    results = []
    for proc in (predecoded, stepped):
        _place_states(proc, program, states)
        exc: Optional[SimulationError] = None
        try:
            proc.run(max_instructions=max_instructions)
        except SimulationError as err:
            exc = err
        results.append(exc)

    exc_predecoded, exc_stepped = results
    index = predecoded.stats.instructions
    if (exc_predecoded is None) != (exc_stepped is None) or (
            exc_predecoded is not None
            and type(exc_predecoded) is not type(exc_stepped)):
        divergences.append(Divergence(
            index, predecoded.scalar.pc, "exception",
            detail=f"predecoded "
                   f"{type(exc_predecoded).__name__ if exc_predecoded else None}"
                   f" != stepped "
                   f"{type(exc_stepped).__name__ if exc_stepped else None}",
        ))
    else:
        divergence = _compare_architectural(index, predecoded.scalar.pc,
                                            predecoded, stepped)
        if divergence is not None:
            divergences.append(divergence)
        elif exc_predecoded is None and states \
                and program.num_rounds == 24:
            out = _read_states(predecoded, program, len(states))
            golden = [keccak_f1600(s) for s in states]
            for lane_index, (got, want) in enumerate(zip(out, golden)):
                if got != want:
                    divergences.append(Divergence(
                        index, predecoded.scalar.pc, "state",
                        lane=lane_index,
                        detail="final state differs from keccak_f1600",
                    ))
                    break
    return SelfCheckReport(ok=not divergences, divergences=divergences,
                           checked_instructions=index)


def crosscheck_digest(message: bytes) -> SelfCheckReport:
    """End-to-end digest oracle: simulator vs hashlib vs pure python.

    Hashes ``message`` with SHA3-256 on the simulated processor, with
    CPython's ``hashlib`` and with the repository's pure-python sponge;
    all three must agree byte for byte.
    """
    from ..keccak.hashes import sha3_256
    from ..programs.sha3_driver import simulated_sha3_256

    simulated = simulated_sha3_256(message)
    reference = hashlib.sha3_256(message).digest()
    pure = sha3_256(message)
    divergences = []
    if simulated != reference:
        divergences.append(Divergence(
            0, 0, "digest", detail="simulator != hashlib"))
    if pure != reference:
        divergences.append(Divergence(
            0, 0, "digest", detail="pure python != hashlib"))
    return SelfCheckReport(ok=not divergences, divergences=divergences)
