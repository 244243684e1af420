"""Mid-run faults: predecoded execution must fail exactly like stepped.

When an executor raises, every counter a handler can see (retired
instructions, cycles, per-mnemonic counts) and the scalar pc must sit
exactly at the faulting instruction.  These tests force a fault at
*every* instruction offset of a Keccak round body's straight-line run
— from ``round_body`` through the loop branch — and assert that the
architecturally visible failure state on the predecoded engine is
identical to per-instruction (``predecode=False``) execution: same
retired count, same cycle count, same pc, same exception context.

Two programs are covered: the unfused LMUL=8 program of Algorithm 2 and
the fused ρ+π/χ program (``vrhopi.vi``/``vchi.vi``), whose custom
multi-row instructions are the longest-running single executors.
"""

import pytest

from repro.programs import keccak64_fused, keccak64_lmul8, layout
from repro.resilience import FaultInjector, FaultSpec
from repro.sim import SIMDProcessor
from repro.sim.exceptions import (
    IllegalInstructionError,
    MemoryAccessError,
    SimulationError,
)

ASSEMBLED = keccak64_lmul8.build(5).assemble()
FUSED_ASSEMBLED = keccak64_fused.build(5).assemble()
BRANCHES = {"beq", "bne", "blt", "bge", "bltu", "bgeu", "jal", "jalr"}


def _round_body_run(assembled):
    """(start pc, length) of the round body up to its first branch."""
    start = assembled.symbols["round_body"]
    length = 0
    for inst in assembled.instructions:
        if inst.address < start:
            continue
        length += 1
        if inst.mnemonic in BRANCHES:
            break
    return start, length


RUN_START, RUN_LEN = _round_body_run(ASSEMBLED)
FUSED_START, FUSED_LEN = _round_body_run(FUSED_ASSEMBLED)
EXCEPTIONS = (MemoryAccessError, IllegalInstructionError)


def _fresh(random_state, assembled=ASSEMBLED, **kwargs):
    proc = SIMDProcessor(elen=64, elenum=5, **kwargs)
    proc.load_program(assembled)
    layout.load_states_regfile64(proc.vector.regfile, [random_state])
    return proc


def _fail_state(proc, spec):
    """Run to the injected fault; capture everything a handler can see."""
    with FaultInjector(proc) as injector:
        injector.arm(spec)
        with pytest.raises(SimulationError) as excinfo:
            proc.run()
        assert injector.fire_count == 1
    exc = excinfo.value
    return {
        "type": type(exc),
        "exc_pc": exc.pc,
        "exc_cycle": exc.cycle,
        "exc_instruction": exc.instruction,
        "scalar_pc": proc.scalar.pc,
        "instructions": proc.stats.instructions,
        "cycles": proc.stats.cycles,
        "mnemonic_counts": dict(proc.stats.mnemonic_counts),
    }


def _assert_parity(random_state, assembled, pc, exception):
    spec = FaultSpec("raise", pc=pc, exception=exception)
    predecoded = _fail_state(_fresh(random_state, assembled), spec)
    stepped = _fail_state(
        _fresh(random_state, assembled, predecode=False), spec)
    assert predecoded["type"] is exception
    assert predecoded["exc_pc"] == pc
    assert predecoded == stepped


class TestMidblockFaultParity:
    @pytest.mark.parametrize("assembled", [ASSEMBLED, FUSED_ASSEMBLED],
                             ids=["unfused", "fused"])
    def test_run_spans_the_round_body(self, assembled):
        """The run is long enough to make interior faults meaningful and
        ends at the loop branch, past ``round_end``."""
        start, length = _round_body_run(assembled)
        assert length >= 8
        end = start + 4 * (length - 1)
        assert end >= assembled.symbols["round_end"]

    @pytest.mark.parametrize("offset", range(RUN_LEN))
    def test_predecoded_unfused_matches_stepped(self, offset, random_state):
        """Every offset of the unfused LMUL=8 round body, both fault
        types."""
        for exception in EXCEPTIONS:
            _assert_parity(random_state, ASSEMBLED,
                           RUN_START + 4 * offset, exception)

    @pytest.mark.parametrize("exception", EXCEPTIONS,
                             ids=lambda e: e.__name__)
    @pytest.mark.parametrize("offset", range(FUSED_LEN))
    def test_fused_matches_stepped_at_every_offset(self, offset, exception,
                                                   random_state):
        """Every offset of the fused ρ+π/χ program's round body."""
        _assert_parity(random_state, FUSED_ASSEMBLED,
                       FUSED_START + 4 * offset, exception)

    @pytest.mark.parametrize("offset", [0, RUN_LEN // 2, RUN_LEN - 1])
    def test_parity_holds_across_loop_iterations(self, offset, random_state):
        """Occurrence 3 faults on the third round: the counters must
        include two complete rounds plus the partial run."""
        pc = RUN_START + 4 * offset
        spec = FaultSpec("raise", pc=pc, occurrence=3,
                         exception=MemoryAccessError)
        predecoded = _fail_state(_fresh(random_state), spec)
        stepped = _fail_state(_fresh(random_state, predecode=False), spec)
        assert predecoded == stepped
