"""Fault injector semantics: triggers, payloads, restore-on-disarm."""

import pytest

from repro.keccak import keccak_f1600
from repro.programs import keccak64_lmul8, layout
from repro.resilience import FaultInjector, FaultSpec, program_pcs
from repro.sim import SIMDProcessor
from repro.sim.exceptions import (
    IllegalInstructionError,
    InjectedFaultError,
    MemoryAccessError,
    SimulationError,
)

PROGRAM = keccak64_lmul8.build(5)


def _prepared(random_state, **kwargs):
    proc = SIMDProcessor(elen=64, elenum=5, **kwargs)
    proc.load_program(PROGRAM.assemble())
    layout.load_states_regfile64(proc.vector.regfile, [random_state])
    return proc


def _round_body_pcs():
    assembled = PROGRAM.assemble()
    lo = assembled.symbols["round_body"]
    hi = assembled.symbols["round_end"]
    return [i.address for i in assembled.instructions if lo <= i.address < hi]


MODES = {
    "stepped": dict(predecode=False),
    "predecoded": dict(predecode=True),
}


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("flip-everything", pc=0)

    def test_rejects_bad_occurrence(self):
        with pytest.raises(ValueError, match="occurrence"):
            FaultSpec("raise", pc=0, occurrence=0)

    def test_describe_mentions_target(self):
        spec = FaultSpec("vreg-flip", pc=0x40, reg=7, bit=3)
        assert "v7" in spec.describe()
        assert "0x40" in spec.describe()


class TestTriggering:
    @pytest.mark.parametrize("mode", MODES)
    def test_raise_fires_at_trigger_pc(self, mode, random_state):
        proc = _prepared(random_state, **MODES[mode])
        pc = _round_body_pcs()[4]
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=pc))
            with pytest.raises(InjectedFaultError) as excinfo:
                proc.run()
            assert injector.fired
        assert excinfo.value.pc == pc
        assert excinfo.value.cycle is not None
        assert excinfo.value.instruction is not None

    @pytest.mark.parametrize("mode", MODES)
    def test_occurrence_counts_loop_iterations(self, mode, random_state):
        # The round body executes 24 times; occurrence 24 must still fire
        # while occurrence 25 never does.
        pc = _round_body_pcs()[0]
        proc = _prepared(random_state, **MODES[mode])
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=pc, occurrence=24))
            with pytest.raises(InjectedFaultError):
                proc.run()

        proc = _prepared(random_state, **MODES[mode])
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=pc, occurrence=25))
            proc.run()
            assert not injector.fired

    def test_custom_exception_type(self, random_state):
        proc = _prepared(random_state)
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=_round_body_pcs()[0],
                                   exception=MemoryAccessError))
            with pytest.raises(MemoryAccessError):
                proc.run()

    def test_arm_outside_program_rejected(self, random_state):
        proc = _prepared(random_state)
        with FaultInjector(proc) as injector:
            with pytest.raises(ValueError, match="outside"):
                injector.arm(FaultSpec("raise", pc=0xDEAD00))

    def test_duplicate_pc_rejected(self, random_state):
        proc = _prepared(random_state)
        pc = _round_body_pcs()[0]
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("raise", pc=pc))
            with pytest.raises(ValueError, match="already armed"):
                injector.arm(FaultSpec("vreg-flip", pc=pc))


class TestPayloads:
    @pytest.mark.parametrize("mode", MODES)
    def test_vreg_flip_corrupts_output(self, mode, random_state):
        # Flipping a state lane bit right at the start of the permutation
        # must change the result — and behave identically in every mode.
        proc = _prepared(random_state, **MODES[mode])
        pc = _round_body_pcs()[0]
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("vreg-flip", pc=pc, reg=1, bit=0))
            proc.run()
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out != keccak_f1600(random_state)

    def test_sreg_flip_to_x0_is_masked(self, random_state):
        proc = _prepared(random_state)
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("sreg-flip", pc=_round_body_pcs()[0],
                                   reg=0, bit=5))
            proc.run()
            assert injector.fired
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_f1600(random_state)

    def test_mem_flip_unread_address_is_masked(self, random_state):
        # This program keeps its state in the register file; most of data
        # memory is never loaded, so the flip cannot propagate.
        proc = _prepared(random_state)
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("mem-flip", pc=_round_body_pcs()[0],
                                   address=0x8000, bit=3))
            proc.run()
            assert injector.fired
        assert proc.memory.load(0x8000, 8) == 1 << 3
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_f1600(random_state)

    @pytest.mark.parametrize("mode", MODES)
    def test_word_corrupt_opcode_goes_illegal(self, mode, random_state):
        # Find a round-body word where flipping bit 2 stops it decoding;
        # the injected corruption must then raise IllegalInstructionError.
        assembled = PROGRAM.assemble()
        from repro.isa import ISA
        target = None
        for pc in _round_body_pcs():
            word = next(i.word for i in assembled.instructions
                        if i.address == pc)
            try:
                ISA.find(word ^ 4)
            except LookupError:
                target = pc
                break
        assert target is not None
        proc = _prepared(random_state, **MODES[mode])
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("word-corrupt", pc=target, bit=2))
            with pytest.raises(IllegalInstructionError) as excinfo:
                proc.run()
        assert excinfo.value.pc == target


class TestDisarm:
    def test_disarm_restores_clean_execution(self, random_state):
        proc = _prepared(random_state)
        pc = _round_body_pcs()[0]
        injector = FaultInjector(proc)
        injector.arm(FaultSpec("raise", pc=pc))
        with pytest.raises(InjectedFaultError):
            proc.run()
        injector.disarm()

        proc.reset()
        layout.load_states_regfile64(proc.vector.regfile, [random_state])
        proc.run()
        out = layout.read_states_regfile64(proc.vector.regfile, 1)[0]
        assert out == keccak_f1600(random_state)

    def test_disarm_restores_corrupted_decode(self, random_state):
        proc = _prepared(random_state)
        pc = _round_body_pcs()[0]
        pre = proc._predecoded
        entry = pre.entry_at(pc)
        original = (entry.word, entry.mnemonic, entry.execute)
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("word-corrupt", pc=pc, bit=2))
            assert entry.word != original[0]
        assert (entry.word, entry.mnemonic, entry.execute) == original

    def test_stepped_disarm_restores_program_word(self, random_state):
        proc = _prepared(random_state, predecode=False)
        pc = _round_body_pcs()[0]
        original = proc._program_words[pc]
        with FaultInjector(proc) as injector:
            injector.arm(FaultSpec("word-corrupt", pc=pc, bit=2))
            try:
                proc.run()
            except SimulationError:
                pass
        assert proc._program_words[pc] == original
        assert proc.fault_hook is None


class TestProgramPcs:
    def test_clipping(self, random_state):
        proc = _prepared(random_state)
        assembled = PROGRAM.assemble()
        lo = assembled.symbols["round_body"]
        hi = assembled.symbols["round_end"]
        pcs = program_pcs(proc, lo, hi)
        assert pcs == _round_body_pcs()

    def test_requires_program(self):
        with pytest.raises(ValueError, match="no program"):
            program_pcs(SIMDProcessor(elen=64, elenum=5))
