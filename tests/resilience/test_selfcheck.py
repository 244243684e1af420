"""Differential oracle tests: clean programs pass, planted faults are
localized down to (pc, register, lane)."""

import pytest

from repro.programs.factory import build_program
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    crosscheck_digest,
    lockstep_verify,
    run_campaign,
    selfcheck_run,
)
from repro.resilience.selfcheck import _place_states
from repro.sim import SIMDProcessor

VARIANTS = [(64, 1), (64, 8), (32, 8)]


class TestCleanPrograms:
    @pytest.mark.parametrize("elen,lmul", VARIANTS)
    def test_lockstep_clean(self, elen, lmul, random_states):
        program = build_program(elen, lmul, elenum=5)
        report = lockstep_verify(program, random_states(1))
        assert report.ok, report.summary()
        assert report.checked_instructions > 100

    @pytest.mark.parametrize("elen,lmul", VARIANTS)
    def test_selfcheck_run_clean(self, elen, lmul, random_states):
        program = build_program(elen, lmul, elenum=5)
        report = selfcheck_run(program, random_states(1))
        assert report.ok, report.summary()

    def test_digest_crosscheck(self):
        report = crosscheck_digest(b"differential oracle")
        assert report.ok


class TestDivergenceLocalization:
    def test_vreg_divergence_localized_to_register_and_lane(self):
        # A single flipped bit between two otherwise-identical register
        # files must be named down to (register, lane).
        from repro.resilience.selfcheck import _first_vreg_divergence

        a = SIMDProcessor(elen=64, elenum=5)
        b = SIMDProcessor(elen=64, elenum=5)
        b.vector.regfile.write_raw(3, a.vector.regfile.read_raw(3) ^ (1 << 70))
        divergence = _first_vreg_divergence(12, 0x40, a, b)
        assert divergence is not None
        assert divergence.register == 3
        assert divergence.lane == 70 // 64  # bit 70 sits in lane 1
        assert "lane 1" in str(divergence)

    def test_planted_fault_caught_by_whole_run_oracle(self, random_states):
        # An injected flip must surface as a faulted-vs-clean divergence
        # when the faulted output is compared against the golden model.
        program = build_program(64, 8, elenum=5)
        states = random_states(1)
        faulted = SIMDProcessor(elen=64, elenum=5)
        _place_states(faulted, program, states)
        pc = program.assemble().symbols["round_body"]
        with FaultInjector(faulted) as injector:
            injector.arm(FaultSpec("vreg-flip", pc=pc, reg=3, bit=70))
            faulted.run()
        from repro.keccak import keccak_f1600
        from repro.programs import layout
        out = layout.read_states_regfile64(faulted.vector.regfile, 1)[0]
        assert out != keccak_f1600(states[0])

    def test_report_summary_mentions_divergence(self, random_states):
        from repro.resilience.selfcheck import Divergence, SelfCheckReport

        report = SelfCheckReport(ok=False, divergences=[
            Divergence(12, 0x40, "vreg", register=5, lane=2, detail="x"),
        ])
        assert "v5 lane 2" in report.summary()
        assert "FAILED" in report.summary()


class TestCampaign:
    def test_small_campaign_zero_silent(self):
        report = run_campaign(num_faults=45, seed=7)
        assert len(report.results) == 45
        assert report.zero_silent, report.summary()
        # The campaign must actually exercise all three outcome classes.
        assert report.counts["detected"] > 0
        assert report.counts["masked"] > 0

    def test_campaign_is_reproducible(self):
        a = run_campaign(num_faults=12, seed=99)
        b = run_campaign(num_faults=12, seed=99)
        assert [r.classification for r in a.results] == \
            [r.classification for r in b.results]
        assert [r.trial.spec for r in a.results] == \
            [r.trial.spec for r in b.results]

    def test_campaign_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_campaign(num_faults=1, modes=("warp-speed",))

    def test_summary_format(self):
        report = run_campaign(num_faults=9, seed=3)
        text = report.summary()
        assert "9 fault(s)" in text
        assert "SILENT" in text
