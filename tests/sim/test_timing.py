"""TimingModel: identity with the calibrated model, knob semantics,
cache keying, and pin identity across engines x timing models."""

import pytest

from repro.keccak.permutation import keccak_f1600
from repro.keccak.state import KeccakState
from repro.programs.factory import build_program
from repro.programs.session import Session
from repro.sim import codegen
from repro.sim.cycles import CycleModel, DEFAULT_CYCLE_MODEL
from repro.sim.processor import SIMDProcessor
from repro.sim.timing import DEFAULT_TIMING_MODEL, TimingModel

_SCALAR_FIELDS = (
    "scalar_alu", "scalar_load", "scalar_store", "scalar_mul",
    "scalar_div", "branch_taken", "branch_not_taken", "jump", "vsetvli",
)

#: The paper's published cycle pins per (elen, lmul) variant.
PINS = {(64, 1): (2564, 103.0), (64, 8): (1892, 75.0),
        (32, 8): (3620, 147.0)}


def _states(count=1, seed=7):
    import random

    rng = random.Random(seed)
    return [KeccakState([rng.getrandbits(64) for _ in range(25)])
            for _ in range(count)]


class TestDefaultIdentity:
    """The default TimingModel is bit-identical to the CycleModel."""

    def test_scalar_costs_match(self):
        for name in _SCALAR_FIELDS:
            assert getattr(DEFAULT_TIMING_MODEL, name) \
                == getattr(DEFAULT_CYCLE_MODEL, name)

    def test_vector_costs_match(self):
        for passes in (1, 2, 5, 8, 40):
            assert DEFAULT_TIMING_MODEL.vector_arith(passes) \
                == DEFAULT_CYCLE_MODEL.vector_arith(passes)
            assert DEFAULT_TIMING_MODEL.vector_pi(passes) \
                == DEFAULT_CYCLE_MODEL.vector_pi(passes)
            assert DEFAULT_TIMING_MODEL.vector_memory(passes) \
                == DEFAULT_CYCLE_MODEL.vector_memory(passes)

    def test_invalid_pass_count_still_raises(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMING_MODEL.vector_arith(0)

    def test_is_default(self):
        assert DEFAULT_TIMING_MODEL.is_default
        assert not TimingModel(register_banks=2).is_default


class TestNormalization:
    def test_of_passthrough(self):
        model = TimingModel(issue_width=2)
        assert TimingModel.of(model) is model

    def test_of_wraps_cycle_model(self):
        custom = CycleModel(scalar_div=10)
        wrapped = TimingModel.of(custom)
        assert wrapped.base is custom
        assert wrapped.scalar_div == 10

    def test_of_default_spellings_share_one_model(self):
        assert TimingModel.of(None) is DEFAULT_TIMING_MODEL
        assert TimingModel.of(CycleModel()) is DEFAULT_TIMING_MODEL
        assert TimingModel.of(DEFAULT_CYCLE_MODEL) is DEFAULT_TIMING_MODEL

    def test_of_rejects_junk(self):
        with pytest.raises(TypeError):
            TimingModel.of("fast please")

    def test_hashable_and_equal_by_value(self):
        assert TimingModel() == DEFAULT_TIMING_MODEL
        assert hash(TimingModel()) == hash(DEFAULT_TIMING_MODEL)
        assert TimingModel(chaining=True) != DEFAULT_TIMING_MODEL

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(issue_width=0)
        with pytest.raises(ValueError):
            TimingModel(register_banks=0)
        with pytest.raises(ValueError):
            TimingModel(dispatch_overhead=-1)


class TestKnobs:
    def test_register_banks_divide_passes(self):
        model = TimingModel(register_banks=5)
        # ceil(5/5)=1 pass + 1 dispatch
        assert model.vector_arith(5) == 2
        assert model.vector_arith(6) == 3  # ceil(6/5)=2 + dispatch

    def test_banks_do_not_hide_memory_roundtrips(self):
        model = TimingModel(register_banks=5)
        # regfile passes banked (1), memory round-trips not (5), + dispatch
        assert model.vector_memory(5) == 1 + 5 + 1

    def test_chaining_hides_arith_dispatch_only(self):
        model = TimingModel(chaining=True)
        assert model.vector_arith(5) == 5
        assert model.vector_pi(5) == 6
        assert model.vector_memory(5) == DEFAULT_CYCLE_MODEL.vector_memory(5)

    def test_issue_width_scales_scalar_costs(self):
        model = TimingModel(issue_width=2)
        assert model.scalar_alu == 1  # never free
        assert model.scalar_load == 1  # ceil(2/2)
        assert model.scalar_div == 19  # ceil(37/2)
        assert model.branch_taken == 2  # ceil(3/2)
        # vector costs untouched by the scalar front end
        assert model.vector_arith(5) == 6

    def test_dispatch_override(self):
        model = TimingModel(dispatch_overhead=4)
        assert model.vector_arith(5) == 9
        assert model.vector_memory(5) == 5 + 5 + 4
        assert TimingModel(dispatch_overhead=0).vector_arith(5) == 5


class TestFingerprint:
    def test_equal_models_equal_fingerprints(self):
        assert TimingModel().fingerprint() \
            == DEFAULT_TIMING_MODEL.fingerprint()

    def test_each_knob_changes_the_fingerprint(self):
        prints = {
            TimingModel().fingerprint(),
            TimingModel(issue_width=2).fingerprint(),
            TimingModel(register_banks=2).fingerprint(),
            TimingModel(chaining=True).fingerprint(),
            TimingModel(dispatch_overhead=1).fingerprint(),
            TimingModel(base=CycleModel(scalar_alu=2)).fingerprint(),
        }
        assert len(prints) == 6

    def test_dispatch_override_vs_equal_base_distinct(self):
        # dispatch_overhead=1 produces the *same costs* as the default
        # (vector_dispatch=1) but is a distinct configuration; equal
        # fingerprints are only promised for equal models.
        a = TimingModel(dispatch_overhead=1)
        assert a.vector_arith(5) == DEFAULT_TIMING_MODEL.vector_arith(5)


class TestCacheKeying:
    """A kernel compiled under one timing model is never served under
    another — the ISSUE's regression test."""

    def test_program_fingerprint_includes_timing_model(self):
        program = build_program(64, 8, 5).assemble()
        default_proc = SIMDProcessor(elen=64, elenum=5)
        slow_proc = SIMDProcessor(
            elen=64, elenum=5,
            cycle_model=TimingModel(dispatch_overhead=3))
        assert codegen.program_fingerprint(default_proc, program) \
            != codegen.program_fingerprint(slow_proc, program)

    def test_equal_costs_different_model_different_key(self):
        # dispatch_overhead=1 equals the default's costs, but the cache
        # key must still differ: keying is by model fingerprint, not by
        # sampled costs.
        program = build_program(64, 8, 5).assemble()
        a = SIMDProcessor(elen=64, elenum=5)
        b = SIMDProcessor(elen=64, elenum=5,
                          cycle_model=TimingModel(dispatch_overhead=1))
        assert codegen.program_fingerprint(a, program) \
            != codegen.program_fingerprint(b, program)

    def test_disk_cache_version_bumped(self):
        assert codegen.CODEGEN_VERSION >= 2
        directory = codegen.cache_dir()
        if directory is not None:
            assert f"v{codegen.CODEGEN_VERSION}" in directory

    def test_compiled_cycles_follow_the_model(self):
        """Run compiled under two models: each must report its own
        model's cycles (== that model's predecoded cycles), not the
        cycles baked in by whichever model compiled first."""
        program = build_program(64, 8, 5)
        slow = TimingModel(dispatch_overhead=5)
        cycles = {}
        for name, model in (("default", DEFAULT_TIMING_MODEL),
                            ("slow", slow)):
            per_engine = {}
            for engine in ("predecoded", "compiled"):
                session = Session(model, engine=engine)
                states = _states()
                result = session.run(program, states)
                assert result.states == [keccak_f1600(s) for s in states]
                per_engine[engine] = result.stats.cycles
            assert per_engine["predecoded"] == per_engine["compiled"], (
                f"{name}: compiled kernel reported stale cycles")
            cycles[name] = per_engine["compiled"]
        assert cycles["slow"] > cycles["default"]


class TestPinIdentityMatrix:
    """Default model reproduces the paper pins on every cycle-accurate
    engine; a non-default model changes cycles but never digests."""

    @pytest.mark.parametrize("elen,lmul", sorted(PINS))
    @pytest.mark.parametrize("engine", ("stepped", "predecoded"))
    def test_default_model_pins(self, elen, lmul, engine):
        program = build_program(elen, lmul, 5)
        session = Session(engine=engine)
        result = session.run(program, [], trace=True)
        pin_cycles, pin_cpr = PINS[(elen, lmul)]
        assert result.permutation_cycles == pin_cycles
        assert result.cycles_per_round == pin_cpr

    @pytest.mark.parametrize("elen,lmul", sorted(PINS))
    def test_compiled_total_matches_predecoded_total(self, elen, lmul):
        # The compiled engine declines traced runs, so its pin identity
        # is checked on whole-run totals against predecoded.
        program = build_program(elen, lmul, 5)
        states = _states()
        predecoded = Session(engine="predecoded").run(program, states)
        compiled = Session(engine="compiled").run(program, states)
        assert compiled.stats.cycles == predecoded.stats.cycles
        assert compiled.states == predecoded.states

    @pytest.mark.parametrize("elen,lmul", sorted(PINS))
    def test_non_default_model_changes_cycles_not_digests(self, elen, lmul):
        # dispatch_overhead touches every vector op in every variant
        # (register banks would be a no-op for single-pass LMUL1 ops).
        program = build_program(elen, lmul, 5)
        states = _states()
        expected = [keccak_f1600(s) for s in states]
        slow = Session(TimingModel(dispatch_overhead=5))
        result = slow.run(program, states, trace=True)
        pin_cycles, _ = PINS[(elen, lmul)]
        assert result.permutation_cycles > pin_cycles
        assert result.states == expected
