"""Tests of the instruction-spec registry: uniqueness, decode, coverage."""

import itertools

import pytest

from repro.isa import ISA, CUSTOM_MNEMONICS, CUSTOM_OPCODE, build_isa
from repro.isa.custom import CUSTOM_SPECS
from repro.isa.formats import decode_operands, encode_instruction
from repro.isa.spec import InstructionSet, InstructionSpec


class TestRegistry:
    def test_isa_is_populated(self):
        assert len(ISA) >= 90

    def test_extension_counts(self):
        assert len(ISA.by_extension("rv32m")) == 8
        # The paper's ten custom instructions plus the two future-work
        # fused extensions (vrhopi, vchi).
        assert len(ISA.by_extension("custom")) == 12
        assert len(CUSTOM_SPECS) == 10

    def test_baseline_isa_excludes_fused(self):
        baseline = build_isa(fused_extensions=False)
        assert "vrhopi.vi" not in baseline
        assert "vchi.vi" not in baseline
        assert "vpi.vi" in baseline

    def test_lookup_known(self):
        assert ISA.lookup("vxor.vv").mnemonic == "vxor.vv"

    def test_lookup_is_case_insensitive(self):
        assert ISA.lookup("ADDI").mnemonic == "addi"

    def test_lookup_unknown_gives_suggestion(self):
        with pytest.raises(KeyError, match="vslide"):
            ISA.lookup("vslidedow.vi")

    def test_contains(self):
        assert "addi" in ISA
        assert "nonsense" not in ISA

    def test_duplicate_registration_rejected(self):
        isa = InstructionSet()
        spec = InstructionSpec("dup", "system", 0x73, 0xFFFFFFFF, (), "x")
        isa.register(spec)
        with pytest.raises(ValueError, match="duplicate"):
            isa.register(spec)

    def test_match_outside_mask_rejected(self):
        isa = InstructionSet()
        with pytest.raises(ValueError, match="outside mask"):
            isa.register(
                InstructionSpec("bad", "system", 0xFF, 0x0F, (), "x")
            )

    def test_build_isa_returns_fresh_registry(self):
        assert build_isa() is not ISA
        assert len(build_isa()) == len(ISA)


class TestDecodeUnambiguity:
    def test_no_two_specs_overlap(self):
        """For any pair of specs, some fixed bit distinguishes them.

        Two encodings overlap iff they agree on every bit where both masks
        are set; that would make decoding order-dependent.
        """
        specs = [ISA.lookup(m) for m in ISA.mnemonics()]
        for a, b in itertools.combinations(specs, 2):
            common = a.mask & b.mask
            assert (a.match & common) != (b.match & common), \
                f"{a.mnemonic} and {b.mnemonic} encodings overlap"

    def test_every_spec_decodes_to_itself(self):
        for mnemonic in ISA.mnemonics():
            spec = ISA.lookup(mnemonic)
            assert ISA.find(spec.match).mnemonic == mnemonic

    def test_undecodable_word(self):
        with pytest.raises(LookupError):
            ISA.find(0x00000000)

    def test_decode_order_prefers_specific_masks(self):
        # srai and srli share funct3; funct7 must discriminate.
        srai = ISA.lookup("srai")
        word = encode_instruction(srai, {"rd": 1, "rs1": 2, "shamt": 3})
        assert ISA.find(word).mnemonic == "srai"


class TestCustomInstructionEncodings:
    def test_ten_custom_instructions(self):
        assert len(CUSTOM_MNEMONICS) == 10

    def test_paper_names_present(self):
        expected = {
            "vslidedownm.vi", "vslideupm.vi", "vrotup.vi",
            "v32lrotup.vv", "v32hrotup.vv", "v64rho.vi",
            "v32lrho.vv", "v32hrho.vv", "vpi.vi", "viota.vx",
        }
        assert set(CUSTOM_MNEMONICS) == expected

    def test_all_customs_use_custom1_opcode(self):
        for spec in CUSTOM_SPECS:
            assert spec.match & 0x7F == CUSTOM_OPCODE

    def test_custom_opcode_does_not_collide_with_rvv(self):
        # custom-1 (0101011) differs from OP-V (1010111) and LOAD/STORE-FP.
        assert CUSTOM_OPCODE not in (0x57, 0x07, 0x27)

    def test_custom_funct6_values_distinct(self):
        funct6 = [spec.match >> 26 for spec in CUSTOM_SPECS]
        assert len(set(funct6)) == len(funct6)

    def test_architecture_annotations(self):
        both = {"vslidedownm.vi", "vslideupm.vi", "vpi.vi", "viota.vx"}
        only64 = {"vrotup.vi", "v64rho.vi"}
        only32 = {"v32lrotup.vv", "v32hrotup.vv", "v32lrho.vv", "v32hrho.vv"}
        for spec in CUSTOM_SPECS:
            archs = set(spec.extra["archs"])
            if spec.mnemonic in both:
                assert archs == {"rv64", "rv32"}
            elif spec.mnemonic in only64:
                assert archs == {"rv64"}
            else:
                assert spec.mnemonic in only32
                assert archs == {"rv32"}

    def test_signed_immediates_where_paper_says_simm(self):
        assert ISA.lookup("v64rho.vi").extra.get("signed_imm")
        assert ISA.lookup("vpi.vi").extra.get("signed_imm")
        assert not ISA.lookup("vslidedownm.vi").extra.get("signed_imm")


class TestEncodeDecodeRoundTrips:
    CASES = [
        ("add", dict(rd=1, rs1=2, rs2=3)),
        ("sub", dict(rd=31, rs1=30, rs2=29)),
        ("addi", dict(rd=1, rs1=1, imm=-2048)),
        ("andi", dict(rd=5, rs1=6, imm=2047)),
        ("slli", dict(rd=1, rs1=2, shamt=31)),
        ("srai", dict(rd=1, rs1=2, shamt=0)),
        ("lw", dict(rd=8, rs1=2, imm=-4)),
        ("sw", dict(rs2=8, rs1=2, imm=124)),
        ("beq", dict(rs1=0, rs2=1, offset=-4096)),
        ("bgeu", dict(rs1=30, rs2=31, offset=4094)),
        ("lui", dict(rd=10, imm=0xFFFFF)),
        ("jal", dict(rd=1, offset=-8)),
        ("jalr", dict(rd=1, rs1=2, imm=16)),
        ("mul", dict(rd=3, rs1=4, rs2=5)),
        ("divu", dict(rd=3, rs1=4, rs2=5)),
        ("vsetvli", dict(rd=0, rs1=9, vtype=0x5B)),
        ("vadd.vv", dict(vd=1, vs2=2, vs1=3, vm=1)),
        ("vxor.vx", dict(vd=10, vs2=10, rs1=18, vm=1)),
        ("vand.vi", dict(vd=4, vs2=5, imm=-16, vm=0)),
        ("vsll.vi", dict(vd=4, vs2=5, imm=31, vm=1)),
        ("vle64.v", dict(vd=0, rs1=10, vm=1)),
        ("vse32.v", dict(vd=31, rs1=11, vm=0)),
        ("vlse64.v", dict(vd=2, rs1=10, rs2=11, vm=1)),
        ("vluxei32.v", dict(vd=2, rs1=10, vs2=8, vm=1)),
        ("vsuxei64.v", dict(vd=2, rs1=10, vs2=8, vm=0)),
        ("vslidedownm.vi", dict(vd=7, vs2=5, imm=2, vm=1)),
        ("vslideupm.vi", dict(vd=6, vs2=5, imm=1, vm=1)),
        ("vrotup.vi", dict(vd=7, vs2=7, imm=1, vm=1)),
        ("v32lrotup.vv", dict(vd=8, vs2=23, vs1=7, vm=1)),
        ("v32hrotup.vv", dict(vd=23, vs2=23, vs1=7, vm=1)),
        ("v64rho.vi", dict(vd=0, vs2=0, imm=-1, vm=1)),
        ("v32lrho.vv", dict(vd=8, vs2=16, vs1=0, vm=1)),
        ("v32hrho.vv", dict(vd=24, vs2=16, vs1=0, vm=1)),
        ("vpi.vi", dict(vd=5, vs2=0, imm=4, vm=1)),
        ("viota.vx", dict(vd=0, vs2=0, rs1=19, vm=1)),
    ]

    @pytest.mark.parametrize("mnemonic,ops", CASES,
                             ids=[c[0] for c in CASES])
    def test_round_trip(self, mnemonic, ops):
        spec = ISA.lookup(mnemonic)
        word = encode_instruction(spec, ops)
        found = ISA.find(word)
        assert found.mnemonic == mnemonic
        decoded = decode_operands(word, found)
        for key, value in ops.items():
            assert decoded[key] == value, (mnemonic, key)
