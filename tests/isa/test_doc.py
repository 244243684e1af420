"""Tests for the generated ISA reference."""

from repro.isa import ISA, build_isa
from repro.isa.doc import render_isa_reference, syntax_of


class TestSyntax:
    def test_scalar_syntax(self):
        assert syntax_of(ISA.lookup("addi")) == "addi rd, rs1, imm12"
        assert syntax_of(ISA.lookup("lw")) == "lw rd, imm(rs1)"
        assert syntax_of(ISA.lookup("sw")) == "sw rs2, imm(rs1)"
        assert syntax_of(ISA.lookup("blt")) == "blt rs1, rs2, label"

    def test_vector_syntax(self):
        assert syntax_of(ISA.lookup("vxor.vv")) == \
            "vxor.vv vd, vs2, vs1[, v0.t]"
        assert syntax_of(ISA.lookup("viota.vx")) == \
            "viota.vx vd, vs2, rs1[, v0.t]"
        assert syntax_of(ISA.lookup("vsetvli")) == \
            "vsetvli rd, rs1, eSEW, mLMUL, tu|ta, mu|ma"
        assert syntax_of(ISA.lookup("vle64.v")) == \
            "vle64.v vd, (rs1)[, v0.t]"


class TestReference:
    def test_every_mnemonic_documented(self):
        text = render_isa_reference(ISA)
        for mnemonic in ISA.mnemonics():
            assert f"`{mnemonic}`" in text, mnemonic

    def test_sections_present(self):
        text = render_isa_reference(ISA)
        assert "## RV32I" in text
        assert "## RV32M" in text
        assert "## RVV 1.0 subset" in text
        assert "## Custom vector extensions" in text

    def test_match_mask_rendered(self):
        text = render_isa_reference(ISA)
        vpi = ISA.lookup("vpi.vi")
        assert f"`{vpi.match:#010x}`" in text

    def test_arch_notes_for_customs(self):
        text = render_isa_reference(ISA)
        assert "*(archs: rv64)*" in text
        assert "*(archs: rv32)*" in text

    def test_selected_extensions_only(self):
        text = render_isa_reference(ISA, extensions=["rv32m"])
        assert "## RV32M" in text
        assert "## RV32I" not in text

    def test_reference_without_fused(self):
        text = render_isa_reference(build_isa(fused_extensions=False))
        assert "vrhopi" not in text
        assert "vpi.vi" in text

    def test_checked_in_copy_is_current(self):
        """docs/isa_reference.md must match the generated output."""
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[2] / "docs" / \
            "isa_reference.md"
        assert path.read_text() == render_isa_reference(ISA)
