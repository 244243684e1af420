"""Evaluation harness: regenerate every table, figure and headline factor."""

from .instruction_mix import InstructionMix, measure_instruction_mix
from .interleave_analysis import Scenario as InterleaveScenario, analyze as analyze_interleaving, render_analysis as render_interleave_analysis
from .figures import (
    pi_rearrangement,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    slide_modulo_five,
)
from .measure import (
    Measurement,
    VerificationError,
    measure_config,
    measure_scalar_baseline,
)
from .report import Comparison, generate_report, render_report
from .tables import (
    PAPER_TABLE7,
    PAPER_TABLE8,
    TableRow,
    generate_table7,
    generate_table8,
    render_table,
)

__all__ = [
    "Measurement",
    "VerificationError",
    "measure_config",
    "measure_scalar_baseline",
    "TableRow",
    "generate_table7",
    "generate_table8",
    "render_table",
    "PAPER_TABLE7",
    "PAPER_TABLE8",
    "Comparison",
    "generate_report",
    "render_report",
    "InstructionMix",
    "InterleaveScenario",
    "analyze_interleaving",
    "render_interleave_analysis",
    "measure_instruction_mix",
    "render_fig5",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "slide_modulo_five",
    "pi_rearrangement",
]
